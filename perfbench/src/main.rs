//! Wall-clock benchmark of the QBF stack, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload po-tree --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The command runs the workload in a child process (so `peak_rss_mb` is
//! the workload's own, and a crash is counted instead of losing the run)
//! and prints one JSON object as the last line of stdout. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs untraced and traced
//! passes alternately and reports the per-layer metrics from the spans.
//! `--refresh-answers` recomputes `perfbench/answers.tsv`. See
//! `perfbench/README.md`.

mod cold;
mod pass;
mod pool;
mod serve;
mod trace;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pass::{fastest, Pass};
use pool::{Instance, Order, Session};
use trace::{quantile, Tracer};

const WORKLOADS: [&str; 4] = ["po-tree", "to-prenex", "prenex-large", "serve-session"];
/// Set-up repetitions per run (at least); `setup_s` is the fastest.
const SETUP_REPS: usize = 15;
/// The child is killed (and its operations counted as failed) after this.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1\n       perfbench --refresh-answers",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--child" => a.child = true,
            "--refresh-answers" => {
                std::fs::write(pool::ANSWERS_FILE, pool::refresh_answers()).expect("write answers");
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds <= 0.0 {
        usage();
    }
    a
}

fn main() {
    let args = parse_args();
    if args.child {
        child(&args);
    } else {
        parent();
    }
}

/// Re-runs this binary as `--child`, forwards its progress to stderr and
/// prints its result — or, when it dies, a result that counts the
/// operations it had started as failed.
fn parent() {
    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .args(std::env::args().skip(1))
        .arg("--child")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the workload process");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for the workload") {
            break Some(status);
        }
        if start.elapsed() > CHILD_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    reader.join().expect("reader thread");
    let mut result = None;
    let (mut attempted, mut in_flight) = (0u64, 1u64);
    for line in rx.try_iter() {
        if let Some(n) = line.strip_prefix("plan ") {
            in_flight = n.parse().unwrap_or(1);
            attempted += in_flight;
        } else if line.starts_with("{\"correct\"") {
            result = Some(line);
        } else {
            eprintln!("{line}");
        }
    }
    match (status, result) {
        (Some(s), Some(line)) if s.success() => println!("{line}"),
        (status, _) => {
            eprintln!("perfbench: workload process ended abnormally ({status:?})");
            println!(
                "{{\"correct\":false,\"attempted\":{},\"failed\":{in_flight},\"metrics\":{{}}}}",
                attempted.max(1)
            );
        }
    }
}

enum Prepared {
    Cold {
        pool: Vec<Instance>,
        order: Vec<usize>,
    },
    Serve(Session),
}

/// Generates the workload's inputs from the seed (and, for
/// `serve-session`, loads them into fresh servers).
fn prepare(workload: &str, seed: u64) -> Prepared {
    let cold = |pool: Vec<Instance>| {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        let mut rng = qbf_gen::rng::Rng::seed_from_u64(seed ^ 0x0bde_2000_0000_0002);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Prepared::Cold { pool, order }
    };
    match workload {
        "po-tree" | "to-prenex" => {
            let answers = pool::read_answers(pool::ANSWERS);
            let order = if workload == "po-tree" {
                Order::Po
            } else {
                Order::To
            };
            cold(pool::table1_pool(order, &answers))
        }
        "prenex-large" => cold(pool::large_pool()),
        _ => {
            let session = pool::serve_session(seed);
            serve::load(&session, &mut Tracer::new(false)).unwrap_or_else(|e| panic!("{e}"));
            Prepared::Serve(session)
        }
    }
}

fn run_pass(prepared: &Prepared, tr: &mut Tracer) -> Pass {
    match prepared {
        Prepared::Cold { pool, order } => {
            println!("plan {}", pool.len());
            cold::pass(pool, order, tr)
        }
        Prepared::Serve(session) => {
            let ops: usize = session.families.iter().map(|f| f.lines.len()).sum();
            println!("plan {ops}");
            match serve::load(session, tr) {
                Ok(mut servers) => serve::pass(session, &mut servers, tr),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    Pass {
                        ops,
                        failed: ops,
                        ..Pass::default()
                    }
                }
            }
        }
    }
}

/// Passes per run: `seconds` over a fixed nominal pass time, at least
/// three. The nominal times are what an untraced pass took on the reference
/// host when the benchmark was added. They are constants so that every
/// commit measured with the same `--seconds` takes its fastest times over
/// the same number of passes; a pass count that followed the clock would
/// give a faster build more samples and so a lower minimum. With two passes
/// the fastest of two kept too much of the host's noise.
fn pass_count(workload: &str, seconds: f64) -> usize {
    let nominal_pass_s = match workload {
        "po-tree" => 3.5,
        "to-prenex" => 12.0,
        "prenex-large" => 6.5,
        _ => 0.6,
    };
    ((seconds / nominal_pass_s).round() as usize).max(3)
}

/// The tail reported for `n` verdict operations: p99 when at least ten
/// operations lie beyond it, else p90. A quantile with fewer samples beyond
/// it is one or two operations' times and moves with them alone.
fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        0.9
    }
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn child(args: &Args) {
    let passes = pass_count(&args.workload, args.seconds);
    let mut setup_s = f64::INFINITY;
    let mut prepared = None;

    // A fixed number of passes; with `--trace 1` untraced and traced
    // passes alternate, starting untraced. The set-ups are spread over the
    // run, a few before each pass, so that one slow stretch of the host
    // does not cover them all.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Tracer)> = Vec::new();
    for i in 0..passes {
        for _ in 0..SETUP_REPS.div_ceil(passes) {
            // Freed first, so that two inputs never coexist in `peak_rss_mb`.
            drop(prepared.take());
            let t = Instant::now();
            prepared = Some(prepare(&args.workload, args.seed));
            setup_s = setup_s.min(t.elapsed().as_secs_f64());
        }
        let prepared = prepared.as_ref().expect("a set-up before every pass");
        if args.trace && i % 2 == 1 {
            let mut tr = Tracer::new(true);
            let p = run_pass(prepared, &mut tr);
            traced.push((p, tr));
        } else {
            plain.push(run_pass(prepared, &mut Tracer::new(false)));
        }
    }
    let prepared = prepared.expect("at least one pass");
    // Read before the checks below, whose own solves would set it.
    let peak_rss_mb = peak_rss_mb();

    // Determinism: every pass, traced or not, must agree exactly.
    let passes: Vec<&Pass> = plain.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    let first = passes[0];
    let deterministic = passes.iter().all(|p| {
        p.digest.0 == first.digest.0 && p.values == first.values && p.decided == first.decided
    });
    if !deterministic {
        eprintln!("perfbench: passes disagree on verdicts or counters");
    }
    eprintln!(
        "perfbench: determinism digest {:016x} over {} passes",
        first.digest.0,
        passes.len()
    );
    let batches: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.batch_s)).collect();
    eprintln!("perfbench: pass batch_s {}", batches.join(" "));

    let t = Instant::now();
    let (wrong, unchecked) = match &prepared {
        Prepared::Cold { pool, .. } => cold::check(pool, &first.values),
        Prepared::Serve(session) => serve::check(session, &first.values),
    };
    eprintln!(
        "perfbench: verdicts checked in {:.1} s; {} wrong, {unchecked} decided but uncheckable",
        t.elapsed().as_secs_f64(),
        wrong.len()
    );
    for w in &wrong {
        eprintln!("perfbench: wrong verdict: {w}");
    }

    let attempted: usize = passes.iter().map(|p| p.ops).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum::<usize>() + wrong.len() * passes.len();
    let correct = deterministic && failed == 0;
    let verdicts = first.values.len().max(1) as f64;

    let mut m = Vec::new();
    if !args.trace {
        let verdict_ms = fastest(plain.iter(), |p| &p.verdict_ms);
        let update_ms = fastest(plain.iter(), |p| &p.update_ms);
        let batch = (verdict_ms.iter().sum::<f64>() + update_ms.iter().sum::<f64>()) / 1e3;
        m.push(metric("setup_s", setup_s, "s"));
        m.push(metric("batch_s", batch, "s"));
        m.push(metric("verdict_ms.p50", quantile(&verdict_ms, 0.5), "ms"));
        m.push(metric(
            "verdict_ms.tail",
            quantile(&verdict_ms, tail_quantile(verdict_ms.len())),
            "ms",
        ));
        m.push(metric(
            "decided_share",
            first.decided as f64 / verdicts,
            "share",
        ));
        m.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    } else {
        m.extend(layer_metrics(
            &plain,
            &traced,
            failed as f64 / attempted.max(1) as f64,
        ));
        let dump = std::env::current_exe().ok().and_then(|p| {
            p.parent()
                .map(|d| d.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)))
        });
        if let Some(path) = dump {
            let text: String = traced.iter().map(|(_, tr)| tr.to_jsonl()).collect();
            if std::fs::write(&path, text).is_ok() {
                eprintln!("perfbench: spans written to {}", path.display());
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        m.join(",")
    );
}

/// The per-layer metrics of a traced run: self times from the spans and
/// counters from the program, each per pass (averaged over the traced
/// passes).
fn layer_metrics(plain: &[Pass], traced: &[(Pass, Tracer)], failed_share: f64) -> Vec<String> {
    let n = traced.len() as f64;
    let mut self_ns: std::collections::BTreeMap<&str, f64> = Default::default();
    for (_, tr) in traced {
        for (name, ns) in tr.self_times() {
            *self_ns.entry(name).or_default() += ns as f64 / n;
        }
    }
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0.0) / 1e6;
    let l = &traced[0].0.layers;
    let s = &l.stats;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let phases: Vec<f64> = (0..4)
        .map(|i| {
            traced
                .iter()
                .map(|(p, _)| p.layers.phase_ns[i] as f64)
                .sum::<f64>()
                / n
                / 1e6
        })
        .collect();
    let solve_ms = ms("solver.solve");
    let parse_ms = ms("io.parse");
    let update = fastest(plain.iter(), |p| &p.update_ms);
    let best = |b: &mut dyn Iterator<Item = f64>| b.fold(f64::INFINITY, f64::min);
    let plain_batch = best(&mut plain.iter().map(|p| p.batch_s));
    let traced_batch = best(&mut traced.iter().map(|(p, _)| p.batch_s));
    vec![
        metric("io.parse_ms", parse_ms, "ms"),
        metric(
            "io.parse_mb_per_s",
            ratio(l.parse_bytes as f64 / 1e6, parse_ms / 1e3),
            "MB/s",
        ),
        metric("prenex.ms", ms("prenex"), "ms"),
        metric("miniscope.ms", ms("miniscope"), "ms"),
        metric(
            "miniscope.eliminated_vars",
            l.miniscope_eliminated as f64,
            "count",
        ),
        metric("preprocess.ms", ms("preprocess"), "ms"),
        metric("preprocess.subsumed", l.pre_subsumed as f64, "count"),
        metric("preprocess.units", l.pre_units as f64, "count"),
        metric("preprocess.reduced_literals", l.pre_reduced as f64, "count"),
        metric("solver.build_ms", ms("solver.build"), "ms"),
        metric("solver.solve_ms", solve_ms, "ms"),
        metric("solver.assignments", s.assignments() as f64, "count"),
        metric("solver.decisions", s.decisions as f64, "count"),
        metric("solver.watcher_visits", s.watcher_visits as f64, "count"),
        metric("solver.conflicts", s.conflicts as f64, "count"),
        metric("solver.solutions", s.solutions as f64, "count"),
        metric(
            "solver.ns_per_assignment",
            ratio(solve_ms * 1e6, s.assignments() as f64),
            "ns",
        ),
        metric(
            "solver.ns_per_watcher_visit",
            ratio(solve_ms * 1e6, s.watcher_visits as f64),
            "ns",
        ),
        metric(
            "solver.blocker_hit_ratio",
            ratio(s.blocker_hits as f64, s.watcher_visits as f64),
            "share",
        ),
        metric(
            "solver.cube_len_mean",
            ratio(s.cube_size_sum as f64, s.learned_cubes as f64),
            "literals",
        ),
        metric(
            "solver.arena_bytes_peak",
            s.arena_bytes_peak as f64,
            "bytes",
        ),
        metric("solver.phase.propagate_ms", phases[0], "ms"),
        metric("solver.phase.conflict_analysis_ms", phases[1], "ms"),
        metric("solver.phase.solution_analysis_ms", phases[2], "ms"),
        metric("solver.phase.reduce_db_ms", phases[3], "ms"),
        metric(
            "solver.phase.unattributed_ms",
            (solve_ms - phases.iter().sum::<f64>()).max(0.0),
            "ms",
        ),
        metric("serve.load_ms", ms("serve.load"), "ms"),
        metric("serve.solve_ms", ms("serve.solve"), "ms"),
        metric("serve.proof_solve_ms", ms("serve.proof_solve"), "ms"),
        metric("serve.proof_fetch_ms", ms("serve.proof_fetch"), "ms"),
        metric("serve.push_ms", ms("serve.push"), "ms"),
        metric("serve.add_ms", ms("serve.add"), "ms"),
        metric("serve.pop_ms", ms("serve.pop"), "ms"),
        metric("serve.assume_ms", ms("serve.assume"), "ms"),
        metric("serve.stats_ms", ms("serve.stats"), "ms"),
        metric("serve.update_ms.p50", quantile(&update, 0.5), "ms"),
        metric(
            "incremental.repeat_solve_ratio",
            ratio(
                l.repeat_solve_assignments as f64,
                l.first_solve_assignments as f64,
            ),
            "share",
        ),
        metric("proof.check_ms", ms("proof.check"), "ms"),
        metric("proof.bytes", l.proof_bytes as f64, "bytes"),
        metric("expand.solve_ms", ms("expand.solve"), "ms"),
        metric("expand.rounds", l.expand_rounds as f64, "count"),
        metric("expand.sat_calls", l.expand_sat_calls as f64, "count"),
        metric(
            "expand.ns_per_sat_step",
            ratio(ms("expand.solve") * 1e6, l.expand_sat_steps as f64),
            "ns",
        ),
        metric("client.self_ms", ms("op"), "ms"),
        metric("failed_share", failed_share, "share"),
        metric(
            "trace.overhead_ratio",
            ratio(traced_batch, plain_batch),
            "ratio",
        ),
    ]
}
