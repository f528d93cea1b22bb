//! `repro` — regenerates the tables and figures of the paper.
//!
//! ```text
//! repro [--scale small|paper] [--out DIR] [--bench-out FILE]
//!       [--jobs N] [--portfolio N] [--engine E] <command>
//!
//! commands:
//!   fig2              search tree of Q-DLL on the running example (Fig. 2)
//!   table1            all rows of Table I (+ BENCH_qbf.json + telemetry)
//!   fig3              NCF medians: QUBE(TO)* vs QUBE(PO)
//!   fig4              FPV scatter
//!   fig5              DIA scatter
//!   fig6              counter/semaphore scaling curves
//!   fig7              PROB + FIXED scatter (after miniscoping)
//!   instances         dump the Table I instances as .qtree/.qdimacs files
//!                     (DIA: dia_<model>_n<N>, tree form and Eq. 16)
//!   ablate-score      PO heuristic: tree score vs level score
//!   ablate-learning   learning on/off on DIA (PO)
//!   ablate-miniscope  single-clause-scope elimination effect
//!   bench-smoke       micro suite; asserts BENCH_qbf.json is
//!                     byte-deterministic and parseable (CI gate)
//!   bench-incremental DIA φ1..φk family through one incremental
//!                     session vs cold re-solves; asserts verdict
//!                     agreement, incremental ≤ cold, and a
//!                     byte-deterministic aggregate (CI gate)
//!   bench-portfolio   table1-style sample through the deterministic
//!                     portfolio twice (byte-identical
//!                     BENCH_qbf_portfolio.json) plus a free-running
//!                     wall-clock speedup gate at 4 workers (CI gate)
//!   bench-engines     search (PO + first TO prenexing) vs expansion
//!                     (tree + ordered dependency schemes) head to head,
//!                     twice; asserts verdict agreement and a
//!                     byte-deterministic BENCH_qbf_engines.json
//!                     (CI gate); `--engine` restricts the side
//!   all               everything above except the bench-* gates
//! ```
//!
//! Flag parsing is strict ([`qbf_bench::args`]): malformed or unknown
//! flags and commands exit 2 with a usage message instead of being
//! silently papered over.
//!
//! `table1` (and `all`) additionally write, per suite, a
//! `<stem>_telemetry.jsonl` stream (one record per measured run, full
//! stats) and `<stem>_learned.txt`, and aggregate every suite into the
//! machine-readable `BENCH_qbf.json` (`--bench-out`, default inside
//! `--out`). The aggregate is derived from deterministic assignment
//! counts, so it is byte-identical across runs.

use std::fs;
use std::path::PathBuf;

use qbf_bench::args::{self, Args};
use qbf_bench::experiments::{
    self, dia_suite_result_jobs, fig2, fixed_result_jobs, fpv_result_jobs, ncf_result_jobs,
    prob_result_jobs, render_curves, render_learned, render_medians, SuiteResult,
};
use qbf_bench::runner::{ascii_scatter, pairs_to_csv, TableRow};
use qbf_bench::suites::Scale;
use qbf_bench::{json, stat, telemetry};

fn parse_args() -> Args {
    match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: error: {e}");
            eprintln!("{}", args::USAGE);
            std::process::exit(2);
        }
    }
}

fn save(out: &PathBuf, name: &str, content: &str) {
    fs::create_dir_all(out).expect("create output dir");
    let path = out.join(name);
    fs::write(&path, content).expect("write output file");
    println!("[saved {}]", path.display());
}

fn print_table_rows(name: &str, rows: &[(String, TableRow)]) {
    println!("--- {name} ---");
    println!("{:40} {}", "strategy", TableRow::header());
    for (label, row) in rows {
        println!("{label:40} {}", row.render());
    }
    println!();
}

/// Per-(suite, solver) wall-time percentiles over the suite's telemetry
/// records. A report, not an artifact: wall clock never enters the
/// byte-diffed outputs (see DESIGN.md §2.8).
fn print_latency_percentiles(result: &SuiteResult) {
    let rows: Vec<stat::TelemetryRow> = result.telemetry.iter().map(Into::into).collect();
    print!("{}", stat::render_summaries(&stat::summarize(&rows)));
    println!();
}

fn suite_outputs(out: &PathBuf, result: &SuiteResult, stem: &str) {
    print_table_rows(&result.name, &result.rows);
    print_latency_percentiles(result);
    save(out, &format!("{stem}.csv"), &pairs_to_csv(&result.pairs));
    if !result.medians.is_empty() {
        save(out, &format!("{stem}_medians.txt"), &render_medians(result));
    }
    save(
        out,
        &format!("{stem}_telemetry.jsonl"),
        &telemetry::records_to_jsonl(&result.telemetry),
    );
    save(out, &format!("{stem}_learned.txt"), &render_learned(result));
}

fn main() {
    let args = parse_args();
    if args.command == "help" {
        println!("{}", args::USAGE);
        return;
    }
    let scale = args.scale;
    let out = &args.out;
    let run_all = args.command == "all";
    let is = |c: &str| run_all || args.command == c;
    let only = |c: &str| !run_all && args.command == c;

    if is("fig2") {
        let text = fig2();
        println!("{text}");
        save(out, "fig2.txt", &text);
    }
    let mut ncf: Option<SuiteResult> = None;
    if is("table1") || is("fig3") {
        println!("running NCF suite (4 strategies × instances)…");
        ncf = Some(ncf_result_jobs(scale, args.jobs));
    }
    if is("table1") {
        let ncf_res = ncf.as_ref().expect("computed above");
        suite_outputs(out, ncf_res, "table1_ncf");
        println!("running FPV suite…");
        let fpv = fpv_result_jobs(scale, args.jobs);
        suite_outputs(out, &fpv, "table1_fpv");
        save(out, "fig4.csv", &pairs_to_csv(&fpv.pairs));
        println!("Fig. 4 scatter (FPV):\n{}", ascii_scatter(&fpv.pairs, 60, 20));
        println!("running DIA suite…");
        let (dia, curves) = dia_suite_result_jobs(scale, args.jobs);
        suite_outputs(out, &dia, "table1_dia");
        save(out, "fig5.csv", &pairs_to_csv(&dia.pairs));
        println!("Fig. 5 scatter (DIA):\n{}", ascii_scatter(&dia.pairs, 60, 20));
        save(out, "fig6.txt", &render_curves(&curves));
        println!("running PROB suite…");
        let prob = prob_result_jobs(scale, args.jobs);
        suite_outputs(out, &prob, "table1_prob");
        println!("running FIXED suite…");
        let fixed = fixed_result_jobs(scale, args.jobs);
        suite_outputs(out, &fixed, "table1_fixed");
        let mut fig7 = prob.pairs.clone();
        fig7.extend(fixed.pairs.iter().cloned());
        save(out, "fig7.csv", &pairs_to_csv(&fig7));
        println!(
            "Fig. 7 scatter (PROB+FIXED):\n{}",
            ascii_scatter(&fig7, 60, 20)
        );
        // Aggregate every suite into the machine-readable, deterministic
        // BENCH_qbf.json (validated by the in-tree JSON reader).
        let all_results = [ncf_res.clone(), fpv, dia, prob, fixed];
        let doc = telemetry::bench_json(&all_results);
        json::parse(&doc).expect("BENCH_qbf.json must parse");
        match &args.bench_out {
            Some(path) => {
                fs::write(path, &doc).expect("write bench-out file");
                println!("[saved {}]", path.display());
            }
            None => save(out, "BENCH_qbf.json", &doc),
        }
    }
    if is("fig3") {
        let ncf_res = ncf.get_or_insert_with(|| ncf_result_jobs(scale, args.jobs));
        let text = render_medians(ncf_res);
        println!("Fig. 3 medians (PO vs best-of-4-strategies TO*):\n{text}");
        save(out, "fig3_medians.txt", &text);
        save(out, "fig3.csv", &pairs_to_csv(&ncf_res.pairs));
    }
    if only("fig4") {
        let fpv = fpv_result_jobs(scale, args.jobs);
        save(out, "fig4.csv", &pairs_to_csv(&fpv.pairs));
        println!("{}", ascii_scatter(&fpv.pairs, 60, 20));
        print_table_rows("FPV", &fpv.rows);
    }
    if only("fig5") {
        let (dia, _) = dia_suite_result_jobs(scale, args.jobs);
        save(out, "fig5.csv", &pairs_to_csv(&dia.pairs));
        println!("{}", ascii_scatter(&dia.pairs, 60, 20));
        print_table_rows("DIA", &dia.rows);
    }
    if only("fig6") {
        let (_, curves) = dia_suite_result_jobs(scale, args.jobs);
        let text = render_curves(&curves);
        println!("{text}");
        save(out, "fig6.txt", &text);
    }
    if only("fig7") {
        let prob = prob_result_jobs(scale, args.jobs);
        let fixed = fixed_result_jobs(scale, args.jobs);
        let mut pairs = prob.pairs.clone();
        pairs.extend(fixed.pairs.iter().cloned());
        save(out, "fig7.csv", &pairs_to_csv(&pairs));
        println!("{}", ascii_scatter(&pairs, 60, 20));
        print_table_rows("PROB", &prob.rows);
        print_table_rows("FIXED", &fixed.rows);
    }
    if args.command == "instances" {
        use qbf_core::io::{qdimacs, qtree};
        let dir = out.join("instances");
        fs::create_dir_all(&dir).expect("create instance dir");
        let mut count = 0usize;
        for (suite, instances) in [
            ("ncf", qbf_bench::suites::ncf_suite(scale)),
            ("fpv", qbf_bench::suites::fpv_suite(scale)),
            ("prob", qbf_bench::suites::prob_suite(scale)),
            ("fixed", qbf_bench::suites::fixed_suite(scale)),
        ] {
            for (i, inst) in instances.iter().enumerate() {
                let base = dir.join(format!("{suite}_{i:03}"));
                fs::write(base.with_extension("qtree"), qtree::write(&inst.po))
                    .expect("write qtree");
                if let Some((_, to)) = inst.to.first() {
                    fs::write(base.with_extension("qdimacs"), qdimacs::write(to))
                        .expect("write qdimacs");
                }
                count += 1;
            }
        }
        // DIA: φn is true iff n is below the model's diameter d, and the
        // suite stops probing at the first false φn, so Table I holds
        // φ0 … φd (BFS eccentricity, capped at the scale's largest n).
        // Models too large to explore keep every probe up to the cap.
        for model in qbf_bench::suites::dia_models(scale) {
            let cap = scale.dia_max_n();
            let last = if model.bits() <= 16 {
                qbf_models::explore(&model).map_or(cap, |e| e.eccentricity.min(cap))
            } else {
                cap
            };
            let name: String = model
                .name()
                .chars()
                .filter(char::is_ascii_alphanumeric)
                .collect();
            for n in 0..=last {
                let base = dir.join(format!("dia_{name}_n{n}"));
                let tree = qbf_models::diameter_qbf(&model, n, qbf_models::DiameterForm::Tree);
                let flat = qbf_models::diameter_qbf(&model, n, qbf_models::DiameterForm::Prenex);
                fs::write(base.with_extension("qtree"), qtree::write(&tree.qbf))
                    .expect("write qtree");
                fs::write(base.with_extension("qdimacs"), qdimacs::write(&flat.qbf))
                    .expect("write qdimacs");
                count += 1;
            }
        }
        println!("wrote {count} instance pairs under {}", dir.display());
    }
    if is("ablate-score") {
        println!("ablation: PO heuristic tree score vs plain level score on NCF…");
        let rows = experiments::ablate_score(scale);
        print_table_rows("ablate-score", &rows);
    }
    if is("ablate-learning") {
        println!("ablation: learning on/off for PO on DIA probes…");
        let rows = experiments::ablate_learning(scale);
        print_table_rows("ablate-learning", &rows);
    }
    if is("ablate-miniscope") {
        let text = experiments::ablate_miniscope(scale);
        println!("{text}");
    }
    if args.command == "bench-smoke" {
        bench_smoke(&args);
    }
    if args.command == "bench-incremental" {
        bench_incremental(&args);
    }
    if args.command == "bench-portfolio" {
        bench_portfolio(&args);
    }
    if args.command == "bench-engines" {
        bench_engines(&args);
    }
    println!("done (scale {scale:?}).");
}

/// `bench-smoke`: runs a micro NCF suite twice, asserts the aggregated
/// `BENCH_qbf.json` is byte-identical across the two runs, validates it
/// with the in-tree JSON reader, and writes the artifacts. This is the CI
/// gate for the telemetry pipeline's determinism contract.
fn bench_smoke(args: &Args) {
    use qbf_bench::experiments::run_suite_jobs;
    use qbf_bench::json::Json;
    use qbf_bench::suites::SuiteInstance;
    use qbf_prenex::Strategy;
    use std::time::Duration;

    let make_suite = || -> Vec<SuiteInstance> {
        let params = qbf_gen::NcfParams {
            dep: 6,
            var: 4,
            cls_ratio: 3,
            lpc: 5,
        };
        (0..4u64)
            .map(|seed| {
                let po = qbf_gen::ncf(&params, seed);
                let to = Strategy::ALL
                    .iter()
                    .map(|&s| (s, qbf_prenex::prenex(&po, s)))
                    .collect();
                SuiteInstance {
                    label: format!("smoke#{seed}"),
                    group: "smoke".to_string(),
                    po,
                    to,
                }
            })
            .collect()
    };
    let run_once = || {
        let result = run_suite_jobs(
            "SMOKE",
            &make_suite(),
            100_000,
            Duration::from_millis(5),
            args.jobs,
        );
        let doc = telemetry::bench_json(std::slice::from_ref(&result));
        (doc, result)
    };
    println!("bench-smoke: running the micro suite twice (jobs {})…", args.jobs);
    let (doc1, result1) = run_once();
    let (doc2, _) = run_once();
    assert_eq!(
        doc1, doc2,
        "BENCH_qbf.json must be byte-identical across runs"
    );
    let parsed = json::parse(&doc1).expect("BENCH_qbf.json must parse");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(telemetry::BENCH_SCHEMA),
        "schema tag"
    );
    let suites = parsed
        .get("suites")
        .and_then(Json::as_array)
        .expect("suites array");
    assert_eq!(suites.len(), 1);
    let suite = &suites[0];
    assert_eq!(suite.get("name").and_then(Json::as_str), Some("SMOKE"));
    let instances = suite
        .get("instances")
        .and_then(Json::as_u64)
        .expect("instances count");
    let row = suite.get("row_by_assignments").expect("deterministic row");
    let total: u64 = ["to_slower", "to_faster", "ties"]
        .iter()
        .map(|k| row.get(k).and_then(Json::as_u64).expect("row column"))
        .sum();
    assert_eq!(total, instances, "row columns must partition the suite");
    let po_runs = suite
        .get("po")
        .and_then(|p| p.get("runs"))
        .and_then(Json::as_u64);
    assert_eq!(po_runs, Some(instances), "one PO run per instance");
    save(&args.out, "BENCH_qbf_smoke.json", &doc1);
    // Wall-clock telemetry for the smoke runs (the JSON aggregate keeps
    // only deterministic counts): one record per measured run, used to
    // track solver throughput across commits.
    save(
        &args.out,
        "BENCH_qbf_smoke_telemetry.jsonl",
        &telemetry::records_to_jsonl(&result1.telemetry),
    );
    println!(
        "bench-smoke: ok ({} instances, {} bytes, byte-deterministic)",
        instances,
        doc1.len()
    );
}

/// `bench-incremental`: solves DIA φ1..φk families through one
/// long-lived incremental session (union universe, push/add/solve×2/pop
/// per probe) and cold (a fresh solver per query on the equivalent
/// formula), twice. Asserts the verdicts agree, the incremental totals
/// never exceed the cold totals, and the aggregate JSON is
/// byte-identical across the two passes. The artifact is saved as
/// `BENCH_qbf_incremental.json` — `BENCH_qbf.json` and the one-shot
/// suites are untouched (incrementality is strictly opt-in).
fn bench_incremental(args: &Args) {
    use qbf_core::solver::{Solver, SolverConfig};
    use qbf_models::{counter, diameter_sequence, run_diameter_incremental, DiameterForm};

    let max_n: u32 = match args.scale {
        Scale::Paper => 6,
        Scale::Small => 4,
    };
    let settings = [
        ("counter2", 2usize, DiameterForm::Tree, SolverConfig::partial_order()),
        ("counter2", 2, DiameterForm::Prenex, SolverConfig::total_order()),
        ("counter3", 3, DiameterForm::Tree, SolverConfig::partial_order()),
    ];
    let run_once = || {
        let mut doc = format!("{{\"schema\":\"qbf-bench-incremental/1\",\"max_n\":{max_n},\"suites\":[");
        for (i, (name, bits, form, config)) in settings.iter().enumerate() {
            let seq = diameter_sequence(&counter(*bits), *form, max_n);
            let run = run_diameter_incremental(&seq, config, 2);
            let mut cold_assignments = 0u64;
            let mut cold_backtracks = 0u64;
            let mut verdicts = Vec::new();
            for r in &run.results {
                let mut value = None;
                for _ in 0..2 {
                    let out = Solver::new(&r.equivalent, config.clone()).solve();
                    cold_assignments += out.stats.assignments();
                    cold_backtracks += out.stats.backjumps + out.stats.chrono_backtracks;
                    value = out.value();
                }
                let value = value.expect("no budget configured");
                for o in &r.outcomes {
                    assert_eq!(
                        o.value(),
                        Some(value),
                        "bench-incremental: {name} {form:?} n={} verdict diverges",
                        r.n
                    );
                }
                verdicts.push(if value { "1" } else { "0" });
            }
            let inc_assignments = run.total_assignments();
            let inc_backtracks = run.total_backtracks();
            assert!(
                inc_assignments <= cold_assignments && inc_backtracks <= cold_backtracks,
                "bench-incremental: {name} {form:?}: incremental ({inc_assignments} asg, \
                 {inc_backtracks} bt) worse than cold ({cold_assignments} asg, {cold_backtracks} bt)"
            );
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"model\":\"{name}\",\"form\":\"{form:?}\",\"probes\":{},\
                 \"verdicts\":[{}],\
                 \"incremental\":{{\"assignments\":{inc_assignments},\"backtracks\":{inc_backtracks}}},\
                 \"cold\":{{\"assignments\":{cold_assignments},\"backtracks\":{cold_backtracks}}}}}",
                run.results.len(),
                verdicts.join(",")
            ));
        }
        doc.push_str("]}");
        doc
    };
    println!("bench-incremental: DIA sequences, incremental vs cold, twice…");
    let doc1 = run_once();
    let doc2 = run_once();
    assert_eq!(
        doc1, doc2,
        "BENCH_qbf_incremental.json must be byte-identical across runs"
    );
    json::parse(&doc1).expect("BENCH_qbf_incremental.json must parse");
    save(&args.out, "BENCH_qbf_incremental.json", &doc1);
    println!(
        "bench-incremental: ok ({} settings, {} bytes, byte-deterministic, incremental ≤ cold)",
        settings.len(),
        doc1.len()
    );
}

/// `bench-engines`: the search engine (QDPLL on PO, plus the first TO
/// prenexing) and the expansion engine (dual abstraction refinement
/// under the tree and ordered dependency schemes) head to head over a
/// table1-style sample, twice.
///
/// Verdicts must agree wherever two engines both conclude, and the
/// aggregate `BENCH_qbf_engines.json` must be byte-identical across the
/// two in-process passes — both sides count work in deterministic units
/// (assignments for search, SAT decisions+propagations for expansion),
/// never wall time. `--engine search|expand` restricts the measured
/// side; the default `both` is the only mode with a cross-engine
/// agreement oracle.
fn bench_engines(args: &Args) {
    use qbf_bench::args::EngineChoice;
    use qbf_bench::json::Json;
    use qbf_bench::suites;
    use qbf_core::solver::Solver;
    use qbf_core::Qbf;
    use qbf_expand::{DepScheme, ExpandConfig};
    use qbf_prenex::Strategy;

    let scale = args.scale;
    let budget = scale.budget();
    let choice = args.engine;
    let run_search = choice != EngineChoice::Expand;
    let run_expand = choice != EngineChoice::Search;

    let mut sample: Vec<(&'static str, String, Qbf)> = Vec::new();
    for inst in suites::ncf_suite(scale).into_iter().take(5) {
        sample.push(("NCF", inst.label, inst.po));
    }
    for inst in suites::fpv_suite(scale).into_iter().take(3) {
        sample.push(("FPV", inst.label, inst.po));
    }
    for inst in suites::prob_suite(scale).into_iter().take(3) {
        sample.push(("PROB", inst.label, inst.po));
    }
    for inst in suites::fixed_suite(scale).into_iter().take(2) {
        sample.push(("FIXED", inst.label, inst.po));
    }
    println!(
        "bench-engines: {:?} on {} instances, twice…",
        choice,
        sample.len()
    );

    let verdict_json = |v: Option<bool>| match v {
        Some(true) => "true".to_string(),
        Some(false) => "false".to_string(),
        None => "null".to_string(),
    };
    let pass = || -> String {
        let mut runs = String::new();
        let (mut agreements, mut concluded) = (0u64, 0u64);
        for (i, (suite, label, po)) in sample.iter().enumerate() {
            let mut verdicts: Vec<Option<bool>> = Vec::new();
            let mut fields = String::new();
            if run_search {
                let po_out = Solver::new(po, suites::po_config(budget)).solve();
                let to_qbf = qbf_prenex::prenex(po, Strategy::ALL[0]);
                let to_out = Solver::new(&to_qbf, suites::to_config(budget)).solve();
                fields.push_str(&format!(
                    "\"search_po\":{{\"value\":{},\"assignments\":{}}},\
                     \"search_to\":{{\"value\":{},\"assignments\":{}}}",
                    verdict_json(po_out.value()),
                    po_out.stats.assignments(),
                    verdict_json(to_out.value()),
                    to_out.stats.assignments()
                ));
                verdicts.push(po_out.value());
                verdicts.push(to_out.value());
            }
            if run_expand {
                for (key, scheme) in
                    [("expand_tree", DepScheme::Tree), ("expand_ordered", DepScheme::Ordered)]
                {
                    let mut config = match scheme {
                        DepScheme::Tree => ExpandConfig::tree(),
                        DepScheme::Ordered => ExpandConfig::ordered(),
                    };
                    config.step_limit = Some(budget);
                    let out = qbf_expand::solve(po, config);
                    let cost = out.stats.sat_decisions + out.stats.sat_propagations;
                    if !fields.is_empty() {
                        fields.push(',');
                    }
                    fields.push_str(&format!(
                        "\"{key}\":{{\"value\":{},\"cost\":{cost},\"rounds\":{}}}",
                        verdict_json(out.value),
                        out.stats.rounds
                    ));
                    verdicts.push(out.value);
                }
            }
            // Cross-engine oracle: every pair of concluded verdicts on
            // the same instance must agree.
            let settled: Vec<bool> = verdicts.iter().filter_map(|&v| v).collect();
            assert!(
                settled.windows(2).all(|w| w[0] == w[1]),
                "bench-engines: engines disagree on {suite} {label}: {verdicts:?}"
            );
            if !settled.is_empty() {
                concluded += 1;
                if settled.len() == verdicts.len() {
                    agreements += 1;
                }
            }
            if i > 0 {
                runs.push(',');
            }
            runs.push_str(&format!(
                "\n    {{\"suite\":\"{suite}\",\"label\":\"{}\",{fields}}}",
                json::escape(label)
            ));
        }
        format!(
            "{{\n  \"schema\": \"qbf-bench-engines/1\",\n  \"engine\": \"{}\",\n  \"budget\": {budget},\n  \"instances\": {},\n  \"concluded\": {concluded},\n  \"fully_concluded\": {agreements},\n  \"runs\": [{runs}\n  ]\n}}\n",
            match choice {
                EngineChoice::Search => "search",
                EngineChoice::Expand => "expand",
                EngineChoice::Both => "both",
            },
            sample.len()
        )
    };
    let doc1 = pass();
    let doc2 = pass();
    assert_eq!(
        doc1, doc2,
        "BENCH_qbf_engines.json must be byte-identical across runs"
    );
    let parsed = json::parse(&doc1).expect("BENCH_qbf_engines.json must parse");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("qbf-bench-engines/1"),
        "schema tag"
    );
    assert_eq!(
        parsed.get("runs").and_then(Json::as_array).map(<[Json]>::len),
        Some(sample.len()),
        "one run record per instance"
    );
    save(&args.out, "BENCH_qbf_engines.json", &doc1);
    println!(
        "bench-engines: ok ({} instances, {} bytes, byte-deterministic)",
        sample.len(),
        doc1.len()
    );
}

/// `bench-portfolio`: a table1-style sample (NCF + FPV + PROB + FIXED)
/// through the in-instance portfolio, twice.
///
/// Deterministic half (always runs): every instance goes through the
/// fixed 8-variant deterministic roster; the aggregate
/// `BENCH_qbf_portfolio.json` (verdict counts, wins per roster slot,
/// winner/PO-baseline assignment counts, sharing totals — no wall
/// times) must be byte-identical across the two passes, for any
/// `--portfolio` thread count.
///
/// Free-running half (the wall-clock gate): with ≥ 4 hardware threads,
/// races the 4-variant free roster per instance and compares against
/// solving the same four variants sequentially — the cost of a
/// portfolio when the winning variant is unknown a priori. The summed
/// speedup must reach `QBF_PORTFOLIO_MIN_SPEEDUP` (default 1.5; 0
/// disables). On smaller machines the gate is skipped with a warning,
/// since a race without parallelism measures scheduler noise.
fn bench_portfolio(args: &Args) {
    use qbf_bench::suites;
    use qbf_core::portfolio::{self, PortfolioOptions};
    use qbf_core::solver::Solver;
    use qbf_core::Qbf;
    use qbf_prenex::portfolio::{roster, DETERMINISTIC_ROSTER};
    use std::time::{Duration, Instant};

    let scale = args.scale;
    let base = suites::po_config(scale.budget());
    let mut sample: Vec<(&'static str, String, Qbf)> = Vec::new();
    for inst in suites::ncf_suite(scale).into_iter().take(6) {
        sample.push(("NCF", inst.label, inst.po));
    }
    for inst in suites::fpv_suite(scale).into_iter().take(4) {
        sample.push(("FPV", inst.label, inst.po));
    }
    for inst in suites::prob_suite(scale).into_iter().take(4) {
        sample.push(("PROB", inst.label, inst.po));
    }
    for inst in suites::fixed_suite(scale).into_iter().take(2) {
        sample.push(("FIXED", inst.label, inst.po));
    }
    println!(
        "bench-portfolio: deterministic roster on {} instances, twice (threads {})…",
        sample.len(),
        args.portfolio
    );

    // One deterministic pass over the sample, producing the aggregate
    // document.
    let det_pass = || -> String {
        let labels: Vec<String> = roster(&sample[0].2, args.portfolio, true, &base)
            .iter()
            .map(|v| v.label.clone())
            .collect();
        let mut wins = vec![0u64; labels.len()];
        let (mut sat, mut unsat, mut unknown) = (0u64, 0u64, 0u64);
        let (mut exported, mut imported, mut discarded) = (0u64, 0u64, 0u64);
        let mut runs = String::new();
        for (i, (suite, label, po)) in sample.iter().enumerate() {
            let vars = roster(po, args.portfolio, true, &base);
            let opts = PortfolioOptions {
                threads: args.portfolio,
                deterministic: true,
                ..PortfolioOptions::default()
            };
            let out = portfolio::solve(&vars, &opts);
            match out.value {
                Some(true) => sat += 1,
                Some(false) => unsat += 1,
                None => unknown += 1,
            }
            if let Some(w) = out.winner {
                wins[w] += 1;
            }
            for w in &out.workers {
                exported += w.exported;
                imported += w.imported;
                discarded += w.discarded;
            }
            // The PO-alone baseline every portfolio row is compared to.
            let po_out = Solver::new(po, base.clone()).solve();
            if i > 0 {
                runs.push(',');
            }
            runs.push_str(&format!(
                "\n    {{\"suite\":\"{suite}\",\"label\":\"{}\",\"value\":{},\"winner\":{},\"winner_assignments\":{},\"po_assignments\":{}}}",
                json::escape(label),
                match out.value {
                    Some(true) => "true".to_string(),
                    Some(false) => "false".to_string(),
                    None => "null".to_string(),
                },
                match out.winner {
                    Some(w) => format!("\"{}\"", json::escape(&out.workers[w].label)),
                    None => "null".to_string(),
                },
                match out.winner {
                    Some(w) => out.workers[w].stats.assignments().to_string(),
                    None => "null".to_string(),
                },
                po_out.stats.assignments()
            ));
        }
        let wins_json = labels
            .iter()
            .zip(&wins)
            .map(|(l, w)| format!("{{\"label\":\"{}\",\"wins\":{w}}}", json::escape(l)))
            .collect::<Vec<_>>()
            .join(",");
        let doc = format!(
            "{{\n  \"schema\": \"qbf-bench-portfolio/1\",\n  \"roster\": {DETERMINISTIC_ROSTER},\n  \"share_len\": 4,\n  \"epoch\": 2048,\n  \"instances\": {},\n  \"verdicts\": {{\"sat\":{sat},\"unsat\":{unsat},\"unknown\":{unknown}}},\n  \"sharing\": {{\"exported\":{exported},\"imported\":{imported},\"discarded\":{discarded}}},\n  \"wins_by_worker\": [{wins_json}],\n  \"runs\": [{runs}\n  ]\n}}\n",
            sample.len()
        );
        doc
    };
    let doc1 = det_pass();
    let doc2 = det_pass();
    assert_eq!(
        doc1, doc2,
        "BENCH_qbf_portfolio.json must be byte-identical across runs"
    );
    let parsed = json::parse(&doc1).expect("BENCH_qbf_portfolio.json must parse");
    assert_eq!(
        parsed.get("schema").and_then(qbf_bench::json::Json::as_str),
        Some("qbf-bench-portfolio/1"),
        "schema tag"
    );
    save(&args.out, "BENCH_qbf_portfolio.json", &doc1);
    println!(
        "bench-portfolio: deterministic half ok ({} instances, {} bytes, byte-deterministic)",
        sample.len(),
        doc1.len()
    );

    // Free-running wall-clock gate.
    let min_speedup: f64 = std::env::var("QBF_PORTFOLIO_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if min_speedup <= 0.0 {
        println!("bench-portfolio: wall-clock gate disabled (QBF_PORTFOLIO_MIN_SPEEDUP=0)");
        return;
    }
    if cores < 4 {
        println!(
            "bench-portfolio: WARNING: {cores} hardware thread(s) < 4, skipping the \
             free-running wall-clock gate (a race without parallelism measures scheduler noise)"
        );
        return;
    }
    // Race on the *hardest* table1 instances: a probe run with a small
    // node budget keeps only NCF instances whose PO search exceeds it,
    // so per-variant times dwarf thread-spawn overhead and the measured
    // ratio reflects parallelism, not scheduler noise.
    let probe_limit = scale.budget() / 10;
    let mut candidates: Vec<(u64, String, Qbf)> = suites::ncf_suite(scale)
        .into_iter()
        .map(|inst| {
            let probe = base.clone().with_node_limit(probe_limit);
            let out = Solver::new(&inst.po, probe).solve();
            (out.stats.assignments(), inst.label, inst.po)
        })
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    candidates.truncate(4);
    println!(
        "bench-portfolio: free-running race vs sequential portfolio at 4 workers \
         ({} hardest NCF instances)…",
        candidates.len()
    );
    let mut sequential = Duration::ZERO;
    let mut po_alone = Duration::ZERO;
    let mut race = Duration::ZERO;
    for (_, label, po) in &candidates {
        let vars = roster(po, 4, false, &base);
        // Sequential baseline: each variant to completion on its own;
        // the variant verdicts double as a cross-check oracle.
        let mut oracle: Option<bool> = None;
        for v in &vars {
            let t = Instant::now();
            let out = Solver::new(&v.qbf, v.config.clone()).solve();
            let dt = t.elapsed();
            sequential += dt;
            if v.label == "po" {
                po_alone += dt;
            }
            if let Some(value) = out.value() {
                if let Some(prev) = oracle {
                    assert_eq!(prev, value, "bench-portfolio: variant verdicts diverge on {label}");
                }
                oracle = Some(value);
            }
        }
        let opts = PortfolioOptions {
            threads: 4,
            ..PortfolioOptions::default()
        };
        let t = Instant::now();
        let out = portfolio::solve(&vars, &opts);
        race += t.elapsed();
        if let (Some(free), Some(seq)) = (out.value, oracle) {
            assert_eq!(free, seq, "bench-portfolio: free verdict diverges on {label}");
        }
    }
    let speedup = sequential.as_secs_f64() / race.as_secs_f64().max(1e-9);
    let vs_po = po_alone.as_secs_f64() / race.as_secs_f64().max(1e-9);
    println!(
        "bench-portfolio: race {:.0} ms vs sequential {:.0} ms → speedup {speedup:.2}x \
         (vs PO alone {vs_po:.2}x, informational)",
        race.as_secs_f64() * 1e3,
        sequential.as_secs_f64() * 1e3
    );
    assert!(
        speedup >= min_speedup,
        "bench-portfolio: free-running speedup {speedup:.2}x below the {min_speedup:.2}x gate"
    );
    println!("bench-portfolio: ok (wall-clock gate {min_speedup:.2}x passed)");
}
