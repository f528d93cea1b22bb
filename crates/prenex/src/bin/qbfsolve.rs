//! `qbfsolve` — command-line front end to the search solvers.
//!
//! ```text
//! qbfsolve [options] [FILE]
//!
//!   FILE               QDIMACS (`p cnf`) or non-prenex qtree (`p qtree`)
//!                      document; stdin when omitted or `-`.
//!   --engine E         decision procedure: `search` (the QDPLL; default)
//!                      or `expand` (the expansion/CEGAR engine of
//!                      `qbf-expand`). Unknown values exit 2 with usage.
//!                      Under `expand`, `--po`/`--to` select the tree vs
//!                      ordered dependency scheme and `--budget N` bounds
//!                      SAT decisions+propagations instead of assignments.
//!   --to               QUBE(TO) configuration (prefix-level heuristic)
//!   --po               QUBE(PO) configuration (tree heuristic; default)
//!   --basic            plain backtracking, no learning
//!   --recursive        the recursive Q-DLL of Fig. 1 instead of the QDPLL
//!   --preprocess       run the value-preserving preprocessor first
//!   --no-pure          disable monotone literal fixing
//!   --no-learning      disable good/nogood learning
//!   --budget N         abort after N assignments
//!   --stats            print search statistics to stderr
//!   --proof[=FILE]     log a `qrp` Q-resolution/Q-consensus certificate
//!                      (stderr with a `c ` prefix, or FILE when given);
//!                      forces learning on and pure literals off, and is
//!                      checkable with `qbfcheck INSTANCE FILE`; refused
//!                      together with `--preprocess`
//!   --trace[=FILE]     Fig. 2-style indented search-tree trace
//!                      (stderr, or FILE when given)
//!   --trace-json[=FILE] JSONL event trace, one JSON object per event
//!                      (stderr, or FILE when given)
//!   --profile          per-level/size/chain-length search profile on stderr
//!   --progress N       one-line status on stderr every N conflicts+solutions
//!   --metrics          engine phase timings (propagate / conflict analysis /
//!                      solution analysis / reduce_db / compaction) and
//!                      resource gauges on stderr, plus a one-line JSON
//!                      snapshot (`c metrics: {...}`)
//!   --portfolio N      solve with an N-thread in-instance portfolio (PO,
//!                      the four TO prenexings and seeded variants; see
//!                      `qbf_core::portfolio`); first finisher wins
//!   --share-len K      share learned clauses/cubes up to K literals
//!                      between portfolio workers (default 4, 0 disables)
//!   --deterministic    lockstep portfolio: fixed 8-variant roster,
//!                      epoch-batched exchange, byte-reproducible
//!                      verdict/winner/per-worker stats for any N
//!   --epoch N          deterministic exchange epoch in assignments
//!                      (default 2048)
//!   --portfolio-expand add the two expansion engines (`expand-po`,
//!                      `expand-to`) to the portfolio roster: search and
//!                      expansion race in-process with first-finisher
//!                      cancellation, sharing stays search-only
//!   --portfolio-out F  write the byte-stable portfolio transcript to F
//! ```
//!
//! Prints `s cnf 1` / `s cnf 0` (true/false) like QBF evaluation solvers and
//! exits with 10 (true), 20 (false) or 1 (budget exhausted / error).

use std::io::Read;
use std::process::ExitCode;

use qbf_core::metrics::{EngineGauge, EngineMetrics, Phase, WallClock};
use qbf_core::observe::{
    JsonlTrace, MultiObserver, NoopObserver, Profiler, Progress, SearchObserver, TreeTrace,
};
use qbf_core::portfolio::{self, PortfolioOptions};
use qbf_core::proof::ProofLog;
use qbf_core::recursive::{self, RecursiveConfig};
use qbf_core::solver::{Outcome, Solver, SolverConfig};
use qbf_core::{io, Qbf};
use qbf_expand::{DepScheme, ExpandConfig, ExpandSolver};
use qbf_prenex::portfolio::{expand_workers, roster};

/// `None` = disabled, `Some(None)` = stderr, `Some(Some(path))` = file.
type Sink = Option<Option<String>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Search,
    Expand,
}

struct Options {
    file: Option<String>,
    engine: Engine,
    /// Whether `--to` was the last order flag (drives the expansion
    /// engine's dependency scheme).
    to_selected: bool,
    config: SolverConfig,
    use_recursive: bool,
    preprocess: bool,
    stats: bool,
    proof: Sink,
    trace: Sink,
    trace_json: Sink,
    profile: bool,
    progress: u64,
    metrics: bool,
    portfolio: usize,
    share_len: usize,
    deterministic: bool,
    epoch: u64,
    portfolio_out: Option<String>,
    portfolio_expand: bool,
}

fn print_usage() {
    eprintln!(
        "usage: qbfsolve [--engine search|expand] [--to|--po|--basic|--recursive] \
         [--preprocess] \
         [--no-pure] [--no-learning] [--budget N] [--stats] [--proof[=FILE]] \
         [--trace[=FILE]] [--trace-json[=FILE]] [--profile] [--progress N] \
         [--metrics] [--portfolio N] [--share-len K] [--deterministic] \
         [--epoch N] [--portfolio-expand] [--portfolio-out FILE] [FILE]"
    );
}

fn usage() -> ! {
    print_usage();
    std::process::exit(1);
}

/// Strict `--engine` parsing: any unknown or missing value is a usage
/// error with exit code 2.
fn parse_engine(value: Option<String>) -> Engine {
    match value.as_deref() {
        Some("search") => Engine::Search,
        Some("expand") => Engine::Expand,
        Some(other) => {
            eprintln!("error: unknown engine '{other}' (expected 'search' or 'expand')");
            print_usage();
            std::process::exit(2);
        }
        None => {
            eprintln!("error: --engine requires a value ('search' or 'expand')");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        file: None,
        engine: Engine::Search,
        to_selected: false,
        config: SolverConfig::partial_order(),
        use_recursive: false,
        preprocess: false,
        stats: false,
        proof: None,
        trace: None,
        trace_json: None,
        profile: false,
        progress: 0,
        metrics: false,
        portfolio: 0,
        share_len: 4,
        deterministic: false,
        epoch: 2048,
        portfolio_out: None,
        portfolio_expand: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => opts.engine = parse_engine(args.next()),
            "--to" => {
                opts.config = SolverConfig::total_order();
                opts.to_selected = true;
            }
            "--po" => {
                opts.config = SolverConfig::partial_order();
                opts.to_selected = false;
            }
            "--basic" => {
                opts.config = SolverConfig::basic();
                opts.to_selected = false;
            }
            "--recursive" => opts.use_recursive = true,
            "--no-pure" => opts.config.pure_literals = false,
            "--no-learning" => opts.config.learning = false,
            "--budget" => {
                let n = args.next().and_then(|v| v.parse().ok());
                match n {
                    Some(n) => opts.config.node_limit = Some(n),
                    None => usage(),
                }
            }
            "--preprocess" => opts.preprocess = true,
            "--stats" => opts.stats = true,
            "--proof" => opts.proof = Some(None),
            "--trace" => opts.trace = Some(None),
            "--trace-json" => opts.trace_json = Some(None),
            "--profile" => opts.profile = true,
            "--metrics" => opts.metrics = true,
            "--progress" => {
                let n = args.next().and_then(|v| v.parse().ok());
                match n {
                    Some(n) => opts.progress = n,
                    None => usage(),
                }
            }
            "--portfolio" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.portfolio = n,
                    _ => usage(),
                }
            }
            "--share-len" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(k) => opts.share_len = k,
                    None => usage(),
                }
            }
            "--deterministic" => opts.deterministic = true,
            "--portfolio-expand" => opts.portfolio_expand = true,
            "--epoch" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.epoch = n,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            "-" => opts.file = None,
            _ if a.starts_with("--engine=") => {
                opts.engine = parse_engine(Some(a["--engine=".len()..].to_string()));
            }
            _ if a.starts_with("--proof=") => {
                opts.proof = Some(Some(a["--proof=".len()..].to_string()));
            }
            _ if a.starts_with("--trace=") => {
                opts.trace = Some(Some(a["--trace=".len()..].to_string()));
            }
            _ if a.starts_with("--trace-json=") => {
                opts.trace_json = Some(Some(a["--trace-json=".len()..].to_string()));
            }
            _ if a.starts_with("--portfolio-out=") => {
                opts.portfolio_out = Some(a["--portfolio-out=".len()..].to_string());
            }
            "--portfolio-out" => match args.next() {
                Some(path) => opts.portfolio_out = Some(path),
                None => usage(),
            },
            f if !f.starts_with('-') => opts.file = Some(f.to_string()),
            _ => usage(),
        }
    }
    opts
}

/// Writes trace output to the sink's file, or to stderr line by line with a
/// `c ` comment prefix.
fn emit(sink: &Sink, what: &str, text: &str) {
    let Some(target) = sink else { return };
    match target {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write {what} to {path}: {e}");
            }
        }
        None => {
            for line in text.lines() {
                eprintln!("c {line}");
            }
        }
    }
}

fn read_input(file: &Option<String>) -> std::io::Result<String> {
    match file {
        Some(path) => std::fs::read_to_string(path),
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            Ok(buf)
        }
    }
}

fn parse_qbf(text: &str) -> Result<Qbf, String> {
    let keyword = text
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("p "))
        .unwrap_or("");
    if keyword.starts_with("p qtree") {
        io::qtree::parse(text).map_err(|e| e.to_string())
    } else {
        io::qdimacs::parse(text).map_err(|e| e.to_string())
    }
}

/// Runs the QDPLL with `observer`, logging a certificate into `proof`
/// when requested.
fn search<O: SearchObserver>(
    qbf: &Qbf,
    config: SolverConfig,
    observer: O,
    proof: Option<&mut ProofLog>,
) -> Outcome {
    Solver::with_parts(qbf, config, observer, proof).solve()
}

/// Runs the selected solver, reporting events to `multi` and phase
/// timings to `metrics`, logging a certificate into `proof` when
/// requested, and printing `--stats`. With no observer at all the
/// search takes the `NoopObserver` fast path; a lone metrics recorder is
/// attached directly, so it stays free of dynamic dispatch.
fn run<'o>(
    qbf: &Qbf,
    opts: &Options,
    mut multi: MultiObserver<'o>,
    proof: Option<&mut ProofLog>,
    metrics: Option<&'o mut EngineMetrics<WallClock>>,
) -> Option<bool> {
    let observed = !multi.is_empty();
    if opts.use_recursive {
        let cfg = RecursiveConfig {
            node_limit: opts.config.node_limit,
            pure_literals: opts.config.pure_literals,
            ..RecursiveConfig::default()
        };
        let out = if observed {
            recursive::solve_with_observer(qbf, &cfg, multi)
        } else {
            recursive::solve(qbf, &cfg)
        };
        if opts.stats {
            eprintln!("c stats: {:?}", out.stats);
        }
        out.value
    } else {
        let config = opts.config.clone();
        let out = match (observed, metrics) {
            (false, None) => search(qbf, config, NoopObserver, proof),
            (false, Some(m)) => search(qbf, config, m, proof),
            (true, m) => {
                if let Some(m) = m {
                    multi.push(m);
                }
                search(qbf, config, multi, proof)
            }
        };
        if opts.stats {
            for line in out.stats.to_string().lines() {
                eprintln!("c {line}");
            }
        }
        out.value()
    }
}

/// Exit-code / `s cnf` mapping shared by the single-threaded and the
/// portfolio paths.
fn report_verdict(value: Option<bool>) -> ExitCode {
    match value {
        Some(true) => {
            println!("s cnf 1");
            ExitCode::from(10)
        }
        Some(false) => {
            println!("s cnf 0");
            ExitCode::from(20)
        }
        None => {
            println!("s cnf -1");
            eprintln!("c budget exhausted");
            ExitCode::from(1)
        }
    }
}

/// Renders the `--metrics` phase histograms, gauges and one-line JSON
/// snapshot to stderr; shared by the search and expansion paths.
fn render_metrics(engine_metrics: &EngineMetrics<WallClock>) {
    for p in Phase::ALL {
        let h = engine_metrics.phase_hist(p);
        eprintln!(
            "c phase {:<18} calls {:>8}  total {:>12} ns  p50 {:>10}  p90 {:>10}  p99 {:>10}",
            p.name(),
            h.count(),
            h.sum(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99)
        );
    }
    for g in EngineGauge::ALL {
        eprintln!(
            "c gauge {:<18} last {:>12}  peak {:>12}",
            g.name(),
            engine_metrics.gauge_last(g),
            engine_metrics.gauge_peak(g)
        );
    }
    eprintln!("c metrics: {}", engine_metrics.snapshot_json());
}

/// The `--engine expand` path: dual abstraction refinement from
/// `qbf-expand` instead of search. `--po`/`--to` select the dependency
/// scheme and `--budget` bounds SAT decisions+propagations.
fn run_expand(qbf: &Qbf, opts: &Options) -> ExitCode {
    if opts.use_recursive {
        eprintln!("error: --engine expand is incompatible with --recursive");
        return ExitCode::from(1);
    }
    if opts.proof.is_some() {
        eprintln!("error: --engine expand does not produce qrp certificates (drop --proof)");
        return ExitCode::from(1);
    }
    if opts.trace.is_some() || opts.trace_json.is_some() || opts.profile || opts.progress > 0 {
        eprintln!(
            "error: --engine expand does not support search observers \
             (--trace/--trace-json/--profile/--progress)"
        );
        return ExitCode::from(1);
    }
    let mut config =
        if opts.to_selected { ExpandConfig::ordered() } else { ExpandConfig::tree() };
    config.step_limit = opts.config.node_limit;
    let scheme = match config.dep_scheme {
        DepScheme::Tree => "tree (po)",
        DepScheme::Ordered => "ordered (to)",
    };
    eprintln!("c engine expand, dependency scheme {scheme}");
    let out = if opts.metrics {
        let mut engine_metrics = EngineMetrics::new(WallClock::new());
        let out = ExpandSolver::with_observer(qbf, config, &mut engine_metrics).solve();
        render_metrics(&engine_metrics);
        out
    } else {
        qbf_expand::solve(qbf, config)
    };
    if opts.stats {
        for line in out.stats.to_string().lines() {
            eprintln!("c {line}");
        }
    }
    report_verdict(out.value)
}

/// The `--portfolio N` path: builds the roster over the parsed instance
/// and runs the in-instance portfolio (see `qbf_core::portfolio`).
fn run_portfolio(qbf: &Qbf, opts: &Options) -> ExitCode {
    if opts.use_recursive {
        eprintln!("error: --portfolio requires the QDPLL solver (drop --recursive)");
        return ExitCode::from(1);
    }
    if opts.trace.is_some() || opts.trace_json.is_some() || opts.profile || opts.progress > 0 {
        eprintln!("error: --portfolio does not support per-search observers (--trace/--trace-json/--profile/--progress)");
        return ExitCode::from(1);
    }
    let variants = roster(qbf, opts.portfolio, opts.deterministic, &opts.config);
    let popts = PortfolioOptions {
        threads: opts.portfolio,
        share_len: opts.share_len,
        deterministic: opts.deterministic,
        epoch: opts.epoch,
        ..PortfolioOptions::default()
    };
    let out = if opts.portfolio_expand {
        if opts.proof.is_some() || opts.metrics {
            eprintln!(
                "error: --portfolio-expand does not support --proof or --metrics \
                 (expansion workers have no certificate or phase clock hookup)"
            );
            return ExitCode::from(1);
        }
        portfolio::solve_mixed(&variants, expand_workers(qbf, opts.config.node_limit), &popts)
    } else if opts.proof.is_some() {
        if opts.share_len > 0 {
            eprintln!("c portfolio: constraint sharing disabled under --proof");
        }
        portfolio::solve_with_proof(&variants, &popts)
    } else if opts.metrics {
        portfolio::solve_with_metrics(&variants, &popts)
    } else {
        portfolio::solve(&variants, &popts)
    };

    match out.winner {
        Some(w) => eprintln!("c portfolio: winner {} ({})", w, out.workers[w].label),
        None => eprintln!("c portfolio: no worker finished"),
    }
    if opts.stats {
        for line in out.transcript().lines() {
            eprintln!("c {line}");
        }
    }
    if opts.metrics {
        for (i, w) in out.workers.iter().enumerate() {
            if let Some(json) = &w.metrics_json {
                eprintln!("c worker {i} {} metrics: {json}", w.label);
            }
        }
    }
    if let Some(path) = &opts.portfolio_out {
        if let Err(e) = std::fs::write(path, out.transcript()) {
            eprintln!("error: cannot write portfolio transcript to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if opts.proof.is_some() {
        match &out.certificate {
            Some(cert) => emit(&opts.proof, "proof", cert),
            None => eprintln!("c proof: search was cut off before a conclusion; no certificate"),
        }
    }
    report_verdict(out.value)
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.preprocess && opts.proof.is_some() {
        // The log would certify the simplified instance, which `qbfcheck`
        // rejects against the user's file: the preprocessor's steps are
        // not logged.
        eprintln!(
            "error: --proof certifies the instance as given and --preprocess \
             changes it first; drop one of them"
        );
        return ExitCode::from(1);
    }
    let text = match read_input(&opts.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read input: {e}");
            return ExitCode::from(1);
        }
    };
    let mut qbf = match parse_qbf(&text) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: parse failed: {e}");
            return ExitCode::from(1);
        }
    };
    if opts.preprocess {
        let (simplified, report) = qbf_core::preprocess::preprocess(&qbf);
        eprintln!(
            "c preprocess: {} units, {} pures, {} reduced literals, {} subsumed{}",
            report.units,
            report.pures,
            report.reduced_literals,
            report.subsumed,
            match report.decided {
                Some(v) => format!(", decided: {v}"),
                None => String::new(),
            }
        );
        qbf = simplified;
    }
    for line in qbf_core::stats::InstanceStats::of(&qbf).to_string().lines() {
        eprintln!("c {line}");
    }

    if opts.engine == Engine::Expand {
        if opts.portfolio > 0 || opts.portfolio_expand {
            eprintln!(
                "error: --engine expand cannot drive the portfolio directly; use \
                 --portfolio N --portfolio-expand to race search and expansion"
            );
            return ExitCode::from(1);
        }
        return run_expand(&qbf, &opts);
    }
    if opts.portfolio_expand && opts.portfolio == 0 {
        eprintln!("error: --portfolio-expand requires --portfolio N");
        return ExitCode::from(1);
    }

    if opts.portfolio > 0 {
        return run_portfolio(&qbf, &opts);
    }

    // Observability: build the fan-out requested on the command line. An
    // empty fan-out takes the `NoopObserver` fast path instead.
    let mut tree = TreeTrace::new();
    let mut jsonl = JsonlTrace::new();
    let mut profiler = Profiler::new(&qbf);
    let mut progress = Progress::new(opts.progress);
    let mut multi = MultiObserver::new();
    if opts.trace.is_some() {
        multi.push(&mut tree);
    }
    if opts.trace_json.is_some() {
        multi.push(&mut jsonl);
    }
    if opts.profile {
        multi.push(&mut profiler);
    }
    if opts.progress > 0 {
        multi.push(&mut progress);
    }
    let mut log = ProofLog::new();
    if opts.proof.is_some() {
        if opts.use_recursive {
            eprintln!("error: --proof requires the QDPLL solver (drop --recursive)");
            return ExitCode::from(1);
        }
        if opts.config.pure_literals || !opts.config.learning {
            eprintln!("c proof: forcing learning on and pure literals off");
        }
    }

    if opts.metrics && opts.use_recursive {
        eprintln!("error: --metrics requires the QDPLL solver (drop --recursive)");
        return ExitCode::from(1);
    }
    let mut engine_metrics = EngineMetrics::new(WallClock::new());

    // `run` consumes the fan-out, so the borrows of the individual
    // observers end at this call and the traces can be emitted below.
    let value = run(
        &qbf,
        &opts,
        multi,
        opts.proof.is_some().then_some(&mut log),
        opts.metrics.then_some(&mut engine_metrics),
    );

    if opts.proof.is_some() {
        if log.is_concluded() {
            emit(&opts.proof, "proof", log.as_text());
        } else {
            eprintln!("c proof: search was cut off before a conclusion; no certificate");
        }
    }
    emit(&opts.trace, "trace", tree.as_str());
    emit(&opts.trace_json, "JSON trace", &jsonl.finish());
    if opts.profile {
        for line in profiler.report().lines() {
            eprintln!("c {line}");
        }
    }
    if opts.metrics {
        render_metrics(&engine_metrics);
    }

    report_verdict(value)
}
