//! Dependency-free benches (`cargo bench`) for regression tracking: one
//! real search per order (a counter<3> diameter probe, PO on the tree
//! form and TO on Eq. 16), the observer layer's overhead on the same
//! probe, and the front-end transforms. Whole-workload wall-clock
//! numbers come from `perfbench/`; the full regeneration of §VII lives
//! in the `repro` binary. Search cases must do real work: instances that
//! finish in a few dozen assignments time solver construction, not
//! search, so none is kept here.
//!
//! The workspace builds hermetically (no crates.io access), so this is a
//! plain `harness = false` binary timed with `std::time::Instant` instead
//! of criterion: each case is run for a warm-up iteration, then repeated
//! until ~0.4 s has elapsed, reporting the median per-iteration time and
//! the deterministic `assignments()` cost proxy.

use std::time::{Duration, Instant};

use qbf_core::preprocess::preprocess;
use qbf_core::solver::{Solver, SolverConfig};
use qbf_core::Qbf;
use qbf_gen::{fixed, ncf, FixedParams, NcfParams};
use qbf_models::{diameter_qbf, DiameterForm};
use qbf_prenex::{miniscope, prenex, Strategy};

fn solve(qbf: &Qbf, config: &SolverConfig) -> u64 {
    let out = Solver::new(qbf, config.clone().with_node_limit(5_000_000)).solve();
    assert!(out.value().is_some(), "bench instance hit its node limit");
    out.stats.assignments()
}

/// Times `f` repeatedly and prints `group/name: median iter time (n iters)`.
fn bench<F: FnMut() -> u64>(group: &str, name: &str, mut f: F) {
    let assignments = f(); // warm-up + cost proxy
    let budget = Duration::from_millis(400);
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || times.len() < 3 {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed());
        if times.len() >= 200 {
            break;
        }
    }
    times.sort();
    let median = times[times.len() / 2];
    println!(
        "{group:<14} {name:<28} {median:>12.2?}  ({} iters, {assignments} assignments)",
        times.len()
    );
}

/// Table I row 6 / Figs. 5–6: a diameter probe of counter<3>.
fn bench_dia() {
    let model = qbf_models::counter(3);
    let tree = diameter_qbf(&model, 5, DiameterForm::Tree);
    let flat = diameter_qbf(&model, 5, DiameterForm::Prenex);
    bench("dia_c3_phi5", "po_tree", || {
        solve(&tree.qbf, &SolverConfig::partial_order())
    });
    bench("dia_c3_phi5", "to_prenex", || {
        solve(&flat.qbf, &SolverConfig::total_order())
    });
}

/// Observability overhead: the same counter<3> probe solved with the default
/// `NoopObserver` (must stay indistinguishable from the engine without
/// the layer — the observer calls monomorphize to nothing) vs a profiler
/// and the full observer fan-out (pins the cost of full tracing).
fn bench_observe() {
    use qbf_core::observe::{JsonlTrace, MultiObserver, Profiler, Progress, TreeTrace};

    // A non-trivial instance (~7.5k assignments, so per-event costs
    // dominate the solver-construction noise): a counter<3> diameter probe.
    let po = diameter_qbf(&qbf_models::counter(3), 5, DiameterForm::Tree).qbf;
    let config = || SolverConfig::partial_order().with_node_limit(5_000_000);
    bench("observe", "noop", || solve(&po, &SolverConfig::partial_order()));
    bench("observe", "profiler", || {
        let mut profiler = Profiler::new(&po);
        let out = Solver::with_observer(&po, config(), &mut profiler).solve();
        assert_eq!(profiler.decisions(), out.stats.decisions);
        out.stats.assignments()
    });
    bench("observe", "full_fanout", || {
        let mut tree = TreeTrace::new();
        let mut jsonl = JsonlTrace::new();
        let mut profiler = Profiler::new(&po);
        let mut progress = Progress::new(u64::MAX);
        let mut multi = MultiObserver::new();
        multi.push(&mut tree);
        multi.push(&mut jsonl);
        multi.push(&mut profiler);
        multi.push(&mut progress);
        let out = Solver::with_observer(&po, config(), multi).solve();
        std::hint::black_box((tree.as_str().len(), jsonl.finish().len()));
        out.stats.assignments()
    });
}

/// Preprocessing costs: the four prenexing strategies, miniscoping, and
/// the §VII-D front end (preprocessing and miniscoping) on a large flat
/// instance.
fn bench_transforms() {
    let params = NcfParams {
        dep: 6,
        var: 4,
        cls_ratio: 3,
        lpc: 4,
    };
    let q = ncf(&params, 1);
    for strategy in Strategy::ALL {
        bench("transforms", &format!("prenex/{strategy}"), || {
            std::hint::black_box(prenex(&q, strategy));
            0
        });
    }
    let flat = prenex(&q, Strategy::ExistsUpForallUp);
    bench("transforms", "miniscope", || {
        std::hint::black_box(miniscope(&flat)).is_ok() as u64
    });
    // FIXED-L: 120 groups, 7 200 clauses of 5 literals.
    let large = fixed(
        &FixedParams {
            groups: 120,
            depth: 5,
            block_vars: 4,
            clauses_per_group: 60,
            lpc: 5,
        },
        0,
    )
    .prenex;
    bench("transforms", "preprocess", || {
        std::hint::black_box(preprocess(&large)).1.subsumed as u64
    });
    bench("transforms", "miniscope/fixed-l120", || {
        std::hint::black_box(miniscope(&large)).is_ok() as u64
    });
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test --benches` passes
    // `--test-threads` etc. and expects the harness not to actually run.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    println!(
        "{:<14} {:<28} {:>12}  (iters, deterministic cost)",
        "group", "case", "median"
    );
    bench_dia();
    bench_observe();
    bench_transforms();
}
