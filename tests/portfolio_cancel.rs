//! Cancellation coverage for the in-instance portfolio.
//!
//! Three properties:
//!
//! * a worker observes the shared stop flag within a **bounded** number
//!   of decisions after it is raised (the engine polls the flag at
//!   every decision boundary), with a `ManualClock`-driven
//!   `EngineMetrics` attached so the phase-span instrumentation rides
//!   along deterministically;
//! * a cancelled worker's session tears down cleanly: in a free-running
//!   race the losers end neither finished, nor timed out, nor
//!   panicked, and the verdict is untouched;
//! * a panicking worker never poisons shared state: the panic is
//!   contained in its report (`panicked: true`), the remaining workers
//!   keep exchanging constraints and the portfolio still decides
//!   correctly — in both drivers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qbf_repro::core::metrics::{EngineMetrics, ManualClock};
use qbf_repro::core::observe::{MultiObserver, SearchObserver};
use qbf_repro::core::portfolio::{self, PortfolioOptions, ShareClass, Variant};
use qbf_repro::core::solver::{HeuristicKind, Solver, SolverConfig};
use qbf_repro::core::{Lit, Qbf};
use qbf_repro::gen::{ncf, NcfParams};
use qbf_repro::prenex::portfolio::roster;

fn hardish_instance() -> Qbf {
    // ~2k assignments under the PO config: long enough that a stop flag
    // raised after 40 decisions cancels a search that would otherwise
    // keep going, small enough for debug-build CI.
    ncf(
        &NcfParams {
            dep: 6,
            var: 4,
            cls_ratio: 3,
            lpc: 5,
        },
        1,
    )
}

/// Observer that raises the portfolio stop flag after `k` decisions.
#[derive(Debug)]
struct StopAfter {
    stop: Arc<AtomicBool>,
    k: u64,
    seen: u64,
}

impl SearchObserver for StopAfter {
    fn on_decision(&mut self, _lit: Lit, _level: u32, _trail_depth: usize, _flipped: bool, _score: f64) {
        self.seen += 1;
        if self.seen == self.k {
            self.stop.store(true, Ordering::SeqCst);
        }
    }
}

/// The stop flag is observed at the next decision boundary: a worker
/// parked mid-search stops within a couple of decisions of the flag
/// being raised, and reports a budget-style (timeout) outcome rather
/// than a verdict.
#[test]
fn stop_flag_observed_within_bounded_decisions() {
    const K: u64 = 40;
    let qbf = hardish_instance();
    let config = SolverConfig::partial_order();

    // Sanity: uncancelled, the search needs far more than K decisions.
    let full = Solver::new(&qbf, config.clone()).solve();
    assert!(
        full.stats.decisions > 4 * K,
        "instance too easy for the cancellation bound ({} decisions)",
        full.stats.decisions
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut metrics = EngineMetrics::new(ManualClock::new(1));
    let mut observer = StopAfter {
        stop: Arc::clone(&stop),
        k: K,
        seen: 0,
    };
    let mut both = MultiObserver::new();
    both.push(&mut observer);
    both.push(&mut metrics);
    let mut solver = Solver::with_observer(&qbf, config, both);
    solver.set_stop_flag(Arc::clone(&stop));
    let out = solver.solve();

    assert!(out.is_timeout(), "a cancelled worker must not report a verdict");
    assert!(
        out.stats.decisions >= K,
        "the observer raised the flag at decision {K}, got {}",
        out.stats.decisions
    );
    assert!(
        out.stats.decisions <= K + 2,
        "stop flag observed only after {} decisions (raised at {K})",
        out.stats.decisions
    );
    // The ManualClock metrics rode along: phase spans were recorded up
    // to the cancellation point, deterministically.
    let snapshot = metrics.snapshot_json();
    assert!(
        snapshot.contains("phase_propagate"),
        "metrics snapshot missing phase spans: {snapshot}"
    );
}

/// Free-running race where the PO worker is paired with deliberately
/// slow variants (naive heuristic, no learning): the race decides
/// correctly and the cancelled losers tear down cleanly — not finished,
/// not timed out, not panicked, no poisoned locks.
#[test]
fn cancelled_losers_tear_down_cleanly() {
    let qbf = hardish_instance();
    let expected = Solver::new(&qbf, SolverConfig::partial_order())
        .solve()
        .value()
        .expect("reference verdict");
    let fast = Variant {
        label: "po".to_string(),
        qbf: qbf.clone(),
        config: SolverConfig::partial_order(),
        class: ShareClass::Partial,
    };
    let slow = |i: usize| Variant {
        label: format!("slow{i}"),
        qbf: qbf.clone(),
        config: SolverConfig {
            heuristic: HeuristicKind::Naive,
            learning: false,
            ..SolverConfig::default()
        },
        class: ShareClass::Partial,
    };
    let variants = vec![fast, slow(1), slow(2), slow(3)];
    let opts = PortfolioOptions {
        threads: 4,
        ..PortfolioOptions::default()
    };
    for round in 0..5 {
        let out = portfolio::solve(&variants, &opts);
        assert_eq!(out.value, Some(expected), "race verdict (round {round})");
        let winner = out.winner.expect("someone must win");
        assert!(out.workers[winner].finished);
        for (i, w) in out.workers.iter().enumerate() {
            assert!(!w.panicked, "worker {i} panicked (round {round})");
            if w.finished {
                // A second finisher may legitimately beat the flag; it
                // must then agree with the winner.
                assert_eq!(w.value, Some(expected), "finisher {i} disagrees (round {round})");
            } else {
                // A cancelled loser: no verdict, clean teardown.
                assert_eq!(w.value, None, "cancelled worker {i} kept a verdict (round {round})");
            }
        }
    }
}

/// Free-running driver contains a worker panic: the panicking worker is
/// flagged in its report, the winner's result is untouched, and the
/// shared pool's lock (which the panicking thread may race) stays
/// usable for the surviving workers.
#[test]
fn free_mode_panic_containment() {
    let qbf = hardish_instance();
    let base = SolverConfig::partial_order().with_node_limit(2_000_000);
    let expected = Solver::new(&qbf, base.clone())
        .solve()
        .value()
        .expect("reference verdict");
    let vars = roster(&qbf, 4, false, &base);
    let opts = PortfolioOptions {
        threads: 4,
        debug_panic_worker: Some(1),
        ..PortfolioOptions::default()
    };
    let out = portfolio::solve(&vars, &opts);
    assert_eq!(out.value, Some(expected), "panic must not change the verdict");
    assert!(out.workers[1].panicked, "injected panic not contained in the report");
    assert!(!out.workers[1].finished);
    assert_ne!(out.winner, Some(1), "a panicked worker cannot win");
}

/// Deterministic driver contains a worker panic — including of worker 0,
/// the roster's canonical first finisher on most instances — and the
/// epoch exchange keeps running for the survivors. The transcript stays
/// byte-reproducible (a contained panic is part of the deterministic
/// computation).
#[test]
fn deterministic_panic_containment_is_reproducible() {
    let qbf = hardish_instance();
    let base = SolverConfig::partial_order().with_node_limit(2_000_000);
    let expected = Solver::new(&qbf, base.clone())
        .solve()
        .value()
        .expect("reference verdict");
    let vars = roster(&qbf, 1, true, &base);
    let opts = PortfolioOptions {
        threads: 4,
        deterministic: true,
        epoch: 64,
        debug_panic_worker: Some(0),
        ..PortfolioOptions::default()
    };
    let out1 = portfolio::solve(&vars, &opts);
    assert_eq!(out1.value, Some(expected), "surviving workers must still decide");
    assert!(out1.workers[0].panicked);
    assert_ne!(out1.winner, Some(0));
    // Sharing survived the panic: the exchange is live among survivors.
    assert_eq!(out1.share_len, 4, "sharing unexpectedly disabled");
    let out2 = portfolio::solve(&vars, &opts);
    assert_eq!(
        out1.transcript(),
        out2.transcript(),
        "deterministic transcript must reproduce with a contained panic"
    );
    // And the panic-free run differs only in worker 0's fate.
    let clean = portfolio::solve(
        &vars,
        &PortfolioOptions {
            debug_panic_worker: None,
            ..opts
        },
    );
    assert_eq!(clean.value, Some(expected));
    assert!(!clean.workers[0].panicked);
}
