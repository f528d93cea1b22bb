//! Instrumentation of the expansion engine: an `EngineMetrics` recorder
//! attached through `ExpandSolver::with_observer` receives the engine's
//! `SatSolve`/`Refine` spans and `AbstractionConjuncts` samples, and
//! never changes what the engine computes. The pool is a slice of the
//! differential suite's (samples, random forests, NCF and PROB), run
//! under both dependency schemes, with and without a budget.

use qbf_core::metrics::{EngineGauge, EngineMetrics, ManualClock, Phase};
use qbf_core::samples;
use qbf_expand::{solve, ExpandConfig, ExpandSolver};
use qbf_gen::{ncf, rand_qbf, NcfParams, RandParams};

#[test]
fn recorder_sees_every_span_and_leaves_the_engine_unchanged() {
    let mut pool = vec![samples::paper_example(), samples::two_independent_games()];
    for seed in 0..30u64 {
        pool.push(samples::random_qbf(
            seed.wrapping_mul(0x9e37_79b9) ^ 0xd1f,
            7,
            11,
        ));
    }
    let ncf_params = NcfParams {
        dep: 3,
        var: 2,
        cls_ratio: 2,
        lpc: 3,
    };
    for seed in 0..3u64 {
        pool.push(ncf(&ncf_params, seed));
        pool.push(rand_qbf(&RandParams::three_block(4, 3, 4, 20, 3), seed));
    }
    let mut nontrivial = 0;
    for (i, qbf) in pool.iter().enumerate() {
        for scheme in [ExpandConfig::tree(), ExpandConfig::ordered()] {
            for config in [scheme, scheme.with_step_limit(20)] {
                let plain = solve(qbf, config);
                let mut m = EngineMetrics::new(ManualClock::new(1));
                let out = ExpandSolver::with_observer(qbf, config, &mut m).solve();
                let at = format!("#{i} {config:?}");
                assert_eq!(plain.value, out.value, "{at}: verdict");
                assert_eq!(plain.stats, out.stats, "{at}: every ExpandStats counter");
                let (stats, sat_spans) = (out.stats, m.phase_hist(Phase::SatSolve).count());
                if config.step_limit.is_some() {
                    // A paused call leaves a span but no completed answer.
                    assert!(sat_spans >= stats.sat_calls, "{at}");
                    continue;
                }
                // No budget: every SAT call completes, one span each.
                assert_eq!(sat_spans, stats.sat_calls, "{at}: SatSolve spans");
                // One refinement per satisfiable answer; each round ends in one.
                let refines = m.phase_hist(Phase::Refine).count();
                assert!(
                    refines >= stats.rounds && refines <= stats.sat_calls,
                    "{at}"
                );
                let peak = m.gauge_peak(EngineGauge::AbstractionConjuncts);
                assert!(
                    peak <= stats.exists_conjuncts + stats.forall_conjuncts,
                    "{at}"
                );
                // The search engine's phases stay untouched.
                assert_eq!(m.phase_hist(Phase::Propagate).count(), 0, "{at}");
                if stats.rounds > 0 {
                    nontrivial += 1;
                    assert!(refines > 0 && peak > 0, "{at}: Refine spans, gauge peak");
                }
            }
        }
    }
    assert!(
        nontrivial > 0,
        "no instance of the pool needed a refinement round"
    );
}
