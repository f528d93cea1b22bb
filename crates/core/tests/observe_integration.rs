//! Integration tests for the observability layer (`qbf_core::observe`):
//!
//! * a golden Fig. 2-style tree trace of the recursive Q-DLL on the
//!   paper's running example (1);
//! * byte-determinism of the JSONL event trace across repeated runs;
//! * a full cross-check of the [`Profiler`]'s independently-counted
//!   events against the engine's own [`Stats`] on a differential suite
//!   of random instances, under both QUBE(TO) and QUBE(PO);
//! * the zero-overhead guard: attaching observers must not perturb the
//!   search (bit-identical statistics with and without observers).

use qbf_core::metrics::{EngineGauge, EngineMetrics, ManualClock, Phase};
use qbf_core::observe::{JsonlTrace, MultiObserver, Profiler, Progress, TreeTrace, WatchSide};
use qbf_core::proof::ProofLog;
use qbf_core::recursive::{self, RecursiveConfig};
use qbf_core::samples;
use qbf_core::solver::{Solver, SolverConfig, Stats};
use qbf_core::Qbf;

/// The search tree of Fig. 2 (recursive Q-DLL, no pure-literal fixing, on
/// the running example (1)), as rendered by [`TreeTrace`]. One line per
/// node; indentation tracks the recursion depth.
const FIG2_GOLDEN: &str = "\
-1 (branch)
  -2 (branch)
    -3 (branch)
      -4 (unit)
      -5 (branch)
        -6 (branch)
          7 (unit)
          CONFLICT
        6 (flip)
          7 (unit)
          CONFLICT
    3 (flip)
      4 (unit)
      -5 (branch)
        -6 (branch)
          7 (unit)
          CONFLICT
        6 (flip)
          7 (unit)
          CONFLICT
1 (flip)
  -2 (branch)
    -3 (branch)
      4 (unit)
      CONFLICT
    3 (flip)
      4 (unit)
      CONFLICT
";

#[test]
fn golden_tree_trace_of_paper_example() {
    let qbf = samples::paper_example();
    let cfg = RecursiveConfig {
        pure_literals: false,
        ..RecursiveConfig::default()
    };
    let mut trace = TreeTrace::new();
    let out = recursive::solve_with_observer(&qbf, &cfg, &mut trace);
    assert_eq!(out.value, Some(false), "the paper refutes (1)");
    assert_eq!(trace.as_str(), FIG2_GOLDEN);
}

#[test]
fn jsonl_trace_is_byte_deterministic() {
    let run_once = |qbf: &Qbf, config: SolverConfig| {
        let mut jsonl = JsonlTrace::new();
        let out = Solver::with_observer(qbf, config, &mut jsonl).solve();
        (out.value(), jsonl.finish())
    };
    for qbf in [
        samples::paper_example(),
        samples::two_independent_games(),
        samples::random_qbf(11, 12, 30),
    ] {
        for config in [SolverConfig::partial_order(), SolverConfig::total_order()] {
            let (v1, t1) = run_once(&qbf, config.clone());
            let (v2, t2) = run_once(&qbf, config);
            assert_eq!(v1, v2);
            assert_eq!(t1, t2, "JSONL trace must be byte-identical");
            assert!(!t1.is_empty());
            // every line is a JSON object with an event tag
            for line in t1.lines() {
                assert!(line.starts_with("{\"e\":\""), "bad line: {line}");
                assert!(line.ends_with('}'), "bad line: {line}");
            }
        }
    }
}

/// Runs one instance with a [`Profiler`] attached and asserts that every
/// counter the profiler accumulates from events equals the corresponding
/// engine statistic. Returns the profiler's watcher visits per side, in
/// [`WatchSide::ALL`] order.
fn cross_check(qbf: &Qbf, config: SolverConfig) -> [u64; 3] {
    let mut profiler = Profiler::new(qbf);
    let out = Solver::with_observer(qbf, config, &mut profiler).solve();
    let s = &out.stats;
    assert_eq!(profiler.decisions(), s.decisions, "decisions");
    assert_eq!(profiler.propagations(), s.propagations, "propagations");
    assert_eq!(profiler.pures(), s.pures, "pures");
    assert_eq!(profiler.conflicts(), s.conflicts, "conflicts");
    assert_eq!(profiler.solutions(), s.solutions, "solutions");
    assert_eq!(
        profiler.learned_clauses(),
        s.learned_clauses,
        "learned clauses"
    );
    assert_eq!(profiler.learned_cubes(), s.learned_cubes, "learned cubes");
    assert_eq!(profiler.backjumps(), s.backjumps, "backjumps");
    assert_eq!(
        profiler.chrono_backtracks(),
        s.chrono_backtracks,
        "chrono backtracks"
    );
    assert_eq!(profiler.forgotten(), s.forgotten, "forgotten");
    assert_eq!(profiler.watcher_visits(), s.watcher_visits, "watcher visits");
    assert_eq!(profiler.blocker_hits(), s.blocker_hits, "blocker hits");
    assert_eq!(profiler.compactions(), s.compactions, "compactions");
    assert_eq!(
        profiler.bytes_reclaimed(),
        s.arena_bytes_reclaimed,
        "bytes reclaimed"
    );
    assert!(
        s.blocker_hits <= s.watcher_visits,
        "blocker hits are a subset of watcher visits"
    );
    for side in WatchSide::ALL {
        assert!(
            profiler.side_blocker_hits(side) <= profiler.side_visits(side),
            "{} blocker hits exceed its visits",
            side.tag()
        );
    }
    if s.learned_cubes == 0 {
        assert_eq!(
            profiler.side_visits(WatchSide::Cube),
            0,
            "cube visits without a learned good"
        );
    }
    let report = profiler.report();
    assert!(report.contains("decisions"), "report renders");
    assert!(report.contains("blocker hits"), "report renders blockers");
    for side in WatchSide::ALL {
        assert!(report.contains(side.tag()), "report renders {}", side.tag());
    }
    WatchSide::ALL.map(|side| profiler.side_visits(side))
}

#[test]
fn profiler_matches_stats_on_differential_suite() {
    // The same seed schedule the solver's differential tests use: small
    // random QBFs with mixed prefixes, solved under both configurations.
    let mut sides = [0u64; 3];
    let mut add = |visits: [u64; 3]| {
        for (total, v) in sides.iter_mut().zip(visits) {
            *total += v;
        }
    };
    for seed in 0..12u64 {
        let qbf = samples::random_qbf(seed, 8 + (seed as usize % 5), 20 + 2 * seed as usize);
        add(cross_check(&qbf, SolverConfig::partial_order()));
        add(cross_check(&qbf, SolverConfig::total_order()));
        add(cross_check(&qbf, SolverConfig::basic()));
    }
    add(cross_check(
        &samples::paper_example(),
        SolverConfig::partial_order(),
    ));
    add(cross_check(
        &samples::two_independent_games(),
        SolverConfig::partial_order(),
    ));
    // Every side is exercised, so a hook fired with the wrong side would
    // show up as a missing one.
    for (side, visits) in WatchSide::ALL.into_iter().zip(sides) {
        assert!(visits > 0, "no {} visit on the suite", side.tag());
    }
}

#[test]
fn observers_do_not_perturb_the_search() {
    for seed in 0..8u64 {
        let qbf = samples::random_qbf(seed, 10, 26);
        for config in [SolverConfig::partial_order(), SolverConfig::total_order()] {
            // Baseline: NoopObserver (the default type parameter).
            let plain = Solver::new(&qbf, config.clone()).solve();
            // Full fan-out: every built-in observer at once.
            let mut tree = TreeTrace::new();
            let mut jsonl = JsonlTrace::new();
            let mut profiler = Profiler::new(&qbf);
            let mut progress = Progress::new(u64::MAX);
            let mut multi = MultiObserver::new();
            multi.push(&mut tree);
            multi.push(&mut jsonl);
            multi.push(&mut profiler);
            multi.push(&mut progress);
            let observed = Solver::with_observer(&qbf, config, multi).solve();
            assert_eq!(plain.value(), observed.value());
            assert_eq!(
                plain.stats, observed.stats,
                "observers must leave the search bit-identical (seed {seed})"
            );
        }
    }
}

/// The metrics analogue of the zero-overhead guard. A *live*
/// `EngineMetrics` recorder — which times phases and samples gauges but
/// never feeds a search decision — must leave every statistic
/// bit-identical, and since it is an ordinary observer it must record
/// the same spans and gauges inside a `MultiObserver` (next to a
/// `Profiler`) as when attached alone.
#[test]
fn metrics_do_not_perturb_the_search() {
    for seed in 0..8u64 {
        let qbf = samples::random_qbf(seed, 10, 26);
        for config in [SolverConfig::partial_order(), SolverConfig::total_order()] {
            // Baseline: no observer (the default type parameter).
            let plain = Solver::new(&qbf, config.clone()).solve();
            // Live recorder under a deterministic clock.
            let mut sink = EngineMetrics::new(ManualClock::new(1));
            let metered = Solver::with_metrics(&qbf, config.clone(), &mut sink).solve();
            assert_eq!(plain.value(), metered.value());
            assert_eq!(
                plain.stats, metered.stats,
                "a live metrics sink must leave the search bit-identical (seed {seed})"
            );
            if plain.stats.decisions > 0 {
                assert!(
                    sink.phase_hist(Phase::Propagate).count() > 0,
                    "the live sink actually recorded spans (seed {seed})"
                );
                assert!(
                    sink.gauge_peak(EngineGauge::ArenaBytes) > 0,
                    "resource gauges sampled at decision boundaries (seed {seed})"
                );
            }
            // The same recorder inside a fan-out, next to a profiler.
            let mut fanned = EngineMetrics::new(ManualClock::new(1));
            let mut profiler = Profiler::new(&qbf);
            let mut multi = MultiObserver::new();
            multi.push(&mut profiler);
            multi.push(&mut fanned);
            let shared = Solver::with_observer(&qbf, config.clone(), multi).solve();
            assert_eq!(plain.value(), shared.value());
            assert_eq!(
                plain.stats, shared.stats,
                "a fanned-out recorder must leave the search bit-identical (seed {seed})"
            );
            let spans = |m: &EngineMetrics<_>| Phase::ALL.map(|p| m.phase_hist(p).count());
            let peaks = |m: &EngineMetrics<_>| EngineGauge::ALL.map(|g| m.gauge_peak(g));
            assert_eq!(
                spans(&sink),
                spans(&fanned),
                "span counts per phase (seed {seed})"
            );
            assert_eq!(peaks(&sink), peaks(&fanned), "gauge peaks (seed {seed})");
            assert_eq!(profiler.decisions(), plain.stats.decisions, "seed {seed}");
        }
    }
}

/// The certificate logger's analogue of the zero-overhead guard:
/// attaching a [`ProofLog`] must not change what the search *does*, only
/// record it. Proof mode forces pure literals off and learning on, so
/// the baseline uses the same effective configuration; every non-proof
/// statistic must then be bit-identical, and the proof counters must be
/// the only difference. A log beside a live observer (`with_parts`) must
/// write the same certificate, while the observer sees the same events.
#[test]
fn proof_logging_does_not_perturb_the_search() {
    for seed in 0..8u64 {
        let qbf = samples::random_qbf(seed, 10, 26);
        for base in [SolverConfig::partial_order(), SolverConfig::total_order()] {
            let config = SolverConfig {
                pure_literals: false,
                learning: true,
                ..base
            };
            let plain = Solver::new(&qbf, config.clone()).solve();
            let mut log = ProofLog::new();
            let proved = Solver::with_proof(&qbf, config.clone(), &mut log).solve();
            let mut profiler = Profiler::new(&qbf);
            let mut observed_log = ProofLog::new();
            let observed =
                Solver::with_parts(&qbf, config, &mut profiler, Some(&mut observed_log)).solve();
            assert_eq!(
                log.as_text(),
                observed_log.as_text(),
                "an observer beside the log must leave the certificate unchanged (seed {seed})"
            );
            assert_eq!(proved.stats, observed.stats, "seed {seed}");
            assert_eq!(profiler.decisions(), observed.stats.decisions, "seed {seed}");
            assert_eq!(profiler.conflicts(), observed.stats.conflicts, "seed {seed}");
            assert_eq!(profiler.solutions(), observed.stats.solutions, "seed {seed}");
            assert_eq!(plain.value(), proved.value());
            let mut masked = proved.stats;
            assert!(masked.proof_steps > 0, "proof run recorded steps (seed {seed})");
            assert!(masked.proof_bytes > 0, "proof run recorded bytes (seed {seed})");
            masked.proof_steps = 0;
            masked.proof_bytes = 0;
            masked.proof_dels = 0;
            assert_eq!(
                plain.stats, masked,
                "proof logging must leave the search bit-identical (seed {seed})"
            );
        }
    }
}

#[test]
fn iterative_trace_shows_learning_on_paper_example() {
    let qbf = samples::paper_example();
    let mut trace = TreeTrace::new();
    let out = Solver::with_observer(&qbf, SolverConfig::partial_order(), &mut trace).solve();
    assert_eq!(out.value(), Some(false));
    let text = trace.into_string();
    assert!(text.contains("(branch)"));
    assert!(text.contains("CONFLICT"));
    assert!(text.contains("learn clause"), "learning events rendered:\n{text}");
}

/// The recursive and iterative engines agree with the default-`Noop`
/// paths on the same inputs — the observer plumbing itself is covered by
/// `Stats` equality above, this guards the recursive entry point.
#[test]
fn recursive_observer_entry_point_matches_plain_solve() {
    let qbf = samples::paper_example();
    let cfg = RecursiveConfig::default();
    let plain = recursive::solve(&qbf, &cfg);
    let mut profiler = Profiler::new(&qbf);
    let observed = recursive::solve_with_observer(&qbf, &cfg, &mut profiler);
    assert_eq!(plain.value, observed.value);
    assert_eq!(plain.stats, observed.stats);
    assert!(profiler.decisions() > 0);
}

#[test]
fn stats_display_lists_every_field() {
    let stats = Stats {
        decisions: 3,
        propagations: 4,
        ..Stats::default()
    };
    let rendered = stats.to_string();
    for (name, _) in stats.fields() {
        assert!(
            rendered.contains(name),
            "Display output missing field {name}"
        );
    }
    assert!(rendered.contains("assignments        = 7"));
}
