//! Cross-thread differential suite for the in-instance portfolio
//! (`qbf_core::portfolio` + `qbf_prenex::portfolio::roster`).
//!
//! Every instance of the `differential.rs` pool (hand samples, random
//! quantifier forests, their prenexings and miniscopings, and the
//! structured generators) runs through the portfolio in **both** modes
//! and at worker counts {1, 2, 4, 8}:
//!
//! * the portfolio verdict must agree with the single-threaded solver
//!   (and, where the pool provides it, with the exponential semantic
//!   evaluator);
//! * deterministic mode's transcript — verdict, winner, per-worker
//!   `Stats` and sharing counters — must be **byte-identical** across
//!   all thread counts and across repeated runs.
//!
//! The mixed portfolio (the search roster plus both expansion engines of
//! `qbf_prenex::portfolio::expand_workers`) runs on the samples and a
//! few generator instances: its lockstep transcript must replay at every
//! thread count, and a panic of the first external worker must stay
//! contained under both drivers.
//!
//! Built with `--features qbf-core/debug-counters`, every worker run is
//! additionally shadow-verified by the eager counter discipline, so any
//! unsound imported constraint that changes propagation behaviour
//! panics here rather than surfacing as a wrong verdict downstream.

use qbf_repro::core::portfolio::{self, PortfolioOptions};
use qbf_repro::core::solver::{Solver, SolverConfig};
use qbf_repro::core::{samples, semantics, Qbf};
use qbf_repro::gen::{fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, RandParams};
use qbf_repro::prenex::portfolio::{expand_workers, roster, DETERMINISTIC_ROSTER};
use qbf_repro::prenex::{miniscope, prenex, Strategy};

fn base_config() -> SolverConfig {
    SolverConfig::partial_order().with_node_limit(2_000_000)
}

/// The single-threaded reference verdict.
fn reference(label: &str, qbf: &Qbf) -> bool {
    Solver::new(qbf, base_config())
        .solve()
        .value()
        .unwrap_or_else(|| panic!("{label}: single-threaded reference hit its node limit"))
}

/// Cross-checks one instance: deterministic portfolio at thread counts
/// {1, 2, 4, 8} (byte-identical transcripts, correct verdict), a
/// repeated run (reproducible transcript), and the free-running race at
/// worker counts {1, 2, 4, 8} (correct verdict).
fn check_portfolio(label: &str, qbf: &Qbf, semantic: Option<bool>) {
    let expected = reference(label, qbf);
    if let Some(e) = semantic {
        assert_eq!(expected, e, "{label}: single-threaded solver disagrees with semantics");
    }
    let base = base_config();

    // Deterministic mode: the roster is the fixed canonical sequence,
    // so one roster serves every thread count.
    let vars = roster(qbf, 1, true, &base);
    let mut transcript: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let opts = PortfolioOptions {
            threads,
            deterministic: true,
            epoch: 64,
            ..PortfolioOptions::default()
        };
        let out = portfolio::solve(&vars, &opts);
        assert_eq!(
            out.value,
            Some(expected),
            "{label}: deterministic portfolio verdict (threads {threads})"
        );
        let t = out.transcript();
        match &transcript {
            None => transcript = Some(t),
            Some(first) => assert_eq!(
                first, &t,
                "{label}: deterministic transcript differs at threads {threads}"
            ),
        }
    }
    // Repeated run at a fixed thread count: byte-reproducible.
    let opts = PortfolioOptions {
        threads: 4,
        deterministic: true,
        epoch: 64,
        ..PortfolioOptions::default()
    };
    let again = portfolio::solve(&vars, &opts).transcript();
    assert_eq!(
        transcript.as_deref(),
        Some(again.as_str()),
        "{label}: deterministic transcript not reproducible across runs"
    );

    // Free-running mode: verdict-stable for every worker count.
    for workers in [1usize, 2, 4, 8] {
        let vars = roster(qbf, workers, false, &base);
        let opts = PortfolioOptions {
            threads: workers,
            ..PortfolioOptions::default()
        };
        let out = portfolio::solve(&vars, &opts);
        assert_eq!(
            out.value,
            Some(expected),
            "{label}: free-running portfolio verdict ({workers} workers)"
        );
        // Internal consistency: every finisher agrees with the verdict.
        for w in &out.workers {
            if w.finished {
                assert_eq!(w.value, Some(expected), "{label}: finished worker {} disagrees", w.label);
            }
        }
    }
}

/// Cross-checks one instance through the mixed portfolio: lockstep
/// transcripts equal at 1, 2 and 4 threads and across reruns, with both
/// expansion workers in them, and a panic injected into the first
/// external worker (index [`DETERMINISTIC_ROSTER`]) contained under both
/// drivers.
fn check_mixed(label: &str, qbf: &Qbf) {
    let expected = reference(label, qbf);
    let base = base_config();
    let vars = roster(qbf, 1, true, &base);
    let lockstep = |threads: usize, debug_panic_worker: Option<usize>| {
        let opts = PortfolioOptions {
            threads,
            deterministic: true,
            epoch: 64,
            debug_panic_worker,
            ..PortfolioOptions::default()
        };
        portfolio::solve_mixed(&vars, expand_workers(qbf, base.node_limit), &opts)
    };
    let out = lockstep(1, None);
    assert_eq!(out.value, Some(expected), "{label}: mixed lockstep verdict");
    let transcript = out.transcript();
    for engine in ["expand-po", "expand-to"] {
        assert!(
            transcript.contains(&format!(" {engine} ")),
            "{label}: {engine} missing from the mixed transcript"
        );
    }
    for threads in [2usize, 4, 1] {
        assert_eq!(
            lockstep(threads, None).transcript(),
            transcript,
            "{label}: mixed transcript differs at threads {threads}"
        );
    }

    let external = DETERMINISTIC_ROSTER;
    let hurt = lockstep(2, Some(external));
    assert_eq!(hurt.value, Some(expected), "{label}: lockstep verdict after a panic");
    assert!(hurt.workers[external].panicked, "{label}: lockstep panic not reported");
    assert!(!hurt.workers[external].finished);
    assert_eq!(
        lockstep(4, Some(external)).transcript(),
        hurt.transcript(),
        "{label}: lockstep transcript with a contained panic does not replay"
    );
    let free = portfolio::solve_mixed(
        &roster(qbf, DETERMINISTIC_ROSTER, false, &base),
        expand_workers(qbf, base.node_limit),
        &PortfolioOptions {
            debug_panic_worker: Some(external),
            ..PortfolioOptions::default()
        },
    );
    assert_eq!(free.value, Some(expected), "{label}: free verdict after a panic");
    assert!(free.workers[external].panicked, "{label}: free-race panic not reported");
    assert!(!free.workers[external].finished);
}

/// The mixed portfolio on the samples and a few generator instances.
#[test]
fn portfolio_mixed() {
    let mut cases: Vec<(String, Qbf)> = vec![
        ("paper_example".into(), samples::paper_example()),
        ("forall_exists_xor".into(), samples::forall_exists_xor()),
        ("exists_forall_xor".into(), samples::exists_forall_xor()),
        ("two_independent_games".into(), samples::two_independent_games()),
        ("sat_instance".into(), samples::sat_instance()),
        ("unsat_instance".into(), samples::unsat_instance()),
    ];
    for seed in 0..2u64 {
        let params = NcfParams { dep: 3, var: 2, cls_ratio: 2, lpc: 3 };
        cases.push((format!("ncf seed {seed}"), ncf(&params, seed)));
        let params = RandParams::three_block(4, 3, 4, 20, 3);
        cases.push((format!("prob seed {seed}"), rand_qbf(&params, seed)));
    }
    for (label, qbf) in &cases {
        check_mixed(label, qbf);
    }
}

/// The hand-written sample formulas (prenex and non-prenex).
#[test]
fn portfolio_samples() {
    let cases: [(&str, Qbf); 6] = [
        ("paper_example", samples::paper_example()),
        ("forall_exists_xor", samples::forall_exists_xor()),
        ("exists_forall_xor", samples::exists_forall_xor()),
        ("two_independent_games", samples::two_independent_games()),
        ("sat_instance", samples::sat_instance()),
        ("unsat_instance", samples::unsat_instance()),
    ];
    for (name, qbf) in cases {
        check_portfolio(name, &qbf, Some(semantics::eval(&qbf)));
    }
}

/// 150 random non-prenex quantifier forests, checked against the
/// exponential semantic evaluator (same pool as `differential.rs`).
#[test]
fn portfolio_random_forests() {
    for seed in 0..150u64 {
        let q = samples::random_qbf(seed.wrapping_mul(0x9e37_79b9) ^ 0xd1f, 7, 11);
        check_portfolio(&format!("forest seed {seed}"), &q, Some(semantics::eval(&q)));
    }
}

/// 50 random forests prenexed with a rotating §V strategy, 20 of them
/// re-miniscoped (same pool as `differential.rs`). Prenex inputs
/// exercise the degenerate roster where every TO variant shares the
/// PO's linear order.
#[test]
fn portfolio_prenexed_and_miniscoped() {
    for seed in 0..50u64 {
        let q = samples::random_qbf(seed.wrapping_mul(0x61c8_8647) ^ 0xabc, 7, 10);
        let expected = semantics::eval(&q);
        let strategy = Strategy::ALL[seed as usize % Strategy::ALL.len()];
        let flat = prenex(&q, strategy);
        check_portfolio(&format!("prenex({strategy}) seed {seed}"), &flat, Some(expected));
        if seed < 20 {
            let mini = miniscope(&flat).expect("prenex input").qbf;
            check_portfolio(&format!("miniscope seed {seed}"), &mini, Some(expected));
        }
    }
}

/// Structured generator instances (NCF, FPV, FIXED, PROB): too large
/// for the exponential evaluator, so the single-threaded solver (itself
/// differentially validated in `differential.rs`) is the reference.
#[test]
fn portfolio_generators() {
    for seed in 0..4u64 {
        let q = ncf(
            &NcfParams {
                dep: 3,
                var: 2,
                cls_ratio: 2,
                lpc: 3,
            },
            seed,
        );
        check_portfolio(&format!("ncf seed {seed}"), &q, None);
    }
    for seed in 0..3u64 {
        let q = fpv(
            &FpvParams {
                config_vars: 3,
                branches: 2,
                branch_depth: 2,
                block_vars: 2,
                clauses_per_branch: 8,
                lpc: 3,
            },
            seed,
        );
        check_portfolio(&format!("fpv seed {seed}"), &q, None);
    }
    for seed in 0..3u64 {
        let inst = fixed(
            &FixedParams {
                groups: 2,
                depth: 2,
                block_vars: 2,
                clauses_per_group: 6,
                lpc: 3,
            },
            seed,
        );
        check_portfolio(&format!("fixed(prenex) seed {seed}"), &inst.prenex, None);
        let mini = miniscope(&inst.prenex).expect("prenex input").qbf;
        check_portfolio(&format!("fixed(miniscoped) seed {seed}"), &mini, None);
    }
    for seed in 0..3u64 {
        let q = rand_qbf(&RandParams::three_block(4, 3, 4, 20, 3), seed);
        check_portfolio(&format!("prob seed {seed}"), &q, None);
    }
}
