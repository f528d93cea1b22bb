//! Search-trajectory fingerprint: pins the exact statistics and
//! certificates of the QDPLL engine over the differential pool, so a
//! representation-only change to the engine (a refactor, a data-layout
//! change) is checked to be exactly that.
//!
//! The pool is the one `tests/differential.rs` builds, with the same
//! generators and seeds: the hand-written samples, 150 random quantifier
//! forests, 50 prenexings under the rotating §V strategies, 20
//! miniscoped forms and the small NCF/FPV/FIXED/PROB instances. Every
//! instance is solved by QUBE(TO), QUBE(PO) and `SolverConfig::basic()`,
//! and FNV-1a digests are compared against constants:
//!
//! * `WATCH_DIGEST` folds `watcher_visits` and `blocker_hits`, the cost
//!   of the watched-literal propagator;
//! * `SEARCH_DIGEST` folds the verdict and every other `Stats::fields()`
//!   entry (decisions … proof counters), i.e. the search trajectory;
//! * `PROOF_DIGEST` folds the `qrp` certificate text of
//!   `Solver::with_proof` runs under TO and PO.
//!
//! `SEARCH_DIGEST` and `PROOF_DIGEST` also cover bench-scale PROB
//! instances run with `max_learned = 2`, which forget and compact on
//! every analysis cycle (`d` records and token remapping in the proofs).
//! `HOOKS_SEARCH_DIGEST` and `HOOKS_WATCH_DIGEST` pin the two entry points
//! the one-shot runs never reach: constraint import under a deterministic
//! sharing portfolio, and original clauses added to an incremental
//! session between solves. They split those runs' `Stats` the way the
//! one-shot digests do: the watch half folds `watcher_visits` and
//! `blocker_hits`, the search half the verdicts, the import/export
//! counts and every other field.
//!
//! A change that only reorganises the engine must leave all five
//! digests unchanged. The trajectory-exact part of the TO hot-path work —
//! the replacement search bounded by the watched prefix, the indexed
//! decision heaps and the trail walk of conflict/solution analysis — moved
//! none of them, and neither did sizing the compaction map by the live
//! constraints. Dropping the pinned unblock sentinels of cubes moved two:
//! `WATCH_DIGEST`, because the cube watcher lists lost those entries, and
//! the hooks digest, then one value folding every `Stats` field of the
//! sharing portfolio's workers (they import cubes) and of the incremental
//! runs.
//! `SEARCH_DIGEST` and `PROOF_DIGEST` held: no one-shot run of this pool
//! changed its trajectory. Keeping the literal that disabled a good as
//! its watcher's blocker moved only `HOOKS_WATCH_DIGEST`. Any other drift
//! is a behaviour change and needs its `Stats` delta shown.
//!
//! With `--features qbf-core/debug-counters` the same runs are also
//! shadow-verified against the eager counter discipline; the digests are
//! identical because the shadow never feeds a search decision.

use qbf_repro::core::portfolio::{self, PortfolioOptions};
use qbf_repro::core::proof::ProofLog;
use qbf_repro::core::solver::{IncrementalSolver, Solver, SolverConfig, Stats};
use qbf_repro::core::{samples, Lit, Qbf};
use qbf_repro::gen::{fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, RandParams};
use qbf_repro::models::{diameter_qbf, semaphore, DiameterForm};
use qbf_repro::prenex::portfolio::roster;
use qbf_repro::prenex::{miniscope, prenex, Strategy};

const WATCH_DIGEST: u64 = 0x778d_a5e8_55ec_0a74;
const SEARCH_DIGEST: u64 = 0x339c_6f01_f0ac_ccb7;
const PROOF_DIGEST: u64 = 0x7ccb_3a81_3861_bd9f;
const HOOKS_SEARCH_DIGEST: u64 = 0x65df_522b_a374_c738;
const HOOKS_WATCH_DIGEST: u64 = 0x9aa6_33b2_4643_2b78;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn field(&mut self, name: &str, value: u64) {
        self.bytes(name.as_bytes());
        self.bytes(&value.to_le_bytes());
    }
}

/// A search digest and a watch digest, fed together: watch fields
/// (`watcher_visits`, `blocker_hits`) go to the watch half, every other
/// field and the verdicts to the search half.
struct Digests {
    search: Fnv,
    watch: Fnv,
}

impl Digests {
    fn new() -> Self {
        Digests {
            search: Fnv::new(),
            watch: Fnv::new(),
        }
    }

    fn field(&mut self, name: &str, value: u64) {
        if is_watch_field(name) {
            self.watch.field(name, value);
        } else {
            self.search.field(name, value);
        }
    }

    fn stats(&mut self, stats: &Stats) {
        for (name, value) in stats.fields() {
            self.field(name, value);
        }
    }

    fn pair(&self) -> (u64, u64) {
        (self.search.0, self.watch.0)
    }
}

/// The differential pool, in the order `tests/differential.rs` visits it.
fn pool() -> Vec<Qbf> {
    let mut pool = vec![
        samples::paper_example(),
        samples::forall_exists_xor(),
        samples::exists_forall_xor(),
        samples::two_independent_games(),
        samples::sat_instance(),
        samples::unsat_instance(),
    ];
    for seed in 0..150u64 {
        pool.push(samples::random_qbf(
            seed.wrapping_mul(0x9e37_79b9) ^ 0xd1f,
            7,
            11,
        ));
    }
    for seed in 0..50u64 {
        let q = samples::random_qbf(seed.wrapping_mul(0x61c8_8647) ^ 0xabc, 7, 10);
        let flat = prenex(&q, Strategy::ALL[seed as usize % Strategy::ALL.len()]);
        let mini = (seed < 20).then(|| miniscope(&flat).expect("prenex input").qbf);
        pool.push(flat);
        pool.extend(mini);
    }
    for seed in 0..4u64 {
        let params = NcfParams {
            dep: 3,
            var: 2,
            cls_ratio: 2,
            lpc: 3,
        };
        pool.push(ncf(&params, seed));
    }
    for seed in 0..3u64 {
        let params = FpvParams {
            config_vars: 3,
            branches: 2,
            branch_depth: 2,
            block_vars: 2,
            clauses_per_branch: 8,
            lpc: 3,
        };
        pool.push(fpv(&params, seed));
    }
    for seed in 0..3u64 {
        let params = FixedParams {
            groups: 2,
            depth: 2,
            block_vars: 2,
            clauses_per_group: 6,
            lpc: 3,
        };
        let inst = fixed(&params, seed);
        let mini = miniscope(&inst.prenex).expect("prenex input").qbf;
        pool.push(inst.prenex);
        pool.push(mini);
    }
    for seed in 0..3u64 {
        pool.push(rand_qbf(&RandParams::three_block(4, 3, 4, 20, 3), seed));
    }
    pool
}

/// Bench-scale PROB instances that reach database reduction and
/// compaction under `max_learned = 2`.
fn reduction_pool() -> Vec<Qbf> {
    [
        RandParams::three_block(12, 9, 12, 110, 5).with_locality(3, 10),
        RandParams::three_block(16, 10, 16, 170, 5).with_locality(4, 10),
    ]
    .into_iter()
    .flat_map(|p| (0..4u64).map(move |seed| rand_qbf(&p, seed)))
    .collect()
}

/// The small structured instances at the end of the pool, with enough
/// search for sharing and incremental additions to matter.
fn generator_pool() -> Vec<Qbf> {
    let pool = pool();
    pool[pool.len() - 16..].to_vec()
}

fn configs() -> [SolverConfig; 3] {
    [
        SolverConfig::total_order(),
        SolverConfig::partial_order(),
        SolverConfig::basic(),
    ]
}

fn verdict_code(value: Option<bool>) -> u64 {
    match value {
        Some(true) => 1,
        Some(false) => 0,
        None => 2,
    }
}

fn is_watch_field(name: &str) -> bool {
    matches!(name, "watcher_visits" | "blocker_hits")
}

#[test]
fn search_and_watch_counters_are_pinned() {
    let pool = pool();
    assert!(pool.len() >= 200, "pool shrank to {}", pool.len());
    let reduction = reduction_pool();
    let mut digests = Digests::new();
    let reducing = |base: SolverConfig| SolverConfig {
        max_learned: 2,
        ..base
    };
    let runs = pool
        .iter()
        .flat_map(|qbf| configs().map(|config| (qbf, config)));
    let reduction_runs = reduction.iter().flat_map(|qbf| {
        [SolverConfig::total_order(), SolverConfig::partial_order()]
            .map(|config| (qbf, reducing(config)))
    });
    let mut compactions = 0;
    for (qbf, config) in runs.chain(reduction_runs) {
        let out = Solver::new(qbf, config.with_node_limit(2_000_000)).solve();
        compactions += out.stats.compactions;
        digests.field("value", verdict_code(out.value()));
        digests.stats(&out.stats);
    }
    assert!(compactions > 0, "the pool never compacted the arena");
    let (search, watch) = digests.pair();
    assert_eq!(
        (search, watch),
        (SEARCH_DIGEST, WATCH_DIGEST),
        "search/watch digests drifted: got (0x{search:016x}, 0x{watch:016x})"
    );
}

#[test]
fn certificates_are_pinned() {
    let paper = [SolverConfig::total_order(), SolverConfig::partial_order()];
    let pool = pool();
    let reduction = reduction_pool();
    let runs = pool
        .iter()
        .flat_map(|qbf| paper.clone().map(|config| (qbf, config)));
    let reduction_runs = reduction.iter().flat_map(|qbf| {
        paper.clone().map(|config| {
            (
                qbf,
                SolverConfig {
                    max_learned: 2,
                    ..config
                },
            )
        })
    });
    let mut digest = Fnv::new();
    for (qbf, config) in runs.chain(reduction_runs) {
        let mut log = ProofLog::new();
        let out = Solver::with_proof(qbf, config.with_node_limit(2_000_000), &mut log).solve();
        digest.field("value", verdict_code(out.value()));
        digest.bytes(log.as_text().as_bytes());
    }
    assert_eq!(
        digest.0, PROOF_DIGEST,
        "certificate digest drifted: got 0x{:016x}",
        digest.0
    );
}

#[test]
fn import_and_incremental_hooks_are_pinned() {
    let mut digests = Digests::new();
    let base = SolverConfig::partial_order().with_node_limit(2_000_000);
    let sharing = PortfolioOptions {
        threads: 1,
        share_len: 8,
        deterministic: true,
        epoch: 16,
        ..PortfolioOptions::default()
    };
    let mut imported = 0;
    for qbf in reduction_pool() {
        let out = portfolio::solve(&roster(&qbf, 1, true, &base), &sharing);
        digests.field("value", verdict_code(out.value));
        for worker in &out.workers {
            imported += worker.imported;
            digests.field("imported", worker.imported);
            digests.field("exported", worker.exported);
            digests.stats(&worker.stats);
        }
    }
    for qbf in generator_pool() {
        let mut session = IncrementalSolver::new(qbf.clone(), base.clone());
        let first = session.solve();
        digests.stats(&first.stats);
        session.push();
        // Strengthen a few original clauses by dropping their last
        // literal: the result is scope-compatible by construction.
        for clause in qbf.matrix().iter().take(3) {
            let lits = clause.lits();
            if lits.len() >= 2 {
                let shorter: Vec<Lit> = lits[..lits.len() - 1].to_vec();
                session
                    .add_clause(&shorter)
                    .expect("sub-clause of an original clause");
            }
        }
        let pushed = session.solve();
        digests.field("value", verdict_code(pushed.value()));
        digests.stats(&pushed.stats);
        session.pop().expect("one frame pushed");
        let popped = session.solve();
        digests.field("value", verdict_code(popped.value()));
        digests.stats(&popped.stats);
    }
    assert!(imported > 0, "no worker imported a shared constraint");
    let (search, watch) = digests.pair();
    assert_eq!(
        (search, watch),
        (HOOKS_SEARCH_DIGEST, HOOKS_WATCH_DIGEST),
        "import/incremental search/watch digests drifted: got (0x{search:016x}, 0x{watch:016x})"
    );
}

/// A QUBE(TO) good keeps ~220 mostly existential literals, so when a
/// watch on it fires it is nearly always already disabled by a false
/// existential. Its watcher keeps that literal as its blocker, and later
/// visits skip the good without reading the arena while it stays false.
/// On DIA `semaphore<2>@n2` (Eq. 16) that leaves 10 315 arena touches
/// (visits that miss the blocker); keeping the other watched literal as
/// the blocker instead gave 22 536.
#[test]
fn disabled_goods_keep_their_disabling_literal_as_blocker() {
    let probe = diameter_qbf(&semaphore(2), 2, DiameterForm::Prenex);
    let out = Solver::new(&probe.qbf, SolverConfig::total_order()).solve();
    assert_eq!(out.value(), Some(true), "semaphore<2> has diameter above 2");
    let touches = out.stats.watcher_visits - out.stats.blocker_hits;
    assert!(
        touches <= 15_000,
        "{touches} arena touches on TO semaphore<2>@n2 ({} visits, {} blocker hits)",
        out.stats.watcher_visits,
        out.stats.blocker_hits
    );
}
