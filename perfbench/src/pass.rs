//! What one pass over a workload measured, and the per-layer counters it
//! accumulated.

use qbf_core::metrics::{EngineMetrics, Phase, WallClock};
use qbf_core::solver::{Outcome, Solver, SolverConfig, Stats};
use qbf_core::Qbf;

use crate::trace::{Digest, Tracer};

/// Deterministic per-layer counts of one pass, plus the engine phase
/// times of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub parse_bytes: u64,
    pub miniscope_eliminated: u64,
    pub pre_subsumed: u64,
    pub pre_units: u64,
    pub pre_reduced: u64,
    /// Search counters summed over every solve (`arena_bytes_peak` is the
    /// maximum).
    pub stats: Stats,
    /// Engine phase time in ns: propagate, conflict analysis, solution
    /// analysis, reduce (database reduction plus compaction).
    pub phase_ns: [u64; 4],
    pub first_solve_assignments: u64,
    pub repeat_solve_assignments: u64,
    pub proof_bytes: u64,
    pub expand_rounds: u64,
    pub expand_sat_calls: u64,
    pub expand_sat_steps: u64,
}

#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time to take every operation once.
    pub batch_s: f64,
    /// Text → verdict, per verdict operation in canonical order.
    pub verdict_ms: Vec<f64>,
    /// Per write-path request (`serve-session` only).
    pub update_ms: Vec<f64>,
    pub ops: usize,
    pub decided: usize,
    /// Operations that failed during the pass (errors, `ok:false`,
    /// rejected certificates).
    pub failed: usize,
    /// Determinism digest: verdicts and `Stats` per instance, or the
    /// whole reply transcript.
    pub digest: Digest,
    /// Verdict per verdict operation, in canonical (unshuffled) order.
    pub values: Vec<Option<bool>>,
    pub layers: Layers,
}

/// `Solver::new` + `solve`, or under tracing `Solver::with_metrics` with
/// spans around build and search and the phase times collected.
pub fn solve(qbf: &Qbf, config: SolverConfig, tr: &mut Tracer, layers: &mut Layers) -> Outcome {
    if !tr.enabled() {
        return Solver::new(qbf, config).solve();
    }
    let mut metrics = EngineMetrics::new(WallClock::new());
    let open = tr.enter("solver.build");
    let solver = Solver::with_metrics(qbf, config, &mut metrics);
    tr.exit(open);
    let open = tr.enter("solver.solve");
    let out = solver.solve();
    tr.exit(open);
    let sum = |p: Phase| metrics.phase_hist(p).sum();
    layers.phase_ns[0] += sum(Phase::Propagate);
    layers.phase_ns[1] += sum(Phase::ConflictAnalysis);
    layers.phase_ns[2] += sum(Phase::SolutionAnalysis);
    layers.phase_ns[3] += sum(Phase::ReduceDb) + sum(Phase::Compaction);
    out
}

/// Per operation, its fastest time over `passes`: noise on a shared host
/// only ever adds time, so the minimum is the steadiest estimate of what
/// the operation costs.
pub fn fastest<'a>(passes: impl Iterator<Item = &'a Pass>, times: fn(&Pass) -> &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for p in passes {
        let t = times(p);
        if out.is_empty() {
            out = t.to_vec();
        } else {
            for (o, &x) in out.iter_mut().zip(t) {
                *o = o.min(x);
            }
        }
    }
    out
}
