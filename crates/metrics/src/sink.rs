//! Engine instrumentation vocabulary and its live recorder.
//!
//! The engines never read a clock: they only announce *what* is
//! happening ([`Phase`] boundaries) and *how big* things are
//! ([`EngineGauge`] samples). Both arrive as `SearchObserver` events of
//! `qbf-core` (`on_phase_start`, `on_phase_end`, `on_gauge`), whose
//! empty inline defaults make an unobserved solve compile to the plain
//! hot path. [`EngineMetrics`] is the live recorder: `qbf-core`
//! implements `SearchObserver` for it, so it attaches like any other
//! observer (alone, by `&mut`, or inside a `MultiObserver`) and turns
//! phase boundaries into durations by reading its own [`Clock`] — which
//! is how `ManualClock` determinism reaches engine timing without the
//! engine knowing about time at all.

use crate::clock::Clock;
use crate::hist::LogHistogram;

/// A timed region of the search. A phase never nests inside itself
/// (compaction runs inside database reduction), and start/end always
/// pair up within one search.
///
/// The first five phases belong to the search engine (`qbf-core`); the
/// last two are emitted by the expansion engine (`qbf-expand`) — one
/// engine never emits the other's phases, so the shared histogram space
/// stays disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Boolean/quantifier constraint propagation to fixpoint.
    Propagate,
    /// Clause learning from a conflicting clause.
    ConflictAnalysis,
    /// Cube learning from a solution / satisfied state.
    SolutionAnalysis,
    /// Learned-constraint database reduction.
    ReduceDb,
    /// Arena compaction.
    Compaction,
    /// One (possibly partial) SAT-oracle call of the expansion engine.
    SatSolve,
    /// One abstraction-refinement round of the expansion engine
    /// (candidate/counterexample extraction plus instantiation).
    Refine,
}

impl Phase {
    /// All phases, in render order.
    pub const ALL: [Phase; 7] = [
        Phase::Propagate,
        Phase::ConflictAnalysis,
        Phase::SolutionAnalysis,
        Phase::ReduceDb,
        Phase::Compaction,
        Phase::SatSolve,
        Phase::Refine,
    ];

    /// Stable snake_case name used in metric series.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Propagate => "propagate",
            Phase::ConflictAnalysis => "conflict_analysis",
            Phase::SolutionAnalysis => "solution_analysis",
            Phase::ReduceDb => "reduce_db",
            Phase::Compaction => "compaction",
            Phase::SatSolve => "sat_solve",
            Phase::Refine => "refine",
        }
    }

    /// Position in [`Self::ALL`] (declaration order).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// A resource level the engine samples at decision boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineGauge {
    /// Bytes held by the constraint arena.
    ArenaBytes,
    /// Learned constraints (clauses + cubes) currently in the database.
    LearnedConstraints,
    /// Assignment-trail depth.
    TrailDepth,
    /// Expansion-engine abstraction size: conjuncts across both dual
    /// abstractions (|A| + |B|), sampled once per refinement round.
    AbstractionConjuncts,
}

impl EngineGauge {
    /// All gauges, in render order.
    pub const ALL: [EngineGauge; 4] = [
        EngineGauge::ArenaBytes,
        EngineGauge::LearnedConstraints,
        EngineGauge::TrailDepth,
        EngineGauge::AbstractionConjuncts,
    ];

    /// Stable snake_case name used in metric series.
    pub fn name(self) -> &'static str {
        match self {
            EngineGauge::ArenaBytes => "arena_bytes",
            EngineGauge::LearnedConstraints => "learned_constraints",
            EngineGauge::TrailDepth => "trail_depth",
            EngineGauge::AbstractionConjuncts => "abstraction_conjuncts",
        }
    }

    /// Position in [`Self::ALL`] (declaration order).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// The live recorder: per-phase duration histograms (nanoseconds, from
/// its own [`Clock`]) and last/peak tracking per gauge.
#[derive(Debug)]
pub struct EngineMetrics<C: Clock> {
    clock: C,
    open: [u64; Phase::ALL.len()],
    durations: [LogHistogram; Phase::ALL.len()],
    last: [u64; EngineGauge::ALL.len()],
    peak: [u64; EngineGauge::ALL.len()],
}

impl<C: Clock> EngineMetrics<C> {
    /// A recorder timing against `clock`.
    pub fn new(clock: C) -> Self {
        EngineMetrics {
            clock,
            open: [0; Phase::ALL.len()],
            durations: Default::default(),
            last: [0; EngineGauge::ALL.len()],
            peak: [0; EngineGauge::ALL.len()],
        }
    }

    /// The engine enters `phase`.
    #[inline]
    pub fn phase_start(&mut self, phase: Phase) {
        self.open[phase.index()] = self.clock.now_ns();
    }

    /// The engine leaves `phase` (always pairs with the last start).
    #[inline]
    pub fn phase_end(&mut self, phase: Phase) {
        let now = self.clock.now_ns();
        let dur = now.saturating_sub(self.open[phase.index()]);
        self.durations[phase.index()].record(dur);
    }

    /// A resource gauge observed by the engine.
    #[inline]
    pub fn sample(&mut self, gauge: EngineGauge, value: u64) {
        let i = gauge.index();
        self.last[i] = value;
        self.peak[i] = self.peak[i].max(value);
    }

    /// Duration histogram (ns) for `phase`.
    pub fn phase_hist(&self, phase: Phase) -> &LogHistogram {
        &self.durations[phase.index()]
    }

    /// Most recent sample of `gauge`.
    pub fn gauge_last(&self, gauge: EngineGauge) -> u64 {
        self.last[gauge.index()]
    }

    /// Largest sample of `gauge` seen so far.
    pub fn gauge_peak(&self, gauge: EngineGauge) -> u64 {
        self.peak[gauge.index()]
    }

    /// One-line deterministic JSON snapshot of every phase and gauge,
    /// matching the registry snapshot dialect. Deterministic whenever
    /// the clock is (i.e. under `ManualClock`).
    pub fn snapshot_json(&self) -> String {
        let mut parts = Vec::new();
        for p in Phase::ALL {
            let h = self.phase_hist(p);
            parts.push(format!(
                "\"phase_{}_ns\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                p.name(),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99)
            ));
        }
        for g in EngineGauge::ALL {
            parts.push(format!(
                "\"gauge_{n}\":{},\"gauge_{n}_peak\":{}",
                self.gauge_last(g),
                self.gauge_peak(g),
                n = g.name()
            ));
        }
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn index_is_the_position_in_all() {
        assert!(Phase::ALL.iter().enumerate().all(|(i, p)| p.index() == i));
        assert!(EngineGauge::ALL
            .iter()
            .enumerate()
            .all(|(i, g)| g.index() == i));
    }

    #[test]
    fn phase_spans_record_clock_deltas() {
        let mut m = EngineMetrics::new(ManualClock::new(10));
        m.phase_start(Phase::Propagate); // read 0
        m.phase_end(Phase::Propagate); // read 10 → dur 10
        m.phase_start(Phase::Propagate); // read 20
        m.phase_end(Phase::Propagate); // read 30 → dur 10
        m.phase_start(Phase::ReduceDb); // read 40
        m.phase_end(Phase::ReduceDb); // read 50 → dur 10
        assert_eq!(m.phase_hist(Phase::Propagate).count(), 2);
        assert_eq!(m.phase_hist(Phase::Propagate).sum(), 20);
        assert_eq!(m.phase_hist(Phase::ReduceDb).count(), 1);
        assert_eq!(m.phase_hist(Phase::ConflictAnalysis).count(), 0);
    }

    #[test]
    fn gauges_track_last_and_peak() {
        let mut m = EngineMetrics::new(ManualClock::new(1));
        m.sample(EngineGauge::TrailDepth, 5);
        m.sample(EngineGauge::TrailDepth, 9);
        m.sample(EngineGauge::TrailDepth, 2);
        assert_eq!(m.gauge_last(EngineGauge::TrailDepth), 2);
        assert_eq!(m.gauge_peak(EngineGauge::TrailDepth), 9);
        assert_eq!(m.gauge_peak(EngineGauge::ArenaBytes), 0);
    }

    #[test]
    fn snapshot_is_deterministic_under_manual_clock() {
        let run = || {
            let mut m = EngineMetrics::new(ManualClock::new(3));
            for _ in 0..4 {
                m.phase_start(Phase::Propagate);
                m.phase_end(Phase::Propagate);
            }
            m.sample(EngineGauge::ArenaBytes, 1 << 20);
            m.snapshot_json()
        };
        assert_eq!(run(), run());
        assert!(run().contains("\"phase_propagate_ns\":{\"count\":4"));
        assert!(run().contains("\"gauge_arena_bytes\":1048576"));
    }
}
