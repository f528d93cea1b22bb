//! Search-trace observability: a zero-overhead-when-disabled event stream
//! threaded through both solving procedures.
//!
//! The engines ([`crate::solver::Solver`] and [`crate::recursive`]) are
//! generic over a [`SearchObserver`]; every interesting transition of the
//! search — decisions with their heuristic rank, propagations with their
//! reason kind, conflicts, solutions, learned constraints with size and
//! asserting level, backjumps, chronological fallbacks, forgetting and
//! score decay — is reported through the trait. The default
//! [`NoopObserver`] has empty inlineable methods, so the release hot path
//! compiles to exactly the un-instrumented code (this is pinned by a
//! determinism test — identical [`crate::solver::Stats`] with and without
//! an observer — and a timing bench in `crates/bench/benches/paper.rs`).
//!
//! The same channel carries the engines' timing instrumentation: phase
//! boundaries and resource-gauge samples are events too, so a new timed
//! region is one [`Phase`] variant plus a start/end pair of calls.
//!
//! Five observers ship with the crate:
//!
//! * [`TreeTrace`] — a Fig. 2-style indented search-tree renderer;
//! * [`JsonlTrace`] — one hand-rolled JSON object per event (hermetic: no
//!   serde, byte-deterministic across runs);
//! * [`Profiler`] — per-prefix-level decision histograms, learned-size
//!   histograms, propagation chain lengths, watcher-visit distributions
//!   and peak trail depth;
//! * [`Progress`] — periodic one-line status reports on stderr;
//! * [`EngineMetrics`] — per-phase duration histograms read from its own
//!   [`Clock`] plus last/peak gauge values (defined in `qbf_metrics`).
//!
//! Observers compose with [`MultiObserver`], and `&mut O` is itself an
//! observer, so a caller keeps ownership across a solve:
//!
//! ```
//! use qbf_core::observe::{Profiler, SearchObserver};
//! use qbf_core::{samples, solver::{Solver, SolverConfig}};
//!
//! let qbf = samples::paper_example();
//! let mut profiler = Profiler::new(&qbf);
//! let out = Solver::with_observer(&qbf, SolverConfig::partial_order(), &mut profiler)
//!     .solve();
//! assert_eq!(profiler.decisions(), out.stats.decisions);
//! ```

use std::fmt;

use crate::metrics::{Clock, EngineGauge, EngineMetrics, Phase};
use crate::prefix::Prefix;
use crate::qbf::Qbf;
use crate::var::Lit;

/// Why a literal was assigned by propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationKind {
    /// Lemma 5 unit from a clause (original or learned nogood).
    UnitClause,
    /// Dual unit from a learned cube (the ∀-player falsifies it).
    UnitCube,
    /// Monotone (pure) literal fixing.
    Pure,
}

impl PropagationKind {
    /// Short lowercase tag used by the textual renderers.
    pub fn tag(self) -> &'static str {
        match self {
            PropagationKind::UnitClause => "unit",
            PropagationKind::UnitCube => "cube-unit",
            PropagationKind::Pure => "pure",
        }
    }
}

/// What kind of constraint was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnedKind {
    /// A nogood (clause) learned from a conflict.
    Clause,
    /// A good (cube) learned from a solution.
    Cube,
}

impl LearnedKind {
    /// Short lowercase tag used by the textual renderers.
    pub fn tag(self) -> &'static str {
        match self {
            LearnedKind::Clause => "clause",
            LearnedKind::Cube => "cube",
        }
    }
}

/// Which kind of watcher-list entry a propagation visit examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchSide {
    /// A movable watch of a clause (original or learned nogood).
    ClauseMovable,
    /// A pinned `≺`-unblock sentinel of a clause.
    ClausePinned,
    /// A movable watch of a learned good (cubes have no pinned entries).
    Cube,
}

impl WatchSide {
    /// Every side, in the order the profile reports them.
    pub const ALL: [WatchSide; 3] = [
        WatchSide::ClauseMovable,
        WatchSide::ClausePinned,
        WatchSide::Cube,
    ];

    /// Short lowercase tag used by the textual renderers.
    pub fn tag(self) -> &'static str {
        match self {
            WatchSide::ClauseMovable => "clause-movable",
            WatchSide::ClausePinned => "clause-pinned",
            WatchSide::Cube => "cube",
        }
    }
}

/// Receiver for search events.
///
/// Every method has an empty default body; implementors override the
/// events they care about. All arguments are cheap scalars so that the
/// no-op case (the [`NoopObserver`] default of the solvers) inlines away
/// entirely.
///
/// Event vocabulary (emitted by both engines unless noted):
///
/// * [`on_decision`](SearchObserver::on_decision) — a branching literal was
///   assigned; `score` is the branching heuristic's rank of the literal
///   (0 for the recursive solver, which branches positionally);
/// * [`on_propagation`](SearchObserver::on_propagation) — a literal was
///   assigned by the given [`PropagationKind`];
/// * [`on_conflict`](SearchObserver::on_conflict) /
///   [`on_solution`](SearchObserver::on_solution) — a leaf of the search
///   tree was reached;
/// * [`on_learned`](SearchObserver::on_learned) — iterative solver only:
///   a constraint was learned; `asserting_level` is the second-highest
///   decision level among its assigned literals (the level the constraint
///   would assert at after backjumping, 0 when it has fewer than two
///   levels);
/// * [`on_backjump`](SearchObserver::on_backjump) /
///   [`on_chrono_backtrack`](SearchObserver::on_chrono_backtrack) —
///   iterative solver only: the decision stack was unwound non-chronologically
///   (guided by a learned constraint) or by the chronological Q-DLL
///   fallback;
/// * [`on_forget`](SearchObserver::on_forget) /
///   [`on_decay`](SearchObserver::on_decay) — iterative solver only:
///   database reduction dropped `dropped` learned constraints / heuristic
///   scores were halved;
/// * [`on_watcher_visit`](SearchObserver::on_watcher_visit) — iterative
///   solver only: one watcher-list entry of the given [`WatchSide`] was
///   examined (the propagation cost measure; extremely hot, keep
///   implementations trivial);
/// * [`on_blocker_hit`](SearchObserver::on_blocker_hit) — iterative solver
///   only: a watcher visit was resolved by its cached blocker literal
///   without touching the constraint arena (fired in addition to
///   `on_watcher_visit`, with the same side; as hot as it);
/// * [`on_compaction`](SearchObserver::on_compaction) — iterative solver
///   only: database reduction physically compacted the constraint arenas,
///   reclaiming `reclaimed_bytes`;
/// * [`on_phase_start`](SearchObserver::on_phase_start) /
///   [`on_phase_end`](SearchObserver::on_phase_end) — iterative solver
///   and expansion engine: the engine entered / left a timed [`Phase`];
/// * [`on_gauge`](SearchObserver::on_gauge) — iterative solver and
///   expansion engine: a resource level ([`EngineGauge`]) was sampled, at
///   decision boundaries (search) or once per refinement round
///   (expansion).
pub trait SearchObserver: fmt::Debug {
    /// A branching decision `lit` was made, opening decision level `level`.
    #[inline]
    fn on_decision(&mut self, lit: Lit, level: u32, trail_depth: usize, flipped: bool, score: f64) {
        let _ = (lit, level, trail_depth, flipped, score);
    }

    /// `lit` was assigned by propagation at decision level `level`.
    #[inline]
    fn on_propagation(&mut self, lit: Lit, level: u32, trail_depth: usize, kind: PropagationKind) {
        let _ = (lit, level, trail_depth, kind);
    }

    /// A conflict (falsified clause / contradictory leaf) was reached.
    #[inline]
    fn on_conflict(&mut self, level: u32, trail_depth: usize) {
        let _ = (level, trail_depth);
    }

    /// A solution (satisfied matrix / validated cube) was reached.
    #[inline]
    fn on_solution(&mut self, level: u32, trail_depth: usize) {
        let _ = (level, trail_depth);
    }

    /// A constraint of `size` literals was learned.
    #[inline]
    fn on_learned(&mut self, kind: LearnedKind, size: usize, asserting_level: u32) {
        let _ = (kind, size, asserting_level);
    }

    /// One level (`from → to`, `to = from - 1`) was popped
    /// non-chronologically during constraint-guided unwinding. Fired once
    /// per skipped level, so counting these events reproduces
    /// `Stats::backjumps` exactly.
    #[inline]
    fn on_backjump(&mut self, from: u32, to: u32) {
        let _ = (from, to);
    }

    /// The chronological fallback unwound `from → to` (flipping a
    /// decision, or `to = 0` when it exhausted the stack and decided the
    /// formula). Fired exactly once per fallback, matching
    /// `Stats::chrono_backtracks`.
    #[inline]
    fn on_chrono_backtrack(&mut self, from: u32, to: u32) {
        let _ = (from, to);
    }

    /// Database reduction dropped `dropped` learned constraints.
    #[inline]
    fn on_forget(&mut self, dropped: usize) {
        let _ = dropped;
    }

    /// Heuristic scores were decayed (halved).
    #[inline]
    fn on_decay(&mut self) {}

    /// One watcher-list entry of `side` was visited during propagation.
    #[inline]
    fn on_watcher_visit(&mut self, side: WatchSide) {
        let _ = side;
    }

    /// A watcher visit of `side` was satisfied by its cached blocker
    /// literal.
    #[inline]
    fn on_blocker_hit(&mut self, side: WatchSide) {
        let _ = side;
    }

    /// The constraint arenas were compacted, reclaiming `reclaimed_bytes`.
    #[inline]
    fn on_compaction(&mut self, reclaimed_bytes: usize) {
        let _ = reclaimed_bytes;
    }

    /// The engine entered `phase`.
    #[inline]
    fn on_phase_start(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// The engine left `phase` (always pairs with the last start).
    #[inline]
    fn on_phase_end(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// The resource level `gauge` currently stands at `value`.
    #[inline]
    fn on_gauge(&mut self, gauge: EngineGauge, value: u64) {
        let _ = (gauge, value);
    }
}

/// The do-nothing observer: the solvers' default type parameter. All its
/// methods are the trait's empty inlineable defaults, so an un-observed
/// solve compiles to the exact pre-observability hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {}

/// Fan-out to several observers (used by the `qbfsolve` CLI to combine
/// `--trace`, `--trace-json`, `--profile`, `--progress` and `--metrics`).
#[derive(Debug, Default)]
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn SearchObserver>,
}

impl<'a> MultiObserver<'a> {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        MultiObserver::default()
    }

    /// Adds an observer to the fan-out.
    pub fn push(&mut self, obs: &'a mut dyn SearchObserver) {
        self.observers.push(obs);
    }

    /// Whether no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

/// Implements every listed event for the two forwarding observers, so a
/// new event is one trait method plus one line here.
macro_rules! forward_events {
    ($($event:ident($($arg:ident: $ty:ty),*);)*) => {
        /// A mutable reference forwards, so callers can keep ownership of
        /// an observer across `Solver::with_observer(..).solve()`.
        impl<T: SearchObserver + ?Sized> SearchObserver for &mut T {
            $(
                #[inline]
                fn $event(&mut self, $($arg: $ty),*) {
                    (**self).$event($($arg),*);
                }
            )*
        }

        /// Every event reaches every observer, in push order.
        impl SearchObserver for MultiObserver<'_> {
            $(
                fn $event(&mut self, $($arg: $ty),*) {
                    for obs in self.observers.iter_mut() {
                        obs.$event($($arg),*);
                    }
                }
            )*
        }
    };
}

forward_events! {
    on_decision(lit: Lit, level: u32, trail_depth: usize, flipped: bool, score: f64);
    on_propagation(lit: Lit, level: u32, trail_depth: usize, kind: PropagationKind);
    on_conflict(level: u32, trail_depth: usize);
    on_solution(level: u32, trail_depth: usize);
    on_learned(kind: LearnedKind, size: usize, asserting_level: u32);
    on_backjump(from: u32, to: u32);
    on_chrono_backtrack(from: u32, to: u32);
    on_forget(dropped: usize);
    on_decay();
    on_watcher_visit(side: WatchSide);
    on_blocker_hit(side: WatchSide);
    on_compaction(reclaimed_bytes: usize);
    on_phase_start(phase: Phase);
    on_phase_end(phase: Phase);
    on_gauge(gauge: EngineGauge, value: u64);
}

// ----------------------------------------------------------------------
// TreeTrace
// ----------------------------------------------------------------------

/// Renders the explored search tree as indented text in the style of the
/// paper's Fig. 2: one line per assignment, indented by decision level,
/// with `CONFLICT` / `SOLUTION` leaf markers and backjump annotations.
///
/// Attached to the recursive Q-DLL on the running example it reproduces
/// the Fig. 2 trace shape (see the golden test in this module); attached
/// to the iterative solver it shows the trail structure of the QDPLL
/// search, flips and backjumps included.
#[derive(Debug, Default)]
pub struct TreeTrace {
    out: String,
}

impl TreeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        TreeTrace::default()
    }

    fn line(&mut self, indent: u32, text: &str) {
        for _ in 0..indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// The rendered trace so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the observer, returning the rendered trace.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl SearchObserver for TreeTrace {
    fn on_decision(&mut self, lit: Lit, level: u32, _trail_depth: usize, flipped: bool, _score: f64) {
        let tag = if flipped { "flip" } else { "branch" };
        self.line(level.saturating_sub(1), &format!("{lit} ({tag})"));
    }
    fn on_propagation(&mut self, lit: Lit, level: u32, _trail_depth: usize, kind: PropagationKind) {
        self.line(level, &format!("{lit} ({})", kind.tag()));
    }
    fn on_conflict(&mut self, level: u32, _trail_depth: usize) {
        self.line(level, "CONFLICT");
    }
    fn on_solution(&mut self, level: u32, _trail_depth: usize) {
        self.line(level, "SOLUTION");
    }
    fn on_learned(&mut self, kind: LearnedKind, size: usize, asserting_level: u32) {
        self.line(0, &format!("* learn {}[{size}] @{asserting_level}", kind.tag()));
    }
    fn on_backjump(&mut self, from: u32, to: u32) {
        self.line(to, &format!("<- backjump {from}->{to}"));
    }
    fn on_chrono_backtrack(&mut self, from: u32, to: u32) {
        self.line(to.saturating_sub(1), &format!("<- chrono {from}->{to}"));
    }
}

// ----------------------------------------------------------------------
// JsonlTrace
// ----------------------------------------------------------------------

/// Serializes every event as one JSON object per line (JSONL).
///
/// The JSON is hand-rolled (the workspace is hermetic; no serde) and
/// **byte-deterministic**: field order is fixed, numbers are rendered with
/// Rust's shortest-roundtrip formatting, and no timestamps are recorded,
/// so two runs of the same deterministic solve produce identical bytes.
///
/// Schema, one of (by `"e"`):
///
/// ```json
/// {"e":"decision","lit":-3,"level":2,"trail":5,"flipped":false,"score":4.5}
/// {"e":"propagation","lit":7,"level":2,"trail":6,"kind":"unit"}
/// {"e":"conflict","level":2,"trail":6}
/// {"e":"solution","level":3,"trail":7}
/// {"e":"learned","kind":"clause","size":2,"asserting_level":1}
/// {"e":"backjump","from":4,"to":1}
/// {"e":"chrono","from":4,"to":4}
/// {"e":"forget","dropped":12}
/// {"e":"decay"}
/// ```
///
/// Watcher visits are far too hot for one-line-per-event serialization;
/// they are counted and emitted as a single trailing
/// `{"e":"watcher_visits","count":N}` record by [`JsonlTrace::finish`].
#[derive(Debug, Default)]
pub struct JsonlTrace {
    buf: String,
    watcher_visits: u64,
}

impl JsonlTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        JsonlTrace::default()
    }

    /// The serialized events so far (without the trailing watcher-visit
    /// summary; see [`JsonlTrace::finish`]).
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Appends the watcher-visit summary record and returns the full
    /// JSONL document.
    pub fn finish(mut self) -> String {
        self.buf.push_str(&format!(
            "{{\"e\":\"watcher_visits\",\"count\":{}}}\n",
            self.watcher_visits
        ));
        self.buf
    }
}

impl SearchObserver for JsonlTrace {
    fn on_decision(&mut self, lit: Lit, level: u32, trail_depth: usize, flipped: bool, score: f64) {
        self.buf.push_str(&format!(
            "{{\"e\":\"decision\",\"lit\":{},\"level\":{level},\"trail\":{trail_depth},\"flipped\":{flipped},\"score\":{score}}}\n",
            lit.to_dimacs()
        ));
    }
    fn on_propagation(&mut self, lit: Lit, level: u32, trail_depth: usize, kind: PropagationKind) {
        self.buf.push_str(&format!(
            "{{\"e\":\"propagation\",\"lit\":{},\"level\":{level},\"trail\":{trail_depth},\"kind\":\"{}\"}}\n",
            lit.to_dimacs(),
            kind.tag()
        ));
    }
    fn on_conflict(&mut self, level: u32, trail_depth: usize) {
        self.buf.push_str(&format!(
            "{{\"e\":\"conflict\",\"level\":{level},\"trail\":{trail_depth}}}\n"
        ));
    }
    fn on_solution(&mut self, level: u32, trail_depth: usize) {
        self.buf.push_str(&format!(
            "{{\"e\":\"solution\",\"level\":{level},\"trail\":{trail_depth}}}\n"
        ));
    }
    fn on_learned(&mut self, kind: LearnedKind, size: usize, asserting_level: u32) {
        self.buf.push_str(&format!(
            "{{\"e\":\"learned\",\"kind\":\"{}\",\"size\":{size},\"asserting_level\":{asserting_level}}}\n",
            kind.tag()
        ));
    }
    fn on_backjump(&mut self, from: u32, to: u32) {
        self.buf
            .push_str(&format!("{{\"e\":\"backjump\",\"from\":{from},\"to\":{to}}}\n"));
    }
    fn on_chrono_backtrack(&mut self, from: u32, to: u32) {
        self.buf
            .push_str(&format!("{{\"e\":\"chrono\",\"from\":{from},\"to\":{to}}}\n"));
    }
    fn on_forget(&mut self, dropped: usize) {
        self.buf
            .push_str(&format!("{{\"e\":\"forget\",\"dropped\":{dropped}}}\n"));
    }
    fn on_decay(&mut self) {
        self.buf.push_str("{\"e\":\"decay\"}\n");
    }
    fn on_watcher_visit(&mut self, _side: WatchSide) {
        self.watcher_visits += 1;
    }
}

// ----------------------------------------------------------------------
// Profiler
// ----------------------------------------------------------------------

/// A small fixed-shape histogram: exact buckets `0..cap`, one overflow
/// bucket, plus count / sum / max.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with exact buckets for values `< cap`.
    pub fn new(cap: usize) -> Self {
        Histogram {
            buckets: vec![0; cap],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    pub fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Renders `value:count` pairs for the non-empty buckets, plus the
    /// overflow bucket as `>=cap:count`.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| format!("{v}:{c}"))
            .collect();
        if self.overflow > 0 {
            parts.push(format!(">={}:{}", self.buckets.len(), self.overflow));
        }
        if parts.is_empty() {
            "(empty)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Aggregates where the search spends its work: decision counts per
/// prefix level, learned-constraint size histograms, propagation chain
/// lengths, watcher visits per propagation, and peak trail depth.
///
/// The histogram totals are cross-checked against the corresponding
/// [`crate::solver::Stats`] counters by the test suite, so the profiler
/// and the engine cannot silently drift apart.
#[derive(Debug)]
pub struct Profiler {
    /// Prefix level per variable (0 for unbound), captured at creation.
    var_level: Vec<u32>,
    /// Decisions per prefix level of the decided variable.
    decisions_per_level: Vec<u64>,
    flipped_decisions: u64,
    unit_propagations: u64,
    cube_propagations: u64,
    pure_propagations: u64,
    conflicts: u64,
    solutions: u64,
    backjumps: u64,
    chrono_backtracks: u64,
    forgotten: u64,
    decays: u64,
    /// Watcher visits and blocker hits, indexed by `WatchSide as usize`.
    watcher_visits: [u64; 3],
    blocker_hits: [u64; 3],
    compactions: u64,
    bytes_reclaimed: u64,
    learned_clause_sizes: Histogram,
    learned_cube_sizes: Histogram,
    chain_lengths: Histogram,
    visits_per_propagation: Histogram,
    current_chain: u64,
    visits_since_propagation: u64,
    peak_trail_depth: usize,
}

impl Profiler {
    /// Prepares a profiler for instances of `qbf`'s shape.
    pub fn new(qbf: &Qbf) -> Self {
        Profiler::for_prefix(qbf.prefix())
    }

    /// Prepares a profiler from a prefix alone.
    pub fn for_prefix(prefix: &Prefix) -> Self {
        let var_level: Vec<u32> = (0..prefix.num_vars())
            .map(|i| prefix.level(crate::var::Var::new(i)).unwrap_or(0))
            .collect();
        let levels = prefix.prefix_level() as usize + 1;
        Profiler {
            var_level,
            decisions_per_level: vec![0; levels.max(1)],
            flipped_decisions: 0,
            unit_propagations: 0,
            cube_propagations: 0,
            pure_propagations: 0,
            conflicts: 0,
            solutions: 0,
            backjumps: 0,
            chrono_backtracks: 0,
            forgotten: 0,
            decays: 0,
            watcher_visits: [0; 3],
            blocker_hits: [0; 3],
            compactions: 0,
            bytes_reclaimed: 0,
            learned_clause_sizes: Histogram::new(32),
            learned_cube_sizes: Histogram::new(32),
            chain_lengths: Histogram::new(32),
            visits_per_propagation: Histogram::new(32),
            current_chain: 0,
            visits_since_propagation: 0,
            peak_trail_depth: 0,
        }
    }

    fn close_chain(&mut self) {
        if self.current_chain > 0 {
            let c = self.current_chain;
            self.chain_lengths.add(c);
            self.current_chain = 0;
        }
    }

    /// Total decisions observed.
    pub fn decisions(&self) -> u64 {
        self.decisions_per_level.iter().sum()
    }

    /// Unit propagations observed (clause + cube units; excludes pures).
    pub fn propagations(&self) -> u64 {
        self.unit_propagations + self.cube_propagations
    }

    /// Pure-literal fixings observed.
    pub fn pures(&self) -> u64 {
        self.pure_propagations
    }

    /// Conflicts observed.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Solutions observed.
    pub fn solutions(&self) -> u64 {
        self.solutions
    }

    /// Learned nogoods observed.
    pub fn learned_clauses(&self) -> u64 {
        self.learned_clause_sizes.count()
    }

    /// Learned goods observed.
    pub fn learned_cubes(&self) -> u64 {
        self.learned_cube_sizes.count()
    }

    /// Non-chronological unwind events observed. One engine-level
    /// `Stats::backjumps` increment corresponds to one popped level, while
    /// this counts unwind *events* `from → to`; compare sums of `from-to`.
    pub fn backjumps(&self) -> u64 {
        self.backjumps
    }

    /// Chronological fallback flips observed.
    pub fn chrono_backtracks(&self) -> u64 {
        self.chrono_backtracks
    }

    /// Learned constraints dropped by database reduction.
    pub fn forgotten(&self) -> u64 {
        self.forgotten
    }

    /// Watcher-list entries visited.
    pub fn watcher_visits(&self) -> u64 {
        self.watcher_visits.iter().sum()
    }

    /// Watcher visits resolved by the cached blocker literal.
    pub fn blocker_hits(&self) -> u64 {
        self.blocker_hits.iter().sum()
    }

    /// Watcher-list entries of `side` visited.
    pub fn side_visits(&self, side: WatchSide) -> u64 {
        self.watcher_visits[side as usize]
    }

    /// Visits of `side` resolved by the cached blocker literal.
    pub fn side_blocker_hits(&self, side: WatchSide) -> u64 {
        self.blocker_hits[side as usize]
    }

    /// Arena compaction passes observed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Arena bytes reclaimed by compaction.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_reclaimed
    }

    /// Deepest trail observed.
    pub fn peak_trail_depth(&self) -> usize {
        self.peak_trail_depth
    }

    /// Decision counts indexed by prefix level of the decided variable.
    pub fn decisions_per_level(&self) -> &[u64] {
        &self.decisions_per_level
    }

    /// Histogram of learned nogood sizes.
    pub fn learned_clause_sizes(&self) -> &Histogram {
        &self.learned_clause_sizes
    }

    /// Histogram of learned good sizes.
    pub fn learned_cube_sizes(&self) -> &Histogram {
        &self.learned_cube_sizes
    }

    /// Histogram of propagation chain lengths (consecutive propagations
    /// between decisions/leaves).
    pub fn chain_lengths(&self) -> &Histogram {
        &self.chain_lengths
    }

    /// Histogram of watcher visits attributable to each propagation.
    pub fn visits_per_propagation(&self) -> &Histogram {
        &self.visits_per_propagation
    }

    /// Renders the full profile as indented plain text.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str("search profile\n");
        s.push_str(&format!(
            "  decisions            {} ({} flips)\n",
            self.decisions(),
            self.flipped_decisions
        ));
        s.push_str("  decisions/prefix-level ");
        let parts: Vec<String> = self
            .decisions_per_level
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(l, &c)| format!("{l}:{c}"))
            .collect();
        s.push_str(if parts.is_empty() { "(none)" } else { "" });
        s.push_str(&parts.join(" "));
        s.push('\n');
        s.push_str(&format!(
            "  propagations         {} clause-unit, {} cube-unit, {} pure\n",
            self.unit_propagations, self.cube_propagations, self.pure_propagations
        ));
        s.push_str(&format!(
            "  chain lengths        mean {:.2}, max {} | {}\n",
            self.chain_lengths.mean(),
            self.chain_lengths.max(),
            self.chain_lengths.render()
        ));
        let share = |hits: u64, visits: u64| {
            if visits == 0 {
                0.0
            } else {
                100.0 * hits as f64 / visits as f64
            }
        };
        s.push_str(&format!(
            "  watcher visits       {} total, {:.2}/propagation (max {})\n",
            self.watcher_visits(),
            self.visits_per_propagation.mean(),
            self.visits_per_propagation.max()
        ));
        s.push_str(&format!(
            "  blocker hits         {} ({:.1}% of visits)\n",
            self.blocker_hits(),
            share(self.blocker_hits(), self.watcher_visits())
        ));
        for side in WatchSide::ALL {
            let (visits, hits) = (self.side_visits(side), self.side_blocker_hits(side));
            s.push_str(&format!(
                "    {:<18} {visits} visits, {:.1}% blocker hits\n",
                side.tag(),
                share(hits, visits)
            ));
        }
        s.push_str(&format!(
            "  compactions          {} ({} bytes reclaimed)\n",
            self.compactions, self.bytes_reclaimed
        ));
        s.push_str(&format!(
            "  conflicts/solutions  {} / {}\n",
            self.conflicts, self.solutions
        ));
        s.push_str(&format!(
            "  learned clauses      {} | sizes mean {:.2} max {} | {}\n",
            self.learned_clauses(),
            self.learned_clause_sizes.mean(),
            self.learned_clause_sizes.max(),
            self.learned_clause_sizes.render()
        ));
        s.push_str(&format!(
            "  learned cubes        {} | sizes mean {:.2} max {} | {}\n",
            self.learned_cubes(),
            self.learned_cube_sizes.mean(),
            self.learned_cube_sizes.max(),
            self.learned_cube_sizes.render()
        ));
        s.push_str(&format!(
            "  backjumps/chrono     {} / {}\n",
            self.backjumps, self.chrono_backtracks
        ));
        s.push_str(&format!(
            "  forgotten/decays     {} / {}\n",
            self.forgotten, self.decays
        ));
        s.push_str(&format!(
            "  peak trail depth     {}\n",
            self.peak_trail_depth
        ));
        s
    }
}

impl SearchObserver for Profiler {
    fn on_decision(&mut self, lit: Lit, _level: u32, trail_depth: usize, flipped: bool, _score: f64) {
        self.close_chain();
        let l = self
            .var_level
            .get(lit.var().index())
            .copied()
            .unwrap_or(0) as usize;
        if l >= self.decisions_per_level.len() {
            self.decisions_per_level.resize(l + 1, 0);
        }
        self.decisions_per_level[l] += 1;
        if flipped {
            self.flipped_decisions += 1;
        }
        self.peak_trail_depth = self.peak_trail_depth.max(trail_depth);
    }
    fn on_propagation(&mut self, _lit: Lit, _level: u32, trail_depth: usize, kind: PropagationKind) {
        match kind {
            PropagationKind::UnitClause => self.unit_propagations += 1,
            PropagationKind::UnitCube => self.cube_propagations += 1,
            PropagationKind::Pure => self.pure_propagations += 1,
        }
        self.current_chain += 1;
        let v = self.visits_since_propagation;
        self.visits_per_propagation.add(v);
        self.visits_since_propagation = 0;
        self.peak_trail_depth = self.peak_trail_depth.max(trail_depth);
    }
    fn on_conflict(&mut self, _level: u32, trail_depth: usize) {
        self.close_chain();
        self.conflicts += 1;
        self.peak_trail_depth = self.peak_trail_depth.max(trail_depth);
    }
    fn on_solution(&mut self, _level: u32, trail_depth: usize) {
        self.close_chain();
        self.solutions += 1;
        self.peak_trail_depth = self.peak_trail_depth.max(trail_depth);
    }
    fn on_learned(&mut self, kind: LearnedKind, size: usize, _asserting_level: u32) {
        match kind {
            LearnedKind::Clause => self.learned_clause_sizes.add(size as u64),
            LearnedKind::Cube => self.learned_cube_sizes.add(size as u64),
        }
    }
    fn on_backjump(&mut self, _from: u32, _to: u32) {
        self.backjumps += 1;
    }
    fn on_chrono_backtrack(&mut self, _from: u32, _to: u32) {
        self.chrono_backtracks += 1;
    }
    fn on_forget(&mut self, dropped: usize) {
        self.forgotten += dropped as u64;
    }
    fn on_decay(&mut self) {
        self.decays += 1;
    }
    fn on_watcher_visit(&mut self, side: WatchSide) {
        self.watcher_visits[side as usize] += 1;
        self.visits_since_propagation += 1;
    }
    fn on_blocker_hit(&mut self, side: WatchSide) {
        self.blocker_hits[side as usize] += 1;
    }
    fn on_compaction(&mut self, reclaimed_bytes: usize) {
        self.compactions += 1;
        self.bytes_reclaimed += reclaimed_bytes as u64;
    }
}

// ----------------------------------------------------------------------
// Progress
// ----------------------------------------------------------------------

/// Where [`Progress`] sends its status lines.
#[derive(Debug)]
pub enum ProgressSink {
    /// Print each line to stderr as it happens (the CLI default).
    Stderr,
    /// Collect the lines in memory for the caller to drain — how
    /// `qbfserve` routes progress into its metrics/snapshot stream
    /// instead of polluting the service's stderr.
    Buffer(Vec<String>),
}

/// Emits a one-line status report every `interval` leaves (conflicts +
/// solutions), QUBE/MiniSat style, to a configurable [`ProgressSink`].
#[derive(Debug)]
pub struct Progress {
    interval: u64,
    sink: ProgressSink,
    leaves: u64,
    decisions: u64,
    propagations: u64,
    learned: u64,
    level: u32,
    trail: usize,
}

impl Progress {
    /// Reports every `interval` conflicts+solutions to stderr
    /// (`interval == 0` reports nothing).
    pub fn new(interval: u64) -> Self {
        Progress::with_sink(interval, ProgressSink::Stderr)
    }

    /// Buffering variant of [`Progress::new`]: lines accumulate in
    /// memory until [`Progress::take_lines`] drains them.
    pub fn buffered(interval: u64) -> Self {
        Progress::with_sink(interval, ProgressSink::Buffer(Vec::new()))
    }

    /// Reports every `interval` conflicts+solutions into `sink`.
    pub fn with_sink(interval: u64, sink: ProgressSink) -> Self {
        Progress {
            interval,
            sink,
            leaves: 0,
            decisions: 0,
            propagations: 0,
            learned: 0,
            level: 0,
            trail: 0,
        }
    }

    /// Drains the buffered status lines (empty for a stderr sink, whose
    /// lines were already printed).
    pub fn take_lines(&mut self) -> Vec<String> {
        match &mut self.sink {
            ProgressSink::Stderr => Vec::new(),
            ProgressSink::Buffer(lines) => std::mem::take(lines),
        }
    }

    fn leaf(&mut self, level: u32, trail: usize) {
        self.leaves += 1;
        self.level = level;
        self.trail = trail;
        if self.interval > 0 && self.leaves.is_multiple_of(self.interval) {
            let line = format!(
                "c progress: {} leaves | {} decisions | {} propagations | {} learned | level {} | trail {}",
                self.leaves, self.decisions, self.propagations, self.learned, self.level, self.trail
            );
            match &mut self.sink {
                ProgressSink::Stderr => eprintln!("{line}"),
                ProgressSink::Buffer(lines) => lines.push(line),
            }
        }
    }
}

impl SearchObserver for Progress {
    fn on_decision(&mut self, _lit: Lit, level: u32, trail_depth: usize, _flipped: bool, _score: f64) {
        self.decisions += 1;
        self.level = level;
        self.trail = trail_depth;
    }
    fn on_propagation(&mut self, _lit: Lit, _level: u32, _trail_depth: usize, _kind: PropagationKind) {
        self.propagations += 1;
    }
    fn on_conflict(&mut self, level: u32, trail_depth: usize) {
        self.leaf(level, trail_depth);
    }
    fn on_solution(&mut self, level: u32, trail_depth: usize) {
        self.leaf(level, trail_depth);
    }
    fn on_learned(&mut self, _kind: LearnedKind, _size: usize, _asserting_level: u32) {
        self.learned += 1;
    }
}

// ----------------------------------------------------------------------
// EngineMetrics
// ----------------------------------------------------------------------

/// The metrics recorder observes phase spans and gauge samples only;
/// every other event keeps its empty default.
impl<C: Clock> SearchObserver for EngineMetrics<C> {
    #[inline]
    fn on_phase_start(&mut self, phase: Phase) {
        self.phase_start(phase);
    }
    #[inline]
    fn on_phase_end(&mut self, phase: Phase) {
        self.phase_end(phase);
    }
    #[inline]
    fn on_gauge(&mut self, gauge: EngineGauge, value: u64) {
        self.sample(gauge, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recursive::{self, RecursiveConfig};
    use crate::samples;
    use crate::solver::{Solver, SolverConfig};

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(4);
        for v in [0, 1, 1, 3, 9] {
            h.add(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.max(), 9);
        assert_eq!(h.render(), "0:1 1:2 3:1 >=4:1");
        assert!(Histogram::new(2).render().contains("empty"));
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut a = Profiler::new(&samples::paper_example());
        let mut b = Profiler::new(&samples::paper_example());
        {
            let mut multi = MultiObserver::new();
            multi.push(&mut a);
            multi.push(&mut b);
            assert!(!multi.is_empty());
            let qbf = samples::paper_example();
            Solver::with_observer(&qbf, SolverConfig::partial_order(), multi).solve();
        }
        assert!(a.decisions() > 0);
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.watcher_visits(), b.watcher_visits());
    }

    #[test]
    fn jsonl_trace_is_line_shaped() {
        let qbf = samples::paper_example();
        let mut trace = JsonlTrace::new();
        Solver::with_observer(&qbf, SolverConfig::partial_order(), &mut trace).solve();
        let text = trace.finish();
        assert!(text.lines().count() > 5);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line {line}");
            assert!(line.contains("\"e\":\""));
        }
        assert!(text.contains("\"e\":\"decision\""));
        assert!(text.contains("\"e\":\"learned\""));
        assert!(text.contains("\"e\":\"watcher_visits\""));
    }

    #[test]
    fn jsonl_trace_is_deterministic() {
        // Byte-identical across two runs of the same deterministic solve.
        let qbf = samples::paper_example();
        let run = || {
            let mut trace = JsonlTrace::new();
            Solver::with_observer(&qbf, SolverConfig::partial_order(), &mut trace).solve();
            trace.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tree_trace_renders_recursive_run() {
        let cfg = RecursiveConfig {
            pure_literals: false,
            ..RecursiveConfig::default()
        };
        let mut trace = TreeTrace::new();
        let out = recursive::solve_with_observer(&samples::paper_example(), &cfg, &mut trace);
        assert_eq!(out.value, Some(false));
        let text = trace.into_string();
        assert!(text.contains("(branch)"));
        assert!(text.contains("(unit)"));
        assert!(text.contains("CONFLICT"));
    }

    #[test]
    fn progress_counts_leaves() {
        let qbf = samples::unsat_instance();
        let mut progress = Progress::new(0); // interval 0: never prints
        let out = Solver::with_observer(&qbf, SolverConfig::partial_order(), &mut progress).solve();
        assert_eq!(progress.leaves, out.stats.conflicts + out.stats.solutions);
        assert_eq!(progress.decisions, out.stats.decisions);
    }

    #[test]
    fn progress_buffer_sink_collects_lines() {
        let qbf = samples::paper_example();
        let mut progress = Progress::buffered(1); // one line per leaf
        let out = Solver::with_observer(&qbf, SolverConfig::partial_order(), &mut progress).solve();
        let lines = progress.take_lines();
        assert_eq!(
            lines.len() as u64,
            out.stats.conflicts + out.stats.solutions,
            "one buffered line per leaf at interval 1"
        );
        assert!(lines[0].starts_with("c progress: 1 leaves"));
        assert!(progress.take_lines().is_empty(), "take_lines drains");
    }
}
