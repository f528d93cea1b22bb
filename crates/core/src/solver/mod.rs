//! The iterative search-based QBF solver (QUBE-style QDPLL).
//!
//! This is the paper's solver architecture (§III and §VI): an iterative
//! Q-DLL with
//!
//! * unit propagation under the generalized unit rule (Lemma 5) and
//!   contradictory-clause detection (Lemma 4), both phrased in terms of the
//!   partial order `≺` tested with the DFS timestamps of §VI;
//! * **nogood (clause) learning** from conflicts by Q-resolution with
//!   universal reduction (Lemma 3), and **good (cube) learning** from
//!   solutions by term resolution with existential reduction;
//! * conflict- and solution-directed backjumping;
//! * monotone (pure) literal fixing;
//! * pluggable branching heuristics: the QUBE(TO) priority scheme
//!   (prefix level, VSIDS-like counter, id) and the QUBE(PO) tree-structured
//!   score of §VI.
//!
//! The same engine solves prenex and non-prenex QBFs: branching is always
//! restricted to *available* variables (every `≺`-predecessor assigned),
//! which for a prenex prefix degenerates to left-to-right block order.
//!
//! # Examples
//!
//! ```
//! use qbf_core::{samples, solver::{Solver, SolverConfig}};
//!
//! let qbf = samples::two_independent_games();
//! let outcome = Solver::new(&qbf, SolverConfig::partial_order()).solve();
//! assert_eq!(outcome.value(), Some(true));
//! assert!(outcome.stats.decisions <= 8);
//! ```

mod db;
mod engine;
mod heuristic;
mod incremental;

pub use engine::Solver;
pub use heuristic::HeuristicKind;
pub use incremental::{IncrementalError, IncrementalSolver};

/// Configuration of the [`Solver`].
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Branching heuristic.
    pub heuristic: HeuristicKind,
    /// Enable good/nogood learning with backjumping. Default `true`.
    pub learning: bool,
    /// Enable monotone (pure) literal fixing. Default `true`.
    pub pure_literals: bool,
    /// Abort after this many assignments (decisions + propagations);
    /// the deterministic analogue of the paper's CPU-time timeout.
    pub node_limit: Option<u64>,
    /// Abort after this many conflicts + solutions.
    pub conflict_limit: Option<u64>,
    /// Start forgetting inactive learned constraints beyond this many.
    pub max_learned: usize,
    /// Halve heuristic scores every this many conflicts (the paper's
    /// periodic rearrangement of the priority queue).
    pub decay_interval: u64,
    /// Physically reclaim tombstoned learned constraints from the arena
    /// when garbage accumulates (default `true`). Compaction is purely a
    /// memory-layout operation — search behaviour and every search
    /// counter are identical with it off (see `tests/compaction.rs`);
    /// the switch exists for exactly that differential check.
    pub compact_db: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            heuristic: HeuristicKind::VsidsTree,
            learning: true,
            pure_literals: true,
            node_limit: None,
            conflict_limit: None,
            max_learned: 20_000,
            decay_interval: 256,
            compact_db: true,
        }
    }
}

impl SolverConfig {
    /// QUBE(PO): the quantifier-structure-aware configuration (tree score
    /// heuristic of §VI). Works on prenex and non-prenex inputs.
    pub fn partial_order() -> Self {
        SolverConfig::default()
    }

    /// QUBE(TO): the prenex-solver configuration (priority by prefix level,
    /// then counter, then id). Feed it prenex inputs — on a non-prenex
    /// prefix it still branches soundly (availability is enforced by the
    /// engine) but ranks only by level.
    pub fn total_order() -> Self {
        SolverConfig {
            heuristic: HeuristicKind::VsidsLevel,
            ..SolverConfig::default()
        }
    }

    /// A plain backtracking configuration: no learning, deterministic
    /// naive branching. Useful as a baseline and for differential tests.
    pub fn basic() -> Self {
        SolverConfig {
            heuristic: HeuristicKind::Naive,
            learning: false,
            pure_literals: false,
            ..SolverConfig::default()
        }
    }

    /// Sets the assignment budget, returning `self` (builder style).
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Sets the heuristic, returning `self` (builder style).
    pub fn with_heuristic(mut self, heuristic: HeuristicKind) -> Self {
        self.heuristic = heuristic;
        self
    }
}

/// How [`Stats::merge`] folds one counter of another run into a total.
#[derive(Debug, Clone, Copy)]
enum Merge {
    /// Event counts and sums add up.
    Sum,
    /// High-water marks keep the larger value.
    Max,
}

impl Merge {
    fn apply(self, total: u64, other: u64) -> u64 {
        match self {
            Merge::Sum => total + other,
            Merge::Max => total.max(other),
        }
    }
}

/// Declares the [`Stats`] counters once: each entry is a doc comment, the
/// field name, its [`Merge`] rule and, for the counters a service exports
/// as running session totals, a one-line summary. The struct,
/// [`Stats::fields`], [`Stats::merge`] and [`Stats::session_totals`] are
/// all generated from the one list; `@assignments` marks where `fields()`
/// lists the derived [`Stats::assignments`] total.
macro_rules! stats_counters {
    (
        $( $(#[doc = $doc_a:literal])* $a:ident: $merge_a:ident $(, $summary_a:literal)?; )*
        @assignments;
        $( $(#[doc = $doc_b:literal])* $b:ident: $merge_b:ident $(, $summary_b:literal)?; )*
    ) => {
        /// Search statistics of a [`Solver`] run.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Stats {
            $( $(#[doc = $doc_a])* pub $a: u64, )*
            $( $(#[doc = $doc_b])* pub $b: u64, )*
        }

        impl Stats {
            /// Every counter as a `(name, value)` pair, in display order.
            /// The single source of truth for [`Stats`]'s `Display` impl,
            /// the `qbfsolve --stats` output and the bench telemetry
            /// records — adding a field updates all three.
            pub fn fields(&self) -> [(&'static str, u64); 21] {
                [
                    $( (stringify!($a), self.$a), )*
                    ("assignments", self.assignments()),
                    $( (stringify!($b), self.$b), )*
                ]
            }

            /// Accumulates another run's counters into `self` (how
            /// `qbfserve` maintains cumulative session totals across
            /// queries). Every counter adds except `arena_bytes_peak`,
            /// which is a high-water mark and takes the max.
            pub fn merge(&mut self, other: &Stats) {
                $( self.$a = Merge::$merge_a.apply(self.$a, other.$a); )*
                $( self.$b = Merge::$merge_b.apply(self.$b, other.$b); )*
            }

            /// The counters a long-running service exports as cumulative
            /// session totals, as `(metric name, help text, value)`: the
            /// metric is `qbf_session_<field>_total` and the help text is
            /// the counter's summary plus "across all queries". Only
            /// additive counters carry a summary: `arena_bytes_peak` is a
            /// high-water mark, which `qbfserve` exports as a gauge.
            pub fn session_totals(&self) -> [(&'static str, &'static str, u64); 9] {
                [
                    $( $( (
                        concat!("qbf_session_", stringify!($a), "_total"),
                        concat!($summary_a, " across all queries"),
                        self.$a,
                    ), )? )*
                    $( $( (
                        concat!("qbf_session_", stringify!($b), "_total"),
                        concat!($summary_b, " across all queries"),
                        self.$b,
                    ), )? )*
                ]
            }
        }
    };
}

stats_counters! {
    /// Branching decisions taken.
    decisions: Sum, "Branching decisions";
    /// Literals assigned by unit propagation (clauses and cubes).
    propagations: Sum, "Unit propagations";
    /// Literals assigned by monotone literal fixing.
    pures: Sum;
    @assignments;
    /// Conflicts (falsified clauses) encountered.
    conflicts: Sum, "Conflicts";
    /// Solutions (satisfied matrix / validated cube) encountered.
    solutions: Sum, "Solutions";
    /// Learned clauses (nogoods).
    learned_clauses: Sum, "Learned clauses";
    /// Learned cubes (goods).
    learned_cubes: Sum, "Learned cubes";
    /// Non-chronological backtracks.
    backjumps: Sum, "Non-chronological backtracks";
    /// Chronological fallback backtracks.
    chrono_backtracks: Sum, "Chronological backtracks";
    /// Learned constraints dropped by database reduction.
    forgotten: Sum, "Learned constraints dropped";
    /// Sum of trail lengths at solution triggers (diagnostic: how deep the
    /// search is when the matrix empties).
    solution_depth_sum: Sum;
    /// Sum of learned cube sizes (diagnostic: how general the goods are).
    cube_size_sum: Sum;
    /// Watcher-list entries visited during propagation (the lazy
    /// propagator's cost measure; compare against `assignments()` to see
    /// how much work the watched indices avoid).
    watcher_visits: Sum;
    /// Watcher visits resolved by the cached blocker literal alone, i.e.
    /// without touching the constraint arena (a subset of
    /// `watcher_visits`).
    blocker_hits: Sum;
    /// High-water mark of constraint-arena bytes (clauses + cubes,
    /// headers included).
    arena_bytes_peak: Max;
    /// Bytes physically reclaimed from the arenas by compaction.
    arena_bytes_reclaimed: Sum;
    /// Arena compaction passes run by database reduction.
    compactions: Sum;
    /// Proof records emitted by the attached proof sink (`r`/`u`/`i`/`l`
    /// derivation steps; 0 when proof logging is disabled).
    proof_steps: Sum;
    /// Bytes of certificate text emitted by the attached proof sink.
    proof_bytes: Sum;
    /// `d` (constraint forgotten) records emitted by the proof sink.
    proof_dels: Sum;
}

impl Stats {
    /// Decisions + propagations + pures: the deterministic cost measure
    /// used by the benchmark harness as a time proxy.
    pub fn assignments(&self) -> u64 {
        self.decisions + self.propagations + self.pures
    }
}

impl std::fmt::Display for Stats {
    /// One `name = value` line per counter (including the derived
    /// `assignments` total), in the order of [`Stats::fields`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fields = self.fields();
        for (i, (name, value)) in fields.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:<18} = {value}")?;
        }
        Ok(())
    }
}

/// Result of a [`Solver`] run.
#[derive(Debug, Clone)]
pub struct Outcome {
    value: Option<bool>,
    /// Search statistics.
    pub stats: Stats,
}

impl Outcome {
    pub(crate) fn new(value: Option<bool>, stats: Stats) -> Self {
        Outcome { value, stats }
    }

    /// `Some(true)`/`Some(false)` if decided, `None` if a budget was hit.
    pub fn value(&self) -> Option<bool> {
        self.value
    }

    /// Whether the run exhausted its budget without deciding.
    pub fn is_timeout(&self) -> bool {
        self.value.is_none()
    }
}
