//! The search engine: trail, propagation, conflict/solution analysis and
//! backjumping.
//!
//! # One dual core
//!
//! QUBE learns clauses (nogoods) from conflicts by Q-resolution with
//! universal reduction, and cubes (goods) from solutions by term
//! resolution with existential reduction. The two are exact duals, so
//! every routine that serves one side is written once, generic over
//! `const CUBE: bool` (`false` for clauses, `true` for cubes). The side is
//! fixed at compile time, so the propagation loops still compile to one
//! specialised loop per side. The side supplies four facts (DESIGN §2.2
//! tabulates the whole duality):
//!
//! | fact | clauses (`CUBE = false`) | cubes (`CUBE = true`) |
//! |------|--------------------------|-----------------------|
//! | watched quantifier (`is_watched`) | existential | universal |
//! | settling value (`settles`) | a true literal satisfies | a false literal disables |
//! | empty-case event (`Event::empty`) | `Conflict` | `CubeSolution` |
//! | decisions the fallback flips (`chrono`) | existential | universal |
//!
//! A literal is *set against* a constraint when it has the opposite of
//! the settling value (false in a clause, true in a cube); that is the
//! assignment that moves the constraint towards its event.
//!
//! # Soundness architecture
//!
//! Every learned **clause** is obtained from real clauses (original or
//! previously learned) by Q-resolution steps plus universal reductions that
//! are legal w.r.t. the partial order `≺` (Lemma 3); every learned **cube**
//! is obtained from an implicant of the matrix (model generation) by term
//! resolutions and legal existential reductions. A resolution step that
//! would produce a tautological resolvent — or would pull in a literal that
//! settles the resolvent — is *skipped*: the pivot literal simply stays in
//! the learned constraint, which remains derivable and hence sound, merely
//! weaker.
//!
//! Backjumping (popping a decision level without flipping its decision) is
//! performed only when the learned constraint *witnesses* that the level was
//! irrelevant; in every other situation the engine falls back to the
//! chronological Q-DLL step (flip the most recent unflipped decision of the
//! side's watched quantifier), so the search is structurally a DFS and
//! always terminates.
//!
//! # Watched-literal propagation
//!
//! Unit/conflict detection on clauses and unit/solution detection on cubes
//! use lazy watched-literal indices (see [`super::db`]): processing a
//! trail literal `l` visits only the clauses watching `¬l` and the cubes
//! watching `l`, instead of scanning all four occurrence lists. The
//! discipline is the QDPLL adaptation of the classic two-watched-literal
//! scheme, and this is the one statement of its invariant for both sides:
//!
//! * **Movable watches rest only on the watched quantifier** (cf. the
//!   watched data structures of Gent et al. for QBF). A clause's Lemma 4/5
//!   status depends only on its existential literals being false (free or
//!   false universals are removable by universal reduction; a true literal
//!   of either kind satisfies it), and dually a cube's status depends only
//!   on its universal literals. So two watched-quantifier literals not set
//!   against the constraint certify "neither an event nor unit".
//!   Replacement searches accept only such literals; when none exists the
//!   watch is kept *stale* on the literal just set against the constraint,
//!   and the constraint is examined under Lemma 4/5 on the spot. A
//!   constraint with fewer than two watched-quantifier literals just keeps
//!   fewer movable watches (an original clause with none is conflicting at
//!   the initial scan).
//! * **The watched prefix.** `attach` stores a constraint's
//!   watched-quantifier literals before all others, and the only two
//!   swaps that reorder literals keep that order from position 2 on:
//!   `0↔1`, and `1↔k` with `k` a watched-quantifier literal. So no
//!   watched-quantifier literal ever follows a literal of the other
//!   quantifier in the tail, and the replacement search stops at the first
//!   such literal: past it, no literal could take the watch. It finds the
//!   same replacement as a full scan, or none, and reads the few watched
//!   literals of a TO good instead of its hundreds of existential ones.
//!   Debug builds check the property where the search stops.
//! * **Pinned unblock sentinels** cover the `≺`-blocked cases of
//!   Lemma 5 for clauses: each universal literal `b` that precedes some
//!   existential literal `e` of the same clause (`b ≺ e`) carries a
//!   permanent watcher entry that is never moved and always examines the
//!   clause when `b` is falsified — exactly the event that can unblock a
//!   pending unit.
//! * **Cubes get no pinned sentinels.** The dual rule would pin each
//!   existential of a good that precedes one of its universals, and such
//!   a sentinel turns the good unit only when every existential in it
//!   that precedes its last open universal is already true. Under a total
//!   order a good cannot be existentially reduced past its universals
//!   (paper §V–VI), so a QUBE(TO) good keeps ~220 mostly existential
//!   literals, nearly all pinned, and the search must rebuild nearly the
//!   whole good before one fires. Measured on the Table I pools, those
//!   watchers took 110.0 M of 227.4 M watcher visits under TO (53.4 M of
//!   83.6 M under PO) for 182 units and 7 early solutions (99 units under
//!   PO), and held most of the TO peak memory. Units are optional for
//!   soundness and the search stays a complete DFS; the movable watches
//!   still catch every validated good. A `≺`-blocked cube unit is found,
//!   if at all, when a movable watch next examines the cube. Clause
//!   sentinels stay: on the same pools learned-clause sentinels turned
//!   55 k examinations into 1 560 units, and original-clause sentinels
//!   yield most of the 576 k sentinel units.
//!
//! **Why watchers need no undo:** backtracking unassigns a suffix of the
//! trail, level by level. Pinned sentinels are position-independent, so
//! only the movable watches need an argument. If neither movable watch of
//! a constraint is set against it, setting unwatched literals against it
//! cannot make it unit or an event (two open watched literals remain), and
//! unassignment only moves it further from either verdict. A watch goes
//! stale on `p` only when every tail watched-quantifier literal is set
//! against the constraint — each at a trail position `≤ pos(p)` or inside
//! `p`'s own decision level (units assigned while `p`'s watch list is
//! being processed) — so any backtrack that revives a tail literal revives
//! `p` first, restoring the two-open-watches invariant. States *between*
//! those transitions are exact replays of earlier propagation fixpoints,
//! which held no event by induction. Learned constraints are born with
//! their watched-quantifier literals watched in unassigned-first, then
//! latest-assigned-first order (see `attach`), which establishes the same
//! invariant at birth.
//!
//! **Blockers.** A visit whose blocker settles the constraint leaves the
//! watch on `p` without reading the constraint, and so does a visit
//! whose `examine` finds it settled. A movable watch stores the other
//! watched literal as its blocker. A good whose watch stays on `p`
//! because `examine` found it disabled by a false literal `x` stores `x`
//! instead (MiniSat 2.2's blocker update): a QUBE(TO) good keeps ~220
//! mostly existential literals, and with the other watched literal as
//! its blocker every later visit would read the arena to meet `x` again.
//! Either way the watch is left on `p` on the strength of a settling
//! literal, and the same level argument keeps that sound: when `p` is
//! processed, every assigned literal lies below `p` on the trail or at
//! `p`'s level, so a backtrack that revives the settling literal revives
//! `p` too. Debug builds check that `x`'s level is at most `p`'s.
//! Clauses keep the other watched literal; DESIGN §2.2b gives the
//! measured reason.
//!
//! One caveat is inherited from the seed engine rather than the watched
//! indices: the QUBE-style unwind can assert a flipped literal above the
//! levels of its constraint's remaining literals, so a deep backjump may
//! re-expose a *learned* constraint's unit with no assignment event.
//! Neither engine re-detects such a unit until a literal of the
//! constraint is touched again; for original constraints the triggering
//! falsification always shares the propagated literal's level, so their
//! units are never re-exposed. Every cube is learned, so the missed
//! `≺`-blocked cube units above fall under the same exemption.
//!
//! With the `debug-counters` feature the seed engine's eager
//! `true_count`/`false_count` discipline runs in shadow over full
//! occurrence lists and is cross-checked against the watched conclusions
//! at every no-event propagation fixpoint (see `shadow_verify`): counters
//! must match a from-scratch recount, no clause may be conflicting and no
//! cube validated, and no original clause may be unit. It keeps one
//! arm per side on purpose: it is the independent check of the merged
//! propagator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::metrics::{EngineGauge, Phase};
use crate::observe::{LearnedKind, NoopObserver, PropagationKind, SearchObserver, WatchSide};
use crate::portfolio::ShareConn;
use crate::prefix::{BlockId, Prefix};
use crate::proof::{NoProof, ProofSink};
use crate::qbf::Qbf;
use crate::var::{Lit, Var};

use super::db::{ConstraintRef, Db, Kind, Watcher};
use super::heuristic::Brancher;
use super::{Outcome, SolverConfig, Stats};

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Decision,
    Constraint(ConstraintRef),
    Pure,
}

/// A decision-stack frame (one per decision level).
#[derive(Debug, Clone, Copy)]
struct Frame {
    lit: Lit,
    /// Whether this decision is the second branch of its variable.
    flipped: bool,
    /// For flipped decisions: the constraint that refuted the first branch
    /// (clause for existential flips, cube for universal flips), usable as
    /// a resolution partner when the second branch fails too.
    pseudo_reason: Option<ConstraintRef>,
    trail_start: usize,
}

#[derive(Debug)]
enum Event {
    Conflict(ConstraintRef),
    /// A learned cube became true / existential-only under the assignment.
    CubeSolution(ConstraintRef),
}

impl Event {
    /// The event a constraint of the side raises when none of its
    /// watched-quantifier literals is left open: a falsified clause is a
    /// conflict, a cube whose open literals are all existential is a
    /// validated good.
    #[inline]
    fn empty<const CUBE: bool>(c: ConstraintRef) -> Self {
        if CUBE {
            Event::CubeSolution(c)
        } else {
            Event::Conflict(c)
        }
    }
}

/// What [`Solver::examine`] found in a constraint of the side.
enum Examined {
    /// This literal settles the constraint: the first one the scan met.
    Settled(Lit),
    /// The side's event: a conflict or a validated good.
    Event(Event),
    /// Neither: two watched-quantifier literals are open, the only open
    /// one is `≺`-blocked, or it has just been assigned as a unit.
    Open,
}

impl Examined {
    fn event(self) -> Option<Event> {
        match self {
            Examined::Event(ev) => Some(ev),
            _ => None,
        }
    }
}

/// Scratch for the `≺`-blocking test inside one constraint: which literals
/// of the other quantifier precede some literal of the watched quantifier
/// (the literals reduction must keep, and in a clause the ones that get
/// unblock sentinels).
///
/// Between literals of opposite quantifiers, `b ≺ w` holds exactly when
/// `b`'s block is a strict ancestor of `w`'s. So [`BlockClaims::claim`]
/// lets each watched literal, in order, claim the strict ancestors of its
/// block up to the first block already claimed (whose ancestors are
/// claimed too), and `b` precedes a watched literal iff its own block is
/// claimed — by the first watched literal it precedes. Linear in the
/// constraint and the blocks claimed.
#[derive(Debug)]
struct BlockClaims {
    /// Per prefix block: the watched literal that claimed it.
    claim: Vec<Option<Lit>>,
    /// The claimed blocks, for [`BlockClaims::clear`].
    claimed: Vec<BlockId>,
}

impl BlockClaims {
    fn new(prefix: &Prefix) -> Self {
        BlockClaims {
            claim: vec![None; prefix.num_blocks()],
            claimed: Vec::new(),
        }
    }

    /// Claims the strict-ancestor blocks of the watched-quantifier
    /// literals of `lits` (existential for clauses, universal for cubes).
    fn claim(&mut self, prefix: &Prefix, lits: &[Lit], cube: bool) {
        for &w in lits {
            if prefix.is_existential(w.var()) == cube {
                continue;
            }
            let mut up = prefix
                .block_of(w.var())
                .and_then(|b| prefix.block_parent(b));
            while let Some(a) = up {
                if self.claim[a.index()].is_some() {
                    break;
                }
                self.claim[a.index()] = Some(w);
                self.claimed.push(a);
                up = prefix.block_parent(a);
            }
        }
    }

    /// For a literal `b` of the other quantifier: the first claiming
    /// literal that `b` precedes, if any.
    fn blocked(&self, prefix: &Prefix, b: Lit) -> Option<Lit> {
        prefix.block_of(b.var()).and_then(|a| self.claim[a.index()])
    }

    /// Releases every claim (the scratch is all-`None` between uses).
    fn clear(&mut self) {
        for a in self.claimed.drain(..) {
            self.claim[a.index()] = None;
        }
    }
}

/// The iterative QUBE-style solver. See the [module docs](crate::solver).
///
/// The solver is generic over a [`SearchObserver`] so that tracing,
/// profiling, progress reporting and phase timing can hook every search
/// event. The default observer is [`NoopObserver`], whose empty inline
/// callbacks compile away entirely — `Solver::new` runs the exact
/// pre-observability hot path (see `tests/observe_integration.rs` for the
/// determinism guard).
#[derive(Debug)]
pub struct Solver<'a, O: SearchObserver = NoopObserver, P: ProofSink = NoProof> {
    qbf: &'a Qbf,
    config: SolverConfig,
    db: Db,
    brancher: Brancher,
    observer: O,
    proof: P,

    value: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    /// Trail index at which each variable was assigned (stale when
    /// unassigned; only consulted for assigned variables).
    trail_pos: Vec<u32>,
    trail: Vec<Lit>,
    qhead: usize,
    frames: Vec<Frame>,

    /// Unassigned-variable count per prefix block (availability tracking).
    block_unassigned: Vec<u32>,
    /// Per literal: number of *unsatisfied original* clauses containing it
    /// (monotone-literal detection).
    active_occ: Vec<u32>,
    pure_candidates: Vec<Var>,

    stats: Stats,
    conflicts_since_decay: u64,

    /// Push-frame dependency accumulator for the analysis currently in
    /// flight: the max frame mark over the start constraint and every
    /// antecedent actually used by a resolution step. Written into the
    /// learned constraint's mark by `learn`. Stays 0 throughout one-shot
    /// solving and for cube analyses (cube antecedents never carry marks:
    /// an implicant of a matrix is an implicant of every sub-matrix, so
    /// goods survive `pop` unconditionally).
    analysis_mark: u32,

    /// Scratch membership flags, one per literal code, used by the
    /// resolution loops and the implicant builder to answer
    /// `lits.contains(..)` in O(1). Always all-false between uses.
    lit_mark: Vec<bool>,
    /// Scratch for the `≺`-blocking test of reduction and sentinel
    /// attach; clear between uses.
    claims: BlockClaims,

    /// Whether `run` already performed the initial Lemma 4/5 scan and
    /// pure seeding. Lets a portfolio driver call `solve_mut` repeatedly
    /// to *resume* the same search (epoch stepping) without rescanning;
    /// cleared by `reset_search`, so incremental re-solves still scan.
    search_started: bool,
    /// Resume budget for portfolio epoch stepping: `run` yields `None`
    /// once `Stats.assignments` reaches this bound. Unlike
    /// `config.node_limit` (strict `>`, a hard budget), this is an
    /// inclusive pause point that the driver moves forward every epoch.
    epoch_limit: Option<u64>,
    /// Cooperative cancellation flag shared across portfolio workers:
    /// polled at every decision boundary (the top of the search loop).
    stop: Option<Arc<AtomicBool>>,
    /// Portfolio sharing connection: learned constraints are offered on
    /// the way out, peers' constraints are drained at decision
    /// boundaries. Boxed to keep the solver struct lean for the common
    /// single-threaded case.
    share: Option<Box<ShareConn>>,
    /// A conflict/solution event produced by *attaching* an imported
    /// constraint, parked until the next loop iteration so the import
    /// drain can stop immediately and `maybe_reduce_db` is skipped while
    /// the event's constraint reference is in flight.
    pending_event: Option<Event>,
}

impl<'a> Solver<'a> {
    /// Prepares a solver for the given QBF with the (zero-cost) no-op
    /// observer.
    pub fn new(qbf: &'a Qbf, config: SolverConfig) -> Self {
        Solver::with_parts(qbf, config, NoopObserver, NoProof)
    }
}

impl<'a, O: SearchObserver> Solver<'a, O> {
    /// Prepares a solver for the given QBF that reports every search
    /// event to `observer`. Pass `&mut obs` to keep ownership of the
    /// observer across [`Solver::solve`] (which consumes the solver).
    pub fn with_observer(qbf: &'a Qbf, config: SolverConfig, observer: O) -> Self {
        Solver::with_parts(qbf, config, observer, NoProof)
    }

    /// The same as [`Solver::with_observer`]. An `EngineMetrics` recorder
    /// is an ordinary observer; this name stays only because the
    /// `perfbench` harness attaches its recorder through it.
    pub fn with_metrics(qbf: &'a Qbf, config: SolverConfig, metrics: O) -> Self {
        Solver::with_observer(qbf, config, metrics)
    }
}

impl<'a, P: ProofSink> Solver<'a, NoopObserver, P> {
    /// Prepares a solver that records a Q-resolution/Q-consensus
    /// certificate into `proof` (see [`crate::proof`]). Pass `&mut log`
    /// to keep ownership of the log across [`Solver::solve`].
    ///
    /// Proof mode pins two config axes (see `with_parts`):
    /// `pure_literals` is forced off — monotone-literal fixing assigns
    /// variables with no constraint antecedent, which Q-resolution chains
    /// cannot discharge — and `learning` is forced on, since the
    /// certificate records the learning derivations. The pinning is a
    /// no-op for the default QUBE(TO)/QUBE(PO) learning configurations
    /// apart from the pure-literal axis.
    pub fn with_proof(qbf: &'a Qbf, config: SolverConfig, proof: P) -> Self {
        Solver::with_parts(qbf, config, NoopObserver, proof)
    }
}

impl<'a, O: SearchObserver, P: ProofSink> Solver<'a, O, P> {
    /// Fully general constructor: observer and proof sink together.
    pub fn with_parts(qbf: &'a Qbf, mut config: SolverConfig, observer: O, proof: P) -> Self {
        if P::ENABLED {
            // See `with_proof`: certificates require constraint
            // antecedents for every non-decision assignment.
            config.pure_literals = false;
            config.learning = true;
        }
        let n = qbf.num_vars();
        let prefix = qbf.prefix();
        let mut counts = vec![0.0f64; 2 * n];
        for c in qbf.matrix().iter() {
            for &l in c.lits() {
                counts[l.code()] += 1.0;
            }
        }
        let brancher = Brancher::new(config.heuristic, prefix, &counts);
        let block_unassigned = prefix
            .blocks()
            .map(|b| prefix.block_vars(b).len() as u32)
            .collect();
        let mut solver = Solver {
            qbf,
            config,
            db: Db::new(n),
            brancher,
            observer,
            proof,
            value: vec![None; n],
            level: vec![0; n],
            reason: vec![Reason::Decision; n],
            trail_pos: vec![0; n],
            trail: Vec::with_capacity(n),
            qhead: 0,
            frames: Vec::new(),
            block_unassigned,
            active_occ: vec![0; 2 * n],
            pure_candidates: Vec::new(),
            stats: Stats::default(),
            conflicts_since_decay: 0,
            analysis_mark: 0,
            lit_mark: vec![false; 2 * n],
            claims: BlockClaims::new(prefix),
            search_started: false,
            epoch_limit: None,
            stop: None,
            share: None,
            pending_event: None,
        };
        for c in qbf.matrix().iter() {
            solver.attach(c.lits().to_vec(), Kind::Clause, false);
            for &l in c.lits() {
                solver.active_occ[l.code()] += 1;
            }
        }
        if P::ENABLED {
            solver.proof.begin(qbf);
            let tokens: Vec<u64> = solver.db.original_refs().map(|c| c.token()).collect();
            for t in tokens {
                solver.proof.on_original(t);
            }
        }
        solver
    }

    fn prefix(&self) -> &Prefix {
        self.qbf.prefix()
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value[l.var().index()].map(|v| v == l.is_positive())
    }


    #[inline]
    fn current_level(&self) -> u32 {
        self.frames.len() as u32
    }

    fn is_existential(&self, v: Var) -> bool {
        self.prefix().is_existential(v)
    }

    /// Runs the search to completion or budget exhaustion.
    pub fn solve(mut self) -> Outcome {
        self.solve_mut()
    }

    /// In-place variant of [`Solver::solve`] for callers that keep the
    /// solver alive across queries (incremental solving): the search
    /// state (trail, learned constraints, heuristic scores) survives the
    /// call. Re-running requires a [`Solver::reset_search`] in between.
    pub(crate) fn solve_mut(&mut self) -> Outcome {
        let value = self.run();
        self.outcome(value)
    }

    /// The search loop proper; `None` means the budget ran out.
    fn run(&mut self) -> Option<bool> {
        if !self.search_started {
            self.search_started = true;
            // Initial scan: Lemma 4 / Lemma 5 on the original clauses. In a
            // cold solve only originals exist at this point; on an incremental
            // re-solve the learned constraints are examined lazily through
            // their watchers instead, exactly as after a backtrack to level 0.
            let originals: Vec<ConstraintRef> = self.db.original_refs().collect();
            for c in originals {
                if let Examined::Event(Event::Conflict(_)) = self.examine::<false>(c) {
                    // The clause has no existential literals: it ∀-reduces to
                    // the empty clause (after resolving out any literals the
                    // scan's earlier unit propagations falsified).
                    if P::ENABLED {
                        let lits = self.db.lits(c).to_vec();
                        self.proof.chain_start(c.token(), &lits, false);
                        self.proof_finish(false);
                    }
                    return Some(false);
                }
            }
            if self.config.pure_literals {
                self.seed_pure_candidates();
            }
        }
        loop {
            if self.budget_exhausted() {
                return None;
            }
            let event = match self.pending_event.take() {
                Some(parked) => Some(parked),
                None => self.propagate_and_fix(),
            };
            let done = match event {
                Some(Event::Conflict(c)) => self.handle::<false>(Some(c)),
                Some(Event::CubeSolution(k)) => self.handle::<true>(Some(k)),
                None => {
                    if self.drain_imports() {
                        // Imported constraints (and any parked event from
                        // attaching one) must flow through propagation
                        // before the solution trigger or a fresh decision.
                        // Skipping `maybe_reduce_db` here keeps a parked
                        // event's constraint reference stable.
                        continue;
                    }
                    if self.db.unsat_originals == 0 {
                        // Every original clause is satisfied: the good
                        // comes from the matrix itself.
                        self.handle::<true>(None)
                    } else if self.decide() {
                        None
                    } else {
                        // No candidate although clauses remain unsatisfied:
                        // cannot happen (a falsified clause would have
                        // conflicted), but fail safe.
                        debug_assert!(false, "no decision candidates but matrix unsatisfied");
                        return None;
                    }
                }
            };
            if done.is_some() {
                return done;
            }
            self.maybe_reduce_db();
        }
    }

    /// Folds the proof sink's counters into `Stats` and builds the
    /// outcome (the single exit path of [`Solver::solve`]).
    fn outcome(&mut self, value: Option<bool>) -> Outcome {
        if P::ENABLED {
            let (steps, bytes, dels) = self.proof.proof_stats();
            self.stats.proof_steps = steps;
            self.stats.proof_bytes = bytes;
            self.stats.proof_dels = dels;
        }
        Outcome::new(value, self.stats)
    }

    /// Resolves the proof sink's working constraint against the reasons of
    /// the trail suffix `trail[from..]`, latest-assigned first, then
    /// maximally reduces it. A working *clause* depends on a trail literal
    /// `t` through `¬t` and is resolved with `t`'s clause reason; a working
    /// *cube* depends through `t` itself and is resolved with `t`'s cube
    /// reason. Literals without a usable reason (decisions) are left for
    /// the reduction or a later `chain_absorb_frame`.
    fn proof_drain_trail(&mut self, from: usize, cube: bool) {
        let mut i = self.trail.len();
        while i > from {
            i -= 1;
            let t = self.trail[i];
            let pivot = if cube { t } else { !t };
            if !self.proof.working_contains(pivot) {
                continue;
            }
            let Reason::Constraint(r) = self.reason[t.var().index()] else {
                continue;
            };
            if r.kind() != Kind::of(cube) {
                continue;
            }
            let rl = self.db.lits(r).to_vec();
            self.proof.chain_resolve(self.qbf.prefix(), r.token(), &rl, pivot);
        }
        self.proof.chain_reduce(self.qbf.prefix());
    }

    /// Discharges the residual trail dependencies of the working
    /// constraint and writes the conclusion record. Safe to call at every
    /// terminal site: when the working constraint is already empty the
    /// drain and reduction are no-ops.
    fn proof_finish(&mut self, value: bool) {
        if P::ENABLED {
            self.proof_drain_trail(0, value);
            self.proof.conclude(value);
        }
    }

    fn budget_exhausted(&self) -> bool {
        if let Some(stop) = &self.stop {
            // Relaxed is enough: the flag is a monotonic one-shot latch
            // and the losing workers only need to notice it eventually
            // (the next decision boundary).
            if stop.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(limit) = self.epoch_limit {
            if self.stats.assignments() >= limit {
                return true;
            }
        }
        if let Some(limit) = self.config.node_limit {
            if self.stats.assignments() > limit {
                return true;
            }
        }
        if let Some(limit) = self.config.conflict_limit {
            if self.stats.conflicts + self.stats.solutions > limit {
                return true;
            }
        }
        false
    }

    fn tick_decay(&mut self) {
        self.conflicts_since_decay += 1;
        if self.conflicts_since_decay >= self.config.decay_interval {
            self.conflicts_since_decay = 0;
            self.brancher.decay();
            self.observer.on_decay();
        }
    }

    // ------------------------------------------------------------------
    // Assignment and backtracking
    // ------------------------------------------------------------------

    fn assign(&mut self, lit: Lit, reason: Reason) {
        let v = lit.var();
        debug_assert!(self.value[v.index()].is_none(), "assigning assigned var");
        self.value[v.index()] = Some(lit.is_positive());
        self.level[v.index()] = self.current_level();
        self.reason[v.index()] = reason;
        self.trail_pos[v.index()] = self.trail.len() as u32;
        if let Some(b) = self.prefix().block_of(v) {
            self.block_unassigned[b.index()] -= 1;
        }
        self.trail.push(lit);
        // Satisfaction tracking over *original* clauses only: feeds the
        // solution trigger (`unsat_originals`) and monotone-literal
        // detection. This is off the unit/conflict propagation path, which
        // is fully watcher-driven.
        for i in 0..self.db.occ_original[lit.code()].len() {
            let c = self.db.occ_original[lit.code()][i];
            let tc = self.db.true_count_mut(c);
            *tc += 1;
            if *tc == 1 {
                self.db.unsat_originals -= 1;
                if self.config.pure_literals {
                    for &m in self.db.lits(c) {
                        self.active_occ[m.code()] -= 1;
                        if self.active_occ[m.code()] == 0 {
                            self.pure_candidates.push(m.var());
                        }
                    }
                }
            }
        }
        #[cfg(feature = "debug-counters")]
        self.shadow_assign(lit);
    }

    /// Pops the topmost decision level. Watcher lists are deliberately
    /// **not** touched: stale watches are legal (see the module docs).
    fn backtrack_one(&mut self) {
        if P::ENABLED {
            self.proof.frame_pop();
        }
        let frame = self.frames.pop().expect("backtrack with empty stack");
        while self.trail.len() > frame.trail_start {
            let l = self.trail.pop().expect("trail_start within trail");
            self.unassign(l);
        }
        self.qhead = self.trail.len();
    }

    fn unassign(&mut self, l: Lit) {
        let v = l.var();
        self.value[v.index()] = None;
        if let Some(b) = self.prefix().block_of(v) {
            self.block_unassigned[b.index()] += 1;
        }
        // Reverse the satisfaction tracking of `assign`. No per-constraint
        // work happens for the clause/cube *propagation* state: watchers
        // are backtrack-invariant.
        for i in 0..self.db.occ_original[l.code()].len() {
            let c = self.db.occ_original[l.code()][i];
            let tc = self.db.true_count_mut(c);
            *tc -= 1;
            if *tc == 0 {
                self.db.unsat_originals += 1;
                if self.config.pure_literals {
                    for &m in self.db.lits(c) {
                        self.active_occ[m.code()] += 1;
                    }
                }
            }
        }
        // A variable that is monotone *right now* becomes fixable again the
        // moment it is unassigned; the transition-triggered queue alone
        // would miss it (its candidate entry may have been consumed while
        // it was assigned).
        if self.config.pure_literals
            && (self.active_occ[v.positive().code()] == 0
                || self.active_occ[v.negative().code()] == 0)
        {
            self.pure_candidates.push(v);
        }
        // The variable is branchable again: re-enter it into its block's
        // decision heap (no-op for scan-based heuristics).
        self.brancher.on_unassign(v);
        #[cfg(feature = "debug-counters")]
        self.shadow_unassign(l);
    }

    fn push_decision(&mut self, lit: Lit, flipped: bool, pseudo_reason: Option<ConstraintRef>) {
        if P::ENABLED {
            // Record how a later unwinding can discharge this frame: a
            // flipped decision carries the refutation of its first phase —
            // either a learned constraint (token shadow) or the analysis
            // working set of the chronological flip (working shadow).
            match (flipped, pseudo_reason) {
                (true, Some(pr)) => {
                    let pl = self.db.lits(pr).to_vec();
                    self.proof
                        .frame_push_token(pr.token(), &pl, pr.kind() == Kind::Cube);
                }
                (true, None) => self.proof.frame_push_working(),
                _ => self.proof.frame_push(),
            }
        }
        self.frames.push(Frame {
            lit,
            flipped,
            pseudo_reason,
            trail_start: self.trail.len(),
        });
        self.stats.decisions += 1;
        self.assign(lit, Reason::Decision);
        let score = self.brancher.score_of(lit);
        self.observer
            .on_decision(lit, self.current_level(), self.trail.len(), flipped, score);
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    /// Propagates to fixpoint, interleaving monotone-literal fixing.
    fn propagate_and_fix(&mut self) -> Option<Event> {
        self.observer.on_phase_start(Phase::Propagate);
        let ev = self.propagate_and_fix_inner();
        self.observer.on_phase_end(Phase::Propagate);
        ev
    }

    fn propagate_and_fix_inner(&mut self) -> Option<Event> {
        loop {
            if let Some(ev) = self.propagate() {
                return Some(ev);
            }
            if !self.config.pure_literals || !self.fix_one_pure() {
                #[cfg(feature = "debug-counters")]
                self.shadow_verify();
                return None;
            }
        }
    }

    fn propagate(&mut self) -> Option<Event> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses progress towards unit/conflict when ¬l is falsified…
            if let Some(ev) = self.propagate_watches::<false>(!l) {
                return Some(ev);
            }
            // …cubes progress towards unit/solution when l is satisfied.
            if let Some(ev) = self.propagate_watches::<true>(l) {
                return Some(ev);
            }
        }
        None
    }

    /// Whether `v` belongs to the side's watched quantifier: existential
    /// for clauses, universal for cubes.
    #[inline]
    fn is_watched<const CUBE: bool>(&self, v: Var) -> bool {
        self.is_existential(v) != CUBE
    }

    /// Whether `l` settles a constraint of the side: a true literal
    /// satisfies a clause, a false literal disables a cube.
    #[inline]
    fn settles<const CUBE: bool>(&self, l: Lit) -> bool {
        self.lit_value(l) == Some(!CUBE)
    }

    /// Whether `l` is set against a constraint of the side: false in a
    /// clause, true in a cube.
    #[inline]
    fn against<const CUBE: bool>(&self, l: Lit) -> bool {
        self.lit_value(l) == Some(CUBE)
    }

    /// Visits the watchers of `p`, which has just been set against the
    /// side's constraints (falsified for clauses, satisfied for cubes).
    ///
    /// Pinned unblock sentinels (clause lists only) are examined in
    /// place. For movable watches: resolve via the blocker if it settles
    /// the constraint, move the watch to another watched-quantifier
    /// literal not set against the constraint if one exists, and
    /// otherwise keep it (stale) and examine the constraint under
    /// Lemma 4/5; a good found disabled keeps the false literal that
    /// disabled it as its blocker. On an event the remaining watchers are
    /// kept verbatim: the event handler pops the current level, which
    /// unassigns `p` itself.
    fn propagate_watches<const CUBE: bool>(&mut self, p: Lit) -> Option<Event> {
        let kind = Kind::of(CUBE);
        let mut ws = std::mem::take(&mut self.db.watches_mut(kind)[p.code()]);
        let mut kept = 0usize;
        let mut event: Option<Event> = None;
        let mut i = 0;
        while i < ws.len() {
            let w = ws[i];
            i += 1;
            debug_assert!(!(CUBE && w.pinned()), "pinned sentinel on a cube");
            let side = if CUBE {
                WatchSide::Cube
            } else if w.pinned() {
                WatchSide::ClausePinned
            } else {
                WatchSide::ClauseMovable
            };
            self.stats.watcher_visits += 1;
            self.observer.on_watcher_visit(side);
            // Fast path: some other literal already settles the
            // constraint — resolved from the watcher entry alone, no arena
            // access.
            if self.settles::<CUBE>(w.blocker()) {
                self.stats.blocker_hits += 1;
                self.observer.on_blocker_hit(side);
                ws[kept] = w;
                kept += 1;
                continue;
            }
            let c = w.cref;
            if self.db.is_deleted(c) {
                continue; // lazily drop watchers of deleted constraints
            }
            if w.pinned() || self.db.len(c) == 1 {
                // Pinned: a literal of the other quantifier blocking some
                // watched literal has just been set against the constraint
                // — it may have become unit (Lemma 5 unblocking). Unit
                // constraint: p completes its event. Both keep their
                // watcher in place.
                ws[kept] = w;
                kept += 1;
                event = self.examine::<CUBE>(c).event();
            } else {
                // Normalize so the fired watch sits at position 1.
                if self.db.lit(c, 0) == p {
                    self.db.swap_lits(c, 0, 1);
                }
                debug_assert_eq!(self.db.lit(c, 1), p, "watcher list out of sync");
                let other = self.db.lit(c, 0);
                if self.settles::<CUBE>(other) {
                    ws[kept] = Watcher::new(c, other, false);
                    kept += 1;
                    continue;
                }
                // Replacement search over the unwatched tail: only a
                // watched-quantifier literal not set against the
                // constraint restores the movable-watch invariant (see the
                // module docs — watches must stay on that subsequence to
                // survive backtracking). The tail keeps the watched prefix
                // property, so the search ends at the first literal of the
                // other quantifier.
                let mut found: Option<usize> = None;
                let lits = self.db.lits(c);
                for (k, &m) in lits.iter().enumerate().skip(2) {
                    if !self.is_watched::<CUBE>(m.var()) {
                        debug_assert!(
                            lits[k..].iter().all(|x| !self.is_watched::<CUBE>(x.var())),
                            "watched-quantifier literal after the watched prefix"
                        );
                        break;
                    }
                    if !self.against::<CUBE>(m) {
                        found = Some(k);
                        break;
                    }
                }
                if let Some(k) = found {
                    self.db.swap_lits(c, 1, k);
                    let m = self.db.lit(c, 1);
                    self.db.watches_mut(kind)[m.code()].push(Watcher::new(c, other, false));
                    continue; // watcher moved off p's list
                }
                // No replacement: at most one open watched literal remains
                // (`other`, if it is one), so the constraint is settled by
                // an unwatched literal, an event, unit, or ≺-blocked —
                // exactly what `examine` decides. The stale watch stays on
                // p and comes back to life in unassignment order. A good
                // that a false literal `x` disables keeps `x` as its
                // blocker, so the next visit skips it without reading the
                // arena while `x` stays false (clauses keep `other`).
                let blocker = match self.examine::<CUBE>(c) {
                    Examined::Settled(x) if CUBE => {
                        debug_assert!(
                            self.level[x.var().index()] <= self.level[p.var().index()],
                            "settling literal above the watch's level"
                        );
                        x
                    }
                    Examined::Event(ev) => {
                        event = Some(ev);
                        other
                    }
                    _ => other,
                };
                ws[kept] = Watcher::new(c, blocker, false);
                kept += 1;
            }
            if event.is_some() {
                while i < ws.len() {
                    ws[kept] = ws[i];
                    kept += 1;
                    i += 1;
                }
                break;
            }
        }
        ws.truncate(kept);
        debug_assert!(self.db.watches_mut(kind)[p.code()].is_empty());
        self.db.watches_mut(kind)[p.code()] = ws;
        event
    }

    /// Checks a constraint of the side that is not (yet) known settled:
    /// Lemma 4 conflict or solution trigger, else a Lemma 5 unit or its
    /// dual. A settled constraint reports the settling literal the scan
    /// stopped at.
    fn examine<const CUBE: bool>(&mut self, c: ConstraintRef) -> Examined {
        let mut unit: Option<Lit> = None;
        let mut open = 0u32;
        // First pass: find open watched-quantifier literals; a settling
        // literal (possibly still pending on the trail) settles the
        // constraint.
        for &m in self.db.lits(c) {
            if self.settles::<CUBE>(m) {
                return Examined::Settled(m);
            }
            if self.lit_value(m).is_some() {
                continue;
            }
            if self.is_watched::<CUBE>(m.var()) {
                open += 1;
                if open > 1 {
                    return Examined::Open;
                }
                unit = Some(m);
            }
        }
        let Some(w) = unit else {
            return Examined::Event(Event::empty::<CUBE>(c));
        };
        // Generalized Lemma 5: open literals of the other quantifier must
        // not precede w.
        for &m in self.db.lits(c) {
            if m == w || self.lit_value(m).is_some() {
                continue;
            }
            if self.prefix().precedes(m.var(), w.var()) {
                return Examined::Open;
            }
        }
        // A unit clause forces w; on a unit cube the ∀-player must
        // falsify it, so ¬w.
        let (forced, kind) = if CUBE {
            (!w, PropagationKind::UnitCube)
        } else {
            (w, PropagationKind::UnitClause)
        };
        self.stats.propagations += 1;
        self.assign(forced, Reason::Constraint(c));
        self.observer
            .on_propagation(forced, self.current_level(), self.trail.len(), kind);
        Examined::Open
    }

    // ------------------------------------------------------------------
    // Monotone literals
    // ------------------------------------------------------------------

    fn seed_pure_candidates(&mut self) {
        for i in 0..self.qbf.num_vars() {
            let v = Var::new(i);
            if self.active_occ[v.positive().code()] == 0
                || self.active_occ[v.negative().code()] == 0
            {
                self.pure_candidates.push(v);
            }
        }
    }

    /// Fixes at most one verified monotone literal; returns whether one was
    /// fixed (caller re-propagates).
    fn fix_one_pure(&mut self) -> bool {
        while let Some(v) = self.pure_candidates.pop() {
            if self.value[v.index()].is_some() {
                continue;
            }
            let Some(q) = self.prefix().quant(v) else {
                continue;
            };
            let pos_active = self.active_occ[v.positive().code()];
            let neg_active = self.active_occ[v.negative().code()];
            if pos_active != 0 && neg_active != 0 {
                continue; // stale candidate
            }
            let lit = if q.is_exists() {
                // assign l with ¬l absent: satisfy remaining occurrences
                if neg_active == 0 {
                    v.positive()
                } else {
                    v.negative()
                }
            } else {
                // assign l with l absent: shrink remaining occurrences
                if pos_active == 0 {
                    v.positive()
                } else {
                    v.negative()
                }
            };
            self.stats.pures += 1;
            self.assign(lit, Reason::Pure);
            self.observer.on_propagation(
                lit,
                self.current_level(),
                self.trail.len(),
                PropagationKind::Pure,
            );
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    /// Collects available unassigned variables: every `≺`-predecessor (i.e.
    /// every variable in a strict ancestor block) is assigned.
    fn candidates(&self) -> Vec<Var> {
        let prefix = self.prefix();
        let mut cands = Vec::new();
        let mut stack: Vec<BlockId> = prefix.roots().to_vec();
        while let Some(b) = stack.pop() {
            let unassigned = self.block_unassigned[b.index()];
            if unassigned > 0 {
                for &v in prefix.block_vars(b) {
                    if self.value[v.index()].is_none() {
                        cands.push(v);
                    }
                }
                // children unavailable until this block is complete
                continue;
            }
            stack.extend(prefix.block_children(b).iter().copied());
        }
        cands
    }

    /// Collects the available *blocks* (same walk as [`Solver::candidates`]
    /// without expanding to variables): blocks with an unassigned variable
    /// whose ancestor blocks are all complete.
    fn available_blocks(&self) -> Vec<BlockId> {
        let prefix = self.prefix();
        let mut blocks = Vec::new();
        let mut stack: Vec<BlockId> = prefix.roots().to_vec();
        while let Some(b) = stack.pop() {
            if self.block_unassigned[b.index()] > 0 {
                blocks.push(b);
                // children unavailable until this block is complete
                continue;
            }
            stack.extend(prefix.block_children(b).iter().copied());
        }
        blocks
    }

    /// Picks and assigns a branching literal; `false` if none is available.
    ///
    /// Scored heuristics pick incrementally from the per-block heaps
    /// (no O(candidates) scan); `Random` keeps the scan path because its
    /// choice is positional in the candidate vector.
    fn decide(&mut self) -> bool {
        let lit = if self.brancher.uses_heaps() {
            let blocks = self.available_blocks();
            let lit = self
                .brancher
                .pick_incremental(self.qbf.prefix(), &blocks, &self.value);
            // Debug builds cross-check every incremental pick against the
            // legacy full scan, so the differential suite doubles as a
            // heap-vs-scan equivalence proof.
            #[cfg(debug_assertions)]
            {
                let cands = self.candidates();
                let scan = self.brancher.pick(self.qbf.prefix(), &cands);
                debug_assert_eq!(lit, scan, "incremental pick diverged from the scan");
            }
            lit
        } else {
            let cands = self.candidates();
            self.brancher.pick(self.qbf.prefix(), &cands)
        };
        match lit {
            None => false,
            Some(lit) => {
                // Resource gauges are sampled at decision boundaries:
                // frequent enough for a time-series, far off the
                // propagation hot path.
                self.observer
                    .on_gauge(EngineGauge::ArenaBytes, self.db.arena_bytes() as u64);
                self.observer.on_gauge(
                    EngineGauge::LearnedConstraints,
                    (self.db.num_learned_clauses + self.db.num_learned_cubes) as u64,
                );
                self.observer
                    .on_gauge(EngineGauge::TrailDepth, self.trail.len() as u64);
                self.push_decision(lit, false, None);
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // Conflict and solution analysis (nogood and good learning)
    // ------------------------------------------------------------------

    /// Handles an event of the side: a conflict on clause `start`
    /// (`CUBE = false`), or a solution (`CUBE = true`) on the validated
    /// cube `start`, or on the satisfied matrix when `start` is `None`.
    /// `Some(value)` ends the search.
    fn handle<const CUBE: bool>(&mut self, start: Option<ConstraintRef>) -> Option<bool> {
        let (level, depth) = (self.current_level(), self.trail.len());
        let phase = if CUBE {
            self.stats.solutions += 1;
            self.observer.on_solution(level, depth);
            Phase::SolutionAnalysis
        } else {
            self.stats.conflicts += 1;
            self.observer.on_conflict(level, depth);
            Phase::ConflictAnalysis
        };
        self.tick_decay();
        self.observer.on_phase_start(phase);
        let done = self.analyze::<CUBE>(start);
        self.observer.on_phase_end(phase);
        done
    }

    /// Learns a constraint from the event and unwinds the decision stack
    /// guided by it; without learning, takes the chronological step.
    fn analyze<const CUBE: bool>(&mut self, start: Option<ConstraintRef>) -> Option<bool> {
        if CUBE {
            self.stats.solution_depth_sum += self.trail.len() as u64;
        }
        if !self.config.learning {
            return self.chrono::<CUBE>();
        }
        let mut lits = match start {
            Some(c) => self.db.lits(c).to_vec(),
            None => self.matrix_implicant(),
        };
        if P::ENABLED {
            match start {
                Some(c) => self.proof.chain_start(c.token(), &lits, CUBE),
                None => self.proof.chain_init_cube(&lits),
            }
        }
        self.analysis_mark = start.map_or(0, |c| self.db.frame_mark(c));
        self.resolve::<CUBE>(&mut lits);
        self.reduce::<CUBE>(&mut lits);
        if P::ENABLED {
            self.proof.chain_reduce(self.qbf.prefix());
        }
        if lits.is_empty() {
            self.proof_finish(CUBE);
            return Some(CUBE);
        }
        if CUBE {
            self.stats.cube_size_sum += lits.len() as u64;
        }
        let cref = self.learn(lits.clone(), Kind::of(CUBE));
        self.unwind::<CUBE>(lits, cref)
    }

    /// Builds an implicant of the original matrix from the current
    /// assignment (model generation): one true literal per clause,
    /// preferring inner existential literals so that existential reduction
    /// shrinks the good (cf. the §VII-C discussion of PO goods).
    fn matrix_implicant(&mut self) -> Vec<Lit> {
        // `lit_mark` mirrors `chosen` so the already-covered test is O(1)
        // per literal instead of a scan of the chosen set per clause.
        let mut chosen: Vec<Lit> = Vec::new();
        for c in self.db.original_refs() {
            debug_assert!(!self.db.is_learned(c));
            let lits = self.db.lits(c);
            if lits.iter().any(|&l| self.lit_mark[l.code()]) {
                continue;
            }
            let best = lits
                .iter()
                .copied()
                .filter(|&l| self.lit_value(l) == Some(true))
                .max_by_key(|&l| {
                    // Existential literals first (inner ones reduce away
                    // entirely); among universal literals prefer the
                    // earliest-assigned so the learned good enables deep
                    // backjumps.
                    if self.is_existential(l.var()) {
                        (1, self.prefix().level(l.var()).unwrap_or(u32::MAX) as i64)
                    } else {
                        (0, -(self.trail_pos[l.var().index()] as i64))
                    }
                })
                .expect("solution trigger requires every original clause satisfied");
            self.lit_mark[best.code()] = true;
            chosen.push(best);
        }
        for &l in chosen.iter() {
            self.lit_mark[l.code()] = false;
        }
        chosen
    }

    /// Resolves away every watched-quantifier literal set against the
    /// constraint that has a reason of the side's kind — Q-resolution on
    /// existential pivots for clauses, term resolution on universal pivots
    /// for cubes — latest-assigned first, skipping steps that would
    /// produce a tautological or settled resolvent.
    ///
    /// The pivots are found by walking the trail backwards. Every
    /// watched-quantifier literal of a reason is assigned before the
    /// literal it propagates (`examine` and `unit_for` require it), so a
    /// step only adds pivot candidates below the current trail position,
    /// and a resolved or skipped pivot is never met again.
    fn resolve<const CUBE: bool>(&mut self, lits: &mut Vec<Lit>) {
        // `lit_mark` mirrors the content of `lits` throughout so the
        // membership tests below are O(1) instead of a scan per reason
        // literal; it is left all-false on return. `pending` counts the
        // members set against the constraint on the watched quantifier
        // that the walk has not reached yet.
        let mut pending = 0usize;
        for &l in lits.iter() {
            self.lit_mark[l.code()] = true;
            if self.against::<CUBE>(l) && self.is_watched::<CUBE>(l.var()) {
                pending += 1;
            }
        }
        let mut i = self.trail.len();
        while pending > 0 {
            i -= 1;
            // The working constraint holds ¬t in a clause, t in a cube.
            let t = self.trail[i];
            let m = if CUBE { t } else { !t };
            let v = m.var();
            if !self.lit_mark[m.code()] || !self.is_watched::<CUBE>(v) {
                continue;
            }
            pending -= 1;
            let Reason::Constraint(r) = self.reason[v.index()] else {
                continue;
            };
            if r.kind() != Kind::of(CUBE) {
                continue;
            }
            // Check the reason's side literals.
            let ok = self
                .db
                .lits(r)
                .iter()
                .all(|&x| x == !m || !(self.settles::<CUBE>(x) || self.lit_mark[(!x).code()]));
            if !ok {
                continue;
            }
            // The pivot leaves `lits` at the end of the walk: dropping the
            // unmarked entries then keeps the order that removing each
            // pivot on the spot would.
            self.lit_mark[m.code()] = false;
            for k in 0..self.db.len(r) {
                let x = self.db.lit(r, k);
                if x != !m && !self.lit_mark[x.code()] {
                    self.lit_mark[x.code()] = true;
                    lits.push(x);
                    if self.against::<CUBE>(x) && self.is_watched::<CUBE>(x.var()) {
                        debug_assert!((self.trail_pos[x.var().index()] as usize) < i);
                        pending += 1;
                    }
                }
            }
            // The step actually used `r`: the learned constraint inherits
            // its frame dependencies (skipped steps leave the pivot in
            // place, so the constraint stays derivable without the skipped
            // reason).
            self.analysis_mark = self.analysis_mark.max(self.db.frame_mark(r));
            if P::ENABLED {
                let rl = self.db.lits(r).to_vec();
                self.proof.chain_resolve(self.qbf.prefix(), r.token(), &rl, m);
            }
        }
        lits.retain(|&l| self.lit_mark[l.code()]);
        for &l in lits.iter() {
            self.lit_mark[l.code()] = false;
        }
    }

    /// Lemma 3 and its dual: drops every literal of the other quantifier
    /// that precedes no watched-quantifier literal of the constraint
    /// (universal reduction of a clause, existential reduction of a cube).
    fn reduce<const CUBE: bool>(&mut self, lits: &mut Vec<Lit>) {
        let prefix = self.qbf.prefix();
        self.claims.claim(prefix, lits, CUBE);
        lits.retain(|&l| {
            self.is_watched::<CUBE>(l.var()) || self.claims.blocked(prefix, l).is_some()
        });
        self.claims.clear();
    }

    fn learn(&mut self, lits: Vec<Lit>, kind: Kind) -> ConstraintRef {
        // Cube derivations never meet a push-frame mark: an implicant of a
        // matrix is an implicant of every sub-matrix, so goods survive
        // `pop` unconditionally.
        debug_assert!(
            kind == Kind::Clause || self.analysis_mark == 0,
            "a cube derivation picked up a push-frame mark"
        );
        let cref = self.attach(lits, kind, true);
        // Incremental frame dependency of the derivation accumulated by
        // the current analysis (0 in one-shot mode).
        self.db.set_frame_mark(cref, self.analysis_mark);
        self.brancher.on_learn(self.db.lits(cref));
        let lkind = match kind {
            Kind::Clause => {
                self.stats.learned_clauses += 1;
                LearnedKind::Clause
            }
            Kind::Cube => {
                self.stats.learned_cubes += 1;
                LearnedKind::Cube
            }
        };
        // Asserting level for the observer: the second-highest distinct
        // decision level among the constraint's assigned literals — the
        // deepest level the unwind could jump back to while keeping the
        // constraint unit (0 when all literals share one level).
        let (mut highest, mut second) = (0u32, 0u32);
        for &l in self.db.lits(cref) {
            if self.lit_value(l).is_none() {
                continue;
            }
            let lv = self.level[l.var().index()];
            if lv > highest {
                second = highest;
                highest = lv;
            } else if lv < highest && lv > second {
                second = lv;
            }
        }
        self.observer.on_learned(lkind, self.db.len(cref), second);
        if P::ENABLED {
            let ll = self.db.lits(cref).to_vec();
            self.proof.chain_learn(cref.token(), &ll);
        }
        if let Some(conn) = self.share.as_deref_mut() {
            // Offer the (possibly strengthened) stored form to the
            // portfolio pool; the connection applies the length filter
            // and, in deterministic mode, defers publication to the
            // epoch barrier. Only own derivations reach this point —
            // imports attach via `import_constraint`, so nothing is ever
            // re-exported.
            conn.offer(self.db.lits(cref), kind == Kind::Cube);
        }
        cref
    }

    /// Adds a constraint to the database with its movable watches and,
    /// for a clause, its unblock sentinels: the one place that orders
    /// literals for watching (originals, learned constraints and imports
    /// alike).
    ///
    /// `Db::add` watches the first (up to) two positions, and movable
    /// watches must rest on the constraint's watched quantifier (see the
    /// module docs). So the watched-quantifier literals go first, and
    /// among them the literals the upcoming unwind will unassign *last* —
    /// unassigned literals first, then by descending trail position. This
    /// generalizes the classic "watch the two highest decision levels"
    /// rule and keeps the constraint's unit status detectable after
    /// backtracking. Under the empty assignment (original clauses) the
    /// order is just watched quantifier first, stable otherwise. The
    /// stored constraint thus starts with its *watched prefix*, which the
    /// replacement search of `propagate_watches` relies on (module docs).
    fn attach(&mut self, mut lits: Vec<Lit>, kind: Kind, learned: bool) -> ConstraintRef {
        let cube = kind == Kind::Cube;
        lits.sort_by_cached_key(|l| {
            let unwatched = self.is_existential(l.var()) == cube;
            let pos_key = match self.value[l.var().index()] {
                None => i64::MIN,
                Some(_) => -(self.trail_pos[l.var().index()] as i64),
            };
            (unwatched, pos_key)
        });
        let movable = lits
            .iter()
            .take(2)
            .filter(|l| self.is_existential(l.var()) != cube)
            .count();
        // Shadow counters (debug-counters) reflect *all* current
        // assignments: the shadow discipline updates counters at assign
        // time (trail push), not at propagation-queue processing time.
        let (mut t, mut f) = (0, 0);
        for &l in &lits {
            match self.lit_value(l) {
                Some(true) => t += 1,
                Some(false) => f += 1,
                None => {}
            }
        }
        let cref = self.db.add(lits, kind, learned, movable, t, f);
        self.stats.arena_bytes_peak = self.stats.arena_bytes_peak.max(self.db.bytes_peak as u64);
        if !cube {
            self.attach_unblock_sentinels(cref);
        }
        if learned {
            self.db.set_activity(cref, self.stats.conflicts as f64);
        }
        cref
    }

    /// Registers pinned unblock sentinels for clause `cref` (see
    /// [`super::db`]): one permanent watcher per universal literal that
    /// `≺`-precedes some existential literal of the clause. Such literals
    /// are exactly the ones whose falsification can *unblock* a Lemma 5
    /// unit; the sentinel guarantees that event always triggers an
    /// examination. The blocker is the first existential literal, in
    /// stored order, that the sentinel's literal precedes, enabling the
    /// settled fast path on visits. Cubes get none (module docs).
    fn attach_unblock_sentinels(&mut self, cref: ConstraintRef) {
        debug_assert_eq!(cref.kind(), Kind::Clause, "cubes get no unblock sentinels");
        let prefix = self.qbf.prefix();
        let Solver { db, claims, .. } = self;
        claims.claim(prefix, db.lits(cref), false);
        for k in 0..db.len(cref) {
            let b = db.lit(cref, k);
            if prefix.is_existential(b.var()) {
                continue; // a watched-quantifier literal
            }
            if let Some(w) = claims.blocked(prefix, b) {
                db.watch_clause[b.code()].push(Watcher::new(cref, w, true));
            }
        }
        claims.clear();
    }

    /// Unwinds the decision stack guided by a learned constraint of the
    /// side (a falsified clause or a satisfied cube).
    fn unwind<const CUBE: bool>(
        &mut self,
        mut lits: Vec<Lit>,
        mut cref: ConstraintRef,
    ) -> Option<bool> {
        let mut dirty = false;
        loop {
            if self.frames.is_empty() {
                self.proof_finish(CUBE);
                return Some(CUBE);
            }
            let k = self.current_level();
            let frame = *self.frames.last().expect("non-empty stack");
            let d = frame.lit;
            // The constraint's literal on d's variable, when the level
            // matters: ¬d in a falsified clause, d in a satisfied cube.
            let dl = if CUBE { d } else { !d };
            // Count the level-k literals without materializing them; only
            // the count and the first hit are ever consulted.
            let mut at_k = 0usize;
            let mut at_k_first = d;
            for &m in lits.iter() {
                if self.lit_value(m).is_some() && self.level[m.var().index()] == k {
                    if at_k == 0 {
                        at_k_first = m;
                    }
                    at_k += 1;
                }
            }
            if at_k == 0 {
                // The event does not depend on level k at all.
                self.stats.backjumps += 1;
                self.backtrack_one();
                self.observer.on_backjump(k, self.current_level());
                continue;
            }
            if at_k != 1 || at_k_first != dl {
                // Other level-k literals block backjumping past this level.
                return self.chrono::<CUBE>();
            }
            if self.is_watched::<CUBE>(d.var()) {
                if !frame.flipped {
                    if dirty {
                        cref = self.learn(lits.clone(), Kind::of(CUBE));
                    }
                    self.backtrack_one();
                    if self.unit_for::<CUBE>(&lits, dl) {
                        let kind = if CUBE {
                            PropagationKind::UnitCube
                        } else {
                            PropagationKind::UnitClause
                        };
                        self.stats.propagations += 1;
                        self.assign(!d, Reason::Constraint(cref));
                        self.observer
                            .on_propagation(!d, self.current_level(), self.trail.len(), kind);
                    } else {
                        self.push_decision(!d, true, Some(cref));
                    }
                    return None;
                }
                // Both branches of d failed: combine with the constraint
                // that refuted the first branch, if resolution is legal.
                let Some(pr) = frame.pseudo_reason else {
                    return self.chrono::<CUBE>();
                };
                let Some(mut combined) = self.try_resolve::<CUBE>(&lits, pr, d) else {
                    return self.chrono::<CUBE>();
                };
                self.analysis_mark = self.analysis_mark.max(self.db.frame_mark(pr));
                if P::ENABLED {
                    let pl = self.db.lits(pr).to_vec();
                    self.proof.chain_resolve(self.qbf.prefix(), pr.token(), &pl, dl);
                }
                self.reduce::<CUBE>(&mut combined);
                if P::ENABLED {
                    self.proof.chain_reduce(self.qbf.prefix());
                }
                lits = combined;
            } else {
                // A decision of the other quantifier: one failing branch
                // already decides its node (a false branch falsifies a ∀
                // node, a true branch satisfies an ∃ node). Keep unwinding
                // only if dl reduces out of the constraint.
                let blocked = lits.iter().any(|&w| {
                    self.is_watched::<CUBE>(w.var()) && self.prefix().precedes(d.var(), w.var())
                });
                if blocked {
                    return self.chrono::<CUBE>();
                }
                lits.retain(|&m| m != dl);
                if P::ENABLED {
                    self.proof.chain_remove(self.qbf.prefix(), dl);
                }
            }
            if lits.is_empty() {
                self.proof_finish(CUBE);
                return Some(CUBE);
            }
            dirty = true;
            self.stats.backjumps += 1;
            self.backtrack_one();
            self.observer.on_backjump(k, self.current_level());
        }
    }

    /// Resolves `lits` on the variable of the flipped decision `d` with
    /// `pr`, the constraint that refuted d's first branch (Q-resolution
    /// for clauses, term resolution for cubes); `None` if the step would
    /// be tautological or pull in a settling literal.
    fn try_resolve<const CUBE: bool>(
        &self,
        lits: &[Lit],
        pr: ConstraintRef,
        d: Lit,
    ) -> Option<Vec<Lit>> {
        // `lits` holds the second branch's literal on d (¬d in a clause,
        // d in a cube); `pr` refuted the first branch, so it must hold the
        // complement.
        let reason = self.db.lits(pr);
        if !reason.contains(&if CUBE { !d } else { d }) {
            return None;
        }
        let mut out: Vec<Lit> = lits.iter().copied().filter(|&m| m != d && m != !d).collect();
        for &x in reason {
            if x == !d || x == d {
                continue;
            }
            if self.settles::<CUBE>(x) || out.contains(&!x) {
                return None;
            }
            if !out.contains(&x) {
                out.push(x);
            }
        }
        Some(out)
    }

    /// Whether the constraint is unit on its literal `w` right now: every
    /// other literal is set against it, except open literals of the other
    /// quantifier that do not precede `w`.
    fn unit_for<const CUBE: bool>(&self, lits: &[Lit], w: Lit) -> bool {
        lits.iter().all(|&m| {
            m == w
                || match self.lit_value(m) {
                    Some(value) => value == CUBE,
                    None => {
                        !self.is_watched::<CUBE>(m.var())
                            && !self.prefix().precedes(m.var(), w.var())
                    }
                }
        })
    }

    /// Chronological fallback: flip the most recent unflipped decision of
    /// the side's watched quantifier — existential on conflicts, universal
    /// on solutions (a node of the other quantifier is decided as soon as
    /// one branch is).
    fn chrono<const CUBE: bool>(&mut self) -> Option<bool> {
        self.stats.chrono_backtracks += 1;
        let from = self.current_level();
        loop {
            let Some(frame) = self.frames.last().copied() else {
                self.observer.on_chrono_backtrack(from, 0);
                self.proof_finish(CUBE);
                return Some(CUBE);
            };
            if self.is_watched::<CUBE>(frame.lit.var()) && !frame.flipped {
                let d = frame.lit;
                // Discharge the frame's propagations so the working
                // constraint depends on level k only through the decision
                // itself; the flip then carries it as its shadow
                // refutation.
                if P::ENABLED {
                    self.proof_drain_trail(frame.trail_start + 1, CUBE);
                }
                self.backtrack_one();
                self.observer.on_chrono_backtrack(from, self.current_level());
                self.push_decision(!d, true, None);
                return None;
            }
            if P::ENABLED {
                self.proof_drain_trail(frame.trail_start + 1, CUBE);
                self.proof.chain_absorb_frame(
                    self.qbf.prefix(),
                    frame.lit,
                    self.is_existential(frame.lit.var()),
                );
            }
            self.backtrack_one();
        }
    }

    // ------------------------------------------------------------------
    // Portfolio hooks: cancellation, epoch stepping and constraint import
    // ------------------------------------------------------------------

    /// Installs a cooperative cancellation flag. Once any thread stores
    /// `true`, the next decision boundary (top of the search loop) makes
    /// the solver return a budget outcome (`Outcome::value() == None`),
    /// so a worker observes cancellation within one
    /// conflict/solution/decision step.
    pub fn set_stop_flag(&mut self, stop: Arc<AtomicBool>) {
        self.stop = Some(stop);
    }

    /// Attaches a portfolio sharing connection. Sharing is incompatible
    /// with proof logging (imported constraints have no local
    /// derivation), which the portfolio driver enforces; debug-assert it
    /// here too.
    pub(crate) fn attach_share(&mut self, conn: Box<ShareConn>) {
        debug_assert!(!P::ENABLED, "constraint sharing under proof logging");
        self.share = Some(conn);
    }

    /// The sharing connection, if any (the portfolio driver reads its
    /// outbox and counters between epochs).
    pub(crate) fn share_conn_mut(&mut self) -> Option<&mut ShareConn> {
        self.share.as_deref_mut()
    }

    /// Sets the inclusive assignment-count pause point for deterministic
    /// epoch stepping (see the `epoch_limit` field).
    pub(crate) fn set_epoch_limit(&mut self, limit: Option<u64>) {
        self.epoch_limit = limit;
    }

    /// The statistics accumulated so far (the portfolio driver reports
    /// per-worker stats even for workers that never finish a `solve_mut`
    /// call normally).
    pub(crate) fn current_stats(&self) -> Stats {
        self.stats
    }

    /// Decision-boundary import point: attaches every constraint staged
    /// by the sharing layer and returns whether anything was attached
    /// (the caller then re-enters propagation before deciding). Stops
    /// early when an attached constraint immediately conflicts or
    /// validates, parking the event in `pending_event`; the remaining
    /// staged imports survive until the next boundary.
    fn drain_imports(&mut self) -> bool {
        if self.share.is_none() {
            return false;
        }
        if let Some(conn) = self.share.as_deref_mut() {
            conn.poll();
        }
        let mut attached = false;
        loop {
            let next = self.share.as_deref_mut().and_then(ShareConn::take_staged);
            let Some((lits, cube)) = next else {
                break;
            };
            let cref = self.import_constraint(lits, Kind::of(cube));
            attached = true;
            let event = if cube {
                self.examine::<true>(cref).event()
            } else {
                self.examine::<false>(cref).event()
            };
            if let Some(ev) = event {
                self.pending_event = Some(ev);
                break;
            }
        }
        attached
    }

    /// Adds one imported (peer-learned) constraint to the database with
    /// exactly the watch ordering, sentinels (clauses only) and metadata
    /// `learn` would give a local derivation — but without touching the
    /// learned-count statistics or the proof log: imports are the
    /// *exporter's* derivations, accounted by the sharing connection
    /// instead. Any unit propagation it triggers is assigned at the
    /// current decision level, so a later unwind retracts it like any
    /// other propagation. Imports are consequences of the shared
    /// bottom-frame matrix only (the portfolio never runs under push
    /// frames), so they carry no frame mark.
    fn import_constraint(&mut self, lits: Vec<Lit>, kind: Kind) -> ConstraintRef {
        let cref = self.attach(lits, kind, true);
        self.brancher.on_learn(self.db.lits(cref));
        cref
    }

    // ------------------------------------------------------------------
    // Database reduction
    // ------------------------------------------------------------------

    fn maybe_reduce_db(&mut self) {
        let learned = self.db.num_learned_clauses + self.db.num_learned_cubes;
        if learned <= self.config.max_learned {
            return;
        }
        self.observer.on_phase_start(Phase::ReduceDb);
        self.reduce_db();
        self.observer.on_phase_end(Phase::ReduceDb);
    }

    fn reduce_db(&mut self) {
        // Locked constraints: trail reasons and frame pseudo-reasons.
        let mut locked: std::collections::HashSet<ConstraintRef> = std::collections::HashSet::new();
        for &l in &self.trail {
            if let Reason::Constraint(c) = self.reason[l.var().index()] {
                locked.insert(c);
            }
        }
        for f in &self.frames {
            if let Some(c) = f.pseudo_reason {
                locked.insert(c);
            }
        }
        // Forget the least active half; the stable sort over the
        // creation-order index breaks activity ties by creation order,
        // reproducing the pre-arena sweep exactly.
        let mut candidates: Vec<ConstraintRef> = self
            .db
            .learned_refs()
            .iter()
            .copied()
            .filter(|c| !self.db.is_deleted(*c) && !locked.contains(c))
            .collect();
        candidates.sort_by(|a, b| {
            self.db
                .activity(*a)
                .partial_cmp(&self.db.activity(*b))
                .expect("activities are finite")
        });
        let drop_count = candidates.len() / 2;
        for &c in candidates.iter().take(drop_count) {
            let lits = self.db.lits(c).to_vec();
            self.brancher.on_forget(&lits);
            if P::ENABLED {
                self.proof.on_delete(c.token());
            }
            self.db.delete(c);
            self.stats.forgotten += 1;
        }
        if drop_count > 0 {
            self.observer.on_forget(drop_count);
        }
        // Physically reclaim tombstones once they dominate the arena;
        // otherwise just drop their watcher entries. Either path removes
        // exactly the deleted constraints' watchers, in list order, so
        // search behaviour (including `watcher_visits`) is unaffected.
        if self.config.compact_db && self.db.wants_compaction() {
            self.compact_db();
        } else {
            self.db.purge_watchers();
        }
    }

    /// Runs arena compaction and relocates the refs the engine holds
    /// outside the database: antecedent/reason refs and frame
    /// pseudo-reasons. Reason refs of *unassigned* variables are stale and
    /// may point at reclaimed constraints; they are reset to `Decision`
    /// (they are never read while the variable is unassigned). Reasons of
    /// assigned variables and pseudo-reasons are locked against deletion,
    /// so their remap always succeeds.
    fn compact_db(&mut self) {
        self.observer.on_phase_start(Phase::Compaction);
        // Compaction renames `ConstraintRef`s, which the proof sink uses
        // as tokens: rebuild the sink's token map from the map's (old, new)
        // pairs of the surviving constraints.
        let map = self.db.compact();
        if P::ENABLED {
            let pairs: Vec<(u64, u64)> =
                map.pairs().map(|(c, nc)| (c.token(), nc.token())).collect();
            self.proof.remap_tokens(&pairs);
        }
        for v in 0..self.reason.len() {
            if let Reason::Constraint(c) = self.reason[v] {
                self.reason[v] = match map.remap(c) {
                    Some(nc) => Reason::Constraint(nc),
                    None => {
                        debug_assert!(
                            self.value[v].is_none(),
                            "reason of an assigned variable was reclaimed"
                        );
                        Reason::Decision
                    }
                };
            }
        }
        for f in &mut self.frames {
            if let Some(c) = f.pseudo_reason {
                f.pseudo_reason = map.remap(c);
                debug_assert!(f.pseudo_reason.is_some(), "pinned pseudo-reason reclaimed");
            }
        }
        self.stats.compactions += 1;
        self.stats.arena_bytes_reclaimed += map.reclaimed_bytes as u64;
        self.observer.on_compaction(map.reclaimed_bytes);
        self.observer.on_phase_end(Phase::Compaction);
    }

    // ------------------------------------------------------------------
    // Incremental solving support (see `super::incremental`)
    // ------------------------------------------------------------------

    /// Backtracks every decision level and pops the residual level-0
    /// trail, returning the solver to the empty assignment. Watcher lists
    /// are untouched (they are backtrack-invariant); learned constraints,
    /// activity scores and frame marks survive. Every incremental
    /// operation starts from this state.
    pub(crate) fn reset_search(&mut self) {
        while !self.frames.is_empty() {
            self.backtrack_one();
        }
        while let Some(l) = self.trail.pop() {
            self.unassign(l);
        }
        self.qhead = 0;
        // Candidates queued by the unassignments above (and any leftovers
        // from the previous query) are stale; each solve re-seeds.
        self.pure_candidates.clear();
        // The next solve is a fresh query: redo the initial scan, and
        // drop any event parked by a portfolio import (its constraint is
        // no longer falsified/validated under the empty assignment).
        self.search_started = false;
        self.pending_event = None;
    }

    /// Resets the per-query statistics, carrying over the arena
    /// high-water mark (a property of the database, not of one query).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = Stats {
            arena_bytes_peak: self.db.bytes_peak as u64,
            ..Stats::default()
        };
    }

    /// Adds an original clause tagged with push frame `frame` (0 for the
    /// bottom frame). Requires the empty assignment ([`Solver::reset_search`]).
    ///
    /// Every learned cube is invalidated: a good certifies an implicant of
    /// the matrix at learn time, and the grown matrix may no longer be
    /// satisfied by it. Learned clauses are Q-resolution consequences of a
    /// subset of the (grown) matrix and survive unconditionally.
    pub(crate) fn add_original_clause(&mut self, lits: Vec<Lit>, frame: u32) {
        debug_assert!(self.trail.is_empty(), "add_original_clause on a non-empty trail");
        let cref = self.attach(lits, Kind::Clause, false);
        self.brancher.on_learn(self.db.lits(cref));
        self.db.set_frame_mark(cref, frame);
        for &l in self.db.lits(cref) {
            self.active_occ[l.code()] += 1;
        }
        self.invalidate_cubes();
    }

    /// Deletes every live learned cube (called when the matrix grows).
    fn invalidate_cubes(&mut self) {
        let doomed: Vec<ConstraintRef> = self
            .db
            .learned_refs()
            .iter()
            .copied()
            .filter(|&c| c.kind() == Kind::Cube && !self.db.is_deleted(c))
            .collect();
        for c in doomed {
            let lits = self.db.lits(c).to_vec();
            self.brancher.on_forget(&lits);
            self.db.delete(c);
        }
    }

    /// Incremental `pop` to `level`: removes every original clause added
    /// in a higher frame and every learned clause whose derivation used
    /// one (frame mark above `level`). Learned cubes, lower-frame learned
    /// clauses, activity scores and the quantifier-tree caches survive.
    /// Requires the empty assignment ([`Solver::reset_search`]).
    pub(crate) fn invalidate_frames_above(&mut self, level: u32) {
        debug_assert!(self.trail.is_empty(), "pop on a non-empty trail");
        let doomed: Vec<ConstraintRef> = self
            .db
            .learned_refs()
            .iter()
            .copied()
            .filter(|&c| !self.db.is_deleted(c) && self.db.frame_mark(c) > level)
            .collect();
        for c in doomed {
            let lits = self.db.lits(c).to_vec();
            self.brancher.on_forget(&lits);
            self.db.delete(c);
        }
        for c in self.db.remove_originals_above(level) {
            let lits = self.db.lits(c).to_vec();
            for &l in &lits {
                self.active_occ[l.code()] -= 1;
            }
            self.brancher.on_forget(&lits);
        }
    }

    /// Reclaims tombstoned constraints between queries when garbage
    /// dominates. With an empty trail every reason ref is stale, so the
    /// remap in `compact_db` degrades gracefully to `Decision`.
    pub(crate) fn maybe_compact_between_queries(&mut self) {
        debug_assert!(self.trail.is_empty());
        if self.config.compact_db && self.db.wants_compaction() {
            self.compact_db();
        } else {
            self.db.purge_watchers();
        }
    }
}

/// The owned search state of a [`Solver`], detached from the borrowed
/// instance. [`Solver::into_session`] / [`Solver::from_session`] move the
/// state out of and back into a solver, letting an owner (the incremental
/// front end) keep learned constraints, heuristic scores and statistics
/// alive across queries without a self-referential struct.
#[derive(Debug)]
pub(crate) struct Session {
    config: SolverConfig,
    db: Db,
    brancher: Brancher,
    value: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail_pos: Vec<u32>,
    trail: Vec<Lit>,
    qhead: usize,
    frames: Vec<Frame>,
    block_unassigned: Vec<u32>,
    active_occ: Vec<u32>,
    pure_candidates: Vec<Var>,
    stats: Stats,
    conflicts_since_decay: u64,
    analysis_mark: u32,
    lit_mark: Vec<bool>,
}

impl<O: SearchObserver, P: ProofSink> Solver<'_, O, P> {
    /// Detaches the owned search state (ends the borrow of the QBF and
    /// drops the instruments — sessions persist search state only).
    pub(crate) fn into_session(self) -> Session {
        Session {
            config: self.config,
            db: self.db,
            brancher: self.brancher,
            value: self.value,
            level: self.level,
            reason: self.reason,
            trail_pos: self.trail_pos,
            trail: self.trail,
            qhead: self.qhead,
            frames: self.frames,
            block_unassigned: self.block_unassigned,
            active_occ: self.active_occ,
            pure_candidates: self.pure_candidates,
            stats: self.stats,
            conflicts_since_decay: self.conflicts_since_decay,
            analysis_mark: self.analysis_mark,
            lit_mark: self.lit_mark,
        }
    }
}

impl<'a> Solver<'a> {
    /// Re-attaches a detached session to its QBF. The caller must pass
    /// the same formula the session was created from (the incremental
    /// front end owns both, so the pairing is by construction).
    pub(crate) fn from_session(qbf: &'a Qbf, s: Session) -> Self {
        Solver::from_session_observed(qbf, s, NoopObserver)
    }
}

impl<'a, O: SearchObserver> Solver<'a, O> {
    /// [`Solver::from_session`] with a live observer attached for the
    /// duration of the borrow — how the incremental front end routes
    /// per-query progress/trace events without giving up the statically
    /// no-op default path (see `IncrementalSolver::solve_observed`).
    pub(crate) fn from_session_observed(qbf: &'a Qbf, s: Session, observer: O) -> Self {
        Solver {
            qbf,
            config: s.config,
            db: s.db,
            brancher: s.brancher,
            observer,
            proof: NoProof,
            value: s.value,
            level: s.level,
            reason: s.reason,
            trail_pos: s.trail_pos,
            trail: s.trail,
            qhead: s.qhead,
            frames: s.frames,
            block_unassigned: s.block_unassigned,
            active_occ: s.active_occ,
            pure_candidates: s.pure_candidates,
            stats: s.stats,
            conflicts_since_decay: s.conflicts_since_decay,
            analysis_mark: s.analysis_mark,
            lit_mark: s.lit_mark,
            claims: BlockClaims::new(qbf.prefix()),
            // Portfolio hooks never persist across a session detach: a
            // re-attached view is a fresh query.
            search_started: false,
            epoch_limit: None,
            stop: None,
            share: None,
            pending_event: None,
        }
    }
}

// ----------------------------------------------------------------------
// Shadow counter oracle (`debug-counters`)
// ----------------------------------------------------------------------

/// The seed engine's eager per-constraint counter discipline, run in
/// shadow next to the watched propagator. It performs exactly the counter
/// updates the counter-based engine would perform (over full occurrence
/// lists, for every constraint, at assign/unassign time) and never feeds
/// a search decision, so the watched build's statistics are untouched;
/// [`Solver::shadow_verify`] then cross-checks the two propagators'
/// conclusions at every propagation fixpoint.
#[cfg(feature = "debug-counters")]
impl<O: SearchObserver, P: ProofSink> Solver<'_, O, P> {
    fn shadow_assign(&mut self, lit: Lit) {
        // The satisfaction tracker in `assign` already maintains
        // `true_count` for original clauses; the shadow adds the learned
        // constraints' true counts and everyone's false counts.
        for i in 0..self.db.occ_shadow[lit.code()].len() {
            let c = self.db.occ_shadow[lit.code()][i];
            if self.db.is_learned(c) {
                *self.db.true_count_mut(c) += 1;
            }
        }
        let neg = !lit;
        for i in 0..self.db.occ_shadow[neg.code()].len() {
            let c = self.db.occ_shadow[neg.code()][i];
            *self.db.false_count_mut(c) += 1;
        }
    }

    fn shadow_unassign(&mut self, lit: Lit) {
        for i in 0..self.db.occ_shadow[lit.code()].len() {
            let c = self.db.occ_shadow[lit.code()][i];
            if self.db.is_learned(c) {
                *self.db.true_count_mut(c) -= 1;
            }
        }
        let neg = !lit;
        for i in 0..self.db.occ_shadow[neg.code()].len() {
            let c = self.db.occ_shadow[neg.code()][i];
            *self.db.false_count_mut(c) -= 1;
        }
    }

    /// Cross-checks the watched propagator against the counter discipline
    /// at a no-event propagation fixpoint:
    ///
    /// 1. every live constraint's counters equal a from-scratch recount
    ///    (the eager discipline is event-for-event intact), and
    /// 2. no constraint is conflicting (clauses) or validated (cubes),
    ///    and no *original* clause is unit — i.e. the counter engine,
    ///    which scans occurrence lists eagerly, would not have found an
    ///    event the watched indices missed. This is the *tightness* claim
    ///    of the watched-quantifier + clause-sentinel discipline (see
    ///    the module docs), checked at every fixpoint of every run.
    ///
    ///    Learned constraints are exempt from the *unit* half only: the
    ///    QUBE-style unwind asserts a flipped literal one level up, which
    ///    may sit above the levels of the constraint's other literals, so
    ///    a later backjump can pop the asserted literal alone and
    ///    re-expose the unit with no assignment event. The seed counter
    ///    engine — which also examined constraints only through the
    ///    occurrence lists of newly assigned literals — missed exactly
    ///    the same re-exposed units, so this is engine-equivalent
    ///    behaviour, not a watched-index hole; the unit is re-detected at
    ///    the next visit of any watched literal. Every cube is learned,
    ///    so the exemption also covers the `≺`-blocked cube units that
    ///    cubes, having no pinned sentinels, leave undetected; the
    ///    conflict and validated-cube halves still hold for every
    ///    constraint.
    fn shadow_verify(&self) {
        for (i, c) in self.db.all_refs().enumerate() {
            if self.db.is_deleted(c) {
                continue;
            }
            let lits = self.db.lits(c);
            let mut t = 0u32;
            let mut f = 0u32;
            for &m in lits {
                match self.lit_value(m) {
                    Some(true) => t += 1,
                    Some(false) => f += 1,
                    None => {}
                }
            }
            assert_eq!(self.db.true_count(c), t, "true_count drift on constraint {i}");
            assert_eq!(self.db.false_count(c), f, "false_count drift on constraint {i}");
            match c.kind() {
                // Clause without a true literal: the counter engine would
                // examine it eagerly. Replay Lemma 4/5 on the counters.
                Kind::Clause if t == 0 => {
                    let open_exist: Vec<Lit> = lits
                        .iter()
                        .copied()
                        .filter(|&m| self.lit_value(m).is_none() && self.is_existential(m.var()))
                        .collect();
                    assert!(
                        !open_exist.is_empty(),
                        "watched propagator missed a conflict on clause {i}"
                    );
                    if let [e] = open_exist[..] {
                        if !self.db.is_learned(c) {
                            let blocked = lits.iter().any(|&m| {
                                m != e
                                    && self.lit_value(m).is_none()
                                    && self.prefix().precedes(m.var(), e.var())
                            });
                            assert!(blocked, "watched propagator missed a unit on clause {i}");
                        }
                    }
                }
                // Cube without a false literal: dual replay — a cube all
                // of whose unassigned literals are existential is a
                // validated good; a single unblocked free universal is a
                // dual unit.
                Kind::Cube if f == 0 => {
                    let open_univ: Vec<Lit> = lits
                        .iter()
                        .copied()
                        .filter(|&m| self.lit_value(m).is_none() && !self.is_existential(m.var()))
                        .collect();
                    assert!(
                        !open_univ.is_empty(),
                        "watched propagator missed a solution on cube {i}"
                    );
                    if let [u] = open_univ[..] {
                        if !self.db.is_learned(c) {
                            let blocked = lits.iter().any(|&m| {
                                m != u
                                    && self.lit_value(m).is_none()
                                    && self.prefix().precedes(m.var(), u.var())
                            });
                            assert!(blocked, "watched propagator missed a unit on cube {i}");
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{HeuristicKind, SolverConfig};
    use super::*;
    use crate::samples;
    use crate::semantics;

    fn solve_with(qbf: &Qbf, config: SolverConfig) -> Option<bool> {
        Solver::new(qbf, config).solve().value()
    }

    fn all_configs() -> Vec<SolverConfig> {
        let mut configs = Vec::new();
        for heuristic in [
            HeuristicKind::Naive,
            HeuristicKind::VsidsLevel,
            HeuristicKind::VsidsTree,
            HeuristicKind::Random(12345),
        ] {
            for learning in [false, true] {
                for pure_literals in [false, true] {
                    configs.push(SolverConfig {
                        heuristic,
                        learning,
                        pure_literals,
                        ..SolverConfig::default()
                    });
                }
            }
        }
        configs
    }

    #[test]
    fn samples_all_configs() {
        let qbfs = [
            samples::paper_example(),
            samples::forall_exists_xor(),
            samples::exists_forall_xor(),
            samples::two_independent_games(),
            samples::sat_instance(),
            samples::unsat_instance(),
        ];
        for q in &qbfs {
            let expected = semantics::eval(q);
            for config in all_configs() {
                let got = solve_with(q, config.clone());
                assert_eq!(
                    got,
                    Some(expected),
                    "mismatch on {q} with {config:?}"
                );
            }
        }
    }

    #[test]
    fn node_limit_reports_timeout() {
        let config = SolverConfig::partial_order().with_node_limit(0);
        let out = Solver::new(&samples::paper_example(), config).solve();
        assert!(out.is_timeout());
        assert_eq!(out.value(), None);
    }

    #[test]
    fn trivially_true_and_false() {
        use crate::{Clause, Matrix, Prefix, Qbf};
        let t = Qbf::new(Prefix::empty(0), Matrix::new(0)).unwrap();
        assert_eq!(solve_with(&t, SolverConfig::partial_order()), Some(true));
        let f = Qbf::new(Prefix::empty(0), Matrix::from_clauses(0, [Clause::empty()])).unwrap();
        assert_eq!(solve_with(&f, SolverConfig::partial_order()), Some(false));
    }

    #[test]
    fn contradictory_input_clause_detected() {
        // ∀y (y) is immediately false by Lemma 4.
        use crate::{Clause, Lit, Matrix, Prefix, Qbf, Quantifier};
        let p = Prefix::prenex(1, [(Quantifier::Forall, vec![Var::new(0)])]).unwrap();
        let m = Matrix::from_clauses(1, [Clause::new([Lit::from_dimacs(1)]).unwrap()]);
        let q = Qbf::new(p, m).unwrap();
        assert_eq!(solve_with(&q, SolverConfig::partial_order()), Some(false));
    }

    /// Pseudo-random well-formed non-prenex QBFs for differential testing.
    fn random_qbf(seed: u64, num_vars: usize, num_clauses: usize) -> Qbf {
        crate::samples::random_qbf(seed, num_vars, num_clauses)
    }

    #[test]
    fn differential_small_random_qbfs() {
        for seed in 0..120u64 {
            let q = random_qbf(seed, 4 + (seed % 4) as usize, 5 + (seed % 6) as usize);
            let expected = semantics::eval(&q);
            for config in all_configs() {
                let got = solve_with(&q, config.clone());
                assert_eq!(
                    got,
                    Some(expected),
                    "seed {seed}: mismatch on {q} with {config:?}"
                );
            }
        }
    }

    #[test]
    fn differential_medium_random_qbfs_default_configs() {
        for seed in 0..40u64 {
            let q = random_qbf(1000 + seed, 10, 18);
            let expected = semantics::eval(&q);
            for config in [
                SolverConfig::partial_order(),
                SolverConfig::total_order(),
                SolverConfig::basic(),
            ] {
                assert_eq!(
                    solve_with(&q, config.clone()),
                    Some(expected),
                    "seed {seed}: mismatch with {config:?}"
                );
            }
        }
    }

    /// The sentinel set by its quadratic definition, the reference for
    /// `attach_unblock_sentinels`: for each literal of the other
    /// quantifier, the first watched literal (stored order) it precedes,
    /// as `(sentinel literal, blocker)` pairs in stored order.
    fn reference_unblock_sentinels(prefix: &Prefix, kind: Kind, lits: &[Lit]) -> Vec<(Lit, Lit)> {
        let watched = |l: Lit| prefix.is_existential(l.var()) != (kind == Kind::Cube);
        lits.iter()
            .filter(|&&b| !watched(b))
            .filter_map(|&b| {
                lits.iter()
                    .find(|&&w| watched(w) && prefix.precedes(b.var(), w.var()))
                    .map(|&w| (b, w))
            })
            .collect()
    }

    fn entries(lists: &[Vec<Watcher>]) -> Vec<Vec<(ConstraintRef, Lit, bool)>> {
        lists
            .iter()
            .map(|l| {
                l.iter()
                    .map(|w| (w.cref, w.blocker(), w.pinned()))
                    .collect()
            })
            .collect()
    }

    /// Clause sentinels equal the quadratic definition entry by entry
    /// (literal, order, blocker); cubes get their movable watches and no
    /// pinned entry, even where the definition would pin some.
    #[test]
    fn linear_sentinels_match_the_reference() {
        let mut skipped_cube_sentinels = 0;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for seed in 0..150u64 {
            let forest = random_qbf(seed, 2 + (seed % 23) as usize, 6);
            let p = forest.prefix();
            let chain: Vec<_> = p
                .blocks_dfs()
                .map(|b| (p.block_quant(b), p.block_vars(b).to_vec()))
                .collect();
            let prenexed = Qbf::new(
                Prefix::prenex(p.num_vars(), chain).unwrap(),
                forest.matrix().clone(),
            )
            .unwrap();
            for q in [&forest, &prenexed] {
                let n = q.num_vars();
                let mut solver = Solver::new(q, SolverConfig::default());
                // Constraints over random variable sets spanning the whole
                // forest, in random order and polarity, of both kinds.
                for _ in 0..8 {
                    let mut vars: Vec<usize> = (0..n).filter(|_| next(3) > 0).collect();
                    for i in (1..vars.len()).rev() {
                        vars.swap(i, next(i + 1));
                    }
                    let lits: Vec<Lit> = vars
                        .iter()
                        .map(|&v| Var::new(v).lit(next(2) == 0))
                        .collect();
                    solver.attach(lits.clone(), Kind::Clause, true);
                    solver.attach(lits, Kind::Cube, true);
                }
                // Replay the stored constraints into a fresh database,
                // attaching clause sentinels by the reference definition;
                // the cube replay keeps only the movable watches.
                let mut reference = Db::new(n);
                for c in solver.db.all_refs() {
                    let lits = solver.db.lits(c).to_vec();
                    let cube = c.kind() == Kind::Cube;
                    let movable = lits
                        .iter()
                        .take(2)
                        .filter(|l| q.prefix().is_existential(l.var()) != cube)
                        .count();
                    let sentinels = reference_unblock_sentinels(q.prefix(), c.kind(), &lits);
                    let r = reference.add(lits, c.kind(), solver.db.is_learned(c), movable, 0, 0);
                    assert_eq!(r, c);
                    if cube {
                        skipped_cube_sentinels += sentinels.len();
                    } else {
                        for (b, w) in sentinels {
                            reference.watch_clause[b.code()].push(Watcher::new(r, w, true));
                        }
                    }
                }
                assert_eq!(
                    entries(&solver.db.watch_clause),
                    entries(&reference.watch_clause),
                    "seed {seed}: clause watchers on {q}"
                );
                assert!(
                    solver.db.watch_cube.iter().flatten().all(|w| !w.pinned()),
                    "seed {seed}: pinned cube watcher on {q}"
                );
                assert_eq!(
                    entries(&solver.db.watch_cube),
                    entries(&reference.watch_cube),
                    "seed {seed}: cube watchers on {q}"
                );
            }
        }
        assert!(skipped_cube_sentinels > 0, "no cube was ever ≺-blocked");
    }

    #[test]
    fn stats_are_populated() {
        let out = Solver::new(&samples::paper_example(), SolverConfig::partial_order()).solve();
        assert_eq!(out.value(), Some(false));
        assert!(out.stats.assignments() > 0);
        assert!(out.stats.conflicts > 0);
    }

    #[test]
    fn db_reduction_preserves_correctness() {
        // A tiny learned-constraint cap forces the forgetting path (delete
        // + occurrence purge) to run constantly; results must not change.
        for seed in 0..40u64 {
            let q = random_qbf(500 + seed, 8, 14);
            let expected = semantics::eval(&q);
            let config = SolverConfig {
                max_learned: 3,
                ..SolverConfig::partial_order()
            };
            assert_eq!(
                solve_with(&q, config),
                Some(expected),
                "seed {seed} with aggressive forgetting"
            );
        }
    }

    #[test]
    fn aggressive_decay_preserves_correctness() {
        for seed in 0..30u64 {
            let q = random_qbf(700 + seed, 8, 14);
            let expected = semantics::eval(&q);
            let config = SolverConfig {
                decay_interval: 1,
                ..SolverConfig::total_order()
            };
            assert_eq!(solve_with(&q, config), Some(expected), "seed {seed}");
        }
    }

    #[test]
    fn conflict_limit_reports_timeout() {
        let config = SolverConfig {
            conflict_limit: Some(0),
            ..SolverConfig::partial_order()
        };
        let out = Solver::new(&samples::paper_example(), config).solve();
        assert!(out.is_timeout());
    }

    #[test]
    fn all_universal_matrix_is_false() {
        // ∀y1 y2 (y1 ∨ y2): contradictory by Lemma 4 without any search.
        use crate::{Clause, Lit, Matrix, Prefix, Qbf, Quantifier};
        let p = Prefix::prenex(2, [(Quantifier::Forall, vec![Var::new(0), Var::new(1)])])
            .unwrap();
        let m = Matrix::from_clauses(
            2,
            [Clause::new([Lit::from_dimacs(1), Lit::from_dimacs(2)]).unwrap()],
        );
        let q = Qbf::new(p, m).unwrap();
        let out = Solver::new(&q, SolverConfig::partial_order()).solve();
        assert_eq!(out.value(), Some(false));
        assert_eq!(out.stats.decisions, 0);
    }

    #[test]
    fn vacuous_bound_vars_are_handled() {
        // Bound variables that never occur in the matrix must not confuse
        // the availability machinery or the solution trigger.
        use crate::{Clause, Lit, Matrix, Prefix, Qbf, Quantifier};
        let p = Prefix::prenex(
            4,
            [
                (Quantifier::Exists, vec![Var::new(0), Var::new(2)]),
                (Quantifier::Forall, vec![Var::new(3)]),
                (Quantifier::Exists, vec![Var::new(1)]),
            ],
        )
        .unwrap();
        let m = Matrix::from_clauses(
            4,
            [Clause::new([Lit::from_dimacs(1), Lit::from_dimacs(2)]).unwrap()],
        );
        let q = Qbf::new(p, m).unwrap();
        for config in [SolverConfig::partial_order(), SolverConfig::basic()] {
            assert_eq!(
                Solver::new(&q, config).solve().value(),
                Some(true),
                "vacuous vars"
            );
        }
    }

    #[test]
    fn deep_alternation_chain() {
        // ∃x1 ∀y1 ∃x2 ∀y2 … with xor-chain clauses: true (each x mirrors
        // the previous y), and solvable without pathological behaviour.
        use crate::{Clause, Matrix, Prefix, Qbf, Quantifier};
        let n = 12; // x0 y0 x1 y1 …
        let blocks: Vec<(Quantifier, Vec<Var>)> = (0..n)
            .map(|i| {
                let q = if i % 2 == 0 {
                    Quantifier::Exists
                } else {
                    Quantifier::Forall
                };
                (q, vec![Var::new(i)])
            })
            .collect();
        let p = Prefix::prenex(n, blocks).unwrap();
        // clauses: x_{i+1} == y_i  (x at index 2i+2, y at 2i+1)
        let mut clauses = Vec::new();
        for i in (1..n - 1).step_by(2) {
            let y = Var::new(i);
            let x = Var::new(i + 1);
            clauses.push(Clause::new([y.negative(), x.positive()]).unwrap());
            clauses.push(Clause::new([y.positive(), x.negative()]).unwrap());
        }
        let q = Qbf::new(p, Matrix::from_clauses(n, clauses)).unwrap();
        let out = Solver::new(&q, SolverConfig::partial_order()).solve();
        assert_eq!(out.value(), Some(true));
    }

    #[test]
    fn learning_solves_with_fewer_or_equal_nodes_on_average() {
        // Not a strict theorem, but across a batch of random instances the
        // learning configuration should not explore wildly more nodes.
        let mut learned_total = 0u64;
        let mut basic_total = 0u64;
        for seed in 0..20u64 {
            let q = random_qbf(999 + seed, 9, 16);
            let with = Solver::new(
                &q,
                SolverConfig {
                    heuristic: HeuristicKind::Naive,
                    learning: true,
                    pure_literals: false,
                    ..SolverConfig::default()
                },
            )
            .solve();
            let without = Solver::new(
                &q,
                SolverConfig {
                    heuristic: HeuristicKind::Naive,
                    learning: false,
                    pure_literals: false,
                    ..SolverConfig::default()
                },
            )
            .solve();
            assert_eq!(with.value(), without.value());
            learned_total += with.stats.assignments();
            basic_total += without.stats.assignments();
        }
        assert!(
            learned_total <= basic_total * 3,
            "learning exploded: {learned_total} vs {basic_total}"
        );
    }
}
