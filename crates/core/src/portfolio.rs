//! In-instance parallel portfolio with clause/cube sharing.
//!
//! The paper's central finding — prenexing strategy and quantifier
//! structure dramatically change search behaviour — makes the PO solver,
//! the four TO prenexings and seeded heuristic variants a natural
//! portfolio: run the variants concurrently over *one* instance and take
//! the first finisher. This module implements that portfolio over
//! [`std::thread`] workers with first-finisher-wins cancellation (a
//! shared [`AtomicBool`] polled at decision boundaries) and an
//! epoch-batched exchange of short learned clauses/cubes.
//!
//! # Sharing soundness
//!
//! Every learned constraint is a genuine Q-resolution (clause) or
//! Q-consensus (cube) consequence of the matrix — pure-literal and
//! decision pivots simply *stay* in the learned constraint (see the
//! engine's soundness notes), so a derivation never depends on the
//! deriving worker's heuristic state. All roster variants share one
//! matrix and one variable numbering (`qbf_prenex::prenex` only
//! reshapes the prefix), so a constraint derived by worker A is a
//! well-formed constraint for worker B; it is a *sound* constraint for B
//! whenever every reduction step legal under A's order is legal under
//! B's, i.e. whenever `≺_B ⊆ ≺_A`. Since each total-order prenexing
//! extends the partial order, that yields the import rule implemented by
//! [`compatible`]: same prefix imports from same prefix, and the partial
//! order imports from everybody; distinct total orders never exchange.
//!
//! # Determinism model
//!
//! `deterministic: true` runs the *fixed* canonical roster in lockstep
//! epochs: every live worker advances to the same shared
//! `Stats.assignments` bound, the drivers barrier, outboxes are
//! exchanged in worker-index order, and the winner is the lowest-index
//! finisher of the earliest finishing epoch. Thread count then only
//! controls how epochs are executed, never what is computed, so verdict,
//! winner and every per-worker [`Stats`] are byte-reproducible for any
//! `--portfolio N` ([`PortfolioOutcome::transcript`]). Free-running mode
//! races one thread per variant wall-clock style and is only
//! verdict-stable.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

use crate::metrics::{EngineMetrics, WallClock};
use crate::observe::{NoopObserver, SearchObserver};
use crate::proof::ProofLog;
use crate::qbf::Qbf;
use crate::solver::{Solver, SolverConfig, Stats};
use crate::var::Lit;

// ----------------------------------------------------------------------
// Public configuration types
// ----------------------------------------------------------------------

/// The quantifier-order class of a portfolio variant, deciding which
/// peers' constraints it may soundly import (see the module docs).
///
/// The classes assume all variants of one portfolio were derived from a
/// single base instance: `Partial` is the base's (partial) order and
/// every `Total(i)` is a linear extension of it. Rosters built by
/// `qbf_prenex::portfolio::roster` guarantee this by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareClass {
    /// The instance's original partially ordered prefix.
    Partial,
    /// A total-order prenexing; the tag distinguishes the strategies so
    /// that differently-shaped linear extensions never exchange.
    Total(u8),
}

/// Whether a constraint derived under `exporter`'s order is sound for
/// `importer` (`≺_importer ⊆ ≺_exporter`): identical classes always
/// exchange, and the partial order imports from every linear extension
/// of itself.
pub fn compatible(exporter: ShareClass, importer: ShareClass) -> bool {
    exporter == importer || importer == ShareClass::Partial
}

/// One portfolio worker blueprint: an instance view (the base QBF or a
/// prenexing of it), a solver configuration and the sharing class of its
/// prefix.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Stable human-readable tag (`po`, `to-eu-au`, `po-rand`, …) used
    /// in transcripts, reports and metrics.
    pub label: String,
    /// The instance this worker solves. Must share matrix and variable
    /// numbering with every other variant of the portfolio.
    pub qbf: Qbf,
    /// The worker's solver configuration (heuristic, limits, …).
    pub config: SolverConfig,
    /// The prefix-order class used by the sharing filter.
    pub class: ShareClass,
}

/// Portfolio execution options.
#[derive(Debug, Clone)]
pub struct PortfolioOptions {
    /// Worker threads. In deterministic mode this only parallelises the
    /// lockstep epochs (the result is identical for any value); in
    /// free-running mode each variant gets its own thread regardless.
    pub threads: usize,
    /// Share learned clauses/cubes up to this many literals between
    /// workers; `0` disables sharing entirely.
    pub share_len: usize,
    /// Lockstep epochs with byte-reproducible transcripts instead of a
    /// wall-clock race (see the module docs).
    pub deterministic: bool,
    /// Deterministic epoch length in `Stats.assignments` between
    /// exchange barriers.
    pub epoch: u64,
    /// Test hook: make this worker index panic on its first step, to
    /// exercise panic containment.
    #[doc(hidden)]
    pub debug_panic_worker: Option<usize>,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        PortfolioOptions {
            threads: 4,
            share_len: 4,
            deterministic: false,
            epoch: 2048,
            debug_panic_worker: None,
        }
    }
}

// ----------------------------------------------------------------------
// Results
// ----------------------------------------------------------------------

/// Per-worker result of a portfolio run.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The variant's label.
    pub label: String,
    /// The worker's own verdict, if it reached one.
    pub value: Option<bool>,
    /// Whether the worker finished its search (as opposed to being
    /// cancelled, running out of budget, or panicking).
    pub finished: bool,
    /// Whether the worker panicked (contained; never propagates into
    /// the portfolio verdict).
    pub panicked: bool,
    /// The worker's engine statistics at the end of the run.
    pub stats: Stats,
    /// Constraints this worker published to the share pool.
    pub exported: u64,
    /// Peer constraints this worker attached to its database.
    pub imported: u64,
    /// Peer constraints dropped by the class-compatibility filter.
    pub discarded: u64,
    /// Per-worker metrics snapshot (only from
    /// [`solve_with_metrics`]).
    pub metrics_json: Option<String>,
    /// For external (non-search) workers: their own deterministic stat
    /// fields, printed in the transcript in place of the search
    /// [`Stats`] line.
    pub engine_fields: Option<Vec<(&'static str, u64)>>,
}

/// The outcome of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The portfolio verdict: the winning worker's value, or `None`
    /// when every worker ran out of budget (or panicked).
    pub value: Option<bool>,
    /// Index of the winning worker into `workers`, if any.
    pub winner: Option<usize>,
    /// Whether the run used the deterministic lockstep driver.
    pub deterministic: bool,
    /// The deterministic epoch length the run used.
    pub epoch: u64,
    /// The effective sharing length (0 when sharing was disabled, e.g.
    /// under proof logging).
    pub share_len: usize,
    /// Per-worker reports, in roster order.
    pub workers: Vec<WorkerReport>,
    /// The winning worker's concluded `qrp 1` certificate (only from
    /// [`solve_with_proof`]).
    pub certificate: Option<String>,
}

fn verdict_code(v: Option<bool>) -> i32 {
    match v {
        Some(true) => 1,
        Some(false) => 0,
        None => -1,
    }
}

impl PortfolioOutcome {
    /// Renders the byte-stable run transcript: verdict, winner, mode and
    /// the full per-worker [`Stats`] plus sharing counters. In
    /// deterministic mode this text is identical for any thread count
    /// and across repeated runs; it deliberately excludes the thread
    /// count and every wall-clock quantity.
    pub fn transcript(&self) -> String {
        let mut out = format!(
            "p portfolio verdict={} winner={} mode={} roster={} share-len={} epoch={}\n",
            verdict_code(self.value),
            match self.winner {
                Some(w) => w.to_string(),
                None => "-".to_string(),
            },
            if self.deterministic { "det" } else { "free" },
            self.workers.len(),
            self.share_len,
            self.epoch,
        );
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "w {i} {} value={} finished={} panicked={}",
                w.label,
                verdict_code(w.value),
                u8::from(w.finished),
                u8::from(w.panicked),
            ));
            match &w.engine_fields {
                Some(fields) => {
                    for &(name, v) in fields {
                        out.push_str(&format!(" {name}={v}"));
                    }
                }
                None => {
                    for (name, v) in w.stats.fields() {
                        out.push_str(&format!(" {name}={v}"));
                    }
                }
            }
            out.push_str(&format!(
                " exported={} imported={} discarded={}\n",
                w.exported, w.imported, w.discarded
            ));
        }
        out
    }
}

// ----------------------------------------------------------------------
// The share pool (free-running mode) and per-worker connections
// ----------------------------------------------------------------------

/// One published constraint.
#[derive(Debug, Clone)]
pub(crate) struct ShareEntry {
    from: usize,
    class: ShareClass,
    cube: bool,
    lits: Vec<Lit>,
}

/// Free-running mode's lock-protected generation buffer: an append-only
/// log of published constraints plus an atomic generation counter so
/// importers can skip the lock when nothing new arrived.
#[derive(Debug, Default)]
pub(crate) struct SharePool {
    generation: AtomicUsize,
    entries: Mutex<Vec<ShareEntry>>,
}

impl SharePool {
    fn publish(&self, entry: ShareEntry) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.push(entry);
        // Publish the new length *while holding the lock* so a reader
        // that observes generation `g` always finds `g` entries.
        self.generation.store(entries.len(), Ordering::Release);
    }
}

/// A worker's private endpoint of the sharing layer, owned by its
/// [`Solver`]. Exports flow through `offer` (learn-time), imports are
/// staged into `staged` — by `poll` (free-running, reading the pool) or
/// by the deterministic driver's exchange barrier — and drained by the
/// engine at decision boundaries via `take_staged`.
#[derive(Debug)]
pub(crate) struct ShareConn {
    pool: Arc<SharePool>,
    worker: usize,
    class: ShareClass,
    max_len: usize,
    deterministic: bool,
    /// Index of the next unseen pool entry (free-running mode).
    cursor: usize,
    /// Deterministic mode: exports buffered until the epoch barrier.
    outbox: Vec<(Vec<Lit>, bool)>,
    /// Imports staged for the next decision-boundary drain.
    staged: VecDeque<(Vec<Lit>, bool)>,
    pub(crate) exported: u64,
    pub(crate) imported: u64,
    pub(crate) discarded: u64,
}

impl ShareConn {
    fn new(
        pool: Arc<SharePool>,
        worker: usize,
        class: ShareClass,
        max_len: usize,
        deterministic: bool,
    ) -> Self {
        ShareConn {
            pool,
            worker,
            class,
            max_len,
            deterministic,
            cursor: 0,
            outbox: Vec::new(),
            staged: VecDeque::new(),
            exported: 0,
            imported: 0,
            discarded: 0,
        }
    }

    /// Learn-time export hook: publishes a constraint of length ≤
    /// `max_len` (deterministic mode buffers it for the next barrier).
    pub(crate) fn offer(&mut self, lits: &[Lit], cube: bool) {
        if lits.is_empty() || lits.len() > self.max_len {
            return;
        }
        self.exported += 1;
        if self.deterministic {
            self.outbox.push((lits.to_vec(), cube));
        } else {
            self.pool.publish(ShareEntry {
                from: self.worker,
                class: self.class,
                cube,
                lits: lits.to_vec(),
            });
        }
    }

    /// Free-running import: pulls every unseen pool entry through the
    /// compatibility filter into the staging queue. No-op in
    /// deterministic mode (the barrier stages batches instead).
    pub(crate) fn poll(&mut self) {
        if self.deterministic {
            return;
        }
        if self.pool.generation.load(Ordering::Acquire) == self.cursor {
            return;
        }
        let entries = self.pool.entries.lock().unwrap_or_else(PoisonError::into_inner);
        while self.cursor < entries.len() {
            let e = &entries[self.cursor];
            self.cursor += 1;
            if e.from == self.worker {
                continue;
            }
            if compatible(e.class, self.class) {
                self.staged.push_back((e.lits.clone(), e.cube));
            } else {
                self.discarded += 1;
            }
        }
    }

    /// Pops the next staged import (engine decision-boundary drain).
    pub(crate) fn take_staged(&mut self) -> Option<(Vec<Lit>, bool)> {
        let next = self.staged.pop_front();
        if next.is_some() {
            self.imported += 1;
        }
        next
    }

    /// Deterministic barrier: drains this worker's epoch outbox.
    fn take_outbox(&mut self) -> Vec<(Vec<Lit>, bool)> {
        std::mem::take(&mut self.outbox)
    }

    /// Deterministic barrier: stages a full epoch batch (in publication
    /// order) through the compatibility filter.
    fn stage_batch(&mut self, batch: &[ShareEntry]) {
        for e in batch {
            if e.from == self.worker {
                continue;
            }
            if compatible(e.class, self.class) {
                self.staged.push_back((e.lits.clone(), e.cube));
            } else {
                self.discarded += 1;
            }
        }
    }
}

// ----------------------------------------------------------------------
// External (cross-paradigm) workers
// ----------------------------------------------------------------------

/// A non-search decision procedure raced inside the portfolio — e.g.
/// the expansion engine of `qbf-expand`. Externals participate in both
/// drivers (deterministic lockstep and the free-running race) but never
/// in constraint sharing: the sharing soundness argument is a statement
/// about Q-resolution/Q-consensus derivations and does not cross
/// paradigms, so external workers neither export nor import.
///
/// The lockstep contract mirrors the search workers': [`step_to`]
/// advances the engine to an *absolute* bound in the engine's own
/// deterministic cost metric (for the expansion engine, SAT decisions
/// plus propagations; for search, `Stats.assignments`), so repeated
/// runs with the same epoch length replay byte-identically even though
/// the metrics differ across paradigms.
///
/// [`step_to`]: ExternalWorker::step_to
pub trait ExternalWorker: Send {
    /// Stable label for transcripts and reports.
    fn label(&self) -> &str;

    /// Deterministic mode: advance until the engine's cost metric
    /// reaches `bound`, the engine decides, or its own configured
    /// budget runs out.
    fn step_to(&mut self, bound: u64);

    /// Free-running mode: run until decided, budget-exhausted, or
    /// `stop` is raised (checked at the engine's decision boundaries).
    fn run(&mut self, stop: &AtomicBool);

    /// The verdict, if the engine reached one.
    fn value(&self) -> Option<bool>;

    /// Whether the engine decided the instance.
    fn finished(&self) -> bool {
        self.value().is_some()
    }

    /// Whether the engine exhausted its *own* configured budget (as
    /// opposed to pausing at a driver epoch bound).
    fn timed_out(&self) -> bool;

    /// Deterministic `(name, value)` counters for the transcript line
    /// (the external analogue of `Stats::fields`).
    fn stat_fields(&self) -> Vec<(&'static str, u64)>;
}

/// Driver-side state wrapped around one boxed external worker.
struct ExternalSlot<'e> {
    index: usize,
    worker: Box<dyn ExternalWorker + 'e>,
    panicked: bool,
    steps: u64,
}

impl ExternalSlot<'_> {
    fn live(&self) -> bool {
        !self.panicked && !self.worker.finished() && !self.worker.timed_out()
    }
}

// ----------------------------------------------------------------------
// The drivers
// ----------------------------------------------------------------------

struct Worker<'v, O: SearchObserver> {
    index: usize,
    class: ShareClass,
    node_limit: Option<u64>,
    solver: Solver<'v, O>,
    value: Option<bool>,
    finished: bool,
    timed_out: bool,
    panicked: bool,
    steps: u64,
}

impl<O: SearchObserver> Worker<'_, O> {
    fn live(&self) -> bool {
        !self.finished && !self.timed_out && !self.panicked
    }

    /// Whether the worker's *hard* budget (its config's node limit, as
    /// opposed to the epoch pause point of the lockstep loop) is spent —
    /// mirrors the engine's `budget_exhausted` comparison.
    fn hard_budget_exhausted(&self) -> bool {
        self.node_limit
            .is_some_and(|limit| self.solver.current_stats().assignments() > limit)
    }

    /// Advances the search to the shared epoch bound, recording a
    /// verdict or budget exhaustion.
    fn step_to(&mut self, epoch_end: u64) {
        self.solver.set_epoch_limit(Some(epoch_end));
        let out = self.solver.solve_mut();
        if let Some(v) = out.value() {
            self.value = Some(v);
            self.finished = true;
        } else if self.hard_budget_exhausted() {
            self.timed_out = true;
        }
    }
}

/// Distributes `jobs` over up to `threads` scoped worker threads via an
/// atomic work index (the `repro --jobs` idiom). `f` must not panic —
/// the callers wrap each step in `catch_unwind`.
fn run_parallel<J: Send, F: Fn(J) + Sync>(jobs: Vec<J>, threads: usize, f: F) {
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads <= 1 {
        for w in jobs {
            f(w);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<J>>> =
        jobs.into_iter().map(|w| Mutex::new(Some(w))).collect();
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let taken = slots[i].lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some(w) = taken {
                    f(w);
                }
            });
        }
    });
}

/// One schedulable unit of the deterministic driver: a search worker or
/// an external engine.
enum Job<'w, 'v, 'e, O: SearchObserver> {
    Search(&'w mut Worker<'v, O>),
    External(&'w mut ExternalSlot<'e>),
}

/// Deterministic lockstep driver; returns the winner index (global:
/// search workers first, externals after). Each worker interprets the
/// shared epoch bound in its own cost metric, so the lockstep stays
/// byte-reproducible across thread counts and repeated runs.
fn run_deterministic<O: SearchObserver + Send>(
    workers: &mut [Worker<'_, O>],
    externals: &mut [ExternalSlot<'_>],
    opts: &PortfolioOptions,
) -> Option<usize> {
    let epoch = opts.epoch.max(1);
    let inject = opts.debug_panic_worker;
    let mut epoch_end = epoch;
    loop {
        let live: Vec<Job<'_, '_, '_, O>> = workers
            .iter_mut()
            .filter(|w| w.live())
            .map(Job::Search)
            .chain(externals.iter_mut().filter(|e| e.live()).map(Job::External))
            .collect();
        if live.is_empty() {
            return None;
        }
        run_parallel(live, opts.threads, |job| match job {
            Job::Search(w) => {
                let first_step = w.steps == 0;
                w.steps += 1;
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    if first_step && inject == Some(w.index) {
                        panic!("injected portfolio panic (worker {})", w.index);
                    }
                    w.step_to(epoch_end);
                }));
                if stepped.is_err() {
                    w.panicked = true;
                }
            }
            Job::External(e) => {
                let first_step = e.steps == 0;
                e.steps += 1;
                let index = e.index;
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    if first_step && inject == Some(index) {
                        panic!("injected portfolio panic (worker {index})");
                    }
                    e.worker.step_to(epoch_end);
                }));
                if stepped.is_err() {
                    e.panicked = true;
                }
            }
        });
        if workers.iter().any(|w| w.finished)
            || externals.iter().any(|e| !e.panicked && e.worker.finished())
        {
            // Fixed tie-break: the lowest-index finisher of the earliest
            // finishing epoch wins (all finishers of one epoch are known
            // here, thanks to the barrier). Externals sit after the
            // search roster in the global index order.
            return workers
                .iter()
                .position(|w| w.finished)
                .or_else(|| {
                    externals
                        .iter()
                        .position(|e| !e.panicked && e.worker.finished())
                        .map(|i| workers.len() + i)
                });
        }
        exchange(workers);
        epoch_end += epoch;
    }
}

/// Deterministic epoch barrier: collects every worker's outbox in
/// worker-index order into one batch and stages it into each live
/// worker's connection.
fn exchange<O: SearchObserver>(workers: &mut [Worker<'_, O>]) {
    let mut batch: Vec<ShareEntry> = Vec::new();
    for w in workers.iter_mut() {
        let (from, class) = (w.index, w.class);
        if let Some(conn) = w.solver.share_conn_mut() {
            for (lits, cube) in conn.take_outbox() {
                batch.push(ShareEntry { from, class, cube, lits });
            }
        }
    }
    if batch.is_empty() {
        return;
    }
    for w in workers.iter_mut() {
        if !w.live() {
            continue;
        }
        if let Some(conn) = w.solver.share_conn_mut() {
            conn.stage_batch(&batch);
        }
    }
}

/// Free-running driver: one thread per worker (search and external),
/// first finisher raises the stop flag; returns the winner index.
fn run_free<O: SearchObserver + Send>(
    workers: &mut [Worker<'_, O>],
    externals: &mut [ExternalSlot<'_>],
    opts: &PortfolioOptions,
) -> Option<usize> {
    let stop = Arc::new(AtomicBool::new(false));
    for w in workers.iter_mut() {
        w.solver.set_stop_flag(Arc::clone(&stop));
    }
    let first = Mutex::new(None::<usize>);
    let inject = opts.debug_panic_worker;
    thread::scope(|scope| {
        for w in workers.iter_mut() {
            let (stop, first) = (&stop, &first);
            scope.spawn(move || {
                let index = w.index;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if inject == Some(index) {
                        panic!("injected portfolio panic (worker {index})");
                    }
                    w.solver.solve_mut()
                }));
                match result {
                    Ok(out) => {
                        if let Some(v) = out.value() {
                            w.value = Some(v);
                            w.finished = true;
                            let mut g =
                                first.lock().unwrap_or_else(PoisonError::into_inner);
                            if g.is_none() {
                                *g = Some(index);
                            }
                            drop(g);
                            stop.store(true, Ordering::SeqCst);
                        } else if w.hard_budget_exhausted() {
                            w.timed_out = true;
                        }
                        // Otherwise: cancelled by the winner's stop flag.
                    }
                    Err(_) => w.panicked = true,
                }
            });
        }
        for e in externals.iter_mut() {
            let (stop, first) = (&stop, &first);
            scope.spawn(move || {
                let index = e.index;
                let worker = &mut e.worker;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if inject == Some(index) {
                        panic!("injected portfolio panic (worker {index})");
                    }
                    worker.run(stop);
                }));
                match result {
                    Ok(()) => {
                        if e.worker.finished() {
                            let mut g =
                                first.lock().unwrap_or_else(PoisonError::into_inner);
                            if g.is_none() {
                                *g = Some(index);
                            }
                            drop(g);
                            stop.store(true, Ordering::SeqCst);
                        }
                        // Else: own budget exhausted, or cancelled.
                    }
                    Err(_) => e.panicked = true,
                }
            });
        }
    });
    first.into_inner().unwrap_or_else(PoisonError::into_inner)
}

// ----------------------------------------------------------------------
// Entry points
// ----------------------------------------------------------------------

/// Runs `variants` with one `(observer, optional log)` instrument pair
/// each, racing `external_workers` beside them.
fn run_portfolio<'v, 'e, O: SearchObserver + Send>(
    variants: &'v [Variant],
    instruments: Vec<(O, Option<&'v mut ProofLog>)>,
    external_workers: Vec<Box<dyn ExternalWorker + 'e>>,
    opts: &PortfolioOptions,
) -> PortfolioOutcome {
    assert!(
        !variants.is_empty() || !external_workers.is_empty(),
        "portfolio needs at least one worker"
    );
    assert_eq!(variants.len(), instruments.len());
    // Sharing is disabled under proof logging (an imported constraint
    // has no local derivation to certify) and pointless solo.
    let proving = instruments.iter().any(|(_, proof)| proof.is_some());
    let sharing = opts.share_len > 0 && !proving && variants.len() > 1;
    let mut externals: Vec<ExternalSlot<'e>> = external_workers
        .into_iter()
        .enumerate()
        .map(|(i, worker)| ExternalSlot {
            index: variants.len() + i,
            worker,
            panicked: false,
            steps: 0,
        })
        .collect();
    let mut workers: Vec<Worker<'_, O>> = variants
        .iter()
        .zip(instruments)
        .enumerate()
        .map(|(index, (v, (observer, proof)))| Worker {
            index,
            class: v.class,
            node_limit: v.config.node_limit,
            solver: Solver::with_parts(&v.qbf, v.config.clone(), observer, proof),
            value: None,
            finished: false,
            timed_out: false,
            panicked: false,
            steps: 0,
        })
        .collect();

    if sharing {
        let pool = Arc::new(SharePool::default());
        for w in workers.iter_mut() {
            w.solver.attach_share(Box::new(ShareConn::new(
                Arc::clone(&pool),
                w.index,
                w.class,
                opts.share_len,
                opts.deterministic,
            )));
        }
    }

    let winner = if opts.deterministic {
        run_deterministic(&mut workers, &mut externals, opts)
    } else {
        run_free(&mut workers, &mut externals, opts)
    };

    let mut reports: Vec<WorkerReport> = workers
        .iter_mut()
        .map(|w| {
            let (exported, imported, discarded) = w
                .solver
                .share_conn_mut()
                .map_or((0, 0, 0), |c| (c.exported, c.imported, c.discarded));
            WorkerReport {
                label: variants[w.index].label.clone(),
                value: w.value,
                finished: w.finished,
                panicked: w.panicked,
                stats: w.solver.current_stats(),
                exported,
                imported,
                discarded,
                metrics_json: None,
                engine_fields: None,
            }
        })
        .collect();
    reports.extend(externals.iter().map(|e| WorkerReport {
        label: e.worker.label().to_string(),
        value: e.worker.value(),
        finished: !e.panicked && e.worker.finished(),
        panicked: e.panicked,
        stats: Stats::default(),
        exported: 0,
        imported: 0,
        discarded: 0,
        metrics_json: None,
        engine_fields: Some(e.worker.stat_fields()),
    }));

    PortfolioOutcome {
        value: winner.and_then(|i| reports[i].value),
        winner,
        deterministic: opts.deterministic,
        epoch: opts.epoch,
        share_len: if sharing { opts.share_len } else { 0 },
        workers: reports,
        certificate: None,
    }
}

/// Runs the portfolio without instrumentation. `variants` is the roster
/// (see `qbf_prenex::portfolio::roster`); every variant must share
/// matrix and variable numbering with the others.
pub fn solve(variants: &[Variant], opts: &PortfolioOptions) -> PortfolioOutcome {
    let instruments = variants.iter().map(|_| (NoopObserver, None)).collect();
    run_portfolio(variants, instruments, Vec::new(), opts)
}

/// Runs a **mixed** (cross-paradigm) portfolio: the search `variants`
/// race the boxed `externals` (e.g. expansion engines) in-process with
/// first-finisher cancellation. Constraint sharing stays search-only —
/// externals neither export nor import — and the deterministic lockstep
/// extends across paradigms, each worker interpreting the epoch bound
/// in its own cost metric. External workers sit after the search roster
/// in the report/winner index order.
pub fn solve_mixed<'e>(
    variants: &[Variant],
    externals: Vec<Box<dyn ExternalWorker + 'e>>,
    opts: &PortfolioOptions,
) -> PortfolioOutcome {
    let instruments = variants.iter().map(|_| (NoopObserver, None)).collect();
    run_portfolio(variants, instruments, externals, opts)
}

/// Runs the portfolio with every worker logging its own Q-resolution /
/// Q-consensus certificate; sharing is disabled (see the module docs).
/// The winning worker's concluded proof lands in
/// [`PortfolioOutcome::certificate`] — it verifies against the *base*
/// instance, because each variant's reductions are legal under every
/// order the variant's prefix extends.
pub fn solve_with_proof(variants: &[Variant], opts: &PortfolioOptions) -> PortfolioOutcome {
    let mut logs: Vec<ProofLog> = variants.iter().map(|_| ProofLog::new()).collect();
    let instruments = logs.iter_mut().map(|l| (NoopObserver, Some(l))).collect();
    let mut outcome = run_portfolio(variants, instruments, Vec::new(), opts);
    if let Some(w) = outcome.winner {
        if logs[w].is_concluded() {
            outcome.certificate = Some(logs[w].as_text().to_string());
        }
    }
    outcome
}

/// Runs the portfolio with a per-worker [`EngineMetrics`] wall-clock
/// instrument; each report's [`WorkerReport::metrics_json`] carries the
/// worker's phase-span/gauge snapshot.
pub fn solve_with_metrics(variants: &[Variant], opts: &PortfolioOptions) -> PortfolioOutcome {
    let mut recorders: Vec<EngineMetrics<WallClock>> = variants
        .iter()
        .map(|_| EngineMetrics::new(WallClock::new()))
        .collect();
    let instruments = recorders.iter_mut().map(|m| (m, None)).collect();
    let mut outcome = run_portfolio(variants, instruments, Vec::new(), opts);
    for (report, recorder) in outcome.workers.iter_mut().zip(recorders.iter()) {
        report.metrics_json = Some(recorder.snapshot_json());
    }
    outcome
}
