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
//! # One worker interface
//!
//! Both drivers step every worker — a search variant's [`Solver`] or a
//! boxed [`ExternalWorker`] such as the expansion engine — through one
//! private trait whose single `advance(bound, stop)` either pauses at
//! an absolute bound in the worker's own cost metric (lockstep epochs)
//! or runs until the race's stop flag is raised. Each driver therefore
//! has one code path for every worker, and one place builds the
//! [`WorkerReport`]s.
//!
//! # Determinism model
//!
//! `deterministic: true` runs the *fixed* canonical roster in lockstep
//! epochs: every live worker advances to the same shared bound, the
//! drivers barrier, the barrier publishes each outbox into the share
//! pool in worker-index order and stages the batch into every live
//! worker with the same poll the free race uses, and the winner is the
//! lowest-index finisher of the earliest finishing epoch. Thread count
//! then only controls how epochs are executed, never what is computed,
//! so verdict, winner and every per-worker [`Stats`] are
//! byte-reproducible for any `--portfolio N`
//! ([`PortfolioOutcome::transcript`]). Free-running mode races one
//! thread per variant wall-clock style and is only verdict-stable.

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
    /// The worker's deterministic `(name, value)` counters as the
    /// transcript prints them: the search [`Stats`] fields, or an
    /// external engine's own counters.
    pub fields: Vec<(&'static str, u64)>,
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
            for &(name, v) in &w.fields {
                out.push_str(&format!(" {name}={v}"));
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
// The share pool and per-worker connections
// ----------------------------------------------------------------------

/// One published constraint.
#[derive(Debug, Clone)]
pub(crate) struct ShareEntry {
    from: usize,
    class: ShareClass,
    cube: bool,
    lits: Vec<Lit>,
}

/// The lock-protected generation buffer of both drivers: an append-only
/// log of published constraints plus an atomic generation counter so
/// importers can skip the lock when nothing new arrived. Free-running
/// workers publish as they learn; the lockstep barrier publishes each
/// epoch's outboxes in worker-index order.
#[derive(Debug, Default)]
pub(crate) struct SharePool {
    generation: AtomicUsize,
    entries: Mutex<Vec<ShareEntry>>,
}

impl SharePool {
    fn publish(&self, batch: impl IntoIterator<Item = ShareEntry>) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.extend(batch);
        // Publish the new length *while holding the lock* so a reader
        // that observes generation `g` always finds `g` entries.
        self.generation.store(entries.len(), Ordering::Release);
    }
}

/// A worker's private endpoint of the sharing layer, owned by its
/// [`Solver`]. Exports flow through `offer` (learn-time); `poll` stages
/// unseen pool entries into `staged`, and the engine drains them at
/// decision boundaries via `take_staged`.
#[derive(Debug)]
pub(crate) struct ShareConn {
    pool: Arc<SharePool>,
    worker: usize,
    class: ShareClass,
    max_len: usize,
    deterministic: bool,
    /// Index of the next unseen pool entry.
    cursor: usize,
    /// Deterministic mode: exports buffered until the epoch barrier.
    outbox: Vec<ShareEntry>,
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
        let entry = ShareEntry {
            from: self.worker,
            class: self.class,
            cube,
            lits: lits.to_vec(),
        };
        if self.deterministic {
            self.outbox.push(entry);
        } else {
            self.pool.publish([entry]);
        }
    }

    /// Pulls every unseen pool entry through the compatibility filter
    /// into the staging queue. The engine polls at decision boundaries;
    /// in deterministic mode the pool grows only at the epoch barrier,
    /// which polls every live worker itself.
    pub(crate) fn poll(&mut self) {
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
}

// ----------------------------------------------------------------------
// Workers
// ----------------------------------------------------------------------

/// A non-search decision procedure raced inside the portfolio — e.g.
/// the expansion engine of `qbf-expand`. Externals participate in both
/// drivers (deterministic lockstep and the free-running race) but never
/// in constraint sharing: the sharing soundness argument is a statement
/// about Q-resolution/Q-consensus derivations and does not cross
/// paradigms, so external workers neither export nor import.
///
/// Both drivers call [`advance`], exactly as they advance a search
/// worker. The lockstep driver passes an *absolute* epoch bound in the
/// engine's own deterministic cost metric (for the expansion engine,
/// SAT decisions plus propagations; for search, `Stats.assignments`),
/// so repeated runs with the same epoch length replay byte-identically
/// even though the metrics differ across paradigms. The free race
/// passes the stop flag that the first finisher raises.
///
/// [`advance`]: ExternalWorker::advance
pub trait ExternalWorker: Send {
    /// Stable label for transcripts and reports.
    fn label(&self) -> &str;

    /// Advances until the engine decides, its own configured budget runs
    /// out, its cost metric reaches `bound`, or `stop` is raised
    /// (checked at the engine's decision boundaries).
    fn advance(&mut self, bound: Option<u64>, stop: Option<&AtomicBool>);

    /// The verdict, if the engine reached one.
    fn value(&self) -> Option<bool>;

    /// Whether the engine exhausted its *own* configured budget (as
    /// opposed to pausing at a driver epoch bound).
    fn timed_out(&self) -> bool;

    /// Deterministic `(name, value)` counters for the transcript line
    /// (the external analogue of `Stats::fields`).
    fn stat_fields(&self) -> Vec<(&'static str, u64)>;
}

/// What both drivers ask of a worker, search variant and external
/// engine alike. Private because a search worker exposes its
/// crate-private [`ShareConn`] to the epoch barrier.
trait Worker: Send {
    /// Advances until the worker decides, its own budget runs out, its
    /// cost metric reaches the absolute `bound` (lockstep epochs), or
    /// `stop` is raised (the free race).
    fn advance(&mut self, bound: Option<u64>, stop: Option<&Arc<AtomicBool>>);
    fn label(&self) -> &str;
    fn value(&self) -> Option<bool>;
    /// Whether the worker's own budget is spent without a verdict.
    fn timed_out(&self) -> bool;
    /// The search statistics (zero for an external engine).
    fn stats(&self) -> Stats {
        Stats::default()
    }
    /// The counters of the worker's transcript line.
    fn fields(&self) -> Vec<(&'static str, u64)> {
        self.stats().fields().to_vec()
    }
    fn share(&mut self) -> Option<&mut ShareConn> {
        None
    }
}

/// One search variant's solver as a portfolio worker.
struct Search<'v, O: SearchObserver> {
    label: &'v str,
    node_limit: Option<u64>,
    solver: Solver<'v, O>,
    value: Option<bool>,
    timed_out: bool,
}

impl<O: SearchObserver + Send> Worker for Search<'_, O> {
    fn advance(&mut self, bound: Option<u64>, stop: Option<&Arc<AtomicBool>>) {
        self.solver.set_epoch_limit(bound);
        if let Some(stop) = stop {
            self.solver.set_stop_flag(Arc::clone(stop));
        }
        self.value = self.solver.solve_mut().value();
        // The hard budget is the config's node limit, compared as the
        // engine compares it; an epoch pause or a stop is not a timeout.
        let spent = self.solver.current_stats().assignments();
        self.timed_out = self.value.is_none() && self.node_limit.is_some_and(|limit| spent > limit);
    }

    fn label(&self) -> &str {
        self.label
    }

    fn value(&self) -> Option<bool> {
        self.value
    }

    fn timed_out(&self) -> bool {
        self.timed_out
    }

    fn stats(&self) -> Stats {
        self.solver.current_stats()
    }

    fn share(&mut self) -> Option<&mut ShareConn> {
        self.solver.share_conn_mut()
    }
}

impl Worker for Box<dyn ExternalWorker + '_> {
    fn advance(&mut self, bound: Option<u64>, stop: Option<&Arc<AtomicBool>>) {
        ExternalWorker::advance(&mut **self, bound, stop.map(|s| &**s));
    }

    fn label(&self) -> &str {
        ExternalWorker::label(&**self)
    }

    fn value(&self) -> Option<bool> {
        ExternalWorker::value(&**self)
    }

    fn timed_out(&self) -> bool {
        ExternalWorker::timed_out(&**self)
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        self.stat_fields()
    }
}

/// Driver-side state of one worker.
struct Slot<'w> {
    /// Global index: the search roster first, externals after.
    index: usize,
    worker: Box<dyn Worker + 'w>,
    panicked: bool,
    steps: u64,
}

impl Slot<'_> {
    fn finished(&self) -> bool {
        !self.panicked && self.worker.value().is_some()
    }

    fn live(&self) -> bool {
        !self.panicked && self.worker.value().is_none() && !self.worker.timed_out()
    }

    /// One driver step with the worker's panics contained; the
    /// `debug_panic_worker` hook fires on the worker's first step.
    fn step(&mut self, bound: Option<u64>, stop: Option<&Arc<AtomicBool>>, inject: Option<usize>) {
        let inject = self.steps == 0 && inject == Some(self.index);
        self.steps += 1;
        let (index, worker) = (self.index, &mut self.worker);
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected portfolio panic (worker {index})");
            }
            worker.advance(bound, stop);
        }));
        if stepped.is_err() {
            self.panicked = true;
        }
    }
}

// ----------------------------------------------------------------------
// The drivers
// ----------------------------------------------------------------------

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

/// Deterministic lockstep driver; returns the winner index. Each worker
/// interprets the shared epoch bound in its own cost metric, so the
/// lockstep stays byte-reproducible across thread counts and repeated
/// runs.
fn run_deterministic(slots: &mut [Slot<'_>], opts: &PortfolioOptions) -> Option<usize> {
    let epoch = opts.epoch.max(1);
    let mut epoch_end = epoch;
    loop {
        let live: Vec<&mut Slot<'_>> = slots.iter_mut().filter(|s| s.live()).collect();
        if live.is_empty() {
            return None;
        }
        run_parallel(live, opts.threads, |s| {
            s.step(Some(epoch_end), None, opts.debug_panic_worker);
        });
        // Fixed tie-break: the lowest-index finisher of the earliest
        // finishing epoch wins (all finishers of one epoch are known
        // here, thanks to the barrier).
        if let Some(winner) = slots.iter().position(Slot::finished) {
            return Some(winner);
        }
        exchange(slots);
        epoch_end += epoch;
    }
}

/// Deterministic epoch barrier: publishes every worker's outbox into the
/// pool in worker-index order, then stages the batch into each live
/// worker with the same `poll` the free race uses.
fn exchange(slots: &mut [Slot<'_>]) {
    for s in slots.iter_mut() {
        if let Some(conn) = s.worker.share() {
            conn.pool.publish(conn.outbox.drain(..));
        }
    }
    for s in slots.iter_mut().filter(|s| s.live()) {
        if let Some(conn) = s.worker.share() {
            conn.poll();
        }
    }
}

/// Free-running driver: one thread per worker, the first finisher
/// raises the stop flag; returns the winner index.
fn run_free(slots: &mut [Slot<'_>], opts: &PortfolioOptions) -> Option<usize> {
    let stop = Arc::new(AtomicBool::new(false));
    let first = Mutex::new(None::<usize>);
    thread::scope(|scope| {
        for s in slots.iter_mut() {
            let (stop, first) = (&stop, &first);
            scope.spawn(move || {
                s.step(None, Some(stop), opts.debug_panic_worker);
                if s.finished() {
                    first.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(s.index);
                    stop.store(true, Ordering::SeqCst);
                }
                // Otherwise: own budget exhausted, cancelled, or panicked.
            });
        }
    });
    first.into_inner().unwrap_or_else(PoisonError::into_inner)
}

// ----------------------------------------------------------------------
// Entry points
// ----------------------------------------------------------------------

/// Runs `variants` with one `(observer, optional log)` instrument pair
/// each, racing `externals` beside them.
fn run_portfolio<'w, O: SearchObserver + Send + 'w>(
    variants: &'w [Variant],
    instruments: Vec<(O, Option<&'w mut ProofLog>)>,
    externals: Vec<Box<dyn ExternalWorker + 'w>>,
    opts: &PortfolioOptions,
) -> PortfolioOutcome {
    assert!(
        !variants.is_empty() || !externals.is_empty(),
        "portfolio needs at least one worker"
    );
    assert_eq!(variants.len(), instruments.len());
    // Sharing is disabled under proof logging (an imported constraint
    // has no local derivation to certify) and pointless solo.
    let proving = instruments.iter().any(|(_, proof)| proof.is_some());
    let sharing = opts.share_len > 0 && !proving && variants.len() > 1;
    let pool = Arc::new(SharePool::default());
    let searches = variants.iter().zip(instruments).enumerate();
    let searches = searches.map(|(index, (v, (observer, proof)))| {
        let mut solver = Solver::with_parts(&v.qbf, v.config.clone(), observer, proof);
        if sharing {
            solver.attach_share(Box::new(ShareConn::new(
                Arc::clone(&pool),
                index,
                v.class,
                opts.share_len,
                opts.deterministic,
            )));
        }
        let search = Search {
            label: &v.label,
            node_limit: v.config.node_limit,
            solver,
            value: None,
            timed_out: false,
        };
        Box::new(search) as Box<dyn Worker + 'w>
    });
    let externals = externals.into_iter().map(|e| Box::new(e) as Box<dyn Worker + 'w>);
    let mut slots: Vec<Slot<'w>> = searches
        .chain(externals)
        .enumerate()
        .map(|(index, worker)| Slot { index, worker, panicked: false, steps: 0 })
        .collect();

    let winner = if opts.deterministic {
        run_deterministic(&mut slots, opts)
    } else {
        run_free(&mut slots, opts)
    };

    let workers: Vec<WorkerReport> = slots
        .iter_mut()
        .map(|s| {
            let (exported, imported, discarded) = s
                .worker
                .share()
                .map_or((0, 0, 0), |c| (c.exported, c.imported, c.discarded));
            WorkerReport {
                label: s.worker.label().to_string(),
                value: s.worker.value(),
                finished: s.finished(),
                panicked: s.panicked,
                stats: s.worker.stats(),
                exported,
                imported,
                discarded,
                metrics_json: None,
                fields: s.worker.fields(),
            }
        })
        .collect();

    PortfolioOutcome {
        value: winner.and_then(|i| workers[i].value),
        winner,
        deterministic: opts.deterministic,
        epoch: opts.epoch,
        share_len: if sharing { opts.share_len } else { 0 },
        workers,
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
