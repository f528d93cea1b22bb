//! Non-recursive dual abstraction refinement over the CDCL SAT core.
//!
//! The engine keeps **two** propositional abstractions of the QBF
//! `φ = Q₁X₁…QₙXₙ. M` and refines each with assignments extracted from
//! the other, in the style of expansion-based solving without recursion
//! (which generalises counterexample-guided abstraction refinement to
//! arbitrary prefixes):
//!
//! * the **existential abstraction** `φ∃ = ∧_{μ∈A} M[U←μ]`, one
//!   conjunct per universal assignment `μ`, with each existential `x`
//!   renamed to the copy `x^{μ↾D(x)}` — `D(x)` being the universal
//!   variables `x` may depend on. `φ∃` unsatisfiable proves the QBF
//!   **false** (a winning existential strategy would satisfy it);
//! * the **universal abstraction** `φ∀ = ∧_{τ∈B} ¬M[E←τ]`, one conjunct
//!   per existential assignment `τ`, with each universal `u` renamed to
//!   `u^{τ↾D(u)}`. `φ∀` unsatisfiable proves the QBF **true**.
//!
//! When both are satisfiable the round refines: from the `φ∃` model a
//! candidate `τ_μ(x) = σ(x^{μ↾D(x)})` is read off for *every* `μ ∈ A`
//! and the new ones join `B`; dually, counterexamples
//! `μ_τ(u) = ρ(u^{τ↾D(u)})` for every `τ ∈ B` join `A`. Copies are
//! globally shared across conjuncts through their `(variable, pattern)`
//! key, so agreement on the dependency pattern forces agreement on the
//! copy — the dependency-aware analogue of `∀`-expansion.
//!
//! ## Dependency schemes
//!
//! `D(·)` comes from the prefix *tree* ([`DepScheme`]):
//!
//! * [`DepScheme::Tree`] — opposite-quantifier variables in strict
//!   ancestor blocks on the (unique) root path. This is the partial
//!   order the paper's QUBE(PO) search exploits: siblings stay
//!   independent, so their copies collapse.
//! * [`DepScheme::Ordered`] — opposite-quantifier variables that occur
//!   strictly earlier in the depth-first preorder linearisation of the
//!   prefix (`Prefix::bound_vars`), i.e. the same total-order prenexing
//!   QUBE(TO) searches. `Ordered` dependencies are a superset of `Tree`
//!   dependencies; both are sound.
//!
//! ## Conjunct encoding
//!
//! Each conjunct gets a fresh selector variable and is solved under the
//! assumption set of all selectors, so an unsatisfiable answer comes
//! with an unsat core naming the responsible conjuncts (recorded in
//! [`ExpandStats::final_core`]). `φ∀` conjuncts — negations of CNF —
//! are Tseitin-encoded with one definition variable per clause that
//! keeps two or more universal literals.
//!
//! ## Determinism and progress
//!
//! Everything is insertion-ordered (`A`/`B` are vectors with a
//! `BTreeSet` of projection keys for dedup; copy maps are `BTreeMap`s;
//! the SAT core breaks every tie on variable index), no clock is read,
//! and all counters are exact, so [`ExpandStats`] replays
//! byte-identically. A refinement round that fails to grow `A` — which
//! would repeat forever, since `φ∃` depends only on `A` — falls back to
//! *forced* refinement: a deterministic odometer enumerates the first
//! universal assignment not yet in `A` (counted in
//! [`ExpandStats::forced_refinements`]); if the odometer wraps, `A` is
//! the full expansion and the satisfiable `φ∃` answer is definitive.
//! This makes termination unconditional at `|A| ≤ 2^|U|`, `|B| ≤ 2^|E|`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::AtomicBool;

use qbf_core::metrics::{EngineGauge, Phase};
use qbf_core::observe::{NoopObserver, SearchObserver};
use qbf_core::{Lit, Qbf, Quantifier, Var};

use crate::sat::{SatSolver, SolveResult};

/// Which dependency sets drive the expansion copies (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepScheme {
    /// Partial order from the prefix tree (the PO view).
    Tree,
    /// Total order from the DFS-preorder linearisation (the TO view).
    Ordered,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpandConfig {
    /// Dependency scheme for both abstractions.
    pub dep_scheme: DepScheme,
    /// Give up (value `None`) once the engine cost — cumulative SAT
    /// decisions plus propagations — exceeds this bound.
    pub step_limit: Option<u64>,
}

impl Default for ExpandConfig {
    fn default() -> Self {
        ExpandConfig { dep_scheme: DepScheme::Tree, step_limit: None }
    }
}

impl ExpandConfig {
    /// Tree-scheme configuration (the PO analogue).
    pub fn tree() -> Self {
        ExpandConfig { dep_scheme: DepScheme::Tree, step_limit: None }
    }

    /// Ordered-scheme configuration (the TO analogue).
    pub fn ordered() -> Self {
        ExpandConfig { dep_scheme: DepScheme::Ordered, step_limit: None }
    }

    /// Replace the step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = Some(limit);
        self
    }
}

/// Deterministic engine counters; every field is an exact operation
/// count, so two runs of the same instance produce identical values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpandStats {
    /// Completed refinement rounds.
    pub rounds: u64,
    /// Completed SAT-oracle answers (paused/cancelled calls excluded,
    /// so stepped and one-shot runs agree).
    pub sat_calls: u64,
    /// Conjuncts in the existential abstraction (`|A|`).
    pub exists_conjuncts: u64,
    /// Conjuncts in the universal abstraction (`|B|`).
    pub forall_conjuncts: u64,
    /// Existential copy variables allocated.
    pub exists_copies: u64,
    /// Universal copy variables allocated.
    pub forall_copies: u64,
    /// Refinements forced by the progress odometer (normally 0).
    pub forced_refinements: u64,
    /// Size of the selector unsat core of the final answer (0 until an
    /// abstraction goes unsatisfiable).
    pub final_core: u64,
    /// Decisions across both SAT solvers.
    pub sat_decisions: u64,
    /// Propagations across both SAT solvers.
    pub sat_propagations: u64,
    /// Conflicts across both SAT solvers.
    pub sat_conflicts: u64,
    /// Learned clauses across both SAT solvers.
    pub sat_learned: u64,
    /// Restarts across both SAT solvers.
    pub sat_restarts: u64,
}

impl ExpandStats {
    /// `(name, value)` pairs in display order — the expansion analogue
    /// of `Stats::fields`, used by transcripts and stat lines.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rounds", self.rounds),
            ("sat-calls", self.sat_calls),
            ("exists-conjuncts", self.exists_conjuncts),
            ("forall-conjuncts", self.forall_conjuncts),
            ("exists-copies", self.exists_copies),
            ("forall-copies", self.forall_copies),
            ("forced-refinements", self.forced_refinements),
            ("final-core", self.final_core),
            ("sat-decisions", self.sat_decisions),
            ("sat-propagations", self.sat_propagations),
            ("sat-conflicts", self.sat_conflicts),
            ("sat-learned", self.sat_learned),
            ("sat-restarts", self.sat_restarts),
        ]
    }
}

impl fmt::Display for ExpandStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, value) in self.fields() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        Ok(())
    }
}

/// Result of an expansion solve: the truth value (`None` when the step
/// limit ran out) plus the deterministic counters.
#[derive(Debug, Clone)]
pub struct ExpandOutcome {
    /// `Some(true)` / `Some(false)` when decided, `None` on step limit.
    pub value: Option<bool>,
    /// Counter snapshot at the end of the call.
    pub stats: ExpandStats,
}

impl ExpandOutcome {
    /// The decided truth value, if any.
    pub fn value(&self) -> Option<bool> {
        self.value
    }
}

/// Where the refinement loop stands between (budgeted) calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnginePhase {
    /// Next action: solve the existential abstraction.
    SolveExists,
    /// Next action: solve the universal abstraction.
    SolveForall,
    /// A truth value has been established.
    Done,
}

/// Outcome of one `advance` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Advance {
    Done,
    Paused,
    Cancelled,
}

/// The expansion engine. Resumable: [`step_to`](ExpandSolver::step_to)
/// advances the refinement loop up to a cost bound and can be called
/// repeatedly, which is how the portfolio races it against the search
/// workers in deterministic lockstep.
pub struct ExpandSolver<'a, O: SearchObserver = NoopObserver> {
    qbf: &'a Qbf,
    config: ExpandConfig,
    observer: O,
    /// Quantifier per variable index (`None` = unused/free).
    quant: Vec<Option<Quantifier>>,
    /// Dependency set per variable index, sorted by preorder position.
    deps: Vec<Vec<u32>>,
    /// Universal variables in preorder (projection order for `μ` keys).
    u_vars: Vec<u32>,
    /// Existential variables in preorder, free variables first
    /// (projection order for `τ` keys).
    e_vars: Vec<u32>,
    /// The existential abstraction `φ∃` and its selector assumptions.
    sat_e: SatSolver,
    sel_e: Vec<Lit>,
    copy_e: BTreeMap<(u32, Vec<bool>), Var>,
    /// The universal abstraction `φ∀` and its selector assumptions.
    sat_a: SatSolver,
    sel_a: Vec<Lit>,
    copy_a: BTreeMap<(u32, Vec<bool>), Var>,
    /// Universal assignments expanded so far (insertion order).
    a_set: Vec<Vec<bool>>,
    a_keys: BTreeSet<Vec<bool>>,
    /// Existential assignments expanded so far (insertion order).
    b_set: Vec<Vec<bool>>,
    b_keys: BTreeSet<Vec<bool>>,
    /// Forced-refinement odometer over `u_vars` (lexicographic).
    odometer: Vec<bool>,
    phase: EnginePhase,
    value: Option<bool>,
    rounds: u64,
    sat_calls: u64,
    forced_refinements: u64,
    final_core: u64,
}

impl<'a> ExpandSolver<'a> {
    /// An engine over `qbf` with no instrumentation.
    pub fn new(qbf: &'a Qbf, config: ExpandConfig) -> Self {
        Self::with_observer(qbf, config, NoopObserver)
    }
}

impl<'a, O: SearchObserver> ExpandSolver<'a, O> {
    /// An engine over `qbf` reporting its [`Phase::SatSolve`] /
    /// [`Phase::Refine`] spans and its [`EngineGauge::AbstractionConjuncts`]
    /// samples to `observer` (the only events this engine emits).
    pub fn with_observer(qbf: &'a Qbf, config: ExpandConfig, observer: O) -> Self {
        let n = qbf.num_vars();
        let prefix = qbf.prefix();
        let mut quant: Vec<Option<Quantifier>> = (0..n)
            .map(|i| prefix.quant(Var::new(i)))
            .collect();
        // Free-but-occurring variables act as outermost existentials.
        let occurring = qbf.matrix().occurring_vars();
        let mut free: Vec<u32> = Vec::new();
        for (i, q) in quant.iter_mut().enumerate() {
            if q.is_none() && occurring.get(i).copied().unwrap_or(false) {
                *q = Some(Quantifier::Exists);
                free.push(i as u32);
            }
        }
        // Preorder positions: free variables first (they depend on
        // nothing and everything may depend on them), then the bound
        // variables in DFS preorder.
        let mut pos: Vec<u32> = vec![u32::MAX; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for &f in &free {
            pos[f as usize] = order.len() as u32;
            order.push(f);
        }
        for v in prefix.bound_vars() {
            pos[v.index()] = order.len() as u32;
            order.push(v.index() as u32);
        }
        let mut u_vars = Vec::new();
        let mut e_vars = Vec::new();
        for &v in &order {
            match quant[v as usize] {
                Some(Quantifier::Forall) => u_vars.push(v),
                Some(Quantifier::Exists) => e_vars.push(v),
                None => {}
            }
        }
        // Dependency sets.
        let mut deps: Vec<Vec<u32>> = vec![Vec::new(); n];
        match config.dep_scheme {
            DepScheme::Ordered => {
                for &v in &order {
                    let q = quant[v as usize].expect("ordered var quantified");
                    let d: Vec<u32> = order[..pos[v as usize] as usize]
                        .iter()
                        .copied()
                        .filter(|&w| quant[w as usize] == Some(q.dual()))
                        .collect();
                    deps[v as usize] = d;
                }
            }
            DepScheme::Tree => {
                for v in prefix.bound_vars() {
                    let q = prefix.quant(v).expect("bound var quantified");
                    let mut d = Vec::new();
                    let mut b = prefix.block_of(v).expect("bound var has block");
                    while let Some(parent) = prefix.block_parent(b) {
                        if prefix.block_quant(parent) == q.dual() {
                            for &w in prefix.block_vars(parent) {
                                d.push(w.index() as u32);
                            }
                        }
                        b = parent;
                    }
                    d.sort_by_key(|&w| pos[w as usize]);
                    deps[v.index()] = d;
                }
                // Free variables keep empty dependency sets.
            }
        }
        let odometer = vec![false; u_vars.len()];
        let mut engine = ExpandSolver {
            qbf,
            config,
            observer,
            quant,
            deps,
            u_vars,
            e_vars,
            sat_e: SatSolver::new(),
            sel_e: Vec::new(),
            copy_e: BTreeMap::new(),
            sat_a: SatSolver::new(),
            sel_a: Vec::new(),
            copy_a: BTreeMap::new(),
            a_set: Vec::new(),
            a_keys: BTreeSet::new(),
            b_set: Vec::new(),
            b_keys: BTreeSet::new(),
            odometer,
            phase: EnginePhase::SolveExists,
            value: None,
            rounds: 0,
            sat_calls: 0,
            forced_refinements: 0,
            final_core: 0,
        };
        // Seed `A` with the all-false universal assignment.
        let mu0 = vec![false; engine.qbf.num_vars()];
        engine.push_mu(mu0);
        engine
    }

    /// The instance being solved.
    pub fn qbf(&self) -> &'a Qbf {
        self.qbf
    }

    /// The engine configuration.
    pub fn config(&self) -> ExpandConfig {
        self.config
    }

    /// Decided truth value, if the refinement has concluded.
    pub fn value(&self) -> Option<bool> {
        self.value
    }

    /// Whether the configured step limit is spent without a verdict.
    pub fn budget_exhausted(&self) -> bool {
        self.value.is_none()
            && self
                .config
                .step_limit
                .is_some_and(|limit| self.cost() >= limit)
    }

    /// Cumulative engine cost: SAT decisions plus propagations across
    /// both abstraction solvers. This is the budget metric of
    /// [`step_to`](ExpandSolver::step_to) and the portfolio epochs.
    pub fn cost(&self) -> u64 {
        self.sat_e.cost() + self.sat_a.cost()
    }

    /// Deterministic counter snapshot.
    pub fn stats(&self) -> ExpandStats {
        let e = &self.sat_e.stats;
        let a = &self.sat_a.stats;
        ExpandStats {
            rounds: self.rounds,
            sat_calls: self.sat_calls,
            exists_conjuncts: self.a_set.len() as u64,
            forall_conjuncts: self.b_set.len() as u64,
            exists_copies: self.copy_e.len() as u64,
            forall_copies: self.copy_a.len() as u64,
            forced_refinements: self.forced_refinements,
            final_core: self.final_core,
            sat_decisions: e.decisions + a.decisions,
            sat_propagations: e.propagations + a.propagations,
            sat_conflicts: e.conflicts + a.conflicts,
            sat_learned: e.learned + a.learned,
            sat_restarts: e.restarts + a.restarts,
        }
    }

    /// Outcome snapshot (value + stats).
    pub fn outcome(&self) -> ExpandOutcome {
        ExpandOutcome { value: self.value, stats: self.stats() }
    }

    /// Pattern of `assignment` on `deps[v]`.
    fn pattern(deps: &[u32], assignment: &[bool]) -> Vec<bool> {
        deps.iter().map(|&d| assignment[d as usize]).collect()
    }

    /// Add `μ` to `A` and encode its conjunct into `φ∃`. Ignores
    /// duplicates (by universal projection); returns whether added.
    fn push_mu(&mut self, mu: Vec<bool>) -> bool {
        let key: Vec<bool> =
            self.u_vars.iter().map(|&u| mu[u as usize]).collect();
        if !self.a_keys.insert(key) {
            return false;
        }
        let selector = self.sat_e.new_var().positive();
        self.sel_e.push(selector);
        let mut dead = false;
        'clauses: for clause in self.qbf.matrix().clauses() {
            let mut mapped: Vec<Lit> = vec![!selector];
            for &l in clause.lits() {
                let v = l.var().index();
                match self.quant[v] {
                    Some(Quantifier::Forall) if mu[v] == l.is_positive() => {
                        continue 'clauses; // satisfied under μ
                    }
                    // Falsified under μ: the literal drops out.
                    Some(Quantifier::Forall) => {}
                    Some(Quantifier::Exists) => {
                        let copy = Self::copy_var(
                            &mut self.copy_e,
                            &mut self.sat_e,
                            &self.deps,
                            l.var(),
                            &mu,
                        );
                        mapped.push(copy.lit(l.is_positive()));
                    }
                    None => {
                        // Unquantified and non-occurring can't appear
                        // in a clause; treat defensively as false.
                    }
                }
            }
            if mapped.len() == 1 {
                dead = true; // clause false under μ: conjunct dies
                break;
            }
            self.sat_e.add_clause(&mapped);
        }
        if dead {
            self.sat_e.add_clause(&[!selector]);
        }
        self.a_set.push(mu);
        true
    }

    /// Add `τ` to `B` and encode `¬M[E←τ]` into `φ∀`. Ignores
    /// duplicates (by existential projection); returns whether added.
    fn push_tau(&mut self, tau: Vec<bool>) -> bool {
        let key: Vec<bool> =
            self.e_vars.iter().map(|&e| tau[e as usize]).collect();
        if !self.b_keys.insert(key) {
            return false;
        }
        let selector = self.sat_a.new_var().positive();
        self.sel_a.push(selector);
        let mut big: Vec<Lit> = vec![!selector];
        let mut trivially_true = false;
        'clauses: for clause in self.qbf.matrix().clauses() {
            let mut universal: Vec<Lit> = Vec::new();
            for &l in clause.lits() {
                let v = l.var().index();
                match self.quant[v] {
                    Some(Quantifier::Exists) if tau[v] == l.is_positive() => {
                        continue 'clauses; // satisfied under τ
                    }
                    // Falsified under τ: the literal drops out.
                    Some(Quantifier::Exists) => {}
                    Some(Quantifier::Forall) => {
                        let copy = Self::copy_var(
                            &mut self.copy_a,
                            &mut self.sat_a,
                            &self.deps,
                            l.var(),
                            &tau,
                        );
                        universal.push(copy.lit(l.is_positive()));
                    }
                    None => {}
                }
            }
            match universal.len() {
                // Clause already false under τ: ¬M[τ] holds trivially.
                0 => {
                    trivially_true = true;
                    break;
                }
                1 => big.push(!universal[0]),
                _ => {
                    // Tseitin: d → ¬l for every remaining literal.
                    let d = self.sat_a.new_var();
                    for &l in &universal {
                        self.sat_a.add_clause(&[d.negative(), !l]);
                    }
                    big.push(d.positive());
                }
            }
        }
        if !trivially_true {
            self.sat_a.add_clause(&big);
        }
        self.b_set.push(tau);
        true
    }

    /// Shared copy allocator: the copy of `v` under `assignment`
    /// projected on `deps[v]` (creating the SAT variable on demand).
    fn copy_var(
        copies: &mut BTreeMap<(u32, Vec<bool>), Var>,
        sat: &mut SatSolver,
        deps: &[Vec<u32>],
        v: Var,
        assignment: &[bool],
    ) -> Var {
        let key = (v.index() as u32, Self::pattern(&deps[v.index()], assignment));
        if let Some(&c) = copies.get(&key) {
            return c;
        }
        let c = sat.new_var();
        copies.insert(key, c);
        c
    }

    /// From a `φ∃` model, read the candidate `τ_μ` for every `μ ∈ A`
    /// and add the new ones to `B`. Returns how many were added.
    fn refine_with_candidates(&mut self) -> usize {
        let mut added = 0;
        for i in 0..self.a_set.len() {
            let mut tau = vec![false; self.qbf.num_vars()];
            for &x in &self.e_vars.clone() {
                let key = (
                    x,
                    Self::pattern(&self.deps[x as usize], &self.a_set[i]),
                );
                if let Some(&c) = self.copy_e.get(&key) {
                    tau[x as usize] = self.sat_e.model_value(c);
                }
            }
            if self.push_tau(tau) {
                added += 1;
            }
        }
        added
    }

    /// From a `φ∀` model, read the counterexample `μ_τ` for every
    /// `τ ∈ B` and add the new ones to `A`. Returns how many were
    /// added.
    fn refine_with_counterexamples(&mut self) -> usize {
        let mut added = 0;
        for i in 0..self.b_set.len() {
            let mut mu = vec![false; self.qbf.num_vars()];
            for &u in &self.u_vars.clone() {
                let key = (
                    u,
                    Self::pattern(&self.deps[u as usize], &self.b_set[i]),
                );
                if let Some(&c) = self.copy_a.get(&key) {
                    mu[u as usize] = self.sat_a.model_value(c);
                }
            }
            if self.push_mu(mu) {
                added += 1;
            }
        }
        added
    }

    /// Forced progress: enumerate (lexicographically over the universal
    /// projection) the first assignment not in `A`. Returns `false`
    /// when the odometer wraps, i.e. `A` is already the full expansion.
    fn force_mu(&mut self) -> bool {
        loop {
            // Binary increment, least-significant side last (so the
            // enumeration order is lexicographic on the key).
            let mut carried = true;
            for slot in self.odometer.iter_mut().rev() {
                if *slot {
                    *slot = false;
                } else {
                    *slot = true;
                    carried = false;
                    break;
                }
            }
            if carried {
                return false; // wrapped: A complete
            }
            if !self.a_keys.contains(&self.odometer) {
                let mut mu = vec![false; self.qbf.num_vars()];
                for (k, &u) in self.u_vars.iter().enumerate() {
                    mu[u as usize] = self.odometer[k];
                }
                let added = self.push_mu(mu);
                debug_assert!(added);
                self.forced_refinements += 1;
                return true;
            }
        }
    }

    /// Advance the refinement loop until decided, the absolute cost
    /// `budget` is reached, or `stop` is raised.
    fn advance(
        &mut self,
        budget: Option<u64>,
        stop: Option<&AtomicBool>,
    ) -> Advance {
        loop {
            match self.phase {
                EnginePhase::Done => return Advance::Done,
                EnginePhase::SolveExists => {
                    let sub =
                        budget.map(|b| b.saturating_sub(self.sat_a.cost()));
                    self.observer.on_phase_start(Phase::SatSolve);
                    let sel = std::mem::take(&mut self.sel_e);
                    let result = self.sat_e.solve_limited(&sel, sub, stop);
                    self.sel_e = sel;
                    self.observer.on_phase_end(Phase::SatSolve);
                    if matches!(result, SolveResult::Sat | SolveResult::Unsat)
                    {
                        self.sat_calls += 1;
                    }
                    match result {
                        SolveResult::Paused => return Advance::Paused,
                        SolveResult::Cancelled => return Advance::Cancelled,
                        SolveResult::Unsat => {
                            self.final_core =
                                self.sat_e.unsat_core().len() as u64;
                            self.value = Some(false);
                            self.phase = EnginePhase::Done;
                        }
                        SolveResult::Sat => {
                            self.observer.on_phase_start(Phase::Refine);
                            self.refine_with_candidates();
                            self.observer.on_phase_end(Phase::Refine);
                            self.phase = EnginePhase::SolveForall;
                        }
                    }
                }
                EnginePhase::SolveForall => {
                    let sub =
                        budget.map(|b| b.saturating_sub(self.sat_e.cost()));
                    self.observer.on_phase_start(Phase::SatSolve);
                    let sel = std::mem::take(&mut self.sel_a);
                    let result = self.sat_a.solve_limited(&sel, sub, stop);
                    self.sel_a = sel;
                    self.observer.on_phase_end(Phase::SatSolve);
                    if matches!(result, SolveResult::Sat | SolveResult::Unsat)
                    {
                        self.sat_calls += 1;
                    }
                    match result {
                        SolveResult::Paused => return Advance::Paused,
                        SolveResult::Cancelled => return Advance::Cancelled,
                        SolveResult::Unsat => {
                            self.final_core =
                                self.sat_a.unsat_core().len() as u64;
                            self.value = Some(true);
                            self.phase = EnginePhase::Done;
                        }
                        SolveResult::Sat => {
                            self.observer.on_phase_start(Phase::Refine);
                            let added = self.refine_with_counterexamples();
                            let decided = if added == 0 && !self.force_mu() {
                                // A is the full expansion and φ∃ was
                                // just satisfiable: definitive.
                                self.value = Some(true);
                                self.phase = EnginePhase::Done;
                                true
                            } else {
                                false
                            };
                            self.rounds += 1;
                            self.observer.on_phase_end(Phase::Refine);
                            self.observer.on_gauge(
                                EngineGauge::AbstractionConjuncts,
                                (self.a_set.len() + self.b_set.len()) as u64,
                            );
                            if !decided {
                                self.phase = EnginePhase::SolveExists;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Advance until the truth value is decided or [`cost`] reaches
    /// `bound`. Returns the value if decided. This is the portfolio
    /// lockstep hook: repeated calls with growing bounds replay the
    /// exact same refinement trajectory.
    ///
    /// [`cost`]: ExpandSolver::cost
    pub fn step_to(&mut self, bound: u64) -> Option<bool> {
        if self.phase != EnginePhase::Done && self.cost() < bound {
            self.advance(Some(bound), None);
        }
        self.value
    }

    /// Run to completion (or the configured step limit), checking
    /// `stop` at every SAT decision boundary.
    pub fn run(&mut self, stop: &AtomicBool) -> ExpandOutcome {
        match self.config.step_limit {
            None => {
                self.advance(None, Some(stop));
            }
            Some(limit) => {
                if self.phase != EnginePhase::Done && self.cost() < limit {
                    self.advance(Some(limit), Some(stop));
                }
            }
        }
        self.outcome()
    }

    /// Run to completion (or the configured step limit).
    pub fn solve(&mut self) -> ExpandOutcome {
        match self.config.step_limit {
            None => {
                self.advance(None, None);
            }
            Some(limit) => {
                if self.phase != EnginePhase::Done && self.cost() < limit {
                    self.advance(Some(limit), None);
                }
            }
        }
        self.outcome()
    }
}

/// One-shot convenience: solve `qbf` with `config`.
pub fn solve(qbf: &Qbf, config: ExpandConfig) -> ExpandOutcome {
    ExpandSolver::new(qbf, config).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbf_core::samples;

    fn both_schemes(qbf: &Qbf, expected: bool) {
        for scheme in [DepScheme::Tree, DepScheme::Ordered] {
            let config = ExpandConfig { dep_scheme: scheme, step_limit: None };
            let outcome = solve(qbf, config);
            assert_eq!(
                outcome.value,
                Some(expected),
                "scheme {scheme:?} disagrees"
            );
        }
    }

    #[test]
    fn paper_example_is_false() {
        both_schemes(&samples::paper_example(), false);
    }

    #[test]
    fn stats_replay_byte_identically() {
        let qbf = samples::paper_example();
        let run = || {
            let outcome = solve(&qbf, ExpandConfig::tree());
            format!("{:?}|{}", outcome.value, outcome.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_limit_yields_unknown() {
        let qbf = samples::paper_example();
        let outcome = solve(&qbf, ExpandConfig::tree().with_step_limit(1));
        assert_eq!(outcome.value, None);
    }

    #[test]
    fn stepped_and_oneshot_agree() {
        let qbf = samples::paper_example();
        let oneshot = solve(&qbf, ExpandConfig::ordered());
        let mut stepped = ExpandSolver::new(&qbf, ExpandConfig::ordered());
        let mut bound = 0;
        let value = loop {
            bound += 3;
            if let Some(v) = stepped.step_to(bound) {
                break v;
            }
        };
        assert_eq!(Some(value), oneshot.value);
        assert_eq!(stepped.stats(), oneshot.stats);
    }

    #[test]
    fn cancellation_stops_the_loop() {
        let qbf = samples::paper_example();
        let mut solver = ExpandSolver::new(&qbf, ExpandConfig::tree());
        let stop = AtomicBool::new(true);
        let outcome = solver.run(&stop);
        assert_eq!(outcome.value, None);
    }
}
