//! Q-resolution / Q-consensus **proof logging** for the search engine.
//!
//! A run of the iterative solver with a [`ProofLog`] attached emits a
//! line-oriented certificate: every learned clause is derived by a chain
//! of Q-resolution steps (antecedents are earlier proof lines) and
//! ∀-reductions, every learned cube by a Q-consensus chain from an
//! *initial cube* (an implicant of the matrix), and the run ends with the
//! empty clause (FALSE) or the empty cube (TRUE). Under a tree prefix
//! every reduction is justified by the partial order `≺` alone, which
//! makes the paper's central claim — learning stays sound when the prenex
//! total order is relaxed to the quantifier tree — machine-checkable: the
//! independent verifier in the `qbf-proof` crate (`qbfcheck`) replays the
//! chains with its own `≺` test.
//!
//! # Certificate format (`qrp`, version 1)
//!
//! ASCII, one record per line, ids strictly increasing. The original
//! clauses implicitly occupy ids `1..=num_clauses` in matrix order.
//!
//! ```text
//! p qrp 1 <num_vars> <num_clauses>
//! h <prefix-fnv64-hex> <matrix-fnv64-hex>
//! r <id> <ant1> <ant2> <pivot>        resolution: pivot ∈ ant1, ¬pivot ∈ ant2;
//!                                     the new line is ant1∖{pivot} ∪ ant2∖{¬pivot}
//! u <id> <ant> <removed…> 0           reduction: removes the listed literals
//! i <id> <lits…> 0                    initial cube (implicant of the matrix)
//! l <id> <ant> <lits…> 0              learned constraint (set-equal copy of ant)
//! d <id>                              the solver forgot this learned constraint
//! c 0 <id>   |   c 1 <id>             conclusion: <id> is the empty clause / cube
//! ```
//!
//! Literals are DIMACS integers. A `r`/`u` line inherits its kind (clause
//! or cube) from its antecedents; `i` lines are cubes. The verifier
//! accepts *long-distance* resolvents containing a complementary pair of
//! irrelevant-quantifier literals `{x, ¬x}` only when `pivot ≺ x` (the
//! Balabanov–Jiang side condition transplanted to the tree order);
//! relevant-quantifier tautologies are always rejected.
//!
//! # Attaching a log
//!
//! [`Solver`](crate::solver::Solver) holds an optional `&mut ProofLog`:
//! [`Solver::with_proof`](crate::solver::Solver::with_proof) attaches one
//! alone, [`Solver::with_parts`](crate::solver::Solver::with_parts) beside
//! an observer. Each hook call in the engine sits behind one
//! `if let Some(proof)` check. A runtime check suffices because no hook
//! sits on the propagation path: they fire at conflicts, solutions,
//! learning, decisions, backtracks and database reduction, and a run
//! without a log pays one predictable branch at each. No search decision
//! reads the log, so a logged run makes the same search as an unlogged
//! one; the bit-identical `Stats` guard lives in
//! `tests/observe_integration.rs`.
//!
//! # Determinism
//!
//! The engine is deterministic, every hook fires at a deterministic point
//! and the writer appends to an in-memory buffer, so the emitted bytes are
//! identical across runs (asserted by the CI proof gate).

use std::collections::HashMap;

use crate::prefix::Prefix;
use crate::qbf::Qbf;
use crate::var::Lit;

/// A shadow refutation attached to a flipped decision frame: a derived
/// proof line refuting the frame's *first* branch, kept as `(line id,
/// literal snapshot)` so it stays usable after database reduction or
/// compaction (proof lines are never invalidated).
#[derive(Debug, Clone)]
struct Shadow {
    line: u64,
    lits: Vec<Lit>,
    cube: bool,
}

/// The proof writer: accumulates the certificate in memory.
///
/// Byte-deterministic: identical runs produce identical bytes. Attach it
/// with `Solver::with_proof(qbf, config, &mut log)` and read the
/// certificate with [`ProofLog::as_text`] after `solve()`.
#[derive(Debug, Default)]
pub struct ProofLog {
    buf: String,
    next_id: u64,
    /// Live constraint token (engine `ConstraintRef` bits) → proof line.
    token_line: HashMap<u64, u64>,
    working: Vec<Lit>,
    working_line: u64,
    working_cube: bool,
    shadows: Vec<Option<Shadow>>,
    steps: u64,
    dels: u64,
    concluded: bool,
}

impl ProofLog {
    /// Creates an empty proof log.
    pub fn new() -> Self {
        ProofLog::default()
    }

    /// The certificate text emitted so far.
    pub fn as_text(&self) -> &str {
        &self.buf
    }

    /// Whether a conclusion record has been written (a run that exhausts
    /// its budget leaves the proof unconcluded).
    pub fn is_concluded(&self) -> bool {
        self.concluded
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn line_of(&self, token: u64) -> u64 {
        *self
            .token_line
            .get(&token)
            .expect("proof: constraint token has no proof line")
    }

    /// `resolvent = working ∖ {pivot} ∪ ant ∖ {¬pivot}` — exactly the
    /// verifier's rule, merged (long-distance) pairs included.
    fn resolve_with(&mut self, line: u64, ant: &[Lit], pivot: Lit) {
        debug_assert!(self.working.contains(&pivot), "pivot not in working");
        debug_assert!(ant.contains(&!pivot), "¬pivot not in antecedent");
        self.working.retain(|&l| l != pivot);
        for &x in ant {
            if x == !pivot {
                continue;
            }
            if !self.working.contains(&x) {
                self.working.push(x);
            }
        }
        let id = self.fresh_id();
        let w = self.working_line;
        self.buf
            .push_str(&format!("r {id} {w} {line} {}\n", pivot.to_dimacs()));
        self.working_line = id;
        self.steps += 1;
    }

    /// Removes `removed` from the working constraint and emits a `u`
    /// record (caller guarantees each removal is a legal reduction).
    fn emit_reduction(&mut self, removed: &[Lit]) {
        if removed.is_empty() {
            return;
        }
        self.working.retain(|l| !removed.contains(l));
        let id = self.fresh_id();
        let w = self.working_line;
        let mut rec = format!("u {id} {w}");
        for &l in removed {
            rec.push_str(&format!(" {}", l.to_dimacs()));
        }
        rec.push_str(" 0\n");
        self.buf.push_str(&rec);
        self.working_line = id;
        self.steps += 1;
    }

    /// The literals a maximal reduction removes: irrelevant-quantifier
    /// literals preceding no relevant-quantifier literal of the working
    /// constraint (Lemma 3 and its dual, phrased with `≺`).
    fn reducible(&self, prefix: &Prefix) -> Vec<Lit> {
        let relevant = |l: &Lit| prefix.is_existential(l.var()) != self.working_cube;
        let anchors: Vec<_> = self.working.iter().filter(|l| relevant(l)).map(|l| l.var()).collect();
        self.working
            .iter()
            .copied()
            .filter(|l| !relevant(l) && !anchors.iter().any(|&a| prefix.precedes(l.var(), a)))
            .collect()
    }
}

// The engine's hooks. They mirror its analysis verbatim: a *chain* is
// opened at each conflict/solution, mutated in lockstep with the engine's
// working constraint, snapshotted by `chain_learn`, and closed either
// implicitly (search continues) or by `conclude`.
impl ProofLog {
    /// Called once before the search starts; writes the header.
    pub(crate) fn begin(&mut self, qbf: &Qbf) {
        let (ph, mh) = instance_fingerprints(qbf);
        self.buf.push_str(&format!(
            "p qrp 1 {} {}\nh {ph:016x} {mh:016x}\n",
            qbf.num_vars(),
            qbf.matrix().len()
        ));
    }

    /// Registers one original matrix clause, in matrix order.
    pub(crate) fn on_original(&mut self, token: u64) {
        let id = self.fresh_id();
        self.token_line.insert(token, id);
    }

    /// Opens a chain from an existing constraint (original or learned).
    pub(crate) fn chain_start(&mut self, token: u64, lits: &[Lit], cube: bool) {
        self.working = lits.to_vec();
        self.working_line = self.line_of(token);
        self.working_cube = cube;
    }

    /// Opens a cube chain from an implicant of the matrix.
    pub(crate) fn chain_init_cube(&mut self, lits: &[Lit]) {
        self.working = lits.to_vec();
        self.working_cube = true;
        let id = self.fresh_id();
        let mut rec = format!("i {id}");
        for &l in lits {
            rec.push_str(&format!(" {}", l.to_dimacs()));
        }
        rec.push_str(" 0\n");
        self.buf.push_str(&rec);
        self.working_line = id;
        self.steps += 1;
    }

    /// Resolves the working constraint with constraint `token` on `pivot`
    /// (`pivot` is in the working constraint, `¬pivot` in the antecedent).
    pub(crate) fn chain_resolve(&mut self, token: u64, ant: &[Lit], pivot: Lit) {
        let line = self.line_of(token);
        self.resolve_with(line, ant, pivot);
    }

    /// Maximal ∀-reduction (∃-reduction for cubes) of the working
    /// constraint under `≺`.
    pub(crate) fn chain_reduce(&mut self, prefix: &Prefix) {
        let removed = self.reducible(prefix);
        self.emit_reduction(&removed);
    }

    /// Removes exactly `lit` from the working constraint (a single
    /// reduction step the engine has already proven legal).
    pub(crate) fn chain_remove(&mut self, lit: Lit) {
        if self.working.contains(&lit) {
            self.emit_reduction(&[lit]);
        }
    }

    /// The engine stored the working constraint as learned constraint
    /// `token` with literals `lits` (set-equal to the working constraint).
    pub(crate) fn chain_learn(&mut self, token: u64, lits: &[Lit]) {
        debug_assert_eq!(
            {
                let mut a: Vec<i64> = self.working.iter().map(|l| l.to_dimacs()).collect();
                a.sort_unstable();
                a
            },
            {
                let mut b: Vec<i64> = lits.iter().map(|l| l.to_dimacs()).collect();
                b.sort_unstable();
                b
            },
            "proof: learned constraint diverged from the logged chain"
        );
        let id = self.fresh_id();
        let w = self.working_line;
        let mut rec = format!("l {id} {w}");
        for &l in lits {
            rec.push_str(&format!(" {}", l.to_dimacs()));
        }
        rec.push_str(" 0\n");
        self.buf.push_str(&rec);
        self.token_line.insert(token, id);
        self.working_line = id;
        self.steps += 1;
    }

    /// A frame holding `assigned` is being popped during a terminal walk:
    /// combine the working constraint with the frame's shadow refutation
    /// (resolution or replacement), then reduce.
    pub(crate) fn chain_absorb_frame(&mut self, prefix: &Prefix, assigned: Lit, existential: bool) {
        // Only a decision of the working constraint's *relevant* kind can
        // carry a usable shadow (existential flips are refuted by clauses,
        // universal flips by cubes); irrelevant decisions are handled by
        // the maximal reduction below.
        let relevant = existential != self.working_cube;
        if relevant {
            // For clauses the working constraint depends on the decision
            // through ¬assigned (falsified); for cubes through assigned.
            let dep = if self.working_cube { assigned } else { !assigned };
            if self.working.contains(&dep) {
                if let Some(Some(shadow)) = self.shadows.last().cloned() {
                    if shadow.cube == self.working_cube {
                        if shadow.lits.contains(&!dep) {
                            self.resolve_with(shadow.line, &shadow.lits, dep);
                        } else {
                            // The first-branch refutation is independent of
                            // the decision: it refutes the whole node.
                            self.working = shadow.lits.clone();
                            self.working_line = shadow.line;
                        }
                    }
                }
            }
        }
        let removed = self.reducible(prefix);
        self.emit_reduction(&removed);
    }

    /// Emits the conclusion record; the working constraint must be empty.
    pub(crate) fn conclude(&mut self, value: bool) {
        debug_assert!(
            self.working.is_empty(),
            "proof: conclusion with a non-empty working constraint: {:?}",
            self.working
        );
        let w = self.working_line;
        self.buf
            .push_str(&format!("c {} {w}\n", if value { 1 } else { 0 }));
        self.concluded = true;
    }

    /// A plain (unflipped) decision frame was pushed.
    pub(crate) fn frame_push(&mut self) {
        self.shadows.push(None);
    }

    /// A flipped decision frame was pushed whose first branch is refuted
    /// by the current working constraint (chronological flip).
    pub(crate) fn frame_push_working(&mut self) {
        self.shadows.push(Some(Shadow {
            line: self.working_line,
            lits: self.working.clone(),
            cube: self.working_cube,
        }));
    }

    /// A flipped decision frame was pushed whose first branch is refuted
    /// by constraint `token` (the engine's pseudo-reason).
    pub(crate) fn frame_push_token(&mut self, token: u64, lits: &[Lit], cube: bool) {
        self.shadows.push(Some(Shadow {
            line: self.line_of(token),
            lits: lits.to_vec(),
            cube,
        }));
    }

    /// The topmost decision frame was popped.
    pub(crate) fn frame_pop(&mut self) {
        self.shadows.pop();
    }

    /// The solver forgot a learned constraint (database reduction).
    pub(crate) fn on_delete(&mut self, token: u64) {
        if let Some(line) = self.token_line.remove(&token) {
            // A line still referenced by a live shadow (or by the parked
            // working chain) may yet appear as an antecedent; keep it
            // alive in the certificate — the verifier rejects any use of
            // a deleted line.
            let pinned = line == self.working_line
                || self.shadows.iter().flatten().any(|s| s.line == line);
            if !pinned {
                self.buf.push_str(&format!("d {line}\n"));
                self.dels += 1;
            }
        }
    }

    /// Arena compaction renamed constraint tokens: `(old, new)` pairs
    /// covering every live constraint.
    pub(crate) fn remap_tokens(&mut self, pairs: &[(u64, u64)]) {
        let mut remapped = HashMap::with_capacity(pairs.len());
        for &(old, new) in pairs {
            if let Some(line) = self.token_line.get(&old) {
                remapped.insert(new, *line);
            }
        }
        self.token_line = remapped;
    }

    /// Whether the working constraint currently contains `lit`.
    pub(crate) fn working_contains(&self, lit: Lit) -> bool {
        self.working.contains(&lit)
    }

    /// `(proof_steps, proof_bytes, proof_dels)` so far.
    pub(crate) fn proof_stats(&self) -> (u64, u64, u64) {
        (self.steps, self.buf.len() as u64, self.dels)
    }
}

/// FNV-1a 64-bit fingerprints binding a certificate to its instance:
/// `(prefix hash, matrix hash)`.
///
/// Canonical serialization (the verifier recomputes this independently):
/// the prefix forest is walked root-to-leaf in declaration order, each
/// block emitting `(`, its quantifier letter (`a`/`e`), its variables as
/// 1-based decimal numbers each followed by a space, its children, and
/// `)`; the matrix emits each clause in order as sorted DIMACS literals
/// followed by `0\n`.
pub fn instance_fingerprints(qbf: &Qbf) -> (u64, u64) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fn fnv(acc: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *acc ^= b as u64;
            *acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let prefix = qbf.prefix();
    let mut ph = OFFSET;
    let mut stack: Vec<(crate::prefix::BlockId, bool)> =
        prefix.roots().iter().rev().map(|&b| (b, false)).collect();
    while let Some((b, closing)) = stack.pop() {
        if closing {
            fnv(&mut ph, b")");
            continue;
        }
        fnv(&mut ph, b"(");
        fnv(
            &mut ph,
            if prefix.block_quant(b).is_exists() { b"e" } else { b"a" },
        );
        for &v in prefix.block_vars(b) {
            fnv(&mut ph, (v.index() + 1).to_string().as_bytes());
            fnv(&mut ph, b" ");
        }
        stack.push((b, true));
        for &c in prefix.block_children(b).iter().rev() {
            stack.push((c, false));
        }
    }
    let mut mh = OFFSET;
    for c in qbf.matrix().iter() {
        for &l in c.lits() {
            fnv(&mut mh, l.to_dimacs().to_string().as_bytes());
            fnv(&mut mh, b" ");
        }
        fnv(&mut mh, b"0\n");
    }
    (ph, mh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn fingerprints_distinguish_instances() {
        let a = instance_fingerprints(&samples::paper_example());
        let b = instance_fingerprints(&samples::sat_instance());
        assert_ne!(a, b);
        assert_eq!(a, instance_fingerprints(&samples::paper_example()));
    }

    #[test]
    fn proof_log_concludes_on_samples() {
        use crate::solver::{Solver, SolverConfig};
        let cases: [(Qbf, bool); 6] = [
            (samples::paper_example(), false),
            (samples::forall_exists_xor(), true),
            (samples::exists_forall_xor(), false),
            (samples::two_independent_games(), true),
            (samples::sat_instance(), true),
            (samples::unsat_instance(), false),
        ];
        for (qbf, expected) in &cases {
            for config in [SolverConfig::partial_order(), SolverConfig::total_order()] {
                let mut log = ProofLog::new();
                let outcome = Solver::with_proof(qbf, config, &mut log).solve();
                assert_eq!(outcome.value(), Some(*expected));
                assert!(log.is_concluded(), "unconcluded proof:\n{}", log.as_text());
                assert!(outcome.stats.proof_bytes > 0);
                let last = log.as_text().lines().last().unwrap();
                assert!(
                    last.starts_with(if *expected { "c 1 " } else { "c 0 " }),
                    "wrong conclusion: {last}"
                );
            }
        }
    }

    #[test]
    fn proof_log_is_deterministic() {
        use crate::solver::{Solver, SolverConfig};
        let qbf = samples::random_qbf(7, 12, 24);
        let run = |qbf: &Qbf| {
            let mut log = ProofLog::new();
            Solver::with_proof(qbf, SolverConfig::partial_order(), &mut log).solve();
            log.buf
        };
        assert_eq!(run(&qbf), run(&qbf));
    }
}
