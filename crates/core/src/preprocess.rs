//! Value-preserving preprocessing of QBFs.
//!
//! Applies, to fixpoint, the simplifications that are sound on arbitrary
//! (non-prenex) QBFs:
//!
//! * **universal reduction** of every clause (Lemma 3): a universal literal
//!   whose scope contains no existential literal of the clause is dropped;
//! * **unit assignment** (Lemma 5): a clause reduced to a single
//!   existential literal forces it;
//! * **contradictory clause detection** (Lemma 4): a clause left without
//!   existential literals makes the formula false;
//! * **monotone (pure) literal fixing** (§III);
//! * **subsumption**: a clause that is a superset of another is dropped
//!   (propositionally sound, hence QBF-sound for CNF matrices).
//!
//! The result is a simplified [`Qbf`] with the same value, plus a
//! [`Report`] of what fired. Useful in front of either solver and as an
//! ingredient of the §VII-D pipeline.
//!
//! # One incremental pass
//!
//! The output is defined by a naive loop: reduce every clause; stop if the
//! formula is decided; else apply one unit, else one pure literal, else one
//! subsumption round; repeat until nothing fires. [`preprocess`] computes
//! exactly that result (same formula, same clause order, same [`Report`])
//! in one pass over per-literal occurrence lists and counts: every clause
//! is reduced once, an assignment re-reduces only the clauses it shrank,
//! and the prefix is rebuilt once at the end ([`Prefix::without_vars`]).
//! These rules make the two agree:
//!
//! * **Units before pures.** After reduction a Lemma 5 unit is exactly a
//!   one-literal existential clause; the first one in current matrix order
//!   is applied.
//! * **Pures.** The pure literal is taken from the lowest-index bound
//!   variable with only one polarity left; an existential is set to
//!   satisfy it, a universal to falsify it.
//! * **Contradiction.** After every single assignment the clauses it shrank
//!   are re-reduced (counted in [`Report::reduced_literals`]) and only then
//!   checked for a clause without existential literals, so the report also
//!   matches when the formula is decided false.
//! * **Subsumption.** A round runs only when no unit and no pure literal is
//!   left. It drops every clause that has a subset earlier in the stable
//!   length order of the matrix, and reorders the matrix by that order
//!   *only when it dropped something*.
//! * **Prefix.** Reduction keeps using the input prefix. Unbinding
//!   variables never changes `≺` between a universal and an existential
//!   that are both still bound and share a clause: such pairs are exactly
//!   strict-ancestor block pairs, and blocks only dissolve or fuse along
//!   ancestor chains.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clause::Clause;
use crate::matrix::Matrix;
use crate::prefix::Prefix;
use crate::qbf::Qbf;
use crate::var::{Lit, Quantifier, Var};

/// What the preprocessor did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Literals assigned as units.
    pub units: usize,
    /// Literals assigned as monotone.
    pub pures: usize,
    /// Universal literals removed by reduction.
    pub reduced_literals: usize,
    /// Clauses removed by subsumption.
    pub subsumed: usize,
    /// Whether the formula was decided outright.
    pub decided: Option<bool>,
}

/// Preprocesses a QBF; the returned formula has the same value.
///
/// When the formula is decided outright, the returned QBF is the canonical
/// true (empty matrix) or false (single empty clause) formula over the same
/// universe and [`Report::decided`] is set.
///
/// # Examples
///
/// ```
/// use qbf_core::{preprocess, samples};
/// let (simplified, report) = preprocess::preprocess(&samples::unsat_instance());
/// assert_eq!(report.decided, Some(false));
/// assert!(simplified.matrix().has_empty_clause());
/// ```
pub fn preprocess(qbf: &Qbf) -> (Qbf, Report) {
    let mut s = Simplifier::new(qbf);
    s.reduce_all();
    loop {
        if s.contradiction {
            s.report.decided = Some(false);
            let falsum = Qbf::new(
                Prefix::empty(qbf.num_vars()),
                Matrix::from_clauses(qbf.num_vars(), [Clause::empty()]),
            )
            .expect("canonical false");
            return (falsum, s.report);
        }
        if s.num_live == 0 {
            s.report.decided = Some(true);
            let verum = Qbf::new(Prefix::empty(qbf.num_vars()), Matrix::new(qbf.num_vars()))
                .expect("canonical true");
            return (verum, s.report);
        }
        if let Some(unit) = s.next_unit() {
            s.report.units += 1;
            s.assign(unit);
        } else if let Some(pure) = s.next_pure() {
            s.report.pures += 1;
            s.assign(pure);
        } else if s.subsume() == 0 {
            let prefix = qbf.prefix().without_vars(&s.assigned);
            let out = Qbf::new(prefix, s.matrix()).expect("simplification keeps clause scopes");
            return (out, s.report);
        }
    }
}

/// Live occurrence counts per literal code, and the variables that may have
/// lost a polarity: a lazy min-heap, re-checked when popped. A variable
/// that is pure stays pure until it is assigned or vanishes, because counts
/// only ever fall.
struct Counts {
    live: Vec<usize>,
    maybe_pure: BinaryHeap<Reverse<usize>>,
}

impl Counts {
    /// Records that one live occurrence of `l` is gone.
    fn remove(&mut self, l: Lit) {
        self.live[l.code()] -= 1;
        if self.live[l.code()] == 0 {
            self.maybe_pure.push(Reverse(l.var().index()));
        }
    }
}

/// The working state of [`preprocess`]: the matrix as shrinking literal
/// lists with occurrence lists, and the ordered work sets.
struct Simplifier<'a> {
    /// The input prefix: `≺` between still-bound variables never changes
    /// (see the module docs), so reduction keeps using it.
    prefix: &'a Prefix,
    report: Report,
    /// Each clause's literals, sorted like [`Clause`]'s.
    lits: Vec<Vec<Lit>>,
    live: Vec<bool>,
    num_live: usize,
    /// Clause ids in matrix order; dead ones stay until the next reorder.
    order: Vec<usize>,
    /// Each clause's index in `order`.
    rank: Vec<usize>,
    /// Per literal code: the clauses that contained it initially. Entries
    /// go stale when a clause dies or loses the literal; users re-check.
    occ: Vec<Vec<usize>>,
    counts: Counts,
    assigned: Vec<bool>,
    /// Ranks of clauses that became units: a lazy min-heap.
    units: BinaryHeap<Reverse<usize>>,
    contradiction: bool,
}

impl<'a> Simplifier<'a> {
    fn new(qbf: &'a Qbf) -> Self {
        let n = qbf.num_vars();
        let lits: Vec<Vec<Lit>> = qbf.matrix().iter().map(|c| c.lits().to_vec()).collect();
        let mut occ = vec![Vec::new(); 2 * n];
        let mut live = vec![0; 2 * n];
        for (c, clause) in lits.iter().enumerate() {
            for l in clause {
                occ[l.code()].push(c);
                live[l.code()] += 1;
            }
        }
        let m = lits.len();
        Simplifier {
            prefix: qbf.prefix(),
            report: Report::default(),
            lits,
            live: vec![true; m],
            num_live: m,
            order: (0..m).collect(),
            rank: (0..m).collect(),
            occ,
            counts: Counts {
                live,
                maybe_pure: (0..n).map(Reverse).collect(),
            },
            assigned: vec![false; n],
            units: BinaryHeap::new(),
            contradiction: false,
        }
    }

    /// Lemma 3 on every clause.
    fn reduce_all(&mut self) {
        for c in 0..self.lits.len() {
            self.reduce(c);
        }
    }

    /// Lemma 3 on clause `c`, then records a unit or a contradiction.
    fn reduce(&mut self, c: usize) {
        let prefix = self.prefix;
        // A clause lies on one root path of the forest (a `Qbf` invariant),
        // where `u ≺ e` is `d(u) < d(e)`: the deepest existential decides.
        let deepest = self.lits[c]
            .iter()
            .filter(|l| prefix.is_existential(l.var()))
            .filter_map(|l| prefix.discovery(l.var()))
            .max();
        let counts = &mut self.counts;
        let clause = &mut self.lits[c];
        let before = clause.len();
        clause.retain(|&l| {
            let v = l.var();
            let keep = !prefix.is_universal(v)
                || matches!((prefix.discovery(v), deepest), (Some(du), Some(de)) if du < de);
            if !keep {
                counts.remove(l);
            }
            keep
        });
        self.report.reduced_literals += before - clause.len();
        // After reduction, a clause without existentials is empty and a
        // one-literal clause is an existential unit.
        match clause.len() {
            0 => self.contradiction = true,
            1 => self.units.push(Reverse(self.rank[c])),
            _ => {}
        }
    }

    /// The first unit in matrix order, if any.
    fn next_unit(&mut self) -> Option<Lit> {
        while let Some(Reverse(r)) = self.units.pop() {
            let c = self.order[r];
            if self.live[c] && self.lits[c].len() == 1 {
                return Some(self.lits[c][0]);
            }
        }
        None
    }

    /// The monotone literal of the lowest-index bound variable with only
    /// one polarity left, if any.
    fn next_pure(&mut self) -> Option<Lit> {
        while let Some(Reverse(i)) = self.counts.maybe_pure.pop() {
            let v = Var::new(i);
            let pos = self.counts.live[v.positive().code()] > 0;
            let neg = self.counts.live[v.negative().code()] > 0;
            if pos == neg {
                continue;
            }
            match self.prefix.quant(v) {
                Some(Quantifier::Exists) => return Some(v.lit(pos)),
                Some(Quantifier::Forall) => return Some(v.lit(neg)),
                None => {}
            }
        }
        None
    }

    /// The restriction `ϕ_l` (§II) on the working matrix: clauses with `l`
    /// die, clauses with `¬l` lose it and are re-reduced.
    fn assign(&mut self, l: Lit) {
        self.assigned[l.var().index()] = true;
        for c in std::mem::take(&mut self.occ[l.code()]) {
            if self.live[c] && self.lits[c].binary_search(&l).is_ok() {
                self.kill(c);
            }
        }
        for c in std::mem::take(&mut self.occ[(!l).code()]) {
            if !self.live[c] {
                continue;
            }
            if let Ok(at) = self.lits[c].binary_search(&!l) {
                self.lits[c].remove(at);
                self.counts.remove(!l);
                self.reduce(c);
            }
        }
    }

    fn kill(&mut self, c: usize) {
        self.live[c] = false;
        self.num_live -= 1;
        for l in std::mem::take(&mut self.lits[c]) {
            self.counts.remove(l);
        }
    }

    /// One subsumption round: drops every clause that has a subset earlier
    /// in the stable length order and, if it dropped any, reorders the
    /// matrix by that order. Returns the number dropped.
    fn subsume(&mut self) -> usize {
        let mut dropped = 0;
        for r in 0..self.order.len() {
            let d = self.order[r];
            // A dropped clause's own subset drops everything it would.
            if !self.live[d] {
                continue;
            }
            let counts = &self.counts.live;
            let rarest = *self.lits[d]
                .iter()
                .min_by_key(|l| counts[l.code()])
                .expect("no empty clause survives to subsumption");
            // Scan the rarest literal's occurrences, dropping stale entries.
            let mut list = std::mem::take(&mut self.occ[rarest.code()]);
            list.retain(|&c| self.live[c] && self.lits[c].binary_search(&rarest).is_ok());
            for &c in &list {
                if c == d || !self.live[c] {
                    continue;
                }
                let (dl, cl) = (self.lits[d].len(), self.lits[c].len());
                let later = cl > dl || (cl == dl && self.rank[c] > self.rank[d]);
                if later && is_subset(&self.lits[d], &self.lits[c]) {
                    self.kill(c);
                    dropped += 1;
                }
            }
            self.occ[rarest.code()] = list;
        }
        if dropped > 0 {
            self.report.subsumed += dropped;
            let (live, lits) = (&self.live, &self.lits);
            self.order.retain(|&c| live[c]);
            self.order.sort_by_key(|&c| lits[c].len());
            for (r, &c) in self.order.iter().enumerate() {
                self.rank[c] = r;
            }
            // `next_unit` found the unit heap empty before this round, so
            // no stale rank survives the reorder.
        }
        dropped
    }

    /// The live clauses in matrix order.
    fn matrix(&self) -> Matrix {
        let clauses = self.order.iter().filter(|&&c| self.live[c]).map(|&c| {
            Clause::new(self.lits[c].iter().copied()).expect("a subset of an input clause")
        });
        Matrix::from_clauses(self.prefix.num_vars(), clauses)
    }
}

/// Whether `small ⊆ big`, both sorted like [`Clause`]'s literals.
fn is_subset(small: &[Lit], big: &[Lit]) -> bool {
    let mut rest = big;
    small
        .iter()
        .all(|l| match rest.iter().position(|b| b >= l) {
            Some(i) if rest[i] == *l => {
                rest = &rest[i + 1..];
                true
            }
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use crate::semantics;
    use crate::var::Quantifier::*;
    use crate::{Prefix, PrefixBuilder};


    fn clause(lits: &[i64]) -> Clause {
        Clause::new(lits.iter().map(|&d| Lit::from_dimacs(d))).unwrap()
    }

    #[test]
    fn decides_trivial_instances() {
        let (q, r) = preprocess(&samples::unsat_instance());
        assert_eq!(r.decided, Some(false));
        assert!(!semantics::eval(&q));
        let (q, r) = preprocess(&samples::sat_instance());
        assert_eq!(r.decided, Some(true));
        assert!(semantics::eval(&q));
        assert!(r.units + r.pures > 0);
    }

    #[test]
    fn universal_reduction_respects_partial_order() {
        // Non-prenex: ∃x (∀y ϕ) with clause (x ∨ y') where y' is in a
        // *sibling* subtree: y' is reducible (x not in its scope).
        let mut b = PrefixBuilder::new(3);
        let root = b.add_root(Exists, [Var::new(0)]).unwrap();
        b.add_child(root, Forall, [Var::new(1)]).unwrap();
        b.add_child(root, Forall, [Var::new(2)]).unwrap();
        let p = b.finish().unwrap();
        // clause (¬x ∨ y2): y2 does not precede x → reduced to (¬x);
        // second clause keeps x relevant both ways.
        let m = Matrix::from_clauses(3, [clause(&[-1, 3]), clause(&[1, 2])]);
        let q = Qbf::new(p, m).unwrap();
        let mut s = Simplifier::new(&q);
        s.reduce_all();
        assert_eq!(s.report.reduced_literals, 2); // y2 from c1, y1 from c2
        assert_eq!(s.matrix().clauses()[0], clause(&[-1]));
    }

    #[test]
    fn prenex_blocks_reduction_where_scope_applies() {
        // ∀y ∃x (x ∨ y): y ≺ x so y is NOT reducible.
        let p = Prefix::prenex(2, [(Forall, vec![Var::new(0)]), (Exists, vec![Var::new(1)])])
            .unwrap();
        let m = Matrix::from_clauses(2, [clause(&[1, 2]), clause(&[-1, -2])]);
        let q = Qbf::new(p, m).unwrap();
        let mut s = Simplifier::new(&q);
        s.reduce_all();
        assert_eq!(s.report.reduced_literals, 0);
        assert_eq!(s.matrix().len(), 2);
    }

    #[test]
    fn subsumption_drops_supersets() {
        let p = Prefix::prenex(3, [(Exists, vec![Var::new(0), Var::new(1), Var::new(2)])]).unwrap();
        let m = Matrix::from_clauses(
            3,
            [
                clause(&[2, 3]),
                clause(&[1, 2, 3]),
                clause(&[1]),
                clause(&[1, 2]),
                clause(&[2, 3]),
            ],
        );
        let q = Qbf::new(p, m).unwrap();
        let mut s = Simplifier::new(&q);
        assert_eq!(s.subsume(), 3);
        // The survivors are reordered by length, ties in matrix order.
        assert_eq!(s.matrix().clauses(), &[clause(&[1]), clause(&[2, 3])]);
        // A round that drops nothing keeps the order.
        assert_eq!(s.subsume(), 0);
        assert_eq!(s.report.subsumed, 3);
    }

    #[test]
    fn subsumption_without_drops_keeps_matrix_order() {
        let p = Prefix::prenex(3, [(Exists, vec![Var::new(0), Var::new(1), Var::new(2)])]).unwrap();
        let m = Matrix::from_clauses(3, [clause(&[1, 2, 3]), clause(&[-1]), clause(&[-2, 3])]);
        let q = Qbf::new(p, m.clone()).unwrap();
        let mut s = Simplifier::new(&q);
        assert_eq!(s.subsume(), 0);
        assert_eq!(s.matrix(), m);
    }

    #[test]
    fn preprocessing_preserves_value_on_samples() {
        for q in [
            samples::paper_example(),
            samples::forall_exists_xor(),
            samples::exists_forall_xor(),
            samples::two_independent_games(),
        ] {
            let (out, _) = preprocess(&q);
            assert_eq!(semantics::eval(&out), semantics::eval(&q), "{q}");
        }
    }

    #[test]
    fn preprocessing_preserves_value_on_random_qbfs() {
        for round in 0..80u64 {
            let q = crate::samples::random_qbf(0x51ed_c0de ^ round, 6, 9);
            let (out, report) = preprocess(&q);
            assert_eq!(
                semantics::eval(&out),
                semantics::eval(&q),
                "round {round}: {q} → {out} ({report:?})"
            );
            // idempotence
            let (again, r2) = preprocess(&out);
            assert_eq!(semantics::eval(&again), semantics::eval(&out));
            if report.decided.is_none() {
                assert_eq!(r2.units + r2.pures + r2.subsumed, 0, "not a fixpoint");
            }
        }
    }

}
