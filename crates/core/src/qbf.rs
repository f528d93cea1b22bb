//! The [`Qbf`] type: a quantifier prefix (partial order) plus a CNF matrix.

use std::fmt;

use crate::matrix::Matrix;
use crate::prefix::{Prefix, PrefixBuilder, PrefixError};
use crate::var::{Lit, Quantifier, Var};

/// Errors produced when assembling a [`Qbf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QbfError {
    /// The prefix and matrix disagree on the variable universe size.
    UniverseMismatch {
        /// `num_vars` of the prefix.
        prefix: usize,
        /// `num_vars` of the matrix.
        matrix: usize,
    },
    /// A variable occurs in the matrix but is not bound by the prefix.
    UnboundVar(Var),
    /// A clause (0-based index reported) mentions variables from disjoint
    /// sibling scopes: no actual formula places a clause outside every
    /// scope containing its variables, so such a pair has no well-defined
    /// semantics.
    IncompatibleScopes(usize),
    /// Forwarded prefix construction error.
    Prefix(PrefixError),
}

impl fmt::Display for QbfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QbfError::UniverseMismatch { prefix, matrix } => write!(
                f,
                "prefix universe ({prefix}) and matrix universe ({matrix}) differ"
            ),
            QbfError::UnboundVar(v) => write!(f, "variable {v} occurs in the matrix but is unbound"),
            QbfError::IncompatibleScopes(i) => write!(
                f,
                "clause {i} mentions variables from disjoint sibling scopes"
            ),
            QbfError::Prefix(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QbfError {}

impl From<PrefixError> for QbfError {
    fn from(e: PrefixError) -> Self {
        QbfError::Prefix(e)
    }
}

/// A quantified Boolean formula `〈prefix, matrix〉` (§II): a partially
/// ordered prefix over a CNF matrix. The prefix need not be prenex.
///
/// # Examples
///
/// ```
/// use qbf_core::{Clause, Lit, Matrix, Prefix, Qbf, Quantifier::*, Var};
/// // ∀y ∃x (y ∨ x) ∧ (¬y ∨ ¬x)
/// let prefix = Prefix::prenex(2, [(Forall, vec![Var::new(0)]), (Exists, vec![Var::new(1)])])?;
/// let matrix = Matrix::from_clauses(2, [
///     Clause::new([Lit::from_dimacs(1), Lit::from_dimacs(2)])?,
///     Clause::new([Lit::from_dimacs(-1), Lit::from_dimacs(-2)])?,
/// ]);
/// let qbf = Qbf::new(prefix, matrix)?;
/// assert!(qbf.is_prenex());
/// assert!(qbf_core::semantics::eval(&qbf)); // x := ¬y wins
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Qbf {
    prefix: Prefix,
    matrix: Matrix,
}

impl Qbf {
    /// Assembles a QBF, checking that every matrix variable is bound.
    ///
    /// # Errors
    ///
    /// [`QbfError::UniverseMismatch`] if prefix and matrix sizes differ,
    /// [`QbfError::UnboundVar`] if the matrix mentions an unbound variable
    /// (use [`Qbf::new_closing_free`] to bind free variables existentially
    /// at the top, per §II point 2).
    pub fn new(prefix: Prefix, matrix: Matrix) -> Result<Self, QbfError> {
        if prefix.num_vars() != matrix.num_vars() {
            return Err(QbfError::UniverseMismatch {
                prefix: prefix.num_vars(),
                matrix: matrix.num_vars(),
            });
        }
        for (i, occurs) in matrix.occurring_vars().iter().enumerate() {
            if *occurs && prefix.quant(Var::new(i)).is_none() {
                return Err(QbfError::UnboundVar(Var::new(i)));
            }
        }
        validate_scopes(&prefix, &matrix)?;
        Ok(Qbf { prefix, matrix })
    }

    /// Assembles a QBF, binding matrix variables that the prefix leaves free
    /// with a fresh outermost existential root block (§II point 2).
    ///
    /// # Errors
    ///
    /// [`QbfError::UniverseMismatch`] if prefix and matrix sizes differ.
    pub fn new_closing_free(prefix: Prefix, matrix: Matrix) -> Result<Self, QbfError> {
        if prefix.num_vars() != matrix.num_vars() {
            return Err(QbfError::UniverseMismatch {
                prefix: prefix.num_vars(),
                matrix: matrix.num_vars(),
            });
        }
        let free: Vec<Var> = matrix
            .occurring_vars()
            .iter()
            .enumerate()
            .filter(|&(i, occ)| *occ && prefix.quant(Var::new(i)).is_none())
            .map(|(i, _)| Var::new(i))
            .collect();
        if free.is_empty() {
            return Ok(Qbf { prefix, matrix });
        }
        // Rebuild: a fresh ∃ root holding the free variables, with the old
        // roots as its children.
        let mut b = PrefixBuilder::new(prefix.num_vars());
        let root = b.add_root(Quantifier::Exists, free)?;
        fn copy(
            p: &Prefix,
            b: &mut PrefixBuilder,
            src: crate::prefix::BlockId,
            parent: crate::prefix::BlockId,
        ) -> Result<(), PrefixError> {
            let id = b.add_child(parent, p.block_quant(src), p.block_vars(src).iter().copied())?;
            for &c in p.block_children(src) {
                copy(p, b, c, id)?;
            }
            Ok(())
        }
        for &r in prefix.roots() {
            copy(&prefix, &mut b, r, root)?;
        }
        let prefix = b.finish()?;
        validate_scopes(&prefix, &matrix)?;
        Ok(Qbf { prefix, matrix })
    }

    /// The prefix.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Decomposes into prefix and matrix.
    pub fn into_parts(self) -> (Prefix, Matrix) {
        (self.prefix, self.matrix)
    }

    /// The variable universe size.
    pub fn num_vars(&self) -> usize {
        self.matrix.num_vars()
    }

    /// Whether the prefix is in prenex form.
    pub fn is_prenex(&self) -> bool {
        self.prefix.is_prenex()
    }

    /// The restriction `ϕ_l` (§II): the matrix drops satisfied clauses and
    /// the false literal, the prefix unbinds `|l|`.
    pub fn assign(&self, lit: Lit) -> Qbf {
        Qbf {
            prefix: self.prefix.without_var(lit.var()),
            matrix: self.matrix.assign(lit),
        }
    }

    /// Removes bound variables that do not occur in the matrix
    /// (`Qz ϕ ≡ ϕ` when `z` does not occur in `ϕ`). Value-preserving.
    pub fn prune_vacuous(&self) -> Qbf {
        let vacuous: Vec<bool> = self.matrix.occurring_vars().iter().map(|&o| !o).collect();
        let prefix = if self.prefix.bound_vars().any(|v| vacuous[v.index()]) {
            self.prefix.without_vars(&vacuous)
        } else {
            self.prefix.clone()
        };
        Qbf {
            prefix,
            matrix: self.matrix.clone(),
        }
    }
}

/// Checks that every clause's variables live on a single root path of the
/// quantifier forest: the well-formedness condition implicit in §II (a
/// clause of an actual formula sits inside some scope that contains all of
/// its variables). The DFS intervals of §VI make this a containment-chain
/// check.
fn validate_scopes(prefix: &Prefix, matrix: &Matrix) -> Result<(), QbfError> {
    for (i, clause) in matrix.iter().enumerate() {
        let mut intervals: Vec<(u32, u32)> = clause
            .iter()
            .filter_map(|l| prefix.block_of(l.var()))
            .map(|b| prefix.block_interval(b))
            .collect();
        intervals.sort_by_key(|&(d, f)| (d, std::cmp::Reverse(f)));
        intervals.dedup();
        for w in intervals.windows(2) {
            let ((d1, f1), (d2, f2)) = (w[0], w[1]);
            let nested = d1 <= d2 && f2 <= f1;
            if !nested {
                return Err(QbfError::IncompatibleScopes(i));
            }
        }
    }
    Ok(())
}

impl fmt::Display for Qbf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} . {}", self.prefix, self.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::Clause;
    use crate::samples;
    use crate::var::Quantifier::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn clause(lits: &[i64]) -> Clause {
        Clause::new(lits.iter().map(|&d| lit(d))).unwrap()
    }

    #[test]
    fn rejects_universe_mismatch() {
        let p = Prefix::empty(2);
        let m = Matrix::new(3);
        assert!(matches!(
            Qbf::new(p, m),
            Err(QbfError::UniverseMismatch { prefix: 2, matrix: 3 })
        ));
    }

    #[test]
    fn rejects_unbound_var() {
        let p = Prefix::prenex(2, [(Exists, vec![Var::new(0)])]).unwrap();
        let m = Matrix::from_clauses(2, [clause(&[1, 2])]);
        assert_eq!(Qbf::new(p, m), Err(QbfError::UnboundVar(Var::new(1))));
    }

    #[test]
    fn closing_free_binds_existentially_at_top() {
        let p = Prefix::prenex(3, [(Forall, vec![Var::new(0)]), (Exists, vec![Var::new(1)])])
            .unwrap();
        let m = Matrix::from_clauses(3, [clause(&[1, 2, 3])]);
        let q = Qbf::new_closing_free(p, m).unwrap();
        assert_eq!(q.prefix().quant(Var::new(2)), Some(Exists));
        assert_eq!(q.prefix().level(Var::new(2)), Some(1));
        // the previously outermost ∀ is now below the fresh ∃ root
        assert!(q.prefix().precedes(Var::new(2), Var::new(0)));
    }

    #[test]
    fn paper_example_shape() {
        let q = samples::paper_example();
        assert_eq!(q.num_vars(), 7);
        assert_eq!(q.matrix().len(), 8);
        assert!(!q.is_prenex());
        assert_eq!(q.prefix().prefix_level(), 3);
    }

    #[test]
    fn assign_restricts_prefix_and_matrix() {
        let q = samples::paper_example();
        let x0 = Var::new(0).positive();
        let r = q.assign(x0);
        assert_eq!(r.prefix().quant(Var::new(0)), None);
        // clauses containing x0 disappear, ¬x0 literals are dropped
        assert!(r.matrix().len() < q.matrix().len());
        for c in r.matrix().iter() {
            assert!(!c.contains_var(Var::new(0)));
        }
    }

    #[test]
    fn prune_vacuous_drops_unused_bindings() {
        let p = Prefix::prenex(2, [(Exists, vec![Var::new(0), Var::new(1)])]).unwrap();
        let m = Matrix::from_clauses(2, [clause(&[1])]);
        let q = Qbf::new(p, m).unwrap();
        let pruned = q.prune_vacuous();
        assert_eq!(pruned.prefix().quant(Var::new(1)), None);
        assert_eq!(pruned.prefix().quant(Var::new(0)), Some(Exists));
    }

    #[test]
    fn display_round() {
        let q = samples::forall_exists_xor();
        let s = q.to_string();
        assert!(s.contains("(a 1 (e 2))"), "got {s}");
    }
}
