//! Instance statistics: the structural metrics the paper's experimental
//! sections report about their benchmark families.

use std::fmt;

use crate::prefix::{BlockId, Prefix};
use crate::qbf::Qbf;
use crate::var::Quantifier;

/// Structural metrics of a QBF instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStats {
    /// Total variable universe.
    pub num_vars: usize,
    /// Bound existential variables.
    pub existentials: usize,
    /// Bound universal variables.
    pub universals: usize,
    /// Number of clauses.
    pub clauses: usize,
    /// Total literal occurrences.
    pub literals: usize,
    /// Minimum / mean / maximum clause width.
    pub clause_width: (usize, f64, usize),
    /// Prefix level (number of alternations along the deepest chain).
    pub prefix_level: u32,
    /// Number of blocks in the quantifier forest.
    pub blocks: usize,
    /// Number of roots (independent subtrees).
    pub roots: usize,
    /// Whether the prefix is prenex.
    pub prenex: bool,
    /// Fraction (%) of (existential, universal) pairs left `≺`-unordered —
    /// 100 means fully independent, 0 means totally ordered. This is the
    /// structure a prenexing step would destroy (cf. footnote 9's PO/TO).
    pub free_pair_percent: f64,
}

impl InstanceStats {
    /// Computes the metrics of a QBF.
    ///
    /// # Examples
    ///
    /// ```
    /// use qbf_core::{samples, stats::InstanceStats};
    /// let s = InstanceStats::of(&samples::paper_example());
    /// assert_eq!(s.num_vars, 7);
    /// assert_eq!(s.universals, 2);
    /// assert_eq!(s.prefix_level, 3);
    /// assert!(!s.prenex);
    /// assert!(s.free_pair_percent > 0.0); // y1 vs x3/x4 etc. are free
    /// ```
    pub fn of(qbf: &Qbf) -> Self {
        let prefix = qbf.prefix();
        let mut existentials = 0;
        let mut universals = 0;
        for v in prefix.bound_vars() {
            if prefix.is_universal(v) {
                universals += 1;
            } else {
                existentials += 1;
            }
        }
        let widths: Vec<usize> = qbf.matrix().iter().map(|c| c.len()).collect();
        let literals: usize = widths.iter().sum();
        let clause_width = if widths.is_empty() {
            (0, 0.0, 0)
        } else {
            (
                *widths.iter().min().expect("non-empty"),
                literals as f64 / widths.len() as f64,
                *widths.iter().max().expect("non-empty"),
            )
        };
        let total_pairs = existentials * universals;
        let free = free_pairs(prefix);
        InstanceStats {
            num_vars: qbf.num_vars(),
            existentials,
            universals,
            clauses: qbf.matrix().len(),
            literals,
            clause_width,
            prefix_level: prefix.prefix_level(),
            blocks: prefix.num_blocks(),
            roots: prefix.roots().len(),
            prenex: qbf.is_prenex(),
            free_pair_percent: if total_pairs == 0 {
                0.0
            } else {
                100.0 * free as f64 / total_pairs as f64
            },
        }
    }
}

/// The number of (existential, universal) variable pairs left
/// `≺`-unordered. Between opposite quantifiers `≺` is exactly the
/// strict-ancestor relation of their blocks (see [`Prefix::precedes`]), so
/// the variables of an existential block are ordered against the
/// universals of its ancestors and of its subtree, and free against all
/// others. One pass down the forest sums the former, one pass up the
/// latter: linear in the prefix.
fn free_pairs(prefix: &Prefix) -> usize {
    let univ = |b: BlockId| match prefix.block_quant(b) {
        Quantifier::Forall => prefix.block_vars(b).len(),
        Quantifier::Exists => 0,
    };
    let order: Vec<BlockId> = prefix.blocks_dfs().collect();
    // Universals in the strict ancestors of each block (preorder sums).
    let mut above = vec![0usize; prefix.num_blocks()];
    for &b in &order {
        if let Some(p) = prefix.block_parent(b) {
            above[b.index()] = above[p.index()] + univ(p);
        }
    }
    // Universals in the subtree of each block (post-order sums).
    let mut below = vec![0usize; prefix.num_blocks()];
    for &b in order.iter().rev() {
        below[b.index()] += univ(b);
        if let Some(p) = prefix.block_parent(b) {
            below[p.index()] += below[b.index()];
        }
    }
    let all: usize = order.iter().map(|&b| univ(b)).sum();
    order
        .iter()
        .filter(|&&b| prefix.block_quant(b) == Quantifier::Exists)
        .map(|&b| prefix.block_vars(b).len() * (all - above[b.index()] - below[b.index()]))
        .sum()
}

impl fmt::Display for InstanceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} vars ({}∃ / {}∀), {} clauses, {} literals",
            self.num_vars, self.existentials, self.universals, self.clauses, self.literals
        )?;
        writeln!(
            f,
            "clause width min/mean/max: {}/{:.1}/{}",
            self.clause_width.0, self.clause_width.1, self.clause_width.2
        )?;
        write!(
            f,
            "prefix: level {}, {} blocks, {} roots, {}; free ∃/∀ pairs: {:.1}%",
            self.prefix_level,
            self.blocks,
            self.roots,
            if self.prenex { "prenex" } else { "non-prenex" },
            self.free_pair_percent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn paper_example_metrics() {
        let s = InstanceStats::of(&samples::paper_example());
        assert_eq!(s.existentials, 5);
        assert_eq!(s.universals, 2);
        assert_eq!(s.clauses, 8);
        assert_eq!(s.clause_width.0, 2);
        assert_eq!(s.clause_width.2, 3);
        assert_eq!(s.blocks, 5);
        assert_eq!(s.roots, 1);
        // y1 is ordered against x0,x1,x2 but free against x3,x4 (and
        // symmetrically y2): 4 free of 10 pairs.
        assert!((s.free_pair_percent - 40.0).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("non-prenex"));
        assert!(text.contains("40.0%"));
    }

    #[test]
    fn prenex_has_no_free_pairs() {
        let s = InstanceStats::of(&samples::exists_forall_xor());
        assert!(s.prenex);
        assert_eq!(s.free_pair_percent, 0.0);
    }

    /// The pairwise definition of the free-pair count.
    fn free_pairs_pairwise(prefix: &Prefix) -> usize {
        let vars: Vec<_> = prefix.bound_vars().collect();
        let mut free = 0;
        for &x in vars.iter().filter(|&&v| prefix.is_existential(v)) {
            for &y in vars.iter().filter(|&&v| prefix.is_universal(v)) {
                if !prefix.precedes(x, y) && !prefix.precedes(y, x) {
                    free += 1;
                }
            }
        }
        free
    }

    #[test]
    fn free_pairs_match_the_pairwise_count() {
        for seed in 0..300u64 {
            let q = samples::random_qbf(seed, 1 + (seed % 24) as usize, 4);
            let p = q.prefix();
            assert_eq!(free_pairs(p), free_pairs_pairwise(p), "seed {seed}: {p}");
            // A prenexing: the blocks in DFS preorder, one chain.
            let chain: Vec<_> = p
                .blocks_dfs()
                .map(|b| (p.block_quant(b), p.block_vars(b).to_vec()))
                .collect();
            let prenex = Prefix::prenex(p.num_vars(), chain).unwrap();
            assert_eq!(free_pairs(&prenex), 0, "seed {seed}");
            assert_eq!(free_pairs_pairwise(&prenex), 0, "seed {seed}");
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        use crate::{Matrix, Prefix, Qbf};
        let q = Qbf::new(Prefix::empty(0), Matrix::new(0)).unwrap();
        let s = InstanceStats::of(&q);
        assert_eq!(s.clauses, 0);
        assert_eq!(s.clause_width, (0, 0.0, 0));
    }
}
