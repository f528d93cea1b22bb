//! Partially ordered quantifier prefixes, represented as a forest of blocks.
//!
//! §II of the paper represents a (possibly non-prenex) QBF prefix as a
//! partial order `≺` on variables. We store the *quantifier forest*: each
//! block binds a set of variables with one quantifier; a same-quantifier
//! child is fused into its parent only when it is the parent's single child
//! (the exact `Q1 z1 Q2 z2 ↦ Q2 z2 Q1 z1` freedom for `Q1 = Q2`; fusing a
//! child that has siblings would invent `≺` pairs towards the sibling
//! subtrees).
//!
//! The `≺` test is implemented exactly as in §VI of the paper: DFS
//! discovery/finish timestamps `d`/`f` whose clock advances only when the
//! quantifier *alternates*, and by the parenthesis theorem
//! `z ≺ z′ ⇔ d(z) < d(z′) ≤ f(z)` (Eq. 13). Like the paper's scheme, this
//! over-approximates `≺` by at most some same-branching-freedom pairs
//! (never a missing pair, so every unit/reduction/branching decision based
//! on it stays sound), and it is exact on alternation chains. The prefix
//! *level* of a variable counts quantifier alternations along its root
//! path, matching the longest-`≺`-chain definition of §II. A prenex prefix
//! is the special case of a single root-to-leaf path.

use std::fmt;

use crate::var::{Quantifier, Var};

/// Identifier of a block inside a [`Prefix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Dense index of this block for table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BlockData {
    quant: Quantifier,
    vars: Vec<Var>,
    parent: Option<BlockId>,
    children: Vec<BlockId>,
    /// DFS discovery timestamp (block granularity, §VI).
    d: u32,
    /// DFS finish timestamp.
    f: u32,
    /// Prefix level of the block's variables (1-based, §II).
    level: u32,
}

/// Errors produced while building a [`Prefix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixError {
    /// A variable index was `>= num_vars`.
    VarOutOfRange(Var),
    /// A variable was bound by more than one quantifier occurrence.
    DuplicateBinding(Var),
    /// A parent block id passed to the builder does not exist.
    UnknownBlock,
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::VarOutOfRange(v) => write!(f, "variable {v} out of range"),
            PrefixError::DuplicateBinding(v) => {
                write!(f, "variable {v} bound by more than one quantifier")
            }
            PrefixError::UnknownBlock => write!(f, "unknown parent block id"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// A canonicalized quantifier prefix: a forest of alternation blocks over a
/// fixed variable universe `0..num_vars`.
///
/// Variables not bound by any block are permitted in the *prefix* (the
/// containing [`crate::Qbf`] decides whether that is an error); queries like
/// [`Prefix::quant`] return `None` for them.
///
/// # Examples
///
/// Building the prefix of the paper's running example (1), i.e.
/// `x0 ≺ y1 ≺ x1,x2` and `x0 ≺ y2 ≺ x3,x4`:
///
/// ```
/// use qbf_core::{Prefix, PrefixBuilder, Quantifier::*, Var};
/// let v: Vec<Var> = (0..7).map(Var::new).collect();
/// let mut b = PrefixBuilder::new(7);
/// let root = b.add_root(Exists, [v[0]])?;
/// let y1 = b.add_child(root, Forall, [v[1]])?;
/// b.add_child(y1, Exists, [v[2], v[3]])?;
/// let y2 = b.add_child(root, Forall, [v[4]])?;
/// b.add_child(y2, Exists, [v[5], v[6]])?;
/// let p = b.finish()?;
/// assert!(p.precedes(v[0], v[2]));
/// assert!(!p.precedes(v[1], v[5])); // y1 and x3 are incomparable
/// assert_eq!(p.prefix_level(), 3);
/// # Ok::<(), qbf_core::PrefixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Prefix {
    blocks: Vec<BlockData>,
    roots: Vec<BlockId>,
    /// Per variable: the block binding it, if any.
    var_block: Vec<Option<BlockId>>,
    num_vars: usize,
}

impl Prefix {
    /// An empty prefix binding no variables over a universe of `num_vars`.
    pub fn empty(num_vars: usize) -> Self {
        Prefix {
            blocks: Vec::new(),
            roots: Vec::new(),
            var_block: vec![None; num_vars],
            num_vars,
        }
    }

    /// Builds a prenex (totally ordered) prefix from an outermost-first list
    /// of quantifier blocks. Consecutive same-quantifier blocks are merged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PrefixBuilder::finish`].
    pub fn prenex<I, J>(num_vars: usize, blocks: I) -> Result<Self, PrefixError>
    where
        I: IntoIterator<Item = (Quantifier, J)>,
        J: IntoIterator<Item = Var>,
    {
        let mut b = PrefixBuilder::new(num_vars);
        let mut parent: Option<BlockId> = None;
        for (q, vars) in blocks {
            let id = match parent {
                None => b.add_root(q, vars)?,
                Some(p) => b.add_child(p, q, vars)?,
            };
            parent = Some(id);
        }
        b.finish()
    }

    /// Number of variables in the universe (bound or not).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of blocks in the canonical forest.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The quantifier binding `v`, or `None` if `v` is unbound.
    pub fn quant(&self, v: Var) -> Option<Quantifier> {
        self.var_block[v.index()].map(|b| self.blocks[b.index()].quant)
    }

    /// Whether `v` is existential (unbound variables count as existential,
    /// per §II point 2).
    pub fn is_existential(&self, v: Var) -> bool {
        self.quant(v) != Some(Quantifier::Forall)
    }

    /// Whether `v` is universal.
    pub fn is_universal(&self, v: Var) -> bool {
        self.quant(v) == Some(Quantifier::Forall)
    }

    /// The block binding `v`, if any.
    pub fn block_of(&self, v: Var) -> Option<BlockId> {
        self.var_block[v.index()]
    }

    /// The prefix level of `v` (1-based, §II), or `None` if unbound.
    pub fn level(&self, v: Var) -> Option<u32> {
        self.var_block[v.index()].map(|b| self.blocks[b.index()].level)
    }

    /// The prefix level of the whole prefix (0 for an empty prefix).
    pub fn prefix_level(&self) -> u32 {
        self.blocks.iter().map(|b| b.level).max().unwrap_or(0)
    }

    /// The `≺` test of §VI: `a ≺ b` iff `d(a) < d(b) ≤ f(a)` (Eq. 13).
    ///
    /// Unbound variables are incomparable to everything.
    #[inline]
    pub fn precedes(&self, a: Var, b: Var) -> bool {
        match (self.var_block[a.index()], self.var_block[b.index()]) {
            (Some(ba), Some(bb)) => {
                let ba = &self.blocks[ba.index()];
                let bb = &self.blocks[bb.index()];
                ba.d < bb.d && bb.d <= ba.f
            }
            _ => false,
        }
    }

    /// DFS discovery timestamp of `v`'s block (§VI), if bound.
    pub fn discovery(&self, v: Var) -> Option<u32> {
        self.var_block[v.index()].map(|b| self.blocks[b.index()].d)
    }

    /// DFS finish timestamp of `v`'s block (§VI), if bound.
    pub fn finish_time(&self, v: Var) -> Option<u32> {
        self.var_block[v.index()].map(|b| self.blocks[b.index()].f)
    }

    /// The root blocks of the forest, in canonical order.
    pub fn roots(&self) -> &[BlockId] {
        &self.roots
    }

    /// The quantifier of a block.
    pub fn block_quant(&self, b: BlockId) -> Quantifier {
        self.blocks[b.index()].quant
    }

    /// The variables bound by a block, sorted by index.
    pub fn block_vars(&self, b: BlockId) -> &[Var] {
        &self.blocks[b.index()].vars
    }

    /// The parent of a block, if any.
    pub fn block_parent(&self, b: BlockId) -> Option<BlockId> {
        self.blocks[b.index()].parent
    }

    /// The children of a block, in canonical order.
    pub fn block_children(&self, b: BlockId) -> &[BlockId] {
        &self.blocks[b.index()].children
    }

    /// The prefix level of a block (1-based).
    pub fn block_level(&self, b: BlockId) -> u32 {
        self.blocks[b.index()].level
    }

    /// The DFS interval `(d, f)` of a block (§VI). Two blocks lie on one
    /// root path iff one interval contains the other.
    pub fn block_interval(&self, b: BlockId) -> (u32, u32) {
        let data = &self.blocks[b.index()];
        (data.d, data.f)
    }

    /// Whether `a` is `b` or an ancestor of `b` in the forest.
    pub fn block_is_ancestor_or_self(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.blocks[c.index()].parent;
        }
        false
    }

    /// Iterates over all block ids.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(|i| BlockId(i as u32))
    }

    /// Iterates over all bound variables, grouped by block in DFS order.
    pub fn bound_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.blocks_dfs()
            .flat_map(move |b| self.blocks[b.index()].vars.iter().copied())
    }

    /// Number of bound variables.
    pub fn num_bound(&self) -> usize {
        self.blocks.iter().map(|b| b.vars.len()).sum()
    }

    /// Iterates over blocks in DFS preorder.
    pub fn blocks_dfs(&self) -> impl Iterator<Item = BlockId> + '_ {
        let mut order = Vec::with_capacity(self.blocks.len());
        let mut stack: Vec<BlockId> = self.roots.iter().rev().copied().collect();
        while let Some(b) = stack.pop() {
            order.push(b);
            stack.extend(self.blocks[b.index()].children.iter().rev().copied());
        }
        order.into_iter()
    }

    /// Whether the prefix is in prenex form: a single root-to-leaf chain, so
    /// that `≺` is total across quantifier alternations (§II).
    pub fn is_prenex(&self) -> bool {
        if self.roots.len() > 1 {
            return false;
        }
        let Some(&root) = self.roots.first() else {
            return true;
        };
        let mut b = root;
        loop {
            match self.blocks[b.index()].children.as_slice() {
                [] => return true,
                [only] => b = *only,
                _ => return false,
            }
        }
    }

    /// The outermost-first list of blocks of a prenex prefix.
    ///
    /// # Panics
    ///
    /// Panics if the prefix is not prenex (check with [`Prefix::is_prenex`]).
    pub fn linear_blocks(&self) -> Vec<(Quantifier, Vec<Var>)> {
        assert!(self.is_prenex(), "linear_blocks requires a prenex prefix");
        let mut out = Vec::new();
        let mut cur = self.roots.first().copied();
        while let Some(b) = cur {
            let data = &self.blocks[b.index()];
            out.push((data.quant, data.vars.clone()));
            cur = data.children.first().copied();
        }
        out
    }

    /// The prefix obtained by unbinding `v` (used by `ϕ_l` restriction,
    /// §II). Empty blocks dissolve and same-quantifier neighbours re-merge.
    pub fn without_var(&self, v: Var) -> Prefix {
        let mut skip = vec![false; self.num_vars];
        if let Some(s) = skip.get_mut(v.index()) {
            *s = true;
        }
        self.without_vars(&skip)
    }

    /// The prefix obtained by unbinding every variable `v` with
    /// `skip[v.index()]` set (indices past the mask are kept), in one
    /// rebuild. Equal to unbinding them one at a time with
    /// [`Prefix::without_var`], in any order: the builder's canonical form
    /// depends only on which variables stay bound and on the ancestor
    /// relation between their blocks.
    pub fn without_vars(&self, skip: &[bool]) -> Prefix {
        let skipped = |w: Var| skip.get(w.index()).copied().unwrap_or(false);
        let mut b = PrefixBuilder::new(self.num_vars);
        // Preorder copy of the forest minus the skipped variables; the
        // builder's canonicalization dissolves emptied blocks and re-merges
        // same-quantifier neighbours.
        let mut stack: Vec<(BlockId, Option<BlockId>)> =
            self.roots.iter().rev().map(|&r| (r, None)).collect();
        while let Some((src, parent)) = stack.pop() {
            let data = &self.blocks[src.index()];
            let vars = data.vars.iter().copied().filter(|&w| !skipped(w));
            let id = match parent {
                None => b.add_root(data.quant, vars),
                Some(pp) => b.add_child(pp, data.quant, vars),
            }
            .expect("rebuilding an existing prefix cannot fail");
            stack.extend(data.children.iter().rev().map(|&c| (c, Some(id))));
        }
        b.finish()
            .expect("rebuilding an existing prefix cannot fail")
    }

    /// The variables that are *top* in this prefix (prefix level 1, §II).
    pub fn top_vars(&self) -> Vec<Var> {
        self.roots
            .iter()
            .flat_map(|r| self.blocks[r.index()].vars.iter().copied())
            .collect()
    }
}

impl fmt::Display for Prefix {
    /// Renders the forest as s-expressions with 1-based DIMACS numbering,
    /// e.g. `(e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn node(p: &Prefix, f: &mut fmt::Formatter<'_>, b: BlockId) -> fmt::Result {
            let data = &p.blocks[b.index()];
            write!(f, "({}", data.quant)?;
            for v in &data.vars {
                write!(f, " {v}")?;
            }
            for &c in &data.children {
                write!(f, " ")?;
                node(p, f, c)?;
            }
            write!(f, ")")
        }
        for (i, &r) in self.roots.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            node(self, f, r)?;
        }
        Ok(())
    }
}

/// Builder for [`Prefix`] values: add blocks freely, then
/// [`PrefixBuilder::finish`] canonicalizes (merges same-quantifier
/// parent/child blocks, dissolves empty blocks) and computes timestamps.
#[derive(Debug, Clone)]
pub struct PrefixBuilder {
    num_vars: usize,
    /// Draft blocks: (quant, vars, children).
    drafts: Vec<(Quantifier, Vec<Var>, Vec<usize>)>,
    draft_roots: Vec<usize>,
    bound: Vec<bool>,
}

impl PrefixBuilder {
    /// Creates a builder over the variable universe `0..num_vars`.
    pub fn new(num_vars: usize) -> Self {
        PrefixBuilder {
            num_vars,
            drafts: Vec::new(),
            draft_roots: Vec::new(),
            bound: vec![false; num_vars],
        }
    }

    fn add(
        &mut self,
        parent: Option<usize>,
        quant: Quantifier,
        vars: impl IntoIterator<Item = Var>,
    ) -> Result<BlockId, PrefixError> {
        let vars: Vec<Var> = vars.into_iter().collect();
        for &v in &vars {
            if v.index() >= self.num_vars {
                return Err(PrefixError::VarOutOfRange(v));
            }
            if self.bound[v.index()] {
                return Err(PrefixError::DuplicateBinding(v));
            }
            self.bound[v.index()] = true;
        }
        let id = self.drafts.len();
        self.drafts.push((quant, vars, Vec::new()));
        match parent {
            None => self.draft_roots.push(id),
            Some(p) => self.drafts[p].2.push(id),
        }
        Ok(BlockId(id as u32))
    }

    /// Adds a root block.
    ///
    /// # Errors
    ///
    /// Fails if a variable is out of range or already bound.
    pub fn add_root(
        &mut self,
        quant: Quantifier,
        vars: impl IntoIterator<Item = Var>,
    ) -> Result<BlockId, PrefixError> {
        self.add(None, quant, vars)
    }

    /// Adds a block in the scope of `parent`'s variables.
    ///
    /// # Errors
    ///
    /// Fails if `parent` is unknown, or a variable is out of range or
    /// already bound.
    pub fn add_child(
        &mut self,
        parent: BlockId,
        quant: Quantifier,
        vars: impl IntoIterator<Item = Var>,
    ) -> Result<BlockId, PrefixError> {
        if parent.index() >= self.drafts.len() {
            return Err(PrefixError::UnknownBlock);
        }
        self.add(Some(parent.index()), quant, vars)
    }

    /// Canonicalizes and finishes the prefix.
    ///
    /// # Errors
    ///
    /// Currently infallible after the per-block checks in
    /// [`PrefixBuilder::add_root`]/[`PrefixBuilder::add_child`]; the
    /// `Result` is kept for future validation.
    pub fn finish(self) -> Result<Prefix, PrefixError> {
        // Normalized draft node.
        struct Norm {
            quant: Quantifier,
            vars: Vec<Var>,
            children: Vec<Norm>,
        }

        // Normalizing a draft yields a list (an empty block dissolves into
        // its normalized children).
        //
        // A same-quantifier child is merged into its parent ONLY when it is
        // the parent's single child: that merge is exact (`≺` unchanged).
        // Merging a same-quantifier child that has siblings would invent
        // `≺` pairs between its variables and the sibling subtrees, which
        // the partial order of §II does not contain.
        fn norm(drafts: &[(Quantifier, Vec<Var>, Vec<usize>)], id: usize) -> Vec<Norm> {
            let (quant, vars, child_ids) = &drafts[id];
            let mut children: Vec<Norm> =
                child_ids.iter().flat_map(|&c| norm(drafts, c)).collect();
            if vars.is_empty() {
                return children;
            }
            let mut vars = vars.clone();
            // Chain-merge single same-quantifier children.
            while children.len() == 1 && children[0].quant == *quant {
                let only = children.pop().expect("len checked");
                vars.extend(only.vars);
                children = only.children;
            }
            // Canonical order: same-quantifier children first (so the
            // alternation clock of earlier alternating siblings cannot leak
            // spurious mixed-quantifier `≺` pairs onto them), then by
            // minimum variable.
            children.sort_by_key(|k| (k.quant != *quant, k.vars.iter().copied().min()));
            vars.sort_unstable();
            vec![Norm {
                quant: *quant,
                vars,
                children,
            }]
        }

        let mut roots: Vec<Norm> = self
            .draft_roots
            .iter()
            .flat_map(|&r| norm(&self.drafts, r))
            .collect();
        roots.sort_by_key(|k| k.vars.iter().copied().min());

        // Flatten into the final arena, computing levels and timestamps.
        let mut prefix = Prefix::empty(self.num_vars);

        // §VI timestamping: the DFS clock advances when the quantifier
        // *alternates*, and also whenever a block is entered after an
        // ascent (i.e. not directly below the previously visited block).
        // Same-quantifier parent/child pairs thus share `d` and stay
        // `≺`-unordered, while a block entered after a finished sibling
        // subtree starts beyond that subtree's window — so the test (13)
        // relates exactly the alternation-ancestor pairs (plus harmless
        // same-quantifier chain pairs) and reproduces the paper's example
        // values. The prefix level counts alternations along the root path.
        #[allow(clippy::too_many_arguments)]
        fn flatten(
            p: &mut Prefix,
            n: Norm,
            parent: Option<(BlockId, Quantifier, u32)>,
            directly_after_parent: bool,
            time: &mut u32,
        ) -> BlockId {
            let (parent_id, level) = match parent {
                None => {
                    *time += 1;
                    (None, 1)
                }
                Some((pid, pquant, plevel)) => {
                    if n.quant != pquant || !directly_after_parent {
                        *time += 1;
                    }
                    let level = if n.quant != pquant { plevel + 1 } else { plevel };
                    (Some(pid), level)
                }
            };
            let id = BlockId(p.blocks.len() as u32);
            p.blocks.push(BlockData {
                quant: n.quant,
                vars: n.vars.clone(),
                parent: parent_id,
                children: Vec::new(),
                d: *time,
                f: 0,
                level,
            });
            for &v in &n.vars {
                p.var_block[v.index()] = Some(id);
            }
            let quant = n.quant;
            for (i, c) in n.children.into_iter().enumerate() {
                let cid = flatten(p, c, Some((id, quant, level)), i == 0, time);
                p.blocks[id.index()].children.push(cid);
            }
            p.blocks[id.index()].f = *time;
            id
        }

        let mut time = 0;
        for r in roots {
            let id = flatten(&mut prefix, r, None, false, &mut time);
            prefix.roots.push(id);
        }
        Ok(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Quantifier::*;

    fn v(i: usize) -> Var {
        Var::new(i)
    }

    /// Builds the prefix of the paper's QBF (1):
    /// `x0 ≺ y1 ≺ x1,x2` and `x0 ≺ y2 ≺ x3,x4`
    /// with x0=0, y1=1, x1=2, x2=3, y2=4, x3=5, x4=6.
    fn paper_prefix() -> Prefix {
        let mut b = PrefixBuilder::new(7);
        let root = b.add_root(Exists, [v(0)]).unwrap();
        let y1 = b.add_child(root, Forall, [v(1)]).unwrap();
        b.add_child(y1, Exists, [v(2), v(3)]).unwrap();
        let y2 = b.add_child(root, Forall, [v(4)]).unwrap();
        b.add_child(y2, Exists, [v(5), v(6)]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn paper_example_timestamps() {
        // §VI lists the d/f values for QBF (1); block-granularity preorder
        // reproduces them.
        let p = paper_prefix();
        assert_eq!(p.discovery(v(0)), Some(1));
        assert_eq!(p.discovery(v(1)), Some(2));
        assert_eq!(p.discovery(v(2)), Some(3));
        assert_eq!(p.discovery(v(3)), Some(3));
        assert_eq!(p.finish_time(v(1)), Some(3));
        assert_eq!(p.finish_time(v(2)), Some(3));
        assert_eq!(p.discovery(v(4)), Some(4));
        assert_eq!(p.discovery(v(5)), Some(5));
        assert_eq!(p.finish_time(v(0)), Some(5));
        assert_eq!(p.finish_time(v(4)), Some(5));
        assert_eq!(p.finish_time(v(5)), Some(5));
    }

    #[test]
    fn paper_example_order() {
        let p = paper_prefix();
        // x0 precedes everything
        for i in 1..7 {
            assert!(p.precedes(v(0), v(i)), "x0 ≺ var {i}");
            assert!(!p.precedes(v(i), v(0)));
        }
        // y1 precedes x1, x2 but not x3, x4, y2
        assert!(p.precedes(v(1), v(2)));
        assert!(p.precedes(v(1), v(3)));
        assert!(!p.precedes(v(1), v(5)));
        assert!(!p.precedes(v(1), v(4)));
        // same-block variables are incomparable
        assert!(!p.precedes(v(2), v(3)));
        assert!(!p.precedes(v(3), v(2)));
        // cross-subtree incomparability
        assert!(!p.precedes(v(2), v(5)));
        assert!(!p.precedes(v(5), v(2)));
    }

    #[test]
    fn paper_example_levels() {
        let p = paper_prefix();
        assert_eq!(p.level(v(0)), Some(1));
        assert_eq!(p.level(v(1)), Some(2));
        assert_eq!(p.level(v(2)), Some(3));
        assert_eq!(p.level(v(6)), Some(3));
        assert_eq!(p.prefix_level(), 3);
        assert_eq!(p.top_vars(), vec![v(0)]);
        assert!(!p.is_prenex());
    }

    #[test]
    fn prenex_prefix_is_total() {
        let p = Prefix::prenex(
            4,
            [
                (Exists, vec![v(0)]),
                (Forall, vec![v(1)]),
                (Exists, vec![v(2), v(3)]),
            ],
        )
        .unwrap();
        assert!(p.is_prenex());
        assert_eq!(p.prefix_level(), 3);
        assert!(p.precedes(v(0), v(1)));
        assert!(p.precedes(v(1), v(3)));
        assert!(p.precedes(v(0), v(3)));
        assert!(!p.precedes(v(2), v(3)));
        let blocks = p.linear_blocks();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], (Exists, vec![v(0)]));
    }

    #[test]
    fn consecutive_same_quantifier_blocks_merge() {
        let p = Prefix::prenex(
            3,
            [
                (Exists, vec![v(0)]),
                (Exists, vec![v(1)]),
                (Forall, vec![v(2)]),
            ],
        )
        .unwrap();
        assert_eq!(p.num_blocks(), 2);
        assert!(!p.precedes(v(0), v(1)));
        assert!(p.precedes(v(0), v(2)));
        assert!(p.precedes(v(1), v(2)));
    }

    #[test]
    fn empty_blocks_dissolve() {
        let mut b = PrefixBuilder::new(3);
        let root = b.add_root(Exists, [v(0)]).unwrap();
        let hole = b.add_child(root, Forall, Vec::new()).unwrap();
        b.add_child(hole, Exists, [v(1), v(2)]).unwrap();
        let p = b.finish().unwrap();
        // ∃x0 (∀·) ∃x1x2 collapses to a single ∃ block.
        assert_eq!(p.num_blocks(), 1);
        assert!(!p.precedes(v(0), v(1)));
    }

    #[test]
    fn separate_roots_stay_separate() {
        let mut b = PrefixBuilder::new(4);
        let r1 = b.add_root(Exists, [v(0)]).unwrap();
        b.add_child(r1, Forall, [v(1)]).unwrap();
        let r2 = b.add_root(Exists, [v(2)]).unwrap();
        b.add_child(r2, Forall, [v(3)]).unwrap();
        let p = b.finish().unwrap();
        assert_eq!(p.roots().len(), 2);
        assert!(p.precedes(v(0), v(1)));
        assert!(!p.precedes(v(0), v(3)));
        assert!(!p.precedes(v(2), v(1)));
        assert_eq!(p.top_vars(), vec![v(0), v(2)]);
    }

    #[test]
    fn duplicate_binding_rejected() {
        let mut b = PrefixBuilder::new(2);
        b.add_root(Exists, [v(0)]).unwrap();
        let err = b.add_root(Forall, [v(0)]).unwrap_err();
        assert_eq!(err, PrefixError::DuplicateBinding(v(0)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = PrefixBuilder::new(1);
        let err = b.add_root(Exists, [v(3)]).unwrap_err();
        assert_eq!(err, PrefixError::VarOutOfRange(v(3)));
    }

    #[test]
    fn without_var_merges_neighbours() {
        // ∃x0 ∀y1 ∃x2 ; removing y1 must merge the two ∃ blocks.
        let p = Prefix::prenex(
            3,
            [
                (Exists, vec![v(0)]),
                (Forall, vec![v(1)]),
                (Exists, vec![v(2)]),
            ],
        )
        .unwrap();
        let q = p.without_var(v(1));
        assert_eq!(q.num_blocks(), 1);
        assert_eq!(q.quant(v(1)), None);
        assert!(!q.precedes(v(0), v(2)));
        // removing a leaf variable keeps the rest intact
        let r = p.without_var(v(2));
        assert_eq!(r.num_blocks(), 2);
        assert!(r.precedes(v(0), v(1)));
    }

    #[test]
    fn batch_unbinding_equals_repeated_without_var() {
        for seed in 0..400u64 {
            let n = 4 + (seed % 9) as usize;
            let q = crate::samples::random_qbf(seed ^ 0x0b5e_55ed, n, 1);
            let p = q.prefix();
            // Rebuilding a canonical prefix is the identity.
            assert_eq!(&p.without_vars(&vec![false; n]), p, "seed {seed}");
            let skip: Vec<bool> = (0..n)
                .map(|i| (seed >> (i % 16)) & 3 == 0 || (seed + i as u64).is_multiple_of(5))
                .collect();
            let batch = p.without_vars(&skip);
            let vars = (0..n).filter(|&i| skip[i]).map(v);
            let forward = vars.clone().fold(p.clone(), |acc, w| acc.without_var(w));
            let backward = vars.rev().fold(p.clone(), |acc, w| acc.without_var(w));
            assert_eq!(batch, forward, "seed {seed}: {p} minus {skip:?}");
            assert_eq!(batch, backward, "seed {seed}: {p} minus {skip:?}");
        }
    }

    #[test]
    fn display_sexpr() {
        let p = paper_prefix();
        assert_eq!(p.to_string(), "(e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))");
    }

    #[test]
    fn unbound_vars_are_incomparable() {
        let p = Prefix::prenex(3, [(Exists, vec![v(0)]), (Forall, vec![v(1)])]).unwrap();
        assert_eq!(p.quant(v(2)), None);
        assert!(p.is_existential(v(2)));
        assert!(!p.precedes(v(0), v(2)));
        assert!(!p.precedes(v(2), v(0)));
        assert_eq!(p.level(v(2)), None);
    }

    #[test]
    fn same_quant_sibling_subtree_stays_unordered_from_forall() {
        // ∃x (∀y ϕ1 ∧ ∃z ϕ2): per §II, z ⊀ y and y ⊀ z (z is not in y's
        // scope and vice versa), and z has no alternation ancestor.
        let mut b = PrefixBuilder::new(3);
        let root = b.add_root(Exists, [v(0)]).unwrap();
        b.add_child(root, Forall, [v(1)]).unwrap();
        b.add_child(root, Exists, [v(2)]).unwrap();
        let p = b.finish().unwrap();
        assert!(!p.precedes(v(2), v(1)), "z ⊀ y");
        assert!(!p.precedes(v(1), v(2)), "y ⊀ z");
        assert!(p.precedes(v(0), v(1)));
        // z keeps prefix level 1: no quantifier alternation above it.
        assert_eq!(p.level(v(2)), Some(1));
        assert_eq!(p.num_blocks(), 3, "sibling ∃ child must not merge up");
    }

    #[test]
    fn same_quant_single_child_chain_merges() {
        // ∃x ∃z ∀y: the ∃ chain is a single block (exact: x, z unordered).
        let mut b = PrefixBuilder::new(3);
        let root = b.add_root(Exists, [v(0)]).unwrap();
        let z = b.add_child(root, Exists, [v(2)]).unwrap();
        b.add_child(z, Forall, [v(1)]).unwrap();
        let p = b.finish().unwrap();
        assert_eq!(p.num_blocks(), 2);
        assert!(!p.precedes(v(0), v(2)));
        assert!(p.precedes(v(0), v(1)));
        assert!(p.precedes(v(2), v(1)));
    }

    #[test]
    fn alternation_based_levels() {
        // ∃x (∀y (∃w)) ∧-sibling (∃z): levels x:1 y:2 w:3 z:1.
        let mut b = PrefixBuilder::new(4);
        let root = b.add_root(Exists, [v(0)]).unwrap();
        let y = b.add_child(root, Forall, [v(1)]).unwrap();
        b.add_child(y, Exists, [v(2)]).unwrap();
        b.add_child(root, Exists, [v(3)]).unwrap();
        let p = b.finish().unwrap();
        assert_eq!(p.level(v(0)), Some(1));
        assert_eq!(p.level(v(1)), Some(2));
        assert_eq!(p.level(v(2)), Some(3));
        assert_eq!(p.level(v(3)), Some(1));
        assert_eq!(p.prefix_level(), 3);
    }

    #[test]
    fn no_relations_across_roots_ever() {
        // Roots of any quantifier stay mutually unordered, including their
        // subtrees.
        let mut b = PrefixBuilder::new(4);
        let r1 = b.add_root(Forall, [v(0)]).unwrap();
        b.add_child(r1, Exists, [v(1)]).unwrap();
        let r2 = b.add_root(Exists, [v(2)]).unwrap();
        b.add_child(r2, Forall, [v(3)]).unwrap();
        let p = b.finish().unwrap();
        for a in 0..2 {
            for bb in 2..4 {
                assert!(!p.precedes(v(a), v(bb)), "{a} vs {bb}");
                assert!(!p.precedes(v(bb), v(a)), "{bb} vs {a}");
            }
        }
    }

    #[test]
    fn dfs_order_and_bound_vars() {
        let p = paper_prefix();
        let order: Vec<Var> = p.bound_vars().collect();
        assert_eq!(order, vec![v(0), v(1), v(2), v(3), v(4), v(5), v(6)]);
        assert_eq!(p.num_bound(), 7);
    }
}
