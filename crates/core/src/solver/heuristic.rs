//! Branching heuristics (§VI of the paper).
//!
//! All heuristics only *rank* candidates; the engine guarantees that every
//! candidate is *available* (all `≺`-predecessors assigned), so any ranking
//! is sound.
//!
//! The scored heuristics decide through one indexed max-heap of variables
//! per quantifier block (MiniSat's order heap, split by block). A variable
//! has one slot, and every score change re-sifts it on the spot — a bump
//! up, a forget down, a decay rebuilds every heap — so the heaps hold no
//! stale entries and a decision never drains any. The heap order is the
//! scan order of [`Brancher::pick`] restricted to one block, so the
//! incremental pick returns exactly the literal the scan would; debug
//! builds of the engine check that at every decision.

use crate::prefix::{BlockId, Prefix};
use crate::var::{Lit, Var};

/// Selects the branching heuristic of the [`crate::solver::Solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeuristicKind {
    /// Deterministic: smallest available variable, negative phase first.
    Naive,
    /// QUBE(TO): literals ranked by (prefix level, VSIDS-like score, id).
    /// On a prenex input the level ordering reproduces the total-order
    /// priority queue of §VI.
    VsidsLevel,
    /// QUBE(PO): the tree-structured score of §VI — a literal's score is
    /// its counter plus the maximum score of the literals one level deeper
    /// *in its scope*, so outer literals always outrank their descendants
    /// while SAT instances degenerate to plain VSIDS.
    VsidsTree,
    /// Uniform random candidate and phase (differential testing).
    Random(u64),
}

/// Marks a variable absent from its block's heap in `Brancher::heap_pos`.
const ABSENT: u32 = u32::MAX;

/// Heuristic state: per-literal scores plus (for the tree variant) cached
/// per-block subtree maxima, and per-block indexed max-heaps so that
/// decisions don't re-scan every candidate.
#[derive(Debug)]
pub(crate) struct Brancher {
    kind: HeuristicKind,
    /// VSIDS-like score per literal code.
    score: Vec<f64>,
    /// Per-block maximum literal score over the whole subtree (tree mode).
    subtree_max: Vec<f64>,
    /// Whether scores changed since the last subtree refresh.
    dirty: bool,
    /// Post-order of the block forest, cached at construction (the prefix
    /// is immutable for the lifetime of a solve), so
    /// [`Brancher::refresh_subtree_max`] doesn't collect `blocks_dfs()`
    /// into a fresh `Vec` on every refresh.
    dfs_order: Vec<BlockId>,
    /// Block of each variable, cached so score bumps can be routed to the
    /// right heap without a prefix in hand.
    var_block: Vec<Option<BlockId>>,
    /// One indexed binary max-heap of variables per quantifier block,
    /// ordered by [`Brancher::above`]: current key descending, ties
    /// towards the *smaller* variable, so that heap order agrees with the
    /// scan comparators of [`Brancher::pick`]. Every score change re-sifts
    /// the variable at once, so the heaps hold no stale keys. Assigned
    /// variables stay in place until they surface at the top, where
    /// [`Brancher::best_in_block`] pops them; [`Brancher::on_unassign`]
    /// puts them back.
    heaps: Vec<Vec<Var>>,
    /// Position of each variable in its block's heap, or [`ABSENT`].
    heap_pos: Vec<u32>,
    rng: u64,
}

impl Brancher {
    pub(crate) fn new(kind: HeuristicKind, prefix: &Prefix, initial_counts: &[f64]) -> Self {
        let rng = match kind {
            HeuristicKind::Random(seed) => seed | 1,
            _ => 0x9e3779b97f4a7c15,
        };
        let var_block: Vec<Option<BlockId>> =
            (0..prefix.num_vars()).map(|i| prefix.block_of(Var::new(i))).collect();
        let mut brancher = Brancher {
            kind,
            score: initial_counts.to_vec(),
            subtree_max: vec![0.0; prefix.num_blocks()],
            dirty: true,
            dfs_order: prefix.blocks_dfs().collect(),
            heap_pos: vec![ABSENT; var_block.len()],
            var_block,
            heaps: vec![Vec::new(); prefix.num_blocks()],
            rng,
        };
        if brancher.uses_heaps() {
            for i in 0..brancher.var_block.len() {
                brancher.heap_insert(Var::new(i));
            }
        }
        brancher
    }

    /// Whether this heuristic branches through the per-block heaps
    /// ([`Brancher::pick_incremental`]). `Random` keeps the candidate
    /// scan: its draw depends on the candidate *list*, not on scores.
    pub(crate) fn uses_heaps(&self) -> bool {
        !matches!(self.kind, HeuristicKind::Random(_))
    }

    /// The heap key of `v` under the current scores. `Naive` ranks by
    /// variable id alone, so its key is constantly zero (the heap
    /// tie-break yields the smallest variable).
    fn key_of(&self, v: Var) -> f64 {
        match self.kind {
            HeuristicKind::Naive => 0.0,
            _ => self.var_score(v),
        }
    }

    /// Heap order: whether `a` ranks above `b` (higher key, then the
    /// smaller variable).
    fn above(&self, a: Var, b: Var) -> bool {
        self.key_of(a)
            .total_cmp(&self.key_of(b))
            .then_with(|| b.cmp(&a))
            .is_gt()
    }

    /// Moves the variable at position `i` of heap `h` up to its place.
    fn sift_up(&mut self, h: usize, mut i: usize) {
        let v = self.heaps[h][i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heaps[h][parent];
            if !self.above(v, p) {
                break;
            }
            self.heaps[h][i] = p;
            self.heap_pos[p.index()] = i as u32;
            i = parent;
        }
        self.heaps[h][i] = v;
        self.heap_pos[v.index()] = i as u32;
    }

    /// Moves the variable at position `i` of heap `h` down to its place.
    fn sift_down(&mut self, h: usize, mut i: usize) {
        let v = self.heaps[h][i];
        let n = self.heaps[h].len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.above(self.heaps[h][right], self.heaps[h][left]) {
                right
            } else {
                left
            };
            let c = self.heaps[h][child];
            if !self.above(c, v) {
                break;
            }
            self.heaps[h][i] = c;
            self.heap_pos[c.index()] = i as u32;
            i = child;
        }
        self.heaps[h][i] = v;
        self.heap_pos[v.index()] = i as u32;
    }

    /// Inserts `v` into its block's heap (bound variables only).
    fn heap_insert(&mut self, v: Var) {
        if let Some(b) = self.var_block[v.index()] {
            let h = b.index();
            self.heaps[h].push(v);
            self.sift_up(h, self.heaps[h].len() - 1);
        }
    }

    /// Restores `v`'s heap position after its key changed: up when it
    /// grew, down when it shrank. No-op for variables not in a heap.
    fn rekey(&mut self, v: Var, grew: bool) {
        let pos = self.heap_pos[v.index()];
        if pos == ABSENT {
            return;
        }
        let h = self.var_block[v.index()]
            .expect("heap members are bound")
            .index();
        if grew {
            self.sift_up(h, pos as usize);
        } else {
            self.sift_down(h, pos as usize);
        }
    }

    /// The variable got unassigned and is branchable again: re-enter it
    /// into its block's heap unless it never left.
    pub(crate) fn on_unassign(&mut self, v: Var) {
        if self.uses_heaps() && self.heap_pos[v.index()] == ABSENT {
            self.heap_insert(v);
        }
    }

    /// Bumps the literals of a freshly learned constraint (the paper
    /// increments the occurrence counters when a constraint is added).
    /// Each bumped variable is sifted up before the next bump, so every
    /// sift starts from a valid heap.
    pub(crate) fn on_learn(&mut self, lits: &[Lit]) {
        let heaps = self.uses_heaps();
        for &l in lits {
            self.score[l.code()] += 1.0;
            if heaps {
                self.rekey(l.var(), true);
            }
        }
        self.dirty = true;
    }

    /// Decrements scores when a learned constraint is forgotten, sifting
    /// each variable down before the next decrement.
    pub(crate) fn on_forget(&mut self, lits: &[Lit]) {
        let heaps = self.uses_heaps();
        for &l in lits {
            self.score[l.code()] = (self.score[l.code()] - 1.0).max(0.0);
            if heaps {
                self.rekey(l.var(), false);
            }
        }
        self.dirty = true;
    }

    /// Periodic decay: the paper halves the old score when the priority
    /// queue is rearranged. Halving keeps the order of most keys, but not
    /// of keys that round, so every heap is rebuilt (`O(vars)`).
    pub(crate) fn decay(&mut self) {
        for s in &mut self.score {
            *s /= 2.0;
        }
        if self.uses_heaps() {
            for h in 0..self.heaps.len() {
                for i in (0..self.heaps[h].len() / 2).rev() {
                    self.sift_down(h, i);
                }
            }
        }
        self.dirty = true;
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Recomputes the per-block subtree maxima (tree mode). `O(blocks +
    /// vars)`, but only runs when scores changed since the last refresh.
    fn refresh_subtree_max(&mut self, prefix: &Prefix) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        // Post-order over the forest (reverse of the cached DFS preorder).
        let order = std::mem::take(&mut self.dfs_order);
        for &b in order.iter().rev() {
            let mut m = 0.0f64;
            for &c in prefix.block_children(b) {
                m = m.max(self.subtree_max[c.index()]);
            }
            // literal score within this block = counter + max of children
            let mut block_max = 0.0f64;
            for &v in prefix.block_vars(b) {
                let s = self.score[v.positive().code()].max(self.score[v.negative().code()]) + m;
                block_max = block_max.max(s);
            }
            self.subtree_max[b.index()] = block_max;
        }
        self.dfs_order = order;
    }

    /// Picks a branching literal among the candidate variables (all
    /// available and unassigned). Returns `None` iff `candidates` is empty.
    pub(crate) fn pick(&mut self, prefix: &Prefix, candidates: &[Var]) -> Option<Lit> {
        if candidates.is_empty() {
            return None;
        }
        match self.kind {
            HeuristicKind::Naive => {
                let v = *candidates.iter().min().expect("non-empty");
                Some(v.negative())
            }
            HeuristicKind::Random(_) => {
                let i = (self.next_random() % candidates.len() as u64) as usize;
                let v = candidates[i];
                Some(v.lit(self.next_random() & 1 == 1))
            }
            HeuristicKind::VsidsLevel => {
                let best = candidates
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let (la, lb) = (prefix.level(a).unwrap_or(0), prefix.level(b).unwrap_or(0));
                        la.cmp(&lb)
                            .then_with(|| {
                                self.var_score(b)
                                    .partial_cmp(&self.var_score(a))
                                    .expect("scores are finite")
                            })
                            .then_with(|| a.cmp(&b))
                    })
                    .expect("non-empty");
                Some(self.phase(best))
            }
            HeuristicKind::VsidsTree => {
                self.refresh_subtree_max(prefix);
                let best = candidates
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        self.tree_score(prefix, a)
                            .partial_cmp(&self.tree_score(prefix, b))
                            .expect("scores are finite")
                            .then_with(|| b.cmp(&a))
                    })
                    .expect("non-empty");
                Some(self.phase(best))
            }
        }
    }

    /// The best unassigned variable of block `b` with its current key, or
    /// `None` if the block has no unassigned variable. Assigned variables
    /// that surface at the top are popped (they re-enter via
    /// [`Brancher::on_unassign`]); every unassigned variable of the block
    /// is in the heap, so the first unassigned top is the block maximum.
    fn best_in_block(&mut self, b: BlockId, value: &[Option<bool>]) -> Option<(f64, Var)> {
        let h = b.index();
        loop {
            let &top = self.heaps[h].first()?;
            if value[top.index()].is_none() {
                return Some((self.key_of(top), top));
            }
            self.heap_pos[top.index()] = ABSENT;
            let last = self.heaps[h].pop().expect("non-empty heap");
            if !self.heaps[h].is_empty() {
                self.heaps[h][0] = last;
                self.sift_down(h, 0);
            }
        }
    }

    /// Does block `b`'s candidate `(key, v)` outrank the incumbent
    /// `(bkey, bv)` from block `bb` under this heuristic's scan
    /// comparator? Comparisons replicate [`Brancher::pick`] exactly so the
    /// incremental path is decision-for-decision identical to the scan.
    fn block_beats(
        &self,
        prefix: &Prefix,
        (b, key, v): (BlockId, f64, Var),
        (bb, bkey, bv): (BlockId, f64, Var),
    ) -> bool {
        match self.kind {
            HeuristicKind::Naive => v < bv,
            HeuristicKind::Random(_) => unreachable!("Random branches via the scan"),
            HeuristicKind::VsidsLevel => {
                let (la, lb) = (prefix.block_level(b), prefix.block_level(bb));
                la.cmp(&lb)
                    .then_with(|| bkey.partial_cmp(&key).expect("scores are finite"))
                    .then_with(|| v.cmp(&bv))
                    .is_lt()
            }
            HeuristicKind::VsidsTree => {
                let ta = key + self.child_max(prefix, b);
                let tb = bkey + self.child_max(prefix, bb);
                ta.partial_cmp(&tb)
                    .expect("scores are finite")
                    .then_with(|| bv.cmp(&v))
                    .is_gt()
            }
        }
    }

    /// Incremental decision: the best candidate across the *available*
    /// blocks, found by folding each block's heap maximum instead of
    /// scanning every candidate variable. Returns `None` iff no block has
    /// an unassigned variable. Must only be called when
    /// [`Brancher::uses_heaps`] is `true`.
    pub(crate) fn pick_incremental(
        &mut self,
        prefix: &Prefix,
        blocks: &[BlockId],
        value: &[Option<bool>],
    ) -> Option<Lit> {
        debug_assert!(self.uses_heaps());
        if matches!(self.kind, HeuristicKind::VsidsTree) {
            self.refresh_subtree_max(prefix);
        }
        let mut best: Option<(BlockId, f64, Var)> = None;
        for &b in blocks {
            let Some((key, v)) = self.best_in_block(b, value) else {
                continue;
            };
            best = Some(match best {
                None => (b, key, v),
                Some(inc) => {
                    if self.block_beats(prefix, (b, key, v), inc) {
                        (b, key, v)
                    } else {
                        inc
                    }
                }
            });
        }
        best.map(|(_, _, v)| match self.kind {
            HeuristicKind::Naive => v.negative(),
            _ => self.phase(v),
        })
    }

    /// Current VSIDS-like score of a literal (read-only; used by the
    /// observability layer to report the rank of a decision).
    pub(crate) fn score_of(&self, l: Lit) -> f64 {
        self.score[l.code()]
    }

    fn var_score(&self, v: Var) -> f64 {
        self.score[v.positive().code()].max(self.score[v.negative().code()])
    }

    /// Maximum cached subtree score among the children of block `b` (the
    /// shared addend of every tree score in the block).
    fn child_max(&self, prefix: &Prefix, b: BlockId) -> f64 {
        let mut m = 0.0f64;
        for &c in prefix.block_children(b) {
            m = m.max(self.subtree_max[c.index()]);
        }
        m
    }

    /// §VI: counter of the literal plus the maximum score one prefix level
    /// deeper in its scope (the cached child-subtree maxima).
    fn tree_score(&self, prefix: &Prefix, v: Var) -> f64 {
        let child_max = match prefix.block_of(v) {
            Some(b) => self.child_max(prefix, b),
            None => 0.0,
        };
        self.var_score(v) + child_max
    }

    /// Phase selection: the polarity with the higher score (ties positive).
    fn phase(&self, v: Var) -> Lit {
        if self.score[v.negative().code()] > self.score[v.positive().code()] {
            v.negative()
        } else {
            v.positive()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Quantifier::*;

    fn v(i: usize) -> Var {
        Var::new(i)
    }

    fn paper_prefix() -> Prefix {
        use crate::prefix::PrefixBuilder;
        let mut b = PrefixBuilder::new(7);
        let root = b.add_root(Exists, [v(0)]).unwrap();
        let y1 = b.add_child(root, Forall, [v(1)]).unwrap();
        b.add_child(y1, Exists, [v(2), v(3)]).unwrap();
        let y2 = b.add_child(root, Forall, [v(4)]).unwrap();
        b.add_child(y2, Exists, [v(5), v(6)]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn naive_picks_smallest_negative() {
        let p = paper_prefix();
        let mut h = Brancher::new(HeuristicKind::Naive, &p, &[0.0; 14]);
        assert_eq!(h.pick(&p, &[v(3), v(1)]), Some(v(1).negative()));
        assert_eq!(h.pick(&p, &[]), None);
    }

    #[test]
    fn tree_score_dominates_ancestors() {
        // §VI property 1: if |l| ≺ |l'| then score(l) ≥ score(l') (strictly
        // greater with positive counters), so ancestors are picked first.
        let p = paper_prefix();
        let mut counts = vec![1.0; 14];
        // make an inner literal very active
        counts[v(2).positive().code()] = 10.0;
        let mut h = Brancher::new(HeuristicKind::VsidsTree, &p, &counts);
        h.refresh_subtree_max(&p);
        assert!(h.tree_score(&p, v(0)) > h.tree_score(&p, v(2)));
        assert!(h.tree_score(&p, v(1)) > h.tree_score(&p, v(2)));
        // and the x0 score sees the hot subtree through y1
        assert!(h.tree_score(&p, v(0)) >= 11.0);
    }

    #[test]
    fn tree_mode_reduces_to_vsids_on_sat() {
        // §VI property 2: with a single ∃ block (a SAT instance), the tree
        // score equals the plain counter.
        let p = Prefix::prenex(3, [(Exists, vec![v(0), v(1), v(2)])]).unwrap();
        let mut counts = vec![0.0; 6];
        counts[v(1).positive().code()] = 5.0;
        let mut h = Brancher::new(HeuristicKind::VsidsTree, &p, &counts);
        assert_eq!(h.pick(&p, &[v(0), v(1), v(2)]), Some(v(1).positive()));
    }

    #[test]
    fn level_mode_prefers_outer_levels() {
        let p = paper_prefix();
        let mut counts = vec![0.0; 14];
        counts[v(2).positive().code()] = 100.0;
        let mut h = Brancher::new(HeuristicKind::VsidsLevel, &p, &counts);
        // despite the huge inner score, the outer candidate wins on level
        assert_eq!(h.pick(&p, &[v(0), v(2)]), Some(v(0).positive()));
    }

    #[test]
    fn phase_follows_scores() {
        let p = Prefix::prenex(1, [(Exists, vec![v(0)])]).unwrap();
        let mut counts = vec![0.0; 2];
        counts[v(0).negative().code()] = 3.0;
        let mut h = Brancher::new(HeuristicKind::VsidsLevel, &p, &counts);
        assert_eq!(h.pick(&p, &[v(0)]), Some(v(0).negative()));
    }

    #[test]
    fn learn_and_decay_update_scores() {
        let p = Prefix::prenex(1, [(Exists, vec![v(0)])]).unwrap();
        let mut h = Brancher::new(HeuristicKind::VsidsLevel, &p, &[0.0; 2]);
        h.on_learn(&[v(0).positive()]);
        assert_eq!(h.var_score(v(0)), 1.0);
        h.decay();
        assert_eq!(h.var_score(v(0)), 0.5);
        h.on_forget(&[v(0).positive()]);
        assert_eq!(h.var_score(v(0)), 0.0);
    }

    /// All blocks of `p` whose variables are all unassigned in `value`
    /// and whose ancestors are fully assigned (mirrors the engine's
    /// availability computation for these fully-unassigned test prefixes).
    fn available_blocks(p: &Prefix, value: &[Option<bool>]) -> Vec<crate::prefix::BlockId> {
        let mut blocks = Vec::new();
        let mut stack: Vec<_> = p.roots().to_vec();
        while let Some(b) = stack.pop() {
            if p.block_vars(b).iter().any(|v| value[v.index()].is_none()) {
                blocks.push(b);
                continue;
            }
            stack.extend(p.block_children(b).iter().copied());
        }
        blocks
    }

    #[test]
    fn incremental_pick_matches_scan() {
        // The heap path must be decision-for-decision identical to
        // the candidate scan, across heuristics, bumps, decay and
        // partial assignments.
        let p = paper_prefix();
        for kind in [HeuristicKind::Naive, HeuristicKind::VsidsLevel, HeuristicKind::VsidsTree] {
            let mut counts = vec![0.0; 14];
            counts[v(2).positive().code()] = 3.0;
            counts[v(5).negative().code()] = 7.0;
            let mut h = Brancher::new(kind, &p, &counts);
            assert!(h.uses_heaps());
            let mut value: Vec<Option<bool>> = vec![None; 7];

            // fully unassigned: only the root block is available
            let blocks = available_blocks(&p, &value);
            let scan_cands: Vec<Var> = blocks
                .iter()
                .flat_map(|&b| p.block_vars(b))
                .copied()
                .filter(|x| value[x.index()].is_none())
                .collect();
            assert_eq!(h.pick_incremental(&p, &blocks, &value), h.pick(&p, &scan_cands));

            // assign the root and one inner var, bump and decay: stale
            // heap entries must be repaired, not trusted
            value[0] = Some(true);
            h.on_learn(&[v(3).positive(), v(6).negative()]);
            h.decay();
            h.on_forget(&[v(5).negative()]);
            value[1] = Some(false);
            h.on_unassign(v(1));
            let blocks = available_blocks(&p, &value);
            let scan_cands: Vec<Var> = blocks
                .iter()
                .flat_map(|&b| p.block_vars(b))
                .copied()
                .filter(|x| value[x.index()].is_none())
                .collect();
            assert_eq!(h.pick_incremental(&p, &blocks, &value), h.pick(&p, &scan_cands));
        }
    }

    /// A random forest of `num_vars` variables in blocks of one to six.
    fn random_prefix(next: &mut impl FnMut(usize) -> usize, num_vars: usize) -> Prefix {
        use crate::prefix::PrefixBuilder;
        let mut b = PrefixBuilder::new(num_vars);
        let mut blocks = Vec::new();
        let mut first = 0;
        while first < num_vars {
            let size = (1 + next(6)).min(num_vars - first);
            let vars: Vec<Var> = (first..first + size).map(Var::new).collect();
            first += size;
            let quant = if next(2) == 0 { Exists } else { Forall };
            let id = if blocks.is_empty() || next(4) == 0 {
                b.add_root(quant, vars)
            } else {
                b.add_child(blocks[next(blocks.len())], quant, vars)
            };
            blocks.push(id.unwrap());
        }
        b.finish().unwrap()
    }

    #[test]
    fn heaps_match_the_scan_under_random_operations() {
        // Seeded random interleavings of every operation that touches the
        // heaps — bumps, forgets, decay, assignments (whose variables stay
        // in the heap until they surface at the top) and unassignments —
        // with the heap pick checked against the scan after every step.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for round in 0..40 {
            let n = 4 + next(28);
            let p = random_prefix(&mut next, n);
            for kind in [
                HeuristicKind::Naive,
                HeuristicKind::VsidsLevel,
                HeuristicKind::VsidsTree,
            ] {
                let counts: Vec<f64> = (0..2 * n).map(|_| next(4) as f64).collect();
                let mut h = Brancher::new(kind, &p, &counts);
                let mut value: Vec<Option<bool>> = vec![None; n];
                let mut trail: Vec<Var> = Vec::new();
                let mut learned: Vec<Vec<Lit>> = Vec::new();
                for step in 0..150 {
                    match next(7) {
                        0 | 1 => {
                            let mut lits: Vec<Lit> = Vec::new();
                            for i in 0..n {
                                if next(3) == 0 {
                                    lits.push(v(i).lit(next(2) == 0));
                                }
                            }
                            h.on_learn(&lits);
                            learned.push(lits);
                        }
                        2 if !learned.is_empty() => {
                            let lits = learned.swap_remove(next(learned.len()));
                            h.on_forget(&lits);
                        }
                        3 => h.decay(),
                        4 | 5 => {
                            let open: Vec<usize> = (0..n).filter(|&i| value[i].is_none()).collect();
                            if !open.is_empty() {
                                let i = open[next(open.len())];
                                value[i] = Some(next(2) == 0);
                                trail.push(v(i));
                            }
                        }
                        _ => {
                            let keep = next(trail.len() + 1);
                            while trail.len() > keep {
                                let x = trail.pop().unwrap();
                                value[x.index()] = None;
                                h.on_unassign(x);
                            }
                        }
                    }
                    let blocks = available_blocks(&p, &value);
                    let scan_cands: Vec<Var> = blocks
                        .iter()
                        .flat_map(|&b| p.block_vars(b))
                        .copied()
                        .filter(|x| value[x.index()].is_none())
                        .collect();
                    assert_eq!(
                        h.pick_incremental(&p, &blocks, &value),
                        h.pick(&p, &scan_cands),
                        "round {round}, {kind:?}, step {step}, prefix {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_pick_skips_assigned_and_empty_blocks() {
        let p = paper_prefix();
        let mut h = Brancher::new(HeuristicKind::Naive, &p, &[0.0; 14]);
        let mut value: Vec<Option<bool>> = vec![None; 7];
        // assign everything: no pick
        for slot in value.iter_mut() {
            *slot = Some(true);
        }
        let blocks: Vec<_> = p.blocks_dfs().collect();
        assert_eq!(h.pick_incremental(&p, &blocks, &value), None);
        // unassign one inner variable and re-enter it
        value[5] = None;
        h.on_unassign(v(5));
        assert_eq!(h.pick_incremental(&p, &blocks, &value), Some(v(5).negative()));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = paper_prefix();
        let cands = [v(0)];
        let a = Brancher::new(HeuristicKind::Random(7), &p, &[0.0; 14])
            .pick(&p, &cands)
            .unwrap();
        let b = Brancher::new(HeuristicKind::Random(7), &p, &[0.0; 14])
            .pick(&p, &cands)
            .unwrap();
        assert_eq!(a, b);
    }
}
