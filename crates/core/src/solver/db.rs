//! The constraint database: original clauses, learned clauses (nogoods) and
//! learned cubes (goods), with **lazy watched-literal** indices for
//! propagation and a small occurrence index over *original* clauses for
//! satisfaction tracking (solution trigger + monotone-literal detection).
//!
//! # Memory layout: the constraint arena
//!
//! Constraints are not individual heap allocations. Each kind lives in a
//! contiguous `u32` arena ([`ConstraintArena`], MiniSat-style): a fixed
//! header (size, learned/deleted flags, activity, shadow counters)
//! followed by the packed literal codes. A [`ConstraintRef`] is the word
//! offset of the header, with the top bit selecting the clause or the
//! cube arena — so the kind of a constraint is recoverable from the ref
//! alone, without touching memory.
//!
//! Refs are **stable between compactions**: adding constraints never
//! moves existing ones (offsets are not invalidated by `Vec` growth).
//! [`Db::compact`] physically reclaims tombstoned constraints by sliding
//! the live ones down; it returns a [`RefMap`] so the engine can relocate
//! the refs it holds outside the database (antecedent/reason refs and
//! frame pseudo-reasons). Refs held *inside* the database — watcher
//! lists, original-occurrence lists, shadow occurrence lists, and the
//! learned creation-order index — are remapped here. The map holds one
//! offset pair per surviving constraint, so its size follows the live
//! database rather than the arena it compacts.
//!
//! # Watched literals
//!
//! Every constraint keeps its (up to two) movable watched literals at the
//! front of its literal block (positions are maintained by swapping in
//! place), and each kind has its own watcher lists, indexed by literal:
//! `watch_clause[m]` is visited when `m` becomes *false*, `watch_cube[m]`
//! when `m` becomes *true* — the assignment that moves a constraint of
//! that kind towards its event. The clause lists also carry the **pinned
//! unblock sentinels** (see [`Watcher`]): never moved, but remapped by
//! compaction like any other watcher. Cubes have none, so a cube holds at
//! most two watcher entries however long it is.
//!
//! Each watcher entry carries a cached **blocker** literal (some other
//! literal of the constraint). When the blocker already satisfies a
//! clause (falsifies a cube) the visit is resolved from the watcher entry
//! alone — no arena memory is touched. The engine counts these as
//! `blocker_hits` next to `watcher_visits`.
//!
//! Which literals may carry a movable watch or a sentinel, and why the
//! lists need no undo on backtrack, is the watch invariant; `engine.rs`
//! states it once for both kinds in its module docs.
//!
//! # Shadow counters (`debug-counters`)
//!
//! With the `debug-counters` cargo feature the database also carries the
//! seed engine's per-constraint `true_count`/`false_count` counters,
//! maintained eagerly for *every* constraint. They take no part in search
//! decisions; `engine.rs` cross-checks them against the watched state at
//! every propagation fixpoint, so the two propagators are verified
//! event-for-event without perturbing the search.

use std::collections::HashMap;

use crate::var::Lit;

/// Whether a constraint is a clause (disjunction, conjoined with the
/// matrix) or a cube (conjunction, disjoined with the matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Clause,
    Cube,
}

impl Kind {
    /// The kind of the engine's search side `cube` (its `CUBE` parameter).
    #[inline]
    pub(crate) const fn of(cube: bool) -> Kind {
        if cube {
            Kind::Cube
        } else {
            Kind::Clause
        }
    }
}

/// Reference to a constraint: the header word offset into the arena of
/// its kind, with the top bit set for cubes. Stable between compactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConstraintRef(u32);

/// Top bit of a [`ConstraintRef`]: set iff the ref points into the cube
/// arena.
const CUBE_TAG: u32 = 1 << 31;

impl ConstraintRef {
    #[inline]
    fn new(kind: Kind, offset: usize) -> Self {
        debug_assert!((offset as u32) < CUBE_TAG, "arena offset overflow");
        match kind {
            Kind::Clause => ConstraintRef(offset as u32),
            Kind::Cube => ConstraintRef(offset as u32 | CUBE_TAG),
        }
    }

    /// The kind of the referenced constraint, recovered from the tag bit.
    #[inline]
    pub(crate) fn kind(self) -> Kind {
        if self.0 & CUBE_TAG == 0 {
            Kind::Clause
        } else {
            Kind::Cube
        }
    }

    /// Header word offset within the arena of [`ConstraintRef::kind`].
    #[inline]
    fn offset(self) -> usize {
        (self.0 & !CUBE_TAG) as usize
    }

    /// Opaque identity handed to proof sinks (arena offset plus kind
    /// tag). Stable until the constraint is deleted or the arena is
    /// compacted — both events are reported to the sink, which keeps its
    /// token → proof-line map in sync.
    #[inline]
    pub(crate) fn token(self) -> u64 {
        self.0 as u64
    }
}

/// A watcher-list entry: the watching constraint plus a *blocker* literal
/// (some other literal of the constraint). If the blocker already
/// satisfies a clause (falsifies a cube), the visit is resolved without
/// touching the constraint's memory — counted by the `blocker_hits` stat.
/// A movable clause watch stores the other watched literal. So does a
/// movable cube watch, except when it stays on its literal because the
/// cube was found disabled: then it stores the false literal that
/// disabled it (the engine's module docs give the rule and why it is
/// sound).
///
/// `pinned` entries are **unblock sentinels** and occur in clause lists
/// only: they sit on a universal literal that `≺`-blocks some existential
/// literal of the clause and are never moved — its falsification is
/// exactly the Lemma 5 unblocking event, which must always trigger an
/// examination. Their blocker is the first such existential literal in
/// stored order, checked first like any blocker. Cubes get no sentinels
/// (the engine's module docs give the measured reason).
/// Packed to 8 bytes (two words) so watcher lists stay cache-dense: the
/// pinned flag lives in bit 31 of the blocker word (literal codes use at
/// most 31 bits, like [`ConstraintRef`] offsets).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: ConstraintRef,
    blocker_pin: u32,
}

const PINNED_BIT: u32 = 1 << 31;

impl Watcher {
    #[inline]
    pub(crate) fn new(cref: ConstraintRef, blocker: Lit, pinned: bool) -> Self {
        debug_assert!((blocker.code() as u32) < PINNED_BIT, "literal code overflow");
        Watcher {
            cref,
            blocker_pin: blocker.code() as u32 | if pinned { PINNED_BIT } else { 0 },
        }
    }

    #[inline]
    pub(crate) fn blocker(self) -> Lit {
        Lit::from_code((self.blocker_pin & !PINNED_BIT) as usize)
    }

    #[inline]
    pub(crate) fn pinned(self) -> bool {
        self.blocker_pin & PINNED_BIT != 0
    }
}

/// Arena header layout (all `u32` words, immediately before the packed
/// literal codes):
///
/// | word | contents                                             |
/// |------|------------------------------------------------------|
/// | 0    | size (bits 0..30) \| learned (bit 30) \| deleted (31) |
/// | 1    | activity `f64` bits, low half                         |
/// | 2    | activity `f64` bits, high half                        |
/// | 3    | `true_count` shadow counter                           |
/// | 4    | `false_count` shadow counter                          |
const HEADER_WORDS: usize = 5;
const SIZE_MASK: u32 = (1 << 30) - 1;
const LEARNED_BIT: u32 = 1 << 30;
const DELETED_BIT: u32 = 1 << 31;

/// One contiguous `u32` arena holding every constraint of one [`Kind`]:
/// header words followed by packed literal codes, back to back.
#[derive(Debug, Default)]
pub(crate) struct ConstraintArena {
    words: Vec<u32>,
}

impl ConstraintArena {
    /// Appends a constraint, returning its header word offset.
    fn push(&mut self, lits: &[Lit], learned: bool, tc: u32, fc: u32, activity: f64) -> usize {
        let offset = self.words.len();
        debug_assert!(lits.len() as u32 <= SIZE_MASK, "constraint too large");
        let mut header = lits.len() as u32;
        if learned {
            header |= LEARNED_BIT;
        }
        let act = activity.to_bits();
        self.words.push(header);
        self.words.push(act as u32);
        self.words.push((act >> 32) as u32);
        self.words.push(tc);
        self.words.push(fc);
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        offset
    }

    #[inline]
    fn size(&self, o: usize) -> usize {
        (self.words[o] & SIZE_MASK) as usize
    }

    #[inline]
    fn lits(&self, o: usize) -> &[Lit] {
        let size = self.size(o);
        let words = &self.words[o + HEADER_WORDS..o + HEADER_WORDS + size];
        // SAFETY: `Lit` is `#[repr(transparent)]` over `u32`, and every
        // word in the literal block was produced by `Lit::code` in `push`
        // (or swapped in place by `swap_lits`), so the reinterpretation
        // is exact.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<Lit>(), size) }
    }

    /// Total words currently allocated (live + tombstoned).
    #[inline]
    fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Slides live constraints down over tombstoned ones. Returns one
    /// `(old, new)` header-offset pair per surviving constraint, in arena
    /// order, and the number of words reclaimed.
    fn compact(&mut self) -> (Vec<(u32, u32)>, usize) {
        let mut map = Vec::new();
        let mut read = 0usize;
        let mut write = 0usize;
        while read < self.words.len() {
            let header = self.words[read];
            let total = HEADER_WORDS + (header & SIZE_MASK) as usize;
            if header & DELETED_BIT == 0 {
                map.push((read as u32, write as u32));
                if write != read {
                    self.words.copy_within(read..read + total, write);
                }
                write += total;
            }
            read += total;
        }
        let reclaimed = self.words.len() - write;
        self.words.truncate(write);
        (map, reclaimed)
    }

    /// Walks the arena front to back, yielding header offsets of **all**
    /// constraints (including tombstoned ones) in creation order.
    #[cfg(any(test, feature = "debug-counters"))]
    fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let header = move |o: usize| (o < self.words.len()).then_some(o);
        std::iter::successors(header(0), move |&o| header(o + HEADER_WORDS + self.size(o)))
    }
}

/// Old-ref → new-ref translation produced by [`Db::compact`]; the engine
/// uses it to relocate antecedent/reason refs and frame pseudo-reasons.
///
/// Per arena it holds one `(old, new)` header-offset pair for each
/// surviving constraint, in arena order. Compaction never reorders
/// constraints, so the old offsets are sorted and a lookup is a binary
/// search. The map is sized by the live constraints, not by the arena
/// words: a dense old-offset table would cost as much as the arena
/// itself at the very moment compaction runs.
pub(crate) struct RefMap {
    clause: Vec<(u32, u32)>,
    cube: Vec<(u32, u32)>,
    /// Bytes physically reclaimed across both arenas.
    pub(crate) reclaimed_bytes: usize,
}

impl RefMap {
    fn table(&self, kind: Kind) -> &[(u32, u32)] {
        match kind {
            Kind::Clause => &self.clause,
            Kind::Cube => &self.cube,
        }
    }

    /// New location of `r`, or `None` if the constraint was tombstoned
    /// and has been physically reclaimed.
    pub(crate) fn remap(&self, r: ConstraintRef) -> Option<ConstraintRef> {
        let table = self.table(r.kind());
        let old = r.offset() as u32;
        let i = table.binary_search_by_key(&old, |&(o, _)| o).ok()?;
        Some(ConstraintRef::new(r.kind(), table[i].1 as usize))
    }

    /// Every surviving constraint as `(old, new)` refs: clauses first,
    /// each arena in creation order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (ConstraintRef, ConstraintRef)> + '_ {
        [Kind::Clause, Kind::Cube]
            .into_iter()
            .flat_map(move |kind| {
                self.table(kind).iter().map(move |&(o, n)| {
                    (
                        ConstraintRef::new(kind, o as usize),
                        ConstraintRef::new(kind, n as usize),
                    )
                })
            })
    }
}

/// Constraint arenas plus watcher lists and the original-clause
/// occurrence index.
#[derive(Debug, Default)]
pub(crate) struct Db {
    /// Arena of all clauses. In one-shot solving the `num_original`
    /// original clauses form a stable, never-deleted prefix in creation
    /// order; incremental solving may interleave additions with learned
    /// clauses and remove popped originals, so the authoritative original
    /// order lives in `original_order`.
    clauses: ConstraintArena,
    /// Arena of all cubes (always learned).
    cubes: ConstraintArena,
    /// Live original clauses in creation order (the iteration order of
    /// `original_refs`, which the initial Lemma-4 scan and the implicant
    /// builder rely on for determinism).
    original_order: Vec<ConstraintRef>,
    /// Learned constraints (both kinds) in creation order — the tie-break
    /// order of the database-reduction sweep. Deleted entries linger
    /// (filtered by the sweep) until compaction drops them.
    learned_order: Vec<ConstraintRef>,
    /// Push-frame dependency marks for incremental solving: the highest
    /// push level a constraint's derivation depends on (its own frame for
    /// originals, the max over used antecedents for learned clauses).
    /// Only nonzero marks are stored, so the map stays empty — and costs
    /// nothing — in one-shot solving. Never iterated (determinism).
    frame_mark: HashMap<ConstraintRef, u32>,
    /// Words tombstoned but not yet reclaimed, across both arenas.
    dead_words: usize,
    /// High-water mark of total arena bytes, updated on every add.
    pub(crate) bytes_peak: usize,
    /// For each literal code: *original* clauses containing that literal
    /// (satisfaction tracking only; learned constraints never appear).
    pub(crate) occ_original: Vec<Vec<ConstraintRef>>,
    /// For each literal code: clauses watching that literal (visited when
    /// the literal becomes false).
    pub(crate) watch_clause: Vec<Vec<Watcher>>,
    /// For each literal code: cubes watching that literal (visited when
    /// the literal becomes true).
    pub(crate) watch_cube: Vec<Vec<Watcher>>,
    /// Full occurrence lists over **all** constraints (both kinds,
    /// original and learned) for the shadow counter discipline. Deleted
    /// constraints keep receiving harmless counter updates and are
    /// skipped by the verifier; compaction drops their entries.
    #[cfg(feature = "debug-counters")]
    pub(crate) occ_shadow: Vec<Vec<ConstraintRef>>,
    /// Number of *original* clauses currently without a true literal; when
    /// it reaches zero the matrix is satisfied (empty under restriction).
    pub(crate) unsat_originals: usize,
    pub(crate) num_original: usize,
    pub(crate) num_learned_clauses: usize,
    pub(crate) num_learned_cubes: usize,
}

impl Db {
    pub(crate) fn new(num_vars: usize) -> Self {
        Db {
            clauses: ConstraintArena::default(),
            cubes: ConstraintArena::default(),
            original_order: Vec::new(),
            learned_order: Vec::new(),
            frame_mark: HashMap::new(),
            dead_words: 0,
            bytes_peak: 0,
            occ_original: vec![Vec::new(); 2 * num_vars],
            watch_clause: vec![Vec::new(); 2 * num_vars],
            watch_cube: vec![Vec::new(); 2 * num_vars],
            #[cfg(feature = "debug-counters")]
            occ_shadow: vec![Vec::new(); 2 * num_vars],
            unsat_originals: 0,
            num_original: 0,
            num_learned_clauses: 0,
            num_learned_cubes: 0,
        }
    }

    #[inline]
    fn arena(&self, c: ConstraintRef) -> &ConstraintArena {
        match c.kind() {
            Kind::Clause => &self.clauses,
            Kind::Cube => &self.cubes,
        }
    }

    #[inline]
    fn arena_mut(&mut self, c: ConstraintRef) -> &mut ConstraintArena {
        match c.kind() {
            Kind::Clause => &mut self.clauses,
            Kind::Cube => &mut self.cubes,
        }
    }

    /// The literals of `c`; the movable watches (up to two) live at the
    /// leading positions.
    #[inline]
    pub(crate) fn lits(&self, c: ConstraintRef) -> &[Lit] {
        self.arena(c).lits(c.offset())
    }

    #[inline]
    pub(crate) fn len(&self, c: ConstraintRef) -> usize {
        self.arena(c).size(c.offset())
    }

    #[inline]
    pub(crate) fn lit(&self, c: ConstraintRef, i: usize) -> Lit {
        self.lits(c)[i]
    }

    /// Swaps two literal positions in place (watch normalization).
    #[inline]
    pub(crate) fn swap_lits(&mut self, c: ConstraintRef, i: usize, j: usize) {
        let o = c.offset() + HEADER_WORDS;
        self.arena_mut(c).words.swap(o + i, o + j);
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: ConstraintRef) -> bool {
        self.arena(c).words[c.offset()] & DELETED_BIT != 0
    }

    #[inline]
    pub(crate) fn is_learned(&self, c: ConstraintRef) -> bool {
        self.arena(c).words[c.offset()] & LEARNED_BIT != 0
    }

    #[inline]
    pub(crate) fn activity(&self, c: ConstraintRef) -> f64 {
        let o = c.offset();
        let words = &self.arena(c).words;
        f64::from_bits(words[o + 1] as u64 | (words[o + 2] as u64) << 32)
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, c: ConstraintRef, activity: f64) {
        let o = c.offset();
        let act = activity.to_bits();
        let words = &mut self.arena_mut(c).words;
        words[o + 1] = act as u32;
        words[o + 2] = (act >> 32) as u32;
    }

    #[cfg(any(test, feature = "debug-counters"))]
    #[inline]
    pub(crate) fn true_count(&self, c: ConstraintRef) -> u32 {
        self.arena(c).words[c.offset() + 3]
    }

    #[inline]
    pub(crate) fn true_count_mut(&mut self, c: ConstraintRef) -> &mut u32 {
        let o = c.offset() + 3;
        &mut self.arena_mut(c).words[o]
    }

    #[cfg(feature = "debug-counters")]
    #[inline]
    pub(crate) fn false_count(&self, c: ConstraintRef) -> u32 {
        self.arena(c).words[c.offset() + 4]
    }

    #[cfg(feature = "debug-counters")]
    #[inline]
    pub(crate) fn false_count_mut(&mut self, c: ConstraintRef) -> &mut u32 {
        let o = c.offset() + 4;
        &mut self.arena_mut(c).words[o]
    }

    /// Total bytes currently held by both arenas (live + tombstoned).
    #[inline]
    pub(crate) fn arena_bytes(&self) -> usize {
        (self.clauses.len_words() + self.cubes.len_words()) * 4
    }

    /// Header refs of the live original clauses, in creation order.
    pub(crate) fn original_refs(&self) -> impl Iterator<Item = ConstraintRef> + '_ {
        self.original_order.iter().copied()
    }

    /// The push-frame dependency mark of a constraint (0 when it depends
    /// only on the bottom frame — the common case, stored implicitly).
    #[inline]
    pub(crate) fn frame_mark(&self, c: ConstraintRef) -> u32 {
        if self.frame_mark.is_empty() {
            return 0; // one-shot fast path: no hashing
        }
        self.frame_mark.get(&c).copied().unwrap_or(0)
    }

    /// Records a constraint's push-frame dependency mark (only nonzero
    /// marks are stored).
    #[inline]
    pub(crate) fn set_frame_mark(&mut self, c: ConstraintRef, mark: u32) {
        if mark > 0 {
            self.frame_mark.insert(c, mark);
        }
    }

    /// Learned constraints (both kinds) in creation order, including
    /// tombstoned ones — the reduction sweep filters those.
    pub(crate) fn learned_refs(&self) -> &[ConstraintRef] {
        &self.learned_order
    }

    /// Every constraint of both arenas (clauses first), including
    /// tombstoned ones: the shadow-verification walk.
    #[cfg(any(test, feature = "debug-counters"))]
    pub(crate) fn all_refs(&self) -> impl Iterator<Item = ConstraintRef> + '_ {
        self.clauses
            .offsets()
            .map(|o| ConstraintRef::new(Kind::Clause, o))
            .chain(self.cubes.offsets().map(|o| ConstraintRef::new(Kind::Cube, o)))
    }

    /// Adds a constraint and attaches `movable` watchers (0, 1 or 2) on
    /// the leading positions of `lits`.
    ///
    /// The caller orders `lits` so that the watched prefix is legal (the
    /// engine's `attach` does this for every constraint it adds), and
    /// `movable` is `min(2, #watched-quantifier literals)`. A clause's
    /// unblock sentinels (pinned watchers) are attached separately by the
    /// engine, which knows the prefix order.
    ///
    /// `true_count`/`false_count` initialize the shadow counters; the
    /// non-shadow build keeps `true_count` live for original clauses only.
    pub(crate) fn add(
        &mut self,
        lits: Vec<Lit>,
        kind: Kind,
        learned: bool,
        movable: usize,
        true_count: u32,
        false_count: u32,
    ) -> ConstraintRef {
        let tc = if !learned || cfg!(feature = "debug-counters") {
            true_count
        } else {
            0
        };
        let fc = if cfg!(feature = "debug-counters") {
            false_count
        } else {
            0
        };
        let arena = match kind {
            Kind::Clause => &mut self.clauses,
            Kind::Cube => &mut self.cubes,
        };
        let offset = arena.push(&lits, learned, tc, fc, 1.0);
        let cref = ConstraintRef::new(kind, offset);
        self.bytes_peak = self.bytes_peak.max(self.arena_bytes());
        #[cfg(feature = "debug-counters")]
        for &l in &lits {
            self.occ_shadow[l.code()].push(cref);
        }
        if !learned {
            debug_assert!(kind == Kind::Clause, "original constraints are clauses");
            for &l in &lits {
                self.occ_original[l.code()].push(cref);
            }
            if true_count == 0 {
                self.unsat_originals += 1;
            }
            self.num_original += 1;
            self.original_order.push(cref);
        } else {
            match kind {
                Kind::Clause => self.num_learned_clauses += 1,
                Kind::Cube => self.num_learned_cubes += 1,
            }
            self.learned_order.push(cref);
        }
        // Attach movable watchers: both ends of the watched pair, a single
        // watcher for constraints with one watched-quantifier literal, or
        // none for constraints with no such literal (those are decided by
        // the engine at/before add time).
        debug_assert!(movable <= 2 && movable <= lits.len());
        if movable == 2 {
            self.watches_mut(kind)[lits[0].code()].push(Watcher::new(cref, lits[1], false));
            self.watches_mut(kind)[lits[1].code()].push(Watcher::new(cref, lits[0], false));
        } else if movable == 1 {
            let blocker = if lits.len() >= 2 { lits[1] } else { lits[0] };
            self.watches_mut(kind)[lits[0].code()].push(Watcher::new(cref, blocker, false));
        }
        cref
    }

    /// The watcher lists of one kind, indexed by literal code.
    #[inline]
    pub(crate) fn watches_mut(&mut self, kind: Kind) -> &mut Vec<Vec<Watcher>> {
        match kind {
            Kind::Clause => &mut self.watch_clause,
            Kind::Cube => &mut self.watch_cube,
        }
    }

    /// Marks a learned constraint deleted. Its watcher entries are skipped
    /// (and dropped) lazily on visit and purged wholesale in
    /// [`Db::purge_watchers`] or reclaimed by [`Db::compact`];
    /// original-clause occurrence lists never contain learned constraints,
    /// so they need no purge.
    pub(crate) fn delete(&mut self, c: ConstraintRef) {
        debug_assert!(self.is_learned(c), "only learned constraints are deleted");
        self.tombstone(c);
        if !self.frame_mark.is_empty() {
            self.frame_mark.remove(&c);
        }
        match c.kind() {
            Kind::Clause => self.num_learned_clauses -= 1,
            Kind::Cube => self.num_learned_cubes -= 1,
        }
    }

    /// Sets the deleted bit and accounts the dead words (shared by learned
    /// deletion and original-clause removal).
    fn tombstone(&mut self, c: ConstraintRef) {
        let o = c.offset();
        let size = {
            let arena = self.arena_mut(c);
            arena.words[o] |= DELETED_BIT;
            (arena.words[o] & SIZE_MASK) as usize
        };
        self.dead_words += HEADER_WORDS + size;
    }

    /// Removes every original clause whose push frame is above `level`
    /// (incremental `pop`). The caller guarantees an empty trail, so every
    /// original clause has `true_count == 0` and is counted in
    /// `unsat_originals`. Returns the removed refs (the engine reverses
    /// its own per-literal accounting from them).
    pub(crate) fn remove_originals_above(&mut self, level: u32) -> Vec<ConstraintRef> {
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(self.original_order.len());
        for &c in &self.original_order {
            if self.frame_mark.get(&c).copied().unwrap_or(0) > level {
                removed.push(c);
            } else {
                kept.push(c);
            }
        }
        self.original_order = kept;
        for &c in &removed {
            debug_assert_eq!(
                self.arena(c).words[c.offset() + 3],
                0,
                "original removed while satisfied (trail not empty)"
            );
            self.tombstone(c);
            self.frame_mark.remove(&c);
            let lits = self.lits(c).to_vec();
            for l in lits {
                self.occ_original[l.code()].retain(|&r| r != c);
            }
            self.unsat_originals -= 1;
            self.num_original -= 1;
        }
        removed
    }

    /// Drops watcher entries of deleted constraints (called after a
    /// database-reduction sweep; lazy dropping on visit handles the rest).
    pub(crate) fn purge_watchers(&mut self) {
        // Split borrows: the retain closures only read the arenas.
        let clauses = &self.clauses;
        let cubes = &self.cubes;
        let deleted = |c: ConstraintRef| {
            let arena = match c.kind() {
                Kind::Clause => clauses,
                Kind::Cube => cubes,
            };
            arena.words[c.offset()] & DELETED_BIT != 0
        };
        for list in self.watch_clause.iter_mut().chain(self.watch_cube.iter_mut()) {
            list.retain(|w| !deleted(w.cref));
        }
    }

    /// Whether tombstoned garbage justifies a compaction pass (a quarter
    /// or more of the arena words are dead).
    pub(crate) fn wants_compaction(&self) -> bool {
        self.dead_words > 0 && self.dead_words * 4 >= self.arena_bytes() / 4
    }

    /// Physically reclaims tombstoned constraints in both arenas and
    /// remaps every ref held inside the database: watcher lists (entries
    /// of reclaimed constraints are dropped, preserving order — exactly
    /// the effect of [`Db::purge_watchers`]), original and shadow
    /// occurrence lists, and the learned creation-order index. Returns
    /// the [`RefMap`] for the refs the engine holds.
    pub(crate) fn compact(&mut self) -> RefMap {
        let (clause_map, clause_rec) = self.clauses.compact();
        let (cube_map, cube_rec) = self.cubes.compact();
        let map = RefMap {
            clause: clause_map,
            cube: cube_map,
            reclaimed_bytes: (clause_rec + cube_rec) * 4,
        };
        self.dead_words = 0;
        for list in &mut self.occ_original {
            for r in list.iter_mut() {
                *r = map.remap(*r).expect("original clauses are never deleted");
            }
        }
        for list in self.watch_clause.iter_mut().chain(self.watch_cube.iter_mut()) {
            list.retain_mut(|w| match map.remap(w.cref) {
                Some(nr) => {
                    w.cref = nr;
                    true
                }
                None => false,
            });
        }
        #[cfg(feature = "debug-counters")]
        for list in &mut self.occ_shadow {
            list.retain_mut(|r| match map.remap(*r) {
                Some(nr) => {
                    *r = nr;
                    true
                }
                None => false,
            });
        }
        self.learned_order.retain_mut(|r| match map.remap(*r) {
            Some(nr) => {
                *r = nr;
                true
            }
            None => false,
        });
        for r in self.original_order.iter_mut() {
            *r = map.remap(*r).expect("live original clauses survive compaction");
        }
        if !self.frame_mark.is_empty() {
            self.frame_mark = self
                .frame_mark
                .iter()
                .filter_map(|(&r, &m)| map.remap(r).map(|nr| (nr, m)))
                .collect();
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn watched(db: &Db, kind: Kind, l: Lit) -> Vec<ConstraintRef> {
        let list = match kind {
            Kind::Clause => &db.watch_clause[l.code()],
            Kind::Cube => &db.watch_cube[l.code()],
        };
        list.iter().map(|w| w.cref).collect()
    }

    #[test]
    fn add_and_query() {
        let mut db = Db::new(3);
        let c = db.add(vec![lit(1), lit(-2)], Kind::Clause, false, 2, 0, 0);
        assert_eq!(db.unsat_originals, 1);
        assert_eq!(db.num_original, 1);
        assert_eq!(db.occ_original[lit(1).code()], vec![c]);
        assert_eq!(db.occ_original[lit(-2).code()], vec![c]);
        assert_eq!(watched(&db, Kind::Clause, lit(1)), vec![c]);
        assert_eq!(watched(&db, Kind::Clause, lit(-2)), vec![c]);
        assert!(watched(&db, Kind::Cube, lit(1)).is_empty());
        assert_eq!(db.len(c), 2);
        assert_eq!(db.lits(c), &[lit(1), lit(-2)]);
        assert_eq!(c.kind(), Kind::Clause);
        assert!(!db.is_learned(c));
        assert!(!db.is_deleted(c));
    }

    #[test]
    fn learned_clause_does_not_count_unsat_or_occ() {
        let mut db = Db::new(2);
        let c = db.add(vec![lit(1)], Kind::Clause, true, 1, 0, 0);
        assert_eq!(db.unsat_originals, 0);
        assert_eq!(db.num_learned_clauses, 1);
        assert!(db.occ_original[lit(1).code()].is_empty());
        // unit constraints get a single watcher on their only literal
        assert_eq!(watched(&db, Kind::Clause, lit(1)), vec![c]);
    }

    #[test]
    fn cubes_use_cube_watchers() {
        let mut db = Db::new(2);
        let k = db.add(vec![lit(1), lit(2)], Kind::Cube, true, 2, 0, 0);
        assert_eq!(watched(&db, Kind::Cube, lit(1)), vec![k]);
        assert_eq!(watched(&db, Kind::Cube, lit(2)), vec![k]);
        assert!(watched(&db, Kind::Clause, lit(1)).is_empty());
        assert_eq!(db.num_learned_cubes, 1);
        assert_eq!(k.kind(), Kind::Cube);
    }

    #[test]
    fn only_first_two_literals_are_watched() {
        let mut db = Db::new(3);
        let c = db.add(vec![lit(1), lit(2), lit(3)], Kind::Clause, true, 2, 0, 0);
        assert_eq!(watched(&db, Kind::Clause, lit(1)), vec![c]);
        assert_eq!(watched(&db, Kind::Clause, lit(2)), vec![c]);
        assert!(watched(&db, Kind::Clause, lit(3)).is_empty());
        // blockers point at the partner watch
        assert_eq!(db.watch_clause[lit(1).code()][0].blocker(), lit(2));
        assert_eq!(db.watch_clause[lit(2).code()][0].blocker(), lit(1));
    }

    #[test]
    fn delete_and_purge() {
        let mut db = Db::new(2);
        let a = db.add(vec![lit(1), lit(2)], Kind::Clause, true, 2, 0, 0);
        let b = db.add(vec![lit(1), lit(2)], Kind::Clause, true, 2, 0, 0);
        db.delete(a);
        assert_eq!(db.num_learned_clauses, 1);
        assert_eq!(db.watch_clause[lit(1).code()].len(), 2);
        db.purge_watchers();
        assert_eq!(watched(&db, Kind::Clause, lit(1)), vec![b]);
        assert_eq!(watched(&db, Kind::Clause, lit(2)), vec![b]);
    }

    #[test]
    fn header_roundtrip() {
        let mut db = Db::new(4);
        let c = db.add(vec![lit(1), lit(-2), lit(3)], Kind::Clause, true, 1, 2, 0);
        assert!(db.is_learned(c));
        assert_eq!(db.activity(c), 1.0);
        db.set_activity(c, 1234.5);
        assert_eq!(db.activity(c), 1234.5);
        db.swap_lits(c, 0, 2);
        assert_eq!(db.lits(c), &[lit(3), lit(-2), lit(1)]);
        if cfg!(feature = "debug-counters") {
            assert_eq!(db.true_count(c), 2);
            *db.true_count_mut(c) += 1;
            assert_eq!(db.true_count(c), 3);
        }
    }

    #[test]
    fn learned_order_tracks_creation_across_kinds() {
        let mut db = Db::new(3);
        db.add(vec![lit(1), lit(2)], Kind::Clause, false, 2, 0, 0);
        let a = db.add(vec![lit(1)], Kind::Clause, true, 1, 0, 0);
        let k = db.add(vec![lit(2)], Kind::Cube, true, 1, 0, 0);
        let b = db.add(vec![lit(3)], Kind::Clause, true, 1, 0, 0);
        assert_eq!(db.learned_refs(), &[a, k, b]);
        let originals: Vec<_> = db.original_refs().collect();
        assert_eq!(originals.len(), 1);
        assert_eq!(db.lits(originals[0]), &[lit(1), lit(2)]);
    }

    #[test]
    fn compaction_relocates_watchers_and_preserves_order() {
        let mut db = Db::new(3);
        let orig = db.add(vec![lit(1), lit(2)], Kind::Clause, false, 2, 0, 0);
        let a = db.add(vec![lit(1), lit(2), lit(3)], Kind::Clause, true, 2, 0, 0);
        let b = db.add(vec![lit(1), lit(3)], Kind::Clause, true, 2, 0, 0);
        let k = db.add(vec![lit(2), lit(3)], Kind::Cube, true, 2, 0, 0);
        // Pinned sentinel on `a`, engine-style.
        db.watch_clause[lit(-3).code()].push(Watcher::new(a, lit(3), true));
        db.delete(a);
        assert!(db.wants_compaction());
        let map = db.compact();
        assert!(map.remap(a).is_none());
        let nb = map.remap(b).expect("b survives");
        let nk = map.remap(k).expect("k survives");
        let norig = map.remap(orig).expect("originals survive");
        assert_eq!(map.reclaimed_bytes, (HEADER_WORDS + 3) * 4);
        // `b` slid down into `a`'s slot; contents intact.
        assert_eq!(db.lits(nb), &[lit(1), lit(3)]);
        assert_eq!(db.lits(nk), &[lit(2), lit(3)]);
        assert_eq!(db.lits(norig), &[lit(1), lit(2)]);
        assert!(db.is_learned(nb) && !db.is_deleted(nb));
        // Watchers of the deleted constraint are gone (including the
        // pinned sentinel); survivors are remapped in place, in order.
        assert_eq!(watched(&db, Kind::Clause, lit(1)), vec![norig, nb]);
        assert_eq!(watched(&db, Kind::Clause, lit(3)), vec![nb]);
        assert!(db.watch_clause[lit(-3).code()].is_empty());
        assert_eq!(watched(&db, Kind::Cube, lit(2)), vec![nk]);
        // Pinned sentinels of survivors are relocated, not dropped.
        db.watch_clause[lit(-1).code()].push(Watcher::new(nb, lit(1), true));
        let c = db.add(vec![lit(2)], Kind::Clause, true, 1, 0, 0);
        db.delete(c);
        let map2 = db.compact();
        let w = db.watch_clause[lit(-1).code()][0];
        assert_eq!(w.cref, map2.remap(nb).unwrap());
        assert!(w.pinned());
        // Occurrence and creation-order indices follow the moves.
        assert_eq!(db.occ_original[lit(1).code()], vec![norig]);
        assert_eq!(db.learned_refs(), &[map2.remap(nb).unwrap(), map2.remap(nk).unwrap()]);
    }

    /// Compacts `db` and checks the returned [`RefMap`] against a dense
    /// old-offset table built from the arenas beforehand: at every old
    /// word offset of both arenas, `remap` is `None` unless a surviving
    /// constraint's header sits there, and then it is the offset the
    /// slide leaves it at. Survivors keep their literals and frame marks,
    /// and every watcher points at a survivor.
    fn compact_and_check(db: &mut Db) {
        let before: Vec<(ConstraintRef, bool, Vec<Lit>, u32)> = db
            .all_refs()
            .map(|c| (c, db.is_deleted(c), db.lits(c).to_vec(), db.frame_mark(c)))
            .collect();
        let mut dense = [
            vec![None; db.clauses.len_words()],
            vec![None; db.cubes.len_words()],
        ];
        let mut write = [0usize; 2];
        for (c, deleted, lits, _) in &before {
            let k = (c.kind() == Kind::Cube) as usize;
            if !deleted {
                dense[k][c.offset()] = Some(write[k]);
                write[k] += HEADER_WORDS + lits.len();
            }
        }
        let map = db.compact();
        for (k, kind) in [Kind::Clause, Kind::Cube].into_iter().enumerate() {
            for (old, new) in dense[k].iter().enumerate() {
                assert_eq!(
                    map.remap(ConstraintRef::new(kind, old)),
                    new.map(|n| ConstraintRef::new(kind, n)),
                    "{kind:?} offset {old}"
                );
            }
        }
        let survivors: Vec<(ConstraintRef, ConstraintRef)> = before
            .iter()
            .filter(|(_, deleted, _, _)| !deleted)
            .map(|(c, _, lits, mark)| {
                let nc = map.remap(*c).expect("survivor");
                assert_eq!(db.lits(nc), &lits[..]);
                assert_eq!(db.frame_mark(nc), *mark);
                (*c, nc)
            })
            .collect();
        assert_eq!(map.pairs().collect::<Vec<_>>(), survivors);
        let live: std::collections::HashSet<ConstraintRef> =
            survivors.iter().map(|&(_, nc)| nc).collect();
        for list in db.watch_clause.iter().chain(&db.watch_cube) {
            assert!(list.iter().all(|w| live.contains(&w.cref)));
        }
        assert_eq!(db.arena_bytes(), (write[0] + write[1]) * 4);
    }

    #[test]
    fn refmap_matches_a_dense_offset_table() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut compactions = 0;
        for _ in 0..200 {
            let vars = 2 + next(6);
            let mut db = Db::new(vars);
            for _ in 0..60 {
                match next(10) {
                    // Add a clause or cube, learned or (clauses only)
                    // original; some get a push-frame mark, which makes
                    // originals removable and must follow compaction.
                    0..=5 => {
                        let kind = if next(2) == 0 {
                            Kind::Clause
                        } else {
                            Kind::Cube
                        };
                        let learned = kind == Kind::Cube || next(3) > 0;
                        let lits: Vec<Lit> = (0..1 + next(5))
                            .map(|_| Var::new(next(vars)).lit(next(2) == 0))
                            .collect();
                        let movable = lits.len().min(2);
                        let c = db.add(lits, kind, learned, movable, 0, 0);
                        db.set_frame_mark(c, next(2) as u32);
                    }
                    // Forget a live learned constraint.
                    6..=7 => {
                        let live: Vec<ConstraintRef> = db
                            .learned_refs()
                            .iter()
                            .copied()
                            .filter(|&c| !db.is_deleted(c))
                            .collect();
                        if !live.is_empty() {
                            db.delete(live[next(live.len())]);
                        }
                    }
                    // Pop the marked originals.
                    8 => {
                        db.remove_originals_above(0);
                    }
                    _ => {
                        compact_and_check(&mut db);
                        compactions += 1;
                    }
                }
            }
            compact_and_check(&mut db);
        }
        assert!(compactions > 1000, "only {compactions} compactions");
    }

    #[test]
    fn compaction_reclaims_bytes_and_resets_garbage() {
        let mut db = Db::new(2);
        let a = db.add(vec![lit(1), lit(2)], Kind::Clause, true, 2, 0, 0);
        let before = db.arena_bytes();
        assert_eq!(db.bytes_peak, before);
        db.delete(a);
        let map = db.compact();
        assert_eq!(map.reclaimed_bytes, before);
        assert_eq!(db.arena_bytes(), 0);
        assert!(!db.wants_compaction());
        // Peak is a high-water mark; compaction does not lower it.
        assert_eq!(db.bytes_peak, before);
    }
}
