//! Set-associative tag store with MESI state and per-sub-block mark bits.
//!
//! This module implements a single cache's bookkeeping; the multi-level
//! protocol (snoops, inclusion, mark-counter effects) lives in
//! [`crate::hierarchy`].

use crate::addr::LineId;
use crate::config::CacheConfig;
use crate::hierarchy::MarkOp;

/// Number of independent mark-bit filters the hardware provides. The paper
/// implements one but notes "one could support multiple filters
/// concurrently with independent mark bits to enable additional software
/// uses" (§3.1); we provide two, so HASTM can dedicate the second to
/// write-barrier filtering (§5).
pub const NUM_FILTERS: usize = 2;

/// Identifies one of the independent mark-bit filters.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct FilterId(pub u8);

impl FilterId {
    /// The primary filter (the paper's single filter; read barriers).
    pub const READ: FilterId = FilterId(0);
    /// The secondary filter (write-barrier filtering extension).
    pub const WRITE: FilterId = FilterId(1);

    #[inline]
    pub(crate) fn idx(self) -> usize {
        let i = self.0 as usize;
        assert!(i < NUM_FILTERS, "filter {i} out of range");
        i
    }
}

/// MESI coherence state of a resident line. Absent lines are Invalid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Exclusive: this cache holds the only, clean copy.
    Exclusive,
    /// Shared: other caches may hold copies.
    Shared,
}

/// What the cache keeps for a resident line besides its id.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LineState {
    /// Coherence state.
    pub state: Mesi,
    /// One mark bit per 16-byte sub-block per filter (low 4 bits of each
    /// plane used). Always zero in caches that do not implement marking
    /// (the L2, or the whole machine at [`crate::IsaLevel::Default`]).
    pub marks: [u8; NUM_FILTERS],
    /// LRU timestamp (larger = more recently used).
    pub lru: u64,
}

/// One resident cache line, by value: a victim leaving the cache, or a
/// line visited by [`Cache::iter`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Line {
    /// Which memory line this entry holds.
    pub id: LineId,
    /// Coherence state.
    pub state: Mesi,
    /// Mark bits, as in [`LineState::marks`].
    pub marks: [u8; NUM_FILTERS],
    /// LRU timestamp (larger = more recently used).
    pub lru: u64,
}

impl Line {
    fn new(id: LineId, s: LineState) -> Line {
        Line {
            id,
            state: s.state,
            marks: s.marks,
            lru: s.lru,
        }
    }

    /// Whether any mark bit of any filter is set ("marked cache line").
    #[inline]
    pub fn is_marked(&self) -> bool {
        self.marks.iter().any(|&m| m != 0)
    }

    /// Iterates the filters whose mark bits this line carries (the set of
    /// counters a loss of this line bumps).
    #[inline]
    pub fn marked_filters(&self) -> impl Iterator<Item = FilterId> + '_ {
        self.marks
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| (m != 0).then_some(FilterId(i as u8)))
    }
}

/// One set: the resident lines' ids packed together, so a probe scans
/// contiguous words and touches `lines` only at the way that hit.
/// `tags[i]` is the id of `lines[i]`; both grow with residency, up to the
/// cache's associativity.
#[derive(Debug, Default)]
struct Set {
    tags: Vec<LineId>,
    lines: Vec<LineState>,
}

impl Set {
    /// The way holding `id`. Every tag is compared and the match selected
    /// without a branch per way: which way hits is data the host's branch
    /// predictor cannot learn.
    #[inline]
    fn way_of(&self, id: LineId) -> Option<usize> {
        let mut way = usize::MAX;
        for (i, &tag) in self.tags.iter().enumerate() {
            if tag == id {
                way = i;
            }
        }
        (way != usize::MAX).then_some(way)
    }

    fn swap_remove(&mut self, way: usize) -> Line {
        Line::new(self.tags.swap_remove(way), self.lines.swap_remove(way))
    }

    fn iter(&self) -> impl Iterator<Item = Line> + '_ {
        self.tags
            .iter()
            .zip(&self.lines)
            .map(|(&id, &s)| Line::new(id, s))
    }
}

/// Sets per block of [`Cache::nth_resident`]'s occupancy counts.
const SETS_PER_BLOCK: usize = 64;

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Set>,
    tick: u64,
    /// Resident lines per block of [`SETS_PER_BLOCK`] consecutive sets,
    /// kept by `insert` and `remove`: [`Cache::nth_resident`] steps over
    /// whole blocks, then over the sets of one.
    block_resident: Box<[u32]>,
    /// `(set, way)` of the line the last `lookup` hit or `insert` filled:
    /// what [`Cache::mark`] operates on.
    touched: (usize, usize),
    /// One bit per set and filter (filter-major, a whole number of words
    /// per filter), set when [`Cache::mark`] leaves a mark in the set, so
    /// [`Cache::clear_all_marks`] visits only sets that may hold one.
    marked_sets: Box<[u64]>,
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            sets: (0..config.sets).map(|_| Set::default()).collect(),
            block_resident: vec![0; config.sets.div_ceil(SETS_PER_BLOCK)].into_boxed_slice(),
            marked_sets: vec![0; NUM_FILTERS * config.sets.div_ceil(64)].into_boxed_slice(),
            config,
            tick: 0,
            touched: (0, 0),
        }
    }

    #[inline]
    fn set_index(&self, id: LineId) -> usize {
        (id.0 as usize) & (self.config.sets - 1)
    }

    #[inline]
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up a line without touching LRU state.
    #[inline]
    pub fn peek(&self, id: LineId) -> Option<&LineState> {
        let set = &self.sets[self.set_index(id)];
        set.way_of(id).map(|way| &set.lines[way])
    }

    /// Looks up a line, refreshing its LRU position on hit. Mark bits
    /// change only through [`Cache::mark`].
    #[inline]
    pub fn lookup(&mut self, id: LineId) -> Option<&mut LineState> {
        let tick = self.bump();
        let index = self.set_index(id);
        let set = &mut self.sets[index];
        let way = set.way_of(id)?;
        self.touched = (index, way);
        let line = &mut set.lines[way];
        line.lru = tick;
        Some(line)
    }

    /// Applies `op` to the sub-blocks `mask` covers in `filter`'s mark
    /// bits of the line the last [`Cache::lookup`] hit or [`Cache::insert`]
    /// filled, which must still be where that left it. Returns the test
    /// result: whether every covered bit is set (`false` for the other
    /// ops).
    #[inline]
    pub fn mark(&mut self, filter: FilterId, op: MarkOp, mask: u8) -> bool {
        let f = filter.idx();
        let (set, way) = self.touched;
        let marks = &mut self.sets[set].lines[way].marks[f];
        match op {
            MarkOp::Set => {
                *marks |= mask;
                let words = self.marked_sets.len() / NUM_FILTERS;
                self.marked_sets[f * words + set / 64] |= 1 << (set % 64);
                false
            }
            MarkOp::Reset => {
                *marks &= !mask;
                false
            }
            MarkOp::Test => *marks & mask == mask,
        }
    }

    /// Whether the line is resident.
    #[inline]
    pub fn contains(&self, id: LineId) -> bool {
        self.sets[self.set_index(id)].way_of(id).is_some()
    }

    /// Inserts `id` in state `state`, returning the victim line evicted to
    /// make room, if the set was full.
    ///
    /// New lines start with all mark bits clear, matching the paper's rule
    /// that "when the processor brings a line into the cache, it clears all
    /// the mark bits for the new line" (§3.1).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the line is already resident (callers
    /// must `lookup` first). Release builds skip the extra set scan: every
    /// caller sits behind a miss path that has just proven non-residency.
    pub fn insert(&mut self, id: LineId, state: Mesi) -> Option<Line> {
        debug_assert!(!self.contains(id), "insert of resident {id}");
        let tick = self.bump();
        let ways = self.config.ways;
        let index = self.set_index(id);
        let set = &mut self.sets[index];
        let victim = if set.tags.len() == ways {
            let (vi, _) = set
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("non-empty full set");
            Some(set.swap_remove(vi))
        } else {
            self.block_resident[index / SETS_PER_BLOCK] += 1;
            None
        };
        self.touched = (index, set.tags.len());
        set.tags.push(id);
        set.lines.push(LineState {
            state,
            marks: [0; NUM_FILTERS],
            lru: tick,
        });
        victim
    }

    /// Removes a line (snoop invalidation / back-invalidation), returning it
    /// if it was resident.
    pub fn remove(&mut self, id: LineId) -> Option<Line> {
        let index = self.set_index(id);
        let set = &mut self.sets[index];
        let way = set.way_of(id)?;
        self.block_resident[index / SETS_PER_BLOCK] -= 1;
        Some(set.swap_remove(way))
    }

    /// Clears every mark bit of `filter` in the cache and reports how many
    /// lines carried that filter's marks (the `resetmarkall` instruction
    /// clears marks *without* invalidating the lines themselves). Visits
    /// only the sets a mark was set in since the last clear.
    pub fn clear_all_marks(&mut self, filter: FilterId) -> u64 {
        let mut cleared = 0;
        let f = filter.idx();
        let words = self.marked_sets.len() / NUM_FILTERS;
        for w in 0..words {
            let mut bits = std::mem::take(&mut self.marked_sets[f * words + w]);
            while bits != 0 {
                let set = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for line in &mut self.sets[set].lines {
                    if line.marks[f] != 0 {
                        cleared += 1;
                        line.marks[f] = 0;
                    }
                }
            }
        }
        cleared
    }

    /// Number of resident lines with at least one mark bit set in `filter`.
    pub fn marked_lines(&self, filter: FilterId) -> usize {
        let f = filter.idx();
        self.sets
            .iter()
            .flat_map(|s| s.lines.iter())
            .filter(|l| l.marks[f] != 0)
            .count()
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.block_resident.iter().map(|&n| n as usize).sum()
    }

    /// The `n`th resident line in [`Cache::iter`]'s order, found by
    /// stepping over whole blocks of sets, then over the sets of the block
    /// that holds it.
    pub fn nth_resident(&self, mut n: usize) -> Option<LineId> {
        let blocks = self
            .block_resident
            .iter()
            .zip(self.sets.chunks(SETS_PER_BLOCK));
        for (&count, sets) in blocks {
            if n >= count as usize {
                n -= count as usize;
                continue;
            }
            for set in sets {
                match set.tags.get(n) {
                    Some(&id) => return Some(id),
                    None => n -= set.tags.len(),
                }
            }
        }
        None
    }

    /// Iterates over resident lines, set by set and way by way (the order
    /// `nth`-addressed fault injection counts in).
    pub fn iter(&self) -> impl Iterator<Item = Line> + '_ {
        self.sets.iter().flat_map(|s| s.iter())
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheConfig::new(2, 2))
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = tiny();
        assert!(c.insert(LineId(0), Mesi::Exclusive).is_none());
        assert!(c.contains(LineId(0)));
        assert_eq!(c.lookup(LineId(0)).unwrap().state, Mesi::Exclusive);
        assert!(c.lookup(LineId(1)).is_none());
    }

    #[test]
    fn new_lines_start_unmarked() {
        let mut c = tiny();
        c.insert(LineId(4), Mesi::Shared);
        assert_eq!(c.peek(LineId(4)).unwrap().marks, [0; NUM_FILTERS]);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line ids with 2 sets).
        c.insert(LineId(0), Mesi::Exclusive);
        c.insert(LineId(2), Mesi::Exclusive);
        // Touch 0 so 2 becomes LRU.
        c.lookup(LineId(0));
        let victim = c.insert(LineId(4), Mesi::Exclusive).expect("evicts");
        assert_eq!(victim.id, LineId(2));
        assert!(c.contains(LineId(0)));
        assert!(c.contains(LineId(4)));
    }

    #[test]
    fn eviction_carries_marks() {
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Exclusive);
        c.lookup(LineId(0));
        c.mark(FilterId::READ, MarkOp::Set, 0b0101);
        c.insert(LineId(2), Mesi::Exclusive);
        let victim = c.insert(LineId(4), Mesi::Exclusive).expect("evicts");
        assert_eq!(victim.id, LineId(0));
        assert!(victim.is_marked());
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Exclusive);
        c.insert(LineId(1), Mesi::Exclusive);
        c.insert(LineId(3), Mesi::Exclusive);
        // Set 0 still has room.
        assert!(c.insert(LineId(2), Mesi::Exclusive).is_none());
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn remove_returns_line() {
        let mut c = tiny();
        c.insert(LineId(5), Mesi::Modified);
        let l = c.remove(LineId(5)).unwrap();
        assert_eq!(l.state, Mesi::Modified);
        assert!(c.remove(LineId(5)).is_none());
        assert!(!c.contains(LineId(5)));
    }

    #[test]
    fn clear_all_marks_counts_marked_lines_only() {
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Exclusive);
        c.insert(LineId(1), Mesi::Exclusive);
        c.lookup(LineId(1));
        c.mark(FilterId::READ, MarkOp::Set, 0b1111);
        c.mark(FilterId::WRITE, MarkOp::Set, 0b0001);
        assert_eq!(c.marked_lines(FilterId::READ), 1);
        assert_eq!(c.clear_all_marks(FilterId::READ), 1);
        assert_eq!(c.marked_lines(FilterId::READ), 0);
        assert_eq!(c.clear_all_marks(FilterId::READ), 0);
        // The other filter's plane is untouched.
        assert_eq!(c.marked_lines(FilterId::WRITE), 1);
        assert_eq!(c.clear_all_marks(FilterId::WRITE), 1);
        // Lines stay resident.
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    #[cfg(debug_assertions)] // the check is a `debug_assert!`
    #[should_panic(expected = "insert of resident")]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Shared);
        c.insert(LineId(0), Mesi::Shared);
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Exclusive);
        c.insert(LineId(2), Mesi::Exclusive);
        // Peeking line 0 must not rescue it from being the LRU victim.
        assert!(c.peek(LineId(0)).is_some());
        let victim = c.insert(LineId(4), Mesi::Exclusive).expect("evicts");
        assert_eq!(victim.id, LineId(0));
    }

    #[test]
    fn untouched_lines_evict_in_insertion_order() {
        // Never-touched-again lines carry strictly increasing insert
        // ticks, so replacement falls back to FIFO order — the "LRU tie"
        // case resolves deterministically toward the older resident.
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Exclusive);
        c.insert(LineId(2), Mesi::Exclusive);
        let v1 = c.insert(LineId(4), Mesi::Exclusive).expect("evicts");
        assert_eq!(v1.id, LineId(0));
        let v2 = c.insert(LineId(6), Mesi::Exclusive).expect("evicts");
        assert_eq!(v2.id, LineId(2));
    }

    #[test]
    fn reinserted_line_starts_clean() {
        // Eviction discards mark bits with the line: bringing the same id
        // back in must start with clear marks and the new MESI state.
        let mut c = tiny();
        c.insert(LineId(0), Mesi::Modified);
        c.mark(FilterId::READ, MarkOp::Set, 0b0011);
        let evicted = c.remove(LineId(0)).expect("resident");
        assert!(evicted.is_marked());
        c.insert(LineId(0), Mesi::Shared);
        let line = c.peek(LineId(0)).unwrap();
        assert_eq!(line.marks, [0; NUM_FILTERS]);
        assert_eq!(line.state, Mesi::Shared);
    }

    /// The layout this cache replaced, kept as the reference the tag-array
    /// one must match: one `Vec<Line>` per set, scanned for the id.
    struct VecOfVecs {
        sets: Vec<Vec<Line>>,
        ways: usize,
        tick: u64,
    }

    impl VecOfVecs {
        fn set(&mut self, id: LineId) -> &mut Vec<Line> {
            let sets = self.sets.len();
            &mut self.sets[id.0 as usize & (sets - 1)]
        }

        fn lookup(&mut self, id: LineId) -> Option<&mut Line> {
            self.tick += 1;
            let tick = self.tick;
            let line = self.set(id).iter_mut().find(|l| l.id == id)?;
            line.lru = tick;
            Some(line)
        }

        fn insert(&mut self, id: LineId, state: Mesi) -> Option<Line> {
            self.tick += 1;
            let (tick, ways) = (self.tick, self.ways);
            let set = self.set(id);
            let victim = (set.len() == ways).then(|| {
                let (vi, _) = set.iter().enumerate().min_by_key(|(_, l)| l.lru).unwrap();
                set.swap_remove(vi)
            });
            set.push(Line {
                id,
                state,
                marks: [0; NUM_FILTERS],
                lru: tick,
            });
            victim
        }

        fn remove(&mut self, id: LineId) -> Option<Line> {
            let set = self.set(id);
            let i = set.iter().position(|l| l.id == id)?;
            Some(set.swap_remove(i))
        }
    }

    #[derive(Copy, Clone, Debug)]
    enum Op {
        /// `lookup`, OR-ing mark bits into the line on a hit.
        Touch(u64, [u8; NUM_FILTERS]),
        /// `lookup` then, on a miss, `insert`: the only way callers insert.
        Fill(u64, Mesi),
        Remove(u64),
        ClearMarks(FilterId),
    }

    fn op() -> impl Strategy<Value = Op> {
        // 4 sets x 3 ways under 40 line ids: every set overflows.
        let id = 0..40u64;
        let state = prop_oneof![
            Just(Mesi::Modified),
            Just(Mesi::Exclusive),
            Just(Mesi::Shared)
        ];
        prop_oneof![
            3 => (id.clone(), 0..16u8, 0..16u8).prop_map(|(id, r, w)| Op::Touch(id, [r, w])),
            3 => (id.clone(), state).prop_map(|(id, s)| Op::Fill(id, s)),
            1 => id.prop_map(Op::Remove),
            1 => (0..NUM_FILTERS as u8).prop_map(|f| Op::ClearMarks(FilterId(f))),
        ]
    }

    proptest! {
        #[test]
        fn matches_the_vec_of_vecs_layout(ops in proptest::collection::vec(op(), 0..300)) {
            let mut cache = Cache::new(CacheConfig::new(4, 3));
            let mut model = VecOfVecs { sets: vec![Vec::new(); 4], ways: 3, tick: 0 };
            for op in ops {
                match op {
                    Op::Touch(id, marks) => {
                        let id = LineId(id);
                        let hit = cache.lookup(id).is_some();
                        if hit {
                            cache.mark(FilterId::READ, MarkOp::Set, marks[0]);
                            cache.mark(FilterId::WRITE, MarkOp::Set, marks[1]);
                        }
                        let got = hit.then(|| *cache.peek(id).unwrap());
                        let want = model.lookup(id).map(|l| {
                            l.marks = [l.marks[0] | marks[0], l.marks[1] | marks[1]];
                            *l
                        });
                        prop_assert_eq!(got.map(|l| Line::new(id, l)), want);
                    }
                    Op::Fill(id, state) => {
                        let id = LineId(id);
                        let hit = cache.lookup(id).is_some();
                        prop_assert_eq!(hit, model.lookup(id).is_some());
                        if !hit {
                            // Victim choice, and the victim's marks and LRU stamp.
                            prop_assert_eq!(cache.insert(id, state), model.insert(id, state));
                        }
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(cache.remove(LineId(id)), model.remove(LineId(id)));
                    }
                    Op::ClearMarks(filter) => {
                        let lines = model.sets.iter_mut().flatten();
                        let marked = lines.filter(|l| l.marks[filter.idx()] != 0);
                        let cleared = marked.map(|l| l.marks[filter.idx()] = 0).count();
                        prop_assert_eq!(cache.clear_all_marks(filter), cleared as u64);
                    }
                }
                // Set by set, way by way: the order `nth`-addressed fault
                // injection and `flush_caches` walk.
                let want: Vec<Line> = model.sets.iter().flatten().copied().collect();
                prop_assert_eq!(cache.iter().collect::<Vec<_>>(), want);
                prop_assert_eq!(cache.resident_lines(), want.len());
                for n in 0..=want.len() {
                    prop_assert_eq!(cache.nth_resident(n), want.get(n).map(|l| l.id));
                }
            }
        }
    }
}
