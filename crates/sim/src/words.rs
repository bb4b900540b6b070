//! The word-keyed bookkeeping every executor shares: [`WordTable`], an
//! open-addressed map from word-sized keys that clears in O(1), and
//! [`RedoLog`], an insertion-ordered write log indexed by one; and
//! [`CachePadded`], which gives a word every thread hammers a line pair of
//! its own.
//!
//! They are the only structures of their kind in the workspace. The
//! simulator's per-core line-watch sets, the STM's ownership and
//! undo-dedup maps, the version store's ring index, the HTM's speculative
//! store buffer and the native executor's filter and redo log are all one
//! of the first two, so no executor's per-access or per-attempt path
//! hashes with SipHash or, once warm, calls the allocator.

/// Gives an 8-byte word every thread hammers (a clock, a bump pointer, a
/// live-snapshot slot, the phase word) a cache-line pair to itself — 128
/// bytes, because adjacent-line prefetch pulls lines in pairs — so its
/// traffic does not evict the read-mostly fields beside it. Wherever the
/// word lands, the 120 bytes on either side of it are this padding.
///
/// Padding on both sides, not `#[repr(align(128))]`: an over-aligned
/// type inside an `Arc` (the live-snapshot slots) is allocated with
/// `posix_memalign`, and on the reference host glibc then served that
/// worker's later allocations from the main arena, which put 2.7 MB
/// (20 %) on `native_ro`'s peak RSS (EXPERIMENTS.md).
#[repr(C)]
pub struct CachePadded<T> {
    _before: [u8; PAD],
    value: T,
    _after: [u8; PAD],
}

/// A line pair less the word itself.
const PAD: usize = 120;

impl<T> CachePadded<T> {
    /// `value`, padded.
    pub const fn new(value: T) -> Self {
        CachePadded {
            _before: [0; PAD],
            value,
            _after: [0; PAD],
        }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.value.fmt(f)
    }
}

/// Open-addressed `u64 → V` table for keys that are already spread (line
/// numbers, stripe indices, word addresses): one multiply to hash, linear
/// probing, no single-key removal, and a generation stamp per slot so
/// `clear` costs nothing. The slot array is kept across `clear`, so a
/// steady-state mix of transactions stops growing it after warm-up.
///
/// The probe sequence is part of the contract: [`WordTable::first`] is
/// the live entry in the lowest slot, and the simulator dooms that line on
/// an injected spurious abort, so fingerprints of fault plans depend on
/// it. Slot `(key·φ >> 32) & mask`, 64 slots on the first insert, doubling
/// before an insert that would pass three-quarters full, live entries
/// re-seated in old slot order.
#[derive(Debug)]
pub struct WordTable<V> {
    /// Power-of-two length (or empty before the first insert); a slot is
    /// live iff its `gen` equals the table's, which is never 0 — what a
    /// never-written slot carries.
    slots: Vec<Slot<V>>,
    gen: u32,
    len: usize,
    /// What [`WordTable::retain`] keeps, between clearing and re-inserting.
    kept: Vec<(u64, V)>,
}

#[derive(Copy, Clone, Debug)]
struct Slot<V> {
    key: u64,
    gen: u32,
    value: V,
}

impl<V: Copy> Default for WordTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> WordTable<V> {
    const MIN_SLOTS: usize = 64;

    /// An empty table; it allocates on its first insert.
    pub const fn new() -> Self {
        WordTable {
            slots: Vec::new(),
            gen: 1,
            len: 0,
            kept: Vec::new(),
        }
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci hashing: bits 32 and up of `key × 2⁶⁴/φ`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.slots.len() - 1)
    }

    /// The slot holding `key`, or the dead slot where it would go. The
    /// table must have slots; at most three-quarters full, a probe always
    /// meets a dead one.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].gen == self.gen && self.slots[i].key != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// `key`'s value, if it is live.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let slot = &self.slots[self.probe(key)];
        (slot.gen == self.gen).then_some(slot.value)
    }

    /// `key`'s value, after inserting `value` for it if it was absent —
    /// one probe either way.
    #[inline]
    pub fn get_or_insert(&mut self, key: u64, value: V) -> &mut V {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(value);
        }
        let i = self.probe(key);
        let gen = self.gen;
        let slot = &mut self.slots[i];
        if slot.gen != gen {
            *slot = Slot { key, gen, value };
            self.len += 1;
        }
        &mut slot.value
    }

    /// Inserts `key`, or overwrites its value.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) {
        *self.get_or_insert(key, value) = value;
    }

    /// Doubles the slot array (to 64 from empty) and re-seats the live
    /// entries in old slot order. `filler` is any value: it only fills
    /// slots that are dead.
    fn grow(&mut self, filler: V) {
        let doubled = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let dead = Slot {
            key: 0,
            gen: 0,
            value: filler,
        };
        let old = std::mem::replace(&mut self.slots, vec![dead; doubled]);
        for slot in old.iter().filter(|s| s.gen == self.gen) {
            let i = self.probe(slot.key);
            self.slots[i] = *slot;
        }
    }

    /// Drops every entry: a stamp bump, and a sweep once per 2³² clears.
    #[inline]
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.len = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped: slots of 2³² clears ago would look live.
            for slot in &mut self.slots {
                slot.gen = 0;
            }
            self.gen = 1;
        }
    }

    /// Live entries in slot order.
    fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.gen == self.gen)
            .map(|s| (s.key, s.value))
    }

    /// The live entry in the lowest slot.
    pub fn first(&self) -> Option<(u64, V)> {
        self.iter().next()
    }

    /// Keeps only the entries `keep` accepts: they are re-inserted, in
    /// slot order, into the cleared table.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, V) -> bool) {
        let mut kept = std::mem::take(&mut self.kept);
        kept.extend(self.iter().filter(|&(k, v)| keep(k, v)));
        if kept.len() < self.len {
            self.clear();
            for &(k, v) in &kept {
                self.insert(k, v);
            }
        }
        kept.clear();
        self.kept = kept;
    }
}

/// A write log: `(word address, pending value)` in first-write order
/// behind a one-word address summary, so a read of a word the log does
/// not hold — nearly every read — costs one bit test. A summary hit scans
/// the log; past [`RedoLog::SCAN_MAX`] entries the log keeps an address
/// index, so a 10³-word write set is not quadratic. Rewriting a word
/// updates its entry in place.
#[derive(Debug, Default)]
pub struct RedoLog {
    entries: Vec<(u64, u64)>,
    /// Bit `(addr >> 3) & 63` is set for every logged address.
    summary: u64,
    /// Address → position in `entries`; maintained only while the log is
    /// longer than [`RedoLog::SCAN_MAX`].
    index: WordTable<u32>,
}

impl RedoLog {
    /// Longest log searched by scanning: eight pairs are one cache-line
    /// pair. Measured on the native backend (EXPERIMENTS.md, "What the
    /// native read and commit paths measured here"): an index from the
    /// first write costs 3 ns per write on the ≤ 8-word write sets every
    /// hash-table update has; 8 and 16 read the same within noise; no
    /// index at all is 74–217 ns per write from 256 words up.
    pub const SCAN_MAX: usize = 8;

    /// An empty log; it allocates on its first insert.
    pub const fn new() -> Self {
        RedoLog {
            entries: Vec::new(),
            summary: 0,
            index: WordTable::new(),
        }
    }

    #[inline]
    fn summary_bit(addr: u64) -> u64 {
        1 << ((addr >> 3) & 63)
    }

    /// Whether nothing is logged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct words logged.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(addr, value)` per logged word, in first-write order (or address
    /// order after [`RedoLog::sort`]).
    #[inline]
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    #[inline]
    fn position(&self, addr: u64) -> Option<usize> {
        if self.summary & Self::summary_bit(addr) == 0 {
            return None;
        }
        if self.entries.len() > Self::SCAN_MAX {
            self.index.get(addr).map(|i| i as usize)
        } else {
            self.entries.iter().position(|&(a, _)| a == addr)
        }
    }

    /// The pending value for `addr`, if the log holds one.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.position(addr).map(|i| self.entries[i].1)
    }

    /// Logs `value` for `addr`: a new entry, or an update of its old one.
    #[inline]
    pub fn insert(&mut self, addr: u64, value: u64) {
        if let Some(i) = self.position(addr) {
            self.entries[i].1 = value;
            return;
        }
        self.summary |= Self::summary_bit(addr);
        self.entries.push((addr, value));
        let n = self.entries.len();
        if n == Self::SCAN_MAX + 1 {
            for (i, &(a, _)) in self.entries.iter().enumerate() {
                self.index.insert(a, i as u32);
            }
        } else if n > Self::SCAN_MAX {
            self.index.insert(addr, (n - 1) as u32);
        }
    }

    /// Empties the log, keeping its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.entries.clear();
        self.summary = 0;
        self.index.clear();
    }

    /// Sorts the log by address for write-back. This ends the log's use
    /// as a log: positions move, so the index is dropped and lookups are
    /// over until the next [`RedoLog::clear`].
    pub fn sort(&mut self) {
        self.index.clear();
        self.entries.sort_unstable_by_key(|&(addr, _)| addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn word_table_survives_growth_and_a_wrapped_generation() {
        let mut table = WordTable::new();
        assert_eq!(table.get(7), None, "empty table has no slots to probe");
        for key in 0..1_000u64 {
            table.insert(key * 8, key as u32);
        }
        table.insert(8, 99);
        assert_eq!(table.len(), 1_000, "an overwrite adds nothing");
        assert_eq!(table.get(8), Some(99));
        assert!((2..1_000u64).all(|k| table.get(k * 8) == Some(k as u32)));
        assert_eq!(table.get(4), None);

        // Two clears from the wrap: the first is a stamp bump, the second
        // must wipe, or slots stamped 2^32 clears ago would come back.
        table.gen = u32::MAX - 1;
        table.insert(16, 1);
        table.clear();
        assert_eq!((table.len(), table.get(16)), (0, None));
        table.insert(24, 2);
        table.clear();
        assert_eq!(table.gen, 1);
        assert_eq!(table.get(24), None);
        table.insert(32, 3);
        assert_eq!(table.get(32), Some(3));
        assert_eq!(table.get(8), None, "pre-wrap entries stay dead");
    }

    /// `first()` is the line an injected spurious abort dooms, so it must
    /// stay the slot order the simulator's watch sets have always had.
    /// The expected keys are what the watch set chose before it was a
    /// `WordTable` (`MemSystem::inject_spurious_abort` on the same lines).
    #[test]
    fn first_is_the_watch_sets_slot_order() {
        let mut table = WordTable::new();
        for line in (0..5).map(|i| i * 7 + 3) {
            table.insert(line, ());
        }
        assert_eq!(table.first(), Some((17, ())), "in 64 slots");
        table.clear();
        // Two growths, and a set whose lowest slot goes to another line
        // if a growth re-seats in any order but the old slot order.
        for line in (0..100).map(|i| 1_000 + 3 * i) {
            table.insert(line, ());
        }
        assert_eq!(table.slots.len(), 256);
        assert_eq!(table.first(), Some((1_180, ())), "after two growths");
        table.clear();
        for line in [1_000, 77, 4_242] {
            table.insert(line, ());
        }
        assert_eq!(table.first(), Some((1_000, ())), "in the grown array");
    }

    #[derive(Copy, Clone, Debug)]
    enum Op {
        Insert(u64, u32),
        Get(u64),
        Clear,
        /// Drops the keys `k` with `(k >> 3) % 7` equal to this.
        Retain(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // 400 word-address keys and rare clears: enough live at once to
        // grow 64 → 128 → 256 slots.
        let key = || (0..400u64).prop_map(|k| k * 8);
        prop_oneof![
            300 => (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            150 => key().prop_map(Op::Get),
            1 => Just(Op::Clear),
            3 => (0..7u64).prop_map(Op::Retain),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Two random scripts against `HashMap`. Between them the table is
        /// cleared and its stamp moved to one clear short of the wrap, as
        /// 2³² clears would; so the second script wraps and then meets
        /// slots the first one stamped.
        #[test]
        fn word_table_matches_a_hash_map(
            first in collection::vec(op(), 500..1000),
            second in collection::vec(op(), 500..1000),
        ) {
            let mut table = WordTable::new();
            let mut model = HashMap::new();
            for (round, ops) in [first, second].into_iter().enumerate() {
                if round == 1 {
                    prop_assert!(table.slots.len() >= 256, "{} slots: under two growths", table.slots.len());
                    table.clear();
                    model.clear();
                    table.gen = u32::MAX;
                }
                for op in ops {
                    match op {
                        Op::Insert(k, v) => {
                            table.insert(k, v);
                            model.insert(k, v);
                        }
                        Op::Get(k) => prop_assert_eq!(table.get(k), model.get(&k).copied()),
                        Op::Clear => {
                            table.clear();
                            model.clear();
                        }
                        Op::Retain(r) => {
                            table.retain(|k, _| (k >> 3) % 7 != r);
                            model.retain(|k, _| (k >> 3) % 7 != r);
                        }
                    }
                    prop_assert_eq!(table.len(), model.len());
                }
                for k in (0..400).map(|k| k * 8) {
                    prop_assert_eq!(table.get(k), model.get(&k).copied(), "key {}", k);
                }
            }
            prop_assert!(table.gen < u32::MAX, "the stamp never wrapped");
        }
    }

    #[test]
    fn redo_log_keeps_first_write_order_past_the_scan_limit() {
        let mut log = RedoLog::new();
        for round in 0..2u64 {
            for i in 0..40u64 {
                log.insert(8 * (40 - i), i + round);
            }
        }
        assert_eq!(log.len(), 40);
        assert!(log
            .entries()
            .iter()
            .enumerate()
            .all(|(i, &(a, v))| a == 8 * (40 - i as u64) && v == i as u64 + 1));
        assert_eq!(log.get(8 * 40), Some(1));
        assert_eq!(log.get(8 * 41), None);
        log.clear();
        assert!(log.is_empty() && log.get(8 * 40).is_none());
    }
}
