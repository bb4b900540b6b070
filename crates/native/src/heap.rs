//! The native transactional heap: a flat array of host `AtomicU64` words
//! addressed by the same byte addresses ([`hastm_sim::Addr`]) the
//! simulator uses, so `ObjRef`-based data structures traverse unchanged.
//! Each word sits beside its TL2 lock word, in one cache line. Reserved
//! once at [`HEAP_WORDS`], its words, like the version store's index and
//! block pool, are `ZeroedWords`: capacity nobody touches costs no memory.
//!
//! Word 0 (byte address 0) is never handed out: `Addr::NULL`/`ObjRef::NULL`
//! must stay distinguishable from a real allocation, exactly as on the
//! simulated heap.

use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::OnceLock;

use hastm::mvcc::reclaimable;
use hastm_sim::words::CachePadded;

use crate::zeroed::{ZeroedWords, DEMAND_ZERO};

/// First allocatable word index (keeps a full line clear of `Addr::NULL`).
const FIRST_WORD: usize = 8;

/// Words every heap reserves: 2^31 (32 GiB with their locks) where
/// untouched pages cost nothing, 2^20 where all are zeroed up front.
pub const HEAP_WORDS: usize = if DEMAND_ZERO { 1 << 31 } else { 1 << 20 };

/// A shared, concurrently allocatable word heap.
pub struct NativeHeap {
    /// `[lock, value]` per word, so a 64-byte line holds four of each.
    slots: ZeroedWords,
    next: CachePadded<AtomicUsize>,
}

impl NativeHeap {
    /// Builds a zero-initialized heap of [`HEAP_WORDS`] 8-byte words.
    pub(crate) fn new() -> Self {
        NativeHeap {
            slots: ZeroedWords::new(2 * HEAP_WORDS),
            next: CachePadded::new(AtomicUsize::new(FIRST_WORD)),
        }
    }

    /// Allocates `n` contiguous words and returns the byte address of the
    /// first (a lock-free bump allocation; the heap takes no words back —
    /// each executor hands out again what its commits freed).
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted: its [`HEAP_WORDS`] words hold
    /// more than any run that fits in memory keeps live.
    pub fn alloc_words(&self, n: usize) -> u64 {
        let (start, capacity) = (self.next.fetch_add(n, SeqCst), self.capacity_words());
        assert!(
            start.checked_add(n).is_some_and(|end| end <= capacity),
            "native heap exhausted: {n} words requested, {start} of {capacity} used"
        );
        (start as u64) << 3
    }

    fn index(byte: u64) -> usize {
        debug_assert_eq!(byte & 7, 0, "misaligned native word address {byte:#x}");
        (byte >> 3) as usize
    }

    /// The lock word of word index `word`.
    pub(crate) fn lock(&self, word: usize) -> &AtomicU64 {
        &self.slots[2 * word]
    }

    /// Atomically loads the word at byte address `byte`.
    pub fn load(&self, byte: u64) -> u64 {
        // Acquire: pairs with `store`'s release, so a reader that sees a
        // written-back value also sees the writer's lock (taken before
        // the store) when it re-reads the lock word afterwards.
        self.slots[2 * Self::index(byte) + 1].load(Acquire)
    }

    /// Atomically stores the word at byte address `byte`.
    pub fn store(&self, byte: u64, value: u64) {
        // Release: orders the CAS-lock, the clock RMW and the ring
        // publication before the value becomes visible.
        self.slots[2 * Self::index(byte) + 1].store(value, Release);
    }

    /// Words handed out so far (including the reserved null region).
    pub fn used_words(&self) -> usize {
        self.next.load(SeqCst).min(self.capacity_words())
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.slots.len() / 2
    }
}

impl std::fmt::Debug for NativeHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeHeap")
            .field("capacity_words", &self.capacity_words())
            .field("used_words", &self.used_words())
            .finish()
    }
}

/// Blocks in the pool's first chunk; chunk `n` holds `POOL_BLOCKS << n`
/// and is claimed whole the first time a block of it is handed out.
const POOL_BLOCKS: usize = 1 << 12;

/// Chunks enough for every 32-bit block id: `2^33 - POOL_BLOCKS` blocks.
const POOL_CHUNKS: usize = 33 - POOL_BLOCKS.ilog2() as usize;

/// The committed history of every transactionally written word (only
/// under `Versioning::Multi { k }`), beside the heap instead of behind a
/// hash. A word's *head block* — two words of links, then `k`
/// `(version, value)` pairs, oldest first — is claimed from a pool the
/// first time a commit publishes for the word, and a per-heap-word index
/// names it (0: never published, which is what an empty history is). The
/// index and the pool's chunks are [`ZeroedWords`] arrays, so their
/// memory follows the words that have a history: a page of index serves
/// 512 heap words, a page of pool 64 blocks at `k = 3`. A commit writes a
/// head block, and the index entry naming it, under the word's lock; a
/// snapshot read takes both seqlock-style with that lock word as the
/// sequence (DESIGN §12b), so everything here is acquire/release atomics.
///
/// The head block keeps the word's newest versions. When it is full the
/// oldest entry makes room, unless a live snapshot may still need it:
/// then the whole block is copied to a *spill* block from the same pool
/// that becomes the head of the word's `older` chain. The chain is a
/// queue — the head block knows its tail, a spill block its newer
/// neighbour — and the tail is retired as soon as the block after it
/// serves every live snapshot, to be the word's next spill block. A spill
/// block's entries are written once, before it is linked.
pub(crate) struct VersionStore {
    k: usize,
    /// Per heap word, the id of its head block; 0 until its first
    /// publication.
    index: ZeroedWords,
    /// The pool: blocks of `2 + 2k` words, head and spill blocks alike,
    /// handed out in claim order from id 1 (id 0 is "no block"). Chunk `n`
    /// holds ids from `POOL_BLOCKS * (2^n - 1)` up.
    chunks: [OnceLock<ZeroedWords>; POOL_CHUNKS],
    claimed: AtomicUsize,
}

/// One block: word 0 is `len << 32 | older` (the next older block of the
/// chain, 0 for none); word 1 is `tail << 32 | spare` in a head block (the
/// chain's oldest block; the first retired one, the rest following by
/// `older`) and `newer` in a spill block (0 when that is the head block).
#[derive(Copy, Clone)]
struct Block<'a>(&'a [AtomicU64]);

impl Block<'_> {
    fn halves(self, word: usize) -> (usize, usize) {
        let both = self.0[word].load(Acquire);
        ((both >> 32) as usize, both as u32 as usize)
    }

    fn set_halves(self, word: usize, high: usize, low: usize) {
        self.0[word].store((high as u64) << 32 | low as u64, Release);
    }

    /// Entry `i` as `(version, value)`.
    fn entry(self, i: usize) -> (u64, u64) {
        (
            self.0[2 + 2 * i].load(Acquire),
            self.0[3 + 2 * i].load(Acquire),
        )
    }

    fn set_entry(self, i: usize, (version, value): (u64, u64)) {
        self.0[2 + 2 * i].store(version, Release);
        self.0[3 + 2 * i].store(value, Release);
    }

    /// The block's newest entry at or below `rv` — failing that, its
    /// oldest, or `None` if it is empty — and its `older` link.
    fn newest_at(self, rv: u64) -> (Option<(u64, u64)>, usize) {
        let (len, older) = self.halves(0);
        let mut found = None;
        for i in (0..len).rev() {
            found = Some(self.entry(i));
            if found.is_some_and(|(version, _)| version <= rv) {
                break;
            }
        }
        (found, older)
    }
}

impl VersionStore {
    /// A store of `k` versions a block.
    pub(crate) fn new(k: usize) -> Self {
        VersionStore {
            k,
            index: ZeroedWords::new(HEAP_WORDS),
            chunks: [const { OnceLock::new() }; POOL_CHUNKS],
            claimed: AtomicUsize::new(0),
        }
    }

    /// Chunk `n` of the pool and the offset of block `id` in it.
    fn chunk_of(id: usize) -> (usize, usize) {
        let n = (id / POOL_BLOCKS + 1).ilog2() as usize;
        (n, id + POOL_BLOCKS - (POOL_BLOCKS << n))
    }

    /// Hands out a fresh block, claiming its chunk if it is the first.
    fn claim(&self) -> usize {
        let id = self.claimed.fetch_add(1, Relaxed) + 1;
        assert!(id <= u32::MAX as usize, "block ids are 32 bits");
        let n = Self::chunk_of(id).0;
        self.chunks[n].get_or_init(|| ZeroedWords::new((POOL_BLOCKS << n) * (2 + 2 * self.k)));
        id
    }

    /// Block `id`, which the pool has handed out: its chunk was claimed
    /// before any index entry or link named it.
    fn block(&self, id: usize) -> Block<'_> {
        let stride = 2 + 2 * self.k;
        let (n, at) = Self::chunk_of(id);
        let chunk = self.chunks[n].get().expect("a named block is claimed");
        Block(&chunk[at * stride..][..stride])
    }

    /// The head block of the word at `addr`, if a commit has published it.
    fn head(&self, addr: u64) -> Option<Block<'_>> {
        match self.index[(addr >> 3) as usize].load(Acquire) {
            0 => None,
            id => Some(self.block(id as usize)),
        }
    }

    /// Whether a commit has published the word at `addr`; asked by a
    /// committer holding its lock.
    pub(crate) fn has_history(&self, addr: u64) -> bool {
        self.head(addr).is_some()
    }

    /// Publishes `(wv, value)` as the newest version of the word at
    /// `addr`, whose lock the caller holds and whose heap word still
    /// reads `pre_image`; `floor` is the live snapshots' floor
    /// ([`hastm::mvcc::LiveSnapshots::floor`]). Returns how many blocks
    /// it claimed from the pool (the word's head block on its first
    /// publication, a spill block when no retired one is spare) and how
    /// many entries it reclaimed.
    pub(crate) fn publish(
        &self,
        addr: u64,
        wv: u64,
        value: u64,
        pre_image: u64,
        floor: u64,
    ) -> (u64, u64) {
        let slot = &self.index[(addr >> 3) as usize];
        let (id, first) = match slot.load(Acquire) {
            0 => (self.claim(), true),
            id => (id as usize, false),
        };
        let mut claimed = u64::from(first);
        let block = self.block(id);
        let ((mut len, mut older), (mut tail, mut spare)) = (block.halves(0), block.halves(1));
        let mut reclaimed = 0;
        if len == 0 {
            // First publication: version 0, older than every snapshot, is
            // what the word held before any transaction wrote it.
            block.set_entry(0, (0, pre_image));
            len = 1;
        }
        // The oldest entry's successor: the next one, or the one publishing.
        let successor = || if len > 1 { block.entry(1).0 } else { wv };
        if len == self.k && reclaimable(successor(), floor) {
            (1..len).for_each(|i| block.set_entry(i - 1, block.entry(i)));
            (len, reclaimed) = (len - 1, 1);
        } else if len == self.k {
            let spill = match spare {
                0 => {
                    claimed += 1;
                    self.claim()
                }
                retired => std::mem::replace(&mut spare, self.block(retired).halves(0).1),
            };
            let to = self.block(spill);
            (0..len).for_each(|i| to.set_entry(i, block.entry(i)));
            to.set_halves(0, len, older);
            to.set_halves(1, 0, 0);
            match older {
                0 => tail = spill,
                head => self.block(head).set_halves(1, 0, spill),
            }
            (len, older) = (0, spill);
        }
        block.set_entry(len, (wv, value));
        // Retire the tail while the block after it starts at or below the
        // floor: that entry serves every live reader.
        while tail != 0 {
            let newer = self.block(tail).halves(1).1;
            let next = if newer == 0 { block } else { self.block(newer) };
            if !reclaimable(next.entry(0).0, floor) {
                break;
            }
            match newer {
                0 => older = 0,
                _ => next.set_halves(0, self.k, 0),
            }
            self.block(tail).set_halves(0, 0, spare);
            (spare, tail, reclaimed) = (tail, newer, reclaimed + self.k as u64);
        }
        block.set_halves(1, tail, spare);
        block.set_halves(0, len + 1, older);
        if first {
            slot.store(id as u64, Release);
        }
        (claimed, reclaimed)
    }

    /// For a snapshot reader at `rv` whose live-snapshot slot says so:
    /// the newest `(version, value)` of the word at `addr` with a version
    /// at or below `rv` — failing that, the oldest — or `Some(None)` for
    /// a word no commit has published; `None` if `stable`, the caller's
    /// lock-unchanged test, failed after the index and head block were
    /// read.
    pub(crate) fn lookup(
        &self,
        addr: u64,
        rv: u64,
        stable: impl Fn() -> bool,
    ) -> Option<Option<(u64, u64)>> {
        let (mut entry, mut older) = self.head(addr).map_or((None, 0), |head| head.newest_at(rv));
        if !stable() {
            return None;
        }
        // The head block was whole, or rightly absent. So is the chain
        // below it, however the lock moves from here on, as far down as
        // this reader goes — to the first entry at or below `rv`: the tail
        // is retired only from behind a block that starts at or below the
        // floor, the floor is at or below `rv`, and a linked spill block's
        // entries are never rewritten, its `older` only when it becomes
        // the tail.
        while older != 0 && entry.is_some_and(|(version, _)| version > rv) {
            (entry, older) = self.block(older).newest_at(rv);
        }
        Some(entry)
    }

    /// The version stamps kept for the word at `addr`, ascending; at rest.
    pub(crate) fn versions(&self, addr: u64) -> Vec<u64> {
        let mut versions = Vec::new();
        let mut next = self.head(addr);
        while let Some(block) = next {
            let (len, older) = block.halves(0);
            versions.extend((0..len).rev().map(|i| block.entry(i).0));
            next = (older != 0).then(|| self.block(older));
        }
        versions.reverse();
        versions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heap of `words` words, for tests that walk or exhaust one.
    fn sized(words: usize) -> NativeHeap {
        NativeHeap {
            slots: ZeroedWords::new(2 * words),
            next: CachePadded::new(AtomicUsize::new(FIRST_WORD)),
        }
    }

    #[test]
    fn allocations_never_return_null_and_do_not_overlap() {
        let heap = sized(64);
        let a = heap.alloc_words(4);
        let b = heap.alloc_words(2);
        assert!(a >= (FIRST_WORD as u64) << 3, "null line stays reserved");
        assert_eq!(b, a + 4 * 8, "bump allocation is contiguous");
        heap.store(a, 7);
        heap.store(b, 9);
        assert_eq!(heap.load(a), 7);
        assert_eq!(heap.load(b), 9);
    }

    /// A word's lock and its value share a 64-byte line, at either end of
    /// the heap and between, so a read's sandwich loads one line.
    #[test]
    fn every_word_shares_a_line_with_its_lock() {
        let heap = sized(1 << 16);
        let line = |word: &AtomicU64| word as *const AtomicU64 as usize / 64;
        for i in (0..heap.capacity_words())
            .step_by(97)
            .chain([1, 3, 4, 7, (1 << 16) - 1])
        {
            let value = &heap.slots[2 * NativeHeap::index((i as u64) << 3) + 1];
            assert_eq!(line(heap.lock(i)), line(value), "word {i}");
        }
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let heap = NativeHeap::new();
        let mut starts: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..32).map(|_| heap.alloc_words(3)).collect::<Vec<u64>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        starts.sort_unstable();
        for pair in starts.windows(2) {
            assert!(pair[1] - pair[0] >= 3 * 8, "overlapping allocations");
        }
    }

    /// `publish` against a model that forgets nothing, under the floors
    /// that overlapping pins coming and going produce: every `rv` from the
    /// floor up reads the model's newest version at or below it, the
    /// chain's links agree in both directions, and every spill block ever
    /// claimed is either on the chain or a spare — so what pins hold is
    /// bounded by the longest pin, not by how long the word is written.
    #[test]
    fn publish_keeps_what_every_rv_from_the_floor_up_reads() {
        const PIN_SPAN: u64 = 60;
        for k in 1..=3 {
            let store = VersionStore::new(k);
            let addr = 9u64 << 3;
            let mut model = vec![(0u64, 5u64)];
            let mut pins: Vec<u64> = Vec::new();
            let (mut seed, mut wv) = (0x9e37_79b9_7f4a_7c15u64 + k as u64, 0u64);
            let mut claimed = 0;
            for _ in 0..4_000 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                // A region begins at the clock; one ends; the long ones end.
                match seed % 8 {
                    0 | 1 => pins.push(wv),
                    2 | 3 if !pins.is_empty() => drop(pins.swap_remove(seed as usize % pins.len())),
                    _ => {}
                }
                pins.retain(|&rv| rv + PIN_SPAN > wv);
                wv += 1 + (seed >> 32) % 3;
                let floor = pins.iter().copied().fold(wv, u64::min);
                claimed += store.publish(addr, wv, wv * 3, 5, floor).0;
                model.push((wv, wv * 3));
                for rv in floor..=wv {
                    let at = model.partition_point(|&(version, _)| version <= rv);
                    assert_eq!(
                        store.lookup(addr, rv, || true),
                        Some(Some(model[at - 1])),
                        "k={k} wv={wv} floor={floor} rv={rv}"
                    );
                }

                let head = store.head(addr).expect("published");
                let (mut chain, mut below) = (Vec::new(), head.halves(0).1);
                while below != 0 {
                    let newer = chain.last().copied().unwrap_or(0);
                    assert_eq!(store.block(below).halves(1).1, newer, "back link");
                    chain.push(below);
                    below = store.block(below).halves(0).1;
                }
                let (tail, mut spare) = head.halves(1);
                assert_eq!(tail, chain.last().copied().unwrap_or(0));
                let mut spares = 0;
                while spare != 0 {
                    assert!(!chain.contains(&spare), "a spare is off the chain");
                    (spares, spare) = (spares + 1, store.block(spare).halves(0).1);
                }
                assert_eq!(1 + chain.len() + spares, store.claimed.load(Relaxed));
                let kept = store.versions(addr);
                assert!(kept.windows(2).all(|pair| pair[0] < pair[1]), "{kept:?}");
                assert_eq!(kept.last(), Some(&wv));
            }
            assert_eq!(claimed, store.claimed.load(Relaxed) as u64, "k={k}");
            // One word: one head block, and every other block a spill.
            let spilled = claimed - 1;
            assert!(spilled > 2, "k={k}: the pins forced spills");
            assert!(spilled <= PIN_SPAN / k as u64 + 2, "k={k}: {spilled}");
        }
    }

    /// Ids run on from one chunk into the next, twice the size, with no
    /// block shared: `3 * POOL_BLOCKS` first publications (ids 1 to
    /// `3 * POOL_BLOCKS`, into a third chunk) each read back their own
    /// history.
    #[test]
    fn head_blocks_past_the_first_chunk_keep_their_own_history() {
        let store = VersionStore::new(2);
        let words = 3 * POOL_BLOCKS as u64;
        let addr = |i: u64| (FIRST_WORD as u64 + i) << 3;
        for i in 0..words {
            assert_eq!(store.publish(addr(i), 1, i, !i, 0), (1, 0));
        }
        assert_eq!(store.chunks.iter().filter(|c| c.get().is_some()).count(), 3);
        for i in 0..words {
            assert_eq!(store.lookup(addr(i), 0, || true), Some(Some((0, !i))));
            assert_eq!(store.lookup(addr(i), 1, || true), Some(Some((1, i))));
        }
    }

    #[test]
    #[should_panic(expected = "native heap exhausted")]
    fn exhaustion_panics() {
        let heap = sized(16);
        heap.alloc_words(1000);
    }
}
