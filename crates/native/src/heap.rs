//! The native transactional heap: a flat array of host `AtomicU64` words
//! addressed by the same byte addresses ([`hastm_sim::Addr`]) the
//! simulator uses, so `ObjRef`-based data structures traverse unchanged.
//! Its words, like the version store's index and block pool, are
//! `ZeroedWords`: capacity nobody touches costs no memory.
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

use crate::zeroed::ZeroedWords;

/// First allocatable word index (keeps a full line clear of `Addr::NULL`).
const FIRST_WORD: usize = 8;

/// A shared, concurrently allocatable word heap.
pub struct NativeHeap {
    words: ZeroedWords,
    next: CachePadded<AtomicUsize>,
}

impl NativeHeap {
    /// Builds a zero-initialized heap of `words` 8-byte words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is too small to hold the reserved null region.
    pub fn new(words: usize) -> Self {
        assert!(
            words > FIRST_WORD,
            "native heap of {words} words is too small"
        );
        NativeHeap {
            words: ZeroedWords::new(words),
            next: CachePadded::new(AtomicUsize::new(FIRST_WORD)),
        }
    }

    /// Allocates `n` contiguous words and returns the byte address of the
    /// first (a lock-free bump allocation; the heap takes no words back —
    /// each executor hands out again what its commits freed).
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted — a configuration error, not a
    /// recoverable condition, for a differential-testing backend.
    pub fn alloc_words(&self, n: usize) -> u64 {
        let start = self.next.fetch_add(n, SeqCst);
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.words.len()),
            "native heap exhausted: {n} words requested, {} of {} used (raise NativeConfig::heap_words)",
            start,
            self.words.len()
        );
        (start as u64) << 3
    }

    fn index(&self, byte: u64) -> usize {
        debug_assert_eq!(byte & 7, 0, "misaligned native word address {byte:#x}");
        let i = (byte >> 3) as usize;
        assert!(
            i < self.words.len(),
            "address {byte:#x} is outside the native heap ({} words)",
            self.words.len()
        );
        i
    }

    /// Atomically loads the word at byte address `byte`.
    pub fn load(&self, byte: u64) -> u64 {
        // Acquire: pairs with `store`'s release, so a reader that sees a
        // written-back value also sees the writer's stripe lock (taken
        // before the store) when it re-reads the lock word afterwards.
        self.words[self.index(byte)].load(Acquire)
    }

    /// Atomically stores the word at byte address `byte`.
    pub fn store(&self, byte: u64, value: u64) {
        // Release: orders the stripe CAS-lock, the clock RMW and the ring
        // publication before the value becomes visible.
        self.words[self.index(byte)].store(value, Release);
    }

    /// Words handed out so far (including the reserved null region).
    pub fn used_words(&self) -> usize {
        self.next.load(SeqCst).min(self.words.len())
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.words.len()
    }
}

impl std::fmt::Debug for NativeHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeHeap")
            .field("capacity_words", &self.words.len())
            .field("used_words", &self.used_words())
            .finish()
    }
}

/// Blocks in the first spill chunk; spill chunk `n` holds `SPILL_BLOCKS
/// << n` and is claimed whole the first time a spill needs one of them.
const SPILL_BLOCKS: usize = 256;

/// The committed history of every transactionally written word (only
/// under `Versioning::Multi { k }`), beside the heap instead of behind a
/// hash. A word's *head block* — two words of links, then `k`
/// `(version, value)` pairs, oldest first — is claimed from a pool the
/// first time a commit publishes for the word, in publication order, and
/// a per-heap-word index names it (0: never published, which is what an
/// empty history is). Index and pool are [`ZeroedWords`] arrays, so their
/// memory follows the words that have a history: a page of index serves
/// 512 heap words, a page of pool 64 published words at `k = 3`. A commit
/// writes a head block, and the index entry naming it, under the word's
/// stripe lock; a snapshot read takes both seqlock-style with that lock
/// word as the sequence (DESIGN §12b), so everything here is
/// acquire/release atomics.
///
/// The head block keeps the word's newest versions. When it is full the
/// oldest entry makes room, unless a live snapshot may still need it:
/// then the whole block is copied to a *spill* block (ids from
/// `heap_words` up) that becomes the head of the word's `older` chain.
/// The chain is a queue — the head block knows its tail, a spill block
/// its newer neighbour — and the tail is retired as soon as the block
/// after it serves every live snapshot, to be the word's next spill
/// block. A spill block's entries are written once, before it is linked.
pub(crate) struct VersionStore {
    k: usize,
    heap_words: usize,
    /// Per heap word, the id of its head block; 0 until its first
    /// publication.
    index: ZeroedWords,
    /// The head blocks, `2 + 2k` words each, claimed in first-publication
    /// order from id 1 (id 0 is "no block").
    pool: ZeroedWords,
    claimed: AtomicUsize,
    /// The spill chunks, each claimed on first use.
    spills: Box<[OnceLock<Box<[AtomicU64]>>]>,
    spilled: AtomicUsize,
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
    /// A store of `k` versions a block for a heap of `heap_words` words.
    pub(crate) fn new(heap_words: usize, k: usize) -> Self {
        let spill_chunks = (u32::MAX as usize / SPILL_BLOCKS).ilog2() as usize;
        let pool_words = heap_words
            .checked_mul(2 + 2 * k)
            .expect("version store size overflows");
        VersionStore {
            k,
            heap_words,
            index: ZeroedWords::new(heap_words),
            pool: ZeroedWords::new(pool_words),
            claimed: AtomicUsize::new(0),
            spills: (0..spill_chunks).map(|_| OnceLock::new()).collect(),
            spilled: AtomicUsize::new(0),
        }
    }

    /// Head block `id` of the pool.
    fn pooled(&self, id: usize) -> Block<'_> {
        let stride = 2 + 2 * self.k;
        Block(&self.pool[id * stride..][..stride])
    }

    /// The head block of the word at `addr`, if a commit has published it.
    fn head(&self, addr: u64) -> Option<Block<'_>> {
        match self.index[(addr >> 3) as usize].load(Acquire) {
            0 => None,
            id => Some(self.pooled(id as usize)),
        }
    }

    /// Whether a commit has published the word at `addr`; asked by a
    /// committer holding its stripe.
    pub(crate) fn has_history(&self, addr: u64) -> bool {
        self.head(addr).is_some()
    }

    /// Block `id`: a head block, or a spill block if its chunk is claimed
    /// or `claim` says to claim it.
    fn block(&self, id: usize, claim: bool) -> Option<Block<'_>> {
        let Some(spill) = id.checked_sub(self.heap_words) else {
            return Some(self.pooled(id));
        };
        let stride = 2 + 2 * self.k;
        // Spill chunk n starts at spill block SPILL_BLOCKS * (2^n - 1).
        let n = (spill / SPILL_BLOCKS + 1).ilog2() as usize;
        let at = spill + SPILL_BLOCKS - (SPILL_BLOCKS << n);
        let zeroed = || {
            (0..(SPILL_BLOCKS << n) * stride)
                .map(|_| AtomicU64::new(0))
                .collect()
        };
        let words = match claim {
            true => self.spills[n].get_or_init(zeroed),
            false => self.spills[n].get()?,
        };
        Some(Block(&words[at * stride..][..stride]))
    }

    /// A block some block links to: a spill block's chunk was claimed
    /// before the link was stored.
    fn linked(&self, id: usize) -> Block<'_> {
        self.block(id, false).expect("a linked block is claimed")
    }

    /// Publishes `(wv, value)` as the newest version of the word at
    /// `addr`, whose stripe the caller holds and whose heap word still
    /// reads `pre_image`; `floor` is the live snapshots' floor
    /// ([`hastm::mvcc::LiveSnapshots::floor`]). Returns whether this was
    /// the word's first publication, which claims its head block, and how
    /// many entries it reclaimed.
    pub(crate) fn publish(
        &self,
        addr: u64,
        wv: u64,
        value: u64,
        pre_image: u64,
        floor: u64,
    ) -> (bool, u64) {
        let slot = &self.index[(addr >> 3) as usize];
        let (id, first) = match slot.load(Acquire) {
            0 => (self.claimed.fetch_add(1, Relaxed) + 1, true),
            id => (id as usize, false),
        };
        // A heap word claims at most once, and word 0 (no object word)
        // never: head ids stay below the spill ids.
        debug_assert!(id < self.heap_words);
        let block = self.pooled(id);
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
                0 => self.heap_words + self.spilled.fetch_add(1, Relaxed),
                retired => std::mem::replace(&mut spare, self.linked(retired).halves(0).1),
            };
            assert!(spill < u32::MAX as usize, "block ids are 32 bits");
            let to = self.block(spill, true).expect("claimed");
            (0..len).for_each(|i| to.set_entry(i, block.entry(i)));
            to.set_halves(0, len, older);
            to.set_halves(1, 0, 0);
            match older {
                0 => tail = spill,
                head => self.linked(head).set_halves(1, 0, spill),
            }
            (len, older) = (0, spill);
        }
        block.set_entry(len, (wv, value));
        // Retire the tail while the block after it starts at or below the
        // floor: that entry serves every live reader.
        while tail != 0 {
            let newer = self.linked(tail).halves(1).1;
            let next = if newer == 0 {
                block
            } else {
                self.linked(newer)
            };
            if !reclaimable(next.entry(0).0, floor) {
                break;
            }
            match newer {
                0 => older = 0,
                _ => next.set_halves(0, self.k, 0),
            }
            self.linked(tail).set_halves(0, 0, spare);
            (spare, tail, reclaimed) = (tail, newer, reclaimed + self.k as u64);
        }
        block.set_halves(1, tail, spare);
        block.set_halves(0, len + 1, older);
        if first {
            slot.store(id as u64, Release);
        }
        (first, reclaimed)
    }

    /// For a snapshot reader at `rv` whose live-snapshot slot says so:
    /// the newest `(version, value)` of the word at `addr` with a version
    /// at or below `rv` — failing that, the oldest — or `Some(None)` for
    /// a word no commit has published; `None` if `stable`, the caller's
    /// stripe-unchanged test, failed after the index and head block were
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
        // below it, however the stripe moves from here on, as far down as
        // this reader goes — to the first entry at or below `rv`: the tail
        // is retired only from behind a block that starts at or below the
        // floor, the floor is at or below `rv`, and a linked spill block's
        // entries are never rewritten, its `older` only when it becomes
        // the tail.
        while older != 0 && entry.is_some_and(|(version, _)| version > rv) {
            (entry, older) = self.linked(older).newest_at(rv);
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
            next = (older != 0).then(|| self.linked(older));
        }
        versions.reverse();
        versions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_never_return_null_and_do_not_overlap() {
        let heap = NativeHeap::new(64);
        let a = heap.alloc_words(4);
        let b = heap.alloc_words(2);
        assert!(a >= (FIRST_WORD as u64) << 3, "null line stays reserved");
        assert_eq!(b, a + 4 * 8, "bump allocation is contiguous");
        heap.store(a, 7);
        heap.store(b, 9);
        assert_eq!(heap.load(a), 7);
        assert_eq!(heap.load(b), 9);
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let heap = NativeHeap::new(4096);
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
            let store = VersionStore::new(64, k);
            let addr = 9u64 << 3;
            let mut model = vec![(0u64, 5u64)];
            let mut pins: Vec<u64> = Vec::new();
            let (mut seed, mut wv) = (0x9e37_79b9_7f4a_7c15u64 + k as u64, 0u64);
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
                store.publish(addr, wv, wv * 3, 5, floor);
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
                    assert_eq!(store.linked(below).halves(1).1, newer, "back link");
                    chain.push(below);
                    below = store.linked(below).halves(0).1;
                }
                let (tail, mut spare) = head.halves(1);
                assert_eq!(tail, chain.last().copied().unwrap_or(0));
                let mut spares = 0;
                while spare != 0 {
                    assert!(!chain.contains(&spare), "a spare is off the chain");
                    (spares, spare) = (spares + 1, store.linked(spare).halves(0).1);
                }
                assert_eq!(chain.len() + spares, store.spilled.load(Relaxed));
                let kept = store.versions(addr);
                assert!(kept.windows(2).all(|pair| pair[0] < pair[1]), "{kept:?}");
                assert_eq!(kept.last(), Some(&wv));
            }
            assert_eq!(store.claimed.load(Relaxed), 1, "one word, one head block");
            let spilled = store.spilled.load(Relaxed);
            assert!(spilled > 2, "k={k}: the pins forced spills");
            assert!(
                spilled as u64 <= PIN_SPAN / k as u64 + 2,
                "k={k}: {spilled}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "native heap exhausted")]
    fn exhaustion_panics() {
        let heap = NativeHeap::new(16);
        heap.alloc_words(1000);
    }
}
