//! The native transactional heap: a flat array of host `AtomicU64` words
//! addressed by the same byte addresses ([`hastm_sim::Addr`]) the
//! simulator uses, so `ObjRef`-based data structures traverse unchanged.
//!
//! Word 0 (byte address 0) is never handed out: `Addr::NULL`/`ObjRef::NULL`
//! must stay distinguishable from a real allocation, exactly as on the
//! simulated heap.

use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{Acquire, Release, SeqCst},
};

/// First allocatable word index (keeps a full line clear of `Addr::NULL`).
const FIRST_WORD: usize = 8;

/// Gives an 8-byte word every thread hammers (the clock, the epoch, the
/// bump pointer, a live-snapshot slot) a cache-line pair to itself — 128
/// bytes, because adjacent-line prefetch pulls lines in pairs — so its
/// traffic does not evict the read-mostly fields beside it. Wherever the
/// word lands, the 120 bytes on either side of it are this padding.
///
/// Padding on both sides, not `#[repr(align(128))]`: an over-aligned
/// type inside an `Arc` (the ro slots) is allocated with
/// `posix_memalign`, and on the reference host glibc then served that
/// worker's later allocations from the main arena, which put 2.7 MB
/// (20 %) on `native_ro`'s peak RSS (EXPERIMENTS.md).
#[repr(C)]
pub(crate) struct CachePadded<T> {
    _before: [u8; PAD],
    value: T,
    _after: [u8; PAD],
}

/// A line pair less the word itself.
const PAD: usize = 120;

impl<T> CachePadded<T> {
    pub(crate) fn new(value: T) -> Self {
        CachePadded {
            _before: [0; PAD],
            value,
            _after: [0; PAD],
        }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// A shared, concurrently allocatable word heap.
pub struct NativeHeap {
    words: Box<[AtomicU64]>,
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
        let cells: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
        NativeHeap {
            words: cells.into_boxed_slice(),
            next: CachePadded::new(AtomicUsize::new(FIRST_WORD)),
        }
    }

    /// Allocates `n` contiguous words and returns the byte address of the
    /// first (a lock-free bump allocation; transactional allocations are
    /// never reclaimed, matching the harness lifetimes this backend
    /// serves).
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
        // Release: orders the stripe CAS-lock, the clock and epoch RMWs
        // and the ring publication before the value becomes visible.
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

    #[test]
    #[should_panic(expected = "native heap exhausted")]
    fn exhaustion_panics() {
        let heap = NativeHeap::new(16);
        heap.alloc_words(1000);
    }
}
