//! Large zeroed word arrays that cost memory only where they are touched.
//!
//! The heap (each word with its lock word), the version store's index
//! and its block pool's chunks are reserved at fixed sizes, and most runs
//! write a small part of each. On Linux (x86-64 and AArch64) a
//! [`ZeroedWords`] is an anonymous private mapping: the kernel supplies
//! each page zeroed on its first touch, so building one costs a system
//! call rather than a `memset` of its full size, and the resident set
//! follows what a run writes. `MAP_NORESERVE` keeps untouched capacity
//! from being charged against the commit limit. Other targets take a
//! zeroed allocation. Either way an array starts on a 64-byte line.
//!
//! This module holds the crate's only `unsafe`: getting the memory, the
//! slice over it and giving it back. Everything it exports is safe to
//! call.

use std::alloc::Layout;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::AtomicU64;

/// Whether a [`ZeroedWords`] is a demand-zero mapping, whose untouched
/// pages cost no memory, rather than an allocation zeroed in full.
pub(crate) const DEMAND_ZERO: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// A fixed-length array of `AtomicU64`s that starts out all zero.
pub(crate) struct ZeroedWords {
    base: NonNull<AtomicU64>,
    len: usize,
}

// SAFETY: a `ZeroedWords` owns its memory outright and hands it out only
// as `&[AtomicU64]`, which is `Send + Sync`: moving or sharing the owner
// across threads is what moving or sharing that slice would be.
unsafe impl Send for ZeroedWords {}
// SAFETY: as for `Send`.
unsafe impl Sync for ZeroedWords {}

impl ZeroedWords {
    /// An array of `len` words, all zero; `what` names it in the panic
    /// below.
    ///
    /// # Panics
    ///
    /// Panics if `len` words overflow the address space, or if the memory
    /// cannot be had — typically an address-space limit (`ulimit -v`)
    /// below what a runtime reserves. The message names the array, the
    /// bytes asked for and that reservation.
    pub(crate) fn new(what: &str, len: usize) -> Self {
        let layout = Self::layout(len);
        if layout.size() == 0 {
            return ZeroedWords {
                base: NonNull::dangling(),
                len,
            };
        }
        let Some(base) = NonNull::new(sys::alloc_zeroed(layout)) else {
            let size = |multi| human_size(crate::heap::runtime_reservation(multi));
            panic!(
                "cannot reserve the {what}: {} bytes of address space refused; \
                 a native runtime reserves {} ({} under Multi), so an \
                 address-space limit (`ulimit -v`) must allow that much",
                layout.size(),
                size(false),
                size(true),
            );
        };
        ZeroedWords {
            base: base.cast(),
            len,
        }
    }

    fn layout(len: usize) -> Layout {
        let line_aligned = Layout::array::<AtomicU64>(len).and_then(|words| words.align_to(64));
        line_aligned.expect("zeroed word array size overflows")
    }
}

/// `bytes` in whole GiB, or MiB below one GiB.
fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{} GiB", bytes >> 30)
    } else {
        format!("{} MiB", bytes >> 20)
    }
}

impl Deref for ZeroedWords {
    type Target = [AtomicU64];

    #[inline]
    fn deref(&self) -> &[AtomicU64] {
        // SAFETY: `base` is aligned for `AtomicU64` (`new` got it for the
        // array's layout, or it is dangling for an empty array) and spans
        // `len` readable, writable words until `drop`, which the borrow of
        // `self` holds off. The
        // memory reads zero until written, all-zero bytes are a valid
        // `AtomicU64`, and every later access goes through the atomics.
        unsafe { std::slice::from_raw_parts(self.base.as_ptr(), self.len) }
    }
}

impl Drop for ZeroedWords {
    fn drop(&mut self) {
        let layout = Self::layout(self.len);
        if layout.size() != 0 {
            // SAFETY: `new` got exactly this block with this layout from
            // `sys::alloc_zeroed`; it is given back once, and no borrow of
            // it outlives `self`.
            unsafe { sys::dealloc(self.base.as_ptr().cast(), layout) };
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::alloc::Layout;
    use std::ffi::{c_int, c_void};

    // The generic Linux values, shared by x86-64 and AArch64 (the reason
    // this module is gated on those two; MIPS, PowerPC and SPARC differ).
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    extern "C" {
        /// `mmap(2)` and `munmap(2)` from the C library `std` already
        /// links (`off_t` is 64 bits on both targets).
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A fresh anonymous mapping of `layout.size()` bytes (page-aligned,
    /// which covers any word array's alignment), or null.
    pub(super) fn alloc_zeroed(layout: Layout) -> *mut u8 {
        // SAFETY: a new private anonymous mapping at an address the kernel
        // chooses aliases no memory Rust knows about, and every argument
        // is one `mmap(2)` documents for that use.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                layout.size(),
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            return std::ptr::null_mut();
        }
        base.cast()
    }

    /// Unmaps a block [`alloc_zeroed`] mapped.
    ///
    /// # Safety
    ///
    /// `base` and `layout` are exactly what one `alloc_zeroed` call took
    /// and returned, and nothing uses the block afterwards.
    pub(super) unsafe fn dealloc(base: *mut u8, layout: Layout) {
        // SAFETY: the caller's promise: a whole mapping of ours, unmapped
        // once.
        let rc = unsafe { munmap(base.cast(), layout.size()) };
        debug_assert_eq!(rc, 0, "munmap of a zeroed word array failed");
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub(super) fn alloc_zeroed(layout: std::alloc::Layout) -> *mut u8 {
        // SAFETY: `ZeroedWords::new` never asks for zero bytes.
        unsafe { std::alloc::alloc_zeroed(layout) }
    }

    pub(super) use std::alloc::dealloc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    fn reads_zero_at_ends_and_middle(words: &ZeroedWords) {
        for i in [0, words.len() / 2, words.len() - 1] {
            assert_eq!(words[i].load(Relaxed), 0, "word {i} of {}", words.len());
        }
    }

    #[test]
    fn fresh_arrays_read_zero_even_after_a_written_one_is_dropped() {
        const LEN: usize = 3 << 18; // 6 MiB: past any allocator's threshold
        let first = ZeroedWords::new("test array", LEN);
        assert_eq!(first.len(), LEN);
        reads_zero_at_ends_and_middle(&first);
        first.iter().step_by(512).for_each(|w| w.store(!0, Relaxed));
        first[LEN - 1].store(!0, Relaxed);
        drop(first);
        let second = ZeroedWords::new("test array", LEN);
        reads_zero_at_ends_and_middle(&second);
        assert!(ZeroedWords::new("test array", 0).is_empty());
        assert_eq!(human_size(48 << 30), "48 GiB");
        assert_eq!(human_size(24 << 20), "24 MiB");
    }
}
