//! Flat backing memory.
//!
//! The caches in this simulator are *tag-only*: because all simulated memory
//! operations are globally serialized by the scheduler, data can live in a
//! single flat store that is always coherent, while the cache model tracks
//! only presence, MESI state, and mark bits for timing and mark-counter
//! semantics. This keeps data movement trivially correct without changing
//! any observable timing or mark behavior.

use std::collections::BTreeMap;

use crate::addr::Addr;
use crate::heap::HEAP_BASE;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
type Page = [u8; PAGE_SIZE];

/// Page number of [`HEAP_BASE`]: slot 0 of the direct-indexed table.
const HEAP_PAGE: u64 = HEAP_BASE >> PAGE_SHIFT;
/// Pages the direct-indexed table may cover (1 GiB of simulated heap, a
/// 2 MiB table at most). The bump allocator hands addresses out densely
/// from `HEAP_BASE`, so in practice the table is as long as the heap has
/// pages.
const DIRECT_PAGES: u64 = 1 << 18;

/// Sparse paged byte-addressable memory. Unwritten memory reads as zero.
///
/// Nearly every access goes to the simulated heap, so its pages are found
/// by index: slot `page - HEAP_PAGE` of a table that grows on the first
/// write to a page. Everything else — the fixed low addresses tests use,
/// and anything past the direct range — lives in one ordered map.
#[derive(Default)]
pub struct Memory {
    heap: Vec<Option<Box<Page>>>,
    other: BTreeMap<u64, Box<Page>>,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.resident_pages())
            .finish()
    }
}

/// Where a page lives: its slot in the direct table, or its page number
/// as the key of the fallback map. Addresses below `HEAP_BASE` wrap to a
/// huge index and so fall out of the direct range with the far ones.
enum Slot {
    Direct(usize),
    Other(u64),
}

#[inline]
fn slot_of(addr: Addr) -> Slot {
    let page = addr.0 >> PAGE_SHIFT;
    let idx = page.wrapping_sub(HEAP_PAGE);
    if idx < DIRECT_PAGES {
        Slot::Direct(idx as usize)
    } else {
        Slot::Other(page)
    }
}

fn zero_page() -> Box<Page> {
    Box::new([0u8; PAGE_SIZE])
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    #[inline]
    fn page(&self, addr: Addr) -> Option<&Page> {
        match slot_of(addr) {
            Slot::Direct(i) => self.heap.get(i)?.as_deref(),
            Slot::Other(page) => self.other.get(&page).map(|p| &**p),
        }
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut Page {
        match slot_of(addr) {
            Slot::Direct(i) => {
                if !matches!(self.heap.get(i), Some(Some(_))) {
                    self.materialize(i);
                }
                self.heap[i]
                    .as_mut()
                    .expect("resident or just materialized")
            }
            Slot::Other(page) => self.other.entry(page).or_insert_with(zero_page),
        }
    }

    /// First write to a heap page: allocates it, growing the table to
    /// reach it.
    #[cold]
    fn materialize(&mut self, i: usize) {
        if self.heap.len() <= i {
            self.heap.resize_with(i + 1, || None);
        }
        self.heap[i] = Some(zero_page());
    }

    #[inline]
    fn page_offset(addr: Addr) -> usize {
        (addr.0 as usize) & (PAGE_SIZE - 1)
    }

    /// Reads one naturally aligned `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned (simulated code is required to
    /// use natural alignment so accesses never straddle sub-blocks).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        assert!(addr.is_aligned(8), "unaligned u64 read at {addr}");
        match self.page(addr) {
            None => 0,
            Some(p) => {
                let o = Self::page_offset(addr);
                u64::from_le_bytes(p[o..o + 8].try_into().unwrap())
            }
        }
    }

    /// Writes one naturally aligned `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        assert!(addr.is_aligned(8), "unaligned u64 write at {addr}");
        let o = Self::page_offset(addr);
        self.page_mut(addr)[o..o + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.page(addr) {
            None => 0,
            Some(p) => p[Self::page_offset(addr)],
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let o = Self::page_offset(addr);
        self.page_mut(addr)[o] = value;
    }

    /// Number of pages that have been materialized.
    pub fn resident_pages(&self) -> usize {
        self.heap.iter().flatten().count() + self.other.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn zero_fill() {
        let m = Memory::new();
        assert_eq!(m.read_u64(Addr(0x1000)), 0);
        assert_eq!(m.read_u8(Addr(12345)), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_back() {
        let mut m = Memory::new();
        m.write_u64(Addr(0x1000), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(Addr(0x1000)), 0xdead_beef_cafe_f00d);
        // Neighbors untouched.
        assert_eq!(m.read_u64(Addr(0x1008)), 0);
        assert_eq!(m.read_u64(Addr(0x0ff8)), 0);
    }

    #[test]
    fn byte_and_word_views_agree() {
        let mut m = Memory::new();
        m.write_u64(Addr(0x2000), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(Addr(0x2000)), 0x08); // little endian
        assert_eq!(m.read_u8(Addr(0x2007)), 0x01);
        m.write_u8(Addr(0x2000), 0xff);
        assert_eq!(m.read_u64(Addr(0x2000)), 0x0102_0304_0506_07ff);
    }

    #[test]
    fn page_boundary() {
        let mut m = Memory::new();
        m.write_u64(Addr(0x0ff8), 7); // last word of page 0
        m.write_u64(Addr(0x1000), 9); // first word of page 1
        assert_eq!(m.read_u64(Addr(0x0ff8)), 7);
        assert_eq!(m.read_u64(Addr(0x1000)), 9);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_rejected() {
        let m = Memory::new();
        let _ = m.read_u64(Addr(0x1001));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_rejected() {
        let mut m = Memory::new();
        m.write_u64(Addr(HEAP_BASE + 4), 1);
    }

    const PAGE: u64 = PAGE_SIZE as u64;

    /// An address from one of the regions the page lookup tells apart —
    /// low fixed addresses, the page below the heap, the heap, the last
    /// page of the direct range, the first past it, the top of the address
    /// space — leaning towards the edges of a page.
    fn addr() -> impl Strategy<Value = u64> {
        let region = prop_oneof![
            Just(0),
            Just(0x1000),
            Just(HEAP_BASE - PAGE),
            Just(HEAP_BASE),
            Just(HEAP_BASE + 37 * PAGE),
            Just(HEAP_BASE + (DIRECT_PAGES - 2) * PAGE),
            Just(HEAP_BASE + DIRECT_PAGES * PAGE),
            Just(u64::MAX - 4 * PAGE + 1),
        ];
        let offset = prop_oneof![0..16u64, PAGE - 16..PAGE, 0..PAGE];
        (region, 0..2u64, offset).prop_map(|(base, page, offset)| base + page * PAGE + offset)
    }

    #[derive(Copy, Clone, Debug)]
    enum Op {
        Read8(u64),
        Write8(u64, u8),
        Read64(u64),
        Write64(u64, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            addr().prop_map(Op::Read8),
            (addr(), any::<u8>()).prop_map(|(a, v)| Op::Write8(a, v)),
            addr().prop_map(|a| Op::Read64(a & !7)),
            (addr(), any::<u64>()).prop_map(|(a, v)| Op::Write64(a & !7, v)),
        ]
    }

    proptest! {
        #[test]
        fn agrees_with_a_byte_map(ops in proptest::collection::vec(op(), 0..200)) {
            let mut mem = Memory::new();
            let mut bytes: HashMap<u64, u8> = HashMap::new();
            let mut pages: HashSet<u64> = HashSet::new();
            let byte = |bytes: &HashMap<u64, u8>, a: u64| bytes.get(&a).copied().unwrap_or(0);
            for op in ops {
                match op {
                    Op::Read8(a) => prop_assert_eq!(mem.read_u8(Addr(a)), byte(&bytes, a)),
                    Op::Write8(a, v) => {
                        mem.write_u8(Addr(a), v);
                        bytes.insert(a, v);
                        pages.insert(a >> PAGE_SHIFT);
                    }
                    Op::Read64(a) => {
                        let want: Vec<u8> = (a..a + 8).map(|b| byte(&bytes, b)).collect();
                        prop_assert_eq!(mem.read_u64(Addr(a)).to_le_bytes().to_vec(), want);
                    }
                    Op::Write64(a, v) => {
                        mem.write_u64(Addr(a), v);
                        bytes.extend((a..a + 8).zip(v.to_le_bytes()));
                        pages.insert(a >> PAGE_SHIFT);
                    }
                }
            }
            // Only the written pages exist: a read materialises nothing.
            prop_assert_eq!(mem.resident_pages(), pages.len());
        }
    }
}
