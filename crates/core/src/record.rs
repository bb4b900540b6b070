//! Transaction records (§4).
//!
//! A transaction record is one pointer-sized word associated with each
//! datum. It is either **shared** — holding an even version number,
//! allowing any number of readers — or **exclusive** — holding the
//! word-aligned address of the owning transaction's descriptor with its low
//! bit set, so the low bit distinguishes the two states.
//!
//! The paper's polarity is the other one (odd versions, the bare
//! descriptor address as owner). Both cost the same `test eax,1`; this one
//! makes zeroed memory a record at its initial version, so a fresh record
//! table needs no writes and a record page materializes only at its first
//! write.
//!
//! The datum→record mapping is flexible:
//!
//! * **object granularity** (managed environments): the record is the
//!   object's header word;
//! * **cache-line granularity** (unmanaged environments): the datum's
//!   address hashes into a global table of 4096 records spaced one cache
//!   line apart, reproducing the paper's
//!   `and rec, 0x3ffc0; add rec, TxRecTableBase` sequence.

use hastm_sim::{Addr, SimHeap};

/// Mask extracting bits 6–17 of an address: the paper's record-table hash.
pub const REC_HASH_MASK: u64 = 0x3ffc0;
/// Number of records in the cache-line-granularity table.
pub const REC_TABLE_ENTRIES: u64 = (REC_HASH_MASK >> 6) + 1; // 4096
/// Size in bytes of the record table (records are 64-byte aligned to
/// prevent ping-ponging).
pub const REC_TABLE_BYTES: u64 = REC_TABLE_ENTRIES * 64;

/// The contents of a transaction record.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RecValue(pub u64);

impl RecValue {
    /// The initial version number of a fresh record: what a never-written
    /// word reads as.
    pub const INITIAL: RecValue = RecValue(0);

    /// Whether this value is a version number (shared state).
    #[inline]
    pub fn is_version(self) -> bool {
        self.0 & 1 == 0
    }

    /// Whether this value is an owner pointer (exclusive state).
    #[inline]
    pub fn is_owned(self) -> bool {
        !self.is_version()
    }

    /// Interprets the value as the owner's descriptor address.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the record is in the shared state.
    #[inline]
    pub fn owner(self) -> Addr {
        debug_assert!(self.is_owned(), "record is shared");
        Addr(self.0 & !1)
    }

    /// A record value owning the datum on behalf of descriptor `desc`.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is not word-aligned (its low bit must be clear).
    #[inline]
    pub fn owned_by(desc: Addr) -> RecValue {
        assert!(desc.0 & 1 == 0 && !desc.is_null(), "bad descriptor address");
        RecValue(desc.0 | 1)
    }

    /// The next version after this one (still even). Used when a committing
    /// or aborting owner releases the record.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the value is not a version.
    #[inline]
    pub fn bump(self) -> RecValue {
        debug_assert!(self.is_version());
        RecValue(self.0.wrapping_add(2) & !1)
    }
}

impl std::fmt::Display for RecValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_version() {
            write!(f, "v{}", self.0 >> 1)
        } else {
            write!(f, "owned by {:#x}", self.owner().0)
        }
    }
}

/// The global cache-line-granularity record table.
#[derive(Copy, Clone, Debug)]
pub struct RecordTable {
    base: Addr,
}

impl RecordTable {
    /// Allocates the table from the simulated heap. Fresh heap memory
    /// reads as zero, which is [`RecValue::INITIAL`]: every record starts
    /// shared at its initial version with nothing written.
    pub fn alloc(heap: &SimHeap) -> Self {
        // 64-byte alignment so the extracted hash bits double as the offset,
        // exactly as in the paper's three-instruction sequence. The table
        // base must additionally be 256 KiB aligned so that
        // `base + (addr & REC_HASH_MASK)` never carries into unrelated bits.
        let base = heap.alloc_aligned(REC_TABLE_BYTES, REC_TABLE_BYTES.next_power_of_two());
        RecordTable { base }
    }

    /// The table's base address (the paper's `TxRecTableBase`).
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The record covering `addr`: `TxRecTableBase + (addr & 0x3ffc0)`.
    #[inline]
    pub fn record_for(&self, addr: Addr) -> Addr {
        Addr(self.base.0 + (addr.0 & REC_HASH_MASK))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_encoding() {
        let v = RecValue::INITIAL;
        assert!(v.is_version());
        assert!(!v.is_owned());
        assert_eq!(v.bump().0, 2);
        assert!(v.bump().is_version());
    }

    #[test]
    fn owner_encoding() {
        let desc = Addr(0x4000_0040);
        let r = RecValue::owned_by(desc);
        assert!(r.is_owned());
        assert_eq!(r.owner(), desc);
    }

    #[test]
    #[should_panic(expected = "bad descriptor")]
    fn odd_descriptor_rejected() {
        let _ = RecValue::owned_by(Addr(0x41));
    }

    #[test]
    #[should_panic(expected = "bad descriptor")]
    fn null_descriptor_rejected() {
        let _ = RecValue::owned_by(Addr::NULL);
    }

    #[test]
    fn version_wraps_stay_even() {
        let near_max = RecValue(u64::MAX - 1); // even
        assert!(near_max.is_version());
        assert_eq!(near_max.bump(), RecValue::INITIAL);
    }

    #[test]
    fn table_hash_matches_paper() {
        let heap = {
            let m = hastm_sim::Machine::new(hastm_sim::MachineConfig::default());
            m.heap()
        };
        let t = RecordTable::alloc(&heap);
        // Same line -> same record.
        assert_eq!(t.record_for(Addr(0x12340)), t.record_for(Addr(0x12347)));
        // Bits 6..17 index; bit 18 aliases back onto the same entry.
        assert_eq!(t.record_for(Addr(0x0)), t.record_for(Addr(0x40000)));
        // Adjacent lines -> adjacent (64-byte spaced) records.
        let r0 = t.record_for(Addr(0x0));
        let r1 = t.record_for(Addr(0x40));
        assert_eq!(r1.0 - r0.0, 64);
        // Records are line-aligned (no ping-ponging).
        assert!(r0.is_aligned(64));
    }

    #[test]
    fn table_init_covers_all_entries() {
        let m = hastm_sim::Machine::new(hastm_sim::MachineConfig::default());
        let t = RecordTable::alloc(&m.heap());
        let recs: Vec<_> = (0..REC_TABLE_ENTRIES)
            .map(|i| t.record_for(Addr(i * 64)))
            .collect();
        assert_eq!(recs[0], t.base());
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.0, t.base().0 + i as u64 * 64);
            assert_eq!(RecValue(m.peek_u64(*rec)), RecValue::INITIAL);
        }
    }

    #[test]
    fn never_written_record_decodes_as_initial() {
        let v = RecValue(hastm_sim::mem::Memory::new().read_u64(Addr(0x40)));
        assert_eq!(v, RecValue::INITIAL);
        assert!(v.is_version());
        assert_eq!(v.to_string(), "v0");
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", RecValue(2)), "v1");
        let owned = RecValue::owned_by(Addr(0x80));
        assert_eq!(owned.0, 0x81);
        assert_eq!(format!("{owned}"), "owned by 0x80");
    }
}
