//! Language-environment integration: suspending a transaction so a garbage
//! collector, debugger, or profiler can inspect and mutate its speculative
//! state **without aborting it** (§2, §5).
//!
//! The paper's requirement: "a TM system must allow inspection,
//! modification, and reflection of its speculative state by a thread not
//! running in the same transaction context", and specifically a GC must be
//! able to move objects referenced by log entries and update references,
//! after which the transaction "will resume without aborting, but may lose
//! some of its mark bits and perform a full software validation".
//!
//! In this reproduction the inspector runs on the same simulated core (the
//! collector has stopped the world); what matters — and what the tests
//! check — is that the transaction's logs can be rewritten and objects
//! relocated mid-flight, and that the transaction then commits with plain
//! software validation instead of aborting.

use hastm_sim::Addr;

use crate::config::Granularity;
use crate::log::{ReadEntry, UndoEntry, WriteEntry};
use crate::runtime::ObjRef;
use crate::txn::TxThread;

/// A view over a suspended transaction's speculative state.
///
/// Created by [`TxThread::suspend`]. Dropping the inspector resumes the
/// transaction: under HASTM all mark bits are discarded (`resetmarkall`),
/// so the resumed transaction falls back to full software validation at
/// commit — it is *not* aborted.
pub struct Inspector<'t, 'c, 'm> {
    tx: &'t mut TxThread<'c, 'm>,
}

impl std::fmt::Debug for Inspector<'_, '_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inspector")
            .field("undo_entries", &self.tx.undo_log.len())
            .field("read_entries", &self.tx.read_set.len())
            .field("write_entries", &self.tx.write_set.len())
            .finish()
    }
}

impl<'t, 'c, 'm> Inspector<'t, 'c, 'm> {
    /// The transaction's undo log (old values + GC metadata).
    pub fn undo_entries(&self) -> &[UndoEntry] {
        &self.tx.undo_log
    }

    /// The transaction's read set.
    pub fn read_entries(&self) -> &[ReadEntry] {
        &self.tx.read_set
    }

    /// The transaction's write set.
    pub fn write_entries(&self) -> &[WriteEntry] {
        &self.tx.write_set
    }

    /// Reads a word of (possibly speculative) memory directly, as a
    /// collector scanning the heap would.
    pub fn peek(&mut self, addr: Addr) -> u64 {
        self.tx.cpu.load_u64(addr)
    }

    /// Writes a word of memory directly — e.g. updating a reference to a
    /// moved object inside another object or inside the transaction's own
    /// speculative data.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.tx.cpu.store_u64(addr, value);
    }

    /// Moves object `obj` (header + `data_words` payload) to a fresh
    /// location, copying its contents — including speculative updates —
    /// and retargeting every log entry that points into it. Returns the
    /// new location. The caller (the collector) is responsible for
    /// updating other references via [`Inspector::poke`].
    ///
    /// Crucially, the transaction record *value* is copied verbatim: a
    /// record owned by the suspended transaction stays owned, and logged
    /// versions stay valid, so the transaction commits normally afterwards.
    ///
    /// # Panics
    ///
    /// Panics under [`Granularity::CacheLine`], where records are keyed by
    /// address and relocation is only sound with additional stop-the-world
    /// coordination that is out of scope here. Panics likewise under
    /// [`crate::Versioning::Multi`]: version rings are address-keyed, and
    /// relocation would copy (possibly uncommitted, eagerly stored) words
    /// to a ring-less address — breaking the snapshot path's "no ring ⇒
    /// memory is the committed value" invariant. Remapping or reseeding
    /// rings atomically with the move is out of scope here.
    pub fn relocate_object(&mut self, obj: ObjRef, data_words: u32) -> ObjRef {
        assert_eq!(
            self.tx.runtime.config().granularity,
            Granularity::Object,
            "relocation requires object-granularity conflict detection"
        );
        assert!(
            self.tx.runtime.version_store().is_none(),
            "relocation is not supported under multi-versioning (version rings are address-keyed)"
        );
        let (new_obj, _) = {
            let runtime = self.tx.runtime;
            runtime.alloc_obj_shell(self.tx.cpu, data_words)
        };
        // Copy header (the record itself) and payload.
        let words = 1 + data_words as u64;
        for w in 0..words {
            let v = self.tx.cpu.load_u64(obj.0.offset(8 * w));
            self.tx.cpu.store_u64(new_obj.0.offset(8 * w), v);
        }
        let old_lo = obj.0 .0;
        let old_hi = old_lo + 8 * words;
        let delta = new_obj.0 .0.wrapping_sub(old_lo);
        let move_addr = |a: Addr| {
            if a.0 >= old_lo && a.0 < old_hi {
                Addr(a.0.wrapping_add(delta))
            } else {
                a
            }
        };
        for e in &mut self.tx.undo_log {
            e.addr = move_addr(e.addr);
        }
        for e in &mut self.tx.read_set {
            e.rec = move_addr(e.rec);
        }
        self.tx.owned.clear();
        for (i, e) in self.tx.write_set.iter_mut().enumerate() {
            e.rec = move_addr(e.rec);
            self.tx.owned.insert(e.rec.0, i as u32);
        }
        new_obj
    }
}

impl Drop for Inspector<'_, '_, '_> {
    fn drop(&mut self) {
        if self.tx.hastm() {
            // Resumption discards marks: the transaction keeps running but
            // its next validation is a software walk (§5).
            self.tx.cpu.reset_mark_all();
        }
    }
}

impl<'c, 'm> TxThread<'c, 'm> {
    /// Suspends the in-flight transaction for external inspection (GC,
    /// debugger, profiler). See [`Inspector`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn suspend(&mut self) -> Inspector<'_, 'c, 'm> {
        assert!(self.is_active(), "suspend requires an active transaction");
        Inspector { tx: self }
    }

    /// Models the transaction's thread being context-switched out and back
    /// (OS quantum expiry, page fault): a ring transition discards all
    /// mark bits, so the resumed transaction re-marks lazily and validates
    /// in software — but, unlike an HTM transaction, it is not aborted.
    pub fn context_switch(&mut self, kernel_cycles: u64) {
        self.cpu.os_transition(kernel_cycles);
    }

    /// GC-driven version reclamation ([`crate::Versioning::Multi`] only;
    /// a no-op otherwise): prunes every version ring down to its depth
    /// bound, subject to the reclamation invariant — an entry is dropped
    /// only if a newer entry in the same ring has a stamp ≤ the oldest
    /// live read-only start, so no live (or future) snapshot reader can
    /// lose a version it could still resolve to.
    ///
    /// Rings are also pruned incrementally at each publishing commit;
    /// this entry point is for the collector's safepoint, so history
    /// pinned by a since-finished reader does not linger on cold rings
    /// until the next commit happens to touch them.
    pub fn collect_versions(&mut self) {
        if let Some(store) = self.runtime.version_store() {
            store.prune_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Granularity, StmConfig};
    use crate::runtime::StmRuntime;
    use hastm_sim::{Machine, MachineConfig};

    fn setup(config: StmConfig) -> (Machine, StmRuntime) {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        (m, rt)
    }

    #[test]
    fn suspend_inspect_resume_commit() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.write_word(o, 0, 5).unwrap();
            {
                let insp = tx.suspend();
                assert_eq!(insp.undo_entries().len(), 1);
                assert_eq!(insp.write_entries().len(), 1);
            }
            // Resumed without aborting; commits with software validation
            // because resetmarkall dirtied the counter.
            tx.commit().expect("resume without abort");
            assert_eq!(tx.stats().validations_full, 1);
            assert_eq!(tx.stats().validations_skipped, 0);
        });
    }

    #[test]
    fn relocation_preserves_speculative_state() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(2);
            tx.atomic(|tx| tx.write_word(o, 1, 70)); // committed state
            tx.begin(0);
            let read_back = tx.read_word(o, 1).unwrap();
            assert_eq!(read_back, 70);
            tx.write_word(o, 0, 41).unwrap(); // speculative state
            let new_o = {
                let mut insp = tx.suspend();
                insp.relocate_object(o, 2)
            };
            assert_ne!(new_o, o);
            // Transaction continues against the moved object.
            let v = tx.read_word(new_o, 0).unwrap();
            assert_eq!(v, 41, "speculative value moved with the object");
            tx.write_word(new_o, 0, v + 1).unwrap();
            tx.commit().expect("commit after relocation");
            tx.begin(0);
            assert_eq!(tx.read_word(new_o, 0).unwrap(), 42);
            assert_eq!(tx.read_word(new_o, 1).unwrap(), 70);
            tx.commit().unwrap();
        });
    }

    #[test]
    fn relocation_then_abort_rolls_back_at_new_location() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| tx.write_word(o, 0, 10));
            tx.begin(0);
            tx.write_word(o, 0, 99).unwrap();
            let new_o = {
                let mut insp = tx.suspend();
                insp.relocate_object(o, 1)
            };
            tx.abort(crate::Abort::Explicit);
            // The undo entry was retargeted: the *new* copy is rolled back.
            tx.begin(0);
            assert_eq!(tx.read_word(new_o, 0).unwrap(), 10);
            tx.commit().unwrap();
        });
    }

    #[test]
    fn context_switch_mid_transaction_survives() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| tx.write_word(o, 0, 1));
            tx.begin(0);
            let v = tx.read_word(o, 0).unwrap();
            tx.context_switch(10_000);
            tx.write_word(o, 0, v + 1).unwrap();
            tx.commit().expect("transaction spans the context switch");
            assert_eq!(tx.stats().validations_full, 1, "software validation");
            tx.begin(0);
            assert_eq!(tx.read_word(o, 0).unwrap(), 2);
            tx.commit().unwrap();
        });
    }

    #[test]
    #[should_panic(expected = "object-granularity")]
    fn relocation_rejected_at_cacheline_granularity() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.write_word(o, 0, 1).unwrap();
            let mut insp = tx.suspend();
            let _ = insp.relocate_object(o, 1);
        });
    }

    #[test]
    #[should_panic(expected = "multi-versioning")]
    fn relocation_rejected_under_multi_versioning() {
        use crate::config::Versioning;
        let cfg = StmConfig::stm(Granularity::Object).with_versioning(Versioning::Multi { k: 2 });
        let (mut m, rt) = setup(cfg);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.write_word(o, 0, 1).unwrap();
            let mut insp = tx.suspend();
            let _ = insp.relocate_object(o, 1);
        });
    }

    #[test]
    fn collect_versions_prunes_unpinned_history() {
        use crate::config::Versioning;
        let cfg = StmConfig::stm(Granularity::Object).with_versioning(Versioning::Multi { k: 2 });
        let (mut m, rt) = setup(cfg);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            for i in 0..5 {
                tx.atomic(|tx| tx.write_word(o, 0, i));
            }
            let store = rt.version_store().unwrap();
            let addr = o.word(0).0;
            assert!(store.ring_stamps(addr).len() <= 2, "commit-path pruning");
            // Pin history, over-fill the ring, then collect.
            let slot = store.snapshots().claim().unwrap();
            store.snapshots().pin(slot, || 0);
            for i in 5..9 {
                tx.atomic(|tx| tx.write_word(o, 0, i));
            }
            assert!(store.ring_stamps(addr).len() > 2, "pinned history grows");
            store.snapshots().release(slot);
            tx.collect_versions();
            assert_eq!(store.ring_stamps(addr).len(), 2, "safepoint reclaims");
        });
    }

    #[test]
    fn poke_updates_reference_during_pause() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let holder = tx.alloc_obj(1);
            let target = tx.alloc_obj(1);
            tx.atomic(|tx| tx.write_word_meta(holder, 0, target.0 .0, 1));
            tx.begin(0);
            let t = ObjRef(Addr(tx.read_word(holder, 0).unwrap()));
            assert_eq!(t, target);
            let moved = {
                let mut insp = tx.suspend();
                let moved = insp.relocate_object(target, 1);
                // Collector fixes the reference in holder.
                insp.poke(holder.word(0), moved.0 .0);
                moved
            };
            let t2 = ObjRef(Addr(tx.read_word(holder, 0).unwrap()));
            assert_eq!(t2, moved);
            tx.commit().expect("reference fix-up did not abort us");
        });
    }
}
