//! Read and write barriers: the paper's inlined code sequences, charged
//! instruction-by-instruction against the simulator.
//!
//! | sequence | paper | fast path | slow path |
//! |---|---|---|---|
//! | STM read barrier (object) | Fig. 4 | 12 instructions | contention/overflow |
//! | HASTM cautious read (object) | Fig. 5 | **2** instructions | ~14 |
//! | HASTM cautious read (cache line) | Fig. 7 | **2** instructions (includes the data load) | ~16 |
//! | HASTM aggressive read (object) | Fig. 8 | 2 | 7 |
//! | HASTM aggressive read (cache line) | Fig. 9 | 2 | ~9 |
//! | STM/HASTM write barrier | Fig. 3 | CAS + logging | contention |
//!
//! The aggressive-mode sequences are the cautious ones plus a mode test
//! that skips read-set logging; the cache-line sequences fold the data load
//! into the barrier (`loadtestmark_granularity64` both loads the datum and
//! tests its line's marks).

use hastm_sim::Addr;

use crate::config::{Abort, BarrierKind, Granularity, Mode, TxResult};
use crate::log::{ReadEntry, UndoEntry, WriteEntry};
use crate::record::RecValue;
use crate::runtime::ObjRef;
use crate::stats::Category;
use crate::txn::TxThread;

/// Descriptor offset of the mode word (must match `txn.rs`).
const DESC_MODE: u64 = 32;

/// Re-probes [`TxThread::handle_contention`] spends, with exponential
/// backoff, on an owned record before it gives up and aborts.
const MAX_PROBES: u32 = 16;

impl TxThread<'_, '_> {
    // ------------------------------------------------------------------
    // Contention management
    // ------------------------------------------------------------------

    /// The paper's `handleContention`: waits, with bounded exponential
    /// backoff, for an owned record to return to the shared state and
    /// yields its version, or aborts the transaction.
    pub(crate) fn handle_contention(&mut self, rec: Addr) -> TxResult<RecValue> {
        self.stats.contention_encounters += 1;
        let t0 = self.cpu.now();
        let mut result = Err(Abort::Conflict);
        for probe in 0..MAX_PROBES {
            // Exponential backoff with jitter before re-probing.
            let base = 16u64 << probe.min(8);
            let jitter = self.next_rand() % base.max(1);
            self.cpu.tick(base + jitter);
            let v = RecValue(self.cpu.load_u64(rec));
            self.cpu.exec(2);
            if v.is_version() {
                result = Ok(v);
                break;
            }
        }
        let dt = self.cpu.now() - t0;
        self.attribute(Category::Contention, dt);
        result
    }

    // ------------------------------------------------------------------
    // Read barriers
    // ------------------------------------------------------------------

    /// Base STM read barrier on a transaction record (Figure 4). The datum
    /// itself is loaded separately by the caller.
    pub(crate) fn stm_read_barrier(&mut self, rec: Addr) -> TxResult<()> {
        let v = RecValue(self.cpu.load_u64(rec)); // mov eax,[rec]
        self.cpu.exec(2); // cmp txndesc + jeq
        if v.is_owned() && v.owner() == self.desc {
            return Ok(()); // exclusive; nothing to log
        }
        self.cpu.tick(2); // test versionmask + jz
        let v = if v.is_version() {
            v
        } else {
            self.handle_contention(rec)?
        };
        self.log_read(rec, v);
        self.stats.read_slow_path += 1;
        Ok(())
    }

    /// HASTM read barrier on a transaction record, object granularity
    /// (Figure 5 cautious / Figure 8 aggressive).
    pub(crate) fn hastm_read_barrier_obj(&mut self, rec: Addr) -> TxResult<()> {
        let no_reuse = self.runtime.config().no_reuse;
        if !no_reuse {
            let (_, marked) = self.cpu.load_test_mark_u64(rec); // loadtestmark
            self.cpu.exec(1); // jnae done
            self.cpu.mark_branch_penalty();
            if marked {
                // 2-instruction fast path: this transaction already marked
                // (and therefore logged or owns) the record, and the line
                // was never invalidated since.
                self.stats.read_fast_path += 1;
                return Ok(());
            }
        }
        let v = RecValue(self.cpu.load_set_mark_u64(rec)); // loadsetmark
        self.cpu.exec(2); // test versionmask + jz
        let v = if v.is_version() {
            v
        } else if v.owner() == self.desc {
            self.cpu.exec(1); // contentionOrRecursion: recursion case
            self.stats.read_slow_path += 1;
            return Ok(());
        } else {
            match self.handle_contention(rec) {
                Ok(v) => v,
                Err(cause) => {
                    // The loadsetmark above already marked the record, but
                    // nothing was logged: clear the mark, or a partial
                    // rollback followed by a retry would trust the filter
                    // fast path on a record this transaction never
                    // validated ("marked => logged or owned" would break).
                    self.cpu.load_reset_mark_u64(rec);
                    return Err(cause);
                }
            }
        };
        self.stats.read_slow_path += 1;
        // Aggressive mode skips read-set logging (Figure 8): the marked
        // line plus the mark counter *are* the read set.
        self.cpu.load_u64(self.desc.offset(DESC_MODE)); // test [txndesc+mode]
        self.cpu.exec(1); // jnz done
        if self.mode == Mode::Aggressive {
            self.stats.reads_unlogged += 1;
            return Ok(());
        }
        self.log_read(rec, v);
        Ok(())
    }

    /// HASTM combined read barrier + data load, cache-line granularity
    /// (Figure 7 cautious / Figure 9 aggressive). Returns the loaded word.
    pub(crate) fn hastm_read_cacheline(&mut self, addr: Addr) -> TxResult<u64> {
        let no_reuse = self.runtime.config().no_reuse;
        if !no_reuse {
            let (data, marked) = self.cpu.load_test_mark_line(addr); // loadtestmark_g64
            self.cpu.exec(1); // jnae complete
            self.cpu.mark_branch_penalty();
            if marked {
                // 2 instructions total, and the load itself already
                // happened: barrier cost fully eliminated.
                self.stats.read_fast_path += 1;
                return Ok(data);
            }
        }
        self.cpu.exec(3); // mov/and/add: hash address into record table
        let rec = self.runtime.rec_table().record_for(addr);
        // Both modes mark the record line (Figure 9 shows it for
        // aggressive; cautious needs it for the clean-counter commit to be
        // sound). The version check below and the marked data load at the
        // end are two instructions apart: a writer that acquires `rec` in
        // that window and stores in place would hand us its dirty datum
        // while our logged version stays valid-looking — if it then rolls
        // back, no version comparison can ever tell. Marking `rec` closes
        // the window: that acquire invalidates our marked record line,
        // dirties the counter, and commit falls into the software walk,
        // which sees the record owned (or re-released at a bumped version)
        // and aborts us.
        let v = RecValue(self.cpu.load_set_mark_line(rec));
        self.cpu.tick(2); // test versionmask + jz
        let v = if v.is_version() {
            v
        } else if v.owner() == self.desc {
            // Recursion: we own the line; just load the datum.
            self.cpu.exec(1);
            self.stats.read_slow_path += 1;
            return Ok(self.cpu.load_u64(addr));
        } else {
            self.handle_contention(rec)?
        };
        self.stats.read_slow_path += 1;
        self.cpu.load_u64(self.desc.offset(DESC_MODE)); // mode test
        self.cpu.exec(1);
        if self.mode != Mode::Aggressive {
            self.log_read(rec, v);
        } else {
            self.stats.reads_unlogged += 1;
        }
        // loadsetmark_granularity64 eax,[addr]: load the datum and mark its
        // line so subsequent reads of the line take the fast path.
        let data = self.cpu.load_set_mark_line(addr);
        Ok(data)
    }

    /// Appends to the read set: host entry plus the simulated log traffic.
    fn log_read(&mut self, rec: Addr, version: RecValue) {
        self.read_set.push(ReadEntry { rec, version });
        self.rd_region
            .append(self.cpu, self.runtime.heap(), &[rec.0, version.0]);
    }

    // ------------------------------------------------------------------
    // Write barrier
    // ------------------------------------------------------------------

    /// Write barrier on a transaction record (Figure 3): acquires exclusive
    /// ownership via CAS and logs the previous version. Under HASTM the
    /// record is additionally marked so subsequent read barriers take the
    /// fast path (§5). With [`crate::StmConfig::filter_writes`], a second
    /// mark filter turns repeat acquisitions into a 2-instruction fast path
    /// (the §5 "filter STM write barrier" extension).
    pub(crate) fn write_barrier(&mut self, rec: Addr) -> TxResult<()> {
        if self.runtime.config().filter_writes && self.hastm() {
            let (_, marked) = self
                .cpu
                .load_test_mark_u64_f(hastm_sim::FilterId::WRITE, rec);
            self.cpu.exec(1); // branch
            self.cpu.mark_branch_penalty();
            if marked {
                // Write-filter invariant: marked in the WRITE filter =>
                // this transaction already owns the record.
                self.stats.write_fast_path += 1;
                return Ok(());
            }
        }
        let v = RecValue(self.cpu.load_u64(rec));
        self.cpu.exec(2); // cmp txndesc + jeq
        if v.is_owned() && v.owner() == self.desc {
            return Ok(());
        }
        self.cpu.tick(2); // test versionmask + jz
        let mut v = if v.is_version() {
            v
        } else {
            self.handle_contention(rec)?
        };
        loop {
            let old = self.cpu.cas_u64(rec, v.0, RecValue::owned_by(self.desc).0);
            self.cpu.exec(1);
            if old == v.0 {
                break;
            }
            let cur = RecValue(old);
            v = if cur.is_version() {
                cur
            } else {
                self.handle_contention(rec)?
            };
        }
        if self.runtime.config().barrier == BarrierKind::Hastm {
            // Mark the now-owned record: reads-after-write filter out.
            self.cpu.load_set_mark_u64(rec);
            self.cpu.exec(1);
            if self.runtime.config().filter_writes {
                // And mark it in the write filter: writes-after-write too.
                self.cpu
                    .load_set_mark_u64_f(hastm_sim::FilterId::WRITE, rec);
            }
        }
        self.owned.insert(rec.0, self.write_set.len() as u32);
        self.write_set.push(WriteEntry { rec, prev: v });
        self.wr_region
            .append(self.cpu, self.runtime.heap(), &[rec.0, v.0]);
        self.check_ownership("write_barrier");
        Ok(())
    }

    /// Undo-logs the current value of `addr` (with GC metadata) before an
    /// in-place update.
    pub(crate) fn log_undo(&mut self, addr: Addr, meta: u64) {
        let old = self.cpu.load_u64(addr);
        self.undo_log.push(UndoEntry { addr, old, meta });
        self.undo_region
            .append(self.cpu, self.runtime.heap(), &[addr.0, old, meta]);
    }

    // ------------------------------------------------------------------
    // Public data access
    // ------------------------------------------------------------------

    /// The record guarding `addr` for an object rooted at `obj`.
    fn record_of(&self, obj: ObjRef, addr: Addr) -> Addr {
        match self.runtime.config().granularity {
            Granularity::Object => obj.header(),
            Granularity::CacheLine => self.runtime.rec_table().record_for(addr),
        }
    }

    /// Transactionally reads data word `index` of `obj`.
    ///
    /// # Errors
    ///
    /// Propagates the abort cause on conflict (the enclosing
    /// [`TxThread::atomic`] loop rolls back and retries).
    ///
    /// # Panics
    ///
    /// Panics (debug) if no transaction is active.
    pub fn read_word(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        debug_assert!(self.is_active(), "read outside a transaction");
        if self.serial {
            return Ok(self.serial_read(obj.word(index)));
        }
        if self.is_snapshot() {
            return self.snapshot_read_word(obj, index);
        }
        let addr = obj.word(index);

        self.attribute(Category::TlsAccess, 1);
        self.cpu.exec(1); // gettxndesc (TLS access)
        let cfg = (
            self.runtime.config().barrier,
            self.runtime.config().granularity,
        );
        let value = match cfg {
            (BarrierKind::Hastm, Granularity::CacheLine) => {
                let v = self.timed(Category::ReadBarrier, |t| t.hastm_read_cacheline(addr))?;
                self.maybe_validate()?;
                v
            }
            (BarrierKind::Hastm, Granularity::Object) => {
                self.timed(Category::ReadBarrier, |t| {
                    t.hastm_read_barrier_obj(obj.header())
                })?;
                self.maybe_validate()?;
                self.cpu.load_u64(addr)
            }
            (BarrierKind::Stm, g) => {
                let rec = match g {
                    Granularity::Object => obj.header(),
                    Granularity::CacheLine => {
                        self.cpu.exec(3); // hash sequence
                        self.runtime.rec_table().record_for(addr)
                    }
                };
                self.timed(Category::ReadBarrier, |t| t.stm_read_barrier(rec))?;
                self.maybe_validate()?;
                self.cpu.load_u64(addr)
            }
        };
        self.oracle.note_read(addr, value);
        Ok(value)
    }

    /// Wait-free snapshot read for a declared read-only transaction under
    /// [`crate::Versioning::Multi`]: no record access, no read logging, no
    /// validation. The value is the newest committed version with stamp ≤
    /// the transaction's start stamp, straight from the word's version
    /// ring — or memory itself for words with no ring: a ring is seeded
    /// with the committed pre-image *before* any eager in-place store, so
    /// a ring miss implies the word was never transactionally stored to
    /// and memory still holds its only committed value.
    fn snapshot_read_word(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        let addr = obj.word(index);
        self.attribute(Category::TlsAccess, 1);
        self.cpu.exec(1); // gettxndesc
        let store = self
            .runtime
            .version_store()
            .expect("snapshot read without a version store");
        let start = self.ro_start;
        let value = self.timed(Category::ReadBarrier, |t| {
            let mem = t.cpu.load_u64(addr); // the data load (ring-miss value)
                                            // Ring probe (hash, bound check, select), gated so its order
                                            // against concurrent stamp publications is the deterministic
                                            // admission order rather than a host-lock race.
            t.cpu
                .exec_sync(3, || store.snapshot_read(addr.0, start))
                .unwrap_or(mem)
        });
        self.stats.snapshot_reads += 1;
        self.oracle.note_read(addr, value);
        Ok(value)
    }

    /// Irrevocable serial-phase read: the token holder is alone, so the
    /// plain load *is* the committed value — no record access, no read
    /// logging, no validation (the barrier collapses to the bare load).
    fn serial_read(&mut self, addr: Addr) -> u64 {
        let value = self.timed(Category::ReadBarrier, |t| t.cpu.load_u64(addr));
        self.stats.reads_unlogged += 1;
        self.oracle.note_read(addr, value);
        value
    }

    /// Irrevocable serial-phase write: direct store with an undo entry
    /// (user-initiated aborts must still roll back), no record
    /// acquisition and no version bump — by exclusivity no optimistic
    /// reader can be validating against this word concurrently.
    fn serial_write(&mut self, addr: Addr, value: u64, meta: u64) {
        self.timed(Category::WriteBarrier, |t| t.log_undo(addr, meta));
        if let Some(store) = self.runtime.version_store() {
            // Keep snapshot history exact across the serial phase: seed
            // the pre-image so the commit-time publication stamps this
            // word's final value (see `commit_serial`).
            store.seed(addr.0, self.cpu.peek_u64(addr));
        }
        self.oracle.note_write(addr);
        self.cpu.store_u64(addr, value);
    }

    /// Transactionally writes data word `index` of `obj` (eager, in-place,
    /// undo-logged).
    ///
    /// # Errors
    ///
    /// Propagates the abort cause on conflict.
    pub fn write_word(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        self.write_word_meta(obj, index, value, 0)
    }

    /// [`TxThread::write_word`] with an explicit GC-metadata tag for the
    /// undo entry (e.g. "this slot holds a reference").
    pub fn write_word_meta(
        &mut self,
        obj: ObjRef,
        index: u32,
        value: u64,
        meta: u64,
    ) -> TxResult<()> {
        debug_assert!(self.is_active(), "write outside a transaction");
        assert!(
            !self.is_snapshot(),
            "transactional write inside an atomic_ro region on a snapshot path"
        );
        if self.serial {
            self.serial_write(obj.word(index), value, meta);
            return Ok(());
        }
        let addr = obj.word(index);
        self.attribute(Category::TlsAccess, 1);
        self.cpu.exec(1); // gettxndesc
        if self.runtime.config().granularity == Granularity::CacheLine {
            self.cpu.exec(3); // hash sequence
        }
        let rec = self.record_of(obj, addr);
        let filter_writes = self.runtime.config().filter_writes && self.hastm();
        self.timed(Category::WriteBarrier, |t| {
            t.write_barrier(rec)?;
            if filter_writes {
                // Undo-log elision (§5 extension): a word already undo-
                // logged within the innermost nesting scope needs no second
                // entry — rollback restores the oldest value anyway.
                t.cpu.exec(1); // filter probe
                let scope_base = t.savepoints.last().map_or(0, |sp| sp.undos);
                if t.undo_logged
                    .get(addr.0)
                    .is_some_and(|i| i as usize >= scope_base)
                {
                    t.stats.undo_elided += 1;
                    return Ok(());
                }
                t.undo_logged.insert(addr.0, t.undo_log.len() as u32);
            }
            t.log_undo(addr, meta);
            Ok(())
        })?;
        if let Some(store) = self.runtime.version_store() {
            // Seed the ring with the committed pre-image before the eager
            // in-place store: from here until commit (publication) or
            // rollback, memory holds a dirty value, and concurrent
            // snapshot readers must resolve this word from its ring. The
            // record is owned (2PL), so memory still holds a committed
            // value unless this transaction already dirtied it — in which
            // case the ring exists (the first write seeded it) and the
            // seed is a no-op. Host-side bookkeeping, no simulated cost.
            store.seed(addr.0, self.cpu.peek_u64(addr));
        }
        self.oracle.note_write(addr);
        self.cpu.store_u64(addr, value);
        Ok(())
    }

    /// Transactionally reads a raw word (cache-line granularity only; used
    /// by the synthetic kernels that model unmanaged C/C++ critical
    /// sections).
    ///
    /// # Errors
    ///
    /// Propagates the abort cause on conflict.
    ///
    /// # Panics
    ///
    /// Panics under [`Granularity::Object`], which requires object roots.
    pub fn read_raw(&mut self, addr: Addr) -> TxResult<u64> {
        assert_eq!(
            self.runtime.config().granularity,
            Granularity::CacheLine,
            "read_raw requires cache-line granularity"
        );
        self.read_word(ObjRef(Addr(addr.0 - 8)), 0)
    }

    /// Transactionally writes a raw word (cache-line granularity only).
    ///
    /// # Errors
    ///
    /// Propagates the abort cause on conflict.
    ///
    /// # Panics
    ///
    /// Panics under [`Granularity::Object`].
    pub fn write_raw(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        assert_eq!(
            self.runtime.config().granularity,
            Granularity::CacheLine,
            "write_raw requires cache-line granularity"
        );
        self.write_word(ObjRef(Addr(addr.0 - 8)), 0, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use crate::runtime::StmRuntime;
    use hastm_sim::{Machine, MachineConfig};

    fn setup(config: StmConfig) -> (Machine, StmRuntime) {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        (m, rt)
    }

    #[test]
    fn stm_read_logs_version() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.stm_read_barrier(o.header()).unwrap();
            assert_eq!(tx.read_set.len(), 1);
            assert_eq!(tx.read_set[0].version, RecValue::INITIAL);
            // Duplicate reads log duplicates (Figure 4 has no dedup).
            tx.stm_read_barrier(o.header()).unwrap();
            assert_eq!(tx.read_set.len(), 2);
            tx.commit().unwrap();
        });
    }

    #[test]
    fn hastm_obj_second_read_takes_fast_path() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            assert_eq!(tx.stats().read_slow_path, 1);
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            assert_eq!(tx.stats().read_fast_path, 1);
            // Only one read-set entry: the fast path skips logging.
            assert_eq!(tx.read_set.len(), 1);
            tx.commit().unwrap();
        });
    }

    #[test]
    fn hastm_fast_path_is_cheaper() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::Object));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            let t0 = tx.cpu.now();
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            let slow = tx.cpu.now() - t0;
            let t1 = tx.cpu.now();
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            let fast = tx.cpu.now() - t1;
            assert!(
                fast * 3 <= slow,
                "fast path ({fast}) should be far cheaper than slow ({slow})"
            );
            tx.commit().unwrap();
        });
    }

    #[test]
    fn aggressive_mode_elides_read_logging() {
        let (mut m, rt) = setup(StmConfig::hastm(
            Granularity::Object,
            crate::config::ModePolicy::NaiveAggressive,
        ));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            assert_eq!(tx.mode(), Mode::Aggressive);
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            assert_eq!(tx.read_set.len(), 0, "no read log in aggressive mode");
            assert_eq!(tx.stats().reads_unlogged, 1);
            tx.commit().expect("clean counter commits");
            assert_eq!(tx.stats().aggressive_commits, 1);
        });
    }

    #[test]
    fn no_reuse_disables_fast_path_only() {
        let mut cfg = StmConfig::hastm_cautious(Granularity::Object);
        cfg.no_reuse = true;
        let (mut m, rt) = setup(cfg);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            tx.hastm_read_barrier_obj(o.header()).unwrap();
            assert_eq!(tx.stats().read_fast_path, 0);
            assert_eq!(tx.stats().read_slow_path, 2);
            // Validation elimination still works.
            tx.commit().unwrap();
            assert_eq!(tx.stats().validations_skipped, 1);
        });
    }

    #[test]
    fn write_barrier_acquires_and_releases() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::Object));
        let header = m
            .run_one(|cpu| {
                let mut tx = TxThread::new(&rt, cpu);
                let o = tx.alloc_obj(1);
                tx.begin(0);
                tx.write_barrier(o.header()).unwrap();
                assert_eq!(
                    RecValue(tx.cpu.load_u64(o.header())).owner(),
                    tx.desc,
                    "record owned during transaction"
                );
                // Idempotent re-acquisition.
                tx.write_barrier(o.header()).unwrap();
                assert_eq!(tx.write_set.len(), 1);
                tx.commit().unwrap();
                o.header()
            })
            .0;
        // Released with a bumped version: v0 -> v1 (raw 0 -> 2).
        assert_eq!(m.peek_u64(header), 2);
    }

    #[test]
    fn read_write_words_roundtrip_all_configs() {
        for cfg in [
            StmConfig::stm(Granularity::Object),
            StmConfig::stm(Granularity::CacheLine),
            StmConfig::hastm_cautious(Granularity::Object),
            StmConfig::hastm_cautious(Granularity::CacheLine),
            StmConfig::hastm(
                Granularity::Object,
                crate::config::ModePolicy::NaiveAggressive,
            ),
            StmConfig::hastm(
                Granularity::CacheLine,
                crate::config::ModePolicy::NaiveAggressive,
            ),
        ] {
            let label = format!("{cfg:?}");
            let (mut m, rt) = setup(cfg);
            let (v, _) = m.run_one(|cpu| {
                let mut tx = TxThread::new(&rt, cpu);
                let o = tx.alloc_obj(2);
                tx.begin(0);
                tx.write_word(o, 0, 123).unwrap();
                tx.write_word(o, 1, 456).unwrap();
                let a = tx.read_word(o, 0).unwrap();
                let b = tx.read_word(o, 1).unwrap();
                tx.commit().unwrap();
                a + b
            });
            assert_eq!(v, 579, "config {label}");
        }
    }

    #[test]
    fn cacheline_fast_path_covers_neighboring_words() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            // An object whose two words share one cache line.
            let o = tx.alloc_obj(2);
            assert_eq!(o.word(0).line(), o.word(1).line());
            tx.begin(0);
            tx.read_word(o, 0).unwrap();
            let slow = tx.stats().read_slow_path;
            tx.read_word(o, 1).unwrap();
            assert_eq!(tx.stats().read_slow_path, slow, "same line filters");
            assert_eq!(tx.stats().read_fast_path, 1);
            tx.commit().unwrap();
        });
    }

    #[test]
    fn undo_log_restores_on_abort() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.begin(0);
            tx.write_word(o, 0, 7).unwrap();
            tx.commit().unwrap();
            tx.begin(0);
            tx.write_word(o, 0, 9).unwrap();
            tx.abort(Abort::Explicit);
            tx.begin(0);
            let v = tx.read_word(o, 0).unwrap();
            tx.commit().unwrap();
            assert_eq!(v, 7, "aborted write rolled back");
        });
    }

    #[test]
    fn raw_access_requires_cacheline() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::CacheLine));
        let heap = rt.heap().clone();
        let cell = heap.alloc(16); // 16-aligned; +8 is the "raw" word
        let raw = cell.offset(8);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.begin(0);
            tx.write_raw(raw, 55).unwrap();
            let v = tx.read_raw(raw).unwrap();
            tx.commit().unwrap();
            assert_eq!(v, 55);
        });
    }
}
