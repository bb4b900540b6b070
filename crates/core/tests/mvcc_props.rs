//! Property tests for multi-version concurrency: the committed-version
//! store must agree with an unbounded host-side history model, snapshot
//! scans must never abort or tear under random simulated interleavings,
//! and `Versioning::Multi` must be observationally equivalent to
//! `Versioning::Single` wherever the two can be compared exactly.

#![cfg(not(feature = "mvcc-seeded-bug"))]

use std::collections::HashMap;

use hastm::{Granularity, ObjRef, StmConfig, StmRuntime, TxThread, VersionStore, Versioning};
use hastm_sim::{Machine, MachineConfig, WorkerFn};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. VersionStore vs an unbounded reference history.
// ---------------------------------------------------------------------------

const ADDRS: u64 = 6;

/// One step of a random version-store script.
#[derive(Clone, Debug)]
enum StoreOp {
    /// Seed `addr` with a pre-image (first seed wins, like the barrier).
    Seed { addr: u64, val: u64 },
    /// Commit-publish a write set (later duplicates win).
    Commit { writes: Vec<(u64, u64)> },
    /// Register a read-only transaction at the current stamp.
    Register,
    /// Deregister one live reader (index modulo the live count).
    Deregister { pick: usize },
    /// Compare every `(live reader, addr)` read against the model.
    ReadAll,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        2 => (0..ADDRS, any::<u64>()).prop_map(|(addr, val)| StoreOp::Seed { addr, val }),
        4 => proptest::collection::vec((0..ADDRS, any::<u64>()), 1..4)
            .prop_map(|writes| StoreOp::Commit { writes }),
        2 => Just(StoreOp::Register),
        2 => any::<usize>().prop_map(|pick| StoreOp::Deregister { pick }),
        3 => Just(StoreOp::ReadAll),
    ]
}

/// Unbounded committed history: exactly what the store would hold with
/// infinite ring depth and no reclamation.
#[derive(Default)]
struct History {
    rings: HashMap<u64, Vec<(u64, u64)>>,
    stamp: u64,
}

impl History {
    fn seed(&mut self, addr: u64, val: u64) {
        self.rings.entry(addr).or_insert_with(|| vec![(0, val)]);
    }

    fn commit(&mut self, writes: &[(u64, u64)]) {
        self.stamp += 1;
        for &(addr, val) in writes {
            let ring = self.rings.entry(addr).or_default();
            match ring.last_mut() {
                Some(last) if last.0 == self.stamp => last.1 = val,
                _ => ring.push((self.stamp, val)),
            }
        }
    }

    fn read(&self, addr: u64, start: u64) -> Option<u64> {
        let ring = self.rings.get(&addr)?;
        let idx = ring.partition_point(|&(stamp, _)| stamp <= start);
        idx.checked_sub(1).map(|i| ring[i].1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every read a registered (pinned) reader can issue returns exactly
    /// what the unbounded history says — reclamation may drop ring
    /// entries, but never one a live or fresh reader can resolve to, and
    /// a returned value is always a committed (or seeded pre-image)
    /// value, never an invented or reclaimed one.
    #[test]
    fn store_reads_match_unbounded_history(
        depth in 1usize..5,
        ops in proptest::collection::vec(store_op(), 1..40),
    ) {
        fn check_reader(
            store: &VersionStore,
            model: &History,
            start: u64,
        ) -> Result<(), TestCaseError> {
            for addr in 0..ADDRS {
                prop_assert_eq!(
                    store.snapshot_read(addr, start),
                    model.read(addr, start),
                    "addr {} at start {} diverged from the history model",
                    addr,
                    start
                );
            }
            Ok(())
        }

        let store = VersionStore::new(depth);
        let mut model = History::default();
        let mut live: Vec<u64> = Vec::new();

        for op in &ops {
            match op {
                StoreOp::Seed { addr, val } => {
                    store.seed(*addr, *val);
                    model.seed(*addr, *val);
                }
                StoreOp::Commit { writes } => {
                    let stamp = store.commit_publish(writes);
                    model.commit(writes);
                    prop_assert_eq!(stamp, model.stamp, "stamps must stay in lockstep");
                }
                StoreOp::Register => {
                    let start = store.current_stamp();
                    store.register_ro(start);
                    live.push(start);
                }
                StoreOp::Deregister { pick } => {
                    if !live.is_empty() {
                        let start = live.swap_remove(pick % live.len());
                        store.deregister_ro(start);
                    }
                }
                StoreOp::ReadAll => {
                    for &start in &live {
                        check_reader(&store, &model, start)?;
                    }
                    // A fresh reader beginning now must see the newest
                    // committed state regardless of pruning.
                    let now = store.current_stamp();
                    store.register_ro(now);
                    check_reader(&store, &model, now)?;
                    store.deregister_ro(now);
                }
            }
        }

        // With every reader gone, pruning converges each ring to its
        // depth bound while the newest committed values survive.
        for start in live.drain(..) {
            store.deregister_ro(start);
        }
        store.prune_all();
        let now = store.current_stamp();
        for addr in 0..ADDRS {
            prop_assert!(store.ring_stamps(addr).len() <= depth);
            prop_assert_eq!(store.snapshot_read(addr, now), model.read(addr, now));
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Simulated interleavings: snapshot scans never abort, never tear.
// ---------------------------------------------------------------------------

const CELLS: usize = 6;

fn cell_init(i: usize) -> u64 {
    100 * (i as u64 + 1)
}

fn ledger_total() -> u64 {
    (0..CELLS).map(cell_init).sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Two writers make random zero-sum transfers while two read-only
    /// scanners (with random think time, so their snapshots span many
    /// commits) repeatedly sum the ledger under the deterministic
    /// simulator. Under `Multi(k)` — any k, including 1 — every scan
    /// must balance and not one may conflict-abort.
    #[test]
    fn snapshot_scans_never_abort_or_tear(
        k in 1usize..4,
        transfers in proptest::collection::vec(
            (0..CELLS, 0..CELLS, 1u64..10, 0u64..30),
            4..24,
        ),
        scans in 2usize..8,
        think in 0u64..40,
    ) {
        let cfg = StmConfig::stm(Granularity::CacheLine)
            .with_versioning(Versioning::Multi { k });
        let mut m = Machine::new(MachineConfig::with_cores(4));
        let rt = StmRuntime::new(&mut m, cfg);
        let cells: Vec<ObjRef> = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let cells: Vec<ObjRef> = (0..CELLS).map(|_| tx.alloc_obj(1)).collect();
            tx.atomic(|tx| {
                for (i, c) in cells.iter().enumerate() {
                    tx.write_word(*c, 0, cell_init(i))?;
                }
                Ok(())
            });
            cells
        }).0;

        let rt_ref = &rt;
        let cells_ref = &cells[..];
        let transfers_ref = &transfers[..];
        let mut workers: Vec<WorkerFn<'_>> = Vec::new();
        for w in 0..2usize {
            workers.push(Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                for (i, &(from, to, shift, tick)) in transfers_ref.iter().enumerate() {
                    if i % 2 != w || from == to {
                        continue;
                    }
                    tx.atomic(|tx| {
                        let vf = tx.read_word(cells_ref[from], 0)?;
                        let vt = tx.read_word(cells_ref[to], 0)?;
                        tx.cpu().tick(tick);
                        tx.write_word(cells_ref[from], 0, vf.wrapping_sub(shift))?;
                        tx.write_word(cells_ref[to], 0, vt.wrapping_add(shift))
                    });
                }
            }));
        }
        for _ in 0..2usize {
            workers.push(Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                for _ in 0..scans {
                    let sum = tx.atomic_ro(|tx| {
                        let mut sum = 0u64;
                        for c in cells_ref {
                            sum = sum.wrapping_add(tx.read_word(*c, 0)?);
                            tx.cpu().tick(think);
                        }
                        Ok(sum)
                    });
                    assert_eq!(sum, ledger_total(), "torn snapshot scan");
                }
                let st = tx.stats();
                assert_eq!(st.ro_commits, scans as u64);
                assert_eq!(st.ro_aborts, 0, "read-only snapshot aborted: {st:?}");
                assert!(st.snapshot_reads >= (scans * CELLS) as u64);
            }));
        }
        m.run(workers);

        let total = cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(m.peek_u64(c.word(0))));
        prop_assert_eq!(total, ledger_total(), "ledger total drifted");
    }
}

// ---------------------------------------------------------------------------
// 3. Observational equivalence: Multi vs Single where exactly comparable.
// ---------------------------------------------------------------------------

/// One step of a random single-threaded program.
#[derive(Clone, Debug)]
enum ProgOp {
    /// One read-write transaction committing this write set.
    Txn { writes: Vec<(usize, u64)> },
    /// One read-only transaction observing every cell.
    Scan,
}

fn prog_op() -> impl Strategy<Value = ProgOp> {
    prop_oneof![
        3 => proptest::collection::vec((0..CELLS, any::<u64>()), 1..4)
            .prop_map(|writes| ProgOp::Txn { writes }),
        2 => Just(ProgOp::Scan),
    ]
}

/// Runs `prog` on one simulated core and returns every value the scans
/// observed plus the final cell contents.
fn run_prog(versioning: Versioning, prog: &[ProgOp]) -> (Vec<u64>, Vec<u64>) {
    let cfg = StmConfig::stm(Granularity::CacheLine).with_versioning(versioning);
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, cfg);
    let (cells, observed) = m
        .run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let cells: Vec<ObjRef> = (0..CELLS).map(|_| tx.alloc_obj(1)).collect();
            tx.atomic(|tx| {
                for (i, c) in cells.iter().enumerate() {
                    tx.write_word(*c, 0, cell_init(i))?;
                }
                Ok(())
            });
            let mut observed = Vec::new();
            let mut scans = 0u64;
            for op in prog {
                match op {
                    ProgOp::Txn { writes } => tx.atomic(|tx| {
                        for &(cell, val) in writes {
                            tx.write_word(cells[cell], 0, val)?;
                        }
                        Ok(())
                    }),
                    ProgOp::Scan => {
                        scans += 1;
                        tx.atomic_ro(|tx| {
                            for c in &cells {
                                observed.push(tx.read_word(*c, 0)?);
                            }
                            Ok(())
                        });
                    }
                }
            }
            if versioning.is_multi() {
                assert_eq!(tx.stats().ro_commits, scans);
                assert_eq!(tx.stats().ro_aborts, 0);
            }
            (cells, observed)
        })
        .0;
    let finals = cells.iter().map(|c| m.peek_u64(c.word(0))).collect();
    (observed, finals)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// On one thread the snapshot path is fully observable: every scan
    /// must read exactly what `Single` reads (the last committed write),
    /// for every ring depth, and the final memory must be identical.
    /// This is the `Multi(1) ≡ Single` equivalence of the spec, extended
    /// to arbitrary depths where single-threaded programs can tell no
    /// difference either.
    #[test]
    fn single_thread_multi_is_observationally_single(
        prog in proptest::collection::vec(prog_op(), 1..20),
    ) {
        let baseline = run_prog(Versioning::Single, &prog);

        // Host model of last-write-wins, to anchor the baseline itself.
        let mut cells: Vec<u64> = (0..CELLS).map(cell_init).collect();
        let mut expect = Vec::new();
        for op in &prog {
            match op {
                ProgOp::Txn { writes } => {
                    for &(cell, val) in writes {
                        cells[cell] = val;
                    }
                }
                ProgOp::Scan => expect.extend(cells.iter().copied()),
            }
        }
        prop_assert_eq!(&baseline.0, &expect, "Single diverged from last-write-wins");
        prop_assert_eq!(&baseline.1, &cells, "Single final state diverged");

        for k in 1..=3usize {
            let multi = run_prog(Versioning::Multi { k }, &prog);
            prop_assert_eq!(
                &multi.0,
                &baseline.0,
                "Multi({}) scans observed different values than Single",
                k
            );
            prop_assert_eq!(
                &multi.1,
                &baseline.1,
                "Multi({}) final state diverged from Single",
                k
            );
        }
    }
}
