//! The five invariant-bearing workloads, each written down once.
//!
//! Each is a [`Definition`] — `{setup, per-thread body, final-state check
//! → digest}`, generic over [`TmExec`] — so the simulator backend
//! ([`crate::Sim`]) and the host-thread backend ([`crate::native::Native`])
//! run the *same* operations and judge the *same* final state.
//! [`Workload::run_on`] is the one place a workload name becomes a
//! definition; the mill's is `hastm-workloads`' own [`Mill`], the one its
//! `run_oltp_sim`/`run_oltp_native` run.

use hastm::{ObjRef, TmExec};
use hastm_sim::SchedulePolicy;
use hastm_workloads::{
    fnv1a, AnyMap, BTree, Bst, Definition, HashTable, Mill, OltpConfig, Peek, Structure, TxMap,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{injected, Combo, Injection, RunPlan, Sim};

/// Which invariant-bearing workload a trial runs. The three partitioned
/// structure workloads share one definition and differ only in the
/// transactional data structure under test — which is the point: trees
/// exercise rotations, node splits, and long read paths the hash table
/// never does.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Shared-counter increments; final sum must be exactly
    /// `threads × ops`.
    Counter,
    /// Partitioned hash-table map; final digest must match a sequential
    /// reference.
    Map,
    /// Partitioned map over the rotating BST (root rotations make remote
    /// threads' paths overlap even with disjoint key partitions).
    Bst,
    /// Partitioned map over the B-tree (node splits/merges move many keys
    /// per transaction).
    BTree,
    /// OLTP traffic mill: Zipf-skewed zero-sum bank transfers whose final
    /// balances equal a closed-form ledger regardless of interleaving
    /// (genuine cross-thread contention, unlike the partitioned maps).
    Oltp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::Counter,
        Workload::Map,
        Workload::Bst,
        Workload::BTree,
        Workload::Oltp,
    ];

    /// CLI identifier.
    pub fn slug(self) -> &'static str {
        match self {
            Workload::Counter => "counter",
            Workload::Map => "map",
            Workload::Bst => "bst",
            Workload::BTree => "btree",
            Workload::Oltp => "oltp",
        }
    }

    /// Parses a [`Workload::slug`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown workload.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.slug() == s)
            .ok_or_else(|| {
                let names = Workload::ALL.map(Workload::slug).join("|");
                format!("unknown workload `{s}` ({names})")
            })
    }

    /// Builds this workload's definition for `threads` threads of `ops`
    /// operations drawn from `seed`, and runs it on `backend`.
    pub(crate) fn run_on<B: Backend>(
        self,
        seed: u64,
        threads: usize,
        ops: u64,
        backend: B,
    ) -> B::Outcome {
        let map = |structure| PartitionedMap::new(structure, seed, threads, ops);
        match self {
            Workload::Counter => backend.run(&Counter { seed, threads, ops }),
            Workload::Map => backend.run(&map(Structure::HashTable)),
            Workload::Bst => backend.run(&map(Structure::Bst)),
            Workload::BTree => backend.run(&map(Structure::BTree)),
            Workload::Oltp => backend.run(&mill(seed, threads, ops)),
        }
    }
}

/// One backend: runs a definition end to end — setup on one executor, the
/// bodies on `threads` concurrent ones, then walk and check at rest.
pub(crate) trait Backend {
    /// What a run yields (the verdict, plus whatever the backend observes).
    type Outcome;

    /// Runs `w` to completion and judges it.
    fn run<W: Definition>(self, w: &W) -> Self::Outcome;
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Number of contended counter cells (2 cells on adjacent heap objects:
/// high contention, plus false sharing under cache-line granularity).
const COUNTER_CELLS: usize = 2;

/// Shared-counter increments: the final sum must be exactly
/// `threads × ops` (lost updates and dirty reads shift it).
struct Counter {
    seed: u64,
    threads: usize,
    ops: u64,
}

impl Definition for Counter {
    type Shared = Vec<ObjRef>;
    type Output = ();

    fn setup<E: TmExec>(&self, ex: &mut E) -> Vec<ObjRef> {
        (0..COUNTER_CELLS)
            .map(|_| {
                let cell = ex.alloc_obj(1);
                ex.atomic(|ctx| ctx.ctx_write(cell, 0, 0));
                cell
            })
            .collect()
    }

    fn body<E: TmExec>(&self, ex: &mut E, cells: &Vec<ObjRef>, tid: usize) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xc0de ^ ((tid as u64) << 24));
        for _ in 0..self.ops {
            let cell = cells[rng.gen_range(0..COUNTER_CELLS as u64) as usize];
            if injected(Injection::LostUpdate) {
                let v = ex.atomic(|ctx| ctx.ctx_read(cell, 0));
                ex.atomic(|ctx| ctx.ctx_write(cell, 0, v + 1));
            } else {
                ex.atomic(|ctx| {
                    let v = ctx.ctx_read(cell, 0)?;
                    ctx.ctx_write(cell, 0, v + 1)
                });
            }
        }
    }

    fn check(&self, cells: &Vec<ObjRef>, _walked: u64, peek: Peek<'_>) -> Result<u64, String> {
        let expected = self.threads as u64 * self.ops;
        let mut total = 0u64;
        let mut state = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            let v = peek(cell.word(0));
            total += v;
            state = state.wrapping_add(fnv1a([i as u64, v]));
        }
        if total != expected {
            return Err(format!(
                "counter sum {total} != expected {expected} ({} increments lost)",
                expected as i64 - total as i64
            ));
        }
        Ok(state)
    }
}

// ---------------------------------------------------------------------------
// Partitioned maps
// ---------------------------------------------------------------------------

/// Keys per thread partition.
const KEYS_PER_THREAD: u64 = 8;

#[derive(Copy, Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

/// Thread `tid`'s deterministic operation stream. All keys fall inside the
/// thread's own partition `[tid·K, (tid+1)·K)`, so the final per-partition
/// state — and therefore the whole map — is independent of how the
/// threads interleave.
fn stream(seed: u64, tid: usize, ops: u64) -> Vec<MapOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff ^ ((tid as u64) << 20));
    let base = tid as u64 * KEYS_PER_THREAD;
    (0..ops)
        .map(|i| {
            let key = base + rng.gen_range(0..KEYS_PER_THREAD);
            let roll: u32 = rng.gen_range(0..100);
            if roll < 45 {
                MapOp::Insert(
                    key,
                    (seed ^ (i << 8) ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
                )
            } else if roll < 70 {
                MapOp::Remove(key)
            } else {
                MapOp::Get(key)
            }
        })
        .collect()
}

/// A map whose threads own disjoint key ranges: the final *abstract* map
/// state is independent of the interleaving (even where the physical tree
/// shape is not), so its digest must equal that of a sequential execution
/// of the same streams.
struct PartitionedMap {
    structure: Structure,
    /// One operation stream per thread.
    streams: Vec<Vec<MapOp>>,
    key_span: u64,
    /// The sequential reference digest; `None` while computing it.
    expected: Option<u64>,
}

impl PartitionedMap {
    fn new(structure: Structure, seed: u64, threads: usize, ops: u64) -> Self {
        let streams: Vec<Vec<MapOp>> = (0..threads).map(|t| stream(seed, t, ops)).collect();
        // Sequential reference: this same definition with every stream on
        // one thread of a one-core sequential simulator. Because
        // partitions are disjoint, any legal concurrent execution on any
        // backend must end in exactly that map state.
        let reference = PartitionedMap {
            structure,
            streams: vec![streams.concat()],
            key_span: threads as u64 * KEYS_PER_THREAD,
            expected: None,
        };
        let sequential = Sim {
            combo: Combo::parse("seq:line:full").expect("static slug"),
            threads: 1,
            schedule: SchedulePolicy::Deterministic,
            plan: &RunPlan::default(),
        };
        let (digest, _) = sequential.run(&reference);
        PartitionedMap {
            streams,
            expected: Some(digest.expect("sequential reference run").state),
            ..reference
        }
    }
}

impl Definition for PartitionedMap {
    type Shared = AnyMap;
    type Output = ();

    /// The hash table is sized small (32 buckets) to force bucket-chain
    /// traversals; trees size themselves.
    fn setup<E: TmExec>(&self, ex: &mut E) -> AnyMap {
        ex.atomic(|ctx| {
            Ok(match self.structure {
                Structure::HashTable => AnyMap::Hash(HashTable::create(ctx, 32)),
                Structure::Bst => AnyMap::Bst(Bst::create(ctx)),
                Structure::BTree => AnyMap::BTree(BTree::create(ctx)?),
            })
        })
    }

    fn body<E: TmExec>(&self, ex: &mut E, map: &AnyMap, tid: usize) {
        for &op in &self.streams[tid] {
            match op {
                MapOp::Insert(key, value) => {
                    ex.atomic(|ctx| map.insert(ctx, key, value));
                }
                MapOp::Remove(key) => {
                    ex.atomic(|ctx| map.remove(ctx, key));
                }
                MapOp::Get(key) => {
                    // Declared read-only: under a multi-version runtime this
                    // takes the abort-free snapshot path; under a
                    // single-version runtime (or a non-STM scheme) it is
                    // exactly an ordinary atomic region, so single-version
                    // fingerprints are unchanged by the routing.
                    ex.atomic_ro(|ctx| map.get(ctx, key));
                }
            }
        }
    }

    fn walk<E: TmExec>(&self, ex: &mut E, map: &AnyMap) -> u64 {
        let mut digest = 0u64;
        let mut resident = 0u64;
        for key in 0..self.key_span {
            if let Some(value) = ex.atomic(|ctx| map.get(ctx, key)) {
                digest = digest.wrapping_add(fnv1a([key, value]));
                resident += 1;
            }
        }
        digest.wrapping_add(resident.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn check(&self, _map: &AnyMap, digest: u64, _peek: Peek<'_>) -> Result<u64, String> {
        match self.expected {
            Some(expected) if digest != expected => Err(format!(
                "map digest {digest:#018x} != sequential reference {expected:#018x}"
            )),
            _ => Ok(digest),
        }
    }
}

// ---------------------------------------------------------------------------
// OLTP mill
// ---------------------------------------------------------------------------

/// The OLTP traffic mill on a small, hot ledger (16 accounts, θ = 0.9, a
/// 10% eight-key tail) so real cross-thread conflicts occur even at the
/// harness's small op counts. Transfers apply fixed zero-sum deltas, so
/// the final ledger is initial + Σ deltas regardless of interleaving.
fn mill(seed: u64, threads: usize, ops: u64) -> Mill {
    Mill::new(&OltpConfig {
        threads,
        txns_per_thread: ops,
        accounts: 16,
        zipf_theta: 0.9,
        read_pct: 25,
        txn_keys: 3,
        large_txn_pct: 10,
        large_txn_keys: 8,
        flash_phases: 2,
        mean_arrival_gap: 300,
        seed,
    })
}
