//! The benchmark driver: runs a data-structure workload under a chosen
//! scheme and thread count, reproducing the paper's experimental setup
//! ("20% of the operations were updates. All the data structures were
//! populated before the experimental run").

use hastm::{
    Granularity, MetricsSnapshot, OracleMode, TmContext, TmExec, TxResult, TxnStats,
    VersionStoreStats, Versioning,
};
use hastm_htm::HytmStats;
use hastm_sim::{MachineConfig, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::btree::BTree;
use crate::fnv1a;
use crate::hashtable::HashTable;
use crate::map::TxMap;
use crate::scheme::{sim_registry, ExecStats, Scheme, ThreadExec};
use crate::session::{RunPlan, SimRun, SimSession};

/// Which evaluation data structure to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Chained hash table (low contention, low reuse).
    HashTable,
    /// Rotating binary search tree / treap (moderate reuse, root
    /// rotations).
    Bst,
    /// B-tree (high spatial locality / reuse).
    BTree,
}

impl Structure {
    /// The three structures in the paper's presentation order.
    pub const ALL: [Structure; 3] = [Structure::Bst, Structure::HashTable, Structure::BTree];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Structure::HashTable => "Hashtable",
            Structure::Bst => "BST",
            Structure::BTree => "Btree",
        }
    }
}

impl std::fmt::Display for Structure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A structure-erased map handle (all three implement [`TxMap`]), so
/// callers like the differential checker can drive any structure through
/// one code path.
#[derive(Copy, Clone, Debug)]
pub enum AnyMap {
    Hash(HashTable),
    Bst(crate::bst::Bst),
    BTree(BTree),
}

impl TxMap for AnyMap {
    fn insert(&self, ctx: &mut dyn TmContext, key: u64, value: u64) -> TxResult<bool> {
        match self {
            AnyMap::Hash(m) => m.insert(ctx, key, value),
            AnyMap::Bst(m) => m.insert(ctx, key, value),
            AnyMap::BTree(m) => m.insert(ctx, key, value),
        }
    }
    fn remove(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<bool> {
        match self {
            AnyMap::Hash(m) => m.remove(ctx, key),
            AnyMap::Bst(m) => m.remove(ctx, key),
            AnyMap::BTree(m) => m.remove(ctx, key),
        }
    }
    fn get(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<Option<u64>> {
        match self {
            AnyMap::Hash(m) => m.get(ctx, key),
            AnyMap::Bst(m) => m.get(ctx, key),
            AnyMap::BTree(m) => m.get(ctx, key),
        }
    }
    fn len(&self, ctx: &mut dyn TmContext) -> TxResult<u64> {
        match self {
            AnyMap::Hash(m) => m.len(ctx),
            AnyMap::Bst(m) => m.len(ctx),
            AnyMap::BTree(m) => m.len(ctx),
        }
    }
    fn for_each(&self, ctx: &mut dyn TmContext, f: &mut dyn FnMut(u64, u64)) -> TxResult<()> {
        match self {
            AnyMap::Hash(m) => m.for_each(ctx, f),
            AnyMap::Bst(m) => m.for_each(ctx, f),
            AnyMap::BTree(m) => m.for_each(ctx, f),
        }
    }
}

/// Workload parameters. The STM-based schemes detect conflicts per cache
/// line, as in every measured figure.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Data structure under test.
    pub structure: Structure,
    /// Synchronization scheme.
    pub scheme: Scheme,
    /// Worker threads (= simulated cores).
    pub threads: usize,
    /// Operations per thread in the measured run.
    pub ops_per_thread: u64,
    /// Percent of operations that are updates (half inserts, half
    /// removes); the paper uses 20.
    pub update_pct: u32,
    /// Percent of operations that are whole-structure scans
    /// ([`TxMap::len`]) — the long read-only transactions of the
    /// multi-version evaluation. `update_pct + scan_pct` must not exceed
    /// 100; the remainder are point lookups.
    pub scan_pct: u32,
    /// Version retention for the STM-based schemes: [`Versioning::Single`]
    /// keeps only the latest committed value per word (the paper's base
    /// system), [`Versioning::Multi`] retains a bounded ring so read-only
    /// transactions read a consistent snapshot without validation. Under
    /// `Multi`, lookups and scans run as declared read-only regions
    /// (`atomic_ro`) and take that abort-free snapshot path.
    pub versioning: Versioning,
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Keys pre-inserted before the measured run (the paper populates
    /// structures first).
    pub prepopulate: u64,
    /// RNG seed (runs are fully deterministic given a seed).
    pub seed: u64,
    /// Machine description override (cores is forced to `threads`).
    pub machine: MachineConfig,
    /// Serializability-oracle mode for the STM-based schemes (evidence
    /// lands in [`WorkloadResult::txn`]). Off in the measured runs.
    pub oracle: OracleMode,
}

impl WorkloadConfig {
    /// The paper's standard setup for `structure` under `scheme` at
    /// `threads` threads: 20 % updates, pre-populated.
    pub fn paper_default(structure: Structure, scheme: Scheme, threads: usize) -> Self {
        WorkloadConfig {
            structure,
            scheme,
            threads,
            ops_per_thread: 1_000,
            update_pct: 20,
            scan_pct: 0,
            versioning: Versioning::Single,
            key_range: 1_024,
            prepopulate: 512,
            seed: 0x5eed,
            machine: MachineConfig::default(),
            oracle: OracleMode::Off,
        }
    }

    /// The multi-version evaluation's read-dominated setup: 4 % updates,
    /// 96 % lookups routed through read-only snapshot regions over a
    /// 3-deep version ring.
    pub fn read_heavy(structure: Structure, scheme: Scheme, threads: usize) -> Self {
        WorkloadConfig {
            update_pct: 4,
            versioning: Versioning::Multi { k: 3 },
            ..WorkloadConfig::paper_default(structure, scheme, threads)
        }
    }

    /// Long read-only scans racing a write-heavy mix: the paper's 20 %
    /// updates plus 10 % whole-structure scans, with lookups and scans on
    /// the snapshot path.
    pub fn scan_heavy(structure: Structure, scheme: Scheme, threads: usize) -> Self {
        WorkloadConfig {
            scan_pct: 10,
            versioning: Versioning::Multi { k: 3 },
            ..WorkloadConfig::paper_default(structure, scheme, threads)
        }
    }
}

/// Result of one workload run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkloadResult {
    /// Makespan in simulated cycles (the "execution time" of the figures).
    pub cycles: u64,
    /// Raw simulator counters.
    pub report: RunReport,
    /// Merged STM statistics (zeroed for non-STM schemes).
    pub txn: TxnStats,
    /// Merged hybrid-TM statistics (zeroed unless the scheme is
    /// [`Scheme::Hytm`]).
    pub hytm: HytmStats,
    /// Total operations performed.
    pub total_ops: u64,
    /// Order-independent digest of the final map contents (every resident
    /// `(key, value)` pair), taken by one [`TxMap::for_each`] walk over
    /// memory at rest after the measured run. Two runs that end in the
    /// same abstract map state — regardless of scheme or interleaving —
    /// produce the same digest; `hastm-check` differential-compares it
    /// across schemes.
    pub digest: u64,
    /// The version store's counters over populate, warm-up and measured
    /// run (zero unless [`Versioning::Multi`]).
    pub versions: VersionStoreStats,
}

impl WorkloadResult {
    /// Cycles per operation.
    pub fn cycles_per_op(&self) -> f64 {
        self.cycles as f64 / self.total_ops.max(1) as f64
    }

    /// The run's whole registry, as [`sim_registry`] builds it.
    pub fn snapshot(&self) -> MetricsSnapshot {
        sim_registry(&self.txn, &self.hytm, &self.report)
    }
}

/// Runs one workload configuration end to end and returns its metrics.
///
/// Populate, warm-up and measured run share one machine and nothing is
/// flushed between them: the measured run starts with the caches the
/// warm-up left on every core (populate runs on core 0 only), and the
/// goldens pin exactly that state.
///
/// # Panics
///
/// Panics if `threads` is zero or the sequential scheme is used with more
/// than one thread.
pub fn run_workload(cfg: &WorkloadConfig) -> WorkloadResult {
    run_workload_traced(cfg, None).0
}

/// [`run_workload`] with optional event tracing of the *measured* run (the
/// populate, warmup, and digest phases stay untraced). Tracing never
/// perturbs the simulation, so the [`WorkloadResult`] is bit-identical to
/// the untraced run's.
///
/// # Panics
///
/// As [`run_workload`].
pub fn run_workload_traced(
    cfg: &WorkloadConfig,
    trace: Option<hastm_sim::TraceConfig>,
) -> (WorkloadResult, Option<hastm_sim::TraceLog>) {
    let (session, map, measured) = run_cell(cfg, trace);

    // Digest sweep, over memory at rest (so it costs the metrics nothing,
    // and the host no simulated loads).
    let digest = session.at_rest().atomic(|ctx| digest(&map, ctx));

    // All phases are quiesced: settle the oracle's deferred serializability
    // obligations against the committed-write journal. (A no-op unless the
    // oracle is on.)
    let ExecStats { mut txn, hytm } = measured.stats;
    txn.oracle_violations += session.settle().len() as u64;

    (
        WorkloadResult {
            cycles: measured.report.makespan(),
            total_ops: cfg.ops_per_thread * cfg.threads as u64,
            report: measured.report,
            txn,
            hytm,
            digest,
            versions: session.version_stats(),
        },
        measured.trace,
    )
}

/// Builds and populates the map, then runs the warm-up and the measured
/// run (traced when `trace` is set). Returns the session at rest, the map
/// and the measured run.
fn run_cell(
    cfg: &WorkloadConfig,
    trace: Option<hastm_sim::TraceConfig>,
) -> (SimSession, AnyMap, SimRun<()>) {
    assert!(
        cfg.update_pct + cfg.scan_pct <= 100,
        "update_pct + scan_pct must leave room for lookups"
    );
    let stm_config = cfg
        .scheme
        .stm_config(Granularity::CacheLine, cfg.threads)
        .with_oracle(cfg.oracle)
        .with_versioning(cfg.versioning);
    let machine = MachineConfig {
        cores: cfg.threads,
        ..cfg.machine.clone()
    };
    let mut session = SimSession::new(cfg.scheme, machine, stm_config);

    // Build + populate sequentially (identical memory layout for every
    // scheme given the same seed).
    let map = session.sequential(|ex| {
        let map = ex.atomic(|ctx| {
            // Size the table to the working set (load factor <= ~2 when
            // half the key range is resident).
            let buckets = (cfg.key_range / 2).next_power_of_two().clamp(64, 8192) as u32;
            Ok(match cfg.structure {
                Structure::HashTable => AnyMap::Hash(HashTable::create(ctx, buckets)),
                Structure::Bst => AnyMap::Bst(crate::bst::Bst::create(ctx)),
                Structure::BTree => AnyMap::BTree(BTree::create(ctx)?),
            })
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
        let mut inserted = 0;
        while inserted < cfg.prepopulate {
            let key = rng.gen_range(0..cfg.key_range);
            let fresh = ex.atomic(|ctx| map.insert(ctx, key, key.wrapping_mul(7)));
            if fresh {
                inserted += 1;
            }
        }
        map
    });
    let stream = |ex: &mut ThreadExec<'_, '_>, seed: u64, ops: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ops {
            let key = rng.gen_range(0..cfg.key_range);
            let roll: u32 = rng.gen_range(0..100);
            map_op(ex, &map, cfg, key, roll);
        }
    };

    // Warmup pass: run a quarter of the op budget per thread under the
    // measured scheme so caches (data, records, logs) reach steady state on
    // every core, as in the paper's long runs.
    let warm_ops = (cfg.ops_per_thread / 4).max(1);
    session.run(&RunPlan::default(), |ex, tid| {
        stream(ex, cfg.seed ^ 0xaaaa ^ (tid as u64) << 17, warm_ops)
    });

    // Measured run: every thread performs its op stream under the scheme.
    let plan = RunPlan {
        trace,
        ..RunPlan::default()
    };
    let measured = session.run(&plan, |ex, tid| {
        let seed = cfg.seed ^ (tid as u64).wrapping_mul(0x9e37);
        stream(ex, seed, cfg.ops_per_thread)
    });
    (session, map, measured)
}

/// Order-independent digest of `map`'s resident pairs: one walk, each pair
/// folded with a commutative combine, so the digest depends only on the
/// abstract map state.
fn digest(map: &AnyMap, ctx: &mut dyn TmContext) -> TxResult<u64> {
    let mut digest = 0u64;
    map.for_each(ctx, &mut |key, value| {
        digest = digest.wrapping_add(fnv1a([key, value]));
    })?;
    Ok(digest)
}

/// One operation of the mixed map stream: `roll` (in `0..100`) selects
/// insert / remove / whole-structure scan / point lookup per the config's
/// update and scan percentages. Scans and lookups run as declared
/// read-only regions, which take the snapshot path when the config retains
/// multiple versions and are plain transactions otherwise (DESIGN §12).
fn map_op(ex: &mut ThreadExec<'_, '_>, map: &AnyMap, cfg: &WorkloadConfig, key: u64, roll: u32) {
    if roll < cfg.update_pct / 2 {
        ex.atomic(|ctx| map.insert(ctx, key, key ^ 0xff));
    } else if roll < cfg.update_pct {
        ex.atomic(|ctx| map.remove(ctx, key));
    } else if roll < cfg.update_pct + cfg.scan_pct {
        ex.atomic_ro(|ctx| map.len(ctx));
    } else {
        ex.atomic_ro(|ctx| map.get(ctx, key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm::ObjRef;

    /// The sweep the walk replaced: one point lookup per key in
    /// `0..key_range`.
    fn lookup_digest(map: &AnyMap, ctx: &mut dyn TmContext, key_range: u64) -> TxResult<u64> {
        let mut digest = 0u64;
        for key in 0..key_range {
            if let Some(value) = map.get(ctx, key)? {
                digest = digest.wrapping_add(fnv1a([key, value]));
            }
        }
        Ok(digest)
    }

    /// Counts the reads a walk makes through the context it wraps.
    struct CountingReads<'c> {
        inner: &'c mut dyn TmContext,
        reads: u64,
    }

    impl TmContext for CountingReads<'_> {
        fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
            self.reads += 1;
            self.inner.ctx_read(obj, index)
        }
        fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
            self.inner.ctx_write(obj, index, value)
        }
        fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
            self.inner.ctx_alloc(data_words)
        }
        fn ctx_free(&mut self, obj: ObjRef, data_words: u32) {
            self.inner.ctx_free(obj, data_words);
        }
        fn ctx_work(&mut self, cycles: u64) {
            self.inner.ctx_work(cycles);
        }
    }

    /// Reads `f` makes of `session`'s memory at rest, and what it returned.
    fn reads_at_rest<R>(
        session: &SimSession,
        f: impl FnOnce(&mut dyn TmContext) -> TxResult<R>,
    ) -> (u64, R) {
        let mut at_rest = session.at_rest();
        let mut counting = CountingReads {
            inner: &mut at_rest,
            reads: 0,
        };
        let out = f(&mut counting).expect("a read of memory at rest cannot abort");
        (counting.reads, out)
    }

    /// The keys `for_each` yields from `session`'s memory at rest.
    fn resident_keys(session: &SimSession, map: &AnyMap) -> std::collections::BTreeSet<u64> {
        let (_, keys) = reads_at_rest(session, |ctx| {
            let mut keys = std::collections::BTreeSet::new();
            map.for_each(ctx, &mut |key, _| {
                keys.insert(key);
            })?;
            Ok(keys)
        });
        keys
    }

    #[test]
    fn walked_digest_equals_the_lookup_digest() {
        for structure in Structure::ALL {
            for scheme in [Scheme::Stm, Scheme::Hytm, Scheme::Lock] {
                for threads in [1, 2] {
                    for seed in [0x5eed, 7] {
                        let mut cfg = small(structure, scheme, threads);
                        cfg.ops_per_thread = 400;
                        cfg.seed = seed;
                        let cell = format!("{structure}/{scheme}/{threads}t/seed {seed:#x}");
                        let (session, map, _) = run_cell(&cfg, None);
                        let (_, walked) = reads_at_rest(&session, |ctx| digest(&map, ctx));
                        let (_, looked_up) =
                            reads_at_rest(&session, |ctx| lookup_digest(&map, ctx, cfg.key_range));
                        assert_eq!(walked, looked_up, "{cell}");
                        // The walk must have met a structure that removes
                        // reshaped: some key resident after populate is gone.
                        let populated = WorkloadConfig {
                            ops_per_thread: 0,
                            ..cfg.clone()
                        };
                        let (before, before_map, _) = run_cell(&populated, None);
                        let resident = resident_keys(&session, &map);
                        assert!(
                            !resident_keys(&before, &before_map).is_subset(&resident),
                            "{cell}: no populated key was removed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn digest_walk_reads_each_pair_once() {
        // One paper-default cell per structure, as the benchmark's set-up
        // phase builds it: 512 keys populated in a 1 024-key range, one
        // warm-up op, no measured op. A point lookup per key made
        // 3 538 / 23 556 / 30 056 reads here.
        for (structure, pinned) in [
            (Structure::HashTable, 2_048),
            (Structure::Bst, 2_049),
            (Structure::BTree, 1_378),
        ] {
            let mut cfg = WorkloadConfig::paper_default(structure, Scheme::Stm, 1);
            cfg.ops_per_thread = 0;
            let (session, map, _) = run_cell(&cfg, None);
            let (reads, walked) = reads_at_rest(&session, |ctx| digest(&map, ctx));
            let (_, looked_up) =
                reads_at_rest(&session, |ctx| lookup_digest(&map, ctx, cfg.key_range));
            assert_eq!(walked, looked_up, "{structure}");
            assert_eq!(
                reads, pinned,
                "{structure}: at-rest reads of the digest walk"
            );
        }
    }

    fn small(structure: Structure, scheme: Scheme, threads: usize) -> WorkloadConfig {
        let mut c = WorkloadConfig::paper_default(structure, scheme, threads);
        c.ops_per_thread = 120;
        c.prepopulate = 64;
        c.key_range = 128;
        c
    }

    #[test]
    fn all_schemes_complete_on_bst() {
        for scheme in Scheme::ALL {
            let threads = if scheme == Scheme::Sequential { 1 } else { 2 };
            let r = run_workload(&small(Structure::Bst, scheme, threads));
            assert!(r.cycles > 0, "{scheme}");
            assert_eq!(r.total_ops, 120 * threads as u64);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small(Structure::HashTable, Scheme::Hastm, 2);
        let a = run_workload(&cfg);
        let b = run_workload(&cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.txn, b.txn);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn single_thread_digest_is_scheme_independent() {
        // At one thread there is a single op order, so every scheme must
        // end in the identical abstract map state.
        let digests: Vec<u64> = Scheme::ALL
            .iter()
            .map(|&s| run_workload(&small(Structure::HashTable, s, 1)).digest)
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "digests diverge across schemes: {digests:?}"
        );
        assert_ne!(digests[0], 0, "populated map digests are nonzero");
    }

    #[test]
    fn oracle_evidence_reaches_workload_stats() {
        let mut cfg = small(Structure::Bst, Scheme::Hastm, 2);
        cfg.oracle = OracleMode::Record;
        let r = run_workload(&cfg);
        assert!(r.txn.oracle_commits_checked > 0, "every commit checked");
        assert!(r.txn.oracle_reads_checked > 0);
        assert_eq!(r.txn.oracle_violations, 0, "serializable execution");
    }

    #[test]
    fn read_heavy_snapshot_reads_never_abort() {
        let mut cfg = WorkloadConfig::read_heavy(Structure::HashTable, Scheme::Hastm, 2);
        cfg.ops_per_thread = 120;
        cfg.prepopulate = 64;
        cfg.key_range = 128;
        let r = run_workload(&cfg);
        assert!(r.txn.ro_commits > 0, "lookups must take the snapshot path");
        assert_eq!(r.txn.ro_aborts, 0, "snapshot reads are abort-free");
        assert!(r.txn.snapshot_reads > 0);
        assert_ne!(r.digest, 0);
    }

    #[test]
    fn scan_heavy_runs_long_ro_scans_abort_free() {
        let mut cfg = WorkloadConfig::scan_heavy(Structure::Bst, Scheme::Stm, 2);
        cfg.ops_per_thread = 120;
        cfg.prepopulate = 64;
        cfg.key_range = 128;
        let r = run_workload(&cfg);
        assert!(r.txn.ro_commits > 0);
        assert_eq!(r.txn.ro_aborts, 0);
        assert!(
            r.txn.versions_published > 0,
            "writers must publish into the rings"
        );
    }

    #[test]
    fn single_thread_digest_is_versioning_independent() {
        // One thread means one op order, so Single and Multi must end in
        // the identical abstract map state even though Multi reroutes
        // lookups through the snapshot path.
        let single = small(Structure::HashTable, Scheme::Hastm, 1);
        let mut multi = single.clone();
        multi.versioning = Versioning::Multi { k: 3 };
        let a = run_workload(&single);
        let b = run_workload(&multi);
        assert_eq!(a.digest, b.digest, "final map state diverged");
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(b.txn.ro_aborts, 0);
    }

    #[test]
    fn oracle_checks_snapshot_reads_under_multi() {
        let mut cfg = WorkloadConfig::read_heavy(Structure::HashTable, Scheme::Hastm, 2);
        cfg.ops_per_thread = 80;
        cfg.prepopulate = 32;
        cfg.key_range = 64;
        cfg.oracle = OracleMode::Record;
        let r = run_workload(&cfg);
        assert!(r.txn.ro_commits > 0);
        assert_eq!(
            r.txn.oracle_violations, 0,
            "snapshot reads must be serializable at their start stamp"
        );
    }

    #[test]
    fn stm_slower_than_sequential_single_thread() {
        let seq = run_workload(&small(Structure::BTree, Scheme::Sequential, 1));
        let stm = run_workload(&small(Structure::BTree, Scheme::Stm, 1));
        assert!(
            stm.cycles > seq.cycles,
            "STM must pay overhead: stm={} seq={}",
            stm.cycles,
            seq.cycles
        );
    }

    #[test]
    fn hastm_between_sequential_and_stm() {
        let seq = run_workload(&small(Structure::BTree, Scheme::Sequential, 1));
        let stm = run_workload(&small(Structure::BTree, Scheme::Stm, 1));
        let hastm = run_workload(&small(Structure::BTree, Scheme::Hastm, 1));
        assert!(
            hastm.cycles < stm.cycles,
            "HASTM must beat STM: hastm={} stm={}",
            hastm.cycles,
            stm.cycles
        );
        assert!(hastm.cycles > seq.cycles);
    }
}
