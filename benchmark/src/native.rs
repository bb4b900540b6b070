//! The three native TL2 workloads: closed loops of two host threads, each
//! waiting for its own call to return before issuing the next.
//!
//! `native_mix` and `native_ro` drive a hash table through
//! `NativeExec::atomic` / `atomic_ro` (validating sandwich reads against
//! snapshot-ring reads); `native_oltp` replays pre-generated Zipfian
//! transfer streams through `apply_txn` (multi-stripe commits under real
//! skew). Every pass builds a fresh runtime, so passes are independent
//! and the bump-allocated heap is sized for exactly one pass.

use std::sync::Barrier;
use std::time::Instant;

use hastm::{ObjRef, TmContext, TmExec, TxResult, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime, NativeStats};
use hastm_workloads::oltp::{apply_txn, initial_balance, thread_txns, ACCOUNT_WORDS};
use hastm_workloads::{HashTable, OltpConfig, OltpTxn, TxMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::run::{Bench, Estimator, LatSummary, Layers, PassSample};
use crate::spans::{SpanId, Tracer};

/// Host threads (= closed-loop clients) of every native workload.
pub const THREADS: usize = 2;
/// One call in this many is timed for the latency percentiles.
const LAT_SAMPLE_EVERY: u64 = 8;
/// In a traced pass, one call in this many runs through the manual
/// `NativeTxn` API with begin / body / commit spans.
const SPAN_SAMPLE_EVERY: u64 = 1024;
/// Share of a pass's operations run untimed first, to fault in the heap
/// and build the per-thread filters.
const WARMUP_DIVISOR: u64 = 16;

const KEY_RANGE: u64 = 1_024;
const PREPOPULATE: u64 = 512;

/// The value the generator writes for `key` at populate time / in an
/// insert operation.
fn populate_value(key: u64) -> u64 {
    key.wrapping_mul(7)
}
fn insert_value(key: u64) -> u64 {
    key ^ 0xff
}

/// Begin, body start, commit start and end of one committed attempt run
/// through the manual transaction API.
type TxnStamps = [Instant; 4];

/// Runs `body` as one transaction through `NativeExec::txn()` /
/// `NativeTxn::commit()`, retrying until it commits, and returns the
/// stamps of the attempt that did.
fn manual_txn<R>(
    ex: &mut NativeExec<'_>,
    mut body: impl FnMut(&mut dyn TmContext) -> TxResult<R>,
) -> (R, TxnStamps) {
    loop {
        let begin = Instant::now();
        let mut txn = ex.txn();
        let body_start = Instant::now();
        match body(&mut txn) {
            Ok(r) => {
                let commit_start = Instant::now();
                if txn.commit().is_ok() {
                    return (r, [begin, body_start, commit_start, Instant::now()]);
                }
            }
            Err(_) => txn.rollback(),
        }
        std::thread::yield_now();
    }
}

/// The counters the benchmark reports, as accumulated after `earlier` was
/// taken (the warm-up's share is not the timed region's).
fn stats_since(now: &NativeStats, earlier: &NativeStats) -> NativeStats {
    NativeStats {
        commits: now.commits - earlier.commits,
        aborts_conflict: now.aborts_conflict - earlier.aborts_conflict,
        aborts_filter_stale: now.aborts_filter_stale - earlier.aborts_filter_stale,
        fast_reads: now.fast_reads - earlier.fast_reads,
        slow_reads: now.slow_reads - earlier.slow_reads,
        ro_aborts: now.ro_aborts - earlier.ro_aborts,
        snapshot_reads: now.snapshot_reads - earlier.snapshot_reads,
        versions_published: now.versions_published - earlier.versions_published,
        ..NativeStats::default()
    }
}

/// What one worker thread brings back from a pass.
struct WorkerOut {
    start: Instant,
    end: Instant,
    lat_ns: Vec<f64>,
    /// Inserts that found the key absent / removes that found it present,
    /// warm-up included (they shape the final map too).
    fresh_inserts: u64,
    removes_ok: u64,
    stats: NativeStats,
    stamps: Vec<TxnStamps>,
}

/// Files the workers' spans under `pass` and folds their samples into one
/// [`PassSample`] (checks not yet applied). Set-up ends — and the warm-up
/// that began at `warm_from` with it — where the first worker starts its
/// timed region.
fn fold_workers(
    tr: &mut Tracer,
    pass: SpanId,
    setup: SpanId,
    setup_start: Instant,
    warm_from: Instant,
    workers: &mut [WorkerOut],
    ops: u64,
) -> PassSample {
    let first_start = workers.iter().map(|w| w.start).min().expect("workers");
    let last_end = workers.iter().map(|w| w.end).max().expect("workers");
    tr.record("warmup", Some(setup), 0, warm_from, first_start);
    tr.close_at(setup, first_start);
    let mut lat = Vec::new();
    for (t, w) in workers.iter_mut().enumerate() {
        let lane = 1 + t as u32;
        let thread = tr.record(format!("thread[{t}]"), Some(pass), lane, w.start, w.end);
        for s in &w.stamps {
            let txn = tr.record("txn", Some(thread), lane, s[0], s[3]);
            tr.record("begin", Some(txn), lane, s[0], s[1]);
            tr.record("body", Some(txn), lane, s[1], s[2]);
            tr.record("commit", Some(txn), lane, s[2], s[3]);
        }
        lat.append(&mut w.lat_ns);
    }
    PassSample {
        setup_s: first_start.duration_since(setup_start).as_secs_f64(),
        wall_s: last_end.duration_since(first_start).as_secs_f64(),
        ops,
        sim_cycles: 0,
        lat: LatSummary::of(&mut lat),
        attempted: ops,
        failed: 0,
    }
}

/// Counters and failures a native bench accumulates over its timed
/// passes.
#[derive(Default)]
struct Accum {
    stats: NativeStats,
    failures: Vec<String>,
}

impl Accum {
    /// Folds one pass's check results and counters in: any violated
    /// invariant fails the pass wholesale.
    fn settle(
        &mut self,
        sample: &mut PassSample,
        mut bad: Vec<String>,
        stats: &NativeStats,
        timed: bool,
    ) {
        if !bad.is_empty() {
            sample.failed = sample.attempted;
            bad.truncate(8);
            self.failures.append(&mut bad);
        }
        if timed {
            self.stats.merge(stats);
        }
    }

    fn layers(&self, out: &mut Layers) {
        let s = &self.stats;
        let share = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        out.set(
            "native.exec.abort_share",
            share(s.aborts(), s.commits + s.aborts()),
        );
        out.set("native.exec.aborts_conflict", s.aborts_conflict as f64);
        out.set(
            "native.exec.aborts_filter_stale",
            s.aborts_filter_stale as f64,
        );
        out.set(
            "native.exec.fast_read_share",
            share(s.fast_reads, s.fast_reads + s.slow_reads + s.snapshot_reads),
        );
        out.set("native.exec.snapshot_reads", s.snapshot_reads as f64);
        out.set(
            "native.exec.versions_published",
            s.versions_published as f64,
        );
        out.set("native.exec.ro_aborts", s.ro_aborts as f64);
    }
}

// ---------------------------------------------------------------------
// native_mix / native_ro: the hash-table loop
// ---------------------------------------------------------------------

/// Parameters of one hash-table workload.
#[derive(Clone, Debug)]
pub struct MapSpec {
    /// Percent of operations that are updates (half inserts, half
    /// removes).
    pub update_pct: u32,
    /// Route lookups through `atomic_ro` on a `Multi { k: 3 }` runtime.
    pub ro_reads: bool,
    pub ops_per_thread: u64,
}

impl MapSpec {
    /// The paper mix: 20 % updates, validating sandwich reads.
    pub fn mix(smoke: bool) -> Self {
        MapSpec {
            update_pct: 20,
            ro_reads: false,
            ops_per_thread: if smoke { 4_000 } else { 1_000_000 },
        }
    }

    /// The read-heavy mix: 4 % updates, lookups on the snapshot path.
    pub fn read_only_heavy(smoke: bool) -> Self {
        MapSpec {
            update_pct: 4,
            ro_reads: true,
            ops_per_thread: if smoke { 4_000 } else { 600_000 },
        }
    }

    fn native_config(&self, threads: usize) -> NativeConfig {
        // Every insert that finds its key absent bump-allocates a 4-word
        // node and nothing is ever reclaimed; size for every insert being
        // fresh, half again for attempts that abort after allocating, and
        // the bucket array.
        let ops = self.ops_per_thread + self.ops_per_thread / WARMUP_DIVISOR;
        let inserts = ops * threads as u64 * u64::from(self.update_pct) / 200;
        NativeConfig {
            heap_words: (inserts * 6 + PREPOPULATE * 4 + 8_192) as usize,
            // Filter off: with it on, this loop's conservation check
            // fails about once in 10^9 transactions (see "Defect found"
            // in README.md) and a benchmark must run workloads on which
            // nothing fails. `native_oltp`, whose transactions write
            // every word they read, keeps the default (filter on).
            mark_filter: false,
            versioning: if self.ro_reads {
                Versioning::Multi { k: 3 }
            } else {
                Versioning::Single
            },
            ..NativeConfig::default()
        }
    }
}

#[derive(Copy, Clone)]
enum MapOp {
    Insert,
    Remove,
    Get,
}

/// One map operation inside an atomic region; returns 1 when an insert
/// was fresh or a remove found its key, the looked-up value otherwise.
fn map_body(map: HashTable, op: MapOp, key: u64, ctx: &mut dyn TmContext) -> TxResult<u64> {
    match op {
        MapOp::Insert => map.insert(ctx, key, insert_value(key)).map(u64::from),
        MapOp::Remove => map.remove(ctx, key).map(u64::from),
        MapOp::Get => map.get(ctx, key).map(|v| v.unwrap_or(0)),
    }
}

/// Compares the final map against the tallies: returns one line per
/// violated invariant.
pub fn check_map(
    fresh_inserts: u64,
    removes_ok: u64,
    len: u64,
    residents: &[(u64, u64)],
) -> Vec<String> {
    let mut bad = Vec::new();
    let expected = (PREPOPULATE + fresh_inserts).wrapping_sub(removes_ok);
    if len != expected {
        bad.push(format!(
            "map holds {len} keys, tallies say {PREPOPULATE} + {fresh_inserts} - {removes_ok} = {expected}"
        ));
    }
    if residents.len() as u64 != len {
        bad.push(format!(
            "len() = {len} but {} keys answer get()",
            residents.len()
        ));
    }
    for &(key, value) in residents {
        if value != populate_value(key) && value != insert_value(key) {
            bad.push(format!(
                "key {key} holds {value:#x}, which the generator never wrote"
            ));
        }
    }
    bad
}

/// `native_mix` or `native_ro`.
pub struct MapBench {
    spec: MapSpec,
    seed: u64,
    /// Fault injection for the acceptance check: report one fresh insert
    /// too many, so the conservation check must fail the pass.
    inject_wrong_tally: bool,
    acc: Accum,
}

impl MapBench {
    pub fn new(spec: MapSpec, seed: u64, inject_wrong_tally: bool) -> Self {
        MapBench {
            spec,
            seed,
            inject_wrong_tally,
            acc: Accum::default(),
        }
    }

    fn worker(
        &self,
        rt: &NativeRuntime,
        map: HashTable,
        tid: usize,
        gate: &Barrier,
        traced: bool,
    ) -> WorkerOut {
        let spec = &self.spec;
        let mut ex = NativeExec::new(rt);
        let mut tally = [0u64; 2];
        let mut lat_ns = Vec::with_capacity((spec.ops_per_thread / LAT_SAMPLE_EVERY) as usize + 1);
        let mut stamps = Vec::new();
        let draw = |rng: &mut StdRng| {
            let key = rng.gen_range(0..KEY_RANGE);
            let roll: u32 = rng.gen_range(0..100);
            let op = if roll < spec.update_pct / 2 {
                MapOp::Insert
            } else if roll < spec.update_pct {
                MapOp::Remove
            } else {
                MapOp::Get
            };
            (op, key)
        };
        let mut count = |op: MapOp, result: u64| match op {
            MapOp::Insert => tally[0] += result,
            MapOp::Remove => tally[1] += result,
            MapOp::Get => {
                std::hint::black_box(result);
            }
        };
        let call = |ex: &mut NativeExec<'_>, op: MapOp, key: u64| {
            if spec.ro_reads && matches!(op, MapOp::Get) {
                ex.atomic_ro(|ctx| map_body(map, op, key, ctx))
            } else {
                ex.atomic(|ctx| map_body(map, op, key, ctx))
            }
        };

        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xaaaa ^ (tid as u64) << 17);
        for _ in 0..spec.ops_per_thread / WARMUP_DIVISOR {
            let (op, key) = draw(&mut rng);
            let r = call(&mut ex, op, key);
            count(op, r);
        }
        let warm_stats = ex.stats().clone();

        let mut rng = StdRng::seed_from_u64(self.seed ^ (tid as u64).wrapping_mul(0x9e37));
        gate.wait();
        let start = Instant::now();
        for i in 0..spec.ops_per_thread {
            let (op, key) = draw(&mut rng);
            let via_spans = traced
                && i.is_multiple_of(SPAN_SAMPLE_EVERY)
                && !(spec.ro_reads && matches!(op, MapOp::Get));
            let result = if via_spans {
                let (r, s) = manual_txn(&mut ex, |ctx| map_body(map, op, key, ctx));
                stamps.push(s);
                r
            } else if i.is_multiple_of(LAT_SAMPLE_EVERY) {
                let t0 = Instant::now();
                let r = call(&mut ex, op, key);
                lat_ns.push(t0.elapsed().as_nanos() as f64);
                r
            } else {
                call(&mut ex, op, key)
            };
            count(op, result);
        }
        let end = Instant::now();

        let stats = stats_since(ex.stats(), &warm_stats);
        WorkerOut {
            start,
            end,
            lat_ns,
            fresh_inserts: tally[0],
            removes_ok: tally[1],
            stats,
            stamps,
        }
    }

    fn pass_with(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        traced: bool,
        timed: bool,
        threads: usize,
    ) -> PassSample {
        let setup_start = Instant::now();
        let setup = tr.open("setup", Some(parent));
        let build = tr.open("build", Some(setup));
        let rt = NativeRuntime::new(self.spec.native_config(threads));
        let mut ex = NativeExec::new(&rt);
        let map = ex.atomic(|ctx| Ok(HashTable::create(ctx, (KEY_RANGE / 2) as u32)));
        tr.close(build);
        let populate = tr.open("populate", Some(setup));
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9);
        let mut inserted = 0;
        while inserted < PREPOPULATE {
            let key = rng.gen_range(0..KEY_RANGE);
            if ex.atomic(|ctx| map.insert(ctx, key, populate_value(key))) {
                inserted += 1;
            }
        }
        tr.close(populate);
        let populated = Instant::now();

        let gate = Barrier::new(threads);
        let this = &*self;
        let mut workers: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let (rt, gate) = (&rt, &gate);
                    s.spawn(move || this.worker(rt, map, tid, gate, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("native worker panicked"))
                .collect()
        });
        let ops = self.spec.ops_per_thread * threads as u64;
        let mut sample = fold_workers(tr, parent, setup, setup_start, populated, &mut workers, ops);

        let verify = tr.open("verify", Some(parent));
        let mut fresh: u64 = workers.iter().map(|w| w.fresh_inserts).sum();
        let removed: u64 = workers.iter().map(|w| w.removes_ok).sum();
        if self.inject_wrong_tally {
            fresh += 1;
        }
        let len = ex.atomic(|ctx| map.len(ctx));
        let residents: Vec<(u64, u64)> = (0..KEY_RANGE)
            .filter_map(|key| ex.atomic(|ctx| map.get(ctx, key)).map(|v| (key, v)))
            .collect();
        let mut bad = check_map(fresh, removed, len, &residents);
        let mut stats = NativeStats::default();
        for w in &workers {
            stats.merge(&w.stats);
        }
        if self.spec.ro_reads && stats.ro_aborts != 0 {
            bad.push(format!(
                "{} snapshot read-only aborts (must be 0)",
                stats.ro_aborts
            ));
        }
        tr.close(verify);
        self.acc.settle(&mut sample, bad, &stats, timed);
        sample
    }
}

impl Bench for MapBench {
    fn estimator(&self) -> Estimator {
        Estimator::MedianPass
    }

    fn pass(&mut self, tr: &mut Tracer, parent: SpanId, traced: bool, timed: bool) -> PassSample {
        self.pass_with(tr, parent, traced, timed, THREADS)
    }

    fn single_client_passes(&mut self, tr: &mut Tracer, parent: SpanId) -> Vec<PassSample> {
        // Thread scaling of the validating-read path: only `native_mix`
        // reports it.
        if self.spec.ro_reads {
            return Vec::new();
        }
        (0..2)
            .map(|i| {
                let pass = tr.open(format!("pass_1thread[{i}]"), Some(parent));
                let sample = self.pass_with(tr, pass, false, false, 1);
                tr.close(pass);
                sample
            })
            .collect()
    }

    fn failures(&self) -> &[String] {
        &self.acc.failures
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("threads", THREADS as u64),
            ("ops_per_thread", self.spec.ops_per_thread),
            ("update_pct", u64::from(self.spec.update_pct)),
            ("key_range", KEY_RANGE),
            ("prepopulate", PREPOPULATE),
        ]
    }

    fn layers(&self, out: &mut Layers) {
        self.acc.layers(out);
    }
}

// ---------------------------------------------------------------------
// native_oltp: the transfer mill, closed loop
// ---------------------------------------------------------------------

/// `native_oltp`: `OltpConfig::paper_default` streams replayed through
/// `apply_txn`, arrival gaps ignored.
pub struct OltpBench {
    cfg: OltpConfig,
    /// Times each thread replays its stream in the timed region.
    replays: u64,
    acc: Accum,
}

impl OltpBench {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut cfg = OltpConfig::paper_default(THREADS);
        cfg.seed = seed;
        cfg.txns_per_thread = if smoke { 1_000 } else { 50_000 };
        OltpBench {
            cfg,
            replays: if smoke { 2 } else { 8 },
            acc: Accum::default(),
        }
    }

    fn txns_per_pass(&self) -> u64 {
        self.cfg.total_txns() * self.replays
    }

    fn warm_len(&self) -> usize {
        (self.cfg.txns_per_thread / WARMUP_DIVISOR) as usize
    }
}

/// The body of [`apply_txn`], for the sampled calls that go through the
/// manual transaction API (which takes a context, not an executor).
fn oltp_body(accounts: &[ObjRef], txn: &OltpTxn, ctx: &mut dyn TmContext) -> TxResult<u64> {
    let mut acc = 0u64;
    if txn.is_read_only() {
        for &key in &txn.keys {
            acc = acc.wrapping_add(ctx.ctx_read(accounts[key as usize], 0)?);
            ctx.ctx_work(4);
        }
        ctx.ctx_guard()?;
    } else {
        for (&key, &delta) in txn.keys.iter().zip(&txn.deltas) {
            let obj = accounts[key as usize];
            let v = ctx.ctx_read(obj, 0)?;
            ctx.ctx_write(obj, 0, v.wrapping_add(delta as u64))?;
            ctx.ctx_work(4);
        }
    }
    Ok(acc)
}

/// Compares final balances with the closed-form ledger: every stream
/// transaction applied `replays` times, plus once more for the warm-up
/// prefix. Returns one line per violated invariant.
pub fn check_ledger(
    balances: &[u64],
    streams: &[Vec<OltpTxn>],
    replays: u64,
    warm_len: usize,
) -> Vec<String> {
    let mut expected: Vec<u64> = (0..balances.len() as u32).map(initial_balance).collect();
    for stream in streams {
        for (i, txn) in stream.iter().enumerate() {
            let times = replays + u64::from(i < warm_len);
            for (&key, &delta) in txn.keys.iter().zip(&txn.deltas) {
                let b = &mut expected[key as usize];
                *b = b.wrapping_add((delta as u64).wrapping_mul(times));
            }
        }
    }
    let mut bad = Vec::new();
    for (key, (got, want)) in balances.iter().zip(&expected).enumerate() {
        if got != want {
            bad.push(format!("account {key} holds {got}, the ledger says {want}"));
        }
    }
    let total = |v: &[u64]| v.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    let initial: Vec<u64> = (0..balances.len() as u32).map(initial_balance).collect();
    if total(balances) != total(&initial) {
        bad.push(format!(
            "total balance {} is not the initial {}",
            total(balances),
            total(&initial)
        ));
    }
    bad
}

impl Bench for OltpBench {
    fn estimator(&self) -> Estimator {
        Estimator::MedianPass
    }

    fn pass(&mut self, tr: &mut Tracer, parent: SpanId, traced: bool, timed: bool) -> PassSample {
        let setup_start = Instant::now();
        let setup = tr.open("setup", Some(parent));
        let build = tr.open("build", Some(setup));
        let rt = NativeRuntime::new(NativeConfig::default());
        tr.close(build);
        let populate = tr.open("populate", Some(setup));
        let accounts: Vec<ObjRef> = {
            let mut ex = NativeExec::new(&rt);
            (0..self.cfg.accounts)
                .map(|key| {
                    let obj = ex.alloc_obj(ACCOUNT_WORDS);
                    ex.atomic(|ctx| ctx.ctx_write(obj, 0, initial_balance(key)));
                    obj
                })
                .collect()
        };
        tr.close(populate);
        let gen = tr.open("gen_streams", Some(setup));
        let streams: Vec<Vec<OltpTxn>> = (0..THREADS).map(|t| thread_txns(&self.cfg, t)).collect();
        tr.close(gen);
        let generated = Instant::now();

        let gate = Barrier::new(THREADS);
        let (replays, warm_len) = (self.replays, self.warm_len());
        let mut workers: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let (rt, gate, accounts) = (&rt, &gate, &accounts);
                    s.spawn(move || {
                        let mut ex = NativeExec::new(rt);
                        for txn in &stream[..warm_len] {
                            apply_txn(&mut ex, accounts, txn);
                        }
                        let warm_stats = ex.stats().clone();
                        let mut lat_ns = Vec::new();
                        let mut stamps = Vec::new();
                        gate.wait();
                        let start = Instant::now();
                        let mut i = 0u64;
                        for _ in 0..replays {
                            for txn in stream {
                                if traced && i.is_multiple_of(SPAN_SAMPLE_EVERY) {
                                    let (acc, s) =
                                        manual_txn(&mut ex, |ctx| oltp_body(accounts, txn, ctx));
                                    std::hint::black_box(acc);
                                    stamps.push(s);
                                } else if i.is_multiple_of(LAT_SAMPLE_EVERY) {
                                    let t0 = Instant::now();
                                    apply_txn(&mut ex, accounts, txn);
                                    lat_ns.push(t0.elapsed().as_nanos() as f64);
                                } else {
                                    apply_txn(&mut ex, accounts, txn);
                                }
                                i += 1;
                            }
                        }
                        let end = Instant::now();
                        let stats = stats_since(ex.stats(), &warm_stats);
                        WorkerOut {
                            start,
                            end,
                            lat_ns,
                            fresh_inserts: 0,
                            removes_ok: 0,
                            stats,
                            stamps,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oltp worker panicked"))
                .collect()
        });
        let ops = self.txns_per_pass();
        let mut sample = fold_workers(tr, parent, setup, setup_start, generated, &mut workers, ops);

        let verify = tr.open("verify", Some(parent));
        let balances: Vec<u64> = accounts.iter().map(|obj| rt.peek(obj.word(0))).collect();
        let bad = check_ledger(&balances, &streams, replays, warm_len);
        tr.close(verify);
        let mut stats = NativeStats::default();
        for w in &workers {
            stats.merge(&w.stats);
        }
        self.acc.settle(&mut sample, bad, &stats, timed);
        sample
    }

    fn failures(&self) -> &[String] {
        &self.acc.failures
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("threads", THREADS as u64),
            ("stream_txns_per_thread", self.cfg.txns_per_thread),
            ("replays", self.replays),
            ("accounts", u64::from(self.cfg.accounts)),
        ]
    }

    fn layers(&self, out: &mut Layers) {
        self.acc.layers(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_check_accepts_a_right_tally_and_rejects_a_wrong_one() {
        // 512 prepopulated, 3 fresh inserts, 2 removes → 513 residents.
        let residents: Vec<(u64, u64)> = (0..513)
            .map(|k| {
                (
                    k,
                    if k % 2 == 0 {
                        populate_value(k)
                    } else {
                        insert_value(k)
                    },
                )
            })
            .collect();
        assert!(check_map(3, 2, 513, &residents).is_empty());
        // One fresh insert too many in the tally.
        assert_eq!(check_map(4, 2, 513, &residents).len(), 1);
        // A value no operation could have written.
        let mut forged = residents.clone();
        forged[10].1 = 0xdead_beef;
        assert_eq!(check_map(3, 2, 513, &forged).len(), 1);
        // len() disagreeing with what get() can reach.
        assert_eq!(check_map(3, 2, 513, &residents[..500]).len(), 1);
    }

    #[test]
    fn ledger_check_counts_replays_and_the_warm_up_prefix() {
        let txn = |keys: &[u32], deltas: &[i64]| OltpTxn {
            arrival: 0,
            keys: keys.to_vec(),
            deltas: deltas.to_vec(),
        };
        let streams = vec![vec![
            txn(&[0, 1], &[5, -5]),
            txn(&[2], &[]),
            txn(&[1, 2], &[-3, 3]),
        ]];
        // 3 replays, and the first transaction once more as warm-up.
        let good = vec![
            initial_balance(0) + 20,
            initial_balance(1) - 20 - 9,
            initial_balance(2) + 9,
        ];
        assert!(check_ledger(&good, &streams, 3, 1).is_empty());
        let mut lost_update = good.clone();
        lost_update[1] += 3;
        let bad = check_ledger(&lost_update, &streams, 3, 1);
        assert_eq!(
            bad.len(),
            2,
            "one account off, and the total with it: {bad:?}"
        );
    }

    #[test]
    fn injected_wrong_tally_fails_the_whole_pass() {
        let mut tr = Tracer::new(false);
        let mut honest = MapBench::new(MapSpec::mix(true), 11, false);
        let ok = honest.pass(&mut tr, 0, false, true);
        assert_eq!(ok.failed, 0, "{:?}", honest.failures());
        let mut lying = MapBench::new(MapSpec::mix(true), 11, true);
        let bad = lying.pass(&mut tr, 0, false, true);
        assert_eq!(bad.failed, bad.attempted);
        assert!(!lying.failures().is_empty());
    }
}
