//! Deterministic OLTP traffic mill: a seeded bank/key-value workload with
//! Zipfian key skew, a configurable read/write mix, a transaction-size
//! distribution with a rare large-transaction tail that overflows HTM
//! capacity, hot-key flash-crowd phases, and **open-loop** arrivals with
//! per-transaction latency accounting.
//!
//! The mill is written once against the [`hastm::TmExec`] seam and runs
//! unchanged on every simulator scheme (via [`crate::ThreadExec`]) and on the
//! native TL2 backend (via [`hastm_native::NativeExec`]); the clock unit
//! is simulated cycles on the former and host nanoseconds on the latter.
//!
//! ## The ledger invariant
//!
//! Every update transaction applies *fixed, pre-seeded* wrapping deltas to
//! its keys (summing to zero per transaction), so the final balance of
//! each account is `initial + Σ deltas` — **independent of interleaving**
//! even under genuine cross-thread contention. That closed form
//! ([`expected_balances`]) is what the differential checker compares both
//! backends against: any divergence is a real atomicity/opacity bug, not
//! schedule noise. Total balance is conserved as a second, coarser check.
//!
//! ## Serving metrics
//!
//! Arrivals are open-loop: each thread's transactions are stamped with
//! seeded inter-arrival gaps up front, and the mill holds each transaction
//! until its arrival tick ([`hastm::TmExec::idle_until`]) — or starts it
//! immediately when the thread is already behind, so queueing delay counts
//! toward latency exactly as it would in a served system. [`OltpMetrics`]
//! reports p50/p99 latency, goodput, and abort-retry amplification.

use hastm::{Granularity, LatencyStats, MetricsSnapshot, ObjRef, OracleMode, TmExec, TxnStats};
use hastm_native::{NativeConfig, NativeStats};
use hastm_sim::{FaultEvent, MachineConfig, TraceConfig, TraceLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fnv1a;
use crate::scheme::{ExecStats, Scheme};
use crate::session::{Definition, NativeSession, Peek, RunPlan, SimSession};

/// Payload words per account object. Eight words plus the object header
/// exceed one 64-byte cache line, so every account occupies its own line
/// and a transaction touching `k` distinct accounts touches at least `k`
/// lines — which is what lets the large-transaction tail genuinely
/// overflow HTM read/write-set capacity.
pub const ACCOUNT_WORDS: u32 = 8;

/// Distinct keys in a tail ("large") transaction under
/// [`OltpConfig::paper_default`]: enough lines to overflow the simulated
/// L1's per-set associativity with near certainty, forcing
/// `HtmAbort::Capacity` on the HyTM hardware path and the software
/// fallback the paper's §7 argues for.
pub const HTM_OVERFLOW_KEYS: u32 = 64;

/// Parameters of the traffic mill. All randomness derives from `seed`;
/// two generations with the same config are bit-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct OltpConfig {
    /// Worker threads (simulated cores or host threads).
    pub threads: usize,
    /// Transactions per thread.
    pub txns_per_thread: u64,
    /// Bank accounts (keys).
    pub accounts: u32,
    /// Zipfian skew θ; 0 is uniform, ≥1 is heavily skewed.
    pub zipf_theta: f64,
    /// Percent of transactions that are read-only balance sweeps.
    pub read_pct: u32,
    /// Ordinary transactions touch `1..=txn_keys` distinct keys.
    pub txn_keys: u32,
    /// Percent of transactions drawn from the large tail.
    pub large_txn_pct: u32,
    /// Distinct keys in a tail transaction (HTM-overflow bucket).
    pub large_txn_keys: u32,
    /// Flash-crowd phases: the stream is cut into this many equal spans,
    /// each rotating the Zipf head to a different hot key.
    pub flash_phases: u32,
    /// Mean open-loop inter-arrival gap in clock units (cycles on the
    /// simulator, nanoseconds on the native backend); gaps are uniform in
    /// `[0, 2 * mean]`.
    pub mean_arrival_gap: u64,
    /// Master seed.
    pub seed: u64,
}

impl OltpConfig {
    /// A small configuration for tests and smoke runs.
    pub fn quick(threads: usize) -> Self {
        OltpConfig {
            threads,
            txns_per_thread: 64,
            accounts: 64,
            zipf_theta: 0.9,
            read_pct: 25,
            txn_keys: 3,
            large_txn_pct: 6,
            large_txn_keys: 16,
            flash_phases: 2,
            mean_arrival_gap: 200,
            seed: 0x017b,
        }
    }

    /// The benchmark-scale configuration: skewed traffic over 256
    /// accounts with a 2% tail of [`HTM_OVERFLOW_KEYS`]-key transactions.
    pub fn paper_default(threads: usize) -> Self {
        OltpConfig {
            threads,
            txns_per_thread: 400,
            accounts: 256,
            zipf_theta: 0.9,
            read_pct: 50,
            txn_keys: 4,
            large_txn_pct: 2,
            large_txn_keys: HTM_OVERFLOW_KEYS,
            flash_phases: 4,
            mean_arrival_gap: 4_000,
            seed: 0x5eed,
        }
    }

    /// Total transactions across all threads.
    pub fn total_txns(&self) -> u64 {
        self.txns_per_thread * self.threads as u64
    }
}

/// One pre-generated transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OltpTxn {
    /// Scheduled arrival, in clock units after the thread's mill epoch.
    pub arrival: u64,
    /// Distinct keys the transaction touches.
    pub keys: Vec<u32>,
    /// Per-key wrapping deltas summing to zero; empty for a read-only
    /// balance sweep.
    pub deltas: Vec<i64>,
}

impl OltpTxn {
    /// Whether this is a read-only balance sweep.
    pub fn is_read_only(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Guide-table entries per rank: enough that a bucket of the table holds
/// about one CDF step, so [`Zipf::sample`] scans one or two entries.
const GUIDE_PER_RANK: usize = 16;

/// Zipfian sampler over ranks `0..n` via a precomputed CDF, inverted
/// through a guide table. `f64` powers are deterministic on a given
/// platform, and every comparison in this repo (sim-vs-native,
/// run-vs-rerun) happens on one platform, so streams are reproducible
/// wherever they are compared.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// The `n` CDF entries, then an `INFINITY` sentinel that ends every
    /// scan.
    cdf: Vec<f64>,
    /// `m` entries: `guide[j]` is the number of ranks `r` with
    /// `floor(cdf[r] * m) < j`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks at skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n as usize + 1);
        let mut sum = 0.0;
        for rank in 0..n {
            sum += 1.0 / f64::from(rank + 1).powf(theta);
            cdf.push(sum);
        }
        for v in &mut cdf {
            *v /= sum;
        }
        let m = GUIDE_PER_RANK * n as usize;
        let mut guide = Vec::with_capacity(m);
        let mut below = 0;
        for j in 0..m {
            while below < cdf.len() && (cdf[below] * m as f64).floor() < j as f64 {
                below += 1;
            }
            guide.push(below as u32);
        }
        cdf.push(f64::INFINITY);
        Zipf { cdf, guide }
    }

    /// The cumulative distribution: entry `r` is the probability of a rank
    /// `<= r`; the last entry is 1.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf[..self.cdf.len() - 1]
    }

    /// Maps a uniform `u` in `[0, 1)` to a rank (0 = hottest): the number
    /// of CDF entries `<= u`.
    ///
    /// The scan starts at `guide[min(floor(u * m), m - 1)]` and steps while
    /// `cdf[r] <= u`. That is exactly `cdf().partition_point(|&c| c <= u)`
    /// for every `u`, because floating-point multiplication by `m` is
    /// monotone: a rank `r` below the start has `floor(cdf[r] * m) < j <=
    /// floor(u * m)`, hence `cdf[r] * m < u * m` and `cdf[r] < u`, so the
    /// start never passes the answer, and from there the first entry above
    /// `u` *is* the answer (the CDF is sorted; the sentinel stops a scan
    /// at `n` for `u >= 1`).
    pub fn sample(&self, u: f64) -> u32 {
        let m = self.guide.len();
        let j = ((u * m as f64) as usize).min(m - 1);
        let mut rank = self.guide[j] as usize;
        while self.cdf[rank] <= u {
            rank += 1;
        }
        rank as u32
    }
}

/// Uniform `[0, 1)` from a shim RNG (53 mantissa bits).
fn unit_f64(rng: &mut StdRng) -> f64 {
    (rng.gen::<u64>() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Generates thread `tid`'s transaction stream — deterministically in
/// `(cfg.seed, tid)`, independent of all other threads.
pub fn thread_txns(cfg: &OltpConfig, tid: usize) -> Vec<OltpTxn> {
    let zipf = Zipf::new(cfg.accounts, cfg.zipf_theta);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0017_0b1e ^ ((tid as u64) << 21));
    let accounts = u64::from(cfg.accounts);
    let phases = u64::from(cfg.flash_phases.max(1));
    let phase_len = cfg.txns_per_thread.div_ceil(phases).max(1);
    let mut arrival = 0u64;
    // The keys drawn so far in the current transaction, one bit each:
    // rejecting a repeat is one test, not a scan of `keys`.
    let mut drawn = vec![0u64; (cfg.accounts as usize).div_ceil(64)];
    (0..cfg.txns_per_thread)
        .map(|i| {
            arrival += rng.gen_range(0..2 * cfg.mean_arrival_gap + 1);
            // Flash crowd: each phase rotates the Zipf head onto a
            // different hot key, so the "celebrity" moves mid-run.
            let phase = (i / phase_len) % phases;
            let rotate = phase * (accounts / phases);
            let n = if rng.gen_range(0..100) < cfg.large_txn_pct {
                cfg.large_txn_keys
            } else {
                rng.gen_range(1..cfg.txn_keys + 1)
            }
            .min(cfg.accounts) as usize;
            let mut keys: Vec<u32> = Vec::with_capacity(n);
            while keys.len() < n {
                // `rank <= accounts` and `rotate < accounts`, so one
                // subtraction is the remainder.
                let key = u64::from(zipf.sample(unit_f64(&mut rng))) + rotate;
                let key = if key >= accounts { key - accounts } else { key } as u32;
                let (word, bit) = (key as usize / 64, 1u64 << (key % 64));
                if drawn[word] & bit == 0 {
                    drawn[word] |= bit;
                    keys.push(key);
                }
            }
            for &key in &keys {
                drawn[key as usize / 64] = 0;
            }
            let deltas = if rng.gen_range(0..100) < cfg.read_pct {
                Vec::new()
            } else {
                // Fixed per-key deltas summing to zero: the transfer's
                // effect is order-independent, giving the differential
                // suite a closed-form expected state under contention.
                let mut deltas = Vec::with_capacity(keys.len());
                let mut sum = 0i64;
                for _ in 1..keys.len() {
                    let d = rng.gen_range(-8i64..9);
                    sum = sum.wrapping_add(d);
                    deltas.push(d);
                }
                deltas.push(sum.wrapping_neg());
                deltas
            };
            OltpTxn {
                arrival,
                keys,
                deltas,
            }
        })
        .collect()
}

/// Account `key`'s balance before any traffic.
pub fn initial_balance(key: u32) -> u64 {
    1_000 + u64::from(key)
}

/// The closed-form final state: initial balances plus every thread's
/// deltas. Interleaving-independent by construction (wrapping addition
/// commutes), so it is the reference for *both* backends.
pub fn expected_balances(cfg: &OltpConfig) -> Vec<u64> {
    Mill::new(cfg).expected
}

/// Wrapping total across all accounts — conserved by every transfer.
pub fn total_balance(balances: &[u64]) -> u64 {
    balances.iter().fold(0u64, |a, &b| a.wrapping_add(b))
}

/// Order-sensitive FNV digest of the balance vector (the mill's analog of
/// the map workloads' digest sweep).
pub fn balances_digest(balances: &[u64]) -> u64 {
    balances
        .iter()
        .enumerate()
        .fold(0u64, |digest, (key, &value)| {
            digest.wrapping_add(fnv1a([key as u64, value]))
        })
}

/// Judges a mill run's final balances against the closed-form ledger and
/// digests them.
///
/// # Errors
///
/// Returns the divergence: total balance not conserved, or the first
/// account that differs.
pub fn check_ledger(balances: &[u64], expected: &[u64]) -> Result<u64, String> {
    if total_balance(balances) != total_balance(expected) {
        return Err(format!(
            "oltp ledger: total balance {} != conserved total {}",
            total_balance(balances),
            total_balance(expected)
        ));
    }
    if let Some(key) = (0..balances.len()).find(|&k| balances[k] != expected[k]) {
        let divergent = balances.iter().zip(expected).filter(|(a, b)| a != b);
        return Err(format!(
            "oltp ledger: account {key} balance {} != {} (first of {} divergent accounts)",
            balances[key],
            expected[key],
            divergent.count()
        ));
    }
    Ok(balances_digest(balances))
}

/// Applies one transaction through the scheme-independent context.
pub fn apply_txn<E: TmExec>(ex: &mut E, accounts: &[ObjRef], txn: &OltpTxn) {
    if txn.is_read_only() {
        ex.atomic(|ctx| {
            let mut acc = 0u64;
            for &key in &txn.keys {
                acc = acc.wrapping_add(ctx.ctx_read(accounts[key as usize], 0)?);
                ctx.ctx_work(4);
            }
            ctx.ctx_guard()?;
            Ok(acc)
        });
    } else {
        ex.atomic(|ctx| {
            for (&key, &delta) in txn.keys.iter().zip(&txn.deltas) {
                let obj = accounts[key as usize];
                let v = ctx.ctx_read(obj, 0)?;
                ctx.ctx_write(obj, 0, v.wrapping_add(delta as u64))?;
                ctx.ctx_work(4);
            }
            Ok(())
        });
    }
}

/// One thread's mill run: epoch anchor, per-transaction completion
/// stamps, and latencies (completion minus scheduled arrival).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadMillResult {
    /// The thread's clock when the mill started; arrivals are relative to
    /// this, which makes the accounting robust to per-core clock skew
    /// from setup phases.
    pub epoch: u64,
    /// Completion stamp of each transaction, in stream order. On
    /// trace-enabled simulator runs these equal the `TxnCommit` trace
    /// stamps exactly (the reconciliation tests assert it).
    pub ends: Vec<u64>,
    /// `ends[i] - (epoch + arrival[i])`, saturating at zero.
    pub latencies: Vec<u64>,
}

/// Drives one thread's pre-generated stream through any executor,
/// holding each transaction to its open-loop arrival and recording
/// serving latency.
pub fn run_mill_thread<E: TmExec>(
    ex: &mut E,
    accounts: &[ObjRef],
    txns: &[OltpTxn],
) -> ThreadMillResult {
    let epoch = ex.clock();
    let mut ends = Vec::with_capacity(txns.len());
    let mut latencies = Vec::with_capacity(txns.len());
    for txn in txns {
        let due = epoch + txn.arrival;
        ex.idle_until(due);
        apply_txn(ex, accounts, txn);
        let end = ex.clock();
        ends.push(end);
        latencies.push(end.saturating_sub(due));
    }
    ThreadMillResult {
        epoch,
        ends,
        latencies,
    }
}

/// The mill as the one [`Definition`] every backend runs: a ledger of
/// account objects at their initial balances, each thread's pre-generated
/// stream through [`run_mill_thread`], and the closed-form ledger as the
/// judge.
#[derive(Clone, Debug)]
pub struct Mill {
    accounts: u32,
    /// One transaction stream per thread.
    streams: Vec<Vec<OltpTxn>>,
    /// The closed-form final ledger.
    expected: Vec<u64>,
}

impl Mill {
    /// Generates `cfg`'s streams and the ledger they must end at.
    pub fn new(cfg: &OltpConfig) -> Self {
        let streams: Vec<Vec<OltpTxn>> = (0..cfg.threads).map(|t| thread_txns(cfg, t)).collect();
        let mut expected: Vec<u64> = (0..cfg.accounts).map(initial_balance).collect();
        for txn in streams.iter().flatten() {
            for (&key, &delta) in txn.keys.iter().zip(&txn.deltas) {
                let b = &mut expected[key as usize];
                *b = b.wrapping_add(delta as u64);
            }
        }
        Mill {
            accounts: cfg.accounts,
            streams,
            expected,
        }
    }

    /// The ledger as it stands in a backend's memory at rest.
    pub fn balances(accounts: &[ObjRef], peek: Peek<'_>) -> Vec<u64> {
        accounts.iter().map(|obj| peek(obj.word(0))).collect()
    }
}

impl Definition for Mill {
    type Shared = Vec<ObjRef>;
    type Output = ThreadMillResult;

    fn setup<E: TmExec>(&self, ex: &mut E) -> Vec<ObjRef> {
        (0..self.accounts)
            .map(|key| {
                let obj = ex.alloc_obj(ACCOUNT_WORDS);
                ex.atomic(|ctx| ctx.ctx_write(obj, 0, initial_balance(key)));
                obj
            })
            .collect()
    }

    fn body<E: TmExec>(&self, ex: &mut E, accounts: &Vec<ObjRef>, tid: usize) -> ThreadMillResult {
        run_mill_thread(ex, accounts, &self.streams[tid])
    }

    fn check(&self, accounts: &Vec<ObjRef>, _: u64, peek: Peek<'_>) -> Result<u64, String> {
        check_ledger(&Mill::balances(accounts, peek), &self.expected)
    }
}

/// Serving-style metrics of one mill run. `elapsed` (and the latency
/// samples) are simulated cycles on the simulator and host nanoseconds on
/// the native backend; goodput is normalized per million clock units so
/// the two read as "per Mcycle" and "per millisecond" respectively.
#[derive(Clone, Debug, Default)]
pub struct OltpMetrics {
    /// Per-transaction serving latencies.
    pub latency: LatencyStats,
    /// Transactions issued.
    pub total_txns: u64,
    /// Top-level commits.
    pub commits: u64,
    /// Aborted attempts (all causes).
    pub aborts: u64,
    /// Run duration in clock units.
    pub elapsed: u64,
}

impl OltpMetrics {
    /// The metrics of a run of `cfg` that took `elapsed` clock units.
    fn of(
        cfg: &OltpConfig,
        elapsed: u64,
        per_thread: &[ThreadMillResult],
        commits: u64,
        aborts: u64,
    ) -> Self {
        let mut latency = LatencyStats::default();
        for &l in per_thread.iter().flat_map(|mill| &mill.latencies) {
            latency.record(l);
        }
        OltpMetrics {
            latency,
            total_txns: cfg.total_txns(),
            commits,
            aborts,
            elapsed,
        }
    }

    /// Median serving latency.
    pub fn p50(&self) -> u64 {
        self.latency.quantile(0.50)
    }

    /// Tail (99th percentile) serving latency.
    pub fn p99(&self) -> u64 {
        self.latency.quantile(0.99)
    }

    /// Committed transactions per million clock units.
    pub fn goodput_per_munit(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.commits as f64 * 1e6 / self.elapsed as f64
    }

    /// Attempts per commit: `(commits + aborts) / commits`. 1.0 means no
    /// wasted work; 2.0 means every commit paid for one aborted attempt.
    pub fn abort_retry_amplification(&self) -> f64 {
        if self.commits == 0 {
            return 0.0;
        }
        (self.commits + self.aborts) as f64 / self.commits as f64
    }
}

/// A simulator mill run: the traffic parameters plus scheme, machine, and
/// fault-injection knobs (the latter drive the zombie scenarios in
/// `hastm-check`).
#[derive(Clone, Debug)]
pub struct OltpSimConfig {
    /// Traffic parameters; `oltp.threads` simulated cores are used.
    pub oltp: OltpConfig,
    /// Synchronization scheme under test.
    pub scheme: Scheme,
    /// Conflict-detection granularity.
    pub granularity: Granularity,
    /// Machine geometry/schedule (`cores` is overridden to
    /// `oltp.threads`).
    pub machine: MachineConfig,
    /// HASTM mode-policy override (applied only when `scheme` is
    /// [`Scheme::Hastm`]).
    pub mode_policy_override: Option<hastm::ModePolicy>,
    /// Serializability-oracle mode for the run.
    pub oracle: OracleMode,
    /// Overrides `StmConfig::validation_period`; the zombie scenarios use
    /// a huge period to *delay* read-set revalidation.
    pub validation_period: Option<u32>,
    /// Injected faults (forced evictions, back-invalidations, spurious
    /// watch violations / HTM aborts).
    pub faults: Vec<FaultEvent>,
    /// Arm per-core tracing for the measured run.
    pub trace: Option<TraceConfig>,
}

impl OltpSimConfig {
    /// A plain (fault-free, oracle-recording) run of `oltp` under
    /// `scheme` at `granularity`.
    pub fn new(oltp: OltpConfig, scheme: Scheme, granularity: Granularity) -> Self {
        OltpSimConfig {
            oltp,
            scheme,
            granularity,
            machine: MachineConfig::default(),
            mode_policy_override: None,
            oracle: OracleMode::Record,
            validation_period: None,
            faults: Vec::new(),
            trace: None,
        }
    }
}

/// Result of a simulator mill run.
#[derive(Clone, Debug)]
pub struct OltpSimResult {
    /// Serving metrics (cycles).
    pub metrics: OltpMetrics,
    /// FNV digest of the final balances.
    pub digest: u64,
    /// Final per-account balances.
    pub balances: Vec<u64>,
    /// Per-thread mill timings, indexed by core.
    pub per_thread: Vec<ThreadMillResult>,
    /// STM counters merged across threads (zeros for lock/sequential).
    pub txn: TxnStats,
    /// Full metrics registry for the run, including the hybrid's `hytm.*`
    /// and the `latency.*` serving entries.
    pub snapshot: MetricsSnapshot,
    /// Serializability violations: commit-time recordings plus the
    /// deferred post-run settlement. Nonzero means a zombie committed.
    pub oracle_violations: u64,
    /// The measured run's trace, when tracing was armed.
    pub trace: Option<TraceLog>,
}

/// Runs the mill on the simulator.
///
/// # Panics
///
/// Panics if `threads` is zero, or if `scheme` is [`Scheme::Sequential`]
/// with more than one thread.
pub fn run_oltp_sim(cfg: &OltpSimConfig) -> OltpSimResult {
    let threads = cfg.oltp.threads;
    let mut stm_config = cfg
        .scheme
        .stm_config_under(cfg.granularity, threads, cfg.mode_policy_override)
        .with_oracle(cfg.oracle);
    if let Some(period) = cfg.validation_period {
        stm_config.validation_period = period;
    }
    let machine = MachineConfig {
        cores: threads,
        ..cfg.machine.clone()
    };
    let mut session = SimSession::new(cfg.scheme, machine, stm_config);

    // The ledger is populated sequentially (untraced, unfaulted); the
    // fault plan and tracing are armed for the measured run only.
    let plan = RunPlan {
        faults: cfg.faults.clone(),
        trace: cfg.trace,
        ..RunPlan::default()
    };
    let (accounts, run) = session.run_definition(&Mill::new(&cfg.oltp), &plan);

    let (commits, aborts) = match cfg.scheme {
        // These count nothing and cannot abort: each transaction issued
        // committed once.
        Scheme::Sequential | Scheme::Lock => (cfg.oltp.total_txns(), 0),
        _ => (run.stats.commits(), run.stats.aborts()),
    };
    let elapsed = run.report.makespan();
    let metrics = OltpMetrics::of(&cfg.oltp, elapsed, &run.outputs, commits, aborts);
    let ExecStats { mut txn, hytm } = run.stats;

    // Settle the oracle's deferred obligations, then snapshot.
    txn.oracle_violations += session.settle().len() as u64;
    let balances = Mill::balances(&accounts, &|addr| session.peek(addr));
    let mut snapshot = MetricsSnapshot::collect(&txn, &run.report);
    snapshot.extend(hytm.entries());
    snapshot.push_latency(&metrics.latency);

    OltpSimResult {
        metrics,
        digest: balances_digest(&balances),
        balances,
        per_thread: run.outputs,
        oracle_violations: txn.oracle_violations,
        txn,
        snapshot,
        trace: run.trace,
    }
}

/// A native-backend mill run.
#[derive(Clone, Debug)]
pub struct OltpNativeConfig {
    /// Traffic parameters; `oltp.threads` host threads are used.
    pub oltp: OltpConfig,
    /// TL2 runtime parameters.
    pub native: NativeConfig,
}

/// Result of a native-backend mill run.
#[derive(Clone, Debug)]
pub struct OltpNativeResult {
    /// Serving metrics (nanoseconds).
    pub metrics: OltpMetrics,
    /// FNV digest of the final balances.
    pub digest: u64,
    /// Final per-account balances.
    pub balances: Vec<u64>,
    /// Per-thread mill timings.
    pub per_thread: Vec<ThreadMillResult>,
    /// TL2 counters merged across threads.
    pub stats: NativeStats,
    /// The run's metrics registry: `stats` under its keys (the
    /// simulator's wherever the meaning is the same, `native.*`
    /// otherwise), `txn.aborts`, and the `latency.*` serving entries.
    pub snapshot: MetricsSnapshot,
}

/// Runs the mill on host threads over the native TL2 runtime.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_oltp_native(cfg: &OltpNativeConfig) -> OltpNativeResult {
    let session = NativeSession::new(cfg.native.clone());
    let (accounts, run) = session.run_definition(&Mill::new(&cfg.oltp), cfg.oltp.threads);
    let stats = run.stats;
    let metrics = OltpMetrics::of(
        &cfg.oltp,
        run.elapsed.as_nanos() as u64,
        &run.outputs,
        stats.commits,
        stats.aborts(),
    );

    let mut snapshot = MetricsSnapshot::default();
    snapshot.extend(stats.entries());
    snapshot.extend([("txn.aborts", stats.aborts())]);
    snapshot.push_latency(&metrics.latency);

    let balances = Mill::balances(&accounts, &|addr| session.peek(addr));
    OltpNativeResult {
        metrics,
        digest: balances_digest(&balances),
        balances,
        per_thread: run.outputs,
        stats,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_zero_sum() {
        let cfg = OltpConfig::quick(3);
        for tid in 0..3 {
            let a = thread_txns(&cfg, tid);
            let b = thread_txns(&cfg, tid);
            assert_eq!(a, b, "stream generation must be bit-exact per seed");
            let mut prev = 0;
            for txn in &a {
                assert!(txn.arrival >= prev, "arrivals are nondecreasing");
                prev = txn.arrival;
                assert!(!txn.keys.is_empty());
                if !txn.is_read_only() {
                    assert_eq!(txn.keys.len(), txn.deltas.len());
                    let sum: i64 = txn.deltas.iter().fold(0, |a, &d| a.wrapping_add(d));
                    assert_eq!(sum, 0, "transfers conserve balance");
                }
                let mut uniq = txn.keys.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), txn.keys.len(), "keys are distinct");
            }
        }
    }

    #[test]
    fn mill_matches_ledger_under_every_scheme() {
        for scheme in Scheme::ALL {
            let threads = if scheme == Scheme::Sequential { 1 } else { 2 };
            let cfg = OltpSimConfig::new(OltpConfig::quick(threads), scheme, Granularity::Object);
            let expected = expected_balances(&cfg.oltp);
            let r = run_oltp_sim(&cfg);
            assert_eq!(r.balances, expected, "{scheme}: ledger divergence");
            assert_eq!(
                total_balance(&r.balances),
                total_balance(&expected),
                "{scheme}: balance not conserved"
            );
            assert_eq!(r.oracle_violations, 0, "{scheme}: zombie commit");
            assert_eq!(r.metrics.latency.count(), cfg.oltp.total_txns());
            assert!(r.metrics.p99() >= r.metrics.p50());
            assert!(r.metrics.goodput_per_munit() > 0.0);
            assert!(r.metrics.abort_retry_amplification() >= 1.0, "{scheme}");
            assert_eq!(
                r.snapshot.get("latency.count"),
                Some(r.metrics.latency.count())
            );
        }
    }

    #[test]
    fn sim_mill_is_bit_deterministic() {
        let cfg = OltpSimConfig::new(OltpConfig::quick(2), Scheme::Stm, Granularity::CacheLine);
        let a = run_oltp_sim(&cfg);
        let b = run_oltp_sim(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics.elapsed, b.metrics.elapsed);
        assert_eq!(a.metrics.latency, b.metrics.latency);
        assert_eq!(a.per_thread, b.per_thread);
    }

    #[test]
    fn native_mill_matches_ledger() {
        let cfg = OltpNativeConfig {
            oltp: OltpConfig::quick(4),
            native: NativeConfig::default(),
        };
        let expected = expected_balances(&cfg.oltp);
        let r = run_oltp_native(&cfg);
        assert_eq!(r.balances, expected, "ledger divergence");
        assert_eq!(r.metrics.latency.count(), cfg.oltp.total_txns());
        assert!(r.stats.commits >= cfg.oltp.total_txns());
    }

    #[test]
    fn large_txn_tail_overflows_htm_capacity() {
        // The tail transaction under HyTM must abort the hardware attempt
        // on capacity and fall back to software — the behavior the
        // paper's capacity argument predicts.
        let mut oltp = OltpConfig::quick(2);
        oltp.large_txn_pct = 30;
        oltp.large_txn_keys = HTM_OVERFLOW_KEYS;
        oltp.accounts = 128;
        let cfg = OltpSimConfig::new(oltp, Scheme::Hytm, Granularity::Object);
        let expected = expected_balances(&cfg.oltp);
        let r = run_oltp_sim(&cfg);
        assert_eq!(r.balances, expected);
    }
}
