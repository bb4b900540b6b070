//! # hastm-check — differential-testing harness for the HASTM reproduction
//!
//! Runs small workloads with *interleaving-independent expected answers*
//! under every `Scheme` × `Granularity` × `IsaLevel` × `GateMode` ×
//! `ModePolicy` combination, across many seeds of the simulator's
//! [`SchedulePolicy::Fuzzed`] schedule/pressure perturbation, and
//! cross-checks:
//!
//! * **exact answers** — a shared-counter workload whose final sum must be
//!   exactly `threads × ops` under every scheme (lost updates and dirty
//!   reads shift the sum);
//! * **differential state** — partitioned-map workloads over the hash
//!   table, the rotating BST, and the B-tree (each thread owns a disjoint
//!   key range, so the final *abstract* map state is independent of the
//!   interleaving, even where the physical tree shape is not) whose final
//!   digest must equal a sequential reference execution of the same
//!   operation streams;
//! * **serializability** — the runtime's [`hastm::OracleLog`] journal is
//!   settled after every run ([`StmRuntime::verify_serializability`]) and
//!   any violation fails the trial;
//! * **replayability** — the first trial of each combination is run twice
//!   and must produce a bit-identical fingerprint (final state digest and
//!   simulated makespan), the property that makes seed replay meaningful;
//! * **cross-scheduler equality** — the per-op and quantum gate admission
//!   modes ([`hastm_sim::GateMode`]) are schedule-identical by
//!   construction, so for every seed both gate variants of a combination
//!   must produce bit-equal fingerprints; any divergence is reported as a
//!   failure of its own.
//!
//! On failure the harness **shrinks** the trial to a minimal failing
//! `ops`/`threads`/`seed` and prints an exact replay command
//! (`cargo run -p hastm-check --release -- --replay …`); the whole trial
//! is deterministic given its parameters, so the replay reproduces the
//! failure exactly.

use std::collections::BTreeSet;
use std::sync::Mutex;

use hastm::{
    Granularity, ModePolicy, ObjRef, OracleMode, PhasedParams, StmRuntime, TimeBreakdown,
    TmContext, TxResult, Versioning,
};
use hastm_locks::SpinLock;
use hastm_sim::{
    FaultEvent, GateMode, IsaLevel, Machine, MachineConfig, Preemption, RunReport, ScheduleEvent,
    SchedulePolicy, TraceConfig, TraceLog, WorkerFn,
};
use hastm_workloads::{AnyMap, BTree, Bst, HashTable, Scheme, Structure, ThreadExec, TxMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod explore;
pub mod native;
pub mod zombie;

#[cfg(test)]
use std::sync::atomic::{AtomicBool, Ordering};

/// Test-only fault injection: when armed, the shared-counter workload
/// performs its increment as a *non-atomic* read-modify-write split across
/// two separate atomic regions — the classic lost-update bug. Exists so the
/// harness's own tests can prove that a real concurrency bug is caught,
/// shrunk, and replayed.
#[cfg(test)]
pub(crate) static INJECT_LOST_UPDATE: AtomicBool = AtomicBool::new(false);

/// Shared plumbing for the in-crate tests (this module and
/// [`explore`]'s): the injection switch is process-global, so every test
/// that runs trials serializes on [`test_support::TEST_LOCK`].
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::atomic::Ordering;
    use std::sync::Mutex;

    /// Serializes tests that run trials: the lost-update injection switch
    /// is process-global, so trial-running tests must not overlap.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Arms the injected lost-update bug for the guard's lifetime.
    pub(crate) struct InjectGuard;
    impl InjectGuard {
        pub(crate) fn arm() -> Self {
            super::INJECT_LOST_UPDATE.store(true, Ordering::SeqCst);
            InjectGuard
        }
    }
    impl Drop for InjectGuard {
        fn drop(&mut self) {
            super::INJECT_LOST_UPDATE.store(false, Ordering::SeqCst);
        }
    }
}

#[inline]
fn lost_update_injected() -> bool {
    #[cfg(test)]
    {
        INJECT_LOST_UPDATE.load(Ordering::Relaxed)
    }
    #[cfg(not(test))]
    {
        false
    }
}

/// One point in the configuration matrix under differential test.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Combo {
    /// Concurrency-control scheme.
    pub scheme: Scheme,
    /// Conflict-detection granularity of the STM runtime.
    pub granularity: Granularity,
    /// Mark-bit ISA implementation level of the simulated machine.
    pub isa: IsaLevel,
    /// Gate admission mode of the simulated machine's scheduler. Both
    /// modes must be schedule-identical; the suite cross-checks their
    /// fingerprints per seed.
    pub gate: GateMode,
    /// Mode policy override; `Some` only for [`Scheme::Hastm`], which is
    /// the one scheme whose policy is not implied by the scheme itself.
    pub policy: Option<ModePolicy>,
    /// Version retention of the STM runtime. Under [`Versioning::Multi`]
    /// the map workloads' lookups run as declared read-only snapshot
    /// transactions, which must commit abort-free; the suite additionally
    /// cross-checks each seed's final *state* against the
    /// [`Versioning::Single`] twin (makespans legitimately differ — the
    /// snapshot path changes per-op cycle costs and thus the
    /// interleaving).
    pub versioning: Versioning,
}

/// The five HASTM mode policies swept for [`Scheme::Hastm`].
const HASTM_POLICIES: [ModePolicy; 5] = [
    ModePolicy::AlwaysCautious,
    ModePolicy::SingleThreadAggressive,
    ModePolicy::AbortRatioWatermark { watermark: 0.1 },
    ModePolicy::NaiveAggressive,
    ModePolicy::Phased(PhasedParams {
        // Tighter than the library defaults so the small suite workloads
        // actually exercise transitions (including the serial phase)
        // within a trial's few hundred transactions.
        demote_after: 2,
        promote_after: 4,
        hysteresis: 4,
        hw_retry_budget: 2,
    }),
];

impl Combo {
    /// The full matrix: every scheme × granularity × ISA level × gate
    /// mode, with [`Scheme::Hastm`] additionally swept over every mode
    /// policy (96 single-version combinations), plus a
    /// [`Versioning::Multi`]`{k: 3}` twin of every STM-based quantum-gate
    /// combination (36 more, 132 total). Gate variants of a combination
    /// are adjacent so the suite's cross-scheduler comparison sees the
    /// pair in the same seed pass; the multi-version twin rides
    /// directly after its quantum single-version original for the same
    /// reason.
    pub fn all() -> Vec<Combo> {
        let mut v = Vec::new();
        let mut push = |combo: Combo| {
            v.push(combo);
            // Multi-version twins only where the snapshot path exists
            // (STM-based schemes), and only under the default quantum gate
            // to keep the matrix focused — the gate axis is already
            // cross-checked on the single-version combos.
            if combo.scheme.is_stm_based() && combo.gate == GateMode::Quantum {
                v.push(Combo {
                    versioning: Versioning::Multi { k: 3 },
                    ..combo
                });
            }
        };
        for &scheme in &Scheme::ALL {
            for granularity in [Granularity::Object, Granularity::CacheLine] {
                for isa in [IsaLevel::Full, IsaLevel::Default] {
                    for gate in [GateMode::Quantum, GateMode::PerOp] {
                        if scheme == Scheme::Hastm {
                            for policy in HASTM_POLICIES {
                                push(Combo {
                                    scheme,
                                    granularity,
                                    isa,
                                    gate,
                                    policy: Some(policy),
                                    versioning: Versioning::Single,
                                });
                            }
                        } else {
                            push(Combo {
                                scheme,
                                granularity,
                                isa,
                                gate,
                                policy: None,
                                versioning: Versioning::Single,
                            });
                        }
                    }
                }
            }
        }
        v
    }

    /// The combination with its gate mode canonicalized away — the key the
    /// cross-scheduler comparison groups fingerprints by.
    pub fn gate_erased(&self) -> Combo {
        Combo {
            gate: GateMode::default(),
            ..*self
        }
    }

    /// The combination with its versioning canonicalized away — the key
    /// the single-vs-multi final-state comparison groups trials by.
    pub fn versioning_erased(&self) -> Combo {
        Combo {
            versioning: Versioning::Single,
            ..*self
        }
    }

    /// The combination with its mode policy canonicalized away — the key
    /// the phased-vs-watermark final-state comparison groups trials by.
    /// Mode policies legitimately change interleavings and makespans
    /// (they change per-attempt barrier costs), so like the versioning
    /// axis only the final *state* is comparable — which every suite
    /// workload makes interleaving-independent by construction.
    pub fn policy_erased(&self) -> Combo {
        Combo {
            policy: self.policy.map(|_| ModePolicy::AlwaysCautious),
            ..*self
        }
    }

    /// Stable machine-parseable identifier, e.g.
    /// `hastm:obj:full:watermark:quantum`.
    pub fn slug(&self) -> String {
        let scheme = match self.scheme {
            Scheme::Sequential => "seq",
            Scheme::Lock => "lock",
            Scheme::Stm => "stm",
            Scheme::HastmCautious => "hastm-cautious",
            Scheme::Hastm => "hastm",
            Scheme::HastmNoReuse => "hastm-noreuse",
            Scheme::NaiveAggressive => "naive-aggressive",
            Scheme::Hytm => "hytm",
        };
        let gran = match self.granularity {
            Granularity::Object => "obj",
            Granularity::CacheLine => "line",
        };
        let isa = match self.isa {
            IsaLevel::Full => "full",
            IsaLevel::Default => "default",
        };
        let mut s = format!("{scheme}:{gran}:{isa}");
        if let Some(p) = self.policy {
            s.push(':');
            s.push_str(match p {
                ModePolicy::AlwaysCautious => "cautious",
                ModePolicy::SingleThreadAggressive => "single",
                ModePolicy::AbortRatioWatermark { .. } => "watermark",
                ModePolicy::NaiveAggressive => "naive",
                ModePolicy::Phased(_) => "ph",
            });
        }
        s.push(':');
        s.push_str(match self.gate {
            GateMode::PerOp => "perop",
            GateMode::Quantum => "quantum",
        });
        if let Versioning::Multi { k } = self.versioning {
            s.push_str(&format!(":v{k}"));
        }
        s
    }

    /// Parses a [`Combo::slug`] back into a combination. The gate suffix
    /// is optional and defaults to [`GateMode::Quantum`] (pre-gate-mode
    /// slugs stay valid), as is the `v<k>` versioning suffix (`v1` means
    /// single-version, `v2`+ a `k`-deep multi-version ring); policy, gate,
    /// and versioning names are disjoint, so every subset of the optional
    /// suffixes parses unambiguously as long as it keeps the canonical
    /// `policy:gate:v<k>` order.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub fn parse(s: &str) -> Result<Combo, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 3 || parts.len() > 6 {
            return Err(format!(
                "combo `{s}`: want scheme:gran:isa[:policy][:gate][:v<k>]"
            ));
        }
        let scheme = match parts[0] {
            "seq" => Scheme::Sequential,
            "lock" => Scheme::Lock,
            "stm" => Scheme::Stm,
            "hastm-cautious" => Scheme::HastmCautious,
            "hastm" => Scheme::Hastm,
            "hastm-noreuse" => Scheme::HastmNoReuse,
            "naive-aggressive" => Scheme::NaiveAggressive,
            "hytm" => Scheme::Hytm,
            other => return Err(format!("unknown scheme `{other}`")),
        };
        let granularity = match parts[1] {
            "obj" => Granularity::Object,
            "line" => Granularity::CacheLine,
            other => return Err(format!("unknown granularity `{other}`")),
        };
        let isa = match parts[2] {
            "full" => IsaLevel::Full,
            "default" => IsaLevel::Default,
            other => return Err(format!("unknown isa level `{other}`")),
        };
        let mut policy = None;
        let mut gate = None;
        let mut versioning = None;
        for part in &parts[3..] {
            let as_policy = match *part {
                "cautious" => Some(ModePolicy::AlwaysCautious),
                "single" => Some(ModePolicy::SingleThreadAggressive),
                "watermark" => Some(ModePolicy::AbortRatioWatermark { watermark: 0.1 }),
                "naive" => Some(ModePolicy::NaiveAggressive),
                "ph" => Some(HASTM_POLICIES[4]),
                _ => None,
            };
            let as_gate = match *part {
                "perop" => Some(GateMode::PerOp),
                "quantum" => Some(GateMode::Quantum),
                _ => None,
            };
            let as_versioning = part
                .strip_prefix('v')
                .and_then(|k| k.parse::<usize>().ok())
                .map(|k| {
                    if k <= 1 {
                        Versioning::Single
                    } else {
                        Versioning::Multi { k }
                    }
                });
            match (as_policy, as_gate, as_versioning) {
                (Some(p), _, _) if policy.is_none() && gate.is_none() && versioning.is_none() => {
                    policy = Some(p);
                }
                (Some(_), _, _) => {
                    return Err(format!("combo `{s}`: policy `{part}` out of place"))
                }
                (_, Some(g), _) if gate.is_none() && versioning.is_none() => gate = Some(g),
                (_, Some(_), _) => return Err(format!("combo `{s}`: gate `{part}` out of place")),
                (_, _, Some(v)) if versioning.is_none() => versioning = Some(v),
                (_, _, Some(_)) => {
                    return Err(format!("combo `{s}`: duplicate versioning `{part}`"))
                }
                _ => return Err(format!("unknown policy, gate, or versioning `{part}`")),
            }
        }
        if policy.is_some() && scheme != Scheme::Hastm {
            return Err(format!("combo `{s}`: only `hastm` takes a policy"));
        }
        let versioning = versioning.unwrap_or_default();
        if versioning.is_multi() && !scheme.is_stm_based() {
            return Err(format!(
                "combo `{s}`: only STM-based schemes take multi-versioning"
            ));
        }
        Ok(Combo {
            scheme,
            granularity,
            isa,
            gate: gate.unwrap_or_default(),
            policy,
            versioning,
        })
    }

    fn stm_config(&self, threads: usize) -> hastm::StmConfig {
        let mut c = self.scheme.stm_config(self.granularity, threads);
        if let Some(p) = self.policy {
            c.mode_policy = p;
        }
        c.versioning = self.versioning;
        c
    }
}

impl std::fmt::Display for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.slug())
    }
}

/// Which invariant-bearing workload a trial runs. The three partitioned
/// structure workloads share one differential runner and differ only in
/// the transactional data structure under test — which is the point:
/// trees exercise rotations, node splits, and long read paths the hash
/// table never does.
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
        match s {
            "counter" => Ok(Workload::Counter),
            "map" => Ok(Workload::Map),
            "bst" => Ok(Workload::Bst),
            "btree" => Ok(Workload::BTree),
            "oltp" => Ok(Workload::Oltp),
            other => Err(format!(
                "unknown workload `{other}` (counter|map|bst|btree|oltp)"
            )),
        }
    }
}

/// Schedule-exploration policy of a trial's measured run. The trial seed
/// doubles as the policy seed, so one `(sched, seed)` pair fully pins the
/// interleaving.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Sched {
    /// Seeded priority jitter plus random cache pressure (the harness's
    /// original perturbation; good at volume, weak at rare orderings).
    #[default]
    Fuzzed,
    /// PCT (probabilistic concurrency testing): random per-core priorities
    /// with `depth − 1` priority-change points, giving a provable chance
    /// of hitting any bug of preemption depth ≤ `depth`.
    Pct {
        /// PCT bug depth (number of ordering constraints targeted).
        depth: u32,
    },
    /// No perturbation at all: the base deterministic schedule. Used by
    /// the exhaustive explorer, which supplies explicit preemption traces
    /// on top of it.
    Det,
}

impl Sched {
    /// Stable identifier: `fuzzed`, `pct:<depth>`, or `det`.
    pub fn slug(self) -> String {
        match self {
            Sched::Fuzzed => "fuzzed".into(),
            Sched::Pct { depth } => format!("pct:{depth}"),
            Sched::Det => "det".into(),
        }
    }

    /// Parses a [`Sched::slug`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed policy.
    pub fn parse(s: &str) -> Result<Sched, String> {
        match s {
            "fuzzed" => Ok(Sched::Fuzzed),
            "det" => Ok(Sched::Det),
            _ => match s.strip_prefix("pct:") {
                Some(d) => {
                    let depth: u32 = d
                        .parse()
                        .map_err(|_| format!("pct depth `{d}` is not a number"))?;
                    if depth == 0 {
                        return Err("pct depth must be at least 1".into());
                    }
                    Ok(Sched::Pct { depth })
                }
                None => Err(format!("unknown sched `{s}` (fuzzed|pct:<depth>|det)")),
            },
        }
    }

    /// The simulator schedule policy this sched selects for `seed`.
    pub fn policy(self, seed: u64) -> SchedulePolicy {
        match self {
            Sched::Fuzzed => SchedulePolicy::Fuzzed { seed },
            Sched::Pct { depth } => SchedulePolicy::Pct { seed, depth },
            Sched::Det => SchedulePolicy::Deterministic,
        }
    }
}

impl std::fmt::Display for Sched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.slug())
    }
}

/// One fully-determined harness execution: re-running a `Trial` always
/// reproduces the same machine, schedule, and outcome.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Trial {
    /// Configuration-matrix point.
    pub combo: Combo,
    /// Workload under test.
    pub workload: Workload,
    /// Seed for both the operation streams and the schedule policy.
    pub seed: u64,
    /// Worker threads (forced to 1 for [`Scheme::Sequential`]).
    pub threads: usize,
    /// Operations per thread.
    pub ops: u64,
    /// Schedule policy of the measured run.
    pub sched: Sched,
}

impl Trial {
    fn effective_threads(&self) -> usize {
        if self.combo.scheme == Scheme::Sequential {
            1
        } else {
            self.threads
        }
    }
}

impl std::fmt::Display for Trial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} @ {} sched={} seed={} threads={} ops={}",
            self.workload.slug(),
            self.combo,
            self.sched,
            self.seed,
            self.effective_threads(),
            self.ops
        )
    }
}

/// Bit-exact summary of one trial run, compared across re-runs to enforce
/// determinism (the property seed replay depends on).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Digest of the final abstract state (sum or map digest).
    pub state: u64,
    /// Simulated makespan of the measured run in cycles.
    pub makespan: u64,
}

/// FNV-1a over one `(key, value)` pair; summed with a commutative combine
/// so the digest depends only on the final abstract state (same fold the
/// workload driver uses).
pub(crate) fn fnv_pair(key: u64, value: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.to_le_bytes().iter().chain(value.to_le_bytes().iter()) {
        h = (h ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn machine_config(trial: &Trial, cores: usize, perturbed: bool) -> MachineConfig {
    let mut mc = MachineConfig::with_cores(cores);
    mc.isa = trial.combo.isa;
    mc.gate = trial.combo.gate;
    if perturbed {
        mc.schedule = trial.sched.policy(trial.seed);
    }
    mc
}

// ---------------------------------------------------------------------------
// Run plans and observations
// ---------------------------------------------------------------------------

/// Extra machinery applied to a trial's *measured* run only (the setup and
/// digest phases stay unperturbed): an explicit preemption trace, a fault
/// plan, and optional schedule recording. The empty default reproduces the
/// plain trial exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunPlan {
    /// Preemption directives, sorted by `at_op` (favored-core switches).
    pub preemptions: Vec<Preemption>,
    /// Fault events, sorted by `at_op` (evictions, back-invalidations,
    /// spurious HTM aborts).
    pub faults: Vec<FaultEvent>,
    /// Record the measured run's per-op schedule into the observation.
    pub record_schedule: bool,
    /// Record the measured run's structured event trace into the
    /// observation (see [`hastm_sim::TraceLog`]).
    pub trace: Option<TraceConfig>,
}

/// Formats a preemption trace as a replayable slug: `at@core,at@core,…`
/// (empty string for the empty trace).
pub fn trace_slug(trace: &[Preemption]) -> String {
    trace
        .iter()
        .map(|p| format!("{}@{}", p.at_op, p.core))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a [`trace_slug`] back into a preemption trace.
///
/// # Errors
///
/// Returns a message describing the malformed directive.
pub fn parse_trace(s: &str) -> Result<Vec<Preemption>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut trace = Vec::new();
    for part in s.split(',') {
        let (at, core) = part
            .split_once('@')
            .ok_or_else(|| format!("trace directive `{part}`: want at_op@core"))?;
        let at_op: u64 = at
            .parse()
            .map_err(|_| format!("trace at_op `{at}` is not a number"))?;
        let core: usize = core
            .parse()
            .map_err(|_| format!("trace core `{core}` is not a number"))?;
        trace.push(Preemption { at_op, core });
    }
    if !trace.is_sorted_by_key(|p| p.at_op) {
        return Err(format!("trace `{s}` is not sorted by at_op"));
    }
    Ok(trace)
}

/// What one measured run exposed beyond its fingerprint: the recorded
/// schedule (empty unless the plan asked for it) and the abort causes the
/// worker threads observed.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Per-op schedule of the measured run (op index, core, touched line).
    pub schedule: Vec<ScheduleEvent>,
    /// Distinct abort causes observed across all worker threads.
    pub abort_causes: BTreeSet<&'static str>,
    /// Committed transactions across all worker threads.
    pub commits: u64,
    /// Aborted transaction attempts across all worker threads.
    pub aborts: u64,
    /// Committed read-only snapshot transactions across all worker
    /// threads (nonzero only under [`Versioning::Multi`]).
    pub ro_commits: u64,
    /// Read-only snapshot transaction attempts that did not commit.
    /// Snapshot reads cannot conflict-abort, so any nonzero count here is
    /// a runtime bug; [`run_map`] fails the trial on it.
    pub ro_aborts: u64,
    /// Global phase transitions the worker threads published (nonzero only
    /// under [`ModePolicy::Phased`]). The oscillation stress suite bounds
    /// this against the transaction count to catch HW/SW ping-pong.
    pub phase_transitions: u64,
    /// Transactions committed inside the serial (irrevocable) phase.
    pub serial_commits: u64,
    /// Structured event trace of the measured run (`None` unless the plan
    /// armed [`RunPlan::trace`]).
    pub trace: Option<TraceLog>,
    /// Summed per-thread time breakdown of the measured run (STM schemes
    /// only; zero for schemes without [`hastm::TxnStats`]).
    pub breakdown: TimeBreakdown,
    /// The measured run's machine report (`None` until the run finishes).
    pub report: Option<RunReport>,
}

/// Folds one thread's executor statistics into a shared observation.
fn observe_thread(obs: &Mutex<Observation>, ex: &ThreadExec<'_, '_>) {
    let mut obs = obs.lock().unwrap();
    if let Some(st) = ex.txn_stats() {
        obs.commits += st.commits;
        obs.aborts += st.aborts();
        obs.ro_commits += st.ro_commits;
        obs.ro_aborts += st.ro_aborts;
        obs.phase_transitions += st.phase_transitions;
        obs.serial_commits += st.serial_commits;
        obs.breakdown.merge(&st.breakdown);
        for (n, label) in [
            (st.aborts_conflict, "conflict"),
            (st.aborts_mark_dirty, "mark-dirty"),
            (st.aborts_retry, "retry"),
            (st.aborts_explicit, "explicit"),
        ] {
            if n > 0 {
                obs.abort_causes.insert(label);
            }
        }
    }
    if let Some(st) = ex.hytm_stats() {
        obs.commits += st.hw_commits + st.sw_commits;
        obs.aborts += st.hw_aborts_conflict + st.hw_aborts_capacity + st.hw_aborts_spurious;
        for (n, label) in [
            (st.hw_aborts_conflict, "hw-conflict"),
            (st.hw_aborts_capacity, "hw-capacity"),
            (st.hw_aborts_spurious, "hw-spurious"),
            (st.sw_commits, "hw-fallback"),
        ] {
            if n > 0 {
                obs.abort_causes.insert(label);
            }
        }
    }
}

/// Installs the plan on `machine` for the next run.
fn arm_plan(machine: &mut Machine, plan: &RunPlan) {
    machine.set_preemptions(plan.preemptions.clone());
    machine.set_faults(plan.faults.clone());
    machine.set_record_schedule(plan.record_schedule);
    machine.set_tracing(plan.trace);
}

/// Clears any installed plan so later (digest) runs are unperturbed, and
/// harvests the recorded schedule and event trace into `obs`.
fn disarm_plan(machine: &mut Machine, obs: &mut Observation) {
    obs.schedule = machine.take_schedule_log();
    obs.trace = machine.take_trace();
    machine.set_preemptions(Vec::new());
    machine.set_faults(Vec::new());
    machine.set_record_schedule(false);
    machine.set_tracing(None);
}

// ---------------------------------------------------------------------------
// Counter workload
// ---------------------------------------------------------------------------

/// Number of contended counter cells (2 cells on adjacent heap objects:
/// high contention, plus false sharing under cache-line granularity).
pub(crate) const COUNTER_CELLS: usize = 2;

fn run_counter(trial: &Trial, plan: &RunPlan) -> (Result<Fingerprint, String>, Observation) {
    let threads = trial.effective_threads();
    let mut machine = Machine::new(machine_config(trial, threads, true));
    let runtime = StmRuntime::new(
        &mut machine,
        trial
            .combo
            .stm_config(threads)
            .with_oracle(OracleMode::Record),
    );
    let lock = SpinLock::alloc(runtime.heap());
    let rt = &runtime;
    let (cells, _) = machine.run_one(move |cpu| {
        let mut ex = ThreadExec::new(Scheme::Sequential, rt, cpu, lock);
        (0..COUNTER_CELLS)
            .map(|_| {
                let cell = ex.alloc_obj(1);
                ex.atomic(|ctx| ctx.ctx_write(cell, 0, 0));
                cell
            })
            .collect::<Vec<ObjRef>>()
    });

    arm_plan(&mut machine, plan);
    let obs = Mutex::new(Observation::default());
    let scheme = trial.combo.scheme;
    let seed = trial.seed;
    let ops = trial.ops;
    let cells_ref = &cells;
    let obs_ref = &obs;
    let workers: Vec<WorkerFn<'_>> = (0..threads)
        .map(|tid| {
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut ex = ThreadExec::new(scheme, rt, cpu, lock);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de ^ ((tid as u64) << 24));
                for _ in 0..ops {
                    let cell = cells_ref[rng.gen_range(0..COUNTER_CELLS as u64) as usize];
                    if lost_update_injected() {
                        // Injected bug (test-only): the read-modify-write is
                        // split across two atomic regions, so a concurrent
                        // increment between them is lost.
                        let v = ex.atomic(|ctx| ctx.ctx_read(cell, 0));
                        ex.atomic(|ctx| ctx.ctx_write(cell, 0, v + 1));
                    } else {
                        ex.atomic(|ctx| {
                            let v = ctx.ctx_read(cell, 0)?;
                            ctx.ctx_write(cell, 0, v + 1)
                        });
                    }
                }
                observe_thread(obs_ref, &ex);
            }) as WorkerFn<'_>
        })
        .collect();
    let report = machine.run(workers);
    let mut obs = obs.into_inner().unwrap();
    disarm_plan(&mut machine, &mut obs);
    obs.report = Some(report.clone());

    let violations = runtime.verify_serializability(&machine);
    if let Some(v) = violations.first() {
        let err = format!("oracle: {v} ({} violations total)", violations.len());
        return (Err(err), obs);
    }

    let expected = threads as u64 * trial.ops;
    let mut total = 0u64;
    let mut state = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        let v = machine.peek_u64(cell.word(0));
        total += v;
        state = state.wrapping_add(fnv_pair(i as u64, v));
    }
    if total != expected {
        let err = format!(
            "counter sum {total} != expected {expected} ({} increments lost)",
            expected as i64 - total as i64
        );
        return (Err(err), obs);
    }
    (
        Ok(Fingerprint {
            state,
            makespan: report.makespan(),
        }),
        obs,
    )
}

// ---------------------------------------------------------------------------
// Map workload
// ---------------------------------------------------------------------------

/// Keys per thread partition.
pub(crate) const KEYS_PER_THREAD: u64 = 8;

#[derive(Copy, Clone, Debug)]
pub(crate) enum MapOpKind {
    Insert,
    Remove,
    Get,
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct MapOp {
    kind: MapOpKind,
    key: u64,
    value: u64,
}

/// Thread `tid`'s deterministic operation stream. All keys fall inside the
/// thread's own partition `[tid·K, (tid+1)·K)`, so the final per-partition
/// state — and therefore the whole map — is independent of how the
/// threads interleave.
pub(crate) fn stream(seed: u64, tid: usize, ops: u64) -> Vec<MapOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff ^ ((tid as u64) << 20));
    let base = tid as u64 * KEYS_PER_THREAD;
    (0..ops)
        .map(|i| {
            let key = base + rng.gen_range(0..KEYS_PER_THREAD);
            let roll: u32 = rng.gen_range(0..100);
            let kind = if roll < 45 {
                MapOpKind::Insert
            } else if roll < 70 {
                MapOpKind::Remove
            } else {
                MapOpKind::Get
            };
            let value = (seed ^ (i << 8) ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            MapOp { kind, key, value }
        })
        .collect()
}

/// Creates the structure under test. The hash table is sized small (32
/// buckets) to force bucket-chain traversals; trees size themselves.
pub(crate) fn create_map(ctx: &mut dyn TmContext, structure: Structure) -> TxResult<AnyMap> {
    Ok(match structure {
        Structure::HashTable => AnyMap::Hash(HashTable::create(ctx, 32)),
        Structure::Bst => AnyMap::Bst(Bst::create(ctx)),
        Structure::BTree => AnyMap::BTree(BTree::create(ctx)?),
    })
}

pub(crate) fn apply_stream<E: hastm::TmExec>(ex: &mut E, map: &AnyMap, ops: &[MapOp]) {
    for op in ops {
        match op.kind {
            MapOpKind::Insert => {
                ex.atomic(|ctx| map.insert(ctx, op.key, op.value));
            }
            MapOpKind::Remove => {
                ex.atomic(|ctx| map.remove(ctx, op.key));
            }
            MapOpKind::Get => {
                // Declared read-only: under a multi-version runtime this
                // takes the abort-free snapshot path; under a
                // single-version runtime (or a non-STM scheme) it is
                // exactly an ordinary atomic region, so single-version
                // fingerprints are unchanged by the routing.
                ex.atomic_ro(|ctx| map.get(ctx, op.key));
            }
        }
    }
}

pub(crate) fn map_digest<E: hastm::TmExec>(ex: &mut E, map: &AnyMap, key_span: u64) -> u64 {
    let mut digest = 0u64;
    let mut resident = 0u64;
    for key in 0..key_span {
        if let Some(value) = ex.atomic(|ctx| map.get(ctx, key)) {
            digest = digest.wrapping_add(fnv_pair(key, value));
            resident += 1;
        }
    }
    digest.wrapping_add(resident.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn run_map(
    trial: &Trial,
    structure: Structure,
    plan: &RunPlan,
) -> (Result<Fingerprint, String>, Observation) {
    let threads = trial.effective_threads();
    let streams: Vec<Vec<MapOp>> = (0..threads)
        .map(|t| stream(trial.seed, t, trial.ops))
        .collect();
    let key_span = threads as u64 * KEYS_PER_THREAD;

    // Sequential reference on a fresh single-core machine: applies the same
    // streams one thread after another. Because partitions are disjoint,
    // any legal concurrent execution must end in this exact map state.
    let expected = {
        let mut machine = Machine::new(machine_config(trial, 1, false));
        let runtime = StmRuntime::new(
            &mut machine,
            Scheme::Sequential.stm_config(trial.combo.granularity, 1),
        );
        let lock = SpinLock::alloc(runtime.heap());
        let rt = &runtime;
        let streams_ref = &streams;
        let (digest, _) = machine.run_one(move |cpu| {
            let mut ex = ThreadExec::new(Scheme::Sequential, rt, cpu, lock);
            let map = ex.atomic(|ctx| create_map(ctx, structure));
            for s in streams_ref {
                apply_stream(&mut ex, &map, s);
            }
            map_digest(&mut ex, &map, key_span)
        });
        digest
    };

    // Measured run under the combination, fuzzed schedule.
    let mut machine = Machine::new(machine_config(trial, threads, true));
    let runtime = StmRuntime::new(
        &mut machine,
        trial
            .combo
            .stm_config(threads)
            .with_oracle(OracleMode::Record),
    );
    let lock = SpinLock::alloc(runtime.heap());
    let rt = &runtime;
    let (map, _) = machine.run_one(move |cpu| {
        let mut ex = ThreadExec::new(Scheme::Sequential, rt, cpu, lock);
        ex.atomic(|ctx| create_map(ctx, structure))
    });
    arm_plan(&mut machine, plan);
    let obs = Mutex::new(Observation::default());
    let obs_ref = &obs;
    let scheme = trial.combo.scheme;
    let streams_ref = &streams;
    let workers: Vec<WorkerFn<'_>> = (0..threads)
        .map(|tid| {
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut ex = ThreadExec::new(scheme, rt, cpu, lock);
                apply_stream(&mut ex, &map, &streams_ref[tid]);
                observe_thread(obs_ref, &ex);
            }) as WorkerFn<'_>
        })
        .collect();
    let report = machine.run(workers);
    let mut obs = obs.into_inner().unwrap();
    disarm_plan(&mut machine, &mut obs);
    obs.report = Some(report.clone());

    let violations = runtime.verify_serializability(&machine);
    if let Some(v) = violations.first() {
        let err = format!("oracle: {v} ({} violations total)", violations.len());
        return (Err(err), obs);
    }

    // Zero-abort guarantee of the snapshot path: a multi-version runtime
    // commits declared read-only transactions without validation, so a
    // single snapshot abort is a runtime bug, not contention.
    if trial.combo.versioning.is_multi() && obs.ro_aborts > 0 {
        let err = format!(
            "{} read-only snapshot aborts under {:?} (snapshot reads must be abort-free)",
            obs.ro_aborts, trial.combo.versioning
        );
        return (Err(err), obs);
    }

    let (digest, _) = machine.run_one(move |cpu| {
        let mut ex = ThreadExec::new(Scheme::Sequential, rt, cpu, lock);
        map_digest(&mut ex, &map, key_span)
    });
    if digest != expected {
        let err = format!("map digest {digest:#018x} != sequential reference {expected:#018x}");
        return (Err(err), obs);
    }
    (
        Ok(Fingerprint {
            state: digest,
            makespan: report.makespan(),
        }),
        obs,
    )
}

// ---------------------------------------------------------------------------
// OLTP workload
// ---------------------------------------------------------------------------

/// The mill parameters a trial maps to: a small, hot ledger (16 accounts,
/// θ = 0.9, a 10% eight-key tail) so real cross-thread conflicts occur
/// even at the harness's small op counts. Shared with the native runner so
/// sim and native trials of the same `(seed, threads, ops)` replay the
/// identical traffic and must end in the identical closed-form state.
pub(crate) fn oltp_params(seed: u64, threads: usize, ops: u64) -> hastm_workloads::OltpConfig {
    hastm_workloads::OltpConfig {
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
    }
}

/// Runs the OLTP mill on the simulator (base STM, fuzzed schedule) for the
/// shared [`oltp_params`] point and returns the final ledger digest. The
/// native differential suite compares this against the native TL2 digest
/// directly — a belt-and-braces check on top of the closed-form ledger
/// both runners verify independently.
///
/// # Panics
///
/// Panics if the simulated run itself violates the ledger or the
/// serializability oracle (that is a sim bug, not a differential finding).
pub fn oltp_sim_digest(seed: u64, threads: usize, ops: u64) -> u64 {
    use hastm_workloads::oltp;

    let mut cfg = oltp::OltpSimConfig::new(
        oltp_params(seed, threads, ops),
        Scheme::Stm,
        Granularity::CacheLine,
    );
    cfg.machine.schedule = hastm_sim::SchedulePolicy::Fuzzed { seed };
    let r = oltp::run_oltp_sim(&cfg);
    assert_eq!(r.oracle_violations, 0, "sim oltp run is unserializable");
    let expected = oltp::expected_balances(&cfg.oltp);
    assert_eq!(
        r.balances, expected,
        "sim oltp run diverged from the ledger"
    );
    r.digest
}

fn run_oltp(trial: &Trial, plan: &RunPlan) -> (Result<Fingerprint, String>, Observation) {
    use hastm_workloads::oltp;

    let threads = trial.effective_threads();
    let params = oltp_params(trial.seed, threads, trial.ops);
    let streams: Vec<Vec<hastm_workloads::OltpTxn>> = (0..threads)
        .map(|t| oltp::thread_txns(&params, t))
        .collect();
    // Closed-form reference: transfers apply fixed zero-sum deltas, so the
    // final ledger is initial + Σ deltas regardless of interleaving.
    let expected = oltp::expected_balances(&params);

    let mut machine = Machine::new(machine_config(trial, threads, true));
    let runtime = StmRuntime::new(
        &mut machine,
        trial
            .combo
            .stm_config(threads)
            .with_oracle(OracleMode::Record),
    );
    let lock = SpinLock::alloc(runtime.heap());
    let rt = &runtime;
    let n_accounts = params.accounts;
    let (accounts, _) = machine.run_one(move |cpu| {
        let mut ex = ThreadExec::new(Scheme::Sequential, rt, cpu, lock);
        (0..n_accounts)
            .map(|key| {
                let obj = ex.alloc_obj(oltp::ACCOUNT_WORDS);
                ex.atomic(|ctx| ctx.ctx_write(obj, 0, oltp::initial_balance(key)));
                obj
            })
            .collect::<Vec<ObjRef>>()
    });

    arm_plan(&mut machine, plan);
    let obs = Mutex::new(Observation::default());
    let obs_ref = &obs;
    let scheme = trial.combo.scheme;
    let accounts_ref = &accounts;
    let streams_ref = &streams;
    let workers: Vec<WorkerFn<'_>> = (0..threads)
        .map(|tid| {
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut ex = ThreadExec::new(scheme, rt, cpu, lock);
                oltp::run_mill_thread(&mut ex, accounts_ref, &streams_ref[tid]);
                observe_thread(obs_ref, &ex);
            }) as WorkerFn<'_>
        })
        .collect();
    let report = machine.run(workers);
    let mut obs = obs.into_inner().unwrap();
    disarm_plan(&mut machine, &mut obs);
    obs.report = Some(report.clone());

    let violations = runtime.verify_serializability(&machine);
    if let Some(v) = violations.first() {
        let err = format!("oracle: {v} ({} violations total)", violations.len());
        return (Err(err), obs);
    }

    let balances: Vec<u64> = accounts
        .iter()
        .map(|obj| machine.peek_u64(obj.word(0)))
        .collect();
    if oltp::total_balance(&balances) != oltp::total_balance(&expected) {
        let err = format!(
            "oltp total balance {} != conserved total {}",
            oltp::total_balance(&balances),
            oltp::total_balance(&expected)
        );
        return (Err(err), obs);
    }
    if let Some(key) = (0..balances.len()).find(|&k| balances[k] != expected[k]) {
        let err = format!(
            "oltp account {key} balance {} != ledger {} (first of {} divergent accounts)",
            balances[key],
            expected[key],
            balances
                .iter()
                .zip(&expected)
                .filter(|(a, b)| a != b)
                .count()
        );
        return (Err(err), obs);
    }
    (
        Ok(Fingerprint {
            state: oltp::balances_digest(&balances),
            makespan: report.makespan(),
        }),
        obs,
    )
}

// ---------------------------------------------------------------------------
// Trial execution, determinism, shrinking
// ---------------------------------------------------------------------------

/// Runs one trial under a [`RunPlan`] and returns its fingerprint plus
/// what the run exposed (recorded schedule, abort causes), or a
/// description of the violated invariant.
///
/// # Errors
///
/// Returns the invariant-violation message (lost updates, digest
/// divergence from the sequential reference, or an oracle
/// serializability violation).
pub fn run_trial_plan(trial: &Trial, plan: &RunPlan) -> Result<(Fingerprint, Observation), String> {
    let (res, obs) = run_trial_observed(trial, plan);
    res.map(|fp| (fp, obs))
}

/// Like [`run_trial_plan`], but yields the observation even when the trial
/// fails — a failing run's recorded schedule, event trace, and machine
/// report are exactly what post-mortem tooling (timeline summaries,
/// `--trace-out` on a shrunk repro) needs.
pub fn run_trial_observed(
    trial: &Trial,
    plan: &RunPlan,
) -> (Result<Fingerprint, String>, Observation) {
    match trial.workload {
        Workload::Counter => run_counter(trial, plan),
        Workload::Map => run_map(trial, Structure::HashTable, plan),
        Workload::Bst => run_map(trial, Structure::Bst, plan),
        Workload::BTree => run_map(trial, Structure::BTree, plan),
        Workload::Oltp => run_oltp(trial, plan),
    }
}

/// [`run_trial_plan`] with the empty plan, fingerprint only.
///
/// # Errors
///
/// As [`run_trial_plan`].
pub fn run_trial(trial: &Trial) -> Result<Fingerprint, String> {
    run_trial_plan(trial, &RunPlan::default()).map(|(fp, _)| fp)
}

// ---------------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------------

/// One ordered conflict between two cores on the same cache line:
/// `(first core, second core, first was a write, second was a write)`,
/// with at least one side writing. The set of these a campaign has seen is
/// its interleaving coverage — a lost-update bug, for example, requires
/// the specific `(reader, writer)` then `(writer, reader)` orderings.
pub type ConflictOrdering = (usize, usize, bool, bool);

/// Interleaving-coverage accumulator across runs of a campaign (PCT sweep
/// or exhaustive exploration). All metrics count *distinct* items, so a
/// campaign that keeps replaying one schedule shows flat coverage.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    /// Distinct ordered conflict pairs observed (requires recorded
    /// schedules).
    pub conflict_orderings: BTreeSet<ConflictOrdering>,
    /// Distinct abort causes observed across all runs.
    pub abort_causes: BTreeSet<&'static str>,
    /// Distinct whole-run schedule hashes (requires recorded schedules).
    pub schedules: BTreeSet<u64>,
    /// Runs folded in.
    pub runs: u64,
}

/// FNV-1a hash of a recorded schedule: the `(core, line, is_write)`
/// sequence of every gated op. Two runs with equal hashes executed the
/// same interleaving of the same per-core op streams, hence (the machine
/// being deterministic) are the same run.
pub fn schedule_hash(schedule: &[ScheduleEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for ev in schedule {
        mix(ev.core as u64);
        match ev.line {
            Some((line, write)) => {
                mix(line.0);
                mix(u64::from(write));
            }
            None => mix(u64::MAX),
        }
    }
    h
}

impl Coverage {
    /// Folds one run's observation in.
    pub fn note(&mut self, obs: &Observation) {
        self.runs += 1;
        self.abort_causes.extend(obs.abort_causes.iter());
        if obs.schedule.is_empty() {
            return;
        }
        self.schedules.insert(schedule_hash(&obs.schedule));
        let mut last: std::collections::HashMap<hastm_sim::LineId, (usize, bool)> =
            std::collections::HashMap::new();
        for ev in &obs.schedule {
            let Some((line, write)) = ev.line else {
                continue;
            };
            if let Some(&(prev_core, prev_write)) = last.get(&line) {
                if prev_core != ev.core && (prev_write || write) {
                    self.conflict_orderings
                        .insert((prev_core, ev.core, prev_write, write));
                }
            }
            last.insert(line, (ev.core, write));
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} runs, {} distinct schedules, {} conflict-pair orderings, {} abort causes [{}]",
            self.runs,
            self.schedules.len(),
            self.conflict_orderings.len(),
            self.abort_causes.len(),
            self.abort_causes
                .iter()
                .copied()
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
}

/// Runs a trial under a plan (twice when `determinism` is set) and returns
/// its fingerprint and observation, or the failure detail. With schedule
/// recording on, the determinism re-run must reproduce the schedule
/// bit-for-bit, not just the fingerprint.
///
/// # Errors
///
/// Returns the invariant-violation or nondeterminism detail.
pub fn check_trial_plan(
    trial: &Trial,
    plan: &RunPlan,
    determinism: bool,
) -> Result<(Fingerprint, Observation), String> {
    let (fp, obs) = run_trial_plan(trial, plan)?;
    if determinism {
        match run_trial_plan(trial, plan) {
            Err(detail) => return Err(format!("nondeterministic: re-run failed: {detail}")),
            Ok((fp2, _)) if fp2 != fp => {
                return Err(format!(
                    "nondeterministic: fingerprint {fp:?} then {fp2:?} from identical trials"
                ))
            }
            Ok((_, obs2)) if schedule_hash(&obs2.schedule) != schedule_hash(&obs.schedule) => {
                return Err(
                    "nondeterministic: identical trials recorded different schedules".into(),
                )
            }
            Ok(_) => {}
        }
    }
    Ok((fp, obs))
}

/// Runs a trial (twice when `determinism` is set) and returns its
/// fingerprint, or the failure detail.
///
/// # Errors
///
/// Returns the invariant-violation or nondeterminism detail.
pub fn check_trial_fingerprint(trial: &Trial, determinism: bool) -> Result<Fingerprint, String> {
    check_trial_plan(trial, &RunPlan::default(), determinism).map(|(fp, _)| fp)
}

/// Runs a trial (twice when `determinism` is set) and returns `Some`
/// failure detail, or `None` when every invariant holds.
pub fn check_trial(trial: &Trial, determinism: bool) -> Option<String> {
    check_trial_fingerprint(trial, determinism).err()
}

/// Greedily shrinks a failing trial: halve/decrement `ops`, then reduce
/// `threads`, then try small seeds — keeping every candidate that still
/// fails. The predicate re-runs the (deterministic) trial, so the result
/// is a genuinely minimal reproducer within `budget` re-runs.
pub fn shrink_failure(trial: Trial, detail: String, budget: u32) -> (Trial, String) {
    let determinism = detail.starts_with("nondeterministic");
    let mut fails = {
        let mut left = budget;
        move |t: &Trial| -> Option<String> {
            if left == 0 {
                return None;
            }
            left -= 1;
            check_trial(t, determinism)
        }
    };

    let mut best = trial;
    let mut best_detail = detail;
    loop {
        let mut candidates = vec![];
        if best.ops > 1 {
            candidates.push(Trial {
                ops: best.ops / 2,
                ..best
            });
            candidates.push(Trial {
                ops: best.ops - 1,
                ..best
            });
        }
        let mut progressed = false;
        for t in candidates {
            if let Some(d) = fails(&t) {
                best = t;
                best_detail = d;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    while best.threads > 2 {
        let t = Trial {
            threads: best.threads - 1,
            ..best
        };
        match fails(&t) {
            Some(d) => {
                best = t;
                best_detail = d;
            }
            None => break,
        }
    }
    for s in 0..best.seed.min(4) {
        let t = Trial { seed: s, ..best };
        if let Some(d) = fails(&t) {
            best = t;
            best_detail = d;
            break;
        }
    }
    (best, best_detail)
}

/// The exact command that reproduces one trial.
pub fn replay_command(trial: &Trial) -> String {
    format!(
        "cargo run -p hastm-check --release -- --replay --workload {} --combo {} --sched {} --seed {} --threads {} --ops {}",
        trial.workload.slug(),
        trial.combo.slug(),
        trial.sched.slug(),
        trial.seed,
        trial.effective_threads(),
        trial.ops
    )
}

// ---------------------------------------------------------------------------
// Suite
// ---------------------------------------------------------------------------

/// Suite parameters (CLI flags map onto these one-to-one).
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Worker threads per trial.
    pub threads: usize,
    /// Operations per thread per trial.
    pub ops: u64,
    /// Configuration matrix (defaults to [`Combo::all`]).
    pub combos: Vec<Combo>,
    /// Workloads to run (defaults to all five).
    pub workloads: Vec<Workload>,
    /// Maximum trial re-runs the shrinker may spend per failure.
    pub shrink_budget: u32,
    /// Schedule policy every trial runs under.
    pub sched: Sched,
    /// Record every trial's schedule and accumulate interleaving coverage
    /// into the report (small per-trial cost; abort-cause coverage is
    /// collected regardless).
    pub coverage: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seeds: 50,
            start_seed: 0,
            threads: 3,
            ops: 32,
            combos: Combo::all(),
            workloads: Workload::ALL.to_vec(),
            shrink_budget: 48,
            sched: Sched::Fuzzed,
            coverage: false,
        }
    }
}

/// One confirmed invariant violation, shrunk and replayable.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The trial that first exposed the violation.
    pub trial: Trial,
    /// Its failure detail.
    pub detail: String,
    /// The minimal failing trial the shrinker reached.
    pub shrunk: Trial,
    /// The shrunk trial's failure detail.
    pub shrunk_detail: String,
    /// Exact reproduction command for the shrunk trial.
    pub replay: String,
}

/// Suite outcome.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// Trials executed (excluding determinism re-runs and shrink re-runs).
    pub trials: u64,
    /// Every invariant violation found.
    pub failures: Vec<Failure>,
    /// Interleaving coverage across all trials (schedule-based metrics
    /// only populated when [`CheckConfig::coverage`] is on).
    pub coverage: Coverage,
}

/// Sweeps the full matrix across the seed range, calling `on_trial` after
/// each trial with its pass/fail status. The first seed of every
/// combination additionally checks determinism by re-running. Within each
/// seed, passing trials that differ only in [`GateMode`] are cross-checked
/// for bit-equal fingerprints (the schedule-identity property of the
/// run-until-overtaken quantum gate), and passing trials that differ only
/// in [`Versioning`] are cross-checked for equal final *state* (the
/// snapshot path must never change what writers commit; makespans
/// legitimately differ); a divergence is reported as its own [`Failure`].
pub fn run_suite(cfg: &CheckConfig, mut on_trial: impl FnMut(&Trial, bool)) -> SuiteReport {
    let mut report = SuiteReport::default();
    let plan = RunPlan {
        record_schedule: cfg.coverage,
        ..RunPlan::default()
    };
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        // (gate-erased combo slug, workload) → first gate variant's result,
        // reset per seed so only same-seed trials are compared.
        let mut by_gate_erased: std::collections::HashMap<
            (String, Workload),
            (Trial, Fingerprint),
        > = std::collections::HashMap::new();
        // (versioning-erased combo slug, workload) → first versioning
        // variant's result. Unlike the gate axis, versioning twins are
        // *not* schedule-identical (the snapshot path changes per-op
        // cycle costs), so only the final state is compared — which every
        // suite workload makes interleaving-independent by construction.
        let mut by_versioning_erased: std::collections::HashMap<
            (String, Workload),
            (Trial, Fingerprint),
        > = std::collections::HashMap::new();
        // (policy-erased combo slug, workload) → first policy variant's
        // result, restricted to the Phased / AbortRatioWatermark pair:
        // the phase controller must be *observationally invisible* in the
        // final state — it may change when transactions run, never what
        // they commit (serial-phase soundness included).
        let mut by_policy_pair: std::collections::HashMap<(String, Workload), (Trial, Fingerprint)> =
            std::collections::HashMap::new();
        for combo in &cfg.combos {
            for &workload in &cfg.workloads {
                let trial = Trial {
                    combo: *combo,
                    workload,
                    seed,
                    threads: cfg.threads,
                    ops: cfg.ops,
                    sched: cfg.sched,
                };
                let determinism = seed == cfg.start_seed;
                let outcome = check_trial_plan(&trial, &plan, determinism).map(|(fp, obs)| {
                    report.coverage.note(&obs);
                    fp
                });
                report.trials += 1;
                on_trial(&trial, outcome.is_ok());
                match outcome {
                    Err(detail) => {
                        let (shrunk, shrunk_detail) =
                            shrink_failure(trial, detail.clone(), cfg.shrink_budget);
                        let replay = replay_command(&shrunk);
                        report.failures.push(Failure {
                            trial,
                            detail,
                            shrunk,
                            shrunk_detail,
                            replay,
                        });
                    }
                    Ok(fp) => {
                        let key = (combo.gate_erased().slug(), workload);
                        match by_gate_erased.get(&key) {
                            None => {
                                by_gate_erased.insert(key, (trial, fp));
                            }
                            Some(&(other, other_fp)) if other.combo.gate != combo.gate => {
                                if other_fp != fp {
                                    // The divergence is a relation between
                                    // two trials, so the single-trial
                                    // shrinker cannot reproduce it; report
                                    // the pair unshrunk with a replay for
                                    // each side.
                                    let detail = format!(
                                        "gate divergence: {} fingerprint {fp:?} != {} \
                                         fingerprint {other_fp:?} (schedule-identity violated)",
                                        trial.combo, other.combo
                                    );
                                    let replay = format!(
                                        "{}\n    vs: {}",
                                        replay_command(&trial),
                                        replay_command(&other)
                                    );
                                    report.failures.push(Failure {
                                        trial,
                                        detail: detail.clone(),
                                        shrunk: trial,
                                        shrunk_detail: detail,
                                        replay,
                                    });
                                }
                            }
                            // Same gate listed twice (user-selected combos
                            // may duplicate); nothing to cross-check.
                            Some(_) => {}
                        }
                        let vkey = (combo.versioning_erased().slug(), workload);
                        match by_versioning_erased.get(&vkey) {
                            None => {
                                by_versioning_erased.insert(vkey, (trial, fp));
                            }
                            Some(&(other, other_fp))
                                if other.combo.versioning != combo.versioning =>
                            {
                                if other_fp.state != fp.state {
                                    let detail = format!(
                                        "versioning divergence: {} final state {:#018x} != {} \
                                         final state {:#018x} (multi-version writers must reach \
                                         the single-version state)",
                                        trial.combo, fp.state, other.combo, other_fp.state
                                    );
                                    let replay = format!(
                                        "{}\n    vs: {}",
                                        replay_command(&trial),
                                        replay_command(&other)
                                    );
                                    report.failures.push(Failure {
                                        trial,
                                        detail: detail.clone(),
                                        shrunk: trial,
                                        shrunk_detail: detail,
                                        replay,
                                    });
                                }
                            }
                            Some(_) => {}
                        }
                        if matches!(
                            combo.policy,
                            Some(ModePolicy::Phased(_) | ModePolicy::AbortRatioWatermark { .. })
                        ) {
                            let pkey = (combo.policy_erased().slug(), workload);
                            match by_policy_pair.get(&pkey) {
                                None => {
                                    by_policy_pair.insert(pkey, (trial, fp));
                                }
                                Some(&(other, other_fp))
                                    if other.combo.policy != combo.policy =>
                                {
                                    if other_fp.state != fp.state {
                                        let detail = format!(
                                            "phase-policy divergence: {} final state {:#018x} != \
                                             {} final state {:#018x} (the phase controller must \
                                             not change what transactions commit)",
                                            trial.combo, fp.state, other.combo, other_fp.state
                                        );
                                        let replay = format!(
                                            "{}\n    vs: {}",
                                            replay_command(&trial),
                                            replay_command(&other)
                                        );
                                        report.failures.push(Failure {
                                            trial,
                                            detail: detail.clone(),
                                            shrunk: trial,
                                            shrunk_detail: detail,
                                            replay,
                                        });
                                    }
                                }
                                Some(_) => {}
                            }
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::test_support::{InjectGuard, TEST_LOCK};
    use super::*;

    #[test]
    fn combo_matrix_size_and_slug_round_trip() {
        let all = Combo::all();
        assert_eq!(
            all.len(),
            132,
            "8 schemes, Hastm x5 policies, x2 gran x2 isa x2 gate, \
             + v3 twins of the 36 STM-based quantum combos"
        );
        assert_eq!(
            all.iter()
                .filter(|c| c.versioning.is_multi())
                .inspect(|c| {
                    assert!(c.scheme.is_stm_based());
                    assert_eq!(c.gate, GateMode::Quantum);
                })
                .count(),
            36
        );
        for combo in &all {
            let slug = combo.slug();
            let parsed = Combo::parse(&slug).expect("slug parses");
            assert_eq!(&parsed, combo, "round trip of {slug}");
        }
        // Pre-gate-mode slugs stay valid and default to the quantum gate;
        // both explicit gates parse with or without a policy in front.
        let legacy = Combo::parse("stm:obj:full").unwrap();
        assert_eq!(legacy.gate, GateMode::Quantum);
        assert_eq!(legacy.slug(), "stm:obj:full:quantum");
        assert_eq!(
            Combo::parse("stm:obj:full:perop").unwrap().gate,
            GateMode::PerOp
        );
        let full = Combo::parse("hastm:line:default:naive:perop").unwrap();
        assert_eq!(full.gate, GateMode::PerOp);
        assert_eq!(full.policy, Some(ModePolicy::NaiveAggressive));
        assert!(Combo::parse("bogus:obj:full").is_err());
        assert!(
            Combo::parse("stm:obj:full:watermark").is_err(),
            "policy only for hastm"
        );
        assert!(
            Combo::parse("hastm:obj:full:perop:naive").is_err(),
            "policy must precede the gate"
        );
        assert!(
            Combo::parse("stm:obj:full:perop:quantum").is_err(),
            "one gate only"
        );
        assert!(Combo::parse("hastm:obj").is_err());
        // Versioning suffix: `v1` canonicalizes to single-version (and
        // drops out of the slug), `v3` round-trips, and the suffix obeys
        // the canonical policy:gate:v<k> order.
        let v3 = Combo::parse("stm:obj:full:v3").unwrap();
        assert_eq!(v3.versioning, Versioning::Multi { k: 3 });
        assert_eq!(v3.slug(), "stm:obj:full:quantum:v3");
        assert_eq!(
            Combo::parse("stm:obj:full:v1").unwrap().versioning,
            Versioning::Single
        );
        assert_eq!(
            Combo::parse("stm:obj:full:v1").unwrap().slug(),
            "stm:obj:full:quantum"
        );
        let full_v = Combo::parse("hastm:line:full:watermark:quantum:v2").unwrap();
        assert_eq!(full_v.versioning, Versioning::Multi { k: 2 });
        assert_eq!(full_v.slug(), "hastm:line:full:watermark:quantum:v2");
        assert!(
            Combo::parse("seq:obj:full:v3").is_err(),
            "multi-versioning needs an STM-based scheme"
        );
        assert!(
            Combo::parse("stm:obj:full:v3:quantum").is_err(),
            "gate must precede the versioning suffix"
        );
        assert!(Combo::parse("stm:obj:full:v3:v3").is_err(), "one v only");
        assert!(Combo::parse("stm:obj:full:vx").is_err());
        assert!(Workload::parse("map").is_ok());
        assert!(Workload::parse("nope").is_err());
    }

    #[test]
    fn suite_is_green_on_a_matrix_sample() {
        let _guard = TEST_LOCK.lock().unwrap();
        // One representative per scheme (obj/full), plus line-granularity
        // and default-ISA spot checks; tiny trials keep this fast under
        // the dev profile — the full matrix runs in CI via the binary.
        let combos: Vec<Combo> = [
            "seq:obj:full",
            "lock:obj:full",
            "stm:line:full",
            // Per-op twins of two quantum combos: exercises the suite's
            // cross-scheduler fingerprint comparison (any divergence
            // would surface as a `gate divergence` failure).
            "stm:line:full:perop",
            // Multi-version twins of two quantum combos: exercises the
            // suite's single-vs-multi final-state comparison (a writer
            // divergence would surface as a `versioning divergence`
            // failure) and the zero-snapshot-abort invariant.
            "stm:line:full:v3",
            "hastm:obj:full:watermark:v3",
            "hastm-cautious:obj:full",
            "hastm:obj:full:watermark",
            "hastm:obj:full:watermark:perop",
            "hastm:line:default:naive",
            "hastm-noreuse:obj:full",
            "naive-aggressive:line:full",
            "hytm:obj:full",
        ]
        .iter()
        .map(|s| Combo::parse(s).unwrap())
        .collect();
        let cfg = CheckConfig {
            seeds: 2,
            ops: 10,
            combos,
            // The two fast workloads; the tree workloads get their own
            // (smaller) green test below.
            workloads: vec![Workload::Counter, Workload::Map],
            ..CheckConfig::default()
        };
        let report = run_suite(&cfg, |_, _| {});
        assert_eq!(report.trials, 2 * 13 * 2);
        assert!(
            report.failures.is_empty(),
            "unexpected violations: {:#?}",
            report.failures
        );
    }

    #[test]
    fn multi_version_map_trials_snapshot_read_and_never_abort() {
        let _guard = TEST_LOCK.lock().unwrap();
        let trial = Trial {
            combo: Combo::parse("stm:line:full:v3").unwrap(),
            workload: Workload::Map,
            seed: 11,
            threads: 3,
            ops: 24,
            sched: Sched::Fuzzed,
        };
        let (res, obs) = run_trial_observed(&trial, &RunPlan::default());
        res.expect("multi-version map trial passes");
        assert!(
            obs.ro_commits > 0,
            "gets must run as snapshot transactions: {obs:?}"
        );
        assert_eq!(obs.ro_aborts, 0, "snapshot reads are abort-free");
        // The single-version twin of the same trial reaches the identical
        // final state (the suite cross-checks this per seed; here the
        // relation is asserted directly).
        let single = Trial {
            combo: Combo::parse("stm:line:full").unwrap(),
            ..trial
        };
        let fp_multi = run_trial(&trial).unwrap();
        let fp_single = run_trial(&single).unwrap();
        assert_eq!(
            fp_multi.state, fp_single.state,
            "multi-version writers must commit the single-version state"
        );
    }

    #[test]
    fn versioning_twins_sweep_green_across_workloads() {
        let _guard = TEST_LOCK.lock().unwrap();
        let combos: Vec<Combo> = [
            "stm:line:full",
            "stm:line:full:v3",
            "hastm:obj:full:watermark",
            "hastm:obj:full:watermark:v3",
            "hastm:obj:full:watermark:v2",
        ]
        .iter()
        .map(|s| Combo::parse(s).unwrap())
        .collect();
        let cfg = CheckConfig {
            seeds: 2,
            ops: 8,
            combos,
            workloads: vec![Workload::Map, Workload::Oltp],
            ..CheckConfig::default()
        };
        let report = run_suite(&cfg, |_, _| {});
        assert_eq!(report.trials, 2 * 5 * 2);
        assert!(
            report.failures.is_empty(),
            "versioning sweep diverged: {:#?}",
            report.failures
        );
    }

    #[test]
    fn injected_lost_update_is_caught_shrunk_and_replayable() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _inject = InjectGuard::arm();
        let cfg = CheckConfig {
            seeds: 8,
            ops: 24,
            combos: vec![Combo::parse("stm:line:full").unwrap()],
            workloads: vec![Workload::Counter],
            ..CheckConfig::default()
        };
        let report = run_suite(&cfg, |_, _| {});
        let failure = report
            .failures
            .first()
            .expect("the injected lost-update bug must be caught");
        assert!(
            failure.detail.contains("counter sum"),
            "caught as a lost update: {}",
            failure.detail
        );
        // Shrunk to no larger than the original trial, and the shrunk
        // trial still fails when replayed from scratch.
        assert!(failure.shrunk.ops <= failure.trial.ops);
        let replayed = check_trial(&failure.shrunk, false);
        assert!(
            replayed.is_some(),
            "replaying the shrunk trial must reproduce the failure"
        );
        assert!(failure.replay.contains("--replay"));
        assert!(failure
            .replay
            .contains(&format!("--seed {}", failure.shrunk.seed)));
        assert!(failure
            .replay
            .contains(&format!("--ops {}", failure.shrunk.ops)));
    }

    #[test]
    fn tree_workloads_are_green_and_deterministic() {
        let _guard = TEST_LOCK.lock().unwrap();
        // The BST and B-tree differential workloads on the matrix points
        // most likely to disturb tree internals: STM at line granularity
        // (false sharing across node fields) and HASTM under the naive
        // always-aggressive policy (spurious aborts force re-execution).
        let combos: Vec<Combo> = ["stm:line:full", "hastm:obj:full:naive"]
            .iter()
            .map(|s| Combo::parse(s).unwrap())
            .collect();
        let cfg = CheckConfig {
            seeds: 2,
            ops: 8,
            combos,
            workloads: vec![Workload::Bst, Workload::BTree],
            ..CheckConfig::default()
        };
        let report = run_suite(&cfg, |_, _| {});
        assert_eq!(report.trials, 2 * 2 * 2);
        assert!(
            report.failures.is_empty(),
            "tree workloads diverged from the sequential reference: {:#?}",
            report.failures
        );
    }

    #[test]
    fn shrink_failure_is_deterministic() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _inject = InjectGuard::arm();
        let combo = Combo::parse("stm:line:full").unwrap();
        let failing = (0..8)
            .map(|seed| Trial {
                combo,
                workload: Workload::Counter,
                seed,
                threads: 3,
                ops: 24,
                sched: Sched::Fuzzed,
            })
            .find_map(|t| check_trial(&t, false).map(|d| (t, d)))
            .expect("the injected bug must fail within 8 seeds");
        // The shrinker only consults the (deterministic) runner, so the
        // same failing input must always reach the same minimal trial.
        let a = shrink_failure(failing.0, failing.1.clone(), 64);
        let b = shrink_failure(failing.0, failing.1, 64);
        assert_eq!(a.0, b.0, "same minimal trial");
        assert_eq!(a.1, b.1, "same failure detail");
        assert!(a.0.ops <= failing.0.ops);
    }

    #[test]
    fn fingerprints_are_stable_across_processes_of_the_same_trial() {
        let _guard = TEST_LOCK.lock().unwrap();
        let trial = Trial {
            combo: Combo::parse("hastm:obj:full:watermark").unwrap(),
            workload: Workload::Map,
            seed: 7,
            threads: 3,
            ops: 12,
            sched: Sched::Fuzzed,
        };
        let a = run_trial(&trial).expect("trial passes");
        let b = run_trial(&trial).expect("trial passes");
        assert_eq!(a, b, "same trial, same machine, same fingerprint");
    }
}
