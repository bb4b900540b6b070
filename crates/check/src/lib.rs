//! # hastm-check — differential-testing harness for the HASTM reproduction
//!
//! Runs small workloads with *interleaving-independent expected answers*
//! under every `Scheme` × `Granularity` × `IsaLevel` × `ModePolicy` ×
//! `Versioning` combination, each axis swept only under the schemes that
//! read it ([`Combo`], generated from the [`AXES`] table), across many
//! seeds of the simulator's [`SchedulePolicy::Fuzzed`] schedule/pressure
//! perturbation, and cross-checks:
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
//!   settled after every run ([`SimSession::settle`]) and any violation
//!   fails the trial;
//! * **replayability** — the first trial of each combination is run twice
//!   and must produce a bit-identical fingerprint (final state digest and
//!   simulated makespan), the property that makes seed replay meaningful;
//! * **twin agreement** — for every axis whose table row names a
//!   [`Relation`], same-seed trials that differ only along that axis must
//!   reach the same final state (multi-version vs single-version, and the
//!   simulator's phased vs watermark policy); any divergence is reported
//!   as a failure of its own.
//!
//! Every workload is written once (a [`hastm_workloads::Definition`], named
//! in [`workload`]) and every backend is one run session of
//! `hastm-workloads` with this crate's verdict on top: `Sim` here,
//! `native::Native` on host threads.
//!
//! On failure the harness **shrinks** the trial to a minimal failing
//! `ops`/`threads`/`seed` and prints an exact replay command
//! (`cargo run -p hastm-check --release -- --replay …`); the whole trial
//! is deterministic given its parameters, so the replay reproduces the
//! failure exactly.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hastm::{Abort, ModePolicy, OracleMode};
use hastm_sim::mutant::{armed, Mutant};
use hastm_sim::words::WordTable;
use hastm_sim::{
    MachineConfig, Preemption, RunReport, ScheduleEvent, SchedulePolicy, TraceConfig, TraceLog,
};
use hastm_workloads::{Definition, ExecStats, Scheme, SimRun, SimSession};

pub mod combo;
pub mod explore;
pub mod native;
pub mod workload;
pub mod zombie;

pub use combo::{Axis, Combo, Relation, AXES};
pub use hastm_workloads::RunPlan;
pub(crate) use workload::Backend;
pub use workload::Workload;

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
                Some(d) => match d.parse() {
                    Ok(depth) if depth >= 1 => Ok(Sched::Pct { depth }),
                    _ => Err(format!(
                        "pct depth `{d}` is not a number from 1 to {}",
                        u32::MAX
                    )),
                },
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
    /// The worker threads the trial really runs.
    pub fn effective_threads(&self) -> usize {
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

// ---------------------------------------------------------------------------
// Run plans and observations
// ---------------------------------------------------------------------------

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

/// What one measured run exposed beyond its fingerprint: the worker
/// threads' summed counters, the event trace when the plan armed one, and
/// the machine report.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// The worker threads' counters, summed. `stats.txn.ro_aborts` is
    /// nonzero only on a runtime bug (snapshot reads cannot
    /// conflict-abort), and the trial fails on it;
    /// `stats.txn.phase_transitions` is nonzero only under
    /// [`ModePolicy::Phased`].
    pub stats: ExecStats,
    /// Structured event trace of the measured run (`None` unless the plan
    /// armed [`RunPlan::trace`]); its [`TraceLog::schedule`] is the run's
    /// per-op schedule.
    pub trace: Option<TraceLog>,
    /// The measured run's machine report.
    pub report: RunReport,
}

impl Observation {
    /// What a measured run exposed.
    fn of<T>(run: SimRun<T>) -> Self {
        Observation {
            stats: run.stats,
            trace: run.trace,
            report: run.report,
        }
    }

    /// Distinct abort causes observed across all worker threads, read
    /// off [`Observation::stats`].
    pub fn abort_causes(&self) -> BTreeSet<&'static str> {
        let st = &self.stats;
        [
            (st.txn.aborts_conflict, Abort::Conflict.slug()),
            (st.txn.aborts_mark_dirty, Abort::MarkCounterDirty.slug()),
            (st.txn.aborts_retry, Abort::Retry.slug()),
            (st.txn.aborts_explicit, Abort::Explicit.slug()),
            (st.hytm.hw_aborts_conflict, "hw-conflict"),
            (st.hytm.hw_aborts_capacity, "hw-capacity"),
            (st.hytm.hw_aborts_spurious, "hw-spurious"),
            (st.hytm.sw_commits, "hw-fallback"),
        ]
        .into_iter()
        .filter_map(|(n, label)| (n > 0).then_some(label))
        .collect()
    }

    /// The measured run's per-op schedule (op index, core, touched line),
    /// derived from its trace; empty when the run was not traced.
    pub fn schedule(&self) -> Vec<ScheduleEvent> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, TraceLog::schedule)
    }
}

// ---------------------------------------------------------------------------
// The simulator backend
// ---------------------------------------------------------------------------

/// The zero-abort guarantee of the snapshot path, on either backend: a
/// multi-version runtime commits declared read-only transactions without
/// validation, so a single snapshot abort is a runtime bug, not
/// contention.
pub(crate) fn snapshot_abort_free(
    versioning: hastm::Versioning,
    ro_aborts: u64,
) -> Result<(), String> {
    if versioning.is_multi() && ro_aborts > 0 {
        return Err(format!(
            "{ro_aborts} read-only snapshot aborts under {versioning:?} \
             (snapshot reads must be abort-free)"
        ));
    }
    Ok(())
}

/// The simulator backend: one [`SimSession`] per run — setup and checks
/// sequential and unperturbed, the per-thread bodies under the
/// combination, the schedule policy and the [`RunPlan`] — and the
/// verdict: oracle first, then the snapshot guarantee, then the
/// workload's own check.
pub(crate) struct Sim<'a> {
    pub(crate) combo: Combo,
    pub(crate) threads: usize,
    pub(crate) schedule: SchedulePolicy,
    pub(crate) plan: &'a RunPlan,
}

impl Backend for Sim<'_> {
    type Outcome = (Result<Fingerprint, String>, Observation);

    fn run<W: Definition>(self, w: &W) -> Self::Outcome {
        let Sim { combo, threads, .. } = self;
        let machine = MachineConfig {
            isa: combo.isa,
            schedule: self.schedule,
            ..MachineConfig::with_cores(threads)
        };
        let stm = combo.stm_config(threads).with_oracle(OracleMode::Record);
        let mut session = SimSession::new(combo.scheme, machine, stm);
        let (shared, run) = session.run_definition(w, self.plan);
        let makespan = run.report.makespan();
        let obs = Observation::of(run);

        let violations = session.settle();
        let verdict = match violations.first() {
            Some(v) => Err(format!(
                "oracle: {v} ({} violations total)",
                violations.len()
            )),
            None => snapshot_abort_free(combo.versioning, obs.stats.txn.ro_aborts)
                .and_then(|()| session.judge(w, &shared)),
        };
        (verdict.map(|state| Fingerprint { state, makespan }), obs)
    }
}

// ---------------------------------------------------------------------------
// Trial execution, determinism, shrinking
// ---------------------------------------------------------------------------

/// Runs one trial under a [`RunPlan`] and returns its fingerprint plus
/// what the run exposed (abort causes, event trace), or a
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
    let threads = trial.effective_threads();
    let sim = Sim {
        combo: trial.combo,
        threads,
        schedule: trial.sched.policy(trial.seed),
        plan,
    };
    trial.workload.run_on(trial.seed, threads, trial.ops, sim)
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
    /// Distinct ordered conflict pairs observed (requires traced runs).
    pub conflict_orderings: BTreeSet<ConflictOrdering>,
    /// Distinct abort causes observed across all runs.
    pub abort_causes: BTreeSet<&'static str>,
    /// Distinct whole-run schedule hashes (requires traced runs).
    pub schedules: BTreeSet<u64>,
    /// Runs folded in.
    pub runs: u64,
}

/// Hash of a run's schedule: the `(core, line, is_write)` sequence of
/// every gated op. Two runs with equal hashes executed the same
/// interleaving of the same per-core op streams, hence (the machine being
/// deterministic) are the same run. Each op folds in its core tagged "no
/// line", "read" or "write", then its line if it has one, at one multiply
/// per word (FxHash's step).
pub fn schedule_hash(schedule: &[ScheduleEvent]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let fold = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    schedule.iter().fold(SEED, |h, ev| {
        let core = (ev.core as u64) << 2;
        match ev.line {
            Some((line, write)) => fold(fold(h, core | 2 | u64::from(write)), line.0),
            None => fold(h, core),
        }
    })
}

impl Coverage {
    /// Folds one run in, given its `obs.schedule()` (derived once by a
    /// caller that reads it too); returns the schedule's [`schedule_hash`].
    pub fn note(&mut self, obs: &Observation, schedule: &[ScheduleEvent]) -> u64 {
        self.runs += 1;
        self.abort_causes.extend(obs.abort_causes());
        let hash = schedule_hash(schedule);
        if !schedule.is_empty() {
            self.schedules.insert(hash);
        }
        // Per line, the core and kind of its latest access.
        let mut last: WordTable<(usize, bool)> = WordTable::default();
        for ev in schedule {
            let Some((line, write)) = ev.line else {
                continue;
            };
            let seen = last.get_or_insert(line.0, (ev.core, write));
            let (prev_core, prev_write) = std::mem::replace(seen, (ev.core, write));
            if prev_core != ev.core && (prev_write || write) {
                self.conflict_orderings
                    .insert((prev_core, ev.core, prev_write, write));
            }
        }
        hash
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
/// its fingerprint, or the failure detail, with the first run's
/// observation either way (as [`run_trial_observed`] does). With a trace
/// armed, the determinism re-run must reproduce the whole trace
/// event for event, not just the fingerprint.
pub fn check_trial_plan(
    trial: &Trial,
    plan: &RunPlan,
    determinism: bool,
) -> (Result<Fingerprint, String>, Observation) {
    let (res, obs) = run_trial_observed(trial, plan);
    let res = res.and_then(|fp| {
        if !determinism {
            return Ok(fp);
        }
        match run_trial_plan(trial, plan) {
            Err(detail) => Err(format!("nondeterministic: re-run failed: {detail}")),
            Ok((fp2, _)) if fp2 != fp => Err(format!(
                "nondeterministic: fingerprint {fp:?} then {fp2:?} from identical trials"
            )),
            Ok((_, obs2)) if obs2.trace != obs.trace => {
                Err("nondeterministic: identical trials recorded different traces".into())
            }
            Ok(_) => Ok(fp),
        }
    });
    (res, obs)
}

/// Runs a trial (twice when `determinism` is set) and returns `Some`
/// failure detail, or `None` when every invariant holds.
pub fn check_trial(trial: &Trial, determinism: bool) -> Option<String> {
    let (res, _) = check_trial_plan(trial, &RunPlan::default(), determinism);
    res.err()
}

/// Maximum trial re-runs [`shrink_failure`] spends per failure.
const SHRINK_BUDGET: u32 = 48;

/// Greedily shrinks a failing trial: halve/decrement `ops`, then reduce
/// `threads`, then try small seeds — keeping every candidate that still
/// fails. The predicate re-runs the (deterministic) trial, so the result
/// is a genuinely minimal reproducer within `SHRINK_BUDGET` (48) re-runs.
pub fn shrink_failure(trial: Trial, detail: String) -> (Trial, String) {
    let determinism = detail.starts_with("nondeterministic");
    let mut fails = {
        let mut left = SHRINK_BUDGET;
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
    /// Schedule policy every trial runs under.
    pub sched: Sched,
    /// Trace every trial's measured run and accumulate interleaving
    /// coverage from its schedule into the report (abort-cause coverage is
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
    /// Twin comparisons actually performed, by [`Relation::label`] — so a
    /// caller can tell a cross-check that passed from one that never ran.
    pub twin_comparisons: BTreeMap<&'static str, u64>,
}

/// Sweeps the full matrix across the seed range, calling `on_trial` after
/// each trial with its pass/fail status. The first seed of every
/// combination additionally checks determinism by re-running. Within each
/// seed, for every axis whose [`AXES`] row names a [`Relation`], passing
/// trials that differ only along that axis must reach the same final
/// state; a divergence is reported as its own [`Failure`], and every
/// comparison made is counted in [`SuiteReport::twin_comparisons`].
pub fn run_suite(cfg: &CheckConfig, mut on_trial: impl FnMut(&Trial, bool)) -> SuiteReport {
    let mut report = SuiteReport::default();
    let plan = RunPlan {
        trace: cfg.coverage.then_some(TraceConfig),
        ..RunPlan::default()
    };
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        // (axis, axis-erased combo, workload) → the first passing trial of
        // that twin group; reset per seed so only same-seed trials are
        // compared.
        let mut firsts: HashMap<(usize, Combo, Workload), (Trial, Fingerprint)> = HashMap::new();
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
                let (outcome, obs) = check_trial_plan(&trial, &plan, determinism);
                if outcome.is_ok() {
                    report.coverage.note(&obs, &obs.schedule());
                }
                report.trials += 1;
                on_trial(&trial, outcome.is_ok());
                let mut fp = match outcome {
                    Ok(fp) => fp,
                    Err(detail) => {
                        let (shrunk, shrunk_detail) = shrink_failure(trial, detail.clone());
                        let replay = replay_command(&shrunk);
                        report.failures.push(Failure {
                            trial,
                            detail,
                            shrunk,
                            shrunk_detail,
                            replay,
                        });
                        continue;
                    }
                };
                if armed(Mutant::TwinDivergence)
                    && (combo.versioning.is_multi()
                        || matches!(combo.policy, Some(ModePolicy::Phased(_))))
                {
                    fp.state ^= 1;
                }
                for (i, axis) in AXES.iter().enumerate() {
                    let Some(relation) = &axis.relation else {
                        continue;
                    };
                    if !(relation.among)(combo) {
                        continue;
                    }
                    let key = (i, axis.erase(combo), workload);
                    let &mut (other, other_fp) = firsts.entry(key).or_insert((trial, fp));
                    // The group's own first trial, or the same combination
                    // listed twice: nothing to cross-check.
                    if other.combo == *combo {
                        continue;
                    }
                    *report.twin_comparisons.entry(relation.label).or_default() += 1;
                    if fp.state == other_fp.state {
                        continue;
                    }
                    // The divergence is a relation between two trials, so
                    // the single-trial shrinker cannot reproduce it; report
                    // the pair unshrunk with a replay for each side.
                    let detail = format!(
                        "{} divergence: {} final state {:#018x} != {} final state {:#018x} ({})",
                        relation.label,
                        trial.combo,
                        fp.state,
                        other.combo,
                        other_fp.state,
                        relation.claim
                    );
                    report.failures.push(Failure {
                        trial,
                        detail: detail.clone(),
                        shrunk: trial,
                        shrunk_detail: detail,
                        replay: format!(
                            "{}\n    vs: {}",
                            replay_command(&trial),
                            replay_command(&other)
                        ),
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm::Versioning;
    // Every test here, in `explore` and `native` and `zombie` that runs a
    // trial holds an arming guard (`arm(None)` when it arms nothing):
    // arming is process-global, so those tests take turns.
    use hastm_sim::mutant::arm;

    #[test]
    fn combo_matrix_size_and_slug_round_trip() {
        let all = Combo::all();
        assert_eq!(
            all.len(),
            56,
            "seq, lock, stm x2 gran, hytm x2 gran, hastm-noreuse x2 gran x2 isa, \
             hastm x2 gran x2 isa x5 policies, + v3 twins of the 26 STM-based combos"
        );
        assert_eq!(
            all.iter()
                .filter(|c| c.versioning.is_multi())
                .inspect(|c| assert!(c.scheme.is_stm_based()))
                .count(),
            26
        );
        let mut slugs = std::collections::BTreeSet::new();
        for combo in &all {
            let slug = combo.slug();
            assert_eq!(&Combo::parse(&slug).expect("slug parses"), combo, "{slug}");
            assert!(slugs.insert(slug), "duplicate slug for {combo:?}");
        }
        // Twins ride directly after their single-version original.
        let at = |slug: &str| all.iter().position(|c| c.slug() == slug).expect(slug);
        assert_eq!(at("stm:obj:full:v3"), at("stm:obj:full") + 1);
        assert_eq!(at("seq:obj:full"), 0);

        // Optional suffixes: `v1` spells the default out (and drops from
        // the slug), `v2` parses without being swept.
        let v1 = Combo::parse("stm:obj:full:v1").unwrap();
        assert_eq!(v1.versioning, Versioning::Single);
        assert_eq!(v1.slug(), "stm:obj:full");
        assert_eq!(
            Combo::parse("seq:obj:full:v1").unwrap().slug(),
            "seq:obj:full"
        );
        let v2 = Combo::parse("hastm:line:full:watermark:v2").unwrap();
        assert_eq!(v2.versioning, Versioning::Multi { k: 2 });
        assert_eq!(v2.slug(), "hastm:line:full:watermark:v2");
        assert!(!slugs.contains(&v2.slug()));
        // So do the two scheme names that are `hastm` under one policy.
        for slug in [
            "hastm-cautious:obj:full",
            "naive-aggressive:line:default:v3",
        ] {
            assert!(
                !slugs.contains(&Combo::parse(slug).unwrap().slug()),
                "{slug}"
            );
        }
        // A policy-less hastm combo keeps the scheme's own policy.
        let bare = Combo::parse("hastm:obj:full").unwrap();
        assert_eq!(bare.policy, None);
        assert_eq!(bare.slug(), "hastm:obj:full");

        for (bad, why) in [
            ("bogus:obj:full", "unknown scheme"),
            ("stm:word:full", "unknown granularity"),
            ("stm:obj:partial", "unknown isa level"),
            ("hastm:obj", "missing isa level"),
            ("stm:obj:full:watermark", "policy only for hastm"),
            ("seq:line:full", "granularity only where records are read"),
            ("lock:obj:default", "isa level only for the hastm barriers"),
            ("hytm:line:default", "isa level only for the hastm barriers"),
            (
                "stm:obj:default:v3",
                "isa level only for the hastm barriers",
            ),
            (
                "seq:obj:full:v3",
                "multi-versioning needs an STM-based scheme",
            ),
            (
                "hastm:obj:full:v3:naive",
                "policy must precede the versioning suffix",
            ),
            ("hastm:obj:full:naive:ph", "one policy only"),
            ("stm:obj:full:v3:v3", "one v only"),
            ("stm:obj:full:vx", "the suffix is v1, v2 or v3"),
            ("stm:obj:full:v4", "only the depths something uses"),
            ("stm:obj:full:", "empty component"),
        ] {
            assert!(Combo::parse(bad).is_err(), "`{bad}` must not parse: {why}");
        }
        let err = Combo::parse("seq:line:full").unwrap_err();
        assert!(err.contains("this scheme has no granularity axis"), "{err}");
    }

    #[test]
    fn suite_is_green_on_a_matrix_sample() {
        let _quiet = arm(None);
        // One representative per scheme (obj/full), plus line-granularity
        // and default-ISA spot checks; tiny trials keep this fast under
        // the dev profile — the full matrix runs in CI via the binary.
        let combos: Vec<Combo> = [
            "seq:obj:full",
            "lock:obj:full",
            "stm:line:full",
            // Multi-version twins of two combos: exercises the suite's
            // single-vs-multi final-state comparison (a writer
            // divergence would surface as a `versioning divergence`
            // failure) and the zero-snapshot-abort invariant.
            "stm:line:full:v3",
            "hastm:obj:full:watermark:v3",
            "hastm-cautious:obj:full",
            "hastm:obj:full:watermark",
            // The phased twin of the watermark combo: exercises the
            // `phase-policy` final-state comparison.
            "hastm:obj:full:ph",
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
        assert_eq!(report.trials, 2 * 12 * 2);
        assert!(
            report.failures.is_empty(),
            "unexpected violations: {:#?}",
            report.failures
        );
        // Per seed and workload: two single/v3 pairs and one
        // watermark/phased pair were actually compared.
        assert_eq!(
            report.twin_comparisons,
            BTreeMap::from([("phase-policy", 2 * 2), ("versioning", 2 * 2 * 2)])
        );
    }

    #[test]
    fn multi_version_map_trials_snapshot_read_and_never_abort() {
        let _quiet = arm(None);
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
            obs.stats.txn.ro_commits > 0,
            "gets must run as snapshot transactions: {obs:?}"
        );
        assert_eq!(obs.stats.txn.ro_aborts, 0, "snapshot reads are abort-free");
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
        let _quiet = arm(None);
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
        // Per seed and workload: stm v3 against its single, hastm v3 and
        // v2 each against theirs. No phased combo, so no policy pair.
        assert_eq!(
            report.twin_comparisons,
            BTreeMap::from([("versioning", 2 * 2 * 3)])
        );
    }

    #[test]
    fn divergent_twins_are_reported_per_axis_with_both_replays() {
        let _armed = arm(Some(Mutant::TwinDivergence));
        let combos: Vec<Combo> = [
            "stm:obj:full",
            "stm:obj:full:v3",
            "hastm:obj:full:watermark",
            "hastm:obj:full:ph",
        ]
        .iter()
        .map(|s| Combo::parse(s).unwrap())
        .collect();
        let cfg = CheckConfig {
            seeds: 1,
            ops: 6,
            combos,
            workloads: vec![Workload::Counter],
            ..CheckConfig::default()
        };
        let report = run_suite(&cfg, |_, _| {});
        assert_eq!(
            report.twin_comparisons,
            BTreeMap::from([("phase-policy", 1), ("versioning", 1)])
        );
        assert_eq!(report.failures.len(), 2, "{:#?}", report.failures);
        for (failure, label, twins) in [
            (
                &report.failures[0],
                "versioning",
                ["stm:obj:full:v3", "stm:obj:full"],
            ),
            (
                &report.failures[1],
                "phase-policy",
                ["hastm:obj:full:ph", "hastm:obj:full:watermark"],
            ),
        ] {
            assert!(
                failure.detail.starts_with(&format!("{label} divergence: ")),
                "{}",
                failure.detail
            );
            let (this, other) = failure
                .replay
                .split_once("\n    vs: ")
                .expect("two replays");
            for (replay, slug) in [this, other].into_iter().zip(twins) {
                assert!(replay.contains("--replay"), "{replay}");
                assert!(replay.contains(&format!("--combo {slug} ")), "{replay}");
            }
        }
    }

    #[test]
    fn fingerprints_pinned_before_the_runners_were_unified_still_hold() {
        let _quiet = arm(None);
        // (slug, workload, seed, sched) → (state, makespan) at 3 threads ×
        // 16 ops, generated by the per-workload, per-backend runners this
        // crate had before `workload::Definition`: the simulated op order
        // of every workload under both drivers' shared bodies is unchanged.
        use Workload::*;
        let (fuzzed, pct, det) = (Sched::Fuzzed, Sched::Pct { depth: 3 }, Sched::Det);
        for (slug, workload, seed, sched, state, makespan) in [
            ("stm:obj:full", Counter, 3, fuzzed, 0x90477b5cbbc796b9, 4690),
            (
                "hastm:obj:full:watermark",
                Counter,
                5,
                pct,
                0xa09b0acc0cd2f4a9,
                2888,
            ),
            ("stm:obj:full", Map, 3, fuzzed, 0xba9cd6ca9a26d428, 11837),
            (
                "hastm:obj:full:watermark",
                Map,
                5,
                pct,
                0x5466dcb12ed23861,
                3751,
            ),
            ("stm:obj:full", Bst, 3, fuzzed, 0xba9cd6ca9a26d428, 26841),
            (
                "hastm:obj:full:watermark",
                Bst,
                5,
                pct,
                0x5466dcb12ed23861,
                8353,
            ),
            ("stm:obj:full", BTree, 3, fuzzed, 0xba9cd6ca9a26d428, 24858),
            (
                "hastm:obj:full:watermark",
                BTree,
                5,
                pct,
                0x5466dcb12ed23861,
                6346,
            ),
            ("stm:obj:full", Oltp, 3, fuzzed, 0xb825eafa97e85eab, 532078),
            (
                "hastm:obj:full:watermark",
                Oltp,
                5,
                pct,
                0x6ed32c33274259f5,
                9397,
            ),
            // The other executors and paths: snapshot reads, HyTM, the
            // phase controller. (No lock row: `SpinLock::release`
            // debug-asserts through a simulated load, so lock makespans
            // differ between debug and release builds.)
            ("stm:line:full:v3", Map, 7, fuzzed, 0x329345c259a4230d, 3929),
            ("hytm:obj:full", Bst, 2, det, 0x5544c60fa2a62e12, 10218),
            (
                "hastm:line:full:ph",
                Oltp,
                6,
                fuzzed,
                0x53d021f30fe8e27a,
                71338,
            ),
        ] {
            let trial = Trial {
                combo: Combo::parse(slug).unwrap(),
                workload,
                seed,
                threads: 3,
                ops: 16,
                sched,
            };
            assert_eq!(
                run_trial(&trial),
                Ok(Fingerprint { state, makespan }),
                "{trial}"
            );
        }
    }

    #[test]
    fn phased_fingerprints_pinned_before_the_phase_gate_was_unified_still_hold() {
        let _quiet = arm(None);
        // (slug, hair-trigger params, workload, seed, sched) → (state,
        // makespan, serial commits, transitions) at 4 threads × 24 ops,
        // generated while `TxThread` still carried its own entry loop and
        // commit/abort hooks: `SharedModeState::{enter, leave}` must issue
        // the same gated ops in the same order. Every row but the PCT one
        // commits inside `Phase::Serial`; the `v3` rows send snapshot
        // regions through the gate as well. The hair trigger demotes on
        // every bad event and recovers within a short window, so even a
        // 24-op trial descends to `Serial` and climbs back out.
        use Workload::*;
        let hair = hastm::PhasedParams {
            demote_after: 1,
            promote_after: 4,
            hysteresis: 2,
            hw_retry_budget: 2,
        };
        let (fuzzed, pct, det) = (Sched::Fuzzed, Sched::Pct { depth: 3 }, Sched::Det);
        let obj = "hastm:obj:full:ph";
        let line = "hastm:line:full:ph";
        let v3 = "hastm:line:default:ph:v3";
        type Row = (&'static str, bool, Workload, u64, Sched, u64, u64, u64, u64);
        #[rustfmt::skip]
        let rows: [Row; 7] = [
            (obj, false, Counter, 1, fuzzed, 0x6acf44719f7a0f5f, 0x29f9, 44, 24),
            (obj, false, Map, 4, det, 0xde2369bd98b5cad8, 0x2b5e, 20, 18),
            (obj, false, BTree, 1, pct, 0x820f3101947f9820, 0x4e57, 0, 2),
            (line, false, Bst, 9, det, 0x0560a2be69b1a311, 0x261fb, 16, 18),
            (line, false, Oltp, 4, fuzzed, 0x874c88ca31ff3d9d, 0x4d4a, 28, 19),
            (v3, true, Map, 9, fuzzed, 0x0560a2be69b1a311, 0x2757, 44, 24),
            (v3, true, Oltp, 1, det, 0x24808a01c7cffd2a, 0x10bb0, 51, 27),
        ];
        for (slug, hair_trigger, workload, seed, sched, state, makespan, serial, moves) in rows {
            let mut combo = Combo::parse(slug).unwrap();
            if hair_trigger {
                combo.policy = Some(ModePolicy::Phased(hair));
            }
            let trial = Trial {
                combo,
                workload,
                seed,
                threads: 4,
                ops: 24,
                sched,
            };
            let (res, obs) = run_trial_observed(&trial, &RunPlan::default());
            assert_eq!(res, Ok(Fingerprint { state, makespan }), "{trial}");
            assert_eq!(
                (
                    obs.stats.txn.serial_commits,
                    obs.stats.txn.phase_transitions
                ),
                (serial, moves),
                "{trial}"
            );
        }
    }

    #[test]
    fn replay_commands_parse_back_to_the_same_trial() {
        // What a failure prints must rebuild exactly the trial that
        // failed, for every combination (flags as `main` parses them) and
        // for every depth `--pct … --depth D` accepts: `main` checks D as
        // `Sched::parse("pct:D")` does.
        let depths = ["1", "4294967295"].map(|d| Sched::parse(&format!("pct:{d}")).unwrap());
        let all = Combo::all();
        let pct_trials = depths.iter().map(|&sched| (all.len(), all[0], sched));
        let scheds = [Sched::Fuzzed, Sched::Pct { depth: 3 }, Sched::Det];
        let combo_trials = all.iter().enumerate().map(|(i, &c)| (i, c, scheds[i % 3]));
        for (i, combo, sched) in combo_trials.chain(pct_trials) {
            let trial = Trial {
                combo,
                workload: Workload::ALL[i % 5],
                seed: i as u64,
                threads: 2 + i % 3,
                ops: 4 + i as u64,
                sched,
            };
            let command = replay_command(&trial);
            let flag = |name: &str| {
                let mut words = command.split(' ').skip_while(|w| *w != name);
                words
                    .nth(1)
                    .unwrap_or_else(|| panic!("{name} in `{command}`"))
            };
            let parsed = Trial {
                combo: Combo::parse(flag("--combo")).unwrap(),
                workload: Workload::parse(flag("--workload")).unwrap(),
                seed: flag("--seed").parse().unwrap(),
                threads: flag("--threads").parse().unwrap(),
                ops: flag("--ops").parse().unwrap(),
                sched: Sched::parse(flag("--sched")).unwrap(),
            };
            let expected = Trial {
                threads: trial.effective_threads(),
                ..trial
            };
            assert_eq!(parsed, expected, "{command}");
            assert!(command.contains(" --replay "), "{command}");
        }
    }

    #[test]
    fn injected_lost_update_is_caught_shrunk_and_replayable() {
        let _armed = arm(Some(Mutant::SplitIncrement));
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
            .expect("the planted lost-update bug must be caught");
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
        let _quiet = arm(None);
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
        let _armed = arm(Some(Mutant::SplitIncrement));
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
            .expect("the planted bug must fail within 8 seeds");
        // The shrinker only consults the (deterministic) runner, so the
        // same failing input must always reach the same minimal trial.
        let a = shrink_failure(failing.0, failing.1.clone());
        let b = shrink_failure(failing.0, failing.1);
        assert_eq!(a.0, b.0, "same minimal trial");
        assert_eq!(a.1, b.1, "same failure detail");
        assert!(a.0.ops <= failing.0.ops);
    }

    #[test]
    fn fingerprints_are_stable_across_processes_of_the_same_trial() {
        let _quiet = arm(None);
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
