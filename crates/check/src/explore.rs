//! Bounded-exhaustive interleaving enumeration for tiny workloads.
//!
//! The explorer walks the tree of preemption traces over a *deterministic*
//! base schedule ([`Sched::Det`]): each node is a trace (a sorted list of
//! `at_op@core` directives, at most [`ExploreConfig::bound`] long), and
//! each run replays the workload from scratch with that trace installed,
//! with its event trace armed, and reads the per-op schedule from it. Terminal states are cross-checked
//! against the workload's interleaving-independent expected answer and the
//! serializability oracle by the ordinary trial runner — any violation is
//! a found bug, which the trace shrinker then minimizes.
//!
//! **Branching.** Children of a trace are generated from its own recorded
//! run: at every op that touched a *conflict line* (a cache line accessed
//! by more than one core, with at least one write, anywhere in the run),
//! the explorer tries handing the machine to each other core instead.
//! Preemptions at non-conflict ops cannot change the final abstract state
//! (they only reorder operations that commute), so this candidate set is
//! exhaustive for state-distinguishable interleavings at the given
//! preemption bound.
//!
//! **Pruning.** Runs are fingerprinted by [`crate::schedule_hash`] — the full
//! `(core, line, is_write)` admission sequence. The workload's per-core op
//! streams and the machine are deterministic, so two runs with equal
//! hashes are *the same run*; when a trace reproduces an
//! already-expanded schedule, its subtree is a duplicate (child candidates
//! are derived from the identical schedule) and is pruned.

use std::collections::{HashMap, HashSet, VecDeque};

use hastm_sim::{LineId, Preemption, ScheduleEvent, TraceConfig};

use crate::{
    replay_command, run_trial_observed, run_trial_plan, trace_slug, Combo, Coverage, Observation,
    RunPlan, Sched, Trial, Workload,
};

/// Parameters of one exploration campaign.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Configuration-matrix point under test.
    pub combo: Combo,
    /// Workload under test (the counter is the classic choice: every op
    /// conflicts).
    pub workload: Workload,
    /// Seed of the workload's operation streams.
    pub seed: u64,
    /// Worker threads (keep to 2–3; the tree is exponential in this).
    pub threads: usize,
    /// Operations per thread (keep tiny; ~20 total gated ops per core).
    pub ops: u64,
    /// Maximum preemption directives per trace (the preemption bound).
    pub bound: usize,
    /// Maximum workload runs to spend before giving up on draining the
    /// frontier (the report marks truncation).
    pub max_runs: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            combo: Combo::parse("stm:obj:full").expect("static slug"),
            workload: Workload::Counter,
            seed: 0,
            threads: 2,
            ops: 2,
            bound: 2,
            max_runs: 2_000,
        }
    }
}

impl ExploreConfig {
    /// The trial every exploration run replays (deterministic base
    /// schedule; the trace supplies all perturbation).
    pub fn trial(&self) -> Trial {
        Trial {
            combo: self.combo,
            workload: self.workload,
            seed: self.seed,
            threads: self.threads,
            ops: self.ops,
            sched: Sched::Det,
        }
    }
}

/// A bug the explorer found: the first failing trace and its shrunk form.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// The trace that first exposed the violation.
    pub trace: Vec<Preemption>,
    /// Its failure detail.
    pub detail: String,
    /// The minimal failing trace the shrinker reached.
    pub shrunk: Vec<Preemption>,
    /// The shrunk trace's failure detail.
    pub shrunk_detail: String,
    /// Exact reproduction command for the shrunk trace.
    pub replay: String,
    /// Per-transaction timeline of the shrunk failing run (see
    /// [`hastm_sim::summarize`]): the minimal repro, narrated.
    pub timeline: String,
}

/// Event lines the timeline summary shows per core before truncating.
const TIMELINE_LINES_PER_CORE: usize = 40;

/// Re-runs a (failing) trace with the event trace armed and renders its
/// per-transaction timeline. Failures here are expected — that is the
/// point — so the observation is harvested regardless of the verdict.
fn failure_timeline(trial: &Trial, trace: &[Preemption]) -> String {
    let plan = RunPlan {
        preemptions: trace.to_vec(),
        trace: Some(TraceConfig),
        ..RunPlan::default()
    };
    let (_, obs) = run_trial_observed(trial, &plan);
    match obs.trace {
        Some(log) => hastm_sim::summarize(&log, TIMELINE_LINES_PER_CORE),
        None => "(no trace recorded)".to_string(),
    }
}

/// Outcome of an exploration campaign.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Workload runs executed (including the base run, excluding shrink
    /// re-runs).
    pub runs: u64,
    /// Traces whose schedule had already been expanded (subtree pruned).
    pub pruned: u64,
    /// True when `max_runs` ran out before the frontier drained — coverage
    /// below the bound is then incomplete.
    pub truncated: bool,
    /// Interleaving coverage across all runs.
    pub coverage: Coverage,
    /// The first invariant violation found, if any (exploration stops on
    /// it).
    pub failure: Option<ExploreFailure>,
}

fn run_traced(trial: &Trial, trace: &[Preemption]) -> Result<Observation, String> {
    let plan = RunPlan {
        preemptions: trace.to_vec(),
        trace: Some(TraceConfig),
        ..RunPlan::default()
    };
    run_trial_plan(trial, &plan).map(|(_, obs)| obs)
}

/// The lines more than one core touched, with at least one write — the
/// ops where a preemption can change the final abstract state.
fn conflict_lines(schedule: &[ScheduleEvent]) -> HashSet<LineId> {
    let mut readers_writers: HashMap<LineId, (HashSet<usize>, bool)> = HashMap::new();
    for ev in schedule {
        let Some((line, write)) = ev.line else {
            continue;
        };
        let entry = readers_writers.entry(line).or_default();
        entry.0.insert(ev.core);
        entry.1 |= write;
    }
    readers_writers
        .into_iter()
        .filter(|(_, (cores, wrote))| cores.len() > 1 && *wrote)
        .map(|(line, _)| line)
        .collect()
}

/// Child directives of a trace, derived from its run's schedule: at each
/// op on a conflict line (past the trace's last directive), hand the
/// machine to each other core.
fn candidates(
    cfg: &ExploreConfig,
    trace: &[Preemption],
    schedule: &[ScheduleEvent],
) -> Vec<Preemption> {
    let conflicts = conflict_lines(schedule);
    let min_at = trace.last().map_or(0, |p| p.at_op + 1);
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for ev in schedule {
        if ev.op < min_at {
            continue;
        }
        let Some((line, _)) = ev.line else { continue };
        if !conflicts.contains(&line) {
            continue;
        }
        for core in 0..cfg.threads {
            if core != ev.core && seen.insert((ev.op, core)) {
                out.push(Preemption { at_op: ev.op, core });
            }
        }
    }
    out
}

/// Maximum re-runs [`shrink_trace`] spends on a failure.
const SHRINK_BUDGET: u32 = 64;

/// Greedily minimizes a failing trace: drop whole directives, then shrink
/// `at_op` values toward the previous directive — keeping every candidate
/// that still fails, within `SHRINK_BUDGET` (64) re-runs. Deterministic:
/// candidates are tried in a fixed order and the (deterministic) runner
/// decides, so the same input always shrinks to the same minimal trace.
pub fn shrink_trace(
    trial: &Trial,
    trace: Vec<Preemption>,
    detail: String,
) -> (Vec<Preemption>, String) {
    let mut left = SHRINK_BUDGET;
    let mut fails = move |t: &[Preemption]| -> Option<String> {
        if left == 0 {
            return None;
        }
        left -= 1;
        run_traced(trial, t).err()
    };

    let mut best = trace;
    let mut best_detail = detail;
    // Pass 1: drop directives, first-to-last, restarting after each win so
    // a drop that enables further drops is found.
    'drop: loop {
        for i in 0..best.len() {
            let mut t = best.clone();
            t.remove(i);
            if let Some(d) = fails(&t) {
                best = t;
                best_detail = d;
                continue 'drop;
            }
        }
        break;
    }
    // Pass 2: pull each at_op toward its predecessor's (halving, then
    // decrementing), preserving sort order.
    for i in 0..best.len() {
        let floor = if i == 0 { 0 } else { best[i - 1].at_op };
        loop {
            let cur = best[i].at_op;
            if cur <= floor {
                break;
            }
            let mut progressed = false;
            for cand in [floor + (cur - floor) / 2, cur - 1] {
                if cand >= cur {
                    continue;
                }
                let mut t = best.clone();
                t[i].at_op = cand;
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
    }
    (best, best_detail)
}

/// Replay command for a failing exploration trace.
pub fn trace_replay_command(trial: &Trial, trace: &[Preemption]) -> String {
    format!("{} --trace {}", replay_command(trial), trace_slug(trace))
}

/// Runs one exploration campaign: breadth-first over preemption traces up
/// to the bound, pruning duplicate schedules, cross-checking every
/// terminal state, accumulating coverage, and stopping on (and shrinking)
/// the first violation.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let trial = cfg.trial();
    let mut report = ExploreReport::default();
    let mut expanded: HashSet<u64> = HashSet::new();
    let mut frontier: VecDeque<Vec<Preemption>> = VecDeque::from([Vec::new()]);

    while let Some(trace) = frontier.pop_front() {
        if report.runs >= cfg.max_runs {
            report.truncated = true;
            break;
        }
        report.runs += 1;
        let obs = match run_traced(&trial, &trace) {
            Err(detail) => {
                let (shrunk, shrunk_detail) = shrink_trace(&trial, trace.clone(), detail.clone());
                let replay = trace_replay_command(&trial, &shrunk);
                let timeline = failure_timeline(&trial, &shrunk);
                report.failure = Some(ExploreFailure {
                    trace,
                    detail,
                    shrunk,
                    shrunk_detail,
                    replay,
                    timeline,
                });
                break;
            }
            Ok(obs) => obs,
        };
        let schedule = obs.schedule();
        if !expanded.insert(report.coverage.note(&obs, &schedule)) {
            report.pruned += 1;
            continue;
        }
        if trace.len() < cfg.bound {
            for directive in candidates(cfg, &trace, &schedule) {
                let mut child = trace.clone();
                child.push(directive);
                frontier.push_back(child);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm_sim::mutant::{arm, Mutant};

    #[test]
    fn explore_counter_is_green_and_covers_orderings() {
        let _quiet = arm(None);
        let cfg = ExploreConfig {
            combo: Combo::parse("stm:obj:full").unwrap(),
            max_runs: 300,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg);
        assert!(
            report.failure.is_none(),
            "unmutated tree must be green: {:?}",
            report.failure
        );
        assert!(report.runs > 1, "the base run must spawn children");
        assert!(
            report.coverage.schedules.len() > 1,
            "preemptions must produce distinct schedules"
        );
        assert!(
            !report.coverage.conflict_orderings.is_empty(),
            "the counter workload must expose conflict orderings"
        );
    }

    #[test]
    fn explore_is_deterministic() {
        let _quiet = arm(None);
        let cfg = ExploreConfig {
            max_runs: 120,
            ..ExploreConfig::default()
        };
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.coverage.schedules, b.coverage.schedules);
        assert_eq!(a.coverage.conflict_orderings, b.coverage.conflict_orderings);
    }

    #[test]
    fn shrink_trace_is_deterministic_and_minimal() {
        let _armed = arm(Some(Mutant::SplitIncrement));
        // The planted non-atomic increment races under plain preemption
        // traces too, so the explorer must find a failing trace…
        let cfg = ExploreConfig {
            combo: Combo::parse("stm:line:full").unwrap(),
            threads: 2,
            ops: 2,
            bound: 2,
            max_runs: 500,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg);
        let failure = report
            .failure
            .expect("the planted lost update must surface during exploration");
        assert!(
            failure.timeline.contains("txn"),
            "shrunk failure must carry a transactional timeline:\n{}",
            failure.timeline
        );
        // …and re-shrinking the original trace twice must walk the exact
        // same path to the exact same minimal trace (the shrinker only
        // consults the deterministic runner).
        let trial = cfg.trial();
        let a = shrink_trace(&trial, failure.trace.clone(), failure.detail.clone());
        let b = shrink_trace(&trial, failure.trace.clone(), failure.detail.clone());
        assert_eq!(a.0, b.0, "same minimal trace");
        assert_eq!(a.1, b.1, "same failure detail");
        assert!(a.0.len() <= failure.trace.len(), "shrinking never grows");
        assert_eq!(a.0, failure.shrunk, "explore() shrinks the same way");
    }

    #[test]
    fn a_pin_ended_by_a_stall_leaves_backoff_to_separate_the_cores() {
        // The explorer's 19th run at three threads. The favored core's
        // backoff ends its pin; the watermark that keeps pinned clocks in
        // one timeline used to stay on for the rest of the run, so every
        // core's backoff moved every other core's clock and the three
        // cores aborted one another forever.
        let _quiet = arm(None);
        let trial = ExploreConfig {
            threads: 3,
            ..ExploreConfig::default()
        }
        .trial();
        let plan = RunPlan {
            preemptions: crate::parse_trace("54@2").unwrap(),
            ..RunPlan::default()
        };
        let (done, verdict) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(crate::check_trial_plan(&trial, &plan, true).0.map(|_| ()));
        });
        verdict
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the replay livelocked")
            .unwrap();
    }

    #[test]
    fn pruning_dedups_equivalent_traces() {
        // With a bound of 2 the frontier revisits schedules reachable via
        // different traces (e.g. a directive at a no-op position); pruning
        // must fire, and pruned + expanded must account for every run.
        let _quiet = arm(None);
        let cfg = ExploreConfig {
            bound: 2,
            max_runs: 500,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg);
        assert!(report.failure.is_none());
        assert!(report.pruned > 0, "duplicate schedules must be pruned");
        assert_eq!(
            report.runs,
            report.pruned + report.coverage.schedules.len() as u64,
            "every run either expanded a new schedule or was pruned"
        );
    }
}
