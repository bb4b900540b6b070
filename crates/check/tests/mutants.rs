//! The mutation table: one `prove` per detector of every planted bug that
//! `hastm-check` hunts (`hastm_sim::mutant::Mutant` documents each row's
//! site, detector and budget), except `StalePhaseView`, whose row is in
//! `phase_mutation.rs`.
//!
//! Armed, each detector must report its bug, in the expected shape, within
//! the budget; disarmed, the same sweep must be green and must pass through
//! the planted site — the detector reacts to the bug, not to its own noise.
//! Plain `cargo test` runs every row:
//!
//! ```text
//! cargo test -p hastm-check --test mutants
//! ```

use hastm_check::explore::{explore, ExploreConfig, ExploreReport};
use hastm_check::zombie::{run_zombie_scenario, scenarios};
use hastm_check::{
    check_trial, run_suite, run_trial_observed, CheckConfig, Combo, RunPlan, Sched, Trial, Workload,
};
use hastm_sim::mutant::{prove, Mutant};
use hastm_sim::{
    reconcile_mark_discards, Addr, FaultEvent, FaultKind, Machine, MachineConfig, TraceConfig,
};

/// A failure report as `prove` wants it.
fn verdict<T>(caught: Option<String>, clean: T) -> Result<T, String> {
    caught.map_or(Ok(clean), Err)
}

/// The explorer on the 2-core counter at bound 2, which must drain within
/// `max_runs`. A bug it finds must be found within `find_within` runs,
/// must shrink, and its shrunk trace must replay the failure from scratch.
fn explore_counter(combo: &str, max_runs: u64, find_within: u64) -> Result<ExploreReport, String> {
    let cfg = ExploreConfig {
        combo: Combo::parse(combo).unwrap(),
        workload: Workload::Counter,
        threads: 2,
        ops: 2,
        bound: 2,
        max_runs,
        ..ExploreConfig::default()
    };
    let report = explore(&cfg);
    let Some(failure) = report.failure else {
        assert!(!report.truncated, "the bound-2 counter tree must drain");
        assert!(report.coverage.schedules.len() > 1);
        assert!(!report.coverage.conflict_orderings.is_empty());
        return Ok(report);
    };
    assert!(
        report.runs <= find_within,
        "found only after {} runs",
        report.runs
    );
    assert!(failure.shrunk.len() <= failure.trace.len());
    assert!(failure.replay.contains("--trace"));
    let plan = RunPlan {
        preemptions: failure.shrunk,
        ..RunPlan::default()
    };
    assert!(
        run_trial_observed(&cfg.trial(), &plan).0.is_err(),
        "replaying the shrunk trace must reproduce the failure"
    );
    Err(failure.detail)
}

/// Only the `hytm` scheme commits through the simulator's HTM commit.
/// (The race does not show through the hybrid's data loads: its barriers
/// watch the record first, so a commit landing in a load→watch window is
/// caught at commit anyway. The commit-side split is not maskable.)
fn hytm_trial(run: u64) -> Trial {
    let combos = ["hytm:obj:full", "hytm:line:full"];
    let workloads = [Workload::Counter, Workload::Bst, Workload::BTree];
    let (seed, at) = (run / 6, run % 6);
    Trial {
        combo: Combo::parse(combos[at as usize / 3]).unwrap(),
        workload: workloads[at as usize % 3],
        seed,
        threads: 3,
        ops: 8,
        sched: Sched::Pct { depth: 3 },
    }
}

#[test]
fn htm_commit_split_is_caught_by_pct() {
    // The race is state corruption — a lost update or a serializability
    // violation — not a crash or a hang.
    prove(
        Mutant::HtmCommitSplit,
        200,
        |run| verdict(check_trial(&hytm_trial(run), false), ()),
        |d| d.contains("sum") || d.contains("digest") || d.contains("oracle"),
    );
}

#[test]
fn htm_commit_split_is_caught_by_the_explorer() {
    prove(
        Mutant::HtmCommitSplit,
        1,
        |_| explore_counter("hytm:obj:full", 500, 500),
        |d| d.contains("counter sum"),
    );
}

/// One core marks a line; a scheduled fault back-invalidates it out of the
/// inclusive L2. The simulation is correct either way — the planted bug
/// drops only the trace event, never the counter — so only the
/// reconciliation can tell.
#[test]
fn dropped_discard_event_is_caught_by_reconciliation() {
    let back_invalidation = |_| {
        // Op 1 resets the counter, op 2 is the marking load; the fault
        // fires once op 2 completes and back-invalidates the only
        // resident L2 line, the marked one.
        let mut m = Machine::new(MachineConfig::default());
        m.set_tracing(Some(TraceConfig));
        m.set_faults(vec![FaultEvent {
            at_op: 2,
            core: 0,
            kind: FaultKind::BackInvalidate { nth: 0 },
        }]);
        let (counter, report) = m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.load_set_mark_u64(Addr(0x700));
            cpu.read_mark_counter()
        });
        assert_eq!(counter, 1, "the back-invalidation discards the marked line");
        let lost: Vec<u64> = report.cores.iter().map(|c| c.marked_lines_lost).collect();
        assert_eq!(lost, [1], "exactly one marked line lost on core 0");
        reconcile_mark_discards(&m.take_trace().expect("tracing was armed"), &lost)
    };
    prove(Mutant::DroppedDiscardEvent, 1, back_invalidation, |d| {
        d.contains("core 0")
    });
}

#[test]
fn skipped_revalidation_is_caught_by_the_oracle() {
    // A committed zombie shows as a serializability violation in the
    // oracle log or as a ledger divergence from the closed form.
    let clean = prove(
        Mutant::SkippedRevalidation,
        8,
        |seed| {
            scenarios(seed)
                .iter()
                .map(run_zombie_scenario)
                .collect::<Result<Vec<_>, _>>()
        },
        |d| d.contains("oracle") || d.contains("ledger"),
    );
    for report in clean.iter().flatten() {
        assert!(
            report.validations_full > 0,
            "every scenario walks read sets"
        );
        assert!(report.commits > 0);
    }
}

#[test]
fn skipped_revalidation_is_caught_by_the_explorer() {
    // Draining the clean bound-2 tree takes ≈ 3 000 runs; the planted bug
    // must surface within the first 500.
    prove(
        Mutant::SkippedRevalidation,
        1,
        |_| explore_counter("stm:obj:full", 4_000, 500),
        |d| d.contains("counter sum") || d.contains("oracle"),
    );
}

#[test]
fn snapshot_one_ahead_is_caught_by_the_oracle() {
    // The production suite over multi-version combos under fuzzed
    // schedules, whose jitter lands writer commits inside read-only
    // traversals: maps route every get through `atomic_ro`, and B-tree
    // splits publish many versions per commit.
    let combos = ["stm:line:full:v2", "stm:line:full:v3", "stm:obj:full:v3"];
    let cfg = CheckConfig {
        seeds: 16,
        threads: 3,
        ops: 32,
        combos: combos.iter().map(|s| Combo::parse(s).unwrap()).collect(),
        workloads: vec![Workload::Map, Workload::BTree],
        sched: Sched::Fuzzed,
        ..CheckConfig::default()
    };
    let clean = prove(
        Mutant::SnapshotOneAhead,
        1,
        |_| {
            let report = run_suite(&cfg, |_, _| {});
            verdict(report.failures.first().map(|f| f.detail.clone()), report)
        },
        // A torn read shows as an oracle violation, or downstream as a
        // digest or traversal divergence.
        |d| {
            ["oracle", "snapshot", "digest", "divergence"]
                .iter()
                .any(|s| d.contains(s))
        },
    );
    assert_eq!(clean[0].trials, 16 * 3 * 2);
}
