//! Planted bugs, armed at run time: the one mutation harness (DESIGN §7a).
//!
//! Each [`Mutant`] breaks one condition the simulator's or a runtime's
//! soundness rests on, at one site that asks [`armed`]. That is the
//! constant `false` unless the `mutants` feature is on, which only the
//! `[dev-dependencies]` of `hastm-check` and `hastm-native` do: a test can
//! then `arm` one mutant at a time and `prove` its detector.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};
#[cfg(feature = "mutants")]
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A planted bug: its site, then the detector that must catch it (in
/// `hastm-check`'s `tests/mutants.rs` unless named) and that one's budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// `Cpu::commit_stores` checks and writes back in two gated ops. PCT
    /// depth 3 over `hytm` trials, 200 runs; the explorer, bound 2, 500.
    HtmCommitSplit = 1,
    /// A back-invalidated marked line is counted lost but emits no
    /// `MarkDiscard`. `reconcile_mark_discards`, 1 run.
    DroppedDiscardEvent,
    /// `TxThread::software_validate` skips the read-set walk. Oracle or
    /// ledger over `zombie::scenarios`, 8 seeds; the explorer, 500 runs.
    SkippedRevalidation,
    /// `VersionStore::snapshot_read` serves stamp ≤ start + 1. `run_suite`
    /// over `stm:*:v2/v3` map and B-tree trials, 16 seeds.
    SnapshotOneAhead,
    /// `phase::refresh_view` keeps stale phase bits after a failed CAS.
    /// The transition-count oracle (lattice depth 3) in `hastm-check`'s
    /// `tests/phase_mutation.rs`, 16 seeds.
    StalePhaseView,
    /// Native `write_back` under `Multi` takes every object its executor
    /// ever allocated in a committed attempt for fresh, so an overwrite
    /// of one publishes no history. `hastm-native`'s `mvcc_stress.rs`
    /// node round, 4 runs.
    EverFresh,
    /// The native free list hands out an object a commit freed while a
    /// pinned snapshot still predates that commit. `hastm-native`'s
    /// `mvcc_stress.rs` unlink round, 4 runs.
    RecycleEarly,
    /// `hastm-check`'s counter increments in two atomic regions. That
    /// crate's unit tests (caught, shrunk, replayed).
    SplitIncrement,
    /// `hastm-check`'s suite flips multi-version and phased fingerprints.
    /// That crate's twin-comparison unit test.
    TwinDivergence,
}

/// Whether this build compiles the planted bugs in (the `mutants`
/// feature), and with them the runtimes' test seams: code behind it is
/// compiled away in every other build.
pub const PLANTED: bool = cfg!(feature = "mutants");

/// The armed mutant (0: none) — or, with [`WATCHED`], the one whose site
/// visits [`prove`]'s clean sweep counts.
static STATE: AtomicU32 = AtomicU32::new(0);
const WATCHED: u32 = 1 << 8;
static VISITS: AtomicU64 = AtomicU64::new(0);

/// Whether `m` is armed: the constant `false` without `mutants`.
#[inline]
pub fn armed(m: Mutant) -> bool {
    PLANTED && {
        let state = STATE.load(SeqCst);
        if state == WATCHED | m as u32 {
            VISITS.fetch_add(1, SeqCst);
        }
        state == m as u32
    }
}

#[cfg(feature = "mutants")]
static LOCK: Mutex<()> = Mutex::new(());

/// What [`arm`] returns: it holds the arming lock, and disarms when
/// dropped, on unwind too.
#[cfg(feature = "mutants")]
pub struct Armed {
    _lock: MutexGuard<'static, ()>,
}

#[cfg(feature = "mutants")]
impl Drop for Armed {
    fn drop(&mut self) {
        STATE.store(0, SeqCst);
    }
}

/// Waits for the one arming lock (arming is process-global, so tests that
/// arm, or must not overlap one that does, take turns), then arms `m` —
/// nothing for `None` — until the guard drops.
#[cfg(feature = "mutants")]
pub fn arm(m: Option<Mutant>) -> Armed {
    // A failed proof poisons the lock; its guard disarmed while unwinding.
    let lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    STATE.store(m.map_or(0, |m| m as u32), SeqCst);
    Armed { _lock: lock }
}

/// Proves that a detector catches `m`. `run(i)` makes run `i` of its
/// sweep, reporting a bug as `Err`. Armed, the first report must come
/// within `budget` runs and be one `caught` accepts; disarmed, all
/// `budget` runs must pass, and pass through `m`'s site. Returns what the
/// clean runs returned, for the row's own non-vacuity checks.
#[cfg(feature = "mutants")]
pub fn prove<T>(
    m: Mutant,
    budget: u64,
    mut run: impl FnMut(u64) -> Result<T, String>,
    caught: impl Fn(&str) -> bool,
) -> Vec<T> {
    let guard = arm(Some(m));
    let found = (0..budget).find_map(|i| run(i).err().map(|detail| (i, detail)));
    let (i, detail) = found.unwrap_or_else(|| panic!("{m:?} survived {budget} runs"));
    assert!(
        caught(&detail),
        "{m:?} caught at run {i} in another shape: {detail}"
    );
    VISITS.store(0, SeqCst);
    STATE.store(WATCHED | m as u32, SeqCst);
    let clean = (0..budget).map(|i| run(i).unwrap_or_else(|d| panic!("run {i}, clean: {d}")));
    let clean = clean.collect();
    assert!(VISITS.load(SeqCst) > 0, "no clean run reached {m:?}'s site");
    drop(guard);
    clean
}

#[cfg(test)]
#[cfg(feature = "mutants")]
mod tests {
    use std::time::Duration;

    use super::*;

    // These arm only the mutants planted in `hastm-check`, so no other
    // test in this binary can be bitten while one is armed.
    const A: Mutant = Mutant::SplitIncrement;
    const B: Mutant = Mutant::TwinDivergence;

    #[test]
    fn nothing_is_armed_by_default() {
        let _quiet = arm(None);
        assert!(!armed(A) && !armed(B));
    }

    #[test]
    fn a_mutant_is_armed_exactly_while_its_guard_lives() {
        let guard = arm(Some(A));
        assert!(armed(A));
        assert!(!armed(B), "one mutant at a time");
        drop(guard);
        assert!(!armed(A));
    }

    #[test]
    fn a_panic_that_unwinds_through_the_guard_disarms() {
        let unwound = std::panic::catch_unwind(|| {
            let _armed = arm(Some(A));
            panic!("a failed proof");
        });
        assert!(unwound.is_err());
        let _quiet = arm(None);
        assert!(!armed(A));
    }

    #[test]
    fn a_second_arm_waits_for_the_first_guard() {
        let first = arm(Some(A));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _second = arm(Some(B));
            tx.send(armed(B) && !armed(A)).unwrap();
        });
        let early = rx.recv_timeout(Duration::from_millis(50));
        assert!(early.is_err(), "armed through a held lock");
        assert!(armed(A));
        drop(first);
        assert!(rx.recv().unwrap(), "the second guard arms only its own");
        waiter.join().unwrap();
    }

    #[test]
    fn prove_needs_the_detector_to_fire_armed_and_stay_quiet_clean() {
        // A toy row: run 2 of a 4-run sweep reaches the site, and its
        // detector reports exactly when the mutant is armed.
        let sweep = |i: u64| {
            if i == 2 && armed(A) {
                Err(format!("caught at {i}"))
            } else {
                Ok(i)
            }
        };
        assert_eq!(
            prove(A, 4, sweep, |d| d.starts_with("caught")),
            [0, 1, 2, 3]
        );
        let over_budget = std::panic::catch_unwind(|| prove(A, 2, sweep, |_| true));
        assert!(
            over_budget.is_err(),
            "caught only at run 2 of a 2-run budget"
        );
        let noisy =
            std::panic::catch_unwind(|| prove(A, 4, |_| Err::<(), _>("x".into()), |_| true));
        assert!(
            noisy.is_err(),
            "a detector that fires disarmed proves nothing"
        );
        let off_site = std::panic::catch_unwind(|| {
            let peek = |_| match STATE.load(SeqCst) == A as u32 {
                true => Err("caught".to_string()),
                false => Ok(()),
            };
            prove(A, 1, peek, |_| true)
        });
        assert!(
            off_site.is_err(),
            "a clean sweep that never asks `armed` never ran the site"
        );
    }
}
