//! The aggressive/cautious mode controller (§6, §7.4).

use crate::config::{Mode, ModePolicy};

/// EWMA weight for the dirty-commit ratio.
const EWMA: f64 = 0.125;

/// [`ModePolicy::AbortRatioWatermark`] goes aggressive while the
/// exponentially weighted dirty/abort ratio is below this value.
pub const WATERMARK: f64 = 0.1;

/// Why a transaction aborted, as far as the mode heuristics care: was the
/// mark-counter loss (or record conflict) caused by a *remote writer* —
/// a true data conflict — or by *capacity pressure* (evictions and
/// back-invalidations, the HTM "spurious abort" analog)? The distinction
/// matters because capacity aborts persist under any optimistic policy
/// and argue for falling back further, while conflict aborts may resolve
/// with simple backoff.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AbortClass {
    /// A true data conflict (remote writer invalidated a read).
    Conflict,
    /// Capacity pressure: marked lines lost to evictions or
    /// back-invalidations, indistinguishable from conflicts to the
    /// aggressive fast path but not caused by contention.
    Capacity,
}

/// Tracks per-thread transaction history and decides the mode of each
/// attempt.
///
/// The controller's key signal is the *dirty ratio*: the exponentially
/// weighted fraction of recent transactions whose commit-time mark counter
/// was nonzero. In cautious mode this is observable without any abort (the
/// commit simply performed a software validation), so the controller can
/// tell — cheaply and continuously — whether aggressive mode would be
/// safe. This is what lets HASTM "remain in cautious mode ... till the
/// number of evictions/invalidations is below a threshold" instead of
/// discovering interference through aborted work, which is exactly the
/// failure mode of the naïve always-aggressive policy in Figures 21–22.
#[derive(Clone, Debug)]
pub struct ModeController {
    policy: ModePolicy,
    commits: u64,
    dirty_ratio: f64,
    aborts_conflict: u64,
    aborts_capacity: u64,
}

impl ModeController {
    /// A controller starting pessimistic (ratio 1.0 ⇒ cautious first).
    pub fn new(policy: ModePolicy) -> Self {
        ModeController {
            policy,
            commits: 0,
            dirty_ratio: 1.0,
            aborts_conflict: 0,
            aborts_capacity: 0,
        }
    }

    /// The mode for attempt number `attempt` (0 = first execution) of the
    /// next transaction.
    pub fn mode_for(&self, attempt: u32) -> Mode {
        match self.policy {
            ModePolicy::AlwaysCautious => Mode::Cautious,
            // Under the phased policy the per-attempt mode comes from the
            // scheme-wide phase indicator (`SharedModeState`), not this
            // per-thread controller; the controller's answer is only used
            // as a safe default before the phase has been read.
            ModePolicy::Phased(_) => Mode::Cautious,
            // Re-executions always run cautiously: an aggressive abort
            // cannot distinguish spurious from real conflicts, so the paper
            // "aborts, flips into cautious mode, and re-executes".
            _ if attempt > 0 => Mode::Cautious,
            ModePolicy::NaiveAggressive => Mode::Aggressive,
            ModePolicy::SingleThreadAggressive => {
                if self.commits >= 1 {
                    Mode::Aggressive
                } else {
                    Mode::Cautious
                }
            }
            ModePolicy::AbortRatioWatermark => {
                if self.dirty_ratio < WATERMARK {
                    Mode::Aggressive
                } else {
                    Mode::Cautious
                }
            }
        }
    }

    /// Records a commit. `counter_dirty` is whether the commit-time mark
    /// counter was nonzero (i.e. aggressive mode would have aborted).
    pub fn on_commit(&mut self, counter_dirty: bool) {
        self.commits += 1;
        self.update_ratio(counter_dirty);
    }

    /// Records an abort of the given class. All aborts count as "dirty"
    /// history for the EWMA (they indicate the optimistic path is not
    /// paying off), but the per-cause tallies let phased heuristics and
    /// diagnostics distinguish capacity persistence from contention.
    pub fn on_abort(&mut self, class: AbortClass) {
        match class {
            AbortClass::Conflict => self.aborts_conflict += 1,
            AbortClass::Capacity => self.aborts_capacity += 1,
        }
        self.update_ratio(true);
    }

    fn update_ratio(&mut self, dirty: bool) {
        let x = if dirty { 1.0 } else { 0.0 };
        self.dirty_ratio = (1.0 - EWMA) * self.dirty_ratio + EWMA * x;
    }

    /// The current dirty ratio (diagnostics).
    pub fn dirty_ratio(&self) -> f64 {
        self.dirty_ratio
    }

    /// Aborts recorded as true data conflicts.
    pub fn aborts_conflict(&self) -> u64 {
        self.aborts_conflict
    }

    /// Aborts recorded as capacity pressure.
    pub fn aborts_capacity(&self) -> u64 {
        self.aborts_capacity
    }

    /// The configured policy.
    pub fn policy(&self) -> ModePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_cautious_never_aggressive() {
        let mut c = ModeController::new(ModePolicy::AlwaysCautious);
        for _ in 0..100 {
            c.on_commit(false);
        }
        assert_eq!(c.mode_for(0), Mode::Cautious);
    }

    #[test]
    fn single_thread_flips_after_first_commit() {
        let mut c = ModeController::new(ModePolicy::SingleThreadAggressive);
        assert_eq!(c.mode_for(0), Mode::Cautious, "first transaction cautious");
        c.on_commit(false);
        assert_eq!(c.mode_for(0), Mode::Aggressive);
        // Re-executions after an abort are cautious.
        assert_eq!(c.mode_for(1), Mode::Cautious);
    }

    #[test]
    fn naive_is_always_aggressive_first() {
        let c = ModeController::new(ModePolicy::NaiveAggressive);
        assert_eq!(c.mode_for(0), Mode::Aggressive, "even with no history");
        assert_eq!(c.mode_for(1), Mode::Cautious);
    }

    #[test]
    fn watermark_starts_cautious_and_converges() {
        let mut c = ModeController::new(ModePolicy::AbortRatioWatermark);
        assert_eq!(c.mode_for(0), Mode::Cautious, "pessimistic start");
        // A run of clean commits drives the ratio below the watermark.
        for _ in 0..40 {
            c.on_commit(false);
        }
        assert!(c.dirty_ratio() < WATERMARK);
        assert_eq!(c.mode_for(0), Mode::Aggressive);
    }

    #[test]
    fn watermark_backs_off_under_interference() {
        let mut c = ModeController::new(ModePolicy::AbortRatioWatermark);
        for _ in 0..40 {
            c.on_commit(false);
        }
        assert_eq!(c.mode_for(0), Mode::Aggressive);
        // Dirty commits / aborts push it back to cautious.
        for _ in 0..10 {
            c.on_commit(true);
        }
        assert_eq!(c.mode_for(0), Mode::Cautious);
        c.on_abort(AbortClass::Conflict);
        assert!(c.dirty_ratio() > WATERMARK);
    }

    #[test]
    fn per_cause_accounting_separates_conflict_from_capacity() {
        let mut c = ModeController::new(ModePolicy::default());
        c.on_abort(AbortClass::Conflict);
        c.on_abort(AbortClass::Capacity);
        c.on_abort(AbortClass::Capacity);
        assert_eq!(c.aborts_conflict(), 1);
        assert_eq!(c.aborts_capacity(), 2);
        // Commits never touch the abort tallies.
        c.on_commit(true);
        c.on_commit(false);
        assert_eq!(c.aborts_conflict(), 1);
        assert_eq!(c.aborts_capacity(), 2);
    }

    #[test]
    fn both_abort_classes_push_the_ratio_up() {
        for class in [AbortClass::Conflict, AbortClass::Capacity] {
            let mut c = ModeController::new(ModePolicy::AbortRatioWatermark);
            for _ in 0..40 {
                c.on_commit(false);
            }
            let before = c.dirty_ratio();
            c.on_abort(class);
            assert!(c.dirty_ratio() > before, "{class:?} must count as dirty");
        }
    }

    #[test]
    fn phased_policy_defers_to_the_global_phase() {
        use crate::phase::PhasedParams;
        let mut c = ModeController::new(ModePolicy::Phased(PhasedParams::default()));
        // No amount of per-thread history flips the controller itself:
        // the real decision is the published phase's.
        for _ in 0..100 {
            c.on_commit(false);
        }
        assert_eq!(c.mode_for(0), Mode::Cautious);
        assert_eq!(c.mode_for(3), Mode::Cautious);
    }
}
