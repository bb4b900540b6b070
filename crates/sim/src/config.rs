//! Machine, cache, and cost-model configuration.

/// Geometry of one cache level. Line size is fixed at 64 bytes
/// ([`crate::addr::LINE_SIZE`]); only sets and ways are configurable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A cache of `sets` x `ways` 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(sets > 0 && ways > 0, "cache dimensions must be nonzero");
        CacheConfig { sets, ways }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * crate::addr::LINE_SIZE
    }

    /// 32 KiB, 8-way: the paper-era L1 data cache.
    pub fn l1_default() -> Self {
        CacheConfig::new(64, 8)
    }

    /// 2 MiB, 16-way shared L2.
    pub fn l2_default() -> Self {
        CacheConfig::new(2048, 16)
    }
}

/// How fully the mark-bit ISA extension is implemented.
///
/// The paper (§3.3) requires a *default implementation* that keeps installed
/// software functionally correct on processors that do not implement marking:
/// `loadsetmark` degenerates to a load that increments the mark counter,
/// `loadtestmark` always reports the bit clear, and `resetmarkall` only
/// increments the counter. Software then never observes a zero counter after
/// marking anything, so it always falls back to full software validation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum IsaLevel {
    /// Mark bits and the mark counter are fully implemented in the L1.
    #[default]
    Full,
    /// The §3.3 default implementation: no mark state, conservative counter.
    Default,
}

/// Cycle costs charged by the simulator.
///
/// The reproduction is execution-driven, not pipeline-accurate: every
/// simulated instruction costs [`CostModel::tick`] cycles plus, for memory
/// instructions, the latency of the level that services the access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Base cost of one instruction (ALU op, branch, address generation)
    /// before ILP amortization.
    pub tick: u64,
    /// Sustained instructions per cycle for straight-line code. The paper
    /// evaluates on an out-of-order IA32 core where barrier ALU sequences
    /// largely overlap with surrounding work ("the STM code sequences are
    /// friendly to out of order execution", §7.3); `Cpu::exec` charges
    /// `instructions / ipc` cycles, while memory latencies and explicit
    /// stalls are charged in full.
    pub ipc: u64,
    /// Extra cycles for an access that hits in the L1.
    pub l1_hit: u64,
    /// Extra cycles for an access serviced by the shared L2 (or by a
    /// cache-to-cache transfer through it).
    pub l2_hit: u64,
    /// Extra cycles for an access serviced by memory.
    pub mem: u64,
    /// Extra cycles to upgrade a Shared line to Modified (invalidation
    /// round-trip).
    pub upgrade: u64,
    /// Extra cycles for the atomic portion of a compare-and-swap.
    pub cas_extra: u64,
    /// Maximum latency a plain store charges the pipeline: stores retire
    /// through the store buffer, so a store miss fills the line off the
    /// critical path (cache-state effects still happen in full). Atomic
    /// RMWs are exempt (they serialize).
    pub store_latency_cap: u64,
    /// Extra *raw* cycles for mark-setting loads beyond the additional
    /// issued µop they already pay (the paper notes `loadsetmark` consumes
    /// a store-queue entry in addition to the load port, §7).
    pub mark_op_extra: u64,
    /// Extra cycles modeling the slower resolution of a conditional branch
    /// that depends on the immediately preceding `loadtestmark` (§7.3 uses
    /// this to explain why cautious mode can be slower than the STM despite
    /// executing fewer instructions).
    pub mark_branch_extra: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            tick: 1,
            ipc: 2,
            l1_hit: 1,
            l2_hit: 12,
            mem: 100,
            upgrade: 10,
            cas_extra: 4,
            store_latency_cap: 2,
            mark_op_extra: 0,
            mark_branch_extra: 2,
        }
    }
}

/// How the deterministic logical-clock gate orders the cores.
///
/// Both policies are fully deterministic and replayable: given the same
/// configuration (including the fuzz seed), every run produces the same
/// interleaving, cache state, and statistics. [`SchedulePolicy::Fuzzed`]
/// exists so a test harness can *explore* many legal-but-adversarial
/// interleavings and pressure patterns from a single replayable `u64`,
/// rather than only ever seeing the one canonical schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// The paper-faithful baseline: the core with the smallest
    /// `(clock, core_id)` pair executes next. Bit-identical to the
    /// simulator's historical behavior.
    #[default]
    Deterministic,
    /// Seeded schedule perturbation: each core's gate priority carries a
    /// bounded jitter term that is re-drawn (from a PRNG seeded by `seed`)
    /// after every operation the core completes, so cores with nearby
    /// clocks interleave in seed-dependent orders. The same PRNG also
    /// injects cache pressure — spurious L1 evictions and inclusive-L2
    /// back-invalidations — which exercises the paper's §7.4
    /// marked-line-loss paths (mark-counter bumps, watch violations) far
    /// more often than organic capacity misses would.
    Fuzzed {
        /// Replay seed: two machines built with the same configuration and
        /// seed produce identical runs.
        seed: u64,
    },
    /// Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010):
    /// each core gets a random distinct priority rank, the highest-priority
    /// active core runs exclusively, and `depth - 1` *priority-change
    /// points* are placed at random global op indices — when the running
    /// core crosses one, it is demoted below every other core. A bug of
    /// depth *d* (one needing *d* ordering constraints) is found with
    /// probability at least `1 / (n · k^(d-1))` per run, so directed search
    /// replaces [`SchedulePolicy::Fuzzed`]'s uniform luck. Change points
    /// are drawn uniformly from `0..PCT_CHANGE_HORIZON` gated ops.
    Pct {
        /// Replay seed for the rank permutation and change points.
        seed: u64,
        /// Bug depth `d` to target; `d - 1` change points are scheduled.
        depth: u32,
    },
}

/// A schedule-steering directive: from global gated-op index `at_op`
/// onward, `core` is *favored* — it runs exclusively (while active) until
/// the next directive takes effect. A sorted list of these forms an
/// explicit preemption trace, the replayable unit the bounded-exhaustive
/// explorer enumerates and the trace shrinker minimizes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Preemption {
    /// Global gated-op index (across all cores) at which the switch fires.
    pub at_op: u64,
    /// Core favored from that point on.
    pub core: usize,
}

/// What a [`FaultEvent`] does when it fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Evict the `nth` (modulo occupancy) resident line from `core`'s L1 —
    /// the paper's §7.4 marked-line-loss path: mark-counter bumps and
    /// eviction-cause watch violations, driving aggressive→cautious
    /// fallback.
    EvictL1 {
        /// Index into the core's resident lines, wrapped modulo occupancy.
        nth: usize,
    },
    /// Evict the `nth` (modulo occupancy) L2 line; with an inclusive L2
    /// this back-invalidates every L1 copy (capacity pressure). The `core`
    /// field of the event is ignored.
    BackInvalidate {
        /// Index into the L2's resident lines, wrapped modulo occupancy.
        nth: usize,
    },
    /// Raise a spurious watch violation on `core`: the next violation
    /// check observes [`crate::hierarchy::ViolationCause::Spurious`], which
    /// HTM layers surface as a spurious transactional abort (interrupts,
    /// TLB shootdowns — abort causes real HTMs have and the paper's
    /// fallback path must tolerate).
    SpuriousAbort,
}

/// A scheduled fault: when the global gated-op counter reaches `at_op`,
/// apply `kind` to `core`. Events fire in order and each fires once;
/// multiple events may share an `at_op`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// Global gated-op index at which the fault fires.
    pub at_op: u64,
    /// Target core (ignored by [`FaultKind::BackInvalidate`]).
    pub core: usize,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// Full machine configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores (each with a private L1).
    pub cores: usize,
    /// Per-core L1 geometry.
    pub l1: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// Whether the L2 is inclusive of the L1s. Inclusive hierarchies
    /// back-invalidate L1 lines on L2 eviction, which is one of the paper's
    /// sources of "accidental" marked-line loss in multi-core runs (§7.4).
    pub inclusive_l2: bool,
    /// ISA implementation level.
    pub isa: IsaLevel,
    /// Enable a next-line hardware prefetcher: every demand L1 miss also
    /// fills the following line. Prefetch pollution is one of the paper's
    /// sources of accidental marked-line eviction in multi-core runs
    /// ("prefetches and speculative accesses from one core kick out marked
    /// cache lines from another core", §7.4).
    pub prefetch_next_line: bool,
    /// Cycle costs.
    pub cost: CostModel,
    /// Scheduler policy: canonical deterministic order, or seeded
    /// schedule/pressure perturbation (see [`SchedulePolicy`]).
    pub schedule: SchedulePolicy,
}

impl MachineConfig {
    /// A machine with `cores` cores and paper-era default caches.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig {
            cores,
            ..Self::default()
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 1,
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            inclusive_l2: true,
            isa: IsaLevel::Full,
            prefetch_next_line: false,
            cost: CostModel::default(),
            schedule: SchedulePolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        assert_eq!(CacheConfig::l1_default().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheConfig::l2_default().capacity_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheConfig::new(3, 4);
    }

    #[test]
    fn defaults() {
        let m = MachineConfig::default();
        assert_eq!(m.cores, 1);
        assert_eq!(m.isa, IsaLevel::Full);
        assert!(m.inclusive_l2);
        assert_eq!(m.schedule, SchedulePolicy::Deterministic);
        let m4 = MachineConfig::with_cores(4);
        assert_eq!(m4.cores, 4);
        assert_eq!(m4.l1, CacheConfig::l1_default());
    }

    #[test]
    fn schedule_policies_compare() {
        assert_ne!(
            SchedulePolicy::Deterministic,
            SchedulePolicy::Fuzzed { seed: 0 }
        );
        assert_ne!(
            SchedulePolicy::Fuzzed { seed: 1 },
            SchedulePolicy::Fuzzed { seed: 2 }
        );
        assert_ne!(
            SchedulePolicy::Pct { seed: 1, depth: 2 },
            SchedulePolicy::Pct { seed: 1, depth: 3 }
        );
        assert_ne!(
            SchedulePolicy::Pct { seed: 0, depth: 2 },
            SchedulePolicy::Fuzzed { seed: 0 }
        );
    }
}
