//! Simulation counters, and the [`counters!`](crate::counters) table every
//! stats struct in the workspace is declared with.

/// Declares a counter struct as one table: each row is a doc comment, a
/// field and the dotted key the counter goes by in the metrics registry.
/// The key column also fixes the field's type:
///
/// * `"a.key"` — a `u64`;
/// * `["a.key", "b.key", ..]` — a `[u64; N]`, one key per element (the
///   per-phase arrays);
/// * `Other` — a nested struct declared by this macro, whose rows follow
///   under their own keys.
///
/// The result is a plain struct of `pub` fields (`stats.commits += 1` and
/// struct-update syntax work as on any other) deriving `Clone`, `Debug`,
/// `Default`, `PartialEq` and `Eq`, plus `merge`, `entries` and
/// `counters_mut`, none of which can miss a field. Adding a counter is one
/// row.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $field:ident: $key:tt),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: $crate::counters!(@type $key),)*
        }

        impl $name {
            /// Adds every counter of `other` to this one's (aggregation
            /// across threads or cores).
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge self.$field, other.$field, $key);)*
            }

            /// Every counter under its dotted registry key, in declaration
            /// order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                let mut out = Vec::new();
                $($crate::counters!(@entries out, self.$field, $key);)*
                out
            }

            /// Every counter, mutably, in [`Self::entries`] order.
            pub fn counters_mut(&mut self) -> Vec<&mut u64> {
                let mut out = Vec::new();
                $($crate::counters!(@counters_mut out, self.$field, $key);)*
                out
            }
        }
    };
    (@type $key:literal) => { u64 };
    (@type [$($key:literal),+]) => { [u64; [$($key),+].len()] };
    (@type $nested:ident) => { $nested };
    (@merge $a:expr, $b:expr, $key:literal) => { $a += $b };
    (@merge $a:expr, $b:expr, [$($key:literal),+]) => {
        for (a, b) in $a.iter_mut().zip($b) {
            *a += b;
        }
    };
    (@merge $a:expr, $b:expr, $nested:ident) => { $a.merge(&$b) };
    (@entries $out:ident, $v:expr, $key:literal) => { $out.extend([($key, $v)]) };
    (@entries $out:ident, $v:expr, [$($key:literal),+]) => {
        $out.extend([$($key),+].into_iter().zip($v))
    };
    (@entries $out:ident, $v:expr, $nested:ident) => { $out.extend($v.entries()) };
    (@counters_mut $out:ident, $v:expr, $key:literal) => { $out.extend([&mut $v]) };
    (@counters_mut $out:ident, $v:expr, [$($key:literal),+]) => { $out.extend(&mut $v) };
    (@counters_mut $out:ident, $v:expr, $nested:ident) => { $out.extend($v.counters_mut()) };
}

counters! {
    /// Per-core event counters accumulated during a run.
    pub struct CoreStats {
        /// Ordinary and mark-variant loads executed.
        loads: "sim.loads",
        /// Stores executed (including the store half of a successful CAS).
        stores: "sim.stores",
        /// Compare-and-swap operations executed.
        cas_ops: "sim.cas_ops",
        /// Accesses that hit in this core's L1.
        l1_hits: "sim.l1_hits",
        /// Accesses that missed in this core's L1.
        l1_misses: "sim.l1_misses",
        /// L1 misses serviced by the shared L2 or by another core's L1.
        l2_hits: "sim.l2_hits",
        /// L1 misses serviced by memory.
        mem_accesses: "sim.mem_accesses",
        /// Lines invalidated in this core's L1 by other cores' writes.
        invalidations_received: "sim.invalidations_received",
        /// Marked lines this core lost to eviction, snoop invalidation, or
        /// inclusive-L2 back-invalidation (each of these increments the
        /// architected mark counter, §3).
        marked_lines_lost: "sim.marked_lines_lost",
        /// The capacity-pressure share of `marked_lines_lost`: evictions and
        /// inclusive-L2 back-invalidations (plus whole-cache flushes) — losses
        /// no contention-management policy could have avoided.
        marked_lost_capacity: "sim.marked_lost_capacity",
        /// The conflict share of `marked_lines_lost`: losses to a remote
        /// writer's snoop invalidation (true data conflicts).
        marked_lost_conflict: "sim.marked_lost_conflict",
        /// `loadsetmark`-family instructions executed.
        mark_sets: "sim.mark_sets",
        /// `loadtestmark`-family instructions executed.
        mark_tests: "sim.mark_tests",
        /// `loadtestmark` executions that found all covered mark bits set.
        mark_test_hits: "sim.mark_test_hits",
        /// `resetmarkall` executions.
        mark_resets: "sim.mark_resets",
        /// Lines brought in by the next-line prefetcher.
        prefetch_fills: "sim.prefetch_fills",
        /// Final value of this core's logical clock, in cycles.
        cycles: "sim.cycles",
    }
}

impl CoreStats {
    /// Total memory operations (loads + stores + CAS).
    pub fn memory_ops(&self) -> u64 {
        self.loads + self.stores + self.cas_ops
    }

    /// Fraction of `loadtestmark`s that hit, or 0 if none executed.
    pub fn mark_filter_rate(&self) -> f64 {
        if self.mark_tests == 0 {
            0.0
        } else {
            self.mark_test_hits as f64 / self.mark_tests as f64
        }
    }
}

counters! {
    /// Machine-wide counters.
    pub struct MachineStats {
        /// L2 evictions.
        l2_evictions: "sim.l2_evictions",
        /// L1 lines removed because an inclusive L2 evicted their line.
        back_invalidations: "sim.back_invalidations",
    }
}

/// Result of one [`crate::Machine::run`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Per-core counters, indexed by core id.
    pub cores: Vec<CoreStats>,
    /// Machine-wide counters.
    pub machine: MachineStats,
}

impl RunReport {
    /// The run's makespan: the largest per-core cycle count. This is the
    /// "execution time" plotted throughout the paper's evaluation.
    pub fn makespan(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Sum of a per-core counter over all cores.
    pub fn total<F: Fn(&CoreStats) -> u64>(&self, f: F) -> u64 {
        self.cores.iter().map(f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_max() {
        let mut r = RunReport::default();
        r.cores.push(CoreStats {
            cycles: 10,
            ..Default::default()
        });
        r.cores.push(CoreStats {
            cycles: 25,
            ..Default::default()
        });
        assert_eq!(r.makespan(), 25);
        assert_eq!(r.total(|c| c.cycles), 35);
    }

    #[test]
    fn empty_report() {
        let r = RunReport::default();
        assert_eq!(r.makespan(), 0);
    }

    #[test]
    fn filter_rate() {
        let s = CoreStats {
            mark_tests: 4,
            mark_test_hits: 3,
            ..Default::default()
        };
        assert!((s.mark_filter_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CoreStats::default().mark_filter_rate(), 0.0);
    }
}
