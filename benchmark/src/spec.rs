//! The benchmark's fixed vocabulary: workload names, metric names and
//! units. `BENCHMARK.json` at the repository root carries the same names
//! plus direction and regression bound; a unit test keeps the two in
//! step.

/// The five workloads, in report order.
pub const WORKLOADS: [&str; 5] = [
    "sim_solo",
    "sim_multi",
    "native_mix",
    "native_ro",
    "native_oltp",
];

/// Seed used when `--seed` is absent; the goldens are blessed for it.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// End-to-end metrics `(name, unit)`, reported by the untraced run of
/// every workload. All but [`HIGHER_IS_BETTER`] are better lower.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("txns_per_s", "1/s"),
    ("lat_p50_ns", "ns"),
    ("lat_p95_ns", "ns"),
    ("peak_rss_mb", "MB"),
];

/// The one end-to-end metric whose best pass is its largest.
pub const HIGHER_IS_BETTER: &str = "txns_per_s";

/// Per-layer metrics `(name, unit)`, reported by the traced run of every
/// workload. A metric that does not apply to the workload being run
/// reads 0.
pub const PER_LAYER: [(&str, &str); 79] = [
    // Whole-run figures that are not regression-gated.
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("failed_share", "share"),
    ("passes", "count"),
    ("lat_samples_per_pass", "count"),
    // sim.machine: the gate.
    ("sim.machine.gate_ns_per_op_1c", "ns"),
    ("sim.machine.gate_ns_per_op_2c", "ns"),
    ("sim.machine.handoff_ns", "ns"),
    ("sim.machine.run_spawn_us", "us"),
    ("sim.machine.sys_share", "share"),
    // sim.hierarchy / sim.cache: the memory model.
    ("sim.hierarchy.l1_hit_ns", "ns"),
    ("sim.hierarchy.l2_hit_ns", "ns"),
    ("sim.hierarchy.mem_ns", "ns"),
    ("sim.hierarchy.store_ns", "ns"),
    ("sim.hierarchy.cas_ns", "ns"),
    ("sim.hierarchy.memops", "count"),
    ("sim.hierarchy.l1_hit_share", "share"),
    ("sim.hierarchy.l2_hit_share", "share"),
    ("sim.hierarchy.invalidations", "count"),
    ("sim.hierarchy.back_invalidations", "count"),
    // sim.cpu: op dispatch and the mark-bit instructions.
    ("sim.cpu.exec_ns", "ns"),
    ("sim.cpu.mark_set_ns", "ns"),
    ("sim.cpu.mark_test_ns", "ns"),
    ("sim.cpu.mark_reset_all_ns", "ns"),
    ("sim.cpu.mark_test_hit_share", "share"),
    ("sim.cpu.marked_lines_lost", "count"),
    ("sim.trace.overhead_share", "share"),
    // core: barriers and the transaction engine on the simulator.
    ("core.barrier.read_ns_stm", "ns"),
    ("core.barrier.read_ns_hastm_filtered", "ns"),
    ("core.barrier.write_ns", "ns"),
    ("core.barrier.filter_hit_share", "share"),
    ("core.txn.empty_ns", "ns"),
    ("core.txn.commit_ns_8w", "ns"),
    ("core.txn.validate_ns_64r", "ns"),
    ("core.txn.commits", "count"),
    ("core.txn.aborts", "count"),
    ("core.txn.abort_share", "share"),
    ("core.txn.simcycle_share.tls", "share"),
    ("core.txn.simcycle_share.read_barrier", "share"),
    ("core.txn.simcycle_share.write_barrier", "share"),
    ("core.txn.simcycle_share.validate", "share"),
    ("core.txn.simcycle_share.commit", "share"),
    ("core.txn.simcycle_share.contention", "share"),
    ("core.txn.simcycle_share.app", "share"),
    ("htm.txn.empty_ns", "ns"),
    ("htm.hw_commit_share", "share"),
    ("locks.spinlock.acquire_release_ns", "ns"),
    // native: the host-thread TL2 backend.
    ("native.tl2.clock_read_ns", "ns"),
    ("native.tl2.stripe_state_ns", "ns"),
    ("native.tl2.alloc_obj_ns", "ns"),
    ("native.heap.load_ns", "ns"),
    ("native.exec.empty_txn_ns", "ns"),
    ("native.exec.begin_ns", "ns"),
    ("native.exec.read_fast_ns", "ns"),
    ("native.exec.read_slow_ns", "ns"),
    ("native.exec.commit_ns_1w", "ns"),
    ("native.exec.commit_ns_8w", "ns"),
    ("native.exec.commit_ns_64w", "ns"),
    ("native.exec.ro_begin_ns", "ns"),
    ("native.exec.ro_snapshot_read_ns", "ns"),
    ("native.exec.abort_share", "share"),
    ("native.exec.aborts_conflict", "count"),
    ("native.exec.aborts_filter_stale", "count"),
    ("native.exec.fast_read_share", "share"),
    ("native.exec.snapshot_reads", "count"),
    ("native.exec.versions_published", "count"),
    ("native.exec.ro_aborts", "count"),
    ("native.exec.scaling_2_over_1", "ratio"),
    ("native.exec.lat_p99_ns", "ns"),
    ("native.exec.lat_p999_ns", "ns"),
    ("native.exec.txn_begin_self_ns", "ns"),
    ("native.exec.txn_body_self_ns", "ns"),
    ("native.exec.txn_commit_self_ns", "ns"),
    // workloads: structure closures and input generation.
    ("workloads.seq_wall_share", "share"),
    ("workloads.oltp.gen_ns_per_txn", "ns"),
    ("workloads.populate_s", "s"),
    // benchmark: the instrument's own cost.
    ("benchmark.timer_pair_ns", "ns"),
    ("benchmark.trace_overhead_share", "share"),
    ("benchmark.verify_self_s", "s"),
    ("benchmark.pass_self_s", "s"),
];

/// Per-layer metrics that, on the simulator workloads, are computed from
/// simulated statistics alone: for one seed and build they repeat
/// exactly, and two runs are compared for equality, not within a bound.
pub const EXACT_ON_SIM: [&str; 18] = [
    "sim.hierarchy.memops",
    "sim.hierarchy.l1_hit_share",
    "sim.hierarchy.l2_hit_share",
    "sim.hierarchy.invalidations",
    "sim.hierarchy.back_invalidations",
    "sim.cpu.mark_test_hit_share",
    "sim.cpu.marked_lines_lost",
    "core.barrier.filter_hit_share",
    "core.txn.commits",
    "core.txn.aborts",
    "core.txn.abort_share",
    "core.txn.simcycle_share.tls",
    "core.txn.simcycle_share.read_barrier",
    "core.txn.simcycle_share.write_barrier",
    "core.txn.simcycle_share.validate",
    "core.txn.simcycle_share.commit",
    "core.txn.simcycle_share.contention",
    "core.txn.simcycle_share.app",
];
