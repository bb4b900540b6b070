//! The simulator's multi-version runs, pinned: the read-heavy and
//! scan-heavy BST mixes at 4 cores under the STM and HASTM. For each, the
//! run's `txn.ro.*` registry entries and the version store's own counters
//! (`published`, `reclaimed`, `max_ring_len`) must keep the values they
//! had before the store's live-snapshot registry and reclamation rule
//! became the ones the native backend uses.

use hastm_workloads::{run_workload, Scheme, Structure, WorkloadConfig};

/// `(scan_heavy, scheme, [txn.ro.* in registry order], [published,
/// reclaimed, max_ring_len])`.
type Pin = (bool, Scheme, [(&'static str, u64); 4], [u64; 3]);

const PINS: [Pin; 4] = [
    (
        false,
        Scheme::Stm,
        [
            ("txn.ro.commits", 3830),
            ("txn.ro.aborts", 0),
            ("txn.ro.snapshot_reads", 86334),
            ("txn.ro.versions_published", 1530),
        ],
        [1950, 1045, 3],
    ),
    (
        false,
        Scheme::Hastm,
        [
            ("txn.ro.commits", 3830),
            ("txn.ro.aborts", 0),
            ("txn.ro.snapshot_reads", 86228),
            ("txn.ro.versions_published", 1508),
        ],
        [1928, 1026, 3],
    ),
    (
        true,
        Scheme::Stm,
        [
            ("txn.ro.commits", 3212),
            ("txn.ro.aborts", 0),
            ("txn.ro.snapshot_reads", 489676),
            ("txn.ro.versions_published", 7422),
        ],
        [9322, 6697, 6],
    ),
    (
        true,
        Scheme::Hastm,
        [
            ("txn.ro.commits", 3212),
            ("txn.ro.aborts", 0),
            ("txn.ro.snapshot_reads", 489252),
            ("txn.ro.versions_published", 7498),
        ],
        [9386, 6753, 5],
    ),
];

#[test]
fn multi_version_bst_runs_hold_their_pins() {
    for (scan_heavy, scheme, ro, versions) in PINS {
        let cfg = match scan_heavy {
            false => WorkloadConfig::read_heavy(Structure::Bst, scheme, 4),
            true => WorkloadConfig::scan_heavy(Structure::Bst, scheme, 4),
        };
        let r = run_workload(&cfg);
        let snapshot = r.snapshot();
        let got: Vec<(&str, u64)> = snapshot
            .entries()
            .iter()
            .copied()
            .filter(|(key, _)| key.starts_with("txn.ro."))
            .collect();
        let what = format!("bst/{scheme} 4p scan_heavy={scan_heavy}");
        assert_eq!(got, ro, "{what}: txn.ro.*");
        let v = r.versions;
        assert_eq!(
            [v.published, v.reclaimed, v.max_ring_len],
            versions,
            "{what}: published, reclaimed, max_ring_len"
        );
    }
}
