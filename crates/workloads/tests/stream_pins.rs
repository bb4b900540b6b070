//! The OLTP mill's transaction streams, pinned.
//!
//! Digests taken from `thread_txns` at the commit before the generator was
//! made cheaper (`d00e1ec`): every arrival, key and delta of every stream
//! below must stay bit-identical, because the simulator rows of the `oltp`
//! bin, `benchmark/`'s `native_oltp` and the differential checker's mill
//! trials all replay these streams.

use hastm_workloads::fnv1a;
use hastm_workloads::oltp::{thread_txns, OltpConfig, HTM_OVERFLOW_KEYS};

/// FNV-1a over every transaction's arrival, key count, keys, delta count
/// and deltas, in stream order.
fn stream_digest(cfg: &OltpConfig, tid: usize) -> u64 {
    fnv1a(thread_txns(cfg, tid).iter().flat_map(|txn| {
        [txn.arrival, txn.keys.len() as u64]
            .into_iter()
            .chain(txn.keys.iter().map(|&k| u64::from(k)))
            .chain([txn.deltas.len() as u64])
            .chain(txn.deltas.iter().map(|&d| d as u64))
    }))
}

fn assert_pinned(what: &str, cfg: &OltpConfig, pins: &[u64]) {
    assert_eq!(pins.len(), cfg.threads, "{what}: one pin per thread");
    for (tid, &pin) in pins.iter().enumerate() {
        assert_eq!(
            stream_digest(cfg, tid),
            pin,
            "{what}: thread {tid}'s stream moved"
        );
    }
}

/// `benchmark/`'s `native_oltp` streams: `paper_default(2)` at 50 000
/// transactions a thread, at its default seed and at `--seed 7`.
#[test]
fn benchmark_streams_are_pinned() {
    let bench = |seed| OltpConfig {
        txns_per_thread: 50_000,
        seed,
        ..OltpConfig::paper_default(2)
    };
    assert_pinned(
        "native_oltp",
        &bench(0x5eed),
        &[0x0ba6_9b6b_88cc_6f12, 0xb0d4_6e05_1583_1dd3],
    );
    assert_pinned(
        "native_oltp --seed 7",
        &bench(7),
        &[0xb2c4_0498_ba07_4b8f, 0x3842_b6e9_0daf_2850],
    );
}

#[test]
fn quick_streams_are_pinned() {
    assert_pinned(
        "quick(4)",
        &OltpConfig::quick(4),
        &[
            0xed4e_84b8_4e21_5e62,
            0x3333_06a4_fe5a_a86a,
            0xb38e_b4a7_7c6d_7be4,
            0x46d9_6fe5_d904_475f,
        ],
    );
}

/// The `oltp` bin's θ sweep at its default (standard) scale:
/// `hastm_bench::oltp::mill_config(Scale::Standard, θ)`, spelled out.
#[test]
fn theta_sweep_streams_are_pinned() {
    let sweep = |zipf_theta| OltpConfig {
        threads: 4,
        txns_per_thread: 256,
        accounts: 256,
        zipf_theta,
        read_pct: 50,
        txn_keys: 4,
        large_txn_pct: 2,
        large_txn_keys: HTM_OVERFLOW_KEYS,
        flash_phases: 4,
        mean_arrival_gap: 600,
        seed: 0x5eed,
    };
    assert_pinned(
        "θ = 0.6",
        &sweep(0.6),
        &[
            0x7623_6546_c5d8_2512,
            0x8206_da2d_6cfb_a31a,
            0x2f9d_3a27_6657_70f8,
            0xb928_9907_c1e9_ce37,
        ],
    );
    assert_pinned(
        "θ = 0.9",
        &sweep(0.9),
        &[
            0xaeac_4025_6b40_6fd7,
            0x7ae3_1211_6c50_66aa,
            0x585a_69fe_9687_9ef2,
            0x71ae_c6dc_172f_c4af,
        ],
    );
    assert_pinned(
        "θ = 1.2",
        &sweep(1.2),
        &[
            0x6a6c_e15e_fb51_dd91,
            0xb97e_fe62_04de_8952,
            0xe4e0_1800_6fe3_666b,
            0xe1fc_3888_7107_3704,
        ],
    );
}
