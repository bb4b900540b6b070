//! Property tests for the OLTP traffic mill's samplers: Zipfian key skew,
//! read/write mix, the transaction-size tail, and per-seed determinism.
//!
//! The assertions are statistical where the property is statistical (rank
//! frequencies, mix ratios) and exact where the generator makes an exact
//! promise (zero-sum deltas, distinct keys, bit-exact replay). Streams are
//! sized so the statistical bounds hold with wide margin — these are
//! generator-shape checks, not hypothesis tests.

use hastm_workloads::oltp::{thread_txns, OltpConfig, Zipf, HTM_OVERFLOW_KEYS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mill config drawn from the interesting corner of parameter space.
fn small_cfg(seed: u64, theta_milli: u32, read_pct: u32, large_pct: u32) -> OltpConfig {
    OltpConfig {
        threads: 2,
        txns_per_thread: 600,
        accounts: 32,
        zipf_theta: theta_milli as f64 / 1000.0,
        read_pct,
        txn_keys: 4,
        large_txn_pct: large_pct,
        large_txn_keys: 12,
        flash_phases: 1,
        mean_arrival_gap: 100,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Zipfian rank frequencies are monotonically non-increasing in rank
    /// (up to sampling noise, absorbed by bucketing adjacent ranks) and
    /// the skew is real: the hottest bucket beats the coldest.
    #[test]
    fn zipf_rank_frequency_is_monotone(seed in 0u64..1_000, theta_milli in 600u32..1_400) {
        let n = 32u32;
        let zipf = Zipf::new(n, theta_milli as f64 / 1000.0);
        let mut counts = vec![0u64; n as usize];
        // Drive the sampler with a deterministic low-discrepancy sweep of
        // [0,1): exact CDF coverage, no sampling noise beyond rounding.
        let samples = 64 * n as u64;
        for i in 0..samples {
            let u = (i as f64 + (seed % 97) as f64 / 97.0) / samples as f64;
            counts[zipf.sample(u) as usize] += 1;
        }
        // Bucket ranks in fours: counts within a bucket may tie or jitter,
        // but bucket sums must never increase with rank.
        let buckets: Vec<u64> = counts.chunks(4).map(|c| c.iter().sum()).collect();
        for w in buckets.windows(2) {
            prop_assert!(
                w[0] >= w[1],
                "rank-frequency must be non-increasing: buckets {:?}",
                buckets
            );
        }
        prop_assert!(
            buckets[0] > *buckets.last().unwrap(),
            "theta {} must produce real skew: {:?}",
            theta_milli as f64 / 1000.0,
            buckets
        );
    }

    /// The realized read-only fraction tracks `read_pct` within ±5 points
    /// over a 1200-transaction stream.
    #[test]
    fn read_write_mix_matches_configuration(seed in 0u64..1_000, read_pct in 10u32..90) {
        let cfg = small_cfg(seed, 900, read_pct, 0);
        let mut total = 0u64;
        let mut reads = 0u64;
        for tid in 0..cfg.threads {
            for txn in thread_txns(&cfg, tid) {
                total += 1;
                reads += txn.is_read_only() as u64;
            }
        }
        let realized = 100.0 * reads as f64 / total as f64;
        prop_assert!(
            (realized - read_pct as f64).abs() <= 5.0,
            "configured {read_pct}% read-only, realized {realized:.1}% over {total} txns"
        );
    }

    /// The size distribution has the configured rare-large tail, and the
    /// tail is big enough to overflow HTM capacity: large transactions
    /// touch `large_txn_keys` distinct accounts (one cache line each).
    #[test]
    fn txn_size_tail_hits_the_htm_overflow_bucket(seed in 0u64..1_000) {
        let mut cfg = small_cfg(seed, 900, 25, 4);
        cfg.accounts = 2 * HTM_OVERFLOW_KEYS;
        cfg.large_txn_keys = HTM_OVERFLOW_KEYS;
        let mut total = 0u64;
        let mut overflow = 0u64;
        for tid in 0..cfg.threads {
            for txn in thread_txns(&cfg, tid) {
                total += 1;
                prop_assert!(txn.keys.len() <= HTM_OVERFLOW_KEYS as usize);
                // Keys are distinct within a transaction — each one is a
                // separate line in the HTM read/write set.
                let mut sorted = txn.keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), txn.keys.len(), "duplicate keys in a txn");
                overflow += (txn.keys.len() as u32 == HTM_OVERFLOW_KEYS) as u64;
            }
        }
        let realized = 100.0 * overflow as f64 / total as f64;
        // Configured 4%: accept [1.5%, 8%] over 1200 txns.
        prop_assert!(
            (1.5..=8.0).contains(&realized),
            "overflow tail configured at 4%, realized {realized:.1}%"
        );
    }

    /// Transfers are exactly zero-sum (the ledger invariant the
    /// differential harness checks is a property of every single txn, not
    /// just of the aggregate), and arrivals are non-decreasing (open-loop
    /// schedule).
    #[test]
    fn transfers_are_zero_sum_and_arrivals_ordered(seed in 0u64..1_000) {
        let cfg = small_cfg(seed, 1_100, 40, 10);
        for tid in 0..cfg.threads {
            let mut last_arrival = 0u64;
            for txn in thread_txns(&cfg, tid) {
                prop_assert!(txn.arrival >= last_arrival);
                last_arrival = txn.arrival;
                let sum = txn.deltas.iter().fold(0i64, |a, &d| a.wrapping_add(d));
                prop_assert_eq!(sum, 0, "deltas must be zero-sum: {:?}", txn.deltas);
                if txn.is_read_only() {
                    prop_assert!(txn.deltas.iter().all(|&d| d == 0));
                }
            }
        }
    }

    /// Bit-exact determinism: the same seed yields the same stream twice,
    /// and different seeds yield different streams.
    #[test]
    fn streams_are_bit_exact_per_seed(seed in 0u64..1_000) {
        let cfg = small_cfg(seed, 900, 30, 5);
        for tid in 0..cfg.threads {
            prop_assert_eq!(thread_txns(&cfg, tid), thread_txns(&cfg, tid));
        }
        let other = OltpConfig { seed: seed ^ 0xdead_beef, ..cfg.clone() };
        prop_assert_ne!(thread_txns(&cfg, 0), thread_txns(&other, 0));
    }
}

/// The guide-table inverse is exact, not approximate: `sample(u)` is the
/// number of CDF entries `<= u` — what the binary search it replaced
/// returned — at random `u`, at every CDF entry and the floats either side
/// of it, and at both ends of `[0, 1)`.
#[test]
fn zipf_sample_is_the_exact_cdf_inverse() {
    let mut rng = StdRng::seed_from_u64(0x21bf);
    for n in [1, 2, 3, 16, 64, 256, 1000] {
        for theta in [0.0, 0.6, 0.9, 1.2, 2.0] {
            let zipf = Zipf::new(n, theta);
            let cdf = zipf.cdf();
            assert_eq!(cdf.len(), n as usize);
            let mut probes = vec![0.0, 1.0f64.next_down()];
            probes.extend(cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]));
            probes
                .extend((0..4_096).map(|_| (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64));
            for u in probes {
                assert_eq!(
                    zipf.sample(u) as usize,
                    cdf.partition_point(|&c| c <= u),
                    "n {n}, θ {theta}, u {u:e}"
                );
            }
        }
    }
}
