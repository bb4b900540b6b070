//! The native heap takes back what commits unlink. A hash table runs
//! 2 threads × 200 000 operations at 20 % updates — about 40 000 fresh
//! inserts — and must end with every tally conserved, having bumped no
//! more of the heap than its bucket array and about four times its live
//! nodes: `HEAP_BOUND` words, a tenth of what the inserts would take
//! without reuse. Without `TmContext::ctx_free` every unlinked node stays
//! allocated and the bound fails.

use hastm::TmExec;
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
use hastm_workloads::{HashTable, TxMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 1_024;
const BUCKETS: u32 = 1_024;
const THREADS: usize = 2;
const OPS: u64 = 200_000;
const UPDATE_PCT: u32 = 20;
/// Heap words the run may bump, the null line and setup included.
const HEAP_BOUND: usize = 16 << 10;

#[test]
fn a_native_hash_table_runs_in_a_heap_sized_for_its_live_set() {
    let rt = NativeRuntime::new(NativeConfig::default());
    let mut setup = NativeExec::new(&rt);
    let table = setup.atomic(|ctx| Ok(HashTable::create(ctx, BUCKETS)));
    for key in (0..KEYS).step_by(2) {
        setup.atomic(|ctx| table.insert(ctx, key, key));
    }
    let tallies: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let rt = &rt;
                s.spawn(move || {
                    let mut ex = NativeExec::new(rt);
                    let mut rng = StdRng::seed_from_u64(0x5eed ^ t as u64);
                    let (mut inserted, mut removed) = (0, 0);
                    for _ in 0..OPS {
                        let key = rng.gen_range(0..KEYS);
                        match rng.gen_range(0..100) {
                            r if r < UPDATE_PCT / 2 => {
                                inserted += u64::from(ex.atomic(|ctx| table.insert(ctx, key, key)));
                            }
                            r if r < UPDATE_PCT => {
                                removed += u64::from(ex.atomic(|ctx| table.remove(ctx, key)));
                            }
                            _ => {
                                let value = ex.atomic(|ctx| table.get(ctx, key));
                                assert!(value.is_none_or(|v| v == key), "{key} holds {value:?}");
                            }
                        }
                    }
                    (inserted, removed, ex.stats().recycled)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let inserted: u64 = tallies.iter().map(|t| t.0).sum();
    let removed: u64 = tallies.iter().map(|t| t.1).sum();
    let recycled: u64 = tallies.iter().map(|t| t.2).sum();
    let mut residents = Vec::new();
    let len = setup.atomic(|ctx| {
        residents.clear();
        table.for_each(ctx, &mut |key, value| residents.push((key, value)))?;
        table.len(ctx)
    });
    assert_eq!(
        len,
        KEYS / 2 + inserted - removed,
        "the tallies disagree with the table"
    );
    assert_eq!(residents.len() as u64, len);
    assert!(residents
        .iter()
        .all(|&(key, value)| key == value && key < KEYS));
    let used = rt.heap().used_words();
    assert!(
        used <= HEAP_BOUND,
        "{used} heap words bumped for {len} live nodes"
    );
    assert!(
        recycled > inserted / 2,
        "{recycled} of {inserted} fresh inserts took a freed node"
    );
}
