//! Ablation of the §5 write-filtering extension ("an implementation could
//! also filter STM write barrier and undo logging operations using
//! additional mark bits") — implemented here on the hardware's second mark
//! filter and measured against baseline HASTM on store-heavy kernels.
//!
//! Run with: `cargo run --release -p hastm-bench --bin ablation`

use hastm::{Granularity, ModePolicy, ObjRef, StmConfig, StmRuntime, TxThread};
use hastm_bench::table::{ratio, Table};
use hastm_sim::{Machine, MachineConfig};

/// Accumulator kernel: each transaction rewrites a few hot words many
/// times (running sums, counters — the write-locality pattern the filter
/// targets). Returns (cycles, write_fast_path, undo_elided).
fn accumulate(filter_writes: bool, rewrites: u32) -> (u64, u64, u64) {
    let mut config = StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive);
    config.filter_writes = filter_writes;
    let mut machine = Machine::new(MachineConfig::default());
    let runtime = StmRuntime::new(&mut machine, config);
    machine
        .run_one(|cpu| {
            let mut tx = TxThread::new(&runtime, cpu);
            let objs: Vec<ObjRef> = (0..16).map(|_| tx.alloc_obj(2)).collect();
            tx.atomic(|tx| {
                for o in &objs {
                    tx.write_word(*o, 0, 0)?;
                }
                Ok(())
            });
            let t0 = tx.cpu().now();
            for round in 0..100u64 {
                tx.atomic(|tx| {
                    for o in &objs {
                        for k in 0..rewrites as u64 {
                            let v = tx.read_word(*o, 0)?;
                            tx.write_word(*o, 0, v + round + k)?;
                        }
                    }
                    Ok(())
                });
            }
            let dt = tx.cpu().now() - t0;
            (dt, tx.stats().write_fast_path, tx.stats().undo_elided)
        })
        .0
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("usage: ablation  (unknown arg {arg:?})");
        std::process::exit(2);
    }
    let mut table = Table::new(
        "Ablation: write-barrier + undo-log filtering (second mark filter, §5 extension)",
        &[
            "rewrites/word",
            "HASTM",
            "HASTM+writefilter",
            "wr fast paths",
            "undo elided",
        ],
    );
    for rewrites in [1u32, 2, 4, 8] {
        let (base, _, _) = accumulate(false, rewrites);
        let (filt, fast, elided) = accumulate(true, rewrites);
        table.row(vec![
            rewrites.to_string(),
            "1.00".into(),
            ratio(filt, base),
            fast.to_string(),
            elided.to_string(),
        ]);
    }
    table.note("relative to baseline HASTM; expected: filtering pays increasingly as write locality grows, and is roughly neutral at 1 rewrite");
    table.print();
}
