//! Criterion benchmarks of the barrier code paths: simulated-cycle cost of
//! each barrier family, reported via host wall time of fixed simulated
//! workloads (the simulated-cycle numbers themselves are printed by the
//! `all-figs` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use hastm::{Granularity, ModePolicy, StmConfig, StmRuntime, TxThread};
use hastm_sim::{Machine, MachineConfig};

fn run_reads(config: StmConfig, txns: u32, reads_per_txn: u32) -> u64 {
    let mut machine = Machine::new(MachineConfig::default());
    let runtime = StmRuntime::new(&mut machine, config);
    machine
        .run_one(|cpu| {
            let mut tx = TxThread::new(&runtime, cpu);
            let objs: Vec<_> = (0..reads_per_txn).map(|_| tx.alloc_obj(1)).collect();
            for _ in 0..txns {
                tx.atomic(|tx| {
                    let mut acc = 0;
                    for o in &objs {
                        acc += tx.read_word(*o, 0)?;
                        acc += tx.read_word(*o, 0)?; // reused read
                    }
                    Ok(acc)
                });
            }
            tx.cpu().now()
        })
        .0
}

fn bench_read_barriers(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_barriers");
    group.sample_size(15);
    let cases: [(&str, StmConfig); 4] = [
        ("stm", StmConfig::stm(Granularity::CacheLine)),
        (
            "hastm_cautious",
            StmConfig::hastm_cautious(Granularity::CacheLine),
        ),
        (
            "hastm_aggressive",
            StmConfig::hastm(Granularity::CacheLine, ModePolicy::SingleThreadAggressive),
        ),
        (
            "hastm_object",
            StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive),
        ),
    ];
    for (name, cfg) in cases {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(run_reads(cfg.clone(), 50, 24)))
        });
    }
    group.finish();
}

fn bench_commit_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_paths");
    group.sample_size(15);
    group.bench_function("stm_commit_validation", |b| {
        b.iter(|| run_reads(StmConfig::stm(Granularity::CacheLine), 30, 64))
    });
    group.bench_function("hastm_counter_validation", |b| {
        b.iter(|| {
            run_reads(
                StmConfig::hastm(Granularity::CacheLine, ModePolicy::SingleThreadAggressive),
                30,
                64,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_read_barriers, bench_commit_paths);
criterion_main!(benches);
