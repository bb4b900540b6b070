//! Criterion wrapper over representative figure experiments, so
//! `cargo bench` exercises the full evaluation pipeline end to end (the
//! complete per-figure tables come from `all-figs --fig N`; see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use hastm_bench::Scale;
use hastm_workloads::{
    generate_stream, run_kernel, run_workload, KernelParams, Scheme, Structure, WorkloadConfig,
};

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_workloads");
    group.sample_size(10);
    for (structure, scheme) in [
        (Structure::BTree, Scheme::Stm),
        (Structure::BTree, Scheme::Hastm),
        (Structure::Bst, Scheme::Hastm),
        (Structure::HashTable, Scheme::Hytm),
    ] {
        let name = format!("{structure}_{}", scheme.label().to_lowercase());
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = WorkloadConfig::paper_default(structure, scheme, 1);
                cfg.ops_per_thread = 120;
                cfg.prepopulate = 128;
                cfg.key_range = 256;
                std::hint::black_box(run_workload(&cfg).cycles)
            })
        });
    }
    group.finish();
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure15_kernel");
    group.sample_size(10);
    let params = KernelParams {
        sections: 40,
        ..KernelParams::default()
    };
    let stream = generate_stream(&params);
    for scheme in [Scheme::Stm, Scheme::Hastm, Scheme::Hytm] {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| std::hint::black_box(run_kernel(scheme, &stream).cycles))
        });
    }
    group.finish();
}

fn bench_figure_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_tables");
    group.sample_size(10);
    group.bench_function("fig13_workload_analysis", |b| {
        b.iter(|| std::hint::black_box(hastm_bench::fig13().rows.len()))
    });
    group.bench_function("fig12_breakdown_quick", |b| {
        b.iter(|| std::hint::black_box(hastm_bench::fig12(Scale::Quick).rows.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_workloads, bench_kernel, bench_figure_runner);
criterion_main!(benches);
