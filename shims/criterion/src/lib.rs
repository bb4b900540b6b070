//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io. This shim
//! keeps the `benches/` targets compiling and runnable: each
//! `bench_function` runs a short warmup plus a small fixed number of
//! timed iterations and prints mean wall time per iteration. There are
//! no statistics, plots, or baselines — the simulated-cycle numbers that
//! actually matter are printed by the `all-figs` binary.

use std::time::{Duration, Instant};

/// Iterations per benchmark. Kept tiny so `cargo bench` stays fast; the
/// shim is about keeping benches compiling, not measurement fidelity.
const ITERS: u32 = 3;

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            _c: self,
            group: name.to_string(),
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        run_bench("", id.as_ref(), &mut f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        run_bench(&self.group, id.as_ref(), &mut f);
        self
    }

    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(group: &str, id: &str, f: &mut F) {
    let mut b = Bencher {
        elapsed: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    let mean = b.elapsed.checked_div(b.iters.max(1)).unwrap_or_default();
    if group.is_empty() {
        println!("  {id}: {mean:?}/iter over {} iters", b.iters);
    } else {
        println!("  {group}/{id}: {mean:?}/iter over {} iters", b.iters);
    }
}

pub struct Bencher {
    elapsed: Duration,
    iters: u32,
}

impl Bencher {
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        // Warmup once, then time a fixed handful of iterations.
        black_box(f());
        let start = Instant::now();
        for _ in 0..ITERS {
            black_box(f());
        }
        self.elapsed += start.elapsed();
        self.iters += ITERS;
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn bencher_runs_closure() {
        let mut c = super::Criterion::default();
        let mut group = c.benchmark_group("g");
        let mut count = 0u32;
        group.bench_function("f", |b| b.iter(|| count += 1));
        group.finish();
        assert!(count >= super::ITERS);
    }
}
