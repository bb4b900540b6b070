//! Runs one workload: a discarded warm-up pass, timed passes until the
//! measuring budget is spent, then (traced runs only) traced passes and
//! the micro-probes; folds the per-pass samples into named metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Value;
use crate::native::{MapBench, MapSpec, OltpBench};
use crate::sim::{SimBench, SimKind};
use crate::spans::{self, SpanId, Tracer};
use crate::spec::{DEFAULT_SEED, END_TO_END, HIGHER_IS_BETTER, PER_LAYER};
use crate::stats::{self, Summary};

/// Timed passes a run takes at least, however short its budget.
const MIN_PASSES: usize = 3;
/// And at most, so a mis-sized workload cannot grow the sample vectors
/// without bound.
const MAX_PASSES: usize = 512;

/// Latency percentiles of one pass's sampled calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatSummary {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub p999: f64,
    pub n: usize,
}

impl LatSummary {
    /// Sorts `samples` in place and reads the percentiles off it.
    pub fn of(samples: &mut [f64]) -> Self {
        stats::sort(samples);
        LatSummary {
            p50: stats::percentile(samples, 0.50),
            p95: stats::percentile(samples, 0.95),
            p99: stats::percentile(samples, 0.99),
            p999: stats::percentile(samples, 0.999),
            n: samples.len(),
        }
    }
}

/// What one pass measured.
#[derive(Clone, Copy, Debug)]
pub struct PassSample {
    /// Seconds from the start of the pass to the start of its timed
    /// region: build, populate, input generation, warm-up.
    pub setup_s: f64,
    /// Seconds of the timed region.
    pub wall_s: f64,
    /// Top-level transactions (native) or simulated operations (sim)
    /// completed in the timed region.
    pub ops: u64,
    /// Simulated cycles, summed over cores and cells (0 for native).
    pub sim_cycles: u64,
    pub lat: LatSummary,
    /// Operations whose output was checked, and how many failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Per-layer values a workload contributes, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Which pass speaks for a run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// The median pass. For passes whose cost the host can move either
    /// way: two threads racing on two CPUs run faster or slower with
    /// where the host places those CPUs.
    MedianPass,
    /// The best pass. For deterministic work on one CPU, which a
    /// co-tenant of the host can only slow down: the undisturbed pass is
    /// the fastest one.
    BestPass,
}

/// One workload, as the runner drives it.
pub trait Bench {
    fn estimator(&self) -> Estimator;
    /// One pass: set-up, timed region, output check. `traced` asks for
    /// the workload's own tracing on top of the spans; `timed` is false
    /// for the discarded warm-up pass.
    fn pass(&mut self, tr: &mut Tracer, parent: SpanId, traced: bool, timed: bool) -> PassSample;
    /// The same pass with one client instead of two, for workloads that
    /// report how they scale; only a traced run takes them, and their
    /// outputs are checked like any other pass's.
    fn single_client_passes(&mut self, _tr: &mut Tracer, _parent: SpanId) -> Vec<PassSample> {
        Vec::new()
    }
    /// Counters and shares of the timed passes.
    fn layers(&self, out: &mut Layers);
    /// One line per failed output check so far.
    fn failures(&self) -> &[String];
    /// The sizes this run used, for the result stamp.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// The golden document of the reference pass, for workloads that have
    /// one.
    fn golden(&self) -> Option<Value> {
        None
    }
}

/// Everything a single-workload run is told.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: exercises every path in a few seconds, measures
    /// nothing worth keeping.
    pub smoke: bool,
    /// Rewrite the workload's golden from this run instead of checking
    /// against it.
    pub bless: bool,
    /// Acceptance-check fault: make the native map tally lie.
    pub inject_wrong_tally: bool,
    /// The benchmark's own directory (goldens in, results out).
    pub home: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-pass samples behind `value`, when it was chosen among passes.
    pub summary: Option<Summary>,
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub passes: usize,
    /// The per-pass values behind each end-to-end median, in pass order
    /// (kept in the history record, so estimators can be re-judged).
    pub per_pass: Vec<(&'static str, Vec<f64>)>,
    pub sizes: Vec<(&'static str, u64)>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the regression driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::f64(m.value)),
                    ("unit".into(), Value::str(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::u64(self.attempted)),
            ("failed".into(), Value::u64(self.failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    /// Human-readable table: name, unit, reported value, and the median,
    /// quartiles and count of the per-pass samples behind it.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<44} {:>10} {:>16} {:>16} {:>16} {:>16} {:>4}\n",
            "metric", "unit", "value", "median", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let s = m.summary.unwrap_or(Summary {
                median: m.value,
                q1: m.value,
                q3: m.value,
                n: 1,
            });
            out.push_str(&format!(
                "{:<44} {:>10} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>4}\n",
                m.name, m.unit, m.value, s.median, s.q1, s.q3, s.n
            ));
        }
        out
    }
}

fn build(opts: &Opts) -> Result<Box<dyn Bench>, String> {
    let golden = |name: &str| {
        (opts.seed == DEFAULT_SEED && !opts.smoke && !opts.bless)
            .then(|| opts.home.join("golden").join(format!("{name}.json")))
    };
    Ok(match opts.workload.as_str() {
        "sim_solo" => Box::new(SimBench::new(
            SimKind::Solo,
            opts.seed,
            opts.smoke,
            golden("sim_solo").as_deref(),
        )),
        "sim_multi" => Box::new(SimBench::new(
            SimKind::Multi,
            opts.seed,
            opts.smoke,
            golden("sim_multi").as_deref(),
        )),
        "native_mix" => Box::new(MapBench::new(
            MapSpec::mix(opts.smoke),
            opts.seed,
            opts.inject_wrong_tally,
        )),
        "native_ro" => Box::new(MapBench::new(
            MapSpec::read_only_heavy(opts.smoke),
            opts.seed,
            opts.inject_wrong_tally,
        )),
        "native_oltp" => Box::new(OltpBench::new(opts.seed, opts.smoke)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs timed passes until `budget_s` is spent (and at least
/// [`MIN_PASSES`]).
fn timed_passes(
    bench: &mut dyn Bench,
    tr: &mut Tracer,
    root: SpanId,
    traced: bool,
    budget_s: f64,
) -> Vec<PassSample> {
    let label = if traced { "traced_pass" } else { "pass" };
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_PASSES
        && (samples.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget_s)
    {
        let pass = tr.open(format!("{label}[{}]", samples.len()), Some(root));
        samples.push(bench.pass(tr, pass, traced, true));
        tr.close(pass);
    }
    samples
}

/// `(user, system)` CPU time of this process so far, in clock ticks.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let mut fields = stat.rsplit(')').next().unwrap_or("").split_whitespace();
    let mut field = |n: usize| fields.nth(n).and_then(|f| f.parse().ok()).unwrap_or(0);
    let utime = field(11);
    let stime = field(0);
    (utime, stime)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_pass(samples: &[PassSample], f: impl Fn(&PassSample) -> f64) -> Summary {
    Summary::of(&samples.iter().map(f).collect::<Vec<_>>())
}

/// One end-to-end metric's value in one pass (`peak_rss_mb` is a property
/// of the process, not of a pass).
fn end_to_end_of(name: &str, s: &PassSample) -> f64 {
    match name {
        "setup_s" => s.setup_s,
        "txns_per_s" => s.ops as f64 / s.wall_s,
        "lat_p50_ns" => s.lat.p50,
        "lat_p95_ns" => s.lat.p95,
        other => unreachable!("no per-pass recipe for end-to-end metric {other}"),
    }
}

/// The per-layer values that come from the passes and their spans (the
/// workload's own counters and the probes are filed by their owners).
fn pass_layers(
    layers: &mut Layers,
    tr: &Tracer,
    untraced: &[PassSample],
    traced: &[PassSample],
    is_sim: bool,
) {
    layers.set("passes", untraced.len() as f64);
    layers.set(
        "lat_samples_per_pass",
        per_pass(untraced, |s| s.lat.n as f64).median,
    );
    let ns_per_op = |s: &PassSample| s.wall_s * 1e9 / s.ops.max(1) as f64;
    let overhead = per_pass(traced, ns_per_op).median / per_pass(untraced, ns_per_op).median - 1.0;
    layers.set("benchmark.trace_overhead_share", overhead);
    if is_sim {
        layers.set(
            "sim_mcycles_per_s",
            per_pass(untraced, |s| s.sim_cycles as f64 / 1e6 / s.wall_s).median,
        );
        layers.set("sim.trace.overhead_share", overhead);
    } else {
        layers.set(
            "native.exec.lat_p99_ns",
            per_pass(untraced, |s| s.lat.p99).median,
        );
        layers.set(
            "native.exec.lat_p999_ns",
            per_pass(untraced, |s| s.lat.p999).median,
        );
        // Leaf spans: their duration is their self time.
        for stage in ["begin", "body", "commit"] {
            layers.set(
                &format!("native.exec.txn_{stage}_self_ns"),
                tr.median_seconds(stage) * 1e9,
            );
        }
    }
    layers.set("workloads.populate_s", tr.median_seconds("populate"));
    layers.set("benchmark.verify_self_s", tr.median_seconds("verify"));
    let selfs = spans::self_times(tr.spans());
    let mut pass_self: Vec<f64> = tr
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name.starts_with("pass["))
        .map(|(_, &ns)| ns as f64 / 1e9)
        .collect();
    stats::sort(&mut pass_self);
    layers.set("benchmark.pass_self_s", stats::median(&pass_self));
}

/// The end-to-end metrics of the untraced passes, and the per-pass values
/// each was chosen from.
fn end_to_end_metrics(
    untraced: &[PassSample],
    estimator: Estimator,
) -> (Vec<Metric>, Vec<(&'static str, Vec<f64>)>) {
    let mut metrics = Vec::new();
    let mut per_pass_values = Vec::new();
    for (name, unit) in END_TO_END {
        let values: Vec<f64> = if name == "peak_rss_mb" {
            vec![peak_rss_mb()]
        } else {
            untraced.iter().map(|s| end_to_end_of(name, s)).collect()
        };
        let summary = Summary::of(&values);
        let value = match estimator {
            Estimator::MedianPass => summary.median,
            Estimator::BestPass if name == HIGHER_IS_BETTER => {
                values.iter().copied().fold(f64::MIN, f64::max)
            }
            Estimator::BestPass => values.iter().copied().fold(f64::MAX, f64::min),
        };
        per_pass_values.push((name, values));
        metrics.push(Metric {
            name,
            unit,
            value,
            summary: Some(summary),
        });
    }
    (metrics, per_pass_values)
}

/// Runs `opts.workload` and reports it.
///
/// # Errors
///
/// Returns a message when the workload is unknown, when `--bless` is
/// combined with a seed or size the goldens are not kept for, or when the
/// workload needs two host CPUs and the host has one: oversubscribed
/// numbers would read as a regression that is not there, so none are
/// reported.
pub fn run(opts: &Opts) -> Result<Report, String> {
    if opts.bless && (opts.seed != DEFAULT_SEED || opts.smoke) {
        return Err("--bless writes the golden of the default seed at full size only".into());
    }
    let mut bench = build(opts)?;
    if opts.workload.starts_with("native_") && host_cpus() < 2 {
        return Err(format!(
            "{} is unresolved on this host: it runs 2 threads and host_cpus = {}",
            opts.workload,
            host_cpus()
        ));
    }
    let is_sim = opts.workload.starts_with("sim_");

    let mut tr = Tracer::new(opts.trace);
    let root = tr.open(opts.workload.as_str(), None);
    let warm = tr.open("warmup_pass", Some(root));
    let warm_sample = bench.pass(&mut tr, warm, false, false);
    tr.close(warm);

    // A traced run splits its budget: untraced passes first (the basis
    // of the overhead figure), traced passes after.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let cpu_before = cpu_ticks();
    let untraced = timed_passes(bench.as_mut(), &mut tr, root, false, budget);
    let traced = if opts.trace {
        timed_passes(bench.as_mut(), &mut tr, root, true, budget)
    } else {
        Vec::new()
    };
    let cpu_after = cpu_ticks();

    let single_client = if opts.trace {
        bench.single_client_passes(&mut tr, root)
    } else {
        Vec::new()
    };

    let all = || {
        std::iter::once(&warm_sample)
            .chain(&untraced)
            .chain(&traced)
            .chain(&single_client)
    };
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let failed: u64 = all().map(|s| s.failed).sum();

    let mut per_pass_values = Vec::new();
    let metrics = if opts.trace {
        let mut layers = Layers::default();
        bench.layers(&mut layers);
        let probes = tr.open("probes", Some(root));
        crate::probes::run_all(&mut layers, opts.smoke);
        tr.close(probes);
        tr.close(root);
        layers.set("failed_share", failed as f64 / attempted.max(1) as f64);
        if is_sim {
            let (user, sys) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
            layers.set(
                "sim.machine.sys_share",
                sys as f64 / (user + sys).max(1) as f64,
            );
        }
        pass_layers(&mut layers, &tr, &untraced, &traced, is_sim);
        if !single_client.is_empty() {
            let rate = |s: &PassSample| s.ops as f64 / s.wall_s;
            layers.set(
                "native.exec.scaling_2_over_1",
                per_pass(&untraced, rate).median / per_pass(&single_client, rate).median,
            );
        }

        let out = opts.home.join("out");
        let path = out.join(format!("trace-{}.json", opts.workload));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(tr.spans()).to_string()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layers.get(name),
                summary: None,
            })
            .collect()
    } else {
        let (metrics, values) = end_to_end_metrics(&untraced, bench.estimator());
        per_pass_values = values;
        metrics
    };

    if opts.bless {
        if let Some(doc) = bench.golden() {
            let path = opts
                .home
                .join("golden")
                .join(format!("{}.json", opts.workload));
            std::fs::write(&path, doc.pretty())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("blessed {}", path.display());
        }
    }

    Ok(Report {
        workload: opts.workload.clone(),
        trace: opts.trace,
        attempted,
        failed,
        metrics,
        passes: untraced.len(),
        per_pass: per_pass_values,
        sizes: bench.sizes(),
        failures: bench.failures().to_vec(),
    })
}
