//! Minimal vendored stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the benchmarking surface it uses: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`] / `bench_function`,
//! [`Bencher::iter`], [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurements are wall-clock medians over `sample_size` samples, each
//! sample timing an auto-calibrated batch of iterations. Results print to
//! stdout; when the `NETDECOMP_BENCH_JSON` environment variable names a
//! file, a JSON array of `{group, bench, median_ns, mean_ns, samples,
//! iters_per_sample}` records is also written so runs can be checked in as
//! artifacts. Benchmarks may additionally report non-timing work counters
//! through [`BenchmarkGroup::report_metric`]; these land in the same
//! array as `{group, bench, metric, value}` rows, so measured claims
//! (e.g. "header work is O(messages)") are visible in the checked-in
//! JSON next to the timings they explain. The JSON header records the
//! box's `available_parallelism`, and `NETDECOMP_BENCH_NOTE` (if set) is
//! copied into a `note` field — use it to flag runs whose environment
//! limits what they can show (e.g. a single-CPU container that can only
//! measure overhead, not speedup).
//!
//! As in the real harness, `--test` on the command line (`cargo bench --
//! --test`) runs every benchmark body once, untimed, and records and
//! writes nothing: a check that the benchmarks still run, cheap enough
//! for every CI run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::Instant;

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    bench: String,
    kind: RecordKind,
}

/// What a record measured: wall-clock time or a reported work counter.
#[derive(Debug, Clone)]
enum RecordKind {
    Timing {
        median_ns: f64,
        mean_ns: f64,
        samples: usize,
        iters_per_sample: u64,
    },
    Metric {
        metric: String,
        value: f64,
    },
}

/// The top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<Record>,
    /// Run each benchmark body once, untimed (`--test`).
    test_mode: bool,
}

impl Criterion {
    /// Applies the command line, as the real harness's
    /// `configure_from_args` does: `--test` switches to test mode, where
    /// each benchmark body runs once, untimed.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().skip(1).any(|arg| arg == "--test");
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) {
        let mut group = self.benchmark_group("");
        group.bench_function(id, f);
        group.finish();
    }

    fn flush(&self) {
        if self.test_mode {
            return;
        }
        let Ok(path) = std::env::var("NETDECOMP_BENCH_JSON") else {
            return;
        };
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut out = format!("{{\n  \"available_parallelism\": {threads},\n");
        if let Ok(note) = std::env::var("NETDECOMP_BENCH_NOTE") {
            // Keep the writer dependency-free: drop the characters that
            // would need escaping inside a JSON string literal.
            let escaped: String = note
                .chars()
                .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
                .collect();
            out.push_str(&format!("  \"note\": \"{escaped}\",\n"));
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            match &r.kind {
                RecordKind::Timing {
                    median_ns,
                    mean_ns,
                    samples,
                    iters_per_sample,
                } => out.push_str(&format!(
                    "    {{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{median_ns:.0},\"mean_ns\":{mean_ns:.0},\"samples\":{samples},\"iters_per_sample\":{iters_per_sample}}}",
                    r.group, r.bench
                )),
                RecordKind::Metric { metric, value } => out.push_str(&format!(
                    "    {{\"group\":\"{}\",\"bench\":\"{}\",\"metric\":\"{metric}\",\"value\":{value:.0}}}",
                    r.group, r.bench
                )),
            }
        }
        out.push_str("\n  ]\n}\n");
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("criterion shim: cannot write {path}: {e}");
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A named benchmark id, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id labeled `name/parameter`.
    #[must_use]
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// An id from a parameter alone.
    #[must_use]
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// A group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: impl Display, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id, |b| f(b, input));
    }

    /// Benchmarks `f` without input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, mut f: F) {
        self.run(id, |b| f(b));
    }

    /// Reports a non-timing work counter (e.g. items scanned per
    /// iteration) as its own result row; `metric` names what `value`
    /// counts. Test mode records none.
    pub fn report_metric(&mut self, id: impl Display, metric: &str, value: f64) {
        if self.criterion.test_mode {
            return;
        }
        let label = id.to_string();
        println!(
            "{:<40} {metric} {value:.0}",
            format!("{}/{}", self.name, label)
        );
        self.criterion.records.push(Record {
            group: self.name.clone(),
            bench: label,
            kind: RecordKind::Metric {
                metric: metric.to_string(),
                value,
            },
        });
    }

    fn run(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let test_mode = self.criterion.test_mode;
        let mut bencher = Bencher {
            samples: Vec::new(),
            iters: 1,
            calibrated: false,
            sample_size: self.sample_size,
            test_mode,
        };
        f(&mut bencher);
        let label = id.to_string();
        if test_mode {
            println!("Testing {}/{label}: Success", self.name);
            return;
        }
        let mut ns: Vec<f64> = bencher.samples.clone();
        if ns.is_empty() {
            return;
        }
        ns.sort_by(f64::total_cmp);
        let median = ns[ns.len() / 2];
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        println!(
            "{:<40} median {:>12.1} ns/iter  mean {:>12.1} ns/iter  ({} samples x {} iters)",
            format!("{}/{}", self.name, label),
            median,
            mean,
            ns.len(),
            bencher.iters
        );
        self.criterion.records.push(Record {
            group: self.name.clone(),
            bench: label,
            kind: RecordKind::Timing {
                median_ns: median,
                mean_ns: mean,
                samples: ns.len(),
                iters_per_sample: bencher.iters,
            },
        });
    }

    /// Ends the group (stdout spacing only).
    pub fn finish(&mut self) {
        println!();
    }
}

/// Times closures handed to it by a benchmark body.
#[derive(Debug)]
pub struct Bencher {
    /// Per-sample nanoseconds per iteration.
    samples: Vec<f64>,
    iters: u64,
    calibrated: bool,
    sample_size: usize,
    /// Run `f` once, untimed.
    test_mode: bool,
}

impl Bencher {
    /// Runs and times `f`, recording `sample_size` samples (in test mode,
    /// runs it once and records nothing).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        if !self.calibrated {
            // Calibrate the batch size so one sample takes >= ~5 ms,
            // bounding total time while keeping timer noise negligible.
            let start = Instant::now();
            black_box(f());
            let one = start.elapsed().as_nanos().max(1);
            self.iters = ((5_000_000 / one) as u64).clamp(1, 1_000_000);
            self.calibrated = true;
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..self.iters {
                black_box(f());
            }
            let total = start.elapsed().as_nanos() as f64;
            self.samples.push(total / self.iters as f64);
        }
    }
}

/// Declares a benchmark entry function running the given benchmarks.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench_fn:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($bench_fn(&mut criterion);)+
        }
    };
}

/// Declares `main` for a benchmark binary.
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
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("demo");
            g.sample_size(3);
            g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
            g.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            g.report_metric("noop/work", "items_per_iter", 42.0);
            g.finish();
        }
        assert_eq!(c.records.len(), 3);
        assert!(c.records.iter().all(|r| match &r.kind {
            RecordKind::Timing { median_ns, .. } => *median_ns >= 0.0,
            RecordKind::Metric { value, .. } => *value >= 0.0,
        }));
        assert_eq!(c.records[1].bench, "sum/10");
        assert!(matches!(
            &c.records[2].kind,
            RecordKind::Metric { metric, value: v } if metric == "items_per_iter" && *v == 42.0
        ));
    }

    #[test]
    fn test_mode_runs_each_body_once_and_records_nothing() {
        let mut c = Criterion::default();
        c.test_mode = true;
        let mut runs = 0;
        {
            let mut g = c.benchmark_group("demo");
            g.sample_size(5);
            g.bench_function("count", |b| b.iter(|| runs += 1));
            g.report_metric("count", "items_per_iter", 1.0);
            g.finish();
        }
        assert_eq!(runs, 1);
        assert!(c.records.is_empty());
    }
}
