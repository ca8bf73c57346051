//! Offline stand-in for `criterion` exposing the subset of its API the
//! repository's benches use: `Criterion::bench_function`,
//! `benchmark_group` (with `sample_size`, `bench_with_input`, `finish`),
//! `BenchmarkId`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple: each benchmark warms up, then
//! times 3 to 11 samples of equal iteration counts within a small
//! wall-clock budget, and prints the median and the minimum time per
//! iteration over the samples. There is no further statistical
//! analysis and no HTML report: the goal is that `cargo bench` compiles,
//! runs, and gives a usable number with no network access.
//!
//! As upstream, the first argument after `--` that is not a flag filters
//! the benchmarks by name: `cargo bench -p bench --bench simulator --
//! stage` runs only those whose `group/id` label contains `stage`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Wall-clock budget spent measuring one benchmark (three
/// single-iteration samples are taken however long they run).
const MEASURE_BUDGET: Duration = Duration::from_millis(200);

/// Samples timed per benchmark whose iterations fit the budget.
const SAMPLES: usize = 11;

/// Samples taken however slow one iteration is.
const MIN_SAMPLES: usize = 3;

/// Top-level benchmark driver (mirrors `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    /// Runs only benchmarks whose label contains this.
    filter: Option<String>,
}

impl Criterion {
    /// Reads a name filter from the command line: the first argument
    /// that is not a flag (`cargo bench` passes `--bench` itself).
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        Criterion {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if self.selects(name) {
            run_one(name, |b| f(b));
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            announced: false,
        }
    }

    fn selects(&self, label: &str) -> bool {
        match &self.filter {
            Some(f) => label.contains(f.as_str()),
            None => true,
        }
    }
}

/// A named set of benchmarks sharing a prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    /// Whether the group's header line is printed (on its first
    /// selected benchmark).
    announced: bool,
}

impl BenchmarkGroup<'_> {
    /// Accepted for upstream compatibility; sampling here is time-based.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        self.run(id, |b| f(b));
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I: IntoBenchmarkId, P: ?Sized, F: FnMut(&mut Bencher, &P)>(
        &mut self,
        id: I,
        input: &P,
        mut f: F,
    ) -> &mut Self {
        self.run(id, |b| f(b, input));
        self
    }

    fn run<I: IntoBenchmarkId>(&mut self, id: I, f: impl FnOnce(&mut Bencher)) {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().0);
        if !self.criterion.selects(&label) {
            return;
        }
        if !self.announced {
            println!("group {}", self.name);
            self.announced = true;
        }
        run_one(&label, f);
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// An id made of a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

/// Conversion accepted by the `bench_*` entry points (strings or ids).
pub trait IntoBenchmarkId {
    /// Converts into a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self.to_string())
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self)
    }
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Per-iteration seconds of each sample, once measured.
    per_iter: Vec<f64>,
    /// Iterations in each sample.
    iters: u64,
}

impl Bencher {
    /// Times repeated executions of `routine`: two warm-up runs, then
    /// samples of equal iteration counts sized from the second.
    // Benchmark harness: wall-clock measurement is the product.
    #[allow(clippy::disallowed_methods)]
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std::hint::black_box(routine()); // primes caches and memos
        let warm = Instant::now();
        std::hint::black_box(routine());
        let once = warm.elapsed().as_secs_f64().max(1e-9);
        let budget = MEASURE_BUDGET.as_secs_f64();
        let samples = ((budget / once) as usize).clamp(MIN_SAMPLES, SAMPLES);
        self.iters = ((budget / samples as f64 / once) as u64).max(1);
        self.per_iter = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..self.iters {
                    std::hint::black_box(routine());
                }
                start.elapsed().as_secs_f64() / self.iters as f64
            })
            .collect();
    }

    fn report(&mut self, label: &str) {
        if self.per_iter.is_empty() {
            println!("  {label}: no measurement");
            return;
        }
        self.per_iter.sort_by(f64::total_cmp);
        let median = self.per_iter[self.per_iter.len() / 2];
        println!(
            "  {label}: {} /iter median, {} min ({} samples x {} iters)",
            format_secs(median),
            format_secs(self.per_iter[0]),
            self.per_iter.len(),
            self.iters
        );
    }
}

fn run_one(label: &str, f: impl FnOnce(&mut Bencher)) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    bencher.report(label);
}

fn format_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} us", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Declares a group function running each listed benchmark target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_surface_runs() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grp");
        g.sample_size(10);
        g.bench_function(BenchmarkId::from_parameter(3), |b| b.iter(|| 2 * 2));
        g.bench_with_input(BenchmarkId::new("param", 7), &7u32, |b, &x| {
            b.iter(|| x * x)
        });
        g.finish();
    }

    #[test]
    fn a_filter_runs_only_the_matching_labels() {
        let mut c = Criterion {
            filter: Some("grp/param".to_string()),
        };
        let mut ran = Vec::new();
        c.bench_function("grp", |_| ran.push("grp"));
        let mut g = c.benchmark_group("grp");
        g.bench_function("other", |_| ran.push("other"));
        g.bench_with_input(BenchmarkId::new("param", 7), &7u32, |_, _| {
            ran.push("param")
        });
        g.finish();
        assert_eq!(ran, ["param"]);
    }

    #[test]
    fn samples_are_equal_sized() {
        let mut b = Bencher::default();
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        assert!((MIN_SAMPLES..=SAMPLES).contains(&b.per_iter.len()));
        assert_eq!(calls, 2 + b.per_iter.len() as u64 * b.iters);
    }
}
