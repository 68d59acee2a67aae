//! End-to-end benchmark of the HEM analysis system.
//!
//! ```text
//! hembench --workload <analyze_cold|whatif_tcp|explore_search>
//!          --seed <n> --seconds <n> --trace <0|1>
//! hembench refs <analyze_cold|explore_search>
//! ```
//!
//! A run makes its inputs from the seed, measures for the given number
//! of seconds, checks every answer, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer split instead. `refs` prints a committed reference table.
//! See `README.md` beside this package for workloads and metrics.

mod calib;
mod cold;
mod gen;
mod oracle;
mod search;
mod stats;
mod trace;
mod whatif;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use hem_obs::{Counter, MetricsSnapshot};

use crate::calib::HostSpeed;
use crate::stats::{Samples, Tally};
use crate::trace::Spans;

/// How often `analyze_cold` and `explore_search` set up before their
/// timed region; `setup_s` is the median. (`whatif_tcp`, whose set-up
/// is far shorter, sets up more often.)
pub const SETUP_REPEATS: u64 = 5;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("mutate_tail_ms", "ms"),
    ("analyze_p50_ms", "ms"),
    ("analyze_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not reach reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("dsl.parse_ms", "ms"),
    ("dsl.share_pct", "%"),
    ("engine.analyze_ms", "ms"),
    ("engine.global_iterations", "count"),
    ("analysis.busy_window_iterations", "count"),
    ("engine.packing_ops", "count"),
    ("engine.curve_evaluations", "count"),
    ("analytic.lift_pct", "%"),
    ("analytic.lifts", "count"),
    ("analytic.fallbacks", "count"),
    ("cache.hit_pct", "%"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("explore.configs_per_search", "count"),
    ("explore.configs_per_s", "1/s"),
    ("explore.pruned_pct", "%"),
    ("explore.warm_hit_pct", "%"),
    ("explore.mean_cone_fraction", "ratio"),
    ("explore.configs_visited", "count"),
    ("explore.configs_pruned", "count"),
    ("explore.configs_analyzed", "count"),
    ("explore.warm_hits", "count"),
    ("net.overhead_mean_ms.mutate", "ms"),
    ("net.overhead_mean_ms.analyze", "ms"),
    ("queue.wait_p50_ms.mutate", "ms"),
    ("queue.wait_p50_ms.analyze", "ms"),
    ("queue.wait_tail_ms.mutate", "ms"),
    ("queue.wait_tail_ms.analyze", "ms"),
    ("queue.wait_mean_ms.mutate", "ms"),
    ("queue.wait_mean_ms.analyze", "ms"),
    ("session.service_p50_ms.mutate", "ms"),
    ("session.service_p50_ms.analyze", "ms"),
    ("session.service_mean_ms.mutate", "ms"),
    ("session.service_mean_ms.analyze", "ms"),
    ("wal.syncs_per_mutate", "ratio"),
    ("wal.sync_p50_ms", "ms"),
    ("wal.sync_busy_pct", "%"),
    ("wal.bytes_per_mutate", "B"),
    ("wal.syncs", "count"),
    ("wal.mutates", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.busy_ms", "ms"),
    ("checkpoint.bytes_per_mutate", "B"),
    ("warm.hit_pct", "%"),
    ("warm.cone_fraction", "ratio"),
    ("warm.hits", "count"),
    ("warm.analyzes", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans", "count"),
    ("ops.traced", "count"),
    ("ops.untraced", "count"),
];

/// Command-line arguments of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Where a run keeps its files, relative to the working directory.
pub const OUT_DIR: &str = ".hembench";

impl Args {
    /// Writes the traced run's spans to `.hembench/spans/`.
    pub fn write_spans(&self, spans: &Spans) {
        let path = PathBuf::from(OUT_DIR)
            .join("spans")
            .join(format!("{}-{}.jsonl", self.workload, self.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

/// Metric values by name, plus anything that makes them invalid.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Metrics {
    /// Sets a metric. The name must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.values.insert(name, value);
        } else {
            self.problems.push(format!("{name} is not finite"));
        }
    }

    /// Records a reason the run's metrics cannot be trusted.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    fn tail(&mut self, name: &'static str, samples: &Samples, p: f64) {
        match samples.tail(p) {
            Some(v) => self.set(name, v),
            None => self.problem(format!(
                "{name}: {} samples are too few for p{p} (the tail rule allows {:?})",
                samples.len(),
                stats::highest_tail(samples.len())
            )),
        }
    }

    /// The workload-wide end-to-end metrics.
    pub fn end_to_end(
        &mut self,
        host: &HostSpeed,
        setups_s: &[f64],
        throughput: f64,
        ops: &Samples,
        tail: f64,
    ) {
        eprintln!(
            "reference kernel: median {:.4} ms over {} samples ({} ms is 1 reference ms)",
            host.samples().p50(),
            host.samples().len(),
            calib::REFERENCE_MS
        );
        let mut setups = setups_s.to_vec();
        setups.sort_by(f64::total_cmp);
        self.set("setup_s", stats::median(&setups).unwrap_or(0.0));
        match stats::peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => self.problem("peak RSS unreadable".into()),
        }
        self.set("throughput_per_s", throughput);
        self.set("p50_ms", ops.p50());
        self.tail("tail_ms", ops, tail);
        if let Some((q1, q3)) = ops.quartiles() {
            eprintln!(
                "{} ops, quartiles {q1:.4} / {:.4} / {q3:.4} ms",
                ops.len(),
                ops.p50()
            );
        }
    }

    /// The two operation kinds' medians and tails.
    pub fn op_split(&mut self, mutate: &Samples, analyze: &Samples, tail: f64) {
        self.set("mutate_p50_ms", mutate.p50());
        self.tail("mutate_tail_ms", mutate, tail);
        self.set("analyze_p50_ms", analyze.p50());
        self.tail("analyze_tail_ms", analyze, tail);
    }

    /// The cost of tracing: traced against untraced median latency,
    /// with the operation counts of both halves.
    pub fn trace_overhead(&mut self, plain: &Samples, traced: &Samples, spans: usize) {
        self.set(
            "obs.trace_overhead_pct",
            100.0 * (traced.p50() / plain.p50() - 1.0),
        );
        self.set("obs.spans", spans as f64);
        self.set("ops.traced", traced.len() as f64);
        self.set("ops.untraced", plain.len() as f64);
    }

    /// Engine work counters per operation, and the analytic-lift and
    /// curve-cache ratios with their base counts.
    pub fn engine_counters(&mut self, counts: &MetricsSnapshot, per: f64) {
        let c = |counter| counts.counter(counter) as f64;
        self.set(
            "engine.global_iterations",
            c(Counter::GlobalIterations) / per,
        );
        self.set(
            "analysis.busy_window_iterations",
            c(Counter::BusyWindowIterations) / per,
        );
        self.set("engine.packing_ops", c(Counter::PackingOps) / per);
        self.set(
            "engine.curve_evaluations",
            c(Counter::CurveEvaluations) / per,
        );
        let (lifts, fallbacks) = (c(Counter::AnalyticLifts), c(Counter::AnalyticFallbacks));
        self.set("analytic.lifts", lifts);
        self.set("analytic.fallbacks", fallbacks);
        self.set("analytic.lift_pct", pct(lifts, lifts + fallbacks));
        let (hits, misses) = (c(Counter::CacheHits), c(Counter::CacheMisses));
        self.set("cache.hits", hits);
        self.set("cache.misses", misses);
        self.set("cache.hit_pct", pct(hits, hits + misses));
    }
}

/// `100 * part / whole`, 0 when `whole` is 0 (a ratio with no base).
#[must_use]
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, oracle verdicts included.
    pub tally: Tally,
    /// Metric values.
    pub metrics: Metrics,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hembench --workload <analyze_cold|whatif_tcp|explore_search> --seed <n> --seconds <n> --trace <0|1>\n       hembench refs <analyze_cold|explore_search>"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=120).contains(s))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                });
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

fn print_result(workload: &str, trace: bool, outcome: &Outcome) {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = outcome.metrics.problems.clone();
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match outcome.metrics.values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => {
                problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    for name in outcome.metrics.values.keys() {
        if !declared.iter().any(|(n, _)| n == name) {
            problems.push(format!("{name} is not a declared metric"));
        }
    }
    for p in &problems {
        eprintln!("{workload}: {p}");
    }
    let tally = outcome.tally;
    let correct = tally.attempted > 0 && tally.failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        tally.attempted, tally.failed
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The shipped engine defaults: one thread, analytic curves on.
    std::env::remove_var("HEM_THREADS");
    std::env::remove_var("HEM_ANALYTIC");
    if argv.first().map(String::as_str) == Some("refs") {
        match argv.get(1).map(String::as_str) {
            Some("analyze_cold") => cold::print_refs(),
            Some("explore_search") => search::print_refs(),
            _ => return usage(),
        }
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let outcome = match args.workload.as_str() {
        "analyze_cold" => cold::run(&args),
        "whatif_tcp" => match whatif::run(&args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("whatif_tcp: {e}");
                return ExitCode::FAILURE;
            }
        },
        "explore_search" => search::run(&args),
        _ => return usage(),
    };
    print_result(&args.workload, args.trace, &outcome);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let a = parse_args(&argv(
            "--workload analyze_cold --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 10")).is_none());
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 0 --trace 0")).is_none());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 5 --trace 0")).is_none());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5 --trace 2")).is_none());
    }

    #[test]
    fn metric_names_and_units_fit_the_result_format() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn unmeasured_or_failed_runs_are_not_correct() {
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(0.0, 0.0), 0.0);
        let mut m = Metrics::default();
        m.set("p50_ms", f64::NAN);
        assert_eq!(m.problems.len(), 1);
        let mut few = Samples::default();
        few.push(1.0);
        m.tail("tail_ms", &few, 99.0);
        assert_eq!(m.problems.len(), 2);
    }
}
