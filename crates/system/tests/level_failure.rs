//! What a run records when an entity of a level fails.
//!
//! The engine analyses a level in canonical order (frames of each bus,
//! then tasks of each CPU) and does not cut the level short on a
//! failure: every entity of the level still runs, and then the first
//! failure in canonical order is reported. These tests pin that
//! contract with fixed values — stop reason, failed entity, suspected
//! bottleneck, and the recorder's counter totals — so a change that
//! skipped the rest of a failing level would show up as smaller
//! `busy_window_iterations` totals and missing per-entity labels.
//!
//! The values hold on both curve paths (`HEM_ANALYTIC` on and off) and
//! for every `threads` setting.

use std::collections::BTreeMap;

use hem_analysis::AnalysisError;
use hem_obs::{Counter, MemoryRecorder, MetricsSnapshot};
use hem_system::dsl::parse_scenario;
use hem_system::{
    analyze, analyze_incremental, AnalysisMode, ConvergenceStatus, RobustAnalysis, StopReason,
    SystemConfig, SystemError, SystemSpec,
};
use hem_time::Time;

/// Two CPUs in the same propagation level (both are activated through
/// frame `F1`, so both sit one level below the bus). `cpu_a` is
/// overloaded — `h1` alone takes 60% and `h2` another 50% — so `h2`'s
/// busy window cannot converge; `cpu_b` is lightly loaded.
const TWO_CPUS: &str = "\
cpu cpu_a
cpu cpu_b
bus can bit_time=1

frame F1 bus=can type=direct payload=2 prio=1
  signal s1 triggering periodic:10000
  signal s2 triggering periodic:1000

task h1 cpu=cpu_a cet=600 prio=1 activation=periodic:1000
task h2 cpu=cpu_a cet=500 prio=2 activation=F1/s2
task c1 cpu=cpu_b cet=100 prio=1 activation=F1/s1
task c2 cpu=cpu_b cet=200 prio=2 activation=F1/s2
";

/// Two buses in the same level (both carry external signals only):
/// `bus_a` is overloaded by two 8-byte frames every 100 ticks,
/// `bus_b` is lightly loaded, and a task reads from each.
const TWO_BUSES: &str = "\
cpu cpu1
bus bus_a bit_time=1
bus bus_b bit_time=1

frame A1 bus=bus_a type=direct payload=8 prio=1
  signal x triggering periodic:100
frame A2 bus=bus_a type=direct payload=8 prio=2
  signal y triggering periodic:100
frame B1 bus=bus_b type=direct payload=2 prio=1
  signal z triggering periodic:5000

task ta cpu=cpu1 cet=10 prio=1 activation=A2/y
task tb cpu=cpu1 cet=10 prio=2 activation=B1/z
";

fn spec(text: &str) -> SystemSpec {
    parse_scenario(text).expect("scenario parses").to_spec()
}

fn config(threads: usize) -> (std::sync::Arc<MemoryRecorder>, SystemConfig) {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(AnalysisMode::Hierarchical)
        .with_recorder(handle)
        .with_threads(threads);
    (recorder, config)
}

fn run(text: &str, threads: usize) -> (RobustAnalysis, MetricsSnapshot) {
    let (recorder, config) = config(threads);
    let robust = hem_system::analyze_robust(&spec(text), &config).expect("no spec error");
    (robust, recorder.snapshot())
}

/// The failed entity and the task named by its `NoConvergence` error.
fn failure(robust: &RobustAnalysis) -> (&str, &str) {
    match &robust.diagnostics.stop {
        StopReason::LocalAnalysisFailed {
            entity,
            error: AnalysisError::NoConvergence { task, .. },
        } => (entity, task),
        other => panic!("expected a non-converging local analysis, got {other:?}"),
    }
}

fn busy_window_labels(snap: &MetricsSnapshot) -> BTreeMap<&str, u64> {
    snap.labeled
        .iter()
        .filter(|((counter, _), _)| *counter == Counter::BusyWindowIterations.name())
        .map(|((_, label), value)| (label.as_str(), *value))
        .collect()
}

#[test]
fn failing_cpu_does_not_cut_its_level_short() {
    for threads in [1, 4] {
        let (robust, snap) = run(TWO_CPUS, threads);
        let diagnostics = &robust.diagnostics;
        assert_eq!(failure(&robust), ("task:h2", "h2"));
        assert_eq!(diagnostics.iterations, 0, "fails in the first iteration");
        assert_eq!(
            diagnostics.suspected_bottleneck.as_deref(),
            Some("cpu:cpu_a")
        );
        assert!(diagnostics.trace.is_empty());
        assert!(!robust.results.is_complete());
        assert_eq!(
            robust.results.task_convergence("h2"),
            Some(ConvergenceStatus::Failed)
        );

        // `c1` and `c2` on the schedulable CPU ran after `h2` failed.
        assert_eq!(snap.counter(Counter::BusyWindowIterations), 136_420);
        assert_eq!(snap.counter(Counter::PackingOps), 1);
        assert_eq!(snap.counter(Counter::GlobalIterations), 0);
        assert_eq!(
            busy_window_labels(&snap),
            BTreeMap::from([("F1", 2), ("c1", 1), ("c2", 2), ("h1", 1), ("h2", 136_414)]),
            "{threads} threads"
        );
    }
}

#[test]
fn failing_bus_does_not_cut_its_level_short() {
    let (robust, snap) = run(TWO_BUSES, 1);
    assert_eq!(failure(&robust), ("frame:A1", "A1"));
    assert_eq!(robust.diagnostics.iterations, 0);
    assert_eq!(
        robust.diagnostics.suspected_bottleneck.as_deref(),
        Some("bus:bus_a")
    );
    // `A2` on the same bus and `B1` on the other bus still ran; the
    // CPU level below never started.
    assert_eq!(snap.counter(Counter::BusyWindowIterations), 74_112);
    assert_eq!(snap.counter(Counter::PackingOps), 3);
    assert_eq!(
        busy_window_labels(&snap),
        BTreeMap::from([("A1", 74_075), ("A2", 36), ("B1", 1)])
    );
}

#[test]
fn the_first_failure_in_canonical_order_is_reported() {
    // Overloaded on its own, `cpu_b` fails at `c2`.
    let only_b = TWO_CPUS
        .replace("cet=200", "cet=1200")
        .replace("cet=500", "cet=50");
    let (robust, _) = run(&only_b, 1);
    assert_eq!(failure(&robust), ("task:c2", "c2"));

    // Overload both CPUs: `cpu_a` — first in the level — is the one
    // reported, while `c2` on `cpu_b` still ran to its own abort.
    let both = TWO_CPUS.replace("cet=200", "cet=1200");
    let (robust, snap) = run(&both, 1);
    assert_eq!(failure(&robust), ("task:h2", "h2"));
    assert_eq!(
        robust.diagnostics.suspected_bottleneck.as_deref(),
        Some("cpu:cpu_a")
    );
    let labels = busy_window_labels(&snap);
    assert_eq!(labels["h2"], 136_414);
    assert_eq!(labels["c2"], 24_705);
    assert_eq!(snap.counter(Counter::BusyWindowIterations), 161_123);
}

#[test]
fn analyze_reports_the_failure_as_an_error() {
    let (_recorder, config) = config(1);
    match analyze(&spec(TWO_CPUS), &config) {
        Err(SystemError::Analysis(AnalysisError::NoConvergence { task, .. })) => {
            assert_eq!(task, "h2");
        }
        other => panic!("expected a local analysis error, got {other:?}"),
    }
}

#[test]
fn a_warm_started_run_replays_clean_resources_of_a_failing_level() {
    // Converge a schedulable variant, then overload `cpu_a` alone: the
    // bus and `cpu_b` are outside the damage cone and replay their
    // recorded results while `h2` fails in the same level.
    let base = spec(&TWO_CPUS.replace("cet=500", "cet=200"));
    let (_recorder, cold_config) = config(1);
    let cold = analyze_incremental(&base, &cold_config, None).expect("no spec error");
    assert!(cold.analysis.results.is_complete());
    let snapshot = cold.snapshot.expect("converged runs snapshot");

    let mut overloaded = base.clone();
    let h2 = overloaded
        .tasks
        .iter_mut()
        .find(|t| t.name == "h2")
        .expect("h2 exists");
    h2.wcet = Time::new(500);
    h2.bcet = Time::new(500);
    let (recorder, warm_config) = config(1);
    let warm =
        analyze_incremental(&overloaded, &warm_config, Some(&snapshot)).expect("no spec error");
    let snap = recorder.snapshot();
    assert_eq!(failure(&warm.analysis), ("task:h2", "h2"));
    assert!(warm.reuse.warm);
    assert_eq!(warm.reuse.dirty_resources, vec!["cpu:cpu_a".to_string()]);
    // `F1`, `c1` and `c2` replayed; only `cpu_a`'s tasks ran.
    assert_eq!(snap.counter(Counter::WarmStartHits), 3);
    assert_eq!(snap.counter(Counter::BusyWindowIterations), 136_415);
    assert_eq!(
        busy_window_labels(&snap),
        BTreeMap::from([("h1", 1), ("h2", 136_414)])
    );
}
