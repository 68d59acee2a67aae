//! Soundness and determinism of the exploration engine.
//!
//! Three properties over random small systems (see `docs/EXPLORATION.md`
//! for the contracts they enforce):
//!
//! 1. **Prune soundness** — a candidate rejected by a necessary test
//!    must be confirmed infeasible by the full analysis. The tests are
//!    built from optimistic lowerings, so a rejection is a proof, never
//!    a heuristic; a pruned-but-actually-feasible candidate would mean
//!    the search silently discards real solutions.
//! 2. **Feasible-set agreement** — running the same problem with
//!    pruning on and off must yield the identical candidate list, the
//!    identical feasible set with identical objective scores, and the
//!    identical best pick.
//! 3. **Thread invariance** — the same seed must produce bit-identical
//!    reports, visit order, best/default indices, and recorder counter
//!    totals for 1, 2, 4, and 8 threads of candidate fan-out.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModelExt, StandardEventModel};
use hem_obs::MemoryRecorder;
use hem_system::explore::{
    explore, ExploreOutcome, ExploreProblem, PackingSpace, PeriodChoice, PeriodSite, PrioritySpace,
    Verdict,
};
use hem_system::{
    ActivationSpec, AnalysisMode, FrameSpec, SignalSpec, SystemConfig, SystemSpec, TaskSpec,
};
use hem_time::Time;

/// Tiny deterministic generator: the proptest case hands us a seed,
/// this xorshift expands it into a concrete exploration problem.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = x;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Builds a random exploration problem over one CPU and one CAN bus:
/// 2–3 external periodic signals packed into one base frame with
/// receiver tasks (some deadline-constrained), one externally
/// activated load task whose period axis includes an overloaded
/// alternative (so the utilization necessary test always has
/// something real to prune), a full partition packing axis, and a
/// small priority space with seeded shuffles.
fn build_problem(seed: u64) -> ExploreProblem {
    let mut rng = Rng(seed);
    let mut spec = SystemSpec::new()
        .cpu("cpu1")
        .bus("can", CanBusConfig::new(Time::new(1)));

    let n_signals = 2 + rng.pick(2) as usize;
    let mut signals = Vec::new();
    let mut sources = Vec::new();
    for s in 0..n_signals {
        let period = Time::new(2_000 + 500 * rng.pick(4) as i64);
        signals.push(SignalSpec {
            name: format!("s{s}"),
            // s0 stays triggering so every packing keeps at least one
            // sendable group reachable; the rest may be pending.
            transfer: if s > 0 && rng.pick(3) == 0 {
                TransferProperty::Pending
            } else {
                TransferProperty::Triggering
            },
            source: ActivationSpec::External(
                StandardEventModel::periodic(period)
                    .expect("positive period")
                    .shared(),
            ),
        });
        sources.push(period);
    }
    spec = spec.frame(FrameSpec {
        name: "F0".into(),
        bus: "can".into(),
        frame_type: FrameType::Direct,
        payload_bytes: n_signals as u8,
        format: FrameFormat::Standard,
        priority: Priority::new(1),
        signals,
    });

    let mut deadlines = BTreeMap::new();
    for (s, period) in sources.iter().enumerate() {
        let name = format!("rx{s}");
        let wcet = Time::new(150 + rng.pick(350) as i64);
        spec = spec.task(TaskSpec {
            name: name.clone(),
            cpu: "cpu1".into(),
            bcet: wcet,
            wcet,
            priority: Priority::new(s as u32 + 1),
            activation: ActivationSpec::Signal {
                frame: "F0".into(),
                signal: format!("s{s}"),
            },
        });
        if rng.pick(2) == 0 {
            deadlines.insert(name, *period);
        }
    }
    let load_wcet = Time::new(200 + rng.pick(200) as i64);
    spec = spec.task(TaskSpec {
        name: "load".into(),
        cpu: "cpu1".into(),
        bcet: load_wcet,
        wcet: load_wcet,
        priority: Priority::new(n_signals as u32 + 1),
        activation: ActivationSpec::External(
            StandardEventModel::periodic(Time::new(2_000))
                .expect("positive period")
                .shared(),
        ),
    });

    let mut problem = ExploreProblem::new(spec);
    problem.deadlines = deadlines;
    problem.packing = PackingSpace::Partitions {
        bus: "can".into(),
        widths: None,
    };
    problem.priorities = PrioritySpace {
        max_orders_per_resource: 2,
        opa_seed: true,
        dm_seed: true,
        random_orders: 1,
    };
    // The 50-tick alternative pushes CPU utilization past 4: every
    // candidate choosing it must be rejected by the utilization bound.
    problem.period_choices = vec![PeriodChoice {
        site: PeriodSite::Task("load".into()),
        periods: vec![Time::new(2_000), Time::new(50)],
    }];
    problem.seed = seed;
    problem.max_candidates = 256;
    problem
}

fn run(problem: &ExploreProblem, threads: usize) -> (ExploreOutcome, hem_obs::MetricsSnapshot) {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(AnalysisMode::Hierarchical)
        .with_recorder(handle)
        .with_threads(threads);
    let outcome = explore(problem, &config).expect("generated systems validate");
    (outcome, recorder.snapshot())
}

/// Everything an exploration run promises to keep deterministic,
/// rendered into one comparable string (wall-clock never appears in
/// an [`ExploreOutcome`], so the whole thing qualifies).
fn fingerprint(outcome: &ExploreOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for report in &outcome.reports {
        let _ = writeln!(
            out,
            "{:?} {:?} {:?} {} {:?} {:?}",
            report.config,
            report.verdict,
            report.worst_task_response,
            report.warm,
            report.cone_fraction.map(f64::to_bits),
            report.response_times,
        );
    }
    let _ = writeln!(
        out,
        "best={:?} default={:?} visited={} pruned={} feasible={} warm_hits={} cone={}",
        outcome.best,
        outcome.default_index,
        outcome.visited,
        outcome.pruned,
        outcome.feasible,
        outcome.warm_hits,
        outcome.mean_cone_fraction.to_bits(),
    );
    out
}

/// Properties 1 and 2: compare a pruning run against the exhaustive
/// run of the same problem.
fn check_prune_soundness(problem: &ExploreProblem) {
    let mut pruning = problem.clone();
    pruning.use_necessary_tests = true;
    let mut exhaustive = problem.clone();
    exhaustive.use_necessary_tests = false;
    let (pruned_run, _) = run(&pruning, 1);
    let (full_run, _) = run(&exhaustive, 1);

    assert_eq!(
        pruned_run.visited, full_run.visited,
        "pruning must not change the candidate enumeration"
    );
    assert!(
        pruned_run.pruned > 0,
        "the overloaded period alternative must trip the utilization bound"
    );
    assert_eq!(full_run.pruned, 0, "exhaustive run must analyze everything");

    for (i, (p, f)) in pruned_run.reports.iter().zip(&full_run.reports).enumerate() {
        assert_eq!(
            format!("{:?}", p.config),
            format!("{:?}", f.config),
            "candidate {i}: enumeration order must be identical"
        );
        match (&p.verdict, &f.verdict) {
            // Property 1: a rejection by a necessary test is a proof.
            (Verdict::Pruned(test), full) => {
                assert!(
                    matches!(full, Verdict::Infeasible { .. }),
                    "candidate {i} ({:?}): pruned by `{test}` but the full \
                     analysis says {full:?} — the necessary test is unsound",
                    p.config
                );
            }
            // Property 2: un-pruned candidates get the same verdict.
            (a, b) => assert_eq!(a, b, "candidate {i}: verdicts diverge"),
        }
    }
    assert_eq!(
        pruned_run.feasible, full_run.feasible,
        "pruning must not change the feasible count"
    );
    assert_eq!(
        pruned_run.best, full_run.best,
        "pruning must not change the best pick"
    );
}

/// Property 3: identical outcome and counters for every thread count.
fn check_thread_invariance(problem: &ExploreProblem) {
    let (reference, ref_metrics) = run(problem, 1);
    let ref_print = fingerprint(&reference);
    for threads in [2, 4, 8] {
        let (candidate, metrics) = run(problem, threads);
        assert_eq!(
            ref_print,
            fingerprint(&candidate),
            "{threads} threads: exploration outcome differs"
        );
        assert_eq!(
            ref_metrics.counters, metrics.counters,
            "{threads} threads: counter totals differ"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn necessary_tests_only_reject_infeasible_candidates(seed in 0u64..1 << 48) {
        check_prune_soundness(&build_problem(seed));
    }

    #[test]
    fn exploration_is_thread_count_invariant(seed in 0u64..1 << 48) {
        check_thread_invariance(&build_problem(seed));
    }
}

/// The concrete anchor behind the random sweep: the default problem of
/// [`ExploreProblem::new`] over the base spec — a single candidate —
/// behaves identically under both properties.
#[test]
fn the_degenerate_single_candidate_problem_holds_both_properties() {
    let problem = build_problem(0);
    let mut fixed = problem.clone();
    fixed.packing = PackingSpace::Fixed;
    fixed.priorities = PrioritySpace::declared_only();
    fixed.period_choices.clear();
    let (outcome, _) = run(&fixed, 1);
    assert_eq!(outcome.visited, 1);
    assert_eq!(outcome.default_index, Some(0));
    check_prune_soundness(&problem);
    check_thread_invariance(&problem);
}
