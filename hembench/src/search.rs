//! `explore_search`: a seeded stream of design-space searches over the
//! tight 10x Fig. 2 family, each built from DSL text and run through
//! `explore` at one engine thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hem_obs::MemoryRecorder;
use hem_system::dsl;
use hem_system::explore::{explore, ExploreProblem, PeriodChoice, PeriodSite};
use hem_time::Time;

use crate::calib::HostSpeed;
use crate::gen::{self, Search, PERIOD_SETS};
use crate::oracle::{self, SearchSummary};
use crate::stats::{Samples, Tally};
use crate::trace::Spans;
use crate::{Args, Metrics, Outcome, SETUP_REPEATS};

/// Searches run per set-up repetition: every period-choice set four
/// times, about 0.6 s.
const WARMUP_SEARCHES: u64 = 4 * PERIOD_SETS.len() as u64;

/// The tail percentile reported for this workload.
pub const TAIL: f64 = 90.0;

fn site(label: &str) -> PeriodSite {
    match label.strip_prefix("task:") {
        Some(task) => PeriodSite::Task(task.to_string()),
        None => {
            let (frame, signal) = label.split_once('/').expect("site labels are frame/signal");
            PeriodSite::Signal {
                frame: frame.to_string(),
                signal: signal.to_string(),
            }
        }
    }
}

/// Builds the exploration problem of a search from its DSL text: the
/// `run_scenario explore` derivation plus the search's period choices.
///
/// # Panics
///
/// If the generated text does not parse (a generator bug).
#[must_use]
pub fn problem(search: &Search) -> ExploreProblem {
    let scenario = dsl::parse_scenario(gen::TIGHT10X).expect("generated searches parse");
    let mut problem = ExploreProblem::from_scenario(&scenario, search.shuffle_seed);
    problem.period_choices = PERIOD_SETS[search.set]
        .iter()
        .map(|(label, periods)| PeriodChoice {
            site: site(label),
            periods: periods.iter().map(|&p| Time::new(p)).collect(),
        })
        .collect();
    problem
}

/// Prints the committed reference table (every set and shuffle seed).
pub fn print_refs() {
    println!("# set shuffle_seed visited pruned feasible best_digest");
    for set in 0..PERIOD_SETS.len() {
        for shuffle_seed in 0..gen::SHUFFLE_SEEDS {
            let search = Search { set, shuffle_seed };
            let outcome = explore(&problem(&search), &oracle::shipped_config()).expect("explores");
            let summary = SearchSummary::of(&outcome).expect("default infeasible, feasible found");
            println!("{}", summary.line(set, shuffle_seed));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let config = oracle::shipped_config();
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let ((), secs) = host.time_s(|| {
            for i in 0..WARMUP_SEARCHES {
                let search = gen::search(!args.seed, i + rep * WARMUP_SEARCHES);
                let _ = std::hint::black_box(explore(&problem(&search), &config));
            }
        });
        setups.push(secs);
    }

    let spans = Arc::new(Spans::default());
    let (recorder, handle) = MemoryRecorder::metrics_only_handle();
    let traced_config = config.clone().with_recorder(handle);
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let mut found = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut index = 0u64;
    while Instant::now() < deadline {
        let search = gen::search(args.seed, index);
        // In the traced run whole cycles of sets alternate, so both
        // halves see the same mix of search sizes.
        let trace = args.trace && (index / PERIOD_SETS.len() as u64) % 2 == 1;
        let t0 = Instant::now();
        let problem = std::hint::black_box(problem(&search));
        let t1 = Instant::now();
        let outcome = explore(&problem, if trace { &traced_config } else { &config });
        let t2 = Instant::now();
        let phase = if trace { &mut traced } else { &mut plain };
        let f = host.factor();
        phase.build.push(f * ms(t0, t1));
        phase.explore.push(f * ms(t1, t2));
        phase.total.push(f * ms(t0, t2));
        host.tick();
        let summary = outcome.as_ref().ok().and_then(SearchSummary::of);
        if trace {
            let root = spans.reserve();
            spans.record("dsl.parse_scenario+problem", root, index, t0, t1);
            spans.record("explore", root, index, t1, t2);
            spans.record_as(root, "search", 0, index, t0, t2);
            if let Ok(o) = &outcome {
                traced.visited += o.visited;
                traced.pruned += o.pruned;
                traced.warm_hits += o.warm_hits;
                let analyzed = o
                    .reports
                    .iter()
                    .filter(|r| r.cone_fraction.is_some())
                    .count() as u64;
                traced.analyzed += analyzed;
                traced.cone_sum += o.mean_cone_fraction * analyzed as f64;
            }
        }
        found.push((search, summary));
        index += 1;
    }

    // Oracle, outside the timed region.
    let refs = oracle::parse_search_refs(oracle::SEARCH_REFS);
    let mut tally = Tally::default();
    for (search, summary) in &found {
        let ok = oracle::search_ok(&refs, search.set, search.shuffle_seed, summary.as_ref());
        if !ok {
            eprintln!("explore_search: wrong answer for {search:?}: {summary:?}");
        }
        tally.record(ok);
    }

    let mut m = Metrics::default();
    if args.trace {
        let counts = recorder.snapshot();
        let n = traced.total.len() as f64;
        let visited = traced.visited as f64;
        let explore_ms = traced.explore.sum();
        m.set("dsl.parse_ms", traced.build.p50());
        m.set(
            "dsl.share_pct",
            100.0 * traced.build.sum() / traced.total.sum(),
        );
        m.set("engine.analyze_ms", explore_ms / visited);
        m.engine_counters(&counts, visited);
        m.set("explore.configs_per_search", visited / n);
        m.set("explore.configs_per_s", visited / (explore_ms / 1e3));
        m.set("explore.pruned_pct", 100.0 * traced.pruned as f64 / visited);
        m.set(
            "explore.warm_hit_pct",
            100.0 * traced.warm_hits as f64 / traced.analyzed as f64,
        );
        m.set(
            "explore.mean_cone_fraction",
            traced.cone_sum / traced.analyzed as f64,
        );
        m.set("explore.configs_visited", visited);
        m.set("explore.configs_pruned", traced.pruned as f64);
        m.set("explore.configs_analyzed", traced.analyzed as f64);
        m.set("explore.warm_hits", traced.warm_hits as f64);
        m.trace_overhead(&plain.total, &traced.total, spans.len());
        args.write_spans(&spans);
    } else {
        m.end_to_end(&host, &setups, plain.total.rate_per_s(), &plain.total, TAIL);
        m.op_split(&plain.build, &plain.explore, TAIL);
    }
    Outcome { tally, metrics: m }
}

#[derive(Default)]
struct Phase {
    build: Samples,
    explore: Samples,
    total: Samples,
    visited: u64,
    pruned: u64,
    warm_hits: u64,
    analyzed: u64,
    cone_sum: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}
