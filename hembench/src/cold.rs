//! `analyze_cold`: a seeded stream of heterogeneous systems, each
//! rendered as DSL text, parsed with `dsl::parse` and analysed cold with
//! `analyze_robust` under the shipped configuration.

use std::time::{Duration, Instant};

use hem_obs::MemoryRecorder;
use hem_system::{analyze_robust, dsl, RobustAnalysis};

use crate::calib::HostSpeed;
use crate::gen::{self, SIZE_CLASSES};
use crate::oracle;
use crate::stats::{Samples, Tally};
use crate::trace::Spans;
use crate::{Args, Metrics, Outcome, SETUP_REPEATS};

/// Systems analysed per set-up repetition (about 0.6 s: the host's
/// speed swings on a scale of seconds, so shorter set-ups scatter).
const WARMUP_SYSTEMS: u64 = 600;

/// Every `CHECK_EVERY`-th system is re-analysed on the generic curve
/// path after the timed region and must agree bit for bit. Coprime with
/// the number of size classes, so the checked systems fall in every
/// class in turn.
const CHECK_EVERY: u64 = 15;

fn generic_path_checked(index: u64) -> bool {
    index % CHECK_EVERY == 0
}

/// The tail percentile reported for this workload.
pub const TAIL: f64 = 99.0;

/// Prints the committed anchor digests.
pub fn print_refs() {
    println!("# index digest of the seed-independent head of the analyze_cold stream");
    for index in 0..gen::ANCHORS {
        let text = gen::cold_system(0, index);
        let spec = dsl::parse(&text).expect("anchor parses");
        let analysis = analyze_robust(&spec, &oracle::shipped_config()).expect("anchor analyses");
        println!("{index} {:016x}", oracle::digest(&analysis));
    }
}

struct Served {
    index: u64,
    digest: Option<u64>,
}

pub fn run(args: &Args) -> Outcome {
    let config = oracle::shipped_config();
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let texts: Vec<String> = (0..WARMUP_SYSTEMS)
            .map(|i| gen::cold_system(!args.seed, gen::ANCHORS + rep * WARMUP_SYSTEMS + i))
            .collect();
        let ((), secs) = host.time_s(|| {
            for text in &texts {
                let spec = dsl::parse(text).expect("generated systems parse");
                let _ = std::hint::black_box(analyze_robust(&spec, &config));
            }
        });
        setups.push(secs);
    }

    let spans = Spans::default();
    let (recorder, handle) = MemoryRecorder::metrics_only_handle();
    let traced_config = config.clone().with_recorder(handle);
    let cycle = SIZE_CLASSES.len() as u64;
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut served = Vec::new();
    let mut fig2: Option<RobustAnalysis> = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut index = 0u64;
    while Instant::now() < deadline {
        // Generate a whole cycle of size classes, then time it.
        let texts: Vec<String> = (index..index + cycle)
            .map(|i| gen::cold_system(args.seed, i))
            .collect();
        // The traced run alternates whole cycles, so both halves see
        // the same size mix.
        let trace = args.trace && (index / cycle) % 2 == 1;
        for text in &texts {
            let t0 = Instant::now();
            let spec = dsl::parse(text);
            let t1 = Instant::now();
            let analysis = spec
                .as_ref()
                .ok()
                .map(|s| analyze_robust(s, if trace { &traced_config } else { &config }));
            let t2 = Instant::now();
            let phase = if trace { &mut traced } else { &mut plain };
            let f = host.factor();
            phase.parse.push(f * ms(t0, t1));
            phase.analyze.push(f * ms(t1, t2));
            phase.total.push(f * ms(t0, t2));
            host.tick();
            if trace {
                let root = spans.reserve();
                spans.record("dsl.parse", root, index, t0, t1);
                spans.record("engine.analyze_robust", root, index, t1, t2);
                spans.record_as(root, "system", 0, index, t0, t2);
            }
            let digest = match analysis {
                Some(Ok(a)) if a.results.is_complete() => {
                    let d = oracle::digest(&a);
                    if index == 0 {
                        fig2 = Some(a);
                    }
                    Some(d)
                }
                _ => None,
            };
            served.push(Served { index, digest });
            index += 1;
        }
    }

    // Oracles, outside the timed region.
    let mut m = Metrics::default();
    match fig2.as_ref().map(|a| oracle::table3_ok(gen::FIG2, a)) {
        Some(Ok(())) => {}
        Some(Err(e)) => m.problem(e),
        None => m.problem("the Fig. 2 member did not converge".into()),
    }
    let refs = oracle::parse_cold_refs(oracle::COLD_REFS);
    let mut tally = Tally::default();
    for s in &served {
        let ok = s.digest.is_some_and(|d| {
            oracle::cold_ref_ok(&refs, s.index, d)
                && (!generic_path_checked(s.index)
                    || oracle::generic_path_agrees(&gen::cold_system(args.seed, s.index), d))
        });
        if !ok {
            eprintln!(
                "analyze_cold: wrong or failed answer for system {}",
                s.index
            );
        }
        tally.record(ok);
    }

    if args.trace {
        let counts = recorder.snapshot();
        m.set("dsl.parse_ms", traced.parse.p50());
        m.set(
            "dsl.share_pct",
            100.0 * traced.parse.sum() / traced.total.sum(),
        );
        m.set("engine.analyze_ms", traced.analyze.p50());
        m.engine_counters(&counts, traced.total.len() as f64);
        m.trace_overhead(&plain.total, &traced.total, spans.len());
        args.write_spans(&spans);
    } else {
        m.end_to_end(&host, &setups, plain.total.rate_per_s(), &plain.total, TAIL);
        m.op_split(&plain.parse, &plain.analyze, TAIL);
    }
    Outcome { tally, metrics: m }
}

#[derive(Default)]
struct Phase {
    parse: Samples,
    analyze: Samples,
    total: Samples,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_path_checks_cover_every_size_class() {
        let cycle = SIZE_CLASSES.len() as u64;
        let classes: std::collections::BTreeSet<u64> = (gen::ANCHORS
            ..gen::ANCHORS + cycle * CHECK_EVERY)
            .filter(|&i| generic_path_checked(i))
            .map(|i| i % cycle)
            .collect();
        assert_eq!(classes.len() as u64, cycle);
    }
}
