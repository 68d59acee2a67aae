//! Concurrency contract of the `Sync` [`CachedModel`].
//!
//! A cache may be queried from several threads at once (analyses fanned
//! out by `parallel_map` can share models), and counter determinism
//! rests on two properties exercised here under real thread contention:
//!
//! * **compute-once** — concurrent queries for the same key perform
//!   exactly one inner evaluation and all observe the same value;
//! * **schedule-independent accounting** — evaluations equal the number
//!   of queries and misses equal the number of distinct keys, no matter
//!   how the queries interleave across threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use hem_event_models::{CachedModel, EventModel};
use hem_obs::{Counter, MemoryRecorder};
use hem_time::{Time, TimeBound};

/// A deterministic model that counts how often each curve function is
/// actually evaluated (i.e. how often the cache misses through to it).
#[derive(Debug, Default)]
struct CountingModel {
    calls: AtomicU64,
}

impl CountingModel {
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }
}

impl EventModel for CountingModel {
    fn delta_min(&self, n: u64) -> Time {
        self.calls.fetch_add(1, Ordering::SeqCst);
        Time::new(100 * n.saturating_sub(1) as i64)
    }

    fn delta_plus(&self, n: u64) -> TimeBound {
        self.calls.fetch_add(1, Ordering::SeqCst);
        TimeBound::finite(120 * n.saturating_sub(1) as i64)
    }

    fn eta_plus(&self, dt: Time) -> u64 {
        self.calls.fetch_add(1, Ordering::SeqCst);
        (dt.ticks().max(0) as u64).div_ceil(100)
    }

    fn eta_minus(&self, dt: Time) -> u64 {
        self.calls.fetch_add(1, Ordering::SeqCst);
        (dt.ticks().max(0) as u64) / 120
    }
}

/// Hammers one shared cache from `threads` threads, each issuing every
/// query in `keys` `repeats` times (all threads use the same key set,
/// maximising same-key contention).
fn hammer(cache: &Arc<CachedModel>, threads: usize, keys: &[u64], repeats: usize) {
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = cache.clone();
            let barrier = barrier.clone();
            let keys = keys.to_vec();
            scope.spawn(move || {
                barrier.wait();
                for r in 0..repeats {
                    // Rotate the starting point per thread and round so
                    // the threads collide on different keys over time.
                    let shift = (t * 7 + r) % keys.len();
                    for &k in keys[shift..].iter().chain(&keys[..shift]) {
                        assert_eq!(
                            cache.delta_min(k),
                            Time::new(100 * k.saturating_sub(1) as i64)
                        );
                        assert_eq!(cache.eta_plus(Time::new(k as i64)), k.div_ceil(100));
                    }
                }
            });
        }
    });
}

#[test]
fn stress_compute_once_across_threads() {
    let inner = Arc::new(CountingModel::default());
    let cache = Arc::new(CachedModel::new(inner.clone() as _));
    let keys: Vec<u64> = (0..512).collect();
    let threads = 8;
    let repeats = 4;
    hammer(&cache, threads, &keys, repeats);
    // Two curve functions per key per pass — but the inner model must
    // have been consulted exactly once per (function, key), regardless
    // of the 8-way interleaving.
    assert_eq!(inner.calls(), 2 * keys.len() as u64);
    assert_eq!(cache.cached_entries(), 2 * keys.len());
}

#[test]
fn counter_totals_are_schedule_independent() {
    let (recorder, handle) = MemoryRecorder::handle();
    let inner = Arc::new(CountingModel::default());
    let cache = Arc::new(CachedModel::recorded(inner as _, handle));
    let keys: Vec<u64> = (1..=128).collect();
    let threads = 8;
    let repeats = 3;
    hammer(&cache, threads, &keys, repeats);
    cache.flush_recorded();
    let snap = recorder.snapshot();
    // Evaluations = queries issued: 2 curve functions × keys × repeats
    // × threads. Misses = distinct (function, key) pairs. Both are
    // workload properties, independent of which thread got there first.
    let queries = 2 * keys.len() as u64 * repeats as u64 * threads as u64;
    let distinct = 2 * keys.len() as u64;
    assert_eq!(snap.counter(Counter::CurveEvaluations), queries);
    assert_eq!(snap.counter(Counter::CacheMisses), distinct);
    assert_eq!(snap.counter(Counter::CacheHits), queries - distinct);
}

#[test]
fn same_key_burst_evaluates_inner_exactly_once() {
    // All threads released simultaneously onto the *same* key: the
    // cache lock must serialise them into one inner computation.
    for _ in 0..32 {
        let inner = Arc::new(CountingModel::default());
        let cache = Arc::new(CachedModel::new(inner.clone() as _));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = cache.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    assert_eq!(cache.delta_min(42), Time::new(4_100));
                });
            }
        });
        assert_eq!(inner.calls(), 1, "compute-once violated under burst");
    }
}

#[test]
fn flush_from_one_thread_sees_all_threads_counts() {
    let (recorder, handle) = MemoryRecorder::handle();
    let inner = Arc::new(CountingModel::default());
    let cache = Arc::new(CachedModel::recorded(inner as _, handle));
    let threads = 4;
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let cache = cache.clone();
            scope.spawn(move || {
                // Disjoint key ranges per thread: every query misses.
                for k in (t * 64)..(t * 64 + 64) {
                    let _ = cache.eta_minus(Time::new(k as i64));
                }
            });
        }
    });
    cache.flush_recorded();
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(Counter::CurveEvaluations), threads as u64 * 64);
    assert_eq!(snap.counter(Counter::CacheMisses), threads as u64 * 64);
    assert_eq!(snap.counter(Counter::CacheHits), 0);
    // Nothing left behind: a second flush (or the drop) adds zero.
    cache.flush_recorded();
    assert_eq!(
        recorder.snapshot().counter(Counter::CurveEvaluations),
        threads as u64 * 64
    );
}

#[test]
fn nested_caches_do_not_deadlock_and_stay_compute_once() {
    // A cache over a cache: a miss in the outer one evaluates the
    // inner one while holding the outer lock. Locks are only ever
    // taken outer-then-inner (the model DAG's order), so hammering
    // both layers at once from many threads must neither deadlock nor
    // evaluate the counting model more than once per (function, key).
    let counting = Arc::new(CountingModel::default());
    let inner = Arc::new(CachedModel::new(counting.clone() as _));
    let outer = Arc::new(CachedModel::new(inner.clone() as _));
    let keys: Vec<u64> = (0..256).collect();
    std::thread::scope(|scope| {
        scope.spawn(|| hammer(&outer, 4, &keys, 2));
        scope.spawn(|| hammer(&inner, 4, &keys, 2));
    });
    assert_eq!(counting.calls(), 2 * keys.len() as u64);
    assert_eq!(outer.cached_entries(), 2 * keys.len());
    assert_eq!(inner.cached_entries(), 2 * keys.len());
}
