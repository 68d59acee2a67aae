//! The workspace's one parallel mechanism: an order-deterministic
//! fan-out across independent analyses.
//!
//! The analysis engine itself is sequential. What runs in parallel is
//! coarse work that shares nothing: the packing chunks of
//! [`explore`](crate::explore::explore) and the scenarios of the bench
//! sweeps. [`parallel_map`] fans such a list over `std::thread::scope`
//! workers while keeping the output **in input order** — position `i`
//! of the result always corresponds to item `i`, no matter which worker
//! computed it or when, so tables, JSON and counters are byte-identical
//! for every thread count (see `docs/PARALLELISM.md`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `threads` scoped threads, returning the
/// results in input order.
///
/// `threads <= 1` degenerates to a plain in-order `map` on the calling
/// thread. Workers claim items through a shared atomic cursor (no
/// chunking), so uneven per-item cost still balances; each result is
/// written into the slot of its item index, which is what makes the
/// output order deterministic.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once the
/// scope joins).
///
/// # Examples
///
/// ```
/// let squares = hem_system::parallel_map((0..8).collect(), 4, |i: u64| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("item claimed once");
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_map_preserves_order() {
        for threads in [0, 1] {
            let caller = std::thread::current().id();
            let out = parallel_map((0..10).collect(), threads, |i: i32| {
                assert_eq!(std::thread::current().id(), caller, "runs inline");
                i * 2
            });
            assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let expected: Vec<i64> = (0..200).map(|i| i * i).collect();
        for threads in [2, 4, 8] {
            let out = parallel_map((0..200).collect(), threads, |i: i64| i * i);
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(parallel_map(vec![7], 16, |i: i32| i + 1), vec![8]);
        let empty: Vec<i32> = parallel_map(Vec::new(), 8, |i: i32| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let out = parallel_map((0..100).collect(), 4, |i: usize| {
            calls[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(calls.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        let out = parallel_map((0..64u64).collect(), 4, |i| {
            // Vary per-item cost so late items finish before early ones.
            let spin = (64 - i) * 1_000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (index, (i, acc)) in out.iter().enumerate() {
            assert_eq!(*i, index as u64);
            let spin = 64 - index as u64;
            assert_eq!(*acc, (0..spin * 1_000).sum::<u64>());
        }
    }

    #[test]
    fn a_panicking_item_propagates() {
        for threads in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                parallel_map((0..16).collect(), threads, |i: u32| {
                    assert_ne!(i, 11, "item 11 fails");
                    i
                })
            });
            assert!(outcome.is_err(), "{threads} threads");
        }
    }
}
