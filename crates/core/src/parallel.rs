//! The one worker pool every parallel engine runs on.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `work(i)` for every `i` in `0..n` on up to `threads` scoped
/// workers and returns the results in index order.
///
/// `threads == 0` means every available core; the count is clamped to
/// `n`, and a single worker runs inline on the calling thread. Workers
/// claim indices from a shared counter and results are merged by index,
/// so the output never depends on scheduling.
///
/// # Errors
///
/// Once any `work(i)` fails no worker claims another index, and the
/// error of the smallest claimed failing index is returned.
///
/// # Panics
///
/// Re-raises a worker's panic with its original payload.
pub fn par_try_map<T, E, F>(threads: usize, n: usize, work: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        t => t,
    }
    .min(n);
    if threads <= 1 {
        return (0..n).map(work).collect();
    }
    // Relaxed suffices: neither atomic publishes data; results reach the
    // caller through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = work(i);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    let mut tagged: Vec<(usize, Result<T, E>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        for threads in [0, 1, 2, 3, 64] {
            let out = par_try_map(threads, 50, |i| Ok::<_, ()>(i * i)).unwrap();
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_try_map(4, 0, |_| Ok::<u8, ()>(0)).unwrap().is_empty());
    }

    #[test]
    fn one_worker_runs_inline_and_stops_at_the_first_error() {
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let result = par_try_map(1, 10, |i| {
            assert_eq!(std::thread::current().id(), caller);
            calls.fetch_add(1, Ordering::Relaxed);
            if i >= 3 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(result, Err(3));
        assert_eq!(calls.into_inner(), 4);
    }

    #[test]
    fn the_smallest_claimed_failing_index_wins() {
        for threads in [2, 4] {
            let result = par_try_map(threads, 200, |i| if i % 7 == 5 { Err(i) } else { Ok(i) });
            assert_eq!(result, Err(5));
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_try_map(2, 8, |i| {
                assert_ne!(i, 6, "work item six");
                Ok::<_, ()>(i)
            })
        });
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(message.contains("work item six"), "{message}");
    }
}
