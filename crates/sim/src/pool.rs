//! A minimal scoped-thread job pool for embarrassingly parallel
//! experiment sweeps.
//!
//! The experiment harness runs hundreds of independent (workload, config,
//! policy) cells; each cell seeds its own RNGs from its own options, so
//! cells can run on any thread in any order and still produce bit-identical
//! statistics. [`parallel_map`] exploits exactly that: workers claim cells
//! from a shared atomic counter (work-stealing over a fixed job list) and
//! results are returned **in input order**, making a parallel sweep
//! indistinguishable from the sequential one, only faster.
//!
//! Built on [`std::thread::scope`] — no extra dependencies, no detached
//! threads, panics from workers propagate to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SHADOW_ORAM_THREADS";

/// Default worker count: the [`THREADS_ENV`] environment variable when set
/// to a positive integer, otherwise the machine's available parallelism
/// (falling back to 1 when that cannot be determined).
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV).ok().and_then(|v| parse_threads(&v)) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a thread-count override; `None` for anything but a positive
/// integer.
fn parse_threads(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Applies `f` to every item on up to `threads` scoped worker threads and
/// returns the results in input order.
///
/// Scheduling is dynamic: workers repeatedly claim the next unclaimed
/// index, so long-running cells don't stall a statically partitioned
/// chunk. With `threads <= 1` or fewer than two items the map runs inline
/// on the caller's thread, with no pool overhead.
///
/// # Panics
///
/// Re-raises the panic of any worker (after all workers have stopped).
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_notify(threads, items, f, |_, _| {})
}

/// [`parallel_map`] with a completion callback: after each item finishes,
/// `notify(done, total)` is called with the number of items completed so
/// far and the total item count. The callback runs on whichever thread
/// finished the item (the caller's thread in inline mode), so it must be
/// cheap and `Sync` — it exists to drive progress heartbeats on long
/// sweeps, not to do work.
///
/// # Panics
///
/// Re-raises the panic of any worker (after all workers have stopped).
pub fn parallel_map_notify<T, R, F, N>(threads: usize, items: &[T], f: F, notify: N) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    N: Fn(usize, usize) + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let r = f(item);
                notify(i + 1, n);
                r
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                        let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                        notify(completed, n);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(chunk) => chunks.push(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in chunks.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every index was claimed by exactly one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let got = parallel_map(threads, &items, |&x| x * x);
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn uneven_work_is_balanced_dynamically() {
        // Early items are slow; a static split would serialize them on one
        // worker. The map must still return correct, ordered results.
        let items: Vec<u64> = (0..64).collect();
        let got = parallel_map(4, &items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(got, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn degenerate_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map::<u32, u32, _>(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(8, &[41], |&x| x + 1), vec![42]);
        assert_eq!(parallel_map(0, &[1, 2], |&x| x * 10), vec![10, 20]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let got = parallel_map(32, &[1u32, 2, 3], |&x| x * 2);
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("auto"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn notify_reports_every_completion() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 4] {
            let items: Vec<u64> = (0..50).collect();
            let calls = AtomicUsize::new(0);
            let max_seen = AtomicUsize::new(0);
            let got = parallel_map_notify(
                threads,
                &items,
                |&x| x * 2,
                |done, total| {
                    assert_eq!(total, 50);
                    assert!(done >= 1 && done <= total);
                    calls.fetch_add(1, Ordering::Relaxed);
                    max_seen.fetch_max(done, Ordering::Relaxed);
                },
            );
            assert_eq!(got, items.iter().map(|&x| x * 2).collect::<Vec<u64>>());
            assert_eq!(calls.load(Ordering::Relaxed), 50, "threads={threads}");
            assert_eq!(max_seen.load(Ordering::Relaxed), 50, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        parallel_map(4, &items, |&x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }
}
