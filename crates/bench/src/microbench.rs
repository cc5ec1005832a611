//! Minimal self-contained micro-benchmark harness: wall-clock timing with
//! median-of-samples reporting, plus an allocation-counting global
//! allocator so benches can *prove* a hot loop stays off the heap.
//!
//! This replaces an external benchmarking framework: the repo builds
//! without network access, and the benches double as regression checks
//! (the protocol bench fails loudly if the steady-state ORAM access loop
//! ever allocates again).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A `#[global_allocator]` wrapper around the system allocator that
/// counts allocations and allocated bytes. Declare one `static` in a
/// bench binary and diff [`CountingAlloc::allocations`] around a hot
/// loop to assert it never touches the heap.
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter (const, so it can initialize a `static`).
    pub const fn new() -> Self {
        CountingAlloc { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Total allocation calls (`alloc` + growing `realloc`) so far.
    pub fn allocations(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Total bytes requested so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every operation to `System`; the counters are simple
// relaxed atomics with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    // Without this the trait's default (`alloc` + a byte-by-byte zeroing)
    // would touch every page of a `vec![0; n]` the system allocator
    // hands out lazily zeroed, and the measured binaries would do work
    // the shipped one does not.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract
        // for `layout`, which is exactly `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed sample.
    pub iters: u64,
    /// Median over samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<40} {:>12.1} ns/iter  (min {:.1}, max {:.1}, {} iters/sample)",
            self.name, self.median_ns, self.min_ns, self.max_ns, self.iters
        )
    }
}

/// Times `f` over `samples` samples of `iters` iterations each (after one
/// untimed warmup sample) and returns the per-iteration summary. Wrap
/// results in [`black_box`] inside `f` to keep the optimizer honest.
pub fn bench<R>(name: &str, samples: usize, iters: u64, mut f: impl FnMut() -> R) -> BenchReport {
    for _ in 0..iters {
        black_box(f());
    }
    let mut per_iter: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    BenchReport {
        name: name.to_string(),
        iters,
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[per_iter.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let r = bench("spin", 3, 100, || std::hint::black_box(17u64).wrapping_mul(3));
        assert!(r.median_ns >= 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert_eq!(r.iters, 100);
        assert!(format!("{r}").contains("spin"));
    }

    #[test]
    fn counting_alloc_counts() {
        // Not installed as the global allocator here; exercise the trait
        // impl directly.
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            a.dealloc(p2, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(a.allocations(), 2);
        assert_eq!(a.bytes(), 64 + 128);
        // A zeroed allocation counts once, at its size, and reads zero.
        let big = Layout::from_size_align(1 << 16, 8).unwrap();
        // SAFETY: `big` has non-zero size; `p` is checked non-null before
        // its `big.size()` bytes are read, and freed with the same layout.
        unsafe {
            let p = a.alloc_zeroed(big);
            assert!(!p.is_null());
            assert!(std::slice::from_raw_parts(p, big.size()).iter().all(|&b| b == 0));
            a.dealloc(p, big);
        }
        assert_eq!(a.allocations(), 3);
        assert_eq!(a.bytes(), 64 + 128 + (1 << 16));
    }
}
