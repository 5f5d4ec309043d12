//! Shared harness for the benchmarks and the experiment runner.
//!
//! Every table/figure reproduction in EXPERIMENTS.md is regenerated by
//! `cargo run -p b2b-bench --bin experiments` (all experiments) or
//! `--bin experiments -- <id>` (one experiment); the Criterion benches
//! under `benches/` measure the runtime claims.

use b2b_core::baseline::cooperative::{advanced_model_size, naive_model_size, IntegrationConfig};
use b2b_core::error::Result;
use b2b_core::scenario::TwoEnterpriseScenario;
use b2b_network::FaultConfig;

/// A sweep point of experiment E5.
#[derive(Debug, Clone)]
pub struct ExplosionRow {
    /// Protocols.
    pub p: usize,
    /// Partners.
    pub t: usize,
    /// Back ends.
    pub b: usize,
    /// Workflow-internal model elements, naïve architecture.
    pub naive_elements: usize,
    /// Workflow-internal model elements, advanced architecture.
    pub advanced_elements: usize,
    /// Total elements including external registries, advanced.
    pub advanced_total: usize,
}

/// Computes one E5 sweep row.
pub fn explosion_row(p: usize, t: usize, b: usize) -> Result<ExplosionRow> {
    let cfg = IntegrationConfig::synthetic(p, t, b);
    let naive = naive_model_size(&cfg)?;
    let advanced = advanced_model_size(&cfg)?;
    Ok(ExplosionRow {
        p,
        t,
        b,
        naive_elements: naive.workflow_elements(),
        advanced_elements: advanced.workflow_elements(),
        advanced_total: advanced.total_elements(),
    })
}

/// Runs `n` EDI round trips on a fresh scenario and returns
/// (completed sessions, elapsed simulated ms).
pub fn run_roundtrips(n: usize, faults: FaultConfig, seed: u64) -> Result<(usize, u64)> {
    let mut s = TwoEnterpriseScenario::new(faults, seed)?;
    for i in 0..n {
        let po = s.po(&format!("bench-{i}"), 1_000 + i as i64)?;
        s.submit(po)?;
    }
    let elapsed = s.run_until_quiescent(1_000_000)?;
    Ok((s.buyer.completed_sessions(), elapsed))
}

pub mod chaos;
pub mod population;

pub mod alloc_count {
    //! A counting global allocator for the allocation-audited experiments.
    //!
    //! Every binary, bench, and test of this crate allocates through
    //! [`CountingAllocator`], which forwards to the system allocator and
    //! keeps two relaxed atomic counters. [`measure`] brackets a closure
    //! and reports the allocation traffic it caused; with no other
    //! threads allocating, the delta is exact, not sampled.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`], counting each allocation and its size.
    /// Deallocations are not counted: the experiments audit how much a
    /// workload *asks* the allocator for, not its live footprint.
    pub struct CountingAllocator;

    // SAFETY: defers all allocation to `System`; the counters are plain
    // relaxed atomics with no other side effects.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocation traffic caused by one closure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocDelta {
        /// Calls into the allocator (alloc, alloc_zeroed, realloc).
        pub allocations: u64,
        /// Bytes requested across those calls.
        pub bytes: u64,
    }

    /// Runs `f` and returns its result plus the allocation traffic it
    /// caused on this thread (exact while nothing else allocates).
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let out = f();
        let delta = AllocDelta {
            allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes_before,
        };
        (out, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explosion_row_has_the_expected_ordering() {
        let row = explosion_row(3, 4, 2).unwrap();
        assert!(row.naive_elements > row.advanced_elements);
        assert!(row.advanced_total >= row.advanced_elements);
    }

    #[test]
    fn roundtrip_harness_completes_everything() {
        let (done, elapsed) = run_roundtrips(3, FaultConfig::reliable(), 1).unwrap();
        assert_eq!(done, 3);
        assert!(elapsed > 0);
    }
}
