//! A counting global allocator that tracks live memory.
//!
//! Every allocator call goes to [`System`] and bumps counters: calls
//! (alloc, alloc_zeroed, realloc), deallocations and live bytes. Each
//! thread owns one cache-line slot of counters and updates it with plain
//! loads and stores, so counting costs no locked instruction on the
//! allocation path; [`snapshot`] sums the slots. The benchmark takes a
//! snapshot around each call into the engine, so a difference between two
//! snapshots is the traffic that call caused. Nothing else allocates while
//! the engine runs (the harness is single-threaded and the engine's worker
//! pool only runs inside engine calls), so the differences are exact.
//!
//! The live-bytes high-water mark is sampled: [`raise_peak`] runs after
//! every engine call and every harness activity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Threads with a slot of their own; later threads share the last slot,
/// which is updated with atomic read-modify-writes instead.
const SLOTS: usize = 32;
const SHARED: usize = SLOTS - 1;

#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    frees: AtomicU64,
    live: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot =
    Slot { calls: AtomicU64::new(0), frees: AtomicU64::new(0), live: AtomicI64::new(0) };
static COUNTERS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(calls: u64, frees: u64, live: i64) {
    let index = MY_SLOT.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SHARED));
        }
        slot.get()
    });
    let s = &COUNTERS[index];
    if index == SHARED {
        s.calls.fetch_add(calls, Ordering::Relaxed);
        s.frees.fetch_add(frees, Ordering::Relaxed);
        s.live.fetch_add(live, Ordering::Relaxed);
    } else {
        // Only this thread writes its slot: a plain load and store
        // cannot lose an update.
        s.calls.store(s.calls.load(Ordering::Relaxed) + calls, Ordering::Relaxed);
        s.frees.store(s.frees.load(Ordering::Relaxed) + frees, Ordering::Relaxed);
        s.live.store(s.live.load(Ordering::Relaxed) + live, Ordering::Relaxed);
    }
}

/// Forwards to [`System`], counting calls and live bytes.
pub struct Counting;

// SAFETY: every method defers the allocation itself to `System` with the
// caller's arguments unchanged; the counters are atomics with no other
// side effects, and the thread-local slot index needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocator calls so far (alloc, alloc_zeroed, realloc).
    pub calls: u64,
    /// Deallocations so far.
    pub frees: u64,
    /// Bytes live right now.
    pub live: i64,
}

impl Snapshot {
    /// Counter changes since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Delta {
        Delta {
            calls: self.calls - earlier.calls,
            frees: self.frees - earlier.frees,
            live: self.live - earlier.live,
        }
    }
}

/// Allocator traffic between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// Allocator calls.
    pub calls: u64,
    /// Deallocations.
    pub frees: u64,
    /// Change in live bytes (negative when more was freed than allocated).
    pub live: i64,
}

impl std::ops::AddAssign for Delta {
    fn add_assign(&mut self, other: Delta) {
        self.calls += other.calls;
        self.frees += other.frees;
        self.live += other.live;
    }
}

/// Sums every thread's counters.
pub fn snapshot() -> Snapshot {
    let used = NEXT_SLOT.load(Ordering::Relaxed).min(SLOTS);
    let mut total = Snapshot::default();
    for s in &COUNTERS[..used] {
        total.calls += s.calls.load(Ordering::Relaxed);
        total.frees += s.frees.load(Ordering::Relaxed);
        total.live += s.live.load(Ordering::Relaxed);
    }
    total
}

/// Raises the high-water mark to `now`'s live bytes if higher.
pub fn raise_peak(now: &Snapshot) {
    PEAK.fetch_max(now.live, Ordering::Relaxed);
}

/// Restarts the high-water mark at the current live bytes.
pub fn reset_peak() {
    PEAK.store(snapshot().live, Ordering::Relaxed);
}

/// The sampled live-bytes high-water mark since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}
