//! A steady pipeline mini-batch allocates almost nothing. Stage threads
//! recycle every activation and gradient tensor, reuse retired stash
//! networks and zero their gradients in place, and their layers write
//! into the buffers of the caches they replace, so running twice as many
//! mini-batches only adds the small bookkeeping allocations of a longer
//! program (its op lists and result vectors).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ap_exec::runtime::{run_pipeline, ExecSpec};
use ap_exec::ScheduleKind;
use ap_nn::ActKind;

/// Counts allocations made by every thread: the stages run on their own.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per steady mini-batch may not exceed this. It bounds
/// bookkeeping only: this spec makes 0.28 to 0.53 per mini-batch (the
/// spread is thread timing). It made 79.7 when every tensor was
/// allocated afresh, 6.8 while a stash snapshot zeroed its gradients
/// through a collected parameter list and program validation built a set
/// per stash push, and 1.7 to 1.8 while validation kept per-unit maps.
const PER_MB: usize = 1;

fn spec(total: u64) -> ExecSpec {
    ExecSpec {
        sizes: vec![24, 40, 33, 40, 7],
        act: ActKind::Tanh,
        seed: 5,
        batch: 12,
        lr: 0.01,
        cuts: vec![2],
        schedule: ScheduleKind::PipeDreamAsync,
        in_flight: 2,
        total,
        bytes_per_sec: None,
        distinct_batches: 8,
        switch: None,
        record_timeline: false,
    }
}

/// Allocations made by one whole run of `total` mini-batches.
fn allocations(total: u64) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = run_pipeline(&spec(total)).expect("run completes");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(r.completed, total);
    after - before
}

#[test]
fn steady_mini_batches_only_allocate_bookkeeping() {
    const N: u64 = 64;
    let n = allocations(N);
    let n2 = allocations(2 * N);
    let per_mb = n2.saturating_sub(n) as f64 / N as f64;
    assert!(
        n2 <= n + PER_MB * N as usize,
        "run({N}) made {n} allocations, run({}) made {n2}: {per_mb:.1} per mini-batch",
        2 * N
    );
}
