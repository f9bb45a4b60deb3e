//! A warm max-min solve allocates nothing: the fill's tables live in the
//! caller's [`FairShare`] buffers, which only grow. The event engine
//! solves once per tick, so this is what keeps its inner loop off the
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ap_cluster::{gbps, max_min_fair_rates, FairShare, Flow, LinkId, ServerId};

/// Counts allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_solve_allocates_nothing() {
    let up = |s| LinkId::Up(ServerId(s)).slot();
    let down = |s| LinkId::Down(ServerId(s)).slot();
    let flows = vec![
        Flow::elastic(vec![up(0), down(1)]),
        Flow::elastic(vec![up(0), down(2)]),
        Flow::elastic(vec![]),
        Flow {
            path: vec![up(1), down(2)],
            demand: gbps(2.0),
        },
        // A ring pass over three servers.
        Flow::elastic(vec![up(0), down(1), up(1), down(2), up(2), down(0)]),
    ];
    let capacity: Vec<f64> = (0..6)
        .map(|slot| {
            if slot % 2 == 0 {
                gbps(10.0 + (slot / 2) as f64)
            } else {
                gbps(25.0)
            }
        })
        .collect();
    let mut fs = FairShare::default();
    max_min_fair_rates(&flows, &capacity, gbps(96.0), &mut fs);
    let before = ALLOCS.with(Cell::get);
    for round in 0..100 {
        // Smaller flow sets reuse the buffers the full set grew.
        let n = 1 + round % flows.len();
        let rates = max_min_fair_rates(&flows[..n], &capacity, gbps(96.0), &mut fs);
        assert_eq!(rates.len(), n);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "warm solves allocated");
}
