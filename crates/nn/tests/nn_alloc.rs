//! A warm training step allocates nothing. Layers write their outputs
//! into the buffers of the caches they replace, products pack into
//! per-thread scratch, spent gradients go back to the thread's recycled
//! buffers, and a snapshot into a warm network copies into its buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ap_nn::{mse_loss, ActKind, Matrix, Mlp};

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

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Widths that are no multiple of the 16-column panel, a batch that is
/// no multiple of the row block.
const SIZES: [usize; 4] = [24, 40, 33, 7];
const BATCH: usize = 21;
/// Steps before counting: recycled buffers of different widths trade
/// places at first, each growing until it fits the widest.
const WARM: usize = 4;

/// One forward, loss and backward over input `x`; returns the input
/// gradient when `input_grad` is set, and recycles everything else.
fn step(net: &mut Mlp, x: Matrix, target: &Matrix, input_grad: bool) -> Option<Matrix> {
    let n = net.n_layers();
    let y = net.forward_range_owned(0..n, x);
    let (loss, g) = mse_loss(&y, target);
    assert!(loss.is_finite());
    y.recycle();
    net.backward_range_owned(0..n, g, input_grad)
}

#[test]
fn warm_forward_and_backward_allocate_nothing() {
    for act in [ActKind::Tanh, ActKind::Relu] {
        let mut net = Mlp::new(&SIZES, act, 3);
        let target = Matrix::xavier(BATCH, SIZES[3], 4);
        // The input gradient comes back as the next input.
        let mut x = Matrix::xavier(BATCH, SIZES[0], 5);
        for _ in 0..WARM {
            x = step(&mut net, x, &target, true).unwrap();
        }
        let n = allocations(|| {
            for _ in 0..3 {
                x = step(
                    &mut net,
                    std::mem::replace(&mut x, Matrix::zeros(0, 0)),
                    &target,
                    true,
                )
                .unwrap();
            }
        });
        assert_eq!(n, 0, "{act:?}: warm steps fed their own input gradient");

        // Stage 0's step: the input is a recycled buffer, and the input
        // gradient nobody reads is never computed.
        x.recycle();
        let fresh = |net: &mut Mlp| {
            let mut x = Matrix::scratch(BATCH, SIZES[0]);
            x.data_mut().fill(0.25);
            assert!(step(net, x, &target, false).is_none());
        };
        for _ in 0..WARM {
            fresh(&mut net);
        }
        let n = allocations(|| {
            for _ in 0..3 {
                fresh(&mut net);
            }
        });
        assert_eq!(n, 0, "{act:?}: warm steps without the input gradient");

        // A weight snapshot into a warm network of the same shape.
        let master = Mlp::new(&SIZES, act, 9);
        let mut copy = net.clone();
        let n = allocations(|| copy.clone_from(&master));
        assert_eq!(n, 0, "{act:?}: snapshot into a warm network");
        assert_eq!(copy.layer(2).w.value, master.layer(2).w.value);
        assert!(copy.layer_input(0).is_none(), "the snapshot kept a cache");
    }
}
