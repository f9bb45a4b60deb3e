//! # ap-nn — a minimal, self-contained neural-network library
//!
//! AutoPipe's two learned components — the LSTM+FC **meta-network** that
//! predicts training speed (§4.2, Figure 7) and the fully-connected **RL
//! arbiter** with hidden layers of 32 and 16 neurons (§4.3) — need a small
//! trainable network stack. This crate provides one from scratch:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix with the handful of BLAS-1/2/3
//!   operations the layers need,
//! * [`Linear`], [`Activation`], [`LstmCell`] / [`Lstm`] — layers with full
//!   backward passes (BPTT for the LSTM), all gradient-checked against
//!   finite differences in the test suite,
//! * [`Mlp`] — a sequential fully-connected network,
//! * losses ([`mse_loss`], [`softmax_cross_entropy`]) and
//! * optimizers ([`Sgd`], [`Adam`]).
//!
//! The learned components' networks are tiny (tens of units), but the
//! exec runtime trains 128-wide layers through the same [`Matrix`], so its
//! product is a packed, register-blocked kernel that stays bit-identical
//! to the naive loop, and a warm training step writes into buffers it
//! already owns instead of allocating. Everything is deterministic given a seed, and
//! nothing here starts a thread.

pub mod activation;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optim;

pub use activation::{ActKind, Activation};
pub use linear::Linear;
pub use loss::{mse_loss, softmax, softmax_cross_entropy};
pub use lstm::{Lstm, LstmCell};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::{Adam, Optimizer, Sgd};

/// A trainable parameter tensor paired with its gradient accumulator.
#[derive(Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape).
    pub grad: Matrix,
}

impl Clone for Param {
    fn clone(&self) -> Self {
        Param {
            value: self.value.clone(),
            grad: self.grad.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.value.clone_from(&source.value);
        self.grad.clone_from(&source.grad);
    }
}

impl Param {
    /// A parameter with zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}
