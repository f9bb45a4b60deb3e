//! Element-wise activation layers.

use crate::linear::clone_cache;
use crate::matrix::Matrix;

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no-op; useful as a final layer).
    Identity,
}

impl ActKind {
    /// f(x).
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            ActKind::Relu => x.max(0.0),
            ActKind::Tanh => x.tanh(),
            ActKind::Sigmoid => sigmoid(x),
            ActKind::Identity => x,
        }
    }

    /// f'(x), from the output y = f(x) alone. ReLU reads it too: `y > 0`
    /// exactly when `x > 0` (`x.max(0.0)` is `±0.0` for every other `x`,
    /// NaN included).
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            ActKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::Tanh => 1.0 - y * y,
            ActKind::Sigmoid => y * (1.0 - y),
            ActKind::Identity => 1.0,
        }
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A stateful activation layer (caches its output for backward).
#[derive(Debug)]
pub struct Activation {
    /// Which function.
    pub kind: ActKind,
    cached_out: Option<Matrix>,
}

impl Clone for Activation {
    fn clone(&self) -> Self {
        Activation {
            kind: self.kind,
            cached_out: self.cached_out.clone(),
        }
    }

    /// Copies into the existing buffer, recycling a cache `source` lacks.
    fn clone_from(&mut self, source: &Self) {
        self.kind = source.kind;
        clone_cache(&mut self.cached_out, &source.cached_out);
    }
}

impl Activation {
    /// New activation layer.
    pub fn new(kind: ActKind) -> Self {
        Activation {
            kind,
            cached_out: None,
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_owned(x.clone())
    }

    /// Forward pass taking ownership of the input and mapping it in
    /// place; the output is copied into the buffer of the cache it
    /// replaces. Identity passes `x` through and caches nothing: its
    /// derivative is 1. Numerically identical to [`Activation::forward`];
    /// the pipeline hot path uses it so a warm layer allocates nothing.
    pub fn forward_owned(&mut self, mut x: Matrix) -> Matrix {
        if self.kind == ActKind::Identity {
            return x;
        }
        for v in x.data_mut() {
            *v = self.kind.apply(*v);
        }
        self.cached_out
            .get_or_insert_with(|| Matrix::scratch(0, 0))
            .clone_from(&x);
        x
    }

    /// Backward pass: dL/dx from dL/dy.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        self.backward_in_place(&mut g);
        g
    }

    /// Backward pass turning dL/dy into dL/dx in place.
    pub fn backward_in_place(&self, grad: &mut Matrix) {
        if self.kind == ActKind::Identity {
            return;
        }
        let y = self.cached_out.as_ref().expect("backward before forward");
        for (gv, &yv) in grad.data_mut().iter_mut().zip(y.data()) {
            *gv *= self.kind.derivative_from_output(yv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relu_gradient_masks_negatives() {
        let mut a = Activation::new(ActKind::Relu);
        let x = Matrix::row_vector(vec![-1.0, 0.5, 2.0]);
        let y = a.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0]);
        let g = a.backward(&Matrix::row_vector(vec![1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn activation_gradients_match_finite_differences() {
        for kind in [ActKind::Tanh, ActKind::Sigmoid, ActKind::Identity] {
            let mut a = Activation::new(kind);
            let x0 = 0.37;
            let eps = 1e-6;
            let x = Matrix::row_vector(vec![x0]);
            let _ = a.forward(&x);
            let g = a.backward(&Matrix::row_vector(vec![1.0]));
            let fd = (kind.apply(x0 + eps) - kind.apply(x0 - eps)) / (2.0 * eps);
            assert!(
                (g.data()[0] - fd).abs() < 1e-6,
                "{kind:?}: analytic {} vs fd {}",
                g.data()[0],
                fd
            );
        }
    }
}
