//! Fully-connected layer: `y = x W + b`.

use crate::matrix::Matrix;
use crate::Param;

/// A linear layer mapping `batch x d_in` to `batch x d_out`.
#[derive(Debug)]
pub struct Linear {
    /// Weight, `d_in x d_out`.
    pub w: Param,
    /// Bias, `1 x d_out`.
    pub b: Param,
    cached_in: Option<Matrix>,
}

impl Clone for Linear {
    fn clone(&self) -> Self {
        Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            cached_in: self.cached_in.clone(),
        }
    }

    /// Copies into the existing buffers. A cache `source` lacks is
    /// recycled rather than freed, so the next forward reuses it.
    fn clone_from(&mut self, source: &Self) {
        self.w.clone_from(&source.w);
        self.b.clone_from(&source.b);
        clone_cache(&mut self.cached_in, &source.cached_in);
    }
}

/// `to.clone_from(from)` for a layer cache, reusing `to`'s buffer when
/// both hold one and recycling it when `from` holds none.
pub(crate) fn clone_cache(to: &mut Option<Matrix>, from: &Option<Matrix>) {
    match (to.as_mut(), from) {
        (Some(t), Some(f)) => t.clone_from(f),
        (None, Some(f)) => *to = Some(f.clone()),
        (_, None) => {
            if let Some(t) = to.take() {
                t.recycle();
            }
        }
    }
}

impl Linear {
    /// Xavier-initialized layer, deterministic by seed.
    pub fn new(d_in: usize, d_out: usize, seed: u64) -> Self {
        Linear {
            w: Param::new(Matrix::xavier(d_in, d_out, seed)),
            b: Param::new(Matrix::zeros(1, d_out)),
            cached_in: None,
        }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.w.value.rows()
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_owned(x.clone())
    }

    /// Forward pass taking ownership of the input: the cache keeps `x`
    /// itself instead of a clone, and the output is written into the
    /// buffer of the input it replaces, so a warm layer allocates
    /// nothing. Numerically identical to [`Linear::forward`].
    pub fn forward_owned(&mut self, x: Matrix) -> Matrix {
        let mut y = self
            .cached_in
            .take()
            .unwrap_or_else(|| Matrix::scratch(0, 0));
        x.matmul_into(&self.w.value, &mut y);
        y.add_row_broadcast(&self.b.value);
        self.cached_in = Some(x);
        y
    }

    /// Stateless forward (no cache) for inference-only paths.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(&self.b.value);
        y
    }

    /// Backward pass: accumulates dW, db and returns dL/dx.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.accumulate_grads(grad_out);
        grad_out.matmul_t(&self.w.value)
    }

    /// The parameter half of [`Linear::backward`]: `dW += xᵀ @ grad_out`
    /// and `db += Σ rows of grad_out`, with no temporaries.
    pub fn accumulate_grads(&mut self, grad_out: &Matrix) {
        let x = self.cached_in.as_ref().expect("backward before forward");
        x.t_matmul_acc(grad_out, &mut self.w.grad);
        self.b.grad.add_sum_rows(grad_out);
    }

    /// The input half of [`Linear::backward`]: `dx = grad_out @ Wᵀ`,
    /// written into `dx`'s buffer.
    pub fn input_grad_into(&self, grad_out: &Matrix, dx: &mut Matrix) {
        grad_out.matmul_t_into(&self.w.value, dx);
    }

    /// All parameters for an optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// The input cached by the most recent `forward`, if any.
    pub fn cached_input(&self) -> Option<&Matrix> {
        self.cached_in.as_ref()
    }

    /// Clone weights and gradients but drop the forward cache.
    pub fn cold_clone(&self) -> Linear {
        Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            cached_in: None,
        }
    }

    /// Build a layer from explicit weight and bias matrices.
    pub fn from_weights(w: Matrix, b: Matrix) -> Linear {
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(w.cols(), b.cols(), "bias width must match output width");
        Linear {
            w: Param::new(w),
            b: Param::new(b),
            cached_in: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full finite-difference gradient check of a linear layer under an MSE
    /// objective.
    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Linear::new(4, 3, 11);
        let x = Matrix::xavier(2, 4, 12);
        let target = Matrix::xavier(2, 3, 13);

        let loss_of = |layer: &Linear, x: &Matrix| -> f64 {
            let y = layer.forward_inference(x);
            y.data()
                .iter()
                .zip(target.data())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / y.data().len() as f64
        };

        // Analytic gradients.
        let y = layer.forward(&x);
        let n = y.data().len() as f64;
        let grad = Matrix::from_vec(
            y.rows(),
            y.cols(),
            y.data()
                .iter()
                .zip(target.data())
                .map(|(a, b)| 2.0 * (a - b) / n)
                .collect(),
        );
        let dx = layer.backward(&grad);

        let eps = 1e-6;
        // Check dW elementwise.
        for idx in 0..layer.w.value.data().len() {
            let orig = layer.w.value.data()[idx];
            layer.w.value.data_mut()[idx] = orig + eps;
            let lp = loss_of(&layer, &x);
            layer.w.value.data_mut()[idx] = orig - eps;
            let lm = loss_of(&layer, &x);
            layer.w.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = layer.w.grad.data()[idx];
            assert!((fd - an).abs() < 1e-6, "dW[{idx}]: fd {fd} vs an {an}");
        }
        // Check db.
        for idx in 0..layer.b.value.data().len() {
            let orig = layer.b.value.data()[idx];
            layer.b.value.data_mut()[idx] = orig + eps;
            let lp = loss_of(&layer, &x);
            layer.b.value.data_mut()[idx] = orig - eps;
            let lm = loss_of(&layer, &x);
            layer.b.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = layer.b.grad.data()[idx];
            assert!((fd - an).abs() < 1e-6, "db[{idx}]: fd {fd} vs an {an}");
        }
        // Check dx.
        let mut x2 = x.clone();
        for idx in 0..x2.data().len() {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp = loss_of(&layer, &x2);
            x2.data_mut()[idx] = orig - eps;
            let lm = loss_of(&layer, &x2);
            x2.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.data()[idx];
            assert!((fd - an).abs() < 1e-6, "dx[{idx}]: fd {fd} vs an {an}");
        }
    }

    #[test]
    fn forward_shapes() {
        let mut l = Linear::new(5, 2, 1);
        let y = l.forward(&Matrix::zeros(3, 5));
        assert_eq!((y.rows(), y.cols()), (3, 2));
        assert_eq!(l.d_in(), 5);
        assert_eq!(l.d_out(), 2);
    }

    #[test]
    fn gradient_accumulates_across_calls() {
        let mut l = Linear::new(2, 2, 3);
        let x = Matrix::xavier(1, 2, 4);
        let g = Matrix::row_vector(vec![1.0, 1.0]);
        let _ = l.forward(&x);
        let _ = l.backward(&g);
        let first = l.w.grad.clone();
        let _ = l.forward(&x);
        let _ = l.backward(&g);
        for (a, b) in l.w.grad.data().iter().zip(first.data()) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }
}
