//! LSTM cell and sequence layer with full backpropagation through time.
//!
//! The AutoPipe meta-network "uses a long short-term memory (LSTM) block
//! to learn the dynamic environment" (§4.2, Figure 7): the per-iteration
//! dynamic metrics form a short sequence whose final hidden state is
//! concatenated with the static features and the candidate partition.

use crate::activation::sigmoid;
use crate::matrix::Matrix;
use crate::Param;

/// Cached intermediates of one time step, needed by BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    /// `[h_{t-1} | x_t]`, batch x (H+I).
    z: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    c_prev: Matrix,
    tanh_c: Matrix,
}

/// A single LSTM cell with combined gate weights.
///
/// Gate pre-activations are `a = [h_{t-1} | x_t] W + b` with
/// `W: (H+I) x 4H` laid out as `[i | f | g | o]` blocks.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Combined gate weights, `(hidden+input) x 4*hidden`.
    pub w: Param,
    /// Combined gate bias, `1 x 4*hidden`.
    pub b: Param,
    input: usize,
    hidden: usize,
}

impl LstmCell {
    /// New cell. Forget-gate bias starts at 1.0 (standard trick so early
    /// training does not immediately forget).
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        let w = Matrix::xavier(hidden + input, 4 * hidden, seed);
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.set(0, j, 1.0);
        }
        LstmCell {
            w: Param::new(w),
            b: Param::new(b),
            input,
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input(&self) -> usize {
        self.input
    }

    fn step(&self, x: &Matrix, h: &Matrix, c: &Matrix) -> (Matrix, Matrix, StepCache) {
        let z = h.hcat(x);
        let mut a = z.matmul(&self.w.value);
        a.add_row_broadcast(&self.b.value);
        let hn = self.hidden;
        let batch = x.rows();
        let mut i = Matrix::zeros(batch, hn);
        let mut f = Matrix::zeros(batch, hn);
        let mut g = Matrix::zeros(batch, hn);
        let mut o = Matrix::zeros(batch, hn);
        for r in 0..batch {
            for j in 0..hn {
                i.set(r, j, sigmoid(a.get(r, j)));
                f.set(r, j, sigmoid(a.get(r, hn + j)));
                g.set(r, j, a.get(r, 2 * hn + j).tanh());
                o.set(r, j, sigmoid(a.get(r, 3 * hn + j)));
            }
        }
        let c_new = f.hadamard(c).also_add(&i.hadamard(&g));
        let tanh_c = c_new.map(f64::tanh);
        let h_new = o.hadamard(&tanh_c);
        let cache = StepCache {
            z,
            i,
            f,
            g,
            o,
            c_prev: c.clone(),
            tanh_c,
        };
        (h_new, c_new, cache)
    }
}

trait AlsoAdd {
    fn also_add(self, other: &Matrix) -> Matrix;
}
impl AlsoAdd for Matrix {
    fn also_add(mut self, other: &Matrix) -> Matrix {
        self.add_assign(other);
        self
    }
}

/// An LSTM unrolled over a sequence; exposes the final hidden state.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// The recurrent cell.
    pub cell: LstmCell,
    caches: Vec<StepCache>,
    batch: usize,
}

impl Lstm {
    /// New LSTM layer.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        Lstm {
            cell: LstmCell::new(input, hidden, seed),
            caches: Vec::new(),
            batch: 0,
        }
    }

    /// Run the cell over `seq` (each element `batch x input`), starting
    /// from zero state; returns the final hidden state `batch x hidden`.
    pub fn forward(&mut self, seq: &[Matrix]) -> Matrix {
        assert!(!seq.is_empty(), "empty sequence");
        self.batch = seq[0].rows();
        let mut h = Matrix::zeros(self.batch, self.cell.hidden);
        let mut c = h.clone();
        self.caches.clear();
        for x in seq {
            assert_eq!(x.rows(), self.batch, "ragged batch");
            assert_eq!(x.cols(), self.cell.input, "input width mismatch");
            let (hn, cn, cache) = self.cell.step(x, &h, &c);
            self.caches.push(cache);
            h = hn;
            c = cn;
        }
        h
    }

    /// Inference-only forward (no caches kept — self stays clean).
    pub fn forward_inference(&self, seq: &[Matrix]) -> Matrix {
        assert!(!seq.is_empty(), "empty sequence");
        let batch = seq[0].rows();
        let mut h = Matrix::zeros(batch, self.cell.hidden);
        let mut c = h.clone();
        for x in seq {
            let (hn, cn, _) = self.cell.step(x, &h, &c);
            h = hn;
            c = cn;
        }
        h
    }

    /// BPTT from the gradient at the final hidden state. Accumulates cell
    /// parameter gradients and returns per-step input gradients.
    pub fn backward(&mut self, grad_h_last: &Matrix) -> Vec<Matrix> {
        let hn = self.cell.hidden;
        let t_steps = self.caches.len();
        assert!(t_steps > 0, "backward before forward");
        let mut dh = grad_h_last.clone();
        let mut dc = Matrix::zeros(self.batch, hn);
        let mut dxs = vec![Matrix::zeros(0, 0); t_steps];
        for t in (0..t_steps).rev() {
            let cache = &self.caches[t];
            // dc += dh * o * (1 - tanh(c)^2)
            let one_minus_t2 = cache.tanh_c.map(|v| 1.0 - v * v);
            dc.add_assign(&dh.hadamard(&cache.o).hadamard(&one_minus_t2));
            let d_o = dh.hadamard(&cache.tanh_c);
            let d_f = dc.hadamard(&cache.c_prev);
            let d_i = dc.hadamard(&cache.g);
            let d_g = dc.hadamard(&cache.i);
            // Pre-activation gradients.
            let da_i = d_i.hadamard(&cache.i.map(|v| v * (1.0 - v)));
            let da_f = d_f.hadamard(&cache.f.map(|v| v * (1.0 - v)));
            let da_g = d_g.hadamard(&cache.g.map(|v| 1.0 - v * v));
            let da_o = d_o.hadamard(&cache.o.map(|v| v * (1.0 - v)));
            let da = da_i.hcat(&da_f).hcat(&da_g).hcat(&da_o);
            cache.z.t_matmul_acc(&da, &mut self.cell.w.grad);
            self.cell.b.grad.add_sum_rows(&da);
            let dz = da.matmul_t(&self.cell.w.value);
            let (dh_prev, dx) = dz.hsplit(hn);
            dxs[t] = dx;
            dh = dh_prev;
            dc = dc.hadamard(&cache.f);
        }
        dxs
    }

    /// Parameters for an optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.cell.w, &mut self.cell.b]
    }

    /// Snapshot the cell weights (e.g. after offline training).
    pub fn weights(&self) -> (Matrix, Matrix) {
        (self.cell.w.value.clone(), self.cell.b.value.clone())
    }

    /// Load a snapshot (shapes must match).
    pub fn load(&mut self, w: &Matrix, b: &Matrix) {
        assert_eq!(
            (w.rows(), w.cols()),
            (self.cell.w.value.rows(), self.cell.w.value.cols()),
            "lstm weight shape mismatch"
        );
        assert_eq!(
            (b.rows(), b.cols()),
            (self.cell.b.value.rows(), self.cell.b.value.cols()),
            "lstm bias shape mismatch"
        );
        self.cell.w.value = w.clone();
        self.cell.b.value = b.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(t: usize, batch: usize, input: usize, seed: u64) -> Vec<Matrix> {
        (0..t)
            .map(|i| Matrix::xavier(batch, input, seed + i as u64))
            .collect()
    }

    fn scalar_loss(h: &Matrix) -> f64 {
        // Simple differentiable objective: sum of squares / 2.
        h.data().iter().map(|v| v * v).sum::<f64>() / 2.0
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut l = Lstm::new(3, 5, 9);
        let s = seq(4, 2, 3, 100);
        let h1 = l.forward(&s);
        let h2 = l.forward_inference(&s);
        assert_eq!((h1.rows(), h1.cols()), (2, 5));
        for (a, b) in h1.data().iter().zip(h2.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn bptt_weight_gradients_match_finite_differences() {
        let mut l = Lstm::new(2, 3, 21);
        let s = seq(3, 2, 2, 200);
        let h = l.forward(&s);
        let grad = h.clone(); // dL/dh for L = sum(h^2)/2 is h itself
        let _ = l.backward(&grad);
        let analytic = l.cell.w.grad.clone();

        let eps = 1e-6;
        // Spot-check a spread of weight elements (full check is O(n) fwd
        // passes; 12 elements is plenty to catch indexing bugs).
        let n = l.cell.w.value.data().len();
        for k in 0..12 {
            let idx = k * n / 12;
            let orig = l.cell.w.value.data()[idx];
            l.cell.w.value.data_mut()[idx] = orig + eps;
            let lp = scalar_loss(&l.forward_inference(&s));
            l.cell.w.value.data_mut()[idx] = orig - eps;
            let lm = scalar_loss(&l.forward_inference(&s));
            l.cell.w.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                "dW[{idx}]: fd {fd} vs analytic {an}"
            );
        }
    }

    /// Exhaustive finite-difference check of *every* element of the gate
    /// weight matrix on a tiny cell — the spot-check above samples 12
    /// elements; this closes the gap on a net small enough to afford it
    /// (w is (input+hidden) x 4*hidden = 4 x 8 here).
    #[test]
    fn bptt_full_weight_gradient_check_on_tiny_cell() {
        let mut l = Lstm::new(2, 2, 77);
        let s = seq(3, 2, 2, 500);
        let h = l.forward(&s);
        let _ = l.backward(&h.clone());
        let analytic = l.cell.w.grad.clone();
        let eps = 1e-6;
        for idx in 0..l.cell.w.value.data().len() {
            let orig = l.cell.w.value.data()[idx];
            l.cell.w.value.data_mut()[idx] = orig + eps;
            let lp = scalar_loss(&l.forward_inference(&s));
            l.cell.w.value.data_mut()[idx] = orig - eps;
            let lm = scalar_loss(&l.forward_inference(&s));
            l.cell.w.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                "dW[{idx}]: fd {fd} vs analytic {an}"
            );
        }
    }

    /// BPTT gradients accumulate across forward/backward rounds until
    /// explicitly zeroed (mirrors the optimizer contract `zero_grad`
    /// depends on).
    #[test]
    fn bptt_gradients_accumulate_across_rounds() {
        let mut l = Lstm::new(2, 3, 91);
        let s = seq(3, 1, 2, 600);
        let h = l.forward(&s);
        let _ = l.backward(&h.clone());
        let first = l.cell.w.grad.clone();
        let h = l.forward(&s);
        let _ = l.backward(&h.clone());
        for (a, b) in l.cell.w.grad.data().iter().zip(first.data()) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn bptt_bias_gradients_match_finite_differences() {
        let mut l = Lstm::new(2, 2, 33);
        let s = seq(4, 1, 2, 300);
        let h = l.forward(&s);
        let _ = l.backward(&h.clone());
        let analytic = l.cell.b.grad.clone();
        let eps = 1e-6;
        for idx in 0..l.cell.b.value.data().len() {
            let orig = l.cell.b.value.data()[idx];
            l.cell.b.value.data_mut()[idx] = orig + eps;
            let lp = scalar_loss(&l.forward_inference(&s));
            l.cell.b.value.data_mut()[idx] = orig - eps;
            let lm = scalar_loss(&l.forward_inference(&s));
            l.cell.b.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                "db[{idx}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn bptt_input_gradients_match_finite_differences() {
        let mut l = Lstm::new(2, 3, 55);
        let mut s = seq(3, 1, 2, 400);
        let h = l.forward(&s);
        let dxs = l.backward(&h.clone());
        let eps = 1e-6;
        for (t, dx) in dxs.iter().enumerate() {
            for idx in 0..dx.data().len() {
                let orig = s[t].data()[idx];
                s[t].data_mut()[idx] = orig + eps;
                let lp = scalar_loss(&l.forward_inference(&s));
                s[t].data_mut()[idx] = orig - eps;
                let lm = scalar_loss(&l.forward_inference(&s));
                s[t].data_mut()[idx] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = dx.data()[idx];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "dx[{t}][{idx}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let c = LstmCell::new(4, 3, 1);
        for j in 0..3 {
            assert_eq!(c.b.value.get(0, j), 0.0); // input gate
            assert_eq!(c.b.value.get(0, 3 + j), 1.0); // forget gate
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let mut l = Lstm::new(2, 2, 1);
        let _ = l.forward(&[]);
    }
}
