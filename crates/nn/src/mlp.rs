//! Sequential fully-connected network (Linear + activation stacks).

use crate::activation::{ActKind, Activation};
use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::Param;
use std::ops::Range;

/// Serializable snapshot of MLP weights (for offline-trained models).
#[derive(Debug, Clone)]
pub struct MlpWeights {
    /// Per-layer (weight, bias) pairs.
    pub layers: Vec<(Matrix, Matrix)>,
}

/// A multilayer perceptron: `sizes = [in, h1, ..., out]`, with the given
/// hidden activation and an identity output layer.
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    acts: Vec<Activation>,
}

impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp {
            layers: self.layers.clone(),
            acts: self.acts.clone(),
        }
    }

    /// Copies weights, gradients and caches into this network's existing
    /// buffers: a snapshot into a recycled network of the same shape
    /// allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
        self.acts.clone_from(&source.acts);
    }
}

impl Mlp {
    /// Build an MLP with Xavier init; deterministic by `seed`.
    pub fn new(sizes: &[usize], hidden_act: ActKind, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::new();
        let mut acts = Vec::new();
        for (i, w) in sizes.windows(2).enumerate() {
            layers.push(Linear::new(w[0], w[1], seed.wrapping_add(i as u64)));
            let last = i == sizes.len() - 2;
            acts.push(Activation::new(if last {
                ActKind::Identity
            } else {
                hidden_act
            }));
        }
        Mlp { layers, acts }
    }

    /// Assemble a network from explicit layers and per-layer activation
    /// kinds (the constructor the execution runtime uses when a stage
    /// receives migrated layers over the wire).
    pub fn from_parts(layers: Vec<Linear>, kinds: &[ActKind]) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        assert_eq!(layers.len(), kinds.len(), "one activation kind per layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].d_out(), w[1].d_in(), "adjacent layer width mismatch");
        }
        let acts = kinds.iter().map(|&k| Activation::new(k)).collect();
        Mlp { layers, acts }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.layers[0].d_in()
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.layers.last().unwrap().d_out()
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow layer `i`.
    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    /// Mutably borrow layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> &mut Linear {
        &mut self.layers[i]
    }

    /// The activation kind applied after layer `i`.
    pub fn act_kind(&self, i: usize) -> ActKind {
        self.acts[i].kind
    }

    /// The cached input of layer `i` from the most recent caching forward
    /// pass through it, if any. The execution runtime ships this
    /// activation alongside a stashed weight copy during a live layer
    /// migration so the receiver can rebuild backward state.
    pub fn layer_input(&self, i: usize) -> Option<&Matrix> {
        self.layers[i].cached_input()
    }

    /// Clone the contiguous sub-network `r` (layer indices), preserving
    /// each layer's weights and activation kind. Caches are not carried
    /// over: the slice starts cold.
    pub fn slice(&self, r: Range<usize>) -> Mlp {
        assert!(r.start < r.end && r.end <= self.layers.len(), "bad range");
        let layers: Vec<Linear> = self.layers[r.clone()]
            .iter()
            .map(Linear::cold_clone)
            .collect();
        let kinds: Vec<ActKind> = self.acts[r].iter().map(|a| a.kind).collect();
        Mlp::from_parts(layers, &kinds)
    }

    /// Forward pass, caching for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_range(0..self.layers.len(), x)
    }

    /// Forward through layers `r` only (caching), feeding `x` into layer
    /// `r.start`. Returns the activation leaving layer `r.end - 1`.
    pub fn forward_range(&mut self, r: Range<usize>, x: &Matrix) -> Matrix {
        self.forward_range_owned(r, x.clone())
    }

    /// Forward through layers `r` taking ownership of the input: per
    /// layer, the input lands in the cache without a defensive clone, and
    /// each output reuses the buffer of the cache it replaces.
    /// Bit-identical to [`Mlp::forward_range`] — the execution runtime's
    /// hot path uses this so a warm network allocates nothing.
    pub fn forward_range_owned(&mut self, r: Range<usize>, x: Matrix) -> Matrix {
        assert!(r.start < r.end && r.end <= self.layers.len(), "bad range");
        let mut h = x;
        for i in r {
            h = self.acts[i].forward_owned(self.layers[i].forward_owned(h));
        }
        h
    }

    /// Inference-only forward.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (l, a) in self.layers.iter().zip(&self.acts) {
            h = l.forward_inference(&h);
            h = h.map(|v| a.kind.apply(v));
        }
        h
    }

    /// Backward pass; returns dL/dx.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_range(0..self.layers.len(), grad_out)
    }

    /// Backward through layers `r` only (in reverse), starting from the
    /// gradient w.r.t. the output of layer `r.end - 1`. Accumulates
    /// parameter gradients for those layers and returns the gradient
    /// w.r.t. the input of layer `r.start`.
    pub fn backward_range(&mut self, r: Range<usize>, grad_out: &Matrix) -> Matrix {
        self.backward_range_owned(r, grad_out.clone(), true)
            .expect("input gradient requested")
    }

    /// Backward through layers `r` taking ownership of the gradient:
    /// activations scale it in place, each layer's input gradient is
    /// written into a recycled buffer and the spent one is recycled
    /// ([`Matrix::recycle`]), so a warm pass allocates nothing.
    /// Bit-identical to [`Mlp::backward_range`]. With `input_grad` false,
    /// layer `r.start` only accumulates its parameter gradients and the
    /// product that would feed nothing is skipped: the result is `None`.
    pub fn backward_range_owned(
        &mut self,
        r: Range<usize>,
        mut g: Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        assert!(r.start < r.end && r.end <= self.layers.len(), "bad range");
        for i in r.clone().rev() {
            self.acts[i].backward_in_place(&mut g);
            let layer = &mut self.layers[i];
            layer.accumulate_grads(&g);
            if i == r.start && !input_grad {
                g.recycle();
                return None;
            }
            let mut dx = Matrix::scratch(0, 0);
            layer.input_grad_into(&g, &mut dx);
            std::mem::replace(&mut g, dx).recycle();
        }
        Some(g)
    }

    /// All parameters for an optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.w.zero_grad();
            l.b.zero_grad();
        }
    }

    /// Snapshot weights (e.g. after offline training).
    pub fn weights(&self) -> MlpWeights {
        MlpWeights {
            layers: self
                .layers
                .iter()
                .map(|l| (l.w.value.clone(), l.b.value.clone()))
                .collect(),
        }
    }

    /// Load a snapshot (shapes must match).
    pub fn load(&mut self, w: &MlpWeights) {
        assert_eq!(w.layers.len(), self.layers.len(), "layer count mismatch");
        for (l, (wv, bv)) in self.layers.iter_mut().zip(&w.layers) {
            assert_eq!(
                (l.w.value.rows(), l.w.value.cols()),
                (wv.rows(), wv.cols()),
                "weight shape mismatch"
            );
            l.w.value = wv.clone();
            l.b.value = bv.clone();
        }
    }

    /// Freeze all layers except the last `k` (transfer-learning style
    /// online adaptation, §4.3: "employ transfer learning to swiftly adjust
    /// the meta-network and RL model to the current environment").
    /// Returns the trainable parameters only.
    pub fn head_params_mut(&mut self, k: usize) -> Vec<&mut Param> {
        let n = self.layers.len();
        let start = n.saturating_sub(k);
        self.layers[start..]
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use crate::optim::{Optimizer, Sgd};

    #[test]
    fn shapes_and_determinism() {
        let mut m = Mlp::new(&[4, 8, 2], ActKind::Relu, 7);
        let x = Matrix::xavier(3, 4, 1);
        let y1 = m.forward(&x);
        let y2 = m.forward_inference(&x);
        assert_eq!((y1.rows(), y1.cols()), (3, 2));
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(m.d_in(), 4);
        assert_eq!(m.d_out(), 2);
    }

    #[test]
    fn learns_xor() {
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let t = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut m = Mlp::new(&[2, 8, 1], ActKind::Tanh, 4);
        let mut opt = Sgd::new(0.5, 0.9);
        let mut last = f64::INFINITY;
        for _ in 0..2000 {
            m.zero_grad();
            let y = m.forward(&x);
            let (l, g) = mse_loss(&y, &t);
            m.backward(&g);
            opt.step(&mut m.params_mut());
            last = l;
        }
        assert!(last < 0.01, "xor did not converge: {last}");
    }

    #[test]
    fn weights_round_trip() {
        let m = Mlp::new(&[3, 5, 1], ActKind::Relu, 9);
        let w = m.weights();
        let mut m2 = Mlp::new(&[3, 5, 1], ActKind::Relu, 999);
        m2.load(&w);
        let x = Matrix::xavier(2, 3, 4);
        let a = m.forward_inference(&x);
        let b = m2.forward_inference(&x);
        for (p, q) in a.data().iter().zip(b.data()) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn head_params_selects_last_layers() {
        let mut m = Mlp::new(&[3, 5, 4, 1], ActKind::Relu, 9);
        assert_eq!(m.params_mut().len(), 6); // 3 layers x (w, b)
        assert_eq!(m.head_params_mut(1).len(), 2);
        assert_eq!(m.head_params_mut(2).len(), 4);
        assert_eq!(m.head_params_mut(99).len(), 6);
    }

    /// Finite-difference check of every weight and bias element in every
    /// layer of a three-layer net (the cross-layer chain-rule path, not
    /// just the head).
    #[test]
    fn full_mlp_gradient_check() {
        let mut m = Mlp::new(&[3, 4, 3, 2], ActKind::Tanh, 4);
        let x = Matrix::xavier(2, 3, 5);
        let t = Matrix::xavier(2, 2, 6);
        m.zero_grad();
        let y = m.forward(&x);
        let (_, g) = mse_loss(&y, &t);
        m.backward(&g);
        let eps = 1e-6;
        for li in 0..m.n_layers() {
            for (pname, pick) in [
                ("w", 0usize), // weight matrix
                ("b", 1usize), // bias row
            ] {
                let n = {
                    let l = m.layer(li);
                    let p = if pick == 0 { &l.w } else { &l.b };
                    p.value.data().len()
                };
                for idx in 0..n {
                    let an = {
                        let l = m.layer(li);
                        let p = if pick == 0 { &l.w } else { &l.b };
                        p.grad.data()[idx]
                    };
                    let bump = |m: &mut Mlp, d: f64| {
                        let l = m.layer_mut(li);
                        let p = if pick == 0 { &mut l.w } else { &mut l.b };
                        p.value.data_mut()[idx] += d;
                    };
                    bump(&mut m, eps);
                    let (lp, _) = mse_loss(&m.forward_inference(&x), &t);
                    bump(&mut m, -2.0 * eps);
                    let (lm, _) = mse_loss(&m.forward_inference(&x), &t);
                    bump(&mut m, eps);
                    let fd = (lp - lm) / (2.0 * eps);
                    assert!(
                        (fd - an).abs() < 1e-6,
                        "layer {li} {pname}[{idx}]: fd {fd} vs an {an}"
                    );
                }
            }
        }
    }

    /// Parameter gradients accumulate across backward calls (the repeated
    /// 1F1B backward path relies on explicit `zero_grad`).
    #[test]
    fn mlp_gradients_accumulate_across_backwards() {
        let mut m = Mlp::new(&[3, 4, 2], ActKind::Tanh, 8);
        let x = Matrix::xavier(2, 3, 9);
        let t = Matrix::xavier(2, 2, 10);
        m.zero_grad();
        let y = m.forward(&x);
        let (_, g) = mse_loss(&y, &t);
        m.backward(&g);
        let first = m.layer(0).w.grad.clone();
        let y = m.forward(&x);
        let (_, g) = mse_loss(&y, &t);
        m.backward(&g);
        for (a, b) in m.layer(0).w.grad.data().iter().zip(first.data()) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    /// A mid-network slice keeps the hidden activation of its last layer
    /// (not identity), and forwarding through two slices reproduces the
    /// full network exactly.
    #[test]
    fn slices_compose_to_full_forward() {
        let m = Mlp::new(&[3, 5, 4, 2], ActKind::Relu, 11);
        let lo = m.slice(0..2);
        let hi = m.slice(2..3);
        assert_eq!(lo.act_kind(1), ActKind::Relu, "hidden act must survive");
        assert_eq!(hi.act_kind(0), ActKind::Identity);
        let x = Matrix::xavier(2, 3, 12);
        let full = m.forward_inference(&x);
        let split = hi.forward_inference(&lo.forward_inference(&x));
        for (a, b) in full.data().iter().zip(split.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// forward_range/backward_range over a stage split produce the same
    /// parameter gradients and input gradient as one full pass.
    #[test]
    fn range_passes_match_full_passes() {
        let sizes = [3usize, 5, 4, 2];
        let x = Matrix::xavier(2, 3, 13);
        let t = Matrix::xavier(2, 2, 14);

        let mut full = Mlp::new(&sizes, ActKind::Tanh, 15);
        full.zero_grad();
        let y = full.forward(&x);
        let (_, g) = mse_loss(&y, &t);
        let dx_full = full.backward(&g);

        let mut split = Mlp::new(&sizes, ActKind::Tanh, 15);
        split.zero_grad();
        let mid = split.forward_range(0..2, &x);
        let y2 = split.forward_range(2..3, &mid);
        for (a, b) in y.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-12, "forward drifted");
        }
        let (_, g2) = mse_loss(&y2, &t);
        let gm = split.backward_range(2..3, &g2);
        let dx_split = split.backward_range(0..2, &gm);

        for (a, b) in dx_full.data().iter().zip(dx_split.data()) {
            assert!((a - b).abs() < 1e-12, "input gradient drifted");
        }
        for li in 0..3 {
            for (a, b) in full
                .layer(li)
                .w
                .grad
                .data()
                .iter()
                .zip(split.layer(li).w.grad.data())
            {
                assert!((a - b).abs() < 1e-12, "layer {li} weight grad drifted");
            }
            for (a, b) in full
                .layer(li)
                .b
                .grad
                .data()
                .iter()
                .zip(split.layer(li).b.grad.data())
            {
                assert!((a - b).abs() < 1e-12, "layer {li} bias grad drifted");
            }
        }
    }

    /// The owned forward path is bit-identical to the borrowing one,
    /// including the caches backward reads.
    #[test]
    fn owned_forward_matches_borrowed_forward_bitwise() {
        let sizes = [3usize, 5, 4, 2];
        let x = Matrix::xavier(2, 3, 21);
        let t = Matrix::xavier(2, 2, 22);

        let mut a = Mlp::new(&sizes, ActKind::Tanh, 23);
        let mut b = Mlp::new(&sizes, ActKind::Tanh, 23);
        a.zero_grad();
        b.zero_grad();
        let ya = a.forward_range(0..3, &x);
        let yb = b.forward_range_owned(0..3, x.clone());
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert_eq!(p.to_bits(), q.to_bits(), "forward bits drifted");
        }
        let (_, g) = mse_loss(&ya, &t);
        let da = a.backward_range(0..3, &g);
        let db = b.backward_range(0..3, &g);
        for (p, q) in da.data().iter().zip(db.data()) {
            assert_eq!(p.to_bits(), q.to_bits(), "backward bits drifted");
        }
        for li in 0..3 {
            for (p, q) in a
                .layer(li)
                .w
                .grad
                .data()
                .iter()
                .zip(b.layer(li).w.grad.data())
            {
                assert_eq!(p.to_bits(), q.to_bits(), "layer {li} grad bits drifted");
            }
        }
    }

    /// Slices carry weights, and `from_parts` rejects incompatible shapes.
    #[test]
    #[should_panic(expected = "adjacent layer width mismatch")]
    fn from_parts_rejects_width_mismatch() {
        let a = Linear::new(3, 4, 1);
        let b = Linear::new(5, 2, 2);
        let _ = Mlp::from_parts(vec![a, b], &[ActKind::Relu, ActKind::Identity]);
    }
}
