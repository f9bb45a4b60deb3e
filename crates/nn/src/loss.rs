//! Loss functions. Each returns `(loss, dL/dprediction)`.

use crate::matrix::Matrix;

/// Mean squared error over all elements. The gradient's storage is a
/// recycled buffer ([`Matrix::scratch`]) when this thread has one.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    let n = pred.data().len() as f64;
    let mut grad = Matrix::scratch(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// Row-wise softmax.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row: Vec<f64> = (0..logits.cols()).map(|c| logits.get(r, c)).collect();
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = row.iter().map(|&v| (v - m).exp()).collect();
        let s: f64 = exps.iter().sum();
        for (c, e) in exps.iter().enumerate() {
            out.set(r, c, e / s);
        }
    }
    out
}

/// Softmax cross-entropy with integer class targets; returns mean loss and
/// the gradient w.r.t. the logits (`softmax - onehot`, scaled by 1/batch).
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[usize]) -> (f64, Matrix) {
    assert_eq!(logits.rows(), targets.len(), "target count mismatch");
    let probs = softmax(logits);
    let batch = logits.rows() as f64;
    let mut grad = probs.clone();
    let mut loss = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target class out of range");
        loss -= probs.get(r, t).max(1e-300).ln();
        grad.set(r, t, grad.get(r, t) - 1.0);
    }
    for v in grad.data_mut() {
        *v /= batch;
    }
    (loss / batch, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let p = Matrix::row_vector(vec![1.0, 2.0]);
        let (l, g) = mse_loss(&p, &p);
        assert_eq!(l, 0.0);
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let p = Matrix::row_vector(vec![0.3, -0.7, 1.2]);
        let t = Matrix::row_vector(vec![0.0, 0.0, 1.0]);
        let (_, g) = mse_loss(&p, &t);
        let eps = 1e-6;
        for i in 0..3 {
            let mut pp = p.clone();
            pp.data_mut()[i] += eps;
            let (lp, _) = mse_loss(&pp, &t);
            pp.data_mut()[i] -= 2.0 * eps;
            let (lm, _) = mse_loss(&pp, &t);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let l = Matrix::from_vec(2, 3, vec![1000.0, 1001.0, 1002.0, -5.0, 0.0, 5.0]);
        let p = softmax(&l);
        for r in 0..2 {
            let s: f64 = (0..3).map(|c| p.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!((0..3).all(|c| p.get(r, c).is_finite()));
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.2, -0.1, 0.5, 1.0, 0.0, -1.0]);
        let targets = [2usize, 0];
        let (_, g) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-6;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let (a, _) = softmax_cross_entropy(&lp, &targets);
            lp.data_mut()[i] -= 2.0 * eps;
            let (b, _) = softmax_cross_entropy(&lp, &targets);
            let fd = (a - b) / (2.0 * eps);
            assert!(
                (fd - g.data()[i]).abs() < 1e-6,
                "logit {i}: fd {fd} vs {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn perfect_prediction_has_low_ce() {
        let logits = Matrix::from_vec(1, 2, vec![20.0, -20.0]);
        let (l, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(l < 1e-9);
    }
}
