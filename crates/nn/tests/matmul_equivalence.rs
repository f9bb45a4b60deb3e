//! The packed `matmul` kernel and its transposed-operand forms must be
//! **bit-identical** to the naive ikj triple loop: the exec runtime's
//! sequential-SGD and cross-thread determinism guarantees are built on
//! every stage computing the exact same bits regardless of kernel
//! blocking, operand layout or `AP_PAR_THREADS`.

use ap_nn::activation::sigmoid;
use ap_nn::{Linear, Lstm, Matrix};

/// The original serial kernel, kept verbatim as the reference semantics
/// (including the `a == 0.0` skip, which affects NaN propagation).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

fn assert_bits_equal(x: &Matrix, y: &Matrix, label: &str) {
    assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{label}: shape");
    for (i, (a, b)) in x.data().iter().zip(y.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} differs: {a} vs {b}"
        );
    }
}

/// `a @ b` through all three entry points — `matmul`, `t_matmul` on
/// `aᵀ`, `matmul_t` on `bᵀ` — against the naive loop, and each
/// transposed form also against `matmul` of the materialized transpose.
fn assert_all_forms(a: &Matrix, b: &Matrix, label: &str) {
    let want = naive_matmul(a, b);
    let (at, bt) = (a.transpose(), b.transpose());
    assert_bits_equal(&a.matmul(b), &want, &format!("{label} matmul"));
    assert_bits_equal(&at.t_matmul(b), &want, &format!("{label} t_matmul"));
    assert_bits_equal(&a.matmul_t(&bt), &want, &format!("{label} matmul_t"));
    assert_bits_equal(
        &at.t_matmul(b),
        &at.transpose().matmul(b),
        &format!("{label} t_matmul vs transpose().matmul"),
    );
    assert_bits_equal(
        &a.matmul_t(&bt),
        &a.matmul(&bt.transpose()),
        &format!("{label} matmul_t vs matmul(transpose())"),
    );
}

/// Odd shapes, exec-runtime shapes, and the perfbench `train` shape.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 7, 5),
    (17, 33, 9),
    (1, 129, 1),
    (61, 1, 61),
    (32, 96, 128),
    (128, 128, 128),
    (129, 65, 130),
    (160, 161, 87),
];

#[test]
fn blocked_matmul_bit_identical_to_naive_across_odd_shapes() {
    for &(m, k, n) in SHAPES {
        let a = Matrix::xavier(m, k, 0xA5A5 + m as u64);
        let b = Matrix::xavier(k, n, 0x5A5A + n as u64);
        assert_all_forms(&a, &b, &format!("{m}x{k}x{n}"));
    }
}

fn digest(m: &Matrix) -> u64 {
    // FNV-1a over the exact bit patterns.
    let mut h: u64 = 0xcbf29ce484222325;
    for v in m.data() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn child_digest() -> u64 {
    // Big enough that a thread fan-out inside the kernel, should one ever
    // return, would split it at every thread count > 1.
    let a = Matrix::xavier(160, 161, 1);
    let b = Matrix::xavier(161, 87, 2);
    digest(&a.matmul(&b))
}

/// `AP_PAR_THREADS` is latched once per process, so covering several
/// values requires re-executing this test binary as a child with the
/// variable set; each child prints its result digest and the parent
/// asserts they all agree (and match the in-process value).
#[test]
fn matmul_digest_stable_across_thread_counts() {
    if std::env::var("AP_MATMUL_CHILD").is_ok() {
        println!("matmul-digest={:016x}", child_digest());
        return;
    }
    let here = child_digest();
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "3", "16"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "matmul_digest_stable_across_thread_counts",
                "--nocapture",
            ])
            .env("AP_MATMUL_CHILD", "1")
            .env("AP_PAR_THREADS", threads)
            .output()
            .expect("spawn child test");
        assert!(out.status.success(), "child failed for {threads} threads");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // libtest may glue the println onto its own "test ..." line, so
        // search within lines rather than anchoring at the start.
        let got = stdout
            .lines()
            .find_map(|l| l.split("matmul-digest=").nth(1))
            .map(|rest| rest.split_whitespace().next().unwrap_or(""))
            .unwrap_or_else(|| {
                panic!(
                    "no digest line in child output.\nstdout:\n{stdout}\nstderr:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                )
            });
        let got = u64::from_str_radix(got.trim(), 16).expect("hex digest");
        assert_eq!(got, here, "AP_PAR_THREADS={threads} changed matmul bits");
    }
}

/// Every row-block remainder (`m` across two 4-row blocks), every panel
/// remainder around the 16-column panel, and the degenerate `k`.
#[test]
fn micro_tile_edges_match_naive() {
    for m in 1..=9 {
        for n in [1, 15, 16, 17, 33] {
            for k in [0, 1, 2, 5] {
                let a = Matrix::xavier(m, k, 31 + (m * 100 + k) as u64);
                let b = Matrix::xavier(k, n, 37 + (n * 100 + k) as u64);
                assert_all_forms(&a, &b, &format!("{m}x{k}x{n}"));
            }
        }
    }
}

/// The single-sample products the learned components run: forward
/// `1 x k` rows through each layer, and the backward outer products
/// (`k x 1 x n`) and row-times-transposed-weight products.
#[test]
fn row_vector_products_match_naive() {
    // (d_in, d_out) per layer: the arbiter MLP (6 -> 32 -> 16 -> 2), the
    // switch-cost MLP (5 -> 16 -> 8 -> 1), the meta-net head
    // (24 + 43 -> 64 -> 32 -> 1) and its LSTM gates ((24 + 16) -> 4 * 24).
    let layers = [
        (6, 32),
        (32, 16),
        (16, 2),
        (5, 16),
        (16, 8),
        (8, 1),
        (67, 64),
        (64, 32),
        (32, 1),
        (40, 96),
    ];
    for (d_in, d_out) in layers {
        let x = Matrix::xavier(1, d_in, 3 + d_in as u64);
        let w = Matrix::xavier(d_in, d_out, 5 + d_out as u64);
        let g = Matrix::xavier(1, d_out, 7 + d_out as u64);
        assert_all_forms(&x, &w, &format!("forward 1x{d_in}x{d_out}"));
        assert_all_forms(&x.transpose(), &g, &format!("dW {d_in}x1x{d_out}"));
        assert_all_forms(&g, &w.transpose(), &format!("dx 1x{d_out}x{d_in}"));
    }
}

#[test]
fn zero_skip_semantics_are_preserved() {
    // Sprinkle exact zeros into the left operand: the kernel's zero-skip
    // must fire identically in packed and naive form (a 0.0 * inf would
    // otherwise produce NaN in one and not the other).
    for &(m, k, n) in SHAPES {
        let mut a = Matrix::xavier(m, k, 17);
        for idx in (0..m * k).step_by(3) {
            a.data_mut()[idx] = 0.0;
        }
        let mut b = Matrix::xavier(k, n, 18);
        if k * n > 4 {
            b.data_mut()[1] = f64::INFINITY;
        }
        assert_all_forms(&a, &b, &format!("{m}x{k}x{n} zeros"));
    }
}

/// `-0.0` must skip like `0.0`; `inf` and `NaN` in either operand must
/// propagate exactly as the naive loop propagates them — with and without
/// zeros elsewhere in `a` (the kernel compiles the skip in only when `a`
/// holds a zero), and in rows where some of a 4-row block's `a` values
/// are zero and some are not.
#[test]
fn signed_zero_inf_and_nan_match_naive() {
    let specials = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for &(m, k, n) in &[(5, 7, 17), (4, 16, 16), (1, 9, 33), (9, 1, 3)] {
        for (si, &sa) in specials.iter().enumerate() {
            for &sb in &specials {
                for zero_row in [false, true] {
                    let mut a = Matrix::xavier(m, k, 41 + si as u64);
                    let mut b = Matrix::xavier(k, n, 43);
                    // `sa` lands in a different row and column of `a` at
                    // every step.
                    for idx in (si % k..m * k).step_by(k + 1) {
                        a.data_mut()[idx] = sa;
                    }
                    if zero_row {
                        for c in (0..k).step_by(2) {
                            a.set(0, c, -0.0);
                        }
                    }
                    // `sb` on row 0 of `b`, and on the last column of the
                    // last row, which a zero-skipped row 0 of `a` multiplies.
                    b.set(0, n / 2, sb);
                    b.set(k - 1, n - 1, sb);
                    let label = format!("{m}x{k}x{n} a:{sa} b:{sb} zero row:{zero_row}");
                    assert_all_forms(&a, &b, &label);
                }
            }
        }
    }
}

/// The gradients `Linear::backward` accumulates and returns are the bits
/// the `transpose().matmul()` formulation produced.
#[test]
fn linear_backward_matches_transpose_then_matmul() {
    for &(batch, d_in, d_out) in &[(1, 6, 32), (3, 5, 17), (32, 128, 128), (128, 128, 128)] {
        let mut layer = Linear::new(d_in, d_out, 9);
        let x = Matrix::xavier(batch, d_in, 10);
        let g = Matrix::xavier(batch, d_out, 11);
        let _ = layer.forward(&x);
        let dx = layer.backward(&g);
        let label = format!("linear {batch}x{d_in}->{d_out}");
        let dw = x.transpose().matmul(&g);
        assert_bits_equal(&layer.w.grad, &dw, &format!("{label} dW"));
        let dx_old = g.matmul(&layer.w.value.transpose());
        assert_bits_equal(&dx, &dx_old, &format!("{label} dx"));
    }
}

/// Forward and BPTT of an LSTM written out with materialized transposes:
/// the arithmetic `Lstm::backward` performed before it read transposed
/// operands in place. Returns (dW, db, per-step dx).
fn lstm_reference(lstm: &Lstm, seq: &[Matrix], grad_h: &Matrix) -> (Matrix, Matrix, Vec<Matrix>) {
    let (w, b) = (&lstm.cell.w.value, &lstm.cell.b.value);
    let hn = lstm.cell.hidden();
    let batch = seq[0].rows();
    let mut h = Matrix::zeros(batch, hn);
    let mut c = h.clone();
    // Per step: (z, i, f, g, o, c_prev, tanh_c).
    let mut steps = Vec::new();
    for x in seq {
        let z = h.hcat(x);
        let mut a = z.matmul(w);
        a.add_row_broadcast(b);
        let gate = |off: usize, f: fn(f64) -> f64| {
            let mut m = Matrix::zeros(batch, hn);
            for r in 0..batch {
                for j in 0..hn {
                    m.set(r, j, f(a.get(r, off + j)));
                }
            }
            m
        };
        let (i, f, g, o) = (
            gate(0, sigmoid),
            gate(hn, sigmoid),
            gate(2 * hn, f64::tanh),
            gate(3 * hn, sigmoid),
        );
        let mut c_new = f.hadamard(&c);
        c_new.add_assign(&i.hadamard(&g));
        let tanh_c = c_new.map(f64::tanh);
        h = o.hadamard(&tanh_c);
        steps.push((z, i, f, g, o, c, tanh_c));
        c = c_new;
    }
    let mut dw = Matrix::zeros(w.rows(), w.cols());
    let mut db = Matrix::zeros(1, w.cols());
    let mut dh = grad_h.clone();
    let mut dc = Matrix::zeros(batch, hn);
    let mut dxs = vec![Matrix::zeros(0, 0); seq.len()];
    for (t, (z, i, f, g, o, c_prev, tanh_c)) in steps.iter().enumerate().rev() {
        let one_minus_t2 = tanh_c.map(|v| 1.0 - v * v);
        dc.add_assign(&dh.hadamard(o).hadamard(&one_minus_t2));
        let da_i = dc.hadamard(g).hadamard(&i.map(|v| v * (1.0 - v)));
        let da_f = dc.hadamard(c_prev).hadamard(&f.map(|v| v * (1.0 - v)));
        let da_g = dc.hadamard(i).hadamard(&g.map(|v| 1.0 - v * v));
        let da_o = dh.hadamard(tanh_c).hadamard(&o.map(|v| v * (1.0 - v)));
        let da = da_i.hcat(&da_f).hcat(&da_g).hcat(&da_o);
        dw.add_assign(&z.transpose().matmul(&da));
        db.add_assign(&da.sum_rows());
        let (dh_prev, dx) = da.matmul(&w.transpose()).hsplit(hn);
        dxs[t] = dx;
        dh = dh_prev;
        dc = dc.hadamard(f);
    }
    (dw, db, dxs)
}

#[test]
fn lstm_backward_matches_transpose_then_matmul() {
    for &(t_steps, batch, input, hidden) in &[(8, 1, 16, 24), (3, 5, 7, 9), (4, 2, 3, 16)] {
        let mut lstm = Lstm::new(input, hidden, 21);
        let seq: Vec<Matrix> = (0..t_steps)
            .map(|t| Matrix::xavier(batch, input, 100 + t as u64))
            .collect();
        let grad_h = Matrix::xavier(batch, hidden, 7);
        let (dw, db, dxs) = lstm_reference(&lstm, &seq, &grad_h);
        let _ = lstm.forward(&seq);
        let got_dxs = lstm.backward(&grad_h);
        let label = format!("lstm T={t_steps} batch={batch} {input}->{hidden}");
        assert_bits_equal(&lstm.cell.w.grad, &dw, &format!("{label} dW"));
        assert_bits_equal(&lstm.cell.b.grad, &db, &format!("{label} db"));
        for (t, (got, want)) in got_dxs.iter().zip(&dxs).enumerate() {
            assert_bits_equal(got, want, &format!("{label} dx[{t}]"));
        }
    }
}
