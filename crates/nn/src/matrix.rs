//! Dense row-major matrix with the operations the layers need.

use ap_rng::Rng;

/// A dense `rows x cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major slice.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1 x n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization, deterministic by seed.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Fill every element.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `self @ other` (matrix product).
    ///
    /// Every output element accumulates its `k` terms in strictly
    /// ascending order through the same IEEE mul-then-add sequence, with
    /// the same `a == 0.0` skip, as the naive ikj triple loop, so the
    /// result is **bit-identical** to it; the exec runtime's determinism
    /// tests rely on this. The product runs on the calling thread.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        product(self.operand(false), other.operand(false))
    }

    /// `selfᵀ @ other`: bit-identical to `self.transpose().matmul(other)`,
    /// without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        product(self.operand(true), other.operand(false))
    }

    /// `self @ otherᵀ`: bit-identical to `self.matmul(&other.transpose())`,
    /// without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        product(self.operand(false), other.operand(true))
    }

    /// This matrix, or its transpose, as a product operand.
    fn operand(&self, transposed: bool) -> Operand<'_> {
        let (rows, cols, rs, cs) = if transposed {
            (self.cols, self.rows, 1, self.cols)
        } else {
            (self.rows, self.cols, self.cols, 1)
        };
        Operand {
            data: &self.data,
            rows,
            cols,
            rs,
            cs,
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum into self.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise product (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Add a 1 x cols bias row to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[r * self.cols + c] += bias.data[c];
            }
        }
    }

    /// Column-wise sum producing a 1 x cols row (bias gradients).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Map every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
            data.extend_from_slice(&other.data[r * other.cols..(r + 1) * other.cols]);
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Split horizontally at column `at` into (left, right).
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols);
        let mut l = Matrix::zeros(self.rows, at);
        let mut r = Matrix::zeros(self.rows, self.cols - at);
        for row in 0..self.rows {
            l.data[row * at..(row + 1) * at]
                .copy_from_slice(&self.data[row * self.cols..row * self.cols + at]);
            r.data[row * (self.cols - at)..(row + 1) * (self.cols - at)]
                .copy_from_slice(&self.data[row * self.cols + at..(row + 1) * self.cols]);
        }
        (l, r)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// One `rows x cols` operand of [`product`]: element `(r, c)` is
/// `data[r * rs + c * cs]`. A matrix read as itself has `cs == 1`; read
/// transposed, `rs == 1`.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

/// Rows of the register block: `MR` rows of `a` share every load of `b`.
/// The `MR x NR` accumulators must stay in registers for the whole `k`
/// loop. 4 x 16 is 16 256-bit registers, which the 32-register AVX-512
/// file holds alongside the `b` operand and the `a` broadcast; a
/// 16-register AVX2 file spills it, and holds 2 x 16. The bits are the
/// same either way.
#[cfg(target_feature = "avx512f")]
const MR: usize = 4;
#[cfg(not(target_feature = "avx512f"))]
const MR: usize = 2;

/// Columns of the register block.
const NR: usize = 16;

/// Block width for a single row: one `NR`-wide row is only four
/// accumulator chains, too few to hide the add latency.
const WIDE: usize = 2 * NR;

/// The matrix product kernel: `a` (`m x k`) times `b` (`k x n`).
///
/// `b` is packed one `NR`-column panel at a time into `k` contiguous
/// groups of `NR` values, and `a` into `k` groups of (up to) `MR` values
/// per row block, so the micro-kernel reads both sequentially whatever
/// the operands' layout. Each `MR x NR` output block then accumulates in
/// registers for the whole `k` loop and is written once. `a` read
/// transposed is read in place: its groups are already contiguous. A
/// single row times a row-major `b` packs nothing at all: packing pays
/// back only through reuse.
///
/// The panel loop is outermost, so a packed panel stays in L1 while every
/// row block of `a` streams past it.
fn product(a: Operand, b: Operand) -> Matrix {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // Whether `a` holds an exact zero, i.e. whether any term can be skipped.
    let skip = a.data.iter().fold(false, |zero, &x| zero | (x == 0.0));
    if m == 1 && b.cs == 1 {
        // One row times a row-major `b`: nothing would reuse a packed
        // panel, so every block reads `b` in place, widest first.
        let mut j0 = 0;
        j0 = single_row::<WIDE>(a, b, skip, &mut out.data, j0);
        j0 = single_row::<NR>(a, b, skip, &mut out.data, j0);
        single_row::<1>(a, b, skip, &mut out.data, j0);
        return out;
    }
    let a_in_place = a.rs == 1;
    let a_packed = if a_in_place {
        Vec::new()
    } else {
        let mut packed = vec![0.0; m.div_ceil(MR) * MR * k];
        for (i0, dst) in (0..m).step_by(MR).zip(packed.chunks_exact_mut(MR * k)) {
            pack::<MR>(&a.data[i0 * a.rs..], a.rs, a.cs, (m - i0).min(MR), k, dst);
        }
        packed
    };
    let mut panel = vec![0.0; k * NR];
    for j0 in (0..n).step_by(NR) {
        let w = (n - j0).min(NR);
        pack::<NR>(&b.data[j0 * b.cs..], b.cs, b.rs, w, k, &mut panel);
        for i0 in (0..m).step_by(MR) {
            let (a_block, lda) = if a_in_place {
                (&a.data[i0 * a.rs..], a.cs)
            } else {
                (&a_packed[i0 * k..], MR)
            };
            let groups = Groups {
                a: a_block,
                lda,
                b: &panel,
                ldb: NR,
                k,
            };
            let dst = &mut out.data[i0 * n + j0..];
            // Arms wider than `MR` never match.
            match (m - i0).min(MR) {
                1 => tile::<1, NR>(groups, skip, dst, n, w),
                2 => tile::<2, NR>(groups, skip, dst, n, w),
                3 => tile::<3, NR>(groups, skip, dst, n, w),
                _ => tile::<MR, NR>(groups, skip, dst, n, w),
            }
        }
    }
    out
}

/// Compute the `C`-wide blocks of a single-row product from column `j0`
/// on, reading row-major `b` in place; returns the first column left.
fn single_row<const C: usize>(
    a: Operand,
    b: Operand,
    skip: bool,
    out: &mut [f64],
    j0: usize,
) -> usize {
    let mut j = j0;
    while j + C <= b.cols {
        let groups = Groups {
            a: a.data,
            lda: a.cs,
            b: &b.data[j..],
            ldb: b.rs,
            k: a.cols,
        };
        tile::<1, C>(groups, skip, &mut out[j..], b.cols, C);
        j += C;
    }
    j
}

/// Pack a `w x k` block into `k` groups of `W`: `dst[q * W + p]` is
/// element `(p, q)`, found at `src[p * ps + q * qs]`. Slots `w..W` of each
/// group keep whatever they held. Only `b` panels take the contiguous-copy
/// path: `a` is packed only when `a.rs != 1`, so its groups never are
/// contiguous runs.
fn pack<const W: usize>(src: &[f64], ps: usize, qs: usize, w: usize, k: usize, dst: &mut [f64]) {
    let dst = &mut dst[..k * W];
    if ps == 1 && w == W {
        // Each group is a contiguous run of the source: a fixed-size copy.
        for (q, group) in dst.chunks_exact_mut(W).enumerate() {
            group.copy_from_slice(&src[q * qs..][..W]);
        }
    } else {
        for p in 0..w {
            let line = src[p * ps..].iter().step_by(qs);
            for (group, &v) in dst.chunks_exact_mut(W).zip(line) {
                group[p] = v;
            }
        }
    }
}

/// The operands of one block of `R` rows and `C` columns: group `q` of
/// `a` is `a[q * lda..][..R]` (one value per row), group `q` of `b` is
/// `b[q * ldb..][..C]` (one per column), for `q < k`.
#[derive(Clone, Copy)]
struct Groups<'a> {
    a: &'a [f64],
    lda: usize,
    b: &'a [f64],
    ldb: usize,
    k: usize,
}

/// Compute one block and write its first `w` columns to `dst`, row `r`
/// at `dst[r * n..]`. `skip` says whether `a` holds a zero, which is when
/// the zero-term skip can fire.
fn tile<const R: usize, const C: usize>(
    groups: Groups,
    skip: bool,
    dst: &mut [f64],
    n: usize,
    w: usize,
) {
    let mut acc = [[0.0; C]; R];
    if skip {
        micro::<R, C, true>(groups, &mut acc);
    } else {
        micro::<R, C, false>(groups, &mut acc);
    }
    for (r, row) in acc.iter().enumerate() {
        let d = &mut dst[r * n..][..w];
        match <&mut [f64; C]>::try_from(&mut *d) {
            Ok(full) => *full = *row,
            Err(_) => d.copy_from_slice(&row[..w]),
        }
    }
}

/// The micro-kernel: `out[r][t] = Σ_q a(r, q) * b(q, t)` over the groups.
///
/// Each accumulator adds its `k` terms in ascending `q`, one IEEE
/// multiply then one add per term, skipping terms whose `a` value is
/// zero — exactly the naive ikj loop's sequence, so every element is
/// bit-identical to it. The skip must stay (`0.0 * inf` is NaN), but it
/// is compiled in only when `SKIP` is set: a product whose `a` holds no
/// zero runs a loop with no branch at all.
///
/// The shape is chosen for codegen, which is fragile here: kept out of
/// line, the block written through `out` once at the end, indexed loops,
/// no branch in the `SKIP = false` loop. Returning the block by value,
/// storing into the output matrix from here, iterator adapters or a
/// per-row branch in the common path each made LLVM spill, shuffle or
/// scalarize the accumulators (2-8x slower in release builds).
#[inline(never)]
fn micro<const R: usize, const C: usize, const SKIP: bool>(
    groups: Groups,
    out: &mut [[f64; C]; R],
) {
    let Groups { a, lda, b, ldb, k } = groups;
    let mut acc = [[0.0; C]; R];
    let a = &a[..(k - 1) * lda + R];
    let b = &b[..(k - 1) * ldb + C];
    for q in 0..k {
        let av: &[f64; R] = a[q * lda..q * lda + R].try_into().expect("R-long slice");
        let bv: &[f64; C] = b[q * ldb..q * ldb + C].try_into().expect("C-long slice");
        for r in 0..R {
            if SKIP && av[r] == 0.0 {
                continue;
            }
            for t in 0..C {
                acc[r][t] += av[r] * bv[t];
            }
        }
    }
    *out = acc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_case() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::xavier(3, 5, 1);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associates_with_transpose() {
        let a = Matrix::xavier(2, 4, 7);
        let b = Matrix::xavier(4, 3, 8);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert!((lhs.norm() - rhs.norm()).abs() < 1e-12);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint_shapes() {
        let mut x = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(vec![1.0, -2.0]);
        x.add_row_broadcast(&bias);
        assert_eq!(x.get(2, 1), -2.0);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[3.0, -6.0]);
    }

    #[test]
    fn hcat_hsplit_round_trip() {
        let a = Matrix::xavier(2, 3, 2);
        let b = Matrix::xavier(2, 4, 3);
        let cat = a.hcat(&b);
        assert_eq!((cat.rows(), cat.cols()), (2, 7));
        let (l, r) = cat.hsplit(3);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(10, 10, 42);
        let b = Matrix::xavier(10, 10, 42);
        assert_eq!(a, b);
        let bound = (6.0 / 20.0_f64).sqrt();
        assert!(a.data().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_and_hadamard() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[3.0, 4.5, 6.0]);
        let h = a.hadamard(&b);
        assert_eq!(h.data(), &[12.0, 22.5, 36.0]);
    }
}
