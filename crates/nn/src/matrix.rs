//! Dense row-major matrix with the operations the layers need.

use ap_rng::Rng;
use std::cell::RefCell;

/// A dense `rows x cols` matrix of `f64`, row-major.
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies into the existing allocation (growing it only if `source`
    /// is larger), so a warm copy allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

thread_local! {
    /// Matrix buffers this thread has finished with, for [`Matrix::scratch`].
    static FREE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Most buffers a thread's free list keeps; [`Matrix::recycle`] drops
/// the rest.
const FREE_MAX: usize = 16;

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix for a caller that overwrites every element.
    /// Its storage is a buffer this thread passed to [`Matrix::recycle`],
    /// when one is free, so its values are whatever that buffer last
    /// held.
    pub fn scratch(rows: usize, cols: usize) -> Self {
        let mut data = FREE.with_borrow_mut(Vec::pop).unwrap_or_default();
        data.resize(rows * cols, 0.0);
        Matrix { rows, cols, data }
    }

    /// Hand this matrix's storage to the current thread's free list, for
    /// a later [`Matrix::scratch`]. A steady training loop that recycles
    /// what it is done with stops allocating.
    pub fn recycle(self) {
        if self.data.capacity() > 0 {
            FREE.with_borrow_mut(|free| {
                if free.len() < FREE_MAX {
                    // Sized once, so recycling never allocates.
                    free.reserve_exact(FREE_MAX - free.len());
                    free.push(self.data);
                }
            });
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
        // Empty: the product sizes it, which for the tiny single-row
        // outputs is measurably cheaper than a zeroed (calloc) buffer.
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` written into `out`, which takes the product's shape
    /// and keeps its allocation: bit-identical to [`Matrix::matmul`].
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        product(self.operand(false), other.operand(false), out, false);
    }

    /// `selfᵀ @ other`: bit-identical to `self.transpose().matmul(other)`,
    /// without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        product(self.operand(true), other.operand(false), &mut out, false);
        out
    }

    /// `acc += selfᵀ @ other`: bit-identical to
    /// `acc.add_assign(&self.t_matmul(other))`, without the temporary
    /// product (each element is added once, as the kernel stores it).
    pub fn t_matmul_acc(&self, other: &Matrix, acc: &mut Matrix) {
        product(self.operand(true), other.operand(false), acc, true);
    }

    /// `self @ otherᵀ`: bit-identical to `self.matmul(&other.transpose())`,
    /// without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `self @ otherᵀ` written into `out`, which takes the product's
    /// shape and keeps its allocation: bit-identical to
    /// [`Matrix::matmul_t`].
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        product(self.operand(false), other.operand(true), out, false);
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

    /// `self += other.sum_rows()`, bit-identically, without the temporary
    /// row: each column's sum still starts at `0.0` and adds the rows in
    /// order before it is added to `self`.
    pub fn add_sum_rows(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (1, other.cols));
        const W: usize = 16;
        if other.cols == 0 {
            return;
        }
        for (c0, dst) in (0..other.cols).step_by(W).zip(self.data.chunks_mut(W)) {
            let mut sum = [0.0; W];
            for row in other.data.chunks_exact(other.cols) {
                for (s, &v) in sum.iter_mut().zip(&row[c0..c0 + dst.len()]) {
                    *s += v;
                }
            }
            for (d, s) in dst.iter_mut().zip(&sum) {
                *d += s;
            }
        }
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

/// A vector of accumulators the micro-kernel is written against: `N`
/// `f64`s updated as one. The kernel body is generic over it, so the
/// 512-bit build and the portable one run the same loop.
trait Lane: Copy {
    /// `f64`s per lane.
    const N: usize;
    fn zero() -> Self;
    /// Every slot `x`.
    fn splat(x: f64) -> Self;
    /// The first `N` values of `src`.
    fn load(src: &[f64]) -> Self;
    /// The first `V * N` values of `src`, as `V` lanes.
    #[inline(always)]
    fn load_row<const V: usize>(src: &[f64]) -> [Self; V] {
        let src = &src[..V * Self::N];
        let mut row = [Self::zero(); V];
        for (v, lane) in row.iter_mut().enumerate() {
            *lane = Self::load(&src[v * Self::N..]);
        }
        row
    }
    /// `self + a * b` per slot: an IEEE multiply, then an IEEE add.
    /// Never fused, so the bits are the scalar expression's.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Write the `N` slots to the front of `dst`.
    fn store(self, dst: &mut [f64]);
}

/// The portable lane: one `f64`. A row of them is a plain array loop,
/// which LLVM vectorizes to whatever width the target prefers.
impl Lane for f64 {
    const N: usize = 1;

    #[inline(always)]
    fn zero() -> Self {
        0.0
    }

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        src[0]
    }

    /// One fixed-size copy, the row load the portable kernel's codegen
    /// was tuned with.
    #[inline(always)]
    fn load_row<const V: usize>(src: &[f64]) -> [Self; V] {
        *<&[f64; V]>::try_from(&src[..V]).expect("V-long slice")
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[0] = self;
    }
}

/// One 512-bit register of eight `f64`s. LLVM prefers 256-bit vectors
/// even where AVX-512 is enabled, so the packed kernel names the
/// register width itself instead of relying on autovectorization.
#[cfg(target_feature = "avx512f")]
#[derive(Clone, Copy)]
struct Zmm(std::arch::x86_64::__m512d);

#[cfg(target_feature = "avx512f")]
impl Lane for Zmm {
    const N: usize = 8;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY (every intrinsic here): this build enables AVX-512F.
        Zmm(unsafe { std::arch::x86_64::_mm512_setzero_pd() })
    }

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Zmm(unsafe { std::arch::x86_64::_mm512_set1_pd(x) })
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        let src = &src[..8];
        // SAFETY: `src` holds the eight values the unaligned load reads.
        Zmm(unsafe { std::arch::x86_64::_mm512_loadu_pd(src.as_ptr()) })
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        use std::arch::x86_64::{_mm512_add_pd, _mm512_mul_pd};
        Zmm(unsafe { _mm512_add_pd(self.0, _mm512_mul_pd(a.0, b.0)) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        let dst = &mut dst[..8];
        // SAFETY: `dst` holds the eight slots the unaligned store writes.
        unsafe { std::arch::x86_64::_mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
    }
}

/// The lane of the packed (multi-row) kernel.
#[cfg(target_feature = "avx512f")]
type Packed = Zmm;
#[cfg(not(target_feature = "avx512f"))]
type Packed = f64;

/// Rows of the register block: `MR` rows of `a` share every load of `b`.
/// The `MR x NR` accumulators must stay in registers for the whole `k`
/// loop. 8 x 16 is 16 512-bit registers, half the AVX-512 file, which
/// leaves room for the two `b` loads and the `a` broadcast; a
/// 16-register AVX2 file spills anything past 2 x 16 (eight 256-bit
/// registers). The bits are the same either way.
#[cfg(target_feature = "avx512f")]
const MR: usize = 8;
#[cfg(not(target_feature = "avx512f"))]
const MR: usize = 2;

/// Columns of the register block.
const NR: usize = 16;

/// Lanes per row of a packed block.
const NV: usize = NR / Packed::N;

/// Block width for a single row: one `NR`-wide row is only four
/// accumulator chains, too few to hide the add latency.
const WIDE: usize = 2 * NR;

thread_local! {
    /// The packing buffers of every product on this thread: `a`'s packed
    /// row blocks, then one packed `b` panel. They only grow.
    static PACK: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The matrix product kernel: `a` (`m x k`) times `b` (`k x n`), written
/// into `out` — or, with `accumulate`, added to `out` element by element
/// as each block is stored.
///
/// `b` is packed one `NR`-column panel at a time into `k` contiguous
/// groups of `NR` values, and `a` into `k` groups of (up to) `MR` values
/// per row block, so the micro-kernel reads both sequentially whatever
/// the operands' layout. Each `MR x NR` output block then accumulates in
/// registers for the whole `k` loop and is written once. `a` read
/// transposed is read in place: its groups are already contiguous. A
/// single row times a row-major `b` packs nothing at all: packing pays
/// back only through reuse. The packing buffers are per thread and
/// reused, so a warm product allocates nothing.
///
/// The panel loop is outermost, so a packed panel stays in L1 while every
/// row block of `a` streams past it.
fn product(a: Operand, b: Operand, out: &mut Matrix, accumulate: bool) {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if accumulate {
        assert_eq!((out.rows, out.cols), (m, n), "accumulator shape mismatch");
    } else {
        out.rows = m;
        out.cols = n;
        out.data.resize(m * n, 0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        // The product is all `+0.0`; added, it still turns `-0.0` to `0.0`.
        for x in &mut out.data {
            *x = if accumulate { *x + 0.0 } else { 0.0 };
        }
        return;
    }
    // Whether `a` holds an exact zero, i.e. whether any term can be skipped.
    let skip = a.data.iter().fold(false, |zero, &x| zero | (x == 0.0));
    let out = &mut out.data[..];
    if m == 1 && b.cs == 1 {
        // One row times a row-major `b`: nothing would reuse a packed
        // panel, so every block reads `b` in place, widest first.
        let mut j0 = 0;
        j0 = single_row::<WIDE>(a, b, skip, out, accumulate, j0);
        j0 = single_row::<NR>(a, b, skip, out, accumulate, j0);
        single_row::<1>(a, b, skip, out, accumulate, j0);
        return;
    }
    PACK.with_borrow_mut(|(a_packed, panel)| {
        let a_in_place = a.rs == 1;
        if !a_in_place {
            grow(a_packed, m.div_ceil(MR) * MR * k);
            for (i0, dst) in (0..m).step_by(MR).zip(a_packed.chunks_exact_mut(MR * k)) {
                pack::<MR>(&a.data[i0 * a.rs..], a.rs, a.cs, (m - i0).min(MR), k, dst);
            }
        }
        grow(panel, k * NR);
        for j0 in (0..n).step_by(NR) {
            let w = (n - j0).min(NR);
            pack::<NR>(&b.data[j0 * b.cs..], b.cs, b.rs, w, k, panel);
            for i0 in (0..m).step_by(MR) {
                let (a_block, lda) = if a_in_place {
                    (&a.data[i0 * a.rs..], a.cs)
                } else {
                    (&a_packed[i0 * k..], MR)
                };
                let groups = Groups {
                    a: a_block,
                    lda,
                    b: panel,
                    ldb: NR,
                    k,
                };
                let dst = Dst {
                    out: &mut out[i0 * n + j0..],
                    n,
                    w,
                    accumulate,
                };
                // Arms wider than `MR` never match.
                match (m - i0).min(MR) {
                    1 => tile::<Packed, 1, NV>(groups, skip, dst),
                    2 => tile::<Packed, 2, NV>(groups, skip, dst),
                    3 => tile::<Packed, 3, NV>(groups, skip, dst),
                    4 => tile::<Packed, 4, NV>(groups, skip, dst),
                    5 => tile::<Packed, 5, NV>(groups, skip, dst),
                    6 => tile::<Packed, 6, NV>(groups, skip, dst),
                    7 => tile::<Packed, 7, NV>(groups, skip, dst),
                    _ => tile::<Packed, MR, NV>(groups, skip, dst),
                }
            }
        }
    });
}

/// Grow `buf` to at least `len` values; it never shrinks.
fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Compute the `C`-wide blocks of a single-row product from column `j0`
/// on, reading row-major `b` in place; returns the first column left.
fn single_row<const C: usize>(
    a: Operand,
    b: Operand,
    skip: bool,
    out: &mut [f64],
    accumulate: bool,
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
        let dst = Dst {
            out: &mut out[j..],
            n: b.cols,
            w: C,
            accumulate,
        };
        tile::<f64, 1, C>(groups, skip, dst);
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

/// Where one block lands: its row `r` is `out[r * n..][..w]`, written or,
/// with `accumulate`, added to.
struct Dst<'a> {
    out: &'a mut [f64],
    n: usize,
    w: usize,
    accumulate: bool,
}

/// Compute one block of `R` rows and `V` lanes of `L` and store its first
/// `dst.w` columns. `skip` says whether `a` holds a zero, which is when
/// the zero-term skip can fire.
fn tile<L: Lane, const R: usize, const V: usize>(groups: Groups, skip: bool, dst: Dst) {
    let mut acc = [[L::zero(); V]; R];
    if skip {
        micro::<L, R, V, true>(groups, &mut acc);
    } else {
        micro::<L, R, V, false>(groups, &mut acc);
    }
    let Dst {
        out,
        n,
        w,
        accumulate,
    } = dst;
    for (r, row) in acc.iter().enumerate() {
        let d = &mut out[r * n..][..w];
        if !accumulate && w == V * L::N {
            for (v, lane) in row.iter().enumerate() {
                lane.store(&mut d[v * L::N..]);
            }
            continue;
        }
        let mut vals = [0.0; WIDE];
        for (v, lane) in row.iter().enumerate() {
            lane.store(&mut vals[v * L::N..]);
        }
        if accumulate {
            for (d, x) in d.iter_mut().zip(&vals) {
                *d += x;
            }
        } else {
            d.copy_from_slice(&vals[..w]);
        }
    }
}

/// The micro-kernel: `out[r][t] = Σ_q a(r, q) * b(q, t)` over the groups,
/// column `t` being slot `t % N` of lane `t / N`.
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
fn micro<L: Lane, const R: usize, const V: usize, const SKIP: bool>(
    groups: Groups,
    out: &mut [[L; V]; R],
) {
    let Groups { a, lda, b, ldb, k } = groups;
    let mut acc = [[L::zero(); V]; R];
    let a = &a[..(k - 1) * lda + R];
    let b = &b[..(k - 1) * ldb + V * L::N];
    for q in 0..k {
        let av: &[f64; R] = a[q * lda..q * lda + R].try_into().expect("R-long slice");
        let bv: [L; V] = L::load_row(&b[q * ldb..]);
        for r in 0..R {
            if SKIP && av[r] == 0.0 {
                continue;
            }
            let ar = L::splat(av[r]);
            for v in 0..V {
                acc[r][v] = acc[r][v].mul_add(ar, bv[v]);
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
