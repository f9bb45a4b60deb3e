//! The vector of `f64`s the element kernels are written against: the
//! product's micro-kernel and the tanh kernel. Each kernel body is
//! generic over [`Lane`], so the 512-bit build and the portable one run
//! the same code, op for op.

use std::ops::{Add, Div, Mul, Sub};

/// `N` `f64`s updated as one. Every op is per slot and exact as IEEE
/// defines it (arithmetic correctly rounded, never fused), so a kernel
/// gives the same bits whatever lane it runs on.
pub(crate) trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
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
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self + a * b
    }
    /// Write the `N` slots to the front of `dst`.
    fn store(self, dst: &mut [f64]);
    /// `|self|`.
    fn abs(self) -> Self;
    /// `self`'s magnitude with `sign`'s sign bit.
    fn copysign(self, sign: Self) -> Self;
    /// The largest integer not above `self`.
    fn floor(self) -> Self;
    /// `t` where `self < b`, else `e` (so `e` where either is NaN).
    fn lt_select(self, b: Self, t: Self, e: Self) -> Self;
    /// `2^self`, for integer-valued slots in `-1022..=1023`, built from
    /// the exponent bits.
    fn exp2i(self) -> Self;
}

/// `2^52 + 1023`: added to an integer `n` in `-1022..=1023`, it leaves
/// `n + 1023`, the biased exponent of `2^n`, in the low mantissa bits.
const EXP2_MAGIC: f64 = 4_503_599_627_371_519.0;

/// The portable lane: one `f64`. A loop of them is a plain scalar loop,
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
    fn store(self, dst: &mut [f64]) {
        dst[0] = self;
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        f64::copysign(self, sign)
    }

    #[inline(always)]
    fn floor(self) -> Self {
        f64::floor(self)
    }

    #[inline(always)]
    fn lt_select(self, b: Self, t: Self, e: Self) -> Self {
        if self < b {
            t
        } else {
            e
        }
    }

    #[inline(always)]
    fn exp2i(self) -> Self {
        f64::from_bits((self + EXP2_MAGIC).to_bits() << 52)
    }
}

/// One 512-bit register of eight `f64`s. LLVM prefers 256-bit vectors
/// even where AVX-512 is enabled, so the kernels name the register width
/// themselves instead of relying on autovectorization.
#[cfg(target_feature = "avx512f")]
#[derive(Clone, Copy)]
pub(crate) struct Zmm(std::arch::x86_64::__m512d);

// SAFETY (every intrinsic in this file): this build enables AVX-512F,
// and each one below is an AVX-512F instruction.
#[cfg(target_feature = "avx512f")]
mod zmm {
    use super::{Lane, Zmm, EXP2_MAGIC};
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Sub};

    macro_rules! binop {
        ($tr:ident, $f:ident, $op:ident) => {
            impl $tr for Zmm {
                type Output = Zmm;
                #[inline(always)]
                fn $f(self, rhs: Zmm) -> Zmm {
                    Zmm(unsafe { $op(self.0, rhs.0) })
                }
            }
        };
    }
    binop!(Add, add, _mm512_add_pd);
    binop!(Sub, sub, _mm512_sub_pd);
    binop!(Mul, mul, _mm512_mul_pd);
    binop!(Div, div, _mm512_div_pd);

    impl Lane for Zmm {
        const N: usize = 8;

        #[inline(always)]
        fn zero() -> Self {
            Zmm(unsafe { _mm512_setzero_pd() })
        }

        #[inline(always)]
        fn splat(x: f64) -> Self {
            Zmm(unsafe { _mm512_set1_pd(x) })
        }

        #[inline(always)]
        fn load(src: &[f64]) -> Self {
            let src = &src[..8];
            // SAFETY: `src` holds the eight values the unaligned load reads.
            Zmm(unsafe { _mm512_loadu_pd(src.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f64]) {
            let dst = &mut dst[..8];
            // SAFETY: `dst` holds the eight slots the unaligned store writes.
            unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn abs(self) -> Self {
            Zmm(unsafe { _mm512_abs_pd(self.0) })
        }

        #[inline(always)]
        fn copysign(self, sign: Self) -> Self {
            unsafe {
                let bit = _mm512_set1_epi64(i64::MIN);
                let mag = _mm512_andnot_si512(bit, _mm512_castpd_si512(self.0));
                let sgn = _mm512_and_si512(bit, _mm512_castpd_si512(sign.0));
                Zmm(_mm512_castsi512_pd(_mm512_or_si512(mag, sgn)))
            }
        }

        #[inline(always)]
        fn floor(self) -> Self {
            // Round toward -inf, to the unit (scale 0), no inexact flag.
            Zmm(unsafe {
                _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(self.0)
            })
        }

        #[inline(always)]
        fn lt_select(self, b: Self, t: Self, e: Self) -> Self {
            unsafe {
                let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, b.0);
                Zmm(_mm512_mask_blend_pd(lt, e.0, t.0))
            }
        }

        #[inline(always)]
        fn exp2i(self) -> Self {
            unsafe {
                let biased = _mm512_add_pd(self.0, _mm512_set1_pd(EXP2_MAGIC));
                let bits = _mm512_slli_epi64::<52>(_mm512_castpd_si512(biased));
                Zmm(_mm512_castsi512_pd(bits))
            }
        }
    }
}

/// The widest lane of this build.
#[cfg(target_feature = "avx512f")]
pub(crate) type Packed = Zmm;
#[cfg(not(target_feature = "avx512f"))]
pub(crate) type Packed = f64;
