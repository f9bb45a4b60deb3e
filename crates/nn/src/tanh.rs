//! The hyperbolic tangent of every tanh in this crate, computed in-tree.
//!
//! A libm `tanh` is not one function: glibc's calls an `expm1` that it
//! picks at load time by CPU (an FMA build or an SSE2 one), and the two
//! disagree in the last bit on some inputs. This one is written only
//! with IEEE `+ - * /`, abs, copysign, floor, compare/select and
//! exponent-bit construction, never fused, so its bits are the same on
//! every x86-64 host, under every libm, and on every [`Lane`]. It stays
//! within 2 ulp of glibc's tanh (`tests/tanh.rs` checks).
//!
//! The formulas are Cephes's: an odd rational for `|x| < 0.625`, and
//! `1 - 2 / (e^(2|x|) + 1)` above it, with `e^y` by Cody-Waite reduction
//! and a Padé rational.

use crate::lane::{Lane, Packed};

/// Below this `|x|` the odd rational is used.
const SMALL: f64 = 0.625;
/// `|x|` is clamped here: `1 - 2 / (e^44 + 1)` rounds to exactly 1.
const CLAMP: f64 = 22.0;

/// `tanh(x) = x + x * z * P(z) / Q(z)`, `z = x²`, on `|x| < 0.625`.
const P: [f64; 3] = [
    -9.643991794250523e-1,
    -9.928772310019185e1,
    -1.6146876844170845e3,
];
/// `Q`'s leading coefficient is 1.
const Q: [f64; 3] = [
    1.1281167849163293e2,
    2.2354883906010045e3,
    4.844063053251255e3,
];

const LOG2E: f64 = std::f64::consts::LOG2_E;
/// `ln 2` split so that `n * LN2_HI` is exact for the `n` used here.
const LN2_HI: f64 = 6.93145751953125e-1;
const LN2_LO: f64 = 1.4286068203094173e-6;
/// `e^r = 1 + 2 r P(r²) / (Q(r²) - r P(r²))` on `|r| <= ln(2) / 2`.
const EXP_P: [f64; 3] = [1.2617719307481058e-4, 3.0299440770744195e-2, 1.0];
const EXP_Q: [f64; 4] = [
    3.0019850513866446e-6,
    2.524483403496841e-3,
    2.2726554820815503e-1,
    2.0,
];

/// tanh(x): one lane of [`tanh_in_place`]'s kernel, so bit-equal to it.
/// `tanh(±0) = ±0`, `tanh(±inf) = ±1`, NaN stays NaN.
#[inline]
pub fn tanh(x: f64) -> f64 {
    kernel(x)
}

/// Replace every value of `xs` with its [`tanh`], eight at a time where
/// the build has 512-bit lanes.
pub fn tanh_in_place(xs: &mut [f64]) {
    let mut lanes = xs.chunks_exact_mut(Packed::N);
    for lane in &mut lanes {
        kernel(Packed::load(lane)).store(lane);
    }
    for x in lanes.into_remainder() {
        *x = tanh(*x);
    }
}

/// Both formulas run on `|x|` and the one `|x|` selects gets `x`'s sign:
/// tanh is odd, and every step is symmetric under rounding to nearest,
/// so this equals evaluating at `x` and keeps the sign of `-0.0`. A NaN
/// fails both compares and flows through the exponential's arithmetic.
#[inline(always)]
fn kernel<L: Lane>(x: L) -> L {
    let c = L::splat;
    let a = x.abs();

    let z = a * a;
    let p = (c(P[0]) * z + c(P[1])) * z + c(P[2]);
    let q = ((z + c(Q[0])) * z + c(Q[1])) * z + c(Q[2]);
    let small = a + a * z * p / q;

    let clamped = c(CLAMP).lt_select(a, c(CLAMP), a);
    let large = c(1.0) - c(2.0) / (exp(clamped + clamped) + c(1.0));

    a.lt_select(c(SMALL), small, large).copysign(x)
}

/// `e^y` for `y` in `[0, 44]` (NaN passes through): `y = n ln 2 + r`,
/// `e^r` from the Padé rational, then scaled by `2^n`.
#[inline(always)]
fn exp<L: Lane>(y: L) -> L {
    let c = L::splat;
    let n = (c(LOG2E) * y + c(0.5)).floor();
    let r = y - n * c(LN2_HI) - n * c(LN2_LO);
    let rr = r * r;
    let p = r * ((c(EXP_P[0]) * rr + c(EXP_P[1])) * rr + c(EXP_P[2]));
    let q = ((c(EXP_Q[0]) * rr + c(EXP_Q[1])) * rr + c(EXP_Q[2])) * rr + c(EXP_Q[3]);
    (c(1.0) + c(2.0) * (p / (q - p))) * n.exp2i()
}
