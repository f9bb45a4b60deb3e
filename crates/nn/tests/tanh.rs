//! `ap_nn::tanh` — the one tanh every ap-nn layer uses — must stay within
//! 2 ulp of libm's, be exact where tanh is exact, give the same bits as a
//! slice kernel as it does one value at a time, and keep the bits pinned
//! below on every host and build. In ap-nn, libm's `f64::tanh` appears
//! only here, as the accuracy reference.

use ap_nn::{tanh, tanh_in_place, ActKind};
use ap_rng::Rng;

/// Distance in units in the last place: the number of representable
/// doubles between `a` and `b` (`+0.0` and `-0.0` count as one apart).
fn ulps(a: f64, b: f64) -> u64 {
    let ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    ordered(a).abs_diff(ordered(b))
}

/// `n` consecutive doubles on each side of `b`, `b` included.
fn around(b: f64, n: usize, out: &mut Vec<f64>) {
    let (mut up, mut down) = (b, b);
    out.push(b);
    for _ in 0..n {
        up = up.next_up();
        down = down.next_down();
        out.push(up);
        out.push(down);
    }
}

/// The seeded accuracy sweep, over 1.1M inputs.
fn sweep() -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(0x7a4e);
    let mut xs = Vec::new();
    // The working range and past the clamp.
    xs.extend((0..600_000).map(|_| rng.gen_range(-25.0..25.0)));
    // Every magnitude below 1, subnormals included: uniform bit patterns.
    for _ in 0..200_000 {
        let x = f64::from_bits(rng.next_u64() % 1.0f64.to_bits());
        xs.push(if rng.next_u64() & 1 == 0 { x } else { -x });
    }
    // Both sides of the formula switch and of the clamp.
    for b in [0.625, 22.0] {
        around(b, 40_000, &mut xs);
        around(-b, 40_000, &mut xs);
    }
    // Both sides of every step of the exponential's reduction: 2|x| at
    // (k + 1/2) ln 2, where the reduction's integer part steps up.
    for k in 1..64 {
        let b = (k as f64 + 0.5) * std::f64::consts::LN_2 / 2.0;
        around(b, 200, &mut xs);
        around(-b, 200, &mut xs);
    }
    xs
}

#[test]
fn within_two_ulp_of_libm() {
    let xs = sweep();
    assert!(xs.len() >= 1_000_000, "sweep too small: {}", xs.len());
    let mut hist = [0usize; 3];
    for &x in &xs {
        let (got, want) = (tanh(x), x.tanh());
        let d = ulps(got, want);
        assert!(d <= 2, "tanh({x:e}) = {got:e}, libm {want:e}: {d} ulp");
        hist[d as usize] += 1;
    }
    eprintln!(
        "{} inputs: {} bit-equal to libm, {} at 1 ulp, {} at 2 ulp",
        xs.len(),
        hist[0],
        hist[1],
        hist[2]
    );
}

#[test]
fn exact_where_tanh_is_exact() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(tanh(f64::INFINITY), 1.0);
    assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
    for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
        assert!(tanh(nan).is_nan(), "tanh({nan:?}) must be NaN");
    }
    for x in [22.0, 22.5, 30.0, 1e3, 1e300, f64::MAX] {
        assert_eq!(tanh(x), 1.0, "tanh({x:e})");
        assert_eq!(tanh(-x), -1.0, "tanh(-{x:e})");
    }
    // Below ~1e-8, x³/3 is under half an ulp of x.
    for x in [f64::from_bits(1), f64::MIN_POSITIVE, 1e-300, 1e-20, 1e-9] {
        assert_eq!(tanh(x), x, "tanh({x:e})");
        assert_eq!(tanh(-x), -x, "tanh(-{x:e})");
    }
}

/// FNV-1a over the output bits of a fixed grid: [-25, 25] in steps of
/// 1/400, both sides of both formula boundaries, and tiny magnitudes.
/// The pinned value was the same in debug and release, with and without
/// AVX-512, and for the baseline x86-64 target (SSE2, no FMA).
#[test]
fn output_bits_are_pinned() {
    let mut xs: Vec<f64> = (0..=20_000)
        .map(|i| (i as f64 - 10_000.0) / 400.0)
        .collect();
    for b in [0.625, 22.0, -0.625, -22.0] {
        around(b, 64, &mut xs);
    }
    xs.extend((0..64).map(|e| f64::powi(2.0, -(16 * e))));
    tanh_in_place(&mut xs);
    let digest = xs
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(
        digest, 0x0a92_1d49_e523_ff74,
        "tanh's bits moved: a libm, compiler or lane dependence crept in"
    );
}

#[test]
fn slice_kernel_matches_scalar_on_every_tail() {
    let mut rng = Rng::seed_from_u64(37);
    let specials = [0.0, -0.0, 0.625, -22.0, f64::INFINITY, 5e-324];
    for len in 0..=37 {
        let xs: Vec<f64> = (0..len)
            .map(|i| match i % 7 {
                6 => specials[i / 7 % specials.len()],
                _ => rng.gen_range(-8.0..8.0),
            })
            .collect();
        let mut got = xs.clone();
        tanh_in_place(&mut got);
        for (i, (&x, &y)) in xs.iter().zip(&got).enumerate() {
            assert_eq!(
                y.to_bits(),
                tanh(x).to_bits(),
                "len {len}, slot {i}: x {x:e}"
            );
            assert_eq!(y.to_bits(), ActKind::Tanh.apply(x).to_bits());
        }
        let mut via_kind = xs.clone();
        ActKind::Tanh.apply_in_place(&mut via_kind);
        assert_eq!(via_kind, got, "len {len}");
    }
}
