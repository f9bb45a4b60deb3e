//! `pipedream_plan` prunes its DP and recovers the choices in a second
//! pass; it must return exactly the partition of the plain
//! O(layers² × GPUs²) scan kept here as the oracle, ties included. The
//! inputs are seeded and random: uniform models (exact ties everywhere),
//! skewed ones, uniform compute-only models (no parameters, no
//! activations: replicating and splitting tie in exact arithmetic and
//! differ by rounding only), and raw profiles with zero-work,
//! zero-parameter and zero-activation layers, on 1..=16 GPUs at 0.1 to
//! 400 Gbps.

use ap_cluster::{gbps, GpuId, GpuKind};
use ap_models::{synthetic_skewed, synthetic_uniform, ModelProfile};
use ap_pipesim::Partition;
use ap_planner::{assign_workers, pipedream_plan, PipeDreamView};
use ap_rng::Rng;

fn stage_time(profile: &ModelProfile, lo: usize, hi: usize, m: usize, view: PipeDreamView) -> f64 {
    let compute = profile.range_time(lo, hi, view.gpu_flops);
    if m == 1 {
        return compute;
    }
    let sync = 4.0 * (m as f64 - 1.0) / m as f64 * profile.range_params(lo, hi) / view.bandwidth;
    (compute / m as f64).max(sync)
}

fn cut_time(profile: &ModelProfile, i: usize, view: PipeDreamView) -> f64 {
    2.0 * profile.cut_bytes(i) / view.bandwidth
}

/// The full scan: every split of every cell, in `(i, mp)` order, a split
/// replacing the best only when strictly smaller.
fn oracle(profile: &ModelProfile, available: &[GpuId], view: PipeDreamView) -> Partition {
    let l = profile.n_layers();
    let n = available.len();
    let mut a = vec![f64::INFINITY; l * n];
    let mut choice: Vec<Option<(usize, usize)>> = vec![None; l * n];
    for j in 0..l {
        for m in 0..n {
            a[j * n + m] = stage_time(profile, 0, j + 1, m + 1, view);
        }
        for i in 0..j {
            for mp in 0..n - 1 {
                let right = stage_time(profile, i + 1, j + 1, mp + 1, view);
                for m in mp + 1..n {
                    let left = a[i * n + m - mp - 1];
                    let cand = left.max(cut_time(profile, i, view)).max(right);
                    if cand < a[j * n + m] {
                        a[j * n + m] = cand;
                        choice[j * n + m] = Some((i, mp));
                    }
                }
            }
        }
    }
    let last = &a[(l - 1) * n..];
    let mut best_m = 0usize;
    for m in 1..n {
        if last[m] < last[best_m] {
            best_m = m;
        }
    }
    let mut bounds = Vec::new();
    let mut counts = Vec::new();
    let (mut j, mut m) = (l - 1, best_m);
    loop {
        match choice[j * n + m] {
            Some((i, mp)) => {
                bounds.push((i + 1)..(j + 1));
                counts.push(mp + 1);
                m -= mp + 1;
                j = i;
            }
            None => {
                bounds.push(0..(j + 1));
                counts.push(m + 1);
                break;
            }
        }
    }
    bounds.reverse();
    counts.reverse();
    assign_workers(&bounds, &counts, available)
}

/// A raw profile whose layers are zero-work, zero-parameter or
/// zero-activation about a quarter of the time each.
fn sparse_profile(rng: &mut Rng, layers: usize) -> ModelProfile {
    let mut draw = |scale: f64| {
        if rng.gen_range(0..4u32) == 0 {
            0.0
        } else {
            scale * rng.gen_range(1..=8u32) as f64
        }
    };
    let out: Vec<f64> = (0..layers).map(|_| draw(2e6)).collect();
    let params: Vec<f64> = (0..layers).map(|_| draw(4e6)).collect();
    let fwd: Vec<f64> = (0..layers).map(|_| draw(1e9)).collect();
    let bwd: Vec<f64> = fwd.iter().map(|f| 2.0 * f).collect();
    ModelProfile::from_raw("sparse", 32, out.clone(), out, params, fwd, bwd)
}

#[test]
fn pruned_dp_matches_the_full_scan() {
    let mut rng = Rng::seed_from_u64(25);
    let kinds = [GpuKind::P100, GpuKind::V100, GpuKind::A100];
    let mut cases = 0usize;
    for round in 0..240 {
        let layers = rng.gen_range(1..=36usize);
        let flops = 1e8 * rng.gen_range(1..=40u32) as f64;
        let out = 1e5 * rng.gen_range(1..=200u32) as f64;
        let params = 1e5 * rng.gen_range(1..=400u32) as f64;
        let profile = match round % 4 {
            0 => ModelProfile::of(&synthetic_uniform(layers, flops, out, params)),
            1 => ModelProfile::of(&synthetic_skewed(layers, flops, out, params)),
            2 => ModelProfile::of(&synthetic_uniform(
                layers,
                flops * (1.0 + rng.f64()),
                0.0,
                0.0,
            )),
            _ => sparse_profile(&mut rng, layers),
        };
        // Log-uniform in 0.1..=400 Gbps, plus the ends themselves.
        let link = match round % 8 {
            0 => 0.1,
            1 => 400.0,
            _ => 0.1 * 4000f64.powf(rng.f64()),
        };
        let view = PipeDreamView {
            bandwidth: gbps(link),
            gpu_flops: kinds[(round / 3) % 3].peak_flops(),
        };
        for n in 1..=16 {
            let gpus: Vec<GpuId> = (0..n).map(GpuId).collect();
            let got = pipedream_plan(&profile, &gpus, view);
            let want = oracle(&profile, &gpus, view);
            assert_eq!(
                got,
                want,
                "round {round}: {} layers at {link} Gbps on {n} GPUs: {} vs {}",
                layers,
                got.summary(),
                want.summary()
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 240 * 16);
}
