//! PipeDream's dynamic-programming work partitioner.
//!
//! Reimplements the planner of Narayanan et al. (SOSP'19) §3.1 as the paper
//! describes it (§2.1): given per-layer compute times measured on **one
//! exclusively-used GPU**, activation and parameter sizes, and a **single
//! bandwidth number** (the hierarchical-topology assumption), dynamic
//! programming chooses (1) the stage boundaries, (2) the replica count per
//! stage, and (3) the number of in-flight mini-batches.
//!
//! The simplifications are the point: AutoPipe's §3.1 Observation 2 is that
//! this model ignores heterogeneous and time-varying bandwidth/compute and
//! hard-codes ring all-reduce. We keep those assumptions *here* so that the
//! baseline mispartitions exactly the way the real PipeDream does when the
//! cluster state drifts; the true cost of any plan is always charged by
//! `ap_pipesim`.

use ap_cluster::GpuId;
use ap_models::ModelProfile;
use ap_pipesim::Partition;

use crate::assign_workers;

/// What PipeDream believes about the environment: one number each.
#[derive(Debug, Clone, Copy)]
pub struct PipeDreamView {
    /// Bandwidth between any pair of workers, bytes/s.
    pub bandwidth: f64,
    /// Compute speed of one exclusive GPU, effective FLOP/s.
    pub gpu_flops: f64,
}

/// Stage time under PipeDream's model: compute split `m` ways, overlapped
/// with ring all-reduce of the stage's weights (the `4(m-1)/m · |w|/B`
/// term of the PipeDream paper).
fn stage_time(profile: &ModelProfile, lo: usize, hi: usize, m: usize, view: PipeDreamView) -> f64 {
    let compute = profile.range_time(lo, hi, view.gpu_flops);
    if m == 1 {
        return compute;
    }
    let sync = 4.0 * (m as f64 - 1.0) / m as f64 * profile.range_params(lo, hi) / view.bandwidth;
    // PipeDream overlaps the all-reduce with compute: the replicated stage
    // is paced by whichever is slower.
    (compute / m as f64).max(sync)
}

/// Communication time of the cut after layer `i` (activations forward,
/// same-size gradient backward, modeled as one transfer like PipeDream).
fn cut_time(profile: &ModelProfile, i: usize, view: PipeDreamView) -> f64 {
    2.0 * profile.cut_bytes(i) / view.bandwidth
}

/// PipeDream's DP objective value of a concrete plan (used by tests to
/// verify optimality of the DP against exhaustive search *under the same
/// model*).
pub fn dp_objective(profile: &ModelProfile, plan: &Partition, view: PipeDreamView) -> f64 {
    let mut worst = 0.0_f64;
    for (s, st) in plan.stages.iter().enumerate() {
        worst = worst.max(stage_time(
            profile,
            st.layers.start,
            st.layers.end,
            st.workers.len(),
            view,
        ));
        if s + 1 < plan.stages.len() {
            worst = worst.max(cut_time(profile, st.layers.end - 1, view));
        }
    }
    worst
}

/// Run PipeDream's DP over `available` workers and return the plan.
///
/// `A[j][m]` = best achievable bottleneck for layers `0..j` on `m`
/// machines; either one replicated stage or a split at `(i, m')`.
pub fn pipedream_plan(
    profile: &ModelProfile,
    available: &[GpuId],
    view: PipeDreamView,
) -> Partition {
    let l = profile.n_layers();
    let n = available.len();
    assert!(l > 0 && n > 0, "empty problem");
    // Row-major tables with one row per j and one column per m.
    // a[j * n + m]: bottleneck for layers 0..=j (inclusive) with m+1
    // machines.
    let mut a = vec![f64::INFINITY; l * n];
    // choice[j * n + m] = None -> single stage; Some((i, mp)) -> last
    // stage is layers i+1..=j on mp+1 machines.
    let mut choice: Vec<Option<(usize, usize)>> = vec![None; l * n];
    let cut: Vec<f64> = (0..l).map(|i| cut_time(profile, i, view)).collect();

    for j in 0..l {
        let (solved, row) = a.split_at_mut(j * n);
        let best = &mut row[..n];
        let chosen = &mut choice[j * n..(j + 1) * n];
        // Option 1: a single stage 0..=j replicated on m+1 machines.
        for (m, b) in best.iter_mut().enumerate() {
            *b = stage_time(profile, 0, j + 1, m + 1, view);
        }
        // Option 2: split after layer i, giving mp+1 machines to the last
        // stage. The machine count m is the innermost loop, so the last
        // stage's time is computed at most once per (i, mp). For each m
        // the splits are still tried in (i, mp) order, and only a strictly
        // better one replaces the best, so ties keep the first split.
        for i in 0..j {
            let left_row = &solved[i * n..(i + 1) * n];
            for mp in 0..n - 1 {
                let mut right = None;
                for m in mp + 1..n {
                    let left = left_row[m - mp - 1];
                    // The candidate is at least `left` and at least the
                    // cut, so either one at `best` already loses.
                    if left >= best[m] || cut[i] >= best[m] {
                        continue;
                    }
                    let right = *right
                        .get_or_insert_with(|| stage_time(profile, i + 1, j + 1, mp + 1, view));
                    let cand = left.max(cut[i]).max(right);
                    if cand < best[m] {
                        best[m] = cand;
                        chosen[m] = Some((i, mp));
                    }
                }
            }
        }
    }

    // Pick the machine count with the best bottleneck (using every machine
    // is not always optimal under the DP model; PipeDream keeps spares in
    // data-parallel, we simply take the best m).
    let last = &a[(l - 1) * n..];
    let mut best_m = 0usize;
    for m in 1..n {
        if last[m] < last[best_m] {
            best_m = m;
        }
    }

    // Reconstruct stages right-to-left.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::gbps;
    use ap_models::{synthetic_skewed, synthetic_uniform, vgg16, ModelProfile};

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn view(g: f64) -> PipeDreamView {
        PipeDreamView {
            bandwidth: gbps(g),
            gpu_flops: 9.3e12,
        }
    }

    /// Exhaustive optimum of the DP objective on tiny instances.
    fn exhaustive_best(profile: &ModelProfile, n: usize, v: PipeDreamView) -> f64 {
        fn rec(
            profile: &ModelProfile,
            v: PipeDreamView,
            start: usize,
            machines: usize,
            acc: f64,
            best: &mut f64,
        ) {
            let l = profile.n_layers();
            if start == l {
                if acc < *best {
                    *best = acc;
                }
                return;
            }
            if machines == 0 || acc >= *best {
                return;
            }
            for end in start + 1..=l {
                for m in 1..=machines {
                    if end < l && machines == m {
                        continue; // must leave machines for the rest
                    }
                    let mut a = acc.max(stage_time(profile, start, end, m, v));
                    if end < l {
                        a = a.max(cut_time(profile, end - 1, v));
                    }
                    rec(profile, v, end, machines - m, a, best);
                }
            }
        }
        let mut best = f64::INFINITY;
        // Try every total machine count up to n.
        for total in 1..=n {
            rec(profile, v, 0, total, 0.0, &mut best);
        }
        best
    }

    #[test]
    fn dp_matches_exhaustive_on_small_instances() {
        for (model, n, g) in [
            (synthetic_uniform(5, 2e9, 6e6, 12e6), 3usize, 10.0),
            (synthetic_skewed(6, 1e9, 8e6, 6e6), 4, 25.0),
            (synthetic_uniform(4, 5e9, 2e6, 40e6), 4, 10.0),
        ] {
            let p = ModelProfile::with_batch(&model, 16);
            let v = view(g);
            let plan = pipedream_plan(&p, &gpus(n), v);
            let got = dp_objective(&p, &plan, v);
            let want = exhaustive_best(&p, n, v);
            assert!(
                (got - want).abs() / want < 1e-9,
                "{}: dp {got} vs exhaustive {want} ({})",
                model.name,
                plan.summary()
            );
        }
    }

    #[test]
    fn plans_are_valid() {
        for g in [10.0, 25.0, 40.0, 100.0] {
            let p = ModelProfile::of(&vgg16());
            let plan = pipedream_plan(&p, &gpus(10), view(g));
            assert!(plan.validate(p.n_layers()).is_ok(), "{}", plan.summary());
            assert!(plan.in_flight >= 1);
        }
    }

    #[test]
    fn uniform_model_gets_balanced_stages() {
        let model = synthetic_uniform(8, 2e9, 1e4, 1e4); // negligible comm
        let p = ModelProfile::with_batch(&model, 16);
        let plan = pipedream_plan(&p, &gpus(4), view(100.0));
        // Cheap comm: should use all 4 machines and balance work.
        assert_eq!(plan.n_workers(), 4);
        let times: Vec<f64> = plan
            .stages
            .iter()
            .map(|s| {
                stage_time(
                    &p,
                    s.layers.start,
                    s.layers.end,
                    s.workers.len(),
                    view(100.0),
                )
            })
            .collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 2.01, "unbalanced: {times:?}");
    }

    #[test]
    fn huge_activations_discourage_cuts() {
        // Cutting anywhere costs enormous activation traffic; the DP
        // should collapse to a single (replicated) stage.
        let model = synthetic_uniform(6, 1e9, 500e6, 1e4);
        let p = ModelProfile::with_batch(&model, 16);
        let plan = pipedream_plan(&p, &gpus(4), view(10.0));
        assert_eq!(plan.n_stages(), 1, "{}", plan.summary());
    }

    #[test]
    fn huge_parameters_discourage_replication() {
        // All-reduce of giant weights is ruinous; expect pipeline-only.
        let model = synthetic_uniform(6, 1e9, 1e4, 800e6);
        let p = ModelProfile::with_batch(&model, 16);
        let plan = pipedream_plan(&p, &gpus(4), view(10.0));
        assert!(
            plan.stages.iter().all(|s| s.workers.len() == 1),
            "{}",
            plan.summary()
        );
    }

    #[test]
    fn stale_view_mispartitions_under_bandwidth_drop() {
        // Plan at 100 Gbps, then re-plan at 10 Gbps: the plans differ for
        // a comm-heavy model — the crux of the paper's motivation.
        let p = ModelProfile::of(&vgg16());
        let plan_fast = pipedream_plan(&p, &gpus(10), view(100.0));
        let plan_slow = pipedream_plan(&p, &gpus(10), view(10.0));
        let obj_stale = dp_objective(&p, &plan_fast, view(10.0));
        let obj_fresh = dp_objective(&p, &plan_slow, view(10.0));
        assert!(
            obj_fresh <= obj_stale,
            "re-planning can never be worse under the DP's own model"
        );
    }
}
