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

/// Margin on the left-part work bound: rounding in the prefix sums and
/// divisions can lift the bound a few ulps above the true bottleneck, so
/// a split is pruned only when the bound clears the best by this
/// relative amount.
const LEFT_BOUND_MARGIN: f64 = 1e-9;

/// Run PipeDream's DP over `available` workers and return the plan.
///
/// `A[j][m]` = best achievable bottleneck for layers `0..=j` on `m+1`
/// machines: either one stage replicated on all of them, or a split
/// after layer `i` whose last stage `i+1..=j` runs on `mp+1` machines and
/// whose first part is `A[i][m-mp-1]`. Among equal bottlenecks the plan
/// is the one a full scan keeps with a strict `<`: the single stage if it
/// attains the cell, else the first split in `(i, mp)` order.
///
/// The full scan is O(layers² × GPUs²); two passes skip most of it
/// without changing any value or choice:
///
/// 1. [`bottlenecks`] computes the values of `A` only, skipping splits
///    that a lower bound shows cannot beat the cell's best so far.
/// 2. [`split_of`] recovers the choices along the reconstruction path
///    alone: the first split in scan order whose candidate equals the
///    cell's value.
pub fn pipedream_plan(
    profile: &ModelProfile,
    available: &[GpuId],
    view: PipeDreamView,
) -> Partition {
    let l = profile.n_layers();
    let n = available.len();
    assert!(l > 0 && n > 0, "empty problem");
    let cut: Vec<f64> = (0..l).map(|i| cut_time(profile, i, view)).collect();
    let a = bottlenecks(profile, n, &cut, view);

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
        match split_of(profile, &a, &cut, n, (j, m), view) {
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

/// Pass 1: the table `A`, row-major with one row per last layer `j` and
/// one column per machine count `m + 1`. Each cell is the minimum over
/// the single stage and every split, and a split is skipped only when it
/// provably cannot go below the cell's best so far, so every value is
/// the full scan's to the bit. For each `(j, m, mp)`:
///
/// * **Right bound.** Work and parameters are prefix sums of
///   non-negative terms, so the last stage's time `stage_time(i+1..=j)`
///   can only grow as `i` falls, in floating point too (rounding is
///   monotone). `i` is tried in descending order and the scan stops once
///   the last stage alone reaches the best; a one-layer last stage that
///   already loses skips the `(j, m, mp)` entirely.
/// * **Left bound.** Bottleneck × machines ≥ total work, so
///   `A[i][k] ≥ W(0..=i) / (F·(k+1))`. The work prefix grows with `i`,
///   so only `i` below the first one with
///   `W(0..=i) ≥ best·F·(k+1)·(1 + LEFT_BOUND_MARGIN)` is tried. That
///   point moves little from row to row, so it is searched for by
///   galloping out from where it was in the row above.
/// * **Warm start.** Each cell first tries the split that won the cell
///   above it, so the bounds bite from the first `i`.
fn bottlenecks(profile: &ModelProfile, n: usize, cut: &[f64], view: PipeDreamView) -> Vec<f64> {
    let l = cut.len();
    let mut a = vec![f64::INFINITY; l * n];
    // The split attaining each cell of the previous row, if one does.
    let mut won: Vec<Option<(usize, usize)>> = vec![None; n];
    // The time of a one-layer last stage `j..=j` on `mp + 1` machines.
    let mut one = vec![0.0; n];
    // Where the left bound cut off each `(m, mp)` in the previous row:
    // it moves little from row to row, so the next search starts there.
    let mut ends = vec![0usize; n * n];
    for j in 0..l {
        let (solved, row) = a.split_at_mut(j * n);
        for (mp, t) in one.iter_mut().enumerate() {
            *t = stage_time(profile, j, j + 1, mp + 1, view);
        }
        for (m, (best, won)) in row[..n].iter_mut().zip(&mut won).enumerate() {
            *best = stage_time(profile, 0, j + 1, m + 1, view);
            let try_split = |i: usize, mp: usize, right: f64, best: &mut f64| {
                let left = solved[i * n + m - mp - 1];
                if left >= *best || cut[i] >= *best {
                    return false;
                }
                let cand = left.max(cut[i]).max(right);
                let better = cand < *best;
                if better {
                    *best = cand;
                }
                better
            };
            if let Some((i, mp)) = won.take() {
                let right = stage_time(profile, i + 1, j + 1, mp + 1, view);
                if try_split(i, mp, right, best) {
                    *won = Some((i, mp));
                }
            }
            for (mp, &one) in one[..m].iter().enumerate() {
                if one >= *best {
                    continue;
                }
                // From the first `i` whose work alone puts `A[i][m-mp-1]`
                // at or above the best, no split can win.
                let limit = *best * (view.gpu_flops * (m - mp) as f64) * (1.0 + LEFT_BOUND_MARGIN);
                let end = &mut ends[m * n + mp];
                *end = first_true_near(j, *end, |i| profile.range_work(0, i + 1) >= limit);
                let end = *end;
                for i in (0..end).rev() {
                    let right = stage_time(profile, i + 1, j + 1, mp + 1, view);
                    if right >= *best {
                        break;
                    }
                    if try_split(i, mp, right, best) {
                        *won = Some((i, mp));
                    }
                }
            }
        }
    }
    a
}

/// Pass 2: the choice at cell `(j, m)` of `a`. `None` when the single
/// stage attains the cell; otherwise the first `(i, mp)`, `i` ascending
/// then `mp` ascending, whose candidate equals the cell. That is exactly
/// the split a full scan keeps when it replaces its best only on a
/// strictly smaller candidate: the first to reach the minimum.
fn split_of(
    profile: &ModelProfile,
    a: &[f64],
    cut: &[f64],
    n: usize,
    (j, m): (usize, usize),
    view: PipeDreamView,
) -> Option<(usize, usize)> {
    let target = a[j * n + m];
    if stage_time(profile, 0, j + 1, m + 1, view) == target {
        return None;
    }
    // The first split in `(i, mp)` order: for each `mp`, the first `i`
    // below the best found so far. Below `from` the last stage alone
    // exceeds the target.
    let mut found: Option<(usize, usize)> = None;
    for mp in 0..m {
        let end = found.map_or(j, |(i, _)| i);
        let right = |i: usize| stage_time(profile, i + 1, j + 1, mp + 1, view);
        let from = first_true(end, |i| right(i) <= target);
        for i in from..end {
            let left = a[i * n + m - mp - 1];
            if left <= target && cut[i] <= target && left.max(cut[i]).max(right(i)) == target {
                found = Some((i, mp));
                break;
            }
        }
    }
    assert!(found.is_some(), "a split attains A[{j}][{m}]");
    found
}

/// [`first_true`], galloping out from `guess`: O(log |answer − guess|)
/// probes instead of O(log end).
fn first_true_near(end: usize, guess: usize, pred: impl Fn(usize) -> bool) -> usize {
    // The first true index in `lo..hi`, or `hi`.
    let search = |lo: usize, hi: usize| lo + first_true(hi - lo, |k| pred(lo + k));
    let mut step = 1;
    if guess < end && !pred(guess) {
        // The answer is above `guess`.
        let mut lo = guess;
        loop {
            let probe = lo + step;
            if probe >= end {
                return search(lo + 1, end);
            }
            if pred(probe) {
                return search(lo + 1, probe);
            }
            lo = probe;
            step *= 2;
        }
    }
    // The answer is at or below `hi`.
    let mut hi = guess.min(end);
    loop {
        if hi == 0 {
            return 0;
        }
        let probe = hi.saturating_sub(step);
        if !pred(probe) {
            return search(probe + 1, hi);
        }
        hi = probe;
        step *= 2;
    }
}

/// The first `i` in `0..end` where the monotone predicate `pred` holds,
/// or `end` if it holds nowhere.
fn first_true(end: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
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
