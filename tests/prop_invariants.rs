//! Cross-crate randomized-but-deterministic tests: partition-move
//! validity, switch-plan symmetry, planner sanity and engine conservation
//! laws over seeded random inputs.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterState, ClusterTopology, GpuId, ResourceTimeline};
use ap_models::{synthetic_skewed, synthetic_uniform, ModelProfile};
use ap_pipesim::{Engine, EngineConfig, Partition, ScheduleKind, Stage, SwitchPlan};
use ap_planner::{all_moves, pipedream_plan, two_worker_moves, PipeDreamView};
use ap_rng::Rng;

/// Random valid partition of `n_layers` over up to `n_gpus` workers.
fn random_partition(rng: &mut Rng, n_layers: usize, n_gpus: usize) -> Partition {
    let stages = rng.gen_range(1..=3usize).min(n_layers).min(n_gpus);
    let mut cuts: Vec<usize> = (1..stages)
        .map(|_| 1 + rng.gen_range(0..n_layers - 1))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut bounds = Vec::new();
    let mut lo = 0;
    for &c in &cuts {
        bounds.push(lo..c);
        lo = c;
    }
    bounds.push(lo..n_layers);
    // Assign workers round-robin, at least one per stage.
    let k = bounds.len();
    let mut counts = vec![1usize; k];
    for _ in k..n_gpus {
        let i = rng.gen_range(0..k);
        counts[i] += 1;
    }
    let mut gi = 0;
    let stages: Vec<Stage> = bounds
        .into_iter()
        .zip(counts)
        .map(|(r, c)| {
            let ws: Vec<GpuId> = (gi..gi + c).map(GpuId).collect();
            gi += c;
            Stage::new(r, ws)
        })
        .collect();
    let mut p = Partition {
        stages,
        in_flight: 1,
    };
    p.in_flight = p.default_in_flight();
    p
}

/// Every incremental move yields a valid partition that preserves the
/// worker set.
#[test]
fn moves_preserve_validity_and_workers() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x30BE + case);
        let p = random_partition(&mut rng, 12, 6);
        let model = synthetic_skewed(12, 1e9, 4e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 16);
        let mut base_workers = p.all_workers();
        base_workers.sort();
        for kind in all_moves(&p, &profile) {
            let q = kind.apply(&p);
            assert!(q.validate(12).is_ok(), "case {case}: {kind:?}");
            let mut w = q.all_workers();
            w.sort();
            assert_eq!(
                &w, &base_workers,
                "case {case}: {kind:?} changed the worker set"
            );
        }
    }
}

/// Switch plans are symmetric in volume: A->B moves the same layers as
/// B->A.
#[test]
fn switch_plans_are_symmetric() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x5FAB + case);
        let a = random_partition(&mut rng, 10, 5);
        let b = random_partition(&mut rng, 10, 5);
        let model = synthetic_uniform(10, 1e9, 2e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 16);
        let ab = SwitchPlan::between(&a, &b, &profile, ScheduleKind::PipeDream2Bw);
        let ba = SwitchPlan::between(&b, &a, &profile, ScheduleKind::PipeDream2Bw);
        assert_eq!(&ab.moved_layers, &ba.moved_layers, "case {case}");
        assert_eq!(&ab.affected_workers, &ba.affected_workers, "case {case}");
        assert!(
            (ab.transfer_bytes - ba.transfer_bytes).abs() < 1.0,
            "case {case}"
        );
        // Self-diff is a no-op.
        let aa = SwitchPlan::between(&a, &a, &profile, ScheduleKind::PipeDream2Bw);
        assert!(aa.is_noop(), "case {case}");
    }
}

/// The engine completes exactly the requested iterations (or slightly
/// more on simultaneous completion), in non-decreasing time order, and
/// busy time never exceeds the makespan. Runs 48 seeded random shapes plus
/// one pinned shape: a shrunk failure from an earlier randomized search (a
/// replicated middle stage under a deep in-flight window).
#[test]
fn engine_conservation() {
    let random = (0..48u64).map(|case| {
        let mut rng = Rng::seed_from_u64(0xE46E + case);
        let p = random_partition(&mut rng, 8, 4);
        let iters = rng.gen_range(5..25usize);
        (format!("case {case}"), p, iters)
    });
    let pinned = Partition {
        stages: vec![
            Stage::new(0..2, vec![GpuId(0)]),
            Stage::new(2..6, vec![GpuId(1), GpuId(2)]),
            Stage::new(6..8, vec![GpuId(3)]),
        ],
        in_flight: 7,
    };
    for (case, p, iters) in random.chain([("pinned case".to_string(), pinned, 24)]) {
        let model = synthetic_uniform(8, 1e9, 2e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 16);
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0);
        let r = Engine::new(
            &profile,
            p,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid partition")
        .run(iters)
        .expect("engine run");
        assert!(r.iterations.len() >= iters, "{case}");
        for w in r.iterations.windows(2) {
            assert!(w[1].finish >= w[0].finish - 1e-9, "{case}");
        }
        // Iteration ids are unique; replicas complete out of order, so the
        // final wave may contain an id ahead of a still-in-flight one, but
        // every id stays within the injected range.
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        let unique_before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), unique_before, "{case}: duplicate iteration ids");
        let max_injected = (r.iterations.len() + 64) as u64;
        assert!(ids.iter().all(|&id| id < max_injected), "{case}");
        for &b in &r.busy {
            assert!(b <= r.makespan + 1e-6, "{case}");
        }
    }
}

/// PipeDream's planner output is always valid and uses at most the
/// offered workers, at any bandwidth.
#[test]
fn planner_output_valid() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x91A4 + case);
        let gbps_v = rng.gen_range(1.0..120.0);
        let n = rng.gen_range(2..10usize);
        let model = synthetic_skewed(9, 2e9, 8e6, 6e6);
        let profile = ModelProfile::with_batch(&model, 16);
        let gpus: Vec<GpuId> = (0..n).map(GpuId).collect();
        let plan = pipedream_plan(
            &profile,
            &gpus,
            PipeDreamView {
                bandwidth: ap_cluster::gbps(gbps_v),
                gpu_flops: 9.3e12,
            },
        );
        assert!(plan.validate(9).is_ok(), "case {case}");
        assert!(plan.n_workers() <= n, "case {case}");
        assert!(plan.in_flight >= 1, "case {case}");
        // Two-worker moves of the plan stay valid.
        for mv in two_worker_moves(&plan, 9) {
            assert!(mv.apply(&plan).validate(9).is_ok(), "case {case}");
        }
    }
}
