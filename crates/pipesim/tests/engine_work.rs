//! Exact work counts of the event engine on two `engine_golden.rs` plans:
//! steps, rate solves, progressive-filling rounds and dispatch visits.
//! The counts depend only on the inputs and the engine's algorithm, so a
//! lost fast path (a lone transfer filled round by round, a dispatch that
//! scans every worker) fails here deterministically, where wall clock on
//! a shared host would hide it. On an intended change to the engine's
//! work, the failure message prints the new counts.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{
    gbps, ClusterState, ClusterTopology, EventKind, GpuId, ResourceTimeline, ServerId,
};
use ap_ir::DEFAULT_MICRO_BATCHES;
use ap_models::{synthetic_uniform, ModelProfile};
use ap_pipesim::{Engine, EngineConfig, EngineWork, Partition, ScheduleKind, Stage};

/// `engine_golden.rs`'s 3×2 shape: three stages of two replicas over 12
/// uniform layers, worker `k = r·3 + s` on GPU `k + 1` of a
/// two-GPU-per-server switch, with a background job holding part of
/// server 1's NIC.
fn plan() -> (ClusterState, Partition) {
    let topo = ClusterTopology::single_switch(4, 2, GpuKind::P100, 10.0);
    let stages = (0..3)
        .map(|s| {
            let workers = (0..2).map(|r| GpuId(r * 3 + s + 1)).collect();
            Stage::new(4 * s..4 * s + 4, workers)
        })
        .collect();
    let mut partition = Partition {
        stages,
        in_flight: 1,
    };
    partition.in_flight = partition.default_in_flight();
    let mut state = ClusterState::new(topo);
    state.apply(&EventKind::SetBackgroundTraffic(ServerId(1), gbps(4.0)));
    (state, partition)
}

fn work(schedule: ScheduleKind) -> EngineWork {
    let model = synthetic_uniform(12, 2e9, 2e6, 8e6);
    let profile = ModelProfile::with_batch(&model, 32);
    let (state, partition) = plan();
    let cfg = EngineConfig {
        schedule,
        ..EngineConfig::default()
    };
    Engine::new(&profile, partition, state, ResourceTimeline::empty(), cfg)
        .expect("valid partition")
        .run(30)
        .expect("run completes")
        .work
}

#[test]
fn engine_work_counts_are_pinned() {
    let dapple = ScheduleKind::Dapple {
        micro_batches: DEFAULT_MICRO_BATCHES,
    };
    let want = [
        (
            ScheduleKind::PipeDreamAsync,
            EngineWork {
                ticks: 418,
                rate_solves: 384,
                fill_rounds: 797,
                dispatch_visits: 428,
            },
        ),
        (
            dapple,
            EngineWork {
                ticks: 1170,
                rate_solves: 901,
                fill_rounds: 510,
                dispatch_visits: 1264,
            },
        ),
    ];
    for (schedule, want) in want {
        assert_eq!(work(schedule), want, "{} work counts", schedule.id());
    }
}
