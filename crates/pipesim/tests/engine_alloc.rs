//! A warm engine tick allocates nothing. Ready queues, transfer paths,
//! the rate solve's tables and the completion drain all reuse buffers
//! that only grow while the pipeline fills, so running twice as many
//! mini-batches costs no more allocations than the result's own
//! `Vec<IterationRecord>` growing to hold them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ap_cluster::dynamics::BgJobId;
use ap_cluster::gpu::GpuKind;
use ap_cluster::{
    gbps, ClusterState, ClusterTopology, EventKind, GpuId, ResourceTimeline, ServerId,
};
use ap_ir::DEFAULT_MICRO_BATCHES;
use ap_models::{synthetic_uniform, ModelProfile};
use ap_pipesim::{Engine, EngineConfig, Partition, ScheduleKind, Stage};

/// Counts allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Three stages of two replicas, two GPUs per server: activations cross
/// both local and switched hops, and each stage's gradient ring shares
/// uplinks and downlinks with the activations.
fn plan() -> (ClusterState, Partition) {
    let topo = ClusterTopology::single_switch(4, 2, GpuKind::P100, 10.0);
    let stages = (0..3)
        .map(|s| Stage::new(4 * s..4 * s + 4, vec![GpuId(s + 1), GpuId(s + 4)]))
        .collect();
    let mut partition = Partition {
        stages,
        in_flight: 1,
    };
    partition.in_flight = partition.default_in_flight();
    let mut state = ClusterState::new(topo);
    state.apply(&EventKind::JobArrive {
        id: BgJobId(1),
        gpus: vec![GpuId(2), GpuId(7)],
        net_bytes_per_sec: gbps(3.0),
    });
    state.apply(&EventKind::SetBackgroundTraffic(ServerId(1), gbps(2.0)));
    (state, partition)
}

/// Allocations made by building an engine and running `iterations`.
fn allocations(profile: &ModelProfile, schedule: ScheduleKind, iterations: usize) -> usize {
    let (state, partition) = plan();
    let cfg = EngineConfig {
        schedule,
        ..EngineConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let engine = Engine::new(profile, partition, state, ResourceTimeline::empty(), cfg)
        .expect("valid partition");
    let result = engine.run(iterations).expect("run completes");
    let after = ALLOCS.with(Cell::get);
    assert_eq!(result.iterations.len(), iterations);
    after - before
}

#[test]
fn doubling_the_run_only_grows_the_result() {
    let model = synthetic_uniform(12, 2e9, 2e6, 8e6);
    let profile = ModelProfile::with_batch(&model, 32);
    let flush = ScheduleKind::Dapple {
        micro_batches: DEFAULT_MICRO_BATCHES,
    };
    for schedule in [ScheduleKind::PipeDreamAsync, flush] {
        let n = allocations(&profile, schedule, 40);
        let n2 = allocations(&profile, schedule, 80);
        // Doubling the records doubles the result's capacity once or
        // twice; nothing else may allocate per tick.
        assert!(
            n2 <= n + 2,
            "{}: run(40) made {n} allocations, run(80) made {n2}",
            schedule.id()
        );
    }
}
