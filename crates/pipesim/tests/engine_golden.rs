//! Golden values for the event engine: the exact bits of steady
//! throughput, makespan and mean staleness for every schedule in the zoo
//! on three pipeline shapes, with and without a host calibration that
//! processor-shares compute, plus one run under a mid-run bandwidth
//! timeline. The engine's inner loop is a hot path that gets optimized;
//! any drift in its arithmetic (a reordered sum, a rate solved from a
//! different state) changes some bit here and fails the suite.
//!
//! On an intended change to the simulated model, the failure message
//! prints the full replacement table.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{
    gbps, ClusterState, ClusterTopology, EventKind, GpuId, ResourceTimeline, ServerId,
};
use ap_models::{synthetic_uniform, ModelProfile};
use ap_pipesim::{Calibration, Engine, EngineConfig, Partition, ScheduleKind, SimResult, Stage};

const ITERATIONS: usize = 30;

/// `[steady_throughput(ITERATIONS / 3), makespan, mean_staleness]` as
/// `f64::to_bits`, one row per case in the order `actual` runs them.
const GOLDEN: &[[u64; 3]] = &[
    [0x4066845ae610b73f, 0x40170831e327d92b, 0x400aaaaaaaaaaaab], // 2x1 pipedream_async raw
    [0x4064e4ffd77bc448, 0x4018bad249644e2c, 0x400aaaaaaaaaaaab], // 2x1 pipedream_async calibrated
    [0x4056df9e63051d86, 0x4024fc272ff596da, 0x0000000000000000], // 2x1 gpipe raw
    [0x4055ba33866900a0, 0x4026178b8a1242c4, 0x0000000000000000], // 2x1 gpipe calibrated
    [0x405cfbd65fbcf28e, 0x40208f9e56e3e49c, 0x0000000000000000], // 2x1 dapple raw
    [0x405b2af163f9b72e, 0x4021ab02b10090a8, 0x0000000000000000], // 2x1 dapple calibrated
    [0x405cfbd65fbcf28e, 0x40208f9e56e3e49c, 0x0000000000000000], // 2x1 chimera raw
    [0x405b2af163f9b72e, 0x4021ab02b10090a8, 0x0000000000000000], // 2x1 chimera calibrated
    [0x4066845ae610b73f, 0x40170831e327d92b, 0x400aaaaaaaaaaaab], // 2x1 pipedream_2bw raw
    [0x4064e4ffd77bc448, 0x4018bad249644e2c, 0x400aaaaaaaaaaaab], // 2x1 pipedream_2bw calibrated
    [0x406d930c2323ff6b, 0x40128d5713991ab9, 0x4017ddddddddddde], // 3x2 pipedream_async raw
    [0x406460d85f3c64b3, 0x401b508fb37a7b97, 0x4017bbbbbbbbbbbc], // 3x2 pipedream_async calibrated
    [0x405e111a5b90fe3c, 0x401fedcc210c75af, 0x0000000000000000], // 3x2 gpipe raw
    [0x40578efdcdea97dc, 0x40245ff03da5a74b, 0x0000000000000000], // 3x2 gpipe calibrated
    [0x4061a3fc872337a1, 0x401b35c2b0f995ae, 0x0000000000000000], // 3x2 dapple raw
    [0x405c82d2ecd28313, 0x4020d5e929977f30, 0x0000000000000000], // 3x2 dapple calibrated
    [0x4061a3fc872337a1, 0x401b35c2b0f995ae, 0x0000000000000000], // 3x2 chimera raw
    [0x405c82d2ecd28313, 0x4020d5e929977f30, 0x0000000000000000], // 3x2 chimera calibrated
    [0x406d930c2323ff6b, 0x40128d5713991ab9, 0x4017ddddddddddde], // 3x2 pipedream_2bw raw
    [0x406460d85f3c64b3, 0x401b508fb37a7b97, 0x4017bbbbbbbbbbbc], // 3x2 pipedream_2bw calibrated
    [0x406bf1bf3860269a, 0x40148367d6adfec0, 0x4020aaaaaaaaaaab], // 4x3 pipedream_async raw
    [0x4060e542d17673c0, 0x401ef42c2088a148, 0x4020bbbbbbbbbbbc], // 4x3 pipedream_async calibrated
    [0x405c632dc0d6a565, 0x4020f7acdd8ab486, 0x0000000000000000], // 4x3 gpipe raw
    [0x4055722ae3fa896e, 0x40266d87794e82ee, 0x0000000000000000], // 4x3 gpipe calibrated
    [0x40601c27387b7228, 0x401de89d9086aae7, 0x0000000000000000], // 4x3 dapple raw
    [0x405984f9402ef1ab, 0x4022d9f07b543577, 0x0000000000000000], // 4x3 dapple calibrated
    [0x40601c27387b7228, 0x401de89d9086aae7, 0x0000000000000000], // 4x3 chimera raw
    [0x405984f9402ef1ab, 0x4022d9f07b543577, 0x0000000000000000], // 4x3 chimera calibrated
    [0x406bf1bf3860269a, 0x40148367d6adfec0, 0x4020aaaaaaaaaaab], // 4x3 pipedream_2bw raw
    [0x4060e542d17673c0, 0x401ef42c2088a148, 0x4020bbbbbbbbbbbc], // 4x3 pipedream_2bw calibrated
    [0x4053e67ff47ec071, 0x402b4f36991dd2ca, 0x401799999999999a], // 3x2 pipedream_async timeline
];

/// `stages × replicas` over 12 uniform layers. Worker `k = r·stages + s`
/// (replica `r` of stage `s`) sits on GPU `k + 1` of a two-GPU-per-server
/// switch, so the shapes mix node-local hops with hops that cross the
/// switch, and replicated stages run their gradient rings over shared
/// uplinks and downlinks.
fn shape(stages: usize, replicas: usize) -> (ClusterTopology, Partition) {
    let n_layers = 12;
    let per = n_layers / stages;
    let n_workers = stages * replicas;
    let topo = ClusterTopology::single_switch((n_workers + 2).div_ceil(2), 2, GpuKind::P100, 10.0);
    let stages: Vec<Stage> = (0..stages)
        .map(|s| {
            let end = if s + 1 == stages {
                n_layers
            } else {
                (s + 1) * per
            };
            let workers = (0..replicas).map(|r| GpuId(r * stages + s + 1)).collect();
            Stage::new(s * per..end, workers)
        })
        .collect();
    let mut partition = Partition {
        stages,
        in_flight: 1,
    };
    partition.in_flight = partition.default_in_flight();
    (topo, partition)
}

/// A calibration whose `compute_slots` is below every shape's worker
/// count above 2×1, so concurrent compute is processor-shared.
fn host_calibration() -> Calibration {
    Calibration {
        per_frame_s: 2e-4,
        per_byte_s: 1e-10,
        stage_overhead_s: 5e-4,
        stash_byte_s: 1e-11,
        compute_slots: 2,
    }
}

fn run(
    profile: &ModelProfile,
    (topo, partition): (ClusterTopology, Partition),
    schedule: ScheduleKind,
    calibration: Option<Calibration>,
    timeline: ResourceTimeline,
) -> SimResult {
    let mut state = ClusterState::new(topo);
    // A background job holds part of server 1's NIC in both directions.
    state.apply(&EventKind::SetBackgroundTraffic(ServerId(1), gbps(4.0)));
    let cfg = EngineConfig {
        schedule,
        calibration,
        ..EngineConfig::default()
    };
    Engine::new(profile, partition, state, timeline, cfg)
        .expect("valid partition")
        .run(ITERATIONS)
        .expect("run completes")
}

fn bits(r: &SimResult) -> [u64; 3] {
    [
        r.steady_throughput(ITERATIONS / 3).to_bits(),
        r.makespan.to_bits(),
        r.mean_staleness.to_bits(),
    ]
}

fn actual() -> Vec<(String, [u64; 3])> {
    let model = synthetic_uniform(12, 2e9, 2e6, 8e6);
    let profile = ModelProfile::with_batch(&model, 32);
    let mut rows = Vec::new();
    for (stages, replicas) in [(2, 1), (3, 2), (4, 3)] {
        for schedule in ScheduleKind::zoo() {
            for calibration in [None, Some(host_calibration())] {
                let r = run(
                    &profile,
                    shape(stages, replicas),
                    schedule,
                    calibration,
                    ResourceTimeline::empty(),
                );
                let case = format!(
                    "{stages}x{replicas} {} {}",
                    schedule.id(),
                    if calibration.is_some() {
                        "calibrated"
                    } else {
                        "raw"
                    }
                );
                rows.push((case, bits(&r)));
            }
        }
    }
    // Bandwidth drops mid-run, then partly recovers.
    let mut timeline = ResourceTimeline::empty();
    timeline.push(0.5, EventKind::SetAllLinksGbps(2.0));
    timeline.push(1.5, EventKind::ScaleAllLinks(3.0));
    let r = run(
        &profile,
        shape(3, 2),
        ScheduleKind::PipeDreamAsync,
        None,
        timeline,
    );
    rows.push(("3x2 pipedream_async timeline".to_string(), bits(&r)));
    rows
}

#[test]
fn engine_results_match_golden_bits() {
    let rows = actual();
    let got: Vec<[u64; 3]> = rows.iter().map(|(_, b)| *b).collect();
    if got != GOLDEN {
        let mut table = String::new();
        for (case, [t, m, s]) in &rows {
            table.push_str(&format!(
                "    [{t:#018x}, {m:#018x}, {s:#018x}], // {case}\n"
            ));
        }
        panic!("engine output drifted from the golden bits; actual table:\n{table}");
    }
}
