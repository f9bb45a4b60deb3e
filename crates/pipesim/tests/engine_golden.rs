//! Golden values for the event engine: the exact bits of steady
//! throughput, makespan and mean staleness for every schedule in the zoo
//! on three pipeline shapes, with and without a host calibration that
//! processor-shares compute, plus runs under mid-run timelines. The
//! engine's inner loop is a hot path that gets optimized; any drift in
//! its arithmetic (a reordered sum, a rate solved from a different
//! state, a cached rate or capacity not rebuilt after an event) changes
//! some bit here and fails the suite.
//!
//! The later rows cover what the engine caches between ticks:
//! background jobs that share GPUs and links, as `/plan` requests carry
//! them; a timeline of contention, sharing and link-flap events; and
//! worker failures and recoveries that re-home, strand and restart
//! units under a repairing controller.
//!
//! On an intended change to the simulated model, the failure message
//! prints the full replacement table.

use ap_cluster::dynamics::BgJobId;
use ap_cluster::gpu::GpuKind;
use ap_cluster::{
    gbps, ClusterState, ClusterTopology, EventKind, GpuId, ResourceTimeline, ServerId,
};
use ap_models::{synthetic_uniform, ModelProfile};
use ap_pipesim::{
    Calibration, Engine, EngineConfig, FaultRecord, Partition, ScheduleKind, SimResult, Stage,
};

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
    [0x406dec4d85c32b3b, 0x4012c7fe2b7b1255, 0x4017ddddddddddde], // 3x2 pipedream_async raw tenants
    [0x405a019df911e89d, 0x4023ae6cd1a71949, 0x4017555555555555], // 3x2 pipedream_async calibrated tenants
    [0x4055c50ab41a945e, 0x40260c8b46f20bf1, 0x0000000000000000], // 3x2 gpipe raw tenants
    [0x4050d2ad973b13ae, 0x402c884d77c69d44, 0x0000000000000000], // 3x2 gpipe calibrated tenants
    [0x405ac927b637423b, 0x4021eb8304e187d1, 0x0000000000000000], // 3x2 dapple raw tenants
    [0x4054f21a3612c11c, 0x4026ea982c9011ec, 0x0000000000000000], // 3x2 dapple calibrated tenants
    [0x405ac927b637423b, 0x4021eb8304e187d1, 0x0000000000000000], // 3x2 chimera raw tenants
    [0x4054f21a3612c11c, 0x4026ea982c9011ec, 0x0000000000000000], // 3x2 chimera calibrated tenants
    [0x406dec4d85c32b3b, 0x4012c7fe2b7b1255, 0x4017ddddddddddde], // 3x2 pipedream_2bw raw tenants
    [0x405a019df911e89d, 0x4023ae6cd1a71949, 0x4017555555555555], // 3x2 pipedream_2bw calibrated tenants
    [0x406a9431db2b5710, 0x4013c9a83892bf90, 0x4020777777777777], // 4x3 pipedream_async raw tenants
    [0x405ce02821d6cedc, 0x4023ab11ad158989, 0x4021222222222222], // 4x3 pipedream_async calibrated tenants
    [0x4056a58e6e909ebe, 0x40254655006bac62, 0x0000000000000000], // 4x3 gpipe raw tenants
    [0x40513165031bc731, 0x402bf63d92522350, 0x0000000000000000], // 4x3 gpipe calibrated tenants
    [0x405af0070da9b5af, 0x4021e20e37de1b30, 0x0000000000000000], // 4x3 dapple raw tenants
    [0x4054def759edb5cb, 0x402709fd6e2fe84b, 0x0000000000000000], // 4x3 dapple calibrated tenants
    [0x405af0070da9b5af, 0x4021e20e37de1b30, 0x0000000000000000], // 4x3 chimera raw tenants
    [0x4054def759edb5cb, 0x402709fd6e2fe84b, 0x0000000000000000], // 4x3 chimera calibrated tenants
    [0x406a9431db2b5710, 0x4013c9a83892bf90, 0x4020777777777777], // 4x3 pipedream_2bw raw tenants
    [0x405ce02821d6cedc, 0x4023ab11ad158989, 0x4021222222222222], // 4x3 pipedream_2bw calibrated tenants
    [0x406361b10c65381d, 0x401a460d4d28cad8, 0x4016444444444444], // 3x2 pipedream_async contention
    [0x405282b200ceebf2, 0x40443a90c2707122, 0x0000000000000000], // 3x2 dapple contention
    [0x4069189c437d268a, 0x4015fe6a429d03af, 0x4018444444444444], // 3x2 pipedream_async replica loss
    [0x406ca89717b03968, 0x401802c09a74829e, 0x4015555555555555], // 3x2 pipedream_async stage loss
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

/// A background job holds part of server 1's NIC in both directions.
fn nic_traffic(topo: ClusterTopology) -> ClusterState {
    let mut state = ClusterState::new(topo);
    state.apply(&EventKind::SetBackgroundTraffic(ServerId(1), gbps(4.0)));
    state
}

/// Background jobs as a `/plan` request carries them: each shares its
/// GPUs (halving their speed for this job) and loads the links of the
/// servers it spans.
fn tenants(topo: ClusterTopology) -> ClusterState {
    let mut state = ClusterState::new(topo);
    for (id, gpus, g) in [(1000, vec![2, 3], 3.0), (1001, vec![4, 7], 1.5)] {
        state.apply(&EventKind::JobArrive {
            id: BgJobId(id),
            gpus: gpus.into_iter().map(GpuId).collect(),
            net_bytes_per_sec: gbps(g),
        });
    }
    state
}

fn engine<'a>(
    profile: &'a ModelProfile,
    (topo, partition): (ClusterTopology, Partition),
    state: fn(ClusterTopology) -> ClusterState,
    schedule: ScheduleKind,
    calibration: Option<Calibration>,
    timeline: ResourceTimeline,
) -> Engine<'a> {
    let cfg = EngineConfig {
        schedule,
        calibration,
        ..EngineConfig::default()
    };
    Engine::new(profile, partition, state(topo), timeline, cfg).expect("valid partition")
}

fn run(
    profile: &ModelProfile,
    shape: (ClusterTopology, Partition),
    schedule: ScheduleKind,
    calibration: Option<Calibration>,
    timeline: ResourceTimeline,
) -> SimResult {
    engine(profile, shape, nic_traffic, schedule, calibration, timeline)
        .run(ITERATIONS)
        .expect("run completes")
}

/// `base` without the failed workers. A stage left with none borrows the
/// last worker of the stage that has the most (the first such stage).
fn repair(base: &Partition, failed: &[GpuId]) -> Partition {
    let mut stages: Vec<Stage> = base
        .stages
        .iter()
        .map(|s| {
            let workers = s
                .workers
                .iter()
                .copied()
                .filter(|g| !failed.contains(g))
                .collect();
            Stage::new(s.layers.clone(), workers)
        })
        .collect();
    while let Some(empty) = stages.iter().position(|s| s.workers.is_empty()) {
        let donor = (0..stages.len())
            .rev()
            .max_by_key(|&i| stages[i].workers.len())
            .expect("at least one stage");
        let g = stages[donor].workers.pop().expect("a donor has workers");
        stages[empty].workers.push(g);
    }
    Partition {
        stages,
        in_flight: base.in_flight,
    }
}

/// A controlled async run that repartitions whenever the failed set
/// changes: the repaired partition on failure, the base one again once
/// every worker is back.
fn run_repairing(profile: &ModelProfile, timeline: ResourceTimeline) -> SimResult {
    let (topo, base) = shape(3, 2);
    let mut seen: Vec<GpuId> = Vec::new();
    engine(
        profile,
        (topo, base.clone()),
        tenants,
        ScheduleKind::PipeDreamAsync,
        None,
        timeline,
    )
    .run_controlled(ITERATIONS, 4, |state, _, _, _| {
        let failed = state.failed_workers();
        if failed == seen {
            return None;
        }
        seen = failed;
        Some((repair(&base, &seen), 0.02, false))
    })
    .expect("the repairing controller keeps the run alive")
}

fn restarted(r: &SimResult) -> bool {
    r.faults
        .iter()
        .any(|f| matches!(f, FaultRecord::UnitsRestarted { count, .. } if *count > 0))
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

    // Background tenants share GPUs and links from the start.
    for (stages, replicas) in [(3, 2), (4, 3)] {
        for schedule in ScheduleKind::zoo() {
            for calibration in [None, Some(host_calibration())] {
                let r = engine(
                    &profile,
                    shape(stages, replicas),
                    tenants,
                    schedule,
                    calibration,
                    ResourceTimeline::empty(),
                )
                .run(ITERATIONS)
                .expect("run completes");
                let case = format!(
                    "{stages}x{replicas} {} {} tenants",
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

    // Contention comes and goes mid-run: a job arrives on two workers
    // and a link, a GPU's sharing changes, a NIC flaps, the job leaves.
    let mut contention = ResourceTimeline::empty();
    contention.push(
        0.3,
        EventKind::JobArrive {
            id: BgJobId(7),
            gpus: vec![GpuId(1), GpuId(5)],
            net_bytes_per_sec: gbps(2.5),
        },
    );
    contention.push(0.6, EventKind::SetGpuSharing(GpuId(3), 3));
    contention.push(0.9, EventKind::LinkFlapDown(ServerId(2), 1.0));
    contention.push(1.1, EventKind::LinkFlapRestore(ServerId(2)));
    contention.push(1.4, EventKind::JobDepart(BgJobId(7)));
    contention.push(1.7, EventKind::SetBackgroundTraffic(ServerId(1), gbps(6.0)));
    let async_and_dapple = ScheduleKind::zoo().into_iter().filter(|s| {
        matches!(
            s,
            ScheduleKind::PipeDreamAsync | ScheduleKind::Dapple { .. }
        )
    });
    for schedule in async_and_dapple {
        let r = engine(
            &profile,
            shape(3, 2),
            tenants,
            schedule,
            None,
            contention.clone(),
        )
        .run(ITERATIONS)
        .expect("run completes");
        rows.push((format!("3x2 {} contention", schedule.id()), bits(&r)));
    }

    // One replica of stage 0 dies and comes back; its work re-homes onto
    // the survivor.
    let mut flap = ResourceTimeline::empty();
    flap.push(0.4, EventKind::WorkerFail(GpuId(4)));
    flap.push(1.0, EventKind::WorkerRecover(GpuId(4)));
    let r = engine(
        &profile,
        shape(3, 2),
        tenants,
        ScheduleKind::PipeDreamAsync,
        None,
        flap,
    )
    .run(ITERATIONS)
    .expect("a replicated stage survives one replica");
    rows.push(("3x2 pipedream_async replica loss".to_string(), bits(&r)));

    // Both replicas of stage 1 die: units strand until the controller
    // lends the stage a worker, then restart; a recovery repartitions
    // back onto the full set.
    let mut faults = ResourceTimeline::empty();
    faults.push(0.5, EventKind::WorkerFail(GpuId(2)));
    faults.push(0.8, EventKind::WorkerFail(GpuId(5)));
    faults.push(1.5, EventKind::WorkerRecover(GpuId(2)));
    faults.push(1.9, EventKind::WorkerRecover(GpuId(5)));
    let r = run_repairing(&profile, faults);
    assert!(
        restarted(&r),
        "the stage loss must strand and restart units"
    );
    rows.push(("3x2 pipedream_async stage loss".to_string(), bits(&r)));
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
