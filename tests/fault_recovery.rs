//! Fault-recovery properties (DESIGN.md §7): seeded fault schedules must
//! never lose a mini-batch, work must flow only through survivors, a
//! mid-migration kill must roll back or complete (never wedge), and the
//! whole fault pipeline — plan generation through the decision journal —
//! must be byte-identical across reruns and processes.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{
    gbps, ClusterTopology, DetectorConfig, EventKind, FaultEvent, FaultPlan, FaultPlanConfig,
    GpuId, ResourceTimeline,
};
use ap_models::{synthetic_skewed, ModelProfile};
use ap_pipesim::{FaultRecord, ScheduleKind, SimResult, SwitchPlan};
use ap_planner::{pipedream_plan, uniform_plan, PipeDreamView};
use autopipe::arbiter::ArbiterMode;
use autopipe::controller::{
    run_dynamic_scenario, run_dynamic_scenario_traced, AutoPipeConfig, AutoPipeController, Scorer,
};
use autopipe::{DecisionEvent, ScenarioResult};

const N_ITERATIONS: usize = 40;

fn profile() -> ModelProfile {
    ModelProfile::with_batch(&synthetic_skewed(12, 2e9, 40e6, 10e6), 32)
}

fn topology() -> ClusterTopology {
    ClusterTopology::single_switch(4, 2, GpuKind::P100, 25.0)
}

fn initial_plan(profile: &ModelProfile, topo: &ClusterTopology) -> ap_pipesim::Partition {
    pipedream_plan(
        profile,
        &(0..topo.n_gpus()).map(GpuId).collect::<Vec<_>>(),
        PipeDreamView {
            bandwidth: gbps(25.0),
            gpu_flops: GpuKind::P100.peak_flops(),
        },
    )
}

fn base_cfg() -> AutoPipeConfig {
    AutoPipeConfig {
        check_every: 5,
        detector: DetectorConfig {
            threshold: 0.15,
            persistence: 2,
        },
        ..AutoPipeConfig::default()
    }
}

/// The fault-free makespan, used to scale the fault schedule so the same
/// seed yields the same *relative* schedule at any iteration count.
fn clean_horizon(profile: &ModelProfile, topo: &ClusterTopology) -> f64 {
    let init = initial_plan(profile, topo);
    let cfg = base_cfg();
    run_dynamic_scenario(
        profile,
        topo,
        &ResourceTimeline::empty(),
        init,
        None,
        &cfg,
        N_ITERATIONS,
    )
    .expect("fault-free scenario")
    .total_seconds
}

/// A seeded fault schedule of transient worker outages and NIC flaps,
/// scaled to the fault-free makespan.
fn fault_plan(topo: &ClusterTopology, horizon: f64, seed: u64) -> FaultPlan {
    let iter_time = horizon / N_ITERATIONS as f64;
    let cfg = FaultPlanConfig {
        mtbf: horizon / 3.0,
        mttr: horizon / 2.0,
        max_concurrent_failures: 1,
        flap_mtbf: horizon / 1.5,
        flap_down_gbps: 2.0,
        flap_period: (horizon / 25.0).max(4.0 * iter_time),
        flap_count: 2,
    };
    let mut plan = FaultPlan::generate(topo, &cfg, horizon, seed);
    // Faults push the run past the horizon, so a recovery clipped off the
    // plan's end (`until: None`, a permanent loss) would land mid-run;
    // keep the sweep to transient outages so every seed is comparable.
    plan.faults
        .retain(|f| !matches!(f, FaultEvent::WorkerOutage { until: None, .. }));
    plan
}

/// Run the controlled scenario under the seed's fault schedule.
fn run_faulted(seed: u64) -> (ScenarioResult, SimResult, FaultPlan) {
    let profile = profile();
    let topo = topology();
    let init = initial_plan(&profile, &topo);
    let horizon = clean_horizon(&profile, &topo);
    let plan = fault_plan(&topo, horizon, seed);
    let mut cfg = base_cfg();
    cfg.retry_base_delay_seconds = (4.0 * horizon / N_ITERATIONS as f64).max(1e-3);
    let mut ctrl = AutoPipeController::new(
        &profile,
        init.clone(),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.02),
        cfg.clone(),
    )
    .expect("valid initial partition");
    let (scenario, sim) = run_dynamic_scenario_traced(
        &profile,
        &topo,
        &plan.to_timeline(),
        init,
        Some(&mut ctrl),
        &cfg,
        N_ITERATIONS,
    )
    .unwrap_or_else(|e| panic!("seed {seed} wedged: {e:?}"));
    (scenario, sim, plan)
}

/// Exactly `N_ITERATIONS` distinct mini-batches completed. The engine
/// stops at the Nth *completion*, so a unit a fault delayed (aborted
/// compute requeued, or stranded and restarted) can still be in flight at
/// the horizon while a later-injected unit took its completion slot —
/// that unit's id is then missing and a `>= N` id appears instead. Work
/// is re-done or late, never dropped: displaced ids are only legal when
/// the run actually saw faults.
fn assert_units_accounted(sim: &SimResult, faulted: bool, ctx: &str) {
    let mut ids: Vec<u64> = sim.iterations.iter().map(|r| r.iteration).collect();
    ids.sort_unstable();
    assert_eq!(ids.len(), N_ITERATIONS, "{ctx}: completion count");
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: a mini-batch completed twice: {ids:?}"
    );
    let displaced = ids.iter().filter(|&&i| i >= N_ITERATIONS as u64).count();
    if !faulted {
        assert_eq!(
            displaced, 0,
            "{ctx}: a fault-free run must complete exactly 0..N: {ids:?}"
        );
    }
}

/// FNV-1a over a string rendering.
fn digest(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every requested mini-batch completes exactly once — faults may re-run
/// stranded work (`UnitsRestarted`) but never silently drop or duplicate
/// a completion.
#[test]
fn no_minibatch_is_silently_lost_under_faults() {
    let mut outages_seen = 0usize;
    for seed in [1u64, 2, 3, 5, 8] {
        let (scenario, sim, plan) = run_faulted(seed);
        outages_seen += plan
            .faults
            .iter()
            .filter(|f| matches!(f, FaultEvent::WorkerOutage { .. }))
            .count();
        let faulted = !plan.faults.is_empty();
        assert_units_accounted(&sim, faulted, &format!("seed {seed}"));
        // The journal mirrors engine-observed faults, so a schedule with
        // outages must leave WorkerFailed records behind.
        let failures = scenario
            .journal
            .records
            .iter()
            .filter(|r| matches!(r.event, DecisionEvent::WorkerFailed { .. }))
            .count();
        let planned = plan
            .faults
            .iter()
            .filter(|f| matches!(f, FaultEvent::WorkerOutage { .. }))
            .count();
        assert_eq!(
            failures, planned,
            "seed {seed}: journal must record every planned outage"
        );
    }
    assert!(
        outages_seen > 0,
        "the sweep must actually exercise worker outages"
    );
}

/// With a replicated stage and no controller, a worker death sheds the
/// victim and the survivors absorb its work: the run still completes
/// every mini-batch and the dead worker accrues no busy time after the
/// failure (cold recovery — it rejoins only via a repartition).
#[test]
fn work_is_conserved_on_survivors() {
    let profile = profile();
    let topo = topology();
    let all: Vec<GpuId> = (0..topo.n_gpus()).map(GpuId).collect();
    // Two stages, four replicas each: any single death is survivable
    // without repartitioning.
    let init = uniform_plan(&profile, 2, &all);
    let cfg = base_cfg();
    let horizon = run_dynamic_scenario(
        &profile,
        &topo,
        &ResourceTimeline::empty(),
        init.clone(),
        None,
        &cfg,
        N_ITERATIONS,
    )
    .expect("fault-free scenario")
    .total_seconds;

    // The fault-free run must complete exactly 0..N, in order.
    let (_, clean_sim) = run_dynamic_scenario_traced(
        &profile,
        &topo,
        &ResourceTimeline::empty(),
        init.clone(),
        None,
        &cfg,
        N_ITERATIONS,
    )
    .expect("fault-free scenario");
    assert_units_accounted(&clean_sim, false, "fault-free");

    let victim = GpuId(1);
    let fail_at = 0.3 * horizon;
    let mut tl = ResourceTimeline::empty();
    tl.push(fail_at, EventKind::WorkerFail(victim));

    let (_, sim) =
        run_dynamic_scenario_traced(&profile, &topo, &tl, init.clone(), None, &cfg, N_ITERATIONS)
            .expect("replicated stage must survive one death");

    assert_units_accounted(&sim, true, "one death, replicated stages");

    let victim_idx = init
        .all_workers()
        .iter()
        .position(|g| *g == victim)
        .expect("victim is in the plan");
    let posthumous: Vec<_> = sim
        .segments
        .iter()
        .filter(|s| s.worker == victim_idx && s.start > fail_at + 1e-9)
        .collect();
    assert!(
        posthumous.is_empty(),
        "dead worker must accrue no busy time after failing: {posthumous:?}"
    );
    let survivor_busy: f64 = sim
        .segments
        .iter()
        .filter(|s| s.worker != victim_idx && s.start > fail_at)
        .map(|s| s.end - s.start)
        .sum();
    assert!(
        survivor_busy > 0.0,
        "survivors must keep working after the failure"
    );
}

/// The rollback order is the exact inverse of the completed migration
/// prefix: every copied stash version reverts exactly once (restoring the
/// pre-switch assignment), layers unwind most-recently-started first, and
/// within a layer the later active mini-batch's copy reverts first —
/// the dual of the §4.4 forward order.
#[test]
fn rollback_restores_pre_switch_stash_assignment() {
    let profile = profile();
    let all: Vec<GpuId> = (0..8).map(GpuId).collect();
    let pairs = [
        (
            uniform_plan(&profile, 2, &all),
            uniform_plan(&profile, 4, &all),
        ),
        (
            uniform_plan(&profile, 3, &all),
            uniform_plan(&profile, 1, &all),
        ),
        (
            uniform_plan(&profile, 4, &all),
            initial_plan(&profile, &topology()),
        ),
    ];
    for (old, new) in &pairs {
        let plan = SwitchPlan::between(old, new, &profile, ScheduleKind::PipeDreamAsync);
        let forward = plan.migration_order();
        if forward.is_empty() {
            continue;
        }
        for completed in 0..=forward.len() {
            let done = &forward[..completed];
            let rollback = plan.rollback_order(completed);

            // Multiset equality: exactly the copied versions revert.
            let mut a: Vec<_> = done.iter().map(|s| (s.layer, s.version)).collect();
            let mut b: Vec<_> = rollback.iter().map(|s| (s.layer, s.version)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "rollback must revert exactly the completed copies");

            // Layers unwind in reverse first-touch order.
            let first_touch = |steps: &[ap_pipesim::MigrationStep]| -> Vec<usize> {
                let mut seen = Vec::new();
                for s in steps {
                    if !seen.contains(&s.layer) {
                        seen.push(s.layer);
                    }
                }
                seen
            };
            let mut expected = first_touch(done);
            expected.reverse();
            assert_eq!(first_touch(&rollback), expected);

            // Later active mini-batch's copy first within each layer.
            for w in rollback.windows(2) {
                if w[0].layer == w[1].layer {
                    assert!(
                        w[0].version > w[1].version,
                        "stash versions must revert newest-first within a layer"
                    );
                }
            }
        }
    }
}

/// A worker killed inside the migration window either aborts the switch
/// (journal records `MigrationRolledBack`) or the switch completes — in
/// both cases the run finishes every mini-batch. Replays the fault-free
/// journal to find the switch window, then kills each worker mid-window
/// in turn.
#[test]
fn mid_migration_kill_rolls_back_or_completes() {
    let profile = profile();
    let topo = topology();
    let init = initial_plan(&profile, &topo);
    let cfg = base_cfg();

    // A bandwidth collapse forces a fine-grained switch; find its window
    // from the journal of an undisturbed run.
    let mut collapse = ResourceTimeline::empty();
    collapse.push(3.0, EventKind::SetAllLinksGbps(2.0));
    let mut ctrl = AutoPipeController::new(
        &profile,
        init.clone(),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.0),
        cfg.clone(),
    )
    .expect("valid initial partition");
    let quiet = run_dynamic_scenario(
        &profile,
        &topo,
        &collapse,
        init.clone(),
        Some(&mut ctrl),
        &cfg,
        N_ITERATIONS,
    )
    .expect("collapse scenario");
    let (switch_at, pause) = quiet
        .journal
        .records
        .iter()
        .find_map(|r| match r.event {
            DecisionEvent::SwitchApplied { pause_seconds, .. } if pause_seconds > 0.0 => {
                Some((r.time, pause_seconds))
            }
            _ => None,
        })
        .expect("the collapse must trigger a paid switch");

    let mut rollbacks = 0usize;
    for victim in 0..topo.n_gpus() {
        let mut tl = collapse.clone();
        tl.push(
            switch_at + 0.5 * pause,
            EventKind::WorkerFail(GpuId(victim)),
        );
        let mut ctrl = AutoPipeController::new(
            &profile,
            init.clone(),
            Scorer::Analytic,
            ArbiterMode::Threshold(0.0),
            cfg.clone(),
        )
        .expect("valid initial partition");
        let (scenario, sim) = run_dynamic_scenario_traced(
            &profile,
            &topo,
            &tl,
            init.clone(),
            Some(&mut ctrl),
            &cfg,
            N_ITERATIONS,
        )
        .unwrap_or_else(|e| panic!("victim {victim}: mid-migration kill wedged the run: {e:?}"));
        assert_units_accounted(&sim, true, &format!("victim {victim}"));
        for f in &sim.faults {
            if let FaultRecord::MigrationRolledBack {
                progress,
                rollback_seconds,
                ..
            } = f
            {
                rollbacks += 1;
                assert!(
                    (0.0..1.0).contains(progress),
                    "rollback progress must be a fraction of the window"
                );
                assert!(*rollback_seconds >= 0.0);
                // The engine's record must be mirrored into the journal.
                assert!(
                    scenario
                        .journal
                        .records
                        .iter()
                        .any(|r| matches!(r.event, DecisionEvent::MigrationRolledBack { .. })),
                    "victim {victim}: journal must mirror the rollback"
                );
            }
        }
    }
    assert!(
        rollbacks > 0,
        "killing every worker mid-window must abort the migration at least once"
    );
}

/// The fault plan and everything downstream of it (decisions, completion
/// times) are byte-identical across reruns in one process.
#[test]
fn fault_schedule_is_identical_across_reruns() {
    let (sa, ra, pa) = run_faulted(3);
    let (sb, rb, pb) = run_faulted(3);
    assert_eq!(pa, pb, "fault plans must match structurally");
    assert_eq!(sa.journal, sb.journal);
    assert_eq!(
        format!("{:?}", ra.iterations),
        format!("{:?}", rb.iterations)
    );
    // And distinct seeds must actually differ.
    let (_, _, pc) = run_faulted(5);
    assert_ne!(pa, pc, "different seeds must draw different schedules");
}

/// The digest of the fault plan, the journal and the completion times,
/// pinned across processes: the value it had at every worker-pool width
/// (1 and 4 threads) while planning still fanned out over threads.
/// Planning now runs on the calling thread, so only a change to the fault
/// schedule or anything it drives moves it.
#[test]
fn fault_schedule_is_independent_of_worker_pool_width() {
    let (scenario, sim, plan) = run_faulted(3);
    let rendered = format!("{:?}|{:?}|{:?}", plan, scenario.journal, sim.iterations);
    assert_eq!(
        format!("{:016x}/{}", digest(&rendered), rendered.len()),
        "15db1f853889b14a/6765"
    );
}
