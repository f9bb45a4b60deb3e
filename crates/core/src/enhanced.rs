//! AutoPipe-enhanced pipeline-parallel variants (Figure 13).
//!
//! "Although our design is heavily based on PipeDream, the idea of
//! AutoPipe is naturally applicable to improve other pipeline parallelism
//! variants. Here, we implement and compare the AutoPipe-enhanced version
//! of three recent works, i.e., DAPPLE, Chimera and PipeDream-2BW."
//!
//! The vanilla versions of these systems split structurally uniform models
//! *evenly* (§2.1, category 1) and never re-plan. The enhancement re-plans
//! the even split with the controller's own steady-state optimizer,
//! [`hill_climb`]: the same move enumerator and analytic scorer the live
//! controller runs, on top of the same schedule.

use ap_cluster::{ClusterState, GpuId};
use ap_models::ModelProfile;
use ap_pipesim::{AnalyticModel, Framework, ScheduleKind, SyncScheme};
use ap_planner::uniform_plan;

use crate::controller::hill_climb;

/// Throughput of the vanilla (even-split, static) and AutoPipe-enhanced
/// (environment-aware, refined) configuration of a schedule, in
/// samples/sec under the given cluster state.
pub fn enhanced_throughput(
    schedule: ScheduleKind,
    profile: &ModelProfile,
    state: &ClusterState,
    scheme: SyncScheme,
    framework: Framework,
    n_stages: usize,
) -> (f64, f64) {
    let model = AnalyticModel {
        profile,
        scheme,
        framework,
        schedule,
        calibration: None,
    };
    let gpus: Vec<GpuId> = (0..state.topology.n_gpus()).map(GpuId).collect();
    let vanilla = uniform_plan(profile, n_stages, &gpus);
    let vanilla_tp = model.throughput(&vanilla, state);
    // Stage composition: group replicas by effective speed, then greedily
    // chain two-worker moves under the analytic scorer.
    let enhanced = hill_climb(&model, vanilla, state, 30);
    let enhanced_tp = model.throughput(&enhanced, state);
    (vanilla_tp, enhanced_tp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{ClusterTopology, EventKind};
    use ap_models::{bert_n, ModelProfile};

    fn shared_state() -> ClusterState {
        // A shared cluster: heterogeneous contention so the even split is
        // wrong.
        let topo = ClusterTopology::single_switch(5, 2, GpuKind::P100, 25.0);
        let mut st = ClusterState::new(topo);
        st.apply(&EventKind::JobArrive {
            id: ap_cluster::dynamics::BgJobId(1),
            gpus: vec![GpuId(0), GpuId(1), GpuId(2)],
            net_bytes_per_sec: ap_cluster::gbps(3.0),
        });
        st
    }

    #[test]
    fn enhancement_improves_all_three_variants() {
        let profile = ModelProfile::of(&bert_n(16));
        let st = shared_state();
        for schedule in [
            ScheduleKind::Dapple { micro_batches: 8 },
            ScheduleKind::Chimera { micro_batches: 8 },
            ScheduleKind::PipeDream2Bw,
        ] {
            let (vanilla, enhanced) = enhanced_throughput(
                schedule,
                &profile,
                &st,
                SyncScheme::RingAllReduce,
                Framework::pytorch(),
                4,
            );
            assert!(
                enhanced >= vanilla,
                "{}: {vanilla} -> {enhanced}",
                schedule.label()
            );
            assert!(
                enhanced > vanilla * 1.02,
                "{}: expected a visible gain under contention, got {vanilla} -> {enhanced}",
                schedule.label()
            );
        }
    }

    #[test]
    fn enhancement_is_noop_when_even_split_is_already_right() {
        // Uniform model, exclusive homogeneous cluster: the even split is
        // near-optimal; the enhancement must not regress it.
        let profile = ModelProfile::of(&bert_n(8));
        let st = ClusterState::new(ClusterTopology::single_switch(4, 1, GpuKind::P100, 100.0));
        let (vanilla, enhanced) = enhanced_throughput(
            ScheduleKind::Dapple { micro_batches: 8 },
            &profile,
            &st,
            SyncScheme::RingAllReduce,
            Framework::pytorch(),
            4,
        );
        assert!(enhanced >= vanilla * 0.999);
    }
}
