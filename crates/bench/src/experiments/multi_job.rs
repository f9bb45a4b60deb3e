//! Multi-job deployment (§1's closing claim): total tenancy throughput of
//! stale one-shot plans vs a coordinated AutoPipe tenancy.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{gbps, ClusterTopology, GpuId};
use ap_models::{bert_n, resnet50, vgg16, ModelProfile};
use ap_planner::{pipedream_plan, PipeDreamView};
use ap_sched::tenancy::{best_response_rounds, evaluate, JobSpec, MultiJobEnv};
use autopipe::HillClimbPlanner;

/// One tenancy configuration's outcome.
#[derive(Debug, Clone)]
pub struct MultiJobRow {
    /// Tenancy label.
    pub tenancy: String,
    /// Per-job throughputs (samples/sec) in job order.
    pub per_job: Vec<f64>,
    /// Total.
    pub total: f64,
    /// Plan changes the adaptation applied.
    pub changes: usize,
}

fn tenancy(adaptive: bool) -> Vec<JobSpec> {
    let mk = |model: ap_models::ModelDesc, gpus: Vec<GpuId>| {
        let profile = ModelProfile::of(&model);
        let partition = pipedream_plan(
            &profile,
            &gpus,
            PipeDreamView {
                bandwidth: gbps(100.0),
                gpu_flops: GpuKind::P100.peak_flops(),
            },
        );
        JobSpec {
            profile,
            partition,
            adaptive,
        }
    };
    // Overlapping gang-scheduled footprints: contention is heterogeneous.
    vec![
        mk(resnet50(), (0..6).map(GpuId).collect()),
        mk(vgg16(), (4..10).map(GpuId).collect()),
        mk(bert_n(12), (0..10).map(GpuId).collect()),
    ]
}

/// Run the comparison: static stale plans vs coordinated AutoPipe.
pub fn run() -> Vec<MultiJobRow> {
    let topo = ClusterTopology::single_switch(5, 2, GpuKind::P100, 25.0);
    let env = MultiJobEnv::default();

    let static_jobs = tenancy(false);
    let before = evaluate(&topo, &static_jobs, &env).expect("static tenancy");

    let mut adaptive = tenancy(true);
    let changes = best_response_rounds(&topo, &mut adaptive, &env, 4, &HillClimbPlanner::default())
        .expect("best response");
    let after = evaluate(&topo, &adaptive, &env).expect("adaptive tenancy");

    vec![
        MultiJobRow {
            tenancy: "static PipeDream x3".into(),
            per_job: before.per_job,
            total: before.total,
            changes: 0,
        },
        MultiJobRow {
            tenancy: "AutoPipe x3 (coordinated)".into(),
            per_job: after.per_job,
            total: after.total,
            changes,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinated_tenancy_improves_total() {
        let rows = run();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].total > rows[0].total * 1.02,
            "expected a visible tenancy gain: {:.1} -> {:.1}",
            rows[0].total,
            rows[1].total
        );
        assert!(rows[1].changes >= 1);
    }
}
