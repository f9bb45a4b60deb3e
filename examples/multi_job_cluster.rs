//! AutoPipe deployed on every tenant of a shared cluster (§1: "our
//! RL-based solution can further improve the overall training performance
//! when AutoPipe is deployed on multiple jobs").
//!
//! Three jobs (ResNet50, VGG16, BERT at reduced depth) share the 10-GPU
//! testbed. Every plan was computed when its job had the 100 Gbps cluster
//! to itself — the one-shot configuration the paper criticizes. Static
//! tenants keep those stale plans; the AutoPipe tenancy adapts to the
//! crowded 25 Gbps reality via coordinated best-response rounds.
//!
//! ```text
//! cargo run --release --example multi_job_cluster
//! ```

use ap_cluster::gpu::GpuKind;
use ap_cluster::{gbps, ClusterTopology, GpuId};
use ap_models::{bert_n, resnet50, vgg16, ModelProfile};
use ap_planner::{pipedream_plan, PipeDreamView};
use ap_sched::tenancy::{best_response_rounds, evaluate, JobSpec, MultiJobEnv};
use autopipe::HillClimbPlanner;

fn job(model: ap_models::ModelDesc, gpus: Vec<GpuId>, adaptive: bool) -> JobSpec {
    let profile = ModelProfile::of(&model);
    // One-shot plan from each job's solo launch: exclusive 100 Gbps.
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
}

fn main() {
    let topo = ClusterTopology::single_switch(5, 2, GpuKind::P100, 25.0);
    let env = MultiJobEnv::default();

    // Gang scheduling fragments placements: the jobs' footprints overlap
    // on GPUs 4-5, so each tenant sees heterogeneous contention.
    let mut jobs = vec![
        job(resnet50(), (0..6).map(GpuId).collect(), true),
        job(vgg16(), (4..10).map(GpuId).collect(), true),
        job(bert_n(12), (0..10).map(GpuId).collect(), true),
    ];
    let names = ["resnet50", "vgg16", "bert12"];

    let before = evaluate(&topo, &jobs, &env).expect("static tenancy");
    println!("static PipeDream tenancy:");
    for (n, tp) in names.iter().zip(&before.per_job) {
        println!("  {n:9} {tp:8.1} samples/s");
    }
    println!("  total     {:8.1} samples/s", before.total);

    let changes = best_response_rounds(&topo, &mut jobs, &env, 4, &HillClimbPlanner::default())
        .expect("best response");
    let after = evaluate(&topo, &jobs, &env).expect("adaptive tenancy");
    println!("\nAutoPipe tenancy after {changes} coordinated plan changes:");
    for ((n, tp), j) in names.iter().zip(&after.per_job).zip(&jobs) {
        println!("  {n:9} {tp:8.1} samples/s   {}", j.partition.summary());
    }
    println!("  total     {:8.1} samples/s", after.total);
    println!(
        "\ntenancy-wide improvement: {:+.1}%",
        (after.total / before.total - 1.0) * 100.0
    );
}
