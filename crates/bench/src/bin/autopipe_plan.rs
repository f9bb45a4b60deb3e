//! `autopipe-plan` — plan a pipeline-parallel job from the command line.
//!
//! ```text
//! autopipe-plan <model> [--gpus N] [--gbps G] [--scheme ps|ring]
//!               [--shared-jobs K] [--trace FILE.json]
//! ```
//!
//! Models: `vgg16`, `resnet50`, `resnet101`, `resnet152`, `alexnet`,
//! `bert48`, `gpt2_small`, `gpt2_medium`.
//!
//! Prints PipeDream's one-shot plan and AutoPipe's environment-aware
//! refinement with predicted and simulated throughput, the peak per-stage
//! memory from the ap-mem planning model, and (with `--trace`) a
//! Chrome-trace timeline of the refined plan's first iterations.

use std::env;
use std::fs;
use std::process::exit;

use ap_bench::{engine_throughput, ExperimentEnv};
use ap_cluster::dynamics::BgJobId;
use ap_cluster::gpu::GpuKind;
use ap_cluster::{gbps, ClusterState, ClusterTopology, EventKind, GpuId, ResourceTimeline};
use ap_mem::MemoryModel;
use ap_models::ModelProfile;
use ap_pipesim::{to_chrome_trace, Engine, EngineConfig, SyncScheme};
use ap_planner::{pipedream_plan, PipeDreamView};
use autopipe::controller::hill_climb;

fn usage() -> ! {
    eprintln!(
        "usage: autopipe-plan <model> [--gpus N] [--gbps G] [--scheme ps|ring] \
         [--shared-jobs K] [--trace FILE.json]"
    );
    exit(2);
}

fn model_by_name(name: &str) -> Option<ap_models::ModelDesc> {
    Some(match name {
        "vgg16" => ap_models::vgg16(),
        "resnet50" => ap_models::resnet50(),
        "resnet101" => ap_models::resnet101(),
        "resnet152" => ap_models::resnet152(),
        "alexnet" => ap_models::alexnet(),
        "bert48" => ap_models::bert48(),
        "gpt2_small" => ap_models::gpt2_small(),
        "gpt2_medium" => ap_models::gpt2_medium(),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(model_name) = args.first() else {
        usage()
    };
    let Some(model) = model_by_name(model_name) else {
        eprintln!("unknown model {model_name:?}");
        usage()
    };
    let mut n_gpus = 10usize;
    let mut link_gbps = 25.0f64;
    let mut scheme = SyncScheme::RingAllReduce;
    let mut shared_jobs = 0u32;
    let mut trace_file: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--gpus" => {
                i += 1;
                n_gpus = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--gbps" => {
                i += 1;
                link_gbps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--scheme" => {
                i += 1;
                scheme = match args.get(i).map(String::as_str) {
                    Some("ps") => SyncScheme::ParameterServer,
                    Some("ring") => SyncScheme::RingAllReduce,
                    _ => usage(),
                };
            }
            "--shared-jobs" => {
                i += 1;
                shared_jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                i += 1;
                trace_file = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }

    let profile = ModelProfile::of(&model);
    let servers = n_gpus.div_ceil(2).max(1);
    let per_server = n_gpus.div_ceil(servers);
    let topo = ClusterTopology::single_switch(servers, per_server, GpuKind::P100, link_gbps);
    let n_gpus = topo.n_gpus().min(n_gpus);
    let mut state = ClusterState::new(topo);
    if shared_jobs > 0 {
        // Competing jobs on the first 60% of GPUs (gang-scheduled subset).
        let subset: Vec<GpuId> = (0..n_gpus * 6 / 10).map(GpuId).collect();
        for k in 0..shared_jobs {
            state.apply(&EventKind::JobArrive {
                id: BgJobId(u64::from(k)),
                gpus: subset.clone(),
                net_bytes_per_sec: gbps(link_gbps) / f64::from(shared_jobs + 1),
            });
        }
    }
    let env = ExperimentEnv {
        link_gbps,
        scheme,
        framework: ap_pipesim::Framework::pytorch(),
        schedule: ap_pipesim::ScheduleKind::PipeDreamAsync,
    };

    println!(
        "model {model_name}: {} layers, {:.1} M params, batch {}",
        profile.n_layers(),
        profile.total_params() / 4e6,
        profile.batch
    );
    println!(
        "cluster: {n_gpus} x P100, {link_gbps:.0} Gbps, {} sync, {shared_jobs} competing job(s)\n",
        scheme.label()
    );

    let gpus: Vec<GpuId> = (0..n_gpus).map(GpuId).collect();
    let pd = pipedream_plan(
        &profile,
        &gpus,
        PipeDreamView {
            bandwidth: gbps(link_gbps),
            gpu_flops: GpuKind::P100.peak_flops(),
        },
    );
    let ap = hill_climb(&env.model(&profile), pd.clone(), &state, 40);

    for (name, plan) in [("PipeDream", &pd), ("AutoPipe", &ap)] {
        let analytic = env.model(&profile).throughput(plan, &state);
        let simulated = engine_throughput(&profile, plan, &state, &env, 24);
        println!("{name} plan: {}", plan.summary());
        println!("  predicted {analytic:8.1} samples/s   simulated {simulated:8.1} samples/s");
        let mem = ap_mem::check(
            &profile,
            plan,
            env.schedule,
            &MemoryModel::default(),
            &state,
        );
        let worst = mem.stages.iter().map(|s| s.required).fold(0.0f64, f64::max);
        println!(
            "  peak stage memory {:.2} GB of {:.0} GB",
            worst / 1e9,
            GpuKind::P100.memory_bytes() / 1e9
        );
    }

    if let Some(path) = trace_file {
        let result = Engine::new(
            &profile,
            ap.clone(),
            state,
            ResourceTimeline::empty(),
            EngineConfig {
                scheme: env.scheme,
                framework: env.framework,
                schedule: env.schedule,
                record_timeline: true,
                calibration: None,
            },
        )
        .expect("valid partition")
        .run(12)
        .expect("engine run");
        fs::write(
            &path,
            to_chrome_trace(&result, &format!("autopipe {model_name}")),
        )
        .expect("write trace");
        println!("\nwrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
    }
}
