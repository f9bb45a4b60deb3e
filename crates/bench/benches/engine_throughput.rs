//! Event-engine speed: simulated iterations per wall-clock second for the
//! paper's models on the 10-GPU testbed (the kernel every experiment sits
//! on). Three tick profiles: PipeDream's async plans, an async plan whose
//! replicated stages run gradient rings that share every NIC in the
//! max-min fill, and GPipe's micro-batch units with flush barriers.

use ap_bench::{exclusive_state, paper_pipedream_plan, timing, ExperimentEnv};
use ap_cluster::{GpuId, ResourceTimeline};
use ap_ir::DEFAULT_MICRO_BATCHES;
use ap_models::{alexnet, resnet50, vgg16, ModelProfile};
use ap_pipesim::{Engine, Partition, ScheduleKind, Stage};
use std::hint::black_box;

fn bench(name: &str, profile: &ModelProfile, plan: &Partition, env: &ExperimentEnv) {
    let state = exclusive_state(env.link_gbps);
    timing::run(name, 20, || {
        let engine = Engine::new(
            profile,
            plan.clone(),
            state.clone(),
            ResourceTimeline::empty(),
            env.engine_cfg(),
        )
        .expect("valid partition");
        black_box(engine.run(30).expect("engine run").throughput());
    });
}

/// Two stages of five replicas, striped so stage 0 holds each server's
/// first GPU and stage 1 its second: activations stay node-local while
/// both stages' gradient rings cross all five servers' links.
fn replicated_plan(profile: &ModelProfile) -> Partition {
    let n = profile.n_layers();
    let mut plan = Partition {
        stages: vec![
            Stage::new(0..n / 2, (0..5).map(|s| GpuId(2 * s)).collect()),
            Stage::new(n / 2..n, (0..5).map(|s| GpuId(2 * s + 1)).collect()),
        ],
        in_flight: 1,
    };
    plan.in_flight = plan.default_in_flight();
    plan
}

fn main() {
    println!("engine_30_iterations");
    let async_env = ExperimentEnv::default_at(25.0);
    let gpipe_env = ExperimentEnv {
        schedule: ScheduleKind::GPipe {
            micro_batches: DEFAULT_MICRO_BATCHES,
        },
        ..async_env
    };
    for model in [resnet50(), vgg16(), alexnet()] {
        let profile = ModelProfile::of(&model);
        let plan = paper_pipedream_plan(&profile, async_env.link_gbps, 10);
        bench(&model.name, &profile, &plan, &async_env);
    }
    for model in [resnet50(), vgg16()] {
        let profile = ModelProfile::of(&model);
        let replicated = replicated_plan(&profile);
        bench(
            &format!("{} 2x5 replicated", model.name),
            &profile,
            &replicated,
            &async_env,
        );
        let plan = paper_pipedream_plan(&profile, gpipe_env.link_gbps, 10);
        bench(
            &format!("{} gpipe", model.name),
            &profile,
            &plan,
            &gpipe_env,
        );
    }
}
