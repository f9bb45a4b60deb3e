//! Golden answers of PipeDream's DP: the stage bounds and replica count
//! of every stage `pipedream_plan` chooses, for each served model on
//! N = 1..=16 GPUs of each GPU kind at several bandwidths. `/plan` and
//! ap-sched seed every plan with this DP, so a faster DP must choose
//! exactly the same partitions, ties included.
//!
//! `data/pipedream_golden.txt` holds one line per case. On an intended
//! change to the DP's model, the failure message names the cases that
//! moved; explain each in the change that moves it.

use ap_cluster::{gbps, GpuId, GpuKind};
use ap_models::{
    alexnet, bert48, bert_n, gpt2_medium, gpt2_small, resnet101, resnet152, resnet50, vgg16,
    ModelDesc, ModelProfile,
};
use ap_planner::{pipedream_plan, PipeDreamView};

const GOLDEN: &str = include_str!("data/pipedream_golden.txt");

/// The models `/plan` serves, under their serving names.
fn served() -> Vec<(&'static str, ModelDesc)> {
    vec![
        ("alexnet", alexnet()),
        ("vgg16", vgg16()),
        ("resnet50", resnet50()),
        ("resnet101", resnet101()),
        ("resnet152", resnet152()),
        ("bert12", bert_n(12)),
        ("bert24", bert_n(24)),
        ("bert48", bert48()),
        ("gpt2-small", gpt2_small()),
        ("gpt2-medium", gpt2_medium()),
    ]
}

/// One line per case: `model gpu gbps N: lo..hi xR | ...`.
fn actual() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, desc) in served() {
        let profile = ModelProfile::of(&desc);
        for kind in [GpuKind::P100, GpuKind::V100, GpuKind::A100] {
            for link_gbps in [1.0, 10.0, 25.0, 40.0, 100.0] {
                let view = PipeDreamView {
                    bandwidth: gbps(link_gbps),
                    gpu_flops: kind.peak_flops(),
                };
                for n in 1..=16 {
                    let gpus: Vec<GpuId> = (0..n).map(GpuId).collect();
                    let plan = pipedream_plan(&profile, &gpus, view);
                    let stages: Vec<String> = plan
                        .stages
                        .iter()
                        .map(|s| {
                            format!("{}..{} x{}", s.layers.start, s.layers.end, s.workers.len())
                        })
                        .collect();
                    lines.push(format!(
                        "{name} {kind:?} {link_gbps} {n}: {}",
                        stages.join(" | ")
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn pipedream_plans_match_golden() {
    let got = actual();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "case count changed");
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} DP answers moved:\n{}",
        moved.len(),
        got.len(),
        moved.join("\n")
    );
}
