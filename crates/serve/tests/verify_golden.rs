//! `verify_plan` must reproduce its golden measurements exactly: the
//! bits of the engine-measured throughput of the served plan and of the
//! seed, and whether the refined candidate won. The requests are
//! `refine_golden.rs`'s grid — the daemon's ten-model zoo × ten cluster
//! shapes (with and without background jobs) × the five schedules ×
//! {native memory, a tight per-GPU budget} — so every engine path a
//! `/plan` takes on the real zoo is pinned, one line per request (see
//! the file header).

use ap_json::parse;
use ap_pipesim::ScheduleKind;
use ap_serve::api::{refine_plan, verify_plan, PlanRequest, KNOWN_MODELS};

const GOLDEN: &str = include_str!("data/verify_golden.txt");

/// `(servers, gpus per server)`, as in `refine_golden.rs`.
const SHAPES: [(usize, usize); 10] = [
    (2, 1),
    (3, 1),
    (4, 1),
    (2, 2),
    (3, 2),
    (4, 2),
    (5, 2),
    (6, 2),
    (3, 3),
    (4, 3),
];

/// Per-model memory floor, GiB, as in `refine_golden.rs`.
const FLOOR_GB: [f64; 10] = [
    1.394, 3.728, 1.855, 2.748, 3.734, 3.723, 6.348, 11.598, 2.529, 6.278,
];

const GPUS: [&str; 3] = ["p100", "v100", "a100"];

/// The request `refine_golden.rs` builds for the same grid cell.
fn body(model: usize, shape: usize, kind: ScheduleKind, tight: bool) -> String {
    let (servers, per) = SHAPES[shape];
    let n_gpus = servers * per;
    let mix = model * SHAPES.len() + shape;
    let link = 5.0 + 7.5 * (mix % 13) as f64;
    let jobs = match mix % 3 {
        0 => String::new(),
        1 => r#"{"gpus": [0], "gbps": 4.0}"#.to_string(),
        _ => format!(
            r#"{{"gpus": [{}], "gbps": 8.0}}, {{"gpus": [0, 1], "gbps": 2.5}}"#,
            n_gpus - 1
        ),
    };
    let memory = if tight {
        let gb = FLOOR_GB[model] * (1.05 + 0.1 * (mix % 4) as f64);
        format!(r#", "memory_gb": {}"#, (gb * 100.0).ceil() / 100.0)
    } else {
        String::new()
    };
    format!(
        r#"{{"model": "{}", "schedule": "{}", "cluster": {{"n_servers": {servers},
            "gpus_per_server": {per}, "gpu": "{}", "link_gbps": {link},
            "background_jobs": [{jobs}]{memory}}}}}"#,
        KNOWN_MODELS[model],
        kind.id(),
        GPUS[mix % GPUS.len()],
    )
}

/// One golden line per request, in grid order.
fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for (model, name) in KNOWN_MODELS.iter().enumerate() {
        for shape in 0..SHAPES.len() {
            for kind in ScheduleKind::zoo() {
                for tight in [false, true] {
                    let text = body(model, shape, kind, tight);
                    let req = PlanRequest::from_json(&parse(&text).expect("valid JSON"))
                        .unwrap_or_else(|e| panic!("{text}: {e:?}"));
                    let r = refine_plan(&req, None).unwrap_or_else(|e| panic!("{text}: {e:?}"));
                    let v = verify_plan(&req, &r).unwrap_or_else(|e| panic!("{text}: {e:?}"));
                    out.push(format!(
                        "{name} {shape} {} {}: {:016x} {:016x} {}",
                        kind.id(),
                        if tight { "tight" } else { "native" },
                        v.measured.to_bits(),
                        v.start_measured.to_bits(),
                        v.refined_won,
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn verify_plan_reproduces_the_golden_measurements_exactly() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got = rows();
    // 10 models × 10 shapes × 5 schedules × 2 memory budgets.
    assert_eq!(golden.len(), 1000, "golden file lost rows");
    assert_eq!(got.len(), golden.len());
    for (g, want) in got.iter().zip(&golden) {
        assert_eq!(g, want);
    }
}
