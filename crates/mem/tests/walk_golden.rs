//! `walk_stage` must reproduce its golden peaks exactly: for every zoo
//! schedule, stage count 1–8, in-flight depth 1–16, stage, and both
//! recompute-discard settings, the weight versions and activation units
//! live at the peak and the bits of the peak's activation bytes (see the
//! file header).

use ap_ir::generate;
use ap_mem::{walk_stage, MemoryModel};
use ap_pipesim::ScheduleKind;

const GOLDEN: &str = include_str!("data/walk_golden.txt");

/// One golden line per walked stage, in grid order.
fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for kind in ScheduleKind::zoo() {
        for n_stages in 1..=8usize {
            for in_flight in 1..=16usize {
                // The representative program length `footprint` walks.
                let total = (2 * (n_stages + in_flight)).max(4) as u64;
                let program = generate(kind, n_stages, total, in_flight);
                for stage in 0..n_stages {
                    for discard in [true, false] {
                        let model = MemoryModel {
                            recompute_discard: discard,
                            ..MemoryModel::default()
                        };
                        // Weights comparable to a few activation units,
                        // so the peak trades versions against units.
                        let weight = 7.0e5 + 1.3e5 * stage as f64;
                        let f = walk_stage(&program, stage, weight, 2.5e5, 4.0e4, &model);
                        out.push(format!(
                            "{} {n_stages} {in_flight} {stage} {discard}: {} {} {:016x}",
                            kind.id(),
                            f.weight_versions,
                            f.peak_units,
                            f.activation_bytes.to_bits(),
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn walk_stage_reproduces_the_golden_peaks_exactly() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got = rows();
    // 5 schedules × 36 (stage count, stage) pairs × 16 depths × 2 settings.
    assert_eq!(golden.len(), 5 * 36 * 16 * 2, "golden file lost rows");
    assert_eq!(got.len(), golden.len());
    for (g, want) in got.iter().zip(&golden) {
        assert_eq!(g, want);
    }
}
