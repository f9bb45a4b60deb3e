//! The IR generator must reproduce the runtime's golden 1F1B orders,
//! and the runtime must train correctly under every schedule in the zoo.

use ap_exec::runtime::{run_pipeline, ExecResult, ExecSpec};
use ap_exec::ScheduleKind;
use ap_ir::{generate, IrOp};
use ap_nn::ActKind;

/// Golden async 1F1B compute orders, one line per
/// `n_stages in_flight total stage: ops` (see the file header).
const GOLDEN_1F1B: &str = include_str!("data/1f1b_golden.txt");

/// Bit pattern of a stage's weights, for exact comparisons.
fn weight_bits(w: &ap_nn::mlp::MlpWeights) -> Vec<u64> {
    w.layers
        .iter()
        .flat_map(|(wm, bm)| wm.data().iter().chain(bm.data()).map(|v| v.to_bits()))
        .collect()
}

/// Project a stage's IR program down to the golden compute-op alphabet:
/// `Forward`/`FusedFwdLossBwd` → `F<mb>`, `Backward` → `B<mb>`, everything
/// else (transport, stash bookkeeping, applies) dropped.
fn fold(ops: &[IrOp]) -> Vec<String> {
    ops.iter()
        .filter_map(|op| match op {
            IrOp::Forward { unit } | IrOp::FusedFwdLossBwd { unit } => {
                Some(format!("F{}", unit.mb))
            }
            IrOp::Backward { unit } => Some(format!("B{}", unit.mb)),
            _ => None,
        })
        .collect()
}

#[test]
fn pipedream_ir_reproduces_the_golden_1f1b_orders_exactly() {
    let mut checked = 0;
    for line in GOLDEN_1F1B.lines().filter(|l| !l.starts_with('#')) {
        let (shape, ops) = line.split_once(':').expect("`shape: ops` line");
        let shape: Vec<u64> = shape
            .split_whitespace()
            .map(|v| v.parse().expect("numeric shape"))
            .collect();
        let [n_stages, in_flight, total, stage] = shape[..] else {
            panic!("bad shape in golden line {line:?}");
        };
        let (n_stages, in_flight, stage) = (n_stages as usize, in_flight as usize, stage as usize);
        let program = generate(ScheduleKind::PipeDreamAsync, n_stages, total, in_flight);
        let golden: Vec<&str> = ops.split_whitespace().collect();
        assert_eq!(
            fold(&program.stages[stage].ops),
            golden,
            "stage {stage}/{n_stages}, total {total}, in_flight {in_flight}"
        );
        checked += 1;
    }
    // 5 stage counts × (5 in-flight depths × 6 totals + 2 deep-admission
    // rows), one line per stage.
    assert_eq!(checked, 15 * (5 * 6 + 2), "golden file lost rows");
}

fn zoo_spec(kind: ScheduleKind) -> ExecSpec {
    ExecSpec {
        sizes: vec![6, 8, 8, 8, 6, 4],
        act: ActKind::Tanh,
        seed: 42,
        batch: 8,
        lr: 0.01,
        cuts: vec![2, 4],
        schedule: kind,
        in_flight: 3,
        total: 12,
        bytes_per_sec: None,
        distinct_batches: 4,
        switch: None,
        record_timeline: false,
    }
}

fn assert_trains(kind: ScheduleKind, r: &ExecResult) {
    assert_eq!(r.completed, 12, "{}: completion count", kind.id());
    assert_eq!(r.losses.len(), 12, "{}: loss count", kind.id());
    assert!(
        r.losses.iter().all(|l| l.is_finite()),
        "{}: non-finite loss",
        kind.id()
    );
    // The data cycles through 4 distinct batches; by the third lap the
    // loss on each must have dropped from its first visit.
    for b in 0..4 {
        assert!(
            r.losses[b + 8] < r.losses[b],
            "{}: batch {b} did not improve ({} -> {})",
            kind.id(),
            r.losses[b],
            r.losses[b + 8]
        );
    }
}

#[test]
fn every_schedule_in_the_zoo_trains_and_is_deterministic() {
    for kind in ScheduleKind::zoo() {
        let spec = zoo_spec(kind);
        let a = run_pipeline(&spec).unwrap();
        assert_trains(kind, &a);
        let b = run_pipeline(&spec).unwrap();
        assert_eq!(
            a.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            b.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "{}: losses not bit-deterministic across reruns",
            kind.id()
        );
        for (wa, wb) in a.final_weights.iter().zip(&b.final_weights) {
            assert_eq!(wa.0, wb.0, "{}: stage layout drifted", kind.id());
            assert_eq!(
                weight_bits(&wa.1),
                weight_bits(&wb.1),
                "{}: final weights not bit-deterministic",
                kind.id()
            );
        }
    }
}

#[test]
fn sync_schedules_match_their_full_batch_reference() {
    // GPipe / DAPPLE / Chimera apply the mean micro-gradient once per
    // mini-batch: with in_flight = 1 that is plain full-batch SGD, except
    // micro-batched MSE backprop scales each row-slice's gradient by
    // m / batch — equivalent to SGD at lr·m on the mean. Verify the three
    // flush schedules agree bit-exactly with *each other* (same updates,
    // different overlap), which pins the semantics without re-deriving
    // the reference here.
    let run = |kind| {
        let spec = ExecSpec {
            in_flight: 1,
            ..zoo_spec(kind)
        };
        run_pipeline(&spec).unwrap()
    };
    let gpipe = run(ScheduleKind::parse("gpipe").unwrap());
    let dapple = run(ScheduleKind::parse("dapple").unwrap());
    let chimera = run(ScheduleKind::parse("chimera").unwrap());
    for other in [&dapple, &chimera] {
        assert_eq!(
            gpipe.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            other.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "flush schedules disagree on losses"
        );
        for (wa, wb) in gpipe.final_weights.iter().zip(&other.final_weights) {
            assert_eq!(
                weight_bits(&wa.1),
                weight_bits(&wb.1),
                "flush schedules disagree on final weights"
            );
        }
    }
}

#[test]
fn gpipe_moves_more_frames_for_the_same_work() {
    // 4 micro-batches per mini-batch ⇒ 4× the activation/gradient frames
    // of the async schedule on each boundary.
    let pd = run_pipeline(&zoo_spec(ScheduleKind::PipeDreamAsync)).unwrap();
    let gp = run_pipeline(&zoo_spec(ScheduleKind::parse("gpipe").unwrap())).unwrap();
    for (c_pd, c_gp) in pd.fwd_channels.iter().zip(&gp.fwd_channels) {
        assert_eq!(c_gp.frames, 4 * c_pd.frames, "forward frame ratio");
    }
}
