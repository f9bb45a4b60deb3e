//! Fitting a [`Calibration`] from short instrumented runs on this host.
//!
//! The analytic model's residual error against the real runtime comes
//! from costs the FLOP model cannot see: serializing frames, snapshotting
//! weights for the stash, and fixed per-mini-batch bookkeeping. Each
//! constant here is *measured directly* from the mechanism that causes it
//! — a two-point timing of the actual codec, a timing of the actual
//! master clone, and the residual of a real single-stage run — never
//! fitted against the throughput numbers it is later asked to predict.

use crate::codec::{decode_view, encode_into, Frame, FrameView};
use crate::runtime::{run_pipeline, ExecError, ExecSpec};
use ap_nn::{Matrix, Mlp};
use ap_pipesim::Calibration;
use std::time::Instant;

/// Mini-batches in the single-stage probe run that isolates the fixed
/// per-stage overhead.
const PROBE_TOTAL: u64 = 64;

/// Seconds for one encode+decode round trip of an Act frame with the
/// given payload shape, averaged over `reps`.
fn codec_pair_seconds(rows: usize, cols: usize, reps: usize) -> f64 {
    let frame = Frame::Act {
        mb: 1,
        data: Matrix::xavier(rows, cols, 0xC0DE),
    };
    let mut buf = Vec::new();
    let mut sink = 0u64;
    // One warm-up pair sizes the buffer so the loop measures steady state.
    encode_into(&frame, &mut buf);
    let t = Instant::now();
    for _ in 0..reps {
        encode_into(&frame, &mut buf);
        if let FrameView::Act { data, .. } = decode_view(&buf).expect("self-encoded frame") {
            sink ^= data.to_matrix().data()[0].to_bits();
        }
    }
    let dt = t.elapsed().as_secs_f64() / reps as f64;
    std::hint::black_box(sink);
    dt
}

/// Fit the codec constants with a two-point linear fit: one codec op
/// (encode *or* decode — half a round trip) costs
/// `per_frame_s + payload_bytes * per_byte_s`.
fn fit_codec(batch: usize) -> (f64, f64) {
    let rows = batch.max(1);
    let (c1, c2) = (32usize, 2048usize);
    let b1 = (rows * c1 * 8) as f64;
    let b2 = (rows * c2 * 8) as f64;
    let t1 = codec_pair_seconds(rows, c1, 512) / 2.0;
    let t2 = codec_pair_seconds(rows, c2, 64) / 2.0;
    let per_byte = ((t2 - t1) / (b2 - b1)).max(0.0);
    let per_frame = (t1 - per_byte * b1).max(0.0);
    (per_frame, per_byte)
}

/// Fit the stash constant: seconds per parameter byte of one master
/// snapshot, measured the way a stage takes one: the actual model copied
/// into a retired network of the same shape, gradients zeroed.
fn fit_stash(spec: &ExecSpec) -> f64 {
    let net = Mlp::new(&spec.sizes, spec.act, spec.seed);
    let param_bytes: f64 = (0..net.n_layers())
        .map(|i| {
            let l = net.layer(i);
            ((l.w.value.data().len() + l.b.value.data().len()) * 8) as f64
        })
        .sum();
    let reps = 64;
    let mut snapshot = net.clone(); // warm-up: the retired network
    let t = Instant::now();
    for _ in 0..reps {
        snapshot.clone_from(std::hint::black_box(&net));
        snapshot.zero_grad();
        std::hint::black_box(&snapshot);
    }
    let per_clone = t.elapsed().as_secs_f64() / reps as f64;
    (per_clone / param_bytes.max(1.0)).max(0.0)
}

/// Fit the fixed per-stage overhead: run the workload single-stage with
/// `in_flight = 1` — no channels, no codec, and (since such a schedule
/// runs directly on the master) no stash — and charge whatever wall time
/// the per-layer timers cannot account for to one stage, per mini-batch.
fn fit_stage_overhead(spec: &ExecSpec) -> Result<f64, ExecError> {
    let probe = ExecSpec {
        cuts: Vec::new(),
        in_flight: 1,
        total: PROBE_TOTAL,
        bytes_per_sec: None,
        switch: None,
        record_timeline: false,
        ..spec.clone()
    };
    let res = run_pipeline(&probe)?;
    let layer_seconds: f64 = res
        .times
        .fwd_sum
        .iter()
        .chain(res.times.bwd_sum.iter())
        .sum();
    Ok(((res.wall_seconds - layer_seconds) / PROBE_TOTAL as f64).max(0.0))
}

/// Fit a full [`Calibration`] for a workload on this host. Costs a few
/// tens of milliseconds; the result is meant to be persisted (JSON via
/// `Calibration::to_json`) and reused by the planner and simulator.
pub fn fit_calibration(spec: &ExecSpec) -> Result<Calibration, ExecError> {
    let (per_frame_s, per_byte_s) = fit_codec(spec.batch);
    let stash_byte_s = fit_stash(spec);
    let stage_overhead_s = fit_stage_overhead(spec)?;
    Ok(Calibration {
        per_frame_s,
        per_byte_s,
        stage_overhead_s,
        stash_byte_s,
        // Stage threads time-share whatever cores this host exposes.
        compute_slots: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_nn::ActKind;

    fn tiny_spec() -> ExecSpec {
        ExecSpec {
            sizes: vec![16, 32, 32, 8],
            act: ActKind::Tanh,
            seed: 7,
            batch: 8,
            lr: 0.05,
            cuts: vec![2],
            schedule: ap_ir::ScheduleKind::PipeDreamAsync,
            in_flight: 2,
            total: 8,
            bytes_per_sec: None,
            distinct_batches: 4,
            switch: None,
            record_timeline: false,
        }
    }

    #[test]
    fn fitted_constants_are_finite_and_nonnegative() {
        let c = fit_calibration(&tiny_spec()).unwrap();
        for (name, v) in [
            ("per_frame_s", c.per_frame_s),
            ("per_byte_s", c.per_byte_s),
            ("stage_overhead_s", c.stage_overhead_s),
            ("stash_byte_s", c.stash_byte_s),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
        }
        // Cloning and byte-shuffling cost *something* real.
        assert!(c.stash_byte_s > 0.0, "stash fit collapsed to zero");
        assert!(
            c.per_byte_s > 0.0 || c.per_frame_s > 0.0,
            "codec fit collapsed to zero"
        );
    }

    #[test]
    fn fitted_calibration_survives_json_round_trip() {
        let c = fit_calibration(&tiny_spec()).unwrap();
        let back = Calibration::from_json(&ap_json::ToJson::to_json(&c)).unwrap();
        assert_eq!(c, back);
    }
}
