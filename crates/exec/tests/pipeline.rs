//! End-to-end tests of the pipeline runtime: sequential equivalence,
//! determinism, and live §4.4 migration.

use ap_exec::runtime::{run_pipeline, training_batch, ExecResult, ExecSpec, SwitchSpec};
use ap_exec::ScheduleKind;
use ap_nn::{mse_loss, ActKind, Mlp};

fn base_spec() -> ExecSpec {
    ExecSpec {
        sizes: vec![6, 8, 8, 8, 6, 4],
        act: ActKind::Tanh,
        seed: 42,
        batch: 4,
        lr: 0.01,
        cuts: vec![2, 4],
        schedule: ScheduleKind::PipeDreamAsync,
        in_flight: 3,
        total: 12,
        bytes_per_sec: None,
        distinct_batches: 4,
        switch: None,
        record_timeline: false,
    }
}

/// Plain single-process SGD on the same data: forward, loss, backward,
/// apply `w -= lr * g`, repeat. With `in_flight = 1` the pipeline has no
/// staleness, so it must reproduce this bit-for-bit.
fn sequential_reference(spec: &ExecSpec) -> (Vec<f64>, Mlp) {
    let mut net = Mlp::new(&spec.sizes, spec.act, spec.seed);
    let mut losses = Vec::new();
    for mb in 0..spec.total {
        let (x, y) = training_batch(spec, mb);
        let out = net.forward(&x);
        let (loss, g) = mse_loss(&out, &y);
        losses.push(loss);
        net.backward(&g);
        for i in 0..net.n_layers() {
            let (dw, db) = {
                let l = net.layer(i);
                (l.w.grad.clone(), l.b.grad.clone())
            };
            let l = net.layer_mut(i);
            l.w.value.axpy(-spec.lr, &dw);
            l.b.value.axpy(-spec.lr, &db);
        }
        net.zero_grad();
    }
    (losses, net)
}

fn stitched_weights(r: &ExecResult) -> Vec<(ap_nn::Matrix, ap_nn::Matrix)> {
    let mut per_stage: Vec<_> = r.final_weights.clone();
    per_stage.sort_by_key(|(lo, _)| *lo);
    per_stage.into_iter().flat_map(|(_, w)| w.layers).collect()
}

#[test]
fn in_flight_one_pipeline_matches_sequential_sgd_bit_exactly() {
    let spec = ExecSpec {
        in_flight: 1,
        ..base_spec()
    };
    let r = run_pipeline(&spec).expect("pipeline run");
    let (ref_losses, ref_net) = sequential_reference(&spec);
    assert_eq!(r.completed, spec.total);
    assert_eq!(r.losses, ref_losses, "losses must match bit-for-bit");
    let got = stitched_weights(&r);
    assert_eq!(got.len(), ref_net.n_layers());
    for (i, (w, b)) in got.iter().enumerate() {
        assert_eq!(*w, ref_net.layer(i).w.value, "layer {i} weights");
        assert_eq!(*b, ref_net.layer(i).b.value, "layer {i} bias");
    }
}

#[test]
fn numerics_are_independent_of_bandwidth_throttle() {
    // Static schedules mean thread timing (here: a heavy throttle that
    // reshuffles real arrival times) cannot change any weight update.
    // Slow enough that the throttle's floor below is several times the
    // unthrottled run's wall time.
    let bytes_per_sec = 2e5;
    let fast = run_pipeline(&base_spec()).expect("unthrottled run");
    let slow = run_pipeline(&ExecSpec {
        bytes_per_sec: Some(bytes_per_sec),
        ..base_spec()
    })
    .expect("throttled run");
    assert_eq!(fast.losses, slow.losses, "losses must be bit-identical");
    let (fw, sw) = (stitched_weights(&fast), stitched_weights(&slow));
    assert_eq!(fw, sw, "final weights must be bit-identical");
    // The throttle serializes each channel, so the throttled run lasts at
    // least as long as its busiest channel takes to drain (less at most a
    // nanosecond of rounding per frame). Load can only add time.
    let busiest = slow
        .fwd_channels
        .iter()
        .chain(&slow.bwd_channels)
        .max_by_key(|c| c.bytes)
        .expect("a multi-stage run has channels");
    let floor = busiest.bytes as f64 / bytes_per_sec - busiest.frames as f64 * 1e-9;
    assert!(
        slow.wall_seconds >= floor,
        "throttle must bite: {} s < {floor} s",
        slow.wall_seconds
    );
}

#[test]
fn three_stage_training_reduces_loss_and_measures_wire_traffic() {
    let spec = ExecSpec {
        total: 24,
        record_timeline: true,
        ..base_spec()
    };
    let r = run_pipeline(&spec).expect("run");
    assert_eq!(r.n_stages, 3);
    assert_eq!(r.completed, 24);
    let early: f64 = r.losses[..4].iter().sum();
    let late: f64 = r.losses[20..].iter().sum();
    assert!(late < early, "training must reduce loss: {early} -> {late}");
    // Two boundaries, one Act and one Grad per mini-batch each.
    assert_eq!(r.fwd_channels.len(), 2);
    for c in &r.fwd_channels {
        assert_eq!(c.frames, 24);
        assert!(c.bytes > 0);
    }
    for c in &r.bwd_channels {
        assert_eq!(c.frames, 24);
    }
    assert!(r.metrics.validate().is_ok());
    // Fused last stage emits no separate Backward segments, the others do.
    assert!(!r.segments.is_empty());
    assert_eq!(r.completion_times.len(), 24);
    assert!(r.steady_throughput(4) > 0.0);
}

fn migration_spec(at_mb: u64, new_cuts: Vec<usize>) -> ExecSpec {
    ExecSpec {
        total: 16,
        switch: Some(SwitchSpec { at_mb, new_cuts }),
        ..base_spec()
    }
}

#[test]
fn downstream_migration_is_drain_free_and_newest_first() {
    // Boundary 2 -> 1: layer 1 moves from stage 0 to stage 1.
    let spec = migration_spec(6, vec![1, 4]);
    let r = run_pipeline(&spec).expect("migrated run");
    assert_eq!(r.completed, spec.total);
    let m = r.migration.as_ref().expect("migration report");
    assert_eq!(m.cutover_mb, 6);
    assert_eq!((m.from_stage, m.to_stage), (0, 1));
    assert_eq!(m.moved_layers, 1..2);
    assert!(
        m.drain_free(),
        "pipeline drained during switch: samples {:?}",
        m.in_flight_samples
    );
    assert!(m.min_in_flight() >= 1);
    assert!(
        m.newest_first(),
        "stash versions must move newest-first: {:?}",
        m.versions_sent
    );
    // Master + one copy per in-flight version, all of layer 1
    // (8x8 weights + 8 bias, 8 bytes each).
    let layer_param_bytes = ((8 * 8 + 8) * 8) as u64;
    assert_eq!(m.versions_moved, 1 + m.versions_sent.len());
    assert_eq!(m.param_bytes, layer_param_bytes * m.versions_moved as u64);
    assert!(
        m.wire_bytes > m.param_bytes,
        "headers/inputs/deltas ride too"
    );

    // Mini-batches completed before the cutover saw no migrated weights:
    // their losses must be bit-identical to a run without the switch.
    let plain = run_pipeline(&ExecSpec {
        switch: None,
        ..spec.clone()
    })
    .expect("plain run");
    assert_eq!(r.losses[..6], plain.losses[..6], "pre-cutover losses");
}

#[test]
fn upstream_migration_also_stays_drain_free() {
    // Boundary 4 -> 5 is invalid (last stage would empty); use 2 -> 3:
    // layer 2 moves from stage 1 back to stage 0.
    let spec = migration_spec(5, vec![3, 4]);
    let r = run_pipeline(&spec).expect("migrated run");
    assert_eq!(r.completed, spec.total);
    let m = r.migration.as_ref().expect("migration report");
    assert_eq!((m.from_stage, m.to_stage), (1, 0));
    assert_eq!(m.moved_layers, 2..3);
    assert!(m.drain_free(), "samples {:?}", m.in_flight_samples);
    assert!(m.newest_first());
    let plain = run_pipeline(&ExecSpec {
        switch: None,
        ..spec.clone()
    })
    .expect("plain run");
    assert_eq!(r.losses[..5], plain.losses[..5], "pre-cutover losses");
}

#[test]
fn migrated_run_is_deterministic_across_reruns_and_throttles() {
    let spec = migration_spec(6, vec![1, 4]);
    let a = run_pipeline(&spec).expect("run a");
    let b = run_pipeline(&ExecSpec {
        bytes_per_sec: Some(5e6),
        ..spec.clone()
    })
    .expect("run b");
    assert_eq!(a.losses, b.losses);
    assert_eq!(stitched_weights(&a), stitched_weights(&b));
    let (ma, mb) = (a.migration.unwrap(), b.migration.unwrap());
    assert_eq!(ma.versions_sent, mb.versions_sent);
    assert_eq!(ma.param_bytes, mb.param_bytes);
    assert_eq!(ma.wire_bytes, mb.wire_bytes);
}

#[test]
fn invalid_specs_are_rejected() {
    let err = |spec: &ExecSpec| run_pipeline(spec).unwrap_err();
    assert!(err(&ExecSpec {
        cuts: vec![4, 2],
        ..base_spec()
    })
    .contains("ascending"));
    assert!(err(&ExecSpec {
        switch: Some(SwitchSpec {
            at_mb: 0,
            new_cuts: vec![1, 4]
        }),
        ..base_spec()
    })
    .contains("cutover"));
    assert!(err(&ExecSpec {
        switch: Some(SwitchSpec {
            at_mb: 4,
            new_cuts: vec![1, 3]
        }),
        ..base_spec()
    })
    .contains("exactly one"));
    assert!(err(&ExecSpec {
        in_flight: 1,
        switch: Some(SwitchSpec {
            at_mb: 4,
            new_cuts: vec![1, 4]
        }),
        ..base_spec()
    })
    .contains("drain-free"));
}
