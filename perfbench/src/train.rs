//! The `train` workload: real two-stage pipeline training through
//! `ap_exec::run_pipeline`, one mini-batch per operation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ap_exec::{decode_view, encode, run_pipeline, ExecResult, ExecSpec, Frame, ScheduleKind};
use ap_nn::{ActKind, Matrix};
use ap_rng::Rng;

use crate::report::{cpu_s, mean, Outcome, Timing};
use crate::span;

/// Layer width. With `BATCH` rows every layer's matmul is 128³ = 2²¹
/// multiply-adds, at ap-nn's parallel cutoff, and an activation frame is
/// 128 KiB (two frames, 262 KB, cross the cut per mini-batch).
const WIDTH: usize = 128;
const BATCH: usize = 128;
const LAYERS: usize = 4;
/// Stage boundary: two layers per stage, one stage thread per core.
const CUT: usize = 2;
/// PipeDream's in-flight depth for two stages.
const IN_FLIGHT: usize = 2;
/// Mini-batches per timed session; sessions repeat until the budget is
/// spent, each training the same model from the same initial weights.
const SESSION: u64 = 512;
/// Mini-batches of each set-up warm-up session.
const WARMUP: u64 = 64;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Mini-batches per loss window for `quality` and the loss check.
const WINDOW: usize = 64;

fn spec(seed: u64, total: u64, cuts: Vec<usize>) -> ExecSpec {
    ExecSpec {
        sizes: vec![WIDTH; LAYERS + 1],
        act: ActKind::Tanh,
        seed,
        batch: BATCH,
        lr: 0.05,
        cuts,
        schedule: ScheduleKind::PipeDreamAsync,
        in_flight: IN_FLIGHT,
        total,
        bytes_per_sec: None,
        distinct_batches: 64,
        switch: None,
        record_timeline: false,
    }
}

/// The two-stage session spec for workload seed `seed`.
pub fn session_spec(seed: u64) -> ExecSpec {
    spec(seed, SESSION, vec![CUT])
}

/// Mean loss of the first window over the last.
fn loss_ratio(r: &ExecResult) -> f64 {
    let l = &r.losses;
    mean(&l[..WINDOW]) / mean(&l[l.len() - WINDOW..])
}

/// Run one session and check it; per-mini-batch latencies are the gaps
/// between completions (the first measured from the session's start).
fn session(s: &ExecSpec, out: &mut Outcome, latencies: &mut Vec<f64>) -> Option<ExecResult> {
    out.attempted += s.total;
    match span::span("exec.run", || run_pipeline(s)) {
        Ok(r) => {
            // Sessions long enough for two loss windows must also learn.
            let learns = (s.total as usize) < 2 * WINDOW || loss_ratio(&r) > 1.0;
            let ok = r.completed == s.total
                && r.losses.len() == s.total as usize
                && r.losses.iter().all(|l| l.is_finite())
                && learns;
            out.check(ok, || {
                format!(
                    "train: {} of {} mini-batches, losses finite and falling: {}",
                    r.completed,
                    s.total,
                    r.losses.iter().all(|l| l.is_finite())
                )
            });
            let mut prev = 0.0;
            for &t in &r.completion_times {
                latencies.push(t - prev);
                prev = t;
            }
            Some(r)
        }
        Err(e) => {
            out.failed += s.total;
            out.check(false, || format!("train: {e}"));
            None
        }
    }
}

/// `train`, end to end.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let warm = spec(seed, WARMUP, vec![CUT]);
    let mut timing = Timing::new();
    for _ in 0..SETUP_REPS {
        timing.setup(|| session(&warm, &mut out, &mut Vec::new()));
    }
    let s = session_spec(seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut timed = Duration::ZERO;
    let mut quality = f64::NAN;
    while timed < budget {
        let (t, cpu) = (Instant::now(), cpu_s());
        let r = session(&s, &mut out, &mut timing.latencies_s);
        timed += t.elapsed();
        timing.chunk(s.total as usize, cpu);
        let Some(r) = r else { break };
        if quality.is_nan() {
            quality = loss_ratio(&r);
        }
        out.check(loss_ratio(&r).to_bits() == quality.to_bits(), || {
            "train: sessions of one seed trained differently".into()
        });
    }
    out.end_to_end(&timing, quality);
    out
}

/// Mean µs per call of `f`, repeated for about `budget`, each call in a
/// `name` span.
fn probe(name: &'static str, budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u32;
    while t.elapsed() < budget || n < 10 {
        span::span(name, &mut f);
        n += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(n) * 1e6
}

/// Per-layer metrics. Sessions run in pairs, so host drift hits both
/// alike: untraced, then traced. Then the codec and matmul probes and a
/// one-stage baseline session.
pub fn traced(
    seed: u64,
    budget: Duration,
    spans_out: &mut Vec<(&'static str, Vec<span::Span>)>,
) -> Outcome {
    let mut out = Outcome::new();
    let s = session_spec(seed);
    let mut plain = Duration::ZERO;
    let mut results = Vec::new();
    let mut k = 0usize;
    span::start();
    let t = Instant::now();
    while t.elapsed() < budget || k == 0 {
        let t_plain = Instant::now();
        span::untraced(|| session(&s, &mut out, &mut Vec::new()));
        plain += t_plain.elapsed();
        span::set_op(k as u64);
        if let Some(r) = span::span("exec.session", || session(&s, &mut out, &mut Vec::new())) {
            results.push(r);
        }
        k += 1;
    }
    let spans = span::finish();
    let Some(last) = results.last() else {
        return out;
    };
    let mbs = (k as u64 * s.total) as f64;
    let roots = match span::check_nesting(&spans, "exec.session") {
        Ok(roots) => roots,
        Err(e) => {
            out.check(false, || format!("train: {e}"));
            0
        }
    };
    let t = span::totals(&spans);
    let self_mb_us = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64) / mbs / 1e3;

    // Compute time per stage against the session's wall time.
    let stages = [0..CUT, CUT..LAYERS];
    let shares: Vec<f64> = stages
        .iter()
        .map(|layers| {
            let busy: f64 = layers
                .clone()
                .map(|j| last.times.fwd_sum[j] + last.times.bwd_sum[j])
                .sum();
            busy / last.wall_seconds
        })
        .collect();
    let frames: u64 = last
        .fwd_channels
        .iter()
        .chain(&last.bwd_channels)
        .map(|c| c.frames)
        .sum();

    // Probes at the workload's shapes.
    let mut rng = Rng::stream(seed, 30);
    let act = Matrix::from_vec(
        BATCH,
        WIDTH,
        (0..BATCH * WIDTH)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    );
    let weights = Matrix::from_vec(
        WIDTH,
        WIDTH,
        (0..WIDTH * WIDTH)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    );
    let frame = Frame::Act {
        mb: 7,
        data: act.clone(),
    };
    let probe_budget = budget / 20;
    span::start();
    let codec_us = probe("exec.codec", probe_budget, || {
        let bytes = encode(black_box(&frame));
        black_box(decode_view(&bytes).is_ok());
    });
    let matmul_us = probe("nn.matmul", probe_budget, || {
        black_box(black_box(&act).matmul(black_box(&weights)));
    });
    let probe_spans = span::finish();

    let single = spec(seed, s.total, Vec::new());
    let t = Instant::now();
    session(&single, &mut out, &mut Vec::new());
    let single_s = t.elapsed().as_secs_f64();

    let traced_mb_us = roots as f64 / mbs / 1e3;
    let plain_mb_us = plain.as_secs_f64() / mbs * 1e6;
    let mut m = |name: &str, v: f64, unit: &'static str| out.push(format!("train.{name}"), v, unit);
    for (i, share) in shares.iter().enumerate() {
        m(&format!("exec.stage{i}.compute_share"), *share, "ratio");
    }
    for (i, share) in shares.iter().enumerate() {
        m(&format!("exec.stage{i}.idle_share"), 1.0 - share, "ratio");
    }
    m(
        "exec.wire_bytes_per_mb",
        last.total_wire_bytes() as f64 / last.completed as f64,
        "bytes",
    );
    m(
        "exec.frames_per_mb",
        frames as f64 / last.completed as f64,
        "count",
    );
    m(
        "exec.peak_stage_bytes",
        last.peak_stage_bytes.iter().copied().max().unwrap_or(0) as f64,
        "bytes",
    );
    m("exec.codec_us", codec_us, "us");
    m("nn.matmul_us", matmul_us, "us");
    m(
        "exec.speedup_vs_single",
        single_s / (roots as f64 / k as f64 / 1e9),
        "ratio",
    );
    m("exec.run_us", self_mb_us("exec.run"), "us");
    m("trace.op_us", traced_mb_us, "us");
    m("trace.unattributed_us", self_mb_us("exec.session"), "us");
    m("trace.overhead", traced_mb_us / plain_mb_us, "ratio");
    out.check_sum(
        &["train.exec.run_us", "train.trace.unattributed_us"],
        "train.trace.op_us",
    );
    spans_out.push(("train", spans));
    spans_out.push(("train-probes", probe_spans));
    out
}
