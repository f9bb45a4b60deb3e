//! Results: the summary statistics, the metric set a run reports, and
//! the one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

use crate::pace::{Pace, REFERENCE_S};

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Most segments a timed phase is cut into for its timing metrics.
pub const SEGMENTS: usize = 10;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time used by every thread of the process,
/// exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux's clock of the CPU time used by the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, over all its threads. On a
/// guest with paravirtual steal accounting this leaves out the time the
/// host ran other guests instead.
pub fn cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// What an untraced timed loop measured.
#[derive(Debug)]
pub struct Timing {
    pace: Pace,
    /// Each set-up repetition's wall seconds, CPU seconds, and the mean
    /// of the pace probes just before and after it.
    pub setups: Vec<(f64, f64, f64)>,
    /// Per-operation wall latencies, in issue order.
    pub latencies_s: Vec<f64>,
    /// Each timed chunk's operations, the process CPU seconds it took,
    /// and the pace probe just after it.
    pub chunks: Vec<(usize, f64, f64)>,
}

impl Timing {
    pub fn new() -> Self {
        Timing {
            pace: Pace::new(),
            setups: Vec::new(),
            latencies_s: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// Run one set-up repetition `f` between two pace probes, recording
    /// its wall and CPU seconds.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = self.pace.probe();
        let (wall, cpu) = (Instant::now(), cpu_s());
        let r = f();
        let (wall, cpu) = (wall.elapsed().as_secs_f64(), cpu_s() - cpu);
        let after = self.pace.probe();
        self.setups.push((wall, cpu, 0.5 * (before + after)));
        r
    }

    /// Record a timed chunk of `ops` operations that began when the CPU
    /// clock read `cpu_from`, then probe the pace.
    pub fn chunk(&mut self, ops: usize, cpu_from: f64) {
        let cpu = cpu_s() - cpu_from;
        self.chunks.push((ops, cpu, self.pace.probe()));
    }
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run of one workload (or one traced pass) produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed (counted, not retried).
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table but left out of the result line, so
    /// no bound applies to them.
    pub ungated: Vec<Metric>,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A passing outcome with no operations yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Check that the already pushed metrics named `parts` add up to the
    /// one named `total` (up to float rounding): the per-layer self times
    /// of a traced pass must account for its traced operation time.
    pub fn check_sum(&mut self, parts: &[&str], total: &str) {
        let value = |name: &str| {
            self.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        let sum: f64 = parts.iter().map(|p| value(p)).sum();
        let want = value(total);
        self.check((sum - want).abs() <= 1e-9 * want.abs(), || {
            format!(
                "self times {} sum to {sum} us, not {total} = {want} us",
                parts.join(" + ")
            )
        });
    }

    /// The gated end-to-end metrics of a timed closed loop, and the
    /// figures printed beside them, from `t` and the workload's
    /// deterministic `quality`.
    ///
    /// Gated: `setup_s`, the median CPU seconds of the set-up
    /// repetitions; `cpu_ms_per_op`, process CPU milliseconds per
    /// operation; and `quality`. Both CPU figures are put on the
    /// reference core speed: each is scaled by [`REFERENCE_S`] over the
    /// pace probes taken next to it (see [`crate::pace`]). CPU time leaves
    /// out what the host's other guests take (steal) and the time a vCPU
    /// waits to be woken; the pace takes out the drift of the cores'
    /// speed. Together those move wall-clock figures on a shared host by
    /// more than any bound `BENCHMARK.json` may set (see the README).
    ///
    /// Printed, not gated: `throughput`, `latency_p50_ms`,
    /// `latency_p99_ms` and `setup_wall_s` (wall clock), the unscaled
    /// `cpu_ms_per_op_raw` and `setup_cpu_raw_s`, and the median probe
    /// `pace_us`.
    ///
    /// Each timing metric is a median over segments of the timed phase,
    /// so a burst of host contention moves one segment, not the result.
    /// For the CPU figures the timed chunks are cut, in order, into at
    /// most [`SEGMENTS`] runs; a segment's value is its CPU over its
    /// operations, scaled by the median of its chunks' probes. For the
    /// wall figures the operations are cut into as many equal runs as keep
    /// 1000 operations each (at most [`SEGMENTS`]); a segment's throughput
    /// is its operations over their summed latency (its busy time: the
    /// loop is closed), and 1000 operations leave at least 10 beyond each
    /// segment's 99th percentile.
    pub fn end_to_end(&mut self, t: &Timing, quality: f64) {
        let setup: Vec<f64> = t.setups.iter().map(|s| s.1 * REFERENCE_S / s.2).collect();
        let chunks: Vec<_> = t.chunks.iter().filter(|c| c.0 > 0).collect();
        let k = chunks.len().clamp(1, SEGMENTS);
        let (per_op, per_op_raw): (Vec<f64>, Vec<f64>) = (0..k)
            .map(|i| {
                let group = &chunks[i * chunks.len() / k..(i + 1) * chunks.len() / k];
                let ops: usize = group.iter().map(|c| c.0).sum();
                let raw = 1e3 * group.iter().map(|c| c.1).sum::<f64>() / ops as f64;
                let pace = median(&group.iter().map(|c| c.2).collect::<Vec<_>>());
                (raw * REFERENCE_S / pace, raw)
            })
            .unzip();
        self.push("setup_s", median(&setup), "s");
        self.push("cpu_ms_per_op", median(&per_op), "ms");
        self.push("quality", quality, "ratio");

        let lat = &t.latencies_s;
        let n = lat.len();
        let k = (n / 1000).clamp(1, SEGMENTS);
        let segments: Vec<&[f64]> = (0..k).map(|i| &lat[i * n / k..(i + 1) * n / k]).collect();
        let over =
            |f: &dyn Fn(&[f64]) -> f64| median(&segments.iter().map(|s| f(s)).collect::<Vec<_>>());
        let column = |f: fn(&(f64, f64, f64)) -> f64| t.setups.iter().map(f).collect::<Vec<_>>();
        let probes: Vec<f64> = t.chunks.iter().map(|c| c.2).collect();
        for (name, value, unit) in [
            (
                "throughput",
                over(&|s| s.len() as f64 / s.iter().sum::<f64>()),
                "1/s",
            ),
            ("latency_p50_ms", 1e3 * over(&|s| percentile(s, 0.50)), "ms"),
            ("latency_p99_ms", 1e3 * over(&|s| percentile(s, 0.99)), "ms"),
            ("setup_wall_s", median(&column(|s| s.0)), "s"),
            ("cpu_ms_per_op_raw", median(&per_op_raw), "ms"),
            ("setup_cpu_raw_s", median(&column(|s| s.1)), "s"),
            ("pace_us", 1e6 * median(&probes), "us"),
        ] {
            self.ungated.push(Metric {
                name: name.into(),
                value,
                unit,
            });
        }
    }

    /// Fold another outcome's counts, checks and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
        self.ungated.extend(other.ungated);
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; print null so the run is
            // visibly broken instead of silently clamped.
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timing_metrics_are_medians_over_segments() {
        // 3000 operations of 1 ms with one slow burst in the middle third,
        // in 30 chunks of 100 operations at 0.5 CPU ms each on a core at
        // half the reference speed, but 2 ms in the burst.
        let slow = 2.0 * REFERENCE_S;
        let mut t = Timing::new();
        t.setups = vec![(2.0, 0.4, slow), (1.0, 0.2, slow), (3.0, 0.6, slow)];
        t.latencies_s = vec![1e-3; 3000];
        t.chunks = vec![(100, 0.05, slow); 30];
        t.latencies_s[1000..2000].iter_mut().for_each(|x| *x = 5e-3);
        t.chunks[10..20].iter_mut().for_each(|c| c.1 = 0.2);
        t.chunks.push((0, 1.0, slow));
        let mut o = Outcome::new();
        o.end_to_end(&t, 1.5);
        let v: Vec<(&str, f64)> = o
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(v[0].0, "setup_s");
        assert!((v[0].1 - 0.2).abs() < 1e-12, "setup {}", v[0].1);
        assert_eq!(v[1].0, "cpu_ms_per_op");
        assert!((v[1].1 - 0.25).abs() < 1e-9, "cpu per op {}", v[1].1);
        assert_eq!(v[2], ("quality", 1.5));
        let u: Vec<(&str, f64)> = o
            .ungated
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(u[0].0, "throughput");
        assert!((u[0].1 - 1000.0).abs() < 1e-6, "throughput {}", u[0].1);
        assert!((u[1].1 - 1.0).abs() < 1e-12);
        assert!((u[2].1 - 1.0).abs() < 1e-12);
        assert_eq!(u[3], ("setup_wall_s", 2.0));
        assert_eq!(u[4].0, "cpu_ms_per_op_raw");
        assert!((u[4].1 - 0.5).abs() < 1e-9);
        assert_eq!(u[5], ("setup_cpu_raw_s", 0.4));
    }

    #[test]
    fn cpu_clock_counts_work() {
        let c = cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_s() > c, "{x}");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.push("latency_ms", 1.25, "ms");
        o.push("n", 2.0, "count");
        o.ungated.push(Metric {
            name: "p99_ms".into(),
            value: 9.0,
            unit: "ms",
        });
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        let parsed = ap_json::parse(&o.json_line()).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_usize()), Some(3));
    }
}
