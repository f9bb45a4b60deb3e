//! `--self-test`: the generators are pure functions of the seed, and
//! `quality` repeats bit for bit.

use std::process::ExitCode;

use ap_exec::training_batch;
use ap_sched::trace::TraceEventKind;
use ap_serve::cache::fnv1a64;

use crate::{cluster, end_to_end, plan, train, WORKLOADS};

/// Digest of every input a workload's program receives under `seed`.
fn input_digests(seed: u64) -> [u64; 4] {
    let mut gen = plan::PlanGen::new(seed, 10);
    let cold: String = (0..300).map(|_| gen.next_input().body).collect();
    let mut gen = plan::PlanGen::new(seed, 11);
    let hot: String = (0..64).map(|_| gen.next_input().body).collect();
    let mut trace = String::new();
    for te in cluster::traces(seed).iter().flatten() {
        let what = match &te.event {
            TraceEventKind::Arrive(r) => format!("arrive {} {} {}", r.name, r.gpus, r.adaptive),
            other => format!("{other:?}"),
        };
        trace.push_str(&format!("{:x} {what}\n", te.time.to_bits()));
    }
    let spec = train::session_spec(seed);
    let mut batches = String::new();
    for mb in 0..spec.distinct_batches {
        let (x, y) = training_batch(&spec, mb);
        for v in x.data().iter().chain(y.data()) {
            batches.push_str(&format!("{:x}", v.to_bits()));
        }
    }
    [
        fnv1a64(&cold),
        fnv1a64(&hot),
        fnv1a64(&trace),
        fnv1a64(&batches),
    ]
}

fn quality(workload: &str, seed: u64) -> Option<f64> {
    let o = end_to_end(workload, seed, 0.5);
    if !o.correct || o.failed > 0 {
        println!(
            "self-test: {workload} seed {seed} failed its checks: {:?}",
            o.problems
        );
        return None;
    }
    o.metrics
        .iter()
        .find(|m| m.name == "quality")
        .map(|m| m.value)
}

/// Run the self-test for `seed` (and `seed + 1` as the different seed).
pub fn run(seed: u64) -> ExitCode {
    let mut ok = true;
    let a = input_digests(seed);
    let b = input_digests(seed);
    let c = input_digests(seed + 1);
    for (i, w) in WORKLOADS.iter().enumerate() {
        let same = a[i] == b[i];
        let differs = a[i] != c[i];
        println!("self-test: {w} inputs: same seed identical {same}, next seed differs {differs}");
        ok &= same && differs;
    }
    for w in WORKLOADS {
        let q1 = quality(w, seed);
        let q2 = quality(w, seed);
        let same = matches!((q1, q2), (Some(x), Some(y)) if x.to_bits() == y.to_bits());
        println!("self-test: {w} quality {q1:?} then {q2:?}: identical {same}");
        ok &= same;
    }
    println!("self-test: {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
