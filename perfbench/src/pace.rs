//! Core pace: a fixed reference kernel whose CPU time tracks how fast the
//! host's cores run at the moment.
//!
//! On a shared host the CPU time of the same work drifts by tens of
//! percent within minutes: the clock frequency changes and another
//! guest's thread shares the core's execution units and caches. The
//! benchmark times [`kernel`] with the thread CPU clock between timed
//! chunks and around set-ups, never inside an operation, and reports CPU
//! figures scaled by [`REFERENCE_S`] over the kernel's time next to them:
//! the CPU the work would have taken on a core where the kernel takes
//! exactly [`REFERENCE_S`]. The kernel uses nothing but `std` and never
//! allocates, so a change to the program moves the figures and not the
//! kernel.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;

use crate::report::{median, thread_cpu_s};

/// Kernel CPU seconds on the reference core. On the reference host (a
/// shared 2-vCPU VM, Intel Xeon) the kernel took 0.17–0.37 ms.
pub const REFERENCE_S: f64 = 250e-6;
/// Timed kernel calls per probe, after one untimed call.
const CALLS: usize = 3;
/// Pause before a probe, so work the program left running (a daemon
/// worker finishing its bookkeeping, threads exiting) is done first.
const SETTLE: Duration = Duration::from_millis(1);
/// Entries of the dependent-load table: 512 KiB, past L1, inside L2.
const TABLE: usize = 1 << 17;
/// Side of the dense matrix product.
const N: usize = 48;
/// Dependent loads per kernel call.
const STEPS: usize = 20_000;
/// Records formatted, parsed back and sorted per kernel call.
const RECORDS: usize = 400;

/// The kernel's buffers, allocated once so that no call touches the
/// allocator: its time must not depend on the state the program left the
/// heap in.
#[derive(Debug)]
struct Buffers {
    table: Vec<u32>,
    a: Vec<f64>,
    c: Vec<f64>,
    text: String,
    keys: Vec<u64>,
}

/// The reference kernel: a fixed mix of what the program spends its CPU
/// on — a dense floating-point product, dependent loads over a table
/// larger than L1, and text formatting and parsing with a sort. Returns a
/// checksum so none of it is optimised away.
fn kernel(b: &mut Buffers) -> u64 {
    let a = black_box(&b.a);
    b.c.fill(0.0);
    for i in 0..N {
        for k in 0..N {
            let x = a[i * N + k];
            for j in 0..N {
                b.c[i * N + j] += x * a[k * N + j];
            }
        }
    }
    let mut at = black_box(0u32);
    for _ in 0..STEPS {
        at = b.table[at as usize];
    }
    b.keys.clear();
    for i in 0..RECORDS {
        b.text.clear();
        let _ = write!(b.text, "{{\"id\": {i}, \"w\": {}}}", i * 31 % 977);
        let w = &b.text[b.text.rfind(' ').map_or(0, |p| p + 1)..b.text.len() - 1];
        b.keys.push(w.parse::<u64>().unwrap_or(0) << 16 | i as u64);
    }
    b.keys.sort_unstable();
    black_box(b.c[N * N - 1].to_bits() ^ u64::from(at) ^ b.keys[RECORDS / 2])
}

/// A single cycle through `0..TABLE` (Sattolo's shuffle under a fixed
/// xorshift), so every load depends on the one before.
fn table() -> Vec<u32> {
    let mut t: Vec<u32> = (0..TABLE as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..TABLE).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t.swap(i, (x % i as u64) as usize);
    }
    t
}

/// The kernel's data, built once per timed loop.
#[derive(Debug)]
pub struct Pace {
    buffers: Buffers,
}

impl Pace {
    pub fn new() -> Self {
        Pace {
            buffers: Buffers {
                table: table(),
                a: (0..N * N).map(|i| (i % 7) as f64 * 0.25 - 0.5).collect(),
                c: vec![0.0; N * N],
                text: String::with_capacity(64),
                keys: Vec::with_capacity(RECORDS),
            },
        }
    }

    /// Kernel CPU seconds now: the median of [`CALLS`] calls timed on the
    /// thread CPU clock, after a short pause and one untimed call that
    /// brings the kernel's data back into the caches.
    pub fn probe(&mut self) -> f64 {
        std::thread::sleep(SETTLE);
        let b = &mut self.buffers;
        black_box(kernel(b));
        let mut calls = [0.0; CALLS];
        for call in &mut calls {
            let t = thread_cpu_s();
            black_box(kernel(b));
            *call = thread_cpu_s() - t;
        }
        median(&calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let t = table();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = t[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE);
    }

    #[test]
    fn probe_takes_cpu_time() {
        let p = Pace::new().probe();
        assert!(p > 0.0 && p < 0.1, "kernel took {p} s of CPU");
    }
}
