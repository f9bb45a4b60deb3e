//! # ap-par — in-tree data parallelism over `std::thread`
//!
//! The controller scores O(L²) candidate partitions per decision and the
//! pretraining pipeline labels hundreds of samples; both are
//! embarrassingly parallel. The workspace must build offline with zero
//! external crates, so this module provides the one primitive those hot
//! paths need: an **order-preserving parallel map** over a scoped worker
//! pool with chunked work distribution.
//!
//! Guarantees:
//!
//! * **Output order == input order**, regardless of thread count or
//!   scheduling — callers that reduce with `max_by` select exactly the
//!   same element a serial map would (ties resolve identically), which
//!   the determinism tests of `autopipe` rely on.
//! * **Panics propagate**: a panicking closure aborts the whole map with
//!   the original payload (via `std::thread::scope` join semantics).
//! * **No oversubscription**: at most [`threads`] workers, chunked so each
//!   claim amortizes synchronization over many items.
//!
//! Small inputs fall back to a serial loop — a scoped spawn costs ~10 µs,
//! so parallelism only pays once there is real work to split.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads a parallel map may use.
///
/// Defaults to the machine's available parallelism (capped at 16 — the
/// candidate sets are a few hundred items, more threads just add claim
/// traffic). Override with the `AP_PAR_THREADS` environment variable;
/// `AP_PAR_THREADS=1` forces every map onto the calling thread.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("AP_PAR_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

/// Below this many items a map runs serially: thread startup would cost
/// more than the work saves.
const SERIAL_CUTOFF: usize = 16;

/// Parallel map over owned items, preserving input order.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads();
    if n < SERIAL_CUTOFF || workers < 2 {
        return items.into_iter().map(f).collect();
    }
    // Chunked distribution: several chunks per worker so an uneven chunk
    // (candidates differ in stage count, samples in rejection retries)
    // does not serialize the tail.
    let n_chunks = (workers * 4).min(n);
    let chunk_size = n.div_ceil(n_chunks);
    // An indexed chunk of pending items, claimed at most once.
    type PendingChunk<T> = Mutex<Option<(usize, Vec<T>)>>;
    let mut chunks: Vec<PendingChunk<T>> = Vec::with_capacity(n_chunks);
    {
        let mut rest = items;
        let mut idx = 0;
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(chunk_size));
            chunks.push(Mutex::new(Some((idx, rest))));
            rest = tail;
            idx += 1;
        }
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunks.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers.min(chunks.len()) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= chunks.len() {
                    break;
                }
                let (idx, chunk) = chunks[k]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("chunk claimed twice");
                let out: Vec<R> = chunk.into_iter().map(&f).collect();
                done.lock().unwrap().push((idx, out));
            });
        }
    });
    let mut parts = done.into_inner().unwrap();
    parts.sort_unstable_by_key(|&(idx, _)| idx);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// Parallel map over borrowed items, preserving input order.
pub fn map_ref<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    map(items.iter().collect(), |item: &T| f(item))
}

/// Parallel map over an index range `0..n`, preserving order. The closure
/// gets the index — the shape sample generators want (each index derives
/// its own RNG stream so results are independent of scheduling).
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map((0..n).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let out = map(items.clone(), |x| x * 3 + 1);
        let want: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn matches_serial_even_below_cutoff() {
        for n in [0usize, 1, 2, 15, 16, 17, 63, 64, 257] {
            let items: Vec<usize> = (0..n).collect();
            let out = map(items.clone(), |x| x * x);
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "n={n}"
            );
        }
    }

    #[test]
    fn max_by_ties_resolve_like_serial() {
        // Scores with deliberate ties: order preservation makes the
        // parallel map + serial reduce pick the same winner as a fully
        // serial pipeline.
        let items: Vec<usize> = (0..500).collect();
        let score = |&i: &usize| (i % 7) as f64;
        let par: Vec<f64> = map_ref(&items, score);
        let serial: Vec<f64> = items.iter().map(score).collect();
        let pick = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
        };
        assert_eq!(pick(&par), pick(&serial));
    }

    #[test]
    fn map_ref_borrows_without_cloning() {
        let items: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let lens = map_ref(&items, |s| s.len());
        assert_eq!(lens[0], 2);
        assert_eq!(lens[99], 3);
        assert_eq!(items.len(), 100); // still owned here
    }

    #[test]
    fn map_indexed_covers_range() {
        let out = map_indexed(300, |i| i as u64 + 1);
        assert_eq!(out.len(), 300);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn heavy_uneven_work_still_ordered() {
        // Simulate candidates of very different cost.
        let out = map_indexed(200, |i| {
            let mut acc = i as u64;
            for _ in 0..(i % 17) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = map_indexed(100, |i| {
            if i == 57 {
                panic!("boom");
            }
            i
        });
    }
}
