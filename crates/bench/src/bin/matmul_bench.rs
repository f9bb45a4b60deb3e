//! Matmul hot-path wall-clock: naive ikj reference vs the production
//! kernel (`Matrix::matmul`).
//!
//! The exec runtime spends most of its compute in `Matrix::matmul`, so
//! this binary measures exactly the before/after of the kernel rework:
//! `naive` is the seed implementation (plain ikj triple loop, kept here
//! verbatim as the reference), `blocked` is the shipped kernel — packed
//! panels and a register-blocked micro-kernel, on the calling thread.
//! Because the kernel accumulates every output element in the same order
//! as the naive loop, the two must agree **bit-for-bit** on every shape;
//! this binary asserts that before timing, with the codegen of the build
//! that runs it (CI runs it in release mode for exactly that reason).
//!
//! A second table times the single-row products the learned components
//! run once per sample (`1 x k` rows through the meta-net, arbiter and
//! switch-cost layers); each of those takes about a microsecond, so every
//! timed run there is a batch of `ROW_REPS` calls.
//!
//! Results merge into the `"matmul"` key of `BENCH_hotpath.json` in the
//! current directory (or the path given as the first argument), leaving
//! other benches' keys intact.

use ap_bench::json::{merge_file_key, Json};
use ap_bench::timing;
use ap_nn::Matrix;
use std::hint::black_box;
use std::path::PathBuf;

const RUNS: usize = 9;

/// Calls per timed run of a single-row product.
const ROW_REPS: usize = 2000;

/// The seed kernel: plain ikj with the `a == 0.0` skip, no blocking. The
/// production kernel must reproduce its output exactly.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(kk, j));
            }
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_hotpath.json"));

    // Shapes bracketing the kernel's regimes: the exec runtime's own
    // per-layer products, the perfbench `train` layer (128³), and two
    // whose packed right-hand side no longer fits in L1 or L2.
    let shapes: [(usize, usize, usize); 4] = [
        (32, 128, 128),
        (128, 128, 128),
        (256, 512, 256),
        (512, 512, 512),
    ];

    println!("matmul: naive ikj vs packed kernel (one thread)");
    let mut rows = Vec::new();
    for (m, k, n) in shapes {
        let a = Matrix::xavier(m, k, 11);
        let b = Matrix::xavier(k, n, 13);

        // Equivalence gate: the speedup only counts if the bytes match,
        // for the plain product and for the transposed-operand forms the
        // backward passes use.
        let want = naive_matmul(&a, &b);
        let forms = [
            ("matmul", a.matmul(&b)),
            ("t_matmul", a.transpose().t_matmul(&b)),
            ("matmul_t", a.matmul_t(&b.transpose())),
        ];
        for (form, got) in forms {
            assert!(
                bits(&want) == bits(&got),
                "{form} diverged from naive at {m}x{k}x{n}"
            );
        }

        let naive = timing::bench(&format!("naive/{m}x{k}x{n}"), RUNS, || {
            black_box(naive_matmul(&a, &b));
        });
        println!("{}", naive.report());
        let blocked = timing::bench(&format!("blocked/{m}x{k}x{n}"), RUNS, || {
            black_box(a.matmul(&b));
        });
        println!("{}", blocked.report());
        let speedup = naive.median / blocked.median;
        println!("   speedup {speedup:.2}x\n");

        rows.push(Json::obj(vec![
            ("m", Json::Num(m as f64)),
            ("k", Json::Num(k as f64)),
            ("n", Json::Num(n as f64)),
            ("runs", Json::Num(RUNS as f64)),
            ("naive_median_s", Json::Num(naive.median)),
            ("blocked_median_s", Json::Num(blocked.median)),
            ("speedup", Json::Num(speedup)),
            ("bit_identical", Json::Bool(true)),
        ]));
    }

    // (k, n) of the single-row products: the meta-net LSTM gates
    // ((24 + 16) -> 4 * 24) and head (24 + 43 -> 64 -> 32 -> 1), the
    // arbiter MLP (6 -> 32 -> 16 -> 2) and the switch-cost MLP's first
    // layer (5 -> 16).
    let row_shapes: [(usize, usize); 8] = [
        (40, 96),
        (67, 64),
        (64, 32),
        (32, 1),
        (6, 32),
        (32, 16),
        (16, 2),
        (5, 16),
    ];
    println!("matmul: single-row products, {ROW_REPS} calls per run");
    let mut row_rows = Vec::new();
    for (k, n) in row_shapes {
        let x = Matrix::xavier(1, k, 17);
        let w = Matrix::xavier(k, n, 19);
        assert!(
            bits(&naive_matmul(&x, &w)) == bits(&x.matmul(&w)),
            "matmul diverged from naive at 1x{k}x{n}"
        );
        let per_call = |name: &str, f: &dyn Fn() -> Matrix| {
            let s = timing::bench(name, RUNS, || {
                for _ in 0..ROW_REPS {
                    black_box(f());
                }
            });
            println!("{}", s.report());
            s.median / ROW_REPS as f64
        };
        let naive = per_call(&format!("naive/1x{k}x{n}"), &|| {
            naive_matmul(black_box(&x), &w)
        });
        let blocked = per_call(&format!("blocked/1x{k}x{n}"), &|| black_box(&x).matmul(&w));
        println!(
            "   per call {:.1} ns vs {:.1} ns\n",
            naive * 1e9,
            blocked * 1e9
        );
        row_rows.push(Json::obj(vec![
            ("m", Json::Num(1.0)),
            ("k", Json::Num(k as f64)),
            ("n", Json::Num(n as f64)),
            ("runs", Json::Num(RUNS as f64)),
            ("calls_per_run", Json::Num(ROW_REPS as f64)),
            ("naive_median_s", Json::Num(naive)),
            ("blocked_median_s", Json::Num(blocked)),
            ("speedup", Json::Num(naive / blocked)),
            ("bit_identical", Json::Bool(true)),
        ]));
    }

    let doc = Json::obj(vec![
        ("shapes", Json::Arr(rows)),
        ("single_row", Json::Arr(row_rows)),
    ]);
    merge_file_key(&out_path, "matmul", doc).expect("write BENCH_hotpath.json");
    println!("merged key \"matmul\" into {}", out_path.display());
}
