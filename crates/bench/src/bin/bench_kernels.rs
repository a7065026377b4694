//! Training-kernel microbenchmarks at the paper's MLP shapes.
//!
//! Times each tinynn matmul kernel — plain, fused bias, fused
//! bias+ReLU, transposed-left (`tn`), transposed-right (`nt`) — on the
//! exact shapes one local update of the §VII-A scenario runs them at
//! (shard batch 200, model `[64, 64, 10]`, eval chunk 256), plus one
//! square reference size for cross-report comparability with
//! `bench_round_engine`. GFLOP/s counts `2·m·k·n` per product; the
//! fused epilogues add a few percent more real work, so their reported
//! rate is slightly conservative.
//!
//! Kernels that consume a post-ReLU activation cycle through a pool of
//! distinct 50 %-sparse operands, one per iteration, as the engine
//! does: a fixed operand would let the branch predictor learn its zero
//! pattern and hide the cost of a data-dependent zero-skip branch.
//!
//! Results go to stdout and `results/BENCH_kernels.json`
//! (`helcfl-trace gate` diffs two such reports on per-kernel GFLOP/s).
//!
//! Usage: `bench_kernels [--smoke] [--seed N]`
//!
//! `--smoke` cuts the per-kernel FLOP budget ~16× for CI: rates get
//! noisier but stay within the loose default gate tolerance.

use std::path::Path;
use std::time::Instant;

use detrand::Rng;
use helcfl_bench::json::JsonObject;
use tinynn::tensor::Matrix;

/// ReLU-like sparsity applied to the left operand of the kernels that
/// consume activations, so the zero-skip path is exercised the way the
/// engine exercises it.
const ACTIVATION_SPARSITY: f64 = 0.5;

/// Distinct activation operands the ReLU-sparse benches cycle through
/// (see the module docs for why one fixed operand is not enough).
const ACTIVATION_POOL: usize = 8;

/// Per-kernel FLOP budget for the full run (`--smoke` divides by 16).
const FLOP_BUDGET: f64 = 2.0e9;

/// Minimum measured time per kernel for the full run (`--smoke`
/// divides by 16). The FLOP budget alone schedules narrow shapes
/// (e.g. `matmul_tn 64x200x10`) for so few microseconds of work that
/// timer noise dominates; a timed warmup scales the iteration count up
/// until at least this much wall clock is sampled.
const MIN_BENCH_SECS: f64 = 0.25;

struct Args {
    smoke: bool,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, seed: 2022 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = it.next().expect("--seed requires a value");
                args.seed = v.parse().expect("--seed must be an integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_kernels [--smoke] [--seed N]");
                std::process::exit(2);
            }
        }
    }
    args
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("from_vec")
}

/// A matrix with roughly [`ACTIVATION_SPARSITY`] of its entries zeroed
/// and the rest positive — the value profile of a post-ReLU
/// activation, which drives the kernels' zero-skip.
fn sparse_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let v = rng.uniform_f32(0.0, 1.0);
            if rng.uniform_f32(0.0, 1.0) < ACTIVATION_SPARSITY as f32 { 0.0 } else { v }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("from_vec")
}

/// One benchmarked kernel invocation: `(m, k, n)` are the product
/// dimensions used for the `2·m·k·n` FLOP count.
struct Bench<'a> {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    run: Box<dyn FnMut() + 'a>,
}

/// Times `b` over a calibrated iteration count and returns
/// `(iters, mean seconds per iteration, GFLOP/s)`.
fn time_bench(b: &mut Bench<'_>, budget: f64, min_secs: f64) -> (usize, f64, f64) {
    let flops = 2.0 * b.m as f64 * b.k as f64 * b.n as f64;
    let iters = calibrated_iters(&mut b.run, budget / flops, min_secs);
    let started = Instant::now();
    for _ in 0..iters {
        (b.run)();
    }
    let secs = started.elapsed().as_secs_f64() / iters as f64;
    (iters, secs, flops / secs / 1e9)
}

/// Iteration count for a kernel: the FLOP budget's schedule, raised
/// until the timed warmup predicts at least `min_secs` of samples.
fn calibrated_iters(run: &mut (dyn FnMut() + '_), budget_iters: f64, min_secs: f64) -> usize {
    // First run faults pages and fills caches; the second, warm run
    // estimates the per-iteration cost for calibration.
    run();
    let est = Instant::now();
    run();
    let t_est = est.elapsed().as_secs_f64().max(1e-9);
    let from_time = (min_secs / t_est) as usize;
    (budget_iters as usize).max(from_time).max(4)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let budget = if args.smoke { FLOP_BUDGET / 16.0 } else { FLOP_BUDGET };
    let min_secs = if args.smoke { MIN_BENCH_SECS / 16.0 } else { MIN_BENCH_SECS };
    let mut rng = Rng::seed_from_u64(args.seed);

    // Engine shapes: shard batch 200 (20 000 samples / 100 devices),
    // model [64, 64, 10], eval chunk 256 rows.
    let x = random_matrix(200, 64, &mut rng); // dense input batch
    let act = sparse_matrix(200, 64, &mut rng); // post-ReLU activation
    let w1 = random_matrix(64, 64, &mut rng); // hidden weights
    let w2 = random_matrix(64, 10, &mut rng); // head weights
    let b1: Vec<f32> = (0..64).map(|_| rng.uniform_f32(-0.5, 0.5)).collect();
    let b2: Vec<f32> = (0..10).map(|_| rng.uniform_f32(-0.5, 0.5)).collect();
    let dz = random_matrix(200, 10, &mut rng); // head gradient
    let chunk = random_matrix(256, 64, &mut rng); // eval chunk
    let sq = random_matrix(256, 256, &mut rng);
    let sq_b = random_matrix(256, 256, &mut rng);
    // The rest of the activation pool, drawn last so every operand
    // above keeps the values it has always had for a given seed.
    let mut acts = vec![act];
    acts.extend((1..ACTIVATION_POOL).map(|_| sparse_matrix(200, 64, &mut rng)));

    // Each closure owns its output buffer (the `*_into` kernels resize
    // it on first use, then reuse it allocation-free) and captures the
    // operands by shared reference.
    let mk_out = || Matrix::zeros(1, 1).expect("zeros");
    let (x, acts, w1, w2, dz, chunk, sq, sq_b) = (&x, &acts, &w1, &w2, &dz, &chunk, &sq, &sq_b);
    let (b1, b2) = (&b1, &b2);
    let mut benches: Vec<Bench<'_>> = vec![
        Bench {
            name: "matmul 200x64x64",
            m: 200,
            k: 64,
            n: 64,
            run: {
                let mut out = mk_out();
                Box::new(move || x.matmul_into(w1, &mut out).expect("matmul"))
            },
        },
        Bench {
            name: "matmul_bias_relu 200x64x64",
            m: 200,
            k: 64,
            n: 64,
            run: {
                let mut out = mk_out();
                Box::new(move || x.matmul_bias_relu_into(w1, b1, &mut out).expect("fused"))
            },
        },
        Bench {
            name: "matmul_bias 200x64x10",
            m: 200,
            k: 64,
            n: 10,
            run: {
                let mut out = mk_out();
                let mut act = acts.iter().cycle();
                Box::new(move || {
                    let act = act.next().expect("pool");
                    act.matmul_bias_into(w2, b2, &mut out).expect("fused");
                })
            },
        },
        Bench {
            name: "matmul_tn 64x200x64",
            m: 64,
            k: 200,
            n: 64,
            run: {
                let mut out = mk_out();
                let mut act = acts.iter().cycle();
                Box::new(move || {
                    let act = act.next().expect("pool");
                    act.matmul_tn_into(x, &mut out).expect("tn");
                })
            },
        },
        Bench {
            name: "matmul_tn 64x200x10",
            m: 64,
            k: 200,
            n: 10,
            run: {
                let mut out = mk_out();
                let mut act = acts.iter().cycle();
                Box::new(move || {
                    let act = act.next().expect("pool");
                    act.matmul_tn_into(dz, &mut out).expect("tn");
                })
            },
        },
        Bench {
            name: "matmul_nt 200x10x64",
            m: 200,
            k: 10,
            n: 64,
            run: {
                let mut out = mk_out();
                Box::new(move || dz.matmul_nt_into(w2, &mut out).expect("nt"))
            },
        },
        Bench {
            name: "matmul_bias_relu 256x64x64",
            m: 256,
            k: 64,
            n: 64,
            run: {
                let mut out = mk_out();
                Box::new(move || chunk.matmul_bias_relu_into(w1, b1, &mut out).expect("fused"))
            },
        },
        Bench {
            name: "matmul 256x256x256",
            m: 256,
            k: 256,
            n: 256,
            run: {
                let mut out = mk_out();
                Box::new(move || sq.matmul_into(sq_b, &mut out).expect("matmul"))
            },
        },
    ];

    println!(
        "Kernel bench — paper MLP shapes, {} FLOP budget/kernel{}",
        budget,
        if args.smoke { " (smoke)" } else { "" }
    );
    let mut kernels = Vec::new();
    for b in &mut benches {
        let (iters, secs, gflops) = time_bench(b, budget, min_secs);
        println!("  {:<28} {gflops:7.2} GFLOP/s ({:.1} µs/iter)", b.name, secs * 1e6);
        let mut k = JsonObject::new();
        k.field("name", b.name)
            .field("m", b.m)
            .field("k", b.k)
            .field("n", b.n)
            .field("iters", iters)
            .field("secs_per_iter", secs)
            .field("gflops", gflops);
        kernels.push(k);
    }

    let mut host = JsonObject::new();
    host.field(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0usize, std::num::NonZeroUsize::get),
    );

    let mut report = JsonObject::new();
    report
        .field("bench", "kernels")
        .field("smoke", args.smoke)
        .field("seed", args.seed)
        .object("host", host)
        .field("kernels", kernels);

    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(&path, report.finish() + "\n")?;
    println!("  report written to {}", path.display());
    Ok(())
}
