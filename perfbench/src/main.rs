//! Repository benchmark for the HELCFL reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-iid|fleet-100k|faulted-noniid \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload end to end with no benchmark
//! tracing; `--trace 1` runs the traced per-layer pass. The last line
//! of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod bench;
mod digest;
mod replay;
mod seams;
mod stats;
mod workloads;

use std::process::ExitCode;

use bench::{Outcome, WorkDir};
use workloads::{Spec, Workload, DEFAULT_SEED};

/// Environment variables the program reads. Any of them would change
/// what a timed run does (an exported `HELCFL_CHECKPOINT` makes a run
/// resume and read fast), so the benchmark clears them all.
const PROGRAM_KNOBS: [&str; 8] = [
    "HELCFL_THREADS",
    "HELCFL_CHECKPOINT",
    "HELCFL_TRACE",
    "HELCFL_TRACE_MODE",
    "HELCFL_PROGRESS",
    "HELCFL_SIMD",
    "HELCFL_CHAOS_KILL_AT",
    "HELCFL_CHAOS_TORN_AT",
];

/// Worker threads of the round engine. One, not `nproc`: on a shared
/// two-vCPU virtual machine, keeping both vCPUs busy drew 3-10x more
/// hypervisor steal time than keeping one busy, and the same
/// `faulted-noniid`-sized run took anywhere from 1.7 to 5.0 s with two
/// workers against 2.4-3.0 s with one. With one worker the pool runs
/// inline on the calling thread (cohort batching included);
/// multi-worker dispatch is covered by the repository's determinism
/// suites, not timed here.
const WORKERS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{value}` (1..=600)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn result_line(out: &Outcome) -> String {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        let value = if m.summary.median.is_finite() {
            m.summary.median
        } else {
            0.0
        };
        metrics.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let cleared: Vec<&str> = PROGRAM_KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    for knob in &cleared {
        // Single-threaded here: nothing else reads the environment yet.
        std::env::remove_var(knob);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = WORKERS.min(nproc);
    let spec = Spec::new(args.workload, args.seed, workers);
    let work = match WorkDir::create(args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = if args.trace {
        bench::traced(&spec, args.seed, args.seconds, &work)
    } else {
        bench::end_to_end(&spec, args.seed, args.seconds, &work)
    };
    drop(work);
    for m in &out.metrics {
        if !m.summary.median.is_finite() {
            out.problems
                .push(format!("{} is not a finite number", m.name));
        }
    }

    println!(
        "perfbench workload={} seed={} mode={} workers={} nproc={} simd={} cleared_env=[{}]",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        workers,
        nproc,
        tinynn::simd::active_path().name(),
        cleared.join(",")
    );
    for m in &out.metrics {
        let s = m.summary;
        println!(
            "  {:<28} {:>14.6} {:<8} q1 {:.6} q3 {:.6} n {}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    println!(
        "  {:<28} {}/{} runs",
        "failed_share", out.failed, out.attempted
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        println!("  FAILED {problem}");
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse(&[
            "--workload",
            "fleet-100k",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Fleet100k, 9, 5, true)
        );
        let d = parse(&["--workload", "paper-iid"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(parse(&["--workload", "hit"]).is_err());
        assert!(parse(&["--workload", "paper-iid", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.push(bench::Metric {
            name: "run_s",
            unit: "s",
            summary: stats::Summary::of(&[1.5, 2.5]).unwrap(),
        });
        let line = result_line(&out);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":2,\"unit\":\"s\"}}}"
        );
        helcfl_telemetry::json::validate(&line).unwrap();
    }
}
