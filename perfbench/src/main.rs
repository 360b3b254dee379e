//! The repository benchmark. Runs one seeded workload through the public
//! APIs of the planner, dataloader, executor, simulator, recovery planner
//! and baselines, checks every output, and prints every metric with its
//! unit and sample count. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_causal|plan_sparse|scale_recover|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` (the default) the metrics are the end-to-end ones;
//! with `--trace 1` they are the per-layer ones, and a Chrome trace of the
//! recorded spans is written to `perfbench/out/`. `--workload all` runs
//! every workload both ways, each in a process of its own.

mod common;
mod measure;
mod numerics;
mod plan_sparse;
mod report;
mod run;
mod scale_recover;
mod trace;
mod train_causal;

use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::common::Stats;
use crate::measure::{repeat, Metric};
use crate::run::{timed_loop, Workload, MIN_ITERS};
use crate::trace::{Layer, Tracer};

const WORKLOADS: [&str; 3] = ["train_causal", "plan_sparse", "scale_recover"];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;

/// The executor's and planner's worker-thread knob. The benchmark runs
/// them on one thread unless it is set: on a 2-vCPU machine, identical
/// two-thread runs of `plan_sparse` took 26 to 54 ms per iteration, while
/// one-thread runs stayed within 16 to 19 ms. The dataloader's look-ahead
/// planning thread is separate and still overlaps execution.
const THREADS_VAR: &str = "RAYON_NUM_THREADS";

/// The benchmark definition, relative to the repository root the
/// benchmark runs from: metric names, units and order come from it.
const DEFINITION: &str = "BENCHMARK.json";

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <train_causal|plan_sparse|scale_recover|all> \
                     [--seed N (default 1)] [--seconds S (default 25)] [--trace 0|1 (default 0)]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "train_causal" => Box::new(train_causal::TrainCausal::setup(seed, tr)?),
        "plan_sparse" => Box::new(plan_sparse::PlanSparse::setup(seed, tr)?),
        "scale_recover" => Box::new(scale_recover::ScaleRecover::setup(seed, tr)?),
        _ => unreachable!("workload names are checked when parsed"),
    })
}

/// The layers a workload is expected to spend most of its iteration in.
fn expected_dominant(name: &str) -> &'static [Layer] {
    match name {
        "train_causal" => &[Layer::Exec],
        "plan_sparse" => &[Layer::Planner],
        _ => &[Layer::Planner, Layer::Sim, Layer::Recovery],
    }
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run_workload(args: &Args, start: Instant) -> Result<(), String> {
    let name = args.workload.as_str();
    println!(
        "perfbench {name}: seed {}, {} s, trace {}, {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon_threads()
    );
    let defs = report::Defs::load(DEFINITION)?;
    let mut tr = Tracer::new(args.trace);
    let (setup_s, w) = repeat(SETUP_REPS, start, || setup(name, args.seed, &mut tr));
    let mut w = w.map_err(|e| format!("set-up: {e}"))?;

    let mut st = Stats::default();
    let o = timed_loop(w.as_mut(), &mut tr, &mut st, args.seconds, args.trace);
    let rss = peak_rss_mb()?;

    let mut problems = o.errors.clone();
    if o.attempted < w.prefix() {
        problems.push(format!(
            "{} iterations, fewer than the {} the counters need",
            o.attempted,
            w.prefix()
        ));
    }
    if st.sum("planner.cache_hits") != 0.0 {
        problems.push("the plan cache was hit; it is off, so every plan must be cold".into());
    }
    let metrics = if args.trace {
        report::per_layer(&defs, &o, &st, &tr, SETUP_REPS)
    } else {
        report::end_to_end(&defs, &o, w.te_sim_s(), &setup_s, rss)
    }?;
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} is {}", m.name, m.value));
    }
    let correct = problems.is_empty() && o.failed == 0;
    println!(
        "{} iterations ({} failed, error_rate {:.4}), {} with a reference check",
        o.attempted,
        o.failed,
        common::ratio(o.failed as f64, o.attempted as f64),
        st.sum("exec.reference_checks"),
    );
    println!(
        "measured: iter_ms_p50 {:.3}, iter_ms_p90 {:.3}; reference speed: x{:.4} on average \
         (calibration {:.4} ms median, n={}, reference {} ms)",
        o.iter_s.median() * 1e3,
        o.iter_s.percentile(90.0) * 1e3,
        common::ratio(o.iter_ref_s.sum(), o.iter_s.sum()),
        o.calibration_s.median() * 1e3,
        o.calibration_s.len(),
        measure::REFERENCE_CALIBRATION_S * 1e3,
    );
    if !o.iter_s.supports(90.0) {
        println!(
            "  note: {} iterations support only p{:?}; p90 needs {MIN_ITERS}",
            o.iter_s.len(),
            o.iter_s.tail().map(|t| t.0)
        );
    }
    for m in &metrics {
        println!("{}", m.line());
    }
    if args.trace {
        report_trace(name, args.seed, &tr)?;
    }
    for p in &problems {
        println!("FAILED CHECK: {p}");
    }
    println!("{}", result_line(correct, o.attempted, o.failed, &metrics));
    Ok(())
}

/// Prints where traced iterations spent their time and writes the trace.
fn report_trace(name: &str, seed: u64, tr: &Tracer) -> Result<(), String> {
    let expected = expected_dominant(name);
    if let Some((layer, share)) = report::dominant_layer(tr) {
        let verdict = if expected.contains(&layer) {
            "as expected"
        } else {
            "NOT the expected layer"
        };
        println!(
            "dominant layer: {} ({:.1}% of traced iteration time), {verdict}",
            layer.name(),
            share * 100.0
        );
    }
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-seed{seed}.trace.json"));
    std::fs::write(&path, dcp_obs::to_chrome_trace(&tr.to_events()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} ({} spans)", path.display(), tr.spans().len());
    Ok(())
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut map = Map::new();
    for m in metrics {
        // JSON has no NaN or infinity; such a value fails the run's checks
        // and is written as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        map.insert(m.name.clone(), json!({"value": value, "unit": m.unit}));
    }
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(map),
    });
    serde_json::to_string(&line).expect("a JSON value serializes")
}

fn rayon_threads() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var(THREADS_VAR).unwrap_or_default();
    format!("{threads} worker thread(s) on {cores} core(s)")
}

/// Runs every workload untraced and traced, each in a child process.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for name in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("{name}: {e}"))?;
            if !status.success() {
                failed.push(format!("{name} --trace {trace}: {status}"));
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    if std::env::var_os(THREADS_VAR).is_none() {
        // Set before any parallel call, so every rayon pool sees it.
        std::env::set_var(THREADS_VAR, "1");
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args, start)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload plan_sparse --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
        let a = args("--workload all").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload plan_sparse --trace 2",
            "--workload plan_sparse --seed -1",
            "--workload plan_sparse --seconds",
            "--workload plan_sparse --frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
