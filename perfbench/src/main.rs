//! End-to-end, layer-attributed benchmark of the mixedp likelihood, MLE
//! and distributed paths.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--chrome-trace <file>]
//! ```
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, `metrics`, plus
//! `info` and `checks`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with telemetry off; with `--trace 1` they are the per-layer
//! ones from a traced run, whose Chrome trace goes to `--chrome-trace`.
//! `perfbench/run.py` wraps this binary; see `perfbench/NOTES.md`.

mod layers;
mod probe;
mod report;
mod rss;
mod stages;
mod workloads;

use report::Report;
use std::path::PathBuf;

struct Args {
    workload: &'static workloads::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    chrome_trace: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {key} <value>"))
    };
    let name = get("--workload")?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let chrome_trace = get("--chrome-trace")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("trace.json"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        chrome_trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let run = if args.trace {
        layers::run_traced(
            args.workload,
            args.seed,
            args.seconds,
            &args.chrome_trace,
            &mut report,
        )
    } else {
        workloads::run_e2e(args.workload, args.seed, args.seconds, &mut report)
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", args.workload.name);
        std::process::exit(1);
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
