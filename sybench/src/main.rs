//! `sybench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, or the per-layer metrics traced (which also writes
//! the Chrome trace to `sybench/out/`).

use std::path::PathBuf;
use std::process::ExitCode;

use sybench::metrics::{per_layer, END_TO_END, LATENCY};
use sybench::report::{result_line, Metrics};
use sybench::serve;
use sybench::solve::{self, Solve};

const WORKLOADS: [&str; 3] = ["solve-road", "solve-scalefree", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sybench: {e}");
            return ExitCode::from(2);
        }
    };
    let (ops, measured, tracer) = match args.workload.as_str() {
        "solve-road" => solve::run(Solve::Road, args.seed, args.seconds, args.trace),
        "solve-scalefree" => solve::run(Solve::Scalefree, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let mut out = Metrics::default();
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("sybench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace: {} spans in {}", tracer.span_count(), path.display());
        for (name, unit) in per_layer() {
            let value = match name.as_str() {
                "trace.spans" => tracer.span_count() as f64,
                _ => measured.get(&name).unwrap_or(0.0),
            };
            out.set(name, value, unit);
        }
    } else {
        for (name, unit) in END_TO_END.iter().chain(&LATENCY) {
            let value = measured
                .get(name)
                .expect("every workload measures every end-to-end metric");
            println!("{name:<36} {value:>14.6} {unit}");
        }
        for (name, unit) in END_TO_END {
            out.set(name, measured.get(name).unwrap_or(f64::NAN), unit);
        }
    }
    if args.trace {
        for (name, value, unit) in out.iter() {
            println!("{name:<36} {value:>14.6} {unit}");
        }
    }
    println!("{}", result_line(ops, &out));
    ExitCode::SUCCESS
}
