//! The benchmark binary; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <warm_sample|serve_mix> --seed N
//!           --seconds S --trace <0|1> [--out DIR]
//!           [--rustc VERSION] [--commit HASH]
//! ```
//!
//! Prints a human-readable report, a `report` JSON line (every figure with
//! its unit, the host and build stamp, the thread counts that ran) and, as
//! the last line, the result object.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{result_json, run, trace, Config, Workload};

struct Args {
    config: Config,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut rustc = "unknown".to_owned();
    let mut commit = "unknown".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                });
            }
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            "--rustc" => rustc = value()?,
            "--commit" => commit = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        config: Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny: false,
            out_dir,
            tamper: false,
        },
        rustc,
        commit,
    })
}

fn json_string(s: &str) -> String {
    let printable: String = s.chars().filter(|c| !c.is_control()).collect();
    format!(
        "\"{}\"",
        printable.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let config = &args.config;
    let report = run(config);

    let mode = if config.trace { "traced" } else { "untraced" };
    println!(
        "workload {} seed {} ({mode})",
        config.workload.name(),
        config.seed
    );
    for m in report.metrics.iter().chain(&report.details) {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (role, n) in &report.threads {
        println!("  threads.{role:<28} {n:>16}");
    }
    for failure in report.failures.iter().take(10) {
        println!("  FAILED: {failure}");
    }

    if config.trace {
        if let Err(e) = trace::validate(&report.spans) {
            eprintln!("perfbench: malformed span tree: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(dir) = &config.out_dir {
            let path = dir.join(format!(
                "trace-{}-{}.jsonl",
                config.workload.name(),
                config.seed
            ));
            match trace::write_jsonl(&path, &report.spans) {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
        }
    }

    let figures: Vec<String> = report
        .metrics
        .iter()
        .chain(&report.details)
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
                json_string(&m.name),
                perfbench::json_number(m.value),
                m.unit
            )
        })
        .collect();
    let threads: Vec<String> = report
        .threads
        .iter()
        .map(|(role, n)| format!("\"{role}\": {n}"))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"threads\": {{{}}}, \"figures\": {{{}}}}}}}",
        config.workload.name(),
        config.seed,
        config.trace,
        std::thread::available_parallelism().map_or(1, usize::from),
        json_string(&cpu_model()),
        json_string(&args.rustc),
        json_string(&args.commit),
        threads.join(", "),
        figures.join(", ")
    );
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
