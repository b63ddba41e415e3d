//! Command line: `perfbench --workload <name> --seed <n> --seconds <n>
//! --trace <0|1> [--inject-slowdown <seam>=<share>]`.
//!
//! Prints a fingerprint line and, as the last line of standard output,
//! the result JSON. Exits 2 on bad arguments.

use perfbench::trace::Injection;
use perfbench::workloads::{run, Mode, Params, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seams a slowdown can be injected at.
const SEAMS: [&str; 11] = [
    "device.put",
    "device.get",
    "device.update",
    "device.migrate",
    "device.delete",
    "device.maintain",
    "device.advance",
    "classify.predict",
    "ftl.put",
    "ftl.get",
    "ftl.evict",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    inject: Option<Injection>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let parsed: u32 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&parsed) {
                    return Err(format!("seconds {parsed} outside 1..=600"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--inject-slowdown" => inject = Some(parse_injection(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        inject,
    })
}

fn parse_injection(value: &str) -> Result<Injection, String> {
    let (seam, share) = value
        .split_once('=')
        .ok_or_else(|| format!("--inject-slowdown takes <seam>=<share>, not {value}"))?;
    let seam = SEAMS
        .into_iter()
        .find(|known| *known == seam)
        .ok_or_else(|| format!("unknown seam {seam}; one of {}", SEAMS.join(", ")))?;
    let share: f64 = share.parse().map_err(|_| format!("bad share {share}"))?;
    if !(0.0..0.9).contains(&share) {
        return Err(format!("share {share} outside [0, 0.9)"));
    }
    Ok(Injection { seam, share })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mode = match (args.trace, args.inject) {
        (true, Some(_)) => {
            eprintln!("perfbench: --inject-slowdown measures untraced runs; drop --trace 1");
            return ExitCode::from(2);
        }
        (false, Some(injection)) => Mode::Injected(injection),
        (true, None) => Mode::Traced,
        (false, None) => Mode::Untraced,
    };
    let name = args.workload.name();
    let mut params = Params::bench(args.seed, args.seconds);
    if args.trace {
        params.trace_out = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{name}.tsv")),
        );
    }
    let outcome = run(args.workload, &params, mode);
    for problem in &outcome.problems {
        eprintln!("perfbench: {name}: CHECK FAILED: {problem}");
    }
    println!(
        "fingerprint {name} seed={} seconds={} {}",
        args.seed,
        args.seconds,
        outcome.fingerprint.hex()
    );
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
