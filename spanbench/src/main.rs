//! The repository's benchmark: three workloads over the public entry points
//! of the `regex`, `automata`, `core`, `runtime` and `workloads` crates.
//!
//! ```text
//! cargo run --release --manifest-path spanbench/Cargo.toml -- \
//!     --workload <sparse-stream|tenant-stream|slp-count> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from the seed, computes each workload's
//! output oracle, sets the server up several times, measures for the given
//! number of seconds and checks every output. It prints a provenance line,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; `--trace 1` makes a separate traced run that reports the
//! per-layer metrics and writes its spans to `spanbench/out/`.
//!
//! A fourth workload, `dense-batch` (a `SpannerServer` with the eager IPv4
//! spanner over log documents), is left out: on a shared 2-vCPU virtual
//! machine its throughput and latency moved by 20–45% (quartile spread over
//! ten seeds) from one set of runs to the next, more than the benchmark's
//! bounds allow.

mod load;
mod replay;
mod rig;
mod slp;
mod sparse;
mod stats;
mod tenant;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use rig::{Ctx, Outcome};

const WORKLOADS: [&str; 3] = ["sparse-stream", "tenant-stream", "slp-count"];

fn usage() -> String {
    format!(
        "usage: spanbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx { seed: 1, seconds: 10.0, traced: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("workload")),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

/// A JSON value for an info entry: numbers stay numbers.
fn json_value(v: &str) -> String {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => v.to_string(),
        _ => format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
    }
}

fn finite(name: &str, v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        eprintln!("warning: metric {name} is not finite ({v}); reporting 0");
        0.0
    }
}

fn provenance(workload: &str, ctx: &Ctx, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), workload.to_string()),
        ("seed".to_string(), ctx.seed.to_string()),
        ("seconds".to_string(), ctx.seconds.to_string()),
        ("trace".to_string(), u8::from(ctx.traced).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".to_string(), env!("SPANBENCH_RUSTC").to_string()),
        ("git_rev".to_string(), env!("SPANBENCH_GIT_REV").to_string()),
        ("error_rate".to_string(), out.error_rate().to_string()),
        ("wrong_outputs".to_string(), out.wrong.to_string()),
    ];
    fields.extend(out.info.iter().cloned());
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{k}\": {}", json_value(v))).collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(name, *value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed + out.wrong,
        metrics.join(", ")
    )
}

fn write_trace(workload: &str, ctx: &Ctx, out: &Outcome) -> std::io::Result<()> {
    let Some(trace) = &out.trace else { return Ok(()) };
    let dir = std::path::Path::new("spanbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    trace.write(&mut file)?;
    file.flush()?;
    eprintln!(
        "wrote {} spans to {} ({} requests over the cap left out)",
        trace.spans().len(),
        path.display(),
        trace.dropped()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "sparse-stream" => sparse::run(&ctx),
        "tenant-stream" => tenant::run(&ctx),
        "slp-count" => slp::run(&ctx),
        _ => unreachable!("workload names are validated while parsing"),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_trace(&workload, &ctx, &out) {
        eprintln!("warning: cannot write the trace: {e}");
    }
    println!("{}", provenance(&workload, &ctx, &out));
    println!("{}", result_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (w, ctx) =
            parse_args(&args("--workload slp-count --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "slp-count");
        assert_eq!((ctx.seed, ctx.seconds, ctx.traced), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload slp-count --trace 2")).is_err());
        assert!(parse_args(&args("--workload slp-count --seconds 0")).is_err());
    }

    #[test]
    fn result_line_marks_a_wrong_output_as_a_failed_run() {
        let mut out = Outcome { attempted: 5, wrong: 1, ..Outcome::default() };
        out.metric("mb_per_s", 1.5, "MB/s");
        let line = result_line(&out);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 1,"),
            "{line}"
        );
        assert!(line.contains("\"mb_per_s\": {\"value\": 1.5, \"unit\": \"MB/s\"}"));
        out.wrong = 0;
        assert!(result_line(&out).starts_with("{\"correct\": true"));
    }
}
