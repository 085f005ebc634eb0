//! Command line: `lopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints notes (host, tail latency, host noise, per-layer self time) and
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::process::ExitCode;

use lopbench::run::{run, Config};
use lopbench::workloads::Scale;

/// The default workload seed; `README.md` names a second one kept for
/// confirming later claims.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
        span_dir: Some(".bench_out".into()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cfg| run(&cfg));
    match outcome {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lopbench: {e}");
            eprintln!("usage: lopbench --workload <dnc|graph-wide|deep|serve> --seed <n> --seconds <s> --trace <0|1>");
            ExitCode::from(2)
        }
    }
}
