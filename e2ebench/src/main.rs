//! `e2ebench`: one command for the GPM end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <kvs_serve|mixed_serve|crash_campaign> --seed <n> \
//!          --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit and host/sim tag, then one JSON
//! result line. Exits 1 without a result when a correctness check fails,
//! and 2 with usage text on bad arguments or when `GPM_ENGINE_THREADS` or
//! `GPM_PERSISTENCY` is set (the benchmark runs the program's defaults and
//! selects persistency per workload itself).

use std::process::ExitCode;

use gpm_e2ebench::report::result_json;
use gpm_e2ebench::{trace_json, Size, Workload};

/// Directory the traced run writes its span/attribution file into.
const TRACE_DIR: &str = ".bench_trace";

const USAGE: &str = "usage: e2ebench --workload <kvs_serve|mixed_serve|crash_campaign> \
--seed <n> --seconds <n> --trace <0|1>

Runs one workload of the GPM end-to-end benchmark and prints its metrics;
the last line is a JSON object {correct, attempted, failed, metrics}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
writes spans and simulated-time attribution under .bench_trace/.
GPM_ENGINE_THREADS and GPM_PERSISTENCY must be unset.";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                seconds = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&s| (1..=600).contains(&s))
                        .ok_or(format!("bad --seconds {v:?} (1..=600)"))?,
                );
            }
            "--trace" => {
                let v = value("0 or 1")?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v:?} (0 or 1)")),
                });
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn usage_error(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("e2ebench: {msg}");
    }
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    for var in ["GPM_ENGINE_THREADS", "GPM_PERSISTENCY"] {
        if std::env::var_os(var).is_some() {
            return usage_error(&format!(
                "{var} is set; unset it (the benchmark runs the program's defaults)"
            ));
        }
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => return usage_error(&msg),
    };
    // Strict is the default every workload that does not pin a model runs
    // (the campaign oracles judge the strict contract).
    gpm_gpu::pin_default_persistency(gpm_gpu::PersistencyModel::Strict);
    let threads = gpm_gpu::resolved_engine_threads(&gpm_gpu::LaunchConfig::new(1, 1));
    println!(
        "e2ebench: workload={} seed={} seconds={} trace={} engine_threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = match args
        .workload
        .run(Size::Paper, args.seed, args.seconds as f64, args.trace)
    {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("e2ebench: correctness check failed: {msg}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = format!(
            "{TRACE_DIR}/{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| {
            std::fs::write(&path, trace_json(args.workload, args.seed, threads, &out))
        });
        match written {
            Ok(()) => println!("trace: {path} ({} spans)", out.spans.len()),
            Err(e) => {
                eprintln!("e2ebench: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for m in &out.metrics.0 {
        println!(
            "  {:<40} {:>18.6} {:<6} [{}]",
            m.name,
            m.value,
            m.unit,
            m.source.tag()
        );
    }
    println!("{}", result_json(out.attempted, &out.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command() {
        let a = args("--workload crash_campaign --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::CrashCampaign);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload kvs_serve --seed x --seconds 1 --trace 0",
            "--workload kvs_serve --seed 1 --seconds 0 --trace 0",
            "--workload kvs_serve --seed 1 --seconds 1 --trace 2",
            "--workload kvs_serve --seed 1 --seconds 1",
            "--workload kvs_serve --seed 1 --seconds 1 --trace 0 --extra",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
