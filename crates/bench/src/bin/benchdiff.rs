//! CI perf-regression gate: compares a fresh `BENCH_engine.json` against a
//! committed baseline and exits non-zero when any bench slowed beyond the
//! tolerance, changed its `ops` or `sim_elapsed_ns` (sim drift), or
//! disappeared.
//!
//! Usage: `benchdiff <baseline.json> <current.json> [--tolerance F] [--serve]`
//! where `F` is the allowed relative slowdown (default 0.20 = ±20%, or
//! ±10% under `--serve`). `--serve` switches the parser to the
//! `BENCH_serve.json` schema and gates its knee/throughput lines.
//!
//! Exit codes: 0 pass (and `--help`), 1 regression/sim drift/missing bench,
//! 2 usage or read error.

use gpm_bench::benchdiff::{diff, diff_serve, DEFAULT_SERVE_TOLERANCE, DEFAULT_TOLERANCE};
use gpm_bench::cli::Cli;

const USAGE: &str =
    "usage: benchdiff <baseline.json> <current.json> [--tolerance F] [--serve] [--help]";

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance: Option<f64> = None;
    let mut serve = false;
    let mut cli = Cli::new("benchdiff", USAGE);
    while let Some(a) = cli.next_flag() {
        match a.as_str() {
            "--tolerance" => {
                let t: f64 = cli.parsed(&a, "a number in (0, 1)");
                if !(t > 0.0 && t < 1.0) {
                    cli.fail("--tolerance needs a number in (0, 1)");
                }
                tolerance = Some(t);
            }
            "--serve" => serve = true,
            other if other.starts_with("--") => cli.fail(&format!("unknown flag {other:?}")),
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        cli.fail("needs a baseline and a current file");
    }
    let tolerance = tolerance.unwrap_or(if serve {
        DEFAULT_SERVE_TOLERANCE
    } else {
        DEFAULT_TOLERANCE
    });
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("benchdiff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(&paths[0]);
    let current = read(&paths[1]);
    let result = if serve {
        diff_serve(&baseline, &current, tolerance)
    } else {
        diff(&baseline, &current, tolerance)
    };
    match result {
        Ok(report) => {
            print!("{}", report.render(tolerance));
            if !report.passed() {
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("benchdiff: {msg}");
            std::process::exit(2);
        }
    }
}
