//! Perf-regression comparison over `BENCH_engine.json` files.
//!
//! The enginebench schema (`gpm-enginebench-v2`) writes one bench object
//! per line, so this module gets away with a line-oriented scanner instead
//! of a JSON parser — keeping the gate dependency-free. A bench line looks
//! like:
//!
//! ```text
//!     {"name": "coalesced_store_1m", ..., "ops_per_sec": 12345678.9, ...}
//! ```
//!
//! [`diff`] compares a current run against a committed baseline and flags
//! every bench whose `ops_per_sec` fell below `baseline * (1 - tolerance)`,
//! plus benches that vanished outright. It also flags *sim drift*: a bench
//! whose `ops` or `sim_elapsed_ns` differs from the baseline at all. Those
//! fields are deterministic, so a host-only change that moves them has
//! changed simulated behaviour; refreshing the baseline is the explicit,
//! reviewed way to accept that. Wall-clock throughput is noisy, so
//! the CI gate runs enginebench twice (warm-up, then measure) and uses a
//! generous default tolerance; see `.github/workflows/ci.yml`.

use std::fmt::Write as _;

/// Default relative slowdown tolerated before the gate fails (±20%).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Default tolerance for the `--serve` gate (±10%). Serve numbers are
/// sim-domain and seed-deterministic, so they carry none of enginebench's
/// wall-clock noise; the band only absorbs intentional capacity drift
/// small enough not to warrant a fresh committed baseline.
pub const DEFAULT_SERVE_TOLERANCE: f64 = 0.10;

/// One bench extracted from a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLine {
    /// The bench's `"name"` field.
    pub name: String,
    /// The bench's `"ops_per_sec"` field (wall-clock throughput).
    pub ops_per_sec: f64,
    /// The `"ops"` and `"sim_elapsed_ns"` fields of an enginebench line
    /// (`None` for serve lines, which carry neither).
    pub sim: Option<(f64, f64)>,
    /// The raw JSON line, for offender reports.
    pub raw: String,
}

/// A bench that fell outside the tolerance band.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Bench name.
    pub name: String,
    /// Baseline throughput (ops/s).
    pub baseline: f64,
    /// Current throughput (ops/s).
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Raw baseline JSON line.
    pub baseline_line: String,
    /// Raw current JSON line.
    pub current_line: String,
}

/// Outcome of one baseline/current comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Benches present in both files and compared.
    pub compared: usize,
    /// Benches slower than the tolerance allows.
    pub regressions: Vec<Regression>,
    /// Benches in the baseline but absent from the current run.
    pub missing: Vec<String>,
    /// Benches in the current run but absent from the baseline (allowed;
    /// reported for visibility).
    pub added: Vec<String>,
    /// Benches whose `ops` or `sim_elapsed_ns` differ from the baseline:
    /// `(name, baseline line, current line)`.
    pub drifted: Vec<(String, String, String)>,
}

impl DiffReport {
    /// True when no bench regressed, drifted in simulated terms, or
    /// disappeared.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.drifted.is_empty()
    }

    /// Human-readable summary, one line per compared bench, offenders
    /// flagged. This is exactly what the `benchdiff` binary prints.
    #[must_use]
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "benchdiff: {} compared, {} regressed, {} sim-drifted, {} missing, {} added (tolerance {:.0}%)",
            self.compared,
            self.regressions.len(),
            self.drifted.len(),
            self.missing.len(),
            self.added.len(),
            tolerance * 100.0
        );
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION {}: {:.0} -> {:.0} ops/s ({:.1}% of baseline)",
                r.name,
                r.baseline,
                r.current,
                r.ratio * 100.0
            );
            let _ = writeln!(out, "  baseline: {}", r.baseline_line.trim());
            let _ = writeln!(out, "  current:  {}", r.current_line.trim());
        }
        for (name, base, cur) in &self.drifted {
            let _ = writeln!(out, "SIM DRIFT {name}: ops or sim_elapsed_ns changed");
            let _ = writeln!(out, "  baseline: {}", base.trim());
            let _ = writeln!(out, "  current:  {}", cur.trim());
        }
        for name in &self.missing {
            let _ = writeln!(out, "MISSING {name}: in baseline but not in current run");
        }
        for name in &self.added {
            let _ = writeln!(out, "added {name}: not in baseline (ignored)");
        }
        out
    }
}

/// Extracts the value of a `"key": "string"` field from a JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the value of a `"key": number` field from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Scans an enginebench JSON document for bench lines.
///
/// Lines lacking either a `name` or an `ops_per_sec` field are skipped, so
/// headers, schema fields and footers fall through harmlessly.
#[must_use]
pub fn parse_benches(json: &str) -> Vec<BenchLine> {
    json.lines()
        .filter_map(|line| {
            let name = str_field(line, "name")?;
            let ops_per_sec = num_field(line, "ops_per_sec")?;
            let sim = num_field(line, "ops").zip(num_field(line, "sim_elapsed_ns"));
            Some(BenchLine {
                name,
                ops_per_sec,
                sim,
                raw: line.to_string(),
            })
        })
        .collect()
}

/// Scans a `BENCH_serve.json` (schema `gpm-serve-v2`) document for its
/// capacity-bearing lines and synthesizes stable bench names for them:
///
/// - sweep points → `ops/shards{N}/{policy}/load{L}` over `throughput_mops`
/// - shape points → `ops/shards{N}/{shape}/load{L}` over `throughput_mops`
/// - the gpDB leg → `ops/db_insert` over `throughput_mops`
/// - knees        → `knee/shards{N}/{policy}` over `knee_load_mops`
///
/// A `null` knee is skipped on parse, so a knee that was measured in the
/// baseline but vanished in the current run surfaces as a missing bench
/// (which fails the gate). Latency/shed fields are deliberately not gated
/// here — the scenario sections own those via the byte-identity CI check.
#[must_use]
pub fn parse_serve_benches(json: &str) -> Vec<BenchLine> {
    let mut out = Vec::new();
    for line in json.lines() {
        if let Some(knee) = num_field(line, "knee_load_mops") {
            let (Some(shards), Some(policy)) =
                (num_field(line, "shards"), str_field(line, "policy"))
            else {
                continue;
            };
            out.push(BenchLine {
                name: format!("knee/shards{shards}/{policy}"),
                ops_per_sec: knee,
                sim: None,
                raw: line.to_string(),
            });
            continue;
        }
        let Some(tput) = num_field(line, "throughput_mops") else {
            continue;
        };
        let name = match (num_field(line, "shards"), num_field(line, "load_mops")) {
            (Some(shards), Some(load)) => {
                let Some(tag) = str_field(line, "policy").or_else(|| str_field(line, "shape"))
                else {
                    continue;
                };
                format!("ops/shards{shards}/{tag}/load{load:.3}")
            }
            _ => "ops/db_insert".to_string(),
        };
        out.push(BenchLine {
            name,
            ops_per_sec: tput,
            sim: None,
            raw: line.to_string(),
        });
    }
    out
}

/// Compares two enginebench JSON documents.
///
/// A bench regresses when `current < baseline * (1 - tolerance)`.
/// Improvements never fail the gate (a faster engine is not a bug); the
/// baseline is refreshed by committing a new `BENCH_engine.json`.
///
/// # Errors
///
/// Returns a message when either document contains no bench lines at all —
/// an empty comparison would vacuously pass and hide a broken harness.
pub fn diff(baseline: &str, current: &str, tolerance: f64) -> Result<DiffReport, String> {
    diff_lines(parse_benches(baseline), parse_benches(current), tolerance)
}

/// Compares two `BENCH_serve.json` documents over their knee and
/// throughput lines (see [`parse_serve_benches`]).
///
/// # Errors
///
/// Returns a message when either document yields no serve bench lines.
pub fn diff_serve(baseline: &str, current: &str, tolerance: f64) -> Result<DiffReport, String> {
    diff_lines(
        parse_serve_benches(baseline),
        parse_serve_benches(current),
        tolerance,
    )
}

fn diff_lines(
    base: Vec<BenchLine>,
    cur: Vec<BenchLine>,
    tolerance: f64,
) -> Result<DiffReport, String> {
    if base.is_empty() {
        return Err("baseline contains no bench lines".to_string());
    }
    if cur.is_empty() {
        return Err("current run contains no bench lines".to_string());
    }
    let mut report = DiffReport::default();
    for b in &base {
        match cur.iter().find(|c| c.name == b.name) {
            None => report.missing.push(b.name.clone()),
            Some(c) => {
                report.compared += 1;
                if matches!((b.sim, c.sim), (Some(bs), Some(cs)) if bs != cs) {
                    report
                        .drifted
                        .push((b.name.clone(), b.raw.clone(), c.raw.clone()));
                }
                if c.ops_per_sec < b.ops_per_sec * (1.0 - tolerance) {
                    report.regressions.push(Regression {
                        name: b.name.clone(),
                        baseline: b.ops_per_sec,
                        current: c.ops_per_sec,
                        ratio: if b.ops_per_sec > 0.0 {
                            c.ops_per_sec / b.ops_per_sec
                        } else {
                            0.0
                        },
                        baseline_line: b.raw.clone(),
                        current_line: c.raw.clone(),
                    });
                }
            }
        }
    }
    for c in &cur {
        if !base.iter().any(|b| b.name == c.name) {
            report.added.push(c.name.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(benches: &[(&str, f64)]) -> String {
        let mut out = String::from(
            "{\n  \"schema\": \"gpm-enginebench-v2\",\n  \"engine_threads\": 4,\n  \"benches\": [\n",
        );
        for (i, (name, ops)) in benches.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"threads\": 64, \"ops\": 100, \"reps\": 3, \
                 \"best_wall_s\": 0.1, \"ops_per_sec\": {ops:.1}, \"sim_elapsed_ns\": 5.0}}{}",
                if i + 1 < benches.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    #[test]
    fn parses_real_shape() {
        let benches = parse_benches(&doc(&[("a", 1000.0), ("b", 2000.0)]));
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].name, "a");
        assert!((benches[1].ops_per_sec - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn identical_runs_pass() {
        let d = doc(&[("a", 1000.0)]);
        let report = diff(&d, &d, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn two_x_slowdown_fails_and_names_the_offender() {
        let base = doc(&[("a", 1000.0), ("b", 1000.0)]);
        let cur = doc(&[("a", 1000.0), ("b", 500.0)]);
        let report = diff(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].name, "b");
        let rendered = report.render(DEFAULT_TOLERANCE);
        assert!(rendered.contains("REGRESSION b"));
        assert!(rendered.contains("\"ops_per_sec\": 500.0"));
    }

    #[test]
    fn slowdown_inside_tolerance_passes() {
        let base = doc(&[("a", 1000.0)]);
        let cur = doc(&[("a", 850.0)]);
        assert!(diff(&base, &cur, DEFAULT_TOLERANCE).unwrap().passed());
    }

    #[test]
    fn improvement_passes() {
        let base = doc(&[("a", 1000.0)]);
        let cur = doc(&[("a", 5000.0)]);
        assert!(diff(&base, &cur, DEFAULT_TOLERANCE).unwrap().passed());
    }

    #[test]
    fn missing_bench_fails() {
        let base = doc(&[("a", 1000.0), ("b", 1000.0)]);
        let cur = doc(&[("a", 1000.0)]);
        let report = diff(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["b".to_string()]);
    }

    #[test]
    fn added_bench_is_tolerated() {
        let base = doc(&[("a", 1000.0)]);
        let cur = doc(&[("a", 1000.0), ("new", 1.0)]);
        let report = diff(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed());
        assert_eq!(report.added, vec!["new".to_string()]);
    }

    #[test]
    fn sim_drift_fails_even_when_faster() {
        let base = doc(&[("a", 1000.0), ("b", 1000.0)]);
        let cur = base
            .replace("\"ops\": 100,", "\"ops\": 101,")
            .replacen("\"ops\": 101,", "\"ops\": 100,", 1)
            .replace("\"ops_per_sec\": 1000.0", "\"ops_per_sec\": 9000.0");
        let report = diff(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed(), "an ops change must fail the gate");
        assert!(report.regressions.is_empty());
        assert_eq!(report.drifted.len(), 1);
        assert_eq!(report.drifted[0].0, "b");
        assert!(report.render(DEFAULT_TOLERANCE).contains("SIM DRIFT b"));

        let cur = base.replace("\"sim_elapsed_ns\": 5.0", "\"sim_elapsed_ns\": 5.001");
        let report = diff(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(
            !report.passed(),
            "a sim_elapsed_ns change must fail the gate"
        );
        assert_eq!(report.drifted.len(), 2);
    }

    #[test]
    fn empty_documents_error() {
        let d = doc(&[("a", 1000.0)]);
        assert!(diff("{}", &d, DEFAULT_TOLERANCE).is_err());
        assert!(diff(&d, "{}", DEFAULT_TOLERANCE).is_err());
    }

    /// A minimal serve document in the real `gpm-serve-v2` line shapes.
    fn serve_doc(point_tput: f64, knee: &str) -> String {
        format!(
            "{{\n  \"schema\": \"gpm-serve-v2\",\n  \"points\": [\n    \
             {{\"shards\": 1, \"policy\": \"b256-l100\", \"load_mops\": 0.500, \
             \"shed_rate\": 0.000000, \"throughput_mops\": {point_tput:.4}, \
             \"p99_us\": 120.000}}\n  ],\n  \"shapes\": [\n    \
             {{\"shards\": 2, \"shape\": \"bursty\", \"load_mops\": 1.500, \
             \"throughput_mops\": 1.4000}}\n  ],\n  \
             \"db_insert\": {{\"completed\": 10, \"shed\": 0, \"p99_us\": 50.000, \
             \"throughput_mops\": 0.9000}},\n  \"knees\": [\n    \
             {{\"shards\": 1, \"policy\": \"b256-l100\", \"knee_load_mops\": {knee}, \
             \"first_overload_mops\": 4.500}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn serve_parser_names_points_shapes_db_and_knees() {
        let names: Vec<String> = parse_serve_benches(&serve_doc(0.5, "3.000"))
            .into_iter()
            .map(|b| b.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "ops/shards1/b256-l100/load0.500",
                "ops/shards2/bursty/load1.500",
                "ops/db_insert",
                "knee/shards1/b256-l100",
            ]
        );
    }

    #[test]
    fn serve_knee_regression_fails() {
        let base = serve_doc(0.5, "3.000");
        let cur = serve_doc(0.5, "2.000");
        let report = diff_serve(&base, &cur, DEFAULT_SERVE_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].name, "knee/shards1/b256-l100");
    }

    #[test]
    fn serve_null_knee_in_current_is_a_missing_bench() {
        let base = serve_doc(0.5, "3.000");
        let cur = serve_doc(0.5, "null");
        let report = diff_serve(&base, &cur, DEFAULT_SERVE_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["knee/shards1/b256-l100".to_string()]);
    }

    #[test]
    fn serve_identical_runs_pass() {
        let d = serve_doc(0.5, "3.000");
        let report = diff_serve(&d, &d, DEFAULT_SERVE_TOLERANCE).unwrap();
        assert!(report.passed());
        assert_eq!(report.compared, 4);
    }
}
