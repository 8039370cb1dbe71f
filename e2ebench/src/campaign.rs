//! The `crash_campaign` workload: every oracle of
//! `oracle_suite(Scale::Quick)` judged back to back at seeded crash points
//! under the all/none/gray/random pending-line policies, plus the
//! double-recovery leg where an oracle supports it.
//!
//! A *pass* records every oracle's crash schedule and enumerates its cases
//! (set-up), then judges every case on a fresh `Machine` through
//! `run_campaign`. Passes repeat until the window's seconds are spent; the
//! first pass's simulated results are the sim metrics and every later pass
//! must reproduce them bit for bit.

use std::time::Instant;

use gpm_sim::{
    enumerate_cases, run_campaign, CampaignCase, CampaignConfig, CrashSchedule, Machine,
    OracleVerdict, Stats, Xoshiro256StarStar,
};
use gpm_workloads::oracle::oracle_names;
use gpm_workloads::{oracle_suite, RecoveryOracle, Scale};

use crate::report::{median, peak_rss_mb, quantile, quantile_hd, ratio, Metrics};
use crate::sink::{self, SimTrace};
use crate::spans::{self, Spans};
use crate::{Outcome, Size};

const RECORD: &str = "workloads.oracle.record";
const ENUMERATE: &str = "sim.campaign.enumerate";
const MACHINE_NEW: &str = "sim.machine_new";
const CASE: &str = "workloads.oracle.case";
const PASS: &str = "pass";

/// The campaign's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Crash points drawn per oracle (one from each of this many equal
    /// slices of its recorded op range).
    pub points_per_oracle: usize,
    /// How many oracles of the suite run (all of them at paper size).
    pub oracles: usize,
}

impl CampaignSpec {
    /// `crash_campaign` at `size`.
    pub fn new(size: Size) -> CampaignSpec {
        match size {
            Size::Paper => CampaignSpec {
                points_per_oracle: 4,
                oracles: usize::MAX,
            },
            Size::Tiny => CampaignSpec {
                points_per_oracle: 1,
                oracles: 3,
            },
        }
    }
}

/// A metric-name-safe form of an oracle name: `gpDB (I)` → `gpdb_i`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Draws one crash point uniformly from each of `k` equal slices of the
/// recorded run's op range, as a schedule `enumerate_cases` expands. Any
/// op count is a valid crash point (the paper's fault injection samples
/// them at random); seeding them makes every seed judge different crashes.
fn seeded_points(sched: &CrashSchedule, k: usize, rng: &mut Xoshiro256StarStar) -> CrashSchedule {
    let total = sched.total_ops();
    let k = k as u64;
    let mut out = CrashSchedule::new();
    let mut ops = 0u64;
    for j in 0..k {
        let (lo, hi) = (j * total / k, (j + 1) * total / k);
        let point = lo + rng.gen_range_u64((hi - lo).max(1));
        while ops < point {
            out.count_op();
            ops += 1;
        }
        out.note_boundary();
    }
    out
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
struct Pass {
    setup_s: f64,
    cases_s: f64,
    cases: u64,
    /// Final simulated clock of every case, in ns.
    case_ns: Vec<f64>,
    /// Machine counters summed over every case.
    stats: Stats,
    /// Fueled ops and simulated ns of the recorded clean runs.
    record_ops: u64,
    record_ns: f64,
    /// Host seconds judging each oracle's cases, in suite order.
    oracle_s: Vec<(String, f64)>,
    sim: Option<SimTrace>,
}

impl Pass {
    fn fingerprint(&self) -> ((u64, Vec<u64>, u64), Stats) {
        (
            (
                self.cases,
                self.case_ns.iter().map(|t| t.to_bits()).collect(),
                self.record_ops,
            ),
            self.stats,
        )
    }
}

/// One oracle's recorded schedule and cases.
struct Planned {
    oracle: Box<dyn RecoveryOracle>,
    cases: Vec<CampaignCase>,
}

fn pass(
    spec: &CampaignSpec,
    seed: u64,
    spans: &Spans,
    id: u64,
    traced_sim: bool,
) -> Result<Pass, String> {
    let root = spans.enter(PASS, id);
    let mut out = Pass::default();
    let t0 = Instant::now();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let cfg = CampaignConfig {
        max_crash_points: None,
        gray_steps: 1,
        random_subsets: 1,
        seed: seed ^ 0xC4A5,
    };
    let mut planned = Vec::new();
    for (i, mut oracle) in oracle_suite(Scale::Quick)
        .into_iter()
        .take(spec.oracles)
        .enumerate()
    {
        let mut m = Machine::default();
        let sched = spans
            .time(RECORD, i as u64, || oracle.record(&mut m))
            .map_err(|e| format!("{}: record failed: {e:?}", oracle.name()))?;
        out.record_ops += sched.total_ops();
        out.record_ns += m.clock.now().0;
        let cases = spans.time(ENUMERATE, i as u64, || {
            enumerate_cases(
                &seeded_points(&sched, spec.points_per_oracle, &mut rng),
                &cfg,
            )
        });
        planned.push(Planned { oracle, cases });
    }
    out.setup_s = t0.elapsed().as_secs_f64();

    let mut sim = traced_sim.then(SimTrace::default);
    let t1 = Instant::now();
    let mut case_id = 0u64;
    for Planned { mut oracle, cases } in planned {
        let name = oracle.name();
        let t = Instant::now();
        let legs: &[bool] = if oracle.supports_double_recovery() {
            &[false, true]
        } else {
            &[false]
        };
        for &double in legs {
            let stats = run_campaign(&cases, |case| {
                let mut m = spans.time(MACHINE_NEW, case_id, Machine::default);
                let counters = traced_sim.then(|| sink::install(&mut m));
                let v = spans.time(CASE, case_id, || {
                    if double {
                        oracle.run_case_double_recovery(&mut m, case.fuel, case.policy)
                    } else {
                        oracle.run_case(&mut m, case.fuel, case.policy)
                    }
                });
                case_id += 1;
                out.case_ns.push(m.clock.now().0);
                out.stats = out.stats.merged(&m.stats);
                if let (Some(sim), Some(c)) = (sim.as_mut(), counters) {
                    sim.add(m.finish_trace(), &c);
                }
                v.unwrap_or_else(|e| OracleVerdict::Fail(format!("platform error: {e:?}")))
            });
            out.cases += stats.cases as u64;
            if let Some(f) = stats.failures.first() {
                return Err(format!(
                    "{name}{}: fuel={} policy={} failed: {:?} ({} of {} cases failed)",
                    if double { " (double recovery)" } else { "" },
                    f.case.fuel,
                    f.case.policy,
                    f.verdict,
                    stats.failures.len(),
                    stats.cases
                ));
            }
        }
        out.oracle_s
            .push((sanitize(name), t.elapsed().as_secs_f64()));
    }
    out.cases_s = t1.elapsed().as_secs_f64();
    out.sim = sim;
    spans.exit(root);
    Ok(out)
}

/// Per-layer host numbers of one span-traced pass.
#[derive(Debug, Clone, Default)]
struct LayerSample {
    record_s: f64,
    enumerate_s: f64,
    machine_new_s: f64,
    cases_s: f64,
    oracle_s: Vec<(String, f64)>,
    case_us: Vec<f64>,
}

/// Cases judged per second of a pass, robust to bursts of host noise: the
/// pass time is the sum over oracles of each oracle's median time across
/// `passes` (every pass judges the same cases).
fn cases_per_s(passes: &[Vec<(String, f64)>], cases: u64) -> f64 {
    let oracles = passes.first().map_or(0, Vec::len);
    let secs: f64 = (0..oracles)
        .map(|i| median(&passes.iter().map(|p| p[i].1).collect::<Vec<_>>()))
        .sum();
    ratio(cases as f64, secs)
}

/// Runs the campaign for `seconds` of measured passes.
///
/// # Errors
///
/// Any failed verdict or platform error, as a message.
pub fn run(spec: &CampaignSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let off = Spans::new(false);
    let on = Spans::new(traced);
    let mut first: Option<Pass> = None;
    let mut untraced: Vec<Vec<(String, f64)>> = Vec::new();
    let mut traced_passes: Vec<Vec<(String, f64)>> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut layers: Vec<LayerSample> = Vec::new();
    let min_passes = if traced { 4 } else { 3 };
    let window = Instant::now();
    let mut k = 0u64;
    while k < min_passes || window.elapsed().as_secs_f64() < seconds {
        let span_pass = traced && k % 2 == 1;
        let rec = if span_pass { &on } else { &off };
        let base = rec.len();
        let p = pass(spec, seed, rec, k, false)?;
        k += 1;
        if span_pass {
            traced_passes.push(p.oracle_s.clone());
            let all = rec.since(base);
            layers.push(LayerSample {
                record_s: spans::total_secs(&all, RECORD),
                enumerate_s: spans::total_secs(&all, ENUMERATE),
                machine_new_s: spans::total_secs(&all, MACHINE_NEW),
                cases_s: p.cases_s,
                oracle_s: p.oracle_s.clone(),
                case_us: all
                    .iter()
                    .filter(|s| s.name == CASE)
                    .map(|s| s.secs() * 1e6)
                    .collect(),
            });
        } else {
            untraced.push(p.oracle_s.clone());
            setups.push(p.setup_s);
        }
        match &first {
            None => first = Some(p),
            Some(f) if f.fingerprint() != p.fingerprint() => {
                return Err("a repeated pass changed its simulated results".into())
            }
            Some(_) => {}
        }
    }
    let r = first.expect("at least one pass ran");
    let attempted = k * r.cases;

    let mut m = Metrics::default();
    if !traced {
        m.host("setup_s", median(&setups), "s");
        m.host("host_ops_per_s", cases_per_s(&untraced, r.cases), "1/s");
        m.host("peak_rss_mb", peak_rss_mb(), "MB");
        m.sim(
            "sim_max_rate_mops",
            ratio(r.record_ops as f64 * 1e3, r.record_ns),
            "Mops",
        );
        m.sim("sim_p50_us", quantile_hd(&r.case_ns, 0.50) / 1e3, "us");
        m.sim("sim_p99_us", quantile_hd(&r.case_ns, 0.99) / 1e3, "us");
        m.sim(
            "sim_pm_bytes_per_user_byte",
            ratio(
                r.stats.pm_write_bytes_total() as f64,
                r.stats.bytes_persisted as f64,
            ),
            "B/B",
        );
        m.sim("sim_elapsed_ms", r.case_ns.iter().sum::<f64>() / 1e6, "ms");
        // Every case passed, or the pass returned an error above.
        m.sim("served_frac", 1.0, "frac");
        return Ok(Outcome {
            metrics: m,
            attempted,
            spans: Vec::new(),
            sim: None,
        });
    }

    let s = pass(spec, seed, &off, k, true)?;
    if crate::sink_view(s.fingerprint()) != crate::sink_view(r.fingerprint()) {
        return Err("installing trace sinks changed the simulated results".into());
    }
    let sim = s.sim.expect("sink pass carries a trace");
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let cases_s = med(&|l| l.cases_s);
    let case_us: Vec<f64> = layers.iter().flat_map(|l| l.case_us.clone()).collect();
    let base_ops = cases_per_s(&untraced, r.cases);
    crate::serve_layers_absent(&mut m);
    m.host("workloads.oracle.record_s", med(&|l| l.record_s), "s");
    m.host(
        "workloads.oracle.case_p50_us",
        quantile(&case_us, 0.50),
        "us",
    );
    m.host(
        "workloads.oracle.case_p99_us",
        quantile(&case_us, 0.99),
        "us",
    );
    for name in oracle_names().into_iter().map(sanitize) {
        let secs = |l: &LayerSample| {
            l.oracle_s
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, s)| s)
        };
        m.host(format!("workloads.oracle.{name}.case_s"), med(&secs), "s");
    }
    crate::sim_layers(&mut m, &r.stats, &sim, cases_s);
    m.host("sim.machine_new_s", med(&|l| l.machine_new_s), "s");
    m.host("sim.campaign.enumerate_s", med(&|l| l.enumerate_s), "s");
    m.host(
        "trace.overhead_frac",
        ratio(base_ops, cases_per_s(&traced_passes, r.cases)) - 1.0,
        "frac",
    );
    m.host(
        "trace.sink_overhead_frac",
        ratio(base_ops, ratio(s.cases as f64, s.cases_s)) - 1.0,
        "frac",
    );
    Ok(Outcome {
        metrics: m,
        attempted: attempted + s.cases,
        spans: on.since(0),
        sim: Some(sim),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sanitize() {
        assert_eq!(sanitize("gpDB (I)"), "gpdb_i");
        assert_eq!(sanitize("gpKVS"), "gpkvs");
        assert_eq!(sanitize("HS"), "hs");
    }

    #[test]
    fn seeded_points_draw_one_per_slice() {
        let mut s = CrashSchedule::new();
        for _ in 0..200 {
            s.count_op();
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let p = seeded_points(&s, 4, &mut rng);
        assert_eq!(p.boundaries().len(), 4);
        for (j, &b) in p.boundaries().iter().enumerate() {
            assert!(b >= j as u64 * 50 && b < (j as u64 + 1) * 50, "{b}");
        }
        let mut other = Xoshiro256StarStar::seed_from_u64(8);
        assert_ne!(seeded_points(&s, 4, &mut other), p);
    }
}
