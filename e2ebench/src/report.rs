//! Metric values, their host/sim tag, small statistics helpers and the
//! one-line JSON result.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock or memory of this process: subject to host noise.
    Host,
    /// Modelled time or counters: bit-identical for a fixed seed.
    Sim,
}

impl Source {
    /// Lower-case tag printed beside each metric.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Host => "host",
            Source::Sim => "sim",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `1/s`, `count`.
    pub unit: &'static str,
    /// Host or sim.
    pub source: Source,
}

/// An ordered metric list with name-based lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a host metric.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Source::Host);
    }

    /// Appends a sim metric.
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Source::Sim);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, source: Source) {
        debug_assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The sim-tagged metrics only (the ones that must repeat exactly).
    pub fn sim_only(&self) -> Vec<(String, u64)> {
        self.0
            .iter()
            .filter(|m| m.source == Source::Sim)
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by nearest rank (the smallest sample with at
/// least `q · n` samples at or below it); 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The Harrell–Davis estimate of the `q`-quantile of `xs`: a weighted
/// mean of every order statistic, with beta-distribution weights centred on
/// rank `q·(n+1)`. Unlike a single order statistic it moves when any sample
/// near the quantile moves, so a distribution with repeated values (crash
/// cases that end on the same simulated instant) still yields a quantile
/// that tracks its inputs. 0 if empty.
pub fn quantile_hd(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cur = inc_beta(a, b, (i + 1) as f64 / n);
        sum += (cur - prev) * x;
        prev = cur;
    }
    sum
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let s: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-memory high-water mark in MB (`VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`. Only
/// a run whose every check passed prints one, so `failed` is always 0.
pub fn result_json(attempted: u64, metrics: &Metrics) -> String {
    let mut out =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit needed to round-trip it.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn harrell_davis_tracks_the_sample_quantile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile_hd(&xs, 0.5) - 500.5).abs() < 0.01);
        assert!((quantile_hd(&xs, 0.99) - 990.5).abs() < 1.0);
        // A plateau of ties still moves when a sample near the median does.
        let mut ties = vec![5.0; 51];
        ties.extend(vec![9.0; 50]);
        let base = quantile_hd(&ties, 0.5);
        ties[51] = 8.0;
        assert!(quantile_hd(&ties, 0.5) < base);
        assert_eq!(quantile_hd(&[3.0], 0.5), 3.0);
        assert!((inc_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-9);
    }

    #[test]
    fn json_has_every_metric_with_full_digits() {
        let mut m = Metrics::default();
        m.host("a_s", 0.1 + 0.2, "s");
        m.sim("b", 3.0, "count");
        let j = result_json(5, &m);
        assert!(j.contains("\"a_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}"));
        assert!(j.contains("\"b\": {\"value\": 3.0, \"unit\": \"count\"}"));
        assert_eq!(m.sim_only().len(), 1);
    }
}
