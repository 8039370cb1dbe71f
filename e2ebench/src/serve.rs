//! The two serve workloads: `kvs_serve` (gpKVS at the paper-size table,
//! strict persistency) and `mixed_serve` (gpKVS beside gpAnalytics on each
//! shard, epoch persistency).
//!
//! One run is a sim pass followed by a measured window:
//!
//! * the **sim pass** serves the fixed ladder of offered rates once, each
//!   rung on freshly built shards, and yields `sim_max_rate_mops`;
//! * the **measured window** repeats a *trial* at the reference rate —
//!   generate the stream, route it, build the shards (set-up), then serve
//!   every shard through the unmodified `serve_engine` loop over a
//!   [`Timed`] wrapper — until the window's seconds are spent. The first
//!   trial's simulated results are the sim metrics; every later trial must
//!   reproduce them bit for bit.
//!
//! Every trial checks its outputs before any number is kept.

use std::collections::BTreeMap;
use std::time::Instant;

use gpm_serve::{
    serve_engine, ArrivalShape, BackendKind, BatchPolicy, ClusterConfig, Op, Request, Router,
    Shard, ShardReport, TrafficConfig, Verdict,
};
use gpm_sim::{Ns, PersistencyModel, Stats};
use gpm_workloads::analytics::{completions_of, pack_event, seq_matches_of, sessions_of};
use gpm_workloads::datagen::UserEvent;
use gpm_workloads::{AnalyticsParams, CohortStats, KvsParams, ServeConsistency};

use crate::report::{median, peak_rss_mb, quantile, quantile_hd, ratio, Metrics};
use crate::sink::{self, SimTrace};
use crate::spans::{self, Span, Spans};
use crate::timed::{Timed, APPLY, READ_GETS};
use crate::{Outcome, Size};

/// Span names of the serve workloads' own calls.
const GENERATE: &str = "serve.arrival.generate";
const PARTITION: &str = "serve.router.partition";
const SHARD_NEW: &str = "workloads.shard_new";
const SERVE_ENGINE: &str = "serve.serve_engine";
const TRIAL: &str = "trial";

/// Which tenants the shards hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenant {
    /// gpKVS only: 50 % GET / 50 % SET.
    Kvs,
    /// gpKVS (90 % GET) beside gpAnalytics events on every shard.
    Mixed,
}

/// One serve workload's fixed configuration.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Tenants per shard.
    pub tenant: Tenant,
    /// Shards, policy, table sizes and persistency model.
    pub cluster: ClusterConfig,
    /// Arrival shape.
    pub shape: ArrivalShape,
    /// GET share of the KVS requests, per mille.
    pub get_permille: u32,
    /// Analytics share of all requests, per mille (mixed only).
    pub event_permille: u32,
    /// Distinct keys (and analytics users).
    pub key_space: u64,
    /// Offered rates of the sim pass, cluster-wide, in Mops.
    pub ladder_mops: Vec<f64>,
    /// Requests per ladder rung.
    pub rung_requests: u64,
    /// Reference rate of the measured trials, cluster-wide, in Mops.
    pub ref_mops: f64,
    /// Requests per reference trial.
    pub ref_requests: u64,
    /// Latency objective on the simulated p99.
    pub slo: Ns,
}

/// Event types of the analytics trace.
const EVENT_TYPES: u32 = 6;

fn cluster(backend: BackendKind, kvs: KvsParams, model: PersistencyModel) -> ClusterConfig {
    ClusterConfig {
        shards: 2,
        policy: BatchPolicy {
            max_batch: 256,
            max_linger: Ns::from_micros(100.0),
            ..BatchPolicy::default()
        },
        backend,
        kvs,
        analytics: AnalyticsParams::quick(),
        persistency: Some(model),
        ..ClusterConfig::quick()
    }
}

impl ServeSpec {
    /// `kvs_serve`: Poisson arrivals, 50 % GET, two gpKVS shards at the
    /// paper-size table under strict persistency.
    pub fn kvs(size: Size) -> ServeSpec {
        let (kvs, ladder, rung, refn) = match size {
            Size::Paper => (
                KvsParams::default(),
                vec![2.0, 2.5, 3.2, 4.0],
                20_000,
                6_000,
            ),
            Size::Tiny => (KvsParams::quick(), vec![1.0, 4.0], 600, 600),
        };
        ServeSpec {
            tenant: Tenant::Kvs,
            cluster: cluster(BackendKind::Kvs, kvs, PersistencyModel::Strict),
            shape: ArrivalShape::Poisson,
            get_permille: 500,
            event_permille: 0,
            key_space: 65_536,
            ladder_mops: ladder,
            rung_requests: rung,
            ref_mops: 2.0,
            ref_requests: refn,
            slo: Ns::from_micros(500.0),
        }
    }

    /// `mixed_serve`: diurnal arrivals, 40 % analytics events, the KVS
    /// share 90 % GET, quick-size tables, epoch persistency.
    pub fn mixed(size: Size) -> ServeSpec {
        let (ladder, rung, refn) = match size {
            Size::Paper => (vec![1.0, 1.5, 1.75, 2.25], 20_000, 12_000),
            Size::Tiny => (vec![0.5, 4.0], 600, 600),
        };
        ServeSpec {
            tenant: Tenant::Mixed,
            cluster: cluster(
                BackendKind::Mixed,
                KvsParams::quick(),
                PersistencyModel::Epoch,
            ),
            shape: ArrivalShape::Diurnal {
                period: Ns::from_millis(4.0),
                amplitude: 0.8,
            },
            get_permille: 900,
            event_permille: 400,
            key_space: 16_384,
            ladder_mops: ladder,
            rung_requests: rung,
            ref_mops: 1.0,
            ref_requests: refn,
            slo: Ns::from_micros(500.0),
        }
    }

    fn traffic(&self, seed: u64, mops: f64, n: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            rate_ops_per_sec: mops * 1e6,
            n_requests: n,
            shape: self.shape,
            get_permille: self.get_permille,
            key_space: self.key_space,
            key_skew: None,
            premium_permille: 0,
        }
    }

    fn generate(&self, cfg: &TrafficConfig) -> Vec<Request> {
        match self.tenant {
            Tenant::Kvs => cfg.generate(),
            Tenant::Mixed => cfg.generate_mixed(EVENT_TYPES, self.event_permille),
        }
    }

    /// Builds one shard for `stream`, sized the way `run_cluster` sizes it.
    fn new_shard(&self, stream: &[Request]) -> Result<Shard, String> {
        let cfg = &self.cluster;
        let kvs = KvsParams {
            ops_per_batch: cfg.policy.max_batch,
            persistency: cfg.persistency.or(cfg.kvs.persistency),
            ..cfg.kvs
        };
        let shard = match self.tenant {
            Tenant::Kvs => Shard::new_kvs(kvs, cfg.mode),
            Tenant::Mixed => {
                let routed = stream
                    .iter()
                    .filter(|r| matches!(r.op, Op::Event { .. }))
                    .count() as u64;
                let an = AnalyticsParams {
                    batches: u32::try_from(routed / cfg.analytics.events_per_batch + 2)
                        .map_err(|_| "journal batch count overflows u32".to_string())?,
                    persistency: cfg.persistency.or(cfg.analytics.persistency),
                    ..cfg.analytics
                };
                Shard::new_mixed(kvs, an, cfg.mode)
            }
        };
        shard.map_err(|e| format!("shard setup failed: {e:?}"))
    }
}

/// What one trial (one stream over freshly built shards) produced.
#[derive(Debug, Clone, Default)]
struct Trial {
    /// Host seconds of generate + route + shard construction.
    setup_s: f64,
    /// Host seconds inside `serve_engine`, all shards.
    serve_s: f64,
    offered: u64,
    completed: u64,
    shed: u64,
    batches: u64,
    busy: f64,
    end: f64,
    makespan: f64,
    /// Simulated latency of each completed request, from its scheduled
    /// arrival, in ns.
    latencies: Vec<f64>,
    /// Serve-window machine counters, summed over shards.
    stats: Stats,
    /// Bytes the acknowledged writes carried (16 per SET, 8 per event).
    user_bytes: u64,
    /// Phase attribution and event counts, when a sink was installed.
    sim: Option<SimTrace>,
}

impl Trial {
    /// The simulated results that must repeat exactly between trials of
    /// one stream.
    fn fingerprint(&self) -> ((u64, u64, u64, u64, Vec<u64>), Stats) {
        (
            (
                self.completed,
                self.shed,
                self.batches,
                self.makespan.to_bits(),
                self.latencies.iter().map(|l| l.to_bits()).collect(),
            ),
            self.stats,
        )
    }
}

/// Runs one trial: set-up, serve every shard, check every output.
fn trial(
    spec: &ServeSpec,
    seed: u64,
    mops: f64,
    n: u64,
    spans: &Spans,
    id: u64,
    traced_sim: bool,
) -> Result<Trial, String> {
    let root = spans.enter(TRIAL, id);
    let t0 = Instant::now();
    let cfg = spec.traffic(seed, mops, n);
    let requests = spans.time(GENERATE, id, || spec.generate(&cfg));
    let streams = spans.time(PARTITION, id, || {
        Router::new(spec.cluster.shards).partition(&requests)
    });
    let mut shards = Vec::with_capacity(streams.len());
    for (i, stream) in streams.iter().enumerate() {
        shards.push(spans.time(SHARD_NEW, i as u64, || spec.new_shard(stream))?);
    }
    let mut out = Trial {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Trial::default()
    };
    let mut sim = traced_sim.then(SimTrace::default);
    for (i, (shard, stream)) in shards.into_iter().zip(&streams).enumerate() {
        let mut timed = Timed::new(shard, spans);
        let counters = traced_sim.then(|| sink::install(&mut timed.inner.machine));
        let t = Instant::now();
        let s = spans.enter(SERVE_ENGINE, i as u64);
        let report = serve_engine(
            &mut timed,
            stream,
            &spec.cluster.policy,
            &spec.cluster.faults,
        );
        spans.exit(s);
        out.serve_s += t.elapsed().as_secs_f64();
        let mut report = report.map_err(|e| format!("shard {i}: serve failed: {e:?}"))?;
        if let (Some(sim), Some(c)) = (sim.as_mut(), counters) {
            sim.add(report.trace.take(), &c);
        }
        out.user_bytes += check_shard(spec, i, timed.inner, stream, &report)?;
        out.offered += report.offered;
        out.completed += report.completed;
        out.shed += report.shed;
        out.batches += report.batches;
        out.busy += report.busy.0;
        out.end += report.end.0;
        out.makespan = out.makespan.max(report.end.0);
        out.stats = out.stats.merged(&report.stats);
        out.latencies.extend(
            report
                .responses
                .iter()
                .filter(|r| matches!(r.verdict, Verdict::Done(_)))
                .map(|r| r.latency.0),
        );
    }
    out.sim = sim;
    spans.exit(root);
    Ok(out)
}

/// Checks one served shard; returns the acknowledged user bytes.
fn check_shard(
    spec: &ServeSpec,
    i: usize,
    shard: Shard,
    stream: &[Request],
    report: &ShardReport,
) -> Result<u64, String> {
    if report.completed + report.shed != report.offered
        || report.offered != stream.len() as u64
        || report.responses.len() as u64 != report.offered
    {
        return Err(format!(
            "shard {i}: completed {} + shed {} != offered {} ({} requests, {} responses)",
            report.completed,
            report.shed,
            report.offered,
            stream.len(),
            report.responses.len()
        ));
    }
    // Responses of completed requests appear in commit order.
    let by_id: BTreeMap<u64, &Request> = stream.iter().map(|r| (r.id, r)).collect();
    let done = report
        .responses
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Done(_)))
        .map(|r| {
            by_id
                .get(&r.id)
                .copied()
                .ok_or_else(|| format!("shard {i}: response to unknown request {}", r.id))
        })
        .collect::<Result<Vec<&Request>, String>>()?;
    match spec.tenant {
        Tenant::Kvs => check_kvs(i, shard, &done),
        Tenant::Mixed => check_mixed(spec, i, &shard, &done),
    }
}

/// Every acknowledged SET is in the durable table with its last value.
fn check_kvs(i: usize, shard: Shard, done: &[&Request]) -> Result<u64, String> {
    let sets = shard
        .kvs_sets()
        .ok_or_else(|| format!("shard {i}: not a gpKVS shard"))?;
    let mut judge = ServeConsistency::new(sets);
    for r in done {
        if let Op::Put { key, value } = r.op {
            judge.acked_set(key, value);
        }
    }
    let (machine, workload, st) = shard.into_kvs_parts();
    let verdict = judge
        .verify(&machine, &st.shard(workload.params.sets))
        .map_err(|e| format!("shard {i}: consistency check failed: {e:?}"))?;
    if !verdict.passed() {
        return Err(format!("shard {i}: {verdict:?}"));
    }
    Ok(judge.acked_writes() * 16)
}

/// The journal holds exactly the completed events, and the session store's
/// cohort aggregates equal a host fold of each user's completed events in
/// commit order.
fn check_mixed(
    spec: &ServeSpec,
    i: usize,
    shard: &Shard,
    done: &[&Request],
) -> Result<u64, String> {
    let mut per_user: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut puts = 0u64;
    for r in done {
        match r.op {
            Op::Event { user, etype, ts } => per_user
                .entry(user)
                .or_default()
                .push(pack_event(&UserEvent { user, etype, ts })),
            Op::Put { .. } => puts += 1,
            _ => {}
        }
    }
    let events: u64 = per_user.values().map(|v| v.len() as u64).sum();
    if shard.journaled_events() != events {
        return Err(format!(
            "shard {i}: journaled {} events, completed {events}",
            shard.journaled_events()
        ));
    }
    let params = &spec.cluster.analytics;
    let mut expect = CohortStats::default();
    for packed in per_user.values() {
        let state = params.fold_packed(0, packed);
        expect.users += 1;
        expect.sessions += sessions_of(state);
        expect.retained += u64::from(sessions_of(state) >= 2);
        expect.completions += completions_of(state);
        expect.matched += u64::from(seq_matches_of(state) >= 1);
    }
    let got = shard
        .cohort_stats()
        .map_err(|e| format!("shard {i}: cohort read failed: {e:?}"))?;
    if got != Some(expect) {
        return Err(format!(
            "shard {i}: cohort stats {got:?} != host fold {expect:?}"
        ));
    }
    Ok(puts * 16 + events * 8)
}

/// Per-layer host numbers of one span-traced trial.
#[derive(Debug, Clone, Default)]
struct LayerSample {
    generate_s: f64,
    partition_s: f64,
    shard_new_s: f64,
    sched_self_s: f64,
    apply_s: f64,
    read_gets_s: f64,
    apply_us: Vec<f64>,
}

fn layer_sample(all: &[Span], base: usize) -> LayerSample {
    LayerSample {
        generate_s: spans::total_secs(all, GENERATE),
        partition_s: spans::total_secs(all, PARTITION),
        shard_new_s: spans::total_secs(all, SHARD_NEW),
        sched_self_s: spans::self_secs(all, base, SERVE_ENGINE),
        apply_s: spans::total_secs(all, APPLY),
        read_gets_s: spans::total_secs(all, READ_GETS),
        apply_us: all
            .iter()
            .filter(|s| s.name == APPLY)
            .map(|s| s.secs() * 1e6)
            .collect(),
    }
}

/// Runs a serve workload for `seconds` of measured trials.
///
/// # Errors
///
/// Any failed check or platform error, as a message.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let off = Spans::new(false);
    let on = Spans::new(traced);
    let mut id = 0u64;

    // Sim pass: the ladder.
    let mut max_rate = 0.0f64;
    let mut pass = Trial::default();
    for &mops in &spec.ladder_mops {
        let t = trial(spec, seed, mops, spec.rung_requests, &off, id, false)?;
        id += 1;
        let p99 = quantile_hd(&t.latencies, 0.99);
        if t.shed == 0 && p99 <= spec.slo.0 {
            max_rate = max_rate.max(mops);
        }
        pass.offered += t.offered;
        pass.completed += t.completed;
        pass.shed += t.shed;
        pass.makespan += t.makespan;
    }

    // Measured window: reference trials; under tracing, untraced and
    // span-traced trials alternate so the overhead is measured in place.
    let mut first: Option<Trial> = None;
    let mut untraced_ops: Vec<f64> = Vec::new();
    let mut traced_ops: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut layers: Vec<LayerSample> = Vec::new();
    let min_trials = if traced { 4 } else { 3 };
    let window = Instant::now();
    let mut k = 0u64;
    while k < min_trials || window.elapsed().as_secs_f64() < seconds {
        let span_trial = traced && k % 2 == 1;
        let rec = if span_trial { &on } else { &off };
        let base = rec.len();
        let t = trial(spec, seed, spec.ref_mops, spec.ref_requests, rec, id, false)?;
        id += 1;
        k += 1;
        let ops = ratio(t.completed as f64, t.serve_s);
        if span_trial {
            traced_ops.push(ops);
            layers.push(layer_sample(&rec.since(base), base));
        } else {
            untraced_ops.push(ops);
            setups.push(t.setup_s);
        }
        match &first {
            None => first = Some(t),
            Some(f) if f.fingerprint() != t.fingerprint() => {
                return Err("a repeated reference trial changed its simulated results".into())
            }
            Some(_) => {}
        }
    }
    let r = first.expect("at least one reference trial ran");
    pass.offered += r.offered;
    pass.completed += r.completed;
    pass.shed += r.shed;
    pass.makespan += r.makespan;
    let attempted = pass.offered + (k - 1) * r.offered;

    let mut m = Metrics::default();
    if !traced {
        m.host("setup_s", median(&setups), "s");
        m.host("host_ops_per_s", median(&untraced_ops), "1/s");
        m.host("peak_rss_mb", peak_rss_mb(), "MB");
        m.sim("sim_max_rate_mops", max_rate, "Mops");
        m.sim("sim_p50_us", quantile_hd(&r.latencies, 0.50) / 1e3, "us");
        m.sim("sim_p99_us", quantile_hd(&r.latencies, 0.99) / 1e3, "us");
        m.sim(
            "sim_pm_bytes_per_user_byte",
            ratio(r.stats.pm_write_bytes_total() as f64, r.user_bytes as f64),
            "B/B",
        );
        m.sim("sim_elapsed_ms", pass.makespan / 1e6, "ms");
        m.sim(
            "served_frac",
            ratio(pass.completed as f64, pass.offered as f64),
            "frac",
        );
        return Ok(Outcome {
            metrics: m,
            attempted,
            spans: Vec::new(),
            sim: None,
        });
    }

    // Traced run: one more reference trial with a sink on every machine.
    let s = trial(spec, seed, spec.ref_mops, spec.ref_requests, &off, id, true)?;
    let sink_ops = ratio(s.completed as f64, s.serve_s);
    if crate::sink_view(s.fingerprint()) != crate::sink_view(r.fingerprint()) {
        return Err("installing trace sinks changed the simulated results".into());
    }
    let sim = s.sim.expect("sink trial carries a trace");
    let med = |f: fn(&LayerSample) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let apply_s = med(|l| l.apply_s);
    let apply_us: Vec<f64> = layers.iter().flat_map(|l| l.apply_us.clone()).collect();
    let base_ops = median(&untraced_ops);
    serve_layers(&mut m, &r, &pass);
    m.host("serve.sched.self_s", med(|l| l.sched_self_s), "s");
    m.host("serve.arrival.generate_s", med(|l| l.generate_s), "s");
    m.host("serve.router.partition_s", med(|l| l.partition_s), "s");
    m.host("workloads.shard_new_s", med(|l| l.shard_new_s), "s");
    m.host("workloads.apply_s", apply_s, "s");
    m.host("workloads.apply_p50_us", quantile(&apply_us, 0.50), "us");
    m.host("workloads.apply_p99_us", quantile(&apply_us, 0.99), "us");
    m.host(
        "workloads.apply_us_per_req",
        ratio(apply_s * 1e6, r.completed as f64),
        "us",
    );
    m.host("workloads.read_gets_s", med(|l| l.read_gets_s), "s");
    crate::sim_layers(&mut m, &r.stats, &sim, apply_s);
    m.host("sim.machine_new_s", 0.0, "s");
    m.host("sim.campaign.enumerate_s", 0.0, "s");
    crate::oracle_layers_absent(&mut m);
    m.host(
        "trace.overhead_frac",
        ratio(base_ops, median(&traced_ops)) - 1.0,
        "frac",
    );
    m.host(
        "trace.sink_overhead_frac",
        ratio(base_ops, sink_ops) - 1.0,
        "frac",
    );
    Ok(Outcome {
        metrics: m,
        attempted: attempted + s.offered,
        spans: on.since(0),
        sim: Some(sim),
    })
}

/// The simulated serve-layer numbers of the reference trial and the pass.
fn serve_layers(m: &mut Metrics, r: &Trial, pass: &Trial) {
    m.sim("serve.batches", r.batches as f64, "count");
    m.sim(
        "serve.mean_batch_reqs",
        ratio(r.completed as f64, r.batches as f64),
        "count",
    );
    m.sim("serve.busy_frac", ratio(r.busy, r.end), "frac");
    m.sim(
        "serve.shed_frac",
        ratio(pass.shed as f64, pass.offered as f64),
        "frac",
    );
}
