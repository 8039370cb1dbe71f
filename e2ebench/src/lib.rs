//! End-to-end benchmark of the GPM workspace, driven only through the
//! public entry points of gpm-serve, gpm-workloads and gpm-sim and timed
//! layer by layer from the benchmark's own files.
//!
//! Three workloads ([`Workload`]): `kvs_serve`, `mixed_serve` and
//! `crash_campaign`. An untraced run yields the end-to-end metrics; a
//! traced run the per-layer ones (host spans around the layer calls plus a
//! counting `RingSink` on every machine). See `README.md` beside this
//! crate for every metric, its unit, and whether it is host or sim.

pub mod campaign;
pub mod report;
pub mod serve;
pub mod sink;
pub mod spans;
pub mod timed;

use gpm_sim::{Phase, Stats};

use report::{ratio, Metrics};
use sink::SimTrace;
use spans::Span;

/// Input size: the benchmark's own, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` runs.
    Paper,
    /// Small enough for a debug-build test.
    Tiny,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson gpKVS traffic over two paper-size shards, strict
    /// persistency.
    KvsServe,
    /// Diurnal gpKVS + gpAnalytics traffic over two mixed-tenant shards,
    /// epoch persistency.
    MixedServe,
    /// Every quick oracle, back to back, at seeded crash points.
    CrashCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::KvsServe,
        Workload::MixedServe,
        Workload::CrashCampaign,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvsServe => "kvs_serve",
            Workload::MixedServe => "mixed_serve",
            Workload::CrashCampaign => "crash_campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload for `seconds` of measurement: end-to-end metrics
    /// when `traced` is false, per-layer metrics when it is true.
    ///
    /// # Errors
    ///
    /// Any failed correctness check or platform error, as a message.
    pub fn run(self, size: Size, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
        match self {
            Workload::KvsServe => serve::run(&serve::ServeSpec::kvs(size), seed, seconds, traced),
            Workload::MixedServe => {
                serve::run(&serve::ServeSpec::mixed(size), seed, seconds, traced)
            }
            Workload::CrashCampaign => {
                campaign::run(&campaign::CampaignSpec::new(size), seed, seconds, traced)
            }
        }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics, in print order.
    pub metrics: Metrics,
    /// Requests offered plus cases judged, over the whole run.
    pub attempted: u64,
    /// Host spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
    /// Simulated-time attribution and event counts of the traced run.
    pub sim: Option<SimTrace>,
}

/// What a sink run must reproduce of an untraced run's fingerprint (whose
/// last element is the counters): everything but `bytes_persisted`. A
/// sink makes every kernel take the per-lane path, which counts
/// `bytes_persisted` operation-major (the engine's one documented
/// difference from the vectorized path), so the sim metrics report the
/// untraced run's counters.
fn sink_view<T>(mut fp: (T, Stats)) -> (T, Stats) {
    fp.1.bytes_persisted = 0;
    fp
}

/// gpm-sim counters, gpm-gpu launches and gpm-core events, shared by every
/// workload. `host_s` is the host time of the calls that did the simulated
/// work (batch launches, or campaign cases).
fn sim_layers(m: &mut Metrics, stats: &Stats, sim: &SimTrace, host_s: f64) {
    m.sim("sim.system_fences", stats.system_fences as f64, "count");
    m.sim("sim.device_fences", stats.device_fences as f64, "count");
    m.sim("sim.pcie_write_txns", stats.pcie_write_txns as f64, "count");
    m.sim("sim.bytes_persisted", stats.bytes_persisted as f64, "B");
    m.sim(
        "sim.pm_write_bytes",
        stats.pm_write_bytes_total() as f64,
        "B",
    );
    m.sim(
        "sim.pm_block_programs",
        stats.pm_block_programs as f64,
        "count",
    );
    m.sim("sim.crashes", stats.crashes as f64, "count");
    m.sim(
        "sim.bytes_per_pcie_txn",
        ratio(
            stats.pm_write_bytes_gpu as f64,
            stats.pcie_write_txns as f64,
        ),
        "B",
    );
    m.host(
        "sim.host_ns_per_fence",
        ratio(host_s * 1e9, stats.system_fences as f64),
        "ns",
    );
    m.sim("gpu.kernel_launches", stats.kernel_launches as f64, "count");
    m.host(
        "gpu.host_us_per_launch",
        ratio(host_s * 1e6, stats.kernel_launches as f64),
        "us",
    );
    let a = &sim.attribution;
    m.sim("gpu.kernel_sim_ns", a.phase(Phase::Kernel).span_ns, "ns");
    m.sim("core.log_appends", sim.counts.log_appends as f64, "count");
    m.sim("core.log_clears", sim.counts.log_clears as f64, "count");
    m.sim(
        "core.checkpoint_publishes",
        sim.counts.checkpoint_publishes as f64,
        "count",
    );
    m.sim("core.epoch_drains", sim.counts.epoch_drains as f64, "count");
    m.sim(
        "core.recovery_sim_ns",
        a.phase(Phase::Recovery).span_ns,
        "ns",
    );
}

/// Serve-layer metrics on a workload that never calls the serve layer.
fn serve_layers_absent(m: &mut Metrics) {
    for name in [
        "serve.sched.self_s",
        "serve.arrival.generate_s",
        "serve.router.partition_s",
        "workloads.shard_new_s",
        "workloads.apply_s",
        "workloads.read_gets_s",
    ] {
        m.host(name, 0.0, "s");
    }
    for name in [
        "workloads.apply_p50_us",
        "workloads.apply_p99_us",
        "workloads.apply_us_per_req",
    ] {
        m.host(name, 0.0, "us");
    }
    m.sim("serve.batches", 0.0, "count");
    m.sim("serve.mean_batch_reqs", 0.0, "count");
    m.sim("serve.busy_frac", 0.0, "frac");
    m.sim("serve.shed_frac", 0.0, "frac");
}

/// Oracle-layer metrics on a workload that never judges a crash case.
fn oracle_layers_absent(m: &mut Metrics) {
    m.host("workloads.oracle.record_s", 0.0, "s");
    m.host("workloads.oracle.case_p50_us", 0.0, "us");
    m.host("workloads.oracle.case_p99_us", 0.0, "us");
    for name in gpm_workloads::oracle::oracle_names() {
        m.host(
            format!("workloads.oracle.{}.case_s", campaign::sanitize(name)),
            0.0,
            "s",
        );
    }
}

/// The traced run's trace file: per-layer spans, simulated-phase
/// attribution and event counts, as JSON.
pub fn trace_json(workload: Workload, seed: u64, engine_threads: u32, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"engine_threads\": {engine_threads},\n",
        workload.name()
    );
    if let Some(sim) = &out.sim {
        s.push_str("\"sim_attribution\": {");
        for (i, p) in [
            Phase::Kernel,
            Phase::Checkpoint,
            Phase::Recovery,
            Phase::ServeBatch,
            Phase::Other,
        ]
        .into_iter()
        .enumerate()
        {
            let t = sim.attribution.phase(p);
            s.push_str(&format!(
                "{}\"{}\": {{\"spans\": {}, \"span_ns\": {:?}, \"bytes_persisted\": {}, \
                 \"system_fences\": {}, \"pcie_write_txns\": {}}}",
                if i > 0 { ", " } else { "" },
                p.key(),
                t.spans,
                t.span_ns,
                t.bytes_persisted,
                t.system_fences,
                t.pcie_write_txns
            ));
        }
        let c = &sim.counts;
        s.push_str(&format!(
            "}},\n\"sim_events\": {{\"events\": {}, \"log_appends\": {}, \"log_clears\": {}, \
             \"checkpoint_publishes\": {}, \"epoch_drains\": {}}},\n",
            c.events, c.log_appends, c.log_clears, c.checkpoint_publishes, c.epoch_drains
        ));
    }
    s.push_str("\"spans\": ");
    s.push_str(&spans::to_json(&out.spans));
    s.push_str("}\n");
    s
}
