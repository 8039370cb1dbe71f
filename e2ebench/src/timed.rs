//! `Timed<E>`: a [`ServeEngine`] that times the engine calls and forwards
//! everything else, so the unmodified `serve_engine` loop runs over it.

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_serve::{Request, ServeEngine};
use gpm_sim::{EventKind, Ns, SimResult, Stats, TraceData};

use crate::spans::Spans;

/// Span names of the timed engine calls.
pub const APPLY: &str = "workloads.apply";
/// See [`APPLY`].
pub const RECOVER: &str = "workloads.recover_in_place";
/// See [`APPLY`].
pub const READ_GETS: &str = "workloads.read_gets";

/// An engine whose `apply`, `recover_in_place` and `read_gets` calls are
/// recorded as spans (id = launch number).
#[derive(Debug)]
pub struct Timed<'a, E> {
    /// The wrapped engine.
    pub inner: E,
    spans: &'a Spans,
    launches: u64,
}

impl<'a, E> Timed<'a, E> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: E, spans: &'a Spans) -> Timed<'a, E> {
        Timed {
            inner,
            spans,
            launches: 0,
        }
    }
}

impl<E: ServeEngine> ServeEngine for Timed<'_, E> {
    fn now(&self) -> Ns {
        self.inner.now()
    }

    fn advance_to(&mut self, t: Ns) {
        self.inner.advance_to(t);
    }

    fn max_batch(&self) -> u64 {
        self.inner.max_batch()
    }

    fn boot_recovery(&self) -> Option<Ns> {
        self.inner.boot_recovery()
    }

    fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }

    fn trace(&mut self, kind: EventKind) {
        self.inner.trace(kind);
    }

    fn stats(&self) -> Stats {
        self.inner.stats()
    }

    fn take_trace(&mut self) -> Option<TraceData> {
        self.inner.take_trace()
    }

    fn gauge_for(&mut self, faults: &gpm_serve::FaultPlan, n: u64) -> FuelGauge {
        self.inner.gauge_for(faults, n)
    }

    fn apply(&mut self, batch: &[Request], gauge: &mut FuelGauge) -> Result<(), LaunchError> {
        let s = self.spans.enter(APPLY, self.launches);
        self.launches += 1;
        let out = self.inner.apply(batch, gauge);
        self.spans.exit(s);
        out
    }

    fn recover_in_place(&mut self) -> SimResult<Ns> {
        let s = self.spans.enter(RECOVER, self.launches);
        let out = self.inner.recover_in_place();
        self.spans.exit(s);
        out
    }

    fn read_gets(&self, batch: &[Request]) -> SimResult<Vec<Option<u64>>> {
        let s = self.spans.enter(READ_GETS, self.launches);
        let out = self.inner.read_gets(batch);
        self.spans.exit(s);
        out
    }

    fn failover(&self) -> Option<gpm_serve::FailoverInfo> {
        self.inner.failover()
    }

    fn log_ship(&self) -> Option<gpm_serve::LogShipStats> {
        self.inner.log_ship()
    }
}
