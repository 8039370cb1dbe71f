//! The traced run's machine sink: a `RingSink` (for the simulated-time
//! phase `Attribution`) behind a wrapper that counts the gpm-core event
//! kinds exactly, however many events the bounded ring drops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpm_sim::{Attribution, Event, EventKind, Machine, RingSink, TraceData, TraceSink};

/// Ring capacity: the events themselves are not kept (attribution is
/// computed at emit time), so a small ring bounds memory.
const RING_CAP: usize = 1 << 12;

/// Event counts of one or more traced machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Every emitted event.
    pub events: u64,
    /// gpm-core undo/redo log appends.
    pub log_appends: u64,
    /// gpm-core log clears.
    pub log_clears: u64,
    /// gpm-core checkpoint publishes.
    pub checkpoint_publishes: u64,
    /// Epoch-persistency drains at kernel completion.
    pub epoch_drains: u64,
}

impl EventCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &EventCounts) {
        self.events += o.events;
        self.log_appends += o.log_appends;
        self.log_clears += o.log_clears;
        self.checkpoint_publishes += o.checkpoint_publishes;
        self.epoch_drains += o.epoch_drains;
    }
}

/// Live counters shared between the installed sink and the benchmark.
/// `Relaxed` suffices: the counts publish no other data, and the machine
/// (and its sink) is only ever driven from one thread at a time.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; 5]);

impl Counters {
    /// A snapshot of the counts so far.
    pub fn snapshot(&self) -> EventCounts {
        let c = |i: usize| self.0[i].load(Ordering::Relaxed);
        EventCounts {
            events: c(0),
            log_appends: c(1),
            log_clears: c(2),
            checkpoint_publishes: c(3),
            epoch_drains: c(4),
        }
    }
}

#[derive(Debug)]
struct CountingSink {
    ring: RingSink,
    counters: Arc<Counters>,
}

impl TraceSink for CountingSink {
    fn emit(&mut self, ev: Event) {
        let slot = match ev.kind {
            EventKind::LogAppend { .. } => Some(1),
            EventKind::LogClear { .. } => Some(2),
            EventKind::CheckpointPublish { .. } => Some(3),
            EventKind::EpochDrain { .. } => Some(4),
            _ => None,
        };
        self.counters.0[0].fetch_add(1, Ordering::Relaxed);
        if let Some(i) = slot {
            self.counters.0[i].fetch_add(1, Ordering::Relaxed);
        }
        self.ring.emit(ev);
    }

    fn finish(self: Box<Self>) -> Option<TraceData> {
        Box::new(self.ring).finish()
    }
}

/// Installs a counting `RingSink` on `machine`; read the counts from the
/// returned handle and the attribution from `Machine::finish_trace`.
pub fn install(machine: &mut Machine) -> Arc<Counters> {
    let counters = Arc::new(Counters::default());
    machine.set_trace_sink(Box::new(CountingSink {
        ring: RingSink::new(RING_CAP),
        counters: Arc::clone(&counters),
    }));
    counters
}

/// What a traced machine (or several, merged) yields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTrace {
    /// Simulated-time phase attribution.
    pub attribution: Attribution,
    /// gpm-core event counts.
    pub counts: EventCounts,
}

impl SimTrace {
    /// Merges one finished machine trace into `self`.
    pub fn add(&mut self, data: Option<TraceData>, counters: &Counters) {
        if let Some(d) = data {
            self.attribution.merge(&d.attribution);
        }
        self.counts.add(&counters.snapshot());
    }
}
