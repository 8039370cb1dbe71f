//! Host wall-clock spans recorded around calls into the program's layers.
//!
//! A span is `(name, start, end, parent, id)`: `id` is the trial, batch or
//! case number the span belongs to, `parent` the index of the enclosing
//! span. Spans stay in memory and are written out once, when the run ends.
//! With recording off, [`Spans::enter`] and [`Spans::exit`] cost a branch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) host span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span times, e.g. `workloads.apply`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial, batch or case number.
    pub id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder with an implicit parent stack. Methods take
/// `&self` so a span can be opened from a `&self` engine call.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    log: RefCell<Log>,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`None` when recording is off).
pub type SpanId = Option<usize>;

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            log: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&self, name: &'static str, id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let log = &mut *self.log.borrow_mut();
        let idx = log.spans.len();
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: log.stack.last().copied(),
            id,
        });
        log.stack.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` returned (and any left open inside it).
    pub fn exit(&self, span: SpanId) {
        let Some(idx) = span else { return };
        let end_ns = self.now_ns();
        let log = &mut *self.log.borrow_mut();
        while let Some(top) = log.stack.pop() {
            log.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, id);
        let out = f();
        self.exit(s);
        out
    }

    /// A copy of the spans recorded from index `from` on (one trial's
    /// spans, when `from` was [`len`](Spans::len) at the trial's start).
    pub fn since(&self, from: usize) -> Vec<Span> {
        self.log.borrow().spans[from..].to_vec()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.log.borrow().spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Summed seconds of the spans named `name` in `spans`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Self time of the spans named `name` in `spans` (a slice whose first
/// element is span number `base` of the recorder): their duration minus
/// the time covered by their direct children. Children never overlap: the
/// recorder nests them on one stack.
pub fn self_secs(spans: &[Span], base: usize, name: &str) -> f64 {
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let children: f64 = spans[i + 1..]
            .iter()
            .take_while(|c| c.start_ns < s.end_ns)
            .filter(|c| c.parent == Some(base + i))
            .map(Span::secs)
            .sum();
        total += s.secs() - children;
    }
    total
}

/// The spans as JSON, one span per line: `name`, `start_us`, `end_us`,
/// `parent` (index or `null`) and `id`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"id\": {}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.id
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let s = Spans::new(false);
        let id = s.enter("a", 0);
        s.exit(id);
        assert!(s.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let s = Spans::new(true);
        let outer = s.enter("outer", 0);
        s.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(outer);
        let all = s.since(0);
        assert_eq!(all[1].parent, Some(0));
        let self_s = self_secs(&all, 0, "outer");
        assert!(self_s >= 0.0 && self_s < all[0].secs() - 0.0015);
        assert!(to_json(&all).contains("\"parent\": 0"));
    }
}
