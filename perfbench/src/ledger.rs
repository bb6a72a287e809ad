//! Spans and samples recorded from the benchmark's own code.
//!
//! Every layer call the benchmark makes is bracketed by
//! [`Ledger::enter`] / [`Ledger::exit`]. The duration is always returned
//! to the caller (the end-to-end windows need it); when recording is on
//! the call is also kept as a [`Span`] — name, start, end, parent — and
//! its duration is added to the per-layer sample set of that name.
//! Nothing is written until the run ends ([`Ledger::write_spans`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call. Times are nanoseconds since the ledger was
/// created; `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span: returned by [`Ledger::enter`], consumed by
/// [`Ledger::exit`].
#[must_use]
pub struct Open {
    name: &'static str,
    start: Instant,
    slot: Option<usize>,
}

#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Turns span and sample recording on or off for the calls that
    /// follow. Spans already open keep their own setting.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(slot);
            slot
        });
        Open { name, start, slot }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.ns_since_origin(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans close in LIFO order");
            self.samples.entry(open.name).or_default().push(secs);
        }
        secs
    }

    /// Adds a derived per-layer sample (e.g. a paired difference) while
    /// recording is on.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.recording {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the
    /// part of it its child spans cover, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines: one object per span.
    pub fn spans_json(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut led = Ledger::new();
        let off = led.enter("ignored");
        led.exit(off);
        assert!(led.spans().is_empty());

        led.set_recording(true);
        let outer = led.enter("outer");
        let inner = led.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = led.exit(inner);
        let outer_s = led.exit(outer);
        assert_eq!(led.spans()[1].parent, Some(0));
        assert_eq!(led.spans()[0].parent, None);
        assert!(outer_s >= inner_s);
        let own = led.self_times();
        assert!(own["outer"] < own["inner"]);
        assert_eq!(led.samples("inner").len(), 1);
        assert_eq!(led.spans_json().lines().count(), 2);
    }
}
