//! In-memory span recording for the traced run, and per-layer self time.
//!
//! A span covers one call into a layer, or one batch of `units` identical
//! calls when a single call is too short to time on its own. Spans of one
//! request share its request id. Nothing is written until the run ends.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `verify.lint`.
    pub name: Cow<'static, str>,
    /// Unique within the run (starts at 1).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The request (or replayed item) this span served.
    pub request: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Calls the span covers (1 unless batched).
    pub units: u64,
}

/// Collects spans against one epoch, on the thread that drives the run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
        units: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name: name.into(),
            id,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            units,
        });
        id
    }

    /// Times `f` as one span of `units` calls.
    pub fn time<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        request: u64,
        units: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end, units);
        out
    }

    /// Opens a parent span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, request: u64) -> u64 {
        let now = Instant::now();
        self.record(name, 0, request, now, now, 1)
    }

    /// Ends the span `id` now.
    pub fn close(&mut self, id: u64) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of one span name: total over its spans, with how many spans
/// and calls contributed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Summed self time, ns.
    pub total_ns: f64,
    /// Spans with this name.
    pub spans: u64,
    /// Calls those spans covered.
    pub units: u64,
}

impl SelfTime {
    /// Mean self time per call, in ns (0 with no calls).
    pub fn per_unit_ns(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ns / self.units as f64
        }
    }
}

/// A span's self time: its duration minus the part of it that its
/// children's intervals cover.
fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push(span);
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for span in spans {
        let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
        let entry = out.entry(span.name.to_string()).or_default();
        entry.total_ns += self_ns(span, kids) as f64;
        entry.spans += 1;
        entry.units += span.units;
    }
    out
}

/// The self time of each span called `name`, in recording order.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push(span);
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)) as f64)
        .collect()
}

/// The span list as CSV (`id,parent,request,name,start_ns,end_ns,units`).
pub fn spans_csv(spans: &[Span]) -> String {
    let mut out = String::from("id,parent,request,name,start_ns,end_ns,units\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.units
        );
    }
    out
}

/// The self-time table as CSV (`name,spans,units,self_ns,self_ns_per_unit`).
pub fn self_time_csv(table: &BTreeMap<String, SelfTime>) -> String {
    let mut out = String::from("name,spans,units,self_ns,self_ns_per_unit\n");
    for (name, t) in table {
        let _ = writeln!(
            out,
            "{name},{},{},{:.0},{:.1}",
            t.spans,
            t.units,
            t.total_ns,
            t.per_unit_ns()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: format!("s{id}").into(),
            id,
            parent,
            request: 0,
            start_ns,
            end_ns,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let table = self_times(&spans);
        // Children cover 10..60 and 90..100: 60 of 100 ns.
        assert_eq!(table["s1"].total_ns, 40.0);
        assert_eq!(table["s2"].total_ns, 30.0);
    }
}
