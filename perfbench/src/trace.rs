//! Span recording for the traced run.
//!
//! Spans (name, start, end, parent, group) are kept in memory and written
//! out when the run ends. Calls too hot and too many to record one by one
//! (the allocator's per-lease calls) are folded into tallies: a call
//! count and busy time under one parent span. Per-layer metrics are
//! derived from both.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Correlates spans of one request across threads (the request's
    /// sequence number within its class); 0 where unused.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub calls: u64,
    pub busy_ns: u64,
}

/// Thread-safe span recorder; every timestamp is nanoseconds since the
/// tracer was made.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    tallies: Mutex<Vec<Tally>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            tallies: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an already-timed span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span {
            name,
            parent,
            group,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// Run `f` inside a span; `f` gets the span's id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        self.span_in_group(name, parent, 0, f)
    }

    pub fn span_in_group<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start = self.now_ns();
        let id = self.record(name, parent, group, start, start);
        let out = f(id);
        let end = self.now_ns();
        if let Some(span) = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(id)
        {
            span.end_ns = end;
        }
        out
    }

    /// Fold `calls` calls totalling `busy_ns` into a tally under `parent`.
    pub fn tally(&self, name: &'static str, parent: Option<SpanId>, calls: u64, busy_ns: u64) {
        self.tallies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Tally {
                name,
                parent,
                calls,
                busy_ns,
            });
    }

    pub fn finish(self) -> TraceData {
        TraceData {
            spans: self
                .spans
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            tallies: self
                .tallies
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// A finished trace and the arithmetic over it.
#[derive(Debug, Default)]
pub struct TraceData {
    pub spans: Vec<Span>,
    pub tallies: Vec<Tally>,
}

impl TraceData {
    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once) minus the busy time of the tallies under it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut tallied: BTreeMap<SpanId, u64> = BTreeMap::new();
        for t in &self.tallies {
            if let Some(p) = t.parent {
                *tallied.entry(p).or_default() += t.busy_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let covered = children
                    .get(&id)
                    .map(|c| covered_ns(s.start_ns, s.end_ns, c))
                    .unwrap_or(0);
                s.ns()
                    .saturating_sub(covered)
                    .saturating_sub(tallied.get(&id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Whether `parent` or one of its ancestors is named `name`.
    fn under(&self, mut parent: Option<SpanId>, name: &str) -> bool {
        while let Some(p) = parent {
            match self.spans.get(p) {
                Some(s) if s.name == name => return true,
                Some(s) => parent = s.parent,
                None => return false,
            }
        }
        false
    }

    /// Wall time spent in layer `name`: the durations of its outermost
    /// spans and tallies (ones not nested in a same-named span).
    pub fn busy_s(&self, name: &str) -> f64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && !self.under(s.parent, name))
            .map(Span::ns)
            .sum();
        let tallies: u64 = self
            .tallies
            .iter()
            .filter(|t| t.name == name && !self.under(t.parent, name))
            .map(|t| t.busy_ns)
            .sum();
        (spans + tallies) as f64 / 1e9
    }

    /// Self time of layer `name`: the self time of each of its spans plus
    /// the busy time of its tallies.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let spans: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns)
            .sum();
        let tallies: u64 = self
            .tallies
            .iter()
            .filter(|t| t.name == name)
            .map(|t| t.busy_ns)
            .sum();
        (spans + tallies) as f64 / 1e9
    }

    /// Calls made into layer `name`.
    pub fn calls(&self, name: &str) -> u64 {
        let spans = self.spans.iter().filter(|s| s.name == name).count() as u64;
        let tallies: u64 = self
            .tallies
            .iter()
            .filter(|t| t.name == name)
            .map(|t| t.calls)
            .sum();
        spans + tallies
    }

    /// Durations of the spans named `name`, keyed by group.
    pub fn by_group(&self, name: &str) -> BTreeMap<u64, u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.group, s.ns()))
            .collect()
    }

    /// Summed duration of the spans with no parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Write every span and tally as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# kind\tid\tparent\tname\tgroup|calls\tstart_ns|busy_ns\tend_ns"
        )?;
        let parent = |p: Option<SpanId>| p.map_or("-".to_string(), |p| p.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "span\t{id}\t{}\t{}\t{}\t{}\t{}",
                parent(s.parent),
                s.name,
                s.group,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (id, t) in self.tallies.iter().enumerate() {
            writeln!(
                out,
                "tally\t{id}\t{}\t{}\t{}\t{}\t-",
                parent(t.parent),
                t.name,
                t.calls,
                t.busy_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            total += e - from;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            group: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_and_tallies() {
        let trace = TraceData {
            spans: vec![
                span("a", None, 0, 100),
                span("b", Some(0), 10, 40),
                // Overlaps b: the union 10..50 is covered once.
                span("c", Some(0), 30, 50),
                // Sticks out of its parent: only 90..100 counts.
                span("d", Some(0), 90, 120),
                span("e", Some(1), 15, 25),
            ],
            tallies: vec![Tally {
                name: "t",
                parent: Some(0),
                calls: 4,
                busy_ns: 5,
            }],
        };
        // a: 100 - (40 covered by b∪c + 10 by d) - 5 tallied = 45.
        assert_eq!(trace.self_ns(), vec![45, 20, 20, 30, 10]);
        assert!((trace.self_s("a") - 45e-9).abs() < 1e-15);
        assert!((trace.self_s("t") - 5e-9).abs() < 1e-15);
        assert_eq!(trace.calls("t"), 4);
        assert!((trace.top_level_s() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn busy_time_counts_nested_same_name_once() {
        let trace = TraceData {
            spans: vec![span("a", None, 0, 100), span("c", Some(0), 0, 60)],
            tallies: vec![
                // Inside a span named "a": already in its busy time.
                Tally {
                    name: "a",
                    parent: Some(1),
                    calls: 3,
                    busy_ns: 30,
                },
                Tally {
                    name: "z",
                    parent: None,
                    calls: 1,
                    busy_ns: 7,
                },
            ],
        };
        assert!((trace.busy_s("a") - 100e-9).abs() < 1e-15);
        assert!((trace.busy_s("z") - 7e-9).abs() < 1e-15);
        // a's self time: 100 - 60 covered by c, plus 30 tallied as "a".
        assert!((trace.self_s("a") - 70e-9).abs() < 1e-15);
        assert!((trace.self_s("c") - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans() {
        let tracer = Tracer::new();
        tracer.span("outer", None, |outer| {
            tracer.span("inner", Some(outer), |_| {});
            tracer.tally("hot", Some(outer), 2, 0);
        });
        let data = tracer.finish();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.spans[1].parent, Some(0));
        assert!(data.spans[0].start_ns <= data.spans[1].start_ns);
        assert!(data.spans[1].end_ns <= data.spans[0].end_ns);
        assert_eq!(data.calls("hot"), 2);
    }
}
