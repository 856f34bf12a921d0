//! Bench-owned spans: recorded around each call into a layer, kept in
//! memory, aggregated into per-layer self times after the run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed interval. Spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u32,
    /// Index of the span that caused this one.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorded inside the program (an `obs` span), handed over as data:
/// position relative to the enclosing bench span, parent as an index into
/// the same slice.
#[derive(Debug, Clone)]
pub struct Imported {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Count, total duration and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The in-memory span store. While disabled it records nothing, so the same
/// request path serves the untraced comparison chunks.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Turn recording on or off; only between requests.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a request");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next request.
    pub fn begin_request(&mut self) {
        self.request += 1;
        self.enter("request");
    }

    /// Open a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span; returns its index.
    pub fn exit(&mut self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop()? as usize;
        self.spans[index].end_ns = end_ns;
        Some(index)
    }

    /// Attach spans the program recorded itself below the closed span
    /// `parent`. Their microsecond clock starts at the parent's start.
    pub fn import(&mut self, parent: Option<usize>, imported: &[Imported]) {
        let Some(parent) = parent else { return };
        let base = self.spans.len();
        let origin_ns = self.spans[parent].start_ns;
        for s in imported {
            let start_ns = origin_ns + s.start_us * 1_000;
            self.spans.push(Span {
                request: self.request,
                parent: s.parent.map_or(parent, |p| base + p) as u32,
                name: s.name,
                start_ns,
                end_ns: start_ns + s.dur_us * 1_000,
            });
        }
    }

    /// Per-name totals. A span's self time is its duration minus its
    /// children's durations (one thread: children never overlap).
    pub fn aggregate(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns);
        }
        out
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ((s.end_ns - s.start_ns) / 1_000) as u32)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.begin_request();
        t.enter("layer");
        let layer = t.exit();
        t.import(
            layer,
            &[
                Imported {
                    name: "page",
                    parent: None,
                    start_us: 1,
                    dur_us: 10,
                },
                Imported {
                    name: "sql",
                    parent: Some(0),
                    start_us: 2,
                    dur_us: 4,
                },
            ],
        );
        t.exit();
        // stretch the bench spans to known lengths
        let layer = layer.unwrap();
        t.spans[layer].end_ns = t.spans[layer].start_ns + 15_000;
        t.spans[0].end_ns = t.spans[0].start_ns + 20_000;
        let agg = t.aggregate();
        assert_eq!(agg["sql"].self_ns, 4_000);
        assert_eq!(agg["page"].self_ns, 6_000);
        assert_eq!(agg["layer"].self_ns, 5_000);
        assert_eq!(agg["request"].self_ns, 5_000);
        assert_eq!(agg["request"].total_ns, 20_000);
        // self times of one request add up to its wall time
        let sum: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(sum, 20_000);
        assert!(t.spans.iter().all(|s| s.request == 1));
        assert_eq!(t.durations_us("page"), vec![10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.set_enabled(false);
        t.begin_request();
        t.enter("layer");
        let idx = t.exit();
        t.import(idx, &[]);
        t.exit();
        assert!(t.spans.is_empty());
    }
}
