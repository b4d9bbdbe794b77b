//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's files, around each call into a
//! layer's public functions or endpoints; spans inside the program are a
//! separate concern. A disabled [`Tracer`] records nothing and costs one
//! branch per call, which is how the untraced runs use the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread recorder. Threads of one run share an origin and an id
/// source through [`Tracer::fork`], and their spans are merged with
/// [`Tracer::absorb`] once the threads have joined.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    ids: Arc<AtomicU64>,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder for another thread, on the same clock and id
    /// source.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            ids: Arc::clone(&self.ids),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children's overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time summed per layer, in milliseconds, with span counts.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.layer).or_default();
        entry.0 += self_ns as f64 / 1e6;
        entry.1 += 1;
    }
    out
}

/// Writes `spans` as `{"workload": …, "spans": [...]}` to `path`.
pub fn write(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Names and layers are identifiers from this crate, so they need no
    // escaping.
    write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{sep}\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.id,
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "loadgen", 0, 100),
            // Overlapping children count once; the one running past the
            // parent's end is clipped.
            span(2, Some(1), "serve", 10, 30),
            span(3, Some(1), "serve", 20, 50),
            span(4, Some(1), "core", 90, 120),
            span(5, Some(3), "core", 25, 35),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 30, 10]);
        let layers = layer_self_ms(&spans);
        assert_eq!(layers["loadgen"].1, 1);
        assert!((layers["serve"].0 - 40e-6).abs() < 1e-12);
        assert!((layers["core"].0 - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("outer", "bench", |tr| tr.span("inner", "core", |_| ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", "bench", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
