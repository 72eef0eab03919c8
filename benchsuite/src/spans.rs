//! In-memory spans recorded around calls into the workspace's layers.
//!
//! Spans live in the benchmark's own code: each wraps one call into a
//! layer's public function. They are kept in memory and written out as
//! JSON lines when the run ends. A layer's self time is its spans'
//! durations minus the parts covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The cell (request) the span belongs to; spans of one cell share it.
    cell: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Call count and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Their summed self time, ns.
    pub self_ns: u64,
}

impl LayerStat {
    /// Mean self time per call, ms (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }

    /// Summed self time, ms.
    pub fn total_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// A span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for `cell`; spans opened by
    /// `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Call counts and self times per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let stat = out.entry(s.name).or_default();
            stat.calls += 1;
            stat.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// One layer's statistics (zero when the name was never recorded).
    pub fn layer(&self, name: &str) -> LayerStat {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// Total duration of every span named `name`, ms (children included).
    pub fn inclusive_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON line: name, cell, index, parent,
    /// start and end in ns since the recorder was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"cell\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.cell, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let layers = t.layers();
        assert_eq!(layers["outer"].calls, 1);
        assert_eq!(layers["inner"].calls, 1);
        assert!(layers["inner"].self_ns >= 2_000_000);
        assert!(layers["outer"].self_ns < layers["inner"].self_ns);
        assert!(t.inclusive_ms("outer") >= t.layer("inner").total_ms());
        assert_eq!(t.layer("missing").calls, 0);
    }
}
