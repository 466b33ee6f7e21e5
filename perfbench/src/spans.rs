//! In-memory spans for the traced run.
//!
//! One span per call into a product crate's public function, recorded
//! from the benchmark's side of the call: name, start, end and the
//! span that caused it. Spans stay in memory while the run measures and
//! are written out as NDJSON when it ends; self time (a span's duration
//! minus what its children cover) is derived from the tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Span {
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread. Span ids are indices into `spans`.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `t0`.
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name `(calls, total ns, self ns)`: self time is a span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as one NDJSON line, then the per-name self-time
    /// table.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 72);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.start_ns,
                s.dur_ns()
            );
        }
        for (name, (calls, total, own)) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"calls\":{calls},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let st = t.self_times();
        let (calls, total, own) = st["outer"];
        assert_eq!(calls, 1);
        assert_eq!(total - own, st["inner"].1);
        assert_eq!(t.spans[inner as usize].parent, outer);
    }
}
