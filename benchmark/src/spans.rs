//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own files around its calls into
//! public functions — tracing inside the simulator is a later issue. They
//! stay in memory as `{id, parent, name, start_ns, end_ns}` (plus `what`:
//! the cell or program a span is about, where there is one) and are
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// What was running: `bench.cell`, `machine.run`, …
    pub name: String,
    /// Which cell or program, where the name alone does not say.
    pub what: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// An in-memory span list.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose time origin is now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &str,
        what: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            what: what.to_owned(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Opens a span that starts now; [`close`](Recorder::close) ends it.
    pub fn open(&mut self, parent: Option<usize>, name: &str, what: &str) -> usize {
        let now = self.ns(Instant::now());
        self.record(parent, name, what, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of that interval
    /// its child spans cover (overlapping children are not counted twice).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if !s.what.is_empty() {
                out.push_str(",\"what\":\"");
                flashsim_engine::trace::push_json_escaped(&mut out, &s.what);
                out.push('"');
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let mut rec = Recorder::new();
        let root = rec.record(None, "bench.cell", "c", 100, 1100);
        rec.record(Some(root), "machine.new", "", 100, 200);
        rec.record(Some(root), "machine.run", "", 200, 900);
        rec.record(Some(root), "overlap", "", 800, 1000); // 100 ns already covered
        rec.record(Some(root), "outside", "", 1050, 5000); // clipped to the parent
        assert_eq!(rec.self_ns(root), 1000 - (100 + 700 + 100 + 50));
        assert_eq!(rec.self_ns(1), 100);
    }

    #[test]
    fn jsonl_has_the_five_fields_and_what_only_where_set() {
        let mut rec = Recorder::new();
        let root = rec.record(None, "bench.workload", "", 0, 10);
        rec.record(Some(root), "bench.cell", "lu/16@hw \"x\"", 1, 9);
        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"id\":0,\"parent\":null,\"name\":\"bench.workload\",\"start_ns\":0,\"end_ns\":10}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":1,\"parent\":0,\"name\":\"bench.cell\",\"start_ns\":1,\"end_ns\":9,\
             \"what\":\"lu/16@hw \\\"x\\\"\"}"
        );
    }

    #[test]
    fn open_and_close_bracket_real_time() {
        let mut rec = Recorder::new();
        let id = rec.open(None, "bench.pass", "");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        rec.close(id);
        let span = &rec.spans()[id];
        assert!(span.end_ns >= span.start_ns);
    }
}
