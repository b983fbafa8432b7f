//! Live run streaming: the versioned `flashsim-stream-v1` JSONL event
//! protocol.
//!
//! Every observability surface before this module was post-hoc: a run
//! had to finish before its telemetry, accounting, or spans were
//! inspectable. The stream makes those artifacts *incremental* — a
//! machine with a sink attached appends one JSON line per event while
//! it runs, and a supervisor (`flashsim watch`) can tail many
//! streams and render a live matrix dashboard, long before any cell
//! finishes.
//!
//! # Events
//!
//! | `ev`       | when                         | determinism            |
//! |------------|------------------------------|------------------------|
//! | `start`    | run entry                    | deterministic, `seq` 0 |
//! | `bucket`   | every barrier release        | deterministic          |
//! | `ckpt`     | checkpoint written           | deterministic          |
//! | `end`      | run finished or failed       | deterministic          |
//! | `progress` | wall-clock heartbeat cadence | advisory, no `seq`     |
//!
//! Deterministic events carry a dense sequence number (`seq` 0, 1, 2,
//! …) and are a pure function of the run's provenance: rerunning the
//! same configuration reproduces them byte for byte, and
//! `SchedPolicy::Batched` reproduces `Reference` exactly (asserted in
//! `tests/stream_determinism.rs`). Advisory `progress` events are
//! driven by host wall-clock cadence, carry no `seq`, and are excluded
//! from every determinism contract — tooling that compares streams
//! compares only the deterministic lines.
//!
//! # Prefix stability
//!
//! The telemetry series cannot be streamed as its final 64 buckets:
//! the doubling merge re-partitions past buckets as the run grows, so
//! any emitted partition would be invalidated later. Instead the
//! stream emits *closed* buckets cut at barrier releases — the only
//! quiescent points of a run, where every node clock equals the
//! release time, no sample can later land before it, and (by the
//! checkpoint determinism contract of PR 7) every stable cumulative
//! total is identical across reruns and scheduling policies. Each
//! `bucket` event carries the **delta** of cumulative totals since the
//! previous release: exact per-window increments for counters and
//! occupancy integrals, the run-wide maximum (emitted only when it
//! changes) for gauges, and per-stall-class accounting deltas when the
//! profiler is attached. Because each event depends only on totals at
//! two quiescent points, the emitted prefix is *stable*: it never has
//! to be revised, and a resumed run continues it without contradicting
//! a single earlier byte.
//!
//! # Sink durability
//!
//! [`FileSink`] appends one complete line per event and flushes it.
//! Like the run journal, the format is torn-tail tolerant: a hard kill
//! can leave at most one incomplete final line, which every reader
//! here ignores. On checkpoint restore the journal truncates the file
//! to [`consistent_prefix`] (the deterministic events the checkpoint
//! had already seen) and the machine re-attaches in append mode, so a
//! kill-resume run converges to a byte-identical stream.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::account::StallClass;
use crate::jsonl::{
    field_f64, field_map_u64, field_str, field_u64, numbered_lines, push_json_escaped,
    scan_strings_after,
};
use crate::telemetry::MetricKind;

/// Schema identifier embedded in every stream's `start` event.
pub const SCHEMA: &str = "flashsim-stream-v1";

/// Where stream events go, one complete JSON line per call (no
/// trailing newline in `line`; the sink frames it).
///
/// An `Err` from a sink marks the stream dead: the emitter stops
/// emitting instead of failing the run — streaming is observability,
/// never a correctness dependency.
pub trait StreamSink: Send {
    /// Appends one framed event line durably enough that a hard kill
    /// loses at most a torn final line.
    fn emit(&mut self, line: &str) -> std::io::Result<()>;
}

/// Durable line-framed file sink. Each event is written as a single
/// `write_all` of `line + "\n"` and flushed, so a crash can tear at
/// most the final line — the same tolerance the run journal has.
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Creates (truncating) the stream file — a fresh run.
    pub fn create(path: &std::path::Path) -> std::io::Result<FileSink> {
        Ok(FileSink {
            file: std::fs::File::create(path)?,
        })
    }

    /// Opens the stream file for appending — a resumed run continuing
    /// an already-truncated consistent prefix.
    pub fn append(path: &std::path::Path) -> std::io::Result<FileSink> {
        Ok(FileSink {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        })
    }
}

impl StreamSink for FileSink {
    fn emit(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.file.write_all(framed.as_bytes())?;
        self.file.flush()
    }
}

/// In-memory sink for tests: share the buffer, then inspect it after
/// the machine (which owns the sink) is done.
pub struct MemorySink {
    buf: Arc<Mutex<String>>,
}

impl MemorySink {
    /// A fresh sink and a shared handle to the text it accumulates.
    pub fn new() -> (MemorySink, Arc<Mutex<String>>) {
        let buf = Arc::new(Mutex::new(String::new()));
        (MemorySink { buf: buf.clone() }, buf)
    }
}

impl StreamSink for MemorySink {
    fn emit(&mut self, line: &str) -> std::io::Result<()> {
        if let Ok(mut b) = self.buf.lock() {
            b.push_str(line);
            b.push('\n');
        }
        Ok(())
    }
}

/// Run identity recorded in the `start` event — the provenance hash
/// plus the human-readable fields a dashboard shows per cell.
pub struct RunInfo {
    /// 16-hex provenance hash (`ckpt::provenance_hash` of the
    /// machine's provenance record) — the grouping key for cross-file
    /// prefix-stability checks.
    pub provenance: String,
    /// Machine configuration label.
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// Workload seed, when the program declares one.
    pub seed: Option<u64>,
    /// Node count.
    pub nodes: u32,
    /// Scheduling policy key (`"batched"` / `"reference"` / …).
    pub sched: String,
    /// Watchdog op budget, when one is armed — the denominator of the
    /// advisory budget fraction in `progress` events.
    pub budget_ops: Option<u64>,
}

/// One windowed progress sample — the single computation behind both
/// the stderr heartbeat and the stream's `progress` events, so the two
/// can never drift.
#[derive(Debug, Clone)]
pub struct ProgressSample {
    /// Ops executed so far.
    pub ops: u64,
    /// Whole-run average events/sec.
    pub rate: f64,
    /// Windowed (since previous sample) live events/sec.
    pub live: f64,
    /// Fraction of the watchdog op budget consumed, when armed.
    pub budget_frac: Option<f64>,
    /// Average worker-pool occupancy over the window, in `[0, 1]` —
    /// only under the parallel scheduling policy, set by the caller
    /// after sampling (the meter itself knows nothing about workers).
    pub busy: Option<f64>,
    /// Per-worker occupancy over the window, in `[0, 1]` per worker —
    /// empty unless a worker pool is live. Advisory, like `busy`: the
    /// `watch` dashboard renders utilization bars from it.
    pub worker_busy: Vec<f64>,
}

/// Wall-clock window tracker producing [`ProgressSample`]s.
pub struct ProgressMeter {
    started: Instant,
    last: Instant,
    last_ops: u64,
}

impl ProgressMeter {
    /// Starts the meter now; the first sample's window spans from here.
    pub fn start() -> ProgressMeter {
        let now = Instant::now();
        ProgressMeter {
            started: now,
            last: now,
            last_ops: 0,
        }
    }

    /// Whether at least `every` has elapsed since the previous sample.
    pub fn due(&self, now: Instant, every: std::time::Duration) -> bool {
        now.duration_since(self.last) >= every
    }

    /// Closes the current window and returns its sample.
    pub fn sample(&mut self, now: Instant, ops: u64, budget: Option<u64>) -> ProgressSample {
        let total_secs = now.duration_since(self.started).as_secs_f64();
        let window_secs = now.duration_since(self.last).as_secs_f64();
        let rate = if total_secs > 0.0 {
            ops as f64 / total_secs
        } else {
            0.0
        };
        let live = if window_secs > 0.0 {
            ops.saturating_sub(self.last_ops) as f64 / window_secs
        } else {
            rate
        };
        self.last = now;
        self.last_ops = ops;
        ProgressSample {
            ops,
            rate: if rate.is_finite() { rate } else { 0.0 },
            live: if live.is_finite() { live } else { 0.0 },
            budget_frac: budget
                .filter(|b| *b > 0)
                .map(|b| ops as f64 / b as f64)
                .filter(|f| f.is_finite()),
            busy: None,
            worker_busy: Vec::new(),
        }
    }
}

/// Serializes run events into `flashsim-stream-v1` lines and tracks
/// the deterministic sequence position.
///
/// The emitter's position `(next_seq, last_emitted_ps)` is part of a
/// machine checkpoint; on restore the machine re-seeds a fresh emitter
/// at the stored position, and the baseline totals recomputed from the
/// restored telemetry/profiler state provably equal the originals, so
/// the continuation never contradicts the prefix.
pub struct StreamEmitter {
    sink: Box<dyn StreamSink>,
    dead: bool,
    seq: u64,
    last_ps: u64,
    metrics: Vec<(String, MetricKind)>,
    prev_totals: Vec<u64>,
    have_account: bool,
    prev_account: [u64; StallClass::COUNT],
}

impl StreamEmitter {
    /// Wraps a sink with the emitter positioned at a fresh stream.
    pub fn new(sink: Box<dyn StreamSink>) -> StreamEmitter {
        StreamEmitter {
            sink,
            dead: false,
            seq: 0,
            last_ps: 0,
            metrics: Vec::new(),
            prev_totals: Vec::new(),
            have_account: false,
            prev_account: [0; StallClass::COUNT],
        }
    }

    /// Repositions the emitter to a checkpointed `(next_seq,
    /// last_emitted_ps)` before `begin` — the resume path.
    pub fn set_position(&mut self, seq: u64, last_ps: u64) {
        self.seq = seq;
        self.last_ps = last_ps;
    }

    /// The emitter's `(next_seq, last_emitted_ps)` position, as stored
    /// in checkpoints.
    pub fn position(&self) -> (u64, u64) {
        (self.seq, self.last_ps)
    }

    /// Registers the bucket baselines and, on a fresh stream (position
    /// 0), emits the `start` event. `metrics` is the stable metric set
    /// (key, kind, cumulative total at the current position); totals
    /// are nonzero only on resume. `account` is the per-class
    /// cumulative ledger when the profiler is attached.
    pub fn begin(
        &mut self,
        info: &RunInfo,
        metrics: &[(String, MetricKind, u64)],
        account: Option<&[u64]>,
    ) {
        self.metrics = metrics
            .iter()
            .map(|(k, kind, _)| (k.clone(), *kind))
            .collect();
        self.prev_totals = metrics.iter().map(|(_, _, t)| *t).collect();
        self.have_account = account.is_some();
        if let Some(acc) = account {
            for (slot, v) in self.prev_account.iter_mut().zip(acc) {
                *slot = *v;
            }
        }
        if self.seq != 0 {
            return;
        }
        let mut line = format!("{{\"schema\":\"{SCHEMA}\",\"ev\":\"start\",\"seq\":0,");
        line.push_str("\"provenance\":\"");
        push_json_escaped(&mut line, &info.provenance);
        line.push_str("\",\"config\":\"");
        push_json_escaped(&mut line, &info.config);
        line.push_str("\",\"workload\":\"");
        push_json_escaped(&mut line, &info.workload);
        line.push('"');
        if let Some(seed) = info.seed {
            line.push_str(&format!(",\"seed\":{seed}"));
        }
        line.push_str(&format!(",\"nodes\":{},\"sched\":\"", info.nodes));
        push_json_escaped(&mut line, &info.sched);
        line.push('"');
        if let Some(b) = info.budget_ops {
            line.push_str(&format!(",\"budget_ops\":{b}"));
        }
        line.push_str(",\"metrics\":[");
        for (i, (key, kind)) in self.metrics.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str("{\"name\":\"");
            push_json_escaped(&mut line, key);
            line.push_str("\",\"kind\":\"");
            line.push_str(kind.key());
            line.push_str("\"}");
        }
        line.push_str("],\"classes\":[");
        if self.have_account {
            for (i, class) in StallClass::ALL.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                line.push_str(class.key());
                line.push('"');
            }
        }
        line.push_str("]}");
        self.emit(&line);
        self.seq = 1;
    }

    /// Emits one closed bucket covering `(last_emitted_ps, end_ps]`.
    /// `totals` must be the same stable metric set `begin` registered,
    /// in the same order, with cumulative totals at `end_ps`; `account`
    /// the cumulative per-class ledger at `end_ps` when profiling.
    pub fn bucket(
        &mut self,
        barrier: u32,
        end_ps: u64,
        totals: &[(String, MetricKind, u64)],
        account: Option<&[u64]>,
    ) {
        debug_assert_eq!(totals.len(), self.metrics.len());
        let mut line = format!(
            "{{\"ev\":\"bucket\",\"seq\":{},\"barrier\":{barrier},\"start_ps\":{},\"end_ps\":{end_ps},\"values\":{{",
            self.seq, self.last_ps
        );
        let mut first = true;
        for (i, (key, kind, total)) in totals.iter().enumerate() {
            let Some(prev) = self.prev_totals.get_mut(i) else {
                break;
            };
            let emit_value = match kind {
                // Exact per-window increment.
                MetricKind::Counter | MetricKind::Occupancy => {
                    let d = total.saturating_sub(*prev);
                    (d > 0).then_some(d)
                }
                // Run-wide maximum, only when it moved.
                MetricKind::Gauge => (*total != *prev).then_some(*total),
            };
            if let Some(v) = emit_value {
                if !first {
                    line.push(',');
                }
                first = false;
                line.push('"');
                push_json_escaped(&mut line, key);
                line.push_str(&format!("\":{v}"));
            }
            *prev = *total;
        }
        line.push('}');
        if let Some(acc) = account {
            line.push_str(",\"account\":{");
            let mut first = true;
            for (i, class) in StallClass::ALL.iter().enumerate() {
                let now = acc.get(i).copied().unwrap_or(0);
                let prev = &mut self.prev_account[i];
                let d = now.saturating_sub(*prev);
                *prev = now;
                if d > 0 {
                    if !first {
                        line.push(',');
                    }
                    first = false;
                    line.push_str(&format!("\"{}\":{d}", class.key()));
                }
            }
            line.push('}');
        }
        line.push('}');
        self.emit(&line);
        self.seq += 1;
        self.last_ps = end_ps;
    }

    /// Emits a checkpoint-written marker. Must be called *before* the
    /// checkpoint text is built, so the stored emitter position sits
    /// after this event and a resume never re-emits it.
    pub fn ckpt(&mut self, ckpt_seq: u64, at_ps: u64) {
        let line = format!(
            "{{\"ev\":\"ckpt\",\"seq\":{},\"ckpt\":{ckpt_seq},\"at_ps\":{at_ps}}}",
            self.seq
        );
        self.emit(&line);
        self.seq += 1;
    }

    /// Emits an advisory `progress` event (no `seq`; excluded from the
    /// determinism contract).
    pub fn progress(&mut self, at_ps: u64, sample: &ProgressSample, skew_ps: u64) {
        let mut line = format!(
            "{{\"ev\":\"progress\",\"at_ps\":{at_ps},\"ops\":{},\"rate\":{},\"live\":{}",
            sample.ops, sample.rate, sample.live
        );
        if let Some(f) = sample.budget_frac {
            line.push_str(&format!(",\"budget\":{f}"));
        }
        if let Some(f) = sample.busy {
            line.push_str(&format!(",\"busy\":{f}"));
        }
        if !sample.worker_busy.is_empty() {
            line.push_str(",\"wbusy\":[");
            for (w, f) in sample.worker_busy.iter().enumerate() {
                if w > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{f:.3}"));
            }
            line.push(']');
        }
        line.push_str(&format!(",\"skew_ps\":{skew_ps}}}"));
        self.emit(&line);
    }

    /// Emits the `end` terminator for a finished run.
    pub fn finished(&mut self, at_ps: u64, ops: u64) {
        self.end("ok", at_ps, ops);
    }

    /// Emits the `end` terminator for a failed run, with the
    /// `SimError::kind` string.
    pub fn failed(&mut self, at_ps: u64, ops: u64, kind: &str) {
        self.end(kind, at_ps, ops);
    }

    fn end(&mut self, kind: &str, at_ps: u64, ops: u64) {
        let mut line = format!("{{\"ev\":\"end\",\"seq\":{},\"kind\":\"", self.seq);
        push_json_escaped(&mut line, kind);
        line.push_str(&format!("\",\"at_ps\":{at_ps},\"ops\":{ops}}}"));
        self.emit(&line);
        self.seq += 1;
    }

    fn emit(&mut self, line: &str) {
        if self.dead {
            return;
        }
        if self.sink.emit(line).is_err() {
            // Observability must never fail the run: first sink error
            // kills the stream, the simulation continues.
            self.dead = true;
        }
    }
}

/// One parsed stream event.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Run-started header (deterministic, always `seq` 0).
    Start {
        /// 16-hex provenance hash.
        provenance: String,
        /// Configuration label.
        config: String,
        /// Workload label.
        workload: String,
        /// Workload seed, when declared.
        seed: Option<u64>,
        /// Node count.
        nodes: u64,
        /// Scheduling policy key.
        sched: String,
        /// Watchdog op budget, when armed.
        budget_ops: Option<u64>,
        /// Declared stable metrics as `(name, kind-key)`.
        metrics: Vec<(String, String)>,
        /// Declared stall classes (empty without a profiler).
        classes: Vec<String>,
    },
    /// One closed telemetry bucket (deterministic).
    Bucket {
        /// Dense deterministic sequence number.
        seq: u64,
        /// Barrier variable id of the release that closed the bucket.
        barrier: u64,
        /// Window start (previous quiescent point), picoseconds.
        start_ps: u64,
        /// Window end (this release), picoseconds.
        end_ps: u64,
        /// Counter/occupancy deltas and moved gauge maxima (zero
        /// deltas omitted).
        values: Vec<(String, u64)>,
        /// Per-class accounting deltas in picoseconds; `None` when the
        /// run has no profiler.
        account: Option<Vec<(String, u64)>>,
    },
    /// Checkpoint-written marker (deterministic).
    Ckpt {
        /// Dense deterministic sequence number.
        seq: u64,
        /// Checkpoint sequence number (the sink's `ckpt_seq`).
        ckpt: u64,
        /// Quiescent time the checkpoint snapshots, picoseconds.
        at_ps: u64,
    },
    /// Advisory heartbeat (wall-clock cadence, no `seq`).
    Progress {
        /// Simulated time at the sample, picoseconds.
        at_ps: u64,
        /// Ops executed so far.
        ops: u64,
        /// Whole-run average events/sec.
        rate: f64,
        /// Windowed live events/sec.
        live: f64,
        /// Fraction of the op budget consumed, when armed.
        budget: Option<f64>,
        /// Average worker-pool occupancy over the window (parallel
        /// scheduling policy only).
        busy: Option<f64>,
        /// Per-worker occupancy over the window; empty when absent.
        worker_busy: Vec<f64>,
        /// Current max inter-node clock skew, picoseconds.
        skew_ps: u64,
    },
    /// Run terminator (deterministic): `kind` is `"ok"` or a
    /// `SimError::kind` string.
    End {
        /// Dense deterministic sequence number.
        seq: u64,
        /// `"ok"` or the failure kind.
        kind: String,
        /// Simulated end time, picoseconds.
        at_ps: u64,
        /// Total ops executed.
        ops: u64,
    },
}

impl StreamEvent {
    /// The deterministic sequence number, `None` for advisory events.
    pub fn seq(&self) -> Option<u64> {
        match self {
            StreamEvent::Start { .. } => Some(0),
            StreamEvent::Bucket { seq, .. }
            | StreamEvent::Ckpt { seq, .. }
            | StreamEvent::End { seq, .. } => Some(*seq),
            StreamEvent::Progress { .. } => None,
        }
    }
}

/// Parses one stream line. `Err` carries the reason (also how torn
/// tails are detected: a truncated line never parses).
pub fn parse_line(line: &str) -> Result<StreamEvent, String> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err("not a complete JSON object line".to_string());
    }
    let ev = field_str(line, "ev").ok_or("missing \"ev\"")?;
    match ev {
        "start" => {
            if field_str(line, "schema") != Some(SCHEMA) {
                return Err(format!("start event must declare schema {SCHEMA:?}"));
            }
            let req_str = |name: &str| {
                field_str(line, name)
                    .map(str::to_string)
                    .ok_or_else(|| format!("start missing \"{name}\""))
            };
            let metrics_body = line
                .split("\"metrics\":[")
                .nth(1)
                .and_then(|r| r.split(']').next())
                .ok_or("start missing \"metrics\" array")?;
            let names = scan_strings_after(metrics_body, "\"name\":");
            let kinds = scan_strings_after(metrics_body, "\"kind\":");
            if names.len() != kinds.len() {
                return Err("start metrics: name/kind count mismatch".to_string());
            }
            let classes_body = line
                .split("\"classes\":[")
                .nth(1)
                .and_then(|r| r.split(']').next())
                .ok_or("start missing \"classes\" array")?;
            Ok(StreamEvent::Start {
                provenance: req_str("provenance")?,
                config: req_str("config")?,
                workload: req_str("workload")?,
                seed: field_u64(line, "seed"),
                nodes: field_u64(line, "nodes").ok_or("start missing \"nodes\"")?,
                sched: req_str("sched")?,
                budget_ops: field_u64(line, "budget_ops"),
                metrics: names.into_iter().zip(kinds).collect(),
                classes: scan_strings_after(classes_body, ""),
            })
        }
        "bucket" => Ok(StreamEvent::Bucket {
            seq: field_u64(line, "seq").ok_or("bucket missing \"seq\"")?,
            barrier: field_u64(line, "barrier").ok_or("bucket missing \"barrier\"")?,
            start_ps: field_u64(line, "start_ps").ok_or("bucket missing \"start_ps\"")?,
            end_ps: field_u64(line, "end_ps").ok_or("bucket missing \"end_ps\"")?,
            values: field_map_u64(line, "values").ok_or("bucket missing \"values\"")?,
            account: if line.contains("\"account\":{") {
                Some(field_map_u64(line, "account").ok_or("bucket: malformed \"account\"")?)
            } else {
                None
            },
        }),
        "ckpt" => Ok(StreamEvent::Ckpt {
            seq: field_u64(line, "seq").ok_or("ckpt missing \"seq\"")?,
            ckpt: field_u64(line, "ckpt").ok_or("ckpt missing \"ckpt\"")?,
            at_ps: field_u64(line, "at_ps").ok_or("ckpt missing \"at_ps\"")?,
        }),
        "progress" => {
            let worker_busy = match line.split("\"wbusy\":[").nth(1) {
                None => Vec::new(),
                Some(rest) => {
                    let body = rest
                        .split(']')
                        .next()
                        .ok_or("progress: malformed \"wbusy\"")?;
                    body.split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| {
                            s.trim()
                                .parse::<f64>()
                                .map_err(|_| format!("progress: bad wbusy entry {s:?}"))
                        })
                        .collect::<Result<Vec<f64>, String>>()?
                }
            };
            Ok(StreamEvent::Progress {
                at_ps: field_u64(line, "at_ps").ok_or("progress missing \"at_ps\"")?,
                ops: field_u64(line, "ops").ok_or("progress missing \"ops\"")?,
                rate: field_f64(line, "rate").ok_or("progress missing \"rate\"")?,
                live: field_f64(line, "live").ok_or("progress missing \"live\"")?,
                budget: field_f64(line, "budget"),
                busy: field_f64(line, "busy"),
                worker_busy,
                skew_ps: field_u64(line, "skew_ps").ok_or("progress missing \"skew_ps\"")?,
            })
        }
        "end" => Ok(StreamEvent::End {
            seq: field_u64(line, "seq").ok_or("end missing \"seq\"")?,
            kind: field_str(line, "kind")
                .map(str::to_string)
                .ok_or("end missing \"kind\"")?,
            at_ps: field_u64(line, "at_ps").ok_or("end missing \"at_ps\"")?,
            ops: field_u64(line, "ops").ok_or("end missing \"ops\"")?,
        }),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// A lenient read of a stream text: every event up to the first
/// unparseable line (the torn tail of a killed run).
pub struct StreamReadout {
    /// Parsed events in file order.
    pub events: Vec<StreamEvent>,
    /// Whether reading stopped at an unparseable (torn) line.
    pub torn: bool,
}

/// Reads as many events as parse cleanly, stopping at the first torn
/// line. This is the dashboard/report reader; `validate_jsonl` is the
/// strict one.
pub fn read_events(text: &str) -> StreamReadout {
    let mut events = Vec::new();
    let mut torn = false;
    for (_, line) in numbered_lines(text) {
        match parse_line(line) {
            Ok(ev) => events.push(ev),
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    StreamReadout { events, torn }
}

/// Validates `flashsim-stream-v1` structure and monotonicity: the
/// literal `start` header with a 16-hex provenance, dense deterministic
/// sequence numbers, gapless bucket chaining (`start_ps` equals the
/// previous `end_ps`, starting at 0), checkpoint markers at the last
/// closed bucket's end with increasing checkpoint ids, value/class
/// keys all declared, monotone advisory progress, and nothing after
/// the `end` terminator. A parse failure on the final line is
/// tolerated (torn tail, like the journal); anywhere else it is an
/// error. An empty file is valid — a kill can land before the first
/// flush. This is the `flashsim validate stream` / `check.sh` gate.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    let lines: Vec<(usize, &str)> = numbered_lines(text).collect();
    let Some(((n1, first), rest)) = lines.split_first() else {
        return Ok(());
    };
    let start_prefix =
        format!("{{\"schema\":\"{SCHEMA}\",\"ev\":\"start\",\"seq\":0,\"provenance\":\"");
    let first_parsed = match parse_line(first) {
        Ok(ev) => ev,
        // Torn mid-start: a kill can land that early.
        Err(_) if rest.is_empty() && !first.ends_with('}') => return Ok(()),
        Err(e) => return Err(format!("line {n1}: {e}")),
    };
    if !first.starts_with(&start_prefix) {
        return Err(format!("line {n1}: header must start with {start_prefix}"));
    }
    let StreamEvent::Start {
        provenance,
        metrics,
        classes,
        ..
    } = first_parsed
    else {
        return Err(format!("line {n1}: first event must be \"start\""));
    };
    if provenance.len() != 16 || !provenance.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("line {n1}: provenance must be 16 hex chars"));
    }
    let declared: Vec<&String> = metrics.iter().map(|(name, _)| name).collect();
    let mut next_seq = 1u64;
    let mut last_end: u64 = 0;
    let mut have_bucket = false;
    let mut last_ckpt: Option<u64> = None;
    let mut last_progress: (u64, u64) = (0, 0);
    let mut ended = false;
    for (idx, (n, line)) in rest.iter().enumerate() {
        let is_last = idx + 1 == rest.len();
        let ev = match parse_line(line) {
            Ok(ev) => ev,
            Err(_) if is_last => break, // torn tail
            Err(e) => return Err(format!("line {n}: {e}")),
        };
        if ended {
            return Err(format!("line {n}: event after \"end\" terminator"));
        }
        if matches!(ev, StreamEvent::Start { .. }) {
            return Err(format!("line {n}: duplicate \"start\""));
        }
        if let Some(seq) = ev.seq() {
            if seq != next_seq {
                return Err(format!("line {n}: seq {seq}, expected {next_seq}"));
            }
            next_seq += 1;
        }
        match ev {
            StreamEvent::Start { .. } => {
                return Err(format!("line {n}: duplicate \"start\""));
            }
            StreamEvent::Bucket {
                start_ps,
                end_ps,
                values,
                account,
                ..
            } => {
                if start_ps != last_end {
                    return Err(format!(
                        "line {n}: bucket starts at {start_ps}, previous window ended at {last_end}"
                    ));
                }
                if end_ps < start_ps {
                    return Err(format!("line {n}: bucket ends before it starts"));
                }
                for (key, _) in &values {
                    if !declared.contains(&key) {
                        return Err(format!("line {n}: undeclared metric {key:?}"));
                    }
                }
                for (class, _) in account.iter().flatten() {
                    if !classes.contains(class) {
                        return Err(format!("line {n}: undeclared stall class {class:?}"));
                    }
                }
                last_end = end_ps;
                have_bucket = true;
            }
            StreamEvent::Ckpt { ckpt, at_ps, .. } => {
                if !have_bucket || at_ps != last_end {
                    return Err(format!(
                        "line {n}: checkpoint at {at_ps} is not at the last closed bucket end"
                    ));
                }
                if last_ckpt.is_some_and(|p| ckpt <= p) {
                    return Err(format!("line {n}: checkpoint id {ckpt} not increasing"));
                }
                last_ckpt = Some(ckpt);
            }
            StreamEvent::Progress { at_ps, ops, .. } => {
                let (pat, pops) = last_progress;
                if at_ps < pat || ops < pops {
                    return Err(format!("line {n}: progress went backwards"));
                }
                last_progress = (at_ps, ops);
            }
            StreamEvent::End { at_ps, .. } => {
                if at_ps < last_end {
                    return Err(format!("line {n}: end before the last closed bucket"));
                }
                ended = true;
            }
        }
    }
    Ok(())
}

/// The provenance hash declared by a stream's `start` line, if it has
/// one — the grouping key for cross-file prefix comparison.
pub fn provenance_of(text: &str) -> Option<String> {
    let (_, first) = numbered_lines(text).next()?;
    match parse_line(first) {
        Ok(StreamEvent::Start { provenance, .. }) => Some(provenance),
        _ => None,
    }
}

/// The raw deterministic lines of a stream (bucket/ckpt/end — the
/// `start` line is excluded because it embeds per-run labels such as
/// the scheduling policy), stopping at the torn tail. Two streams with
/// the same provenance hash must agree on these lines up to the length
/// of the shorter — the prefix-stability contract `flashsim validate
/// stream` checks across files.
pub fn deterministic_lines(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (_, line) in numbered_lines(text) {
        match parse_line(line) {
            Ok(StreamEvent::Start { .. }) | Ok(StreamEvent::Progress { .. }) => {}
            Ok(_) => out.push(line.to_string()),
            Err(_) => break,
        }
    }
    out
}

/// The prefix of a stream a restored checkpoint is consistent with:
/// every line up to (excluding) the first deterministic event with
/// `seq >= next_seq`, the emitter position the checkpoint stored.
/// Trailing advisory lines past that point and the torn tail are
/// dropped. The journal rewrites a cell's stream with this before
/// resuming, so the re-attached emitter appends exactly the events the
/// straight run would have produced.
pub fn consistent_prefix(text: &str, next_seq: u64) -> String {
    let mut out = String::new();
    for (_, line) in numbered_lines(text) {
        match parse_line(line) {
            Ok(ev) => {
                if ev.seq().is_some_and(|s| s >= next_seq) {
                    break;
                }
                out.push_str(line);
                out.push('\n');
                if ev.seq().is_some_and(|s| s + 1 == next_seq) {
                    // The checkpoint stored the emitter position right
                    // after this event. Advisory seq-less lines beyond
                    // it are the dead run's rolled-back future: keeping
                    // them would let the spliced stream's progress run
                    // ahead of the resumed run's first heartbeat.
                    break;
                }
            }
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn info() -> RunInfo {
        RunInfo {
            provenance: "0123456789abcdef".to_string(),
            config: "sim/batched".to_string(),
            workload: "fft".to_string(),
            seed: Some(42),
            nodes: 2,
            sched: "batched".to_string(),
            budget_ops: Some(1000),
        }
    }

    fn metric_set(a: u64, b: u64, g: u64) -> Vec<(String, MetricKind, u64)> {
        vec![
            ("mem.l1_hits".to_string(), MetricKind::Counter, a),
            ("net.busy_ps".to_string(), MetricKind::Occupancy, b),
            ("evq.depth".to_string(), MetricKind::Gauge, g),
        ]
    }

    fn emit_run(buckets: &[(u32, u64, u64, u64, u64)]) -> String {
        let (sink, buf) = MemorySink::new();
        let mut em = StreamEmitter::new(Box::new(sink));
        em.begin(&info(), &metric_set(0, 0, 0), Some(&[0; StallClass::COUNT]));
        let mut acc = [0u64; StallClass::COUNT];
        for (barrier, end, a, b, g) in buckets {
            acc[0] += end / 2;
            acc[6] += end / 4;
            em.bucket(*barrier, *end, &metric_set(*a, *b, *g), Some(&acc));
        }
        em.ckpt(0, buckets.last().map(|x| x.1).unwrap_or(0));
        em.finished(buckets.last().map(|x| x.1).unwrap_or(0) + 5, 999);
        buf.lock().map(|b| b.clone()).unwrap_or_default()
    }

    #[test]
    fn emitter_roundtrip_validates_and_parses() {
        let text = emit_run(&[
            (7, 100, 10, 50, 3),
            (7, 250, 25, 80, 3),
            (9, 400, 25, 90, 7),
        ]);
        validate_jsonl(&text).expect("stream validates");
        let readout = read_events(&text);
        assert!(!readout.torn);
        assert_eq!(readout.events.len(), 6);
        match &readout.events[0] {
            StreamEvent::Start {
                provenance,
                metrics,
                classes,
                seed,
                budget_ops,
                ..
            } => {
                assert_eq!(provenance, "0123456789abcdef");
                assert_eq!(metrics.len(), 3);
                assert_eq!(classes.len(), StallClass::COUNT);
                assert_eq!(*seed, Some(42));
                assert_eq!(*budget_ops, Some(1000));
            }
            other => panic!("expected start, got {other:?}"),
        }
        // Bucket 2: counter delta 15, occupancy delta 30, gauge
        // unchanged (omitted).
        match &readout.events[2] {
            StreamEvent::Bucket {
                seq,
                start_ps,
                end_ps,
                values,
                account,
                ..
            } => {
                assert_eq!(*seq, 2);
                assert_eq!((*start_ps, *end_ps), (100, 250));
                assert_eq!(
                    values,
                    &vec![
                        ("mem.l1_hits".to_string(), 15),
                        ("net.busy_ps".to_string(), 30)
                    ]
                );
                assert!(account.as_ref().is_some_and(|a| !a.is_empty()));
            }
            other => panic!("expected bucket, got {other:?}"),
        }
        // Bucket 3: only the gauge moved (3 → 7) plus occupancy.
        match &readout.events[3] {
            StreamEvent::Bucket { values, .. } => {
                assert_eq!(
                    values,
                    &vec![
                        ("net.busy_ps".to_string(), 10),
                        ("evq.depth".to_string(), 7)
                    ]
                );
            }
            other => panic!("expected bucket, got {other:?}"),
        }
        match readout.events.last() {
            Some(StreamEvent::End { seq, kind, ops, .. }) => {
                assert_eq!(*seq, 5);
                assert_eq!(kind, "ok");
                assert_eq!(*ops, 999);
            }
            other => panic!("expected end, got {other:?}"),
        }
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let good = emit_run(&[(1, 100, 5, 5, 1), (1, 200, 9, 9, 1)]);
        validate_jsonl(&good).expect("baseline validates");
        // Wrong schema.
        assert!(validate_jsonl("{\"schema\":\"nope\",\"ev\":\"start\",\"seq\":0}\n").is_err());
        // Duplicate start.
        let first = good.lines().next().map(str::to_string).unwrap_or_default();
        let dup = format!("{first}\n{first}\n");
        assert!(validate_jsonl(&dup).unwrap_err().contains("duplicate"));
        // Seq gap: drop the middle deterministic line.
        let gapped: Vec<&str> = good
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| l)
            .collect();
        assert!(validate_jsonl(&(gapped.join("\n") + "\n"))
            .unwrap_err()
            .contains("seq"));
        // Undeclared metric key (renamed only in a bucket line, so the
        // declaration no longer covers it).
        let bad2: String = good
            .lines()
            .map(|l| {
                if l.contains("\"ev\":\"bucket\"") && l.contains("\"seq\":1") {
                    l.replace("mem.l1_hits", "mem.unknown")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(validate_jsonl(&bad2).unwrap_err().contains("undeclared"));
        // Garbage in the middle is an error; garbage at the tail is a
        // tolerated torn write.
        let mut mid_garbage: Vec<String> = good.lines().map(str::to_string).collect();
        mid_garbage.insert(2, "{\"ev\":\"bucket\",\"seq\":".to_string());
        assert!(validate_jsonl(&mid_garbage.join("\n")).is_err());
        let torn = format!("{good}{{\"ev\":\"bucket\",\"seq\":6,\"barr");
        // An event after "end" is invalid even as a complete line, but
        // the torn fragment is skipped silently... the terminator came
        // first here, so the torn line must still be tolerated.
        validate_jsonl(&torn).expect("torn tail tolerated");
        // Empty stream file: a kill can land before the first flush.
        validate_jsonl("").expect("empty stream tolerated");
    }

    #[test]
    fn validator_enforces_bucket_chain_and_ckpt_placement() {
        let good = emit_run(&[(1, 100, 5, 5, 1), (1, 200, 9, 9, 1)]);
        let broken_chain: String = good
            .lines()
            .map(|l| {
                if l.contains("\"seq\":2") && l.contains("\"ev\":\"bucket\"") {
                    l.replace("\"start_ps\":100", "\"start_ps\":150")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(validate_jsonl(&broken_chain)
            .unwrap_err()
            .contains("previous window"));
        let moved_ckpt: String = good
            .lines()
            .map(|l| {
                if l.contains("\"ev\":\"ckpt\"") {
                    l.replace("\"at_ps\":200", "\"at_ps\":150")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(validate_jsonl(&moved_ckpt)
            .unwrap_err()
            .contains("closed bucket end"));
    }

    #[test]
    fn consistent_prefix_truncates_for_resume() {
        let text = emit_run(&[(1, 100, 5, 5, 1), (1, 200, 9, 9, 1), (2, 300, 12, 12, 2)]);
        // Position after the ckpt event (seq 4 is next): keep start +
        // 3 buckets + ckpt = seqs 0..=4.
        let prefix = consistent_prefix(&text, 5);
        let kept: Vec<&str> = prefix.lines().collect();
        assert_eq!(kept.len(), 5);
        assert!(kept[4].contains("\"ev\":\"ckpt\""));
        // The full text is prefix + the end line.
        let continued: Vec<&str> = text.lines().skip(5).collect();
        assert_eq!(continued.len(), 1);
        assert!(continued[0].contains("\"ev\":\"end\""));
        // Torn tails are dropped too.
        let torn = format!("{text}{{\"ev\":\"buck");
        assert_eq!(consistent_prefix(&torn, u64::MAX), text);
    }

    #[test]
    fn consistent_prefix_drops_the_dead_runs_advisory_tail() {
        // A dead run often emits wall-clock progress lines after the
        // checkpoint it is later restored from. Those describe rolled-
        // back execution and can run ahead of the resumed run's first
        // heartbeat, so the splice must not keep them.
        let text = emit_run(&[(1, 100, 5, 5, 1), (1, 200, 9, 9, 1)]);
        let ckpt_line = text
            .lines()
            .position(|l| l.contains("\"ev\":\"ckpt\""))
            .expect("run has a ckpt");
        let next_seq = (ckpt_line + 1) as u64;
        let mut interleaved: Vec<String> = text.lines().map(str::to_owned).collect();
        interleaved.insert(
            ckpt_line + 1,
            "{\"ev\":\"progress\",\"at_ps\":260,\"ops\":40,\"rate\":1.0,\"live\":1.0,\"skew_ps\":0}"
                .to_owned(),
        );
        let spliced_src = format!("{}\n", interleaved.join("\n"));
        let prefix = consistent_prefix(&spliced_src, next_seq);
        assert!(
            !prefix.contains("\"ev\":\"progress\""),
            "post-checkpoint advisory lines must be trimmed"
        );
        assert!(prefix
            .lines()
            .last()
            .expect("non-empty")
            .contains("\"ev\":\"ckpt\""));
        // Advisory lines *before* the checkpoint are real history and
        // stay.
        let mut early: Vec<String> = text.lines().map(str::to_owned).collect();
        early.insert(
            ckpt_line,
            "{\"ev\":\"progress\",\"at_ps\":210,\"ops\":30,\"rate\":1.0,\"live\":1.0,\"skew_ps\":0}"
                .to_owned(),
        );
        let early_src = format!("{}\n", early.join("\n"));
        let kept = consistent_prefix(&early_src, next_seq);
        assert!(kept.contains("\"ev\":\"progress\""));
        assert!(kept
            .lines()
            .last()
            .expect("non-empty")
            .contains("\"ev\":\"ckpt\""));
    }

    #[test]
    fn deterministic_lines_skip_start_and_progress() {
        let (sink, buf) = MemorySink::new();
        let mut em = StreamEmitter::new(Box::new(sink));
        em.begin(&info(), &metric_set(0, 0, 0), None);
        em.bucket(1, 50, &metric_set(3, 0, 0), None);
        em.progress(
            50,
            &ProgressSample {
                ops: 10,
                rate: 5.0,
                live: 7.5,
                budget_frac: Some(0.01),
                busy: Some(0.5),
                worker_busy: vec![0.75, 0.25],
            },
            123,
        );
        em.finished(60, 10);
        let text = buf.lock().map(|b| b.clone()).unwrap_or_default();
        validate_jsonl(&text).expect("validates");
        let det = deterministic_lines(&text);
        assert_eq!(det.len(), 2);
        assert!(det[0].contains("\"ev\":\"bucket\""));
        assert!(det[1].contains("\"ev\":\"end\""));
        // The advisory line parsed correctly too.
        let readout = read_events(&text);
        assert!(matches!(
            readout.events[2],
            StreamEvent::Progress {
                ops: 10,
                skew_ps: 123,
                ..
            }
        ));
        if let StreamEvent::Progress { worker_busy, .. } = &readout.events[2] {
            assert_eq!(worker_busy, &[0.75, 0.25], "wbusy array roundtrips");
        }
    }

    #[test]
    fn resumed_emitter_continues_byte_identically() {
        let straight = emit_run(&[(1, 100, 5, 5, 1), (1, 200, 9, 9, 1), (2, 300, 12, 12, 2)]);
        // Simulate the kill-resume path: truncate at the checkpointed
        // position (after start + first bucket: next_seq 2, last 100),
        // then re-seed an emitter with the restored baselines and
        // replay the remaining barriers.
        let prefix = consistent_prefix(&straight, 2);
        let (sink, buf) = MemorySink::new();
        let mut em = StreamEmitter::new(Box::new(sink));
        em.set_position(2, 100);
        let mut acc = [0u64; StallClass::COUNT];
        acc[0] = 50;
        acc[6] = 25;
        em.begin(&info(), &metric_set(5, 5, 1), Some(&acc));
        acc[0] += 100;
        acc[6] += 50;
        em.bucket(1, 200, &metric_set(9, 9, 1), Some(&acc));
        acc[0] += 150;
        acc[6] += 75;
        em.bucket(2, 300, &metric_set(12, 12, 2), Some(&acc));
        em.ckpt(0, 300);
        em.finished(305, 999);
        let tail = buf.lock().map(|b| b.clone()).unwrap_or_default();
        assert_eq!(format!("{prefix}{tail}"), straight);
    }

    #[test]
    fn progress_meter_windows_are_exact() {
        let mut meter = ProgressMeter::start();
        let t0 = meter.started;
        let s1 = meter.sample(t0 + Duration::from_secs(2), 100, Some(1000));
        assert_eq!(s1.ops, 100);
        assert!((s1.rate - 50.0).abs() < 1e-9);
        assert!((s1.live - 50.0).abs() < 1e-9);
        assert!((s1.budget_frac.unwrap_or(0.0) - 0.1).abs() < 1e-12);
        // Second window: 2s more, 300 new ops → live 150/s, rate 100/s.
        let s2 = meter.sample(t0 + Duration::from_secs(4), 400, None);
        assert!((s2.rate - 100.0).abs() < 1e-9);
        assert!((s2.live - 150.0).abs() < 1e-9);
        assert!(s2.budget_frac.is_none());
        assert!(meter.due(t0 + Duration::from_secs(5), Duration::from_millis(900)));
        assert!(!meter.due(t0 + Duration::from_secs(4), Duration::from_millis(900)));
    }
}
