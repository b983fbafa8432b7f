//! Crash-consistent run journaling: every long matrix becomes resumable.
//!
//! A large experiment matrix (hundreds of supervised cells, hours of host
//! time) historically had all-or-nothing durability: kill the process and
//! every finished cell's work evaporated. [`run_matrix_journaled`] closes
//! that gap with two pieces of on-disk state, both written so that a kill
//! at *any* instant leaves a resumable directory:
//!
//! - an **append-only journal** (`journal.log`): one line per event —
//!   `start <cell> <identity-hash>` when a cell begins, `ckpt <cell>
//!   <seq> <barrier-ps>` after a checkpoint file is durably renamed into
//!   place, `finish <cell> <kind>` after the cell's artifacts file is
//!   durable. Lines are appended and flushed one at a time, so the only
//!   possible damage from a crash is a torn final line, which the parser
//!   tolerates by construction.
//! - **side files** written temp-then-rename: `cell<i>.ckpt-<seq>`
//!   (a `flashsim-ckpt-v1` machine snapshot emitted at a barrier release)
//!   and `cell<i>.artifacts` (the canonical result rendering). Because
//!   the journal only mentions a file *after* its rename, a journal entry
//!   is a promise the file exists and is complete.
//!
//! On re-entry into the same directory, finished cells are skipped
//! outright, mid-run cells are restored from their newest valid
//! checkpoint (walking back to older ones if the newest is damaged), and
//! a cell with no usable checkpoint restarts from zero with the reason
//! recorded — the matrix *converges* rather than failing. Restored cells
//! finish byte-identical to an uninterrupted run, which is what lets the
//! chaos harness assert kill-and-resume equivalence at the file level.
//!
//! This is the one way a long run survives: there is no live event
//! protocol and no dashboard. A run is observed after it ends (its
//! artifacts, `flashsim report`); while it runs, progress is the stderr
//! line of [`MachineConfig::heartbeat`].

use crate::runner::{failed_manifest, parallel_map, supervise, CellOutcome, MatrixCell};
use flashsim_engine::{ckpt, Schema};
use flashsim_isa::Program;
use flashsim_machine::{Machine, MachineConfig};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// First line of every run journal.
pub const JOURNAL_MAGIC: &str = "flashsim-journal-v1";
/// First line of every artifacts file.
pub const ARTIFACTS_MAGIC: &str = "flashsim-artifacts-v1";

/// Path of the journal inside a run directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.log")
}

/// Path of cell `idx`'s artifacts file inside a run directory.
pub fn artifacts_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("cell{idx}.artifacts"))
}

/// Path of cell `idx`'s checkpoint `seq` inside a run directory.
pub fn ckpt_path(dir: &Path, idx: usize, seq: u64) -> PathBuf {
    dir.join(format!("cell{idx}.ckpt-{seq}"))
}

/// Path of cell `idx`'s host-time self-profile (`flashsim-hostprof-v1`
/// JSONL) inside a run directory. Written only when the cell ran with
/// [`MachineConfig::hostprof`] enabled; host wall-clock numbers vary
/// run to run, so the profile is a side file and deliberately never
/// part of the deterministic artifacts.
pub fn hostprof_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("cell{idx}.hostprof"))
}

/// The stable identity hash of one matrix cell — everything that shapes
/// its simulated behaviour, including a fingerprint of the workload's
/// actual op streams (names and seeds alone can collide across workload
/// parameterizations). Recorded on the journal's `start` line so a
/// resume against an edited matrix re-runs the changed cells instead of
/// splicing their old state in.
pub fn cell_identity(cfg: &MachineConfig, program: &dyn Program) -> String {
    ckpt::provenance_hash(&format!(
        "{}|{}|{}|{:?}|{:016x}|{}|{:?}|{:?}|{:?}|{}",
        cfg.label(),
        program.name(),
        program.num_threads(),
        program.seed(),
        program.fingerprint(),
        cfg.sched.key(),
        cfg.faults,
        cfg.telemetry,
        cfg.spans,
        cfg.profile,
    ))
}

/// How a journaled cell's work came to be this invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeNote {
    /// No prior journal state: the cell ran from scratch.
    Fresh,
    /// A prior invocation finished this cell; its artifacts were reused
    /// and nothing was re-run.
    SkippedFinished,
    /// The cell was restored from checkpoint `seq` (taken at simulated
    /// time `barrier_ps`) and run to completion from there.
    Resumed {
        /// Checkpoint sequence number the cell resumed from.
        seq: u64,
        /// Simulated barrier-release time (ps) of that checkpoint.
        barrier_ps: u64,
    },
    /// Prior state existed but no checkpoint was usable (corrupt,
    /// truncated, or from a different run identity); the cell restarted
    /// from zero. This is the graceful-degradation path: the matrix still
    /// converges, just with less work saved.
    RestartedFromZero {
        /// Why the newest rejected checkpoint was unusable.
        reason: String,
    },
}

impl fmt::Display for ResumeNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeNote::Fresh => write!(f, "fresh"),
            ResumeNote::SkippedFinished => write!(f, "skipped (already finished)"),
            ResumeNote::Resumed { seq, barrier_ps } => {
                write!(f, "resumed from ckpt {seq} at {barrier_ps} ps")
            }
            ResumeNote::RestartedFromZero { reason } => {
                write!(f, "restarted from zero ({reason})")
            }
        }
    }
}

/// One cell's report from a journaled matrix run.
#[derive(Debug)]
pub struct CellReport {
    /// Cell index in the input matrix.
    pub index: usize,
    /// How this invocation obtained the cell's result.
    pub resume: ResumeNote,
    /// The outcome, if the cell actually ran this invocation; `None` for
    /// cells skipped as already finished (their result lives in the
    /// artifacts file).
    pub outcome: Option<CellOutcome>,
    /// Path of the cell's durable artifacts file.
    pub artifacts: PathBuf,
}

/// Prior journal state for one cell.
#[derive(Debug, Default, Clone)]
struct Prior {
    /// Identity hash from the cell's most recent `start` line.
    hash: Option<String>,
    /// `(seq, barrier_ps)` of every durably recorded checkpoint.
    ckpts: Vec<(u64, u64)>,
    /// Outcome kind from a `finish` line, if the cell ever finished.
    finished: Option<String>,
}

/// Parses a journal, tolerating the torn final line a crash can leave.
/// Unknown or malformed lines are skipped — the journal is advisory
/// state whose every claim is re-verified against the files it names.
fn parse_journal(text: &str, cells: usize) -> Vec<Prior> {
    let mut prior = vec![Prior::default(); cells];
    let mut lines: Vec<&str> = text.split('\n').collect();
    // The final element is either the empty tail after a trailing
    // newline or a torn half-written line; neither is usable.
    lines.pop();
    let mut it = lines.into_iter();
    if it.next() != Some(JOURNAL_MAGIC) {
        return prior;
    }
    for line in it {
        let mut f = line.split_ascii_whitespace();
        let (Some(tag), Some(idx)) = (f.next(), f.next().and_then(|s| s.parse::<usize>().ok()))
        else {
            continue;
        };
        if idx >= cells {
            continue;
        }
        match tag {
            "start" => {
                if let Some(h) = f.next() {
                    prior[idx].hash = Some(h.to_owned());
                    // A new start supersedes any earlier finish; recorded
                    // checkpoints stay usable (restore re-verifies them).
                    prior[idx].finished = None;
                }
            }
            "ckpt" => {
                if let (Some(seq), Some(ps)) = (
                    f.next().and_then(|s| s.parse::<u64>().ok()),
                    f.next().and_then(|s| s.parse::<u64>().ok()),
                ) {
                    prior[idx].ckpts.push((seq, ps));
                }
            }
            "finish" => {
                if let Some(kind) = f.next() {
                    prior[idx].finished = Some(kind.to_owned());
                }
            }
            _ => {}
        }
    }
    prior
}

/// Writes `text` to `path` via a temp file and an atomic rename, so a
/// crash mid-write can never leave a half-written file under the final
/// name.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// The shared append-only journal handle. Appends are best-effort: a
/// failed append costs future resumability, never current correctness.
struct Journal {
    file: Mutex<fs::File>,
}

impl Journal {
    fn append(&self, line: &str) {
        if let Ok(mut f) = self.file.lock() {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

/// Renders a cell outcome into the canonical `flashsim-artifacts-v1`
/// text: result summary, statistics, accounting, telemetry JSONL, and
/// span JSONL. Every field is simulation-deterministic (host throughput
/// numbers are deliberately excluded), so an interrupted-then-resumed
/// cell's artifacts are byte-identical to an uninterrupted run's.
pub fn render_artifacts(outcome: &CellOutcome) -> String {
    let mut out = String::new();
    out.push_str(ARTIFACTS_MAGIC);
    out.push('\n');
    match outcome {
        CellOutcome::Completed(r) => {
            out.push_str("[result]\nkind=ok\n");
            out.push_str(&format!("workload={}\n", r.manifest.workload));
            out.push_str(&format!("config={}\n", r.manifest.config));
            out.push_str(&format!("total_ps={}\n", r.total_time.as_ps()));
            out.push_str(&format!("parallel_ps={}\n", r.parallel_time.as_ps()));
            let ops: Vec<String> = r.ops_per_node.iter().map(u64::to_string).collect();
            out.push_str(&format!("ops_per_node={}\n", ops.join(",")));
            let rels: Vec<String> = r
                .barrier_releases
                .iter()
                .map(|(id, t)| format!("{id}:{}", t.as_ps()))
                .collect();
            out.push_str(&format!("barriers={}\n", rels.join(",")));
            out.push_str("[stats]\n");
            out.push_str(&r.stats.to_json());
            out.push('\n');
            out.push_str("[accounting]\n");
            match &r.accounting {
                Some(acc) => out.push_str(&acc.to_json()),
                None => out.push_str("none"),
            }
            out.push('\n');
            out.push_str("[telemetry]\n");
            match &r.telemetry {
                Some(t) => out.push_str(&t.to_jsonl()),
                None => out.push_str("none\n"),
            }
            out.push_str("[spans]\n");
            match &r.spans {
                Some(s) => out.push_str(&s.to_jsonl()),
                None => out.push_str("none\n"),
            }
        }
        CellOutcome::Failed { error, manifest } => {
            out.push_str("[result]\n");
            out.push_str(&format!("kind={}\n", error.kind()));
            out.push_str(&format!("workload={}\n", manifest.workload));
            out.push_str(&format!("config={}\n", manifest.config));
            out.push_str(&format!(
                "error={}\n",
                format!("{error}").replace('\n', "\\n")
            ));
        }
    }
    out
}

/// Runs an experiment matrix with a crash-consistent journal in `dir`:
/// the supervised semantics of [`crate::runner::run_matrix`], plus
/// durable per-cell checkpoints at every barrier release and resumability
/// after a kill. Re-invoking on the same directory skips finished cells,
/// restores mid-run cells from their newest valid checkpoint, and
/// restarts cells whose checkpoints were damaged — recording which of
/// those happened in each [`CellReport::resume`].
///
/// `budget` is the same per-cell watchdog op budget as `run_matrix`,
/// applied only to cells whose own watchdog is unbounded (a configured
/// wall-clock limit is preserved).
///
/// # Errors
///
/// Only directory/journal *setup* failures surface as `Err`; per-cell
/// I/O problems degrade to fewer resume points, and per-cell simulation
/// failures are [`CellOutcome::Failed`] like any supervised run.
pub fn run_matrix_journaled(
    cells: Vec<MatrixCell>,
    budget: Option<u64>,
    dir: &Path,
) -> std::io::Result<Vec<CellReport>> {
    fs::create_dir_all(dir)?;
    let jpath = journal_path(dir);
    let prior_text = fs::read_to_string(&jpath).unwrap_or_default();
    let fresh_journal = !prior_text.starts_with(JOURNAL_MAGIC);
    let prior = parse_journal(&prior_text, cells.len());
    let mut opts = fs::OpenOptions::new();
    opts.create(true).write(true);
    if fresh_journal {
        opts.truncate(true);
    } else {
        opts.append(true);
    }
    let mut file = opts.open(&jpath)?;
    if fresh_journal {
        writeln!(file, "{JOURNAL_MAGIC}")?;
        file.flush()?;
    }
    let journal = Arc::new(Journal {
        file: Mutex::new(file),
    });

    let jobs: Vec<(usize, MatrixCell, Prior)> = cells
        .into_iter()
        .zip(prior)
        .enumerate()
        .map(|(idx, (cell, p))| (idx, cell, p))
        .collect();

    Ok(parallel_map(jobs, |(idx, (mut cfg, prog), prior)| {
        if cfg.watchdog.max_ops.is_none() {
            if let Some(b) = budget {
                cfg.watchdog.max_ops = Some(b);
            }
        }
        let apath = artifacts_path(dir, idx);
        let expected = cell_identity(&cfg, prog.as_ref());
        let identity_matches = prior.hash.as_deref() == Some(expected.as_str());
        if prior.finished.is_some() && identity_matches && apath.exists() {
            return CellReport {
                index: idx,
                resume: ResumeNote::SkippedFinished,
                outcome: None,
                artifacts: apath,
            };
        }
        // Hunt for the newest usable checkpoint, walking back through
        // older ones when the newest is corrupt or truncated.
        let mut resume = ResumeNote::Fresh;
        let mut machine: Option<Machine> = None;
        if identity_matches && !prior.ckpts.is_empty() {
            let mut rejected: Option<String> = None;
            let mut ckpts = prior.ckpts.clone();
            ckpts.sort_unstable();
            ckpts.dedup();
            for &(seq, ps) in ckpts.iter().rev() {
                let attempt = fs::read_to_string(ckpt_path(dir, idx, seq))
                    .map_err(|e| e.to_string())
                    .and_then(|text| {
                        Schema::Ckpt
                            .validate(&text)
                            .map_err(|e| format!("checkpoint rejected: {e}"))?;
                        Machine::restore(cfg.clone(), prog.as_ref(), &text)
                            .map_err(|e| e.to_string())
                    });
                match attempt {
                    Ok(m) => {
                        machine = Some(m);
                        resume = ResumeNote::Resumed {
                            seq,
                            barrier_ps: ps,
                        };
                        break;
                    }
                    Err(e) => {
                        if rejected.is_none() {
                            rejected = Some(e);
                        }
                    }
                }
            }
            if machine.is_none() {
                if let Some(reason) = rejected {
                    resume = ResumeNote::RestartedFromZero { reason };
                }
            }
        } else if prior.hash.is_some() && !identity_matches {
            resume = ResumeNote::RestartedFromZero {
                reason: "journal identity mismatch".to_owned(),
            };
        }
        journal.append(&format!("start {idx} {expected}"));
        let manifest = Box::new(failed_manifest(&cfg, prog.as_ref()));
        let sink_dir = dir.to_path_buf();
        let sink_journal = Arc::clone(&journal);
        let outcome = supervise(manifest, move || {
            let mut m = match machine {
                Some(m) => m,
                None => Machine::new(cfg, prog.as_ref())?,
            };
            m.attach_ckpt_sink(Box::new(move |seq, at, text| {
                // Journal the checkpoint only once its file is durably in
                // place; a failed write just forfeits one resume point.
                let path = ckpt_path(&sink_dir, idx, seq);
                if write_atomic(&path, text).is_ok() {
                    sink_journal.append(&format!("ckpt {idx} {seq} {}", at.as_ps()));
                }
            }));
            m.run()
        });
        let kind = outcome.error().map_or("ok", |e| e.kind());
        let _ = write_atomic(&apath, &render_artifacts(&outcome));
        if let CellOutcome::Completed(r) = &outcome {
            if let Some(host) = &r.hostprof {
                let _ = write_atomic(&hostprof_path(dir, idx), &host.to_jsonl());
            }
        }
        journal.append(&format!("finish {idx} {kind}"));
        CellReport {
            index: idx,
            resume,
            outcome: Some(outcome),
            artifacts: apath,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Study;
    use flashsim_workloads::micro::RestartProbe;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flashsim-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_cells() -> Vec<MatrixCell> {
        let study = Study::scaled();
        vec![
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(2_000)) as Arc<dyn Program>,
            ),
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(3_000)) as Arc<dyn Program>,
            ),
        ]
    }

    #[test]
    fn journaled_matrix_writes_journal_and_artifacts() {
        let dir = tmpdir("fresh");
        let reports = run_matrix_journaled(small_cells(), Some(10_000_000), &dir).unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.resume, ResumeNote::Fresh);
            assert!(r.outcome.as_ref().is_some_and(CellOutcome::is_completed));
            let text = fs::read_to_string(&r.artifacts).unwrap();
            assert!(text.starts_with(ARTIFACTS_MAGIC));
            assert!(text.contains("kind=ok"));
            assert!(text.contains("[stats]"));
        }
        let journal = fs::read_to_string(journal_path(&dir)).unwrap();
        assert!(journal.starts_with(JOURNAL_MAGIC));
        assert!(journal.contains("start 0 ") && journal.contains("start 1 "));
        assert!(journal.contains("finish 0 ok") && journal.contains("finish 1 ok"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_cells_are_skipped_on_resume() {
        let dir = tmpdir("skip");
        run_matrix_journaled(small_cells(), Some(10_000_000), &dir).unwrap();
        let before = fs::read_to_string(artifacts_path(&dir, 0)).unwrap();
        let again = run_matrix_journaled(small_cells(), Some(10_000_000), &dir).unwrap();
        for r in &again {
            assert_eq!(r.resume, ResumeNote::SkippedFinished);
            assert!(r.outcome.is_none());
        }
        assert_eq!(
            fs::read_to_string(artifacts_path(&dir, 0)).unwrap(),
            before,
            "skipped cells must not rewrite artifacts"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn edited_cell_identity_forces_a_rerun() {
        let dir = tmpdir("identity");
        run_matrix_journaled(small_cells(), Some(10_000_000), &dir).unwrap();
        // Same directory, different workload length => new identity.
        let study = Study::scaled();
        let edited: Vec<MatrixCell> = vec![
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(2_500)) as Arc<dyn Program>,
            ),
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(3_000)) as Arc<dyn Program>,
            ),
        ];
        let reports = run_matrix_journaled(edited, Some(10_000_000), &dir).unwrap();
        assert!(matches!(
            reports[0].resume,
            ResumeNote::RestartedFromZero { .. }
        ));
        assert!(reports[0].outcome.is_some());
        assert_eq!(reports[1].resume, ResumeNote::SkippedFinished);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One 2-node FFT cell: multi-barrier, so it emits several
    /// checkpoints per run. Telemetry and profiling are on so their
    /// checkpointed state is exercised by the kill/resume byte-compare.
    fn fft_cells() -> Vec<MatrixCell> {
        use flashsim_workloads::{Fft, FftBlocking};
        let study = Study::scaled();
        let mut cfg = study.hardware(2);
        cfg.telemetry = Some(flashsim_engine::TimeDelta::from_us(1));
        cfg.profile = true;
        vec![(
            cfg,
            Arc::new(Fft::new(1 << 10, 2, FftBlocking::Tlb)) as Arc<dyn Program>,
        )]
    }

    /// Forges a directory that looks exactly like a run killed after
    /// `keep` checkpoints: header, `start`, the first `keep` `ckpt`
    /// lines (copied verbatim from a straight run's journal), a torn
    /// tail, and the checkpoint files themselves.
    fn forge_crash_dir(tag: &str, gold_dir: &Path, keep: u64) -> PathBuf {
        let dir = tmpdir(tag);
        fs::create_dir_all(&dir).unwrap();
        for seq in 0..keep {
            fs::copy(ckpt_path(gold_dir, 0, seq), ckpt_path(&dir, 0, seq)).unwrap();
        }
        let gold_journal = fs::read_to_string(journal_path(gold_dir)).unwrap();
        let mut journal = String::new();
        for line in gold_journal.lines() {
            let is_ckpt = line.starts_with("ckpt 0 ");
            if line == JOURNAL_MAGIC || line.starts_with("start 0 ") || is_ckpt {
                let seq_ok = !is_ckpt
                    || line
                        .split_ascii_whitespace()
                        .nth(2)
                        .and_then(|s| s.parse::<u64>().ok())
                        .is_some_and(|s| s < keep);
                if seq_ok {
                    journal.push_str(line);
                    journal.push('\n');
                }
            }
        }
        journal.push_str("finish 0 o"); // torn final line, no newline
        fs::write(journal_path(&dir), journal).unwrap();
        dir
    }

    #[test]
    fn kill_and_resume_converges_byte_identical() {
        let gold_dir = tmpdir("gold");
        let gold = run_matrix_journaled(fft_cells(), Some(100_000_000), &gold_dir).unwrap();
        assert!(gold[0]
            .outcome
            .as_ref()
            .is_some_and(CellOutcome::is_completed));
        let gold_bytes = fs::read_to_string(artifacts_path(&gold_dir, 0)).unwrap();
        let n_ckpts = fs::read_to_string(journal_path(&gold_dir))
            .unwrap()
            .lines()
            .filter(|l| l.starts_with("ckpt 0 "))
            .count() as u64;
        assert!(n_ckpts >= 2, "multi-barrier FFT must checkpoint repeatedly");

        // Killed after two checkpoints: resumes from the newest.
        let dir = forge_crash_dir("crash", &gold_dir, 2);
        let resumed = run_matrix_journaled(fft_cells(), Some(100_000_000), &dir).unwrap();
        assert!(
            matches!(resumed[0].resume, ResumeNote::Resumed { seq: 1, .. }),
            "got {:?}",
            resumed[0].resume
        );
        assert_eq!(
            fs::read_to_string(artifacts_path(&dir, 0)).unwrap(),
            gold_bytes,
            "resumed artifacts must be byte-identical to the straight run"
        );

        // Newest checkpoint corrupted: falls back to the older one.
        let dir = forge_crash_dir("crash-corrupt", &gold_dir, 2);
        let path = ckpt_path(&dir, 0, 1);
        let bad = fs::read_to_string(&path)
            .unwrap()
            .replace("consumed=", "consumed=9");
        fs::write(&path, bad).unwrap();
        let resumed = run_matrix_journaled(fft_cells(), Some(100_000_000), &dir).unwrap();
        assert!(
            matches!(resumed[0].resume, ResumeNote::Resumed { seq: 0, .. }),
            "got {:?}",
            resumed[0].resume
        );
        assert_eq!(
            fs::read_to_string(artifacts_path(&dir, 0)).unwrap(),
            gold_bytes
        );

        // Every checkpoint destroyed: restart from zero, still identical.
        let dir = forge_crash_dir("crash-zero", &gold_dir, 2);
        for seq in 0..2 {
            fs::write(ckpt_path(&dir, 0, seq), "garbage").unwrap();
        }
        let resumed = run_matrix_journaled(fft_cells(), Some(100_000_000), &dir).unwrap();
        assert!(
            matches!(resumed[0].resume, ResumeNote::RestartedFromZero { .. }),
            "got {:?}",
            resumed[0].resume
        );
        assert_eq!(
            fs::read_to_string(artifacts_path(&dir, 0)).unwrap(),
            gold_bytes
        );
        for tag in ["gold", "crash", "crash-corrupt", "crash-zero"] {
            let _ = fs::remove_dir_all(tmpdir(tag));
        }
    }

    #[test]
    fn hostprof_side_file_rides_the_journal_without_touching_identity() {
        let dir = tmpdir("hostprof");
        let study = Study::scaled();
        let mut cfg = study.hardware(1);
        cfg.hostprof = true;
        // The knob is host-side observability: it must not change what
        // the cell *is*, or enabling it would force a rerun on resume.
        let mut off = cfg.clone();
        off.hostprof = false;
        let probe = Arc::new(RestartProbe::new(2_000));
        assert_eq!(
            cell_identity(&cfg, probe.as_ref()),
            cell_identity(&off, probe.as_ref()),
            "hostprof knob must be excluded from cell identity"
        );
        let cells: Vec<MatrixCell> = vec![(cfg, probe as Arc<dyn Program>)];
        let reports = run_matrix_journaled(cells, Some(10_000_000), &dir).unwrap();
        assert!(reports[0]
            .outcome
            .as_ref()
            .is_some_and(CellOutcome::is_completed));
        let text = fs::read_to_string(hostprof_path(&dir, 0)).unwrap();
        Schema::HostProf.validate(&text).unwrap();
        // The artifacts stay simulation-deterministic: no host numbers.
        let artifacts = fs::read_to_string(artifacts_path(&dir, 0)).unwrap();
        assert!(!artifacts.contains("hostprof"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_tolerated() {
        let prior = parse_journal(
            "flashsim-journal-v1\nstart 0 abc\nckpt 0 0 500\nfinish 0 o",
            1,
        );
        assert_eq!(prior[0].hash.as_deref(), Some("abc"));
        assert_eq!(prior[0].ckpts, vec![(0, 500)]);
        assert_eq!(prior[0].finished, None, "torn finish line must not count");
        // Garbage lines and wrong magic degrade to no prior state.
        assert!(parse_journal("not-a-journal\nstart 0 abc\n", 1)[0]
            .hash
            .is_none());
        let noisy = parse_journal("flashsim-journal-v1\nwat\nstart zero abc\n", 1);
        assert!(noisy[0].hash.is_none());
    }

    /// Whether `line` is a well-formed `tag <cell> <arg>` journal line.
    fn is_line(line: &str, tag: &str, cell: usize) -> bool {
        let f: Vec<&str> = line.split_ascii_whitespace().collect();
        f.len() >= 3 && f[0] == tag && f[1].parse() == Ok(cell)
    }

    #[test]
    fn a_hostile_journal_never_resurrects_a_finish_behind_a_later_start() {
        // Three cells: one finished, one finished then restarted (so it is
        // mid-run), one mid-run with checkpoints.
        let good = "flashsim-journal-v1\nstart 0 aaaa\nstart 1 bbbb\nckpt 0 0 500\n\
                    start 2 cccc\nckpt 1 0 700\nfinish 0 ok\nckpt 2 0 900\nfinish 1 stalled\n\
                    ckpt 2 1 1800\nstart 1 bbbb\nckpt 1 0 700\n";
        let lines: Vec<&str> = good.lines().collect();
        let join = |ls: &[&str]| ls.join("\n") + "\n";
        let mut hostile: Vec<String> = (0..=good.len()).map(|i| good[..i].to_owned()).collect();
        for i in 0..lines.len() {
            let mut deleted = lines.clone();
            deleted.remove(i);
            hostile.push(join(&deleted));
            let mut duplicated = lines.clone();
            duplicated.insert(i, lines[i]);
            hostile.push(join(&duplicated));
            for j in 0..i {
                let mut swapped = lines.clone();
                swapped.swap(i, j);
                hostile.push(join(&swapped));
            }
        }
        let mut rng = flashsim_engine::Rng::seeded(0x10A1);
        for _ in 0..2_000 {
            let mut bytes = good.as_bytes().to_vec();
            let at = rng.gen_range(bytes.len() as u64) as usize;
            bytes[at] = match rng.gen_range(3) {
                0 => b'0' + rng.gen_range(10) as u8,
                1 => b'\n',
                _ => b' ' + rng.gen_range(95) as u8,
            };
            hostile.push(String::from_utf8(bytes).expect("ASCII stays UTF-8"));
        }
        for text in &hostile {
            let prior = parse_journal(text, 3);
            // Only whole lines count; the last element is the torn tail.
            let whole: Vec<&str> = text.split('\n').collect();
            let whole = &whole[..whole.len() - 1];
            for (cell, p) in prior.iter().enumerate() {
                let last = |tag| whole.iter().rposition(|l| is_line(l, tag, cell));
                if p.finished.is_some() {
                    assert!(
                        last("finish") > last("start"),
                        "cell {cell} reported finished behind a later start:\n{text}"
                    );
                }
            }
        }
        let prior = parse_journal(good, 3);
        assert_eq!(prior[0].finished.as_deref(), Some("ok"));
        assert_eq!(prior[1].finished, None, "restarted after its finish");
        assert_eq!(prior[2].ckpts, vec![(0, 900), (1, 1800)]);
    }
}
