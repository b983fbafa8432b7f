//! Checkpoint and restore: `flashsim-ckpt-v1` snapshots taken at barrier
//! releases, and the run-identity string that guards them.

use super::sync::LockState;
use super::{Machine, MachineError};
use crate::config::MachineConfig;
use flashsim_engine::{CkptError, CkptReader, CkptWriter, Time, TimeDelta};
use flashsim_isa::{Program, VAddr};
use flashsim_mem::{LatencyBreakdown, LineAddr};
use std::collections::VecDeque;
use std::fmt;

/// A checkpoint consumer: called at every barrier release with
/// `(seq, release_time, checkpoint_text)`.
pub type CkptSink = Box<dyn FnMut(u64, Time, &str) + Send>;

/// Errors from [`Machine::restore`].
#[derive(Debug)]
pub enum RestoreError {
    /// The machine could not be built for the program.
    Build(MachineError),
    /// The checkpoint was rejected: corrupt, truncated, structurally
    /// wrong, or written by a run with a different identity (config,
    /// workload, seed, policy, or fault plan).
    Ckpt(CkptError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Build(e) => write!(f, "machine build failed: {e}"),
            RestoreError::Ckpt(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<MachineError> for RestoreError {
    fn from(e: MachineError) -> RestoreError {
        RestoreError::Build(e)
    }
}

impl From<CkptError> for RestoreError {
    fn from(e: CkptError) -> RestoreError {
        RestoreError::Ckpt(e)
    }
}

impl Machine {
    /// Attaches a checkpoint sink: at every barrier release — the
    /// machine's natural quiescent points (all node clocks equal, no
    /// arrival or lock-wait queues, no memory transaction mid-flight) —
    /// the machine serializes its complete state and hands the sink
    /// `(sequence, release_time, checkpoint_text)`. The sink owns
    /// persistence (temp-file + rename for crash consistency is the
    /// runner's job); emitting checkpoints never perturbs simulated
    /// state, so an instrumented run stays byte-identical to a bare one.
    pub fn attach_ckpt_sink(&mut self, sink: CkptSink) {
        self.ckpt_sink = Some(sink);
    }

    /// The run-identity string embedded (hashed and verbatim) in every
    /// checkpoint this machine writes. It covers everything that shapes
    /// simulated behaviour — config, workload, seed, scheduling policy,
    /// fault plan, telemetry cadence, span plan — so a checkpoint can
    /// never restore against the wrong run. Host-side knobs (watchdog,
    /// heartbeat, hostprof) are deliberately excluded: resuming with a
    /// different wall-clock budget is legitimate.
    pub fn provenance(&self) -> String {
        format!(
            "flashsim nodes={} cpu={:?} os={:?} memsys={:?} geometry={:?} l2_hit={:?} \
             barrier=({:?},{:?}) sched={} faults={:?} telemetry={:?} profile={} spans={:?} \
             workload={} seed={:?}",
            self.cfg.nodes,
            self.cfg.cpu,
            self.cfg.os,
            self.cfg.memsys,
            self.cfg.geometry,
            self.cfg.l2_hit,
            self.cfg.barrier_base,
            self.cfg.barrier_per_node,
            self.cfg.sched.key(),
            self.cfg.faults,
            self.cfg.telemetry,
            self.cfg.profile,
            self.cfg.spans,
            self.workload,
            self.workload_seed,
        )
    }

    /// Serializes the complete simulation state into a `flashsim-ckpt-v1`
    /// text. Callable only at quiescent points (barrier releases) — the
    /// scheduler's in-flight state (arrival queues, lock waiters, batch
    /// scratch) is asserted empty rather than saved, which is what makes
    /// the format closed under every layer's `save_ckpt`.
    pub fn checkpoint(&self) -> String {
        debug_assert!(
            self.barrier_arrivals.is_empty(),
            "checkpoint outside a quiescent point"
        );
        debug_assert!(
            self.observers_published(),
            "checkpoint with observer windows unpublished"
        );
        let mut w = CkptWriter::new(&self.provenance());
        w.section("machine");
        w.u64("ckpt_seq", self.ckpt_seq);
        w.u64("nodes", u64::from(self.cfg.nodes));
        w.u64("barrier_releases", self.barrier_releases.len() as u64);
        for (id, t) in &self.barrier_releases {
            w.u64s("rel", &[u64::from(*id), t.as_ps()]);
        }
        let mut lock_ids: Vec<u32> = self.locks.keys().copied().collect();
        lock_ids.sort_unstable();
        w.u64("locks", lock_ids.len() as u64);
        for id in lock_ids {
            let lock = &self.locks[&id];
            debug_assert!(lock.queue.is_empty(), "lock waiters at a quiescent point");
            w.u64s(
                "lock",
                &[
                    u64::from(id),
                    lock.held_by.map_or(u64::MAX, |h| h as u64),
                    self.lock_addr.get(&id).map_or(u64::MAX, |a| a.get()),
                ],
            );
        }
        for n in 0..self.cfg.nodes as usize {
            w.section(&format!("node{n}"));
            w.u64("consumed", self.streams[n].consumed());
            self.cores[n].save_ckpt(&mut w);
            let mem = &self.mems[n];
            mem.hier.save_ckpt(&mut w);
            w.u64("has_tlb", u64::from(mem.tlb.is_some()));
            if let Some(tlb) = &mem.tlb {
                tlb.save_ckpt(&mut w);
            }
            let mut pend = mem.pending.fills().to_vec();
            pend.sort_unstable_by_key(|f| f.line.get());
            w.u64("pending", pend.len() as u64);
            for f in pend {
                let bd = f.breakdown;
                w.u64s(
                    "pend",
                    &[
                        f.line.get(),
                        f.arrives.as_ps(),
                        bd.occupancy.as_ps(),
                        bd.network.as_ps(),
                        bd.memory.as_ps(),
                    ],
                );
            }
            w.u64("page_faults", mem.page_faults);
            w.u64("tlb_refills", mem.tlb_refills);
            w.time("next_tick", mem.next_tick);
        }
        w.section("os");
        self.pt.save_ckpt(&mut w);
        self.alloc.save_ckpt(&mut w);
        w.section("memsys");
        self.memsys.save_ckpt(&mut w);
        self.injector.save_ckpt(&mut w);
        self.obs.profiler.save_ckpt(&mut w);
        self.obs.telemetry.save_ckpt(&mut w);
        self.obs.spans.save_ckpt(&mut w);
        w.finish()
    }

    /// Rebuilds a machine from a checkpoint written by
    /// [`Machine::checkpoint`] under the same `cfg` and `program`.
    /// Continuing the restored machine with [`Machine::run`] produces
    /// results byte-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Build`] if the machine cannot be constructed;
    /// [`RestoreError::Ckpt`] if the checkpoint is corrupt, truncated, or
    /// carries a different run identity (wrong config, workload, seed,
    /// policy, or fault plan). Failing closed here is what lets callers
    /// degrade gracefully to a from-zero restart.
    pub fn restore(
        cfg: MachineConfig,
        program: &dyn Program,
        text: &str,
    ) -> Result<Machine, RestoreError> {
        let parse = |key: &str, value: String| CkptError::Parse {
            key: key.to_string(),
            value,
        };
        let mut m = Machine::new(cfg, program)?;
        let mut r = CkptReader::open(text)?;
        r.expect_provenance(&m.provenance())?;
        r.section("machine")?;
        m.ckpt_seq = r.u64("ckpt_seq")?;
        let nodes = r.u64("nodes")?;
        if nodes != u64::from(m.cfg.nodes) {
            return Err(parse("nodes", nodes.to_string()).into());
        }
        for _ in 0..r.u64("barrier_releases")? {
            let v = r.u64s("rel")?;
            let [id, ps] =
                <[u64; 2]>::try_from(v.as_slice()).map_err(|_| parse("rel", format!("{v:?}")))?;
            m.barrier_releases.push((id as u32, Time::from_ps(ps)));
        }
        for _ in 0..r.u64("locks")? {
            let v = r.u64s("lock")?;
            let [id, held, addr] =
                <[u64; 3]>::try_from(v.as_slice()).map_err(|_| parse("lock", format!("{v:?}")))?;
            m.locks.insert(
                id as u32,
                LockState {
                    held_by: (held != u64::MAX).then_some(held as usize),
                    queue: VecDeque::new(),
                },
            );
            if addr != u64::MAX {
                m.lock_addr.insert(id as u32, VAddr(addr));
            }
        }
        for n in 0..m.cfg.nodes as usize {
            r.section(&format!("node{n}"))?;
            let consumed = r.u64("consumed")?;
            // Fast-forward the deterministic op stream to its cursor; the
            // generator re-derives every op, so none need to be stored.
            if m.streams[n].skip_ops(consumed) != consumed {
                return Err(parse("consumed", consumed.to_string()).into());
            }
            m.cores[n].load_ckpt(&mut r)?;
            m.mems[n].hier.load_ckpt(&mut r)?;
            let has_tlb = r.u64("has_tlb")? != 0;
            if has_tlb != m.mems[n].tlb.is_some() {
                return Err(parse("has_tlb", has_tlb.to_string()).into());
            }
            if let Some(tlb) = &mut m.mems[n].tlb {
                tlb.load_ckpt(&mut r)?;
            }
            m.mems[n].pending.clear();
            for _ in 0..r.u64("pending")? {
                let v = r.u64s("pend")?;
                let [line, arrives, occ, net, memory] = <[u64; 5]>::try_from(v.as_slice())
                    .map_err(|_| parse("pend", format!("{v:?}")))?;
                m.mems[n].pending.insert(
                    LineAddr(line),
                    Time::from_ps(arrives),
                    LatencyBreakdown {
                        occupancy: TimeDelta::from_ps(occ),
                        network: TimeDelta::from_ps(net),
                        memory: TimeDelta::from_ps(memory),
                    },
                );
            }
            m.mems[n].page_faults = r.u64("page_faults")?;
            m.mems[n].tlb_refills = r.u64("tlb_refills")?;
            m.mems[n].next_tick = r.time("next_tick")?;
        }
        r.section("os")?;
        m.pt.load_ckpt(&mut r)?;
        m.alloc.load_ckpt(&mut r)?;
        r.section("memsys")?;
        m.memsys.load_ckpt(&mut r)?;
        m.injector.load_ckpt(&mut r)?;
        m.obs.profiler.load_ckpt(&mut r)?;
        m.obs.telemetry.load_ckpt(&mut r)?;
        m.obs.spans.load_ckpt(&mut r)?;
        r.finish()?;
        Ok(m)
    }
}
