//! Checkpoint and restore: `flashsim-ckpt-v1` snapshots taken at barrier
//! releases, and the run-identity string that guards them.

use super::pending::Fill;
use super::{Machine, MachineError};
use crate::config::{MachineConfig, BARRIER_BASE, BARRIER_PER_NODE, L2_HIT};
use flashsim_engine::ckpt::bad;
use flashsim_engine::{Ckpt, CkptError, CkptReader, CkptWriter, Time, TimeDelta};
use flashsim_isa::{Program, VAddr};
use flashsim_mem::{LatencyBreakdown, LineAddr};
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
    /// never restore against the wrong run. Host-side knobs (`max_ops`,
    /// hostprof) are deliberately excluded: resuming with a different op
    /// budget is legitimate.
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
            L2_HIT,
            BARRIER_BASE,
            BARRIER_PER_NODE,
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
    /// the format closed under every layer's walk.
    pub fn checkpoint(&mut self) -> String {
        debug_assert!(
            self.barrier_arrivals.is_empty(),
            "checkpoint outside a quiescent point"
        );
        debug_assert!(
            self.locks.values().all(|lock| lock.queue.is_empty()),
            "lock waiters at a quiescent point"
        );
        debug_assert!(
            self.observers_published(),
            "checkpoint with observer windows unpublished"
        );
        let mut w = CkptWriter::new(&self.provenance());
        let saved = self.ckpt(&mut Ckpt::Save(&mut w));
        debug_assert!(saved.is_ok(), "saving never fails: {saved:?}");
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
        let mut m = Machine::new(cfg, program)?;
        let mut r = CkptReader::open(text)?;
        r.expect_provenance(&m.provenance())?;
        m.ckpt(&mut Ckpt::Load(&mut r))?;
        r.finish()?;
        Ok(m)
    }

    /// The one walk over the machine's state and every layer's, in
    /// format order: scheduler bookkeeping, then each node's stream
    /// cursor, core, caches, TLB and fills in flight, then the OS, the
    /// memory system, the fault stream and the observers.
    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.section("machine")?;
        c.u64("ckpt_seq", &mut self.ckpt_seq)?;
        c.interlock("nodes", &[u64::from(self.cfg.nodes)])?;
        c.list(
            "barrier_releases",
            &mut self.barrier_releases,
            |c, (id, at)| {
                let mut row = [u64::from(*id), at.as_ps()];
                c.array("rel", &mut row)?;
                (*id, *at) = (row[0] as u32, Time::from_ps(row[1]));
                Ok(())
            },
        )?;
        let mut locks: Vec<[u64; 3]> = self
            .locks
            .iter()
            .map(|(id, lock)| {
                let held = lock.held_by.map_or(u64::MAX, |h| h as u64);
                let addr = self.lock_addr.get(id).map_or(u64::MAX, |a| a.get());
                [u64::from(*id), held, addr]
            })
            .collect();
        locks.sort_unstable();
        c.list("locks", &mut locks, |c, row| c.array("lock", row))?;
        if c.loading() {
            for [id, held, addr] in locks {
                let held_by = (held != u64::MAX).then_some(held as usize);
                self.locks.entry(id as u32).or_default().held_by = held_by;
                if addr != u64::MAX {
                    self.lock_addr.insert(id as u32, VAddr(addr));
                }
            }
        }
        for n in 0..self.cfg.nodes as usize {
            c.section(&format!("node{n}"))?;
            let mut consumed = self.streams[n].consumed();
            c.u64("consumed", &mut consumed)?;
            // Fast-forward the deterministic op stream to its cursor; the
            // generator re-derives every op, so none need to be stored.
            if c.loading() && self.streams[n].skip_ops(consumed) != consumed {
                return Err(bad("consumed", consumed));
            }
            self.cores[n].ckpt(c)?;
            let mem = &mut self.mems[n];
            mem.hier.ckpt(c)?;
            c.interlock("has_tlb", &[u64::from(mem.tlb.is_some())])?;
            if let Some(tlb) = &mut mem.tlb {
                tlb.ckpt(c)?;
            }
            let mut fills: Vec<[u64; 5]> = mem.pending.fills().iter().map(fill_row).collect();
            fills.sort_unstable();
            c.list("pending", &mut fills, |c, row| c.array("pend", row))?;
            if c.loading() {
                mem.pending.clear();
                for [line, arrives, occupancy, network, memory] in fills {
                    let ps = TimeDelta::from_ps;
                    let breakdown = LatencyBreakdown {
                        occupancy: ps(occupancy),
                        network: ps(network),
                        memory: ps(memory),
                    };
                    mem.pending
                        .insert(LineAddr(line), Time::from_ps(arrives), breakdown);
                }
            }
            c.u64("page_faults", &mut mem.page_faults)?;
            c.u64("tlb_refills", &mut mem.tlb_refills)?;
            c.time("next_tick", &mut mem.next_tick)?;
            // Checked only here, past the section's last field: a row
            // count that cut a table short fails at the field it misreads.
            if c.loading() {
                mem.hier.check_inclusion()?;
                if let Some(f) = mem.pending.fills().iter().find(|f| !mem.hier.holds(f.line)) {
                    return Err(bad("pend", format!("{} is not in the L2", f.line)));
                }
            }
        }
        c.section("os")?;
        self.pt.ckpt(c)?;
        self.alloc.ckpt(c)?;
        c.section("memsys")?;
        self.memsys.ckpt(c)?;
        self.injector.ckpt(c)?;
        self.obs.profiler.ckpt(c)?;
        self.obs.telemetry.ckpt(c)?;
        self.obs.spans.ckpt(c)
    }
}

/// A fill in flight as its checkpoint row: the line first, so rows sort
/// by line.
fn fill_row(f: &Fill) -> [u64; 5] {
    let bd = f.breakdown;
    let [occupancy, network, memory] = [bd.occupancy, bd.network, bd.memory].map(|d| d.as_ps());
    [f.line.get(), f.arrives.as_ps(), occupancy, network, memory]
}
