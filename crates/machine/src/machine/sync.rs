//! Synchronization, handled by the machine rather than the cores:
//! barriers collect all nodes and release them together, locks serialize
//! holders with a real read-exclusive transaction on the lock's line per
//! hand-off. Barrier releases are the machine's quiescent points, where
//! the checkpoint is cut.

use super::sched::Epoch;
use super::{Machine, NodeStatus};
use crate::error::SimError;
use flashsim_cpu::env::{MemAccessKind, MemEnv};
use flashsim_engine::{HostPhase, StallClass, Time, TimeDelta};
use flashsim_isa::{OpClass, VAddr};
use std::collections::VecDeque;

#[derive(Debug, Default)]
pub(super) struct LockState {
    pub(super) held_by: Option<usize>,
    /// Waiters in arrival order, with the time each started waiting (for
    /// synchronization-stall accounting).
    pub(super) queue: VecDeque<(usize, Time)>,
}

impl Machine {
    fn barrier_overhead(&self) -> TimeDelta {
        self.cfg.barrier_base + self.cfg.barrier_per_node * u64::from(self.cfg.nodes)
    }

    pub(super) fn handle_sync(&mut self, n: usize, op: &flashsim_isa::Op) -> Result<(), SimError> {
        match op.class {
            OpClass::Barrier => {
                let t = self.cores[n].drain();
                let overhead = self.barrier_overhead();
                self.status[n] = NodeStatus::AtBarrier(op.id);
                let arrivals = self.barrier_arrivals.entry(op.id).or_default();
                arrivals.push((n, t));
                if arrivals.len() == self.cfg.nodes as usize {
                    let release =
                        arrivals.iter().map(|(_, t)| *t).fold(Time::ZERO, Time::max) + overhead;
                    let woken: Vec<(usize, Time)> = arrivals.clone();
                    self.barrier_arrivals.remove(&op.id);
                    self.barrier_releases.push((op.id, release));
                    // Per-node clock skew at the barrier: spread between
                    // the first and last arrival over the released set.
                    // Arrival times and the release instant are
                    // policy-invariant, so the gauge is too.
                    let first = woken.iter().map(|(_, t)| *t).fold(release, Time::min);
                    let last = woken.iter().map(|(_, t)| *t).fold(Time::ZERO, Time::max);
                    self.obs.telemetry.gauge(
                        self.tel.barrier_skew,
                        release,
                        last.saturating_since(first).as_ps(),
                    );
                    for (m, arrived) in woken {
                        // Arrival-to-release is synchronization stall.
                        self.obs.profiler.charge_wall(
                            m as u32,
                            StallClass::Sync,
                            arrived,
                            release.saturating_since(arrived),
                        );
                        self.cores[m].set_time(release);
                        self.status[m] = NodeStatus::Running;
                    }
                    // The machine is now quiescent: every node Running at
                    // the release time, no arrival or lock queues, no
                    // transaction mid-flight — and every stable cumulative
                    // total is policy-invariant. The checkpoint cut needs
                    // those totals complete and only the fills still in
                    // flight.
                    self.settle_pending();
                    self.publish_observers();
                    // Emit a checkpoint if a sink is attached (take/put-
                    // back so the sink can borrow the machine-produced
                    // text without aliasing `self`).
                    if let Some(mut sink) = self.ckpt_sink.take() {
                        let _ckpt = self.obs.hostprof.phase(HostPhase::Ckpt);
                        let seq = self.ckpt_seq;
                        self.ckpt_seq += 1;
                        let text = self.checkpoint();
                        sink(seq, release, &text);
                        self.ckpt_sink = Some(sink);
                    }
                }
            }
            OpClass::LockAcquire => {
                let t = self.cores[n].drain();
                self.lock_addr.insert(op.id, op.addr);
                let acquired = {
                    let lock = self.locks.entry(op.id).or_default();
                    if lock.held_by.is_none() {
                        lock.held_by = Some(n);
                        true
                    } else {
                        lock.queue.push_back((n, t));
                        false
                    }
                };
                if acquired {
                    self.acquire_lock_line(n, op.addr, t)?;
                } else {
                    self.status[n] = NodeStatus::WaitingLock(op.id);
                }
            }
            OpClass::LockRelease => {
                let t = self.cores[n].drain();
                let next = {
                    let Some(lock) = self.locks.get_mut(&op.id) else {
                        return Err(SimError::UnheldLock {
                            node: n as u32,
                            lock: op.id,
                            holder: None,
                        });
                    };
                    if lock.held_by != Some(n) {
                        return Err(SimError::UnheldLock {
                            node: n as u32,
                            lock: op.id,
                            holder: lock.held_by.map(|h| h as u32),
                        });
                    }
                    let next = lock.queue.pop_front();
                    lock.held_by = next.map(|(nx, _)| nx);
                    next
                };
                if let Some((next, since)) = next {
                    self.status[next] = NodeStatus::Running;
                    let at = self.cores[next].now().max(t);
                    // Queue time on the lock is synchronization stall.
                    self.obs.profiler.charge_wall(
                        next as u32,
                        StallClass::Sync,
                        since,
                        at.saturating_since(since),
                    );
                    self.cores[next].set_time(at);
                    let addr = self.lock_addr[&op.id];
                    self.acquire_lock_line(next, addr, at)?;
                }
            }
            _ => unreachable!(), // gate: allow
        }
        Ok(())
    }

    /// The coherence transaction behind a lock hand-off: the new holder
    /// takes the lock line exclusive.
    fn acquire_lock_line(&mut self, n: usize, addr: VAddr, t: Time) -> Result<(), SimError> {
        let Epoch { env, cores, .. } = &mut self.epoch(n, false);
        let res = env.resolve(addr, MemAccessKind::Write, t);
        if let Some(e) = env.fault.take() {
            return Err(e);
        }
        // The hand-off's coherence transaction is synchronization cost
        // (minus the TLB refill the environment already charged).
        env.sink.obs.profiler.charge_wall(
            n as u32,
            StallClass::Sync,
            t,
            res.done_at
                .saturating_since(t)
                .saturating_sub(res.tlb_refill),
        );
        cores[n].set_time(res.done_at);
        Ok(())
    }
}
