//! Embra: the fast functional model.
//!
//! From the paper (§2.2): "The fastest processor simulator is Embra, a
//! binary translation system that runs at roughly 10x slowdown from the
//! host microprocessor. Unfortunately, Embra does not model either the
//! processor or the memory system in enough detail to draw any useful
//! conclusions. It is indispensable, however, since it allows us to boot
//! the operating system and position our workloads in a reasonable amount
//! of time via checkpointing."
//!
//! This model is the workspace's equivalent: every op costs one fixed
//! cycle and the memory hierarchy is **not consulted at all** — no cache,
//! TLB, or coherence state changes, and no timing beyond the op count.
//! Use it to validate op streams and position long workloads cheaply;
//! never to report performance (its results are meaningless by design,
//! which is the paper's point).

use crate::env::{Core, MemEnv};
use flashsim_engine::{Ckpt, CkptError, Clock, StatSet, Time};
use flashsim_isa::{Op, OpClass};

/// The Embra functional core.
#[derive(Debug)]
pub struct Embra {
    clock: Clock,
    t: Time,
    ops: u64,
}

impl Embra {
    /// Creates a functional core; `clock` only scales its nominal time.
    pub fn new(clock: Clock) -> Embra {
        Embra {
            clock,
            t: Time::ZERO,
            ops: 0,
        }
    }
}

impl Core for Embra {
    fn execute(&mut self, op: &Op, _env: &mut dyn MemEnv) -> Time {
        debug_assert!(!op.class.is_sync(), "sync ops are handled by the machine");
        // One cycle per op; the environment is deliberately never touched.
        let _ = op.class == OpClass::Load;
        self.ops += 1;
        self.t += self.clock.period();
        self.t
    }

    fn now(&self) -> Time {
        self.t
    }

    fn drain(&mut self) -> Time {
        self.t
    }

    fn set_time(&mut self, t: Time) {
        debug_assert!(t >= self.t);
        self.t = t;
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("cpu.ops", self.ops as f64);
        s
    }

    fn model_name(&self) -> &'static str {
        "embra"
    }

    fn scan_profile(&self) -> crate::env::ScanProfile {
        // Exactly one cycle per op, and the environment is never
        // touched — every non-sync op is private to the node.
        crate::env::ScanProfile {
            min_ps_per_op: self.clock.period(),
            resolves_memory: false,
        }
    }

    // Embra keeps the default no-op `attach` deliberately: it
    // never stalls, so the accounting profiler's per-op compute residual
    // attributes every one of its cycles to StallClass::Compute — which
    // is exactly the truth for a functional model.

    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.interlock("embra_period_ps", &[self.clock.period().as_ps()])?;
        c.time("t", &mut self.t)?;
        c.u64("ops", &mut self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FixedEnv;
    use flashsim_isa::{Reg, VAddr};

    #[test]
    fn one_cycle_per_op_and_no_memory_traffic() {
        let mut core = Embra::new(Clock::from_mhz(100));
        let mut env = FixedEnv::all_hits();
        for i in 0..100u64 {
            core.execute(&Op::load(VAddr(i * 4096), Reg(8), Reg::ZERO), &mut env);
        }
        assert_eq!(core.now().as_ns(), 1000);
        assert_eq!(env.calls, 0, "Embra must never consult the memory system");
        assert_eq!(core.stats().get_or_zero("cpu.ops"), 100.0);
    }

    #[test]
    fn drain_is_free_and_time_moves_forward() {
        let mut core = Embra::new(Clock::from_mhz(100));
        let mut env = FixedEnv::all_hits();
        core.execute(
            &Op::compute(OpClass::IntDiv, Reg(8), Reg(9), Reg(9)),
            &mut env,
        );
        let t = core.drain();
        assert_eq!(t, core.now());
        core.set_time(t + flashsim_engine::TimeDelta::from_ns(50));
        assert_eq!(core.now(), t + flashsim_engine::TimeDelta::from_ns(50));
        assert_eq!(core.model_name(), "embra");
    }
}
