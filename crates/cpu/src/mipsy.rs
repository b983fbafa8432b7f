//! Mipsy: the single-issue, in-order processor model.
//!
//! From the paper (§2.2): "Mipsy models a single-issue, in-order MIPS
//! processor. Pipeline effects and functional unit latencies are not
//! simulated, so the Mipsy processor executes one instruction per cycle in
//! the absence of memory stalls. Mipsy has blocking reads, but supports
//! both prefetching and a write buffer." The standard methodology trick —
//! running Mipsy at 225 or 300 MHz to stand in for the R10000's ILP — is
//! just a different [`MipsyConfig::clock`].
//!
//! The `model_int_latencies` switch reproduces the paper's §3.1.3
//! experiment: adding the R10000's 5-cycle multiply and 19-cycle divide to
//! Mipsy moves Radix-Sort's prediction from 0.71 to ≈1.0.

use crate::env::{Core, MemAccessKind, MemEnv};
use crate::lat::LatencyTable;
use flashsim_engine::{Ckpt, CkptError, Clock, Observers, StallClass, StatSet, Time, TimeDelta};
use flashsim_isa::{Op, OpClass};
use std::collections::VecDeque;

/// Configuration of a Mipsy core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MipsyConfig {
    /// Core clock — 150 MHz matches the hardware; 225/300 MHz are the
    /// paper's ILP-compensation settings.
    pub clock: Clock,
    /// Write-buffer entries (4 in the paper's Solo runs).
    pub write_buffer: usize,
    /// Outstanding non-binding prefetches.
    pub prefetch_slots: usize,
    /// Model real mul/div/FP latencies (off for true Mipsy; on for the
    /// §3.1.3 instruction-latency ablation).
    pub model_int_latencies: bool,
    /// Secondary-cache interface occupancy per fill from memory. `None`
    /// before tuning; the §3.1.2 snbench tuning adds this effect so
    /// Mipsy's back-to-back miss latencies match the R10000's occupied
    /// external cache interface.
    pub l2_interface_transfer: Option<TimeDelta>,
}

impl MipsyConfig {
    /// Mipsy at a given clock with the paper's structural parameters.
    pub fn at_mhz(mhz: u32) -> MipsyConfig {
        MipsyConfig {
            clock: Clock::from_mhz(mhz),
            write_buffer: 4,
            prefetch_slots: 4,
            model_int_latencies: false,
            l2_interface_transfer: None,
        }
    }
}

/// The Mipsy core.
#[derive(Debug)]
pub struct Mipsy {
    cfg: MipsyConfig,
    lat: LatencyTable,
    t: Time,
    l2_window: (Time, Time),
    write_buffer: VecDeque<Time>,
    prefetches: VecDeque<Time>,
    ops: u64,
    mem_stall: TimeDelta,
    wb_stall: TimeDelta,
    tlb_stall: TimeDelta,
    loads: u64,
    stores: u64,
    load_misses: u64,
    obs: Observers,
    node: u32,
}

impl Mipsy {
    /// Creates an idle Mipsy core.
    pub fn new(cfg: MipsyConfig) -> Mipsy {
        Mipsy {
            cfg,
            lat: LatencyTable::r10000(),
            t: Time::ZERO,
            l2_window: (Time::ZERO, Time::ZERO),
            write_buffer: VecDeque::with_capacity(cfg.write_buffer),
            prefetches: VecDeque::with_capacity(cfg.prefetch_slots),
            ops: 0,
            mem_stall: TimeDelta::ZERO,
            wb_stall: TimeDelta::ZERO,
            tlb_stall: TimeDelta::ZERO,
            loads: 0,
            stores: 0,
            load_misses: 0,
            obs: Observers::disabled(),
            node: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> MipsyConfig {
        self.cfg
    }

    fn cycle(&self) -> TimeDelta {
        self.cfg.clock.period()
    }

    fn retire_completed(queue: &mut VecDeque<Time>, now: Time) {
        while queue.front().is_some_and(|done| *done <= now) {
            queue.pop_front();
        }
    }

    fn compute_cost(&self, class: OpClass) -> TimeDelta {
        if self.cfg.model_int_latencies {
            self.cfg.clock.cycles(self.lat.cycles(class))
        } else {
            self.cycle()
        }
    }

    /// Applies the (tuned-in) secondary-cache interface occupancy: a
    /// tag check landing while the previous fill is still streaming into
    /// the off-chip L2 waits for the transfer window to close; the new
    /// miss then opens its own window.
    fn gate_l2_iface(&mut self, issue: Time, res: &crate::env::Resolution) -> Time {
        let Some(transfer) = self.cfg.l2_interface_transfer else {
            return res.done_at;
        };
        if !res.level.is_miss() {
            return res.done_at;
        }
        let wait = if issue >= self.l2_window.0 && issue < self.l2_window.1 {
            self.l2_window.1 - issue
        } else {
            TimeDelta::ZERO
        };
        let done = res.done_at + wait;
        self.l2_window = (done, done + transfer);
        done
    }
}

impl Core for Mipsy {
    fn execute(&mut self, op: &Op, env: &mut dyn MemEnv) -> Time {
        self.ops += 1;
        match op.class {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::FpAdd
            | OpClass::FpMul
            | OpClass::FpDiv => {
                self.t += self.compute_cost(op.class);
            }
            OpClass::Branch => {
                // No pipeline => no misprediction cost to model.
                self.t += self.cycle();
            }
            OpClass::Load => {
                self.loads += 1;
                self.t += self.cycle();
                let res = env.resolve(op.addr, MemAccessKind::Read, self.t);
                if res.level.is_miss() {
                    self.load_misses += 1;
                }
                self.tlb_stall += res.tlb_refill;
                let done = self.gate_l2_iface(self.t, &res);
                // The interface-gating wait is core-added on top of the
                // environment's latency (which the environment accounts
                // itself): exactly the §3.1.2 occupancy effect.
                if done > res.done_at {
                    self.obs.profiler.charge(
                        self.node,
                        StallClass::DirOccupancy,
                        self.t,
                        done - res.done_at,
                    );
                }
                if done > self.t {
                    // Blocking read: the whole stall is exposed.
                    let stall = done - self.t;
                    self.mem_stall += stall;
                    self.t = done;
                }
            }
            OpClass::Store => {
                self.stores += 1;
                self.t += self.cycle();
                Self::retire_completed(&mut self.write_buffer, self.t);
                if self.write_buffer.len() >= self.cfg.write_buffer {
                    // Buffer full: stall until the oldest entry drains.
                    let free_at = self.write_buffer.pop_front().expect("non-empty"); // gate: allow
                    if free_at > self.t {
                        // The exposed part of a store's memory latency is
                        // this drain wait; the hidden part is never
                        // charged (the environment only accounts demand
                        // reads).
                        self.obs.profiler.charge(
                            self.node,
                            StallClass::L2Miss,
                            self.t,
                            free_at - self.t,
                        );
                        self.wb_stall += free_at - self.t;
                        self.t = free_at;
                    }
                }
                let res = env.resolve(op.addr, MemAccessKind::Write, self.t);
                self.tlb_stall += res.tlb_refill;
                // TLB refills are exposed even on stores (the handler runs
                // on the main pipeline).
                self.t += res.tlb_refill;
                let done = self.gate_l2_iface(self.t, &res);
                self.write_buffer.push_back(done);
            }
            OpClass::Prefetch => {
                self.t += self.cycle();
                Self::retire_completed(&mut self.prefetches, self.t);
                if self.prefetches.len() >= self.cfg.prefetch_slots {
                    let free_at = self.prefetches.pop_front().expect("non-empty"); // gate: allow
                    if free_at > self.t {
                        self.obs.profiler.charge(
                            self.node,
                            StallClass::L2Miss,
                            self.t,
                            free_at - self.t,
                        );
                        self.mem_stall += free_at - self.t;
                        self.t = free_at;
                    }
                }
                let res = env.resolve(op.addr, MemAccessKind::Prefetch, self.t);
                let done = self.gate_l2_iface(self.t, &res);
                self.prefetches.push_back(done);
            }
            OpClass::Barrier | OpClass::LockAcquire | OpClass::LockRelease => {
                unreachable!("sync ops are handled by the machine layer") // gate: allow
            }
        }
        self.t
    }

    fn now(&self) -> Time {
        self.t
    }

    fn drain(&mut self) -> Time {
        let mut t = self.t;
        for done in self.write_buffer.drain(..) {
            t = t.max(done);
        }
        for done in self.prefetches.drain(..) {
            t = t.max(done);
        }
        self.t = t;
        t
    }

    fn set_time(&mut self, t: Time) {
        debug_assert!(t >= self.t, "core time must not go backwards");
        self.t = t;
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("cpu.ops", self.ops as f64);
        s.set("cpu.loads", self.loads as f64);
        s.set("cpu.stores", self.stores as f64);
        s.set("cpu.load_misses", self.load_misses as f64);
        s.set("cpu.mem_stall_ns", self.mem_stall.as_ns_f64());
        s.set("cpu.wb_stall_ns", self.wb_stall.as_ns_f64());
        s.set("cpu.tlb_stall_ns", self.tlb_stall.as_ns_f64());
        s
    }

    fn model_name(&self) -> &'static str {
        "mipsy"
    }

    fn scan_profile(&self) -> crate::env::ScanProfile {
        // Every op path starts by charging at least one CPU cycle
        // (compute costs are table-driven but never below one cycle),
        // and loads/stores/prefetches call into the environment.
        crate::env::ScanProfile {
            min_ps_per_op: self.cycle(),
            resolves_memory: true,
        }
    }

    fn attach(&mut self, obs: &Observers, node: u32) {
        self.obs = obs.clone();
        self.node = node;
    }

    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let cfg = self.cfg;
        let period = cfg.clock.period().as_ps();
        c.interlock(
            "mipsy_shape",
            &[period, cfg.write_buffer as u64, cfg.prefetch_slots as u64],
        )?;
        c.time("t", &mut self.t)?;
        let mut window = [self.l2_window.0.as_ps(), self.l2_window.1.as_ps()];
        c.array("l2_window", &mut window)?;
        self.l2_window = (Time::from_ps(window[0]), Time::from_ps(window[1]));
        c.times("write_buffer", &mut self.write_buffer, ..=cfg.write_buffer)?;
        c.times("prefetches", &mut self.prefetches, ..=cfg.prefetch_slots)?;
        c.u64("ops", &mut self.ops)?;
        c.delta("mem_stall", &mut self.mem_stall)?;
        c.delta("wb_stall", &mut self.wb_stall)?;
        c.delta("tlb_stall", &mut self.tlb_stall)?;
        c.u64("loads", &mut self.loads)?;
        c.u64("stores", &mut self.stores)?;
        c.u64("load_misses", &mut self.load_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FixedEnv;
    use flashsim_isa::{Reg, VAddr};

    fn alu() -> Op {
        Op::compute(OpClass::IntAlu, Reg(8), Reg::ZERO, Reg::ZERO)
    }

    #[test]
    fn one_cycle_per_op_without_stalls() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100)); // 10ns cycle
        let mut env = FixedEnv::all_hits();
        for _ in 0..10 {
            core.execute(&alu(), &mut env);
        }
        assert_eq!(core.now().as_ns(), 100);
    }

    #[test]
    fn mul_and_div_cost_one_cycle_by_default() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::all_hits();
        core.execute(
            &Op::compute(OpClass::IntDiv, Reg(8), Reg(9), Reg(10)),
            &mut env,
        );
        core.execute(
            &Op::compute(OpClass::IntMul, Reg(8), Reg(9), Reg(10)),
            &mut env,
        );
        assert_eq!(core.now().as_ns(), 20, "Mipsy omits instruction latencies");
    }

    #[test]
    fn latency_ablation_charges_r10000_latencies() {
        let mut cfg = MipsyConfig::at_mhz(100);
        cfg.model_int_latencies = true;
        let mut core = Mipsy::new(cfg);
        let mut env = FixedEnv::all_hits();
        core.execute(
            &Op::compute(OpClass::IntDiv, Reg(8), Reg(9), Reg(10)),
            &mut env,
        );
        assert_eq!(core.now().as_ns(), 190, "19-cycle divide");
        core.execute(
            &Op::compute(OpClass::IntMul, Reg(8), Reg(9), Reg(10)),
            &mut env,
        );
        assert_eq!(core.now().as_ns(), 240, "5-cycle multiply");
    }

    #[test]
    fn blocking_read_exposes_full_miss() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::new(0x1000, TimeDelta::from_ns(500));
        core.execute(&Op::load(VAddr(0x2000), Reg(8), Reg::ZERO), &mut env);
        assert_eq!(core.now().as_ns(), 510);
        let s = core.stats();
        assert_eq!(s.get_or_zero("cpu.load_misses"), 1.0);
        assert_eq!(s.get_or_zero("cpu.mem_stall_ns"), 500.0);
    }

    #[test]
    fn faster_clock_shrinks_compute_not_memory() {
        let run = |mhz: u32| {
            let mut core = Mipsy::new(MipsyConfig::at_mhz(mhz));
            let mut env = FixedEnv::new(0x1000, TimeDelta::from_ns(500));
            for _ in 0..100 {
                core.execute(&alu(), &mut env);
            }
            core.execute(&Op::load(VAddr(0x2000), Reg(8), Reg::ZERO), &mut env);
            core.now().as_ns()
        };
        let slow = run(150);
        let fast = run(300);
        assert!(fast < slow);
        assert!(fast > 500, "memory time does not scale with the core clock");
    }

    #[test]
    fn write_buffer_hides_store_latency_until_full() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(1000)); // all stores miss
                                                                  // Four stores fit the buffer: cost ~1 cycle each.
        for i in 0..4u64 {
            core.execute(&Op::store(VAddr(i * 0x100), Reg::ZERO, Reg(8)), &mut env);
        }
        assert_eq!(core.now().as_ns(), 40);
        // The fifth store must wait for the oldest to drain.
        core.execute(&Op::store(VAddr(0x4000), Reg::ZERO, Reg(8)), &mut env);
        assert!(core.now().as_ns() >= 1000);
        assert!(core.stats().get_or_zero("cpu.wb_stall_ns") > 0.0);
    }

    #[test]
    fn prefetches_do_not_block() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(1000));
        for i in 0..4u64 {
            core.execute(&Op::prefetch(VAddr(i * 0x100)), &mut env);
        }
        assert_eq!(core.now().as_ns(), 40, "4 prefetches cost 4 cycles");
    }

    #[test]
    fn drain_completes_all_inflight_work() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(1000));
        core.execute(&Op::store(VAddr(0), Reg::ZERO, Reg(8)), &mut env);
        core.execute(&Op::prefetch(VAddr(0x100)), &mut env);
        let t = core.drain();
        assert!(t.as_ns() >= 1000);
        assert_eq!(core.now(), t);
    }

    #[test]
    fn set_time_advances_clock() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        core.set_time(Time::from_ns(5000));
        assert_eq!(core.now().as_ns(), 5000);
    }

    #[test]
    fn ckpt_roundtrip_preserves_write_buffer_and_counters() {
        let mut a = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(1000)); // all stores miss
        for i in 0..4u64 {
            a.execute(&Op::store(VAddr(i * 0x100), Reg::ZERO, Reg(8)), &mut env);
        }

        let mut w = flashsim_engine::CkptWriter::new("mipsy-test");
        w.section("core");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();

        let mut b = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut r = flashsim_engine::CkptReader::open(&text).unwrap();
        r.section("core").unwrap();
        b.ckpt(&mut Ckpt::Load(&mut r)).unwrap();
        r.finish().unwrap();

        // The restored core must expose the same full-buffer stall on the
        // fifth store as the original.
        let next = Op::store(VAddr(0x4000), Reg::ZERO, Reg(8));
        a.execute(&next, &mut env);
        b.execute(&next, &mut env);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        // A core with a different write-buffer size fails closed.
        let mut cfg = MipsyConfig::at_mhz(100);
        cfg.write_buffer = 8;
        let mut c = Mipsy::new(cfg);
        let mut r = flashsim_engine::CkptReader::open(&text).unwrap();
        r.section("core").unwrap();
        assert!(c.ckpt(&mut Ckpt::Load(&mut r)).is_err());
    }

    #[test]
    fn tlb_refill_is_charged_and_counted() {
        let mut core = Mipsy::new(MipsyConfig::at_mhz(100));
        let mut env = FixedEnv::all_hits();
        env.tlb_refill = TimeDelta::from_ns(433); // ~65 cycles at 150MHz
        env.tlb_miss_from = 0;
        core.execute(&Op::load(VAddr(0x10), Reg(8), Reg::ZERO), &mut env);
        assert!(core.now().as_ns() >= 433);
        assert_eq!(core.stats().get_or_zero("cpu.tlb_stall_ns"), 433.0);
    }
}
