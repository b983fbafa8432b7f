//! The out-of-order window engine behind MXS and the R10000 gold standard.
//!
//! This is a dataflow timing model with structural constraints: ops enter a
//! reorder window at fetch bandwidth, issue when their register operands
//! and a functional unit are ready, overlap cache misses up to the MSHR
//! count, and resolve branches through a shared two-bit predictor. It is
//! deliberately the *same engine* for both models — the paper's point is
//! that MXS and the real R10000 differ not in their headline resources
//! (both are 4-issue with identical functional units and latencies) but in
//! "implementation constraints that are not modelled [and that] inevitably
//! reduce the performance of the processor". Those constraints are the
//! [`OooConfig`] fields MXS turns off:
//!
//! - **address interlocks** (`address_interlock`): extra issue delay for
//!   memory ops whose address register was just produced — Ofelt measured
//!   20–30 % losses from these on the R10000 (§3.1.3),
//! - **exception serialization** (`exception_serialize`): a TLB refill is
//!   an exception; the R10000 drains and refills its pipeline around one,
//!   which is why 14 handler instructions take 65 cycles. MXS models the
//!   handler's instruction latencies but not the pipeline flushes (its
//!   35-cycle prediction in §3.1.3),
//! - **secondary-cache interface occupancy** (`l2_interface_transfer`):
//!   while a fill streams into the off-chip L2, even tag checks wait — the
//!   effect snbench exposed and the tuning added to Mipsy; the gold
//!   standard has it, MXS does not,
//! - **sustained fetch/issue bandwidth** (`effective_width`): corner cases
//!   (fetch alignment, replay traps, resource stalls) keep a real R10000
//!   from sustaining its peak width; MXS happily streams at 4.0.

use crate::branch::BranchPredictor;
use crate::env::{Core, MemAccessKind, MemEnv};
use crate::lat::LatencyTable;
use flashsim_engine::{Ckpt, CkptError, Clock, Observers, StallClass, StatSet, Time, TimeDelta};
use flashsim_isa::{Op, OpClass, Reg};
use std::collections::VecDeque;

/// Configuration of the out-of-order engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OooConfig {
    /// Core clock (150 MHz for both MXS and the hardware).
    pub clock: Clock,
    /// Sustained fetch/issue bandwidth in ops per cycle.
    pub effective_width: f64,
    /// Reorder-window entries.
    pub window: usize,
    /// Integer units.
    pub int_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// Load/store units.
    pub ls_units: usize,
    /// Outstanding misses (lockup-free caches; 4 on the R10000).
    pub mshrs: usize,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Instruction latencies.
    pub latencies: LatencyTable,
    /// Extra cycles a memory op waits when its address register was
    /// produced by a recent in-flight op (R10000 address interlocks).
    pub address_interlock: u64,
    /// Whether a TLB refill serializes the pipeline (exception drain).
    pub exception_serialize: bool,
    /// Occupancy of the secondary-cache interface per fill from memory
    /// (subsequent L1 misses wait); `None` disables the effect.
    pub l2_interface_transfer: Option<TimeDelta>,
    /// Cycles every L1 miss occupies the (single) L2 port — tag check
    /// plus the 32 B subline transfer at the slower off-chip bus. Bounds
    /// how many L2 hits the core can overlap. `None` disables.
    pub l2_port_cycles: Option<u64>,
}

impl OooConfig {
    /// MXS: "a generic superscalar processor model ... configured to be as
    /// close to an R10000 as possible" — right resources, no
    /// implementation constraints.
    pub fn mxs() -> OooConfig {
        OooConfig {
            clock: Clock::from_mhz(150),
            effective_width: 4.0,
            window: 32,
            int_units: 2,
            fp_units: 2,
            ls_units: 1,
            mshrs: 4,
            mispredict_penalty: 6,
            latencies: LatencyTable::r10000(),
            address_interlock: 0,
            exception_serialize: false,
            l2_interface_transfer: None,
            l2_port_cycles: None,
        }
    }

    /// The gold-standard R10000: the same resources plus the
    /// implementation constraints the paper names.
    pub fn r10000() -> OooConfig {
        OooConfig {
            effective_width: 2.1,
            // The R10000's active list holds 32 instructions — a
            // first-order limit on how much miss latency the real machine
            // can hide. MXS is configured with the same 32-entry window.
            window: 32,
            address_interlock: 2,
            // The environment's 65-cycle refill is the paper's measured
            // all-inclusive cost (handler + exception drain), so no flush
            // cycles are layered on top; serialization alone models the
            // pipeline drain's overlap loss.
            exception_serialize: true,
            l2_interface_transfer: Some(TimeDelta::from_ns(160)),
            l2_port_cycles: Some(4),
            ..OooConfig::mxs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Int,
    Fp,
    Ls,
}

fn unit_class(class: OpClass) -> UnitClass {
    match class {
        OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv | OpClass::Branch => UnitClass::Int,
        OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => UnitClass::Fp,
        OpClass::Load | OpClass::Store | OpClass::Prefetch => UnitClass::Ls,
        _ => unreachable!("sync ops never issue"), // gate: allow
    }
}

/// The out-of-order core.
#[derive(Debug)]
pub struct OooCore {
    cfg: OooConfig,
    name: &'static str,
    fetch: Time,
    fetch_rem_ps: u64,
    /// Whole picoseconds of fetch bandwidth one op consumes
    /// (`period / effective_width`, truncated) and the thousandths of a
    /// picosecond left over. Functions of `cfg` alone, so not
    /// checkpointed.
    fetch_step: u64,
    fetch_frac: u64,
    reg_ready: [Time; Reg::COUNT],
    window: VecDeque<Time>,
    int_free: Vec<Time>,
    fp_free: Vec<Time>,
    ls_free: Vec<Time>,
    outstanding: Vec<Time>,
    /// The busy window of the secondary-cache interface: the last fill
    /// streams into the L2 during `[start, end)`; tag checks landing
    /// inside the window wait until it closes. Requests issued *before*
    /// the window opens are unaffected (the data has not started
    /// returning yet), which is what lets the lockup-free caches still
    /// overlap independent misses.
    l2_window: (Time, Time),
    l2_port_free: Time,
    bp: BranchPredictor,
    last_completion: Time,
    ops: u64,
    loads: u64,
    stores: u64,
    load_misses: u64,
    interlock_stalls: u64,
    exceptions: u64,
    tlb_stall: TimeDelta,
    obs: Observers,
    node: u32,
}

impl OooCore {
    /// Creates an idle core; `name` distinguishes MXS from the gold
    /// standard in statistics.
    pub fn new(cfg: OooConfig, name: &'static str) -> OooCore {
        let per_op = cfg.clock.period().as_ps() as f64 / cfg.effective_width;
        let fetch_step = per_op as u64;
        OooCore {
            cfg,
            name,
            fetch: Time::ZERO,
            fetch_rem_ps: 0,
            fetch_step,
            fetch_frac: ((per_op - fetch_step as f64) * 1000.0) as u64,
            reg_ready: [Time::ZERO; Reg::COUNT],
            window: VecDeque::with_capacity(cfg.window),
            int_free: vec![Time::ZERO; cfg.int_units],
            fp_free: vec![Time::ZERO; cfg.fp_units],
            ls_free: vec![Time::ZERO; cfg.ls_units],
            outstanding: Vec::with_capacity(cfg.mshrs),
            l2_window: (Time::ZERO, Time::ZERO),
            l2_port_free: Time::ZERO,
            bp: BranchPredictor::new(1024),
            last_completion: Time::ZERO,
            ops: 0,
            loads: 0,
            stores: 0,
            load_misses: 0,
            interlock_stalls: 0,
            exceptions: 0,
            tlb_stall: TimeDelta::ZERO,
            obs: Observers::disabled(),
            node: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> OooConfig {
        self.cfg
    }

    /// Advances fetch by one op at the sustained width.
    fn advance_fetch(&mut self) {
        // One op consumes period/width of fetch bandwidth; carry the
        // remainder so long streams average exactly `effective_width`.
        self.fetch_rem_ps += self.fetch_frac;
        let extra = self.fetch_rem_ps / 1000;
        self.fetch_rem_ps %= 1000;
        self.fetch += TimeDelta::from_ps(self.fetch_step + extra);
    }

    fn window_entry(&mut self) -> Time {
        if self.window.len() >= self.cfg.window {
            let head = self.window.pop_front().expect("non-empty window"); // gate: allow
            self.fetch = self.fetch.max(head);
        }
        self.fetch
    }

    fn unit_issue(&mut self, class: UnitClass, ready: Time) -> Time {
        let pool = match class {
            UnitClass::Int => &mut self.int_free,
            UnitClass::Fp => &mut self.fp_free,
            UnitClass::Ls => &mut self.ls_free,
        };
        let (idx, _) = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("unit pool is non-empty"); // gate: allow
        let issue = ready.max(pool[idx]);
        pool[idx] = issue + self.cfg.clock.period();
        issue
    }

    fn mshr_gate(&mut self, issue: Time) -> Time {
        self.outstanding.retain(|done| *done > issue);
        if self.outstanding.len() >= self.cfg.mshrs {
            let earliest = *self
                .outstanding
                .iter()
                .min()
                .expect("outstanding non-empty"); // gate: allow
            self.outstanding.retain(|done| *done > earliest);
            issue.max(earliest)
        } else {
            issue
        }
    }

    fn complete(&mut self, completion: Time, dst: Reg) {
        if !dst.is_zero() {
            self.reg_ready[dst.index()] = completion;
        }
        self.window.push_back(completion);
        self.last_completion = self.last_completion.max(completion);
    }

    fn cycles(&self, n: u64) -> TimeDelta {
        self.cfg.clock.cycles(n)
    }
}

impl Core for OooCore {
    fn execute(&mut self, op: &Op, env: &mut dyn MemEnv) -> Time {
        self.ops += 1;
        self.advance_fetch();
        let entry = self.window_entry();
        // Stores issue to the address/LS slot as soon as their ADDRESS is
        // ready; the data (src_b) merges later through the store buffer
        // without blocking the unit. Modelling the data dependence as an
        // issue constraint would head-of-line-block every later load
        // behind the slowest store - a serialization the R10000 does not
        // have.
        let mut ready = if op.class == OpClass::Store {
            entry.max(self.reg_ready[op.src_a.index()])
        } else {
            entry
                .max(self.reg_ready[op.src_a.index()])
                .max(self.reg_ready[op.src_b.index()])
        };

        match op.class {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::FpAdd
            | OpClass::FpMul
            | OpClass::FpDiv => {
                let issue = self.unit_issue(unit_class(op.class), ready);
                let completion = issue + self.cycles(self.cfg.latencies.cycles(op.class));
                self.complete(completion, op.dst);
            }
            OpClass::Branch => {
                let issue = self.unit_issue(UnitClass::Int, ready);
                let completion = issue + self.cycles(self.cfg.latencies.branch);
                if self.bp.mispredicts(op.id, op.taken()) {
                    // Fetch restarts after resolution plus the penalty.
                    self.fetch = self
                        .fetch
                        .max(completion + self.cycles(self.cfg.mispredict_penalty));
                }
                self.complete(completion, op.dst);
            }
            OpClass::Load | OpClass::Store | OpClass::Prefetch => {
                if op.class == OpClass::Load {
                    self.loads += 1;
                } else if op.class == OpClass::Store {
                    self.stores += 1;
                }
                // Address interlock: a dependent address that was produced
                // recently delays issue (gold standard only).
                if self.cfg.address_interlock > 0
                    && !op.src_a.is_zero()
                    && self.reg_ready[op.src_a.index()] + self.cycles(4) > ready
                {
                    ready += self.cycles(self.cfg.address_interlock);
                    self.interlock_stalls += 1;
                }
                let issue = self.unit_issue(UnitClass::Ls, ready);
                let issue = self.mshr_gate(issue);
                // A tag check landing while a previous fill streams into
                // the off-chip L2 waits for the transfer to finish (gold
                // standard only).
                let issue = if self.cfg.l2_interface_transfer.is_some()
                    && issue >= self.l2_window.0
                    && issue < self.l2_window.1
                {
                    // §3.1.2 secondary-cache interface occupancy: the
                    // tag check waited out the streaming fill.
                    self.obs.profiler.charge(
                        self.node,
                        StallClass::DirOccupancy,
                        issue,
                        self.l2_window.1 - issue,
                    );
                    self.l2_window.1
                } else {
                    issue
                };

                let kind = match op.class {
                    OpClass::Load => MemAccessKind::Read,
                    OpClass::Store => MemAccessKind::Write,
                    _ => MemAccessKind::Prefetch,
                };
                let res = env.resolve(op.addr, kind, issue);
                self.tlb_stall += res.tlb_refill;

                // Every access that went past the L1 crosses the single
                // L2 port; its tag check + subline transfer serialize.
                let mut res = res;
                if res.level != crate::env::AccessLevel::L1 {
                    if let Some(port) = self.cfg.l2_port_cycles {
                        let start = issue.max(self.l2_port_free);
                        self.l2_port_free = start + self.cycles(port);
                        // Cap the port-queue penalty: beyond ~100 queued
                        // accesses the frontend would have stalled anyway.
                        let wait = start.saturating_since(issue).min(self.cycles(port) * 100);
                        self.obs
                            .profiler
                            .charge(self.node, StallClass::DirOccupancy, issue, wait);
                        res.done_at += wait;
                    }
                }

                if res.level.is_miss() {
                    if op.class == OpClass::Load {
                        self.load_misses += 1;
                    }
                    self.outstanding.push(res.done_at);
                    if let Some(transfer) = self.cfg.l2_interface_transfer {
                        self.l2_window = (res.done_at, res.done_at + transfer);
                    }
                }

                let completion = match op.class {
                    OpClass::Load => res.done_at + self.cycles(self.cfg.latencies.load_use),
                    // Stores and prefetches retire without waiting for data,
                    // but their slot stays occupied via the MSHR list.
                    _ => issue + self.cfg.clock.period(),
                };

                if !res.tlb_refill.is_zero() {
                    self.exceptions += 1;
                    if self.cfg.exception_serialize {
                        // The exception drains the pipeline: fetch resumes
                        // once the refill completes.
                        self.fetch = self.fetch.max(res.done_at);
                    }
                }
                self.complete(completion, op.dst);
            }
            OpClass::Barrier | OpClass::LockAcquire | OpClass::LockRelease => {
                unreachable!("sync ops are handled by the machine layer") // gate: allow
            }
        }
        self.fetch
    }

    fn now(&self) -> Time {
        self.fetch
    }

    fn drain(&mut self) -> Time {
        let mut t = self.fetch.max(self.last_completion);
        for done in self.outstanding.drain(..) {
            t = t.max(done);
        }
        self.window.clear();
        self.fetch = t;
        for r in &mut self.reg_ready {
            *r = (*r).min(t);
        }
        t
    }

    fn set_time(&mut self, t: Time) {
        debug_assert!(t >= self.fetch, "core time must not go backwards");
        self.fetch = t;
        self.last_completion = self.last_completion.max(t);
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("cpu.ops", self.ops as f64);
        s.set("cpu.loads", self.loads as f64);
        s.set("cpu.stores", self.stores as f64);
        s.set("cpu.load_misses", self.load_misses as f64);
        s.set("cpu.interlock_stalls", self.interlock_stalls as f64);
        s.set("cpu.exceptions", self.exceptions as f64);
        s.set("cpu.tlb_stall_ns", self.tlb_stall.as_ns_f64());
        s.set("cpu.branch_mispredicts", self.bp.mispredictions() as f64);
        s
    }

    fn model_name(&self) -> &'static str {
        self.name
    }

    fn scan_profile(&self) -> crate::env::ScanProfile {
        // `now()` is the fetch pointer and every `execute` begins with
        // `advance_fetch`, which moves fetch by at least
        // floor(period / effective_width) picoseconds per op — the
        // sustained-bandwidth lower bound. Out-of-order *completion*
        // overlap never moves fetch backwards, so the bound holds no
        // matter how many ops retire per cycle. This is what lets the
        // parallel scheduler derive a lookahead horizon for MXS and
        // R10000 instead of degrading them to serial execution.
        crate::env::ScanProfile {
            min_ps_per_op: TimeDelta::from_ps(self.fetch_step),
            resolves_memory: true,
        }
    }

    fn attach(&mut self, obs: &Observers, node: u32) {
        self.obs = obs.clone();
        self.node = node;
    }

    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let cfg = self.cfg;
        let (int, fp, ls) = (cfg.int_units, cfg.fp_units, cfg.ls_units);
        let period = cfg.clock.period().as_ps() as usize;
        let shape = [period, cfg.window, int, fp, ls, cfg.mshrs].map(|n| n as u64);
        c.interlock("ooo_shape", &shape)?;
        c.time("fetch", &mut self.fetch)?;
        c.u64("fetch_rem_ps", &mut self.fetch_rem_ps)?;
        let mut regs = self.reg_ready.to_vec();
        c.times("reg_ready", &mut regs, Reg::COUNT..=Reg::COUNT)?;
        self.reg_ready.copy_from_slice(&regs);
        c.times("window", &mut self.window, ..=cfg.window)?;
        c.times("int_free", &mut self.int_free, int..=int)?;
        c.times("fp_free", &mut self.fp_free, fp..=fp)?;
        c.times("ls_free", &mut self.ls_free, ls..=ls)?;
        c.times("outstanding", &mut self.outstanding, ..=cfg.mshrs)?;
        let mut window = [self.l2_window.0.as_ps(), self.l2_window.1.as_ps()];
        c.array("l2_window", &mut window)?;
        self.l2_window = (Time::from_ps(window[0]), Time::from_ps(window[1]));
        c.time("l2_port_free", &mut self.l2_port_free)?;
        self.bp.ckpt(c)?;
        c.time("last_completion", &mut self.last_completion)?;
        c.u64("ops", &mut self.ops)?;
        c.u64("loads", &mut self.loads)?;
        c.u64("stores", &mut self.stores)?;
        c.u64("load_misses", &mut self.load_misses)?;
        c.u64("interlock_stalls", &mut self.interlock_stalls)?;
        c.u64("exceptions", &mut self.exceptions)?;
        c.delta("tlb_stall", &mut self.tlb_stall)
    }
}

/// Creates an MXS core (generic 4-issue OOO, no implementation
/// constraints).
pub fn mxs() -> OooCore {
    OooCore::new(OooConfig::mxs(), "mxs")
}

/// Creates the gold-standard R10000 core (same resources, with the
/// implementation constraints the paper documents).
pub fn r10000() -> OooCore {
    OooCore::new(OooConfig::r10000(), "r10000")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FixedEnv;
    use flashsim_isa::VAddr;

    fn run_ops(core: &mut OooCore, env: &mut FixedEnv, ops: &[Op]) -> Time {
        for op in ops {
            core.execute(op, env);
        }
        core.drain()
    }

    fn indep_alu(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| {
                Op::compute(
                    OpClass::IntAlu,
                    Reg(8 + (i % 8) as u8),
                    Reg::ZERO,
                    Reg::ZERO,
                )
            })
            .collect()
    }

    fn chained_alu(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| {
                let dst = Reg(8 + ((i + 1) % 8) as u8);
                let src = Reg(8 + (i % 8) as u8);
                Op::compute(OpClass::IntAlu, dst, src, Reg::ZERO)
            })
            .collect()
    }

    #[test]
    fn independent_ops_exploit_width() {
        let mut core = mxs();
        let mut env = FixedEnv::all_hits();
        let t = run_ops(&mut core, &mut env, &indep_alu(4000));
        // 4-wide with 2 int units: bound by the 2 ALUs => ~2 ops/cycle.
        let cycles = Clock::from_mhz(150).cycles_in(t - Time::ZERO);
        let ipc = 4000.0 / cycles as f64;
        assert!(ipc > 1.6, "mxs IPC {ipc} too low for independent work");
    }

    #[test]
    fn dependence_chain_serializes() {
        let mut fast = mxs();
        let mut env = FixedEnv::all_hits();
        let t_indep = run_ops(&mut fast, &mut env, &indep_alu(1000));
        let mut slow = mxs();
        let t_chain = run_ops(&mut slow, &mut env, &chained_alu(1000));
        assert!(
            t_chain > t_indep,
            "chained {t_chain} should exceed independent {t_indep}"
        );
    }

    #[test]
    fn golden_is_slower_than_mxs_on_the_same_stream() {
        let mut ops = Vec::new();
        // A realistic mix: loads with dependent addresses + compute.
        for i in 0..2000u64 {
            ops.push(Op::load(VAddr(i * 32), Reg(8), Reg(9)));
            ops.push(Op::compute(OpClass::IntAlu, Reg(9), Reg(8), Reg::ZERO));
            ops.push(Op::compute(
                OpClass::IntAlu,
                Reg(10 + (i % 4) as u8),
                Reg::ZERO,
                Reg::ZERO,
            ));
        }
        let mut env = FixedEnv::all_hits();
        let t_mxs = run_ops(&mut mxs(), &mut env, &ops);
        let t_gold = run_ops(&mut r10000(), &mut env, &ops);
        let ratio = (t_gold - Time::ZERO).ratio(t_mxs - Time::ZERO);
        assert!(
            ratio > 1.15 && ratio < 1.9,
            "gold/mxs ratio {ratio} outside the paper's 20-30% band neighbourhood"
        );
    }

    #[test]
    fn mshrs_bound_miss_overlap() {
        // 8 independent misses of 1000ns: with 4 MSHRs they take ~2 rounds.
        let mk = |mshrs: usize| {
            let mut cfg = OooConfig::mxs();
            cfg.mshrs = mshrs;
            let mut core = OooCore::new(cfg, "test");
            let mut env = FixedEnv::new(0, TimeDelta::from_ns(1000));
            let ops: Vec<Op> = (0..8)
                .map(|i| Op::load(VAddr(i * 0x1000), Reg(8 + i as u8), Reg::ZERO))
                .collect();
            run_ops(&mut core, &mut env, &ops).as_ns()
        };
        let wide = mk(8);
        let narrow = mk(1);
        assert!(wide < 1300, "8 MSHRs should overlap all misses: {wide}");
        assert!(narrow >= 8000, "1 MSHR serializes all misses: {narrow}");
    }

    #[test]
    fn mispredicted_branches_cost_fetch_stall() {
        let mut env = FixedEnv::all_hits();
        // Alternating branch: mispredicts roughly half the time.
        let mut ops = Vec::new();
        for i in 0..1000 {
            ops.push(Op::branch(13, i % 2 == 0, Reg::ZERO));
        }
        let t_alt = run_ops(&mut mxs(), &mut env, &ops);
        let always: Vec<Op> = (0..1000).map(|_| Op::branch(13, true, Reg::ZERO)).collect();
        let t_always = run_ops(&mut mxs(), &mut env, &always);
        assert!((t_alt - Time::ZERO) > (t_always - Time::ZERO) * 2);
    }

    #[test]
    fn a_mispredicted_branch_restarts_fetch_exactly_the_penalty_after_it_resolves() {
        // Every predictor counter starts weakly taken, so the first
        // not-taken branch at a site mispredicts.
        let mut env = FixedEnv::all_hits();
        let mut core = mxs();
        core.execute(&Op::branch(5, false, Reg::ZERO), &mut env);
        assert_eq!(core.bp.mispredictions(), 1);
        let resolved = core.last_completion;
        assert_eq!(core.cfg.mispredict_penalty, 6);
        assert_eq!(core.fetch, resolved + Clock::from_mhz(150).cycles(6));
        // A taken branch is predicted: fetch runs ahead of its resolution.
        let mut taken = mxs();
        taken.execute(&Op::branch(5, true, Reg::ZERO), &mut env);
        assert_eq!(taken.bp.mispredictions(), 0);
        assert!(taken.fetch < taken.last_completion);
    }

    #[test]
    fn tlb_exception_serializes_only_the_gold_standard() {
        let mk = |core: &mut OooCore| {
            let mut env = FixedEnv::all_hits();
            env.tlb_refill = TimeDelta::from_ns(433);
            env.tlb_miss_from = 0x100000;
            let mut ops = Vec::new();
            for i in 0..50u64 {
                ops.push(Op::load(VAddr(0x100000 + i * 0x10000), Reg(8), Reg::ZERO));
                for _ in 0..10 {
                    ops.push(Op::compute(OpClass::IntAlu, Reg(9), Reg::ZERO, Reg::ZERO));
                }
            }
            run_ops(core, &mut env, &ops).as_ns()
        };
        let t_mxs = mk(&mut mxs());
        let t_gold = mk(&mut r10000());
        assert!(
            t_gold as f64 > t_mxs as f64 * 1.2,
            "exception serialization should hurt: gold {t_gold} vs mxs {t_mxs}"
        );
    }

    #[test]
    fn l2_interface_occupancy_slows_back_to_back_misses() {
        let mut with = OooCore::new(OooConfig::r10000(), "t");
        let mut without_cfg = OooConfig::r10000();
        without_cfg.l2_interface_transfer = None;
        let mut without = OooCore::new(without_cfg, "t");
        let ops: Vec<Op> = (0..16)
            .map(|i| Op::load(VAddr(i * 0x1000), Reg(8), Reg(8))) // dependent chain
            .collect();
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(500));
        let t_with = run_ops(&mut with, &mut env, &ops);
        let mut env2 = FixedEnv::new(0, TimeDelta::from_ns(500));
        let t_without = run_ops(&mut without, &mut env2, &ops);
        assert!(t_with > t_without, "{t_with} vs {t_without}");
    }

    #[test]
    fn window_fills_bound_runahead() {
        // One very long miss followed by lots of independent work: the
        // window must stop fetch from running arbitrarily far ahead.
        let mut cfg = OooConfig::mxs();
        cfg.window = 8;
        let mut core = OooCore::new(cfg, "t");
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(10_000));
        core.execute(&Op::load(VAddr(0x1000), Reg(8), Reg::ZERO), &mut env);
        for _ in 0..100 {
            core.execute(
                &Op::compute(OpClass::IntAlu, Reg(9), Reg::ZERO, Reg::ZERO),
                &mut env,
            );
        }
        // Fetch cannot be more than ~window ops past the stalled head.
        assert!(
            core.now().as_ns() >= 10_000,
            "window should have filled behind the miss"
        );
    }

    #[test]
    fn drain_and_set_time_round_trip() {
        let mut core = mxs();
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(777));
        core.execute(&Op::load(VAddr(0x10), Reg(8), Reg::ZERO), &mut env);
        let t = core.drain();
        assert!(t.as_ns() >= 777);
        core.set_time(t + TimeDelta::from_ns(100));
        assert_eq!(core.now(), t + TimeDelta::from_ns(100));
    }

    #[test]
    fn ckpt_roundtrip_preserves_pipeline_and_predictor_state() {
        let mut a = r10000();
        let mut env = FixedEnv::new(0x10000, TimeDelta::from_ns(500));
        let mut ops = Vec::new();
        for i in 0..200u64 {
            ops.push(Op::load(VAddr(0x10000 + i * 0x40), Reg(8), Reg(9)));
            ops.push(Op::compute(OpClass::IntAlu, Reg(9), Reg(8), Reg::ZERO));
            ops.push(Op::branch(7 + (i % 5) as u32, i % 3 == 0, Reg::ZERO));
        }
        for op in &ops {
            a.execute(op, &mut env);
        }
        a.drain();

        let mut w = flashsim_engine::CkptWriter::new("ooo-test");
        w.section("core");
        Core::ckpt(&mut a, &mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();

        let mut b = r10000();
        let mut r = flashsim_engine::CkptReader::open(&text).unwrap();
        r.section("core").unwrap();
        Core::ckpt(&mut b, &mut Ckpt::Load(&mut r)).unwrap();
        r.finish().unwrap();

        // Subsequent execution (branches exercising the restored predictor
        // tables, loads exercising the restored MSHR/L2 state) must match.
        for i in 0..100u64 {
            let op = if i % 2 == 0 {
                Op::branch(7 + (i % 5) as u32, i % 3 == 0, Reg::ZERO)
            } else {
                Op::load(VAddr(0x10000 + i * 0x40), Reg(10), Reg::ZERO)
            };
            a.execute(&op, &mut env);
            b.execute(&op, &mut env);
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.drain(), b.drain());
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        // A differently-shaped core rejects the gold-standard image.
        let mut small = OooConfig::r10000();
        small.window = 16;
        let mut c = OooCore::new(small, "t");
        let mut r = flashsim_engine::CkptReader::open(&text).unwrap();
        r.section("core").unwrap();
        assert!(Core::ckpt(&mut c, &mut Ckpt::Load(&mut r)).is_err());
    }

    #[test]
    fn more_misses_in_flight_than_mshrs_are_rejected() {
        // The reorder window restores bounded by its size, and the misses
        // in flight by the MSHRs.
        let mut a = r10000();
        a.outstanding = vec![Time::from_ns(1); a.cfg.mshrs + 1];
        let mut w = flashsim_engine::CkptWriter::new("ooo-test");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        let mut r = flashsim_engine::CkptReader::open(&text).unwrap();
        let err = r10000()
            .ckpt(&mut Ckpt::Load(&mut r))
            .expect_err("5 misses, 4 MSHRs");
        assert_eq!(err, flashsim_engine::ckpt::bad("outstanding", "5 entries"));
    }

    #[test]
    fn scan_profile_lower_bounds_fetch_advance() {
        // Both OOO models must publish a transparent profile (the
        // parallel scheduler needs a non-zero per-op bound to fork
        // them) and the bound must actually hold against `now()` on a
        // maximally overlapped stream — independent single-cycle ALU
        // ops are the fastest the fetch pointer can possibly move.
        for mut core in [mxs(), r10000()] {
            let profile = core.scan_profile();
            assert!(
                profile.min_ps_per_op > TimeDelta::ZERO,
                "{}: OOO profile must not be opaque",
                core.model_name()
            );
            assert!(profile.resolves_memory);
            let floor = profile.min_ps_per_op.as_ps();
            let period = core.config().clock.period().as_ps();
            assert!(
                floor as f64 <= period as f64 / core.config().effective_width,
                "bound must not exceed sustained fetch bandwidth"
            );
            let mut env = FixedEnv::all_hits();
            let n = 5000u64;
            for op in indep_alu(n as usize) {
                core.execute(&op, &mut env);
            }
            assert!(
                core.now().as_ps() >= n * floor,
                "{}: now {} < {} ops x {} ps floor",
                core.model_name(),
                core.now().as_ps(),
                n,
                floor
            );
        }
    }

    #[test]
    fn stats_track_model_behaviour() {
        let mut core = r10000();
        let mut env = FixedEnv::new(0, TimeDelta::from_ns(500));
        core.execute(&Op::load(VAddr(0x10), Reg(8), Reg(9)), &mut env);
        let s = core.stats();
        assert_eq!(s.get_or_zero("cpu.loads"), 1.0);
        assert_eq!(s.get_or_zero("cpu.load_misses"), 1.0);
        assert_eq!(core.model_name(), "r10000");
    }
}
