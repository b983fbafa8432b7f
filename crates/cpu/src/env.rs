//! The interface between a processor core and the rest of the machine.
//!
//! A core model is a *pipeline timing* model: it decides how ops flow,
//! overlap, and stall. Everything behind the L1 — TLB refills, page faults,
//! cache probes, the coherence protocol — is resolved by the machine layer
//! through [`MemEnv`], which returns a [`Resolution`] telling the core when
//! the data is available and what it cost architecturally. The same core
//! model therefore runs unchanged on Solo (no TLB), SimOS (TLB with a
//! parameterized refill cost), FlashLite, or NUMA — exactly the
//! plug-compatibility the paper's simulator family has.

use flashsim_engine::{Ckpt, CkptError, Observers, StatSet, Time, TimeDelta};
use flashsim_isa::{Op, VAddr};
use flashsim_mem::ProtocolCase;

/// The kind of memory access a core issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// A demand load (blocking on Mipsy; overlapped on OOO models).
    Read,
    /// A store (buffered/retired in the background).
    Write,
    /// A non-binding software prefetch.
    Prefetch,
}

impl MemAccessKind {
    /// Stable lower-case key; the machine layer roots causal span trees
    /// at the issuing access kind.
    pub const fn key(self) -> &'static str {
        match self {
            MemAccessKind::Read => "read",
            MemAccessKind::Write => "write",
            MemAccessKind::Prefetch => "prefetch",
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLevel {
    /// Primary-cache hit: the core adds only its own load-to-use latency.
    L1,
    /// Secondary-cache hit.
    L2,
    /// Full memory-system transaction of the given protocol case.
    Memory(ProtocolCase),
}

impl AccessLevel {
    /// True if the access went past the secondary cache.
    pub const fn is_miss(self) -> bool {
        matches!(self, AccessLevel::Memory(_))
    }
}

/// What the machine resolved for one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// When the data is available to the core (≥ the issue time; includes
    /// any TLB refill and cache/memory latency the environment models).
    pub done_at: Time,
    /// Where the access was satisfied.
    pub level: AccessLevel,
    /// The TLB-refill time included in `done_at` (zero on a TLB hit or on
    /// environments that do not model the TLB). Out-of-order cores
    /// additionally serialize on this: a refill is an *exception*, and the
    /// R10000 drains its pipeline around one — the effect the paper found
    /// mis-modelled in both SimOS processor models.
    pub tlb_refill: TimeDelta,
}

/// The machine-side memory environment a core executes against.
pub trait MemEnv {
    /// Resolves one memory access issued at `at`.
    fn resolve(&mut self, addr: VAddr, kind: MemAccessKind, at: Time) -> Resolution;
}

/// What a scheduler may assume about a core's timing when *scanning
/// ahead* in its op stream — the contract behind conservative parallel
/// scheduling (see `SchedPolicy::Parallel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanProfile {
    /// A guaranteed lower bound on how far [`Core::now`] advances per
    /// executed op. [`TimeDelta::ZERO`] promises nothing — the scheduler
    /// then cannot derive a lookahead horizon from unexecuted ops and
    /// degrades to serial execution for this core (always sound).
    pub min_ps_per_op: TimeDelta,
    /// Whether executing a memory-class op calls
    /// [`MemEnv::resolve`](MemEnv::resolve). Functional models that
    /// never touch the environment (Embra) report `false`, making every
    /// non-sync op private to the node.
    pub resolves_memory: bool,
}

impl ScanProfile {
    /// The conservative default: no per-op bound, memory ops resolve.
    pub const OPAQUE: ScanProfile = ScanProfile {
        min_ps_per_op: TimeDelta::ZERO,
        resolves_memory: true,
    };
}

/// A processor timing model.
///
/// The machine feeds memory ops one at a time through
/// [`execute`](Core::execute), and node-local ops (compute and branches)
/// as runs through [`run_local`](Core::run_local); synchronization ops
/// never reach the core. It uses [`now`](Core::now)/[`drain`](Core::drain)/
/// [`set_time`](Core::set_time) to coordinate multiprocessor scheduling.
pub trait Core: Send {
    /// Executes one (non-sync) op, advancing internal time and possibly
    /// calling into `env` for memory. Returns [`now`](Core::now) as it
    /// reads after the op, so a scheduler stepping a `dyn Core` pays one
    /// virtual call per op, not two.
    fn execute(&mut self, op: &Op, env: &mut dyn MemEnv) -> Time;

    /// Executes a run of node-local ops from the front of `ops` in one
    /// call, and returns how many ran and [`now`](Core::now) after them.
    /// `ops[0]` must be local and always runs. Each later op runs only if
    /// it is local and the clock before it is below `stop`; the run ends
    /// after the first op whose completion reaches `tick`. The result is
    /// exactly that of calling [`execute`](Core::execute) on the same ops
    /// under the same rule, which is what the default does; a model
    /// overrides it with a tight loop over its compute and branch arms.
    fn run_local(
        &mut self,
        ops: &[Op],
        stop: Time,
        tick: Time,
        env: &mut dyn MemEnv,
    ) -> (usize, Time) {
        let now = self.now();
        local_run(ops, stop, tick, now, |op| self.execute(op, env))
    }

    /// The core's current position on the timeline (next fetch).
    fn now(&self) -> Time;

    /// Completes all in-flight work (write buffers, outstanding misses)
    /// and returns the time everything has retired. Called before
    /// barriers/locks.
    fn drain(&mut self) -> Time;

    /// Moves the core's clock forward to `t` (e.g. after blocking on a
    /// barrier). `t` must be ≥ `now()`.
    fn set_time(&mut self, t: Time);

    /// Model statistics (op counts, stall breakdowns).
    fn stats(&self) -> StatSet;

    /// Short model name (`"mipsy"`, `"mxs"`, `"r10000"`).
    fn model_name(&self) -> &'static str;

    /// Timing guarantees a scheduler may rely on when scanning this
    /// core's op stream ahead of execution. The default
    /// ([`ScanProfile::OPAQUE`]) promises nothing, which keeps complex
    /// models (out-of-order overlap can retire several ops per cycle)
    /// sound without any per-model audit: the parallel policy simply
    /// runs them serially.
    fn scan_profile(&self) -> ScanProfile {
        ScanProfile::OPAQUE
    }

    /// Attaches the machine's observers. A model stores the bundle and
    /// `node`, the id it tags its accounting charges with; what a core writes to each handle is documented on
    /// [`Observers`]. Default: no instrumentation (Embra, test doubles) —
    /// every cycle of an uninstrumented core lands in the compute
    /// residual.
    fn attach(&mut self, obs: &Observers, node: u32) {
        let _ = (obs, node);
    }

    /// Walks the core's mutable timing state — clocks, buffered stores,
    /// outstanding misses, predictor tables, counters — in the caller's
    /// current checkpoint section ([`Ckpt`]). Called only at quiescent
    /// points (barrier releases), where [`drain`](Core::drain) has
    /// already retired in-flight work the model cannot re-derive; a
    /// restore goes into a freshly constructed core of the identical
    /// configuration and fails closed on any shape mismatch. Required,
    /// not defaulted: a model that silently skipped its state here would
    /// restore with a cold pipeline and break the byte-identity contract.
    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError>;
}

/// The rule of [`Core::run_local`] over `step`, which executes one op and
/// returns the clock after it; `now` is the clock before `ops[0]`.
/// Returns how many ops ran and the clock after the last.
#[inline]
pub(crate) fn local_run(
    ops: &[Op],
    stop: Time,
    tick: Time,
    mut now: Time,
    mut step: impl FnMut(&Op) -> Time,
) -> (usize, Time) {
    debug_assert!(
        ops.first().is_some_and(|op| op.class.is_local()),
        "a local run starts at a local op"
    );
    let mut ran = 0;
    for op in ops {
        if ran > 0 && (!op.class.is_local() || now >= stop) {
            break;
        }
        now = step(op);
        ran += 1;
        if now >= tick {
            break;
        }
    }
    (ran, now)
}

/// A trivial environment for core unit tests: everything hits, with fixed
/// miss behaviour injectable per address range.
#[derive(Debug, Clone)]
pub struct FixedEnv {
    /// Latency added for addresses at or above `miss_from`.
    pub miss_latency: TimeDelta,
    /// Addresses below this always hit L1 at zero extra cost.
    pub miss_from: u64,
    /// TLB refill charged on every access at or above `tlb_miss_from`.
    pub tlb_refill: TimeDelta,
    /// Addresses at or above this also suffer `tlb_refill`.
    pub tlb_miss_from: u64,
    /// Number of resolutions performed.
    pub calls: u64,
}

impl FixedEnv {
    /// An environment where everything below `miss_from` hits.
    pub fn new(miss_from: u64, miss_latency: TimeDelta) -> FixedEnv {
        FixedEnv {
            miss_latency,
            miss_from,
            tlb_refill: TimeDelta::ZERO,
            tlb_miss_from: u64::MAX,
            calls: 0,
        }
    }

    /// An environment where every access hits L1.
    pub fn all_hits() -> FixedEnv {
        FixedEnv::new(u64::MAX, TimeDelta::ZERO)
    }
}

impl MemEnv for FixedEnv {
    fn resolve(&mut self, addr: VAddr, _kind: MemAccessKind, at: Time) -> Resolution {
        self.calls += 1;
        let tlb = if addr.get() >= self.tlb_miss_from {
            self.tlb_refill
        } else {
            TimeDelta::ZERO
        };
        if addr.get() >= self.miss_from {
            Resolution {
                done_at: at + tlb + self.miss_latency,
                level: AccessLevel::Memory(ProtocolCase::LocalClean),
                tlb_refill: tlb,
            }
        } else {
            Resolution {
                done_at: at + tlb,
                level: AccessLevel::L1,
                tlb_refill: tlb,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_level_miss_predicate() {
        assert!(!AccessLevel::L1.is_miss());
        assert!(!AccessLevel::L2.is_miss());
        assert!(AccessLevel::Memory(ProtocolCase::RemoteClean).is_miss());
    }

    #[test]
    fn fixed_env_hit_and_miss() {
        let mut env = FixedEnv::new(0x1000, TimeDelta::from_ns(500));
        let hit = env.resolve(VAddr(0x10), MemAccessKind::Read, Time::from_ns(7));
        assert_eq!(hit.done_at, Time::from_ns(7));
        assert_eq!(hit.level, AccessLevel::L1);
        let miss = env.resolve(VAddr(0x2000), MemAccessKind::Read, Time::from_ns(7));
        assert_eq!(miss.done_at, Time::from_ns(507));
        assert!(miss.level.is_miss());
        assert_eq!(env.calls, 2);
    }

    #[test]
    fn fixed_env_tlb_refill() {
        let mut env = FixedEnv::all_hits();
        env.tlb_refill = TimeDelta::from_ns(433);
        env.tlb_miss_from = 0x8000;
        let r = env.resolve(VAddr(0x9000), MemAccessKind::Read, Time::ZERO);
        assert_eq!(r.tlb_refill.as_ns(), 433);
        assert_eq!(r.done_at.as_ns(), 433);
    }
}
