//! The full-machine simulation driver.
//!
//! A [`Machine`] wires N processor cores (any model) to per-node cache
//! hierarchies and TLBs, a shared page table with an OS-policy frame
//! allocator, and one memory-system model, then executes a
//! [`Program`]'s op streams to completion. Scheduling is laggard-first:
//! the node with the smallest local clock executes next, which keeps the
//! shared occupancy timelines (MAGIC, banks, links) causally consistent
//! across nodes.
//!
//! Two scheduling policies implement that discipline (see
//! [`SchedPolicy`]): the `Reference` policy re-derives the laggard by
//! linear scan before every single op, while the default `Batched` policy
//! keeps node clocks in a [`LaggardHeap`] (one sorted run) and lets the
//! laggard at its front execute a *run* of ops per decision — ending the run before any op
//! that touches shared state unless the node is still the strict schedule
//! winner, and bounding private-op overrun by the runner-up's clock plus
//! the memory model's minimum shared-interaction latency (conservative
//! lookahead). Every shared interaction therefore happens in exactly the
//! order the reference policy would produce, and the two policies are
//! bit-identical in stats, accounting, and times (asserted by
//! `tests/sched_equivalence.rs`; DESIGN.md details the argument).
//!
//! Synchronization is handled here, not in the cores: barriers collect all
//! nodes and release them together (with a size-dependent overhead), and
//! locks serialize holders, with every hand-off performing a *real*
//! read-exclusive coherence transaction on the lock's cache line — so lock
//! and barrier costs scale with the memory system being simulated, as on
//! the real machine.

mod ckpt;
mod env;
mod fork;
mod observe;
mod pending;
mod result;
mod sched;
mod sync;

pub use ckpt::{CkptSink, RestoreError};
pub use result::{RunManifest, RunResult};

use crate::config::{MachineConfig, MemSysKind, SchedPolicy};
use crate::error::SimError;
use flashsim_cpu::env::Core;
use flashsim_engine::{
    Clock, FaultInjector, HostProf, Observers, Profiler, SpanTracer, Telemetry, Time, TimeDelta,
};
use flashsim_isa::{check_segments, Program, Segment, ThreadStream, VAddr};
use flashsim_mem::{CacheHierarchy, FrameAllocator, MemorySystem, PageTable, Tlb};
use flashsim_os::TlbModel;
use observe::{NodeObs, SchedObs, TelIds};
use pending::Pending;
use std::collections::HashMap;
use std::fmt;
use sync::LockState;

/// Error constructing or running a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Program thread count does not match the node count.
    ThreadMismatch {
        /// Threads the program wants.
        program: usize,
        /// Nodes the machine has.
        nodes: u32,
    },
    /// The program's segment declaration is invalid.
    BadSegments(String),
    /// The memory-system model cannot be built over this many nodes.
    Topology {
        /// Nodes the machine was asked for.
        nodes: u32,
    },
    /// The geometry's page size or node memory is unusable: each must be
    /// a non-zero power of two, and a node's memory must hold at least one
    /// frame per L2 page colour.
    Geometry(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::ThreadMismatch { program, nodes } => write!(
                f,
                "program has {program} threads but the machine has {nodes} nodes"
            ),
            MachineError::BadSegments(msg) => write!(f, "invalid segments: {msg}"),
            MachineError::Topology { nodes } => write!(
                f,
                "the memory system needs a power-of-two node count, got {nodes}"
            ),
            MachineError::Geometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Per-node memory-side state.
#[derive(Debug)]
struct NodeMem {
    hier: CacheHierarchy,
    tlb: Option<Tlb>,
    /// In-flight line fills: probes to these lines wait for arrival.
    pending: Pending,
    page_faults: u64,
    tlb_refills: u64,
    next_tick: Time,
    /// Whether the parallel policy's cached lookahead bound for this node
    /// is stale. Only alien coherence actions (an invalidate or downgrade
    /// from another node's transaction) can move a node's first shared
    /// access *earlier* than a prior scan concluded, so this is set
    /// exactly there; the node's own execution can only push the bound
    /// out (per-node op keys are monotone), which keeps a stale bound
    /// conservative but sound.
    lb_dirty: bool,
    /// Where this node's per-op observer writes accumulate.
    obs: NodeObs,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStatus {
    Running,
    AtBarrier(u32),
    WaitingLock(u32),
    /// Halted by stalled-node fault injection; never scheduled again.
    Stalled,
    Done,
}

/// A configured machine ready to run one program.
pub struct Machine {
    cfg: MachineConfig,
    /// The core clock, derived from `cfg.cpu` once.
    clock: Clock,
    cores: Vec<Box<dyn Core>>,
    mems: Vec<NodeMem>,
    memsys: Box<dyn MemorySystem>,
    pt: PageTable,
    alloc: FrameAllocator,
    segments: Vec<Segment>,
    streams: Vec<ThreadStream>,
    status: Vec<NodeStatus>,
    barrier_arrivals: HashMap<u32, Vec<(usize, Time)>>,
    barrier_releases: Vec<(u32, Time)>,
    locks: HashMap<u32, LockState>,
    lock_addr: HashMap<u32, VAddr>,
    timing_start: Option<u32>,
    /// The one observer bundle, built in [`Machine::new`] from the
    /// config and handed to every layer by [`Machine::broadcast`].
    obs: Observers,
    injector: FaultInjector,
    tel: TelIds,
    sched_obs: SchedObs,
    fault: Option<SimError>,
    workload: String,
    workload_seed: Option<u64>,
    /// Called at every barrier release (the machine's quiescent points)
    /// with `(seq, release_time, checkpoint_text)`; see
    /// [`Machine::attach_ckpt_sink`].
    ckpt_sink: Option<CkptSink>,
    /// Sequence number of the next checkpoint this machine will emit;
    /// restored from checkpoints so resumed runs continue the numbering.
    ckpt_seq: u64,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Machine({} x{})", self.cfg.label(), self.cfg.nodes)
    }
}

impl Machine {
    /// Builds a machine for `program` under `cfg`. The config is the only
    /// switch for the profiler ([`MachineConfig::profile`]), telemetry,
    /// spans and the host profiler: each is built here, attached to every
    /// layer once, and covered by [`Machine::provenance`] where it can
    /// change a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if the program's thread count does not
    /// match `cfg.nodes`, the geometry is malformed, its segments are
    /// malformed, or the memory system cannot span `cfg.nodes` nodes.
    pub fn new(cfg: MachineConfig, program: &dyn Program) -> Result<Machine, MachineError> {
        if program.num_threads() != cfg.nodes as usize {
            return Err(MachineError::ThreadMismatch {
                program: program.num_threads(),
                nodes: cfg.nodes,
            });
        }
        cfg.geometry.check().map_err(MachineError::Geometry)?;
        if !cfg.memsys.supports_nodes(cfg.nodes) {
            return Err(MachineError::Topology { nodes: cfg.nodes });
        }
        let segments =
            check_segments(program, cfg.geometry.page_bytes).map_err(MachineError::BadSegments)?;

        let tlb_entries = match cfg.os.tlb {
            TlbModel::Modeled { entries, .. } => Some(entries),
            TlbModel::None => None,
        };
        let mems = (0..cfg.nodes)
            .map(|_| NodeMem {
                hier: CacheHierarchy::new(cfg.geometry.l1, cfg.geometry.l2),
                tlb: tlb_entries.map(|e| Tlb::new(e, cfg.geometry.page_bytes)),
                pending: Pending::default(),
                page_faults: 0,
                tlb_refills: 0,
                next_tick: Time::ZERO + cfg.os.timer_interval.unwrap_or(TimeDelta::ZERO),
                lb_dirty: true,
                obs: NodeObs::default(),
            })
            .collect();

        let alloc = FrameAllocator::new(
            cfg.os.alloc_policy,
            cfg.nodes,
            cfg.geometry.frames_per_node(),
            cfg.geometry.page_bytes,
            cfg.geometry.colors(),
        );
        // Construction-time fault pressure: the plan can clamp FlashLite's
        // directory pointer pool (forcing sharer reclamation) and its
        // MAGIC inbound-queue NACK threshold (provoking retry storms)
        // before the model is built.
        let injector = FaultInjector::new(cfg.faults.unwrap_or_default());
        let mut memsys_kind = cfg.memsys;
        if let (Some(plan), MemSysKind::FlashLite(p)) = (&cfg.faults, &mut memsys_kind) {
            if let Some(cap) = plan.dir_pool_cap {
                p.dir_pool = p.dir_pool.min(cap);
            }
            if let Some(q) = plan.magic_queue_ns {
                p.nack_threshold = p.nack_threshold.min(TimeDelta::from_ns(q));
            }
        }
        let mut memsys = memsys_kind.build(cfg.nodes, cfg.geometry.node_mem_bytes);
        memsys.attach_faults(injector.clone());
        let cores = (0..cfg.nodes).map(|_| cfg.cpu.build()).collect();
        let streams = (0..cfg.nodes as usize).map(|t| program.stream(t)).collect();

        let obs = Observers {
            profiler: cfg.profile.then(Profiler::new).unwrap_or_default(),
            telemetry: cfg
                .telemetry
                .map(Telemetry::with_cadence)
                .unwrap_or_default(),
            spans: cfg.spans.map(SpanTracer::new).unwrap_or_default(),
            hostprof: cfg.hostprof.then(HostProf::new).unwrap_or_default(),
        };
        obs.profiler.reserve_nodes(cfg.nodes);
        // Registration order is export order: the machine's own series,
        // the scheduler's, then (in `broadcast`) memory system and network.
        let tel = TelIds::register(&obs.telemetry);
        let sched_obs = SchedObs::register(&obs.telemetry);

        let mut machine = Machine {
            clock: cfg.cpu.clock(),
            cfg,
            cores,
            mems,
            memsys,
            pt: PageTable::new(),
            alloc,
            segments,
            streams,
            status: vec![NodeStatus::Running; 0],
            barrier_arrivals: HashMap::new(),
            barrier_releases: Vec::new(),
            locks: HashMap::new(),
            lock_addr: HashMap::new(),
            timing_start: program.timing_barrier(),
            obs,
            injector,
            tel,
            sched_obs,
            fault: None,
            workload: program.name(),
            workload_seed: program.seed(),
            ckpt_sink: None,
            ckpt_seq: 0,
        };
        machine.broadcast();
        Ok(machine)
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The furthest-ahead node clock: where the run stands in simulated
    /// time.
    fn lead_clock(&self) -> Time {
        let clocks = self.cores.iter().map(|c| c.now());
        clocks.fold(Time::ZERO, Time::max)
    }

    /// Runs the program to completion or a structured failure.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when no node can make progress
    /// (barrier some threads never reach, lock never released), with a
    /// snapshot of which barrier/lock blocks each node;
    /// [`SimError::UnmappedAddress`] / [`SimError::OutOfPhysicalMemory`] /
    /// [`SimError::UnheldLock`] on the corresponding program faults; and
    /// [`SimError::Stalled`] when the watchdog op budget expires or
    /// stalled-node fault injection starves the machine. A failed run
    /// never hangs and never panics.
    pub fn run(&mut self) -> Result<RunResult, SimError> {
        let wall_start = std::time::Instant::now();
        // Host-time window: opened here, closed right after the policy
        // loop returns, so the phase decomposition tiles the same wall
        // clock the manifest reports.
        self.obs.hostprof.run_begin();
        let nodes = self.cfg.nodes as usize;
        self.status = vec![NodeStatus::Running; nodes];
        let ran = match self.cfg.sched {
            SchedPolicy::Batched => self.run_scheduled(None),
            SchedPolicy::Reference => self.run_reference(),
            SchedPolicy::Parallel { workers } => self.run_parallel(workers),
        };
        self.obs.hostprof.run_end();
        self.settle_pending();
        self.publish_observers();
        ran?;
        Ok(self.collect_result(wall_start.elapsed().as_secs_f64()))
    }
}

/// Convenience: build and run in one call.
///
/// # Errors
///
/// Returns [`SimError::Build`] for construction failures and propagates
/// every structured failure from [`Machine::run`].
pub fn run_program(cfg: MachineConfig, program: &dyn Program) -> Result<RunResult, SimError> {
    Machine::new(cfg, program)?.run()
}
