//! Machine configuration: processor model × environment × memory system ×
//! geometry.
//!
//! A [`MachineConfig`] pins down everything Table 1 of the paper lists,
//! plus which simulator fidelity fills each role. The gold standard and
//! every simulator under validation are just different configs over the
//! same machinery.
//!
//! Two geometries are provided: [`MachineGeometry::flash`] is the real
//! Table-1 machine, and [`MachineGeometry::scaled`] is a proportionally
//! shrunk machine (caches, TLB reach, and datasets shrink together) that
//! keeps every regime the paper's effects depend on — dataset ≫ L2, TLB
//! reach ≪ matrix row span, unchanged miss latencies — while making the
//! full validation matrix run in seconds. EXPERIMENTS.md records which
//! geometry each experiment used.

use crate::error::Watchdog;
use flashsim_cpu::{Mipsy, MipsyConfig, OooConfig, OooCore};
use flashsim_engine::{Clock, FaultPlan, TimeDelta};
use flashsim_flashlite::{FlashLite, FlashLiteParams};
use flashsim_mem::{CacheGeometry, MemorySystem};
use flashsim_numa::{Numa, NumaParams};
use flashsim_os::OsModel;
use std::fmt;

/// Which processor model drives each node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuModel {
    /// Mipsy at a given clock (150/225/300 MHz), optionally with the
    /// §3.1.3 instruction-latency ablation enabled.
    Mipsy {
        /// Core clock in MHz.
        mhz: u32,
        /// Charge real mul/div/FP latencies (ablation only).
        model_int_latencies: bool,
        /// Tuned-in secondary-cache interface occupancy (§3.1.2).
        l2_iface: Option<TimeDelta>,
    },
    /// The generic 4-issue out-of-order model.
    Mxs,
    /// The Embra functional model: one cycle per op, no memory modelling
    /// — for positioning/validating workloads only, never for timing
    /// (the paper's §2.2 caveat, enforced by construction).
    Embra,
    /// The gold-standard R10000 (OOO plus implementation constraints).
    R10000,
}

impl CpuModel {
    /// The core clock this model runs at.
    pub fn clock(&self) -> Clock {
        match self {
            CpuModel::Mipsy { mhz, .. } => Clock::from_mhz(*mhz),
            CpuModel::Mxs | CpuModel::R10000 | CpuModel::Embra => Clock::from_mhz(150),
        }
    }

    /// Builds one core instance.
    pub fn build(&self) -> Box<dyn flashsim_cpu::Core> {
        match self {
            CpuModel::Mipsy {
                mhz,
                model_int_latencies,
                l2_iface,
            } => {
                let mut cfg = MipsyConfig::at_mhz(*mhz);
                cfg.model_int_latencies = *model_int_latencies;
                cfg.l2_interface_transfer = *l2_iface;
                Box::new(Mipsy::new(cfg))
            }
            CpuModel::Mxs => Box::new(OooCore::new(OooConfig::mxs(), "mxs")),
            CpuModel::R10000 => Box::new(OooCore::new(OooConfig::r10000(), "r10000")),
            CpuModel::Embra => Box::new(flashsim_cpu::Embra::new(Clock::from_mhz(150))),
        }
    }

    /// A short display label (`"mipsy-225"`, `"mxs"`, `"r10000"`).
    pub fn label(&self) -> String {
        match self {
            CpuModel::Mipsy {
                mhz,
                model_int_latencies,
                ..
            } => {
                if *model_int_latencies {
                    format!("mipsy-{mhz}+lat")
                } else {
                    format!("mipsy-{mhz}")
                }
            }
            CpuModel::Mxs => "mxs".to_owned(),
            CpuModel::R10000 => "r10000".to_owned(),
            CpuModel::Embra => "embra".to_owned(),
        }
    }
}

/// Which memory-system model sits below the secondary caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemSysKind {
    /// The detailed FlashLite model with the given parameter set.
    FlashLite(FlashLiteParams),
    /// The generic latency-only NUMA model.
    Numa(NumaParams),
}

impl MemSysKind {
    /// Whether the model can be built over `nodes` nodes: FlashLite's
    /// hypercube needs a power of two, NUMA takes any count.
    pub(crate) fn supports_nodes(&self, nodes: u32) -> bool {
        match self {
            MemSysKind::FlashLite(_) => nodes.is_power_of_two(),
            MemSysKind::Numa(_) => true,
        }
    }

    /// Builds the memory system for `nodes` nodes of `node_mem_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if FlashLite is requested with a non-power-of-two node
    /// count; [`Machine::new`](crate::Machine::new) checks that first and
    /// returns an error instead.
    pub fn build(&self, nodes: u32, node_mem_bytes: u64) -> Box<dyn MemorySystem> {
        match self {
            MemSysKind::FlashLite(p) => Box::new(
                FlashLite::new(nodes, node_mem_bytes, *p)
                    .expect("FlashLite requires a power-of-two node count"), // gate: allow
            ),
            MemSysKind::Numa(p) => Box::new(Numa::new(nodes, node_mem_bytes, *p)),
        }
    }

    /// A short display label.
    pub fn label(&self) -> &'static str {
        match self {
            MemSysKind::FlashLite(_) => "flashlite",
            MemSysKind::Numa(_) => "numa",
        }
    }
}

/// Cache/TLB/memory geometry of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineGeometry {
    /// Primary data cache.
    pub l1: CacheGeometry,
    /// Secondary unified cache.
    pub l2: CacheGeometry,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Physical memory per node.
    pub node_mem_bytes: u64,
    /// TLB entries (overrides the OS model's default when smaller
    /// machines are scaled).
    pub tlb_entries: usize,
}

impl MachineGeometry {
    /// The FLASH hardware of Table 1: 32 KB/32 B L1D, 2 MB/128 B 2-way L2,
    /// 4 KB pages, 64-entry TLB.
    pub fn flash() -> MachineGeometry {
        MachineGeometry {
            l1: CacheGeometry::new(32 * 1024, 32, 2),
            l2: CacheGeometry::new(2 * 1024 * 1024, 128, 2),
            page_bytes: 4096,
            node_mem_bytes: 256 << 20,
            tlb_entries: 64,
        }
    }

    /// A 1/8-scale machine preserving all the paper's regimes; used by
    /// the fast experiment matrix (datasets are scaled to match in
    /// `flashsim-workloads`).
    pub fn scaled() -> MachineGeometry {
        MachineGeometry {
            l1: CacheGeometry::new(8 * 1024, 32, 2),
            l2: CacheGeometry::new(256 * 1024, 128, 2),
            page_bytes: 4096,
            node_mem_bytes: 32 << 20,
            tlb_entries: 16,
        }
    }

    /// Number of L2 page colours (way size / page size) — what the frame
    /// allocators colour against.
    pub fn colors(&self) -> u64 {
        let way_bytes = self.l2.bytes / u64::from(self.l2.ways);
        (way_bytes / self.page_bytes).max(1)
    }

    /// Physical frames per node.
    pub fn frames_per_node(&self) -> u64 {
        self.node_mem_bytes / self.page_bytes
    }
}

/// How the machine driver schedules node execution.
///
/// Every policy produces bit-identical results — `tests/sched_equivalence.rs`
/// asserts it on every platform. `Reference` exists as the oracle for that
/// proof and for debugging; `Batched` is the serial production hot path;
/// `Parallel` shards node batches across host worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Conservative lookahead batching over a sorted laggard queue: the
    /// trailing node executes a run of ops per scheduling decision
    /// (bounded by shared-resource touches and the runner-up's clock plus
    /// the memory model's minimum shared-interaction latency).
    #[default]
    Batched,
    /// The historical one-op-per-decision schedule (`quantum = 1`,
    /// linear `min_by_key` laggard scan).
    Reference,
    /// Fork/join rounds over a host worker pool: every node whose next
    /// shared interaction provably lies beyond the conservative horizon
    /// executes its private ops concurrently; everything shared runs in
    /// the serial batched order. Output is byte-identical to the other
    /// policies at every worker count.
    Parallel {
        /// Host worker threads (`0` = one per available host core). The
        /// count shapes only wall-clock speed, never simulated results,
        /// and is deliberately excluded from [`SchedPolicy::key`] — so
        /// checkpoint provenance is worker-count-invariant and a
        /// run may be restored under a different worker count.
        workers: usize,
    },
}

impl SchedPolicy {
    /// A short machine-readable label (`"batched"` / `"reference"` /
    /// `"parallel"`), recorded in run manifests.
    pub fn key(&self) -> &'static str {
        match self {
            SchedPolicy::Batched => "batched",
            SchedPolicy::Reference => "reference",
            SchedPolicy::Parallel { .. } => "parallel",
        }
    }
}

/// A complete machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes (one processor per node).
    pub nodes: u32,
    /// Processor model.
    pub cpu: CpuModel,
    /// OS environment model.
    pub os: OsModel,
    /// Memory-system model.
    pub memsys: MemSysKind,
    /// Cache/memory geometry.
    pub geometry: MachineGeometry,
    /// Secondary-cache hit service time.
    pub l2_hit: TimeDelta,
    /// Barrier release overhead: `base + per_node × nodes`.
    pub barrier_base: TimeDelta,
    /// Per-node component of barrier overhead.
    pub barrier_per_node: TimeDelta,
    /// Forward-progress watchdog (default: unbounded).
    pub watchdog: Watchdog,
    /// Fault plan injected into the run (default: none).
    pub faults: Option<FaultPlan>,
    /// Scheduling policy (default: lookahead-batched).
    pub sched: SchedPolicy,
    /// Sim-time telemetry sampling cadence (default: disabled). When set,
    /// the machine attaches an enabled [`flashsim_engine::Telemetry`] with
    /// this bucket width at construction and the run result carries the
    /// sampled series.
    pub telemetry: Option<TimeDelta>,
    /// Attach a cycle-accounting profiler at construction (default:
    /// off), so matrix-driven runs can carry accounting without the
    /// caller holding the [`crate::Machine`].
    pub profile: bool,
    /// Live stderr heartbeat interval (host wall-clock; default: off).
    pub heartbeat: Option<std::time::Duration>,
    /// Causal span-tracer sampling plan (default: disabled). When set,
    /// the machine attaches an enabled [`flashsim_engine::SpanTracer`]
    /// at construction, records the plan in the run manifest, and the
    /// run result carries the sampled span trees.
    pub spans: Option<flashsim_engine::SpanPlan>,
    /// Attach a host-time self-profiler at construction (default: off).
    /// When set, the machine drives an enabled
    /// [`flashsim_engine::HostProf`] through its scheduling loops and
    /// the run result carries the finalized
    /// [`flashsim_engine::HostReport`]. A host-side observability knob:
    /// host clock reads never feed simulated state, so it is excluded
    /// from the provenance string and attachment changes zero simulated
    /// bytes (`tests/hostprof_isolation.rs`).
    pub hostprof: bool,
}

impl MachineConfig {
    /// A config with the paper's fixed structural values filled in;
    /// callers choose node count, models, and geometry.
    pub fn new(
        nodes: u32,
        cpu: CpuModel,
        os: OsModel,
        memsys: MemSysKind,
        geometry: MachineGeometry,
    ) -> MachineConfig {
        MachineConfig {
            nodes,
            cpu,
            os: os.with_tlb_entries(geometry.tlb_entries),
            memsys,
            geometry,
            l2_hit: TimeDelta::from_ns(60),
            barrier_base: TimeDelta::from_us(2),
            barrier_per_node: TimeDelta::from_ns(300),
            watchdog: Watchdog::default(),
            faults: None,
            sched: SchedPolicy::default(),
            telemetry: None,
            profile: false,
            heartbeat: None,
            spans: None,
            hostprof: false,
        }
    }

    /// Display label like `"simos-mipsy-225/flashlite"`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}/{}",
            self.os.name,
            self.cpu.label(),
            self.memsys.label()
        )
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x{}", self.label(), self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_clocks() {
        assert_eq!(
            CpuModel::Mipsy {
                mhz: 225,
                model_int_latencies: false,
                l2_iface: None
            }
            .clock()
            .mhz(),
            225
        );
        assert_eq!(CpuModel::Mxs.clock().mhz(), 150);
        assert_eq!(CpuModel::R10000.clock().mhz(), 150);
    }

    #[test]
    fn labels_are_informative() {
        let m = CpuModel::Mipsy {
            mhz: 300,
            model_int_latencies: false,
            l2_iface: None,
        };
        assert_eq!(m.label(), "mipsy-300");
        let ml = CpuModel::Mipsy {
            mhz: 225,
            model_int_latencies: true,
            l2_iface: None,
        };
        assert_eq!(ml.label(), "mipsy-225+lat");
        assert_eq!(CpuModel::Mxs.label(), "mxs");
    }

    #[test]
    fn flash_geometry_matches_table1() {
        let g = MachineGeometry::flash();
        assert_eq!(g.l1.bytes, 32 * 1024);
        assert_eq!(g.l1.line_bytes, 32);
        assert_eq!(g.l2.bytes, 2 * 1024 * 1024);
        assert_eq!(g.l2.line_bytes, 128);
        assert_eq!(g.tlb_entries, 64);
        assert_eq!(g.colors(), 256);
    }

    #[test]
    fn scaled_geometry_preserves_color_structure() {
        let g = MachineGeometry::scaled();
        assert_eq!(g.colors(), 32);
        assert!(g.frames_per_node() >= 1024);
    }

    #[test]
    fn builders_construct_models() {
        let core = CpuModel::Mxs.build();
        assert_eq!(core.model_name(), "mxs");
        let core = CpuModel::R10000.build();
        assert_eq!(core.model_name(), "r10000");
        let ms = MemSysKind::FlashLite(FlashLiteParams::hardware()).build(4, 1 << 24);
        assert_eq!(ms.model_name(), "flashlite");
        let ms = MemSysKind::Numa(NumaParams::matched()).build(4, 1 << 24);
        assert_eq!(ms.model_name(), "numa");
    }

    #[test]
    fn config_label_combines_parts() {
        let cfg = MachineConfig::new(
            4,
            CpuModel::Mipsy {
                mhz: 225,
                model_int_latencies: false,
                l2_iface: None,
            },
            OsModel::simos_tuned(),
            MemSysKind::FlashLite(FlashLiteParams::hardware()),
            MachineGeometry::scaled(),
        );
        assert_eq!(cfg.label(), "simos-mipsy-225/flashlite");
        assert!(format!("{cfg}").contains("x4"));
    }

    #[test]
    fn config_applies_geometry_tlb_to_os() {
        let cfg = MachineConfig::new(
            1,
            CpuModel::R10000,
            OsModel::irix_hardware(),
            MemSysKind::FlashLite(FlashLiteParams::hardware()),
            MachineGeometry::scaled(),
        );
        match cfg.os.tlb {
            flashsim_os::TlbModel::Modeled { entries, .. } => assert_eq!(entries, 16),
            flashsim_os::TlbModel::None => panic!(),
        }
    }
}
