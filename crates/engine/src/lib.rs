//! `flashsim-engine` — the discrete-event substrate shared by every
//! simulator in the `flashsim` workspace.
//!
//! The FLASH validation study compares many simulators against one gold
//! standard; for the comparisons to be meaningful, all of them must agree on
//! the primitive notions of time, contention, randomness, and statistics
//! — and on how a run is observed, exported, checkpointed and scheduled
//! onto host threads. This crate provides the four primitives, then the
//! observation and host-execution layers every simulator shares:
//!
//! - [`time`]: picosecond-resolution [`time::Time`]/[`time::TimeDelta`]
//!   newtypes and [`time::Clock`] domains (150/225/300 MHz CPUs, 75 MHz
//!   MAGIC, the network),
//! - [`resource`]: busy-until occupancy timelines used to model the MAGIC
//!   protocol processor, memory banks, network links, and the R10000
//!   secondary-cache interface,
//! - [`event`]: a deterministic time-ordered event queue,
//! - [`sched`]: one sorted run of node clocks for laggard-first
//!   scheduling with a linear-scan-identical tie-break,
//! - [`rng`]: a pinned, reproducible PRNG for workload data and hardware
//!   run-to-run jitter,
//! - [`stats`]: the labelled stat sets every layer reports through,
//! - [`fault`]: deterministic, seeded fault injection (latency
//!   perturbation, dropped/delayed messages, stalled nodes, resource
//!   pressure) so robustness paths can be exercised reproducibly,
//! - [`account`]: a cycle-accounting profiler attributing every simulated
//!   picosecond on every node to a stall class (compute, cache misses,
//!   TLB, occupancy, network, sync, OS), sampled into time phases — the
//!   substrate for per-class error attribution between platforms,
//! - [`ckpt`]: the versioned `flashsim-ckpt-v1` checkpoint format —
//!   sequential writer/reader with checksum + provenance interlock, the
//!   substrate for deterministic snapshot/restore at barrier releases,
//! - [`span`]: causal span trees for sampled memory transactions — a
//!   deterministic seeded sampler plus per-leg charges that reconcile
//!   exactly against the latency breakdowns, with critical-path
//!   extraction and a schema-validated JSONL export — the substrate for
//!   diffing one transaction's legs between platforms,
//! - [`telemetry`]: a sim-time metrics registry (counters, gauges,
//!   occupancy integrators in integer picoseconds) sampled into bounded
//!   time series with a schema-validated JSONL export — how queue depths
//!   and utilization *evolve* over a run, not just where the cycles went,
//! - [`pool`]: a bounded pool of persistent host worker threads with
//!   per-worker run queues and work stealing — the fan-out substrate of
//!   the machine's parallel scheduling policy,
//! - [`hostprof`]: host-time self-profiling — monotonic-clock scoped
//!   phase timers over the scheduler's round structure, fork-admission
//!   outcome counters, and per-worker pool lanes, with a JSONL export
//!   and a hard isolation contract (host clock reads never feed
//!   simulated state),
//! - [`jsonl`]: JSON string escaping, and the one walk each JSONL format
//!   (telemetry, spans, hostprof) is written and strictly read with,
//! - [`schema`]: the registry of the four `flashsim-*-v1` formats — name,
//!   schema id and validator — behind `flashsim validate`; every file
//!   `flashsim report` and `flashsim spans` export is one of them,
//! - [`window`]: the one bucket axis telemetry and accounting series lie
//!   on, and the caller-held fold the per-op observer sites write through
//!   — a sum or max over one cached bucket, published once per bucket,
//! - [`fxhash`]: the fast fixed-function hasher behind the hot-path maps
//!   (page table, TLB), with no per-process random seed,
//! - [`observers`]: the bundle of the four recording handles (profiler,
//!   telemetry, spans, hostprof) a layer stores and is attached to as
//!   one value.
//!
//! # Examples
//!
//! Modelling contention at a node controller:
//!
//! ```
//! use flashsim_engine::resource::Resource;
//! use flashsim_engine::time::{Clock, Time};
//!
//! let magic = Clock::from_mhz(75);
//! let mut pp = Resource::new("protocol-processor");
//! // Two requests arrive nearly together; the second queues.
//! let a = pp.acquire(Time::ZERO, magic.cycles(12));
//! let b = pp.acquire(Time::from_ns(40), magic.cycles(12));
//! assert!(b.start >= a.end);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod ckpt;
pub mod event;
pub mod fault;
pub mod fxhash;
pub mod hostprof;
pub mod jsonl;
pub mod observers;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod schema;
pub mod span;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod window;

pub use account::{Accounting, NodeAccount, Profiler, StallClass};
pub use ckpt::{Ckpt, CkptError, CkptReader, CkptWriter};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan, MessageFate};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use hostprof::{ForkAdmission, HostPhase, HostProf, HostReport, RoundTally};
pub use observers::Observers;
pub use pool::{WorkerLane, WorkerPool};
pub use resource::{Grant, Resource, ResourcePool};
pub use rng::Rng;
pub use sched::LaggardHeap;
pub use schema::Schema;
pub use span::{SpanClass, SpanPlan, SpanRecord, SpanSet, SpanTracer, SpanTxn};
pub use stats::StatSet;
pub use telemetry::{MetricId, MetricKind, MetricSeries, Telemetry, TelemetrySeries};
pub use time::{Clock, Time, TimeDelta};
pub use window::Window;
