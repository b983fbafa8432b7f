//! The observer bundle: the four recording handles every layer may write
//! to, carried and attached as one value.
//!
//! A layer (core, memory system, network, machine) stores one
//! [`Observers`] and has one `attach(&Observers)`; what each layer does
//! with each handle is documented on the field. Every handle is a cheap
//! clone of a shared recorder, and a disabled handle — the default —
//! costs one branch per probe, so a layer uses whichever handles concern
//! it and ignores the rest.

use crate::{HostProf, Profiler, SpanTracer, Telemetry};

/// The recording handles of one machine. `Observers::default()` is
/// [`Observers::disabled`].
#[derive(Debug, Clone, Default)]
pub struct Observers {
    /// Cycle accounting. Each core charges its *core-internal* stalls
    /// (write-buffer drains, prefetch-slot waits, cache-interface
    /// occupancy) to the matching stall class; the machine charges memory
    /// latency (split per the model's latency breakdown), TLB refills, OS
    /// costs and synchronization waits, and marks per-op boundaries so
    /// uncharged time lands in the compute residual. The two never charge
    /// the same span. A core that charges nothing (Embra, test doubles)
    /// reads as all compute — correct for Embra, whose every cycle *is*
    /// compute by construction.
    pub profiler: Profiler,
    /// Sim-time metrics registry. A layer registers its series when it is
    /// attached, so registration order — machine (cache hit/miss
    /// counters, pending-miss depth, barrier skew), scheduler (volatile
    /// `sched.*`), memory system (MAGIC inbound-queue occupancy,
    /// directory-pool fill, NACK/retry rates, bank waits), network
    /// (`net.messages`, `net.link_busy_ps`, `net.link_wait_ps`,
    /// `net.inflight`) — is export order. A model that *omits* a metric is
    /// itself a diagnostic: the latency-only NUMA model registers no
    /// `magic.queue_ps`, which is exactly the queueing the paper shows it
    /// cannot see. All series are driven from protocol-message order,
    /// which is scheduling-policy-invariant.
    pub telemetry: Telemetry,
    /// Causal span trees. The machine roots one tree per sampled
    /// L2-missing access (issue time → data back in the cache); the
    /// memory-system model appends the legs it traverses —
    /// protocol-processor occupancy, NACK/retry loops, bank access, the
    /// reply path — and the network a zero-charge `"hop"` child per hop
    /// under the message's `"net"` leg. Each leg's charge equals exactly
    /// what the model added to its latency-breakdown accumulators inside
    /// that leg, so a tree's charges tile its end-to-end latency in
    /// integer picoseconds. A model that appends *no* legs for work it
    /// does not model is the diagnostic the span diff surfaces.
    pub spans: SpanTracer,
    /// Host-time self-profiler, driven by the machine's scheduling loops
    /// only: scoped phase timers (scan / fork / commit / serial /
    /// checkpoint over a `drive` base), fork-admission tallies,
    /// and the worker pool's per-worker lanes. Isolation contract: it
    /// only ever *absorbs* host clock readings — nothing reads time back
    /// out of it — so it cannot change a simulated byte.
    pub hostprof: HostProf,
}

impl Observers {
    /// Every handle disabled: what each layer holds until it is attached.
    pub fn disabled() -> Observers {
        Observers::default()
    }
}
