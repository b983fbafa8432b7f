//! The memory-system interface every model implements.
//!
//! The paper swaps FlashLite for a generic NUMA model inside otherwise
//! unchanged simulators (§3.3); [`MemorySystem`] is the seam that makes the
//! same swap possible here. A processor model that misses in its secondary
//! cache issues a [`MemRequest`]; the memory system runs its coherence
//! protocol, charges whatever latency/occupancy its fidelity level models,
//! and returns a [`MemOutcome`] with the completion time plus the coherence
//! actions (invalidations, interventions) the machine layer must apply to
//! other nodes' caches.

use crate::addr::LineAddr;
use core::fmt;
use flashsim_engine::ckpt::{Ckpt, CkptError};
use flashsim_engine::{FaultInjector, Observers, StatSet, Time, TimeDelta};

/// A node identifier (0-based).
pub type NodeId = u32;

/// The kind of coherence transaction requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read for sharing (load / prefetch miss).
    ReadShared,
    /// Read with intent to write (store miss).
    ReadExclusive,
    /// The requester already holds the line Shared and wants ownership.
    Upgrade,
    /// A displaced dirty line returning home (off the critical path).
    Writeback,
}

impl AccessKind {
    /// Stable lower-case key, used as the root span kind when a
    /// transaction is driven straight at a memory system (the machine
    /// layer roots spans at the cpu access kind instead).
    pub const fn key(self) -> &'static str {
        match self {
            AccessKind::ReadShared => "read",
            AccessKind::ReadExclusive => "read_ex",
            AccessKind::Upgrade => "upgrade",
            AccessKind::Writeback => "writeback",
        }
    }
}

/// The five read-latency protocol cases of the paper's Table 3, plus the
/// write-path cases needed for a complete protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolCase {
    /// Home is the requester; line clean at home memory.
    LocalClean,
    /// Home is the requester; line dirty in a remote cache.
    LocalDirtyRemote,
    /// Home is remote; line clean at home memory.
    RemoteClean,
    /// Home is remote; line dirty in the *home node's own* cache.
    RemoteDirtyHome,
    /// Home is remote; line dirty in a third node's cache.
    RemoteDirtyRemote,
    /// Ownership upgrade (no data transfer; invalidations only).
    UpgradeOwnership,
    /// Writeback of a displaced dirty line.
    WritebackCase,
}

impl ProtocolCase {
    /// The five read cases, in the order of the paper's Table 3.
    pub const TABLE3: [ProtocolCase; 5] = [
        ProtocolCase::LocalClean,
        ProtocolCase::LocalDirtyRemote,
        ProtocolCase::RemoteClean,
        ProtocolCase::RemoteDirtyHome,
        ProtocolCase::RemoteDirtyRemote,
    ];

    /// The paper's label for the case.
    pub const fn label(self) -> &'static str {
        match self {
            ProtocolCase::LocalClean => "Local, clean",
            ProtocolCase::LocalDirtyRemote => "Local, dirty remote",
            ProtocolCase::RemoteClean => "Remote, clean",
            ProtocolCase::RemoteDirtyHome => "Remote, dirty home",
            ProtocolCase::RemoteDirtyRemote => "Remote, dirty remote",
            ProtocolCase::UpgradeOwnership => "Upgrade",
            ProtocolCase::WritebackCase => "Writeback",
        }
    }

    /// Every case, in declaration (and `Ord`) order: `ALL[c.index()] == c`.
    pub const ALL: [ProtocolCase; 7] = [
        ProtocolCase::LocalClean,
        ProtocolCase::LocalDirtyRemote,
        ProtocolCase::RemoteClean,
        ProtocolCase::RemoteDirtyHome,
        ProtocolCase::RemoteDirtyRemote,
        ProtocolCase::UpgradeOwnership,
        ProtocolCase::WritebackCase,
    ];

    /// The case's position in [`ALL`](ProtocolCase::ALL): a dense index
    /// for per-case tables.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The inverse of [`key`](ProtocolCase::key), used when restoring
    /// serialized protocol-case ledgers from checkpoints.
    pub fn from_key(key: &str) -> Option<ProtocolCase> {
        ProtocolCase::ALL.into_iter().find(|c| c.key() == key)
    }

    /// A short statistics key.
    pub const fn key(self) -> &'static str {
        match self {
            ProtocolCase::LocalClean => "local_clean",
            ProtocolCase::LocalDirtyRemote => "local_dirty_remote",
            ProtocolCase::RemoteClean => "remote_clean",
            ProtocolCase::RemoteDirtyHome => "remote_dirty_home",
            ProtocolCase::RemoteDirtyRemote => "remote_dirty_remote",
            ProtocolCase::UpgradeOwnership => "upgrade",
            ProtocolCase::WritebackCase => "writeback",
        }
    }
}

impl fmt::Display for ProtocolCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A memory-system transaction request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// The requesting node.
    pub node: NodeId,
    /// The (L2-line-aligned) physical line.
    pub line: LineAddr,
    /// Transaction kind.
    pub kind: AccessKind,
    /// When the request leaves the requester's pins.
    pub now: Time,
}

/// Coherence side effects the machine layer must apply to other nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoherenceActions {
    /// Nodes whose cached copy must be invalidated.
    pub invalidate: Vec<NodeId>,
    /// Node whose Modified copy is downgraded to Shared (dirty
    /// intervention on a ReadShared).
    pub downgrade: Option<NodeId>,
}

impl CoherenceActions {
    /// No side effects.
    pub fn none() -> CoherenceActions {
        CoherenceActions::default()
    }

    /// True if no other node is affected.
    pub fn is_empty(&self) -> bool {
        self.invalidate.is_empty() && self.downgrade.is_none()
    }
}

/// Where a transaction's latency went, as the model decomposes it.
///
/// Models fill this alongside `done_at` so the cycle-accounting layer can
/// charge the requester's stall to the right [`flashsim_engine::StallClass`]
/// without re-deriving the model's internals. Components cover the
/// *request path*; anything the model cannot itemize lands in `memory`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Protocol-processor / controller occupancy and queueing.
    pub occupancy: TimeDelta,
    /// Interconnect flight time and link contention.
    pub network: TimeDelta,
    /// Memory-bank access, bank queueing, and un-itemized remainder.
    pub memory: TimeDelta,
}

impl LatencyBreakdown {
    /// Sum of the components.
    pub fn total(&self) -> TimeDelta {
        self.occupancy + self.network + self.memory
    }
}

/// The result of a memory-system transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemOutcome {
    /// When the data (or ownership ack) arrives back at the requester.
    pub done_at: Time,
    /// Which protocol path the transaction took.
    pub case: ProtocolCase,
    /// Whether the requester receives the only cached copy (Exclusive)
    /// rather than a Shared one. Always true for ReadExclusive/Upgrade.
    pub exclusive: bool,
    /// Actions the machine must apply to other nodes' hierarchies.
    pub actions: CoherenceActions,
    /// Where the latency went (request-path decomposition).
    pub breakdown: LatencyBreakdown,
}

/// A coherent shared-memory system below the per-node secondary caches.
///
/// Implementations own the directory state and are the authority on
/// sharers/owners; the per-node cache hierarchies follow via the returned
/// [`CoherenceActions`].
pub trait MemorySystem {
    /// Executes one transaction, advancing directory state and charging
    /// whatever occupancy the model's fidelity includes.
    fn access(&mut self, req: MemRequest) -> MemOutcome;

    /// The home node of a line (by physical address range).
    fn home_of(&self, line: LineAddr) -> NodeId;

    /// Model statistics (protocol case counts, occupancy, contention).
    fn stats(&self) -> StatSet;

    /// A short human-readable model name (e.g. `"flashlite"`, `"numa"`).
    fn model_name(&self) -> &'static str;

    /// Attaches the machine's observers. A model stores the bundle,
    /// registers its telemetry series (registration order is export
    /// order) and forwards the bundle to its network, if it has one; what
    /// a model writes to each handle is documented on [`Observers`].
    /// Default: no instrumentation.
    fn attach(&mut self, obs: &Observers) {
        let _ = obs;
    }

    /// Attaches a fault injector. Models that route protocol messages
    /// (FlashLite) consult it for message drop/delay fates; latency-only
    /// models may ignore it — the machine layer still applies latency
    /// perturbation centrally. Default: ignored.
    fn attach_faults(&mut self, faults: FaultInjector) {
        let _ = faults;
    }

    /// Walks the model's mutable state — directory entries,
    /// controller/bank timelines, network links and in-flight messages,
    /// protocol-case ledgers — in the checkpoint ([`Ckpt`]). Called only
    /// at quiescent points (barrier releases), where no transaction is
    /// mid-flight through the model; a restore goes into a freshly
    /// constructed model of the identical configuration and fails closed
    /// on any shape mismatch. Required, not defaulted: a model that
    /// silently skipped its state here would restore into a cold memory
    /// system and break the byte-identity contract.
    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError>;

    /// A conservative lower bound on the latency of *any* demand
    /// transaction this model can serve — the scheduler's lookahead in the
    /// Chandy/Misra sense. A node whose clock trails every other node's by
    /// less than this bound cannot be affected by shared interactions they
    /// have not yet started. `ZERO` (the default) disables lookahead batching
    /// beyond strict laggard wins, which is always safe.
    fn min_shared_latency(&self) -> TimeDelta {
        TimeDelta::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_order_matches_paper() {
        let labels: Vec<_> = ProtocolCase::TABLE3.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Local, clean",
                "Local, dirty remote",
                "Remote, clean",
                "Remote, dirty home",
                "Remote, dirty remote",
            ]
        );
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<_> = [
            ProtocolCase::LocalClean,
            ProtocolCase::LocalDirtyRemote,
            ProtocolCase::RemoteClean,
            ProtocolCase::RemoteDirtyHome,
            ProtocolCase::RemoteDirtyRemote,
            ProtocolCase::UpgradeOwnership,
            ProtocolCase::WritebackCase,
        ]
        .iter()
        .map(|c| c.key())
        .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn coherence_actions_emptiness() {
        assert!(CoherenceActions::none().is_empty());
        let a = CoherenceActions {
            invalidate: vec![2],
            downgrade: None,
        };
        assert!(!a.is_empty());
        let b = CoherenceActions {
            invalidate: vec![],
            downgrade: Some(1),
        };
        assert!(!b.is_empty());
    }
}
