//! Structured simulation failures.
//!
//! The validation methodology only closes its loop if every run either
//! completes or fails *diagnosably*: a panic that kills the process mid
//! run-matrix tells you nothing about the other cells, and a hang tells
//! you even less. [`SimError`] is the machine layer's structured answer —
//! every way a run can go wrong (deadlock, unmapped access, physical
//! memory exhaustion, lock misuse, loss of forward progress) carries a
//! [`NodeSnapshot`] of where each node was and, for watchdog trips, the
//! tail of the flight-recorder ring, so a failed cell is a diagnosis
//! rather than a corpse.

use crate::config::MachineConfig;
use crate::machine::MachineError;
use flashsim_engine::Time;
use flashsim_isa::VAddr;
use std::fmt;

/// What one node was doing when a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeState {
    /// Executing ops normally.
    Running,
    /// Finished its op stream.
    Done,
    /// Halted by stalled-node fault injection (or an external stall).
    Stalled,
    /// Blocked at a barrier that never released.
    AtBarrier {
        /// Barrier id the node is waiting at.
        id: u32,
        /// Nodes that have arrived at this barrier so far.
        arrived: u32,
        /// Nodes the barrier needs before it releases.
        expected: u32,
    },
    /// Queued on a lock that was never released.
    WaitingLock {
        /// Lock id the node is queued on.
        id: u32,
        /// Current holder of the lock, if any.
        holder: Option<u32>,
        /// Nodes queued behind the holder (including this one).
        queue_len: u32,
    },
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeState::Running => write!(f, "running"),
            NodeState::Done => write!(f, "done"),
            NodeState::Stalled => write!(f, "stalled"),
            NodeState::AtBarrier {
                id,
                arrived,
                expected,
            } => write!(f, "at barrier {id} ({arrived}/{expected} arrived)"),
            NodeState::WaitingLock {
                id,
                holder,
                queue_len,
            } => match holder {
                Some(h) => write!(
                    f,
                    "waiting on lock {id} (held by node {h}, queue {queue_len})"
                ),
                None => write!(f, "waiting on lock {id} (unheld, queue {queue_len})"),
            },
        }
    }
}

/// A per-node state snapshot attached to failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Node id.
    pub node: u32,
    /// The node's local clock when the snapshot was taken.
    pub at: Time,
    /// Ops the node had executed.
    pub ops: u64,
    /// What the node was doing.
    pub state: NodeState,
}

impl fmt::Display for NodeSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {}: {} (t={}, {} ops)",
            self.node, self.state, self.at, self.ops
        )
    }
}

/// A structured simulation failure.
///
/// Returned by [`crate::machine::Machine::run`]; library code never
/// panics for these conditions.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The machine could not be built for the program.
    Build(MachineError),
    /// No node can make progress: every non-finished node is blocked at a
    /// barrier or lock that will never release.
    Deadlock {
        /// Where each node was, including which barrier/lock blocks it.
        nodes: Vec<NodeSnapshot>,
    },
    /// An access touched an address outside every declared segment.
    UnmappedAddress {
        /// The accessing node.
        node: u32,
        /// The offending virtual address.
        addr: VAddr,
    },
    /// The frame allocator could not back a page.
    OutOfPhysicalMemory {
        /// The accessing node.
        node: u32,
        /// The home node whose memory is exhausted.
        home: u32,
        /// Virtual page number of the failed mapping.
        vpn: u64,
    },
    /// A lock was released while not held, or by a non-holder.
    UnheldLock {
        /// The releasing node.
        node: u32,
        /// Lock id.
        lock: u32,
        /// Who actually held the lock, if anyone.
        holder: Option<u32>,
    },
    /// The run lost forward progress: the watchdog budget expired or a
    /// fault-injected node stall starved the rest of the machine.
    Stalled {
        /// Ops executed machine-wide before progress stopped.
        ops_executed: u64,
        /// Where each node was.
        nodes: Vec<NodeSnapshot>,
    },
    /// The run exceeded its wall-clock budget. Unlike [`Stalled`]
    /// (simulated progress lost), the simulation may be perfectly healthy
    /// — just too slow for the harness's patience; the snapshots say
    /// where the time went.
    ///
    /// [`Stalled`]: SimError::Stalled
    Timeout {
        /// Host wall-clock time elapsed when the watchdog tripped.
        elapsed: std::time::Duration,
        /// The configured wall-clock budget.
        budget: std::time::Duration,
        /// Where each node was.
        nodes: Vec<NodeSnapshot>,
    },
    /// A panic escaped a supervised cell; the payload message is kept.
    Panic(String),
}

impl SimError {
    /// A short stable kind tag (`"deadlock"`, `"stalled"`, ...) for
    /// survival matrices and machine-readable reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Build(_) => "build",
            SimError::Deadlock { .. } => "deadlock",
            SimError::UnmappedAddress { .. } => "unmapped",
            SimError::OutOfPhysicalMemory { .. } => "oom",
            SimError::UnheldLock { .. } => "unheld_lock",
            SimError::Stalled { .. } => "stalled",
            SimError::Timeout { .. } => "timeout",
            SimError::Panic(_) => "panic",
        }
    }
}

fn write_nodes(f: &mut fmt::Formatter<'_>, nodes: &[NodeSnapshot]) -> fmt::Result {
    for n in nodes {
        write!(f, "\n  {n}")?;
    }
    Ok(())
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Build(e) => write!(f, "machine build failed: {e}"),
            SimError::Deadlock { nodes } => {
                write!(f, "deadlock: no runnable node")?;
                write_nodes(f, nodes)
            }
            SimError::UnmappedAddress { node, addr } => {
                write!(f, "node {node}: access to unmapped address {addr}")
            }
            SimError::OutOfPhysicalMemory { node, home, vpn } => write!(
                f,
                "node {node}: home node {home} out of physical memory mapping vpn {vpn:#x}"
            ),
            SimError::UnheldLock { node, lock, holder } => match holder {
                Some(h) => write!(f, "node {node}: released lock {lock} held by node {h}"),
                None => write!(f, "node {node}: released unheld lock {lock}"),
            },
            SimError::Stalled {
                ops_executed,
                nodes,
            } => {
                write!(f, "stalled: no forward progress after {ops_executed} ops")?;
                write_nodes(f, nodes)
            }
            SimError::Timeout {
                elapsed,
                budget,
                nodes,
            } => {
                write!(
                    f,
                    "timeout: wall clock {:.1}s exceeded budget {:.1}s",
                    elapsed.as_secs_f64(),
                    budget.as_secs_f64()
                )?;
                write_nodes(f, nodes)
            }
            SimError::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> SimError {
        SimError::Build(e)
    }
}

/// Forward-progress watchdog configuration.
///
/// The watchdog bounds a run by total ops executed machine-wide; when the
/// budget expires the run ends in [`SimError::Stalled`] carrying per-node
/// snapshots, instead of spinning forever. The default is unbounded,
/// preserving the exact behaviour of unsupervised runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watchdog {
    /// Maximum ops executed across all nodes before the run is declared
    /// stalled. `None` disables the watchdog.
    pub max_ops: Option<u64>,
    /// Maximum host wall-clock time before the run is declared timed out
    /// ([`SimError::Timeout`]). `None` disables the wall-clock limit.
    /// Checked amortized (every few thousand scheduling decisions), so
    /// actual overshoot is bounded by one scheduling quantum.
    pub wall_limit: Option<std::time::Duration>,
}

impl Watchdog {
    /// A watchdog with the given op budget.
    pub fn with_budget(max_ops: u64) -> Watchdog {
        Watchdog {
            max_ops: Some(max_ops),
            ..Watchdog::default()
        }
    }

    /// Adds a wall-clock budget to this watchdog.
    pub fn with_wall_limit(self, limit: std::time::Duration) -> Watchdog {
        Watchdog {
            wall_limit: Some(limit),
            ..self
        }
    }

    /// A budget proportional to the configured machine and a per-node op
    /// estimate: `nodes × per_node × slack`. Used by supervised matrices
    /// to bound every cell without hand-tuning each workload.
    pub fn scaled_budget(cfg: &MachineConfig, per_node_ops: u64, slack: u64) -> Watchdog {
        Watchdog::with_budget(u64::from(cfg.nodes) * per_node_ops * slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_blocked_barrier_and_lock() {
        let nodes = vec![
            NodeSnapshot {
                node: 0,
                at: Time::from_ns(100),
                ops: 10,
                state: NodeState::AtBarrier {
                    id: 3,
                    arrived: 1,
                    expected: 2,
                },
            },
            NodeSnapshot {
                node: 1,
                at: Time::from_ns(90),
                ops: 8,
                state: NodeState::WaitingLock {
                    id: 7,
                    holder: Some(0),
                    queue_len: 1,
                },
            },
        ];
        // Every report that carries snapshots names each node's state.
        for e in [
            SimError::Deadlock {
                nodes: nodes.clone(),
            },
            SimError::Stalled {
                ops_executed: 18,
                nodes: nodes.clone(),
            },
            SimError::Timeout {
                elapsed: std::time::Duration::from_secs(2),
                budget: std::time::Duration::from_secs(1),
                nodes: nodes.clone(),
            },
        ] {
            let msg = format!("{e}");
            assert!(msg.contains("barrier 3"), "{msg}");
            assert!(msg.contains("1/2 arrived"), "{msg}");
            assert!(msg.contains("lock 7"), "{msg}");
            assert!(msg.contains("held by node 0"), "{msg}");
            assert_eq!(msg.lines().count(), 1 + nodes.len(), "{msg}");
        }
    }

    #[test]
    fn kinds_are_stable_and_distinct() {
        let kinds = [
            SimError::Deadlock { nodes: vec![] }.kind(),
            SimError::UnmappedAddress {
                node: 0,
                addr: VAddr(0),
            }
            .kind(),
            SimError::OutOfPhysicalMemory {
                node: 0,
                home: 0,
                vpn: 0,
            }
            .kind(),
            SimError::UnheldLock {
                node: 0,
                lock: 0,
                holder: None,
            }
            .kind(),
            SimError::Stalled {
                ops_executed: 0,
                nodes: vec![],
            }
            .kind(),
            SimError::Timeout {
                elapsed: std::time::Duration::ZERO,
                budget: std::time::Duration::ZERO,
                nodes: vec![],
            }
            .kind(),
            SimError::Panic(String::new()).kind(),
        ];
        let mut sorted = kinds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
    }

    #[test]
    fn watchdog_default_is_unbounded() {
        assert_eq!(Watchdog::default().max_ops, None);
        assert_eq!(Watchdog::with_budget(100).max_ops, Some(100));
    }
}
