//! `flashsim-proto` — the FLASH cache-coherence protocol: a dynamic-
//! pointer-allocation directory and the classification of transactions
//! into the paper's protocol cases.
//!
//! Both memory-system models (FlashLite and the generic NUMA model) run
//! *this same protocol* — only their timing differs — mirroring the paper's
//! setup where FlashLite and the hardware execute the identical protocol
//! sources.
//!
//! # Examples
//!
//! ```
//! use flashsim_proto::{classify_read, DataSource, Directory};
//! use flashsim_mem::{LineAddr, ProtocolCase};
//!
//! let mut dir = Directory::new(1024);
//! let line = LineAddr(0x4000);
//! dir.read_exclusive(line, 2);           // node 2 dirties the line
//! let resp = dir.read(line, 0);          // node 0 reads it
//! assert_eq!(resp.source, DataSource::Owner(2));
//! // Line homed at node 1, requested by 0, dirty at 2:
//! assert_eq!(classify_read(0, 1, resp.source), ProtocolCase::RemoteDirtyRemote);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod ledger;
pub mod walk;

pub use directory::{DataSource, DirOccupancy, DirResponse, Directory, LINE_BYTES};
pub use ledger::CaseLedger;
pub use walk::{Common, Step, Timing, Walk};

use flashsim_mem::system::{NodeId, ProtocolCase};

/// Classifies a read transaction into the paper's Table-3 case taxonomy.
pub fn classify_read(requester: NodeId, home: NodeId, source: DataSource) -> ProtocolCase {
    match (requester == home, source) {
        (true, DataSource::Memory) => ProtocolCase::LocalClean,
        (true, DataSource::Owner(_)) => ProtocolCase::LocalDirtyRemote,
        (false, DataSource::Memory) => ProtocolCase::RemoteClean,
        (false, DataSource::Owner(o)) if o == home => ProtocolCase::RemoteDirtyHome,
        (false, DataSource::Owner(_)) => ProtocolCase::RemoteDirtyRemote,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_mem::LineAddr;

    #[test]
    fn classify_covers_all_five_cases() {
        assert_eq!(
            classify_read(0, 0, DataSource::Memory),
            ProtocolCase::LocalClean
        );
        assert_eq!(
            classify_read(0, 0, DataSource::Owner(3)),
            ProtocolCase::LocalDirtyRemote
        );
        assert_eq!(
            classify_read(0, 1, DataSource::Memory),
            ProtocolCase::RemoteClean
        );
        assert_eq!(
            classify_read(0, 1, DataSource::Owner(1)),
            ProtocolCase::RemoteDirtyHome
        );
        assert_eq!(
            classify_read(0, 1, DataSource::Owner(2)),
            ProtocolCase::RemoteDirtyRemote
        );
    }

    #[test]
    fn doc_example_flow() {
        let mut dir = Directory::new(1024);
        let line = LineAddr(0x4000);
        dir.read_exclusive(line, 2);
        let resp = dir.read(line, 0);
        assert_eq!(resp.source, DataSource::Owner(2));
    }
}
