//! Property-style tests: the directory upholds the single-writer /
//! multiple-reader invariant against a reference model under arbitrary
//! transaction sequences — including pointer-pool exhaustion, where the
//! protocol invalidates sharers to reclaim pointers. Randomized cases
//! come from seeded loops over the in-tree [`flashsim_engine::Rng`]
//! (this workspace builds offline, so no external property-testing
//! framework).

use flashsim_engine::ckpt::{Ckpt, CkptWriter};
use flashsim_engine::Rng;
use flashsim_mem::LineAddr;
use flashsim_proto::{DataSource, Directory};
use std::collections::{HashMap, HashSet};

const NODES: u32 = 16;

#[derive(Debug, Clone)]
enum Txn {
    Read { line: u8, node: u32 },
    ReadEx { line: u8, node: u32 },
    Upgrade { line: u8, node: u32 },
    Writeback { line: u8, node: u32 },
}

fn random_txn(rng: &mut Rng) -> Txn {
    let line = rng.gen_range(8) as u8;
    let node = rng.gen_range(u64::from(NODES)) as u32;
    match rng.gen_range(4) {
        0 => Txn::Read { line, node },
        1 => Txn::ReadEx { line, node },
        2 => Txn::Upgrade { line, node },
        _ => Txn::Writeback { line, node },
    }
}

fn random_txns(rng: &mut Rng, min: u64, max: u64) -> Vec<Txn> {
    let n = min + rng.gen_range(max - min);
    (0..n).map(|_| random_txn(rng)).collect()
}

/// Reference model: for each line, the set of nodes that may legally hold
/// a copy, and whether one of them holds it exclusively.
#[derive(Debug, Default)]
struct Reference {
    holders: HashMap<u8, HashSet<u32>>,
    exclusive: HashMap<u8, Option<u32>>,
}

impl Reference {
    fn apply_response(
        &mut self,
        line: u8,
        node: u32,
        exclusive: bool,
        invalidate: &[u32],
        downgrade: Option<u32>,
    ) {
        let holders = self.holders.entry(line).or_default();
        for v in invalidate {
            holders.remove(v);
        }
        if downgrade.is_some() {
            // Keeps its copy, loses exclusivity (handled below).
        }
        holders.insert(node);
        let excl = self.exclusive.entry(line).or_default();
        *excl = if exclusive { Some(node) } else { None };
        if exclusive {
            // Exclusivity implies sole cached copy.
            holders.retain(|h| *h == node);
        }
    }
}

fn line_addr(line: u8) -> LineAddr {
    LineAddr(u64::from(line) * 128)
}

/// After any transaction sequence: an exclusive grant leaves exactly one
/// listed sharer, directory sharer sets never exceed the node count, and
/// the pointer pool never leaks.
#[test]
fn directory_invariants_hold() {
    let mut rng = Rng::seeded(0xd1c7);
    for _ in 0..256 {
        let txns = random_txns(&mut rng, 1, 200);
        let pool = 1 + rng.gen_range(31) as u32;
        let mut dir = Directory::new(pool);
        let mut reference = Reference::default();

        for txn in &txns {
            match *txn {
                Txn::Read { line, node } => {
                    let r = dir.read(line_addr(line), node);
                    reference.apply_response(line, node, r.exclusive, &r.invalidate, r.downgrade);
                    // Data from an owner implies that owner was a legal holder.
                    if let DataSource::Owner(o) = r.source {
                        assert_ne!(o, node, "owner must not supply data to itself");
                    }
                }
                Txn::ReadEx { line, node } => {
                    let r = dir.read_exclusive(line_addr(line), node);
                    assert!(r.exclusive, "read-exclusive must grant exclusivity");
                    reference.apply_response(line, node, true, &r.invalidate, r.downgrade);
                    assert_eq!(dir.owner(line_addr(line)), Some(node));
                }
                Txn::Upgrade { line, node } => {
                    let r = dir.upgrade(line_addr(line), node);
                    assert!(r.exclusive);
                    reference.apply_response(line, node, true, &r.invalidate, r.downgrade);
                    assert_eq!(dir.owner(line_addr(line)), Some(node));
                }
                Txn::Writeback { line, node } => {
                    // Only a legal writeback (from the current owner) changes
                    // state; stale ones are ignored.
                    let was_owner = dir.owner(line_addr(line)) == Some(node);
                    dir.writeback(line_addr(line), node);
                    if was_owner {
                        reference.holders.entry(line).or_default().clear();
                        reference.exclusive.insert(line, None);
                        assert!(dir.sharers(line_addr(line)).is_empty());
                    }
                }
            }

            // Global invariants after every step.
            for line in 0u8..8 {
                let sharers = dir.sharers(line_addr(line));
                assert!(sharers.len() <= NODES as usize);
                if dir.is_owned(line_addr(line)) {
                    assert_eq!(sharers.len(), 1, "owned line lists exactly the owner");
                }
                // Dynamic pointer allocation bound: chained sharers can never
                // exceed the pool capacity (+1 inline head per line).
                assert!(sharers.len() <= (pool as usize) + 1 + 1);
            }
            assert!(dir.pool_used() <= pool, "pointer pool over-allocated");
        }
    }
}

/// The directory's sharer list always contains the last requester of
/// every line (reads never lose their own requester to reclamation).
#[test]
fn requester_is_always_listed() {
    let mut rng = Rng::seeded(0x5a5a);
    for _ in 0..256 {
        let txns = random_txns(&mut rng, 1, 100);
        let mut dir = Directory::new(2); // tiny pool: force reclamation
        for txn in &txns {
            match *txn {
                Txn::Read { line, node } => {
                    dir.read(line_addr(line), node);
                    assert!(dir.sharers(line_addr(line)).contains(&node));
                }
                Txn::ReadEx { line, node } => {
                    dir.read_exclusive(line_addr(line), node);
                    assert_eq!(dir.sharers(line_addr(line)), vec![node]);
                }
                Txn::Upgrade { line, node } => {
                    dir.upgrade(line_addr(line), node);
                    assert_eq!(dir.sharers(line_addr(line)), vec![node]);
                }
                Txn::Writeback { line, node } => {
                    dir.writeback(line_addr(line), node);
                }
            }
        }
    }
}

/// A fixed transaction sequence over lines of home node 3 (16 MiB per
/// node) that are touched out of address order, in blocks far apart, with
/// a three-slot pointer pool so sharers are reclaimed; returns the
/// directory's checkpoint text.
fn recorded_scenario(mut dir: Directory) -> String {
    const BASE: u64 = 3 << 24;
    const OFFSETS: [u64; 10] = [
        0xff_ff80, 0x10_0000, 0x1000, 0x1f80, 0x0, 0x80, 0x8_0000, 0x10_0080, 0x7f_ff80, 0x2000,
    ];
    let mut rng = Rng::seeded(0xc0de_d1c7);
    for _ in 0..400 {
        let line = LineAddr(BASE + OFFSETS[rng.gen_range(OFFSETS.len() as u64) as usize]);
        let node = rng.gen_range(8) as u32;
        match rng.gen_range(8) {
            0..=3 => drop(dir.read(line, node)),
            4 => drop(dir.read_exclusive(line, node)),
            5 => drop(dir.upgrade(line, node)),
            _ => {
                if let Some(owner) = dir.owner(line) {
                    dir.writeback(line, owner);
                }
            }
        }
    }
    let mut w = CkptWriter::new("recorded-scenario");
    dir.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
    w.finish()
}

/// The header table writes the bytes the hash map it replaced wrote: the
/// scenario's checkpoint, captured from the build before the table (PR 15,
/// `Directory::new(3)`), is reproduced by a directory that grows its index
/// on demand and by one sized for its home node.
#[test]
fn recorded_scenario_checkpoints_to_the_recorded_bytes() {
    const RECORDED: &str = "\
flashsim-ckpt-v1
provenance=recorded-scenario
provenance_hash=70c6d8e0a71b359f
pool_capacity=3
pool_used=3
reclaims=127
free=18446744073709551615
pool=3
slot=0,18446744073709551615
slot=3,18446744073709551615
slot=2,18446744073709551615
headers=10
hdr=50331648,0,1,0
hdr=50331776,1,0,18446744073709551615
hdr=50335744,0,5,18446744073709551615
hdr=50339712,0,5,1
hdr=50339840,0,1,2
hdr=50855936,1,6,18446744073709551615
hdr=51380224,1,2,18446744073709551615
hdr=51380352,0,1,18446744073709551615
hdr=58720128,0,0,18446744073709551615
hdr=67108736,0,2,18446744073709551615
checksum=624c7929fbd7390c
";
    assert_eq!(recorded_scenario(Directory::new(3)), RECORDED);
    assert_eq!(
        recorded_scenario(Directory::for_home(3, 3, 1 << 24, 128)),
        RECORDED
    );
}
