//! The program abstraction: what a "binary" is in this workspace.
//!
//! A [`Program`] is a parallel application: it declares its virtual-memory
//! [`Segment`]s (with the data-[`Placement`] the paper's tuned SPLASH-2
//! binaries perform explicitly) and provides a kernel body per thread that
//! emits the thread's op stream. The *same* `Program` value is handed to
//! every platform, mirroring the paper's use of identical MIPS binaries on
//! Solo, SimOS, and the FLASH hardware.

use crate::op::VAddr;
use crate::sink::{spawn_stream, Sink, ThreadStream};

/// Where the pages of a segment should live in physical memory.
///
/// The paper's multiprocessor SPLASH-2 runs "perform data placement to
/// minimize communication"; the hotspot study (Figure 7) disables it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// All pages on one node (node 0 unless stated). Used for unplaced data
    /// and creates the Figure-7 hotspot.
    Node(u32),
    /// Pages split into `num_threads` equal contiguous blocks, block `i` on
    /// thread `i`'s node — the placement the tuned applications perform.
    Blocked,
    /// Pages distributed round-robin across nodes.
    Interleaved,
}

/// A named region of the program's virtual address space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Human-readable name (e.g. `"keys"`, `"grid"`).
    pub name: &'static str,
    /// First virtual address of the segment (page aligned by convention).
    pub base: VAddr,
    /// Segment length in bytes.
    pub bytes: u64,
    /// Physical placement request.
    pub placement: Placement,
}

impl Segment {
    /// Creates a segment.
    pub fn new(name: &'static str, base: VAddr, bytes: u64, placement: Placement) -> Segment {
        Segment {
            name,
            base,
            bytes,
            placement,
        }
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> VAddr {
        self.base.offset(self.bytes)
    }

    /// True if `addr` falls inside this segment.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// A parallel application expressed as per-thread op-stream kernels.
///
/// Implementations must be deterministic: the stream for thread `tid` may
/// depend only on the program's own parameters, never on timing.
pub trait Program: Send + Sync {
    /// The program's display name (e.g. `"fft"`).
    fn name(&self) -> String;

    /// Number of parallel threads (one per simulated processor).
    fn num_threads(&self) -> usize;

    /// The program's memory segments. Segments must not overlap.
    fn segments(&self) -> Vec<Segment>;

    /// Returns the kernel body for thread `tid`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `tid >= num_threads()`.
    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static>;

    /// The barrier id after which the measured ("parallel") section
    /// begins, or `None` to measure the whole run. Mirrors the paper's
    /// methodology of timing the parallel section only.
    fn timing_barrier(&self) -> Option<u32> {
        None
    }

    /// The workload's base data/RNG seed, if it has one. Recorded in run
    /// manifests so a run can be reproduced exactly.
    fn seed(&self) -> Option<u64> {
        None
    }

    /// Spawns the op stream for thread `tid`.
    fn stream(&self, tid: usize) -> ThreadStream {
        spawn_stream(self.thread_body(tid))
    }

    /// A stable fingerprint of the program's *behavioural* identity: its
    /// segment layout plus every field of every op in every thread's
    /// stream, folded through FNV-1a (stable across builds and hosts,
    /// unlike `DefaultHasher`). Two programs with equal fingerprints
    /// produce identical simulations on any platform, even when their
    /// names and seeds coincide — which is what lets a resumable run
    /// journal decide whether on-disk state belongs to *this* workload.
    ///
    /// Draining the streams costs one generation pass; that is cheap
    /// next to simulating them, but callers should still fingerprint
    /// once and cache, not per comparison.
    fn fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in self.segments() {
            h = mix(h, s.base.get());
            h = mix(h, s.bytes);
            h = mix(
                h,
                match s.placement {
                    Placement::Node(n) => 0x1_0000_0000 | u64::from(n),
                    Placement::Blocked => 0x2_0000_0000,
                    Placement::Interleaved => 0x3_0000_0000,
                },
            );
        }
        h = mix(h, self.timing_barrier().map_or(u64::MAX, u64::from));
        for tid in 0..self.num_threads() {
            h = mix(h, tid as u64);
            let mut ops = 0u64;
            for op in self.stream(tid) {
                // A branch's outcome rides in its `addr` (see
                // `Op::taken`); the fold keeps the two apart, so the value
                // is the one journals recorded when `taken` was a field.
                let taken = op.taken();
                h = mix(h, op.class as u64);
                h = mix(h, u64::from(op.dst.0));
                h = mix(h, u64::from(op.src_a.0));
                h = mix(h, u64::from(op.src_b.0));
                h = mix(h, if taken { 0 } else { op.addr.get() });
                h = mix(h, u64::from(op.id));
                h = mix(h, u64::from(taken));
                ops += 1;
            }
            h = mix(h, ops);
        }
        h
    }
}

/// Validates that a program's segments are non-empty, page aligned and
/// mutually disjoint. Returns the segments sorted by base address.
///
/// # Errors
///
/// Returns a message naming the offending segment(s) on violation.
pub fn check_segments(program: &dyn Program, page_bytes: u64) -> Result<Vec<Segment>, String> {
    let mut segs = program.segments();
    if segs.is_empty() {
        return Err(format!("program {} declares no segments", program.name()));
    }
    for s in &segs {
        if s.bytes == 0 {
            return Err(format!("segment {} is empty", s.name));
        }
        if s.base.get() % page_bytes != 0 {
            return Err(format!("segment {} base is not page aligned", s.name));
        }
    }
    segs.sort_by_key(|s| s.base);
    for pair in segs.windows(2) {
        if pair[1].base < pair[0].end() {
            return Err(format!(
                "segments {} and {} overlap",
                pair[0].name, pair[1].name
            ));
        }
    }
    Ok(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpClass;

    struct TwoThread;

    impl Program for TwoThread {
        fn name(&self) -> String {
            "two-thread".to_owned()
        }

        fn num_threads(&self) -> usize {
            2
        }

        fn segments(&self) -> Vec<Segment> {
            vec![
                Segment::new("a", VAddr(0x1000), 0x1000, Placement::Blocked),
                Segment::new("b", VAddr(0x4000), 0x2000, Placement::Node(0)),
            ]
        }

        fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            assert!(tid < 2);
            Box::new(move |sink| {
                sink.load(VAddr(0x1000 + tid as u64 * 8));
                sink.barrier();
            })
        }
    }

    #[test]
    fn segment_geometry() {
        let s = Segment::new("s", VAddr(0x1000), 0x100, Placement::Interleaved);
        assert_eq!(s.end(), VAddr(0x1100));
        assert!(s.contains(VAddr(0x1000)));
        assert!(s.contains(VAddr(0x10ff)));
        assert!(!s.contains(VAddr(0x1100)));
        assert!(!s.contains(VAddr(0xfff)));
    }

    #[test]
    fn streams_run_per_thread() {
        let p = TwoThread;
        let ops0: Vec<_> = p.stream(0).collect();
        let ops1: Vec<_> = p.stream(1).collect();
        assert_eq!(ops0.len(), 2);
        assert_eq!(ops1.len(), 2);
        assert_eq!(ops0[0].class, OpClass::Load);
        assert_ne!(ops0[0].addr, ops1[0].addr);
        assert_eq!(ops0[1].class, OpClass::Barrier);
    }

    #[test]
    fn check_segments_accepts_valid() {
        let segs = check_segments(&TwoThread, 4096).unwrap();
        assert_eq!(segs.len(), 2);
        assert!(segs[0].base < segs[1].base);
    }

    struct BadProgram(Vec<Segment>);

    impl Program for BadProgram {
        fn name(&self) -> String {
            "bad".to_owned()
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn segments(&self) -> Vec<Segment> {
            self.0.clone()
        }
        fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(|_| {})
        }
    }

    #[test]
    fn check_segments_rejects_overlap() {
        let p = BadProgram(vec![
            Segment::new("x", VAddr(0x1000), 0x2000, Placement::Blocked),
            Segment::new("y", VAddr(0x2000), 0x1000, Placement::Blocked),
        ]);
        let err = check_segments(&p, 4096).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn check_segments_rejects_misaligned_and_empty() {
        let p = BadProgram(vec![Segment::new(
            "x",
            VAddr(0x1001),
            0x100,
            Placement::Blocked,
        )]);
        assert!(check_segments(&p, 4096).unwrap_err().contains("aligned"));

        let p = BadProgram(vec![Segment::new(
            "x",
            VAddr(0x1000),
            0,
            Placement::Blocked,
        )]);
        assert!(check_segments(&p, 4096).unwrap_err().contains("empty"));

        let p = BadProgram(vec![]);
        assert!(check_segments(&p, 4096)
            .unwrap_err()
            .contains("no segments"));
    }
}
