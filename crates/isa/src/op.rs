//! The abstract operation IR executed by every processor model.
//!
//! The paper runs identical MIPS binaries on the FLASH hardware and on every
//! simulator. We have no MIPS interpreter, so the workspace substitutes an
//! *abstract instruction stream*: a sequence of [`Op`]s carrying the three
//! properties the paper's effects depend on —
//!
//! 1. **instruction class** (integer ALU, the high-latency integer
//!    multiply/divide that dominate Radix-Sort, the floating-point ops that
//!    dominate Ocean, loads/stores/prefetches, branches),
//! 2. **virtual addresses** (so caches, the TLB, and page colouring behave
//!    as they would for the real access stream), and
//! 3. **register dependences** (so an out-of-order model can compute real
//!    instruction-level parallelism and an in-order model can ignore it).
//!
//! The same op stream is fed to every platform — the moral equivalent of the
//! paper's "the same application binaries are used for all platforms".
//!
//! An [`Op`] is 16 bytes, pinned at compile time (its layout table is on
//! the type): a run streams tens of millions of them from generator
//! threads to the cores that execute them in place, so the op's size is
//! that hand-off's memory and cache traffic. A branch's outcome has no
//! byte of its own; it lives in the branch's unused `addr`, behind
//! [`Op::taken`].

use core::fmt;

/// A virtual address in the simulated application's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Byte offset addition.
    pub const fn offset(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }

    /// The raw address value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The virtual page number for a given page size.
    pub const fn vpn(self, page_bytes: u64) -> u64 {
        self.0 / page_bytes
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::LowerHex for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// An architectural register used only for dependence modelling.
///
/// Register 0 is hard-wired to "always ready" (like MIPS `$zero`); writing
/// to it discards the dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// The always-ready zero register.
    pub const ZERO: Reg = Reg(0);
    /// Number of architectural registers modelled.
    pub const COUNT: usize = 64;

    /// True for the zero register.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The register index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The instruction classes the paper's analysis distinguishes.
///
/// Latencies are *not* stored here: each processor model assigns its own
/// latency to each class (that difference — e.g. Mipsy executing an integer
/// divide in 1 cycle versus the R10000's 19 — is one of the paper's main
/// findings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU work (add, shift, logical, address math).
    IntAlu,
    /// Integer multiply (5 cycles on the R10000).
    IntMul,
    /// Integer divide (19 cycles on the R10000; frequent in Radix-Sort).
    IntDiv,
    /// FP add/subtract (2 cycles on the R10000).
    FpAdd,
    /// FP multiply (2 cycles on the R10000).
    FpMul,
    /// FP divide (long latency; present in Ocean).
    FpDiv,
    /// A memory load.
    Load,
    /// A memory store.
    Store,
    /// A non-binding software prefetch (hand-inserted, as in the paper's
    /// tuned SPLASH-2 binaries).
    Prefetch,
    /// A conditional branch.
    Branch,
    /// Global barrier.
    Barrier,
    /// Lock acquire (spins via coherence on the lock's cache line).
    LockAcquire,
    /// Lock release.
    LockRelease,
}

impl OpClass {
    /// True for classes that reference memory through the cache hierarchy.
    pub const fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store | OpClass::Prefetch)
    }

    /// True for synchronization classes handled by the machine layer.
    pub const fn is_sync(self) -> bool {
        matches!(
            self,
            OpClass::Barrier | OpClass::LockAcquire | OpClass::LockRelease
        )
    }

    /// True for floating-point compute classes.
    pub const fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv)
    }

    /// True for classes that touch only node-private state — compute and
    /// branches. Local ops never reach the memory system, the sync layer,
    /// or the fault injector, so a node may execute a run of them without
    /// a scheduling decision and every shared timeline stays untouched.
    pub const fn is_local(self) -> bool {
        !self.is_memory() && !self.is_sync()
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "alu",
            OpClass::IntMul => "mul",
            OpClass::IntDiv => "div",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Prefetch => "pref",
            OpClass::Branch => "branch",
            OpClass::Barrier => "barrier",
            OpClass::LockAcquire => "lock",
            OpClass::LockRelease => "unlock",
        };
        f.write_str(s)
    }
}

/// One operation in a thread's instruction stream.
///
/// Sixteen bytes, every one of them a field — streams are tens of millions
/// of ops, handed from generator to core by reference (see
/// [`sink`](crate::sink)), so the op's size is the hand-off's memory and
/// cache footprint:
///
/// | offset | field   | type      |
/// |--------|---------|-----------|
/// | 0      | `addr`  | `VAddr`   |
/// | 8      | `id`    | `u32`     |
/// | 12     | `class` | `OpClass` |
/// | 13     | `dst`   | `Reg`     |
/// | 14     | `src_a` | `Reg`     |
/// | 15     | `src_b` | `Reg`     |
///
/// A branch's outcome has no byte of its own: it is the low bit of the
/// branch's otherwise unused `addr`, read through [`Op::taken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Op {
    /// Memory address for memory ops; lock-line address for lock ops; the
    /// outcome bit for branches (see [`Op::taken`]); `VAddr(0)` otherwise.
    pub addr: VAddr,
    /// Barrier/lock identifier for sync ops; static branch site id for
    /// branches (used by branch predictors); 0 otherwise.
    pub id: u32,
    /// The instruction class.
    pub class: OpClass,
    /// Destination register (`Reg::ZERO` when the result is unused).
    pub dst: Reg,
    /// First source register (address base for memory ops).
    pub src_a: Reg,
    /// Second source register (store data; `Reg::ZERO` if unused).
    pub src_b: Reg,
}

const _: () = assert!(core::mem::size_of::<Op>() == 16);

impl Op {
    /// A pure compute op of the given class with explicit dependences.
    pub fn compute(class: OpClass, dst: Reg, src_a: Reg, src_b: Reg) -> Op {
        debug_assert!(!class.is_memory() && !class.is_sync() && class != OpClass::Branch);
        Op {
            class,
            dst,
            src_a,
            src_b,
            addr: VAddr(0),
            id: 0,
        }
    }

    /// A load of `addr` into `dst`, with the address depending on `base`.
    pub fn load(addr: VAddr, dst: Reg, base: Reg) -> Op {
        Op {
            class: OpClass::Load,
            dst,
            src_a: base,
            src_b: Reg::ZERO,
            addr,
            id: 0,
        }
    }

    /// A store to `addr` of the value in `data`, address depending on `base`.
    pub fn store(addr: VAddr, base: Reg, data: Reg) -> Op {
        Op {
            class: OpClass::Store,
            dst: Reg::ZERO,
            src_a: base,
            src_b: data,
            addr,
            id: 0,
        }
    }

    /// A non-binding prefetch of `addr`.
    pub fn prefetch(addr: VAddr) -> Op {
        Op {
            class: OpClass::Prefetch,
            dst: Reg::ZERO,
            src_a: Reg::ZERO,
            src_b: Reg::ZERO,
            addr,
            id: 0,
        }
    }

    /// A conditional branch at static site `site`, depending on `cond`.
    pub fn branch(site: u32, taken: bool, cond: Reg) -> Op {
        Op {
            class: OpClass::Branch,
            dst: Reg::ZERO,
            src_a: cond,
            src_b: Reg::ZERO,
            addr: VAddr(taken as u64),
            id: site,
        }
    }

    /// For branches: whether the branch is taken. False for every other
    /// class.
    #[inline]
    pub fn taken(&self) -> bool {
        self.class == OpClass::Branch && self.addr.0 != 0
    }

    /// A global barrier with identifier `id`.
    pub fn barrier(id: u32) -> Op {
        Op {
            class: OpClass::Barrier,
            dst: Reg::ZERO,
            src_a: Reg::ZERO,
            src_b: Reg::ZERO,
            addr: VAddr(0),
            id,
        }
    }

    /// A lock acquire on lock `id` whose flag lives at `addr`.
    pub fn lock_acquire(id: u32, addr: VAddr) -> Op {
        Op {
            class: OpClass::LockAcquire,
            dst: Reg::ZERO,
            src_a: Reg::ZERO,
            src_b: Reg::ZERO,
            addr,
            id,
        }
    }

    /// A lock release on lock `id` whose flag lives at `addr`.
    pub fn lock_release(id: u32, addr: VAddr) -> Op {
        Op {
            class: OpClass::LockRelease,
            dst: Reg::ZERO,
            src_a: Reg::ZERO,
            src_b: Reg::ZERO,
            addr,
            id,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            OpClass::Load => write!(f, "load {} <- [{}]", self.dst, self.addr),
            OpClass::Store => write!(f, "store [{}] <- {}", self.addr, self.src_b),
            OpClass::Prefetch => write!(f, "pref [{}]", self.addr),
            OpClass::Branch => write!(
                f,
                "branch @{} {}",
                self.id,
                if self.taken() { "taken" } else { "not-taken" }
            ),
            OpClass::Barrier => write!(f, "barrier #{}", self.id),
            OpClass::LockAcquire => write!(f, "lock #{} [{}]", self.id, self.addr),
            OpClass::LockRelease => write!(f, "unlock #{} [{}]", self.id, self.addr),
            c => write!(f, "{c} {} <- {}, {}", self.dst, self.src_a, self.src_b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_offset_and_vpn() {
        let a = VAddr(0x1000);
        assert_eq!(a.offset(0x234).get(), 0x1234);
        assert_eq!(VAddr(0x2fff).vpn(4096), 2);
        assert_eq!(VAddr(0x3000).vpn(4096), 3);
    }

    #[test]
    fn reg_zero_properties() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg(5).is_zero());
        assert_eq!(Reg(7).index(), 7);
    }

    #[test]
    fn class_predicates() {
        assert!(OpClass::Load.is_memory());
        assert!(OpClass::Prefetch.is_memory());
        assert!(!OpClass::IntAlu.is_memory());
        assert!(OpClass::Barrier.is_sync());
        assert!(OpClass::LockAcquire.is_sync());
        assert!(!OpClass::Store.is_sync());
        assert!(OpClass::FpDiv.is_fp());
        assert!(!OpClass::IntDiv.is_fp());
        assert!(OpClass::IntAlu.is_local());
        assert!(OpClass::Branch.is_local());
        assert!(!OpClass::Load.is_local());
        assert!(!OpClass::Barrier.is_local());
    }

    #[test]
    fn constructors_fill_fields() {
        let l = Op::load(VAddr(64), Reg(3), Reg(2));
        assert_eq!(l.class, OpClass::Load);
        assert_eq!(l.dst, Reg(3));
        assert_eq!(l.src_a, Reg(2));
        assert_eq!(l.addr, VAddr(64));

        let s = Op::store(VAddr(128), Reg(1), Reg(4));
        assert_eq!(s.class, OpClass::Store);
        assert_eq!(s.src_b, Reg(4));
        assert_eq!(s.dst, Reg::ZERO);

        for taken in [true, false] {
            let b = Op::branch(9, taken, Reg(6));
            assert_eq!(b.class, OpClass::Branch);
            assert_eq!(b.taken(), taken);
            assert_eq!(
                (b.id, b.dst, b.src_a, b.src_b),
                (9, Reg::ZERO, Reg(6), Reg::ZERO)
            );
        }
        // Only a branch has an outcome, whatever its `addr` holds.
        assert!(!l.taken() && !s.taken());

        let bar = Op::barrier(2);
        assert_eq!(bar.class, OpClass::Barrier);
        assert_eq!(bar.id, 2);

        let lk = Op::lock_acquire(1, VAddr(4096));
        assert_eq!(lk.class, OpClass::LockAcquire);
        assert_eq!(lk.addr, VAddr(4096));
    }

    #[test]
    fn display_is_informative() {
        let op = Op::load(VAddr(0x40), Reg(3), Reg::ZERO);
        let s = format!("{op}");
        assert!(s.contains("load") && s.contains("0x40"));
        assert!(format!("{}", Op::barrier(7)).contains('7'));
    }

    #[test]
    fn op_is_small() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
        // `class` has spare discriminants, so a peeked op costs no tag word.
        assert_eq!(std::mem::size_of::<Option<Op>>(), 16);
    }
}
