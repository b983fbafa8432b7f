//! Physical address types.
//!
//! Virtual addresses ([`flashsim_isa::VAddr`]) are what programs emit;
//! physical addresses are what caches, directories, and memory banks see.
//! Keeping them as distinct newtypes makes it impossible to index a
//! physically-indexed cache with a virtual address — exactly the class of
//! confusion behind the paper's page-colouring findings.

use core::fmt;
use flashsim_isa::VAddr;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

impl PAddr {
    /// The raw address value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Byte offset addition.
    pub const fn offset(self, bytes: u64) -> PAddr {
        PAddr(self.0 + bytes)
    }

    /// The cache-line address for a given line size.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_bytes` is not a power of two.
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 & !(line_bytes - 1))
    }

    /// The physical frame number for pages of `1 << page_shift` bytes.
    pub const fn pfn(self, page_shift: u32) -> u64 {
        self.0 >> page_shift
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:0x{:x}", self.0)
    }
}

impl fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A line-aligned physical address: the unit of coherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The raw (aligned) address value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The containing physical address (identity; for symmetry).
    pub const fn paddr(self) -> PAddr {
        PAddr(self.0)
    }

    /// The physical frame number for pages of `1 << page_shift` bytes.
    pub const fn pfn(self, page_shift: u32) -> u64 {
        self.0 >> page_shift
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l:0x{:x}", self.0)
    }
}

/// Combines a virtual address with the physical frame backing its page
/// of `1 << page_shift` bytes, preserving the in-page offset.
pub fn translate(vaddr: VAddr, pfn: u64, page_shift: u32) -> PAddr {
    let offset = vaddr.get() & ((1 << page_shift) - 1);
    PAddr(pfn << page_shift | offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_masks_low_bits() {
        assert_eq!(PAddr(0x12345).line(64), LineAddr(0x12340));
        assert_eq!(PAddr(0x12340).line(64), LineAddr(0x12340));
        assert_eq!(PAddr(0xff).line(128), LineAddr(0x80));
    }

    #[test]
    fn pfn_divides_by_page() {
        assert_eq!(PAddr(0x2fff).pfn(12), 2);
        assert_eq!(LineAddr(0x3000).pfn(12), 3);
    }

    #[test]
    fn translate_preserves_offset() {
        let p = translate(VAddr(0x1234), 7, 12);
        assert_eq!(p, PAddr(7 * 4096 + 0x234));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PAddr(0x10)), "p:0x10");
        assert_eq!(format!("{}", LineAddr(0x40)), "l:0x40");
        assert_eq!(format!("{:x}", PAddr(255)), "ff");
    }
}
