//! Instruction-latency tables.
//!
//! The paper's §3.1.3 experiment adds 5 cycles per integer multiply and 19
//! per divide to a Mipsy run and watches Radix-Sort's relative execution
//! time jump from 0.71 to 1.02 — instruction latencies are a first-order
//! effect Mipsy deliberately omits. These are the R10000 figures used by
//! MXS and the gold standard (and by that ablation).

use flashsim_isa::OpClass;

/// Execution latency in processor cycles for each compute class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// Integer ALU ops.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// FP add/subtract.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Load-to-use on a primary-cache hit.
    pub load_use: u64,
}

impl LatencyTable {
    /// MIPS R10000 latencies (Yeager, IEEE Micro 1996; the mul/div values
    /// are the ones the paper's §3.1.3 experiment uses).
    pub fn r10000() -> LatencyTable {
        LatencyTable {
            int_alu: 1,
            int_mul: 5,
            int_div: 19,
            fp_add: 2,
            fp_mul: 2,
            fp_div: 12,
            branch: 1,
            load_use: 2,
        }
    }

    /// The latency in cycles for a compute/branch class.
    ///
    /// # Panics
    ///
    /// Panics for memory and sync classes, which have no fixed latency.
    pub fn cycles(&self, class: OpClass) -> u64 {
        match class {
            OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::IntDiv => self.int_div,
            OpClass::FpAdd => self.fp_add,
            OpClass::FpMul => self.fp_mul,
            OpClass::FpDiv => self.fp_div,
            OpClass::Branch => self.branch,
            // Documented contract (see # Panics): callers route memory and
            // sync ops elsewhere; reaching this arm is a programming error.
            other => panic!("no fixed latency for {other}"), // gate: allow
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r10000_values_match_paper() {
        let t = LatencyTable::r10000();
        assert_eq!(t.cycles(OpClass::IntMul), 5);
        assert_eq!(t.cycles(OpClass::IntDiv), 19);
        assert_eq!(t.cycles(OpClass::IntAlu), 1);
    }

    #[test]
    #[should_panic(expected = "no fixed latency")]
    fn memory_class_panics() {
        LatencyTable::r10000().cycles(OpClass::Load);
    }
}
