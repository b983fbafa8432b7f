//! Correctness plumbing: the simulated-state digest, and the ledger that
//! decides which cells of a workload failed.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical, so every run of a cell is reduced to a
//! [`sim_digest`] and a cell fails if any run errs, if two of its runs
//! disagree, or if it is the workload's oracle cell and disagrees with
//! the `SchedPolicy::Reference` run made during set-up.

use flashsim_machine::RunResult;

/// FNV-1a over everything a run simulated: per-node op counts, total and
/// parallel time, every barrier release, and the full statistics set.
/// Host-side fields (the manifest's wall-clock, `hostprof`) stay out.
pub fn sim_digest(r: &RunResult) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100_0000_01b3)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ops in &r.ops_per_node {
        h = mix(h, *ops);
    }
    h = mix(h, r.total_time.as_ps());
    h = mix(h, r.parallel_time.as_ps());
    for (id, at) in &r.barrier_releases {
        h = mix(h, u64::from(*id));
        h = mix(h, at.as_ps());
    }
    for byte in r.stats.to_json().bytes() {
        h = mix(h, u64::from(byte));
    }
    h
}

/// Per-cell pass/fail state for one workload.
#[derive(Debug)]
pub struct Ledger {
    cells: Vec<CellState>,
}

#[derive(Debug, Clone, Default)]
struct CellState {
    digest: Option<u64>,
    failure: Option<String>,
}

impl Ledger {
    /// A ledger for `cells` cells, none run yet.
    pub fn new(cells: usize) -> Ledger {
        Ledger {
            cells: vec![CellState::default(); cells],
        }
    }

    /// Records one run of `cell`: its digest, or why it did not finish.
    /// The first digest a cell records — from a pass or from the oracle
    /// run — is what every later one must equal.
    pub fn record(&mut self, cell: usize, outcome: Result<u64, String>) {
        let state = &mut self.cells[cell];
        match outcome {
            Err(why) => state.fail(why),
            Ok(digest) => match state.digest {
                None => state.digest = Some(digest),
                Some(first) if first != digest => {
                    state.fail(format!("digest {digest:016x} != earlier {first:016x}"));
                }
                Some(_) => {}
            },
        }
    }

    /// Cells in the workload.
    pub fn attempted(&self) -> usize {
        self.cells.len()
    }

    /// Cells with at least one failed or disagreeing run.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.failure.is_some()).count()
    }

    /// The agreed digest of `cell`, if it ran and never failed.
    pub fn digest(&self, cell: usize) -> Option<u64> {
        let state = &self.cells[cell];
        state.digest.filter(|_| state.failure.is_none())
    }

    /// `(cell, reason)` for every failed cell.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &str)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.failure.as_deref().map(|why| (i, why)))
    }

    /// The process exit code the ledger forces: non-zero on any failure.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.failed() > 0)
    }
}

impl CellState {
    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_core::platform::Study;
    use flashsim_machine::{run_program, SchedPolicy};
    use flashsim_workloads::{Lu, ProblemScale};

    #[test]
    fn perturbed_digest_and_err_cell_both_fail_and_force_nonzero_exit() {
        let mut ledger = Ledger::new(3);
        for _pass in 0..2 {
            ledger.record(0, Ok(0xfeed));
        }
        ledger.record(1, Ok(0xfeed));
        ledger.record(1, Ok(0xfeed ^ 1)); // one flipped bit between passes
        ledger.record(2, Err("thread mismatch".to_owned()));
        assert_eq!(ledger.attempted(), 3);
        assert_eq!(ledger.failed(), 2);
        assert_eq!(ledger.digest(0), Some(0xfeed));
        assert_eq!(ledger.digest(1), None);
        let failed: Vec<usize> = ledger.failures().map(|(i, _)| i).collect();
        assert_eq!(failed, vec![1, 2]);
        assert_ne!(ledger.exit_code(), 0);
    }

    #[test]
    fn clean_ledger_exits_zero() {
        let mut ledger = Ledger::new(1);
        ledger.record(0, Ok(1));
        ledger.record(0, Ok(1));
        assert_eq!((ledger.failed(), ledger.exit_code()), (0, 0));
    }

    #[test]
    fn digest_is_policy_invariant_and_sees_simulated_changes() {
        let study = Study::scaled();
        let lu = Lu::sized(ProblemScale::Tiny, 2);
        let batched = run_program(study.hardware(2), &lu).unwrap();
        let mut cfg = study.hardware(2);
        cfg.sched = SchedPolicy::Reference;
        let reference = run_program(cfg, &lu).unwrap();
        assert_eq!(sim_digest(&batched), sim_digest(&reference));

        let mut moved = batched.clone();
        moved.stats.add("l2.misses", 1.0);
        assert_ne!(sim_digest(&batched), sim_digest(&moved));
        let mut slower_host = batched.clone();
        slower_host.manifest.wall_seconds *= 2.0;
        assert_eq!(sim_digest(&batched), sim_digest(&slower_host));
    }
}
