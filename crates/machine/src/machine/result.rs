//! What a run returns: the [`RunResult`] and its provenance
//! [`RunManifest`], collected once every node is done.

use super::Machine;
use flashsim_engine::{
    Accounting, HostReport, SpanSet, StallClass, StatSet, TelemetrySeries, Time, TimeDelta,
};

/// Machine-readable provenance record for one run: what was simulated,
/// under which configuration and seed, and how fast the host simulated
/// it. Written alongside results so any number in a report can be traced
/// back to (and reproduced from) the run that produced it.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Machine configuration label (e.g. `"simos-mipsy-225/flashlite"`).
    pub config: String,
    /// Node/processor count.
    pub nodes: u32,
    /// Workload display name.
    pub workload: String,
    /// Workload base seed, if the program has one.
    pub seed: Option<u64>,
    /// Active scheduling policy: [`SchedPolicy::key`](crate::SchedPolicy::key),
    /// one of `"batched"`, `"reference"`, `"parallel"`.
    pub sched: String,
    /// Human-readable fault-plan summary; `None` when no faults were
    /// injected.
    pub faults: Option<String>,
    /// Host wall-clock seconds spent inside [`Machine::run`].
    pub wall_seconds: f64,
    /// Ops executed across all nodes.
    pub total_ops: u64,
    /// Simulated time covered by the run, in seconds.
    pub simulated_seconds: f64,
    /// Host throughput: simulated ops (engine events) per wall-clock
    /// second.
    pub events_per_sec: f64,
    /// Simulated MIPS: millions of simulated instructions per wall-clock
    /// second — the paper's slowdown currency.
    pub sim_mips: f64,
    /// Per-class share of all accounted cycles, in [`StallClass::ALL`]
    /// order; `None` when the run had no profiler attached.
    pub account: Option<[f64; StallClass::COUNT]>,
    /// Span-sampling plan summary (`"seed=… period=… max_txns=…"`);
    /// `None` when the run had no span tracer attached.
    pub spans: Option<String>,
}

impl RunManifest {
    /// Renders the manifest as a flat JSON object (hand-rolled; no
    /// dependencies). Numeric fields are emitted as JSON numbers,
    /// non-finite values as `null`, and a missing seed as `null`.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        fn opt_str(out: &mut String, v: &Option<String>) {
            match v {
                Some(s) => {
                    out.push('"');
                    flashsim_engine::jsonl::push_json_escaped(out, s);
                    out.push('"');
                }
                None => out.push_str("null"),
            }
        }
        let mut out = String::with_capacity(256);
        out.push_str("{\"config\":\"");
        flashsim_engine::jsonl::push_json_escaped(&mut out, &self.config);
        out.push_str("\",\"nodes\":");
        out.push_str(&self.nodes.to_string());
        out.push_str(",\"workload\":\"");
        flashsim_engine::jsonl::push_json_escaped(&mut out, &self.workload);
        out.push_str("\",\"seed\":");
        match self.seed {
            Some(s) => out.push_str(&s.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"sched\":\"");
        flashsim_engine::jsonl::push_json_escaped(&mut out, &self.sched);
        out.push_str("\",\"faults\":");
        opt_str(&mut out, &self.faults);
        out.push_str(",\"wall_seconds\":");
        out.push_str(&num(self.wall_seconds));
        out.push_str(",\"total_ops\":");
        out.push_str(&self.total_ops.to_string());
        out.push_str(",\"simulated_seconds\":");
        out.push_str(&num(self.simulated_seconds));
        out.push_str(",\"events_per_sec\":");
        out.push_str(&num(self.events_per_sec));
        out.push_str(",\"sim_mips\":");
        out.push_str(&num(self.sim_mips));
        out.push_str(",\"spans\":");
        opt_str(&mut out, &self.spans);
        out.push_str(",\"account\":");
        match &self.account {
            None => out.push_str("null"),
            Some(fractions) => {
                out.push('{');
                for (i, (class, f)) in StallClass::ALL.iter().zip(fractions).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(class.key());
                    out.push_str("\":");
                    out.push_str(&num(*f));
                }
                out.push('}');
            }
        }
        out.push('}');
        out
    }
}

/// The result of one program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock time of the whole run (all nodes done).
    pub total_time: TimeDelta,
    /// Time of the measured section: from the release of the program's
    /// timing barrier (or 0 if none) to completion.
    pub parallel_time: TimeDelta,
    /// Ops executed per node — identical across platforms for the same
    /// program ("same binaries").
    pub ops_per_node: Vec<u64>,
    /// Release time of every barrier, in id order.
    pub barrier_releases: Vec<(u32, Time)>,
    /// Merged statistics from cores, hierarchies, TLBs, and the memory
    /// system.
    pub stats: StatSet,
    /// Provenance and host-throughput record for the run.
    pub manifest: RunManifest,
    /// Cycle-accounting snapshot (per-node stall-class totals plus the
    /// time-phase view); `None` when no profiler was attached.
    pub accounting: Option<Accounting>,
    /// Sim-time telemetry series (occupancy/utilization over simulated
    /// time); `None` when no telemetry registry was attached.
    pub telemetry: Option<TelemetrySeries>,
    /// Sampled causal span trees; `None` when no span tracer was
    /// attached.
    pub spans: Option<SpanSet>,
    /// Host-time self-profile (phase decomposition, fork-admission
    /// outcomes, per-worker lanes); `None` when no host profiler was
    /// attached. Pure host observability — carries no simulated state.
    pub hostprof: Option<HostReport>,
}

impl RunResult {
    /// Total ops across all nodes.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_node.iter().sum()
    }
}

impl Machine {
    pub(super) fn collect_result(&mut self, wall_seconds: f64) -> RunResult {
        let end = self.lead_clock();
        self.barrier_releases.sort_by_key(|(id, _)| *id);

        let start = match self.timing_start {
            None => Time::ZERO,
            Some(id) => self
                .barrier_releases
                .iter()
                .find(|(b, _)| *b == id)
                .map(|(_, t)| *t)
                .unwrap_or(Time::ZERO),
        };

        let mut stats = StatSet::new();
        for (n, core) in self.cores.iter().enumerate() {
            stats.absorb_flat(&core.stats());
            let mem = &self.mems[n];
            stats.add("l1.hits", mem.hier.l1().hits() as f64);
            stats.add("l1.misses", mem.hier.l1().misses() as f64);
            stats.add("l2.hits", mem.hier.l2().hits() as f64);
            stats.add("l2.misses", mem.hier.l2().misses() as f64);
            stats.add("l2.evictions", mem.hier.l2().evictions() as f64);
            stats.add("os.page_faults", mem.page_faults as f64);
            stats.add("os.tlb_refills", mem.tlb_refills as f64);
            if let Some(tlb) = &mem.tlb {
                stats.add("tlb.misses", tlb.misses() as f64);
                stats.add("tlb.hits", tlb.hits() as f64);
            }
        }
        stats.absorb_flat(&self.memsys.stats());
        self.injector.absorb_into(&mut stats);

        // Accounting closes over the whole run: every node is extended to
        // the machine end time, so per-node class totals all sum to the
        // same total and trailing idle reads as compute.
        let ends = vec![end; self.cfg.nodes as usize];
        let accounting = self.obs.profiler.snapshot(&ends);
        if let Some(acc) = &accounting {
            for (class, total) in StallClass::ALL.iter().zip(acc.class_totals()) {
                stats.set(format!("account.{}.ps", class.key()), total as f64);
            }
        }

        let ops_per_node: Vec<u64> = self.streams.iter().map(|s| s.consumed()).collect();
        let total_ops: u64 = ops_per_node.iter().sum();
        let events_per_sec = if wall_seconds > 0.0 {
            total_ops as f64 / wall_seconds
        } else {
            f64::NAN
        };
        let manifest = RunManifest {
            config: self.cfg.label(),
            nodes: self.cfg.nodes,
            workload: self.workload.clone(),
            seed: self.workload_seed,
            sched: self.cfg.sched.key().to_owned(),
            faults: self
                .cfg
                .faults
                .as_ref()
                .filter(|p| p.is_active())
                .map(flashsim_engine::FaultPlan::summary),
            wall_seconds,
            total_ops,
            simulated_seconds: (end - Time::ZERO).as_ns_f64() / 1e9,
            events_per_sec,
            sim_mips: events_per_sec / 1e6,
            account: accounting
                .as_ref()
                .map(|acc| StallClass::ALL.map(|c| acc.fraction(c))),
            spans: self.cfg.spans.as_ref().map(|p| p.describe()),
        };

        RunResult {
            total_time: end - Time::ZERO,
            parallel_time: end - start,
            ops_per_node,
            barrier_releases: self.barrier_releases.clone(),
            stats,
            manifest,
            accounting,
            telemetry: self.obs.telemetry.snapshot(end),
            spans: self.obs.spans.snapshot(),
            hostprof: self.obs.hostprof.report(),
        }
    }
}
