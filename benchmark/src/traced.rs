//! The traced run: per-layer metrics for one workload.
//!
//! Not used for end-to-end numbers. One untraced pass gives the walls the
//! overhead and attribution are read against and the simulated counts;
//! one traced pass sets `hostprof = true` on every cell and records
//! spans `bench.workload` → `bench.pass` → `bench.cell` →
//! {`machine.new`, `machine.run` → `machine.host.<phase>`}, plus a
//! standalone `workloads.generate` span per program (its op streams
//! drained with no machine). Then the per-layer drives run, and their
//! unit costs times the counts give the `est.*` attribution.

use crate::cells::Cell;
use crate::drives;
use crate::registry::{self, Workload};
use crate::report::Report;
use crate::run::{cell_ops, ledger_for, run_pass, set_up, Pass};
use crate::spans::Recorder;
use flashsim_engine::{HostPhase, HostReport};
use flashsim_machine::{CpuModel, MemSysKind, RunResult};

/// Where the span files go: `benchmark/out/`, inside the checkout.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Runs the traced run of `workload` and reports every per-layer metric.
pub fn traced(workload: Workload, seed: u64, seconds: u32) -> Report {
    let mut rec = Recorder::new();
    let root = rec.open(None, "bench.workload", workload.name());

    let setup_span = rec.open(Some(root), "bench.setup", "");
    let setup = set_up(workload, seed);
    rec.close(setup_span);
    let setup_start = rec.spans()[setup_span].start_ns;
    rec.record(
        Some(setup_span),
        "core.calibrate",
        "",
        setup_start,
        setup_start + (setup.calibrate_s * 1e9) as u64,
    );
    let mut ledger = ledger_for(&setup);
    let cells = &setup.cells;

    let plain = run_pass(cells, &mut ledger, |c| c.cfg.clone());

    let pass_span = rec.open(Some(root), "bench.pass", "traced");
    let traced = run_pass(cells, &mut ledger, |c| {
        let mut cfg = c.cfg.clone();
        cfg.hostprof = true;
        cfg
    });
    rec.close(pass_span);
    let mut host = HostTotals::default();
    for (cell, run) in cells.iter().zip(&traced.runs) {
        let (started, built, finished) =
            (rec.ns(run.started), rec.ns(run.built), rec.ns(run.finished));
        let cell_span = rec.record(
            Some(pass_span),
            "bench.cell",
            &cell.label,
            started,
            finished,
        );
        rec.record(Some(cell_span), "machine.new", "", started, built);
        let run_span = rec.record(Some(cell_span), "machine.run", "", built, finished);
        if let Some(profile) = run.result.as_ref().ok().and_then(|r| r.hostprof.as_ref()) {
            host.add(profile);
            // The phases tile the run window exactly; lay their totals
            // end to end so the window's self time is what hostprof
            // did not see.
            let mut at = built;
            for phase in HostPhase::ALL {
                let ns = profile.phase(phase);
                if ns > 0 {
                    let name = format!("machine.host.{}", phase.key());
                    rec.record(Some(run_span), &name, "", at, at + ns);
                    at += ns;
                }
            }
        }
    }

    let mut generated = Vec::new();
    for cell in cells {
        if !generated.contains(&cell.program_id) {
            generated.push(cell.program_id);
            let span = rec.open(Some(root), "workloads.generate", &cell.program.name());
            drives::generate(cell.program.as_ref());
            rec.close(span);
        }
    }

    let mut report = Report::new(workload);
    let plain_wall = plain.wall_s();
    report.metric(
        "trace.overhead_frac",
        traced.wall_s() / plain_wall - 1.0,
        &format!(
            "untraced_pass_s={plain_wall} traced_pass_s={}",
            traced.wall_s()
        ),
    );
    host.report(&mut report);
    let totals = plain
        .runs
        .iter()
        .filter_map(|run| run.result.as_ref().ok())
        .map(Counts::of)
        .reduce(Counts::plus)
        .expect("at least one cell completed");
    for (name, total) in totals.0 {
        if registry::find(name).is_some() {
            report.metric(name, total, "");
        }
    }
    report.note(
        "ratio",
        &format!(
            "l2_misses_per_op={}",
            totals.get("count.l2.misses") / totals.get("count.ops")
        ),
    );

    let drives_span = rec.open(Some(root), "bench.drives", "");
    drives::run_all(&mut report, seconds, setup.calibrate_s);
    rec.close(drives_span);
    rec.close(root);
    attribute(&mut report, cells, &plain);

    for name in [
        "bench.setup",
        "bench.pass",
        "machine.new",
        "machine.run",
        "workloads.generate",
        "bench.drives",
    ] {
        let (mut total, mut own) = (0u64, 0u64);
        for span in rec.spans().iter().filter(|s| s.name == name) {
            total += span.end_ns - span.start_ns;
            own += rec.self_ns(span.id);
        }
        report.note(
            "span",
            &format!("name={name} total_ns={total} self_ns={own}"),
        );
    }
    let file = format!("trace-{}.jsonl", workload.name());
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/{file}"), rec.to_jsonl()));
    match written {
        Ok(()) => report.note(
            "trace",
            &format!("spans={} file=benchmark/out/{file}", rec.spans().len()),
        ),
        Err(e) => report.note("trace", &format!("not written: {e}")),
    }
    report.close(&ledger, cells);
    report
}

/// Host-time phases of a pass: its cells' `HostReport`s summed.
#[derive(Default)]
struct HostTotals {
    total_ns: u64,
    phase_ns: [u64; HostPhase::COUNT],
}

impl HostTotals {
    fn add(&mut self, profile: &HostReport) {
        self.total_ns += profile.total_ns;
        for (sum, ns) in self.phase_ns.iter_mut().zip(profile.phase_ns) {
            *sum += ns;
        }
    }

    fn report(&self, report: &mut Report) {
        for (phase, ns) in HostPhase::ALL.iter().zip(self.phase_ns) {
            report.metric(
                &format!("machine.host.{}.frac", phase.key()),
                ns as f64 / self.total_ns.max(1) as f64,
                "",
            );
        }
    }
}

/// Simulated counts of one run (or, summed, of a pass), keyed by the
/// metric each is reported as; the last two feed the attribution only.
struct Counts([(&'static str, f64); 12]);

impl Counts {
    fn of(r: &RunResult) -> Counts {
        let stat = |key: &str| r.stats.get_or_zero(key);
        let transactions = r
            .stats
            .iter()
            .filter(|(key, _)| key.starts_with("proto.") && key.ends_with(".count"))
            .map(|(_, count)| count)
            .sum();
        Counts([
            ("count.ops", r.total_ops() as f64),
            ("count.l1.misses", stat("l1.misses")),
            ("count.l2.misses", stat("l2.misses")),
            ("count.tlb.misses", stat("tlb.misses")),
            ("count.os.tlb_refills", stat("os.tlb_refills")),
            ("count.proto.txns", transactions),
            ("count.net.messages", stat("net.messages")),
            ("count.magic.nacks", stat("magic.nacks")),
            ("count.magic.retries", stat("magic.retries")),
            ("sim.parallel_time_ps", r.parallel_time.as_ps() as f64),
            ("cache probes", stat("l1.hits") + stat("l1.misses")),
            ("page faults", stat("os.page_faults")),
        ])
    }

    fn plus(mut self, other: Counts) -> Counts {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.1 += theirs.1;
        }
        self
    }

    fn get(&self, name: &str) -> f64 {
        let found = self.0.iter().find(|(key, _)| *key == name);
        found.unwrap_or_else(|| panic!("no count named {name}")).1
    }
}

/// `est.*`: each cell's counts times the unit costs the drives measured,
/// over the untraced pass wall. The residual is what no drive explains:
/// the scheduler, machine glue, and generator threads contending for the
/// host's cores.
fn attribute(report: &mut Report, cells: &[Cell], plain: &Pass) {
    let unit = |name: &str| {
        report
            .value(name)
            .unwrap_or_else(|| panic!("{name} is measured before attribution"))
    };
    let (mut isa, mut cpu, mut mem, mut memsys) = (0.0, 0.0, 0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        let Ok(result) = &plain.runs[i].result else {
            continue;
        };
        let c = Counts::of(result);
        let ops = c.get("count.ops");
        isa += ops * unit("isa.stream.ns_per_op");
        cpu += ops
            * match cell.cfg.cpu {
                CpuModel::Mipsy { .. } | CpuModel::Embra => unit("cpu.mipsy.ns_per_op"),
                CpuModel::Mxs => unit("cpu.mxs.ns_per_op"),
                CpuModel::R10000 => unit("cpu.r10000.ns_per_op"),
            };
        mem += c.get("cache probes") * (unit("mem.tlb.hit.ns") + unit("mem.hier.probe_hit.ns"))
            + c.get("count.l2.misses") * unit("mem.hier.miss_fill.ns")
            + c.get("count.tlb.misses")
                * (unit("mem.tlb.miss_insert.ns") + unit("mem.page.translate.ns"))
            + c.get("page faults") * unit("mem.page.alloc.ns");
        let model = match cell.cfg.memsys {
            MemSysKind::FlashLite(_) => "flashlite",
            MemSysKind::Numa(_) => "numa",
        };
        let shape = match cell.program.name().as_str() {
            "storm-read" => "read",
            "storm-hot" => "hot",
            _ => "rw",
        };
        memsys += c.get("count.proto.txns") * unit(&format!("{model}.access.{shape}.ns"));
    }
    let wall_ns = plain.wall_s() * 1e9;
    let fracs = [isa, cpu, mem, memsys].map(|ns| ns / wall_ns);
    let ops: u64 = (0..cells.len()).map(|i| cell_ops(plain, i)).sum();
    report.metric("est.isa.frac", fracs[0], "");
    report.metric("est.cpu.frac", fracs[1], "");
    report.metric("est.mem.frac", fracs[2], "");
    report.metric("est.memsys.frac", fracs[3], "");
    report.metric(
        "est.residual.frac",
        1.0 - fracs.iter().sum::<f64>(),
        &format!("ns_per_op={}", wall_ns / ops as f64),
    );
}
