//! Divergence diff: run the gold-standard hardware and a simulator over
//! the *same* microbenchmark (identical op streams and seeds), record
//! both platforms' flight-recorder streams, and report the first event
//! where they disagree plus per-category event-count deltas.
//!
//! Usage:
//!
//! ```text
//! flashsim diverge [SIM] [--mem numa] [--case KEY] [--capacity N] [--json PREFIX] [--full]
//! ```
//!
//! `SIM` is one of `simos-mipsy` (default), `solo-mipsy`, `simos-mxs`.
//! `--case` picks the snbench protocol case (default `remote_clean`).
//! `--json PREFIX` additionally writes `PREFIX-a.json` / `PREFIX-b.json`
//! Chrome trace files for chrome://tracing or Perfetto.
//!
//! Both runs attach a seeded span sampler, so the per-category delta
//! table includes span flow-event counts (`span` category) alongside
//! the protocol/network/machine deltas, and the Chrome traces carry the
//! sampled transactions' flow arrows.

use crate::{fail, header, platform_from_args, Args};
use flashsim_core::diverge::diff_traces;
use flashsim_engine::{CategoryMask, SpanPlan, Trace, Tracer};
use flashsim_isa::Program;
use flashsim_machine::{Machine, MachineConfig, RunManifest};
use flashsim_workloads::micro::{SnCase, Snbench};

fn traced_run(
    mut cfg: MachineConfig,
    prog: &dyn Program,
    capacity: usize,
) -> (Trace, RunManifest, String) {
    // Sample every transaction: the diff wants the platforms' span
    // populations to be comparable, not statistically thinned.
    cfg.spans = Some(SpanPlan::all(7));
    let label = cfg.label();
    let tracer = Tracer::new(capacity, CategoryMask::ALL);
    let mut machine = Machine::new(cfg, prog).expect("valid microbenchmark configuration");
    machine.attach_tracer(tracer.clone());
    let result = machine.run().expect("microbenchmark runs to completion");
    (tracer.snapshot(), result.manifest, label)
}

/// The flags of `diverge` that take a value.
pub const VALUE_FLAGS: &[&str] = &["--mem", "--case", "--capacity", "--json"];

/// `flashsim diverge`: see the module documentation.
pub fn run(args: &Args) {
    let setup = args.setup();
    header(
        "divergence diff (gold-standard hardware vs simulator)",
        &setup,
    );
    let (sim, mem, _) = platform_from_args(args);
    let case_key = args.value("--case").unwrap_or("remote_clean");
    let case = SnCase::all()
        .into_iter()
        .find(|c| c.case().key() == case_key)
        .unwrap_or_else(|| {
            let keys: Vec<&str> = SnCase::all().iter().map(|c| c.case().key()).collect();
            fail(&format!(
                "unknown snbench case {case_key} ({})",
                keys.join("|")
            ))
        });
    let capacity: usize = args.get("--capacity").unwrap_or(1 << 20);

    let bench = Snbench::new(case, setup.study.geometry.l2.bytes);
    let nodes = Snbench::NODES as u32;
    println!(
        "workload: {} over {} nodes, ring capacity {capacity} events/platform",
        bench.name(),
        nodes
    );
    println!();

    let (trace_a, manifest_a, label_a) = traced_run(setup.study.hardware(nodes), &bench, capacity);
    let (trace_b, manifest_b, label_b) =
        traced_run(setup.study.sim(sim, nodes, mem), &bench, capacity);

    println!("A manifest: {}", manifest_a.to_json());
    println!("B manifest: {}", manifest_b.to_json());
    println!();

    let report = diff_traces(&trace_a, &trace_b);
    print!("{}", report.render(&label_a, &label_b));

    if let Some(prefix) = args.value("--json") {
        for (suffix, trace) in [("a", &trace_a), ("b", &trace_b)] {
            let path = format!("{prefix}-{suffix}.json");
            std::fs::write(&path, trace.to_chrome_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("wrote {path}");
        }
    }
}
