//! Sim-time telemetry: identically seeded runs export the recorded
//! `flashsim-telemetry-v1` JSONL on every platform, the stable export is
//! the same under the `Batched` and `Reference` scheduling policies
//! (scheduler-internal metrics are volatile and excluded), and every
//! occupancy integrator conserves exactly in integer picoseconds. The
//! runs are the `telemetry` cells of the digest matrix
//! (`tests/matrix/mod.rs`): the 2-node FFT under every observer,
//! telemetry at 500 ns, on each platform under both policies.

mod matrix;

/// Each platform's export (`tel`) and the whole `TelemetrySeries` of its
/// `Batched` run, volatile metrics included (`series`), are the recorded
/// ones; the matrix validates each class's export.
#[test]
fn identically_seeded_telemetry_is_byte_identical_on_every_platform() {
    let classes = matrix::ran("fft2/all");
    assert_eq!(classes.len(), 7, "every platform");
    for (class, ran) in classes {
        let batched = ran.iter().find(|r| r.cell.letter == 'B');
        let batched = batched.unwrap_or_else(|| panic!("{}: a Batched cell", class.name));
        assert!(
            batched.has("tel") && batched.has("series"),
            "{}",
            class.name
        );
    }
}

/// Scheduler-internal metrics (batch counts, heap occupancy) are
/// policy-shaped by design and registered volatile; everything in the
/// *stable* export samples policy-invariant machine state, so both
/// policies' cells export the class's one recorded `tel`.
#[test]
fn batched_and_reference_schedules_export_identical_telemetry() {
    for (class, ran) in matrix::ran("fft2/all") {
        assert_eq!(matrix::letters(ran), "RB", "{}", class.name);
        assert!(ran.iter().all(|r| r.has("tel")), "{}", class.name);
    }
}

#[test]
fn occupancy_integrators_conserve_exactly_on_every_platform() {
    for (_, ran) in matrix::ran("fft2/all") {
        for r in ran {
            let series = r.ok().telemetry.as_ref().expect("telemetry was attached");
            matrix::check_telemetry(&r.label, series, &r.ok().stats);
        }
    }
}

#[test]
fn manifest_records_scheduling_policy_and_fault_plan() {
    let (_, ran) = matrix::class("fft2/all/simos-mipsy-150/flashlite");
    let reference = ran.iter().find(|r| r.cell.letter == 'R');
    let r = reference.expect("a Reference cell").ok();
    assert_eq!(r.manifest.sched, "reference");
    assert_eq!(r.manifest.faults, None);
    let json = r.manifest.to_json();
    assert!(json.contains("\"sched\":\"reference\""), "json: {json}");
    assert!(json.contains("\"faults\":null"), "json: {json}");
}
