//! End-to-end test of the paper's §3.1.2 methodology: microbenchmarks
//! measure the gold standard, the fit tunes the simulators, and the tuned
//! simulators agree with the hardware on every Table-3 protocol case.

use flashsim::calibrate::{calibrate, Calibration};
use flashsim::platform::Study;
use flashsim::report::{paper, render_table3};
use std::sync::OnceLock;

/// The scaled-study calibration this binary's tests share.
fn shared() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| calibrate(&Study::scaled()))
}

#[test]
fn closing_the_simulation_loop() {
    let cal = shared();

    // The TLB microbenchmark recovers approximately the true 65-cycle
    // refill cost (against the 25/35-cycle untuned model predictions).
    assert!(
        (55..=85).contains(&cal.tuning.tlb_refill_cycles),
        "TLB calibration found {} cycles, expected ~{}",
        cal.tuning.tlb_refill_cycles,
        paper::TLB_REFILL.0
    );
    assert!(cal.tuning.tlb_refill_cycles > paper::TLB_REFILL.1);
    assert!(cal.tuning.tlb_refill_cycles > paper::TLB_REFILL.2);

    // All five protocol cases fit to within 5% after tuning (the paper's
    // tuned column sits within 5% of hardware too).
    assert_eq!(cal.table3.len(), 5);
    for row in &cal.table3 {
        assert!(
            (row.tuned_relative() - 1.0).abs() < 0.05,
            "{}: tuned relative {:.3}",
            row.case,
            row.tuned_relative()
        );
    }

    // Untuned errors carry the paper's signs at the extremes: the local
    // clean path is optimistic, the dirty-remote path pessimistic.
    assert!(
        cal.table3[0].untuned_relative() < 1.0,
        "untuned LC should be fast"
    );
    assert!(
        cal.table3[4].untuned_relative() > 1.0,
        "untuned RDR should be slow"
    );

    // The Mipsy secondary-cache-interface occupancy is discovered (the
    // gold standard's true value is 160ns).
    let iface = cal
        .tuning
        .mipsy_l2_iface
        .expect("calibration must find the interface occupancy");
    assert!(
        (60.0..=400.0).contains(&iface.as_ns_f64()),
        "implausible interface occupancy {}ns",
        iface.as_ns_f64()
    );

    // The rendered table is complete and self-consistent.
    let rendered = render_table3(cal);
    for label in [
        "Local, clean",
        "Local, dirty remote",
        "Remote, clean",
        "Remote, dirty home",
        "Remote, dirty remote",
    ] {
        assert!(rendered.contains(label), "missing row {label}");
    }
    assert!(rendered.contains("65"), "paper reference value shown");
}

#[test]
fn calibration_is_reproducible() {
    let a = calibrate(&Study::scaled());
    let b = shared();
    assert_eq!(a.tuning.tlb_refill_cycles, b.tuning.tlb_refill_cycles);
    assert_eq!(a.tuning.flashlite, b.tuning.flashlite);
    assert_eq!(a.tuning.mipsy_l2_iface, b.tuning.mipsy_l2_iface);
}
