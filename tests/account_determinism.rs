//! The cycle-accounting loop: identically seeded runs produce the
//! recorded accounting on every platform, every simulated cycle is
//! attributed to exactly one stall class, and the attribution differ's
//! per-class contributions sum to the total relative error. The runs are
//! the `account` cells of the digest matrix (`tests/matrix/mod.rs`): the
//! 2-node FFT profiled (`MachineConfig::profile`), under the
//! `Reference` policy on each platform.

mod matrix;

use flashsim::attrib::attribute;
use flashsim::engine::{Accounting, StallClass};

/// The accounting of the `fft2/profile` class on each platform.
fn accounts() -> Vec<(String, Accounting)> {
    let classes = matrix::ran("fft2/profile");
    let platform = |name: &str| name["fft2/profile/".len()..].to_owned();
    let acct = |ran: &[matrix::Ran]| ran[0].ok().accounting.clone().expect("profiled");
    classes
        .into_iter()
        .map(|(c, ran)| (platform(&c.name), acct(ran)))
        .collect()
}

fn acct(platform: &str) -> Accounting {
    let hit = accounts().into_iter().find(|(label, _)| label == platform);
    hit.expect(platform).1
}

/// Each platform's accounting is the recorded one: the `acct` digest
/// covers the whole `Accounting` value (every node's classes and total,
/// every phase row and the phase width), all that `==` compares, so this
/// run ≡ every earlier run of the same seed.
#[test]
fn identically_seeded_accounting_is_byte_identical_on_every_platform() {
    let classes = matrix::ran("fft2/profile");
    assert_eq!(classes.len(), 7, "every platform");
    for (class, ran) in classes {
        assert!(ran.iter().all(|r| r.has("acct")), "{}", class.name);
    }
}

#[test]
fn every_platform_conserves_every_cycle() {
    for (label, acc) in accounts() {
        matrix::check_accounting(&label, &acc);
    }
}

#[test]
fn attribution_is_deterministic_and_sums_to_total_error() {
    let hw = acct("hardware");
    for (label, sim) in accounts() {
        let rep = attribute(&sim, &label, &hw, "hardware");
        // The identity the differ is built on: per-class contributions
        // reproduce the total relative error.
        assert!(
            rep.residual().abs() < 1e-9,
            "{label}: residual {}",
            rep.residual()
        );
        let again = attribute(&sim, &label, &hw, "hardware");
        assert_eq!(rep, again, "{label}: attribution must be deterministic");
    }
}

#[test]
fn numa_omits_the_occupancy_flashlite_models() {
    // The paper's central mechanism finding (§3.3): the contention-free
    // NUMA model omits directory/MAGIC occupancy. The attribution differ
    // must expose that as a negative occupancy contribution when NUMA is
    // judged against the same processor model running FlashLite.
    let fl = acct("simos-mipsy-150/flashlite");
    let numa = acct("simos-mipsy-150/numa");
    let rep = attribute(&numa, "numa", &fl, "flashlite");
    let occ = rep.classes[StallClass::DirOccupancy as usize];
    assert!(
        occ.sim_ps < occ.ref_ps,
        "NUMA must account less occupancy than FlashLite ({} vs {})",
        occ.sim_ps,
        occ.ref_ps
    );
    assert!(rep.residual().abs() < 1e-9);
}
