//! The digest matrix's table itself (`tests/matrix/mod.rs`): every
//! recorded digest is checked by some cell, and every cell has a suite
//! that runs it.

mod matrix;

use matrix::{classes, recorded, Cell, RECORDED};

/// Every recorded row names a class, and every field of a row is
/// produced by some cell of its class, so no recorded digest goes
/// unchecked.
#[test]
fn every_recorded_field_has_a_cell() {
    let all = classes();
    assert_eq!(RECORDED.len(), all.len(), "one recorded row per class");
    for class in &all {
        let row = recorded(&class.name).unwrap_or_else(|| panic!("{}: no row", class.name));
        let fields: Vec<&str> = row.split([' ', ':']).step_by(2).collect();
        let cells: Vec<Cell> = class.cells.iter().map(|(_, t)| Cell::parse(t)).collect();
        let has = |letters: &str, f: fn(&Cell) -> bool| {
            cells.iter().any(|c| letters.contains(c.letter) && f(c))
        };
        let completes = fields.contains(&"run");
        let telemetry = completes && class.cfg.telemetry.is_some();
        let want = [
            ("run", completes),
            ("acct", completes && class.cfg.profile),
            ("tel", telemetry),
            ("spans", completes && class.cfg.spans.is_some()),
            ("ckpt", has("RBP", |c| c.sink)),
            ("series", telemetry && has("B", |c| c.restore.is_none())),
            ("texts", has("B", |c| c.sink)),
            ("err", !completes),
        ];
        let want: Vec<&str> = want.iter().filter(|(_, on)| *on).map(|(k, _)| *k).collect();
        assert_eq!(fields, want, "{}", class.name);
    }
}

/// The suites that run `P` cells: `scripts/check.sh` re-runs exactly
/// these at other worker counts.
const SWEPT: [&str; 3] = [
    "hostprof_isolation",
    "sched_equivalence",
    "span_determinism",
];

/// Every suite the table names is a test file that includes the matrix,
/// and every suite with a `Parallel` cell is in the worker sweep.
#[test]
fn every_cell_has_a_suite() {
    let tests = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");
    let files: Vec<String> = std::fs::read_dir(tests)
        .expect("tests/")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let sweep = include_str!("../scripts/check.sh");
    for class in classes() {
        for (suite, token) in &class.cells {
            let includes = |f: &&String| {
                let source = std::fs::read_to_string(format!("{tests}/{f}"));
                source.is_ok_and(|s| s.contains("\nmod matrix;\n"))
            };
            let named = files.iter().filter(|f| f.starts_with(&format!("{suite}_")));
            let file: Vec<&String> = named.filter(includes).collect();
            assert_eq!(file.len(), 1, "{}: one suite {suite}", class.name);
            let file = file[0];
            if token.starts_with('P') {
                let name = file.trim_end_matches(".rs");
                assert!(SWEPT.contains(&name), "{}: {name} is not swept", class.name);
                assert!(
                    sweep.contains(&format!("--test {name}")),
                    "check.sh sweeps {name}"
                );
            }
        }
    }
}
