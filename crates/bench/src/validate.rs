//! The one validation entry point: check files against a named
//! `flashsim-*-v1` format through the [`Schema`] registry.
//!
//! Usage:
//!
//! ```text
//! flashsim validate telemetry|span|hostprof|ckpt PATH...
//! ```
//!
//! Runs nothing: every file is read and strictly validated as one
//! document of the named format — for `span`, the charge-tiling
//! invariant; for `hostprof`, the phase-tiling identity; for `ckpt`,
//! magic, checksum, provenance and body shape. The format is always
//! named, never sniffed, and an empty file is invalid in every format.
//!
//! Prints one verdict per file and exits 1 if any file is unreadable or
//! invalid; `scripts/check.sh` runs it over every export its smokes
//! produce.

use crate::{fail, Args};
use flashsim_engine::Schema;

/// The format and files a `validate` command line names, or the message
/// listing the formats there are.
pub fn parse(args: &Args) -> Result<(Schema, Vec<String>), String> {
    let kinds: Vec<&str> = Schema::ALL.iter().map(|s| s.key()).collect();
    let usage = format!("usage: flashsim validate {} PATH...", kinds.join("|"));
    let mut positionals = args.positionals();
    let Some(key) = positionals.next() else {
        return Err(usage);
    };
    let schema = Schema::from_key(key).ok_or(format!("unknown format {key}\n{usage}"))?;
    let paths: Vec<String> = positionals.map(str::to_owned).collect();
    if paths.is_empty() {
        return Err(usage);
    }
    Ok((schema, paths))
}

/// Validates every file in `paths` as a `schema` document. Returns the
/// per-file verdicts plus a summary line, and how many verdicts were
/// failures (unreadable or invalid file).
pub fn check(schema: Schema, paths: &[String]) -> (String, usize) {
    let mut out = format!("validating {} files\n", schema.id());
    let mut failures = 0usize;
    for path in paths {
        let verdict = match std::fs::read_to_string(path) {
            Err(e) => Err(format!("UNREADABLE ({e})")),
            Ok(text) => schema.validate(&text).map_err(|e| format!("INVALID ({e})")),
        };
        failures += usize::from(verdict.is_err());
        let verdict = verdict.map_or_else(|e| e, |()| "ok".to_owned());
        out.push_str(&format!("  {path}: {verdict}\n"));
    }
    out.push_str(&format!(
        "{} file(s): {} valid, {failures} invalid\n",
        paths.len(),
        paths.len() - failures
    ));
    (out, failures)
}

/// `flashsim validate`: see the module documentation.
pub fn run(args: &Args) {
    let (schema, paths) = parse(args).unwrap_or_else(|e| fail(&e));
    let (verdicts, failures) = check(schema, &paths);
    print!("{verdicts}");
    if failures > 0 {
        eprintln!("FAIL: {failures} of the checks above");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::{
        CkptWriter, ForkAdmission, HostPhase, HostReport, SpanPlan, SpanTracer, Time,
    };

    /// A minimal valid document of `schema`.
    fn valid(schema: Schema) -> String {
        match schema {
            Schema::Telemetry => format!(
                "{{\"schema\":\"{}\",\"bucket_ps\":1,\"end_ps\":0,\"metrics\":[]}}\n",
                schema.id()
            ),
            Schema::Span => {
                let t = SpanTracer::new(SpanPlan::all(1));
                assert!(t.txn_try_begin(0, 0x80, "read", Time::ZERO));
                t.txn_end(Time::ZERO, "local_clean");
                t.snapshot().expect("enabled").to_jsonl()
            }
            Schema::HostProf => HostReport {
                total_ns: 0,
                phase_ns: [0; HostPhase::COUNT],
                admission: ForkAdmission::default(),
                workers: Vec::new(),
            }
            .to_jsonl(),
            Schema::Ckpt => CkptWriter::new("validate-test").finish(),
        }
    }

    #[test]
    fn verdicts_per_kind_on_valid_empty_and_unreadable_input() {
        let dir = std::env::temp_dir().join(format!("flashsim-validate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        for schema in Schema::ALL {
            let file = |name: &str, body: &str| {
                let path = dir.join(format!("{}-{name}", schema.key()));
                std::fs::write(&path, body).expect("write");
                path.to_string_lossy().into_owned()
            };
            let good = file("good", &valid(schema));
            let empty = file("empty", "");
            let missing = dir.join("missing").to_string_lossy().into_owned();

            let (text, failures) = check(schema, std::slice::from_ref(&good));
            assert_eq!(failures, 0, "{}: {text}", schema.key());
            assert!(text.contains(&format!("{good}: ok")), "{text}");

            let (text, failures) = check(schema, std::slice::from_ref(&empty));
            assert_eq!(failures, 1, "{text}");
            assert!(text.contains("INVALID"), "{text}");

            // Unreadable is a counted verdict, not a panic.
            let (text, failures) = check(schema, &[good, missing, empty]);
            assert!(text.contains("UNREADABLE"), "{text}");
            assert_eq!(failures, 2, "{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_kind_is_named_and_an_unknown_one_lists_the_registry() {
        let args = |line: &[&str]| Args::new(line.iter().map(|s| (*s).to_owned()).collect(), &[]);
        assert_eq!(
            parse(&args(&["hostprof", "x", "y"])),
            Ok((Schema::HostProf, vec!["x".to_owned(), "y".to_owned()]))
        );
        for bad in [&["journal", "x"][..], &["stream", "x"], &["span"], &[]] {
            let message = parse(&args(bad)).expect_err("no format or no file");
            assert!(
                message.contains("telemetry|span|hostprof|ckpt"),
                "{message}"
            );
        }
    }
}
