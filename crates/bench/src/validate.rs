//! The one validation entry point: check files against a named
//! `flashsim-*-v1` format through the [`Schema`] registry.
//!
//! Usage:
//!
//! ```text
//! flashsim validate telemetry|span|stream|hostprof|ckpt PATH...
//! ```
//!
//! Runs nothing: every file is read and strictly validated as one
//! document of the named format — for `stream`, the full contract
//! (header, dense sequence numbers, gapless bucket chaining, checkpoint
//! placement, monotone progress, torn-tail tolerance); for `span`, the
//! charge-tiling invariant; for `hostprof`, the phase-tiling identity;
//! for `ckpt`, magic, checksum, provenance and body shape. The format is
//! always named, never sniffed: an empty or torn-at-birth stream is
//! valid, an empty file of any other kind is not.
//!
//! Stream files sharing a provenance hash — reruns of the same cell,
//! including mid-kill snapshots — are also checked for *prefix
//! stability*: their deterministic event lines must agree on every
//! common position.
//!
//! Prints one verdict per file and exits 1 if any file is unreadable or
//! invalid or any provenance group unstable; `scripts/check.sh` runs it
//! over every export its smokes produce.

use crate::{fail, Args};
use flashsim_engine::{stream, Schema};

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

/// One validated stream inside a provenance group: file path plus its
/// deterministic lines.
type GroupMember<'a> = (&'a str, Vec<String>);

/// Validates every file in `paths` as a `schema` document. Returns the
/// per-file verdicts plus a summary line, and how many verdicts were
/// failures (unreadable file, invalid file, unstable provenance group).
pub fn check(schema: Schema, paths: &[String]) -> (String, usize) {
    let mut out = format!("validating {} files\n", schema.id());
    let mut failures = 0usize;
    // Stream files only, keyed by provenance.
    let mut groups: Vec<(String, Vec<GroupMember>)> = Vec::new();
    for path in paths {
        let verdict = match std::fs::read_to_string(path) {
            Err(e) => Err(format!("UNREADABLE ({e})")),
            Ok(text) => match schema.validate(&text) {
                Err(e) => Err(format!("INVALID ({e})")),
                Ok(()) if schema == Schema::Stream => {
                    let det = stream::deterministic_lines(&text);
                    let verdict = format!("ok ({} deterministic events)", det.len());
                    if let Some(prov) = stream::provenance_of(&text) {
                        match groups.iter_mut().find(|(p, _)| *p == prov) {
                            Some((_, members)) => members.push((path, det)),
                            None => groups.push((prov, vec![(path, det)])),
                        }
                    }
                    Ok(verdict)
                }
                Ok(()) => Ok("ok".to_owned()),
            },
        };
        failures += usize::from(verdict.is_err());
        let (Ok(verdict) | Err(verdict)) = verdict;
        out.push_str(&format!("  {path}: {verdict}\n"));
    }
    let invalid = failures;
    for (prov, members) in groups.iter().filter(|(_, m)| m.len() > 1) {
        let mut stable = true;
        for (i, (a_path, a)) in members.iter().enumerate() {
            for (b_path, b) in &members[i + 1..] {
                if let Some(k) = (0..a.len().min(b.len())).find(|&k| a[k] != b[k]) {
                    stable = false;
                    out.push_str(&format!(
                        "  provenance {prov}: PREFIX DIVERGED at deterministic event {k}:\n    {a_path}: {}\n    {b_path}: {}\n",
                        a[k], b[k]
                    ));
                }
            }
        }
        if stable {
            let longest = members.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
            out.push_str(&format!(
                "  provenance {prov}: {} stream(s) prefix-stable over {longest} deterministic events\n",
                members.len()
            ));
        } else {
            failures += 1;
        }
    }
    out.push_str(&format!(
        "{} file(s): {} valid, {invalid} invalid",
        paths.len(),
        paths.len() - invalid
    ));
    if schema == Schema::Stream {
        out.push_str(&format!(
            "; {} provenance group(s), {} unstable",
            groups.len(),
            failures - invalid
        ));
    }
    out.push('\n');
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
            Schema::Stream => format!(
                "{{\"schema\":\"{}\",\"ev\":\"start\",\"seq\":0,\"provenance\":\"0123456789abcdef\",\
                 \"config\":\"c\",\"workload\":\"w\",\"nodes\":1,\"sched\":\"batched\",\
                 \"metrics\":[],\"classes\":[]}}\n",
                schema.id()
            ),
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

            // Only a stream may be empty: a kill can land before its
            // first flush.
            let (text, failures) = check(schema, std::slice::from_ref(&empty));
            assert_eq!(failures == 0, schema == Schema::Stream, "{text}");
            assert_eq!(text.contains("INVALID"), schema != Schema::Stream, "{text}");

            // Unreadable is a counted verdict, not a panic.
            let (text, failures) = check(schema, &[good, missing, empty]);
            assert!(text.contains("UNREADABLE"), "{text}");
            assert_eq!(
                failures,
                1 + usize::from(schema != Schema::Stream),
                "{text}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streams_of_one_provenance_must_agree_on_their_common_prefix() {
        let dir = std::env::temp_dir().join(format!("flashsim-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bucket = |end: u64| {
            format!("{{\"ev\":\"bucket\",\"seq\":1,\"barrier\":0,\"start_ps\":0,\"end_ps\":{end},\"values\":{{}}}}\n")
        };
        let mut paths = Vec::new();
        for (name, end) in [("a", 10), ("b", 10), ("c", 11)] {
            let path = dir.join(name).to_string_lossy().into_owned();
            std::fs::write(&path, valid(Schema::Stream) + &bucket(end)).expect("write");
            paths.push(path);
        }
        let (text, failures) = check(Schema::Stream, &paths[..2]);
        assert_eq!(failures, 0, "{text}");
        assert!(text.contains("2 stream(s) prefix-stable over 1"), "{text}");
        let (text, failures) = check(Schema::Stream, &paths);
        assert_eq!(failures, 1, "{text}");
        assert!(
            text.contains("PREFIX DIVERGED at deterministic event 0"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_kind_is_named_and_an_unknown_one_lists_the_registry() {
        let args = |line: &[&str]| Args::new(line.iter().map(|s| (*s).to_owned()).collect(), &[]);
        assert_eq!(
            parse(&args(&["hostprof", "x", "y"])),
            Ok((Schema::HostProf, vec!["x".to_owned(), "y".to_owned()]))
        );
        for bad in [&["journal", "x"][..], &["span"], &[]] {
            let message = parse(&args(bad)).expect_err("no format or no file");
            assert!(
                message.contains("telemetry|span|stream|hostprof|ckpt"),
                "{message}"
            );
        }
    }
}
