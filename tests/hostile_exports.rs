//! Every reader of a `flashsim-*-v1` format is total (ROADMAP item 2):
//! fed truncated or mutated bytes it returns — `Ok` or `Err` — and never
//! panics. One valid document per [`Schema::ALL`]
//! comes from a real 2-node run; each is then cut at every line
//! boundary and hit with seeded single-byte mutations, and every
//! variant goes through `Schema::validate`. A checkpoint's checksum
//! stops almost all of those at the door, so a second pass reseals each
//! mutated checkpoint and hands it to `Machine::restore` as well, and a
//! third reseals structural mutations of its lines (one deleted,
//! duplicated, or swapped with the next). A restore that succeeds must
//! also *run* without panicking: the restored state is what the
//! simulator then trusts. And the JSONL validators accept only what their
//! writers could have written: ten fixed damaged documents, none of
//! which a writer can produce, are each rejected.

use flashsim::engine::ckpt::CkptError;
use flashsim::engine::{ckpt, Rng, Schema, SpanPlan, Time, TimeDelta};
use flashsim::machine::{run_program, Machine, MachineConfig, RestoreError};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};
use std::panic::catch_unwind;
use std::sync::{Arc, Mutex};

/// Mutations per document.
const MUTATIONS: u64 = 2_000;

/// The observed 2-node configuration every document comes from.
fn observed() -> MachineConfig {
    let mut cfg = Study::scaled().sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.profile = true;
    cfg.telemetry = Some(TimeDelta::from_ns(500));
    cfg.spans = Some(SpanPlan::sampled(7, 256));
    cfg.hostprof = true;
    cfg
}

/// One valid document of every format, from one observed run of
/// `program`; the checkpoint is the one cut at the run's middle barrier.
fn documents(cfg: MachineConfig, program: &Fft) -> Vec<(Schema, String)> {
    let ckpts = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ckpts);
    let mut m = Machine::new(cfg, program).expect("machine builds");
    m.attach_ckpt_sink(Box::new(move |_seq, _at: Time, text: &str| {
        sink.lock().expect("sink lock").push(text.to_owned());
    }));
    let result = m.run().expect("run completes");
    drop(m);
    let mut ckpts = std::mem::take(&mut *ckpts.lock().expect("sink lock"));
    let ckpt = ckpts.swap_remove(ckpts.len() / 2);
    Schema::ALL
        .into_iter()
        .map(|schema| {
            let text = match schema {
                Schema::Telemetry => result.telemetry.as_ref().expect("telemetry").to_jsonl(),
                Schema::Span => result.spans.as_ref().expect("spans").to_jsonl(),
                Schema::HostProf => result.hostprof.as_ref().expect("hostprof").to_jsonl(),
                Schema::Ckpt => ckpt.clone(),
            };
            (schema, text)
        })
        .collect()
}

/// Validates `text` and says whether it is valid; a panic fails the test
/// with the offending input.
fn readers_return(schema: Schema, text: &str, what: &str) -> bool {
    let outcome = catch_unwind(|| schema.validate(text).is_ok());
    outcome.unwrap_or_else(|_| panic!("{} reader panicked on {what}:\n{text}", schema.key()))
}

/// One seeded single-byte mutation of `good`. Half the mutations write a
/// digit, so numeric fields get damaged into other numbers, not only
/// into parse failures.
fn mutated(good: &str, rng: &mut Rng) -> String {
    let mut bytes = good.to_owned().into_bytes();
    let at = rng.gen_range(bytes.len() as u64) as usize;
    bytes[at] = if rng.gen_range(2) == 0 {
        b'0' + rng.gen_range(10) as u8
    } else {
        b' ' + rng.gen_range(95) as u8
    };
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

/// `good` with each number in turn (an even sample of about `samples`)
/// replaced by `u64::MAX`: the sums and differences a reader takes over
/// parsed fields must not overflow, and a parsed count must not size an
/// allocation.
fn saturated(good: &str, samples: usize) -> impl Iterator<Item = String> + '_ {
    let bytes = good.as_bytes();
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .collect();
    let step = starts.len() / samples + 1;
    starts.into_iter().step_by(step).map(move |at| {
        let len = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        format!("{}{}{}", &good[..at], u64::MAX, &good[at + len..])
    })
}

#[test]
fn truncated_and_mutated_documents_never_panic_a_reader() {
    let mut rng = Rng::seeded(0x5EED);
    let program = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (schema, good) in documents(observed(), &program) {
        schema
            .validate(&good)
            .unwrap_or_else(|e| panic!("pristine {} document is invalid: {e}", schema.key()));
        assert!(good.is_ascii(), "{} exports are ASCII", schema.key());

        for (cut, _) in good.match_indices('\n') {
            readers_return(schema, &good[..cut], "a line-prefix truncation");
            // ...and torn inside the next line.
            let torn = (cut + 1 + (cut % 17)).min(good.len());
            readers_return(schema, &good[..torn], "a torn-line truncation");
        }

        let accepted = (0..MUTATIONS)
            .filter(|_| readers_return(schema, &mutated(&good, &mut rng), "a single-byte mutation"))
            .count();
        eprintln!(
            "{}: {accepted} of {MUTATIONS} single-byte mutations validate",
            schema.key()
        );
        for text in saturated(&good, 150) {
            readers_return(schema, &text, "a number saturated to u64::MAX");
        }
    }
}

/// A checkpoint body sealed with the trailer a saving `Ckpt::finish` would
/// give it (`provenance_hash` is the same fxhash, rendered the same way).
fn resealed(body: &str) -> String {
    format!("{body}checksum={}\n", ckpt::provenance_hash(body))
}

/// The observed configuration, the 256-point FFT every restore replays,
/// and its checkpoint at the middle barrier split into the three header
/// lines and the state below them: a mutated header is rejected before
/// any field parser runs, so damage goes below it.
fn restore_subject() -> (MachineConfig, Fft, String, String) {
    let (cfg, program) = (observed(), Fft::new(1 << 8, 2, FftBlocking::Cache));
    let (_, good) = documents(cfg.clone(), &program)
        .into_iter()
        .find(|(schema, _)| *schema == Schema::Ckpt)
        .expect("a checkpoint document");
    let body = &good[..good.rfind("checksum=").expect("a trailer")];
    assert_eq!(resealed(body), good, "the trailer is recomputed as written");
    Machine::restore(cfg.clone(), &program, &good).expect("the pristine checkpoint restores");
    let header = body
        .match_indices('\n')
        .nth(2)
        .expect("three header lines")
        .0
        + 1;
    let (header, state) = body.split_at(header);
    (cfg, program, header.to_owned(), state.to_owned())
}

/// `cfg` under a watchdog of twice the ops its straight run of `program`
/// executes, so that a restored state that never finishes fails the run
/// instead of hanging the test.
fn watched(mut cfg: MachineConfig, program: &Fft) -> MachineConfig {
    let straight = run_program(cfg.clone(), program).expect("straight run");
    cfg.max_ops = Some(2 * straight.ops_per_node.iter().sum::<u64>());
    cfg
}

/// Restores `text` and, if `run` and the restore succeeds, runs the
/// machine; a panic in either fails the test with the offending input.
/// Returns whether `text` restored.
fn restore_then_run(cfg: &MachineConfig, program: &Fft, text: &str, run: bool) -> bool {
    let outcome = catch_unwind(|| match Machine::restore(cfg.clone(), program, text) {
        Ok(mut m) => {
            if run {
                let _ = m.run();
            }
            true
        }
        Err(_) => false,
    });
    outcome.unwrap_or_else(|_| panic!("a resealed checkpoint panicked restore or its run:\n{text}"))
}

#[test]
fn checkpoint_mutations_that_survive_the_checksum_never_panic_restore() {
    // A 256-point FFT: every restore spawns the program's generator
    // threads and replays the ops consumed so far, 2 400 times over.
    let (cfg, program, header, state) = restore_subject();
    let watched = watched(cfg.clone(), &program);
    let mut rng = Rng::seeded(0xC4A7);
    let hostile = (0..MUTATIONS)
        .map(|_| mutated(&state, &mut rng))
        .chain(saturated(&state, 400));
    let (mut tried, mut past_the_door) = (0u64, 0u64);
    for (i, state) in hostile.enumerate() {
        let text = resealed(&format!("{header}{state}"));
        let valid = catch_unwind(|| Schema::Ckpt.validate(&text).is_ok())
            .unwrap_or_else(|_| panic!("a resealed checkpoint panicked a reader:\n{text}"));
        past_the_door += u64::from(valid);
        // Every tenth byte mutation — 200 of them — and every saturated
        // number also runs what it restored.
        let run = i >= MUTATIONS as usize || i % 10 == 0;
        restore_then_run(&watched, &program, &text, run);
        tried += 1;
    }
    assert!(tried >= 2_000, "{tried} mutations");
    assert!(
        past_the_door * 2 > tried,
        "only {past_the_door} of {tried} mutations reached the field parsers"
    );

    // The parent format: two stream-position fields after `ckpt_seq`.
    let body = format!("{header}{state}");
    let old = body.replacen("\nnodes=", "\nstream_seq=7\nstream_last_ps=1000\nnodes=", 1);
    assert_ne!(old, body);
    let old = resealed(&old);
    Schema::Ckpt
        .validate(&old)
        .expect("structurally a checkpoint");
    assert!(matches!(
        Machine::restore(cfg, &program, &old),
        Err(RestoreError::Ckpt(_))
    ));
}

/// Every structural mutation of the state lines — each line deleted,
/// duplicated, and swapped with the next — restores or is rejected, and
/// what restores runs, without a panic; and a header whose sharer list
/// points past the directory's pointer store is rejected at restore, not
/// found by the first read of its line.
#[test]
fn structural_checkpoint_mutations_never_panic_restore_or_the_run() {
    let (cfg, program, header, state) = restore_subject();
    let watched = watched(cfg, &program);
    let lines: Vec<&str> = state.lines().collect();
    let (mut tried, mut restored) = (0u64, 0u64);
    for i in 0..lines.len() {
        let mut deleted = lines.clone();
        deleted.remove(i);
        let mut duplicated = lines.clone();
        duplicated.insert(i, lines[i]);
        let mut swapped = lines.clone();
        swapped.swap(i, (i + 1).min(lines.len() - 1));
        for mutant in [deleted, duplicated, swapped] {
            let text = resealed(&format!("{header}{}\n", mutant.join("\n")));
            restored += u64::from(restore_then_run(&watched, &program, &text, true));
            tried += 1;
        }
    }
    assert!(tried > 3_000, "{tried} structural mutations");
    assert!(restored > 0, "no structural mutation restored");

    // The dangling sharer list: the first header becomes a Shared line
    // whose chain starts one slot past its directory's pointer store.
    let hdr = lines
        .iter()
        .position(|l| l.starts_with("hdr="))
        .expect("a directory header");
    let pool = lines[..hdr]
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("pool="))
        .expect("its pointer store");
    let line = lines[hdr].split(['=', ',']).nth(1).expect("a line");
    let mut dangling = lines.clone();
    let row = format!("hdr={line},0,1,{pool}");
    dangling[hdr] = &row;
    let text = resealed(&format!("{header}{}\n", dangling.join("\n")));
    let err = Machine::restore(watched, &program, &text).expect_err("a dangling list");
    assert!(
        matches!(&err, RestoreError::Ckpt(CkptError::Parse { key, .. }) if key == "hdr"),
        "got {err}"
    );
}

/// `text` with the first run of digits after the first `after` replaced
/// by `by`.
fn renumbered(text: &str, after: &str, by: impl FnOnce(u64) -> String) -> String {
    let at = text.find(after).expect("the pattern") + after.len();
    let len = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    let old: u64 = text[at..at + len].parse().expect("a number");
    format!("{}{}{}", &text[..at], by(old), &text[at + len..])
}

/// `text` with its line `n` (0-based) passed through `f`.
fn line_edited(text: &str, n: usize, f: impl FnOnce(&str) -> String) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    lines[n] = f(&lines[n]);
    lines.join("\n")
}

/// Ten damaged documents, none of which a writer can produce, are each
/// rejected.
#[test]
fn documents_no_writer_can_produce_are_rejected() {
    let program = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let docs = documents(observed(), &program);
    let doc = |schema| {
        &docs
            .iter()
            .find(|(s, _)| *s == schema)
            .expect("a document")
            .1
    };
    let (tel, span, host) = (
        doc(Schema::Telemetry),
        doc(Schema::Span),
        doc(Schema::HostProf),
    );
    let damaged = [
        (
            Schema::Telemetry,
            "a bucket that does not start at bucket × bucket_ps",
            line_edited(tel, 1, |l| l.replacen("\"start_ps\":", "\"start_ps\":1", 1)),
        ),
        (
            Schema::Telemetry,
            "a metric kind of \"bogus\"",
            tel.replacen("\"kind\":\"counter\"", "\"kind\":\"bogus\"", 1),
        ),
        (
            Schema::Telemetry,
            "a bucket value of -5",
            line_edited(tel, 1, |l| {
                let at = l.find("\"values\":{").expect("values") + 10;
                let first = renumbered(&l[at..], "\":", |_| "-5".to_owned());
                format!("{}{first}", &l[..at])
            }),
        ),
        (
            Schema::Telemetry,
            "a total that is not its buckets' sum",
            renumbered(tel, "\"total\":", |n| (n + 1).to_string()),
        ),
        (
            Schema::Telemetry,
            "a bucket_ps of 0",
            renumbered(tel, "\"bucket_ps\":", |_| "0".to_owned()),
        ),
        (
            Schema::Span,
            "a span line without its node",
            line_edited(span, 2, |l| {
                let at = l.find(",\"node\":").expect("a node");
                let len = 8 + l[at + 8..].bytes().take_while(u8::is_ascii_digit).count();
                format!("{}{}", &l[..at], &l[at + len..])
            }),
        ),
        (
            Schema::Span,
            "a span kind that is a number",
            line_edited(span, 2, |l| {
                let at = l.find("\"kind\":\"").expect("a kind") + 7;
                let len = l[at + 1..].find('"').expect("a closing quote") + 2;
                format!("{}7{}", &l[..at], &l[at + len..])
            }),
        ),
        (
            Schema::HostProf,
            "text after a line's closing brace",
            line_edited(host, 0, |l| format!("{l}x")),
        ),
        (
            Schema::HostProf,
            "\"admitted_ops\":0abc",
            renumbered(host, "\"admitted_ops\":", |_| "0abc".to_owned()),
        ),
        (
            Schema::HostProf,
            "a phase line with \"ns\" twice",
            line_edited(host, 1, |l| {
                let ns = &l[l.find(",\"ns\":").expect("ns")..l.len() - 1];
                format!("{}{ns}}}", &l[..l.len() - 1])
            }),
        ),
    ];
    for (schema, what, text) in damaged {
        assert_ne!(&text, doc(schema), "{what}: the damage applies");
        assert!(schema.validate(&text).is_err(), "{what} validates:\n{text}");
    }
}
