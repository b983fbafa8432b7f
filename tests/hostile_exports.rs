//! Every reader of a `flashsim-*-v1` format is total (ROADMAP item 1(c),
//! first slice): fed truncated or mutated bytes it returns — `Ok` or
//! `Err` — and never panics. One valid document per [`Schema::ALL`]
//! comes from a real 2-node run; each is then cut at every line
//! boundary and hit with seeded single-byte mutations, and every
//! variant goes through `Schema::validate` and the two lenient stream
//! readers.

use flashsim::engine::stream::{self, MemorySink};
use flashsim::engine::{Rng, Schema, SpanPlan, TimeDelta};
use flashsim::machine::Machine;
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};
use std::panic::catch_unwind;

/// Mutations per document.
const MUTATIONS: u64 = 2_000;

/// One valid document of every format, from one observed 2-node run.
fn documents() -> Vec<(Schema, String)> {
    let program = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let mut cfg = Study::scaled().sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.profile = true;
    cfg.telemetry = Some(TimeDelta::from_ns(500));
    cfg.spans = Some(SpanPlan::sampled(7, 256));
    cfg.hostprof = true;
    let (sink, stream_text) = MemorySink::new();
    let mut m = Machine::new(cfg, &program).expect("machine builds");
    m.attach_stream_sink(Box::new(sink));
    let ckpt = m.checkpoint();
    let result = m.run().expect("run completes");
    drop(m);
    let stream_text = stream_text.lock().expect("stream buffer").clone();
    Schema::ALL
        .into_iter()
        .map(|schema| {
            let text = match schema {
                Schema::Telemetry => result.telemetry.as_ref().expect("telemetry").to_jsonl(),
                Schema::Span => result.spans.as_ref().expect("spans").to_jsonl(),
                Schema::Stream => stream_text.clone(),
                Schema::HostProf => result.hostprof.as_ref().expect("hostprof").to_jsonl(),
                Schema::Ckpt => ckpt.clone(),
            };
            (schema, text)
        })
        .collect()
}

/// Runs every reader over `text`; a panic in any of them fails the test
/// with the offending input.
fn readers_return(schema: Schema, text: &str, what: &str) {
    let outcome = catch_unwind(|| {
        let _ = schema.validate(text);
        let _ = stream::read_events(text);
        for next_seq in [0, 3, u64::MAX] {
            let _ = stream::consistent_prefix(text, next_seq);
        }
    });
    assert!(
        outcome.is_ok(),
        "{} reader panicked on {what}:\n{text}",
        schema.key()
    );
}

#[test]
fn truncated_and_mutated_documents_never_panic_a_reader() {
    let mut rng = Rng::seeded(0x5EED);
    for (schema, good) in documents() {
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

        for _ in 0..MUTATIONS {
            let mut bytes = good.clone().into_bytes();
            let at = rng.gen_range(bytes.len() as u64) as usize;
            // Half the mutations write a digit, so numeric fields get
            // damaged into other numbers, not only into parse failures.
            bytes[at] = if rng.gen_range(2) == 0 {
                b'0' + rng.gen_range(10) as u8
            } else {
                b' ' + rng.gen_range(95) as u8
            };
            let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            readers_return(schema, &mutated, "a single-byte mutation");
        }

        // Numbers in turn (an even sample of ~150) become u64::MAX: the
        // sums and differences a validator takes over parsed fields must
        // not overflow.
        let bytes = good.as_bytes();
        let starts: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
            .collect();
        for &at in starts.iter().step_by(starts.len() / 150 + 1) {
            let len = bytes[at..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            let saturated = format!("{}{}{}", &good[..at], u64::MAX, &good[at + len..]);
            readers_return(schema, &saturated, "a number saturated to u64::MAX");
        }
    }
}
