//! The causal span tracer at the machine layer: the sampled JSONL export
//! is byte-identical across reruns and across the scheduling policies,
//! valid, records the span plan in the manifest, and samples some
//! transactions. The runs are the `span` cells of the digest matrix
//! (`tests/matrix/mod.rs`): the 2-node FFT with spans sampled (seed 7,
//! every 8th transaction) on SimOS-Mipsy over both memory systems. The
//! memory-system span tests drive the hotspot of
//! `tests/telemetry_hotspot.rs`.

mod matrix;

/// Each policy's export is the class's recorded `spans` (this run ≡ every
/// earlier one ≡ every policy); the matrix validates the export, and
/// checks the manifest's span plan and that some transaction was sampled,
/// on every cell.
#[test]
fn machine_span_export_is_byte_identical_across_reruns_and_policies() {
    let classes = matrix::ran("fft2/sampled");
    assert_eq!(classes.len(), 2, "FlashLite and NUMA");
    for (class, ran) in classes {
        assert_eq!(matrix::letters(ran), "RBP", "{}", class.name);
        for r in ran {
            assert!(r.has("spans"), "{}", r.label);
            let plan = r.ok().manifest.spans.as_deref();
            assert_eq!(plan, Some("seed=7 period=8 max_txns=4096"), "{}", r.label);
        }
    }
}
