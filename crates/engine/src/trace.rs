//! `benchmark/src/spans.rs` imports `push_json_escaped` by this path; a
//! `benchmark` PR repoints it at [`crate::jsonl`] and deletes this module.
pub use crate::jsonl::push_json_escaped;
