//! The registry of `flashsim-*-v1` export formats: one name, one schema
//! id and one validator per format, so a tool (or a fuzzer) that wants
//! "every format" iterates [`Schema::ALL`] instead of knowing four
//! modules.
//!
//! `core::journal`'s `journal.log` is deliberately not a registry
//! format: it is advisory state, and resume re-verifies every claim it
//! makes against the artifact and checkpoint files it names.

use crate::{ckpt, hostprof, span, telemetry};

/// One export format of the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    /// Sim-time telemetry series ([`telemetry::SCHEMA`]).
    Telemetry,
    /// Sampled span trees ([`span::SCHEMA`]).
    Span,
    /// Host-time self-profile ([`hostprof::HOSTPROF_SCHEMA`]).
    HostProf,
    /// Machine checkpoint ([`ckpt::MAGIC`]).
    Ckpt,
}

impl Schema {
    /// Every format, in the order tools list them.
    pub const ALL: [Schema; 4] = [
        Schema::Telemetry,
        Schema::Span,
        Schema::HostProf,
        Schema::Ckpt,
    ];

    /// The short name a command line uses for this format.
    pub fn key(self) -> &'static str {
        match self {
            Schema::Telemetry => "telemetry",
            Schema::Span => "span",
            Schema::HostProf => "hostprof",
            Schema::Ckpt => "ckpt",
        }
    }

    /// The versioned identifier the format's documents declare.
    pub fn id(self) -> &'static str {
        match self {
            Schema::Telemetry => telemetry::SCHEMA,
            Schema::Span => span::SCHEMA,
            Schema::HostProf => hostprof::HOSTPROF_SCHEMA,
            Schema::Ckpt => ckpt::MAGIC,
        }
    }

    /// The format named `key`, if there is one. The kind of a document
    /// is always named, never sniffed from its text.
    pub fn from_key(key: &str) -> Option<Schema> {
        Schema::ALL.into_iter().find(|s| s.key() == key)
    }

    /// Strictly validates `text` as one document of this format.
    ///
    /// # Errors
    ///
    /// A description of the first violation; an empty document is one in
    /// every format. Total on any input: hostile text is an `Err`, never
    /// a panic (`tests/hostile_exports.rs`).
    pub fn validate(self, text: &str) -> Result<(), String> {
        match self {
            Schema::Telemetry => telemetry::validate_jsonl(text),
            Schema::Span => span::validate_jsonl(text),
            Schema::HostProf => hostprof::validate_jsonl(text),
            Schema::Ckpt => ckpt::validate(text).map(|_| ()).map_err(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_and_ids_are_the_declared_strings() {
        for s in Schema::ALL {
            assert_eq!(Schema::from_key(s.key()), Some(s));
            assert!(s.id().starts_with("flashsim-") && s.id().ends_with("-v1"));
        }
        assert_eq!(Schema::from_key("journal"), None);
    }

    #[test]
    fn every_format_rejects_an_empty_document() {
        for s in Schema::ALL {
            assert!(s.validate("").is_err(), "{s:?}");
        }
        assert_eq!(Schema::from_key("stream"), None);
    }
}
