//! `flashsim-ckpt-v1` — the versioned checkpoint format every layer
//! serializes into, and [`Ckpt`], the one walk each layer writes it with.
//!
//! A checkpoint is taken at a **barrier release**, the machine layer's
//! natural quiescent point: every node's clock equals the release time,
//! no node is parked at a barrier or queued on a lock, and no memory
//! transaction is mid-flight on the protocol processor (transactions are
//! atomic busy-until reservations, so "in flight" state lives entirely
//! in the pending-miss maps and resource timelines serialized here).
//! That argument is what lets the format be a flat ordered dump instead
//! of an event-graph pickle; see DESIGN §3.16 for the full quiescence
//! proof and the per-layer state-ownership table.
//!
//! # Format
//!
//! Hand-rolled text, like [`crate::telemetry`]'s JSONL and the bench
//! crate's `SpeedReport` — no serde, no external schema:
//!
//! ```text
//! flashsim-ckpt-v1
//! provenance=<escaped run identity: config, seed, policy, fault plan>
//! provenance_hash=<fxhash-64 of the provenance string, 16 hex digits>
//! [section]
//! key=value
//! ...
//! checksum=<fxhash-64 of every preceding byte, 16 hex digits>
//! ```
//!
//! Values are `u64` decimal, `f64` as the exact 16-hex-digit bit
//! pattern (byte-identical round-trips, NaN included), strings with
//! `\\`/`\n`/`\r` escaped, and `u64` lists comma-separated. A restore is
//! **strictly sequential**: every [`Ckpt`] field names the key it
//! expects and fails with a structured [`CkptError`] on any mismatch, so
//! a version skew or torn write surfaces as a typed error at the first
//! divergent byte, never as silently misbound state.
//!
//! The embedded provenance is the restore-safety interlock: a machine
//! refuses ([`CkptError::ManifestMismatch`]) to load a checkpoint whose
//! provenance differs from the one it would itself write — wrong seed,
//! wrong platform, wrong scheduling policy, wrong fault plan all fail
//! closed. The trailing checksum makes truncation and bit-rot
//! detectable ([`CkptError::Truncated`] / [`CkptError::ChecksumMismatch`]),
//! which is what lets `core::runner` degrade a damaged checkpoint to
//! restart-from-zero instead of resuming into garbage.
//!
//! # One walk per component
//!
//! A component checkpoints through one function, `ckpt(&mut self, c:
//! &mut Ckpt<'_>)`, that names each field once. Saving, the walk writes
//! the value behind each `&mut`; restoring, it reads into the same `&mut`.
//! The walk is the format layer too: each field type's encoding and its
//! parse are one [`Ckpt`] method, as in `crate::jsonl`'s walk. There is
//! no second, hand-mirrored reader to drift from the writer, and
//! every restore-time check is a walker helper ([`Ckpt::interlock`] for a
//! shape interlock, the length bounds of [`Ckpt::u64s`] and
//! [`Ckpt::times`], the arity of [`Ckpt::array`]) or a [`bad`] at the one
//! site that knows the invariant. Saving never fails.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::ckpt::{validate, Ckpt, CkptError};
//! use flashsim_engine::Time;
//!
//! #[derive(Default)]
//! struct Clock {
//!     now: Time,
//!     ticks: u64,
//! }
//!
//! impl Clock {
//!     fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
//!         c.section("clock")?;
//!         c.time("now_ps", &mut self.now)?;
//!         c.u64("ticks", &mut self.ticks)
//!     }
//! }
//!
//! let mut a = Clock { now: Time::from_ps(123_456), ticks: 7 };
//! let mut c = Ckpt::save("demo nodes=2 seed=7");
//! a.ckpt(&mut c).expect("saving never fails");
//! let text = c.finish().expect("saving never fails");
//! validate(&text).expect("well-formed");
//!
//! let mut b = Clock::default();
//! let mut c = Ckpt::open(&text).expect("intact");
//! assert_eq!(c.provenance(), "demo nodes=2 seed=7");
//! b.ckpt(&mut c).expect("restores");
//! c.finish().expect("fully consumed");
//! assert_eq!((b.now, b.ticks), (a.now, a.ticks));
//! ```

use core::fmt;
use core::hash::Hasher;
use core::ops::RangeBounds;
use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::fxhash::FxHasher;
use crate::time::{Time, TimeDelta};

/// Magic first line of every checkpoint; doubles as the format version.
pub const MAGIC: &str = "flashsim-ckpt-v1";

/// Why a checkpoint could not be read. Every variant carries enough
/// context to report the first divergent line without re-parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The first line is not [`MAGIC`] — wrong file or future version.
    BadMagic {
        /// What the first line actually was.
        found: String,
    },
    /// The trailing `checksum=` line is missing: the file was cut off
    /// mid-write (the torn-write case the run journal must survive).
    Truncated,
    /// The trailing checksum does not match the preceding bytes.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        recorded: String,
        /// Checksum recomputed over the file body.
        computed: String,
    },
    /// The reader expected a `[section]` header and saw something else.
    BadSection {
        /// Section name the reader expected.
        expected: String,
        /// The line actually found.
        found: String,
    },
    /// The reader expected `key=` and the next line had a different key
    /// (or no `=` at all) — the state layout does not match the format.
    MissingField {
        /// Field key the reader expected.
        expected: String,
        /// The line actually found.
        found: String,
    },
    /// A value failed to parse under its declared type.
    Parse {
        /// Field key whose value was malformed.
        key: String,
        /// The offending value text.
        value: String,
    },
    /// The checkpoint's provenance differs from the restoring run's —
    /// wrong config, seed, scheduling policy, or fault plan.
    ManifestMismatch {
        /// Provenance the restoring machine would write.
        expected: String,
        /// Provenance embedded in the checkpoint.
        found: String,
    },
    /// [`Ckpt::finish`] found unread lines: the checkpoint holds
    /// more state than the restoring build knows how to load.
    TrailingData {
        /// First unconsumed line.
        line: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic { found } => {
                write!(f, "bad magic: expected {MAGIC:?}, found {found:?}")
            }
            CkptError::Truncated => write!(f, "truncated: no trailing checksum line"),
            CkptError::ChecksumMismatch { recorded, computed } => {
                write!(
                    f,
                    "checksum mismatch: recorded {recorded}, computed {computed}"
                )
            }
            CkptError::BadSection { expected, found } => {
                write!(f, "expected section [{expected}], found {found:?}")
            }
            CkptError::MissingField { expected, found } => {
                write!(f, "expected field {expected:?}, found {found:?}")
            }
            CkptError::Parse { key, value } => {
                write!(f, "field {key:?} has unparsable value {value:?}")
            }
            CkptError::ManifestMismatch { expected, found } => {
                write!(
                    f,
                    "provenance mismatch: checkpoint is for {found:?}, this run is {expected:?}"
                )
            }
            CkptError::TrailingData { line } => {
                write!(f, "trailing data after restore: {line:?}")
            }
        }
    }
}

/// Stable short tag for each error variant (chaos-grid / log keys).
impl CkptError {
    /// Stable lower-case kind string, one per variant.
    pub fn kind(&self) -> &'static str {
        match self {
            CkptError::BadMagic { .. } => "bad_magic",
            CkptError::Truncated => "truncated",
            CkptError::ChecksumMismatch { .. } => "checksum_mismatch",
            CkptError::BadSection { .. } => "bad_section",
            CkptError::MissingField { .. } => "missing_field",
            CkptError::Parse { .. } => "parse",
            CkptError::ManifestMismatch { .. } => "manifest_mismatch",
            CkptError::TrailingData { .. } => "trailing_data",
        }
    }
}

fn fx64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// The 16-hex-digit fxhash of a provenance string, as embedded on the
/// `provenance_hash=` line. Exposed so the run journal can name
/// checkpoints by run identity without re-reading them.
pub fn provenance_hash(provenance: &str) -> String {
    format!("{:016x}", fx64(provenance.as_bytes()))
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// One checkpoint walk, saving or restoring; see the [module](self) docs.
/// Field order is the schema: a restore reads back exactly the sections
/// and keys a save wrote, in order. Saving never fails; restoring fails
/// closed with the first divergent field.
#[derive(Debug)]
pub struct Ckpt<'t> {
    /// Saving: the checkpoint so far. Restoring: `None`.
    out: Option<String>,
    /// Restoring: the checksum-verified lines before the trailer, and the
    /// byte the next read starts at.
    text: &'t str,
    at: usize,
    /// The run identity the checkpoint is stamped with.
    provenance: String,
}

impl<'t> Ckpt<'t> {
    /// Starts saving a checkpoint stamped with the run's provenance string
    /// (the canonical pre-run identity: config label, seed, scheduling
    /// policy, fault plan, workload).
    pub fn save(provenance: &str) -> Self {
        let mut out = format!("{MAGIC}\nprovenance=");
        push_escaped(&mut out, provenance);
        out.push_str("\nprovenance_hash=");
        out.push_str(&provenance_hash(provenance));
        out.push('\n');
        Ckpt {
            out: Some(out),
            text: "",
            at: 0,
            provenance: provenance.to_string(),
        }
    }

    /// Starts restoring `text`: verifies magic, checksum, and the
    /// provenance header, and positions the walk at the first section.
    pub fn open(text: &'t str) -> Result<Self, CkptError> {
        // Format identification first: a well-formed file of another
        // version must say BadMagic, not ChecksumMismatch.
        match text.lines().next() {
            Some(l) if l == MAGIC => {}
            Some(l) if l.starts_with("flashsim-ckpt-") => {
                return Err(CkptError::BadMagic {
                    found: l.to_string(),
                })
            }
            _ => {}
        }
        // Then integrity: the body is everything up to and including
        // the newline before the final `checksum=` line.
        let Some(tail_at) = text.rfind("checksum=") else {
            return Err(CkptError::Truncated);
        };
        if tail_at != 0 && !text[..tail_at].ends_with('\n') {
            return Err(CkptError::Truncated);
        }
        let tail = text[tail_at..].trim_end_matches('\n');
        let recorded = &tail["checksum=".len()..];
        if !text[tail_at..].ends_with('\n') || text[tail_at..].matches('\n').count() != 1 {
            return Err(CkptError::Truncated);
        }
        let computed = format!("{:016x}", fx64(&text.as_bytes()[..tail_at]));
        if recorded != computed {
            return Err(CkptError::ChecksumMismatch {
                recorded: recorded.to_string(),
                computed,
            });
        }
        let mut c = Ckpt {
            out: None,
            text: &text[..tail_at],
            at: 0,
            provenance: String::new(),
        };
        match c.next_line(MAGIC) {
            Ok(l) if l == MAGIC => {}
            other => {
                return Err(CkptError::BadMagic {
                    found: other.unwrap_or("").to_string(),
                })
            }
        }
        let raw = c.value("provenance").map_err(|_| CkptError::MissingField {
            expected: "provenance".to_string(),
            found: String::new(),
        })?;
        let provenance = unescape(raw).ok_or_else(|| bad("provenance", raw))?;
        match c.value("provenance_hash") {
            Ok(h) if h == provenance_hash(&provenance) => {}
            Ok(h) => return Err(bad("provenance_hash", h)),
            Err(_) => return Err(bad("provenance_hash", "")),
        }
        c.provenance = provenance;
        Ok(c)
    }

    /// The provenance string the checkpoint is stamped with.
    pub fn provenance(&self) -> &str {
        &self.provenance
    }

    /// Fails closed unless the checkpoint's provenance matches the
    /// restoring run's exactly — the wrong-config/seed/policy interlock.
    pub fn expect_provenance(&self, expected: &str) -> Result<(), CkptError> {
        if self.provenance == expected {
            Ok(())
        } else {
            Err(CkptError::ManifestMismatch {
                expected: expected.to_string(),
                found: self.provenance.clone(),
            })
        }
    }

    /// Ends the walk. Saving, seals the checkpoint with the trailing
    /// `checksum=` line and returns its text. Restoring, fails on an
    /// unread line — state the restoring build does not know how to
    /// load — and returns an empty string.
    pub fn finish(self) -> Result<String, CkptError> {
        let Some(mut out) = self.out else {
            return match self.text[self.at..].lines().next() {
                None => Ok(String::new()),
                Some(l) => Err(CkptError::TrailingData {
                    line: l.to_string(),
                }),
            };
        };
        let sum = format!("checksum={:016x}\n", fx64(out.as_bytes()));
        out.push_str(&sum);
        Ok(out)
    }

    /// True while restoring: only a component that rebuilds a table from
    /// its rows (a hash map, a sorted dump, a re-interned label) asks.
    pub fn loading(&self) -> bool {
        self.out.is_none()
    }

    /// The next line (without its `\n`), for a walk expecting `expected`.
    fn next_line(&mut self, expected: &str) -> Result<&'t str, CkptError> {
        let rest = &self.text[self.at..];
        let Some(end) = rest.find('\n') else {
            return Err(CkptError::MissingField {
                expected: expected.to_string(),
                found: "<end of checkpoint>".to_string(),
            });
        };
        self.at += end + 1;
        let line = &rest[..end];
        Ok(line.strip_suffix('\r').unwrap_or(line))
    }

    /// The value of the next line, which must carry `key`.
    fn value(&mut self, key: &str) -> Result<&'t str, CkptError> {
        let line = self.next_line(key)?;
        match line.split_once('=') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(CkptError::MissingField {
                expected: key.to_string(),
                found: line.to_string(),
            }),
        }
    }

    /// Saving, `key=`, the value `put` writes, and a newline; restoring,
    /// the [`value`](Ckpt::value) read.
    fn field(
        &mut self,
        key: &str,
        put: impl FnOnce(&mut String),
    ) -> Result<Option<&'t str>, CkptError> {
        let Some(out) = &mut self.out else {
            return self.value(key).map(Some);
        };
        out.push_str(key);
        out.push('=');
        put(out);
        out.push('\n');
        Ok(None)
    }

    /// The `[name]` section header.
    pub fn section(&mut self, name: &str) -> Result<(), CkptError> {
        if let Some(out) = &mut self.out {
            out.push('[');
            out.push_str(name);
            out.push_str("]\n");
            return Ok(());
        }
        let line = self.next_line(name)?;
        if line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) == Some(name) {
            Ok(())
        } else {
            Err(CkptError::BadSection {
                expected: name.to_string(),
                found: line.to_string(),
            })
        }
    }

    /// An unsigned integer field, in decimal.
    pub fn u64(&mut self, key: &str, v: &mut u64) -> Result<(), CkptError> {
        if let Some(s) = self.field(key, |out| out.push_str(&v.to_string()))? {
            *v = s.parse().map_err(|_| bad(key, s))?;
        }
        Ok(())
    }

    /// A simulation timestamp (raw picoseconds).
    pub fn time(&mut self, key: &str, v: &mut Time) -> Result<(), CkptError> {
        let mut ps = v.as_ps();
        self.u64(key, &mut ps)?;
        *v = Time::from_ps(ps);
        Ok(())
    }

    /// A simulation time span (raw picoseconds).
    pub fn delta(&mut self, key: &str, v: &mut TimeDelta) -> Result<(), CkptError> {
        let mut ps = v.as_ps();
        self.u64(key, &mut ps)?;
        *v = TimeDelta::from_ps(ps);
        Ok(())
    }

    /// A float, as its exact 16-hex-digit bit pattern, so the round trip
    /// is byte-identical (NaN payloads included).
    pub fn f64(&mut self, key: &str, v: &mut f64) -> Result<(), CkptError> {
        let put = |out: &mut String| out.push_str(&format!("{:016x}", v.to_bits()));
        if let Some(s) = self.field(key, put)? {
            match u64::from_str_radix(s, 16) {
                Ok(bits) if s.len() == 16 => *v = f64::from_bits(bits),
                _ => return Err(bad(key, s)),
            }
        }
        Ok(())
    }

    /// A string with `\\`/`\n`/`\r` escaped: `v` is written; restoring,
    /// the string read is returned.
    fn str(&mut self, key: &str, v: &str) -> Result<Option<String>, CkptError> {
        match self.field(key, |out| push_escaped(out, v))? {
            Some(s) => unescape(s).map(Some).ok_or_else(|| bad(key, s)),
            None => Ok(None),
        }
    }

    /// Integers, comma-separated (an empty list is an empty value): `v` is
    /// written; restoring, the list read is returned.
    fn ints(&mut self, key: &str, v: &[u64]) -> Result<Option<Vec<u64>>, CkptError> {
        let put = |out: &mut String| {
            for (i, x) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&x.to_string());
            }
        };
        match self.field(key, put)? {
            None => Ok(None),
            Some("") => Ok(Some(Vec::new())),
            Some(s) => s
                .split(',')
                .map(|part| part.parse().map_err(|_| bad(key, s)))
                .collect::<Result<_, _>>()
                .map(Some),
        }
    }

    /// A label from a small fixed vocabulary (a span leg kind, a protocol
    /// case), re-interned on restore; see [`intern`].
    pub fn label(&mut self, key: &str, v: &mut &'static str) -> Result<(), CkptError> {
        if let Some(found) = self.str(key, v)? {
            *v = intern(&found);
        }
        Ok(())
    }

    /// A string interlock: written on save, and on restore the field must
    /// read back exactly `want` (a resource's or a metric's name).
    pub fn name(&mut self, key: &str, want: &str) -> Result<(), CkptError> {
        match self.str(key, want)? {
            Some(found) if found != want => Err(bad(key, format!("{found}, expected {want}"))),
            _ => Ok(()),
        }
    }

    /// A shape interlock: `want` is written on save, and on restore the
    /// field must read back exactly `want` — a configuration the state
    /// was sized for, or whether an optional part is present.
    pub fn interlock(&mut self, key: &str, want: &[u64]) -> Result<(), CkptError> {
        match self.ints(key, want)? {
            Some(found) if found != want => Err(bad(key, format!("{found:?}, expected {want:?}"))),
            _ => Ok(()),
        }
    }

    /// A list of integers whose restored length must fall in `len`.
    pub fn u64s(
        &mut self,
        key: &str,
        v: &mut Vec<u64>,
        len: impl RangeBounds<usize>,
    ) -> Result<(), CkptError> {
        match self.ints(key, v)? {
            Some(found) if !len.contains(&found.len()) => {
                Err(bad(key, format!("{} entries", found.len())))
            }
            Some(found) => {
                *v = found;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// A fixed-arity row: exactly `N` integers.
    pub fn array<const N: usize>(
        &mut self,
        key: &str,
        row: &mut [u64; N],
    ) -> Result<(), CkptError> {
        if let Some(found) = self.ints(key, row)? {
            *row = found
                .try_into()
                .map_err(|v: Vec<u64>| bad(key, format!("{} words", v.len())))?;
        }
        Ok(())
    }

    /// A collection of timestamps (a write buffer, a reorder window, the
    /// misses in flight) whose restored length must fall in `len`.
    pub fn times<C>(
        &mut self,
        key: &str,
        v: &mut C,
        len: impl RangeBounds<usize>,
    ) -> Result<(), CkptError>
    where
        C: FromIterator<Time>,
        for<'c> &'c C: IntoIterator<Item = &'c Time>,
    {
        let mut ps: Vec<u64> = v.into_iter().map(|t| t.as_ps()).collect();
        self.u64s(key, &mut ps, len)?;
        if self.loading() {
            *v = ps.into_iter().map(Time::from_ps).collect();
        }
        Ok(())
    }

    /// A table length: `n` is written on save; the restored count is
    /// returned (rows then fail closed one by one, so it sizes nothing).
    pub fn count(&mut self, key: &str, n: usize) -> Result<usize, CkptError> {
        let mut n = n as u64;
        self.u64(key, &mut n)?;
        Ok(n as usize)
    }

    /// A table: its length under `key`, then `row` walks each element. On
    /// restore `v` is rebuilt from default elements.
    pub fn list<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        mut row: impl FnMut(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let n = self.count(key, v.len())?;
        if self.loading() {
            v.clear();
        }
        for i in 0..n {
            if self.loading() {
                v.push(T::default());
            }
            row(self, &mut v[i])?;
        }
        Ok(())
    }
}

/// The `Parse` error for field `key` holding `value`: a value that
/// parsed but breaks an invariant of the state it restores.
pub fn bad(key: &str, value: impl fmt::Display) -> CkptError {
    CkptError::Parse {
        key: key.to_string(),
        value: value.to_string(),
    }
}

/// Shape summary returned by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptStats {
    /// The embedded provenance string.
    pub provenance: String,
    /// Number of `[section]` headers.
    pub sections: usize,
    /// Number of `key=value` fields (excluding the provenance header).
    pub fields: usize,
}

/// Structural validation of a `flashsim-ckpt-v1` text: magic, checksum,
/// provenance header, and every body line either a `[section]` header
/// or a `key=value` field. This is the `flashsim validate ckpt` /
/// check.sh gate; it does not (and cannot) check the semantic
/// field layout — a [`Ckpt`] walk's strict sequential keys do that
/// during an actual restore.
pub fn validate(text: &str) -> Result<CkptStats, CkptError> {
    let c = Ckpt::open(text)?;
    let mut sections = 0usize;
    let mut fields = 0usize;
    for line in c.text[c.at..].lines() {
        if line.starts_with('[') && line.ends_with(']') && line.len() > 2 {
            sections += 1;
        } else if line.split_once('=').is_some_and(|(k, _)| !k.is_empty()) {
            fields += 1;
        } else {
            return Err(bad("<body>", line));
        }
    }
    Ok(CkptStats {
        provenance: c.provenance,
        sections,
        fields,
    })
}

/// Restores a `&'static str` label (span leg kinds, protocol case
/// names) from checkpoint text or a span export. Labels come from a
/// small fixed vocabulary, so the registry deduplicates and only leaks
/// a string the first time a given label is ever seen in this process —
/// bounded by the vocabulary, not by the number of restores (a hostile
/// document can add its own distinct labels; each lookup stays
/// logarithmic).
pub fn intern(s: &str) -> &'static str {
    static REGISTRY: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut reg = REGISTRY.lock().expect("intern registry poisoned"); // gate: allow
    if let Some(existing) = reg.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    reg.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field type once, in two sections.
    #[derive(Debug, Default, PartialEq)]
    struct Demo {
        count: u64,
        mean: f64,
        label: String,
        list: Vec<u64>,
        empty: Vec<u64>,
        at: Time,
        span: TimeDelta,
    }

    impl Demo {
        fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
            c.section("alpha")?;
            c.u64("count", &mut self.count)?;
            c.f64("mean", &mut self.mean)?;
            if let Some(label) = c.str("label", &self.label)? {
                self.label = label;
            }
            c.u64s("list", &mut self.list, ..)?;
            c.u64s("empty", &mut self.empty, ..)?;
            c.section("beta")?;
            c.time("at", &mut self.at)?;
            c.delta("for", &mut self.span)
        }
    }

    fn full() -> Demo {
        Demo {
            count: 7,
            mean: -0.5,
            label: "line1\nline2\\end".to_string(),
            list: vec![1, 2, 3],
            empty: Vec::new(),
            at: Time::from_ns(12),
            span: TimeDelta::from_ps(345),
        }
    }

    fn demo() -> String {
        let mut c = Ckpt::save("cfg=x seed=42");
        full().ckpt(&mut c).unwrap();
        c.finish().unwrap()
    }

    #[test]
    fn roundtrip_is_exact() {
        let text = demo();
        let mut c = Ckpt::open(&text).expect("intact");
        assert_eq!(c.provenance(), "cfg=x seed=42");
        c.expect_provenance("cfg=x seed=42").expect("match");
        let mut back = Demo::default();
        back.ckpt(&mut c).expect("restores");
        c.finish().expect("consumed");
        assert_eq!(back, full());
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bit_exactly() {
        let walk = |c: &mut Ckpt<'_>, nan: &mut f64, nz: &mut f64| {
            c.f64("nan", nan)?;
            c.f64("nz", nz)
        };
        let mut c = Ckpt::save("p");
        walk(
            &mut c,
            &mut f64::from_bits(0x7ff8_0000_0000_1234),
            &mut -0.0,
        )
        .unwrap();
        let text = c.finish().unwrap();
        let (mut nan, mut nz) = (0.0, 0.0);
        let mut c = Ckpt::open(&text).expect("intact");
        walk(&mut c, &mut nan, &mut nz).expect("restores");
        assert_eq!(nan.to_bits(), 0x7ff8_0000_0000_1234);
        assert_eq!(nz.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncation_and_corruption_are_structured_errors() {
        let text = demo();
        // Cut anywhere before the checksum line: Truncated.
        let cut = &text[..text.len() / 2];
        assert!(matches!(Ckpt::open(cut), Err(CkptError::Truncated)));
        assert!(matches!(validate(cut), Err(CkptError::Truncated)));
        // Flip one payload byte: ChecksumMismatch.
        let flipped = text.replacen("count=7", "count=8", 1);
        assert!(matches!(
            validate(&flipped),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        // Wrong magic.
        let other = text.replacen(MAGIC, "flashsim-ckpt-v9", 1);
        assert!(matches!(validate(&other), Err(CkptError::BadMagic { .. })));
        // Empty input.
        assert!(matches!(validate(""), Err(CkptError::Truncated)));
    }

    #[test]
    fn reader_is_strictly_sequential() {
        let text = demo();
        let mut c = Ckpt::open(&text).expect("intact");
        assert!(matches!(
            c.section("beta"),
            Err(CkptError::BadSection { .. })
        ));
        let mut c = Ckpt::open(&text).expect("intact");
        c.section("alpha").expect("alpha");
        assert!(matches!(
            c.u64("wrong_key", &mut 0),
            Err(CkptError::MissingField { .. })
        ));
        let c = Ckpt::open(&text).expect("intact");
        assert!(matches!(c.finish(), Err(CkptError::TrailingData { .. })));
    }

    #[test]
    fn provenance_interlock_fails_closed() {
        let text = demo();
        let c = Ckpt::open(&text).expect("intact");
        let err = c.expect_provenance("cfg=y seed=42").expect_err("mismatch");
        assert!(matches!(err, CkptError::ManifestMismatch { .. }));
        assert_eq!(err.kind(), "manifest_mismatch");
    }

    #[test]
    fn validate_counts_shape() {
        let stats = validate(&demo()).expect("well-formed");
        assert_eq!(stats.sections, 2);
        assert_eq!(stats.fields, 7);
        assert_eq!(stats.provenance, "cfg=x seed=42");
    }

    /// One small walk over every field type and restore-time check.
    #[derive(Debug, Default)]
    struct Probe {
        n: u64,
        x: f64,
        tag: &'static str,
        list: Vec<u64>,
        row: [u64; 2],
        at: Time,
    }

    impl Probe {
        fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
            c.section("probe")?;
            c.u64("n", &mut self.n)?;
            c.f64("x", &mut self.x)?;
            c.label("tag", &mut self.tag)?;
            c.name("owner", "probe")?;
            c.interlock("shape", &[2, 3])?;
            c.u64s("list", &mut self.list, 1..=3)?;
            c.array("row", &mut self.row)?;
            c.time("at", &mut self.at)
        }
    }

    const PROBE: &str = "probe run=1";

    fn probe_text() -> String {
        let mut p = Probe {
            n: 7,
            x: 1.5,
            tag: "leg",
            list: vec![4, 5],
            row: [8, 9],
            at: Time::from_ps(10),
        };
        let mut c = Ckpt::save(PROBE);
        p.ckpt(&mut c).unwrap();
        c.finish().unwrap()
    }

    /// Opens `text` and restores a [`Probe`] from it, as a run `expected`.
    fn restore_probe(text: &str, expected: &str) -> Result<(), CkptError> {
        let mut c = Ckpt::open(text)?;
        c.expect_provenance(expected)?;
        Probe::default().ckpt(&mut c)?;
        c.finish().map(drop)
    }

    /// `body` sealed with the trailer a save appends.
    fn reseal(body: &str) -> String {
        format!("{body}checksum={:016x}\n", fx64(body.as_bytes()))
    }

    /// The probe checkpoint with line `from` replaced by `to`, resealed.
    fn with_line(from: &str, to: &str) -> String {
        let text = probe_text();
        let body = &text[..text.rfind("checksum=").unwrap()];
        let lines: Vec<&str> = body
            .lines()
            .map(|l| if l == from { to } else { l })
            .collect();
        assert!(lines.contains(&to), "no line {from:?}");
        reseal(&format!("{}\n", lines.join("\n")))
    }

    #[test]
    fn every_rejection_keeps_its_kind_and_text() {
        let text = probe_text();
        restore_probe(&text, PROBE).expect("the probe restores");
        let body = &text[..text.rfind("checksum=").unwrap()];
        let hash = provenance_hash(PROBE);
        let cases: Vec<(&str, String, &str, &str, &str)> = vec![
            (
                "another version's magic",
                text.replacen(MAGIC, "flashsim-ckpt-v2", 1),
                PROBE,
                "bad_magic",
                r#"bad magic: expected "flashsim-ckpt-v1", found "flashsim-ckpt-v2""#,
            ),
            (
                "garbage magic",
                with_line(MAGIC, "garbage"),
                PROBE,
                "bad_magic",
                r#"bad magic: expected "flashsim-ckpt-v1", found "garbage""#,
            ),
            (
                "no trailer",
                body.to_string(),
                PROBE,
                "truncated",
                "truncated: no trailing checksum line",
            ),
            (
                "torn trailer",
                text[..text.len() - 5].to_string(),
                PROBE,
                "truncated",
                "truncated: no trailing checksum line",
            ),
            (
                "checksum mismatch",
                text.replacen("n=7\n", "n=8\n", 1),
                PROBE,
                "checksum_mismatch",
                "checksum mismatch: recorded 06cb69d08caf412c, computed 529fa165a2e5e438",
            ),
            (
                "bad provenance_hash",
                with_line(&format!("provenance_hash={hash}"), "provenance_hash=0"),
                PROBE,
                "parse",
                r#"field "provenance_hash" has unparsable value "0""#,
            ),
            (
                "provenance mismatch",
                text.clone(),
                "probe run=2",
                "manifest_mismatch",
                r#"provenance mismatch: checkpoint is for "probe run=1", this run is "probe run=2""#,
            ),
            (
                "wrong section",
                with_line("[probe]", "[other]"),
                PROBE,
                "bad_section",
                r#"expected section [probe], found "[other]""#,
            ),
            (
                "wrong key",
                with_line("n=7", "m=7"),
                PROBE,
                "missing_field",
                r#"expected field "n", found "m=7""#,
            ),
            (
                "non-numeric u64",
                with_line("n=7", "n=seven"),
                PROBE,
                "parse",
                r#"field "n" has unparsable value "seven""#,
            ),
            (
                "short f64",
                with_line("x=3ff8000000000000", "x=3ff800000000000"),
                PROBE,
                "parse",
                r#"field "x" has unparsable value "3ff800000000000""#,
            ),
            (
                "non-hex f64",
                with_line("x=3ff8000000000000", "x=3ff800000000000g"),
                PROBE,
                "parse",
                r#"field "x" has unparsable value "3ff800000000000g""#,
            ),
            (
                "bad escape in a label",
                with_line("tag=leg", r"tag=l\eg"),
                PROBE,
                "parse",
                r#"field "tag" has unparsable value "l\\eg""#,
            ),
            (
                "name mismatch",
                with_line("owner=probe", "owner=other"),
                PROBE,
                "parse",
                r#"field "owner" has unparsable value "other, expected probe""#,
            ),
            (
                "interlock mismatch",
                with_line("shape=2,3", "shape=2,4"),
                PROBE,
                "parse",
                r#"field "shape" has unparsable value "[2, 4], expected [2, 3]""#,
            ),
            (
                "u64s length out of range",
                with_line("list=4,5", "list=4,5,6,7"),
                PROBE,
                "parse",
                r#"field "list" has unparsable value "4 entries""#,
            ),
            (
                "wrong array arity",
                with_line("row=8,9", "row=8,9,10"),
                PROBE,
                "parse",
                r#"field "row" has unparsable value "3 words""#,
            ),
            (
                "trailing line",
                reseal(&format!("{body}extra=1\n")),
                PROBE,
                "trailing_data",
                r#"trailing data after restore: "extra=1""#,
            ),
        ];
        for (case, hostile, expected, kind, display) in cases {
            let err = restore_probe(&hostile, expected).expect_err(case);
            assert_eq!((case, err.kind()), (case, kind));
            assert_eq!((case, err.to_string()), (case, display.to_string()));
        }
    }

    #[test]
    fn intern_dedups_and_round_trips() {
        let a = intern("ckpt-test-label-a");
        let b = intern("ckpt-test-label-a");
        assert!(core::ptr::eq(a, b));
        assert_eq!(intern("ckpt-test-label-b"), "ckpt-test-label-b");
    }
}
