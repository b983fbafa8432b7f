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
//! `\\`/`\n`/`\r` escaped, and `u64` lists comma-separated. Readers are
//! **strictly sequential**: every [`CkptReader`] accessor names the key
//! it expects and fails with a structured [`CkptError`] on any
//! mismatch, so a version skew or torn write surfaces as a typed error
//! at the first divergent byte, never as silently misbound state.
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
//! &mut Ckpt<'_>)`, that names each field once. Saving, the walker writes
//! the value behind each `&mut`; restoring, it reads into the same `&mut`.
//! There is no second, hand-mirrored reader to drift from the writer, and
//! every restore-time check is a walker helper ([`Ckpt::interlock`] for a
//! shape interlock, the length bounds of [`Ckpt::u64s`] and
//! [`Ckpt::times`], the arity of [`Ckpt::array`]) or a [`bad`] at the one
//! site that knows the invariant. Saving never fails.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::ckpt::{validate, Ckpt, CkptError, CkptReader, CkptWriter};
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
//! let mut w = CkptWriter::new("demo nodes=2 seed=7");
//! a.ckpt(&mut Ckpt::Save(&mut w)).expect("saving never fails");
//! let text = w.finish();
//! validate(&text).expect("well-formed");
//!
//! let mut b = Clock::default();
//! let mut r = CkptReader::open(&text).expect("intact");
//! assert_eq!(r.provenance(), "demo nodes=2 seed=7");
//! b.ckpt(&mut Ckpt::Load(&mut r)).expect("restores");
//! r.finish().expect("fully consumed");
//! assert_eq!((b.now, b.ticks), (a.now, a.ticks));
//! ```

use core::fmt;
use core::hash::Hasher;
use core::ops::RangeBounds;
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
    /// [`CkptReader::finish`] found unread lines: the checkpoint holds
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

/// Sequential checkpoint writer. Field order is the schema: readers
/// consume the exact same sequence of sections and keys.
#[derive(Debug, Clone)]
pub struct CkptWriter {
    out: String,
}

impl CkptWriter {
    /// Starts a checkpoint stamped with the run's provenance string
    /// (the canonical pre-run identity: config label, seed, scheduling
    /// policy, fault plan, workload).
    pub fn new(provenance: &str) -> CkptWriter {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str("provenance=");
        push_escaped(&mut out, provenance);
        out.push('\n');
        out.push_str("provenance_hash=");
        out.push_str(&provenance_hash(provenance));
        out.push('\n');
        CkptWriter { out }
    }

    /// Opens a named section; purely structural, for readability and
    /// for the reader's layout cross-check.
    pub fn section(&mut self, name: &str) {
        self.out.push('[');
        self.out.push_str(name);
        self.out.push_str("]\n");
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.out.push_str(key);
        self.out.push('=');
        self.out.push_str(&v.to_string());
        self.out.push('\n');
    }

    /// Writes a list of unsigned integers, comma-separated (empty list
    /// is an empty value).
    pub fn u64s(&mut self, key: &str, vals: &[u64]) {
        self.out.push_str(key);
        self.out.push('=');
        for (i, v) in vals.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&v.to_string());
        }
        self.out.push('\n');
    }

    /// Writes a float as its exact 16-hex-digit bit pattern, so the
    /// round-trip is byte-identical (NaN payloads included).
    pub fn f64(&mut self, key: &str, v: f64) {
        self.out.push_str(key);
        self.out.push('=');
        self.out.push_str(&format!("{:016x}", v.to_bits()));
        self.out.push('\n');
    }

    /// Writes a string field with `\\`/`\n`/`\r` escaped.
    pub fn str(&mut self, key: &str, v: &str) {
        self.out.push_str(key);
        self.out.push('=');
        push_escaped(&mut self.out, v);
        self.out.push('\n');
    }

    /// Writes a simulation timestamp (raw picoseconds).
    pub fn time(&mut self, key: &str, t: Time) {
        self.u64(key, t.as_ps());
    }

    /// Writes a simulation time span (raw picoseconds).
    pub fn delta(&mut self, key: &str, d: TimeDelta) {
        self.u64(key, d.as_ps());
    }

    /// Seals the checkpoint with the trailing checksum line and
    /// returns the full text.
    pub fn finish(mut self) -> String {
        let sum = format!("checksum={:016x}\n", fx64(self.out.as_bytes()));
        self.out.push_str(&sum);
        self.out
    }
}

/// Sequential checkpoint reader over an integrity-verified text. It owns
/// a copy of the body, so a [`Ckpt::Load`] walk borrows it without tying
/// every component's signature to the text's lifetime.
#[derive(Debug)]
pub struct CkptReader {
    /// The lines after the provenance header, each ending in `\n`.
    body: String,
    /// Byte offset of the next unread line.
    pos: usize,
    provenance: String,
}

impl CkptReader {
    /// Verifies magic, checksum, and the provenance header, and
    /// positions the reader at the first section.
    pub fn open(text: &str) -> Result<CkptReader, CkptError> {
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
        let mut r = CkptReader {
            body: text[..tail_at].to_string(),
            pos: 0,
            provenance: String::new(),
        };
        match r.next_line(MAGIC) {
            Ok(l) if l == MAGIC => {}
            other => {
                return Err(CkptError::BadMagic {
                    found: other.unwrap_or("").to_string(),
                })
            }
        }
        let raw = r.value("provenance").map_err(|_| CkptError::MissingField {
            expected: "provenance".to_string(),
            found: String::new(),
        })?;
        let provenance = unescape(raw).ok_or_else(|| bad("provenance", raw))?;
        match r.value("provenance_hash") {
            Ok(h) if h == provenance_hash(&provenance) => {}
            Ok(h) => return Err(bad("provenance_hash", h)),
            Err(_) => return Err(bad("provenance_hash", "")),
        }
        r.provenance = provenance;
        Ok(r)
    }

    /// The provenance string the checkpoint was stamped with.
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

    /// The next line (without its `\n`), for a reader expecting `expected`.
    fn next_line(&mut self, expected: &str) -> Result<&str, CkptError> {
        let rest = &self.body[self.pos..];
        let Some(end) = rest.find('\n') else {
            return Err(CkptError::MissingField {
                expected: expected.to_string(),
                found: "<end of checkpoint>".to_string(),
            });
        };
        self.pos += end + 1;
        let line = &rest[..end];
        Ok(line.strip_suffix('\r').unwrap_or(line))
    }

    /// Consumes the next line, which must be exactly `[name]`.
    pub fn section(&mut self, name: &str) -> Result<(), CkptError> {
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

    fn value(&mut self, key: &str) -> Result<&str, CkptError> {
        let line = self.next_line(key)?;
        match line.split_once('=') {
            Some((k, v)) if k == key => Ok(v),
            _ => Err(CkptError::MissingField {
                expected: key.to_string(),
                found: line.to_string(),
            }),
        }
    }

    /// Reads the named unsigned integer field.
    pub fn u64(&mut self, key: &str) -> Result<u64, CkptError> {
        let v = self.value(key)?;
        v.parse().map_err(|_| bad(key, v))
    }

    /// Reads the named comma-separated unsigned integer list.
    pub fn u64s(&mut self, key: &str) -> Result<Vec<u64>, CkptError> {
        let v = self.value(key)?;
        if v.is_empty() {
            return Ok(Vec::new());
        }
        v.split(',')
            .map(|part| part.parse().map_err(|_| bad(key, v)))
            .collect()
    }

    /// Reads the named float from its 16-hex-digit bit pattern.
    pub fn f64(&mut self, key: &str) -> Result<f64, CkptError> {
        let v = self.value(key)?;
        match u64::from_str_radix(v, 16) {
            Ok(bits) if v.len() == 16 => Ok(f64::from_bits(bits)),
            _ => Err(bad(key, v)),
        }
    }

    /// Reads the named string field, unescaping `\\`/`\n`/`\r`.
    pub fn str_field(&mut self, key: &str) -> Result<String, CkptError> {
        let v = self.value(key)?;
        unescape(v).ok_or_else(|| bad(key, v))
    }

    /// Reads the named simulation timestamp.
    pub fn time(&mut self, key: &str) -> Result<Time, CkptError> {
        Ok(Time::from_ps(self.u64(key)?))
    }

    /// Reads the named simulation time span.
    pub fn delta(&mut self, key: &str) -> Result<TimeDelta, CkptError> {
        Ok(TimeDelta::from_ps(self.u64(key)?))
    }

    /// Asserts the checkpoint is fully consumed — unread state means a
    /// layout mismatch between writer and reader builds.
    pub fn finish(&mut self) -> Result<(), CkptError> {
        match self.body[self.pos..].lines().next() {
            None => Ok(()),
            Some(l) => Err(CkptError::TrailingData {
                line: l.to_string(),
            }),
        }
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

/// One checkpoint walk: [`Ckpt::Save`] writes every value a component
/// names, [`Ckpt::Load`] reads each back into the same `&mut`. Saving
/// never fails; restoring fails closed with the first divergent field.
#[derive(Debug)]
pub enum Ckpt<'a> {
    /// Writing a checkpoint.
    Save(&'a mut CkptWriter),
    /// Restoring one.
    Load(&'a mut CkptReader),
}

impl Ckpt<'_> {
    /// True while restoring: only a component that rebuilds a table from
    /// its rows (a hash map, a sorted dump, a re-interned label) asks.
    pub fn loading(&self) -> bool {
        matches!(self, Ckpt::Load(_))
    }

    /// The `[name]` section header.
    pub fn section(&mut self, name: &str) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.section(name),
            Ckpt::Load(r) => r.section(name)?,
        }
        Ok(())
    }

    /// An unsigned integer field.
    pub fn u64(&mut self, key: &str, v: &mut u64) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.u64(key, *v),
            Ckpt::Load(r) => *v = r.u64(key)?,
        }
        Ok(())
    }

    /// A simulation timestamp (raw picoseconds).
    pub fn time(&mut self, key: &str, v: &mut Time) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.time(key, *v),
            Ckpt::Load(r) => *v = r.time(key)?,
        }
        Ok(())
    }

    /// A simulation time span (raw picoseconds).
    pub fn delta(&mut self, key: &str, v: &mut TimeDelta) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.delta(key, *v),
            Ckpt::Load(r) => *v = r.delta(key)?,
        }
        Ok(())
    }

    /// A float, as its exact bit pattern.
    pub fn f64(&mut self, key: &str, v: &mut f64) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.f64(key, *v),
            Ckpt::Load(r) => *v = r.f64(key)?,
        }
        Ok(())
    }

    /// A label from a small fixed vocabulary (a span leg kind, a protocol
    /// case), re-interned on restore; see [`intern`].
    pub fn label(&mut self, key: &str, v: &mut &'static str) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.str(key, v),
            Ckpt::Load(r) => *v = intern(&r.str_field(key)?),
        }
        Ok(())
    }

    /// A string interlock: written on save, and on restore the field must
    /// read back exactly `want` (a resource's or a metric's name).
    pub fn name(&mut self, key: &str, want: &str) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.str(key, want),
            Ckpt::Load(r) => {
                let found = r.str_field(key)?;
                if found != want {
                    return Err(bad(key, format!("{found}, expected {want}")));
                }
            }
        }
        Ok(())
    }

    /// A shape interlock: `want` is written on save, and on restore the
    /// field must read back exactly `want` — a configuration the state
    /// was sized for, or whether an optional part is present.
    pub fn interlock(&mut self, key: &str, want: &[u64]) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.u64s(key, want),
            Ckpt::Load(r) => {
                let found = r.u64s(key)?;
                if found != want {
                    return Err(bad(key, format!("{found:?}, expected {want:?}")));
                }
            }
        }
        Ok(())
    }

    /// A list of integers whose restored length must fall in `len`.
    pub fn u64s(
        &mut self,
        key: &str,
        v: &mut Vec<u64>,
        len: impl RangeBounds<usize>,
    ) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.u64s(key, v),
            Ckpt::Load(r) => {
                let found = r.u64s(key)?;
                if !len.contains(&found.len()) {
                    return Err(bad(key, format!("{} entries", found.len())));
                }
                *v = found;
            }
        }
        Ok(())
    }

    /// A fixed-arity row: exactly `N` integers.
    pub fn array<const N: usize>(
        &mut self,
        key: &str,
        row: &mut [u64; N],
    ) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.u64s(key, row),
            Ckpt::Load(r) => {
                let found = r.u64s(key)?;
                *row = found
                    .try_into()
                    .map_err(|v: Vec<u64>| bad(key, format!("{} words", v.len())))?;
            }
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
/// field layout — [`CkptReader`]'s strict sequential keys do that
/// during an actual restore.
pub fn validate(text: &str) -> Result<CkptStats, CkptError> {
    let r = CkptReader::open(text)?;
    let mut sections = 0usize;
    let mut fields = 0usize;
    for line in r.body[r.pos..].lines() {
        if line.starts_with('[') && line.ends_with(']') && line.len() > 2 {
            sections += 1;
        } else if line.split_once('=').is_some_and(|(k, _)| !k.is_empty()) {
            fields += 1;
        } else {
            return Err(bad("<body>", line));
        }
    }
    Ok(CkptStats {
        provenance: r.provenance,
        sections,
        fields,
    })
}

/// Restores a `&'static str` label (span leg kinds, protocol case
/// names) from checkpoint text. Labels come from a small fixed
/// vocabulary, so the registry deduplicates and only leaks a string
/// the first time a given label is ever seen in this process — bounded
/// by the vocabulary, not by the number of restores.
pub fn intern(s: &str) -> &'static str {
    static REGISTRY: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut reg = REGISTRY.lock().expect("intern registry poisoned"); // gate: allow
    if let Some(existing) = reg.iter().find(|e| **e == s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    reg.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> String {
        let mut w = CkptWriter::new("cfg=x seed=42");
        w.section("alpha");
        w.u64("count", 7);
        w.f64("mean", -0.5);
        w.str("label", "line1\nline2\\end");
        w.u64s("list", &[1, 2, 3]);
        w.u64s("empty", &[]);
        w.section("beta");
        w.time("at", Time::from_ns(12));
        w.delta("for", TimeDelta::from_ps(345));
        w.finish()
    }

    #[test]
    fn roundtrip_is_exact() {
        let text = demo();
        let mut r = CkptReader::open(&text).expect("intact");
        assert_eq!(r.provenance(), "cfg=x seed=42");
        r.expect_provenance("cfg=x seed=42").expect("match");
        r.section("alpha").expect("alpha");
        assert_eq!(r.u64("count").expect("count"), 7);
        assert_eq!(r.f64("mean").expect("mean"), -0.5);
        assert_eq!(r.str_field("label").expect("label"), "line1\nline2\\end");
        assert_eq!(r.u64s("list").expect("list"), vec![1, 2, 3]);
        assert_eq!(r.u64s("empty").expect("empty"), Vec::<u64>::new());
        r.section("beta").expect("beta");
        assert_eq!(r.time("at").expect("at"), Time::from_ns(12));
        assert_eq!(r.delta("for").expect("for"), TimeDelta::from_ps(345));
        r.finish().expect("consumed");
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bit_exactly() {
        let mut w = CkptWriter::new("p");
        w.f64("nan", f64::from_bits(0x7ff8_0000_0000_1234));
        w.f64("nz", -0.0);
        let text = w.finish();
        let mut r = CkptReader::open(&text).expect("intact");
        assert_eq!(r.f64("nan").expect("nan").to_bits(), 0x7ff8_0000_0000_1234);
        assert_eq!(r.f64("nz").expect("nz").to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncation_and_corruption_are_structured_errors() {
        let text = demo();
        // Cut anywhere before the checksum line: Truncated.
        let cut = &text[..text.len() / 2];
        assert!(matches!(CkptReader::open(cut), Err(CkptError::Truncated)));
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
        let mut r = CkptReader::open(&text).expect("intact");
        assert!(matches!(
            r.section("beta"),
            Err(CkptError::BadSection { .. })
        ));
        let mut r = CkptReader::open(&text).expect("intact");
        r.section("alpha").expect("alpha");
        assert!(matches!(
            r.u64("wrong_key"),
            Err(CkptError::MissingField { .. })
        ));
        let mut r = CkptReader::open(&text).expect("intact");
        assert!(matches!(r.finish(), Err(CkptError::TrailingData { .. })));
    }

    #[test]
    fn provenance_interlock_fails_closed() {
        let text = demo();
        let r = CkptReader::open(&text).expect("intact");
        let err = r.expect_provenance("cfg=y seed=42").expect_err("mismatch");
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

    #[test]
    fn intern_dedups_and_round_trips() {
        let a = intern("ckpt-test-label-a");
        let b = intern("ckpt-test-label-a");
        assert!(core::ptr::eq(a, b));
        assert_eq!(intern("ckpt-test-label-b"), "ckpt-test-label-b");
    }
}
