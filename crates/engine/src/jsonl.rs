//! The one JSONL layer of the `flashsim-{telemetry,span,hostprof}-v1`
//! exports: string escaping, and `Walk`, which each format is written
//! and read with. As in a [`crate::ckpt::Ckpt`] walk, a format names each
//! key of each line once, in order; rendering writes the value behind
//! each `&mut`, reading takes it back. The reader is strict and total:
//! exactly the walk's keys in its order, at the depth the walk names,
//! growing nothing by a number read. A `validate` then checks the
//! writer's invariants and renders what it read, which must give the
//! input back byte for byte: that checks every `Walk::derived` value
//! and the canonical form.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::ckpt::intern;

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters) — what every hand-rolled exporter in the
/// workspace writes string values through.
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// What a walk step returns: a description of the first divergence.
pub(crate) type Step<T = ()> = Result<T, String>;

/// The export key of each value of a small vocabulary.
type Name<T> = fn(T) -> &'static str;

/// Reads `text` into `model` through `walk`, runs `check` on the model
/// and what the walk returned, and renders the model through `walk`
/// again, which must give `text` back byte for byte.
pub(crate) fn validate<M, R>(
    text: &str,
    mut model: M,
    walk: impl Fn(&mut M, &mut Walk<'_>) -> Step<R>,
    check: impl FnOnce(&M, R) -> Step,
) -> Step {
    let mut w = Walk {
        text,
        ..Walk::default()
    };
    let read = walk(&mut model, &mut w).and_then(|r| match w.at == text.len() {
        true => Ok(r),
        false => Err("not a line the format has here".to_string()),
    });
    let lines = text.as_bytes()[..w.at].split(|&b| b == b'\n');
    let (line, column) = lines.fold((0, 0), |(n, _), l| (n + 1, l.len() + 1));
    let read = read.map_err(|e| format!("line {line}, column {column}: {e}"))?;
    check(&model, read)?;
    let again = Walk::render(|w| walk(&mut model, w));
    let same = text.split('\n').zip(again.split('\n'));
    match same.take_while(|(a, b)| a == b).count() + 1 {
        _ if again == text => Ok(()),
        n => Err(format!("line {n}: not as the writer renders what it holds")),
    }
}

/// One walk over a JSONL document; see the [module](self) docs.
#[derive(Debug, Default)]
pub(crate) struct Walk<'t> {
    /// Rendering: the document so far. Reading: `None`.
    out: Option<String>,
    /// Reading: the document, and the byte the next read starts at.
    text: &'t str,
    at: usize,
    /// The next key opens its object, so no comma goes before it.
    first: bool,
}

/// A value a walk names: written from `self`, or read back into it.
pub(crate) trait Value {
    fn walk(&mut self, w: &mut Walk<'_>) -> Step;
}

impl<'t> Walk<'t> {
    /// Renders a document through `walk`. Rendering never fails.
    pub(crate) fn render<R>(walk: impl FnOnce(&mut Walk<'t>) -> Step<R>) -> String {
        let mut w = Walk {
            out: Some(String::new()),
            ..Walk::default()
        };
        let _ = walk(&mut w);
        w.out.unwrap_or_default()
    }

    /// True while reading.
    pub(crate) fn reading(&self) -> bool {
        self.out.is_none()
    }

    /// One line: an [`object`](Walk::object) and a newline.
    pub(crate) fn line<R>(&mut self, walk: impl FnOnce(&mut Self) -> Step<R>) -> Step<R> {
        let r = self.object(walk)?;
        self.punct(b'\n')?;
        Ok(r)
    }

    /// A part the writer leaves out unless it is `present` (a bucket
    /// line, a zero value); reading, a part `walk` rejects is taken to be
    /// left out, and what follows is read from where it would start.
    pub(crate) fn maybe(&mut self, present: bool, walk: impl FnOnce(&mut Self) -> Step) -> Step {
        let (at, first) = (self.at, self.first);
        if !self.reading() {
            return if present { walk(self) } else { Ok(()) };
        }
        if walk(self).is_err() {
            (self.at, self.first) = (at, first);
        }
        Ok(())
    }

    /// `n` rows, one walked by `row` per element of `v`, with its index;
    /// reading, `v` grows by one default element per row.
    pub(crate) fn rows<T: Default>(
        &mut self,
        n: u64,
        v: &mut Vec<T>,
        mut row: impl FnMut(&mut Self, u64, &mut T) -> Step,
    ) -> Step {
        for i in 0..n {
            if self.reading() {
                v.push(T::default());
            }
            row(self, i, &mut v[i as usize])?;
        }
        Ok(())
    }

    /// `"key":` and its value.
    pub(crate) fn field(&mut self, key: &str, v: &mut impl Value) -> Step {
        self.key(key)?;
        v.walk(self)
    }

    /// A string that is always `want`: a schema id, a line's tag.
    pub(crate) fn fixed(&mut self, key: &str, want: &'static str) -> Step {
        self.tag(key, &mut { want }, &[want], |s| s)
    }

    /// One of `all`, by its `name`.
    pub(crate) fn tag<T: Copy>(&mut self, key: &str, v: &mut T, all: &[T], name: Name<T>) -> Step {
        let mut found = Cow::Borrowed(name(*v));
        self.field(key, &mut found)?;
        let known = all.iter().find(|&&t| name(t) == found);
        *v = *known.ok_or_else(|| format!("{key}: {found:?} is not a known value"))?;
        Ok(())
    }

    /// A value the writer derives from others: `v` is written; read, the
    /// value found is returned, and rendering it again checks it.
    pub(crate) fn derived(&mut self, key: &str, mut v: u64) -> Step<u64> {
        self.field(key, &mut v)?;
        Ok(v)
    }

    /// `"key":` and an [`object`](Walk::object).
    pub(crate) fn nested(&mut self, key: &str, walk: impl FnOnce(&mut Self) -> Step) -> Step {
        self.key(key)?;
        self.object(walk)
    }

    /// An array of objects under `key`, one walked by `item` per element
    /// of `v`; reading, `v` grows by one clone of `blank` per object.
    pub(crate) fn list<T: Clone>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        blank: &T,
        mut item: impl FnMut(&mut T, &mut Self) -> Step,
    ) -> Step {
        self.key(key)?;
        self.punct(b'[')?;
        let mut i = 0;
        while v.len() > i || self.reading() && self.text.as_bytes().get(self.at) != Some(&b']') {
            if i > 0 {
                self.punct(b',')?;
            }
            if self.reading() {
                v.push(blank.clone());
            }
            self.object(|w| item(&mut v[i], w))?;
            i += 1;
        }
        self.punct(b']')
    }

    /// `"key":`, after a comma unless it opens its object; reading, a
    /// different key is an error that consumes nothing.
    fn key(&mut self, key: &str) -> Step {
        let mut want = String::from(if self.first { "\"" } else { ",\"" });
        push_json_escaped(&mut want, key);
        want.push_str("\":");
        match &mut self.out {
            Some(out) => out.push_str(&want),
            None if self.text[self.at..].starts_with(&want) => self.at += want.len(),
            None => return Err(format!("expected {want}")),
        }
        self.first = false;
        Ok(())
    }

    /// `{`, the keys `walk` names, `}`.
    fn object<R>(&mut self, walk: impl FnOnce(&mut Self) -> Step<R>) -> Step<R> {
        self.punct(b'{')?;
        self.first = true;
        let r = walk(self)?;
        self.first = false;
        self.punct(b'}')?;
        Ok(r)
    }

    /// One byte of structure.
    fn punct(&mut self, b: u8) -> Step {
        match &mut self.out {
            Some(out) => out.push(char::from(b)),
            None if self.text.as_bytes().get(self.at) == Some(&b) => self.at += 1,
            None => return Err(format!("expected {:?}", char::from(b))),
        }
        Ok(())
    }
}

impl Value for u64 {
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        if let Some(out) = &mut w.out {
            let _ = write!(out, "{self}");
            return Ok(());
        }
        let digits = w.text.as_bytes()[w.at..].iter();
        let end = w.at + digits.take_while(|b| b.is_ascii_digit()).count();
        *self = w.text[w.at..end].parse().map_err(|_| "expected a u64")?;
        w.at = end;
        Ok(())
    }
}

impl Value for u32 {
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        let mut n = u64::from(*self);
        n.walk(w)?;
        *self = u32::try_from(n).map_err(|_| format!("{n} is past u32"))?;
        Ok(())
    }
}

/// A value or `null`.
impl<T: Value + Default> Value for Option<T> {
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        match &mut w.out {
            Some(out) if self.is_none() => out.push_str("null"),
            None if w.text[w.at..].starts_with("null") => (w.at, *self) = (w.at + 4, None),
            _ => return self.get_or_insert_with(T::default).walk(w),
        }
        Ok(())
    }
}

impl Value for Cow<'_, str> {
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        if let Some(out) = &mut w.out {
            out.push('"');
            push_json_escaped(out, self);
            out.push('"');
            return Ok(());
        }
        w.punct(b'"')?;
        let (mut s, mut chars) = (String::new(), w.text[w.at..].chars());
        loop {
            s.push(match chars.next().ok_or("unterminated string")? {
                '"' => break,
                '\\' => match chars.next() {
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        c.ok_or("bad \\u escape")?
                    }
                    Some(c @ ('"' | '\\')) => c,
                    _ => return Err("bad escape".to_string()),
                },
                c => c,
            });
        }
        (w.at, *self) = (w.text.len() - chars.as_str().len(), Cow::Owned(s));
        Ok(())
    }
}

/// A span's leg kind or case, re-interned on reading ([`intern`]).
impl Value for &'static str {
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        let mut s = Cow::Borrowed(*self);
        s.walk(w)?;
        if let Cow::Owned(s) = s {
            *self = intern(&s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            push_json_escaped(&mut out, s);
            out
        };
        assert_eq!(escaped(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escaped("back\\slash"), "back\\\\slash");
        assert_eq!(escaped("nl\ntab\t"), "nl\\ntab\\t");
        assert_eq!(escaped("ctl\u{1}"), "ctl\\u0001");
        assert_eq!(escaped("plain"), "plain");
    }

    /// A two-line shape: a header naming how many rows follow, then the
    /// rows, each with an optional parent, a label and two counts the
    /// writer leaves out when zero.
    #[derive(Default, Debug, Clone, PartialEq)]
    struct Row {
        id: u32,
        parent: Option<u32>,
        label: Cow<'static, str>,
        counts: [u64; 2],
    }

    fn walk(rows: &mut Vec<Row>, w: &mut Walk<'_>) -> Step {
        let n = w.line(|w| {
            w.fixed("schema", "demo-v1")?;
            w.derived("rows", rows.len() as u64)
        })?;
        w.rows(n, rows, |w, _, r| {
            w.line(|w| {
                w.field("id", &mut r.id)?;
                w.field("parent", &mut r.parent)?;
                w.field("label", &mut r.label)?;
                w.nested("counts", |w| {
                    let [x, y] = &mut r.counts;
                    w.maybe(*x != 0, |w| w.field("x{n=\"1\"}", x))?;
                    w.maybe(*y != 0, |w| w.field("y", y))
                })
            })
        })
    }

    fn demo() -> Vec<Row> {
        vec![
            Row {
                id: 0,
                parent: None,
                label: "root".into(),
                counts: [0, 3],
            },
            Row {
                id: 1,
                parent: Some(0),
                label: "a \"quoted\"\tleaf".into(),
                counts: [7, 0],
            },
        ]
    }

    /// What `text` reads as, and what validating it says.
    fn parse(text: &str) -> (Vec<Row>, Step) {
        let mut read = Vec::new();
        let verdict = validate(text, Vec::new(), walk, |rows, ()| {
            read.clone_from(rows);
            Ok(())
        });
        (read, verdict)
    }

    #[test]
    fn one_walk_writes_and_reads_the_same_bytes() {
        let text = Walk::render(|w| walk(&mut demo(), w));
        assert_eq!(
            text,
            "{\"schema\":\"demo-v1\",\"rows\":2}\n\
             {\"id\":0,\"parent\":null,\"label\":\"root\",\"counts\":{\"y\":3}}\n\
             {\"id\":1,\"parent\":0,\"label\":\"a \\\"quoted\\\"\\tleaf\",\
             \"counts\":{\"x{n=\\\"1\\\"}\":7}}\n"
        );
        assert_eq!(parse(&text), (demo(), Ok(())));
        let checked = validate(&text, Vec::new(), walk, |rows, ()| match rows.len() {
            2 => Err("checked".to_string()),
            _ => Ok(()),
        });
        assert_eq!(checked, Err("checked".to_string()));
    }

    #[test]
    fn the_reader_takes_exactly_the_walks_keys() {
        let good = Walk::render(|w| walk(&mut demo(), w));
        let damaged = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1)
        };
        for (text, why) in [
            (String::new(), "empty"),
            (damaged("\"rows\":2", "\"rows\":3"), "a row missing"),
            (damaged("\"rows\":2", "\"rows\":1"), "a row extra"),
            (damaged("\"id\":1,", ""), "a key missing"),
            (damaged("\"id\":1,", "\"id\":1,\"id\":1,"), "a key twice"),
            (
                damaged("\"id\":1,\"parent\":0", "\"parent\":0,\"id\":1"),
                "out of order",
            ),
            (damaged("\"id\":1,", "\"id\":1,\"extra\":2,"), "a key extra"),
            (damaged("\"id\":1", "\"id\":-1"), "a sign"),
            (damaged("\"id\":1", "\"id\":1.5"), "a fraction"),
            (damaged("\"id\":1", "\"id\":01"), "a leading zero"),
            (damaged("\"id\":1", "\"id\":4294967296"), "past u32"),
            (
                damaged("\"rows\":2", "\"rows\":18446744073709551616"),
                "past u64",
            ),
            (
                damaged("\"label\":\"root\"", "\"label\":7"),
                "a number for a string",
            ),
            (
                good[..good.find("root").expect("a label") + 2].to_string(),
                "unterminated",
            ),
            (damaged("\\t", "\\q"), "a bad escape"),
            (damaged("\\t", "\\ud800"), "a lone surrogate"),
            (damaged("demo-v1", "demo-v2"), "another schema"),
            (damaged("{\"y\":3}", "{\"y\":3,\"y\":3}"), "an entry twice"),
            (
                damaged("{\"y\":3}", "{\"y\":3,\"x{n=\\\"1\\\"}\":1}"),
                "entries out of order",
            ),
            (
                damaged("{\"y\":3}", "{\"y\":3,\"z\":1}"),
                "an undeclared entry",
            ),
            (
                damaged("{\"y\":3}", "{\"x{n=\\\"1\\\"}\":0,\"y\":3}"),
                "a zero entry",
            ),
            (damaged(":7}}\n", ":7}}x\n"), "text after the brace"),
            (format!("{good}\n"), "a blank line"),
            (good.trim_end().to_string(), "no final newline"),
            (
                damaged("\"counts\":{\"y\":3}", "\"counts\":[3]"),
                "an array for an object",
            ),
        ] {
            assert!(parse(&text).1.is_err(), "{why} was accepted");
        }
        let (read, err) = parse(&damaged("\"id\":1,", ""));
        assert_eq!(read, Vec::new(), "nothing is checked past a reading error");
        let err = err.expect_err("a key missing");
        assert!(
            err.starts_with("line 3, column 2: expected \"id\":"),
            "{err}"
        );
        // Escapes decode; rendering again, not the reader, asks for the
        // writer's own spelling of them.
        let (read, verdict) = parse(&damaged("\\t", "\\u0009"));
        assert_eq!(read, demo());
        assert!(verdict.expect_err("respelled").starts_with("line 3:"));
    }
}
