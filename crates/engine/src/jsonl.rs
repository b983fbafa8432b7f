//! Shared JSONL string escaping, line-framing and field-extraction
//! helpers.
//!
//! Three export formats in this workspace are machine-written JSONL with
//! a line-by-line validator behind `flashsim validate`:
//! `flashsim-telemetry-v1` ([`crate::telemetry::validate_jsonl`]),
//! `flashsim-span-v1` ([`crate::span::validate_jsonl`]), and
//! `flashsim-hostprof-v1` ([`crate::hostprof::validate_jsonl`]). Each
//! validator grew its own copy of the same primitive scanners; this
//! module is the single shared implementation. The scanners are
//! deliberately not a JSON parser: every line they see is flat,
//! machine-written by this workspace's own exporters, and the
//! validators' job is to reject structural damage cheaply, not to
//! accept arbitrary JSON.

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

/// Iterates non-empty lines with 1-based line numbers — the framing
/// every JSONL validator in the workspace uses, so "line N" in an error
/// message means the same thing in all of them.
pub fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim().is_empty())
}

/// The unsigned integer value following `"name":` on a JSONL line, if
/// present.
pub fn field_u64(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    leading_u64(rest)
}

/// The string value following `"name":"` on a JSONL line, if present.
/// The value is returned raw (escapes are not decoded), which is exact
/// for the hash/label/kind fields this is used on.
pub fn field_str<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":\"");
    let rest = &line[line.find(&tag)? + tag.len()..];
    rest.split('"').next()
}

/// Parses the leading decimal digits of `s`, if any.
pub fn leading_u64(s: &str) -> Option<u64> {
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Collects every JSON string literal in `text` that directly follows
/// `prefix` (pass `""` to collect all string literals), honouring
/// backslash escapes. Good enough for the flat, machine-written lines
/// the validators see.
pub fn scan_strings_after(text: &str, prefix: &str) -> Vec<String> {
    let needle = format!("{prefix}\"");
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = text[start..].find(&needle) {
        let body_start = start + pos + needle.len();
        let mut s = String::new();
        let mut iter = text[body_start..].char_indices();
        let mut end = None;
        while let Some((j, c)) = iter.next() {
            match c {
                '\\' => {
                    if let Some((_, escaped)) = iter.next() {
                        s.push(escaped);
                    }
                }
                '"' => {
                    end = Some(body_start + j + 1);
                    break;
                }
                _ => s.push(c),
            }
        }
        let Some(e) = end else { break };
        out.push(s);
        start = e;
    }
    out
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

    #[test]
    fn numbered_lines_skip_blanks_and_number_from_one() {
        let text = "a\n\nb\n   \nc";
        let got: Vec<(usize, &str)> = numbered_lines(text).collect();
        assert_eq!(got, vec![(1, "a"), (3, "b"), (5, "c")]);
    }

    #[test]
    fn field_extractors_read_flat_lines() {
        let line = "{\"ev\":\"bucket\",\"seq\":7,\"rate\":12.5,\"neg\":-3.25}";
        assert_eq!(field_u64(line, "seq"), Some(7));
        assert_eq!(field_u64(line, "missing"), None);
        assert_eq!(field_str(line, "ev"), Some("bucket"));
        assert_eq!(leading_u64("123abc"), Some(123));
        assert_eq!(leading_u64("abc"), None);
    }

    #[test]
    fn scan_strings_honours_escapes() {
        let text = "{\"name\":\"a{node=\\\"3\\\"}\",\"name\":\"plain\"}";
        assert_eq!(
            scan_strings_after(text, "\"name\":"),
            vec!["a{node=\"3\"}".to_string(), "plain".to_string()]
        );
    }
}
