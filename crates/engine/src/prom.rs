//! Shared Prometheus text-exposition formatting.
//!
//! Both the cycle-accounting profiler ([`crate::account::Accounting`])
//! and the sim-time telemetry exporter
//! ([`crate::telemetry::TelemetrySeries`]), surfaced together by
//! `flashsim report --prom`, emit Prometheus text format. The byte-level
//! rules — `name{label="value"} sample\n`, `# TYPE` headers, and the
//! exposition-format label escaping (`\\`, `\"`, `\n`) — live here so
//! there is exactly one authority and the two exporters cannot drift.
//!
//! Everything is `&mut String` appending, matching the hand-rolled
//! (serde-free, fully offline) JSON writers in [`crate::trace`] and
//! [`crate::account`].

/// Appends a `# TYPE <metric> <kind>` header line.
pub fn push_type(out: &mut String, metric: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(metric);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends one sample line: `metric{l1="v1",l2="v2"} value\n`, or
/// `metric value\n` when `labels` is empty. Label values are escaped
/// per the Prometheus text exposition format; metric and label *names*
/// are emitted verbatim (callers use static identifiers).
pub fn push_sample(out: &mut String, metric: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(metric);
    if !labels.is_empty() {
        out.push('{');
        for (i, (name, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(name);
            out.push_str("=\"");
            push_label_escaped(out, val);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Appends a label value with Prometheus text-exposition escaping:
/// backslash, double quote, and newline are escaped; everything else
/// (including UTF-8) passes through verbatim.
pub fn push_label_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_header_shape() {
        let mut out = String::new();
        push_type(&mut out, "flashsim_accounted_ps", "gauge");
        assert_eq!(out, "# TYPE flashsim_accounted_ps gauge\n");
    }

    #[test]
    fn sample_without_labels() {
        let mut out = String::new();
        push_sample(&mut out, "flashsim_total", &[], 42);
        assert_eq!(out, "flashsim_total 42\n");
    }

    #[test]
    fn sample_with_labels_matches_exposition_format() {
        let mut out = String::new();
        push_sample(
            &mut out,
            "flashsim_accounted_ps",
            &[("node", "1"), ("class", "net_transit")],
            40000,
        );
        assert_eq!(
            out,
            "flashsim_accounted_ps{node=\"1\",class=\"net_transit\"} 40000\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        push_label_escaped(&mut out, "a\\b\"c\nd");
        assert_eq!(out, "a\\\\b\\\"c\\nd");

        let mut line = String::new();
        push_sample(&mut line, "m", &[("l", "x\"y")], 1);
        assert_eq!(line, "m{l=\"x\\\"y\"} 1\n");
    }
}
