//! The `flashsim` binary's exit statuses: 2 (through `fail`) for a
//! command line it cannot read, 1 for a validation that found a
//! violation — an unreadable file is a violation, not a panic.

use std::process::Command;

fn flashsim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flashsim"))
        .args(args)
        .output()
        .expect("flashsim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_subcommands_and_formats_list_the_choices_and_exit_2() {
    let (code, _, err) = flashsim(&["profile"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown subcommand profile") && err.contains("report|"));
    let (code, _, err) = flashsim(&["validate", "journal", "x"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("telemetry|span|stream|hostprof|ckpt"), "{err}");
    assert_eq!(flashsim(&[]).0, Some(2));
}

#[test]
fn validate_counts_an_unreadable_file_and_accepts_an_empty_stream() {
    let dir = std::env::temp_dir().join(format!("flashsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = dir.join("empty").to_string_lossy().into_owned();
    std::fs::write(&empty, "").expect("write");
    let missing = dir.join("missing").to_string_lossy().into_owned();

    assert_eq!(flashsim(&["validate", "stream", &empty]).0, Some(0));
    assert_eq!(flashsim(&["validate", "telemetry", &empty]).0, Some(1));
    let (code, out, _) = flashsim(&["validate", "span", &missing]);
    assert_eq!(code, Some(1));
    assert!(out.contains("UNREADABLE"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
