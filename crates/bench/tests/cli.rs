//! The `tandem` binary's usage errors and the `figure` subcommand, run as
//! a user runs them.

use std::process::{Command, Output};

fn tandem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tandem"))
        .args(args)
        .output()
        .expect("run the tandem binary")
}

#[test]
fn seq_zero_is_a_usage_error() {
    for model in ["bert", "gpt2"] {
        let out = tandem(&["run", model, "--seq", "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{model}: {stderr}");
        assert!(stderr.contains("usage:"), "{model}: {stderr}");
    }
}

#[test]
fn unknown_figure_lists_the_valid_ids() {
    let out = tandem(&["figure", "nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for id in ["all", "table1", "fig04", "fig14", "fig24b", "fig26"] {
        assert!(stderr.contains(id), "`{id}` missing from: {stderr}");
    }
    assert!(out.stdout.is_empty());
}

#[test]
fn figure_prints_exactly_its_block() {
    let out = tandem(&["figure", "fig14"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 figure text");
    assert!(
        stdout.starts_with("== Figure 14 — speedup over off-chip CPU fallback"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("== ").count(), 1, "{stdout}");
    assert!(stdout.contains("geomean"), "{stdout}");
}
