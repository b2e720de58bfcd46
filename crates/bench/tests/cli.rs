//! The `tandem` binary's usage errors and its `run`, `profile`, `figure`
//! and `asm` subcommands, run as a user runs them.

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

#[test]
fn the_extensions_print_exactly_their_blocks_at_the_end_of_figure_all() {
    let golden = include_str!("../../../tests/golden/figures_all.txt");
    let mut tail = String::new();
    for (id, title, tables) in [
        ("dse", "== DSE Pareto frontier — BERT", 1),
        ("seq", "== BERT-base: sequence-length scaling", 2),
        ("llm", "== LLM preview", 1),
    ] {
        let out = tandem(&["figure", id]);
        assert!(out.status.success(), "{id}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 figure text");
        assert!(stdout.starts_with(title), "{id}: {stdout}");
        assert_eq!(
            stdout.matches("\n== ").count() + 1,
            tables,
            "{id}: {stdout}"
        );
        tail += &stdout;
    }
    assert!(
        golden.ends_with(&tail),
        "figure all does not end with:\n{tail}"
    );
}

#[test]
fn profile_writes_the_trace_and_prints_the_attribution() {
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/r.trace.json");
    let _ = std::fs::remove_file(trace);
    let out = tandem(&["profile", "resnet50", trace]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("critical-path cycle attribution"),
        "{stdout}"
    );
    let written = std::fs::metadata(trace).expect("trace written");
    assert!(written.len() > 0);
}

#[test]
fn unknown_models_are_usage_errors() {
    for args in [["run", "alexnet"], ["profile", "alexnet"]] {
        let out = tandem(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown model `alexnet`"), "{stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn profile_reports_an_unwritable_trace_path() {
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/no_such_dir/r.trace.json");
    let out = tandem(&["profile", "vgg16", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot write {trace}")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn run_and_profile_accept_every_listed_model() {
    let out = tandem(&["models"]);
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).expect("utf-8 model list");
    let names: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(names.len(), 7, "{listing}");
    for name in names {
        let out = tandem(&["run", name]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "run {name}: {stdout}");
        assert!(stdout.contains("latency        :"), "run {name}: {stdout}");

        let trace = format!("{}/{name}.trace.json", env!("CARGO_TARGET_TMPDIR"));
        let out = tandem(&["profile", name, &trace]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "profile {name}: {stdout}");
        assert!(
            stdout.contains("critical-path cycle attribution"),
            "profile {name}: {stdout}"
        );
    }
}

/// The committed example program: a 16-iteration Code Repeater nest.
const VECTOR_ADD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/vector_add.tasm"
);

#[test]
fn asm_runs_the_example_program() {
    let out = tandem(&["asm", VECTOR_ADD]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(stdout.contains("compute cycles : 28"), "{stdout}");
    // The example is verifier-clean: no diagnostic at all.
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn asm_refuses_a_program_the_verifier_rejects() {
    // The example's nest, but the add reads an IMM slot nothing wrote.
    let bad = concat!(env!("CARGO_TARGET_TMPDIR"), "/uninit_imm.tasm");
    std::fs::write(
        bad,
        "iter.base IBUF1[0], 0\niter.stride IBUF1[0], 1\nloop.iter L0, 16\n\
         loop.ninst L0, 1\nadd IBUF1[0], IBUF1[0], IMM[3]\n",
    )
    .expect("write program");
    for args in [["asm", bad, "--trace"], ["asm", "--trace", bad]] {
        let out = tandem(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("0004: error [imm-uninitialized-read]"),
            "{args:?}: {stderr}"
        );
        assert!(!stdout.contains("compute cycles"), "{args:?}: {stdout}");
        assert!(!stdout.contains("Chrome trace"), "{args:?}: {stdout}");
    }
}

#[test]
fn asm_trace_prints_the_nest_as_chrome_trace_json() {
    // The flag may come before or after the path.
    for args in [
        ["asm", VECTOR_ADD, "--trace"],
        ["asm", "--trace", VECTOR_ADD],
    ] {
        let out = tandem(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {stdout}");
        let nest = stdout
            .lines()
            .find(|l| l.contains("\"name\":\"nest\""))
            .unwrap_or_else(|| panic!("no nest event in: {stdout}"));
        assert!(nest.contains("\"iterations\":16"), "{nest}");
    }
}

#[test]
fn asm_reports_a_missing_file_and_a_malformed_line() {
    let missing = concat!(env!("CARGO_TARGET_TMPDIR"), "/no_such_program.tasm");
    let out = tandem(&["asm", missing]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains(missing), "{stderr}");

    let bad = concat!(env!("CARGO_TARGET_TMPDIR"), "/malformed.tasm");
    std::fs::write(bad, "iter.base IBUF1[0], 0\nfrobnicate IBUF1[0]\n").expect("write program");
    let out = tandem(&["asm", bad]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
}
