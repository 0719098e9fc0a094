//! The `epq` binary turns oversized and overly nested queries, and
//! malformed structures, into a one-line `epq: …` error with exit
//! status 1 — not a panic (exit 101) or a stack overflow (exit 134).

use std::process::Command;

/// Runs `epq` with `args`, returning (exit code, stderr).
fn run_epq(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_epq"))
        .args(args)
        .output()
        .expect("spawn the epq binary");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_clean_failure(args: &[&str], needle: &str) {
    let (code, stderr) = run_epq(args);
    assert_eq!(code, Some(1), "{:?}: stderr {stderr}", args[0]);
    assert!(
        stderr.starts_with("epq: "),
        "{:?}: stderr {stderr}",
        args[0]
    );
    assert_eq!(stderr.lines().count(), 1, "{:?}: stderr {stderr}", args[0]);
    assert!(stderr.contains(needle), "{:?}: stderr {stderr}", args[0]);
}

#[test]
fn forty_two_disjuncts_exit_1() {
    let disjuncts: Vec<String> = (0..42).map(|i| format!("R{i}(x,x)")).collect();
    let query = format!("(x) := {}", disjuncts.join(" | "));
    for sub in ["plus", "classify", "star"] {
        assert_clean_failure(&[sub, "--query", &query], "infeasible");
    }
}

#[test]
fn duplicate_disjuncts_exit_1() {
    let query = vec!["E(x,y)"; 31].join(" | ");
    for sub in ["plus", "classify", "star"] {
        assert_clean_failure(&[sub, "--query", &query], "infeasible");
    }
    assert_clean_failure(
        &[
            "count",
            "--query",
            &query,
            "--data-inline",
            "structure { universe 2 E = { (0,1) } }",
        ],
        "infeasible",
    );
}

#[test]
fn ten_thousand_parentheses_exit_1() {
    let query = format!("{}E(x,y){}", "(".repeat(10_000), ")".repeat(10_000));
    for sub in ["classify", "plus", "star"] {
        assert_clean_failure(&[sub, "--query", &query], "nesting too deep");
    }
}

#[test]
fn zero_arity_and_duplicate_relations_exit_1() {
    let dir = std::env::temp_dir().join(format!("epq-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (structure, needle) in [
        ("structure { universe 2 E/0 = { } }", "arity 0"),
        (
            "structure { universe 2 E/2 = { (0,1) } E/2 = { (1,0) } }",
            "duplicate relation E",
        ),
    ] {
        let file = dir.join("structure.txt");
        std::fs::write(&file, structure).unwrap();
        let file = file.to_str().unwrap();
        assert_clean_failure(&["count", "--query", "E(x,y)", "--data", file], needle);
        assert_clean_failure(&["count", "--query", "E(x,y)", "--batch", file], needle);
        assert_clean_failure(
            &["count", "--query", "E(x,y)", "--data-inline", structure],
            needle,
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
