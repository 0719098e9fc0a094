//! The `epq` binary turns oversized and overly nested queries,
//! malformed structures and malformed flags into a one-line `epq: …`
//! error with exit status 1 — not a panic (exit 101), a stack overflow
//! (exit 134) or a silently ignored argument (exit 0).

use std::process::Command;

/// Runs `epq` with `args`, returning (exit code, stdout, stderr).
fn run_epq(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_epq"))
        .args(args)
        .output()
        .expect("spawn the epq binary");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_clean_failure(args: &[&str], needle: &str) {
    let (code, _, stderr) = run_epq(args);
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

/// 31 copies of one disjunct normalize to one, so only `star`, which
/// expands the disjuncts as written, still exits 1.
#[test]
fn duplicate_disjuncts_exit_1() {
    let query = vec!["E(x,y)"; 31].join(" | ");
    for sub in ["plus", "classify"] {
        let (code, _, stderr) = run_epq(&[sub, "--query", &query]);
        assert_eq!(code, Some(0), "{sub}: stderr {stderr}");
    }
    let (code, stdout, stderr) = run_epq(&[
        "count",
        "--query",
        &query,
        "--data-inline",
        "structure { universe 2 E = { (0,1) } }",
    ]);
    assert_eq!((code, stdout.as_str()), (Some(0), "1\n"), "stderr {stderr}");
    assert_clean_failure(&["star", "--query", &query], "infeasible");
}

/// `(A0(x) | B0(x)) & … & (A11(x) | B11(x))` has 4096 pairwise
/// incomparable disjuncts: every route rejects it, without first
/// comparing all of them pairwise.
#[test]
fn wide_dnf_exit_1() {
    let factors: Vec<String> = (0..12).map(|i| format!("(A{i}(x) | B{i}(x))")).collect();
    let query = format!("(x) := {}", factors.join(" & "));
    for sub in ["plus", "classify", "star"] {
        assert_clean_failure(&[sub, "--query", &query], "infeasible");
    }
    let relations: Vec<String> = (0..12)
        .map(|i| format!("A{i}/1 = {{ (0) }} B{i}/1 = {{ }}"))
        .collect();
    let structure = format!("structure {{ universe 1 {} }}", relations.join(" "));
    assert_clean_failure(
        &["count", "--query", &query, "--data-inline", &structure],
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

#[test]
fn valueless_unknown_and_repeated_flags_exit_1() {
    let count = [
        "count",
        "--query",
        "E(x,y)",
        "--data-inline",
        "structure { universe 2 E = { (0,1) } }",
    ];
    for (extra, needle) in [
        (&["--engine"][..], "missing required --engine"),
        (&["--threads"][..], "missing required --threads"),
        (&["--thread", "1"][..], "unknown flag"),
        (&["--query", "F(x,y)"][..], "given more than once"),
    ] {
        assert_clean_failure(&[&count[..], extra].concat(), needle);
    }
}

/// Elements and engine domains are `u32`, so a stream universe past
/// `u32::MAX` is a parse error, as it is in the structure format, on
/// every engine.
#[test]
fn stream_universe_past_u32_exit_1() {
    let dir = std::env::temp_dir().join(format!("epq-cli-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for universe in ["4294967296", "4294967297"] {
        let file = dir.join(format!("u{universe}.stream"));
        std::fs::write(
            &file,
            format!("universe {universe}\nrel E/2\ninsert E 0 0\ncheckpoint\n"),
        )
        .unwrap();
        let file = file.to_str().unwrap();
        for engine in ["fpt", "relalg"] {
            assert_clean_failure(
                &[
                    "count",
                    "--query",
                    "(x,y) := E(x,x)",
                    "--stream",
                    file,
                    "--engine",
                    engine,
                ],
                "universe",
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
