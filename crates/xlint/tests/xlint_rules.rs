//! End-to-end rule tests: the real `xlint` binary driven over the fixture
//! corpus in `tests/fixtures/` — each fixture is a miniature workspace
//! root with its own `xlint.toml` and a `pass/` or `fail/` source tree —
//! plus self-checks that the shipped workspace `xlint.toml` still matches
//! the real code it describes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn xlint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xlint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn xlint")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn assert_pass(name: &str) {
    let out = xlint(&fixture(name), &["--deny"]);
    assert!(
        out.status.success(),
        "fixture `{name}` should be clean under --deny, got findings:\n{}",
        stdout(&out)
    );
}

/// Runs a fail fixture under `--deny` and asserts: non-zero exit, every
/// finding line is `file:line: [rule] message`, and each needle appears.
fn assert_fail(name: &str, rule: &str, needles: &[&str]) -> String {
    let out = xlint(&fixture(name), &["--deny"]);
    assert!(
        !out.status.success(),
        "fixture `{name}` should fail under --deny"
    );
    let text = stdout(&out);
    let diagnosed = text.lines().any(|l| {
        l.contains(&format!("[{rule}]"))
            && l.split(':')
                .nth(1)
                .is_some_and(|n| n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty())
    });
    assert!(
        diagnosed,
        "fixture `{name}` should emit a `file:line: [{rule}]` diagnostic, got:\n{text}"
    );
    for needle in needles {
        assert!(
            text.contains(needle),
            "fixture `{name}` output should mention `{needle}`, got:\n{text}"
        );
    }
    text
}

#[test]
fn lock_order_pass_and_fail() {
    assert_pass("lock_order/pass");
    let text = assert_fail(
        "lock_order/fail",
        "lock-order",
        // The direct inversion in `fill` and the call-graph-propagated one
        // through `publish` are distinct diagnostics.
        &["acquired while", "call to `publish()` may acquire"],
    );
    assert_eq!(text.lines().count(), 2, "expected exactly two findings");
}

#[test]
fn no_alloc_pass_and_fail() {
    assert_pass("no_alloc/pass");
    assert_fail(
        "no_alloc/fail",
        "no-alloc-hot-path",
        &[
            "`Vec::` constructor allocates",
            "`.to_vec()` allocates",
            "`Arc::from` allocates",
            "scope function `retired` is defined in no file matching `src/lib.rs`",
            "scope file `src/gone.rs` matches no workspace file",
        ],
    );
}

#[test]
fn no_string_pass_and_fail() {
    assert_pass("no_string/pass");
    assert_fail(
        "no_string/fail",
        "no-string-fit-path",
        &[
            "`String` on the fit path",
            "`format!` builds a `String`",
            "`.to_owned()` allocates text",
        ],
    );
}

/// The engine's warm `Δ` probe path is a `no_string` scope too: a replay
/// that keys partials by text is reported, its compile step is not.
#[test]
fn no_string_covers_the_probe_path() {
    let text = assert_fail(
        "no_string/probe",
        "no-string-fit-path",
        &[
            "src/cache.rs:15:",
            "`String` on the fit path",
            "`.to_owned()` allocates text",
        ],
    );
    assert!(
        !text.contains("src/cache.rs:22:"),
        "compile is out of scope:\n{text}"
    );
}

#[test]
fn no_panic_pass_and_fail() {
    // The pass fixture includes a pragma-suppressed indexing site — it
    // passing proves reasoned pragmas actually suppress.
    assert_pass("no_panic/pass");
    assert_fail(
        "no_panic/fail",
        "no-panic-path",
        &[
            "slice/array indexing can panic",
            "`.unwrap()` can panic",
            "`panic!` on a no-panic path",
        ],
    );
}

#[test]
fn relaxed_pass_and_fail() {
    assert_pass("relaxed/pass");
    assert_fail(
        "relaxed/fail",
        "relaxed-ordering-justified",
        &["`Ordering::Relaxed` without an adjacent"],
    );
}

#[test]
fn unsafe_comment_pass_and_fail() {
    assert_pass("unsafe_comment/pass");
    assert_fail(
        "unsafe_comment/fail",
        "unsafe-safety-comment",
        &["`unsafe` without an adjacent `// SAFETY:`"],
    );
}

#[test]
fn endpoint_inventory_pass_and_fail() {
    assert_pass("endpoints/pass");
    assert_fail(
        "endpoints/fail",
        "endpoint-inventory",
        &[
            "missing endpoint(s): /metrics",
            "outside the canonical set: /debug/sleep",
            "missing counter slug(s): metrics",
        ],
    );
}

/// The pass fixture's callers sit in a sibling module, an integration test
/// (a method called through a `Type::name` path and one through a
/// turbofish) and (pragma-justified) a doc-test, and its vendored shim is
/// skipped.  The fail fixtures hold dead functions and methods masked by
/// same-named identifiers.
#[test]
fn unreferenced_pub_pass_and_fail() {
    assert_pass("unreferenced_pub/pass");
    let text = assert_fail(
        "unreferenced_pub/fail",
        "unreferenced-pub",
        &[
            "src/lib.rs:8:",
            "`pub fn helper_only_here` is named in no other file",
            "src/lib.rs:12:",
            "`pub fn orphan` is named in no other file",
        ],
    );
    assert_eq!(text.lines().count(), 2, "`live` has a caller:\n{text}");
    // A method counts only where it is used as one: a same-named free
    // function (`fail_method_fn`), local (`fail_method_var`), field read or
    // module path (`fail_method_field`) does not hide it.
    for (name, dead) in [
        ("fn", &["reading"][..]),
        ("var", &["level", "apply"]),
        ("field", &["level", "gauge"]),
    ] {
        let fixture = format!("unreferenced_pub/fail_method_{name}");
        let text = assert_fail(&fixture, "unreferenced-pub", &[]);
        let flagged = |d: &&str| text.contains(&format!("`pub fn {d}` is named in no other"));
        assert!(dead.iter().all(flagged), "{fixture}:\n{text}");
        assert_eq!(text.lines().count(), dead.len(), "{fixture}:\n{text}");
    }
}

#[test]
fn malformed_pragmas_are_findings_and_do_not_suppress() {
    let text = assert_fail(
        "pragma/fail",
        "pragma",
        &["has no reason", "unknown rule `no-such-rule`"],
    );
    // Neither malformed pragma suppressed its indexing site.
    assert_eq!(
        text.matches("slice/array indexing can panic").count(),
        2,
        "both indexing findings should survive the malformed pragmas:\n{text}"
    );
}

#[test]
fn a_pragma_that_suppresses_nothing_is_a_finding() {
    let text = assert_fail(
        "pragma/unused",
        "pragma",
        &[
            "src/lib.rs:11:",
            "pragma for `no-panic-path` suppresses nothing",
        ],
    );
    // The pragma over `payload[0]` did its job; the disabled rule's and the
    // test module's pragmas are not judged.
    assert_eq!(text.lines().count(), 1, "only the stale pragma:\n{text}");
}

#[test]
fn json_format_emits_machine_readable_findings() {
    let out = xlint(&fixture("no_panic/fail"), &["--format", "json"]);
    // Report mode (no --deny): findings are printed but the exit is 0.
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("{\"count\":"), "json document:\n{text}");
    assert!(text.contains("\"rule\":\"no-panic-path\""));
    assert!(text.contains("\"file\":\"src/lib.rs\""));
    assert!(text.contains("\"line\":"));
}

/// The gate verify.sh relies on: the shipped `xlint.toml` over the real
/// workspace, `--deny`, must be clean.
#[test]
fn real_workspace_is_clean_under_deny() {
    let out = xlint(&workspace_root(), &["--deny"]);
    assert!(
        out.status.success(),
        "the real workspace should be xlint-clean:\n{}",
        stdout(&out)
    );
}

/// The shipped lock hierarchy must describe locks that still exist: the
/// rule's built-in self-checks turn drift into findings (a class matching
/// zero sites, or an unclassified `.lock()`), so an empty finding list
/// proves every declared class matched a real acquisition site in
/// `crates/service` and every lock there is classified.
#[test]
fn shipped_lock_hierarchy_matches_real_lock_sites() {
    let root = workspace_root();
    let config = xlint::config::Config::load(&root.join("xlint.toml")).expect("load xlint.toml");
    assert!(
        config.lock_order.classes.len() >= 5,
        "the shipped hierarchy should declare the serving-stack lock classes"
    );
    for expected in ["lru-state", "jobs", "completions"] {
        assert!(
            config.lock_order.classes.iter().any(|c| c.name == expected),
            "expected lock class `{expected}` in xlint.toml"
        );
    }
    let workspace = xlint::Workspace::load(&root, &config).expect("walk workspace");
    let findings = xlint::rules::lock_order::check(&config, &workspace);
    assert!(
        findings.is_empty(),
        "lock-order self-check found drift between xlint.toml and the code:\n{}",
        findings
            .iter()
            .map(xlint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
