//! # xlint
//!
//! A workspace-native static-analysis pass that machine-checks the
//! invariants the serving stack depends on — the properties `cargo build`
//! and clippy cannot see, which PRs 5–8 left to prose arguments and
//! reviewer vigilance:
//!
//! | Rule | Invariant |
//! |---|---|
//! | `lock-order` | locks are acquired in the declared hierarchy order (registry swap → models → LRU → trace publish → loop queues), propagated through the intra-crate call graph |
//! | `no-alloc-hot-path` | the event-loop framing path, trace span recording, stats record paths, the discovery inner loops and the CSV codec's per-cell loops stay allocation-free (`format!`, `to_string`, `clone`, `Arc::new`, … are denied) |
//! | `no-string-fit-path` | the causal-discovery fit path (skeleton search, FCI, orientation, sepsets) speaks dense `u32` node ids only — no `String` type, `format!`, or `.to_string()`/`.to_owned()`/`.push_str()` after `DiscoveryView` compile |
//! | `no-panic-path` | no `unwrap`/`expect`/`panic!`/slice-indexing in the event loop or worker dispatch — a panic there kills the loop thread, not one request |
//! | `relaxed-ordering-justified` | every `Ordering::Relaxed` carries an adjacent `// relaxed:` justification |
//! | `unsafe-safety-comment` | every `unsafe` site (including the raw epoll FFI in `vendor/polling`) carries a `// SAFETY:` comment |
//! | `endpoint-inventory` | the route table, trace labels, metrics counter labels, `lib.rs` endpoint table, and README docs all name the same endpoint set |
//! | `unreferenced-pub` | every `pub fn` outside `#[cfg(test)]` is named in some other `.rs` file, a method only after `.` or `::` (tests, examples and the benchmark harness count as callers; vendored shims are skipped) |
//!
//! Everything is dependency-free and hand-rolled in the same offline
//! spirit as `vendor/`: a Rust [`lexer`], a lightweight item scanner
//! ([`scan`]), a TOML-subset config parser ([`toml`]), and eight rules
//! ([`rules`]) driven by `xlint.toml` at the workspace root.
//!
//! Rules are **deny-by-default**; intentional exceptions are written in
//! the source as `// xlint: allow(<rule>, <reason>)` pragmas — the reason
//! is mandatory, a pragma without one is itself a finding, and so is a
//! pragma that suppressed nothing in the run.
//!
//! ```
//! use xlint::{config::Config, run_str};
//!
//! let config = Config::parse(r#"
//! [rules]
//! enabled = ["no-panic-path"]
//! [[no_panic.scope]]
//! file = "hot.rs"
//! "#).unwrap();
//! let findings = run_str(&config, "hot.rs", "fn f(v: &[u8]) -> u8 { v[0] }");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "no-panic-path");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod toml;

use config::Config;
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of [`config::ALL_RULES`], or `pragma` for
    /// malformed suppressions).
    pub rule: String,
    /// Root-relative `/`-separated file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

impl Finding {
    /// The `file:line: [rule] message` diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// The finding as a JSON object (hand-rolled: keys are fixed, values
    /// escaped) for `--format json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape_json(&self.rule),
            escape_json(&self.file),
            self.line,
            escape_json(&self.message)
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a finding list as the `--format json` document.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(Finding::to_json).collect();
    format!(
        "{{\"count\":{},\"findings\":[{}]}}",
        findings.len(),
        items.join(",")
    )
}

/// The lexed + scanned workspace the rules run over.
pub struct Workspace {
    /// The workspace root every path is relative to.
    pub root: PathBuf,
    /// Every scanned `.rs` file, in walk order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `config.include` under `root`, scanning every `.rs` file not
    /// under an excluded directory name.
    pub fn load(root: &Path, config: &Config) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for include in &config.include {
            let dir = root.join(include);
            if dir.is_dir() {
                walk(&dir, root, &config.exclude_dirs, &mut files)?;
            } else if dir.is_file() {
                scan_file(&dir, root, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The scanned file whose root-relative path is, or ends with, `suffix`.
    pub fn file_by_suffix(&self, suffix: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| {
            let path = f.display_path();
            path == suffix || path.ends_with(&format!("/{suffix}"))
        })
    }
}

fn walk(
    dir: &Path,
    root: &Path,
    exclude: &[String],
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if exclude.iter().any(|d| d == name) {
                continue;
            }
            walk(&path, root, exclude, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            scan_file(&path, root, out)?;
        }
    }
    Ok(())
}

fn scan_file(path: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let relative = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    out.push(SourceFile::scan(relative, &text));
    Ok(())
}

/// Runs every enabled rule (plus pragma validation) over the workspace.
/// Findings come back sorted by file, then line.
pub fn run(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    for pragma in workspace.files.iter().flat_map(|f| &f.pragmas) {
        pragma.used.set(false);
    }
    let mut findings = Vec::new();
    findings.extend(rules::pragmas::check(config, workspace));
    if config.rule_enabled("lock-order") {
        findings.extend(rules::lock_order::check(config, workspace));
    }
    if config.rule_enabled("no-alloc-hot-path") {
        findings.extend(rules::scoped::check_no_alloc(config, workspace));
    }
    if config.rule_enabled("no-string-fit-path") {
        findings.extend(rules::scoped::check_no_string(config, workspace));
    }
    if config.rule_enabled("no-panic-path") {
        findings.extend(rules::scoped::check_no_panic(config, workspace));
    }
    if config.rule_enabled("relaxed-ordering-justified") {
        findings.extend(rules::comments::check_relaxed(config, workspace));
    }
    if config.rule_enabled("unsafe-safety-comment") {
        findings.extend(rules::comments::check_unsafe(config, workspace));
    }
    if config.rule_enabled("endpoint-inventory") {
        findings.extend(rules::endpoints::check(config, workspace));
    }
    if config.rule_enabled("unreferenced-pub") {
        findings.extend(rules::unreferenced::check(config, workspace));
    }
    // Last: it reads which pragmas the rules above used.
    findings.extend(rules::pragmas::check_unused(config, workspace));
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings
}

/// Runs the enabled rules over a single in-memory file — the unit-test
/// entry point (the endpoint rule, which needs real files, is skipped
/// unless the workspace on disk backs it).
// xlint: allow(unreferenced-pub, the crate-level doc example is its caller)
pub fn run_str(config: &Config, path: &str, source: &str) -> Vec<Finding> {
    let workspace = Workspace {
        root: PathBuf::from("."),
        files: vec![SourceFile::scan(PathBuf::from(path), source)],
    };
    run(config, &workspace)
}
