//! `unreferenced-pub`: every `pub fn` outside `#[cfg(test)]` must be named
//! in some other `.rs` file.
//!
//! A public function that only its own file mentions is either dead or
//! should be private (or test-only).  The match is lexical, by name: a
//! `pub fn load` counts as referenced when any other file — linted, or
//! under one of the `REFERENCE_DIRS` (integration tests, examples,
//! benches, the benchmark harness) — has an identifier `load` outside a
//! comment.  Same-named definitions (`fn load`) do not count.  A method
//! (first parameter `self`) counts only where its name follows `.` or
//! `::`, so a same-named free function or local cannot hide it.  There is
//! no call graph: callers live in test and benchmark crates that an
//! intra-crate graph cannot see, and a name collision can only hide a dead
//! function, never flag a live one.  `pub(crate)` functions and the
//! vendored shims under `vendor/` (which mirror upstream APIs) are out of
//! scope.  A function whose only caller is a doc-test carries an
//! `// xlint: allow(unreferenced-pub, <why>)` pragma.

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::rules::next_code;
use crate::scan::SourceFile;
use crate::{Finding, Workspace};
use std::collections::BTreeMap;

const RULE: &str = "unreferenced-pub";

/// Root-relative directories read for references; a missing one is skipped.
const REFERENCE_DIRS: &[&str] = &["crates", "src", "tests", "examples", "xbench/src"];

/// Directory names never read for references: build output, and the lint
/// fixtures, whose stand-in code calls nothing real.
const REFERENCE_EXCLUDE_DIRS: &[&str] = &["target", "fixtures"];

/// Reports every `pub fn` whose name no other file mentions.
pub fn check(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    // A file both linted and under a reference directory appears twice,
    // which is harmless: its own copies are both skipped below.
    let extra = reference_files(workspace);
    let references: Vec<(String, BTreeMap<&str, bool>)> = workspace
        .files
        .iter()
        .chain(&extra)
        .map(|f| (f.display_path(), referenced_idents(&f.tokens)))
        .collect();

    let mut findings = Vec::new();
    for file in &workspace.files {
        let path = file.display_path();
        if path.starts_with("vendor/") {
            continue;
        }
        for (name_idx, in_test) in pub_fns(file) {
            if in_test && !config.check_tests {
                continue;
            }
            let name = file.tokens[name_idx].text.as_str();
            let method = takes_self(&file.tokens, name_idx);
            let named_elsewhere = references.iter().any(|(p, idents)| {
                *p != path
                    && idents
                        .get(name)
                        .is_some_and(|&qualified| qualified || !method)
            });
            if named_elsewhere || file.suppressed(RULE, name_idx) {
                continue;
            }
            findings.push(Finding {
                rule: RULE.to_owned(),
                file: path.clone(),
                line: file.tokens[name_idx].line,
                message: format!(
                    "`pub fn {name}` is named in no other file — delete it, make it \
                     private, or gate it with `#[cfg(test)]`"
                ),
            });
        }
    }
    findings
}

/// Scans the `REFERENCE_DIRS` (walk errors degrade to "no extra
/// references", which can only add findings, never hide one).
fn reference_files(workspace: &Workspace) -> Vec<SourceFile> {
    let exclude: Vec<String> = REFERENCE_EXCLUDE_DIRS
        .iter()
        .map(|d| (*d).to_owned())
        .collect();
    let mut files = Vec::new();
    for dir in REFERENCE_DIRS {
        let dir = workspace.root.join(dir);
        if dir.is_dir() {
            let _ = crate::walk(&dir, &workspace.root, &exclude, &mut files);
        }
    }
    files
}

/// Every identifier in `tokens` outside comments, except the name a `fn`
/// keyword defines, mapped to whether it ever follows `.` or `::` (the
/// only places a method is named; `..` is a range).
fn referenced_idents(tokens: &[Token]) -> BTreeMap<&str, bool> {
    let mut idents = BTreeMap::new();
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, token) in code.iter().enumerate() {
        let before = |k: usize, c: char| i >= k && code[i - k].is_punct(c);
        if token.kind == TokenKind::Ident && !(i > 0 && code[i - 1].is_ident("fn")) {
            let qualified =
                (before(1, '.') && !before(2, '.')) || (before(1, ':') && before(2, ':'));
            *idents.entry(token.text.as_str()).or_insert(false) |= qualified;
        }
    }
    idents
}

/// Whether the function named at `name_idx` takes `self` first (`&self`,
/// `&'a mut self`, `self: Arc<Self>`, …): the first `(` outside the
/// generics opens the parameters.
fn takes_self(tokens: &[Token], name_idx: usize) -> bool {
    let mut code = (name_idx + 1..tokens.len()).filter(|&i| !tokens[i].is_comment());
    let mut depth = 0i32;
    let opened = code.any(|i| {
        let closes = tokens[i].is_punct('>') && !tokens[i - 1].is_punct('-');
        depth += i32::from(tokens[i].is_punct('<')) - i32::from(closes);
        depth == 0 && tokens[i].is_punct('(')
    });
    let receiver =
        |t: &Token| t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_ident("mut");
    opened
        && code
            .find(|&i| !receiver(&tokens[i]))
            .is_some_and(|i| tokens[i].is_ident("self"))
}

/// `(name token, inside #[cfg(test)])` for every `pub fn` item: `pub`
/// (not `pub(…)`), optional `const`/`async`/`unsafe`/`extern "abi"`
/// qualifiers, `fn`, name.
fn pub_fns(file: &SourceFile) -> Vec<(usize, bool)> {
    let tokens = &file.tokens;
    let qualifier = |t: &Token| {
        ["const", "async", "unsafe", "extern"]
            .iter()
            .any(|q| t.is_ident(q))
            || t.kind == TokenKind::Str
    };
    let mut out = Vec::new();
    for (idx, token) in tokens.iter().enumerate() {
        if !token.is_ident("pub") {
            continue;
        }
        let mut i = next_code(tokens, idx + 1);
        while let Some(j) = i.filter(|&j| qualifier(&tokens[j])) {
            i = next_code(tokens, j + 1);
        }
        let Some(fn_idx) = i.filter(|&j| tokens[j].is_ident("fn")) else {
            continue;
        };
        let Some(name_idx) = next_code(tokens, fn_idx + 1) else {
            continue;
        };
        if tokens[name_idx].kind != TokenKind::Ident {
            continue;
        }
        // The body's `{` lies inside a `#[cfg(test)]` span both for items
        // in a test module and for a `#[cfg(test)]`-annotated function.
        let body = file
            .fns
            .iter()
            .find(|f| f.body.start > name_idx)
            .filter(|f| f.name == tokens[name_idx].text)
            .map_or(name_idx, |f| f.body.start - 1);
        out.push((name_idx, file.in_test_span(body)));
    }
    out
}
