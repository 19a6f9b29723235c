//! The three scope-based rules: `no-alloc-hot-path`, `no-string-fit-path`
//! and `no-panic-path`.
//!
//! All walk the token stream of files named by `[[no_alloc.scope]]` /
//! `[[no_string.scope]]` / `[[no_panic.scope]]` entries in `xlint.toml`
//! and flag token patterns.  A scope with a `functions` list confines the
//! rule to those functions; without one it covers the whole file.  A scope
//! `file` no scanned file matches, or a listed function no matching file
//! defines, is itself a finding: it would silently cover nothing.

use crate::config::{Config, Scope};
use crate::lexer::TokenKind;
use crate::rules::{next_code, prev_code};
use crate::scan::{is_keyword, SourceFile};
use crate::{Finding, Workspace};

/// `no-alloc-hot-path`: heap-allocation patterns in designated hot modules.
pub fn check_no_alloc(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    scoped_scan(
        config,
        workspace,
        &config.hot_scopes,
        "no-alloc-hot-path",
        alloc_site,
    )
}

/// `no-string-fit-path`: `String` handling in the dense-id discovery core.
/// After `DiscoveryView` compile, the fit path speaks `u32` node ids only —
/// any `String` type, text allocation, or string formatting there means a
/// name leaked past the interning boundary.
pub fn check_no_string(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    scoped_scan(
        config,
        workspace,
        &config.string_scopes,
        "no-string-fit-path",
        string_site,
    )
}

/// `no-panic-path`: panic sources in the event loop and worker dispatch.
pub fn check_no_panic(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    scoped_scan(
        config,
        workspace,
        &config.panic_scopes,
        "no-panic-path",
        panic_site,
    )
}

fn scoped_scan(
    config: &Config,
    workspace: &Workspace,
    scopes: &[Scope],
    rule: &str,
    site: fn(&SourceFile, usize) -> Option<String>,
) -> Vec<Finding> {
    let mut findings = scope_drift(workspace, scopes, rule);
    for file in &workspace.files {
        let path = file.display_path();
        let matching: Vec<&Scope> = scopes.iter().filter(|s| s.matches_file(&path)).collect();
        if matching.is_empty() {
            continue;
        }
        for idx in 0..file.tokens.len() {
            if file.tokens[idx].is_comment() {
                continue;
            }
            if !config.check_tests && file.in_test_span(idx) {
                continue;
            }
            if !covered(file, idx, &matching) {
                continue;
            }
            let Some(message) = site(file, idx) else {
                continue;
            };
            if file.suppressed(rule, idx) {
                continue;
            }
            findings.push(Finding {
                rule: rule.to_owned(),
                file: path.clone(),
                line: file.tokens[idx].line,
                message,
            });
        }
    }
    findings
}

/// Drift between the scopes and the code: a scope `file` that matches no
/// scanned file, and a listed function no matching file defines.
fn scope_drift(workspace: &Workspace, scopes: &[Scope], rule: &str) -> Vec<Finding> {
    let mut drift = Vec::new();
    for scope in scopes {
        let file = &scope.file;
        let files: Vec<&SourceFile> = workspace
            .files
            .iter()
            .filter(|f| scope.matches_file(&f.display_path()))
            .collect();
        let defined = |name: &str| files.iter().any(|f| f.fns.iter().any(|i| i.name == name));
        if files.is_empty() {
            drift.push(format!("scope file `{file}` matches no workspace file"));
        } else {
            for name in scope.functions.iter().filter(|name| !defined(name)) {
                drift.push(format!(
                    "scope function `{name}` is defined in no file matching `{file}`"
                ));
            }
        }
    }
    drift
        .into_iter()
        .map(|message| Finding {
            rule: rule.to_owned(),
            file: "xlint.toml".to_owned(),
            line: 1,
            message: format!("{message} — the scope has drifted from the code"),
        })
        .collect()
}

/// Whether any matching scope covers token `idx`: whole-file scopes always
/// do; function-scoped ones only inside a listed function.
fn covered(file: &SourceFile, idx: usize, matching: &[&Scope]) -> bool {
    matching.iter().any(|scope| {
        if scope.functions.is_empty() {
            true
        } else {
            file.fn_containing(idx)
                .is_some_and(|f| scope.covers_fn(&f.name))
        }
    })
}

/// Allocation patterns: `String::…`, `Vec::…`, `Box::…`, `Arc::new`/`from`,
/// `Rc::new`/`from`, `format!`, `vec!`, `.to_string()`, `.to_owned()`,
/// `.to_vec()`, `.clone()`.
fn alloc_site(file: &SourceFile, idx: usize) -> Option<String> {
    let tokens = &file.tokens;
    let token = &tokens[idx];
    if token.kind != TokenKind::Ident {
        return None;
    }
    let next = next_code(tokens, idx + 1);
    let next_is = |text: &str| {
        next.is_some_and(|n| tokens[n].kind == TokenKind::Punct && tokens[n].text == text)
    };
    let prev_is_dot = prev_code(tokens, idx).is_some_and(|p| tokens[p].is_punct('.'));
    match token.text.as_str() {
        "String" | "Vec" | "Box" if next_is(":") => Some(format!(
            "`{}::` constructor allocates on the hot path",
            token.text
        )),
        // `Arc::clone` only bumps a count; the constructors allocate.
        "Arc" | "Rc" if next_is(":") => {
            let ctor = next
                .and_then(|n| next_code(tokens, n + 1))
                .and_then(|n| next_code(tokens, n + 1))?;
            matches!(tokens[ctor].text.as_str(), "new" | "from").then(|| {
                format!(
                    "`{}::{}` allocates on the hot path",
                    token.text, tokens[ctor].text
                )
            })
        }
        "format" | "vec" if next_is("!") && !prev_is_dot => {
            Some(format!("`{}!` allocates on the hot path", token.text))
        }
        "to_string" | "to_owned" | "to_vec" | "clone" if prev_is_dot && next_is("(") => {
            Some(format!("`.{}()` allocates on the hot path", token.text))
        }
        _ => None,
    }
}

/// String patterns: the `String` type itself (any position — parameter,
/// field, turbofish, constructor), `format!`, and the text-building calls
/// `.to_string()` / `.to_owned()` / `.push_str()`.
fn string_site(file: &SourceFile, idx: usize) -> Option<String> {
    let tokens = &file.tokens;
    let token = &tokens[idx];
    if token.kind != TokenKind::Ident {
        return None;
    }
    let next = next_code(tokens, idx + 1);
    let next_is = |text: &str| {
        next.is_some_and(|n| tokens[n].kind == TokenKind::Punct && tokens[n].text == text)
    };
    let prev_is_dot = prev_code(tokens, idx).is_some_and(|p| tokens[p].is_punct('.'));
    match token.text.as_str() {
        "String" => Some(
            "`String` on the fit path — node identity is a dense `u32` id after \
             `DiscoveryView` compile; intern names at the boundary instead"
                .to_owned(),
        ),
        "format" if next_is("!") && !prev_is_dot => {
            Some("`format!` builds a `String` on the fit path".to_owned())
        }
        "to_string" | "to_owned" | "push_str" if prev_is_dot && next_is("(") => Some(format!(
            "`.{}()` allocates text on the fit path — use dense ids and defer \
             rendering to the report/serve layer",
            token.text
        )),
        _ => None,
    }
}

/// Panic sources: `.unwrap()`, `.expect(…)`, `panic!`/`unreachable!`/
/// `todo!`, and slice/array indexing `x[…]`.
fn panic_site(file: &SourceFile, idx: usize) -> Option<String> {
    let tokens = &file.tokens;
    let token = &tokens[idx];
    let next = next_code(tokens, idx + 1);
    let next_is = |text: &str| {
        next.is_some_and(|n| tokens[n].kind == TokenKind::Punct && tokens[n].text == text)
    };
    if token.kind == TokenKind::Ident {
        let prev_is_dot = prev_code(tokens, idx).is_some_and(|p| tokens[p].is_punct('.'));
        return match token.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is("(") => Some(format!(
                "`.{}()` can panic — this thread must not die; return an error or close the connection",
                token.text
            )),
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is("!") => {
                Some(format!("`{}!` on a no-panic path", token.text))
            }
            _ => None,
        };
    }
    if token.is_punct('[') {
        // Indexing only: the `[` must follow a value (ident, `)` or `]`),
        // not a type position, attribute, or array literal.
        let prev = prev_code(tokens, idx)?;
        let prev_token = &tokens[prev];
        let is_value = match prev_token.kind {
            TokenKind::Ident => !is_keyword(&prev_token.text),
            TokenKind::Punct => matches!(prev_token.text.as_str(), ")" | "]"),
            _ => false,
        };
        if is_value {
            return Some(
                "slice/array indexing can panic — use `.get()`/`.get_mut()` and handle `None`"
                    .to_owned(),
            );
        }
    }
    None
}
