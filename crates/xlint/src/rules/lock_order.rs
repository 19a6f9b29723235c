//! `lock-order`: lexical lock-hierarchy checking.
//!
//! `xlint.toml` declares lock classes in acquisition order; a lock may
//! only be taken while holding locks of strictly *lower* rank.  The rule:
//!
//! 1. finds acquisition sites — `.lock()` / `.read()` / `.write()` calls
//!    whose final receiver identifier matches a declared class;
//! 2. tracks guard lifetimes lexically: a `let`-bound guard lives until
//!    `drop(name)` or the end of its block, a temporary until the end of
//!    its statement;
//! 3. propagates acquisition sets through the intra-crate call graph
//!    (name-based, to a fixpoint), so `advance()` calling `stage_close()`
//!    inherits the locks `stage_close` may take;
//! 4. flags any acquisition (direct or via call) of rank ≤ a held rank.
//!
//! This is deliberately lexical, not type-resolved — receivers are matched
//! by name, calls by function name (minus `ignore_methods`, ubiquitous
//! std-collection names that would alias in-crate functions).  The
//! imprecision is honest: false positives are suppressed with a pragma
//! carrying a reason, and two self-checks keep the config live — every
//! declared class must match at least one real site, and every `.lock()`
//! in a lock-order crate must be classified (or its receiver listed in
//! `ignore_receivers`).

use crate::config::{Config, LockOrderConfig};
use crate::lexer::TokenKind;
use crate::rules::{next_code, prev_code};
use crate::scan::{is_keyword, FnItem, SourceFile};
use crate::{Finding, Workspace};
use std::collections::{BTreeMap, BTreeSet};

const RULE: &str = "lock-order";

/// Runs the rule over every configured crate prefix.
pub fn check(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    let lo = &config.lock_order;
    if lo.classes.is_empty() {
        return Vec::new();
    }
    let prefixes: Vec<String> = if lo.crates.is_empty() {
        vec![String::new()]
    } else {
        lo.crates.clone()
    };
    let mut findings = Vec::new();
    let mut class_hits = vec![0usize; lo.classes.len()];
    for prefix in &prefixes {
        check_crate(config, workspace, prefix, &mut class_hits, &mut findings);
    }
    for (class, hits) in lo.classes.iter().zip(&class_hits) {
        if *hits == 0 {
            findings.push(Finding {
                rule: RULE.to_owned(),
                file: "xlint.toml".to_owned(),
                line: 1,
                message: format!(
                    "lock class `{}` matches no acquisition site under {:?} — the declared \
                     hierarchy has drifted from the code",
                    class.name, prefixes
                ),
            });
        }
    }
    findings
}

/// One function's extracted facts.
struct FnFacts<'a> {
    file: &'a SourceFile,
    item: &'a FnItem,
    /// Classes this function acquires directly.
    direct: BTreeSet<usize>,
    /// In-crate function names this function calls.
    calls: BTreeSet<String>,
}

fn check_crate(
    config: &Config,
    workspace: &Workspace,
    prefix: &str,
    class_hits: &mut [usize],
    findings: &mut Vec<Finding>,
) {
    let lo = &config.lock_order;
    let files: Vec<&SourceFile> = workspace
        .files
        .iter()
        .filter(|f| {
            let path = f.display_path();
            prefix.is_empty() || path == prefix || path.starts_with(&format!("{prefix}/"))
        })
        .collect();

    // Pass A: extract per-function acquisitions and calls; run the
    // "every .lock() is classified" self-check along the way.
    let mut facts: Vec<FnFacts> = Vec::new();
    for file in &files {
        let path = file.display_path();
        for item in &file.fns {
            if !config.check_tests && file.in_test_span(item.body.start) {
                continue;
            }
            let mut direct = BTreeSet::new();
            let mut calls = BTreeSet::new();
            for idx in item.body.clone() {
                if !owns(file, item, idx) || file.tokens[idx].is_comment() {
                    continue;
                }
                if !config.check_tests && file.in_test_span(idx) {
                    continue;
                }
                let token = &file.tokens[idx];
                if token.kind != TokenKind::Ident || is_keyword(&token.text) {
                    continue;
                }
                let Some(open) = next_code(&file.tokens, idx + 1) else {
                    continue;
                };
                if !file.tokens[open].is_punct('(') {
                    continue;
                }
                let is_method =
                    prev_code(&file.tokens, idx).is_some_and(|p| file.tokens[p].is_punct('.'));
                if is_method {
                    if let Some(class) = classify(lo, file, idx, &path) {
                        class_hits[class] += 1;
                        direct.insert(class);
                        continue;
                    }
                    if token.text == "lock" {
                        let receiver =
                            receiver_of(file, idx).unwrap_or_else(|| "<expr>".to_owned());
                        if !lo.ignore_receivers.iter().any(|r| r == &receiver)
                            && !file.suppressed(RULE, idx)
                        {
                            findings.push(Finding {
                                rule: RULE.to_owned(),
                                file: path.clone(),
                                line: token.line,
                                message: format!(
                                    "unclassified `.lock()` on receiver `{receiver}` — add it \
                                     to a lock class (or ignore_receivers) in xlint.toml"
                                ),
                            });
                        }
                        continue;
                    }
                }
                if !lo.ignore_methods.iter().any(|m| m == &token.text) {
                    calls.insert(token.text.clone());
                }
            }
            facts.push(FnFacts {
                file,
                item,
                direct,
                calls,
            });
        }
    }

    // Crate-level fixpoint: summary(f) = direct(f) ∪ ⋃ summary(callees),
    // merging same-named functions.
    let mut summaries: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let names: BTreeSet<&str> = facts.iter().map(|f| f.item.name.as_str()).collect();
    for f in &facts {
        summaries
            .entry(&f.item.name)
            .or_default()
            .extend(f.direct.iter().copied());
        let resolved = f
            .calls
            .iter()
            .map(String::as_str)
            .filter(|c| names.contains(c));
        callees.entry(&f.item.name).or_default().extend(resolved);
    }
    loop {
        let mut changed = false;
        for (name, called) in &callees {
            let mut inherited = BTreeSet::new();
            for callee in called {
                if let Some(classes) = summaries.get(callee) {
                    inherited.extend(classes.iter().copied());
                }
            }
            let own = summaries.entry(name).or_default();
            let before = own.len();
            own.extend(inherited);
            changed |= own.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Pass B: simulate each function with a lexical guard stack.
    for f in &facts {
        simulate(config, f, &summaries, findings);
    }
}

/// A lock guard held at some point in the simulation.
struct Guard {
    class: usize,
    /// `let`-bound name, if any; temporaries drop at end of statement.
    binding: Option<String>,
    /// Brace depth at the acquisition — the guard dies when its block does.
    depth: i32,
    line: u32,
}

fn simulate(
    config: &Config,
    f: &FnFacts,
    summaries: &BTreeMap<&str, BTreeSet<usize>>,
    findings: &mut Vec<Finding>,
) {
    let lo = &config.lock_order;
    let file = f.file;
    let path = file.display_path();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut reported: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for idx in f.item.body.clone() {
        if !owns(file, f.item, idx) {
            continue;
        }
        let token = &file.tokens[idx];
        if token.is_comment() {
            continue;
        }
        if !config.check_tests && file.in_test_span(idx) {
            continue;
        }
        match token.kind {
            TokenKind::Punct => match token.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                ";" => guards.retain(|g| g.binding.is_some() || g.depth != depth),
                _ => {}
            },
            TokenKind::Ident if !is_keyword(&token.text) => {
                let Some(open) = next_code(&file.tokens, idx + 1) else {
                    continue;
                };
                if !file.tokens[open].is_punct('(') {
                    continue;
                }
                let is_method =
                    prev_code(&file.tokens, idx).is_some_and(|p| file.tokens[p].is_punct('.'));
                if !is_method && token.text == "drop" {
                    // drop(name) releases the named guard.
                    if let Some(arg) = next_code(&file.tokens, open + 1) {
                        if file.tokens[arg].kind == TokenKind::Ident {
                            let name = &file.tokens[arg].text;
                            guards.retain(|g| g.binding.as_deref() != Some(name.as_str()));
                        }
                    }
                    continue;
                }
                if is_method {
                    if let Some(class) = classify(lo, file, idx, &path) {
                        for g in &guards {
                            if lo.classes[class].rank <= lo.classes[g.class].rank
                                && reported.insert((idx, class, g.class))
                                && !file.suppressed(RULE, idx)
                            {
                                findings.push(Finding {
                                    rule: RULE.to_owned(),
                                    file: path.clone(),
                                    line: token.line,
                                    message: format!(
                                        "`{}` (rank {}) acquired while `{}` (rank {}, held \
                                         since line {}) — xlint.toml declares the opposite order",
                                        lo.classes[class].name,
                                        lo.classes[class].rank,
                                        lo.classes[g.class].name,
                                        lo.classes[g.class].rank,
                                        g.line,
                                    ),
                                });
                            }
                        }
                        let binding = binding_of(file, idx).filter(|n| n != "_");
                        guards.push(Guard {
                            class,
                            binding,
                            depth,
                            line: token.line,
                        });
                        continue;
                    }
                }
                if guards.is_empty()
                    || lo.ignore_methods.iter().any(|m| m == &token.text)
                    // A same-named call is usually a different impl's method
                    // (Trace::to_json inside TraceStore::to_json), which
                    // name-based resolution would conflate with recursion.
                    || token.text == f.item.name
                {
                    continue;
                }
                if let Some(acquires) = summaries.get(token.text.as_str()) {
                    for &class in acquires {
                        for g in &guards {
                            if lo.classes[class].rank <= lo.classes[g.class].rank
                                && reported.insert((idx, class, g.class))
                                && !file.suppressed(RULE, idx)
                            {
                                findings.push(Finding {
                                    rule: RULE.to_owned(),
                                    file: path.clone(),
                                    line: token.line,
                                    message: format!(
                                        "call to `{}()` may acquire `{}` (rank {}) while `{}` \
                                         (rank {}, held since line {}) — release the guard \
                                         before the call or fix the hierarchy",
                                        token.text,
                                        lo.classes[class].name,
                                        lo.classes[class].rank,
                                        lo.classes[g.class].name,
                                        lo.classes[g.class].rank,
                                        g.line,
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Whether token `idx` belongs to `item` itself rather than a nested fn.
fn owns(file: &SourceFile, item: &FnItem, idx: usize) -> bool {
    file.fn_containing(idx)
        .is_none_or(|inner| inner.body == item.body)
}

/// The final receiver identifier of the method call at `method_idx`
/// (`self.shared.jobs.lock()` → `jobs`).
fn receiver_of(file: &SourceFile, method_idx: usize) -> Option<String> {
    let dot = prev_code(&file.tokens, method_idx)?;
    if !file.tokens[dot].is_punct('.') {
        return None;
    }
    let recv = prev_code(&file.tokens, dot)?;
    let token = &file.tokens[recv];
    (token.kind == TokenKind::Ident && !is_keyword(&token.text)).then(|| token.text.clone())
}

/// Classifies the method call at `method_idx` against the declared lock
/// classes (method name + final receiver + optional file filter).
fn classify(
    lo: &LockOrderConfig,
    file: &SourceFile,
    method_idx: usize,
    path: &str,
) -> Option<usize> {
    let method = &file.tokens[method_idx].text;
    let receiver = receiver_of(file, method_idx)?;
    lo.classes.iter().position(|c| {
        c.methods.iter().any(|m| m == method)
            && c.receivers.iter().any(|r| r == &receiver)
            && c.file.as_deref().is_none_or(|f| path.ends_with(f))
    })
}

/// Guard-returning adapters: a `.lock().expect(…)` chain still binds the
/// guard; a `.lock().…().len()` chain binds the *result* and the guard is
/// a temporary dropped at the end of the statement.
const PASSTHROUGH: &[&str] = &["expect", "unwrap", "unwrap_or_else"];

/// The `let` binding name of the statement containing `idx`, **if** that
/// binding actually holds the guard: the statement is
/// `let [mut] name [: ty] = <receiver-chain>.lock()[.passthrough()…];`.
/// A lock buried in an argument list (`mem::take(&mut *q.lock()…)`) or
/// followed by a non-passthrough call (`….lock().len()`) is a temporary.
fn binding_of(file: &SourceFile, idx: usize) -> Option<String> {
    let mut boundary = None;
    for i in (0..idx).rev() {
        let t = &file.tokens[i];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            boundary = Some(i);
            break;
        }
    }
    let first = next_code(&file.tokens, boundary.map_or(0, |b| b + 1))?;
    if !file.tokens[first].is_ident("let") {
        return None;
    }
    let mut name_idx = next_code(&file.tokens, first + 1)?;
    if file.tokens[name_idx].is_ident("mut") {
        name_idx = next_code(&file.tokens, name_idx + 1)?;
    }
    let name = &file.tokens[name_idx];
    if name.kind != TokenKind::Ident || is_keyword(&name.text) {
        return None;
    }
    let after = next_code(&file.tokens, name_idx + 1)?;
    if !matches!(file.tokens[after].text.as_str(), "=" | ":") {
        return None;
    }
    if !chain_starts_at_assignment(file, idx) || !trailing_calls_passthrough(file, idx) {
        return None;
    }
    Some(name.text.clone())
}

/// Whether the receiver chain of the lock call at `method_idx` begins
/// directly after an `=` — i.e. the lock's guard is the value being bound,
/// not a sub-expression of something else.
fn chain_starts_at_assignment(file: &SourceFile, method_idx: usize) -> bool {
    let mut i = method_idx;
    loop {
        let Some(p) = prev_code(&file.tokens, i) else {
            return false;
        };
        let t = &file.tokens[p];
        let continues = t.is_punct('.')
            || t.is_punct(':')
            || (t.kind == TokenKind::Ident && !is_keyword(&t.text));
        if continues {
            i = p;
        } else {
            return t.is_punct('=');
        }
    }
}

/// Whether every method call after the lock call (to the end of the
/// statement) merely passes the guard through ([`PASSTHROUGH`]).
fn trailing_calls_passthrough(file: &SourceFile, method_idx: usize) -> bool {
    let mut paren = 0i32;
    let mut brace = 0i32;
    let mut i = method_idx + 1;
    while i < file.tokens.len() {
        let t = &file.tokens[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren = (paren - 1).max(0),
            "{" => brace += 1,
            "}" => brace = (brace - 1).max(0),
            ";" if paren == 0 && brace == 0 => return true,
            _ => {}
        }
        if paren == 0
            && brace == 0
            && t.kind == TokenKind::Ident
            && !PASSTHROUGH.contains(&t.text.as_str())
            && prev_code(&file.tokens, i).is_some_and(|p| file.tokens[p].is_punct('.'))
            && next_code(&file.tokens, i + 1).is_some_and(|n| file.tokens[n].is_punct('('))
        {
            return false;
        }
        i += 1;
    }
    true
}
