//! The lightweight item scanner: functions, `#[cfg(test)]` spans,
//! statement boundaries, pragma collection, and marker regions — the
//! structural layer every rule shares.
//!
//! This is deliberately **not** a parser.  It walks the token stream from
//! [`crate::lexer`] with brace/paren depth tracking, which is enough to
//! answer the questions rules ask: *which function does this token belong
//! to*, *where does this statement start*, *is this inside a test module*,
//! *is there a pragma or justification comment adjacent to this site*.

use crate::lexer::{lex, Token, TokenKind};
use std::cell::Cell;
use std::ops::Range;
use std::path::PathBuf;

/// One `fn` item found in a file (nested functions included).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
}

/// An `// xlint: allow(rule, reason)` suppression pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule the pragma suppresses.
    pub rule: String,
    /// The (non-empty) justification; `None` when the pragma is malformed
    /// — which is itself reported as a finding.
    pub reason: Option<String>,
    /// 1-indexed line the pragma comment is on.
    pub line: u32,
    /// Set once the pragma has suppressed a finding in this run; a
    /// well-formed pragma left unset suppresses nothing and is reported.
    pub used: Cell<bool>,
}

/// One lexed + scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Root-relative path (also the path findings report).
    pub path: PathBuf,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<Range<usize>>,
    /// Every suppression pragma in the file.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    /// Lexes and scans `source`, recording it under `path`.
    pub fn scan(path: PathBuf, source: &str) -> SourceFile {
        let tokens = lex(source);
        let fns = collect_fns(&tokens);
        let test_spans = collect_test_spans(&tokens);
        let pragmas = collect_pragmas(&tokens);
        SourceFile {
            path,
            tokens,
            fns,
            test_spans,
            pragmas,
        }
    }

    /// The root-relative path as a display string (always `/`-separated).
    pub fn display_path(&self) -> String {
        let raw = self.path.to_string_lossy();
        if std::path::MAIN_SEPARATOR == '/' {
            raw.into_owned()
        } else {
            raw.replace(std::path::MAIN_SEPARATOR, "/")
        }
    }

    /// Whether token `idx` sits inside a `#[cfg(test)]` item.
    pub fn in_test_span(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|span| span.contains(&idx))
    }

    /// 1-indexed line on which the statement containing token `idx`
    /// starts: the first non-comment token after the previous `;`, `{`,
    /// or `}`.
    fn stmt_start_line(&self, idx: usize) -> u32 {
        let mut boundary = None;
        for (i, token) in self.tokens[..idx].iter().enumerate().rev() {
            if token.kind == TokenKind::Punct && matches!(token.text.as_str(), ";" | "{" | "}") {
                boundary = Some(i);
                break;
            }
        }
        let from = boundary.map_or(0, |b| b + 1);
        self.tokens[from..=idx.min(self.tokens.len().saturating_sub(1))]
            .iter()
            .find(|t| !t.is_comment())
            .map(|t| t.line)
            .unwrap_or_else(|| self.tokens[idx].line)
    }

    /// Whether a finding of `rule` at token `idx` is suppressed by an
    /// `// xlint: allow(rule, reason)` pragma: on the same line, anywhere
    /// within the statement, or on the line directly above the statement.
    /// Every pragma that covers the site is marked [used](Pragma::used), so
    /// rules call this only for a site they would otherwise report.
    pub fn suppressed(&self, rule: &str, idx: usize) -> bool {
        let line = self.tokens[idx].line;
        let start = self.stmt_start_line(idx);
        let mut suppressed = false;
        for p in &self.pragmas {
            if p.rule == rule && p.reason.is_some() && p.line + 1 >= start && p.line <= line {
                p.used.set(true);
                suppressed = true;
            }
        }
        suppressed
    }

    /// Whether a comment containing `marker` sits adjacent to token `idx`:
    /// on the same line, up to three lines above the statement start, or —
    /// when `lines_after > 0` — up to that many lines below (a `SAFETY:`
    /// comment conventionally opens the block it justifies).
    pub fn has_adjacent_comment(&self, idx: usize, marker: &str, lines_after: u32) -> bool {
        let line = self.tokens[idx].line;
        let start = self.stmt_start_line(idx);
        let lo = start.saturating_sub(3);
        let hi = line + lines_after;
        self.tokens
            .iter()
            .any(|t| t.is_comment() && t.line >= lo && t.line <= hi && t.text.contains(marker))
    }

    /// The token-index range between `xlint-endpoints: begin(name)` and
    /// `xlint-endpoints: end(name)` marker comments, if both exist.
    pub fn marker_region(&self, name: &str) -> Option<Range<usize>> {
        let begin_tag = format!("xlint-endpoints: begin({name})");
        let end_tag = format!("xlint-endpoints: end({name})");
        let begin = self
            .tokens
            .iter()
            .position(|t| t.is_comment() && t.text.contains(&begin_tag))?;
        let end = self.tokens[begin..]
            .iter()
            .position(|t| t.is_comment() && t.text.contains(&end_tag))?
            + begin;
        Some(begin + 1..end)
    }

    /// The innermost function whose body contains token `idx`.
    pub fn fn_containing(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&idx))
            .min_by_key(|f| f.body.len())
    }
}

/// Rust keywords that can precede `[` without it being an indexing
/// expression (`let [a, b] = …`, `match x { … }`, `return [..]`, …).
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Whether `text` is a Rust keyword (see [`KEYWORDS`]).
pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

fn next_code(tokens: &[Token], mut i: usize) -> Option<usize> {
    while i < tokens.len() {
        if !tokens[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Finds the `}` matching the `{` at `open` (token indices); returns the
/// index of the closing brace, or the end of input when unbalanced.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, token) in tokens.iter().enumerate().skip(open) {
        if token.is_punct('{') {
            depth += 1;
        } else if token.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

fn collect_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name_idx) = next_code(tokens, i + 1) {
                if tokens[name_idx].kind == TokenKind::Ident {
                    // Scan forward for the body `{` at bracket depth 0; a
                    // `;` first means a bodiless declaration (trait item).
                    let mut j = name_idx + 1;
                    let mut depth = 0i32;
                    let body_open = loop {
                        let Some(token) = tokens.get(j) else {
                            break None;
                        };
                        match token.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => break Some(j),
                            ";" if depth == 0 => break None,
                            _ => {}
                        }
                        j += 1;
                    };
                    if let Some(open) = body_open {
                        let close = matching_brace(tokens, open);
                        fns.push(FnItem {
                            name: tokens[name_idx].text.clone(),
                            line: tokens[i].line,
                            body: open + 1..close,
                        });
                        // Keep scanning *inside* the body too (nested fns).
                        i = open + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// Collects token ranges covered by `#[cfg(test)]`-annotated items (the
/// following braced item, typically `mod tests { … }`).
fn collect_test_spans(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut spans: Vec<Range<usize>> = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if is_cfg_test {
            // The annotated item's body is the next `{` before a `;`.
            let mut j = i + 7;
            while let Some(token) = tokens.get(j) {
                if token.is_punct('{') {
                    let close = matching_brace(tokens, j);
                    spans.push(j..close + 1);
                    break;
                }
                if token.is_punct(';') {
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    spans
}

fn collect_pragmas(tokens: &[Token]) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for token in tokens {
        if !token.is_comment() {
            continue;
        }
        // A pragma must BE the comment, not merely be mentioned by it —
        // doc prose about the pragma syntax is not a suppression.
        let body = token.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("xlint: allow(") {
            continue;
        }
        let rest = &body["xlint: allow(".len()..];
        let (inner, well_formed) = match rest.find(')') {
            Some(close) => (&rest[..close], true),
            None => (rest, false),
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((rule, reason)) if well_formed && !reason.trim().is_empty() => {
                (rule.trim(), Some(reason.trim().to_owned()))
            }
            Some((rule, _)) => (rule.trim(), None),
            None => (inner.trim(), None),
        };
        pragmas.push(Pragma {
            rule: rule.to_owned(),
            reason,
            line: token.line,
            used: Cell::new(false),
        });
    }
    pragmas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        SourceFile::scan(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn functions_are_collected_with_bodies() {
        let f =
            scan("fn outer() { fn inner() {} call(); }\nfn second(x: Vec<u8>) -> bool { true }");
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "second"]);
        let outer = &f.fns[0];
        let call_idx = f.tokens.iter().position(|t| t.is_ident("call")).unwrap();
        assert!(outer.body.contains(&call_idx));
        assert_eq!(f.fn_containing(call_idx).unwrap().name, "outer");
    }

    #[test]
    fn cfg_test_modules_are_spanned() {
        let f = scan("fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}");
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test_span(unwrap_idx));
        let live_idx = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.in_test_span(live_idx));
    }

    #[test]
    fn pragmas_parse_rule_and_reason() {
        let f = scan("// xlint: allow(no-panic-path, slot bounded above)\nx[0];\n// xlint: allow(lock-order)\ny.lock();");
        assert_eq!(f.pragmas.len(), 2);
        assert_eq!(f.pragmas[0].rule, "no-panic-path");
        assert_eq!(f.pragmas[0].reason.as_deref(), Some("slot bounded above"));
        assert!(f.pragmas[1].reason.is_none(), "missing reason is malformed");
    }

    #[test]
    fn suppression_covers_same_line_and_statement() {
        let f = scan("fn f() {\n    // xlint: allow(r, why)\n    a\n        .b();\n    c();\n}");
        let b_idx = f.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        assert!(f.suppressed("r", b_idx), "pragma above multi-line stmt");
        let c_idx = f.tokens.iter().position(|t| t.is_ident("c")).unwrap();
        assert!(!f.suppressed("r", c_idx), "next statement is not covered");
    }

    #[test]
    fn adjacent_comment_windows() {
        let f = scan("fn f() {\n    // relaxed: counter only\n    a.store(1,\n        Ordering::Relaxed);\n}");
        let idx = f.tokens.iter().position(|t| t.is_ident("Relaxed")).unwrap();
        assert!(f.has_adjacent_comment(idx, "relaxed:", 0));
        assert!(!f.has_adjacent_comment(idx, "SAFETY:", 1));
    }

    #[test]
    fn marker_regions_are_token_ranges() {
        let f = scan("// xlint-endpoints: begin(route)\nlet a = \"/x\";\n// xlint-endpoints: end(route)\nlet b = \"/y\";");
        let region = f.marker_region("route").unwrap();
        let strs: Vec<&str> = f.tokens[region]
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["/x"]);
    }
}
