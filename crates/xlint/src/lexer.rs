//! A hand-rolled Rust lexer: just enough tokenization for invariant
//! linting, in the same offline spirit as `vendor/` (no `syn`, no
//! `proc-macro2`).
//!
//! The lexer keeps **comments as tokens** — that is the point: three of
//! the eight xlint rules ([`crate::rules`]) are about the relationship
//! between code tokens and adjacent comments (`// SAFETY:`,
//! `// relaxed:`, `// xlint: allow(...)` pragmas).  It understands the
//! parts of the grammar that would otherwise produce false tokens:
//! string/char/byte literals with escapes, raw strings with `#` fences,
//! nested block comments, lifetimes vs. char literals, and numeric
//! literals with suffixes.
//!
//! What it deliberately does **not** do: build an AST, resolve types, or
//! expand macros.  Rules work on token patterns plus the lightweight item
//! scanner in [`crate::scan`]; the imprecision that buys is documented per
//! rule and escapable via pragmas.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `Ordering`, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — kept distinct so quote handling
    /// never bleeds into char literals.
    Lifetime,
    /// A string/char/byte literal; `text` holds the *contents* (quotes and
    /// fences stripped) so rules can match endpoint paths directly.
    Str,
    /// A numeric literal (value never matters to any rule).
    Num,
    /// A single punctuation character (`.`, `:`, `!`, `[`, `{`, …).
    Punct,
    /// A `//` line comment or `///`/`//!` doc comment; `text` holds the
    /// body after the slashes.
    LineComment,
    /// A `/* … */` block comment (nesting handled); `text` holds the body.
    BlockComment,
}

/// One lexeme with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Which kind of lexeme this is.
    pub kind: TokenKind,
    /// The token text (see [`TokenKind`] for what is kept per kind).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is a comment (line or block).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// Whether this token is exactly the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// Lexes `source` into a token stream, comments included.
///
/// The lexer never fails: unterminated constructs simply consume to end of
/// input, which is the right degradation for a linter (the compiler will
/// reject the file anyway; xlint should not panic on it).
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let start_line = self.line;
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(start_line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(start_line),
                b'"' => self.string(start_line),
                b'r' | b'b' => {
                    if !self.raw_or_byte_literal(start_line) {
                        self.ident(start_line);
                    }
                }
                b'\'' => self.char_or_lifetime(start_line),
                b'0'..=b'9' => self.number(start_line),
                b if b.is_ascii_alphabetic() || b == b'_' => self.ident(start_line),
                _ => {
                    self.push(TokenKind::Punct, (b as char).to_string(), start_line);
                    self.pos += 1;
                }
            }
        }
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }

    fn bump_line_counter(&mut self, slice: &[u8]) {
        self.line += slice.iter().filter(|&&b| b == b'\n').count() as u32;
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.bytes.len() && self.bytes[end] != b'\n' {
            end += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
        self.push(TokenKind::LineComment, text, line);
        self.pos = end;
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.pos + 2;
        let mut depth = 1usize;
        let mut i = start;
        while i < self.bytes.len() && depth > 0 {
            if self.bytes[i] == b'/' && self.bytes.get(i + 1) == Some(&b'*') {
                depth += 1;
                i += 2;
            } else if self.bytes[i] == b'*' && self.bytes.get(i + 1) == Some(&b'/') {
                depth -= 1;
                i += 2;
            } else {
                i += 1;
            }
        }
        let end = i.saturating_sub(2).max(start);
        let body = &self.bytes[start..end.min(self.bytes.len())];
        let text = String::from_utf8_lossy(body).into_owned();
        self.bump_line_counter(&self.bytes[self.pos..i.min(self.bytes.len())]);
        self.push(TokenKind::BlockComment, text, line);
        self.pos = i;
    }

    /// `"..."` with escapes (raw strings go through `raw_string`).
    fn string(&mut self, line: u32) {
        let start = self.pos + 1;
        let mut i = start;
        let mut text = String::new();
        while i < self.bytes.len() {
            let b = self.bytes[i];
            if b == b'\\' {
                if let Some(&escaped) = self.bytes.get(i + 1) {
                    text.push(escaped as char);
                }
                i += 2;
                continue;
            }
            if b == b'"' {
                break;
            }
            text.push(b as char);
            i += 1;
        }
        self.bump_line_counter(&self.bytes[self.pos..i.min(self.bytes.len())]);
        self.push(TokenKind::Str, text, line);
        self.pos = (i + 1).min(self.bytes.len());
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`.  Returns false
    /// when the `r`/`b` starts a plain identifier instead.
    fn raw_or_byte_literal(&mut self, line: u32) -> bool {
        let mut i = self.pos;
        let mut saw_r = false;
        if self.bytes[i] == b'b' {
            i += 1;
        }
        if self.bytes.get(i) == Some(&b'r') {
            saw_r = true;
            i += 1;
        }
        let mut fences = 0usize;
        if saw_r {
            while self.bytes.get(i) == Some(&b'#') {
                fences += 1;
                i += 1;
            }
        }
        match self.bytes.get(i) {
            Some(&b'"') => {
                self.pos = i;
                if saw_r {
                    self.raw_string(line, fences);
                } else {
                    self.string(line);
                }
                true
            }
            Some(&b'\'') if !saw_r && self.bytes[self.pos] == b'b' => {
                self.pos = i;
                self.char_or_lifetime(line);
                true
            }
            _ => false,
        }
    }

    fn raw_string(&mut self, line: u32, fences: usize) {
        let start = self.pos + 1;
        let mut i = start;
        while i < self.bytes.len() {
            if self.bytes[i] == b'"' {
                let closes = (1..=fences).all(|k| self.bytes.get(i + k) == Some(&b'#'));
                if closes {
                    break;
                }
            }
            i += 1;
        }
        let text =
            String::from_utf8_lossy(&self.bytes[start..i.min(self.bytes.len())]).into_owned();
        self.bump_line_counter(&self.bytes[self.pos..i.min(self.bytes.len())]);
        self.push(TokenKind::Str, text, line);
        self.pos = (i + 1 + fences).min(self.bytes.len());
    }

    /// Distinguishes `'a` / `'static` (lifetime) from `'x'` / `'"'` /
    /// `'\n'` (char literal): a char literal closes its quote after one
    /// char or one escape; a quote followed by ident chars otherwise is a
    /// lifetime.
    fn char_or_lifetime(&mut self, line: u32) {
        let start = self.pos + 1;
        if let Some(&b'\\') = self.bytes.get(start) {
            // Escaped char literal: '\n', '\'', '\\', '\u{…}'.
            let mut i = start + 1;
            while i < self.bytes.len() && self.bytes[i] != b'\'' {
                i += 1;
            }
            self.push(TokenKind::Str, String::new(), line);
            self.pos = (i + 1).min(self.bytes.len());
            return;
        }
        // One char of any kind, then the closing quote: `'"'`, `'{'`, `'é'`
        // (as stray quotes, these would open a string or unbalance braces).
        let width = self
            .bytes
            .get(start)
            .map_or(1, |b| b.leading_ones().max(1) as usize);
        if self.bytes.get(start + width) == Some(&b'\'') {
            let text = String::from_utf8_lossy(&self.bytes[start..start + width]).into_owned();
            self.push(TokenKind::Str, text, line);
            self.pos = start + width + 1;
            return;
        }
        let mut i = start;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'_')
        {
            i += 1;
        }
        if i > start {
            let text = String::from_utf8_lossy(&self.bytes[start..i]).into_owned();
            self.push(TokenKind::Lifetime, text, line);
            self.pos = i;
        } else {
            // Stray quote (inside a macro?) — emit as punct and move on.
            self.push(TokenKind::Punct, "'".to_owned(), line);
            self.pos = start;
        }
    }

    fn number(&mut self, line: u32) {
        let start = self.pos;
        let mut i = start;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric()
                || self.bytes[i] == b'_'
                || self.bytes[i] == b'.' && self.bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            i += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..i]).into_owned();
        self.push(TokenKind::Num, text, line);
        self.pos = i;
    }

    fn ident(&mut self, line: u32) {
        let start = self.pos;
        let mut i = start;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'_')
        {
            i += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..i]).into_owned();
        self.push(TokenKind::Ident, text, line);
        self.pos = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_survive_as_tokens_with_lines() {
        let toks = lex("let x = 1; // relaxed: counter\n/* SAFETY: ok */ y");
        let comment = toks
            .iter()
            .find(|t| t.kind == TokenKind::LineComment)
            .unwrap();
        assert_eq!(comment.text.trim(), "relaxed: counter");
        assert_eq!(comment.line, 1);
        let block = toks
            .iter()
            .find(|t| t.kind == TokenKind::BlockComment)
            .unwrap();
        assert!(block.text.contains("SAFETY: ok"));
        assert_eq!(block.line, 2);
    }

    #[test]
    fn strings_and_chars_do_not_leak_tokens() {
        let toks = kinds(r#"call("unwrap() // not a comment", '\n', 'x')"#);
        assert!(toks
            .iter()
            .all(|(k, _)| !matches!(k, TokenKind::LineComment)));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("unwrap")));
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds(r###"let s = r#"quote " inside"#; next"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("quote \" inside")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "next"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) {}");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "a"));
        // Punctuation char literals neither open a string nor unbalance the
        // braces, so the function after them is still found.
        let source =
            "fn f(c: char) -> bool { c == '\"' || c == '{' || c == b'}' as char }\nfn g() {}";
        let file = crate::scan::SourceFile::scan("x.rs".into(), source);
        let names: Vec<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let toks = kinds("/* outer /* inner */ still */ after");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "after"));
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::BlockComment)
                .count(),
            1
        );
    }

    #[test]
    fn multiline_tokens_advance_the_line_counter() {
        let toks = lex("/* a\nb\nc */\nident");
        let ident = toks.iter().find(|t| t.is_ident("ident")).unwrap();
        assert_eq!(ident.line, 4);
    }
}
