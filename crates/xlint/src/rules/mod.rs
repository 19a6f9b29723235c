//! The eight rules, plus pragma validation.
//!
//! Each rule is a free function `check(config, workspace) -> Vec<Finding>`
//! over the scanned token streams.  Rules share two conventions: sites
//! inside `#[cfg(test)]` items are skipped unless `check_tests` is set,
//! and every site can be suppressed with an adjacent
//! `// xlint: allow(<rule>, <reason>)` pragma.

pub mod comments;
pub mod endpoints;
pub mod lock_order;
pub mod pragmas;
pub mod scoped;
pub mod unreferenced;

use crate::lexer::Token;

/// First non-comment token index at or after `from`.
pub(crate) fn next_code(tokens: &[Token], from: usize) -> Option<usize> {
    (from..tokens.len()).find(|&i| !tokens[i].is_comment())
}

/// Last non-comment token index strictly before `before`.
pub(crate) fn prev_code(tokens: &[Token], before: usize) -> Option<usize> {
    (0..before.min(tokens.len()))
        .rev()
        .find(|&i| !tokens[i].is_comment())
}
