//! Pragma validation: `// xlint: allow(rule, reason)` must name a known
//! rule and carry a non-empty reason.  A pragma that fails either check is
//! reported (and never suppresses anything) — silent escape hatches are
//! exactly what this tool exists to prevent.  So is a well-formed pragma
//! that suppressed no finding in the run: the exception it excused is gone
//! (or never reached the rule), and it would hide the next one.

use crate::config::{Config, ALL_RULES};
use crate::scan::{Pragma, SourceFile};
use crate::{Finding, Workspace};

/// Reports malformed pragmas across the workspace.
pub fn check(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &workspace.files {
        for pragma in checked(config, file) {
            if !ALL_RULES.contains(&pragma.rule.as_str()) {
                findings.push(Finding {
                    rule: "pragma".to_owned(),
                    file: file.display_path(),
                    line: pragma.line,
                    message: format!(
                        "pragma names unknown rule `{}` (known: {})",
                        pragma.rule,
                        ALL_RULES.join(", ")
                    ),
                });
            } else if pragma.reason.is_none() {
                findings.push(Finding {
                    rule: "pragma".to_owned(),
                    file: file.display_path(),
                    line: pragma.line,
                    message: format!(
                        "pragma for `{}` has no reason — write `// xlint: allow({}, <why>)`; \
                         a reasonless pragma suppresses nothing",
                        pragma.rule, pragma.rule
                    ),
                });
            }
        }
    }
    findings
}

/// Reports every well-formed pragma for an enabled rule that suppressed
/// no finding.  Runs after every rule has run.
pub fn check_unused(config: &Config, workspace: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &workspace.files {
        for pragma in checked(config, file) {
            if pragma.reason.is_none() || !config.rule_enabled(&pragma.rule) || pragma.used.get() {
                continue;
            }
            findings.push(Finding {
                rule: "pragma".to_owned(),
                file: file.display_path(),
                line: pragma.line,
                message: format!(
                    "pragma for `{}` suppresses nothing — delete it (no `{}` finding \
                     at this site is left to excuse)",
                    pragma.rule, pragma.rule
                ),
            });
        }
    }
    findings
}

/// The pragmas of `file` the checks look at: a pragma inside a test module
/// suppresses nothing the rules will look at unless `check_tests` is set,
/// so it needs no paperwork.
fn checked<'f>(config: &Config, file: &'f SourceFile) -> impl Iterator<Item = &'f Pragma> + 'f {
    let check_tests = config.check_tests;
    file.pragmas.iter().filter(move |pragma| {
        check_tests
            || !file
                .tokens
                .iter()
                .position(|t| t.is_comment() && t.line == pragma.line)
                .is_some_and(|idx| file.in_test_span(idx))
    })
}
