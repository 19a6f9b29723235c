//! Typed configuration loaded from `xlint.toml` — the declarative side of
//! every rule: the lock hierarchy, the hot-path and no-panic scopes, and
//! the endpoint inventory sources.

use crate::toml::{self, TableExt};
use std::collections::BTreeMap;
use std::path::Path;

/// The eight rule names, in the order they run.
pub const ALL_RULES: &[&str] = &[
    "lock-order",
    "no-alloc-hot-path",
    "no-string-fit-path",
    "no-panic-path",
    "relaxed-ordering-justified",
    "unsafe-safety-comment",
    "endpoint-inventory",
    "unreferenced-pub",
];

/// One declared lock class: a hierarchy level plus the receiver patterns
/// that identify its acquisition sites.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// The class name (diagnostics and `xlint.toml` self-check).
    pub name: String,
    /// Hierarchy rank: the declaration order in `xlint.toml`.  A lock may
    /// only be acquired while holding locks of strictly lower rank.
    pub rank: usize,
    /// Final receiver identifiers that mean "this class" (`jobs` matches
    /// `self.shared.jobs.lock()`).
    pub receivers: Vec<String>,
    /// Acquisition method names (`lock`, or `read`/`write` for RwLocks).
    pub methods: Vec<String>,
    /// When set, only sites in files whose path ends with this suffix are
    /// classified — disambiguates receiver names shared across modules
    /// (both the LRU and the trace store call their mutex `state`).
    pub file: Option<String>,
}

/// Configuration for the `lock-order` rule.
#[derive(Debug, Clone, Default)]
pub struct LockOrderConfig {
    /// Directory prefixes (root-relative) whose files form the intra-crate
    /// call graph the rule propagates through.
    pub crates: Vec<String>,
    /// The declared hierarchy, in acquisition order.
    pub classes: Vec<LockClass>,
    /// Method names never resolved through the call graph (ubiquitous
    /// std-collection names like `get`/`insert` that would otherwise alias
    /// same-named in-crate functions).
    pub ignore_methods: Vec<String>,
    /// Receivers exempt from the "every `.lock()` in a lock-order crate
    /// must be classified" self-check (e.g. `stdout`).
    pub ignore_receivers: Vec<String>,
}

/// A file (or file + function subset) a scope-based rule applies to.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Root-relative path suffix of the file.
    pub file: String,
    /// Functions covered; empty means every function in the file.
    pub functions: Vec<String>,
}

impl Scope {
    /// Whether `path` (root-relative, `/`-separated) is this scope's file.
    pub fn matches_file(&self, path: &str) -> bool {
        path == self.file || path.ends_with(&format!("/{}", self.file))
    }

    /// Whether the scope covers function `name` in a matching file.
    pub fn covers_fn(&self, name: &str) -> bool {
        self.functions.is_empty() || self.functions.iter().any(|f| f == name)
    }
}

/// How an endpoint source region names endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointStyle {
    /// String literals / comment tokens that start with `/`.
    Paths,
    /// Counter-label slugs mapped through `[endpoints.slugs]`.
    Slugs,
}

/// One place the endpoint set must be kept in sync.
#[derive(Debug, Clone)]
pub struct EndpointSource {
    /// Root-relative path of the file holding the region.
    pub file: String,
    /// The marker name: the region between `xlint-endpoints: begin(name)`
    /// and `xlint-endpoints: end(name)`.
    pub marker: String,
    /// How endpoints are spelled inside the region.
    pub style: EndpointStyle,
    /// Canonical paths this source is excused from naming (e.g. `/healthz`
    /// is deliberately never counted in `/metrics`).
    pub exempt: Vec<String>,
}

/// Configuration for the `endpoint-inventory` rule.
#[derive(Debug, Clone, Default)]
pub struct EndpointsConfig {
    /// The canonical endpoint path set.
    pub canonical: Vec<String>,
    /// Path → metrics counter slug (several paths may share a slug).
    pub slugs: BTreeMap<String, String>,
    /// Every region to cross-check.
    pub sources: Vec<EndpointSource>,
}

/// The full `xlint.toml` configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Root-relative directories to walk for `.rs` sources.
    pub include: Vec<String>,
    /// Directory names skipped at any depth (`target`, `fixtures`, …).
    pub exclude_dirs: Vec<String>,
    /// Whether rules also run inside `#[cfg(test)]` items.
    pub check_tests: bool,
    /// Enabled rule names (defaults to all eight).
    pub rules: Vec<String>,
    /// `lock-order` configuration.
    pub lock_order: LockOrderConfig,
    /// `no-alloc-hot-path` scopes.
    pub hot_scopes: Vec<Scope>,
    /// `no-string-fit-path` scopes.
    pub string_scopes: Vec<Scope>,
    /// `no-panic-path` scopes.
    pub panic_scopes: Vec<Scope>,
    /// `endpoint-inventory` configuration.
    pub endpoints: EndpointsConfig,
}

/// Call-graph resolution skips these method names by default: they are
/// ubiquitous on std collections, so a same-named in-crate function would
/// alias nearly every call site and drown the rule in false positives.
pub const DEFAULT_IGNORE_METHODS: &[&str] = &[
    // std collections / conversions
    "as_mut",
    "as_ref",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "default",
    "drain",
    "drop",
    "entry",
    "eq",
    "extend",
    "filter",
    "fmt",
    "get",
    "get_mut",
    "insert",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "len",
    "map",
    "new",
    "next",
    "pop",
    "pop_front",
    "push",
    "push_back",
    "remove",
    "retain",
    "sort",
    "sort_by",
    "take",
    "to_owned",
    "to_string",
    "values",
    "with_capacity",
    // atomics and condvars (an atomic `.load()` is not `ModelRegistry::load`)
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
    "wait",
    "wait_timeout",
    "wait_while",
    "notify_one",
    "notify_all",
];

impl Config {
    /// Loads and validates `path`.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a configuration document.
    pub fn parse(text: &str) -> Result<Config, String> {
        let doc = toml::parse(text).map_err(|e| e.to_string())?;

        let files = doc.table_of("files");
        let include = files
            .map(|t| t.strings_of("include"))
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec!["src".to_owned(), "crates".to_owned(), "vendor".to_owned()]);
        let exclude_dirs = files
            .map(|t| t.strings_of("exclude_dirs"))
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| {
                ["target", "tests", "benches", "examples", "fixtures"]
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect()
            });
        let check_tests = files
            .and_then(|t| t.bool_of("check_tests"))
            .unwrap_or(false);

        let rules = doc
            .table_of("rules")
            .map(|t| t.strings_of("enabled"))
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| ALL_RULES.iter().map(|r| (*r).to_owned()).collect());
        for rule in &rules {
            if !ALL_RULES.contains(&rule.as_str()) {
                return Err(format!("unknown rule `{rule}` in [rules] enabled"));
            }
        }

        let mut lock_order = LockOrderConfig::default();
        if let Some(lo) = doc.table_of("lock_order") {
            lock_order.crates = lo.strings_of("crates");
            lock_order.ignore_receivers = lo.strings_of("ignore_receivers");
            lock_order.ignore_methods = lo.strings_of("ignore_methods");
            for (rank, class) in lo.tables_of("class").into_iter().enumerate() {
                let name = class
                    .str_of("name")
                    .ok_or("lock_order class without a name")?
                    .to_owned();
                let receivers = class.strings_of("receivers");
                if receivers.is_empty() {
                    return Err(format!("lock class `{name}` declares no receivers"));
                }
                let mut methods = class.strings_of("methods");
                if methods.is_empty() {
                    methods = vec!["lock".to_owned()];
                }
                lock_order.classes.push(LockClass {
                    name,
                    rank,
                    receivers,
                    methods,
                    file: class.str_of("file").map(str::to_owned),
                });
            }
        }
        if lock_order.ignore_methods.is_empty() {
            lock_order.ignore_methods = DEFAULT_IGNORE_METHODS
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
        }

        let scopes_of = |key: &str| -> Result<Vec<Scope>, String> {
            let mut scopes = Vec::new();
            if let Some(section) = doc.table_of(key) {
                for scope in section.tables_of("scope") {
                    let file = scope
                        .str_of("file")
                        .ok_or_else(|| format!("[{key}] scope without a file"))?
                        .to_owned();
                    scopes.push(Scope {
                        file,
                        functions: scope.strings_of("functions"),
                    });
                }
            }
            Ok(scopes)
        };
        let hot_scopes = scopes_of("no_alloc")?;
        let string_scopes = scopes_of("no_string")?;
        let panic_scopes = scopes_of("no_panic")?;

        let mut endpoints = EndpointsConfig::default();
        if let Some(ep) = doc.table_of("endpoints") {
            endpoints.canonical = ep.strings_of("canonical");
            if let Some(slugs) = ep.table_of("slugs") {
                for (path, value) in slugs {
                    if let toml::Value::Str(slug) = value {
                        endpoints.slugs.insert(path.clone(), slug.clone());
                    }
                }
            }
            for source in ep.tables_of("source") {
                let file = source
                    .str_of("file")
                    .ok_or("endpoint source without a file")?
                    .to_owned();
                let marker = source
                    .str_of("marker")
                    .ok_or("endpoint source without a marker")?
                    .to_owned();
                let style = match source.str_of("style").unwrap_or("paths") {
                    "paths" => EndpointStyle::Paths,
                    "slugs" => EndpointStyle::Slugs,
                    other => return Err(format!("unknown endpoint style `{other}`")),
                };
                endpoints.sources.push(EndpointSource {
                    file,
                    marker,
                    style,
                    exempt: source.strings_of("exempt"),
                });
            }
        }

        Ok(Config {
            include,
            exclude_dirs,
            check_tests,
            rules,
            lock_order,
            hot_scopes,
            string_scopes,
            panic_scopes,
            endpoints,
        })
    }

    /// Whether `rule` is enabled.
    pub fn rule_enabled(&self, rule: &str) -> bool {
        self.rules.iter().any(|r| r == rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_rules_and_skip_tests() {
        let config = Config::parse("").unwrap();
        assert_eq!(config.rules.len(), ALL_RULES.len());
        assert!(!config.check_tests);
        assert!(config.include.contains(&"crates".to_owned()));
        assert!(!config.lock_order.ignore_methods.is_empty());
    }

    #[test]
    fn lock_classes_get_ranks_from_declaration_order() {
        let config = Config::parse(
            r#"
[lock_order]
crates = ["crates/service"]
[[lock_order.class]]
name = "outer"
receivers = ["swap_lock"]
[[lock_order.class]]
name = "inner"
receivers = ["state"]
file = "lru.rs"
methods = ["lock"]
"#,
        )
        .unwrap();
        let classes = &config.lock_order.classes;
        assert_eq!(classes[0].rank, 0);
        assert_eq!(classes[1].rank, 1);
        assert_eq!(classes[1].file.as_deref(), Some("lru.rs"));
    }

    #[test]
    fn unknown_rules_are_rejected() {
        let err = Config::parse("[rules]\nenabled = [\"no-such-rule\"]").unwrap_err();
        assert!(err.contains("no-such-rule"));
    }

    #[test]
    fn endpoint_sources_parse_styles_and_slugs() {
        let config = Config::parse(
            r#"
[endpoints]
canonical = ["/a", "/b"]
[endpoints.slugs]
"/a" = "a"
"/b" = "b_slug"
[[endpoints.source]]
file = "lib.rs"
marker = "docs"
[[endpoints.source]]
file = "metrics.rs"
marker = "counters"
style = "slugs"
exempt = ["/a"]
"#,
        )
        .unwrap();
        assert_eq!(config.endpoints.canonical, ["/a", "/b"]);
        assert_eq!(config.endpoints.slugs["/b"], "b_slug");
        assert_eq!(config.endpoints.sources[1].style, EndpointStyle::Slugs);
        assert_eq!(config.endpoints.sources[1].exempt, ["/a"]);
    }
}
