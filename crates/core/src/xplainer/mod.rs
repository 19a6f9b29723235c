//! XPlainer (Sec. 3.3): predicate-level quantitative explanations via an
//! adaptation of DB causality.
//!
//! Given a Why Query `Δ` and an attribute of interest `X`, XPlainer searches
//! for the predicate `P` over `X`'s filters that maximises
//! `ρ_P − σ·|P|` (Eqn. 4), where `ρ_P` is the W-Responsibility of `P`
//! (Def. 3.5) and `σ` is the conciseness regulariser.
//!
//! Three search strategies are provided, mirroring Table 4 of the paper:
//!
//! * [`SearchStrategy::BruteForce`] — exact, `O(2^m)`, any aggregate;
//! * the SUM optimization (`O(m log m)`, canonical predicates, Props. 3.2/3.3,
//!   Thms. 3.3/3.4);
//! * the AVG optimization (`O(m²)` greedy, Alg. 2, with the homogeneity
//!   pruning of Prop. 3.4).
//!
//! [`SearchStrategy::Optimized`] picks the appropriate optimization from the
//! query's aggregate and falls back to brute force for aggregates the paper
//! does not optimise (MIN/MAX).

mod avg;
mod brute;
mod cache;
mod context;
mod sum;

pub use cache::SelectionCache;
pub(crate) use context::CompiledQuery;
pub use context::SearchContext;

use crate::why_query::WhyQuery;
use rayon::prelude::*;
use std::sync::Arc;
use xinsight_data::{Aggregate, Predicate, Result, SegmentedDataset};

/// How XPlainer searches for the optimal explanation on one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Exhaustive search over all predicates and contingencies (exact but
    /// exponential; refuses to run above [`MAX_BRUTE_FORCE_FILTERS`]).
    BruteForce,
    /// The paper's aggregate-specific optimizations (SUM: canonical
    /// predicates; AVG: greedy Alg. 2).
    Optimized,
}

/// Upper bound on the number of filters brute force will accept: its cost
/// is `O(3^m)` `Δ(·)` probes.
pub const MAX_BRUTE_FORCE_FILTERS: usize = 14;

/// Options controlling XPlainer.
#[derive(Debug, Clone)]
pub struct XPlainerOptions {
    /// Absolute threshold `ε` below which the remaining difference counts as
    /// "explained away".  When `None`, `ε = epsilon_fraction · Δ(D)`.
    pub epsilon: Option<f64>,
    /// Relative threshold used when [`XPlainerOptions::epsilon`] is `None`.
    pub epsilon_fraction: f64,
    /// Conciseness regulariser `σ`.  When `None`, `σ = 1/m` (the paper's
    /// recommendation, so that selecting every filter scores zero).
    pub sigma: Option<f64>,
    /// Whether the strategies' independent `Δ(·)` probe loops (per-filter
    /// contributions, greedy trials, brute-force predicates) fan out over the
    /// rayon thread pool.  The chosen explanation is identical either way.
    pub parallel: bool,
}

impl Default for XPlainerOptions {
    fn default() -> Self {
        XPlainerOptions {
            epsilon: None,
            epsilon_fraction: 0.1,
            sigma: None,
            parallel: true,
        }
    }
}

/// Admits a brute-force search over `m` filters, or names the cap it
/// exceeds.
fn brute_force_admits(m: usize) -> Result<()> {
    if m > MAX_BRUTE_FORCE_FILTERS {
        return Err(xinsight_data::DataError::InvalidBinning(format!(
            "brute-force search over {m} filters exceeds the cap of {MAX_BRUTE_FORCE_FILTERS}"
        )));
    }
    Ok(())
}

/// Maps `f` over `items` — in parallel over the thread pool when `parallel`
/// is set, serially otherwise — always preserving input order, so callers see
/// identical results on either path.
pub(crate) fn map_items<I, T, F>(parallel: bool, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// The outcome of searching one attribute: the best predicate found, its
/// responsibility and the certifying contingency.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationCandidate {
    /// The explanation predicate `P`.
    pub predicate: Predicate,
    /// (Approximate) W-Responsibility of `P`.
    pub responsibility: f64,
    /// The contingency `Γ` used to certify `P` as an actual cause (empty /
    /// `None` when `P` is itself a counterfactual cause).
    pub contingency: Option<Predicate>,
    /// `Δ(D − D_P)` for reporting (None when a sibling side became empty).
    pub remaining_delta: Option<f64>,
    /// Number of per-segment group-by scans the search computed (see
    /// [`SearchContext::evaluations`]); cache replays and `Δ(·)` probes are
    /// free.  Deterministic for a given cache state, in parallel or not.
    pub n_delta_evaluations: usize,
}

/// The XPlainer module.
#[derive(Debug, Clone, Default)]
pub struct XPlainer {
    options: XPlainerOptions,
}

impl XPlainer {
    /// Creates an XPlainer with the given options.
    pub fn new(options: XPlainerOptions) -> Self {
        XPlainer { options }
    }

    /// The options this explainer was built with.
    pub fn options(&self) -> &XPlainerOptions {
        &self.options
    }

    /// Searches the optimal explanation for `query` within the filters of
    /// `attribute`, over every segment of `store`.
    ///
    /// `homogeneous` states whether the sibling subspaces are homogeneous on
    /// the attribute (Def. 3.7) — the caller derives this from the causal
    /// graph; it only affects the AVG pruning.  Returns `Ok(None)` when the
    /// attribute admits no (counterfactual or actual) cause at the configured
    /// `ε`.  The result is bit-identical for any segmentation of the same
    /// rows (the per-segment group-bys merge exactly).
    pub fn explain_attribute(
        &self,
        store: &SegmentedDataset,
        query: &WhyQuery,
        attribute: &str,
        strategy: SearchStrategy,
        homogeneous: bool,
    ) -> Result<Option<ExplanationCandidate>> {
        self.explain_attribute_cached(
            store,
            query,
            attribute,
            strategy,
            homogeneous,
            Arc::new(SelectionCache::new()),
        )
    }

    /// Like [`XPlainer::explain_attribute`], but answering every `Δ(·)` term
    /// through a shared [`SelectionCache`], so per-segment masks and
    /// group-bys built here are reused by searches over other attributes
    /// (and other queries) holding the same cache.  This is the entry point
    /// the batched [`crate::pipeline::XInsight::execute_batch`] engine uses.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_attribute_cached(
        &self,
        store: &SegmentedDataset,
        query: &WhyQuery,
        attribute: &str,
        strategy: SearchStrategy,
        homogeneous: bool,
        cache: Arc<SelectionCache>,
    ) -> Result<Option<ExplanationCandidate>> {
        let ctx = SearchContext::build_with_cache(store, query, attribute, &self.options, cache)?;
        self.search(&ctx, query, strategy, homogeneous)
    }

    /// [`XPlainer::explain_attribute_cached`] for a query compiled against
    /// `store` and `cache` once per request
    /// ([`crate::pipeline::XInsight::execute_with_cache`] shares one
    /// compilation across every attribute).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn explain_compiled(
        &self,
        store: &SegmentedDataset,
        query: &WhyQuery,
        attribute: &str,
        strategy: SearchStrategy,
        homogeneous: bool,
        cache: &SelectionCache,
        compiled: &CompiledQuery,
    ) -> Result<Option<ExplanationCandidate>> {
        let ctx =
            SearchContext::build_compiled(store, query, attribute, &self.options, cache, compiled)?;
        self.search(&ctx, query, strategy, homogeneous)
    }

    /// Runs `strategy` over a built context.
    fn search(
        &self,
        ctx: &SearchContext<'_>,
        query: &WhyQuery,
        strategy: SearchStrategy,
        homogeneous: bool,
    ) -> Result<Option<ExplanationCandidate>> {
        if ctx.m() == 0 || ctx.delta_d() <= ctx.epsilon() {
            // Either nothing to explain or the difference is already below ε.
            return Ok(None);
        }
        let candidate = match strategy {
            SearchStrategy::BruteForce => {
                brute_force_admits(ctx.m())?;
                brute::search(ctx)
            }
            SearchStrategy::Optimized => match query.aggregate() {
                Aggregate::Sum | Aggregate::Count => sum::search(ctx),
                Aggregate::Avg => avg::search(ctx, homogeneous),
                _ => brute_force_admits(ctx.m())
                    .ok()
                    .and_then(|()| brute::search(ctx)),
            },
        };
        Ok(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{DatasetBuilder, Subspace, Value};

    /// A dataset where `Y ∈ {bad1, bad2}` drives the difference of AVG(Z)
    /// between X = a and X = b (a miniature SYN-B, Sec. 8.12 of the paper).
    fn synb_like() -> (SegmentedDataset, WhyQuery) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        // X = a rows: 40 rows in bad categories with high Z, 60 normal.
        for i in 0..100 {
            x.push("a");
            if i < 20 {
                y.push("bad1");
                z.push(60.0);
            } else if i < 40 {
                y.push("bad2");
                z.push(55.0);
            } else {
                y.push(["ok1", "ok2", "ok3"][i % 3]);
                z.push(10.0);
            }
        }
        // X = b rows: only normal categories.
        for i in 0..100 {
            x.push("b");
            y.push(["ok1", "ok2", "ok3"][i % 3]);
            z.push(10.0);
        }
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y)
            .measure("Z", z)
            .build()
            .unwrap();
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        (SegmentedDataset::from_dataset(data), query)
    }

    #[test]
    fn avg_optimized_finds_the_planted_explanation() {
        let (data, query) = synb_like();
        let xplainer = XPlainer::default();
        let candidate = xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::Optimized, true)
            .unwrap()
            .expect("an explanation must exist");
        assert_eq!(candidate.predicate.attribute(), "Y");
        assert!(candidate.predicate.contains("bad1"));
        assert!(candidate.predicate.contains("bad2"));
        assert!(!candidate.predicate.contains("ok1"));
        assert!(candidate.responsibility > 0.5);
    }

    #[test]
    fn brute_force_agrees_with_optimized_on_small_instances() {
        let (data, query) = synb_like();
        let xplainer = XPlainer::default();
        let brute = xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::BruteForce, true)
            .unwrap()
            .expect("brute force must find an explanation");
        let opt = xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::Optimized, true)
            .unwrap()
            .expect("optimized must find an explanation");
        assert_eq!(brute.predicate.values(), opt.predicate.values());
        // The optimized search must not be more expensive than brute force.
        assert!(opt.n_delta_evaluations <= brute.n_delta_evaluations);
    }

    #[test]
    fn cold_searches_bill_one_scan_per_side_and_segment_in_parallel_or_not() {
        let (data, query) = synb_like();
        let row = vec![Value::from("b"), Value::from("ok1"), Value::from(10.0)];
        let store = data.append_rows(&[row]).unwrap();
        for parallel in [false, true] {
            let xplainer = XPlainer::new(XPlainerOptions {
                parallel,
                ..XPlainerOptions::default()
            });
            let evaluations = [SearchStrategy::Optimized, SearchStrategy::BruteForce].map(|s| {
                let found = xplainer.explain_attribute(&store, &query, "Y", s, true);
                found.unwrap().expect("an explanation").n_delta_evaluations
            });
            // Two sides × two segments, whatever the strategy or schedule.
            assert_eq!(evaluations, [4, 4], "parallel: {parallel}");
        }
    }

    #[test]
    fn sum_optimized_explains_sum_queries() {
        let (data, _) = synb_like();
        let query = WhyQuery::new(
            "Z",
            Aggregate::Sum,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let xplainer = XPlainer::default();
        let candidate = xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::Optimized, true)
            .unwrap()
            .expect("an explanation must exist");
        assert!(candidate.predicate.contains("bad1"));
        assert!(candidate.predicate.contains("bad2"));
        assert!(candidate.responsibility > 0.5);
    }

    #[test]
    fn no_explanation_when_difference_is_below_epsilon() {
        let data = SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension("X", ["a", "a", "b", "b"])
                .dimension("Y", ["u", "v", "u", "v"])
                .measure("Z", [1.0, 1.0, 1.0, 1.0])
                .build()
                .unwrap(),
        );
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let xplainer = XPlainer::default();
        assert!(xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::Optimized, true)
            .unwrap()
            .is_none());
    }

    /// `Y` has one category past the brute-force cap, each on one `X = a`
    /// and one `X = b` row; `a`'s rows are all higher, `Y = v0` most.
    fn over_the_cap(aggregate: Aggregate) -> (SegmentedDataset, WhyQuery) {
        let n = MAX_BRUTE_FORCE_FILTERS + 1;
        let x: Vec<&str> = (0..2 * n).map(|i| if i < n { "a" } else { "b" }).collect();
        let y: Vec<String> = (0..2 * n).map(|i| format!("v{}", i % n)).collect();
        let z: Vec<f64> = (0..2 * n)
            .map(|i| match i {
                0 => 100.0,
                i if i < n => 2.0,
                _ => 1.0,
            })
            .collect();
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y.iter().map(String::as_str))
            .measure("Z", z)
            .build()
            .unwrap();
        let query = WhyQuery::new(
            "Z",
            aggregate,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        (SegmentedDataset::from_dataset(data), query)
    }

    #[test]
    fn brute_force_cap_is_inclusive_and_named_in_the_error() {
        // A full search at the cap costs 3^14 Δ evaluations (tens of
        // seconds unoptimized), so the inclusive bound is checked on the
        // admission guard and the refusal end to end.
        assert!(brute_force_admits(MAX_BRUTE_FORCE_FILTERS).is_ok());
        let (data, query) = over_the_cap(Aggregate::Sum);
        let err = XPlainer::default()
            .explain_attribute(&data, &query, "Y", SearchStrategy::BruteForce, true)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("over 15 filters exceeds the cap of 14"),
            "{err}"
        );
    }

    #[test]
    fn optimized_min_above_the_cap_finds_nothing() {
        let (data, query) = over_the_cap(Aggregate::Min);
        let xplainer = XPlainer::default();
        // Δ(D) = 2 − 1 is above ε, so only the cap stops the search.
        assert_eq!(
            xplainer
                .explain_attribute(&data, &query, "Y", SearchStrategy::BruteForce, true)
                .unwrap_err()
                .to_string(),
            "invalid binning: brute-force search over 15 filters exceeds the cap of 14"
        );
        assert_eq!(
            xplainer
                .explain_attribute(&data, &query, "Y", SearchStrategy::Optimized, true)
                .unwrap(),
            None
        );
    }

    #[test]
    fn brute_force_refuses_high_cardinality() {
        let n = 2000usize;
        let x: Vec<&str> = (0..n).map(|i| if i < 1000 { "a" } else { "b" }).collect();
        let y: Vec<String> = (0..n).map(|i| format!("v{}", i % 20)).collect();
        let z: Vec<f64> = (0..n).map(|i| if i < 1000 { 5.0 } else { 1.0 }).collect();
        let data = SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension("X", x)
                .dimension("Y", y.iter().map(String::as_str))
                .measure("Z", z)
                .build()
                .unwrap(),
        );
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let xplainer = XPlainer::default();
        assert!(xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::BruteForce, true)
            .is_err());
        // The optimized path handles the same cardinality fine.
        assert!(xplainer
            .explain_attribute(&data, &query, "Y", SearchStrategy::Optimized, true)
            .is_ok());
    }
}
