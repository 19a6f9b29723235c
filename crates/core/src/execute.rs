//! The unified execution API: typed requests in, self-describing responses
//! out.
//!
//! The paper frames XDA as a *dialogue*: an analyst poses a Why Query,
//! inspects the ranked explanations, narrows the request ("only causal
//! ones", "just the top 3"), and iterates.  The bare
//! `explain(&WhyQuery) -> Vec<Explanation>` signature cannot carry that
//! conversation — every knob lived in fit-time options and every answer was
//! an anonymous list.  This module defines the request/response pair every
//! entry point now routes through:
//!
//! * [`ExplainRequest`] — a [`WhyQuery`] plus **per-request controls**
//!   (`top_k`, a minimum-score threshold, an [`ExplanationType`] allowlist,
//!   a soft wall-clock deadline, and a provenance switch), built fluently
//!   via [`ExplainRequest::builder`];
//! * [`ExplainResponse`] — ranked [`ScoredExplanation`]s with explicit
//!   rank/score, `truncated`/`deadline_hit` markers, elapsed time, and
//!   optional [`Provenance`] explaining *how* the answer was produced
//!   (per-strategy `Δ(·)` evaluation counts, cache attribution).
//!
//! [`XInsight::execute`](crate::pipeline::XInsight::execute) and
//! [`XInsight::execute_batch`](crate::pipeline::XInsight::execute_batch)
//! consume these; [`ExplainResponse::into_explanations`] recovers the bare
//! ranked list a default request produces.

use crate::explanation::{Explanation, ExplanationType};
use crate::why_query::WhyQuery;
use std::time::Duration;
use xinsight_stats::CacheStats;

/// A complete, self-contained explain request: the query plus every
/// per-request control.
///
/// Construct with [`ExplainRequest::new`] for defaults (behaviorally
/// identical to the old `explain` path) or [`ExplainRequest::builder`] for
/// the fluent form:
///
/// ```
/// use std::time::Duration;
/// use xinsight_core::{ExplainRequest, ExplanationType, WhyQuery};
/// use xinsight_data::{Aggregate, Subspace};
///
/// let query = WhyQuery::new(
///     "Delay",
///     Aggregate::Avg,
///     Subspace::of("Airline", "A"),
///     Subspace::of("Airline", "B"),
/// )
/// .unwrap();
/// let request = ExplainRequest::builder(query)
///     .top_k(3)
///     .min_score(0.2)
///     .allow_types([ExplanationType::Causal])
///     .deadline(Duration::from_millis(250))
///     .include_provenance(true)
///     .build();
/// assert_eq!(request.top_k(), Some(3));
/// assert_eq!(request.types(), Some(&[ExplanationType::Causal][..]));
/// assert!(request.include_provenance());
/// // A fresh request carries no controls at all.
/// assert!(ExplainRequest::new(request.query().clone()).has_default_options());
/// assert!(!request.has_default_options());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    query: WhyQuery,
    top_k: Option<usize>,
    min_score: Option<f64>,
    types: Option<Vec<ExplanationType>>,
    deadline: Option<Duration>,
    include_provenance: bool,
}

impl ExplainRequest {
    /// A request with default options: no ranking cut-offs, no type
    /// filter, no deadline, no provenance.
    /// Executing it is byte-identical to the legacy `explain` path.
    pub fn new(query: WhyQuery) -> Self {
        ExplainRequest {
            query,
            top_k: None,
            min_score: None,
            types: None,
            deadline: None,
            include_provenance: false,
        }
    }

    /// Starts a fluent builder over a query.
    pub fn builder(query: WhyQuery) -> ExplainRequestBuilder {
        ExplainRequestBuilder {
            request: ExplainRequest::new(query),
        }
    }

    /// The Why Query being answered.
    pub fn query(&self) -> &WhyQuery {
        &self.query
    }

    /// Keep only the `k` best-ranked explanations (`None` = all).
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// Drop explanations scoring below this responsibility (`None` = keep
    /// all).
    pub fn min_score(&self) -> Option<f64> {
        self.min_score
    }

    /// The [`ExplanationType`] allowlist (`None` = every type).  Always
    /// sorted and deduplicated.
    pub fn types(&self) -> Option<&[ExplanationType]> {
        self.types.as_deref()
    }

    /// Soft wall-clock budget for the search.  Candidate attributes whose
    /// search has not *started* when the budget runs out are skipped; the
    /// response still ranks everything that finished and flags itself with
    /// [`ExplainResponse::deadline_hit`].
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether the response should carry a [`Provenance`] section.
    pub fn include_provenance(&self) -> bool {
        self.include_provenance
    }

    /// `true` when no per-request control is set — including
    /// `include_provenance` — i.e. this request is exactly what
    /// [`ExplainRequest::new`] builds, and executing it reproduces the
    /// legacy `explain` ranking byte-for-byte with no extra response
    /// sections.
    pub fn has_default_options(&self) -> bool {
        self.top_k.is_none()
            && self.min_score.is_none()
            && self.types.is_none()
            && self.deadline.is_none()
            && !self.include_provenance
    }
}

/// Fluent builder for [`ExplainRequest`]; see
/// [`ExplainRequest::builder`] for an example.
#[derive(Debug, Clone)]
pub struct ExplainRequestBuilder {
    request: ExplainRequest,
}

impl ExplainRequestBuilder {
    /// Keep only the `k` best-ranked explanations.
    pub fn top_k(mut self, k: usize) -> Self {
        self.request.top_k = Some(k);
        self
    }

    /// Drop explanations whose responsibility is below `score`.
    pub fn min_score(mut self, score: f64) -> Self {
        self.request.min_score = Some(score);
        self
    }

    /// Restrict the search to the given explanation types.  The allowlist
    /// is applied *before* searching, so excluded types cost nothing.
    pub fn allow_types(mut self, types: impl IntoIterator<Item = ExplanationType>) -> Self {
        let mut types: Vec<ExplanationType> = types.into_iter().collect();
        types.sort();
        types.dedup();
        self.request.types = Some(types);
        self
    }

    /// Give the search a soft wall-clock budget (see
    /// [`ExplainRequest::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.request.deadline = Some(deadline);
        self
    }

    /// Ask for a [`Provenance`] section in the response.
    pub fn include_provenance(mut self, include: bool) -> Self {
        self.request.include_provenance = include;
        self
    }

    /// Finishes the request.
    pub fn build(self) -> ExplainRequest {
        self.request
    }
}

/// One ranked entry of an [`ExplainResponse`]: the explanation plus its
/// explicit position and score, so a client never has to re-derive the
/// ranking from list order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredExplanation {
    /// 1-based rank within the response (after all request filters).
    pub rank: usize,
    /// The ranking score — the explanation's W-Responsibility (causal
    /// explanations always outrank non-causal ones regardless of score).
    pub score: f64,
    /// The explanation itself.
    pub explanation: Explanation,
}

/// How an [`ExplainResponse`] was produced: evaluation counts and cache
/// attribution, for analysts and dashboards that ask "why is this answer
/// ranked/priced the way it is?".
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Fresh `Δ(·)` work per search strategy, e.g. `[("avg-optimized", 4)]`:
    /// the per-segment group-by scans the searches computed (two sides per
    /// segment on a cold cache, zero on a warm one; probes merge those
    /// tables and cost nothing here).  One Why Query engages one strategy
    /// (chosen from its aggregate), so this usually has one entry; counts
    /// cover the searches that returned an explanation (a search that
    /// found no admissible predicate does not report its spend).
    pub strategy_evaluations: Vec<(String, usize)>,
    /// Candidate attributes whose search ran to completion.
    pub attributes_searched: usize,
    /// Candidate attributes skipped because the deadline expired before
    /// their search started.
    pub attributes_skipped: usize,
    /// Snapshot of the [`SelectionCache`](crate::SelectionCache) the
    /// request was answered through, taken after the search: one hit or
    /// miss per side mask and per-segment group-by fetched.  Its hits
    /// include the request's `Δ(D)` replays.  For batch execution the cache
    /// is shared, so this attributes the *cumulative* state, not this
    /// request alone.
    pub selection_cache: CacheStats,
    /// Fit-time CI-test cache counters of the model that answered (zero
    /// for engines restored via
    /// [`XInsight::from_fitted`](crate::pipeline::XInsight::from_fitted)
    /// unless the caller restores them from bundle metadata).
    pub ci_cache_fit_time: CacheStats,
}

/// The self-describing answer to an [`ExplainRequest`].
///
/// ```
/// use std::time::Duration;
/// use xinsight_core::{ExplainResponse, Explanation, ExplanationType, ScoredExplanation};
/// use xinsight_data::Predicate;
///
/// let response = ExplainResponse {
///     explanations: vec![ScoredExplanation {
///         rank: 1,
///         score: 0.8,
///         explanation: Explanation {
///             explanation_type: ExplanationType::Causal,
///             causal_role: None,
///             predicate: Predicate::new("Smoking", ["Yes"]),
///             responsibility: 0.8,
///             contingency: None,
///             original_delta: 1.0,
///             remaining_delta: Some(0.2),
///         },
///     }],
///     truncated: false,
///     deadline_hit: false,
///     elapsed: Duration::from_millis(2),
///     provenance: None,
/// };
/// assert_eq!(response.explanations[0].rank, 1);
/// // The legacy shape is one call away.
/// let flat = response.into_explanations();
/// assert_eq!(flat[0].attribute(), "Smoking");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResponse {
    /// The ranked explanations, best first, after the request's type
    /// allowlist, `min_score` and `top_k` filters.
    pub explanations: Vec<ScoredExplanation>,
    /// `true` when `min_score`/`top_k` dropped explanations that the
    /// search had found.
    pub truncated: bool,
    /// `true` when the deadline expired before every candidate attribute
    /// was searched — the ranked list is then a valid answer over the
    /// attributes that were searched, not necessarily over all of them.
    pub deadline_hit: bool,
    /// Wall-clock time the engine spent answering.
    pub elapsed: Duration,
    /// Present when the request set
    /// [`include_provenance`](ExplainRequest::include_provenance).
    pub provenance: Option<Provenance>,
}

impl ExplainResponse {
    /// Strips ranks and scores, returning the explanations in rank order —
    /// exactly the legacy `explain` return value.
    pub fn into_explanations(self) -> Vec<Explanation> {
        self.explanations
            .into_iter()
            .map(|scored| scored.explanation)
            .collect()
    }

    /// The number of ranked explanations.
    pub fn len(&self) -> usize {
        self.explanations.len()
    }

    /// Whether the response carries no explanations.
    pub fn is_empty(&self) -> bool {
        self.explanations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, Subspace};

    fn query() -> WhyQuery {
        WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap()
    }

    #[test]
    fn builder_sets_every_control_and_normalizes_types() {
        let request = ExplainRequest::builder(query())
            .top_k(5)
            .min_score(0.1)
            .allow_types([
                ExplanationType::NonCausal,
                ExplanationType::Causal,
                ExplanationType::Causal,
            ])
            .deadline(Duration::from_secs(1))
            .include_provenance(true)
            .build();
        assert_eq!(request.top_k(), Some(5));
        assert_eq!(request.min_score(), Some(0.1));
        // Sorted (Causal first) and deduplicated.
        assert_eq!(
            request.types(),
            Some(&[ExplanationType::Causal, ExplanationType::NonCausal][..])
        );
        assert_eq!(request.deadline(), Some(Duration::from_secs(1)));
        assert!(request.include_provenance());
        assert!(!request.has_default_options());
    }

    #[test]
    fn new_request_is_default() {
        let request = ExplainRequest::new(query());
        assert!(request.has_default_options());
        assert_eq!(request.top_k(), None);
        assert_eq!(request.types(), None);
        assert_eq!(request.deadline(), None);
        assert!(!request.include_provenance());
        // The builder with no calls is the same request.
        assert_eq!(ExplainRequest::builder(query()).build(), request);
    }

    #[test]
    fn response_accessors_and_flattening() {
        let response = ExplainResponse {
            explanations: Vec::new(),
            truncated: true,
            deadline_hit: false,
            elapsed: Duration::ZERO,
            provenance: None,
        };
        assert!(response.is_empty());
        assert_eq!(response.len(), 0);
        assert!(response.into_explanations().is_empty());
    }
}
