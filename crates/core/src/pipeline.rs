//! The end-to-end XInsight engine (Fig. 3 of the paper): an offline phase
//! (XLearner) and an online phase (XTranslator + XPlainer) behind one type.
//!
//! The online phase is driven by one unified execution core,
//! [`XInsight::execute`]: a typed [`ExplainRequest`] (query + per-request
//! controls) in, a self-describing [`ExplainResponse`] (ranked, scored,
//! flagged, optionally provenance-carrying) out.  Single, batch and
//! cache-sharing entry points are thin shells over the same codepath.

use crate::execute::{ExplainRequest, ExplainResponse, Provenance, ScoredExplanation};
use crate::explanation::{Explanation, ExplanationType, XdaSemantics};
use crate::persist::FittedModel;
use crate::why_query::WhyQuery;
use crate::xlearner::{XLearner, XLearnerOptions, XLearnerResult};
use crate::xplainer::{
    CompiledQuery, ExplanationCandidate, SearchStrategy, SelectionCache, XPlainer, XPlainerOptions,
};
use crate::xtranslator::{translate, Translation};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use xinsight_data::{
    discretize_equal_frequency, discretize_equal_width, Aggregate, AttributeKind, DataError,
    Dataset, DatasetBuilder, Discretizer, Result, Schema, SegmentedDataset,
};
use xinsight_graph::{separation, MixedGraph};
use xinsight_stats::{CachedCiTest, ChiSquareTest};

/// The human-readable name of the XPlainer search strategy a query with
/// this aggregate engages (Table 4 of the paper) — reported in
/// [`Provenance::strategy_evaluations`].
fn strategy_name(strategy: SearchStrategy, aggregate: Aggregate) -> &'static str {
    match strategy {
        SearchStrategy::BruteForce => "brute-force",
        SearchStrategy::Optimized => match aggregate {
            Aggregate::Sum | Aggregate::Count => "sum-optimized",
            Aggregate::Avg => "avg-optimized",
            Aggregate::Min | Aggregate::Max => "brute-force-fallback",
        },
    }
}

/// Appends one `<measure>_bin` column per discretizer to the null-free
/// `clean` rows: the augmentation of a fit, a restore and an ingest.  The
/// dataset moves through the fold, so no column is copied.
fn augment(clean: Dataset, discretizers: &[Discretizer]) -> Result<Dataset> {
    discretizers.iter().try_fold(clean, |augmented, disc| {
        let bins = disc.bin_column(&augmented)?;
        augmented.with_dimension(&format!("{}_bin", disc.measure()), bins)
    })
}

/// What happened to one candidate attribute during request execution.
enum SearchOutcome {
    /// The search ran; it may or may not have found an explanation.
    Done(Option<ExplanationCandidate>),
    /// The request's deadline expired before this search started.
    Skipped,
}

/// Options for the full pipeline.
#[derive(Debug, Clone)]
pub struct XInsightOptions {
    /// Options for the offline XLearner phase.
    pub xlearner: XLearnerOptions,
    /// Options for the online XPlainer phase.
    pub xplainer: XPlainerOptions,
    /// Significance level of the chi-square CI test used by XLearner.
    pub ci_alpha: f64,
    /// Number of bins used when a measure has to be discretized (both for
    /// causal discovery and for measure-valued explanations).
    pub measure_bins: usize,
    /// Search strategy handed to XPlainer.
    pub strategy: SearchStrategy,
    /// Master switch for engine parallelism, offline and online.
    ///
    /// Offline: the depth batches of the skeleton search and FCI's
    /// Possible-D-SEP stage fan out over the rayon pool (AND-ed with
    /// [`FciOptions::parallel`](xinsight_discovery::FciOptions) from the
    /// XLearner options).  Online: the per-attribute searches of each
    /// request ([`XInsight::execute`]; [`XInsight::execute_batch`] runs its
    /// requests in order) and the per-filter probe loops inside the
    /// strategies (the latter also honour
    /// [`XPlainerOptions::parallel`](crate::XPlainerOptions) — both must be
    /// `true` for the inner loops to fan out).  Results are identical either
    /// way; disable for serial baselines.  See [`crate::parallel`] for pool
    /// sizing.
    pub parallel: bool,
}

impl Default for XInsightOptions {
    fn default() -> Self {
        XInsightOptions {
            xlearner: XLearnerOptions::default(),
            xplainer: XPlainerOptions::default(),
            ci_alpha: 0.05,
            measure_bins: 4,
            strategy: SearchStrategy::Optimized,
            parallel: true,
        }
    }
}

/// The XInsight engine: fit once on a dataset (offline phase), then answer
/// any number of Why Queries (online phase).
#[derive(Debug)]
pub struct XInsight {
    options: XInsightOptions,
    /// The segmented store the online phase answers against: original data
    /// (nulls dropped) augmented with `<measure>_bin` columns.  One segment
    /// after a fit/restore; one more per [`XInsight::with_ingested`] batch.
    augmented: SegmentedDataset,
    /// The raw (pre-augmentation) schema — what ingested rows must match.
    raw_schema: Schema,
    /// One discretizer per measure that was successfully binned (the
    /// source of its `<measure>_bin` column), kept for persistence.
    discretizers: Vec<Discretizer>,
    /// Result of the offline XLearner phase.
    learner_result: XLearnerResult,
}

impl XInsight {
    /// Runs the offline phase: preprocessing, FD detection and causal-graph
    /// learning.
    ///
    /// When [`XInsightOptions::parallel`] is set, the skeleton search and
    /// FCI's Possible-D-SEP stage evaluate their frozen depth batches on the
    /// rayon pool; the learned graph, sepsets and CI-test count are
    /// identical to a serial fit.
    pub fn fit(data: &Dataset, options: &XInsightOptions) -> Result<Self> {
        let clean = data.drop_null_rows();
        let raw_schema = clean.schema().clone();
        // Discretize each measure (falling back from equal-frequency to
        // equal-width; skipping degenerate measures entirely).
        let discretizers: Vec<Discretizer> = raw_schema
            .measure_names()
            .into_iter()
            .filter_map(|name| {
                discretize_equal_frequency(&clean, name, options.measure_bins)
                    .or_else(|_| discretize_equal_width(&clean, name, options.measure_bins))
                    .ok()
            })
            .collect();
        let augmented = augment(clean, &discretizers)?;
        let mut discovery = DatasetBuilder::new();
        for name in raw_schema.dimension_names() {
            discovery = discovery.dimension_column(name, augmented.dimension(name)?.clone());
        }
        // In the discovery view the binned column carries the measure's own
        // name so that graph nodes and attributes coincide.
        for disc in &discretizers {
            let bins = augmented.dimension(&format!("{}_bin", disc.measure()))?;
            discovery = discovery.dimension_column(disc.measure(), bins.clone());
        }
        let discovery_view = discovery.build()?;

        let variables: Vec<&str> = discovery_view.schema().names();
        // `parallel` is the master switch for the offline phase too: AND-ing
        // with the FCI option means neither flag silently overrides an
        // explicit `false` in the other.
        let mut xlearner_options = options.xlearner.clone();
        xlearner_options.fci.parallel = options.parallel && xlearner_options.fci.parallel;
        let learner = XLearner::new(xlearner_options);
        let test = CachedCiTest::new(ChiSquareTest::new(options.ci_alpha));
        let mut learner_result = learner.learn(&discovery_view, &variables, &test)?;
        // The fit owns its CI cache, so its effectiveness would be invisible
        // once the test is dropped; snapshot the counters into the result so
        // serving processes and benches can report them.
        learner_result.ci_cache_stats = test.stats();

        Ok(XInsight {
            options: options.clone(),
            raw_schema,
            augmented: SegmentedDataset::from_dataset(augmented),
            discretizers,
            learner_result,
        })
    }

    /// Exports the offline phase's output as a persistable [`FittedModel`].
    ///
    /// Together with [`XInsight::from_fitted`] this lets a serving process
    /// fit once, [`FittedModel::save`] the artifact, and later reconstruct
    /// the engine without re-running causal discovery.
    pub fn fitted_model(&self) -> FittedModel {
        FittedModel {
            graph: self.learner_result.graph.clone(),
            fd_graph: self.learner_result.fd_graph.clone(),
            fci_variables: self.learner_result.fci_variables.clone(),
            dropped_redundant: self.learner_result.dropped_redundant.clone(),
            sepsets: self.learner_result.sepsets.clone(),
            n_ci_tests: self.learner_result.n_ci_tests,
            discretizers: self.discretizers.clone(),
        }
    }

    /// Reconstructs an engine from a previously fitted model and the raw
    /// dataset, skipping causal discovery entirely.
    ///
    /// `data` must be schema-compatible with the dataset the model was
    /// fitted on (same dimensions and measures); typically it *is* that
    /// dataset, reloaded by a serving process.  The online options are
    /// supplied fresh, so a server can e.g. change the search strategy or
    /// parallelism without re-fitting.  Given the same data and options,
    /// [`XInsight::execute`] and [`XInsight::execute_batch`] answer
    /// identically to the engine that produced the model.
    pub fn from_fitted(
        data: &Dataset,
        model: FittedModel,
        options: &XInsightOptions,
    ) -> Result<Self> {
        let clean = data.drop_null_rows();
        let raw_schema = clean.schema().clone();
        let augmented = augment(clean, &model.discretizers)?;
        Ok(XInsight {
            options: options.clone(),
            raw_schema,
            augmented: SegmentedDataset::from_dataset(augmented),
            discretizers: model.discretizers,
            learner_result: XLearnerResult {
                graph: model.graph,
                fd_graph: model.fd_graph,
                fci_variables: model.fci_variables,
                dropped_redundant: model.dropped_redundant,
                sepsets: model.sepsets,
                n_ci_tests: model.n_ci_tests,
                ci_cache_stats: xinsight_stats::CacheStats::default(),
            },
        })
    }

    /// The options this engine was built with (ingested and compacted
    /// successors inherit them).
    pub fn options(&self) -> &XInsightOptions {
        &self.options
    }

    /// The learned FD-augmented PAG.
    pub fn graph(&self) -> &MixedGraph {
        &self.learner_result.graph
    }

    /// The full XLearner result (FD graph, CI-test counts, …).
    pub fn learner_result(&self) -> &XLearnerResult {
        &self.learner_result
    }

    /// The segmented store the engine answers queries against (nulls
    /// dropped, `<measure>_bin` companion columns added): one segment after
    /// a fit or restore, plus one per ingested batch.
    pub fn data(&self) -> &SegmentedDataset {
        &self.augmented
    }

    /// The raw (pre-augmentation) schema ingested rows must match: the
    /// original dimensions and measures, without the `<measure>_bin`
    /// companion columns the engine derives itself.
    pub fn raw_schema(&self) -> &Schema {
        &self.raw_schema
    }

    /// Returns a new engine whose store has `batch` appended as one sealed
    /// segment — the streaming-ingest step.  The fitted model (graph,
    /// discretizers, FDs) is shared unchanged: new rows become explainable
    /// through the *existing* model without re-running causal discovery,
    /// exactly like a dashboard refreshing over a growing table.
    ///
    /// `batch` must carry this engine's [raw schema](XInsight::raw_schema)
    /// (same attributes, kinds and order).  Rows with missing values are
    /// dropped (the paper's preprocessing, applied per batch — the result
    /// equals having fitted-restored over the concatenated data); a batch
    /// that is empty after cleaning is rejected.  The engine is cheap to
    /// produce: existing segments and the learned artifacts are shared, so
    /// a serving layer can atomically swap engines per ingest.
    pub fn with_ingested(&self, batch: &Dataset) -> Result<XInsight> {
        if *batch.schema() != self.raw_schema {
            return Err(DataError::DatasetMismatch(format!(
                "ingested rows must match the model's raw schema [{}]",
                self.raw_schema.names().join(", ")
            )));
        }
        let clean = batch.drop_null_rows();
        if clean.n_rows() == 0 {
            return Err(DataError::Serve(
                "ingest batch has no complete rows after dropping missing values".into(),
            ));
        }
        let augmented = augment(clean, &self.discretizers)?;
        Ok(self.with_store(self.augmented.seal(&augmented)?))
    }

    /// Returns a new engine whose store has every sealed segment rewritten
    /// into **one** merged segment — the background-compaction step.
    ///
    /// A pure rewrite of immutable data through
    /// [`SegmentedDataset::compact`]: same rows in the same order, same
    /// global dictionary codes, same lineage, fresh segment id — so every
    /// explanation over the compacted engine is byte-identical to the
    /// segmented one, while scans stop paying the per-segment overhead
    /// that unbatched streaming ingest accumulates.  The fitted model
    /// (graph, discretizers, FDs) is shared unchanged, exactly like
    /// [`XInsight::with_ingested`]; an engine whose store is already a
    /// single segment comes back with its snapshot untouched (no epoch
    /// bump), so callers can invoke this idempotently.
    pub fn with_compacted(&self) -> Result<XInsight> {
        Ok(self.with_store(self.augmented.compact()?))
    }

    /// A successor engine over `augmented` sharing every fitted artifact.
    fn with_store(&self, augmented: SegmentedDataset) -> XInsight {
        XInsight {
            options: self.options.clone(),
            raw_schema: self.raw_schema.clone(),
            augmented,
            discretizers: self.discretizers.clone(),
            learner_result: self.learner_result.clone(),
        }
    }

    /// Runs XTranslator for a query: the per-variable XDA semantics.
    pub fn translation(&self, query: &WhyQuery) -> Translation {
        translate(&self.learner_result.graph, query)
    }

    /// Executes one [`ExplainRequest`]: the unified online entry point.
    ///
    /// Every per-request control is honoured here — the
    /// [`ExplanationType`] allowlist prunes candidate attributes *before*
    /// searching, the deadline skips searches that have not started when
    /// the budget runs out, and `min_score`/`top_k` trim the ranked list
    /// (flagging [`ExplainResponse::truncated`]).  A request with default
    /// options returns exactly what the legacy `explain` returned, ranked
    /// causal-first then by responsibility.
    ///
    /// ```
    /// # use xinsight_core::{ExplainRequest, WhyQuery, pipeline::{XInsight, XInsightOptions}};
    /// # use xinsight_data::{Aggregate, DatasetBuilder, Subspace};
    /// # let mut loc = Vec::new();
    /// # let mut smoking = Vec::new();
    /// # let mut severity = Vec::new();
    /// # for i in 0..200 {
    /// #     let a = i % 2 == 0;
    /// #     loc.push(if a { "A" } else { "B" });
    /// #     let smokes = if a { i % 10 < 8 } else { i % 10 < 2 };
    /// #     smoking.push(if smokes { "Yes" } else { "No" });
    /// #     severity.push(match (smokes, i % 7) {
    /// #         (true, 0..=4) => 3.0,
    /// #         (true, _) => 2.0,
    /// #         (false, 0) => 2.0,
    /// #         (false, _) => 1.0,
    /// #     });
    /// # }
    /// # let data = DatasetBuilder::new()
    /// #     .dimension("Location", loc)
    /// #     .dimension("Smoking", smoking)
    /// #     .measure("LungCancer", severity)
    /// #     .build()
    /// #     .unwrap();
    /// let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
    /// let query = WhyQuery::new("LungCancer", Aggregate::Avg,
    ///                           Subspace::of("Location", "A"),
    ///                           Subspace::of("Location", "B")).unwrap();
    /// let response = engine
    ///     .execute(&ExplainRequest::builder(query).top_k(1).include_provenance(true).build())
    ///     .unwrap();
    /// assert!(response.len() <= 1);
    /// assert!(response.explanations.iter().all(|s| s.rank == 1));
    /// assert!(response.provenance.is_some());
    /// ```
    pub fn execute(&self, request: &ExplainRequest) -> Result<ExplainResponse> {
        self.execute_with_cache(request, Arc::new(SelectionCache::new()))
    }

    /// Executes a batch of requests in order, sharing one
    /// [`SelectionCache`] across all of them.  Each request still fans its
    /// candidate attributes out over the thread pool when
    /// [`XInsightOptions::parallel`] is set.
    ///
    /// Requests in a batch typically hit the same sibling subspaces and
    /// candidate attributes, so the cross-request cache turns most of the
    /// later requests' `Δ(·)` terms into replays.  Responses are in input
    /// order and identical to calling [`XInsight::execute`] per request.
    pub fn execute_batch(&self, requests: &[ExplainRequest]) -> Result<Vec<ExplainResponse>> {
        self.execute_batch_with_cache(requests, Arc::new(SelectionCache::new()))
    }

    /// [`XInsight::execute_batch`] with a caller-supplied
    /// [`SelectionCache`].
    ///
    /// The cache only replays `Δ(·)` building blocks, it never changes
    /// answers.  Callers that own the cache can read
    /// [`SelectionCache::stats`] afterwards (the serving layer accumulates
    /// them into its `/metrics` endpoint) or share one cache across several
    /// related batches.  The usual cache rules apply: one cache per store
    /// lineage (any epoch of it; enforced by the cache's lineage latch),
    /// and a cache grows up to its byte budget — unbounded for
    /// [`SelectionCache::new`], so hold a long-lived cache only when it was
    /// built with [`SelectionCache::with_budget`].
    pub fn execute_batch_with_cache(
        &self,
        requests: &[ExplainRequest],
        cache: Arc<SelectionCache>,
    ) -> Result<Vec<ExplainResponse>> {
        requests
            .iter()
            .map(|request| self.execute_with_cache(request, Arc::clone(&cache)))
            .collect()
    }

    /// The execution core behind every online entry point, parameterized by
    /// the selection cache the `Δ(·)` terms are answered through.
    ///
    /// `Δ(D)`, which orients the query and scales every responsibility, is
    /// read through the cache once per request before any attribute is
    /// searched, so a cache latched to another store fails with
    /// [`DataError::DatasetMismatch`] even when no attribute is searched.
    /// Provenance `selection_cache.hits` counts those `Δ(D)` replays too.
    pub fn execute_with_cache(
        &self,
        request: &ExplainRequest,
        cache: Arc<SelectionCache>,
    ) -> Result<ExplainResponse> {
        let started = Instant::now();
        let deadline = request.deadline().map(|budget| started + budget);
        // The query is compiled to cache ids and its Δ(D) read through the
        // cache once per request; every attribute's search context below
        // shares the oriented compilation.
        let compiled = CompiledQuery::new(&self.augmented, request.query(), &cache)?;
        let (x, y) = compiled.sibling_values();
        let (query, original_delta) = request.query().oriented_on(x, y);
        let compiled = compiled.oriented();
        let translation = self.translation(&query);
        // `XInsightOptions::parallel` is the master switch for the whole
        // online phase; `xplainer.parallel` can *additionally* opt the inner
        // probe loops out.  AND-ing the two means neither flag silently
        // overrides an explicit `false` in the other.
        let parallel = self.options.parallel;
        let xplainer = XPlainer::new(XPlainerOptions {
            parallel: parallel && self.options.xplainer.parallel,
            ..self.options.xplainer.clone()
        });

        let skip: HashSet<&str> = {
            let mut s: HashSet<&str> = HashSet::new();
            s.insert(query.measure());
            s.insert(query.foreground());
            s.extend(query.background());
            s
        };
        // The type allowlist prunes candidates *before* searching, so a
        // causal-only request never pays for non-causal searches.
        let type_allowed =
            |semantics: &XdaSemantics| match (request.types(), semantics.explanation_type()) {
                (None, _) => true,
                (Some(allow), Some(t)) => allow.contains(&t),
                (Some(_), None) => false,
            };

        // Candidate attributes in translation (= variable-name) order, so the
        // search schedule and output ranking are deterministic.
        let targets: Vec<(XdaSemantics, String, bool)> = translation
            .iter()
            .filter(|(variable, semantics)| {
                !skip.contains(variable)
                    && semantics.has_explainability()
                    && type_allowed(semantics)
            })
            .filter_map(|(variable, semantics)| {
                // Measures are explained through their binned companion
                // column.
                let attribute = if self.discretizers.iter().any(|d| d.measure() == variable) {
                    format!("{variable}_bin")
                } else {
                    variable.to_owned()
                };
                let is_dimension = self
                    .augmented
                    .schema()
                    .attribute_by_name(&attribute)
                    .map(|a| a.kind == AttributeKind::Dimension)
                    .unwrap_or(false);
                is_dimension.then(|| {
                    let homogeneous = self.is_homogeneous(&query, variable);
                    (semantics, attribute, homogeneous)
                })
            })
            .collect();

        let search = |target: &(XdaSemantics, String, bool)| -> Result<SearchOutcome> {
            // Soft deadline: a search that has not *started* in budget is
            // skipped; one that has started runs to completion, so every
            // returned explanation is exact.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(SearchOutcome::Skipped);
            }
            let (_, attribute, homogeneous) = target;
            xplainer
                .explain_compiled(
                    &self.augmented,
                    &query,
                    attribute,
                    self.options.strategy,
                    *homogeneous,
                    Arc::clone(&cache),
                    compiled.clone(),
                )
                .map(SearchOutcome::Done)
        };
        let outcomes: Vec<_> = if parallel {
            targets.par_iter().map(search).collect()
        } else {
            targets.iter().map(search).collect()
        };

        let mut explanations = Vec::new();
        let mut deadline_hit = false;
        let mut attributes_searched = 0usize;
        let mut attributes_skipped = 0usize;
        let mut delta_evaluations = 0usize;
        for (target, outcome) in targets.iter().zip(outcomes) {
            let (semantics, _, _) = target;
            let candidate = match outcome? {
                SearchOutcome::Done(candidate) => {
                    attributes_searched += 1;
                    candidate
                }
                SearchOutcome::Skipped => {
                    attributes_skipped += 1;
                    deadline_hit = true;
                    continue;
                }
            };
            if let Some(c) = candidate {
                delta_evaluations += c.n_delta_evaluations;
                let explanation_type = semantics
                    .explanation_type()
                    .unwrap_or(ExplanationType::NonCausal);
                let causal_role = match semantics {
                    XdaSemantics::CausalExplanation(role) => Some(*role),
                    _ => None,
                };
                explanations.push(Explanation {
                    explanation_type,
                    causal_role,
                    predicate: c.predicate,
                    responsibility: c.responsibility,
                    contingency: c.contingency,
                    original_delta,
                    remaining_delta: c.remaining_delta,
                });
            }
        }
        explanations.sort_by(|a, b| {
            let type_order = |t: ExplanationType| match t {
                ExplanationType::Causal => 0,
                ExplanationType::NonCausal => 1,
            };
            type_order(a.explanation_type)
                .cmp(&type_order(b.explanation_type))
                .then(
                    b.responsibility
                        .partial_cmp(&a.responsibility)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });

        // Post-ranking trims: first the score floor, then the count cap —
        // both only ever remove from the tail of the (already sorted) list
        // within each type class, and both set the `truncated` marker.
        let found = explanations.len();
        if let Some(min_score) = request.min_score() {
            explanations.retain(|e| e.responsibility >= min_score);
        }
        if let Some(top_k) = request.top_k() {
            explanations.truncate(top_k);
        }
        let truncated = explanations.len() < found;

        let explanations: Vec<ScoredExplanation> = explanations
            .into_iter()
            .enumerate()
            .map(|(i, explanation)| ScoredExplanation {
                rank: i + 1,
                score: explanation.responsibility,
                explanation,
            })
            .collect();
        let provenance = request.include_provenance().then(|| Provenance {
            strategy_evaluations: vec![(
                strategy_name(self.options.strategy, query.aggregate()).to_owned(),
                delta_evaluations,
            )],
            attributes_searched,
            attributes_skipped,
            selection_cache: cache.stats(),
            ci_cache_fit_time: self.learner_result.ci_cache_stats,
        });
        Ok(ExplainResponse {
            explanations,
            truncated,
            deadline_hit,
            elapsed: started.elapsed(),
            provenance,
        })
    }

    /// Homogeneity check (Def. 3.7): the sibling subspaces are homogeneous on
    /// `x` when `x ⫫_G F | B` in the learned graph.
    fn is_homogeneous(&self, query: &WhyQuery, x: &str) -> bool {
        let graph = &self.learner_result.graph;
        let (Some(xi), Some(fi)) = (graph.id(x), graph.id(query.foreground())) else {
            return false;
        };
        let cond: Vec<_> = query
            .background()
            .iter()
            .filter_map(|b| graph.id(b))
            .collect();
        separation::m_separated(graph, xi, fi, &cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, Subspace};

    /// Deterministic pseudo-random stream.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / (1u64 << 53) as f64
        }
    }

    /// A lung-cancer-style dataset following Fig. 1: Location and Stress cause
    /// Smoking, Smoking causes LungCancer severity, severity causes Surgery.
    fn lung_cancer_data(n: usize) -> Dataset {
        let mut rng = lcg(2024);
        let mut location = Vec::with_capacity(n);
        let mut stress = Vec::with_capacity(n);
        let mut smoking = Vec::with_capacity(n);
        let mut surgery = Vec::with_capacity(n);
        let mut severity = Vec::with_capacity(n);
        for _ in 0..n {
            let loc_a = rng() < 0.5;
            location.push(if loc_a { "A" } else { "B" });
            let high_stress = rng() < 0.5;
            stress.push(if high_stress { "High" } else { "Low" });
            let p_smoke = match (loc_a, high_stress) {
                (true, true) => 0.9,
                (true, false) => 0.7,
                (false, true) => 0.4,
                (false, false) => 0.1,
            };
            let smokes = rng() < p_smoke;
            smoking.push(if smokes { "Yes" } else { "No" });
            let sev = if smokes {
                2.0 + (rng() < 0.8) as u8 as f64
            } else {
                1.0 + (rng() < 0.2) as u8 as f64
            };
            severity.push(sev);
            surgery.push(if sev > 2.0 && rng() < 0.8 {
                "Yes"
            } else {
                "No"
            });
        }
        xinsight_data::DatasetBuilder::new()
            .dimension("Location", location)
            .dimension("Stress", stress)
            .dimension("Smoking", smoking)
            .dimension("Surgery", surgery)
            .measure("LungCancer", severity)
            .build()
            .unwrap()
    }

    fn why_query() -> WhyQuery {
        WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap()
    }

    fn explain(engine: &XInsight, query: &WhyQuery) -> Vec<Explanation> {
        engine
            .execute(&ExplainRequest::new(query.clone()))
            .unwrap()
            .into_explanations()
    }

    #[test]
    fn end_to_end_smoking_is_a_top_causal_explanation() {
        let data = lung_cancer_data(3000);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let explanations = explain(&engine, &why_query());
        assert!(!explanations.is_empty());
        let causal: Vec<_> = explanations
            .iter()
            .filter(|e| e.explanation_type == ExplanationType::Causal)
            .collect();
        assert!(
            causal.iter().any(|e| e.attribute() == "Smoking"),
            "Smoking must appear among causal explanations; got: {:?}",
            explanations
                .iter()
                .map(|e| e.attribute())
                .collect::<Vec<_>>()
        );
        let smoking = causal.iter().find(|e| e.attribute() == "Smoking").unwrap();
        // Conditioning on either smoking status equalises the two locations,
        // so the optimal predicate is a single filter (Yes or No) with high
        // responsibility; which of the two wins depends on sampling noise.
        assert_eq!(smoking.predicate.len(), 1);
        assert!(smoking.responsibility > 0.3);
        assert!(smoking.reduction_ratio().unwrap() > 0.5);
        // Causal explanations are ranked before non-causal ones.
        let first_non_causal = explanations
            .iter()
            .position(|e| e.explanation_type == ExplanationType::NonCausal);
        let last_causal = explanations
            .iter()
            .rposition(|e| e.explanation_type == ExplanationType::Causal);
        if let (Some(nc), Some(c)) = (first_non_causal, last_causal) {
            assert!(c < nc);
        }
    }

    #[test]
    fn surgery_is_not_reported_as_causal() {
        let data = lung_cancer_data(3000);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let explanations = explain(&engine, &why_query());
        for e in &explanations {
            if e.attribute() == "Surgery" {
                assert_eq!(e.explanation_type, ExplanationType::NonCausal);
            }
        }
    }

    #[test]
    fn translation_accessor_reports_semantics() {
        let data = lung_cancer_data(2000);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let t = engine.translation(&why_query());
        assert!(t.explainable_variables().contains(&"Smoking"));
        assert!(engine.graph().n_nodes() >= 5);
        assert!(engine.learner_result().n_ci_tests > 0);
    }

    #[test]
    fn fitted_model_round_trip_serves_identical_explanations() {
        let data = lung_cancer_data(1500);
        let options = XInsightOptions::default();
        let engine = XInsight::fit(&data, &options).unwrap();
        let direct = explain(&engine, &why_query());

        let json = engine.fitted_model().to_json();
        let model = crate::persist::FittedModel::from_json(&json).unwrap();
        assert_eq!(model, engine.fitted_model());
        let restored = XInsight::from_fitted(&data, model, &options).unwrap();
        assert_eq!(restored.graph(), engine.graph());
        assert_eq!(restored.data(), engine.data());
        assert_eq!(explain(&restored, &why_query()), direct);
    }

    #[test]
    fn per_request_controls_shape_the_response() {
        let data = lung_cancer_data(3000);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let query = why_query();
        let full = engine.execute(&ExplainRequest::new(query.clone())).unwrap();
        assert!(!full.truncated);
        assert!(!full.deadline_hit);
        assert!(full.provenance.is_none());
        assert!(full.len() >= 2, "need several explanations to trim");
        // Ranks are 1-based and contiguous; scores mirror responsibility.
        for (i, scored) in full.explanations.iter().enumerate() {
            assert_eq!(scored.rank, i + 1);
            assert_eq!(scored.score, scored.explanation.responsibility);
        }

        // top_k keeps the best-ranked prefix and flags truncation.
        let top1 = engine
            .execute(&ExplainRequest::builder(query.clone()).top_k(1).build())
            .unwrap();
        assert_eq!(top1.len(), 1);
        assert!(top1.truncated);
        assert_eq!(top1.explanations[0], full.explanations[0]);

        // The type allowlist drops the other class entirely (and is not
        // counted as truncation — nothing the request asked for was cut).
        let causal_only = engine
            .execute(
                &ExplainRequest::builder(query.clone())
                    .allow_types([ExplanationType::Causal])
                    .build(),
            )
            .unwrap();
        assert!(!causal_only.is_empty());
        assert!(causal_only
            .explanations
            .iter()
            .all(|s| s.explanation.explanation_type == ExplanationType::Causal));
        assert!(!causal_only.truncated);

        // A min_score above every responsibility empties the response.
        let none = engine
            .execute(
                &ExplainRequest::builder(query.clone())
                    .min_score(2.0)
                    .build(),
            )
            .unwrap();
        assert!(none.is_empty());
        assert!(none.truncated);

        // Provenance reports the strategy, its spend and the cache state.
        let with_provenance = engine
            .execute(
                &ExplainRequest::builder(query.clone())
                    .include_provenance(true)
                    .build(),
            )
            .unwrap();
        let provenance = with_provenance.provenance.unwrap();
        assert_eq!(provenance.strategy_evaluations.len(), 1);
        assert_eq!(provenance.strategy_evaluations[0].0, "avg-optimized");
        assert!(provenance.strategy_evaluations[0].1 > 0);
        assert!(provenance.attributes_searched > 0);
        assert_eq!(provenance.attributes_skipped, 0);
        assert!(provenance.selection_cache.lookups() > 0);
        assert!(provenance.ci_cache_fit_time.lookups() > 0);
    }

    #[test]
    fn zero_deadline_yields_a_flagged_partial_response() {
        let data = lung_cancer_data(1200);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let response = engine
            .execute(
                &ExplainRequest::builder(why_query())
                    .deadline(std::time::Duration::ZERO)
                    .include_provenance(true)
                    .build(),
            )
            .unwrap();
        // Nothing can start inside a zero budget: every candidate attribute
        // is skipped and the response says so.
        assert!(response.deadline_hit);
        assert!(response.is_empty());
        let provenance = response.provenance.unwrap();
        assert_eq!(provenance.attributes_searched, 0);
        assert!(provenance.attributes_skipped > 0);
    }

    #[test]
    fn execute_batch_matches_per_request_execute() {
        let data = lung_cancer_data(1200);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let requests = [
            ExplainRequest::new(why_query()),
            ExplainRequest::builder(why_query()).top_k(1).build(),
        ];
        let batched = engine.execute_batch(&requests).unwrap();
        assert_eq!(batched.len(), 2);
        for (request, response) in requests.iter().zip(&batched) {
            assert_eq!(
                response.explanations,
                engine.execute(request).unwrap().explanations
            );
        }
    }

    /// Rows `lo..hi` of a dataset as a standalone dataset.
    fn rows_range(data: &Dataset, lo: usize, hi: usize) -> Dataset {
        let mask =
            xinsight_data::RowMask::from_bools((0..data.n_rows()).map(|i| (lo..hi).contains(&i)));
        data.filter_rows(&mask).unwrap()
    }

    #[test]
    fn ingest_matches_restore_over_concatenated_data() {
        let data = lung_cancer_data(1500);
        let options = XInsightOptions::default();
        let engine = XInsight::fit(&data, &options).unwrap();
        let model = engine.fitted_model();
        let full = XInsight::from_fitted(&data, model.clone(), &options).unwrap();
        // Restore over a prefix, then stream the rest in as two ingest
        // batches: same rows, same model, three segments instead of one.
        let chunked = XInsight::from_fitted(&rows_range(&data, 0, 900), model, &options)
            .unwrap()
            .with_ingested(&rows_range(&data, 900, 1300))
            .unwrap()
            .with_ingested(&rows_range(&data, 1300, 1500))
            .unwrap();
        assert_eq!(chunked.data().n_segments(), 3);
        assert_eq!(chunked.data().epoch(), 2);
        assert_eq!(chunked.data().n_rows(), full.data().n_rows());
        // The segmented engine answers byte-identically to the monolithic one.
        assert_eq!(
            explain(&chunked, &why_query()),
            explain(&full, &why_query())
        );
    }

    /// The model fitted on 1500 lung-cancer rows, restored over rows
    /// `0..900` with `900..1300` and `1300..1500` ingested: three segments.
    fn three_segment_engine() -> XInsight {
        let data = lung_cancer_data(1500);
        let options = XInsightOptions::default();
        let model = XInsight::fit(&data, &options).unwrap().fitted_model();
        XInsight::from_fitted(&rows_range(&data, 0, 900), model, &options)
            .unwrap()
            .with_ingested(&rows_range(&data, 900, 1300))
            .unwrap()
            .with_ingested(&rows_range(&data, 1300, 1500))
            .unwrap()
    }

    #[test]
    fn compaction_preserves_answers_byte_for_byte() {
        let chunked = three_segment_engine();
        let lineage = chunked.data().lineage();
        let compacted = chunked.with_compacted().unwrap();
        // One merged segment, same lineage (per-lineage caches stay valid),
        // next epoch, same rows.
        assert_eq!(compacted.data().n_segments(), 1);
        assert_eq!(compacted.data().lineage(), lineage);
        assert_eq!(compacted.data().epoch(), chunked.data().epoch() + 1);
        assert_eq!(compacted.data().n_rows(), chunked.data().n_rows());
        // Answers are byte-identical across the rewrite.
        assert_eq!(
            explain(&compacted, &why_query()),
            explain(&chunked, &why_query())
        );
        // Already-compact engines come back with their snapshot untouched.
        let again = compacted.with_compacted().unwrap();
        assert_eq!(again.data().epoch(), compacted.data().epoch());
    }

    #[test]
    fn ingest_validates_schema_and_non_empty_batches() {
        let data = lung_cancer_data(600);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        assert_eq!(engine.raw_schema().names(), data.schema().names());
        // A batch missing columns is rejected.
        let narrow = data.select_attributes(&["Location", "LungCancer"]).unwrap();
        assert!(engine.with_ingested(&narrow).is_err());
        // A batch with zero (complete) rows is rejected.
        let empty = rows_range(&data, 0, 0);
        assert!(engine.with_ingested(&empty).is_err());
    }

    #[test]
    fn serial_and_parallel_fits_learn_the_same_model() {
        let data = lung_cancer_data(1200);
        let parallel = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let serial = XInsight::fit(
            &data,
            &XInsightOptions {
                parallel: false,
                ..XInsightOptions::default()
            },
        )
        .unwrap();
        assert_eq!(parallel.graph(), serial.graph());
        assert_eq!(
            parallel.learner_result().n_ci_tests,
            serial.learner_result().n_ci_tests
        );
        assert_eq!(parallel.fitted_model(), serial.fitted_model());
    }

    #[test]
    fn graph_contains_measure_node_via_discretization() {
        let data = lung_cancer_data(1500);
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        assert!(engine.graph().id("LungCancer").is_some());
        // The augmented dataset exposes the binned companion column.
        assert!(engine.data().categories("LungCancer_bin").is_ok());
    }

    #[test]
    fn execute_orients_and_reports_delta_like_the_store_oracle() {
        let engine = three_segment_engine();
        let store = engine.data();
        assert_eq!(store.n_segments(), 3);
        let (mut explained, mut negative) = (0, 0);
        for aggregate in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Count,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            for (a, b) in [("A", "B"), ("B", "A")] {
                let query = WhyQuery::new(
                    "LungCancer",
                    aggregate,
                    Subspace::of("Location", a),
                    Subspace::of("Location", b),
                )
                .unwrap();
                negative += usize::from(query.delta_store(store).unwrap() < 0.0);
                let oracle = query.oriented_store(store).unwrap();
                let oracle_delta = oracle.delta_store(store).unwrap();
                let response = engine
                    .execute_with_cache(
                        &ExplainRequest::new(query),
                        Arc::new(SelectionCache::new()),
                    )
                    .unwrap();
                for scored in &response.explanations {
                    assert_eq!(
                        scored.explanation.original_delta.to_bits(),
                        oracle_delta.to_bits(),
                        "{aggregate:?} {a} vs {b}"
                    );
                }
                explained += response.explanations.len();
                // Same orientation: the already-oriented oracle query gets
                // the same answer.
                let reference = engine.execute(&ExplainRequest::new(oracle)).unwrap();
                assert_eq!(response.explanations, reference.explanations);
            }
        }
        assert!(explained > 0 && negative > 0);
        // An empty side fails exactly as the oracle does.
        let ghost = WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "Z"),
        )
        .unwrap();
        assert!(matches!(
            ghost.oriented_store(store),
            Err(DataError::EmptyAggregate { .. })
        ));
        assert!(matches!(
            engine.execute(&ExplainRequest::new(ghost)),
            Err(DataError::EmptyAggregate { .. })
        ));
    }

    /// A request whose (empty) type allowlist prunes every candidate.
    fn nothing_to_search() -> ExplainRequest {
        ExplainRequest::builder(why_query())
            .allow_types([])
            .include_provenance(true)
            .build()
    }

    #[test]
    fn warm_reexecution_computes_nothing_new() {
        let engine = three_segment_engine();
        for request in [ExplainRequest::new(why_query()), nothing_to_search()] {
            let cache = Arc::new(SelectionCache::new());
            let first = engine
                .execute_with_cache(&request, Arc::clone(&cache))
                .unwrap();
            let (misses, hits) = (cache.misses(), cache.hits());
            assert!(misses > 0, "Δ(D) is computed through the cache");
            let again = engine
                .execute_with_cache(&request, Arc::clone(&cache))
                .unwrap();
            assert_eq!(cache.misses(), misses);
            assert_eq!(again.explanations, first.explanations);
            if request.types().is_some() {
                // Only Δ(D) ran: one replay per side per segment, and the
                // provenance counts them.
                let provenance = again.provenance.unwrap();
                assert_eq!(provenance.attributes_searched, 0);
                assert_eq!(cache.hits(), hits + 2 * 3);
                assert_eq!(provenance.selection_cache.hits, cache.hits());
            }
        }
    }

    #[test]
    fn a_cache_latched_to_another_store_fails_even_with_nothing_to_search() {
        let engine = three_segment_engine();
        let other = XInsight::from_fitted(
            &lung_cancer_data(600),
            engine.fitted_model(),
            &XInsightOptions::default(),
        )
        .unwrap();
        let cache = Arc::new(SelectionCache::new());
        engine
            .execute_with_cache(&nothing_to_search(), Arc::clone(&cache))
            .unwrap();
        assert!(matches!(
            other.execute_with_cache(&nothing_to_search(), cache),
            Err(DataError::DatasetMismatch(_))
        ));
    }
}
