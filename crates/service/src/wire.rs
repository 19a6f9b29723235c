//! The JSON wire format of the serving endpoints.
//!
//! Requests and responses reuse the engine's hand-rolled
//! [`Json`] codepath and [`WhyQuery`]'s
//! canonical form, so the HTTP body, the LRU cache key and the persisted
//! artifacts all share one serialization convention (and one set of
//! defensive parsers).
//!
//! The explain endpoints (`/v2/explain`, `/v2/explain_batch`) take
//! `{"model", "query" | "queries"}` plus an optional `"options"` object
//! carrying the per-request controls of [`ExplainRequest`], and return the
//! full [`ExplainResponse`] envelope: ranked/scored explanations,
//! `truncated`/`deadline_hit` markers, elapsed time and optional
//! provenance.  Errors carry the [`DataError::code`] vocabulary next to the
//! human-readable message.
//!
//! The explanation payloads serialize **deterministically** — field order
//! is fixed, numbers use the canonical `f64` writer — which is what lets
//! the result cache store the serialized string itself and still be
//! provably answer-identical to the uncached path.  [`RequestOptions`]
//! also derives the canonical [cache-key suffix](RequestOptions::cache_key)
//! that keeps differently-parameterized requests from ever aliasing in
//! the LRU.

use std::time::Duration;
use xinsight_core::json::Json;
use xinsight_core::{
    ExplainRequest, ExplainResponse, Explanation, ExplanationType, Provenance, WhyQuery,
};
use xinsight_data::{DataError, Dataset, Predicate, Result, Schema, Value};

fn parse_body(body: &[u8]) -> Result<Json> {
    let text = std::str::from_utf8(body)
        .map_err(|_| DataError::Serve("request body is not utf-8".into()))?;
    Json::parse(text)
}

fn model_of(doc: &Json) -> Result<String> {
    let model = doc.get("model")?.as_str()?;
    if model.is_empty() {
        return Err(DataError::Serve("`model` must be non-empty".into()));
    }
    Ok(model.to_owned())
}

fn queries_of(doc: &Json) -> Result<Vec<WhyQuery>> {
    let queries = doc
        .get("queries")?
        .as_arr()?
        .iter()
        .map(WhyQuery::from_json_value)
        .collect::<Result<Vec<_>>>()?;
    if queries.is_empty() {
        return Err(DataError::Serve("`queries` must be non-empty".into()));
    }
    if queries.len() > MAX_BATCH_QUERIES {
        return Err(DataError::Serve(format!(
            "batch of {} queries exceeds the limit of {MAX_BATCH_QUERIES}",
            queries.len()
        )));
    }
    Ok(queries)
}

/// Upper bound on the number of queries one batch request may carry —
/// keeps a single request from monopolizing a worker unboundedly.
pub const MAX_BATCH_QUERIES: usize = 256;

/// The `"options"` object of a v2 request: every per-request control of
/// [`ExplainRequest`], all optional on the wire.
///
/// ```json
/// {"top_k": 3, "min_score": 0.1, "types": ["causal"],
///  "deadline_ms": 250, "include_provenance": true}
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestOptions {
    /// Keep only the `k` best-ranked explanations.
    pub top_k: Option<usize>,
    /// Drop explanations scoring below this responsibility.
    pub min_score: Option<f64>,
    /// Restrict the search to these explanation types (normalized: sorted,
    /// deduplicated).
    pub types: Option<Vec<ExplanationType>>,
    /// Soft wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Whether the response should carry a provenance section.
    pub include_provenance: bool,
}

impl RequestOptions {
    /// Parses the optional `"options"` object of a v2 body (`None` —
    /// options absent — yields the default).  Unknown keys are rejected so
    /// a typoed control fails loudly instead of being silently ignored.
    pub fn parse(doc: Option<&Json>) -> Result<Self> {
        let Some(doc) = doc else {
            return Ok(RequestOptions::default());
        };
        let Json::Obj(fields) = doc else {
            return Err(DataError::Serve("`options` must be an object".into()));
        };
        let mut options = RequestOptions::default();
        for (key, value) in fields {
            match key.as_str() {
                "top_k" => {
                    let top_k = value.as_u64()? as usize;
                    if top_k == 0 {
                        return Err(DataError::Serve("`top_k` must be at least 1".into()));
                    }
                    options.top_k = Some(top_k);
                }
                "min_score" => {
                    let min_score = value.as_f64()?;
                    if !min_score.is_finite() {
                        return Err(DataError::Serve("`min_score` must be finite".into()));
                    }
                    options.min_score = Some(min_score);
                }
                "types" => {
                    let mut types = value
                        .as_arr()?
                        .iter()
                        .map(|t| t.as_str()?.parse::<ExplanationType>())
                        .collect::<Result<Vec<_>>>()?;
                    if types.is_empty() {
                        return Err(DataError::Serve(
                            "`types` must name at least one explanation type".into(),
                        ));
                    }
                    types.sort();
                    types.dedup();
                    options.types = Some(types);
                }
                "deadline_ms" => options.deadline_ms = Some(value.as_u64()?),
                "include_provenance" => options.include_provenance = value.as_bool()?,
                other => {
                    return Err(DataError::Serve(format!(
                        "unknown option `{other}` (supported: top_k, min_score, types, \
                         deadline_ms, include_provenance)"
                    )));
                }
            }
        }
        Ok(options)
    }

    /// Builds the engine request for one query.
    pub fn to_engine_request(&self, query: WhyQuery) -> ExplainRequest {
        let mut builder = ExplainRequest::builder(query);
        if let Some(top_k) = self.top_k {
            builder = builder.top_k(top_k);
        }
        if let Some(min_score) = self.min_score {
            builder = builder.min_score(min_score);
        }
        if let Some(types) = &self.types {
            builder = builder.allow_types(types.iter().copied());
        }
        if let Some(deadline_ms) = self.deadline_ms {
            builder = builder.deadline(Duration::from_millis(deadline_ms));
        }
        builder.include_provenance(self.include_provenance).build()
    }

    /// The canonical cache-key suffix for these options.
    ///
    /// Covers every **result-shaping** control (`top_k`, `min_score`,
    /// `types`, `deadline_ms`), so two requests that differ in any of
    /// them can never alias in the LRU.  Deliberately excluded:
    /// `include_provenance` (provenance lives in the envelope, not the
    /// cached payload).  Every suffix starts with a `v2` tag.
    pub fn cache_key(&self) -> String {
        let mut fields = Vec::new();
        if let Some(top_k) = self.top_k {
            fields.push(("top_k".to_owned(), Json::Num(top_k as f64)));
        }
        if let Some(min_score) = self.min_score {
            fields.push(("min_score".to_owned(), Json::Num(min_score)));
        }
        if let Some(types) = &self.types {
            fields.push((
                "types".to_owned(),
                Json::Arr(types.iter().map(|t| Json::Str(t.to_string())).collect()),
            ));
        }
        if let Some(deadline_ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_owned(), Json::Num(deadline_ms as f64)));
        }
        format!("v2{}", Json::Obj(fields))
    }
}

/// A parsed `POST /v2/explain` body:
/// `{"model": "...", "query": {...}, "options": {...}?}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainV2 {
    /// The registry id of the model to answer against.
    pub model: String,
    /// The query, validated (sibling subspaces, known aggregate).
    pub query: WhyQuery,
    /// The per-request controls (default when absent).
    pub options: RequestOptions,
}

impl ExplainV2 {
    /// Parses and validates a `POST /v2/explain` body.
    pub fn parse(body: &[u8]) -> Result<Self> {
        let doc = parse_body(body)?;
        Ok(ExplainV2 {
            model: model_of(&doc)?,
            query: WhyQuery::from_json_value(doc.get("query")?)?,
            options: RequestOptions::parse(doc.opt("options"))?,
        })
    }
}

/// A parsed `POST /v2/explain_batch` body:
/// `{"model": "...", "queries": [{...}, ...], "options": {...}?}`.
/// One options object applies to every query in the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainBatchV2 {
    /// The registry id of the model to answer against.
    pub model: String,
    /// The queries, in request order.
    pub queries: Vec<WhyQuery>,
    /// The per-request controls, shared by the whole batch.
    pub options: RequestOptions,
}

impl ExplainBatchV2 {
    /// Parses and validates a `POST /v2/explain_batch` body.
    pub fn parse(body: &[u8]) -> Result<Self> {
        let doc = parse_body(body)?;
        Ok(ExplainBatchV2 {
            model: model_of(&doc)?,
            queries: queries_of(&doc)?,
            options: RequestOptions::parse(doc.opt("options"))?,
        })
    }
}

/// A parsed `POST /admin/reload` body: `{"model": "..."}`.
pub fn parse_reload_request(body: &[u8]) -> Result<String> {
    model_of(&parse_body(body)?)
}

/// Upper bound on the number of rows one ingest request may carry — keeps a
/// single request from monopolizing a worker (and a segment from growing
/// unboundedly); stream larger loads as several batches.
pub const MAX_INGEST_ROWS: usize = 4096;

/// A parsed `POST /v2/ingest` body:
///
/// ```json
/// {"model": "flight", "rows": [{"Month": "May", "Rain": "Yes", "DelayMinute": 42.0}, ...]}
/// ```
///
/// Each row is an object mapping attribute names to values: strings for
/// dimensions, numbers for measures, `null` for a missing cell.  Rows are
/// kept as name/value pairs here; [`rows_to_dataset`] validates them
/// against the target model's raw schema.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestV2 {
    /// The registry id of the model to append to.
    pub model: String,
    /// The rows, each as `(attribute, value)` pairs in wire order.
    pub rows: Vec<Vec<(String, Value)>>,
}

impl IngestV2 {
    /// Parses and validates a `POST /v2/ingest` body (schema validation
    /// happens later, against the model, in [`rows_to_dataset`]).
    pub fn parse(body: &[u8]) -> Result<Self> {
        let doc = parse_body(body)?;
        let model = model_of(&doc)?;
        let rows_doc = doc.get("rows")?.as_arr()?;
        if rows_doc.is_empty() {
            return Err(DataError::Serve("`rows` must be non-empty".into()));
        }
        if rows_doc.len() > MAX_INGEST_ROWS {
            return Err(DataError::Serve(format!(
                "ingest of {} rows exceeds the limit of {MAX_INGEST_ROWS}; send several batches",
                rows_doc.len()
            )));
        }
        let mut rows = Vec::with_capacity(rows_doc.len());
        for (i, row) in rows_doc.iter().enumerate() {
            let Json::Obj(fields) = row else {
                return Err(DataError::Serve(format!(
                    "row {i} must be an object of attribute → value"
                )));
            };
            let mut cells = Vec::with_capacity(fields.len());
            for (name, value) in fields {
                let value = match value {
                    Json::Str(s) => Value::Category(s.clone()),
                    Json::Num(x) => Value::Number(*x),
                    Json::Null => Value::Null,
                    other => {
                        return Err(DataError::Serve(format!(
                            "row {i} attribute `{name}`: unsupported value {other} \
                             (use a string, a number or null)"
                        )));
                    }
                };
                cells.push((name.clone(), value));
            }
            rows.push(cells);
        }
        Ok(IngestV2 { model, rows })
    }
}

/// Validates wire ingest rows against a model's raw schema and assembles
/// them into the batch [`Dataset`] the engine appends: every attribute of
/// the schema must be present exactly once per row, dimension cells must be
/// strings and measure cells numbers (`null` marks a missing cell of either
/// kind — such rows are dropped by the engine's preprocessing).  The
/// name-to-position mapping happens here; the row-to-column assembly and
/// kind checking are the engine's own [`Dataset::from_rows`] codepath, so
/// wire ingest and library ingest can never diverge.
pub fn rows_to_dataset(schema: &Schema, rows: &[Vec<(String, Value)>]) -> Result<Dataset> {
    let mut cells: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let mut ordered = vec![Value::Null; schema.len()];
        let mut seen = vec![false; schema.len()];
        for (name, value) in row {
            let idx = schema.index_of(name).map_err(|_| {
                DataError::Serve(format!(
                    "row {i}: attribute `{name}` is not part of the model schema"
                ))
            })?;
            if seen[idx] {
                return Err(DataError::Serve(format!(
                    "row {i}: attribute `{name}` appears twice"
                )));
            }
            seen[idx] = true;
            ordered[idx] = value.clone();
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(DataError::Serve(format!(
                "row {i}: missing attribute `{}` (send null for a missing cell)",
                schema.attribute(missing).name
            )));
        }
        cells.push(ordered);
    }
    Dataset::from_rows(schema, &cells)
}

fn predicate_to_json(predicate: &Predicate) -> Json {
    Json::Obj(vec![
        (
            "attribute".to_owned(),
            Json::Str(predicate.attribute().to_owned()),
        ),
        (
            "values".to_owned(),
            Json::Arr(
                predicate
                    .values()
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn opt_f64(value: Option<f64>) -> Json {
    match value {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

/// Serializes one explanation to its wire object.
pub fn explanation_to_json(explanation: &Explanation) -> Json {
    Json::Obj(vec![
        (
            "type".to_owned(),
            Json::Str(explanation.explanation_type.to_string()),
        ),
        (
            "causal_role".to_owned(),
            match explanation.causal_role {
                Some(role) => Json::Str(role.to_string()),
                None => Json::Null,
            },
        ),
        (
            "predicate".to_owned(),
            predicate_to_json(&explanation.predicate),
        ),
        (
            "responsibility".to_owned(),
            Json::Num(explanation.responsibility),
        ),
        (
            "contingency".to_owned(),
            match &explanation.contingency {
                Some(p) => predicate_to_json(p),
                None => Json::Null,
            },
        ),
        (
            "original_delta".to_owned(),
            Json::Num(explanation.original_delta),
        ),
        (
            "remaining_delta".to_owned(),
            opt_f64(explanation.remaining_delta),
        ),
    ])
}

/// Serializes a v2 result payload — the cacheable portion of an
/// [`ExplainResponse`]: the scored ranking plus its `truncated` marker.
/// (`deadline_hit` responses are never cached, so the marker lives in the
/// envelope.)
pub fn v2_result_to_string(response: &ExplainResponse) -> String {
    let explanations = Json::Arr(
        response
            .explanations
            .iter()
            .map(|scored| {
                Json::Obj(vec![
                    ("rank".to_owned(), Json::Num(scored.rank as f64)),
                    ("score".to_owned(), Json::Num(scored.score)),
                    (
                        "explanation".to_owned(),
                        explanation_to_json(&scored.explanation),
                    ),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("truncated".to_owned(), Json::Bool(response.truncated)),
        ("explanations".to_owned(), explanations),
    ])
    .to_string()
}

fn cache_stats_to_json(stats: &xinsight_stats::CacheStats) -> Json {
    Json::Obj(vec![
        ("hits".to_owned(), Json::Num(stats.hits as f64)),
        ("misses".to_owned(), Json::Num(stats.misses as f64)),
    ])
}

/// Serializes a [`Provenance`] section.
fn provenance_to_json(provenance: &Provenance) -> Json {
    Json::Obj(vec![
        (
            "strategy_evaluations".to_owned(),
            Json::Obj(
                provenance
                    .strategy_evaluations
                    .iter()
                    .map(|(strategy, count)| (strategy.clone(), Json::Num(*count as f64)))
                    .collect(),
            ),
        ),
        (
            "attributes_searched".to_owned(),
            Json::Num(provenance.attributes_searched as f64),
        ),
        (
            "attributes_skipped".to_owned(),
            Json::Num(provenance.attributes_skipped as f64),
        ),
        (
            "selection_cache".to_owned(),
            cache_stats_to_json(&provenance.selection_cache),
        ),
        (
            "ci_cache_fit_time".to_owned(),
            cache_stats_to_json(&provenance.ci_cache_fit_time),
        ),
    ])
}

/// Assembles the `/v2/explain` response envelope around a (possibly
/// cached) pre-serialized result payload:
///
/// ```json
/// {"model": "...", "cached": false, "deadline_hit": false,
///  "elapsed_us": 1234, "provenance": null | {...},
///  "result": {"truncated": false, "explanations": [...]}}
/// ```
///
/// `elapsed_us` is the server's handler wall-clock (parse + cache lookup +
/// engine work), measured the same way on cached and uncached answers so
/// the two are comparable.
pub fn explain_v2_response(
    model: &str,
    cached: bool,
    deadline_hit: bool,
    elapsed_us: u64,
    provenance: Option<&Provenance>,
    result_json: &str,
) -> String {
    let mut out = String::from("{\"model\":");
    Json::Str(model.to_owned()).write(&mut out);
    out.push_str(",\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    out.push_str(",\"deadline_hit\":");
    out.push_str(if deadline_hit { "true" } else { "false" });
    out.push_str(",\"elapsed_us\":");
    out.push_str(&elapsed_us.to_string());
    out.push_str(",\"provenance\":");
    match provenance {
        Some(p) => provenance_to_json(p).write(&mut out),
        None => out.push_str("null"),
    }
    out.push_str(",\"result\":");
    out.push_str(result_json);
    out.push('}');
    out
}

/// One answered query: the unit the server's explain core returns for
/// both explain routes, whichever envelope then renders it.
#[derive(Debug, Clone)]
pub struct BatchSlotV2 {
    /// Whether the slot was answered from the result cache.
    pub cached: bool,
    /// Whether this slot's deadline expired mid-search.
    pub deadline_hit: bool,
    /// The slot's provenance, when requested and freshly computed.
    pub provenance: Option<Provenance>,
    /// The serialized payload, as [`v2_result_to_string`] writes it.
    pub result: std::sync::Arc<str>,
}

/// Assembles the `/v2/explain_batch` response envelope; `results[i]`
/// answers `queries[i]`.
pub fn explain_batch_v2_response(model: &str, results: &[BatchSlotV2]) -> String {
    let mut out = String::from("{\"model\":");
    Json::Str(model.to_owned()).write(&mut out);
    out.push_str(",\"results\":[");
    for (i, slot) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cached\":");
        out.push_str(if slot.cached { "true" } else { "false" });
        out.push_str(",\"deadline_hit\":");
        out.push_str(if slot.deadline_hit { "true" } else { "false" });
        out.push_str(",\"provenance\":");
        match &slot.provenance {
            Some(p) => provenance_to_json(p).write(&mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"result\":");
        out.push_str(&slot.result);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xinsight_core::{CausalRole, ScoredExplanation};
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

    fn explanation() -> Explanation {
        Explanation {
            explanation_type: ExplanationType::Causal,
            causal_role: Some(CausalRole::Parent),
            predicate: Predicate::new("Smoking", ["Yes"]),
            responsibility: 0.75,
            contingency: None,
            original_delta: 1.5,
            remaining_delta: Some(0.25),
        }
    }

    #[test]
    fn explain_request_round_trips_through_query_json() {
        let body = format!("{{\"model\":\"flight\",\"query\":{}}}", query().to_json());
        let parsed = ExplainV2::parse(body.as_bytes()).unwrap();
        assert_eq!(parsed.model, "flight");
        assert_eq!(parsed.query, query());
    }

    #[test]
    fn batch_request_preserves_order_and_validates() {
        let q = query().to_json();
        let body = format!("{{\"model\":\"m\",\"queries\":[{q},{q}]}}");
        let parsed = ExplainBatchV2::parse(body.as_bytes()).unwrap();
        assert_eq!(parsed.queries.len(), 2);
        assert!(ExplainBatchV2::parse(b"{\"model\":\"m\",\"queries\":[]}").is_err());
        assert!(ExplainBatchV2::parse(b"{\"model\":\"\",\"queries\":[]}").is_err());
        assert!(ExplainV2::parse(b"not json").is_err());
        assert!(ExplainV2::parse(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let q = query().to_json();
        let queries = vec![q; MAX_BATCH_QUERIES + 1].join(",");
        let body = format!("{{\"model\":\"m\",\"queries\":[{queries}]}}");
        let err = ExplainBatchV2::parse(body.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn v2_request_parses_every_option() {
        let body = format!(
            "{{\"model\":\"m\",\"query\":{},\"options\":{{\
             \"top_k\":3,\"min_score\":0.25,\"types\":[\"non-causal\",\"causal\",\"causal\"],\
             \"deadline_ms\":250,\"include_provenance\":true}}}}",
            query().to_json()
        );
        let parsed = ExplainV2::parse(body.as_bytes()).unwrap();
        assert_eq!(parsed.model, "m");
        assert_eq!(parsed.options.top_k, Some(3));
        assert_eq!(parsed.options.min_score, Some(0.25));
        assert_eq!(
            parsed.options.types,
            Some(vec![ExplanationType::Causal, ExplanationType::NonCausal])
        );
        assert_eq!(parsed.options.deadline_ms, Some(250));
        assert!(parsed.options.include_provenance);

        let engine_request = parsed.options.to_engine_request(parsed.query.clone());
        assert_eq!(engine_request.top_k(), Some(3));
        assert_eq!(engine_request.deadline(), Some(Duration::from_millis(250)));
        assert!(engine_request.include_provenance());
    }

    #[test]
    fn v2_options_are_optional_and_validated() {
        let body = format!("{{\"model\":\"m\",\"query\":{}}}", query().to_json());
        let parsed = ExplainV2::parse(body.as_bytes()).unwrap();
        assert_eq!(parsed.options, RequestOptions::default());
        assert!(parsed
            .options
            .to_engine_request(query())
            .has_default_options());

        let bad = |options: &str| {
            let body = format!(
                "{{\"model\":\"m\",\"query\":{},\"options\":{options}}}",
                query().to_json()
            );
            ExplainV2::parse(body.as_bytes()).unwrap_err().to_string()
        };
        assert!(bad("{\"top_k\":0}").contains("top_k"));
        assert!(bad("{\"types\":[]}").contains("types"));
        assert!(bad("{\"types\":[\"bogus\"]}").contains("bogus"));
        assert!(bad("{\"topk\":1}").contains("unknown option"));
        // Parallelism is the engine's, not the request's: `parallel` is an
        // unknown option, and the error lists the supported ones.
        let parallel = bad("{\"parallel\":true}");
        assert!(parallel.contains("unknown option `parallel`"), "{parallel}");
        assert!(
            parallel
                .contains("supported: top_k, min_score, types, deadline_ms, include_provenance"),
            "{parallel}"
        );
        assert!(bad("[1]").contains("must be an object"));
    }

    #[test]
    fn v2_cache_keys_distinguish_result_shaping_options() {
        let keys: Vec<String> = [
            RequestOptions::default(),
            RequestOptions {
                top_k: Some(1),
                ..RequestOptions::default()
            },
            RequestOptions {
                top_k: Some(2),
                ..RequestOptions::default()
            },
            RequestOptions {
                min_score: Some(0.5),
                ..RequestOptions::default()
            },
            RequestOptions {
                types: Some(vec![ExplanationType::Causal]),
                ..RequestOptions::default()
            },
            RequestOptions {
                deadline_ms: Some(100),
                ..RequestOptions::default()
            },
        ]
        .iter()
        .map(RequestOptions::cache_key)
        .collect();
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "keys must not alias: {keys:?}");
        // `include_provenance` does not shape the cached payload and shares
        // the default key.
        let envelope_only = RequestOptions {
            include_provenance: true,
            ..RequestOptions::default()
        };
        assert_eq!(
            envelope_only.cache_key(),
            RequestOptions::default().cache_key()
        );
        // Every key is tagged.
        assert!(keys.iter().all(|k| k.starts_with("v2")));
    }

    #[test]
    fn ingest_requests_parse_and_validate_against_a_schema() {
        let body = br#"{"model":"m","rows":[
            {"City":"A","Sales":10.5},
            {"City":null,"Sales":2}
        ]}"#;
        let parsed = IngestV2::parse(body).unwrap();
        assert_eq!(parsed.model, "m");
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(
            parsed.rows[0],
            vec![
                ("City".to_owned(), Value::Category("A".into())),
                ("Sales".to_owned(), Value::Number(10.5)),
            ]
        );
        assert_eq!(parsed.rows[1][0].1, Value::Null);
        // Structural validation at parse time.
        assert!(IngestV2::parse(b"{\"model\":\"m\",\"rows\":[]}").is_err());
        assert!(IngestV2::parse(b"{\"model\":\"m\",\"rows\":[1]}").is_err());
        assert!(IngestV2::parse(b"{\"model\":\"m\",\"rows\":[{\"X\":[1]}]}").is_err());

        // Schema validation when assembling the batch.
        let schema = {
            let data = xinsight_data::DatasetBuilder::new()
                .dimension("City", ["A"])
                .measure("Sales", [1.0])
                .build()
                .unwrap();
            data.schema().clone()
        };
        let batch = rows_to_dataset(&schema, &parsed.rows).unwrap();
        assert_eq!(batch.n_rows(), 2);
        assert_eq!(batch.value(0, "City").unwrap(), Value::Category("A".into()));
        assert!(batch.row_has_null(1));
        // Unknown attribute / missing attribute / wrong kind are rejected.
        let unknown = vec![vec![("Ghost".to_owned(), Value::Number(1.0))]];
        assert!(rows_to_dataset(&schema, &unknown).is_err());
        let missing = vec![vec![("City".to_owned(), Value::Category("A".into()))]];
        assert!(rows_to_dataset(&schema, &missing).is_err());
        let wrong_kind = vec![vec![
            ("City".to_owned(), Value::Number(1.0)),
            ("Sales".to_owned(), Value::Number(1.0)),
        ]];
        assert!(rows_to_dataset(&schema, &wrong_kind).is_err());
    }

    #[test]
    fn oversized_ingests_are_rejected() {
        let row = "{\"X\":\"a\"}";
        let rows = vec![row; MAX_INGEST_ROWS + 1].join(",");
        let body = format!("{{\"model\":\"m\",\"rows\":[{rows}]}}");
        assert!(IngestV2::parse(body.as_bytes())
            .unwrap_err()
            .to_string()
            .contains("exceeds"));
    }

    #[test]
    fn explanations_serialize_deterministically() {
        let json = explanation_to_json(&explanation()).to_string();
        assert_eq!(
            json,
            "{\"type\":\"causal\",\"causal_role\":\"parent\",\
             \"predicate\":{\"attribute\":\"Smoking\",\"values\":[\"Yes\"]},\
             \"responsibility\":0.75,\"contingency\":null,\
             \"original_delta\":1.5,\"remaining_delta\":0.25}"
        );
    }

    #[test]
    fn v2_envelopes_round_trip_and_embed_the_result_verbatim() {
        let response = ExplainResponse {
            explanations: vec![ScoredExplanation {
                rank: 1,
                score: 0.75,
                explanation: explanation(),
            }],
            truncated: true,
            deadline_hit: false,
            elapsed: Duration::from_micros(42),
            provenance: Some(Provenance {
                strategy_evaluations: vec![("avg-optimized".to_owned(), 7)],
                attributes_searched: 2,
                attributes_skipped: 0,
                selection_cache: xinsight_stats::CacheStats {
                    hits: 1,
                    misses: 2,
                    entries: 2,
                },
                ci_cache_fit_time: xinsight_stats::CacheStats::default(),
            }),
        };
        let result = v2_result_to_string(&response);
        let doc = Json::parse(&result).unwrap();
        assert!(doc.get("truncated").unwrap().as_bool().unwrap());
        let slot = doc.get("explanations").unwrap().as_arr().unwrap();
        assert_eq!(slot[0].get("rank").unwrap().as_u64().unwrap(), 1);
        assert_eq!(slot[0].get("score").unwrap().as_f64().unwrap(), 0.75);
        assert_eq!(
            slot[0].get("explanation").unwrap().to_string(),
            explanation_to_json(&explanation()).to_string()
        );

        let envelope =
            explain_v2_response("m", false, false, 42, response.provenance.as_ref(), &result);
        let doc = Json::parse(&envelope).unwrap();
        assert_eq!(doc.get("model").unwrap().as_str().unwrap(), "m");
        assert!(!doc.get("cached").unwrap().as_bool().unwrap());
        assert_eq!(doc.get("elapsed_us").unwrap().as_u64().unwrap(), 42);
        let provenance = doc.get("provenance").unwrap();
        assert_eq!(
            provenance
                .get("strategy_evaluations")
                .unwrap()
                .get("avg-optimized")
                .unwrap()
                .as_u64()
                .unwrap(),
            7
        );
        assert_eq!(doc.get("result").unwrap().to_string(), result);

        // Batch envelope: per-slot markers + verbatim results.
        let body = explain_batch_v2_response(
            "m",
            &[
                BatchSlotV2 {
                    cached: true,
                    deadline_hit: false,
                    provenance: None,
                    result: Arc::from(result.as_str()),
                },
                BatchSlotV2 {
                    cached: false,
                    deadline_hit: true,
                    provenance: response.provenance.clone(),
                    result: Arc::from(result.as_str()),
                },
            ],
        );
        let doc = Json::parse(&body).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].get("cached").unwrap().as_bool().unwrap());
        assert!(matches!(results[0].get("provenance").unwrap(), Json::Null));
        assert!(results[1].get("deadline_hit").unwrap().as_bool().unwrap());
        assert!(results[1]
            .get("provenance")
            .unwrap()
            .opt("attributes_searched")
            .is_some());
    }
}
