//! An in-process replica of the server's request path, composed from the
//! same public functions its handlers call, against a registry opened on
//! the same bundle.  It supplies the expected answers of the answer check
//! and, with a recording [`Tracer`], the per-layer spans.

use crate::trace::Tracer;
use crate::util::{Ctx, Res};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xinsight_core::json::Json;
use xinsight_core::pipeline::XInsightOptions;
use xinsight_core::xplainer::{SearchStrategy, XPlainer, XPlainerOptions};
use xinsight_core::{translate, ExplainRequest, Provenance, WhyQuery};
use xinsight_data::{Aggregate, AttributeKind, Subspace};
use xinsight_graph::separation::m_separated;
use xinsight_service::http::{encode_response, RequestParser, Response};
use xinsight_service::wire::{
    explain_v2_response, rows_to_dataset, v2_result_to_string, ExplainV2, IngestV2,
};
use xinsight_service::{CacheKey, LoadedModel, Lookup, ModelRegistry, ResultCache};
use xinsight_stats::CacheStats;

pub struct Replica {
    pub registry: ModelRegistry,
    pub cache: ResultCache,
    /// The model `expected` answers against.
    pub model: String,
    compact_after: usize,
    /// Fresh `Δ(·)` evaluations the engine reported, over the executes whose
    /// request asked for provenance.
    pub delta_evals: usize,
    pub provenance_executes: usize,
    pub executes: usize,
    /// The engine request of the last traced miss, broken down by
    /// [`Replica::breakdown`] once its request span has closed.
    pending: Option<(String, ExplainRequest)>,
}

/// The expected answer to one key: the result payload and provenance.
pub struct Expected {
    pub result: String,
    pub provenance: Option<Provenance>,
}

impl Replica {
    pub fn open(
        dir: &Path,
        model: &str,
        cache_mb: usize,
        compact_after: usize,
        t: &mut Tracer,
    ) -> Res<Replica> {
        let registry = t.span("registry.load", |_| {
            ModelRegistry::open(dir, XInsightOptions::default()).ctx("opening replica registry")
        })?;
        Ok(Replica {
            registry,
            cache: ResultCache::new(cache_mb << 20),
            model: model.to_owned(),
            compact_after,
            delta_evals: 0,
            provenance_executes: 0,
            executes: 0,
            pending: None,
        })
    }

    pub fn get(&self, id: &str) -> Res<Arc<LoadedModel>> {
        self.registry
            .get(id)
            .ok_or_else(|| format!("model `{id}` not loaded in replica"))
    }

    /// Applies one ingest body, as `POST /v2/ingest` does.
    pub fn ingest(&mut self, body: &str) -> Res<()> {
        self.ingest_traced(body.as_bytes(), &mut Tracer::new(false))
            .map(drop)
    }

    /// `execute` on the current snapshot through its persistent selection
    /// cache, as the server's miss path does.
    pub fn expected(&self, options: &str, query: &WhyQuery) -> Res<Expected> {
        let model = self.get(&self.model)?;
        let request = engine_request(options, query)?;
        let mut response = model
            .engine
            .execute_with_cache(&request, Arc::clone(&model.selection))
            .ctx("replica execute")?;
        if let Some(p) = response.provenance.as_mut() {
            p.ci_cache_fit_time = model.ci_cache_stats;
        }
        Ok(Expected {
            result: v2_result_to_string(&response),
            provenance: response.provenance,
        })
    }

    /// Serves one raw request the way `xinsight-serve` routes and handles
    /// `/v2/explain` and `/v2/ingest`, one span per layer call.
    pub fn handle(&mut self, raw: &[u8], t: &mut Tracer) -> Res<Vec<u8>> {
        let request = t.span("http.parse", |_| {
            let mut parser = RequestParser::new();
            parser.feed(raw);
            parser.try_parse()
        });
        let request = match request {
            Ok(Some(r)) => r,
            _ => return Err("replica could not frame a request".into()),
        };
        let body = match request.path.as_str() {
            "/v2/explain" => self.explain(&request.body, t)?,
            "/v2/ingest" => self.ingest_traced(&request.body, t)?,
            other => return Err(format!("replica has no route for {other}")),
        };
        Ok(t.span("http.encode", |_| {
            encode_response(&Response::json(200, body), false)
        }))
    }

    fn explain(&mut self, body: &[u8], t: &mut Tracer) -> Res<String> {
        let started = Instant::now();
        let request = t.span("wire.decode", |_| {
            ExplainV2::parse(body).ctx("explain body")
        })?;
        let model = t.span("registry.get", |_| self.get(&request.model))?;
        let (key, lookup) = t.span("lru.lookup", |_| {
            let key = CacheKey {
                model: model.id.clone(),
                query: request.query.clone(),
                options: request.options.cache_key(),
            };
            let lookup = resolve(&self.cache, &model, &key);
            (key, lookup)
        });
        let merge = match lookup {
            Resolved::Hit(hit) => {
                let elapsed_us = started.elapsed().as_micros() as u64;
                return Ok(t.span("wire.encode", |_| {
                    explain_v2_response(&model.id, true, false, elapsed_us, None, &hit)
                }));
            }
            Resolved::Merge => true,
            Resolved::Miss => false,
        };
        let engine_request = request.options.to_engine_request(request.query);
        let mut response = t.span("pipeline.execute", |_| {
            model
                .engine
                .execute_with_cache(&engine_request, Arc::clone(&model.selection))
                .ctx("replica execute")
        })?;
        self.executes += 1;
        // When the client asked for provenance, its strategy counts are the
        // exact fresh `Δ(·)` evaluations of this execute.
        if let Some(p) = &response.provenance {
            self.provenance_executes += 1;
            self.delta_evals += p.strategy_evaluations.iter().map(|(_, n)| n).sum::<usize>();
        }
        if t.on {
            self.pending = Some((model.id.clone(), engine_request));
        }
        if merge {
            self.cache.merged();
        }
        if let Some(p) = response.provenance.as_mut() {
            p.ci_cache_fit_time = model.ci_cache_stats;
        }
        let result: Arc<str> = t.span("wire.encode", |_| {
            Arc::from(v2_result_to_string(&response).as_str())
        });
        t.span("lru.insert", |_| {
            self.cache.insert(
                key,
                model.fingerprint.clone(),
                model.dict_len,
                Arc::clone(&result),
            )
        });
        let elapsed_us = started.elapsed().as_micros() as u64;
        Ok(t.span("wire.encode", |_| {
            explain_v2_response(
                &model.id,
                false,
                response.deadline_hit,
                elapsed_us,
                response.provenance.as_ref(),
                &result,
            )
        }))
    }

    fn ingest_traced(&mut self, body: &[u8], t: &mut Tracer) -> Res<String> {
        let (id, batch) = t.span("wire.rows_decode", |_| -> Res<_> {
            let request = IngestV2::parse(body).ctx("ingest body")?;
            let model = self.get(&request.model)?;
            let batch =
                rows_to_dataset(model.engine.raw_schema(), &request.rows).ctx("ingest rows")?;
            Ok((request.model, batch))
        })?;
        let (loaded, _) = t.span("registry.ingest", |_| {
            self.registry
                .ingest_with_report(&id, &batch)
                .ctx("replica ingest")
        })?;
        let store = loaded.engine.data();
        let sealed = store.segments().last().map(|s| s.n_rows()).unwrap_or(0);
        let answer = format!(
            "{{\"model\":\"{}\",\"ingested\":{},\"dropped_null_rows\":{},\"rows\":{},\
             \"segments\":{},\"epoch\":{},\"generation\":{}}}",
            loaded.id,
            sealed,
            batch.n_rows().saturating_sub(sealed),
            store.n_rows(),
            store.n_segments(),
            store.epoch(),
            loaded.generation
        );
        // The server compacts in the background once a store holds
        // `compact_after` segments; the replica does it inline.
        if self.compact_after >= 2 && store.n_segments() >= self.compact_after {
            let report = t.span("registry.compact", |_| {
                self.registry.compact(&id).ctx("replica compaction")
            })?;
            if let Some(report) = report {
                self.cache
                    .remap_model(&id, &report.old_fingerprint, &report.new_fingerprint);
            }
        }
        Ok(answer)
    }

    /// Splits the last traced miss into the calls `execute_with_cache`
    /// makes: orientation and `Δ` over the segments, XTranslator, then one
    /// XPlainer search per candidate attribute, named by strategy.  Runs as
    /// its own root after the request, on the same selection cache, so it
    /// adds nothing to the request's spans.
    pub fn breakdown(&mut self, t: &mut Tracer) -> Res<()> {
        let Some((id, request)) = self.pending.take() else {
            return Ok(());
        };
        let request = &request;
        let model = self.get(&id)?;
        let model = &*model;
        let options = XInsightOptions::default();
        let store = model.engine.data();
        let graph = model.engine.graph();
        t.span("engine.breakdown", |t| -> Res<()> {
            let query = t.span("segment.delta", |_| -> Res<WhyQuery> {
                let query = request.query().oriented_store(store).ctx("orienting")?;
                std::hint::black_box(query.delta_store(store).ctx("delta")?);
                Ok(query)
            })?;
            let translation = t.span("xtranslator.translate", |_| translate(graph, &query));
            let mut skip = vec![query.measure(), query.foreground()];
            skip.extend(query.background());
            let xplainer = XPlainer::new(XPlainerOptions {
                parallel: options.parallel && options.xplainer.parallel,
                ..options.xplainer.clone()
            });
            let span = match (options.strategy, query.aggregate()) {
                (SearchStrategy::BruteForce, _) | (_, Aggregate::Min | Aggregate::Max) => {
                    "xplainer.brute"
                }
                (_, Aggregate::Avg) => "xplainer.avg",
                _ => "xplainer.sum",
            };
            for (variable, semantics) in translation.iter() {
                let allowed = match (request.types(), semantics.explanation_type()) {
                    (None, _) => true,
                    (Some(allow), Some(kind)) => allow.contains(&kind),
                    (Some(_), None) => false,
                };
                if skip.contains(&variable) || !semantics.has_explainability() || !allowed {
                    continue;
                }
                let binned = format!("{variable}_bin");
                let attribute = if store.schema().attribute_by_name(&binned).is_ok() {
                    binned
                } else {
                    variable.to_owned()
                };
                let is_dimension = store
                    .schema()
                    .attribute_by_name(&attribute)
                    .is_ok_and(|a| a.kind == AttributeKind::Dimension);
                if !is_dimension {
                    continue;
                }
                let homogeneous = match (graph.id(variable), graph.id(query.foreground())) {
                    (Some(x), Some(f)) => {
                        let cond: Vec<_> = query
                            .background()
                            .iter()
                            .filter_map(|b| graph.id(b))
                            .collect();
                        m_separated(graph, x, f, &cond)
                    }
                    _ => false,
                };
                t.span(span, |_| {
                    xplainer
                        .explain_attribute_cached(
                            store,
                            &query,
                            &attribute,
                            options.strategy,
                            homogeneous,
                            Arc::clone(&model.selection),
                        )
                        .ctx("xplainer search")
                })?;
            }
            Ok(())
        })
    }
}

enum Resolved {
    Hit(Arc<str>),
    Merge,
    Miss,
}

/// The server's cache resolution: exact hit, prefix promotion when no
/// newer segment touches either sibling subspace and the dictionary is
/// unchanged, otherwise a merge through the partial cache, or a miss.
fn resolve(cache: &ResultCache, model: &LoadedModel, key: &CacheKey) -> Resolved {
    match cache.lookup(key, &model.fingerprint, model.dict_len) {
        Lookup::Hit(value) => Resolved::Hit(value),
        Lookup::Prefix {
            prefix,
            dict_unchanged,
        } => {
            let store = model.engine.data();
            let untouched = |segment, subspace: &Subspace| {
                model
                    .selection
                    .subspace_mask(store, segment, subspace)
                    .map(|mask| mask.is_none_selected())
                    .unwrap_or(false)
            };
            let promotable = dict_unchanged
                && store.segments()[prefix.len()..]
                    .iter()
                    .all(|s| untouched(s, key.query.s1()) && untouched(s, key.query.s2()));
            if !promotable {
                return Resolved::Merge;
            }
            match cache.promote(key, &model.fingerprint, model.dict_len) {
                Some(value) => Resolved::Hit(value),
                None => Resolved::Miss,
            }
        }
        Lookup::Miss => Resolved::Miss,
    }
}

/// The engine request a `/v2/explain` options object maps to.
pub fn engine_request(options: &str, query: &WhyQuery) -> Res<ExplainRequest> {
    let doc = Json::parse(options).ctx("options JSON")?;
    let options = xinsight_service::wire::RequestOptions::parse(Some(&doc)).ctx("options")?;
    Ok(options.to_engine_request(query.clone()))
}

/// Checks one served `/v2/explain` body byte for byte: the envelope is
/// rebuilt with `explain_v2_response` from the expected payload, taking
/// from the served bytes only what legitimately differs between two
/// processes — `cached`, `elapsed_us`, and the cumulative selection-cache
/// counters inside a freshly computed provenance.
pub fn served_matches(model: &str, served: &str, expected: &Expected) -> bool {
    let Ok(doc) = Json::parse(served) else {
        return false;
    };
    let (Ok(cached), Ok(elapsed_us)) = (
        doc.get("cached").and_then(Json::as_bool),
        doc.get("elapsed_us").and_then(Json::as_u64),
    ) else {
        return false;
    };
    let provenance = match (doc.opt("provenance"), &expected.provenance) {
        (Some(Json::Null) | None, _) => None,
        (Some(served_p), Some(p)) => {
            let counter = |name: &str| {
                served_p
                    .get("selection_cache")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX)
            };
            let mut p = p.clone();
            p.selection_cache = CacheStats {
                hits: counter("hits"),
                misses: counter("misses"),
                ..p.selection_cache
            };
            Some(p)
        }
        (Some(_), None) => return false,
    };
    // A cached answer carries no provenance; a fresh one must carry it
    // exactly when the request asked for it.
    if !cached && provenance.is_none() != expected.provenance.is_none() {
        return false;
    }
    served
        == explain_v2_response(
            model,
            cached,
            false,
            elapsed_us,
            provenance.as_ref(),
            &expected.result,
        )
}
