//! The model registry: warm, swappable [`XInsight`] engines, one per model.
//!
//! A serving process answers queries for many datasets/tenants.  Each is
//! packaged as a **bundle** — three flat files in the registry directory:
//!
//! * `<id>.csv` — the raw dataset (the engine re-applies its persisted
//!   discretizers on load, so the CSV stays the single source of truth),
//! * `<id>.model.json` — the [`FittedModel`] artifact saved by the offline
//!   phase,
//! * `<id>.meta.json` — bundle metadata: which columns are dimensions vs
//!   measures (CSV kind inference alone would mistake numeric-looking
//!   categories), example queries for smoke tests and load generation, and
//!   the fit-time CI-cache counters so `/metrics` can report them even
//!   across persistence.
//!
//! [`ModelRegistry::open`] loads every bundle it finds and keeps the
//! reconstructed engines warm behind `Arc`s.  [`ModelRegistry::load`]
//! re-reads one bundle from disk and **atomically swaps** the new engine
//! into the map: requests already holding the old `Arc` finish against a
//! consistent model, new requests see the new one, and nothing blocks
//! while the (potentially slow) load runs — the write lock is held only
//! for the pointer swap.

// HashMap here never leaks iteration order into output: model map is key-looked-up only; /models output sorts explicitly (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::demo_queries;
use crate::lru::SegmentRef;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xinsight_core::json::Json;
use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_core::{FittedModel, SelectionCache, WhyQuery};
use xinsight_data::{
    read_csv_str, write_csv_string, CsvOptions, DataError, Dataset, Result, Value,
};
use xinsight_stats::CacheStats;

/// Version stamp of the bundle metadata format (v2 added the `store`
/// section: segments / rows / epoch of the engine's segmented store at
/// save time).
pub const META_FORMAT_VERSION: u64 = 2;

/// Byte budget of each model's persistent [`SelectionCache`].  The cache
/// lives as long as the store lineage and grows with every distinct query
/// it serves; the budget caps that growth, and past it the cache evicts by
/// CLOCK (answers never change, only recomputation).  A partial costs
/// about 220 bytes and partials get three quarters of the budget, so
/// 64 MiB keeps some 230k per-segment partials resident; a warm
/// `explain_miss` working set (48 queries over 8 segments) is under 3k.
pub const SELECTION_CACHE_BUDGET_BYTES: usize = 64 << 20;

/// One loaded model: the warm engine plus its serving metadata.
#[derive(Debug)]
pub struct LoadedModel {
    /// Registry id (the bundle file stem).
    pub id: String,
    /// The reconstructed engine, ready to answer queries.
    pub engine: XInsight,
    /// Rows served: the raw bundle rows, plus every row ingested since.
    pub n_rows: usize,
    /// Swap generation: 1 for the first load, +1 per hot-reload **and**
    /// per ingest (each swaps in a new engine, so LRU keys carrying the
    /// generation roll over either way).
    pub generation: u64,
    /// Example queries the bundle ships for smoke tests and load
    /// generation (may be empty).
    pub example_queries: Vec<WhyQuery>,
    /// Example raw rows (serialized JSON objects in the `/v2/ingest` row
    /// shape), derived from the bundle's dataset — ingest templates for
    /// smoke tests and mixed read/write load generation.
    pub example_rows: Vec<String>,
    /// Fit-time CI-test cache counters, restored from the bundle metadata.
    pub ci_cache_stats: CacheStats,
    /// The model's persistent per-segment partial-aggregate cache, shared
    /// across the snapshots of one store lineage and bounded by
    /// [`SELECTION_CACHE_BUDGET_BYTES`]: an ingest clones the `Arc` (the new
    /// engine replays every pre-ingest segment's partials from it and
    /// computes only the new segment — the serving prefix-merge path),
    /// while a reload or compaction installs a fresh cache (the old segment
    /// identities are dead, so keeping the old map would only pin garbage).
    pub selection: Arc<SelectionCache>,
    /// The ordered `(segment id, seal epoch)` fingerprint of this
    /// snapshot's store — the result-cache scope of every answer computed
    /// against it (precomputed here so request handlers don't rebuild it).
    pub fingerprint: Vec<SegmentRef>,
    /// Total global-dictionary categories in this snapshot — the other
    /// half of the result-cache promotion check (a grown dictionary can
    /// move scores even when the new rows miss the query's subspaces).
    pub dict_len: usize,
}

/// Computes the store fingerprint of an engine snapshot.
fn fingerprint_of(engine: &XInsight) -> Vec<SegmentRef> {
    engine
        .data()
        .segments()
        .iter()
        .map(|s| (s.id(), s.epoch()))
        .collect()
}

/// What one completed compaction did, for LRU remapping and `/metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// The compacted model's id.
    pub model: String,
    /// Fingerprint of the snapshot that was compacted — result-cache
    /// entries computed against exactly this set can be remapped.
    pub old_fingerprint: Vec<SegmentRef>,
    /// Fingerprint of the installed snapshot (always one segment).
    pub new_fingerprint: Vec<SegmentRef>,
    /// Segment count before the rewrite.
    pub segments_before: usize,
    /// Segment count after the rewrite (always 1).
    pub segments_after: usize,
    /// Estimated heap bytes released by merging the per-segment columns
    /// and dictionary snapshots (saturating; an estimate, not an audit).
    pub bytes_reclaimed: usize,
    /// Microseconds spent in the off-lock segment rewrite.
    pub rewrite_us: u64,
    /// Microseconds spent validating and performing the pointer swap
    /// (swap-lock held).
    pub swap_us: u64,
}

/// What one completed ingest did, for the compactor/`/debug/traces` span
/// stream: where the wall time went between building the successor engine
/// and swapping it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Microseconds spent materializing the new segment (swap-lock held —
    /// ingests are serialized by design).
    pub build_us: u64,
    /// Microseconds spent performing the pointer swap.
    pub swap_us: u64,
}

/// Thread-safe registry of loaded models, keyed by bundle id.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    options: XInsightOptions,
    models: RwLock<HashMap<String, Arc<LoadedModel>>>,
    /// Serializes engine swaps (bundle loads and ingests) per registry, so
    /// two concurrent ingests cannot both build on the same predecessor
    /// and silently drop one batch.  Readers never take it.
    swap_lock: Mutex<()>,
}

/// Bundle ids double as file stems and appear in wire requests, so they are
/// restricted to a filesystem- and URL-safe alphabet.
pub fn validate_model_id(id: &str) -> Result<()> {
    let ok = !id.is_empty()
        && id.len() <= 128
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(DataError::Serve(format!(
            "invalid model id `{id}` (use [A-Za-z0-9_-], at most 128 chars)"
        )))
    }
}

impl ModelRegistry {
    /// Opens a registry over a directory, loading every `*.meta.json`
    /// bundle found there.  A directory with no bundles is an error — a
    /// server with nothing to serve is a deployment mistake worth failing
    /// loudly on.
    pub fn open(dir: impl AsRef<Path>, options: XInsightOptions) -> Result<Self> {
        let registry = Self::open_empty(dir, options);
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&registry.dir).map_err(|e| {
            DataError::Serve(format!("reading model dir {}: {e}", registry.dir.display()))
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| DataError::Serve(format!("reading model dir: {e}")))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name.strip_suffix(".meta.json") {
                ids.push(id.to_owned());
            }
        }
        if ids.is_empty() {
            return Err(DataError::Serve(format!(
                "no model bundles (*.meta.json) in {}",
                registry.dir.display()
            )));
        }
        ids.sort();
        for id in &ids {
            registry.load(id)?;
        }
        Ok(registry)
    }

    /// Opens a registry with no loaded models (bundles are pulled in later
    /// via [`ModelRegistry::load`]); used by tests and the demo flow.
    pub fn open_empty(dir: impl AsRef<Path>, options: XInsightOptions) -> Self {
        ModelRegistry {
            dir: dir.as_ref().to_owned(),
            options,
            models: RwLock::new(HashMap::new()),
            swap_lock: Mutex::new(()),
        }
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn paths(&self, id: &str) -> (PathBuf, PathBuf, PathBuf) {
        bundle_paths(&self.dir, id)
    }

    /// Loads (or hot-reloads) one bundle from disk and atomically swaps it
    /// into the registry.  In-flight requests keep the `Arc` of the model
    /// they started with; the write lock is held only for the swap itself.
    pub fn load(&self, id: &str) -> Result<Arc<LoadedModel>> {
        validate_model_id(id)?;
        let (meta_path, model_path, csv_path) = self.paths(id);
        let meta = BundleMeta::load(&meta_path)?;
        if meta.id != id {
            return Err(DataError::Serve(format!(
                "bundle {} declares id `{}`",
                meta_path.display(),
                meta.id
            )));
        }
        let csv_text = std::fs::read_to_string(&csv_path)
            .map_err(|e| DataError::Serve(format!("reading {}: {e}", csv_path.display())))?;
        let csv_options = CsvOptions {
            force_dimensions: meta.dimensions.clone(),
            force_measures: meta.measures.clone(),
            ..CsvOptions::default()
        };
        let data = read_csv_str(&csv_text, &csv_options)?;
        let model = FittedModel::load(&model_path)?;
        // Served engines answer each request serially: the worker pool
        // already runs requests side by side, and a second level of
        // fan-out inside a request only adds thread spawns.  Ingested and
        // compacted successors inherit the setting, and `fit_and_save` keeps
        // fitting in parallel.
        let serving = XInsightOptions {
            parallel: false,
            ..self.options.clone()
        };
        let engine = XInsight::from_fitted(&data, model, &serving)?;
        let example_rows = example_rows_of(&data, 4);
        let _guard = self.swap_lock.lock();
        let generation = self
            .models
            .read()
            .get(id)
            .map(|m| m.generation + 1)
            .unwrap_or(1);
        let fingerprint = fingerprint_of(&engine);
        let dict_len = engine.data().dictionary_len();
        let loaded = Arc::new(LoadedModel {
            id: id.to_owned(),
            engine,
            n_rows: data.n_rows(),
            generation,
            example_queries: meta.example_queries,
            example_rows,
            ci_cache_stats: meta.ci_cache_stats,
            selection: Arc::new(SelectionCache::with_budget(SELECTION_CACHE_BUDGET_BYTES)),
            fingerprint,
            dict_len,
        });
        self.models
            .write()
            .insert(id.to_owned(), Arc::clone(&loaded));
        Ok(loaded)
    }

    /// Appends a validated batch of raw rows to one model's segmented
    /// store: builds a successor engine via
    /// [`XInsight::with_ingested`] (the fitted model is shared, only the
    /// new segment is materialized) and **atomically swaps** it in with a
    /// bumped generation.  In-flight requests holding the old `Arc` finish
    /// on their snapshot; nothing is invalidated — the new segment is pure
    /// growth.  Concurrent ingests and reloads are serialized by the
    /// registry's swap lock, so no batch is ever lost.
    ///
    /// The ingest is in-memory: it survives until the next
    /// [`ModelRegistry::load`] of the bundle (which restores the on-disk
    /// state).  Durable ingest would append to the bundle CSV; that is
    /// deliberately out of scope here.
    pub fn ingest(&self, id: &str, batch: &Dataset) -> Result<Arc<LoadedModel>> {
        self.ingest_with_report(id, batch).map(|(loaded, _)| loaded)
    }

    /// [`ModelRegistry::ingest`] plus an [`IngestReport`] attributing the
    /// wall time between the segment build and the pointer swap (feeds the
    /// ingest request's trace spans).
    pub fn ingest_with_report(
        &self,
        id: &str,
        batch: &Dataset,
    ) -> Result<(Arc<LoadedModel>, IngestReport)> {
        let _guard = self.swap_lock.lock();
        let current = self
            .get(id)
            .ok_or_else(|| DataError::Serve(format!("model `{id}` is not loaded")))?;
        let build_started = std::time::Instant::now();
        let engine = current.engine.with_ingested(batch)?;
        let fingerprint = fingerprint_of(&engine);
        let dict_len = engine.data().dictionary_len();
        let loaded = Arc::new(LoadedModel {
            id: id.to_owned(),
            engine,
            n_rows: current.n_rows + batch.n_rows(),
            generation: current.generation + 1,
            example_queries: current.example_queries.clone(),
            example_rows: current.example_rows.clone(),
            ci_cache_stats: current.ci_cache_stats,
            // The lineage is unchanged, so the partial cache stays valid:
            // the successor engine replays the old segments and computes
            // only the new one.
            selection: Arc::clone(&current.selection),
            fingerprint,
            dict_len,
        });
        let swap_started = std::time::Instant::now();
        let build_us = swap_started.duration_since(build_started).as_micros() as u64;
        self.models
            .write()
            .insert(id.to_owned(), Arc::clone(&loaded));
        let swap_us = swap_started.elapsed().as_micros() as u64;
        Ok((loaded, IngestReport { build_us, swap_us }))
    }

    /// Compacts one model's segmented store: rewrites its sealed segments
    /// into a single merged segment (a pure rewrite of immutable data —
    /// same rows, same order, same dictionary codes, byte-identical
    /// answers) and atomically swaps the rewritten engine in with a bumped
    /// generation and a fresh partial cache.
    ///
    /// The expensive rewrite runs **off** the swap lock; the lock is taken
    /// only to validate that the model was not reloaded or ingested into
    /// meanwhile (in which case the rewrite is discarded and `Ok(None)` is
    /// returned — the caller simply retries on its next cycle) and to
    /// perform the pointer swap.  In-flight requests holding the old `Arc`
    /// finish on their snapshot.  Returns `Ok(None)` without doing any
    /// work when the store already has at most one segment.
    pub fn compact(&self, id: &str) -> Result<Option<CompactionReport>> {
        self.compact_with_fault(id, || {})
    }

    /// [`ModelRegistry::compact`] with a fault-injection hook for crash
    /// tests: `fault` runs after the off-lock rewrite and before the swap
    /// is validated — the widest window in which a compactor can die with
    /// work in hand.  A panicking hook unwinds out of this call with the
    /// registry untouched: the partial rewrite is dropped, no lock is
    /// poisoned, and the next call starts clean.
    pub fn compact_with_fault(
        &self,
        id: &str,
        fault: impl FnOnce(),
    ) -> Result<Option<CompactionReport>> {
        let Some(current) = self.get(id) else {
            return Err(DataError::Serve(format!("model `{id}` is not loaded")));
        };
        if current.engine.data().n_segments() <= 1 {
            return Ok(None);
        }
        let bytes = |engine: &XInsight| -> usize {
            engine
                .data()
                .segments()
                .iter()
                .map(|s| s.approx_bytes())
                .sum()
        };
        let bytes_before = bytes(&current.engine);
        let rewrite_started = std::time::Instant::now();
        let engine = current.engine.with_compacted()?;
        let rewrite_us = rewrite_started.elapsed().as_micros() as u64;
        let bytes_after = bytes(&engine);
        fault();
        let mut report = CompactionReport {
            model: id.to_owned(),
            old_fingerprint: current.fingerprint.clone(),
            new_fingerprint: fingerprint_of(&engine),
            segments_before: current.engine.data().n_segments(),
            segments_after: engine.data().n_segments(),
            bytes_reclaimed: bytes_before.saturating_sub(bytes_after),
            rewrite_us,
            swap_us: 0,
        };
        let dict_len = engine.data().dictionary_len();
        let swap_started = std::time::Instant::now();
        let _guard = self.swap_lock.lock();
        let latest = self
            .get(id)
            .ok_or_else(|| DataError::Serve(format!("model `{id}` is not loaded")))?;
        if !Arc::ptr_eq(&latest, &current) {
            // The model moved on (ingest or reload) while we rewrote: the
            // rewrite is stale — discard it and let the next cycle retry.
            return Ok(None);
        }
        let loaded = Arc::new(LoadedModel {
            id: id.to_owned(),
            engine,
            n_rows: current.n_rows,
            generation: current.generation + 1,
            example_queries: current.example_queries.clone(),
            example_rows: current.example_rows.clone(),
            ci_cache_stats: current.ci_cache_stats,
            // A fresh cache: the compacted segment has a new identity, and
            // dropping the old map releases every pre-compaction partial.
            selection: Arc::new(SelectionCache::with_budget(SELECTION_CACHE_BUDGET_BYTES)),
            fingerprint: report.new_fingerprint.clone(),
            dict_len,
        });
        self.models
            .write()
            .insert(id.to_owned(), Arc::clone(&loaded));
        report.swap_us = swap_started.elapsed().as_micros() as u64;
        Ok(Some(report))
    }

    /// The current engine for a model id, if loaded.
    pub fn get(&self, id: &str) -> Option<Arc<LoadedModel>> {
        self.models.read().get(id).cloned()
    }

    /// Loaded model ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.models.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Snapshots of every loaded model, sorted by id.
    pub fn models(&self) -> Vec<Arc<LoadedModel>> {
        let mut models: Vec<Arc<LoadedModel>> = self.models.read().values().cloned().collect();
        models.sort_by(|a, b| a.id.cmp(&b.id));
        models
    }

    /// Fits an engine on `data` and saves the result as a bundle in this
    /// registry's directory (without loading it — call
    /// [`ModelRegistry::load`] for that).  Returns the fitted engine.
    ///
    /// When `example_queries` is empty, a deterministic pool is derived
    /// from the dataset via [`demo_queries`] so every bundle ships
    /// queries for smoke tests and load generation.
    pub fn fit_and_save(
        &self,
        id: &str,
        data: &Dataset,
        example_queries: Vec<WhyQuery>,
    ) -> Result<XInsight> {
        let engine = XInsight::fit(data, &self.options)?;
        let queries = if example_queries.is_empty() {
            demo_queries(data, 8)?
        } else {
            example_queries
        };
        save_bundle(&self.dir, id, data, &engine, &queries)?;
        Ok(engine)
    }
}

/// Serializes the first `limit` raw rows of a dataset as `/v2/ingest`-shaped
/// JSON row objects — the ingest templates `GET /models` advertises so wire
/// clients (the serving smoke test) can write without knowing the schema
/// out of band.
fn example_rows_of(data: &Dataset, limit: usize) -> Vec<String> {
    (0..data.n_rows().min(limit))
        .map(|row| {
            let fields: Vec<(String, Json)> = data
                .schema()
                .iter()
                .map(|meta| {
                    let value = match data.value(row, &meta.name) {
                        Ok(Value::Category(s)) => Json::Str(s),
                        Ok(Value::Number(x)) => Json::Num(x),
                        _ => Json::Null,
                    };
                    (meta.name.clone(), value)
                })
                .collect();
            Json::Obj(fields).to_string()
        })
        .collect()
}

/// The three file paths of a bundle: `(meta, model, csv)`.
pub fn bundle_paths(dir: &Path, id: &str) -> (PathBuf, PathBuf, PathBuf) {
    (
        dir.join(format!("{id}.meta.json")),
        dir.join(format!("{id}.model.json")),
        dir.join(format!("{id}.csv")),
    )
}

/// Saves a fitted engine plus its dataset as a loadable bundle.
///
/// The model artifact is written through [`FittedModel::save`] (atomic
/// rename), so a hot-reloading server never observes a torn model file.
pub fn save_bundle(
    dir: &Path,
    id: &str,
    data: &Dataset,
    engine: &XInsight,
    example_queries: &[WhyQuery],
) -> Result<()> {
    validate_model_id(id)?;
    std::fs::create_dir_all(dir)
        .map_err(|e| DataError::Serve(format!("creating {}: {e}", dir.display())))?;
    let (meta_path, model_path, csv_path) = bundle_paths(dir, id);
    let csv = write_csv_string(data, &CsvOptions::default());
    std::fs::write(&csv_path, csv)
        .map_err(|e| DataError::Serve(format!("writing {}: {e}", csv_path.display())))?;
    engine.fitted_model().save(&model_path)?;
    let schema = data.schema();
    let meta = BundleMeta {
        id: id.to_owned(),
        dimensions: schema
            .dimension_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        measures: schema
            .measure_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        example_queries: example_queries.to_vec(),
        ci_cache_stats: engine.learner_result().ci_cache_stats,
        store: StoreMeta {
            segments: engine.data().n_segments(),
            rows: engine.data().n_rows(),
            epoch: engine.data().epoch(),
        },
    };
    std::fs::write(&meta_path, meta.to_json())
        .map_err(|e| DataError::Serve(format!("writing {}: {e}", meta_path.display())))
}

/// The segmented-store shape of the engine at bundle-save time, surfaced in
/// the bundle metadata so operators can see what a bundle holds without
/// loading it.  (A bundle's CSV is always re-loaded as one base segment;
/// ingested segments are in-memory and not persisted.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreMeta {
    segments: usize,
    rows: usize,
    epoch: u64,
}

/// The decoded `<id>.meta.json` document.
#[derive(Debug, Clone, PartialEq)]
struct BundleMeta {
    id: String,
    dimensions: Vec<String>,
    measures: Vec<String>,
    example_queries: Vec<WhyQuery>,
    ci_cache_stats: CacheStats,
    store: StoreMeta,
}

impl BundleMeta {
    fn to_json(&self) -> String {
        Json::Obj(vec![
            (
                "format_version".to_owned(),
                Json::Num(META_FORMAT_VERSION as f64),
            ),
            ("id".to_owned(), Json::Str(self.id.clone())),
            (
                "dimensions".to_owned(),
                Json::Arr(self.dimensions.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "measures".to_owned(),
                Json::Arr(self.measures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "example_queries".to_owned(),
                Json::Arr(
                    self.example_queries
                        .iter()
                        .map(WhyQuery::to_json_value)
                        .collect(),
                ),
            ),
            (
                "ci_cache".to_owned(),
                Json::Obj(vec![
                    (
                        "hits".to_owned(),
                        Json::Num(self.ci_cache_stats.hits as f64),
                    ),
                    (
                        "misses".to_owned(),
                        Json::Num(self.ci_cache_stats.misses as f64),
                    ),
                ]),
            ),
            (
                "store".to_owned(),
                Json::Obj(vec![
                    ("segments".to_owned(), Json::Num(self.store.segments as f64)),
                    ("rows".to_owned(), Json::Num(self.store.rows as f64)),
                    ("epoch".to_owned(), Json::Num(self.store.epoch as f64)),
                ]),
            ),
        ])
        .to_string()
    }

    fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DataError::Serve(format!("reading {}: {e}", path.display())))?;
        let doc = Json::parse(&text)?;
        let version = doc.get("format_version")?.as_u64()?;
        if version != META_FORMAT_VERSION {
            return Err(DataError::Serve(format!(
                "unsupported bundle meta version {version} (expected {META_FORMAT_VERSION})"
            )));
        }
        let ci = doc.get("ci_cache")?;
        let store = doc.get("store")?;
        Ok(BundleMeta {
            id: doc.get("id")?.as_str()?.to_owned(),
            dimensions: doc.get("dimensions")?.as_string_vec()?,
            measures: doc.get("measures")?.as_string_vec()?,
            example_queries: doc
                .get("example_queries")?
                .as_arr()?
                .iter()
                .map(WhyQuery::from_json_value)
                .collect::<Result<_>>()?,
            ci_cache_stats: CacheStats {
                hits: ci.get("hits")?.as_u64()?,
                misses: ci.get("misses")?.as_u64()?,
                entries: 0,
            },
            store: StoreMeta {
                segments: store.get("segments")?.as_u64()? as usize,
                rows: store.get("rows")?.as_u64()? as usize,
                epoch: store.get("epoch")?.as_u64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, DatasetBuilder, Subspace};

    fn tiny_data() -> Dataset {
        let mut loc = Vec::new();
        let mut smoking = Vec::new();
        let mut severity = Vec::new();
        for i in 0..120 {
            let a = i % 2 == 0;
            loc.push(if a { "A" } else { "B" });
            let smokes = if a { i % 10 < 8 } else { i % 10 < 2 };
            smoking.push(if smokes { "Yes" } else { "No" });
            severity.push(if smokes { 2.0 + (i % 3) as f64 } else { 1.0 });
        }
        DatasetBuilder::new()
            .dimension("Location", loc)
            .dimension("Smoking", smoking)
            .measure("Severity", severity)
            .build()
            .unwrap()
    }

    fn explain(engine: &XInsight, query: &WhyQuery) -> Vec<xinsight_core::Explanation> {
        engine
            .execute(&xinsight_core::ExplainRequest::new(query.clone()))
            .unwrap()
            .into_explanations()
    }

    fn tiny_query() -> WhyQuery {
        WhyQuery::new(
            "Severity",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xinsight_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_serves_identical_answers() {
        let dir = temp_dir("round_trip");
        let data = tiny_data();
        let options = XInsightOptions::default();
        let registry = ModelRegistry::open_empty(&dir, options.clone());
        let engine = registry
            .fit_and_save("tiny", &data, vec![tiny_query()])
            .unwrap();
        let direct = explain(&engine, &tiny_query());

        let reopened = ModelRegistry::open(&dir, options).unwrap();
        assert_eq!(reopened.ids(), vec!["tiny".to_owned()]);
        let loaded = reopened.get("tiny").unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.n_rows, data.n_rows());
        assert_eq!(loaded.example_queries, vec![tiny_query()]);
        // Fit-time CI cache counters survive persistence.
        assert!(loaded.ci_cache_stats.lookups() > 0);
        assert_eq!(
            loaded.ci_cache_stats.misses,
            engine.learner_result().ci_cache_stats.misses
        );
        assert_eq!(explain(&loaded.engine, &tiny_query()), direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_reload_swaps_generations_and_keeps_old_arcs_valid() {
        let dir = temp_dir("reload");
        let data = tiny_data();
        let options = XInsightOptions::default();
        let registry = ModelRegistry::open_empty(&dir, options.clone());
        registry
            .fit_and_save("m", &data, vec![tiny_query()])
            .unwrap();
        let first = registry.load("m").unwrap();
        assert_eq!(first.generation, 1);
        let second = registry.load("m").unwrap();
        assert_eq!(second.generation, 2);
        // The old Arc still answers (in-flight requests are unaffected).
        assert_eq!(
            explain(&first.engine, &tiny_query()),
            explain(&second.engine, &tiny_query())
        );
        assert_eq!(registry.get("m").unwrap().generation, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_swaps_generation_and_grows_the_store() {
        let dir = temp_dir("ingest");
        let data = tiny_data();
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        registry
            .fit_and_save("m", &data, vec![tiny_query()])
            .unwrap();
        let first = registry.load("m").unwrap();
        assert_eq!(first.engine.data().n_segments(), 1);
        assert!(!first.example_rows.is_empty());
        // Ingest a small batch (here: a re-send of the first six raw rows).
        let batch = data
            .filter_rows(&xinsight_data::RowMask::from_bools(
                (0..data.n_rows()).map(|i| i < 6),
            ))
            .unwrap();
        let second = registry.ingest("m", &batch).unwrap();
        assert_eq!(second.generation, first.generation + 1);
        assert_eq!(second.engine.data().n_segments(), 2);
        assert_eq!(second.engine.data().epoch(), 1);
        assert_eq!(second.n_rows, first.n_rows + 6);
        assert_eq!(registry.get("m").unwrap().generation, second.generation);
        // The pre-ingest snapshot is untouched (in-flight requests finish
        // on the store they started with).
        assert_eq!(first.engine.data().n_segments(), 1);
        // A reload restores the on-disk state: ingest is in-memory.
        let reloaded = registry.load("m").unwrap();
        assert_eq!(reloaded.engine.data().n_segments(), 1);
        assert_eq!(reloaded.generation, second.generation + 1);
        // Ingesting into an unknown id is a structured error.
        assert!(registry.ingest("ghost", &batch).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn first_rows(data: &Dataset, n: usize) -> Dataset {
        data.filter_rows(&xinsight_data::RowMask::from_bools(
            (0..data.n_rows()).map(|i| i < n),
        ))
        .unwrap()
    }

    #[test]
    fn compaction_merges_segments_and_preserves_answers() {
        let dir = temp_dir("compact");
        let data = tiny_data();
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        registry
            .fit_and_save("m", &data, vec![tiny_query()])
            .unwrap();
        registry.load("m").unwrap();
        registry.ingest("m", &first_rows(&data, 6)).unwrap();
        let before = registry.ingest("m", &first_rows(&data, 4)).unwrap();
        assert_eq!(before.engine.data().n_segments(), 3);
        let baseline = explain(&before.engine, &tiny_query());

        let report = registry.compact("m").unwrap().expect("3 segments merge");
        assert_eq!(report.segments_before, 3);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.old_fingerprint, before.fingerprint);
        assert!(report.bytes_reclaimed > 0, "merged dictionaries shrink");

        let after = registry.get("m").unwrap();
        assert_eq!(after.generation, before.generation + 1);
        assert_eq!(after.fingerprint, report.new_fingerprint);
        assert_eq!(after.engine.data().n_segments(), 1);
        assert_eq!(after.n_rows, before.n_rows);
        // Compaction installs a fresh partial cache; ingest had shared it.
        assert!(!Arc::ptr_eq(&after.selection, &before.selection));
        // The rewrite is answer-preserving, and the old snapshot still
        // serves (in-flight requests are unaffected).
        assert_eq!(explain(&after.engine, &tiny_query()), baseline);
        assert_eq!(explain(&before.engine, &tiny_query()), baseline);
        // Already compact: a no-op.  Unknown id: a structured error.
        assert!(registry.compact("m").unwrap().is_none());
        assert!(registry.compact("ghost").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_engines_run_serially_and_answer_like_a_parallel_batch() {
        let dir = temp_dir("serial");
        let data = tiny_data();
        let options = XInsightOptions::default();
        assert!(options.parallel, "the registry is handed parallel options");
        let registry = ModelRegistry::open_empty(&dir, options);
        let fitted = registry
            .fit_and_save("m", &data, vec![tiny_query()])
            .unwrap();
        assert!(fitted.options().parallel, "fits stay parallel");
        let batch = first_rows(&data, 6);
        let loaded = registry.load("m").unwrap();
        let ingested = registry.ingest("m", &batch).unwrap();
        registry.compact("m").unwrap().expect("two segments merge");
        let compacted = registry.get("m").unwrap();

        // Four requests, so the parallel reference really fans out.
        let (a, b) = (Subspace::of("Location", "A"), Subspace::of("Location", "B"));
        let requests: Vec<xinsight_core::ExplainRequest> = [Aggregate::Avg, Aggregate::Sum]
            .into_iter()
            .flat_map(|agg| {
                [(a.clone(), b.clone()), (b.clone(), a.clone())].map(|(s1, s2)| {
                    xinsight_core::ExplainRequest::new(
                        WhyQuery::new("Severity", agg, s1, s2).unwrap(),
                    )
                })
            })
            .collect();
        let bytes = |engine: &XInsight| -> Vec<String> {
            engine
                .execute_batch(&requests)
                .unwrap()
                .iter()
                .map(crate::wire::v2_result_to_string)
                .collect()
        };
        // The parallel references: the fitted engine over the same
        // segment sets the registry built.
        let grown = fitted.with_ingested(&batch).unwrap();
        let references = [
            (&loaded, bytes(&fitted)),
            (&ingested, bytes(&grown)),
            (&compacted, bytes(&grown.with_compacted().unwrap())),
        ];
        for (served, reference) in references {
            assert!(
                !served.engine.options().parallel,
                "generation {} must serve serially",
                served.generation
            );
            assert_eq!(
                bytes(&served.engine),
                reference,
                "generation {}",
                served.generation
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_compaction_rewrites_are_discarded() {
        let dir = temp_dir("compact_race");
        let data = tiny_data();
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        registry
            .fit_and_save("m", &data, vec![tiny_query()])
            .unwrap();
        registry.load("m").unwrap();
        registry.ingest("m", &first_rows(&data, 6)).unwrap();
        // An ingest lands in the window between the rewrite and the swap:
        // the finished rewrite no longer covers the store and must be
        // discarded, keeping the raced-in batch.
        let raced = registry
            .compact_with_fault("m", || {
                registry.ingest("m", &first_rows(&data, 4)).unwrap();
            })
            .unwrap();
        assert!(raced.is_none(), "stale rewrite must be discarded");
        let current = registry.get("m").unwrap();
        assert_eq!(current.engine.data().n_segments(), 3);
        assert_eq!(current.n_rows, data.n_rows() + 10);
        // The next cycle compacts the post-race store just fine.
        let report = registry.compact("m").unwrap().expect("retry succeeds");
        assert_eq!(report.segments_before, 3);
        assert_eq!(registry.get("m").unwrap().n_rows, data.n_rows() + 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_ids_and_missing_bundles_are_structured_errors() {
        let dir = temp_dir("errors");
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        assert!(registry.load("../escape").is_err());
        assert!(registry.load("").is_err());
        assert!(registry.load("no_such_model").is_err());
        assert!(validate_model_id("ok-id_3").is_ok());
        assert!(validate_model_id("bad/id").is_err());
        // Opening an empty directory is a loud failure.
        assert!(ModelRegistry::open(&dir, XInsightOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_id_mismatch_is_rejected() {
        let dir = temp_dir("mismatch");
        let data = tiny_data();
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        registry
            .fit_and_save("real", &data, vec![tiny_query()])
            .unwrap();
        // Copy the bundle under a different stem: the declared id no longer
        // matches.
        for suffix in [".meta.json", ".model.json", ".csv"] {
            std::fs::copy(
                dir.join(format!("real{suffix}")),
                dir.join(format!("fake{suffix}")),
            )
            .unwrap();
        }
        assert!(registry.load("fake").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
