//! Demo model bundles and deterministic query pools.
//!
//! The serving layer needs real, fitted models to exercise — for the
//! `xinsight-serve --demo` flag, the serving smoke test, the xbench
//! benchmark and the integration tests.  This module builds them
//! from the workspace's own generators: a SYN-A instance augmented with a
//! synthetic measure (SYN-A data is purely categorical, but a Why Query
//! aggregates a measure), and the FLIGHT case-study simulator.
//!
//! [`demo_queries`] also serves as the generic example-query derivation
//! for any bundle saved without explicit queries: a deterministic pool of
//! sibling-subspace queries spread over the dataset's dimensions, category
//! pairs and aggregate functions, so load generation gets realistic
//! variety (distinct cache keys) without shipping a query log.

use crate::registry::ModelRegistry;
use xinsight_core::WhyQuery;
use xinsight_data::{Aggregate, Dataset, DatasetBuilder, Result, Subspace};
use xinsight_synth::{flight, syn_a};

/// The demo models the serving binaries can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoModel {
    /// A SYN-A causal-discovery instance with an added synthetic measure.
    SynA,
    /// The FLIGHT case-study simulator (Fig. 6 of the paper).
    Flight,
}

impl DemoModel {
    /// The registry id the bundle is saved under.
    pub fn id(&self) -> &'static str {
        match self {
            DemoModel::SynA => "syn_a",
            DemoModel::Flight => "flight",
        }
    }

    /// Parses a demo model name (`syn_a` / `flight`).
    pub fn parse(name: &str) -> Option<DemoModel> {
        match name {
            "syn_a" => Some(DemoModel::SynA),
            "flight" => Some(DemoModel::Flight),
            _ => None,
        }
    }

    /// Builds the demo dataset and its example queries.  `n_rows == 0`
    /// picks a default sized for a few-second fit.
    pub fn build(&self, n_rows: usize) -> Result<(Dataset, Vec<WhyQuery>)> {
        match self {
            DemoModel::SynA => {
                let n = if n_rows == 0 { 1200 } else { n_rows };
                let data = syn_a_serving_data(n, 7)?;
                let queries = demo_queries(&data, 8)?;
                Ok((data, queries))
            }
            DemoModel::Flight => {
                let n = if n_rows == 0 { 4000 } else { n_rows };
                let data = flight::generate(n, 1);
                let mut queries = vec![flight::why_query()];
                queries.extend(demo_queries(&data, 7)?);
                Ok((data, queries))
            }
        }
    }
}

/// A SYN-A instance reshaped for serving: the observed categorical
/// variables plus a synthetic measure `M` that is a deterministic weighted
/// combination of the variables' category codes — so the learned graph has
/// a measure node to explain and queries have non-trivial answers.
pub fn syn_a_serving_data(n_rows: usize, seed: u64) -> Result<Dataset> {
    let instance = syn_a::generate(&syn_a::SynAOptions {
        n_core_variables: 7,
        n_rows,
        seed,
        fd_nodes_per_leaf: 1,
        ..syn_a::SynAOptions::default()
    });
    let data = instance.data;
    let dims: Vec<String> = data
        .schema()
        .dimension_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut measure = vec![0.0f64; data.n_rows()];
    for (i, name) in dims.iter().enumerate() {
        let column = data.dimension(name)?;
        let weight = 1.0 / (i + 1) as f64;
        for (row, value) in measure.iter_mut().enumerate() {
            *value += column.code(row) as f64 * weight;
        }
    }
    let mut builder = DatasetBuilder::new();
    for name in &dims {
        builder = builder.dimension_column(name, data.dimension(name)?.clone());
    }
    builder.measure("M", measure).build()
}

/// Derives a deterministic pool of up to `limit` valid Why Queries from a
/// dataset: for each dimension with at least two categories, sibling
/// single-filter subspaces over adjacent category pairs, crossed with the
/// dataset's measures and a rotating aggregate (`AVG`, `SUM`, `COUNT`).
pub fn demo_queries(data: &Dataset, limit: usize) -> Result<Vec<WhyQuery>> {
    const AGGREGATES: [Aggregate; 3] = [Aggregate::Avg, Aggregate::Sum, Aggregate::Count];
    let measures = data.schema().measure_names();
    let mut queries = Vec::new();
    if measures.is_empty() {
        return Ok(queries);
    }
    let mut round = 0usize;
    // Rotate through (category pair) × dimension × measure so the first few
    // queries already cover several dimensions.
    while queries.len() < limit {
        let mut grew = false;
        for dim in data.schema().dimension_names() {
            let categories = data.dimension(dim)?.categories();
            if categories.len() < 2 || round + 1 >= categories.len() {
                continue;
            }
            for measure in &measures {
                if queries.len() >= limit {
                    break;
                }
                let aggregate = AGGREGATES[queries.len() % AGGREGATES.len()];
                queries.push(WhyQuery::new(
                    *measure,
                    aggregate,
                    Subspace::of(dim, categories[round].as_ref()),
                    Subspace::of(dim, categories[round + 1].as_ref()),
                )?);
                grew = true;
            }
        }
        if !grew {
            break;
        }
        round += 1;
    }
    Ok(queries)
}

/// A deterministic pool of `/v2/explain` options objects (pre-serialized
/// JSON), rotating through the per-request controls — different `top_k`s,
/// a score floor, a causal-only allowlist, provenance — so v2 load
/// generation exercises distinct LRU keys and every response shape without
/// shipping a request log.  The pool repeats cyclically up to `limit`.
pub fn demo_v2_options(limit: usize) -> Vec<String> {
    const POOL: [&str; 6] = [
        "{}",
        "{\"top_k\":1}",
        "{\"top_k\":3}",
        "{\"min_score\":0.05}",
        "{\"types\":[\"causal\"]}",
        "{\"top_k\":2,\"include_provenance\":true}",
    ];
    (0..limit)
        .map(|i| POOL[i % POOL.len()].to_owned())
        .collect()
}

/// Fits and saves the requested demo bundles into the registry's
/// directory, returning their ids.  `n_rows == 0` uses each model's
/// default scale.
pub fn build_demo_bundles(
    registry: &ModelRegistry,
    which: &[DemoModel],
    n_rows: usize,
) -> Result<Vec<String>> {
    let mut ids = Vec::new();
    for model in which {
        let (data, queries) = model.build(n_rows)?;
        registry.fit_and_save(model.id(), &data, queries)?;
        ids.push(model.id().to_owned());
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_a_serving_data_has_a_measure_and_dimensions() {
        let data = syn_a_serving_data(300, 3).unwrap();
        assert_eq!(data.schema().measure_names(), vec!["M"]);
        assert!(data.schema().dimension_names().len() >= 5);
        assert_eq!(data.n_rows(), 300);
    }

    #[test]
    fn demo_queries_are_valid_and_deterministic() {
        let data = flight::generate(500, 1);
        let queries = demo_queries(&data, 8).unwrap();
        assert_eq!(queries.len(), 8);
        assert_eq!(queries, demo_queries(&data, 8).unwrap());
        // Every query evaluates (possibly to an undefined Δ on an empty
        // side, but construction itself is valid and sibling-checked).
        for q in &queries {
            assert!(!q.measure().is_empty());
            assert!(WhyQuery::from_json(&q.to_json()).is_ok());
        }
        // Several distinct dimensions are covered.
        let foregrounds: std::collections::HashSet<&str> =
            queries.iter().map(|q| q.foreground()).collect();
        assert!(foregrounds.len() >= 2, "got {foregrounds:?}");
    }

    #[test]
    fn v2_option_pool_is_deterministic_and_parseable() {
        let pool = demo_v2_options(8);
        assert_eq!(pool.len(), 8);
        assert_eq!(pool, demo_v2_options(8));
        assert_eq!(pool[0], pool[6], "pool repeats cyclically");
        for options in &pool {
            let doc = xinsight_core::json::Json::parse(options).unwrap();
            crate::wire::RequestOptions::parse(Some(&doc)).unwrap();
        }
        // The pool produces several distinct LRU key suffixes.
        let keys: std::collections::HashSet<String> = demo_v2_options(6)
            .iter()
            .map(|options| {
                let doc = xinsight_core::json::Json::parse(options).unwrap();
                crate::wire::RequestOptions::parse(Some(&doc))
                    .unwrap()
                    .cache_key()
            })
            .collect();
        assert!(keys.len() >= 5, "got {keys:?}");
    }

    #[test]
    fn datasets_without_measures_yield_no_queries() {
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "b", "a"])
            .build()
            .unwrap();
        assert!(demo_queries(&data, 4).unwrap().is_empty());
    }
}
