//! Edge cases of the id-keyed `SelectionCache`: one long-lived cache,
//! carried across queries and ingests the way the serving layer holds a
//! model's cache, must answer every request exactly as a fresh, unbounded
//! cache does — bit for bit, through dictionary growth, values missing from
//! the dictionary, an attribute with hundreds of categories, and a byte
//! budget small enough to evict.

use std::sync::Arc;
use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_core::{ExplainRequest, SearchStrategy, SelectionCache, WhyQuery, XPlainer};
use xinsight_data::{Aggregate, Dataset, DatasetBuilder, Filter, Subspace};

/// Categories of the wide attribute.
const WIDE: usize = 300;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// `Region` (the sibling attribute), a small `Kind` that drives `Sales`,
/// and a `Store` attribute with [`WIDE`] categories.  `kinds` lists the
/// `Kind` categories to draw from.
fn rows(n: usize, seed: u64, kinds: &[&str]) -> Dataset {
    let mut next = lcg(seed);
    let (mut region, mut kind, mut store, mut sales) = (vec![], vec![], vec![], vec![]);
    for _ in 0..n {
        let a = next().is_multiple_of(2);
        let k = (next() % kinds.len() as u64) as usize;
        region.push(if a { "A" } else { "B" });
        kind.push(kinds[k]);
        store.push(format!("s{}", next() % WIDE as u64));
        let boost = if a && k == 0 { 40.0 } else { 0.0 };
        sales.push(10.0 + boost + (next() % 7) as f64);
    }
    DatasetBuilder::new()
        .dimension("Region", region)
        .dimension("Kind", kind)
        .dimension("Store", store.iter().map(String::as_str))
        .measure("Sales", sales)
        .build()
        .unwrap()
}

fn engine() -> XInsight {
    XInsight::fit(
        &rows(1200, 7, &["k0", "k1", "k2"]),
        &XInsightOptions::default(),
    )
    .unwrap()
}

fn query(aggregate: Aggregate, s1: Subspace, s2: Subspace) -> WhyQuery {
    WhyQuery::new("Sales", aggregate, s1, s2).unwrap()
}

fn regions(background: Option<(&str, &str)>, b: &str) -> (Subspace, Subspace) {
    let side = |region: &str| {
        let mut filters = vec![Filter::equals("Region", region)];
        filters.extend(background.map(|(attr, value)| Filter::equals(attr, value)));
        Subspace::new(filters).unwrap()
    };
    (side("A"), side(b))
}

/// Explanations only (a provenance counter may differ under eviction),
/// rendered with `{:?}` so every float compares by its exact digits.
fn answer(engine: &XInsight, request: &ExplainRequest, cache: &Arc<SelectionCache>) -> String {
    match engine.execute_with_cache(request, Arc::clone(cache)) {
        Ok(response) => format!("{:?}", response.explanations),
        Err(e) => format!("error: {e}"),
    }
}

/// Asserts `cache` answers `request` exactly as a fresh, unbounded cache.
fn check(engine: &XInsight, query: WhyQuery, cache: &Arc<SelectionCache>) -> String {
    let request = ExplainRequest::new(query);
    let fresh = answer(engine, &request, &Arc::new(SelectionCache::new()));
    let long_lived = answer(engine, &request, cache);
    assert_eq!(long_lived, fresh, "{}", request.query());
    assert!(cache.bytes() <= cache.budget());
    fresh
}

/// The queries every scenario replays: both aggregates the optimized
/// strategies cover, plain and with a background filter, plus sides whose
/// values the dictionary has never seen.
fn queries() -> Vec<WhyQuery> {
    let mut out = Vec::new();
    for aggregate in [Aggregate::Avg, Aggregate::Sum] {
        for background in [None, Some(("Kind", "k1")), Some(("Kind", "k3"))] {
            let (s1, s2) = regions(background, "B");
            out.push(query(aggregate, s1, s2));
        }
        // A foreground value and a background value missing from the
        // dictionary (for AVG both fail exactly as the fresh cache does).
        let (s1, s2) = regions(None, "Ghost");
        out.push(query(aggregate, s1, s2));
        let (s1, s2) = regions(Some(("Kind", "ghost")), "B");
        out.push(query(aggregate, s1, s2));
    }
    out
}

fn replay_through_an_ingest(cache: &Arc<SelectionCache>) {
    let engine = engine();
    let before: Vec<String> = queries()
        .into_iter()
        .map(|q| check(&engine, q, cache))
        .collect();
    // The ingest adds `Kind = k3`: a new global code, searched from now on.
    let grown = engine.with_ingested(&rows(300, 11, &["k0", "k3"])).unwrap();
    assert!(grown.data().categories("Kind").unwrap().len() > 3);
    let after: Vec<String> = queries()
        .into_iter()
        .map(|q| check(&grown, q, cache))
        .collect();
    assert_ne!(before, after, "the ingest must change some answer");
}

#[test]
fn a_long_lived_cache_answers_like_a_fresh_one_across_ingest_and_absent_values() {
    let cache = Arc::new(SelectionCache::new());
    replay_through_an_ingest(&cache);
    assert_eq!(cache.evictions(), 0);
}

#[test]
fn an_attribute_wider_than_the_inline_bitmap_searches_exactly() {
    let engine = engine();
    let store = engine.data();
    assert!(store.categories("Store").unwrap().len() > 256);
    let cache = Arc::new(SelectionCache::new());
    let xplainer = XPlainer::default();
    for aggregate in [Aggregate::Avg, Aggregate::Sum] {
        let (s1, s2) = regions(None, "B");
        let q = query(aggregate, s1, s2).oriented_store(store).unwrap();
        let search = |cache: Arc<SelectionCache>| {
            let candidate = xplainer
                .explain_attribute_cached(
                    store,
                    &q,
                    "Store",
                    SearchStrategy::Optimized,
                    true,
                    cache,
                )
                .unwrap();
            format!(
                "{:?}",
                candidate.map(|c| (c.predicate, c.responsibility, c.remaining_delta))
            )
        };
        let fresh = search(Arc::new(SelectionCache::new()));
        // Twice through the long-lived cache: once cold, once replayed.
        assert_eq!(search(Arc::clone(&cache)), fresh, "{aggregate:?}");
        let misses = cache.misses();
        assert_eq!(search(Arc::clone(&cache)), fresh, "{aggregate:?} replay");
        assert_eq!(cache.misses(), misses, "a replay computes nothing");
    }
}

#[test]
fn a_tiny_budget_evicts_but_never_changes_an_answer() {
    let cache = Arc::new(SelectionCache::with_budget(8 * 1024));
    replay_through_an_ingest(&cache);
    assert!(cache.evictions() > 0);
    assert!(cache.bytes() <= 8 * 1024);
}

#[test]
fn a_flood_of_distinct_queries_stays_within_the_budget() {
    let engine = engine();
    let budget = 256 * 1024;
    let cache = Arc::new(SelectionCache::with_budget(budget));
    let mut peak = 0;
    for i in 0..WIDE + 20 {
        // Every background value is a distinct side; the last twenty were
        // never in the dictionary.
        let store = format!("s{i}");
        let aggregate = [Aggregate::Sum, Aggregate::Avg][i % 2];
        let (s1, s2) = regions(Some(("Store", &store)), "B");
        check(&engine, query(aggregate, s1, s2), &cache);
        peak = peak.max(cache.bytes());
    }
    assert!(peak <= budget);
    assert!(cache.evictions() > 0, "the flood must outgrow the budget");
}
