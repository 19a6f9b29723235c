//! The AVG optimization (Alg. 2 of the paper): greedy canonical-predicate
//! construction with homogeneity-based pruning.
//!
//! AVG lacks the additivity that makes the SUM search closed-form, so Alg. 2
//! grows a canonical predicate `P_C` greedily — in each round inserting the
//! filter whose removal shrinks the remaining difference the most — until the
//! remainder drops below `ε`.  When the sibling subspaces are *homogeneous* on
//! the attribute (Def. 3.7, checked by the caller against the causal graph),
//! Prop. 3.4 justifies pruning candidate filters whose own `Δ_i` does not
//! exceed the current remainder.  Every prefix `P_k` of `P_C` is then an
//! actual cause with the suffix as contingency, and the best
//! `ρ̂_{P_k} − σ·|P_k|` is returned.  Total cost `O(m²)` Δ-evaluations.

use super::context::SearchContext;
use super::{map_items, ExplanationCandidate};

/// Runs the AVG-optimized greedy search (Alg. 2).
pub fn search(ctx: &SearchContext<'_>, homogeneous: bool) -> Option<ExplanationCandidate> {
    let m = ctx.m();
    if ctx.delta_d() <= 0.0 {
        return None;
    }
    // Δ_i is invariant throughout the greedy loop (queried once, line 7 note);
    // the m probes are independent and fan out over the thread pool.
    let per_filter_delta: Vec<Option<f64>> =
        map_items(ctx.parallel(), (0..m).collect(), |i| ctx.delta_of(&[i]));

    let max_len = ((1.0 / ctx.sigma()).floor() as usize).clamp(1, m);
    let mut canonical: Vec<usize> = Vec::new();
    let mut remaining = Some(ctx.delta_d());

    for _round in 0..max_len {
        if ctx.is_resolved(remaining) {
            break;
        }
        let available: Vec<usize> = (0..m).filter(|i| !canonical.contains(i)).collect();
        if available.is_empty() {
            break;
        }
        // Homogeneity pruning (Prop. 3.4): only filters whose own Δ_i exceeds
        // the current remainder can reduce it.
        let candidates: Vec<usize> = if homogeneous {
            let threshold = remaining.unwrap_or(f64::NEG_INFINITY);
            let pruned: Vec<usize> = available
                .iter()
                .copied()
                .filter(|&i| match per_filter_delta[i] {
                    Some(d) => d > threshold,
                    None => false,
                })
                .collect();
            if pruned.is_empty() {
                available.clone()
            } else {
                pruned
            }
        } else {
            available.clone()
        };
        // Greedy step: insert the filter minimising Δ(D − D_{P_C} − D_p).
        // Trials are independent; evaluate them in parallel, then pick the
        // winner with the serial scan's exact tie-breaking (first strictly
        // smaller value in candidate order) so parallelism cannot change the
        // chosen predicate.
        let trials: Vec<(usize, f64)> = map_items(ctx.parallel(), candidates, |i| {
            let mut trial = canonical.clone();
            trial.push(i);
            // An undefined remainder (one side emptied) must never be chosen.
            (i, ctx.delta_without(&trial).unwrap_or(f64::INFINITY))
        });
        let mut best: Option<(usize, f64)> = None;
        for (i, value) in trials {
            match best {
                Some((_, b)) if b <= value => {}
                _ => best = Some((i, value)),
            }
        }
        let Some((chosen, _)) = best else { break };
        canonical.push(chosen);
        remaining = ctx.delta_without(&canonical);
    }

    if !ctx.is_resolved(remaining) {
        // Line 15 of Alg. 2: no valid canonical predicate within the budget.
        return None;
    }
    if canonical.is_empty() {
        return None;
    }

    // Lines 16–21: evaluate every prefix P_k with the suffix as contingency.
    let mut best: Option<(f64, ExplanationCandidate)> = None;
    for k in 1..=canonical.len() {
        let p_k: Vec<usize> = canonical[..k].to_vec();
        let gamma: Vec<usize> = canonical[k..].to_vec();
        // Validity of P_k as an actual cause: Δ(D − D_Γ) must still exceed ε.
        let without_gamma = ctx.delta_without(&gamma);
        if !matches!(without_gamma, Some(d) if d > ctx.epsilon()) && !gamma.is_empty() {
            continue;
        }
        let weight = ctx.contingency_weight(&p_k, &gamma);
        let responsibility = 1.0 / (1.0 + weight);
        let score = responsibility - ctx.sigma() * k as f64;
        if score <= 1e-12 {
            continue;
        }
        let better = match &best {
            Some((s, _)) => score > *s + 1e-12,
            None => true,
        };
        if better {
            best = Some((
                score,
                ExplanationCandidate {
                    predicate: ctx.predicate_of(&p_k),
                    responsibility,
                    contingency: if gamma.is_empty() {
                        None
                    } else {
                        Some(ctx.predicate_of(&gamma))
                    },
                    remaining_delta: ctx.delta_without(&p_k),
                    n_delta_evaluations: ctx.evaluations(),
                },
            ));
        }
    }
    best.map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::why_query::WhyQuery;
    use crate::xplainer::XPlainerOptions;
    use xinsight_data::{Aggregate, DatasetBuilder, SegmentedDataset, Subspace};

    /// SYN-B-style data: categories bad1/bad2 of Y push AVG(Z) up on the
    /// X = a side only.
    fn fixture() -> (SegmentedDataset, WhyQuery) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        for i in 0..120 {
            x.push("a");
            if i < 30 {
                y.push("bad1".to_owned());
                z.push(60.0);
            } else if i < 50 {
                y.push("bad2".to_owned());
                z.push(55.0);
            } else {
                y.push(format!("ok{}", i % 4));
                z.push(10.0);
            }
        }
        for i in 0..120 {
            x.push("b");
            y.push(format!("ok{}", i % 4));
            z.push(10.0);
        }
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y.iter().map(String::as_str))
            .measure("Z", z)
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        (data, query)
    }

    #[test]
    fn greedy_search_finds_planted_explanation() {
        let (data, query) = fixture();
        let ctx = SearchContext::build(&data, &query, "Y", &XPlainerOptions::default()).unwrap();
        let result = search(&ctx, true).expect("must find an explanation");
        assert!(result.predicate.contains("bad1"));
        assert!(result.predicate.contains("bad2"));
        assert!(!result.predicate.contains("ok0"));
        assert!(result.responsibility > 0.5);
        // Remaining difference after removing the explanation is small.
        assert!(result.remaining_delta.unwrap() <= ctx.epsilon());
    }

    #[test]
    fn homogeneity_pruning_reduces_cost_but_not_the_answer() {
        let (data, query) = fixture();
        let opts = XPlainerOptions::default();
        let ctx_hom = SearchContext::build(&data, &query, "Y", &opts).unwrap();
        let hom = search(&ctx_hom, true).expect("explanation with pruning");
        let ctx_het = SearchContext::build(&data, &query, "Y", &opts).unwrap();
        let het = search(&ctx_het, false).expect("explanation without pruning");
        assert_eq!(hom.predicate.values(), het.predicate.values());
        assert!(hom.n_delta_evaluations <= het.n_delta_evaluations);
    }

    #[test]
    fn single_dominant_filter_gets_full_responsibility() {
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "b", "b", "b"])
            .dimension("Y", ["spike", "norm", "norm", "norm", "norm", "spike"])
            .measure("Z", [90.0, 10.0, 10.0, 10.0, 10.0, 11.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let ctx = SearchContext::build(&data, &query, "Y", &XPlainerOptions::default()).unwrap();
        let result = search(&ctx, true).expect("must find an explanation");
        assert_eq!(result.predicate.values(), ["spike"]);
        assert!((result.responsibility - 1.0).abs() < 1e-9);
        assert!(result.contingency.is_none());
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // With σ forced to 1, only one filter may be selected; a single filter
        // cannot resolve this difference, so Alg. 2 reports ⊥ (None).
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "a", "b", "b", "b", "b"])
            .dimension("Y", ["u", "u", "v", "v", "w", "w", "w", "w"])
            .measure("Z", [50.0, 50.0, 50.0, 50.0, 10.0, 10.0, 10.0, 10.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let opts = XPlainerOptions {
            sigma: Some(1.0),
            epsilon: Some(0.5),
            ..XPlainerOptions::default()
        };
        let ctx = SearchContext::build(&data, &query, "Y", &opts).unwrap();
        // Removing u alone leaves v rows at 50 vs w rows at 10 (Δ = 40 > ε);
        // the single allowed round cannot resolve the query.
        assert!(search(&ctx, true).is_none());
    }

    #[test]
    fn non_positive_delta_returns_none() {
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "b"])
            .dimension("Y", ["u", "u"])
            .measure("Z", [1.0, 1.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "Z",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let ctx = SearchContext::build(&data, &query, "Y", &XPlainerOptions::default()).unwrap();
        assert!(search(&ctx, true).is_none());
    }
}
