//! Brute-force explanation search (row 1 of Table 4).
//!
//! Enumerates every candidate predicate `P` and, for each, every disjoint
//! contingency `Γ`, computing the exact W-Responsibility (Def. 3.5).  The
//! cost is `O(3^m)` Δ-evaluations; the search is the ground truth against
//! which the SUM/AVG approximations are measured in Sec. 4.4.

use super::context::SearchContext;
use super::{map_items, ExplanationCandidate};

/// Runs the exhaustive search and returns the best-scoring explanation, if
/// any predicate qualifies as an actual cause.
///
/// Every candidate predicate is evaluated independently (in parallel over the
/// thread pool, reading the context's side tables); the winner is then
/// picked by a serial fold in ascending bitmask order, so the returned
/// explanation (predicate, responsibility, contingency, remaining delta) is
/// byte-identical to a fully serial scan.
pub fn search(ctx: &SearchContext<'_>) -> Option<ExplanationCandidate> {
    let m = ctx.m();
    let total = 1u64 << m;
    // Scan in blocks: workers stream the predicates of a block and keep only
    // that block's best qualifying candidate, so the scan itself holds
    // O(#blocks) candidates instead of materializing all 2^m.
    const BLOCK: u64 = 1024;
    let n_blocks = total.div_ceil(BLOCK);
    let scored: Vec<Option<(f64, ExplanationCandidate)>> =
        map_items(ctx.parallel(), (0..n_blocks).collect(), |block| {
            let start = (block * BLOCK).max(1); // predicate 0 is empty
            let end = ((block + 1) * BLOCK).min(total);
            let mut best: Option<(f64, ExplanationCandidate)> = None;
            for p_bits in start..end {
                let Some((score, candidate)) = evaluate_predicate(ctx, p_bits) else {
                    continue;
                };
                let better = match &best {
                    Some((s, _)) => score > *s + 1e-12,
                    None => true,
                };
                if better {
                    best = Some((score, candidate));
                }
            }
            best
        });

    // Fold the block winners in ascending block (= bitmask) order, with the
    // same strictly-greater rule, reproducing the serial scan's tie-breaking.
    let mut best: Option<(f64, ExplanationCandidate)> = None;
    for (score, candidate) in scored.into_iter().flatten() {
        let better = match &best {
            Some((s, _)) => score > *s + 1e-12,
            None => true,
        };
        if better {
            best = Some((score, candidate));
        }
    }
    best.map(|(_, c)| c)
}

/// Scores one candidate predicate (given as a filter-index bitmask): finds
/// its minimal-weight certifying contingency and returns the scored
/// candidate, or `None` when the predicate is not an actual cause (or its
/// score is not positive).
fn evaluate_predicate(ctx: &SearchContext<'_>, p_bits: u64) -> Option<(f64, ExplanationCandidate)> {
    let m = ctx.m();
    let p: Vec<usize> = (0..m).filter(|i| p_bits >> i & 1 == 1).collect();
    let rest: Vec<usize> = (0..m).filter(|i| p_bits >> i & 1 == 0).collect();
    let k = rest.len();

    // Find the contingency with minimal W-weight that certifies P.
    let mut best_gamma: Option<(f64, Vec<usize>)> = None;
    for g_bits in 0u64..(1u64 << k) {
        let gamma: Vec<usize> = rest
            .iter()
            .enumerate()
            .filter(|(j, _)| g_bits >> j & 1 == 1)
            .map(|(_, &i)| i)
            .collect();
        // Validity: Δ(D − D_Γ − D_P) ≤ ε < Δ(D − D_Γ).
        let without_gamma = ctx.delta_without(&gamma);
        let mut both = p.clone();
        both.extend_from_slice(&gamma);
        let without_both = ctx.delta_without(&both);
        let valid =
            ctx.is_resolved(without_both) && matches!(without_gamma, Some(d) if d > ctx.epsilon());
        if !valid {
            continue;
        }
        let weight = ctx.contingency_weight(&p, &gamma);
        match &best_gamma {
            Some((w, _)) if *w <= weight => {}
            _ => best_gamma = Some((weight, gamma)),
        }
    }

    let (weight, gamma) = best_gamma?;
    let responsibility = 1.0 / (1.0 + weight);
    let score = responsibility - ctx.sigma() * p.len() as f64;
    // Explanations whose score is not positive are no better than the
    // degenerate "select every filter" predicate and are not reported.
    if score <= 1e-12 {
        return None;
    }
    let candidate = ExplanationCandidate {
        predicate: ctx.predicate_of(&p),
        responsibility,
        contingency: if gamma.is_empty() {
            None
        } else {
            Some(ctx.predicate_of(&gamma))
        },
        remaining_delta: ctx.delta_without(&p),
        n_delta_evaluations: ctx.evaluations(),
    };
    Some((score, candidate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::why_query::WhyQuery;
    use crate::xplainer::XPlainerOptions;
    use xinsight_data::{Aggregate, DatasetBuilder, SegmentedDataset, Subspace};

    /// `Y = hot` fully accounts for the SUM difference between X = a and X = b.
    fn single_cause() -> (SegmentedDataset, WhyQuery) {
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "b", "b", "b"])
            .dimension("Y", ["hot", "cold", "mild", "hot", "cold", "mild"])
            .measure("M", [100.0, 5.0, 5.0, 10.0, 5.0, 5.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "M",
            Aggregate::Sum,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        (data, query)
    }

    #[test]
    fn finds_the_counterfactual_cause_with_full_responsibility() {
        let (data, query) = single_cause();
        let ctx = SearchContext::build(&data, &query, "Y", &XPlainerOptions::default()).unwrap();
        let result = search(&ctx).expect("must find an explanation");
        assert_eq!(result.predicate.values(), ["hot"]);
        assert!((result.responsibility - 1.0).abs() < 1e-9);
        assert!(result.contingency.is_none());
        assert!(result.n_delta_evaluations > 0);
    }

    #[test]
    fn contingency_needed_when_two_filters_share_blame() {
        // Both hot and warm contribute; removing either alone is not enough,
        // so each is only an actual cause with the other as contingency.
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "b"])
            .dimension("Y", ["hot", "warm", "cold", "cold"])
            .measure("M", [50.0, 50.0, 5.0, 5.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "M",
            Aggregate::Sum,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let opts = XPlainerOptions {
            // Tight epsilon: the difference must be (almost) fully removed.
            epsilon: Some(1.0),
            sigma: Some(0.01),
            ..XPlainerOptions::default()
        };
        let ctx = SearchContext::build(&data, &query, "Y", &opts).unwrap();
        let result = search(&ctx).expect("must find an explanation");
        // The optimal predicate is {hot, warm} (responsibility 1, small σ cost).
        assert!(result.predicate.contains("hot"));
        assert!(result.predicate.contains("warm"));
        assert!((result.responsibility - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_filter_with_contingency_when_sigma_is_large() {
        // Same data, but a large σ pushes the optimum to a single filter whose
        // responsibility is certified by the other filter as contingency.
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "b"])
            .dimension("Y", ["hot", "warm", "cold", "cold"])
            .measure("M", [50.0, 50.0, 5.0, 5.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "M",
            Aggregate::Sum,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let opts = XPlainerOptions {
            epsilon: Some(1.0),
            sigma: Some(0.4),
            ..XPlainerOptions::default()
        };
        let ctx = SearchContext::build(&data, &query, "Y", &opts).unwrap();
        let result = search(&ctx).expect("must find an explanation");
        assert_eq!(result.predicate.len(), 1);
        let contingency = result.contingency.expect("a contingency is required");
        assert_eq!(contingency.len(), 1);
        assert!(result.responsibility < 1.0);
        assert!(result.responsibility > 0.0);
    }

    #[test]
    fn no_explanation_when_nothing_reduces_the_difference() {
        // The difference is driven entirely by X itself; Y is uncorrelated and
        // removing any Y category leaves the difference intact.
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "b", "b"])
            .dimension("Y", ["u", "v", "u", "v"])
            .measure("M", [10.0, 10.0, 1.0, 1.0])
            .build()
            .unwrap()
            .into_segmented();
        let query = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        let ctx = SearchContext::build(&data, &query, "Y", &XPlainerOptions::default()).unwrap();
        assert!(search(&ctx).is_none());
    }
}
