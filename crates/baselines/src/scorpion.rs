//! A Scorpion-style outlier-explanation engine (Wu & Madden, VLDB 2013).
//!
//! Scorpion ranks predicates by an *influence score*: how much removing the
//! predicate's tuples moves the aggregate of the outlier region towards the
//! hold-out region, normalised by the number of tuples removed (raised to a
//! user parameter `λ`).  Re-cast into the Why-Query setting used here, the
//! influence of predicate `P` is
//!
//! ```text
//! inf(P) = (Δ(D) − Δ(D − D_P)) / |D_P|^λ
//! ```
//!
//! The search enumerates filter subsets exhaustively (up to 16 filters),
//! which reproduces the cardinality blow-up visible in Table 8 of the paper.

use crate::common::{AttributeContext, BaselineExplanation, ExplanationEngine};
use xinsight_core::WhyQuery;
use xinsight_data::{DataError, Dataset, Result};

/// Attributes with more filters than this are refused (the original system
/// would simply take a very long time; the harness records N/A).  Each of
/// the `2^m` subsets rescans the rows, so at 20k rows a search at 14 filters
/// already takes seconds and one at 20 would take minutes.
const MAX_FILTERS: usize = 16;

/// The Scorpion-style engine.
#[derive(Debug, Clone)]
pub struct Scorpion {
    /// Support-normalisation exponent `λ`.  `λ = 0` disables normalisation,
    /// `λ = 1` divides by the predicate's support.
    pub lambda: f64,
}

impl Default for Scorpion {
    fn default() -> Self {
        Scorpion { lambda: 0.25 }
    }
}

impl Scorpion {
    /// Creates an engine with an explicit normalisation exponent.
    pub fn new(lambda: f64) -> Self {
        Scorpion { lambda }
    }
}

impl ExplanationEngine for Scorpion {
    fn name(&self) -> &'static str {
        "scorpion"
    }

    fn explain(
        &self,
        data: &Dataset,
        query: &WhyQuery,
        attribute: &str,
    ) -> Result<Option<BaselineExplanation>> {
        let ctx = AttributeContext::build(data, query, attribute)?;
        let m = ctx.m();
        if m == 0 || ctx.delta_d <= 0.0 {
            return Ok(None);
        }
        if m > MAX_FILTERS {
            return Err(DataError::InvalidBinning(format!(
                "scorpion: exhaustive search over {m} filters exceeds the cap of {MAX_FILTERS}"
            )));
        }
        let mut best: Option<(f64, Vec<usize>)> = None;
        for bits in 1u64..(1u64 << m) {
            let subset: Vec<usize> = (0..m).filter(|i| bits >> i & 1 == 1).collect();
            let remaining = ctx.delta_without(&subset);
            let reduction = ctx.delta_d - remaining.unwrap_or(0.0);
            if reduction <= 0.0 {
                continue;
            }
            let support = ctx.support(&subset) as f64;
            if support == 0.0 {
                continue;
            }
            let influence = reduction / support.powf(self.lambda);
            match &best {
                Some((s, _)) if *s >= influence => {}
                _ => best = Some((influence, subset)),
            }
        }
        Ok(best.map(|(score, subset)| BaselineExplanation {
            predicate: ctx.predicate_of(&subset, attribute),
            score,
            n_delta_evaluations: ctx.evaluations.get(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing::{f1, planted};
    use xinsight_data::Aggregate;

    #[test]
    fn finds_high_influence_predicate_for_avg() {
        let (data, query, truth) = planted(4, Aggregate::Avg);
        let result = Scorpion::default()
            .explain(&data, &query, "Y")
            .unwrap()
            .expect("scorpion must return something");
        let quality = f1(result.predicate.values(), &truth);
        assert!(quality > 0.5, "F1 = {quality}");
        assert!(result.n_delta_evaluations > 10);
    }

    #[test]
    fn strong_normalisation_prefers_small_predicates() {
        let (data, query, truth) = planted(4, Aggregate::Sum);
        let heavy = Scorpion::new(1.0)
            .explain(&data, &query, "Y")
            .unwrap()
            .unwrap();
        // With λ = 1 the per-tuple normalisation favours a single filter, so
        // the explanation is typically incomplete relative to the truth.
        assert!(heavy.predicate.len() <= truth.len());
    }

    #[test]
    fn exhaustive_search_cost_grows_exponentially() {
        let (d1, q1, _) = planted(4, Aggregate::Avg);
        let (d2, q2, _) = planted(8, Aggregate::Avg);
        let e = Scorpion::default();
        let small = e.explain(&d1, &q1, "Y").unwrap().unwrap();
        let large = e.explain(&d2, &q2, "Y").unwrap().unwrap();
        assert!(large.n_delta_evaluations > 8 * small.n_delta_evaluations);
    }

    #[test]
    fn cardinality_cap_is_enforced() {
        let (data, query, _) = planted(30, Aggregate::Avg);
        let err = Scorpion::default().explain(&data, &query, "Y");
        assert!(err.is_err());
    }

    #[test]
    fn cardinality_cap_is_inclusive_and_named_in_the_error() {
        // `planted(n)` plants two trigger categories next to `n` others.
        let (data, query, _) = planted(MAX_FILTERS - 2, Aggregate::Avg);
        let at_cap = Scorpion::default()
            .explain(&data, &query, "Y")
            .unwrap()
            .expect("a search at the cap must run");
        assert_eq!(at_cap.n_delta_evaluations, (1 << MAX_FILTERS) - 1);
        let (data, query, _) = planted(MAX_FILTERS - 1, Aggregate::Avg);
        let err = Scorpion::default()
            .explain(&data, &query, "Y")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("search over 17 filters exceeds the cap of 16"),
            "{err}"
        );
    }

    #[test]
    fn zero_difference_yields_none() {
        let (data, _, _) = planted(3, Aggregate::Avg);
        let query = xinsight_core::WhyQuery::new(
            "Z",
            Aggregate::Avg,
            xinsight_data::Subspace::of("Y", "ok0"),
            xinsight_data::Subspace::of("Y", "ok1"),
        )
        .unwrap();
        assert!(Scorpion::default()
            .explain(&data, &query, "X")
            .unwrap()
            .is_none());
    }
}
