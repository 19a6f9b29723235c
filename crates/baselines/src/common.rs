//! Shared types for the baseline explanation engines.

use xinsight_core::WhyQuery;
use xinsight_data::{Dataset, Filter, Predicate, Result, RowMask};

/// The output of a baseline engine on one attribute: the best predicate it
/// found, its internal score and how many `Δ(·)` evaluations it spent.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineExplanation {
    /// The explanation predicate.
    pub predicate: Predicate,
    /// The engine's own score of the predicate (not comparable across engines).
    pub score: f64,
    /// Number of `Δ(·)` evaluations issued.
    pub n_delta_evaluations: usize,
}

/// A predicate-producing explanation engine — the interface shared by the
/// baselines and used by the Table 8/9 benchmark harness.
pub trait ExplanationEngine {
    /// A short name used in reports.
    fn name(&self) -> &'static str;

    /// Searches for an explanation of `query` among the filters of
    /// `attribute`.  Returns `Ok(None)` when no predicate qualifies.
    fn explain(
        &self,
        data: &Dataset,
        query: &WhyQuery,
        attribute: &str,
    ) -> Result<Option<BaselineExplanation>>;
}

/// Shared helper: the filters of an attribute together with their masks and
/// the query state needed to evaluate `Δ(D − D_P)` cheaply.
pub(crate) struct AttributeContext<'a> {
    pub data: &'a Dataset,
    pub query: &'a WhyQuery,
    pub filters: Vec<Filter>,
    pub masks: Vec<RowMask>,
    /// The row masks of the two sibling subspaces, built once.
    sides: [RowMask; 2],
    pub delta_d: f64,
    pub evaluations: std::cell::Cell<usize>,
}

impl<'a> AttributeContext<'a> {
    pub fn build(data: &'a Dataset, query: &'a WhyQuery, attribute: &str) -> Result<Self> {
        let column = data.dimension(attribute)?;
        let filters: Vec<Filter> = column
            .categories()
            .iter()
            .map(|v| Filter::equals(attribute, v.as_ref()))
            .collect();
        let masks = filters
            .iter()
            .map(|f| f.mask(data))
            .collect::<Result<Vec<_>>>()?;
        let sides = [query.s1().mask(data)?, query.s2().mask(data)?];
        let delta_d = query.delta(data)?;
        Ok(AttributeContext {
            data,
            query,
            filters,
            masks,
            sides,
            delta_d,
            evaluations: std::cell::Cell::new(0),
        })
    }

    pub fn m(&self) -> usize {
        self.filters.len()
    }

    /// `Δ(D − D_P)`; `None` when one sibling subspace becomes empty.  Each
    /// call scans the rows of both sides anew.
    pub fn delta_without(&self, indices: &[usize]) -> Option<f64> {
        self.evaluations.set(self.evaluations.get() + 1);
        let removed = indices
            .iter()
            .fold(RowMask::zeros(self.data.n_rows()), |mask, &i| {
                mask.or(&self.masks[i])
            });
        let [a1, a2] = self.sides.each_ref().map(|side| {
            self.query
                .aggregate()
                .eval_opt(self.data, self.query.measure(), &side.minus(&removed))
                .expect("measure validated at build time")
        });
        Some(a1? - a2?)
    }

    /// Number of rows matched by the given filters: the filters of one
    /// attribute are disjoint, so their counts add up.
    pub fn support(&self, indices: &[usize]) -> usize {
        indices.iter().map(|&i| self.masks[i].count()).sum()
    }

    pub fn predicate_of(&self, indices: &[usize], attribute: &str) -> Predicate {
        Predicate::new(
            attribute,
            indices.iter().map(|&i| self.filters[i].value().to_owned()),
        )
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use xinsight_core::WhyQuery;
    use xinsight_data::{Aggregate, Dataset, DatasetBuilder, Subspace};

    /// A SYN-B-style dataset: the categories `bad0`, `bad1` of `Y` raise the
    /// measure on the `X = a` side only; `okN` categories are symmetric.
    pub fn planted(n_ok: usize, agg: Aggregate) -> (Dataset, WhyQuery, Vec<String>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        for bad in 0..2 {
            for _ in 0..30 {
                x.push("a");
                y.push(format!("bad{bad}"));
                z.push(60.0);
            }
        }
        for ok in 0..n_ok {
            for side in ["a", "b"] {
                for _ in 0..20 {
                    x.push(side);
                    y.push(format!("ok{ok}"));
                    z.push(10.0);
                }
            }
        }
        let data = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y.iter().map(String::as_str))
            .measure("Z", z)
            .build()
            .unwrap();
        let query =
            WhyQuery::new("Z", agg, Subspace::of("X", "a"), Subspace::of("X", "b")).unwrap();
        (data, query, vec!["bad0".into(), "bad1".into()])
    }

    /// F1 of a predicate's filter values against the planted ground truth.
    pub fn f1(values: &[String], truth: &[String]) -> f64 {
        let tp = values.iter().filter(|v| truth.contains(v)).count() as f64;
        if values.is_empty() || truth.is_empty() {
            return 0.0;
        }
        let precision = tp / values.len() as f64;
        let recall = tp / truth.len() as f64;
        if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testing::planted;
    use xinsight_data::Aggregate;

    #[test]
    fn attribute_context_basics() {
        let (data, query, _) = planted(3, Aggregate::Avg);
        let ctx = AttributeContext::build(&data, &query, "Y").unwrap();
        assert_eq!(ctx.m(), 5);
        assert!(ctx.delta_d > 0.0);
        let all: Vec<usize> = (0..ctx.m()).collect();
        assert_eq!(ctx.delta_without(&all), None);
        assert!(ctx.support(&[0]) > 0);
        assert_eq!(ctx.evaluations.get(), 1);
        let pred = ctx.predicate_of(&[0, 1], "Y");
        assert_eq!(pred.len(), 2);
    }

    #[test]
    fn f1_helper() {
        use testing::f1;
        let truth = vec!["a".to_string(), "b".to_string()];
        assert_eq!(f1(&["a".to_string(), "b".to_string()], &truth), 1.0);
        assert!((f1(&["a".to_string()], &truth) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(f1(&["c".to_string()], &truth), 0.0);
        assert_eq!(f1(&[], &truth), 0.0);
    }
}
