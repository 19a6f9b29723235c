//! SYN-B: planted-explanation datasets for evaluating XPlainer
//! (Sec. 4.1 / 8.12, following Scorpion's synthetic setup).
//!
//! Three variables: a binary context `X`, a categorical `Y` with configurable
//! cardinality, and a numerical `Z`.  `X` shifts the distribution of `Y`
//! towards a set of *trigger* categories, and trigger categories shift `Z`
//! from `N(μ, σ)` to `N(μ*, σ)`.  The resulting Why Query (`agg(Z)` for
//! `X = x1` vs `X = x0`) has the trigger set as its ground-truth explanation.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use xinsight_core::WhyQuery;
use xinsight_data::{Aggregate, Dataset, DatasetBuilder, Subspace};

/// Options for SYN-B generation.
#[derive(Debug, Clone)]
pub struct SynBOptions {
    /// Number of rows (the paper defaults to 10,000).
    pub n_rows: usize,
    /// Cardinality of `Y` (the paper sweeps 10–100).
    pub cardinality: usize,
    /// Number of trigger categories (the paper defaults to 3).
    pub n_triggers: usize,
    /// Mean of `Z` for non-trigger categories (paper: 10).
    pub mu_normal: f64,
    /// Mean of `Z` for trigger categories (paper: 60; Table 9 sweeps μ* − μ).
    pub mu_abnormal: f64,
    /// Standard deviation of `Z` (paper: 10).
    pub sigma: f64,
    /// Probability that a row on the `X = x1` side falls in a trigger
    /// category (the `X → Y` mechanism).
    pub trigger_rate_x1: f64,
    /// Probability that a row on the `X = x0` side falls in a trigger category.
    pub trigger_rate_x0: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynBOptions {
    fn default() -> Self {
        SynBOptions {
            n_rows: 10_000,
            cardinality: 10,
            n_triggers: 3,
            mu_normal: 10.0,
            mu_abnormal: 60.0,
            sigma: 10.0,
            trigger_rate_x1: 0.45,
            trigger_rate_x0: 0.05,
            seed: 1,
        }
    }
}

/// One generated SYN-B instance.
#[derive(Debug, Clone)]
pub struct SynBInstance {
    /// The generated data: dimensions `X`, `Y` and measure `Z`.
    pub data: Dataset,
    /// The ground-truth explanation: the trigger categories of `Y`.
    pub ground_truth: Vec<String>,
}

impl SynBInstance {
    /// The Why Query of the instance for a given aggregate
    /// (`AVG(Z)` or `SUM(Z)` between `X = x1` and `X = x0`).
    pub fn query(&self, aggregate: Aggregate) -> WhyQuery {
        WhyQuery::new(
            "Z",
            aggregate,
            Subspace::of("X", "x1"),
            Subspace::of("X", "x0"),
        )
        .expect("sibling subspaces by construction")
    }
}

/// Generates one SYN-B instance.
pub fn generate(options: &SynBOptions) -> SynBInstance {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let card = options.cardinality.max(2);
    let n_triggers = options.n_triggers.clamp(1, card - 1);
    let normal_ok = Normal::new(options.mu_normal, options.sigma).expect("valid normal");
    let normal_bad = Normal::new(options.mu_abnormal, options.sigma).expect("valid normal");

    let trigger_names: Vec<String> = (0..n_triggers).map(|i| format!("y_bad{i}")).collect();
    let normal_names: Vec<String> = (0..card - n_triggers).map(|i| format!("y{i}")).collect();

    let mut x = Vec::with_capacity(options.n_rows);
    let mut y = Vec::with_capacity(options.n_rows);
    let mut z = Vec::with_capacity(options.n_rows);
    for row in 0..options.n_rows {
        let is_x1 = row % 2 == 0;
        x.push(if is_x1 { "x1" } else { "x0" });
        let trigger_rate = if is_x1 {
            options.trigger_rate_x1
        } else {
            options.trigger_rate_x0
        };
        let in_trigger = rng.gen::<f64>() < trigger_rate;
        let label = if in_trigger {
            trigger_names[rng.gen_range(0..trigger_names.len())].clone()
        } else {
            normal_names[rng.gen_range(0..normal_names.len())].clone()
        };
        let value = if in_trigger {
            normal_bad.sample(&mut rng)
        } else {
            normal_ok.sample(&mut rng)
        };
        y.push(label);
        z.push(value);
    }
    let data = DatasetBuilder::new()
        .dimension("X", x)
        .dimension("Y", y.iter().map(String::as_str))
        .measure("Z", z)
        .build()
        .expect("generator builds a consistent dataset");
    SynBInstance {
        data,
        ground_truth: trigger_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_correct_shape() {
        let opts = SynBOptions {
            n_rows: 1000,
            cardinality: 12,
            seed: 5,
            ..SynBOptions::default()
        };
        let a = generate(&opts);
        let b = generate(&opts);
        assert_eq!(a.data.n_rows(), 1000);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.ground_truth.len(), 3);
        assert!(a.data.cardinality("Y").unwrap() <= 12);
    }

    #[test]
    fn query_difference_is_positive_and_driven_by_triggers() {
        let inst = generate(&SynBOptions {
            n_rows: 5000,
            seed: 2,
            ..SynBOptions::default()
        });
        let query = inst.query(Aggregate::Avg);
        let delta = query.delta(&inst.data).unwrap();
        assert!(delta > 5.0, "Δ = {delta}");
        // Removing the trigger rows must shrink the difference drastically.
        let pred = xinsight_data::Predicate::new("Y", inst.ground_truth.clone());
        let kept = inst.data.all_rows().minus(&pred.mask(&inst.data).unwrap());
        let remaining = query.delta_over(&inst.data, &kept).unwrap();
        assert!(remaining.abs() < delta * 0.2);
    }

    #[test]
    fn mean_gap_controls_difficulty() {
        let easy = generate(&SynBOptions {
            mu_abnormal: 110.0,
            seed: 3,
            ..SynBOptions::default()
        });
        let hard = generate(&SynBOptions {
            mu_abnormal: 15.0,
            seed: 3,
            ..SynBOptions::default()
        });
        let d_easy = easy.query(Aggregate::Avg).delta(&easy.data).unwrap();
        let d_hard = hard.query(Aggregate::Avg).delta(&hard.data).unwrap();
        assert!(d_easy > d_hard);
    }
}
