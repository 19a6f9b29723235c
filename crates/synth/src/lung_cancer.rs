//! The running example of Fig. 1: a hypothetical lung-cancer dataset.
//!
//! Ground-truth mechanism (Fig. 1(c)): `Location → Smoking ← Stress`,
//! `Smoking → LungCancer → {Surgery, Survival}`.  Location A has stricter
//! smoking prevalence than Location B only through the tobacco-policy path,
//! so the AVG(LungCancer) difference between the locations is causally
//! explained by smoking and merely correlated with surgery.

use rand::prelude::*;
use rand::rngs::StdRng;
use xinsight_core::WhyQuery;
use xinsight_data::{Aggregate, Dataset, DatasetBuilder, Subspace};

/// Generates the lung-cancer dataset with `n_rows` patients.
pub fn generate(n_rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut location = Vec::with_capacity(n_rows);
    let mut stress = Vec::with_capacity(n_rows);
    let mut smoking = Vec::with_capacity(n_rows);
    let mut severity = Vec::with_capacity(n_rows);
    let mut surgery = Vec::with_capacity(n_rows);
    let mut survival = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let loc_a = rng.gen::<f64>() < 0.5;
        location.push(if loc_a { "A" } else { "B" });
        let stress_level = match rng.gen::<f64>() {
            x if x < 0.3 => 3,
            x if x < 0.7 => 2,
            _ => 1,
        };
        stress.push(match stress_level {
            3 => "High",
            2 => "Mid",
            _ => "Low",
        });
        // Smoking caused by location (regional tobacco policy) and stress.
        let p_smoke = 0.15 + if loc_a { 0.45 } else { 0.0 } + 0.1 * (stress_level - 1) as f64;
        let smokes = rng.gen::<f64>() < p_smoke;
        smoking.push(if smokes { "Yes" } else { "No" });
        // Severity 1..3 caused by smoking.
        let sev = if smokes {
            if rng.gen::<f64>() < 0.7 {
                3.0
            } else {
                2.0
            }
        } else if rng.gen::<f64>() < 0.25 {
            2.0
        } else {
            1.0
        };
        severity.push(sev);
        // Surgery and survival caused by severity.
        surgery.push(if sev >= 3.0 && rng.gen::<f64>() < 0.8 {
            "Yes"
        } else {
            "No"
        });
        survival.push(if rng.gen::<f64>() < 1.0 - 0.25 * (sev - 1.0) {
            "Yes"
        } else {
            "No"
        });
    }
    DatasetBuilder::new()
        .dimension("Location", location)
        .dimension("Stress", stress)
        .dimension("Smoking", smoking)
        .dimension("Surgery", surgery)
        .dimension("Survival", survival)
        .measure("LungCancer", severity)
        .build()
        .expect("generator builds a consistent dataset")
}

/// The Why Query of Fig. 1(b): AVG(LungCancer) in Location A vs Location B.
pub fn why_query() -> WhyQuery {
    WhyQuery::new(
        "LungCancer",
        Aggregate::Avg,
        Subspace::of("Location", "A"),
        Subspace::of("Location", "B"),
    )
    .expect("sibling subspaces by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shape_and_determinism() {
        let a = generate(500, 7);
        let b = generate(500, 7);
        assert_eq!(a.n_rows(), 500);
        assert_eq!(a.n_attributes(), 6);
        assert_eq!(
            a.value(42, "Smoking").unwrap(),
            b.value(42, "Smoking").unwrap()
        );
    }

    #[test]
    fn location_a_has_higher_average_severity() {
        let data = generate(4000, 1);
        let q = why_query();
        let delta = q.delta(&data).unwrap();
        assert!(delta > 0.2, "Δ = {delta}");
    }

    #[test]
    fn conditioning_on_smoking_shrinks_the_difference() {
        let data = generate(4000, 1);
        let q = why_query();
        let delta = q.delta(&data).unwrap();
        let yes = xinsight_data::Filter::equals("Smoking", "Yes")
            .mask(&data)
            .unwrap();
        let delta_yes = q.delta_over(&data, &yes).unwrap();
        assert!(delta_yes.abs() < delta * 0.5);
    }
}
