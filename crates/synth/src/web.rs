//! A simulator standing in for the WEB production dataset (Sec. 4.1).
//!
//! The real dataset — 29 binary columns describing user behaviours on a web
//! service plus an expert-annotated `IsBlocked` label over 764 rows — is
//! proprietary.  The simulator reproduces its shape and, crucially, a known
//! ground-truth causal structure: a subset of the behaviours causally raise
//! the blocking probability, some behaviours are *consequences* of being on
//! the path to blocking (children), and the rest are noise.  The user study
//! binary (Tables 5 and 7) measures XInsight's explanation labels and causal
//! claims against this ground truth; the experts' own judgements are a human
//! study that cannot be reproduced.

use rand::prelude::*;
use rand::rngs::StdRng;
use xinsight_data::{Dataset, DatasetBuilder};

/// Number of behaviour columns (the paper's dataset has 28 plus the label).
pub const N_BEHAVIORS: usize = 28;

/// A generated WEB-like dataset plus its ground truth.
#[derive(Debug, Clone)]
pub struct WebInstance {
    /// The dataset: `B00`…`B27` behaviour dimensions plus `IsBlocked`.
    pub data: Dataset,
    /// Names of the behaviours that genuinely cause blocking.
    pub causal_behaviors: Vec<String>,
    /// Names of the behaviours that are consequences of blocking-related
    /// activity (correlated but not causes).
    pub consequence_behaviors: Vec<String>,
}

/// Generates a WEB-like dataset with `n_rows` users (the paper has 764).
pub fn generate(n_rows: usize, seed: u64) -> WebInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let causal_idx: Vec<usize> = vec![1, 4, 7, 11, 16, 21];
    let consequence_idx: Vec<usize> = vec![2, 9, 18];

    let mut behaviors: Vec<Vec<&'static str>> = (0..N_BEHAVIORS)
        .map(|_| Vec::with_capacity(n_rows))
        .collect();
    let mut blocked = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        // Latent "malicious intent" drives both the causal behaviours and,
        // through them, the blocking decision.
        let malicious = rng.gen::<f64>() < 0.25;
        let mut risk = 0.0f64;
        let mut row: Vec<bool> = vec![false; N_BEHAVIORS];
        for (i, cell) in row.iter_mut().enumerate() {
            if causal_idx.contains(&i) {
                let p = if malicious { 0.7 } else { 0.12 };
                *cell = rng.gen::<f64>() < p;
                if *cell {
                    risk += 0.16;
                }
            } else if !consequence_idx.contains(&i) {
                *cell = rng.gen::<f64>() < 0.3;
            }
        }
        let p_block = (0.03 + risk).min(0.95);
        let is_blocked = rng.gen::<f64>() < p_block;
        // Consequence behaviours fire mostly for users on the blocked path.
        for &i in &consequence_idx {
            let p = if is_blocked { 0.75 } else { 0.2 };
            row[i] = rng.gen::<f64>() < p;
        }
        for (i, &v) in row.iter().enumerate() {
            behaviors[i].push(if v { "1" } else { "0" });
        }
        blocked.push(if is_blocked { "Yes" } else { "No" });
    }

    let mut builder = DatasetBuilder::new();
    for (i, column) in behaviors.iter().enumerate() {
        builder = builder.dimension(&format!("B{i:02}"), column.iter().copied());
    }
    builder = builder.dimension("IsBlocked", blocked);
    let data = builder
        .build()
        .expect("generator builds a consistent dataset");

    WebInstance {
        data,
        causal_behaviors: causal_idx.iter().map(|i| format!("B{i:02}")).collect(),
        consequence_behaviors: consequence_idx.iter().map(|i| format!("B{i:02}")).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, Filter};

    #[test]
    fn shape_matches_the_paper() {
        let inst = generate(764, 1);
        assert_eq!(inst.data.n_rows(), 764);
        assert_eq!(inst.data.n_attributes(), N_BEHAVIORS + 1);
        assert_eq!(inst.causal_behaviors.len(), 6);
        assert!(inst
            .causal_behaviors
            .iter()
            .all(|b| inst.data.dimension(b).is_ok()));
    }

    #[test]
    fn causal_behaviors_raise_blocking_rate() {
        let inst = generate(6000, 2);
        let blocked_mask = Filter::equals("IsBlocked", "Yes").mask(&inst.data).unwrap();
        let base_rate = blocked_mask.count() as f64 / inst.data.n_rows() as f64;
        for b in &inst.causal_behaviors {
            let with = Filter::equals(b, "1").mask(&inst.data).unwrap();
            let rate = with.and(&blocked_mask).count() as f64 / with.count().max(1) as f64;
            assert!(
                rate > base_rate,
                "behaviour {b} must raise the blocking rate ({rate} vs {base_rate})"
            );
        }
    }

    #[test]
    fn consequences_are_correlated_but_not_generated_from_intent() {
        let inst = generate(6000, 3);
        // Consequence behaviours are strongly associated with IsBlocked too —
        // that is exactly why a correlation-only tool would flag them.
        let blocked_mask = Filter::equals("IsBlocked", "Yes").mask(&inst.data).unwrap();
        for b in &inst.consequence_behaviors {
            let with = Filter::equals(b, "1").mask(&inst.data).unwrap();
            let rate = with.and(&blocked_mask).count() as f64 / with.count().max(1) as f64;
            let base = blocked_mask.count() as f64 / inst.data.n_rows() as f64;
            assert!(rate > base);
        }
    }

    #[test]
    fn is_blocked_can_be_aggregated_after_relabel() {
        let inst = generate(1000, 4);
        // The label is categorical; a COUNT aggregate over any measure-free
        // dataset is still possible through filters.
        let yes = Filter::equals("IsBlocked", "Yes")
            .support(&inst.data)
            .unwrap();
        assert!(yes > 50);
        assert!(inst.data.measure("IsBlocked").is_err());
        let _ = Aggregate::Count;
    }
}
