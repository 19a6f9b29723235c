//! Structural accuracy metrics between an estimated and a true graph.
//!
//! Table 6 and Figure 7 of the paper compare XLearner against FCI by the
//! precision, recall and F1 of the learned causal graph against the ground
//! truth.  We report the standard *skeleton* metrics (adjacencies treated as
//! unordered pairs).

use crate::mixed_graph::MixedGraph;

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of predicted items that are correct.
    pub precision: f64,
    /// Fraction of true items that were predicted.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl PrecisionRecall {
    /// Builds the triple from true-positive, predicted-positive and
    /// actual-positive counts.
    fn from_counts(true_positive: usize, predicted: usize, actual: usize) -> Self {
        let precision = if predicted == 0 {
            if actual == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            true_positive as f64 / predicted as f64
        };
        let recall = if actual == 0 {
            1.0
        } else {
            true_positive as f64 / actual as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PrecisionRecall {
            precision,
            recall,
            f1,
        }
    }
}

/// Skeleton (adjacency) precision/recall/F1 of `estimated` against `truth`.
///
/// Node correspondence is by name; nodes present in only one graph simply
/// contribute missing/spurious adjacencies.
pub fn skeleton_metrics(estimated: &MixedGraph, truth: &MixedGraph) -> PrecisionRecall {
    let est_pairs = adjacency_pairs(estimated);
    let true_pairs = adjacency_pairs(truth);
    let tp = est_pairs.iter().filter(|p| true_pairs.contains(*p)).count();
    PrecisionRecall::from_counts(tp, est_pairs.len(), true_pairs.len())
}

fn adjacency_pairs(g: &MixedGraph) -> Vec<(String, String)> {
    g.edges()
        .iter()
        .map(|e| {
            let (x, y) = (g.name(e.a).to_owned(), g.name(e.b).to_owned());
            if x <= y {
                (x, y)
            } else {
                (y, x)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> MixedGraph {
        let mut g = MixedGraph::new(["A", "B", "C", "D"]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        g.add_bidirected(2, 3);
        g
    }

    #[test]
    fn perfect_estimate_scores_one() {
        let t = truth();
        let m = skeleton_metrics(&t, &t);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn missing_edges_lower_recall() {
        let t = truth();
        let mut est = MixedGraph::new(["A", "B", "C", "D"]);
        est.add_directed(0, 1);
        let m = skeleton_metrics(&est, &t);
        assert_eq!(m.precision, 1.0);
        assert!((m.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spurious_edges_lower_precision() {
        let t = truth();
        let mut est = t.clone();
        est.add_directed(0, 3);
        let m = skeleton_metrics(&est, &t);
        assert!(m.precision < 1.0);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn empty_graphs_behave_sensibly() {
        let empty = MixedGraph::new(["A", "B"]);
        let m = skeleton_metrics(&empty, &empty);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        let t = truth();
        let m2 = skeleton_metrics(&MixedGraph::new(["A", "B", "C", "D"]), &t);
        assert_eq!(m2.precision, 0.0);
        assert_eq!(m2.recall, 0.0);
        assert_eq!(m2.f1, 0.0);
    }

    #[test]
    fn from_counts_edge_cases() {
        let pr = PrecisionRecall::from_counts(0, 0, 0);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        let pr = PrecisionRecall::from_counts(2, 4, 8);
        assert_eq!(pr.precision, 0.5);
        assert_eq!(pr.recall, 0.25);
    }
}
