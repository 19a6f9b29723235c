//! m-separation (Def. 2.3) over mixed graphs and d-separation over DAGs.
//!
//! The implementation searches for an *m-connecting walk* from `x` to `y`
//! given `Z` with a reachability sweep over directed edge-traversal states
//! `(from, to)`.  A walk exists iff a path exists, so the criterion is exact.
//!
//! A non-endpoint node `W` on a path blocks the path iff
//! * `W` is a non-collider and `W ∈ Z`, or
//! * `W` is a collider and `W` is neither in `Z` nor an ancestor of a node
//!   of `Z` (ancestors via directed edges only).
//!
//! Collider status requires *definite* arrowheads at both incident
//! endpoints; circle marks in PAGs are treated as non-arrowheads, which keeps
//! the criterion exact for MAGs/DAGs and conservative-toward-connection for
//! PAGs (a circle never hides a connecting path behind a collider).

use crate::mixed_graph::{MixedGraph, NodeId};
use std::collections::VecDeque;

/// Returns `true` when `x` and `y` are m-separated by `z` in `graph`.
pub fn m_separated(graph: &MixedGraph, x: NodeId, y: NodeId, z: &[NodeId]) -> bool {
    !m_connected(graph, x, y, z)
}

/// Returns `true` when there exists an m-connecting path between `x` and `y`
/// given `z`.
///
/// Working state is dense over node ids (`Vec<bool>` membership tables and
/// an `n × n` visited matrix for the `(from, to)` edge-traversal states) —
/// no hashing anywhere on the sweep, which sits on XTranslator's online
/// explainability path as well as the test oracle.
fn m_connected(graph: &MixedGraph, x: NodeId, y: NodeId, z: &[NodeId]) -> bool {
    if x == y {
        return true;
    }
    if graph.adjacent(x, y) {
        // An edge between x and y has no non-endpoint node, so it can never
        // be blocked.
        return true;
    }
    let n = graph.n_nodes();
    let mut in_z = vec![false; n];
    for &zi in z {
        in_z[zi] = true;
    }
    // Nodes that keep colliders open: Z and all ancestors of Z (conditioning
    // on an endpoint is degenerate; paths through conditioned endpoints are
    // blocked but the endpoints still count as connected via an edge).
    let mut open_colliders = in_z.clone();
    let mut scratch_queue = VecDeque::new();
    for &zi in z {
        graph.mark_ancestors(zi, &mut open_colliders, &mut scratch_queue);
    }

    // State (u, v): we arrived at v coming from u along edge {u, v}.
    let mut visited = vec![false; n * n];
    let mut queue: VecDeque<(NodeId, NodeId)> = VecDeque::new();
    for w in graph.neighbors_iter(x) {
        if w == y {
            return true;
        }
        if !visited[x * n + w] {
            visited[x * n + w] = true;
            queue.push_back((x, w));
        }
    }
    while let Some((u, v)) = queue.pop_front() {
        for w in graph.neighbors_iter(v) {
            if w == u {
                continue;
            }
            let collider = graph.is_collider(u, v, w);
            let open = if collider {
                open_colliders[v]
            } else {
                !in_z[v]
            };
            if !open {
                continue;
            }
            if w == y {
                return true;
            }
            if !visited[v * n + w] {
                visited[v * n + w] = true;
                queue.push_back((v, w));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed_graph::MixedGraph;

    /// Name-based wrapper around [`m_separated`].
    fn m_separated_by_names(graph: &MixedGraph, x: &str, y: &str, z: &[&str]) -> bool {
        let xi = graph.expect_id(x);
        let yi = graph.expect_id(y);
        let zi: Vec<NodeId> = z.iter().map(|n| graph.expect_id(n)).collect();
        m_separated(graph, xi, yi, &zi)
    }

    /// The paper's Fig. 1(c) as a fully oriented graph.
    fn lung_cancer() -> MixedGraph {
        let mut g = MixedGraph::new([
            "Location",
            "Stress",
            "Smoking",
            "LungCancer",
            "Surgery",
            "Survival",
        ]);
        g.add_directed(g.expect_id("Location"), g.expect_id("Smoking"));
        g.add_directed(g.expect_id("Stress"), g.expect_id("Smoking"));
        g.add_directed(g.expect_id("Smoking"), g.expect_id("LungCancer"));
        g.add_directed(g.expect_id("LungCancer"), g.expect_id("Surgery"));
        g.add_directed(g.expect_id("LungCancer"), g.expect_id("Survival"));
        g
    }

    #[test]
    fn paper_example_2_7_smoking_blocks_location() {
        let g = lung_cancer();
        // Lung Cancer ⫫ Location | Smoking (Ex. 2.7).
        assert!(m_separated_by_names(
            &g,
            "LungCancer",
            "Location",
            &["Smoking"]
        ));
        assert!(!m_separated_by_names(&g, "LungCancer", "Location", &[]));
    }

    #[test]
    fn collider_opens_under_conditioning() {
        let g = lung_cancer();
        // Location and Stress are marginally separated but conditioning on the
        // collider Smoking (or on its descendant LungCancer) connects them.
        assert!(m_separated_by_names(&g, "Location", "Stress", &[]));
        assert!(!m_separated_by_names(
            &g,
            "Location",
            "Stress",
            &["Smoking"]
        ));
        assert!(!m_separated_by_names(
            &g,
            "Location",
            "Stress",
            &["LungCancer"]
        ));
        assert!(!m_separated_by_names(
            &g,
            "Location",
            "Stress",
            &["Survival"]
        ));
    }

    #[test]
    fn downstream_variables_connected_without_conditioning() {
        let g = lung_cancer();
        assert!(!m_separated_by_names(&g, "Surgery", "Survival", &[]));
        assert!(m_separated_by_names(
            &g,
            "Surgery",
            "Survival",
            &["LungCancer"]
        ));
        assert!(m_separated_by_names(
            &g,
            "Location",
            "Survival",
            &["Smoking"]
        ));
        assert!(m_separated_by_names(
            &g,
            "Location",
            "Survival",
            &["LungCancer"]
        ));
    }

    #[test]
    fn bidirected_edges_behave_like_latent_confounders() {
        // X <-> Y <-> Z : Y is a collider on the path X..Z.
        let mut g = MixedGraph::new(["X", "Y", "Z"]);
        g.add_bidirected(0, 1);
        g.add_bidirected(1, 2);
        assert!(m_separated(&g, 0, 2, &[]));
        assert!(!m_separated(&g, 0, 2, &[1]));
    }

    #[test]
    fn adjacency_is_never_separated() {
        let mut g = MixedGraph::new(["X", "Y", "Z"]);
        g.add_directed(0, 1);
        g.add_directed(2, 1);
        assert!(!m_separated(&g, 0, 1, &[2]));
    }

    #[test]
    fn circle_marks_do_not_create_colliders() {
        // X o-o Y o-o Z: with circles, Y is not a definite collider, so the
        // path is open marginally and blocked by {Y}.
        let mut g = MixedGraph::new(["X", "Y", "Z"]);
        g.add_nondirected(0, 1);
        g.add_nondirected(1, 2);
        assert!(!m_separated(&g, 0, 2, &[]));
        assert!(m_separated(&g, 0, 2, &[1]));
    }

    #[test]
    fn longer_collider_chains() {
        // A -> B <- C -> D: A and D are separated by {} and by {C}? No:
        // path A -> B <- C -> D is blocked at B (collider, unconditioned).
        // Conditioning on B opens it; conditioning on {B, C} blocks at C.
        let mut g = MixedGraph::new(["A", "B", "C", "D"]);
        g.add_directed(0, 1);
        g.add_directed(2, 1);
        g.add_directed(2, 3);
        assert!(m_separated(&g, 0, 3, &[]));
        assert!(!m_separated(&g, 0, 3, &[1]));
        assert!(m_separated(&g, 0, 3, &[1, 2]));
    }
}
