//! The FCI algorithm (Fast Causal Inference) for causally insufficient data.
//!
//! The split into [`fci_skeleton`] (the paper's *FCI-SL* phase) and
//! [`fci_orient`] (the *FCI-Orient* phase) mirrors Alg. 1 of the paper, whose
//! XLearner calls the two phases separately on the FD-free subset of the
//! variables.

use crate::orientation::{apply_fci_rules, orient_colliders};
use crate::sepset::SepsetMap;
use crate::skeleton::{
    find_separating_subset, prune_batch, skeleton_search_compiled, EdgeQuery, SkeletonOptions,
    SkeletonResult,
};
use std::sync::atomic::AtomicUsize;
use xinsight_data::{Dataset, Result};
use xinsight_graph::{MixedGraph, NodeId};
use xinsight_stats::CiTest;

/// Options controlling the FCI run.
#[derive(Debug, Clone)]
pub struct FciOptions {
    /// Maximum conditioning-set size during the adjacency search
    /// (`None` = unbounded, the classical algorithm).
    pub max_cond_size: Option<usize>,
    /// Whether the adjacency search's depth batches and the Possible-D-SEP
    /// pair batch are evaluated on the rayon pool.  Results are identical
    /// either way (the batches are frozen and merged deterministically).
    pub parallel: bool,
}

impl Default for FciOptions {
    fn default() -> Self {
        FciOptions {
            max_cond_size: None,
            parallel: true,
        }
    }
}

/// Maximum size of conditioning subsets drawn from the Possible-D-SEP sets.
/// The full algorithm enumerates all subsets, which is exponential; a cap of
/// 3 matches common implementations.
const MAX_PDSEP_SIZE: usize = 3;

/// Result of a full FCI run.
#[derive(Debug, Clone)]
pub struct FciResult {
    /// The learned PAG.
    pub pag: MixedGraph,
    /// Separating sets found along the way.
    pub sepsets: SepsetMap,
    /// Total number of CI tests issued.
    pub n_ci_tests: usize,
}

/// FCI-SL: learns the skeleton of the PAG (all edges reported as `o-o`),
/// including the Possible-D-SEP pruning stage.
///
/// Like the adjacency search, the Possible-D-SEP stage is *batched*: the
/// partially oriented graph is frozen after collider orientation, every
/// surviving edge's pruning query is evaluated independently (on the rayon
/// pool when [`FciOptions::parallel`] is set), and removals are applied in
/// one deterministic serial merge — so parallel and serial runs produce
/// identical results.
pub fn fci_skeleton(
    data: &Dataset,
    vars: &[&str],
    test: &dyn CiTest,
    options: &FciOptions,
) -> Result<SkeletonResult> {
    let compiled = test.compile(data, vars)?;
    let mut result = skeleton_search_compiled(
        compiled.as_ref(),
        vars,
        &SkeletonOptions {
            max_cond_size: options.max_cond_size,
            parallel: options.parallel,
        },
    )?;

    // Orient colliders on a scratch copy — Possible-D-SEP is defined on the
    // partially oriented graph, frozen here for the whole batch.
    let mut oriented = result.graph.clone();
    orient_colliders(&mut oriented, &result.sepsets);

    let n_extra = AtomicUsize::new(0);
    let batch: Vec<EdgeQuery> = oriented
        .edges()
        .iter()
        .map(|e| {
            let (x, y) = (e.a, e.b);
            let mut candidates: Vec<NodeId> = possible_d_sep(&oriented, x)
                .into_iter()
                .chain(possible_d_sep(&oriented, y))
                .filter(|&v| v != x && v != y)
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            EdgeQuery {
                x,
                y,
                from_x: Some(candidates),
                from_y: None,
            }
        })
        .collect();

    prune_batch(
        &mut result.graph,
        &mut result.sepsets,
        &batch,
        options.parallel,
        |x, y, candidates| {
            (0..=MAX_PDSEP_SIZE.min(candidates.len())).find_map(|size| {
                find_separating_subset(compiled.as_ref(), x, y, candidates, size, &n_extra)
            })
        },
    );
    result.n_ci_tests += n_extra.into_inner();
    // Reset every remaining edge to o-o (the orientation phase starts fresh).
    result.graph = result.graph.skeleton();
    Ok(result)
}

/// FCI-Orient: orients a skeleton into a PAG using the recorded sepsets
/// (collider orientation followed by rules R1–R4 and R8–R10).
pub fn fci_orient(skeleton: &MixedGraph, sepsets: &SepsetMap) -> MixedGraph {
    let mut pag = skeleton.skeleton();
    orient_colliders(&mut pag, sepsets);
    apply_fci_rules(&mut pag, sepsets);
    pag
}

/// Runs the complete FCI algorithm over `vars`.
pub fn fci(
    data: &Dataset,
    vars: &[&str],
    test: &dyn CiTest,
    options: &FciOptions,
) -> Result<FciResult> {
    let skeleton = fci_skeleton(data, vars, test, options)?;
    let pag = fci_orient(&skeleton.graph, &skeleton.sepsets);
    Ok(FciResult {
        pag,
        sepsets: skeleton.sepsets,
        n_ci_tests: skeleton.n_ci_tests,
    })
}

/// Computes Possible-D-SEP(x) on a partially oriented graph (Def. 8.2 of the
/// paper's supplementary material): all nodes `z` reachable from `x` by a path
/// on which every interior node is either a (definite) collider or part of a
/// triangle with its path neighbours.
///
/// The sweep is dense: the `(prev, cur)` edge-traversal states live in an
/// `n × n` bool matrix and membership in the result is a `Vec<bool>` probe,
/// so the walk performs no hashing.  Nodes are reported in first-reached
/// order (deterministic: neighbors iterate ascending by id).
pub fn possible_d_sep(graph: &MixedGraph, x: NodeId) -> Vec<NodeId> {
    let n = graph.n_nodes();
    let mut reached: Vec<NodeId> = Vec::new();
    let mut in_reached = vec![false; n];
    let mut visited = vec![false; n * n];
    let mut queue: Vec<(NodeId, NodeId)> = Vec::new();
    for nb in graph.neighbors_iter(x) {
        visited[x * n + nb] = true;
        queue.push((x, nb));
        if !in_reached[nb] {
            in_reached[nb] = true;
            reached.push(nb);
        }
    }
    while let Some((prev, cur)) = queue.pop() {
        for next in graph.neighbors_iter(cur) {
            if next == prev || next == x {
                continue;
            }
            let collider = graph.is_collider(prev, cur, next);
            let triangle = graph.adjacent(prev, next);
            if !(collider || triangle) {
                continue;
            }
            if !visited[cur * n + next] {
                visited[cur * n + next] = true;
                queue.push((cur, next));
                if !in_reached[next] {
                    in_reached[next] = true;
                    reached.push(next);
                }
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleCiTest;
    use xinsight_data::DatasetBuilder;
    use xinsight_graph::{Dag, EdgeType, Mark};

    fn dummy_data() -> Dataset {
        DatasetBuilder::new().dimension("_", ["x"]).build().unwrap()
    }

    /// Runs FCI with a d-separation oracle over the observed subset of a DAG.
    fn run_oracle_fci(dag: &Dag, observed: &[&str]) -> FciResult {
        let oracle = OracleCiTest::from_dag(dag);
        fci(&dummy_data(), observed, &oracle, &FciOptions::default()).unwrap()
    }

    #[test]
    fn collider_is_fully_recovered() {
        // A -> B <- C with everything observed: the PAG is A o-> B <-o C.
        let mut dag = Dag::new(["A", "B", "C"]);
        dag.add_edge(0, 1);
        dag.add_edge(2, 1);
        let result = run_oracle_fci(&dag, &["A", "B", "C"]);
        let g = &result.pag;
        let (a, b, c) = (g.expect_id("A"), g.expect_id("B"), g.expect_id("C"));
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.mark_at(b, a), Some(Mark::Arrow));
        assert_eq!(g.mark_at(b, c), Some(Mark::Arrow));
        assert_eq!(g.mark_at(a, b), Some(Mark::Circle));
        assert_eq!(g.mark_at(c, b), Some(Mark::Circle));
    }

    #[test]
    fn chain_has_undetermined_ends_but_correct_skeleton() {
        // A -> B -> C: the Markov equivalence class leaves ends undetermined
        // (A o-o B o-o C in the PAG), but the skeleton must be exact.
        let mut dag = Dag::new(["A", "B", "C"]);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        let result = run_oracle_fci(&dag, &["A", "B", "C"]);
        let g = &result.pag;
        assert_eq!(g.n_edges(), 2);
        assert!(g.adjacent(g.expect_id("A"), g.expect_id("B")));
        assert!(g.adjacent(g.expect_id("B"), g.expect_id("C")));
        assert!(!g.adjacent(g.expect_id("A"), g.expect_id("C")));
    }

    #[test]
    fn latent_confounder_is_not_mistaken_for_a_cause() {
        // Fig. 2 of the paper: L -> X, L -> Y with L latent. FCI must keep the
        // X – Y edge but cannot put a tail at either endpoint.
        let mut dag = Dag::new(["L", "X", "Y"]);
        dag.add_edge(0, 1);
        dag.add_edge(0, 2);
        let result = run_oracle_fci(&dag, &["X", "Y"]);
        let g = &result.pag;
        assert_eq!(g.n_edges(), 1);
        let (x, y) = (g.expect_id("X"), g.expect_id("Y"));
        assert_ne!(g.mark_at(x, y), Some(Mark::Tail));
        assert_ne!(g.mark_at(y, x), Some(Mark::Tail));
    }

    #[test]
    fn y_structure_orients_definite_cause() {
        // X1 -> Z <- X2, Z -> Y: the Y-structure forces Z -> Y with a tail at Z.
        let mut dag = Dag::new(["X1", "X2", "Z", "Y"]);
        dag.add_edge(0, 2);
        dag.add_edge(1, 2);
        dag.add_edge(2, 3);
        let result = run_oracle_fci(&dag, &["X1", "X2", "Z", "Y"]);
        let g = &result.pag;
        let (z, y) = (g.expect_id("Z"), g.expect_id("Y"));
        assert_eq!(g.edge_type(z, y), Some(EdgeType::Directed));
        assert!(g.is_parent(z, y));
    }

    #[test]
    fn paper_fig1_lung_cancer_pipeline() {
        // Location -> Smoking <- Stress, Smoking -> LungCancer -> {Surgery, Survival}.
        let mut dag = Dag::new([
            "Location",
            "Stress",
            "Smoking",
            "LungCancer",
            "Surgery",
            "Survival",
        ]);
        dag.add_edge(0, 2);
        dag.add_edge(1, 2);
        dag.add_edge(2, 3);
        dag.add_edge(3, 4);
        dag.add_edge(3, 5);
        let result = run_oracle_fci(
            &dag,
            &[
                "Location",
                "Stress",
                "Smoking",
                "LungCancer",
                "Surgery",
                "Survival",
            ],
        );
        let g = &result.pag;
        assert_eq!(g.n_edges(), 5);
        // The collider at Smoking gives arrowheads into Smoking …
        let (loc, smoking) = (g.expect_id("Location"), g.expect_id("Smoking"));
        assert_eq!(g.mark_at(smoking, loc), Some(Mark::Arrow));
        // … and the chain towards LungCancer is directed out of Smoking.
        let cancer = g.expect_id("LungCancer");
        assert!(g.is_parent(smoking, cancer));
    }

    #[test]
    fn possible_dsep_includes_collider_connected_nodes() {
        // x *-> m <-* z and z - w triangle-free: Possible-D-SEP(x) must contain
        // m (adjacent) and z (reachable through the collider m).
        let mut g = MixedGraph::new(["X", "M", "Z", "W"]);
        g.add_edge(0, 1, Mark::Circle, Mark::Arrow);
        g.add_edge(2, 1, Mark::Circle, Mark::Arrow);
        g.add_nondirected(2, 3);
        let pd = possible_d_sep(&g, 0);
        assert!(pd.contains(&1));
        assert!(pd.contains(&2));
        // W is reachable from Z only through a non-collider, non-triangle node.
        assert!(!pd.contains(&3));
    }

    #[test]
    fn ci_test_counts_are_reported() {
        let mut dag = Dag::new(["A", "B", "C"]);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        let result = run_oracle_fci(&dag, &["A", "B", "C"]);
        assert!(result.n_ci_tests >= 3);
        // Sepset ids index the vars order handed to fci: A=0, C=2.
        assert!(result.sepsets.contains_pair(0, 2));
    }
}
