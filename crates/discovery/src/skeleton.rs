//! PC-style adjacency (skeleton) search, depth-batched and optionally
//! parallel.
//!
//! The search proceeds in *depths* (conditioning-set sizes).  At each depth
//! the candidate `(x, y)` pairs and their adjacency sets are **frozen** from
//! the graph as it stood when the depth began; every candidate is then
//! evaluated independently (serially or fanned out over the rayon pool) and
//! the removals are applied in one deterministic serial merge.  This is the
//! order-independent "stable" formulation of the PC adjacency search: the
//! result does not depend on evaluation order, so the parallel and serial
//! execution modes produce **identical** graphs, sepsets and test counts by
//! construction (property-tested in `tests/offline_equivalence.rs`).
//!
//! All CI queries run through a test compiled once per search
//! ([`CiTest::compile`]): variable names are resolved to dense ids up front
//! and the hot loop performs no string work.

use crate::sepset::SepsetMap;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use xinsight_data::{Dataset, Result};
use xinsight_graph::{MixedGraph, NodeId};
use xinsight_stats::{CiTest, IndexedCiTest};

/// Options for the adjacency search.
#[derive(Debug, Clone)]
pub struct SkeletonOptions {
    /// Upper bound on the size of conditioning sets; `None` lets the search
    /// run until neighborhoods are exhausted (the classical algorithm).
    pub max_cond_size: Option<usize>,
    /// Whether each depth's frozen candidate batch is evaluated on the rayon
    /// pool.  Results are identical either way (see the module docs); the
    /// flag exists for serial baselines and single-core environments.
    pub parallel: bool,
}

impl Default for SkeletonOptions {
    fn default() -> Self {
        SkeletonOptions {
            max_cond_size: None,
            parallel: true,
        }
    }
}

/// Result of the adjacency search.
#[derive(Debug, Clone)]
pub struct SkeletonResult {
    /// The learned skeleton: every remaining edge is `o-o`.
    pub graph: MixedGraph,
    /// Separating sets recorded for removed edges.
    pub sepsets: SepsetMap,
    /// Number of CI tests executed.
    pub n_ci_tests: usize,
}

/// One frozen pruning query: an ordered pair `(x, y)` plus the nodes its
/// separating sets are drawn from — the adjacency set `adj(x) \ {y}`
/// captured at the start of a depth, or (in FCI) the pair's Possible-D-SEP
/// union.
pub(crate) type Candidate = (NodeId, NodeId, Vec<NodeId>);

/// Runs the PC adjacency search over `vars` (a subset of the dataset's
/// dimensions) using the given CI test.
///
/// Starting from the complete graph, edges `X – Y` are removed as soon as a
/// conditioning set `S ⊆ adj(X) \ {Y}` (of increasing size) renders `X ⫫ Y | S`;
/// the set is recorded in the [`SepsetMap`].
pub fn skeleton_search(
    data: &Dataset,
    vars: &[&str],
    test: &dyn CiTest,
    options: &SkeletonOptions,
) -> Result<SkeletonResult> {
    let compiled = test.compile(data, vars)?;
    skeleton_search_compiled(compiled.as_ref(), vars, options)
}

/// The search body, over an already-compiled test — lets FCI compile once
/// and reuse the same compiled test for its Possible-D-SEP stage.
pub(crate) fn skeleton_search_compiled(
    compiled: &dyn IndexedCiTest,
    vars: &[&str],
    options: &SkeletonOptions,
) -> Result<SkeletonResult> {
    let mut graph = complete_graph(vars);
    let mut sepsets = SepsetMap::new();
    let n_tests = AtomicUsize::new(0);

    let mut depth = 0usize;
    loop {
        if let Some(max) = options.max_cond_size {
            if depth > max {
                break;
            }
        }
        // Freeze this depth's candidate batch: both orientations of every
        // surviving edge, each with its adjacency set as of depth start.
        let candidates: Vec<Candidate> = graph
            .edges()
            .iter()
            .flat_map(|e| [(e.a, e.b), (e.b, e.a)])
            .filter_map(|(x, y)| {
                let adj: Vec<NodeId> = graph.neighbors_iter(x).filter(|&v| v != y).collect();
                (adj.len() >= depth).then_some((x, y, adj))
            })
            .collect();
        if candidates.is_empty() {
            break;
        }

        prune_batch(
            &mut graph,
            &mut sepsets,
            &candidates,
            options.parallel,
            |(x, y, adj)| find_separating_subset(compiled, *x, *y, adj, depth, &n_tests),
        );
        depth += 1;
    }

    Ok(SkeletonResult {
        graph,
        sepsets,
        n_ci_tests: n_tests.into_inner(),
    })
}

/// Evaluates a frozen batch of `(x, y, candidates)` pruning queries —
/// fanned out over the rayon pool when `parallel` — and applies the
/// separators in one deterministic serial merge in batch order: the first
/// query that separated a pair removes its edge and records the sepset; a
/// later query for the same pair (the mirrored candidate) finds the edge
/// gone.  Shared by the depth batches above and FCI's Possible-D-SEP stage.
pub(crate) fn prune_batch(
    graph: &mut MixedGraph,
    sepsets: &mut SepsetMap,
    batch: &[Candidate],
    parallel: bool,
    evaluate: impl Fn(&Candidate) -> Option<Vec<NodeId>> + Sync,
) {
    let outcomes: Vec<Option<Vec<NodeId>>> = if parallel {
        batch.par_iter().map(&evaluate).collect()
    } else {
        batch.iter().map(&evaluate).collect()
    };
    for ((x, y, _), separator) in batch.iter().zip(outcomes) {
        if let Some(subset) = separator {
            if graph.adjacent(*x, *y) {
                graph.remove_edge(*x, *y);
                sepsets.insert(
                    *x as u32,
                    *y as u32,
                    subset.iter().map(|&v| v as u32).collect(),
                );
            }
        }
    }
}

/// The complete `o-o` graph over `vars` — the name-interning prelude of the
/// search.  Everything after this call (candidate evaluation, sepset
/// recording, merges) is addressed by dense id; no `String` is hashed or
/// allocated on the fit path (enforced by xlint's `no-string-fit-path`
/// scope over the search body).
fn complete_graph(vars: &[&str]) -> MixedGraph {
    let mut graph = MixedGraph::new(vars.iter().map(|s| s.to_string()));
    for a in 0..vars.len() {
        for b in (a + 1)..vars.len() {
            graph.add_nondirected(a, b);
        }
    }
    graph
}

/// Searches `adj` for the first (in enumeration order) subset of exactly
/// `depth` elements that renders `x ⫫ y | subset`, counting issued tests.
/// Test errors conservatively count as "dependent".
pub(crate) fn find_separating_subset(
    test: &dyn IndexedCiTest,
    x: NodeId,
    y: NodeId,
    adj: &[NodeId],
    depth: usize,
    n_tests: &AtomicUsize,
) -> Option<Vec<NodeId>> {
    let mut found: Option<Vec<NodeId>> = None;
    // xlint: allow(no-alloc-hot-path, one id buffer per candidate, reused across every enumerated subset)
    let mut z: Vec<u32> = Vec::with_capacity(depth);
    for_each_subset_of_size(adj, depth, &mut |subset| {
        if found.is_some() {
            return;
        }
        n_tests.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic test counter
        z.clear();
        z.extend(subset.iter().map(|&v| v as u32));
        if let Ok(true) = test.independent_ids(x as u32, y as u32, &z) {
            // xlint: allow(no-alloc-hot-path, one allocation per removed edge, not per CI test)
            found = Some(subset.to_vec());
        }
    });
    found
}

/// Calls `f` for every subset of `items` of exactly `size` elements.
pub(crate) fn for_each_subset_of_size(
    items: &[NodeId],
    size: usize,
    f: &mut impl FnMut(&[NodeId]),
) {
    fn rec(
        items: &[NodeId],
        size: usize,
        start: usize,
        current: &mut Vec<NodeId>,
        f: &mut impl FnMut(&[NodeId]),
    ) {
        if current.len() == size {
            f(current);
            return;
        }
        // Prune when not enough items remain.
        if items.len() - start < size - current.len() {
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, size, i + 1, current, f);
            current.pop();
        }
    }
    // xlint: allow(no-alloc-hot-path, one scratch buffer per enumeration, reused by every recursive step)
    let mut current = Vec::with_capacity(size);
    rec(items, size, 0, &mut current, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleCiTest;
    use xinsight_data::DatasetBuilder;
    use xinsight_graph::Dag;

    fn dummy_data() -> Dataset {
        DatasetBuilder::new().dimension("_", ["x"]).build().unwrap()
    }

    #[test]
    fn oracle_skeleton_of_a_chain() {
        // A -> B -> C : skeleton A - B - C, sepset(A, C) = {B}.
        let mut dag = Dag::new(["A", "B", "C"]);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        let oracle = OracleCiTest::from_dag(&dag);
        let result = skeleton_search(
            &dummy_data(),
            &["A", "B", "C"],
            &oracle,
            &SkeletonOptions::default(),
        )
        .unwrap();
        assert_eq!(result.graph.n_edges(), 2);
        assert!(result.graph.adjacent(0, 1));
        assert!(result.graph.adjacent(1, 2));
        assert!(!result.graph.adjacent(0, 2));
        // Sepset ids index `vars` (= graph node ids): A=0, B=1, C=2.
        assert_eq!(result.sepsets.get(0, 2).unwrap(), &[1]);
        assert!(result.n_ci_tests > 0);
    }

    #[test]
    fn oracle_skeleton_of_a_collider() {
        // A -> B <- C : A and C are marginally independent, so sepset is empty.
        let mut dag = Dag::new(["A", "B", "C"]);
        dag.add_edge(0, 1);
        dag.add_edge(2, 1);
        let oracle = OracleCiTest::from_dag(&dag);
        let result = skeleton_search(
            &dummy_data(),
            &["A", "B", "C"],
            &oracle,
            &SkeletonOptions::default(),
        )
        .unwrap();
        assert_eq!(result.graph.n_edges(), 2);
        assert!(!result.graph.adjacent(0, 2));
        assert_eq!(result.sepsets.get(0, 2).unwrap().len(), 0);
    }

    #[test]
    fn max_cond_size_limits_removals() {
        // Diamond: A -> B -> D, A -> C -> D. Separating A and D needs {B, C}.
        let mut dag = Dag::new(["A", "B", "C", "D"]);
        dag.add_edge(0, 1);
        dag.add_edge(0, 2);
        dag.add_edge(1, 3);
        dag.add_edge(2, 3);
        let oracle = OracleCiTest::from_dag(&dag);
        let limited = skeleton_search(
            &dummy_data(),
            &["A", "B", "C", "D"],
            &oracle,
            &SkeletonOptions {
                max_cond_size: Some(1),
                ..SkeletonOptions::default()
            },
        )
        .unwrap();
        // With conditioning sets capped at size 1, the A - D edge cannot be removed.
        assert!(limited.graph.adjacent(0, 3));

        let full = skeleton_search(
            &dummy_data(),
            &["A", "B", "C", "D"],
            &oracle,
            &SkeletonOptions::default(),
        )
        .unwrap();
        assert!(!full.graph.adjacent(0, 3));
        assert_eq!(full.graph.n_edges(), 4);
        let sep = full.sepsets.get(0, 3).unwrap();
        assert_eq!(sep, &[1, 2]);
    }

    #[test]
    fn independent_variables_yield_empty_skeleton() {
        let dag = Dag::new(["A", "B", "C"]);
        let oracle = OracleCiTest::from_dag(&dag);
        let result = skeleton_search(
            &dummy_data(),
            &["A", "B", "C"],
            &oracle,
            &SkeletonOptions::default(),
        )
        .unwrap();
        assert_eq!(result.graph.n_edges(), 0);
        assert_eq!(result.sepsets.len(), 3);
    }

    #[test]
    fn parallel_and_serial_modes_are_identical() {
        // A random-ish oracle DAG where several depths fire.
        let mut dag = Dag::new(["A", "B", "C", "D", "E"]);
        dag.add_edge(0, 1);
        dag.add_edge(0, 2);
        dag.add_edge(1, 3);
        dag.add_edge(2, 3);
        dag.add_edge(3, 4);
        let oracle = OracleCiTest::from_dag(&dag);
        let vars = ["A", "B", "C", "D", "E"];
        let serial = skeleton_search(
            &dummy_data(),
            &vars,
            &oracle,
            &SkeletonOptions {
                parallel: false,
                ..SkeletonOptions::default()
            },
        )
        .unwrap();
        let parallel =
            skeleton_search(&dummy_data(), &vars, &oracle, &SkeletonOptions::default()).unwrap();
        assert_eq!(serial.graph, parallel.graph);
        assert_eq!(serial.sepsets, parallel.sepsets);
        assert_eq!(serial.n_ci_tests, parallel.n_ci_tests);
    }

    #[test]
    fn subset_enumeration_counts() {
        let items: Vec<NodeId> = vec![0, 1, 2, 3];
        let mut count = 0;
        for_each_subset_of_size(&items, 2, &mut |_| count += 1);
        assert_eq!(count, 6);
        count = 0;
        for_each_subset_of_size(&items, 0, &mut |s| {
            assert!(s.is_empty());
            count += 1
        });
        assert_eq!(count, 1);
        count = 0;
        for_each_subset_of_size(&items, 5, &mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
