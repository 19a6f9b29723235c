//! Plain directed acyclic graphs.
//!
//! DAGs play two roles in the reproduction: they are the ground-truth
//! data-generating models of the synthetic experiments (SYN-A forward
//! sampling), and — extended with a latent-variable set — they back the
//! d-separation oracle used to test the discovery algorithms.

// HashMap here never leaks iteration order into output: adjacency lookups; traversals order by NodeId (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::mixed_graph::{MixedGraph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

/// A directed acyclic graph over named nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
}

impl Dag {
    /// Creates a DAG with the given nodes and no edges.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let n = names.len();
        Dag {
            names,
            index,
            children: vec![Vec::new(); n],
            parents: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// Name of node `id`.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id]
    }

    /// All node names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Node id of `name`, if present.
    pub fn id(&self, name: &str) -> Option<NodeId> {
        self.index.get(name).copied()
    }

    /// Node id of `name`, panicking when absent.
    pub fn expect_id(&self, name: &str) -> NodeId {
        self.id(name)
            .unwrap_or_else(|| panic!("node `{name}` is not part of the DAG"))
    }

    /// Adds the edge `a → b`.
    ///
    /// # Panics
    /// Panics if the edge would create a directed cycle or is a self loop.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(a != b, "self loops are not allowed");
        assert!(
            !self.has_path(b, a),
            "adding {} -> {} would create a cycle",
            self.names[a],
            self.names[b]
        );
        if !self.children[a].contains(&b) {
            self.children[a].push(b);
            self.parents[b].push(a);
        }
    }

    /// Returns `true` if the edge `a → b` exists.
    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.children[a].contains(&b)
    }

    /// Returns `true` if `a` and `b` are adjacent (in either direction).
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.has_edge(a, b) || self.has_edge(b, a)
    }

    /// Parents of `b`.
    pub fn parents(&self, b: NodeId) -> &[NodeId] {
        &self.parents[b]
    }

    /// Children of `a`.
    pub fn children(&self, a: NodeId) -> &[NodeId] {
        &self.children[a]
    }

    /// All edges as (parent, child) pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.n_edges());
        for a in 0..self.n_nodes() {
            for &b in &self.children[a] {
                out.push((a, b));
            }
        }
        out
    }

    /// Returns `true` when a directed path `a → ... → b` exists (or `a == b`).
    fn has_path(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from(vec![a]);
        while let Some(v) = queue.pop_front() {
            for &c in &self.children[v] {
                if c == b {
                    return true;
                }
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        false
    }

    /// A topological order of the node ids.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let n = self.n_nodes();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.parents[v].len()).collect();
        let mut queue: VecDeque<NodeId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in &self.children[v] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "DAG invariant violated");
        order
    }

    /// d-separation: `true` when every path between `x` and `y` is blocked by
    /// `z` (Pearl's criterion; identical to m-separation on a DAG).
    pub fn d_separated(&self, x: NodeId, y: NodeId, z: &[NodeId]) -> bool {
        crate::separation::m_separated(&self.to_mixed_graph(), x, y, z)
    }

    /// Converts the DAG to a [`MixedGraph`] with directed edges only.
    pub fn to_mixed_graph(&self) -> MixedGraph {
        let mut g = MixedGraph::new(self.names.clone());
        for (a, b) in self.edges() {
            g.add_directed(a, b);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Z → X`, `Z → Y`, `X → Y` — the classic confounded triangle.
    fn triangle() -> Dag {
        let mut d = Dag::new(["Z", "X", "Y"]);
        d.add_edge(0, 1);
        d.add_edge(0, 2);
        d.add_edge(1, 2);
        d
    }

    #[test]
    fn build_and_query() {
        let d = triangle();
        assert_eq!(d.n_nodes(), 3);
        assert_eq!(d.n_edges(), 3);
        assert!(d.has_edge(0, 1));
        assert!(!d.has_edge(1, 0));
        assert!(d.adjacent(1, 0));
        assert_eq!(d.parents(2), &[0, 1]);
        assert_eq!(d.children(0), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "create a cycle")]
    fn cycle_rejected() {
        let mut d = triangle();
        d.add_edge(2, 0);
    }

    #[test]
    fn topological_order_is_valid() {
        let d = triangle();
        let order = d.topological_order();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (a, b) in d.edges() {
            assert!(pos[&a] < pos[&b]);
        }
    }

    #[test]
    fn ancestors_descendants_paths() {
        let mut d = Dag::new(["A", "B", "C", "D"]);
        d.add_edge(0, 1);
        d.add_edge(1, 2);
        assert!(d.has_path(0, 2));
        assert!(!d.has_path(2, 0));
    }

    #[test]
    fn d_separation_chain_fork_collider() {
        // Chain: A -> B -> C.
        let mut chain = Dag::new(["A", "B", "C"]);
        chain.add_edge(0, 1);
        chain.add_edge(1, 2);
        assert!(!chain.d_separated(0, 2, &[]));
        assert!(chain.d_separated(0, 2, &[1]));

        // Fork: A <- B -> C.
        let mut fork = Dag::new(["A", "B", "C"]);
        fork.add_edge(1, 0);
        fork.add_edge(1, 2);
        assert!(!fork.d_separated(0, 2, &[]));
        assert!(fork.d_separated(0, 2, &[1]));

        // Collider: A -> B <- C.
        let mut coll = Dag::new(["A", "B", "C"]);
        coll.add_edge(0, 1);
        coll.add_edge(2, 1);
        assert!(coll.d_separated(0, 2, &[]));
        assert!(!coll.d_separated(0, 2, &[1]));
    }

    #[test]
    fn to_mixed_graph_preserves_structure() {
        let d = triangle();
        let g = d.to_mixed_graph();
        assert_eq!(g.n_edges(), 3);
        assert!(g.is_parent(g.expect_id("Z"), g.expect_id("X")));
        assert!(g.is_mag());
    }
}
