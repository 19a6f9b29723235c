//! Directed mixed graphs with endpoint marks (MAGs and PAGs live here).
//!
//! # Storage: hybrid CSR over dense ids
//!
//! Node names are interned once at construction: every query after that is
//! addressed by dense [`NodeId`] (`names` is a display-only side table, and
//! the name→id `index` is consulted only at API boundaries such as
//! [`MixedGraph::id`] / [`MixedGraph::merge_by_name`]).
//!
//! Adjacency is a compressed-sparse-row layout adapted for the mutation
//! pattern of constraint-based discovery (edges are removed by skeleton
//! search, re-marked by orientation, and occasionally added back):
//!
//! ```text
//! pool:    [ block of node 0 … | block of node 1 … | relocated block … ]
//! offsets: start of each node's block in `pool`
//! caps:    allocated slots per block (block grows by relocating to the
//!          pool tail with doubled capacity, amortized O(1) per insert)
//! degrees: live entries per block
//! ```
//!
//! Each live entry is one packed `u32`: bits 0–27 the neighbor id, bits
//! 28–29 the mark at this node's end, bits 30–31 the mark at the neighbor's
//! end.  Blocks are kept sorted by neighbor id, so every traversal is a
//! cache-friendly O(degree) array walk and all iteration orders (and
//! therefore all rendered output) are deterministic by dense id.  Stale
//! blocks left behind by relocation are dead space, never read; graphs here
//! are variable-count sized (tens of nodes), so the slack is irrelevant.

// HashMap here never leaks iteration order into output: the FxHashMap alias resolves to std
// HashMap and serves boundary name->id lookups only; traversals order by NodeId (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::edge::Edge;
use crate::endpoint::Mark;
use fxhash::FxHashMap;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Dense node identifier inside a [`MixedGraph`].
pub type NodeId = usize;

/// Bits of a packed adjacency entry that hold the neighbor id.
const NODE_BITS: u32 = 28;
/// Mask extracting the neighbor id from a packed entry.
const NODE_MASK: u32 = (1 << NODE_BITS) - 1;
/// Smallest capacity a block relocates to.
const MIN_BLOCK_CAP: u32 = 4;

fn mark_bits(mark: Mark) -> u32 {
    match mark {
        Mark::Tail => 0,
        Mark::Arrow => 1,
        Mark::Circle => 2,
    }
}

fn bits_mark(bits: u32) -> Mark {
    match bits & 0b11 {
        0 => Mark::Tail,
        1 => Mark::Arrow,
        _ => Mark::Circle,
    }
}

/// Packs `(neighbor, mark at this end, mark at the far end)` into one `u32`.
fn pack(neighbor: NodeId, near: Mark, far: Mark) -> u32 {
    neighbor as u32 | (mark_bits(near) << NODE_BITS) | (mark_bits(far) << (NODE_BITS + 2))
}

fn entry_neighbor(entry: u32) -> NodeId {
    (entry & NODE_MASK) as NodeId
}

fn entry_near(entry: u32) -> Mark {
    bits_mark(entry >> NODE_BITS)
}

fn entry_far(entry: u32) -> Mark {
    bits_mark(entry >> (NODE_BITS + 2))
}

/// Classification of an edge by its two endpoint marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeType {
    /// `A → B`
    Directed,
    /// `A ↔ B`
    Bidirected,
    /// `A o→ B`
    PartiallyDirected,
    /// `A o-o B`
    Nondirected,
    /// `A — B` (tails at both ends; only arises under selection bias, which
    /// the paper assumes away, but FCI rules R5–R7 can still produce it)
    Undirected,
}

/// A directed mixed graph: named nodes plus at most one marked edge between
/// any two nodes.
///
/// The same structure represents skeletons (all-circle marks), MAGs
/// (tail/arrow marks, ancestral, maximal) and PAGs (possibly with circles).
/// See the module docs for the dense-id CSR storage layout.
#[derive(Debug, Clone)]
pub struct MixedGraph {
    names: Vec<String>,
    index: FxHashMap<String, NodeId>,
    /// Start of each node's adjacency block in `pool`.
    offsets: Vec<u32>,
    /// Allocated slots per block.
    caps: Vec<u32>,
    /// Live entries per block.
    degrees: Vec<u32>,
    /// Packed adjacency entries, blocks sorted by neighbor id.
    pool: Vec<u32>,
}

impl MixedGraph {
    /// Creates a graph with the given node names and no edges.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(
            names.len() <= NODE_MASK as usize,
            "MixedGraph supports at most 2^28 nodes"
        );
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let n = names.len();
        MixedGraph {
            names,
            index,
            offsets: vec![0; n],
            caps: vec![0; n],
            degrees: vec![0; n],
            pool: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.names.len()
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

    /// Node id of `name`, panicking with a readable message when absent.
    pub fn expect_id(&self, name: &str) -> NodeId {
        self.id(name)
            .unwrap_or_else(|| panic!("node `{name}` is not part of the graph"))
    }

    /// Node `a`'s live adjacency block.
    fn block(&self, a: NodeId) -> &[u32] {
        let start = self.offsets[a] as usize;
        &self.pool[start..start + self.degrees[a] as usize]
    }

    /// Pool index of the entry `a → b`, if adjacent.
    fn find(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let start = self.offsets[a] as usize;
        self.block(a)
            .iter()
            .position(|&e| entry_neighbor(e) == b)
            .map(|i| start + i)
    }

    /// Moves `a`'s block to the pool tail with doubled capacity.
    fn relocate(&mut self, a: NodeId) {
        let new_cap = (self.caps[a] * 2).max(MIN_BLOCK_CAP);
        let start = self.offsets[a] as usize;
        let deg = self.degrees[a] as usize;
        let new_start = self.pool.len();
        self.pool.extend_from_within(start..start + deg);
        self.pool.resize(new_start + new_cap as usize, 0);
        self.offsets[a] = new_start as u32;
        self.caps[a] = new_cap;
    }

    /// Inserts or replaces the half-edge `a → b`, keeping the block sorted.
    fn half_insert(&mut self, a: NodeId, b: NodeId, near: Mark, far: Mark) {
        let entry = pack(b, near, far);
        let start = self.offsets[a] as usize;
        let deg = self.degrees[a] as usize;
        let mut pos = deg;
        for i in 0..deg {
            let nb = entry_neighbor(self.pool[start + i]);
            if nb == b {
                self.pool[start + i] = entry;
                return;
            }
            if nb > b {
                pos = i;
                break;
            }
        }
        if deg == self.caps[a] as usize {
            self.relocate(a);
        }
        let start = self.offsets[a] as usize;
        self.pool
            .copy_within(start + pos..start + deg, start + pos + 1);
        self.pool[start + pos] = entry;
        self.degrees[a] += 1;
    }

    /// Removes the half-edge `a → b`, if present.
    fn half_remove(&mut self, a: NodeId, b: NodeId) {
        let start = self.offsets[a] as usize;
        let deg = self.degrees[a] as usize;
        if let Some(i) = self.block(a).iter().position(|&e| entry_neighbor(e) == b) {
            self.pool.copy_within(start + i + 1..start + deg, start + i);
            self.degrees[a] -= 1;
        }
    }

    /// Inserts (or replaces) the edge `a – b` with the given marks.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, mark_a: Mark, mark_b: Mark) {
        assert!(a != b, "self loops are not allowed");
        self.half_insert(a, b, mark_a, mark_b);
        self.half_insert(b, a, mark_b, mark_a);
    }

    /// Inserts the directed edge `a → b`.
    pub fn add_directed(&mut self, a: NodeId, b: NodeId) {
        self.add_edge(a, b, Mark::Tail, Mark::Arrow);
    }

    /// Inserts the bidirected edge `a ↔ b`.
    pub fn add_bidirected(&mut self, a: NodeId, b: NodeId) {
        self.add_edge(a, b, Mark::Arrow, Mark::Arrow);
    }

    /// Inserts the nondirected edge `a o-o b`.
    pub fn add_nondirected(&mut self, a: NodeId, b: NodeId) {
        self.add_edge(a, b, Mark::Circle, Mark::Circle);
    }

    /// Removes the edge between `a` and `b`, if any.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) {
        self.half_remove(a, b);
        self.half_remove(b, a);
    }

    /// Returns `true` when `a` and `b` are adjacent.
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a, b).is_some()
    }

    /// The mark at `at`'s end of the edge between `at` and `other`.
    pub fn mark_at(&self, at: NodeId, other: NodeId) -> Option<Mark> {
        self.find(at, other).map(|i| entry_near(self.pool[i]))
    }

    /// Sets the mark at `at`'s end of the existing edge between `at` and
    /// `other`.  Panics when the edge does not exist.
    pub fn set_mark(&mut self, at: NodeId, other: NodeId, mark: Mark) {
        let i = self
            .find(at, other)
            .unwrap_or_else(|| panic!("no edge between {at} and {other}"));
        let far = entry_far(self.pool[i]);
        self.pool[i] = pack(other, mark, far);
        // Mirror entry: the far mark seen from `other` is the new near mark.
        if let Some(j) = self.find(other, at) {
            self.pool[j] = pack(at, far, mark);
        }
    }

    /// Orients the existing edge as `a → b` (tail at `a`, arrowhead at `b`).
    pub fn orient(&mut self, a: NodeId, b: NodeId) {
        self.set_mark(a, b, Mark::Tail);
        self.set_mark(b, a, Mark::Arrow);
    }

    /// Neighbors of `a` (any edge), ascending by id.
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        self.neighbors_iter(a).collect()
    }

    /// Iterates the neighbors of `a` ascending by id, without allocating.
    pub fn neighbors_iter(&self, a: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.block(a).iter().map(|&e| entry_neighbor(e))
    }

    /// Iterates `(neighbor, mark at a, mark at neighbor)` for every edge at
    /// `a`, ascending by neighbor id, without allocating.
    fn edges_at_iter(&self, a: NodeId) -> impl Iterator<Item = (NodeId, Mark, Mark)> + '_ {
        self.block(a)
            .iter()
            .map(|&e| (entry_neighbor(e), entry_near(e), entry_far(e)))
    }

    /// The `i`-th neighbor of `a` (ascending by id; `i < degree(a)`).
    ///
    /// Index-addressed access lets orientation rules walk adjacency while
    /// re-marking edges: [`MixedGraph::set_mark`] never changes block
    /// membership or order, so indices stay valid across it.
    pub fn neighbor_at(&self, a: NodeId, i: usize) -> NodeId {
        entry_neighbor(self.block(a)[i])
    }

    /// The `i`-th adjacency entry of `a` as `(neighbor, mark at a, mark at
    /// neighbor)`.
    pub fn entry_at(&self, a: NodeId, i: usize) -> (NodeId, Mark, Mark) {
        let e = self.block(a)[i];
        (entry_neighbor(e), entry_near(e), entry_far(e))
    }

    /// Degree of `a`.
    pub fn degree(&self, a: NodeId) -> usize {
        self.degrees[a] as usize
    }

    /// All edges, each reported once with `a < b`, ascending by `(a, b)`.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for a in 0..self.n_nodes() {
            for (b, ma, mb) in self.edges_at_iter(a) {
                if a < b {
                    out.push(Edge::new(a, b, ma, mb));
                }
            }
        }
        out
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.degrees.iter().map(|&d| d as usize).sum::<usize>() / 2
    }

    /// Classification of the edge between `a` and `b`.
    pub fn edge_type(&self, a: NodeId, b: NodeId) -> Option<EdgeType> {
        self.find(a, b).map(|i| {
            let e = self.pool[i];
            match (entry_near(e), entry_far(e)) {
                (Mark::Tail, Mark::Arrow) | (Mark::Arrow, Mark::Tail) => EdgeType::Directed,
                (Mark::Arrow, Mark::Arrow) => EdgeType::Bidirected,
                (Mark::Circle, Mark::Circle) => EdgeType::Nondirected,
                (Mark::Tail, Mark::Tail) => EdgeType::Undirected,
                _ => EdgeType::PartiallyDirected,
            }
        })
    }

    /// Returns `true` when `a → b` (tail at a, arrowhead at b).
    pub fn is_parent(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a, b).is_some_and(|i| {
            let e = self.pool[i];
            entry_near(e) == Mark::Tail && entry_far(e) == Mark::Arrow
        })
    }

    /// Parents of `b`: nodes `a` with `a → b`, ascending by id.
    pub fn parents(&self, b: NodeId) -> Vec<NodeId> {
        self.parents_iter(b).collect()
    }

    /// Iterates the parents of `b` ascending by id, without allocating.
    pub fn parents_iter(&self, b: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges_at_iter(b)
            .filter(|&(_, mb, ma)| mb == Mark::Arrow && ma == Mark::Tail)
            .map(|(a, _, _)| a)
    }

    /// Children of `a`: nodes `b` with `a → b`, ascending by id.
    pub fn children(&self, a: NodeId) -> Vec<NodeId> {
        self.children_iter(a).collect()
    }

    /// Iterates the children of `a` ascending by id, without allocating.
    fn children_iter(&self, a: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges_at_iter(a)
            .filter(|&(_, ma, mb)| ma == Mark::Tail && mb == Mark::Arrow)
            .map(|(b, _, _)| b)
    }

    /// Returns `true` when `mid` is a collider on the path `prev *→ mid ←* next`.
    ///
    /// Only definite arrowheads count; circle marks do not make a collider.
    pub fn is_collider(&self, prev: NodeId, mid: NodeId, next: NodeId) -> bool {
        matches!(self.mark_at(mid, prev), Some(Mark::Arrow))
            && matches!(self.mark_at(mid, next), Some(Mark::Arrow))
    }

    /// Marks every ancestor of `x` (via directed edges only, `x` excluded)
    /// in `seen`, which must be `n_nodes()` long.  Allocation-free except
    /// for the caller-provided scratch.
    pub(crate) fn mark_ancestors(
        &self,
        x: NodeId,
        seen: &mut [bool],
        queue: &mut VecDeque<NodeId>,
    ) {
        queue.clear();
        queue.push_back(x);
        while let Some(v) = queue.pop_front() {
            for p in self.parents_iter(v) {
                if !seen[p] {
                    seen[p] = true;
                    queue.push_back(p);
                }
            }
        }
    }

    /// Ancestors of `x` (via directed edges only), not including `x` itself.
    fn ancestors(&self, x: NodeId) -> HashSet<NodeId> {
        let mut seen = vec![false; self.n_nodes()];
        let mut queue = VecDeque::new();
        self.mark_ancestors(x, &mut seen, &mut queue);
        let mut out = HashSet::new();
        out.extend(
            seen.iter()
                .enumerate()
                .filter(|&(v, &s)| s && v != x)
                .map(|(v, _)| v),
        );
        out
    }

    /// Descendants of `x` (via directed edges only), not including `x` itself.
    fn descendants(&self, x: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from(vec![x]);
        while let Some(v) = queue.pop_front() {
            for c in self.children_iter(v) {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        seen
    }

    /// Returns `true` when there is a directed path `a → ... → b`.
    pub fn is_ancestor_of(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.descendants(a).contains(&b)
    }

    /// Returns `true` when the graph contains a directed cycle.
    pub fn has_directed_cycle(&self) -> bool {
        (0..self.n_nodes()).any(|v| self.descendants(v).contains(&v))
    }

    /// Returns `true` when the graph contains an almost-directed cycle
    /// (`X → ... → Z ↔ X`, Def. 2.4).
    fn has_almost_directed_cycle(&self) -> bool {
        for e in self.edges() {
            if e.is_bidirected()
                && (self.descendants(e.a).contains(&e.b) || self.descendants(e.b).contains(&e.a))
            {
                return true;
            }
        }
        false
    }

    /// Returns `true` when the graph is *ancestral*: no directed cycles, no
    /// almost-directed cycles, and no undirected (tail-tail) edges.
    pub fn is_ancestral(&self) -> bool {
        !self.has_directed_cycle()
            && !self.has_almost_directed_cycle()
            && self
                .edges()
                .iter()
                .all(|e| self.edge_type(e.a, e.b) != Some(EdgeType::Undirected))
    }

    /// Returns `true` when the graph is a MAG: ancestral, contains no circle
    /// marks, and is maximal (every non-adjacent pair has an m-separating
    /// subset of the remaining nodes).
    ///
    /// The maximality check enumerates separating sets and is exponential in
    /// the worst case; it is intended for tests and for the small-to-medium
    /// graphs used in the evaluation.
    pub fn is_mag(&self) -> bool {
        if !self.is_ancestral() {
            return false;
        }
        if self.edges().iter().any(|e| e.has_circle()) {
            return false;
        }
        let n = self.n_nodes();
        for a in 0..n {
            for b in (a + 1)..n {
                if !self.adjacent(a, b) && !self.has_some_separating_set(a, b) {
                    return false;
                }
            }
        }
        true
    }

    fn has_some_separating_set(&self, a: NodeId, b: NodeId) -> bool {
        let others: Vec<NodeId> = (0..self.n_nodes()).filter(|&v| v != a && v != b).collect();
        let k = others.len();
        // Cap the enumeration to keep the check usable; graphs in tests are small.
        if k > 20 {
            // Fall back to checking the two canonical candidates.
            let cand1: Vec<NodeId> = self
                .ancestors(a)
                .union(&self.ancestors(b))
                .copied()
                .collect();
            return crate::separation::m_separated(self, a, b, &cand1)
                || crate::separation::m_separated(self, a, b, &[]);
        }
        for bits in 0..(1usize << k) {
            let z: Vec<NodeId> = others
                .iter()
                .enumerate()
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if crate::separation::m_separated(self, a, b, &z) {
                return true;
            }
        }
        false
    }

    /// Returns a copy with every endpoint mark replaced by a circle
    /// (the paper's *skeleton*, Def. 2.7, keeping adjacency only).
    pub fn skeleton(&self) -> MixedGraph {
        let mut g = MixedGraph::new(self.names.clone());
        for e in self.edges() {
            g.add_nondirected(e.a, e.b);
        }
        g
    }

    /// Merges the edges of `other` (defined over a node subset, matched by
    /// name) into this graph, replacing any existing edge between the same
    /// endpoints.  Used by XLearner's concatenation step (Alg. 1, line 17).
    pub fn merge_by_name(&mut self, other: &MixedGraph) {
        for e in other.edges() {
            let a = self.expect_id(other.name(e.a));
            let b = self.expect_id(other.name(e.b));
            self.add_edge(a, b, e.near_a, e.near_b);
        }
    }

    /// Renders a readable multi-line description (one edge per line, in
    /// dense-id order) — see [`crate::render::to_text`].
    pub fn to_text(&self) -> String {
        crate::render::to_text(self)
    }
}

impl PartialEq for MixedGraph {
    /// Structural equality: same names (in id order) and the same live
    /// adjacency per node.  Pool layout artifacts — block capacities,
    /// relocation garbage — are ignored, so two graphs built through
    /// different mutation histories compare equal iff they represent the
    /// same marked graph.
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names && (0..self.n_nodes()).all(|a| self.block(a) == other.block(a))
    }
}

impl Eq for MixedGraph {}

impl fmt::Display for MixedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1(c) lung-cancer graph (fully oriented variant).
    fn lung_cancer_graph() -> MixedGraph {
        let mut g = MixedGraph::new([
            "Location",
            "Stress",
            "Smoking",
            "LungCancer",
            "Surgery",
            "Survival",
        ]);
        let loc = g.expect_id("Location");
        let stress = g.expect_id("Stress");
        let smoking = g.expect_id("Smoking");
        let cancer = g.expect_id("LungCancer");
        let surgery = g.expect_id("Surgery");
        let survival = g.expect_id("Survival");
        g.add_directed(loc, smoking);
        g.add_directed(stress, smoking);
        g.add_directed(smoking, cancer);
        g.add_directed(cancer, surgery);
        g.add_directed(cancer, survival);
        g
    }

    #[test]
    fn build_and_query() {
        let g = lung_cancer_graph();
        assert_eq!(g.n_nodes(), 6);
        assert_eq!(g.n_edges(), 5);
        let smoking = g.expect_id("Smoking");
        let cancer = g.expect_id("LungCancer");
        assert!(g.adjacent(smoking, cancer));
        assert!(g.is_parent(smoking, cancer));
        assert!(!g.is_parent(cancer, smoking));
        assert_eq!(g.edge_type(smoking, cancer), Some(EdgeType::Directed));
        assert_eq!(g.parents(cancer), vec![smoking]);
        assert_eq!(g.children(cancer).len(), 2);
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = lung_cancer_graph();
        let loc = g.expect_id("Location");
        let cancer = g.expect_id("LungCancer");
        let survival = g.expect_id("Survival");
        assert!(g.ancestors(cancer).contains(&loc));
        assert!(g.descendants(loc).contains(&survival));
        assert!(g.is_ancestor_of(loc, survival));
        assert!(!g.is_ancestor_of(survival, loc));
        assert!(g.is_ancestor_of(loc, loc));
    }

    #[test]
    fn collider_detection() {
        let g = lung_cancer_graph();
        let loc = g.expect_id("Location");
        let stress = g.expect_id("Stress");
        let smoking = g.expect_id("Smoking");
        let cancer = g.expect_id("LungCancer");
        let surgery = g.expect_id("Surgery");
        assert!(g.is_collider(loc, smoking, stress));
        assert!(!g.is_collider(smoking, cancer, surgery)); // chain node is not a collider
    }

    #[test]
    fn orientation_and_marks() {
        let mut g = MixedGraph::new(["A", "B"]);
        g.add_nondirected(0, 1);
        assert_eq!(g.edge_type(0, 1), Some(EdgeType::Nondirected));
        g.set_mark(1, 0, Mark::Arrow);
        assert_eq!(g.edge_type(0, 1), Some(EdgeType::PartiallyDirected));
        g.orient(0, 1);
        assert_eq!(g.edge_type(0, 1), Some(EdgeType::Directed));
        assert!(g.is_parent(0, 1));
        g.remove_edge(0, 1);
        assert!(!g.adjacent(0, 1));
    }

    #[test]
    fn cycles_detected() {
        let mut g = MixedGraph::new(["A", "B", "C"]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        assert!(!g.has_directed_cycle());
        g.add_directed(2, 0);
        assert!(g.has_directed_cycle());

        let mut h = MixedGraph::new(["A", "B", "C"]);
        h.add_directed(0, 1);
        h.add_directed(1, 2);
        h.add_bidirected(2, 0);
        assert!(!h.has_directed_cycle());
        assert!(h.has_almost_directed_cycle());
        assert!(!h.is_ancestral());
    }

    #[test]
    fn mag_checks() {
        let g = lung_cancer_graph();
        assert!(g.is_ancestral());
        assert!(g.is_mag());

        // A graph with a circle mark is not a MAG.
        let mut h = MixedGraph::new(["A", "B"]);
        h.add_nondirected(0, 1);
        assert!(!h.is_mag());

        // Non-maximal: A -> B <- C plus A <-> C would be needed for maximality
        // only when A and C cannot be separated; here A ⊥ C | {} holds so it is a MAG.
        let mut k = MixedGraph::new(["A", "B", "C"]);
        k.add_directed(0, 1);
        k.add_directed(2, 1);
        assert!(k.is_mag());
    }

    #[test]
    fn skeleton_strips_marks() {
        let g = lung_cancer_graph();
        let s = g.skeleton();
        assert_eq!(s.n_edges(), g.n_edges());
        assert!(s.edges().iter().all(|e| e.has_circle()));
    }

    #[test]
    fn merge_by_name_overrides_edges() {
        let mut g = MixedGraph::new(["A", "B", "C"]);
        g.add_nondirected(0, 1);
        let mut sub = MixedGraph::new(["B", "C"]);
        sub.add_directed(0, 1); // B -> C
        g.merge_by_name(&sub);
        let b = g.expect_id("B");
        let c = g.expect_id("C");
        assert!(g.is_parent(b, c));
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn to_text_is_sorted_and_readable() {
        let g = lung_cancer_graph();
        let text = g.to_text();
        assert!(text.contains("Smoking --> LungCancer"));
        assert!(text.lines().count() == 5);
    }

    #[test]
    #[should_panic(expected = "not part of the graph")]
    fn expect_id_panics_on_unknown() {
        let g = MixedGraph::new(["A"]);
        g.expect_id("B");
    }

    #[test]
    fn packed_entries_round_trip_all_mark_pairs() {
        for &near in &[Mark::Tail, Mark::Arrow, Mark::Circle] {
            for &far in &[Mark::Tail, Mark::Arrow, Mark::Circle] {
                let e = pack(NODE_MASK as NodeId, near, far);
                assert_eq!(entry_neighbor(e), NODE_MASK as NodeId);
                assert_eq!(entry_near(e), near);
                assert_eq!(entry_far(e), far);
            }
        }
    }

    #[test]
    fn blocks_stay_sorted_across_relocation() {
        // Insert neighbors in descending order so every insert shifts, and
        // enough of them that the hub block relocates several times.
        let n = 40;
        let mut g = MixedGraph::new((0..n).map(|i| format!("V{i}")));
        for b in (1..n).rev() {
            g.add_edge(0, b, Mark::Circle, Mark::Arrow);
        }
        let neighbors = g.neighbors(0);
        let mut sorted = neighbors.clone();
        sorted.sort_unstable();
        assert_eq!(neighbors, sorted);
        assert_eq!(g.degree(0), n - 1);
        for b in 1..n {
            assert_eq!(g.mark_at(0, b), Some(Mark::Circle));
            assert_eq!(g.mark_at(b, 0), Some(Mark::Arrow));
        }
    }

    #[test]
    fn equality_ignores_mutation_history() {
        // Same final graph through different insert/remove orders.
        let mut a = MixedGraph::new(["A", "B", "C", "D"]);
        a.add_directed(0, 1);
        a.add_directed(1, 2);
        a.add_nondirected(2, 3);
        a.add_directed(0, 3);
        a.remove_edge(0, 3);

        let mut b = MixedGraph::new(["A", "B", "C", "D"]);
        b.add_nondirected(2, 3);
        b.add_directed(1, 2);
        b.add_directed(0, 1);

        assert_eq!(a, b);
        b.set_mark(2, 3, Mark::Arrow);
        assert_ne!(a, b);
    }

    #[test]
    fn index_addressed_walks_match_iterators() {
        let g = lung_cancer_graph();
        for v in 0..g.n_nodes() {
            let via_iter: Vec<_> = g.edges_at_iter(v).collect();
            let via_index: Vec<_> = (0..g.degree(v)).map(|i| g.entry_at(v, i)).collect();
            assert_eq!(via_iter, via_index);
            assert_eq!(
                g.neighbors(v),
                (0..g.degree(v))
                    .map(|i| g.neighbor_at(v, i))
                    .collect::<Vec<_>>()
            );
        }
    }
}
