//! XTranslator (Sec. 3.2): translating causal primitives into XDA semantics.
//!
//! Given the learned causal graph `G` and a Why Query with target measure `M`,
//! foreground variable `F` and background variables `B`, every other variable
//! `X` is classified per Table 3 of the paper:
//!
//! | rule | causal primitive                  | XDA semantics        |
//! |------|-----------------------------------|----------------------|
//! | ➀    | `X ⫫_G M \| F ∪ B` (m-separated)  | no explainability    |
//! | ➁    | `X → M` (parent)                  | causal explanation   |
//! | ➂    | `X → … → M` (ancestor)            | causal explanation   |
//! | ➃    | `X ∘→ M` (almost parent)          | causal explanation   |
//! | ➄    | `X ∘→ … ∘→ M` (almost ancestor)   | causal explanation   |
//! | ➅    | anything else                     | non-causal           |

use crate::explanation::{CausalRole, XdaSemantics};
use crate::why_query::WhyQuery;
use std::collections::BTreeMap;
use xinsight_graph::{separation, Mark, MixedGraph, NodeId};

/// The classification of every candidate variable for one Why Query.
///
/// Variables are stored in a sorted map so iteration order — and therefore
/// the order in which the engine searches and reports explanations — is
/// deterministic across runs.
#[derive(Debug, Clone)]
pub struct Translation {
    semantics: BTreeMap<String, XdaSemantics>,
}

impl Translation {
    /// The semantics of one variable, if it was classified.
    #[cfg(test)]
    fn semantics_of(&self, variable: &str) -> Option<XdaSemantics> {
        self.semantics.get(variable).copied()
    }

    /// All variables that can potentially explain the query (rules ➁–➅),
    /// i.e. everything except "no explainability".
    pub fn explainable_variables(&self) -> Vec<&str> {
        let mut vars: Vec<&str> = self
            .semantics
            .iter()
            .filter(|(_, s)| s.has_explainability())
            .map(|(v, _)| v.as_str())
            .collect();
        vars.sort();
        vars
    }

    /// Iterator over `(variable, semantics)` pairs, sorted by variable name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, XdaSemantics)> {
        self.semantics.iter().map(|(v, s)| (v.as_str(), *s))
    }
}

/// Classifies every node of `graph` (other than the target, foreground and
/// background variables) for the given Why Query.
pub fn translate(graph: &MixedGraph, query: &WhyQuery) -> Translation {
    let mut semantics = BTreeMap::new();
    let excluded: Vec<&str> = {
        let mut v = vec![query.measure(), query.foreground()];
        v.extend(query.background());
        v
    };
    for node in graph.names() {
        if excluded.contains(&node.as_str()) {
            continue;
        }
        let s = translate_variable(graph, query, node);
        semantics.insert(node.clone(), s);
    }
    Translation { semantics }
}

/// Classifies a single variable `x` for the query (Table 3).
///
/// Variables absent from the graph (e.g. attributes skipped during learning)
/// are conservatively classified as non-causal explainers.
pub fn translate_variable(graph: &MixedGraph, query: &WhyQuery, x: &str) -> XdaSemantics {
    let (xi, mi) = match (graph.id(x), graph.id(query.measure())) {
        (Some(a), Some(b)) => (a, b),
        _ => return XdaSemantics::NonCausalExplanation,
    };
    // Conditioning set: foreground plus background variables that exist in G.
    let mut cond: Vec<NodeId> = Vec::new();
    if let Some(f) = graph.id(query.foreground()) {
        cond.push(f);
    }
    for b in query.background() {
        if let Some(bi) = graph.id(b) {
            cond.push(bi);
        }
    }
    // Rule ➀: no explainability when X ⫫_G M | F ∪ B.
    if separation::m_separated(graph, xi, mi, &cond) {
        return XdaSemantics::NoExplainability;
    }
    // Rules ➁ / ➃: direct (almost-)parent.
    if graph.adjacent(xi, mi) {
        let at_x = graph.mark_at(xi, mi).expect("adjacent");
        let at_m = graph.mark_at(mi, xi).expect("adjacent");
        if at_m == Mark::Arrow {
            match at_x {
                Mark::Tail => return XdaSemantics::CausalExplanation(CausalRole::Parent),
                Mark::Circle => return XdaSemantics::CausalExplanation(CausalRole::AlmostParent),
                Mark::Arrow => {}
            }
        }
    }
    // Rules ➂ / ➄: (almost-)ancestor via a possibly-directed path.
    match possibly_directed_path(graph, xi, mi) {
        Some(PathKind::Definite) => XdaSemantics::CausalExplanation(CausalRole::Ancestor),
        Some(PathKind::Possible) => XdaSemantics::CausalExplanation(CausalRole::AlmostAncestor),
        None => XdaSemantics::NonCausalExplanation,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathKind {
    /// Every edge on the path is `→` (definite ancestor).
    Definite,
    /// Every edge is `→` or `∘→`/`∘-∘` pointing forward, with at least one circle.
    Possible,
}

/// Searches for a path from `x` to `m` on which every edge can be traversed
/// "forward": no arrowhead at the near end and an arrowhead or circle at the
/// far end.  Returns whether a fully-directed path exists (`Definite`) or only
/// a circle-bearing one (`Possible`).
fn possibly_directed_path(graph: &MixedGraph, x: NodeId, m: NodeId) -> Option<PathKind> {
    // First try definite directed paths only.
    if graph.is_ancestor_of(x, m) && x != m {
        return Some(PathKind::Definite);
    }
    // Then possibly-directed paths: near mark ∈ {Tail, Circle}, far mark ∈ {Arrow, Circle}.
    let mut stack = vec![x];
    let mut visited = vec![false; graph.n_nodes()];
    visited[x] = true;
    while let Some(v) = stack.pop() {
        for w in graph.neighbors(v) {
            if visited[w] {
                continue;
            }
            let near = graph.mark_at(v, w).expect("adjacent");
            let far = graph.mark_at(w, v).expect("adjacent");
            let forward = !near.is_arrow() && !far.is_tail();
            if !forward {
                continue;
            }
            if w == m {
                return Some(PathKind::Possible);
            }
            visited[w] = true;
            stack.push(w);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, Subspace};

    /// The paper's Fig. 1(c)/(d) graph, with the learned orientation:
    /// Location o-> Smoking <-o Stress, Smoking -> LungCancer -> Surgery,
    /// LungCancer -> Survival.
    fn lung_cancer_pag() -> MixedGraph {
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
        g.add_edge(loc, smoking, Mark::Circle, Mark::Arrow);
        g.add_edge(stress, smoking, Mark::Circle, Mark::Arrow);
        g.add_directed(smoking, cancer);
        g.add_directed(cancer, surgery);
        g.add_directed(cancer, survival);
        g
    }

    fn query() -> WhyQuery {
        WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap()
    }

    #[test]
    fn paper_fig1d_classification() {
        let g = lung_cancer_pag();
        let t = translate(&g, &query());
        // Smoking is a definite parent of LungCancer -> causal.
        assert_eq!(
            t.semantics_of("Smoking"),
            Some(XdaSemantics::CausalExplanation(CausalRole::Parent))
        );
        // Stress is an almost-ancestor (Stress o-> Smoking -> LungCancer).
        assert_eq!(
            t.semantics_of("Stress"),
            Some(XdaSemantics::CausalExplanation(CausalRole::AlmostAncestor))
        );
        // Surgery and Survival are descendants -> non-causal explanations.
        assert_eq!(
            t.semantics_of("Surgery"),
            Some(XdaSemantics::NonCausalExplanation)
        );
        assert_eq!(
            t.semantics_of("Survival"),
            Some(XdaSemantics::NonCausalExplanation)
        );
        // The foreground variable itself is not classified.
        assert_eq!(t.semantics_of("Location"), None);
        assert_eq!(
            t.explainable_variables(),
            vec!["Smoking", "Stress", "Surgery", "Survival"]
        );
    }

    #[test]
    fn rule_1_no_explainability_when_m_separated_by_foreground() {
        // X -> F -> M: conditioning on F separates X from M.
        let mut g = MixedGraph::new(["X", "F", "M"]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        let q = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("F", "a"),
            Subspace::of("F", "b"),
        )
        .unwrap();
        assert_eq!(
            translate_variable(&g, &q, "X"),
            XdaSemantics::NoExplainability
        );
    }

    #[test]
    fn almost_parent_via_circle_arrow_edge() {
        let mut g = MixedGraph::new(["X", "F", "M"]);
        g.add_edge(0, 2, Mark::Circle, Mark::Arrow); // X o-> M
        g.add_nondirected(1, 2);
        let q = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("F", "a"),
            Subspace::of("F", "b"),
        )
        .unwrap();
        assert_eq!(
            translate_variable(&g, &q, "X"),
            XdaSemantics::CausalExplanation(CausalRole::AlmostParent)
        );
    }

    #[test]
    fn definite_ancestor_beats_almost_ancestor() {
        // X -> A -> M (all directed): ancestor, not almost-ancestor.
        let mut g = MixedGraph::new(["X", "A", "M", "F"]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        g.add_nondirected(3, 2);
        let q = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("F", "a"),
            Subspace::of("F", "b"),
        )
        .unwrap();
        assert_eq!(
            translate_variable(&g, &q, "X"),
            XdaSemantics::CausalExplanation(CausalRole::Ancestor)
        );
    }

    #[test]
    fn bidirected_neighbour_is_non_causal() {
        // X <-> M: dependent but not a possible cause.
        let mut g = MixedGraph::new(["X", "M", "F"]);
        g.add_bidirected(0, 1);
        g.add_nondirected(2, 1);
        let q = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("F", "a"),
            Subspace::of("F", "b"),
        )
        .unwrap();
        assert_eq!(
            translate_variable(&g, &q, "X"),
            XdaSemantics::NonCausalExplanation
        );
    }

    #[test]
    fn background_variables_enter_the_conditioning_set() {
        // X -> B -> M with B a background variable: X is separated given {F, B}.
        let mut g = MixedGraph::new(["X", "B", "M", "F"]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        g.add_nondirected(3, 2);
        let s1 = Subspace::new([
            xinsight_data::Filter::equals("F", "a"),
            xinsight_data::Filter::equals("B", "high"),
        ])
        .unwrap();
        let s2 = Subspace::new([
            xinsight_data::Filter::equals("F", "b"),
            xinsight_data::Filter::equals("B", "high"),
        ])
        .unwrap();
        let q = WhyQuery::new("M", Aggregate::Avg, s1, s2).unwrap();
        assert_eq!(
            translate_variable(&g, &q, "X"),
            XdaSemantics::NoExplainability
        );
        // The background variable itself is excluded from classification.
        let t = translate(&g, &q);
        assert_eq!(t.semantics_of("B"), None);
    }

    #[test]
    fn variable_missing_from_graph_defaults_to_non_causal() {
        let g = lung_cancer_pag();
        let q = query();
        assert_eq!(
            translate_variable(&g, &q, "NotInGraph"),
            XdaSemantics::NonCausalExplanation
        );
    }
}
