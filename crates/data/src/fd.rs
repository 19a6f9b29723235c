//! Functional dependencies and the FD-induced graph (Sec. 2.1).
//!
//! XLearner's first stage consumes the FD-induced graph `G_FD`: nodes are the
//! dataset's attributes, and there is an edge `X → Y` whenever `X --FD--> Y`
//! holds in the data.  FDs are detected exactly (deterministic FDs only, as in
//! the paper; noisy/probabilistic FDs are out of scope, Sec. 5).

// HashMap here never leaks iteration order into output: interior counting maps; results are re-sorted before use (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::dataset::Dataset;
use crate::error::Result;
use crate::schema::AttributeKind;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A single functional dependency `determinant --FD--> dependent`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionalDependency {
    /// The determining attribute (`X` in `X --FD--> Y`).
    pub determinant: String,
    /// The determined attribute (`Y`).
    pub dependent: String,
}

impl fmt::Display for FunctionalDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --FD--> {}", self.determinant, self.dependent)
    }
}

/// Options controlling FD detection.
#[derive(Debug, Clone)]
pub struct FdDetectionOptions {
    /// Skip determinants whose cardinality equals the number of rows
    /// (row keys functionally determine everything and carry no causal
    /// signal).  Defaults to `true`.
    pub skip_key_determinants: bool,
    /// Skip candidate FDs whose determinant has cardinality 1 (a constant
    /// column trivially "determines" nothing useful).  Defaults to `true`.
    pub skip_constant_determinants: bool,
}

impl Default for FdDetectionOptions {
    fn default() -> Self {
        FdDetectionOptions {
            skip_key_determinants: true,
            skip_constant_determinants: true,
        }
    }
}

/// The FD-induced graph `G_FD` over the dimensions of a dataset.
///
/// Only one-to-one and one-to-many FDs are considered (as in the paper).
/// Mutually-determining attribute groups (one-to-one FDs in both directions)
/// would create cycles; the constructor keeps a single representative per
/// group and records the dropped attributes as *redundant*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdGraph {
    nodes: Vec<String>,
    /// Edges as (determinant index, dependent index).
    edges: Vec<(usize, usize)>,
    redundant: Vec<String>,
    index: HashMap<String, usize>,
}

impl FdGraph {
    /// Builds an FD graph from explicit FDs over the given node set.
    ///
    /// FDs mentioning unknown nodes are ignored.  Cycles are broken by
    /// dropping, from each strongly-connected component of size > 1, every
    /// node except the lexicographically smallest one.
    pub fn new<I>(nodes: Vec<String>, fds: I) -> Self
    where
        I: IntoIterator<Item = FunctionalDependency>,
    {
        let fds: Vec<FunctionalDependency> = fds.into_iter().collect();
        // Identify mutually-determining groups (X -> Y and Y -> X).
        let fd_set: HashSet<(String, String)> = fds
            .iter()
            .map(|fd| (fd.determinant.clone(), fd.dependent.clone()))
            .collect();
        let mut redundant: HashSet<String> = HashSet::new();
        for fd in &fds {
            if fd_set.contains(&(fd.dependent.clone(), fd.determinant.clone())) {
                // One-to-one pair: keep the lexicographically smaller attribute.
                let drop = if fd.determinant < fd.dependent {
                    &fd.dependent
                } else {
                    &fd.determinant
                };
                redundant.insert(drop.clone());
            }
        }
        let kept_nodes: Vec<String> = nodes
            .iter()
            .filter(|n| !redundant.contains(*n))
            .cloned()
            .collect();
        let index: HashMap<String, usize> = kept_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let mut edges = Vec::new();
        let mut seen = HashSet::new();
        for fd in &fds {
            if let (Some(&a), Some(&b)) = (index.get(&fd.determinant), index.get(&fd.dependent)) {
                if a != b && seen.insert((a, b)) {
                    edges.push((a, b));
                }
            }
        }
        let mut graph = FdGraph {
            nodes: kept_nodes,
            edges,
            redundant: {
                let mut r: Vec<String> = redundant.into_iter().collect();
                r.sort();
                r
            },
            index,
        };
        graph.break_remaining_cycles();
        graph
    }

    /// Rebuilds a graph from parts previously exported through [`FdGraph::nodes`],
    /// [`FdGraph::edges`] and [`FdGraph::redundant_attributes`] (model
    /// persistence).  Edges mentioning unknown nodes are dropped; the caller
    /// is trusted to pass an acyclic edge set (as any exported graph is).
    pub fn from_parts(
        nodes: Vec<String>,
        edges: Vec<(String, String)>,
        redundant: Vec<String>,
    ) -> Self {
        let index: HashMap<String, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let edges = edges
            .iter()
            .filter_map(|(a, b)| match (index.get(a), index.get(b)) {
                (Some(&a), Some(&b)) if a != b => Some((a, b)),
                _ => None,
            })
            .collect();
        let mut graph = FdGraph {
            nodes,
            edges,
            redundant,
            index,
        };
        graph.break_remaining_cycles();
        graph
    }

    /// Node names, in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Attributes dropped because they were mutually determined by a kept one.
    pub fn redundant_attributes(&self) -> &[String] {
        &self.redundant
    }

    /// Edges as (determinant, dependent) name pairs.
    pub fn edges(&self) -> Vec<(&str, &str)> {
        self.edges
            .iter()
            .map(|&(a, b)| (self.nodes[a].as_str(), self.nodes[b].as_str()))
            .collect()
    }

    /// Number of FD edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the graph contains no FD edges.
    pub fn is_trivial(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns `true` if `X --FD--> Y` is an edge.
    pub fn has_fd(&self, determinant: &str, dependent: &str) -> bool {
        match (self.index.get(determinant), self.index.get(dependent)) {
            (Some(&a), Some(&b)) => self.edges.contains(&(a, b)),
            _ => false,
        }
    }

    /// Parents (determinants) of `node` in `G_FD`.
    pub fn parents(&self, node: &str) -> Vec<&str> {
        match self.index.get(node) {
            None => Vec::new(),
            Some(&b) => self
                .edges
                .iter()
                .filter(|&&(_, y)| y == b)
                .map(|&(x, _)| self.nodes[x].as_str())
                .collect(),
        }
    }

    /// Children (dependents) of `node` in `G_FD`.
    pub fn children(&self, node: &str) -> Vec<&str> {
        match self.index.get(node) {
            None => Vec::new(),
            Some(&a) => self
                .edges
                .iter()
                .filter(|&&(x, _)| x == a)
                .map(|&(_, y)| self.nodes[y].as_str())
                .collect(),
        }
    }

    /// Topological depth of every node (roots have depth 0).
    ///
    /// Depth is the length of the longest FD chain ending at the node, which
    /// is what Alg. 1 uses to pick "the deepest node" first.
    pub fn depths(&self) -> HashMap<String, usize> {
        let n = self.nodes.len();
        let mut depth = vec![0usize; n];
        let order = self.topological_order();
        for &v in &order {
            for &(a, b) in &self.edges {
                if a == v {
                    depth[b] = depth[b].max(depth[v] + 1);
                }
            }
        }
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), depth[i]))
            .collect()
    }

    /// A topological order of the node indices (the graph is a DAG after
    /// construction).
    fn topological_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for &(_, b) in &self.edges {
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &(a, b) in &self.edges {
                if a == v {
                    indeg[b] -= 1;
                    if indeg[b] == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        order
    }

    /// Drops edges that participate in directed cycles (beyond the
    /// one-to-one pairs already handled) so that `G_FD` is a DAG.
    fn break_remaining_cycles(&mut self) {
        loop {
            if self.topological_order().len() == self.nodes.len() {
                return;
            }
            // There is a cycle: greedily remove one edge that closes a cycle.
            let mut removed = false;
            for i in (0..self.edges.len()).rev() {
                let mut trial = self.clone();
                trial.edges.remove(i);
                if trial.topological_order().len() == trial.nodes.len() {
                    self.edges.remove(i);
                    removed = true;
                    break;
                }
            }
            if !removed {
                // Fall back: remove the last edge unconditionally.
                self.edges.pop();
            }
        }
    }
}

/// Detects all deterministic single-attribute FDs among the dimensions of a
/// dataset and returns both the FD list and the induced graph.
pub fn detect_fds(
    data: &Dataset,
    options: &FdDetectionOptions,
) -> Result<(Vec<FunctionalDependency>, FdGraph)> {
    let dims: Vec<&str> = data
        .schema()
        .iter()
        .filter(|a| a.kind == AttributeKind::Dimension)
        .map(|a| a.name.as_str())
        .collect();
    let n_rows = data.n_rows();
    let mut fds = Vec::new();
    for &x in &dims {
        let xcol = data.dimension(x)?;
        let card_x = xcol.cardinality();
        if options.skip_constant_determinants && card_x <= 1 {
            continue;
        }
        if options.skip_key_determinants && card_x == n_rows && n_rows > 1 {
            continue;
        }
        for &y in &dims {
            if x == y {
                continue;
            }
            let ycol = data.dimension(y)?;
            if ycol.cardinality() > card_x {
                // |Y| > |X| makes X -> Y impossible for a surjective mapping
                // observed over the same rows.
                continue;
            }
            if holds(xcol, ycol) {
                fds.push(FunctionalDependency {
                    determinant: x.to_owned(),
                    dependent: y.to_owned(),
                });
            }
        }
    }
    fds.sort();
    let graph = FdGraph::new(dims.iter().map(|s| s.to_string()).collect(), fds.clone());
    Ok((fds, graph))
}

/// Checks whether every observed value of `x` maps to a single value of `y`.
fn holds(x: &crate::column::DimensionColumn, y: &crate::column::DimensionColumn) -> bool {
    let mut image: HashMap<u32, u32> = HashMap::with_capacity(x.cardinality());
    for (cx, cy) in x.codes().iter().zip(y.codes().iter()) {
        if *cx == crate::column::NULL_CODE || *cy == crate::column::NULL_CODE {
            continue;
        }
        match image.get(cx) {
            Some(&prev) if prev != *cy => return false,
            Some(_) => {}
            None => {
                image.insert(*cx, *cy);
            }
        }
    }
    // A vacuous mapping (no overlapping non-null rows) is not an FD we trust.
    !image.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn city_info() -> Dataset {
        DatasetBuilder::new()
            .dimension("City", ["SEA", "SFO", "LAX", "NYC", "BOS", "SEA"])
            .dimension("State", ["WA", "CA", "CA", "NY", "MA", "WA"])
            .dimension("Country", ["US", "US", "US", "US", "US", "US"])
            .dimension("Weather", ["Rain", "Sun", "Sun", "Rain", "Snow", "Sun"])
            .build()
            .unwrap()
    }

    #[test]
    fn detects_city_state_country_chain() {
        let d = city_info();
        let opts = FdDetectionOptions {
            skip_constant_determinants: true,
            skip_key_determinants: false,
        };
        let (fds, graph) = detect_fds(&d, &opts).unwrap();
        assert!(fds.contains(&FunctionalDependency {
            determinant: "City".into(),
            dependent: "State".into()
        }));
        assert!(fds.contains(&FunctionalDependency {
            determinant: "City".into(),
            dependent: "Country".into()
        }));
        assert!(fds.contains(&FunctionalDependency {
            determinant: "State".into(),
            dependent: "Country".into()
        }));
        // Weather is not determined by State (CA maps to Sun only, but WA maps
        // to both Rain and Sun for SEA rows) — actually check no FD State->Weather.
        assert!(!graph.has_fd("State", "Weather"));
        assert!(graph.has_fd("City", "State"));
    }

    #[test]
    fn no_false_positive_on_independent_columns() {
        let d = DatasetBuilder::new()
            .dimension("A", ["1", "1", "2", "2"])
            .dimension("B", ["x", "y", "x", "y"])
            .build()
            .unwrap();
        let (fds, graph) = detect_fds(&d, &FdDetectionOptions::default()).unwrap();
        assert!(fds.is_empty());
        assert!(graph.is_trivial());
    }

    #[test]
    fn one_to_one_pairs_drop_a_redundant_attribute() {
        let d = DatasetBuilder::new()
            .dimension("CountryCode", ["US", "FR", "US", "DE"])
            .dimension("CountryName", ["USA", "France", "USA", "Germany"])
            .dimension("Other", ["a", "b", "b", "a"])
            .build()
            .unwrap();
        let (_, graph) = detect_fds(&d, &FdDetectionOptions::default()).unwrap();
        assert_eq!(graph.redundant_attributes(), ["CountryName"]);
        assert!(!graph.nodes().contains(&"CountryName".to_string()));
        assert!(graph.nodes().contains(&"CountryCode".to_string()));
    }

    #[test]
    fn key_determinants_skipped_by_default() {
        let d = DatasetBuilder::new()
            .dimension("RowId", ["1", "2", "3", "4"])
            .dimension("G", ["a", "a", "b", "b"])
            .build()
            .unwrap();
        let (fds, _) = detect_fds(&d, &FdDetectionOptions::default()).unwrap();
        assert!(fds.iter().all(|fd| fd.determinant != "RowId"));
    }

    #[test]
    fn depths_and_parents() {
        let graph = FdGraph::new(
            vec!["City".into(), "State".into(), "Country".into(), "Z".into()],
            vec![
                FunctionalDependency {
                    determinant: "City".into(),
                    dependent: "State".into(),
                },
                FunctionalDependency {
                    determinant: "State".into(),
                    dependent: "Country".into(),
                },
                FunctionalDependency {
                    determinant: "City".into(),
                    dependent: "Country".into(),
                },
            ],
        );
        let depths = graph.depths();
        assert_eq!(depths["City"], 0);
        assert_eq!(depths["State"], 1);
        assert_eq!(depths["Country"], 2);
        assert_eq!(depths["Z"], 0);
        let mut parents = graph.parents("Country");
        parents.sort();
        assert_eq!(parents, vec!["City", "State"]);
        assert_eq!(graph.children("City").len(), 2);
    }

    #[test]
    fn cycles_are_broken() {
        let graph = FdGraph::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                FunctionalDependency {
                    determinant: "A".into(),
                    dependent: "B".into(),
                },
                FunctionalDependency {
                    determinant: "B".into(),
                    dependent: "C".into(),
                },
                FunctionalDependency {
                    determinant: "C".into(),
                    dependent: "A".into(),
                },
            ],
        );
        // The graph must be acyclic afterwards.
        assert!(graph.n_edges() < 3);
        assert_eq!(graph.depths().len(), 3);
    }

    #[test]
    fn from_parts_round_trips_an_exported_graph() {
        let d = city_info();
        let (_, graph) = detect_fds(&d, &FdDetectionOptions::default()).unwrap();
        let rebuilt = FdGraph::from_parts(
            graph.nodes().to_vec(),
            graph
                .edges()
                .iter()
                .map(|&(a, b)| (a.to_owned(), b.to_owned()))
                .collect(),
            graph.redundant_attributes().to_vec(),
        );
        assert_eq!(rebuilt, graph);
    }

    #[test]
    fn display_of_fd() {
        let fd = FunctionalDependency {
            determinant: "City".into(),
            dependent: "State".into(),
        };
        assert_eq!(fd.to_string(), "City --FD--> State");
    }
}
