//! XLearner (Sec. 3.1, Alg. 1): causal-graph learning under causal
//! insufficiency *and* FD-induced faithfulness violations.
//!
//! The three stages of Alg. 1:
//!
//! 1. **FD preclusion / harmonious skeleton** — dependents of functional
//!    dependencies are removed from the variable set handed to FCI; each such
//!    node is connected in a side skeleton `S2` to its lowest-cardinality FD
//!    determinant (Thm. 3.1 guarantees the concatenation stays harmonious).
//! 2. **Standard PAG learning** — FCI-SL + FCI-Orient over the remaining
//!    variables, which satisfy faithfulness.
//! 3. **FD orientation** — FD edges present in `S2` are oriented from
//!    determinant to dependent (the discrete-ANM argument of Sec. 3.1.2), and
//!    the two graphs are concatenated into the FD-augmented PAG.

// HashMap here never leaks iteration order into output: interior grouping map; output re-sorted by score (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};

use xinsight_data::{detect_fds, Dataset, FdDetectionOptions, FdGraph, Result};
use xinsight_discovery::{fci_orient, fci_skeleton, FciOptions, SepsetMap};
use xinsight_graph::MixedGraph;
use xinsight_stats::CiTest;

/// Options controlling an XLearner run.
#[derive(Debug, Clone, Default)]
pub struct XLearnerOptions {
    /// Options forwarded to the FCI stage.
    pub fci: FciOptions,
    /// Options for FD detection (ignored when an FD graph is supplied
    /// explicitly).
    pub fd_detection: FdDetectionOptions,
}

/// Result of an XLearner run.
#[derive(Debug, Clone)]
pub struct XLearnerResult {
    /// The FD-augmented PAG over all (non-redundant) variables.
    pub graph: MixedGraph,
    /// The FD-induced graph used in stage 1.
    pub fd_graph: FdGraph,
    /// Variables on which the FCI stage actually ran (FD dependents excluded).
    pub fci_variables: Vec<String>,
    /// Variables dropped because they are mutually determined by a kept one.
    pub dropped_redundant: Vec<String>,
    /// Separating sets recorded by the FCI stage.
    pub sepsets: SepsetMap,
    /// Number of CI tests issued by the FCI stage.
    pub n_ci_tests: usize,
    /// Hit/miss counters of the CI-test cache the fit ran through, captured
    /// after the learn completes.  Zero when the engine was reconstructed
    /// from a persisted model (no CI tests are re-issued on that path) or
    /// when the caller supplied an uncached test.
    pub ci_cache_stats: xinsight_stats::CacheStats,
}

/// The XLearner module.
#[derive(Debug, Clone, Default)]
pub struct XLearner {
    options: XLearnerOptions,
}

impl XLearner {
    /// Creates an XLearner with the given options.
    pub fn new(options: XLearnerOptions) -> Self {
        XLearner { options }
    }

    /// The options this learner was built with.
    pub fn options(&self) -> &XLearnerOptions {
        &self.options
    }

    /// Learns the FD-augmented PAG over `variables` (which must all be
    /// dimensions of `data`), detecting FDs from the data itself.
    pub fn learn(
        &self,
        data: &Dataset,
        variables: &[&str],
        test: &dyn CiTest,
    ) -> Result<XLearnerResult> {
        let projected = data.select_attributes(variables)?;
        let (_, fd_graph) = detect_fds(&projected, &self.options.fd_detection)?;
        self.learn_with_fd_graph(data, variables, test, &fd_graph)
    }

    /// Learns the FD-augmented PAG using an externally supplied FD graph
    /// (used by the synthetic experiments, where FDs are known by
    /// construction).
    pub fn learn_with_fd_graph(
        &self,
        data: &Dataset,
        variables: &[&str],
        test: &dyn CiTest,
        fd_graph: &FdGraph,
    ) -> Result<XLearnerResult> {
        // Redundant attributes (mutually-determining groups) are dropped.
        let redundant: HashSet<&str> = fd_graph
            .redundant_attributes()
            .iter()
            .map(String::as_str)
            .collect();
        let kept: Vec<&str> = variables
            .iter()
            .copied()
            .filter(|v| !redundant.contains(v))
            .collect();

        // ---- Stage 1: harmonious side skeleton S2 over FD dependents. ----
        let in_scope: HashSet<&str> = kept.iter().copied().collect();
        // Local mutable parent map restricted to in-scope nodes.
        let mut parents: HashMap<&str, Vec<&str>> = HashMap::new();
        for node in &kept {
            let ps: Vec<&str> = fd_graph
                .parents(node)
                .into_iter()
                .filter(|p| in_scope.contains(p))
                .collect();
            parents.insert(node, ps);
        }
        let depths = fd_graph.depths();
        let mut removed: Vec<&str> = Vec::new();
        // Edges of S2 as (dependent, determinant).
        let mut s2_edges: Vec<(String, String)> = Vec::new();
        loop {
            // Deepest node that still has an in-scope, non-removed parent.
            let candidate = kept
                .iter()
                .copied()
                .filter(|v| !removed.contains(v))
                .filter(|v| parents[v].iter().any(|p| !removed.contains(p)))
                .max_by_key(|v| depths.get(*v).copied().unwrap_or(0));
            let x = match candidate {
                Some(x) => x,
                None => break,
            };
            // Lowest-cardinality available parent (line 6 of Alg. 1).
            let y = parents[x]
                .iter()
                .copied()
                .filter(|p| !removed.contains(p))
                .min_by_key(|p| data.cardinality(p).unwrap_or(usize::MAX))
                .expect("candidate selection guarantees a parent");
            s2_edges.push((x.to_owned(), y.to_owned()));
            removed.push(x);
        }

        // ---- Stage 2: FCI over the remaining (faithfulness-compliant) vars. ----
        let fci_vars: Vec<&str> = kept
            .iter()
            .copied()
            .filter(|v| !removed.contains(v))
            .collect();
        let (g1, sepsets, n_ci_tests) = if fci_vars.len() >= 2 {
            let skeleton = fci_skeleton(data, &fci_vars, test, &self.options.fci)?;
            let pag = fci_orient(&skeleton.graph, &skeleton.sepsets);
            (pag, skeleton.sepsets, skeleton.n_ci_tests)
        } else {
            (
                MixedGraph::new(fci_vars.iter().map(|s| s.to_string())),
                SepsetMap::new(),
                0,
            )
        };

        // ---- Stage 3: orient S2 and concatenate. ----
        let mut graph = MixedGraph::new(kept.iter().map(|s| s.to_string()));
        graph.merge_by_name(&g1);
        for (dependent, determinant) in &s2_edges {
            let d = graph.expect_id(dependent);
            let t = graph.expect_id(determinant);
            graph.add_nondirected(t, d);
        }
        // For every FD X --FD--> Y whose endpoints are adjacent in S2,
        // orient X → Y (determinant causes dependent: the ANM hypothesis).
        for (dependent, determinant) in &s2_edges {
            if fd_graph.has_fd(determinant, dependent) {
                let t = graph.expect_id(determinant);
                let d = graph.expect_id(dependent);
                graph.orient(t, d);
            }
        }

        Ok(XLearnerResult {
            graph,
            fd_graph: fd_graph.clone(),
            fci_variables: fci_vars.iter().map(|s| s.to_string()).collect(),
            dropped_redundant: variables
                .iter()
                .filter(|v| redundant.contains(**v))
                .map(|s| s.to_string())
                .collect(),
            sepsets,
            n_ci_tests,
            ci_cache_stats: xinsight_stats::CacheStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::DatasetBuilder;
    use xinsight_stats::ChiSquareTest;

    /// Deterministic pseudo-random stream for building test data.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / (1u64 << 53) as f64
        }
    }

    /// A city/state/country dataset (Ex. 2.4) plus a weather variable caused
    /// by the state: City --FD--> State --FD--> Country, State -> Weather.
    fn city_weather(n: usize) -> Dataset {
        let mut rng = lcg(99);
        let cities = ["SEA", "SPO", "SFO", "LAX", "NYC", "BUF"];
        let state_of = ["WA", "WA", "CA", "CA", "NY", "NY"];
        let mut city = Vec::with_capacity(n);
        let mut state = Vec::with_capacity(n);
        let mut country = Vec::with_capacity(n);
        let mut weather = Vec::with_capacity(n);
        for _ in 0..n {
            let c = (rng() * cities.len() as f64) as usize % cities.len();
            city.push(cities[c]);
            state.push(state_of[c]);
            country.push("US");
            // Rain probability depends on the state.
            let p_rain = match state_of[c] {
                "WA" => 0.8,
                "CA" => 0.15,
                _ => 0.45,
            };
            weather.push(if rng() < p_rain { "Rain" } else { "Sun" });
        }
        DatasetBuilder::new()
            .dimension("City", city)
            .dimension("State", state)
            .dimension("Country", country)
            .dimension("Weather", weather)
            .build()
            .unwrap()
    }

    #[test]
    fn city_info_harmonious_skeleton_and_fd_orientation() {
        let data = city_weather(3000);
        let learner = XLearner::default();
        let test = ChiSquareTest::new(0.05);
        let vars = ["City", "State", "Country", "Weather"];
        let result = learner.learn(&data, &vars, &test).unwrap();

        // Country is constant here, so only City -> State is a usable FD; at
        // minimum the State node must be connected to City and the edge must
        // be oriented City -> State by the ANM stage.
        let g = &result.graph;
        let city = g.expect_id("City");
        let state = g.expect_id("State");
        assert!(g.adjacent(city, state), "FD edge City-State must be kept");
        assert!(
            g.is_parent(city, state),
            "FD edge must be oriented City -> State, got:\n{}",
            g.to_text()
        );
        // State (an FD dependent) must not have been part of the FCI variable set.
        assert!(!result.fci_variables.contains(&"State".to_string()));
        assert!(result.fci_variables.contains(&"Weather".to_string()));
    }

    #[test]
    fn fd_dependents_excluded_from_fci_but_present_in_graph() {
        let data = city_weather(2000);
        let learner = XLearner::default();
        let test = ChiSquareTest::new(0.05);
        let vars = ["City", "State", "Weather"];
        let result = learner.learn(&data, &vars, &test).unwrap();
        assert_eq!(result.graph.n_nodes(), 3);
        assert!(result.fci_variables.contains(&"City".to_string()));
        assert!(!result.fci_variables.contains(&"State".to_string()));
        assert!(result.n_ci_tests > 0);
    }

    #[test]
    fn explicit_fd_graph_is_respected() {
        let data = city_weather(1500);
        // Pretend only State --FD--> Country is known (ignore City FDs).
        let fd_graph = FdGraph::new(
            vec![
                "City".into(),
                "State".into(),
                "Country".into(),
                "Weather".into(),
            ],
            vec![xinsight_data::FunctionalDependency {
                determinant: "State".into(),
                dependent: "Country".into(),
            }],
        );
        let learner = XLearner::default();
        let test = ChiSquareTest::new(0.05);
        let result = learner
            .learn_with_fd_graph(
                &data,
                &["City", "State", "Country", "Weather"],
                &test,
                &fd_graph,
            )
            .unwrap();
        let g = &result.graph;
        assert!(g.is_parent(g.expect_id("State"), g.expect_id("Country")));
        // City stays in the FCI variable set because its FDs were not declared.
        assert!(result.fci_variables.contains(&"City".to_string()));
        assert!(!result.fci_variables.contains(&"Country".to_string()));
    }

    #[test]
    fn causal_edge_between_fci_variables_recovered() {
        // Smoking -> LungCancer with an FD bolt-on: Location --FD--> Region.
        let mut rng = lcg(7);
        let n = 4000;
        let mut location = Vec::with_capacity(n);
        let mut region = Vec::with_capacity(n);
        let mut smoking = Vec::with_capacity(n);
        let mut cancer = Vec::with_capacity(n);
        let locs = ["L1", "L2", "L3", "L4"];
        let regions = ["North", "North", "South", "South"];
        for _ in 0..n {
            let l = (rng() * 4.0) as usize % 4;
            location.push(locs[l]);
            region.push(regions[l]);
            let p_smoke = if l < 2 { 0.7 } else { 0.25 };
            let smokes = rng() < p_smoke;
            smoking.push(if smokes { "Yes" } else { "No" });
            let p_severe = if smokes { 0.8 } else { 0.2 };
            cancer.push(if rng() < p_severe { "Severe" } else { "Mild" });
        }
        let data = DatasetBuilder::new()
            .dimension("Location", location)
            .dimension("Region", region)
            .dimension("Smoking", smoking)
            .dimension("LungCancer", cancer)
            .build()
            .unwrap();
        let learner = XLearner::default();
        let test = ChiSquareTest::new(0.05);
        let result = learner
            .learn(
                &data,
                &["Location", "Region", "Smoking", "LungCancer"],
                &test,
            )
            .unwrap();
        let g = &result.graph;
        assert!(
            g.adjacent(g.expect_id("Smoking"), g.expect_id("LungCancer")),
            "causal edge must survive:\n{}",
            g.to_text()
        );
        assert!(g.is_parent(g.expect_id("Location"), g.expect_id("Region")));
    }

    #[test]
    fn single_variable_degenerates_gracefully() {
        let data = city_weather(100);
        let learner = XLearner::default();
        let test = ChiSquareTest::new(0.05);
        let result = learner.learn(&data, &["Weather"], &test).unwrap();
        assert_eq!(result.graph.n_nodes(), 1);
        assert_eq!(result.graph.n_edges(), 0);
        assert_eq!(result.n_ci_tests, 0);
    }
}
