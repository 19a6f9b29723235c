//! d-separation oracle used as an idealized CI test.

use xinsight_data::{DataError, Dataset, Result};
use xinsight_graph::{separation, Dag, MixedGraph};
use xinsight_stats::{CiOutcome, CiTest};

/// A CI "test" that answers queries by d-separation in a known ground-truth
/// graph instead of looking at data.
///
/// Under the faithfulness assumption (Def. 2.6) and with infinite data, a
/// consistent statistical test converges to exactly these answers, so the
/// oracle lets the unit tests check the discovery algorithms' graph-theoretic
/// behaviour in isolation.  The ground truth may contain latent variables:
/// queries never condition on them, mimicking causal insufficiency.
#[derive(Debug, Clone)]
pub struct OracleCiTest {
    graph: MixedGraph,
}

impl OracleCiTest {
    /// Builds an oracle from a ground-truth DAG (latent variables may simply
    /// be omitted from the observed variable list passed to the algorithms).
    pub fn from_dag(dag: &Dag) -> Self {
        OracleCiTest {
            graph: dag.to_mixed_graph(),
        }
    }

    /// The underlying ground-truth graph.
    pub fn graph(&self) -> &MixedGraph {
        &self.graph
    }
}

impl CiTest for OracleCiTest {
    fn test(&self, _data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
        let xi = self
            .graph
            .id(x)
            .ok_or_else(|| DataError::UnknownAttribute(x.to_owned()))?;
        let yi = self
            .graph
            .id(y)
            .ok_or_else(|| DataError::UnknownAttribute(y.to_owned()))?;
        let zi = z
            .iter()
            .map(|n| {
                self.graph
                    .id(n)
                    .ok_or_else(|| DataError::UnknownAttribute(n.to_string()))
            })
            .collect::<Result<Vec<_>>>()?;
        let independent = separation::m_separated(&self.graph, xi, yi, &zi);
        Ok(CiOutcome {
            independent,
            p_value: if independent { 1.0 } else { 0.0 },
        })
    }

    fn name(&self) -> &'static str {
        "d-separation-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::DatasetBuilder;

    fn dummy_data() -> Dataset {
        DatasetBuilder::new().dimension("A", ["x"]).build().unwrap()
    }

    #[test]
    fn oracle_answers_by_graph_not_data() {
        let mut dag = Dag::new(["A", "B", "C"]);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        let oracle = OracleCiTest::from_dag(&dag);
        let d = dummy_data();
        assert!(!oracle.independent(&d, "A", "C", &[]).unwrap());
        assert!(oracle.independent(&d, "A", "C", &["B"]).unwrap());
        assert_eq!(oracle.name(), "d-separation-oracle");
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let dag = Dag::new(["A", "B"]);
        let oracle = OracleCiTest::from_dag(&dag);
        assert!(oracle.test(&dummy_data(), "A", "Nope", &[]).is_err());
        assert!(oracle.test(&dummy_data(), "A", "B", &["Nope"]).is_err());
    }
}
