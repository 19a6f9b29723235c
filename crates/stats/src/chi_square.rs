//! Pearson chi-square conditional-independence test.

use crate::ci_test::{outcome_from_statistic, CiOutcome, CiTest, IndexedCiTest};
use crate::contingency::ContingencyTable;
use crate::view::DiscoveryView;
use xinsight_data::{Dataset, Result};

/// Pearson's chi-square test of `X ⫫ Y | Z` for categorical variables.
///
/// The statistic is summed over the strata induced by the joint values of
/// `Z`; degrees of freedom only accrue from strata whose observed margins are
/// non-degenerate.  When the degrees of freedom collapse to zero (too little
/// data, too fine a stratification) the test returns "independent", which is
/// the conventional conservative choice in constraint-based discovery.
#[derive(Debug, Clone, Copy)]
pub struct ChiSquareTest {
    alpha: f64,
}

impl ChiSquareTest {
    /// Creates a test at significance level `alpha` (e.g. 0.05).
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in (0, 1)");
        ChiSquareTest { alpha }
    }
}

impl Default for ChiSquareTest {
    fn default() -> Self {
        ChiSquareTest::new(0.05)
    }
}

impl CiTest for ChiSquareTest {
    fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
        let table = ContingencyTable::build(data, x, y, z)?;
        let (stat, dof) = table.chi_square_statistic();
        Ok(outcome_from_statistic(stat, dof, self.alpha))
    }

    fn name(&self) -> &'static str {
        "chi-square"
    }

    fn compile<'a>(
        &'a self,
        data: &'a Dataset,
        vars: &'a [&'a str],
    ) -> Result<Box<dyn IndexedCiTest + 'a>> {
        Ok(Box::new(CompiledChiSquare {
            view: DiscoveryView::compile(data, vars)?,
            alpha: self.alpha,
        }))
    }
}

/// View-native chi-square: all queries run on precompiled code slices.
struct CompiledChiSquare<'a> {
    view: DiscoveryView<'a>,
    alpha: f64,
}

impl IndexedCiTest for CompiledChiSquare<'_> {
    fn test_ids(&self, x: u32, y: u32, z: &[u32]) -> Result<CiOutcome> {
        let table = ContingencyTable::from_view(&self.view, x, y, z)?;
        let (stat, dof) = table.chi_square_statistic();
        Ok(outcome_from_statistic(stat, dof, self.alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::DatasetBuilder;

    /// Builds a dataset where Z -> X and Z -> Y (X ⫫ Y | Z but not marginally).
    fn confounded(n: usize) -> Dataset {
        let mut z = Vec::with_capacity(n);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        // Deterministic pseudo-random pattern: enough to create dependence
        // through Z while keeping X and Y conditionally independent.
        let mut state = 0x12345678u64;
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64
        };
        for _ in 0..n {
            let zi = rand01() < 0.5;
            z.push(if zi { "z1" } else { "z0" });
            let px = if zi { 0.9 } else { 0.1 };
            let py = if zi { 0.8 } else { 0.2 };
            x.push(if rand01() < px { "x1" } else { "x0" });
            y.push(if rand01() < py { "y1" } else { "y0" });
        }
        DatasetBuilder::new()
            .dimension("Z", z)
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn detects_marginal_dependence_and_conditional_independence() {
        let d = confounded(4000);
        let test = ChiSquareTest::new(0.05);
        // Marginally X and Y are dependent (through Z).
        assert!(!test.independent(&d, "X", "Y", &[]).unwrap());
        // Conditionally on Z they are independent.
        assert!(test.independent(&d, "X", "Y", &["Z"]).unwrap());
    }

    #[test]
    fn perfectly_dependent_variables_rejected() {
        let x: Vec<&str> = (0..200)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let d = DatasetBuilder::new()
            .dimension("X", x.clone())
            .dimension("Y", x)
            .build()
            .unwrap();
        let test = ChiSquareTest::default();
        let out = test.test(&d, "X", "Y", &[]).unwrap();
        assert!(!out.independent);
        assert!(out.p_value < 1e-6);
    }

    #[test]
    fn degenerate_table_defaults_to_independent() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a"])
            .dimension("Y", ["p", "q", "p"])
            .build()
            .unwrap();
        let test = ChiSquareTest::default();
        let out = test.test(&d, "X", "Y", &[]).unwrap();
        assert!(out.independent);
        assert_eq!(out.p_value, 1.0);
    }

    #[test]
    fn alpha_controls_strictness() {
        // A weak association: lenient alpha keeps it, strict alpha rejects it.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            x.push(if i % 2 == 0 { "a" } else { "b" });
            // 60/40 association.
            y.push(if (i % 10) < 6 {
                if i % 2 == 0 {
                    "p"
                } else {
                    "q"
                }
            } else if i % 2 == 0 {
                "q"
            } else {
                "p"
            });
        }
        let d = DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap();
        let loose = ChiSquareTest::new(0.20);
        let strict = ChiSquareTest::new(0.001);
        let p = loose.test(&d, "X", "Y", &[]).unwrap().p_value;
        assert_eq!(loose.independent(&d, "X", "Y", &[]).unwrap(), p > 0.20);
        assert_eq!(strict.independent(&d, "X", "Y", &[]).unwrap(), p > 0.001);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn invalid_alpha_panics() {
        let _ = ChiSquareTest::new(1.5);
    }
}
