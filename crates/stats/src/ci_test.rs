//! The conditional-independence test abstraction.

use xinsight_data::{Dataset, Result};

/// Outcome of one CI query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiOutcome {
    /// Whether the test declares `X ⫫ Y | Z` at its significance level.
    pub independent: bool,
    /// The p-value of the test (1.0 when the test is vacuous, e.g. a
    /// degenerate contingency table).
    pub p_value: f64,
}

/// A CI test compiled against a fixed variable set: queries are addressed by
/// the dense index of each variable in the `vars` slice handed to
/// [`CiTest::compile`], so the hot loop of a discovery run performs no string
/// work at all.
///
/// `Sync` is a supertrait because the depth-parallel skeleton search shares
/// one compiled test across the rayon pool.
pub trait IndexedCiTest: Sync {
    /// Runs the test of `vars[x] ⫫ vars[y] | {vars[i] : i ∈ z}`.
    fn test_ids(&self, x: u32, y: u32, z: &[u32]) -> Result<CiOutcome>;

    /// Convenience wrapper returning only the decision.
    fn independent_ids(&self, x: u32, y: u32, z: &[u32]) -> Result<bool> {
        Ok(self.test_ids(x, y, z)?.independent)
    }
}

/// A conditional-independence test `X ⫫ Y | Z` evaluated on a dataset.
///
/// Discovery algorithms (FCI, XLearner) are generic over this trait so the
/// same code runs against the chi-square test or the d-separation oracle
/// used in unit tests.
///
/// `Sync` is a supertrait so a test can be shared across the depth-parallel
/// skeleton search; every test in this crate is a plain value or uses
/// interior locking, so the bound costs nothing.
pub trait CiTest: Sync {
    /// Runs the test of `x ⫫ y | z` on `data`.
    fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome>;

    /// Convenience wrapper returning only the decision.
    fn independent(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<bool> {
        Ok(self.test(data, x, y, z)?.independent)
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str {
        "ci-test"
    }

    /// Compiles this test against a fixed variable set, resolving names once.
    ///
    /// The default implementation bridges back to the name-addressed
    /// [`CiTest::test`] per query (correct for any test, e.g. the
    /// d-separation oracle, whose "variables" need not exist as dataset
    /// columns).  Data-driven tests override this to precompile a
    /// [`DiscoveryView`](crate::DiscoveryView) and answer queries from code
    /// slices with zero per-test name resolution.
    fn compile<'a>(
        &'a self,
        data: &'a Dataset,
        vars: &'a [&'a str],
    ) -> Result<Box<dyn IndexedCiTest + 'a>> {
        Ok(Box::new(NameBridge {
            test: self,
            data,
            vars,
        }))
    }
}

/// Shared decision rule of the chi-square-family tests: degenerate tables
/// (zero degrees of freedom) conservatively count as independent, otherwise
/// the survival function is compared against `alpha`.
pub(crate) fn outcome_from_statistic(stat: f64, dof: f64, alpha: f64) -> CiOutcome {
    if dof <= 0.0 {
        return CiOutcome {
            independent: true,
            p_value: 1.0,
        };
    }
    let p = crate::special::chi_square_sf(stat, dof);
    CiOutcome {
        independent: p > alpha,
        p_value: p,
    }
}

/// Fallback adapter used by [`CiTest::compile`]'s default implementation:
/// maps ids back to names and calls the wrapped test.
struct NameBridge<'a, T: CiTest + ?Sized> {
    test: &'a T,
    data: &'a Dataset,
    vars: &'a [&'a str],
}

impl<T: CiTest + ?Sized> IndexedCiTest for NameBridge<'_, T> {
    fn test_ids(&self, x: u32, y: u32, z: &[u32]) -> Result<CiOutcome> {
        check_ids(self.vars.len(), x, y, z)?;
        let z_names: Vec<&str> = z.iter().map(|&i| self.vars[i as usize]).collect();
        self.test.test(
            self.data,
            self.vars[x as usize],
            self.vars[y as usize],
            &z_names,
        )
    }
}

/// Validates that every id addresses one of the `n_vars` compiled variables,
/// so all [`IndexedCiTest`] implementations fail with a structured error
/// (not a panic) on out-of-range ids.
pub(crate) fn check_ids(n_vars: usize, x: u32, y: u32, z: &[u32]) -> Result<()> {
    let bad = [x, y]
        .into_iter()
        .chain(z.iter().copied())
        .find(|&id| id as usize >= n_vars);
    match bad {
        None => Ok(()),
        Some(id) => Err(xinsight_data::DataError::UnknownAttribute(format!(
            "variable id {id} out of range (compiled test has {n_vars} variables)"
        ))),
    }
}

impl<T: CiTest + ?Sized> CiTest for &T {
    fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
        (**self).test(data, x, y, z)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn compile<'a>(
        &'a self,
        data: &'a Dataset,
        vars: &'a [&'a str],
    ) -> Result<Box<dyn IndexedCiTest + 'a>> {
        (**self).compile(data, vars)
    }
}

impl<T: CiTest + ?Sized> CiTest for Box<T> {
    fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
        (**self).test(data, x, y, z)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn compile<'a>(
        &'a self,
        data: &'a Dataset,
        vars: &'a [&'a str],
    ) -> Result<Box<dyn IndexedCiTest + 'a>> {
        (**self).compile(data, vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChiSquareTest;
    use xinsight_data::DatasetBuilder;

    #[test]
    fn default_compile_bridges_names_and_checks_ids() {
        /// A test relying on the default (name-bridging) `compile`.
        struct Bridged(ChiSquareTest);
        impl CiTest for Bridged {
            fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
                self.0.test(data, x, y, z)
            }
        }
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "b", "a", "b"])
            .dimension("Y", ["p", "q", "q", "p"])
            .build()
            .unwrap();
        let test = Bridged(ChiSquareTest::default());
        let vars = ["X", "Y"];
        let compiled = test.compile(&d, &vars).unwrap();
        let by_ids = compiled.test_ids(0, 1, &[]).unwrap();
        let by_name = test.test(&d, "X", "Y", &[]).unwrap();
        assert_eq!(by_ids, by_name);
        // Out-of-range ids are structured errors, not panics.
        assert!(compiled.test_ids(0, 5, &[]).is_err());
        assert!(compiled.test_ids(0, 1, &[3]).is_err());
    }

    #[test]
    fn trait_objects_and_references_delegate() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "b", "a", "b"])
            .dimension("Y", ["p", "q", "q", "p"])
            .build()
            .unwrap();
        let test = ChiSquareTest::new(0.05);
        let boxed: Box<dyn CiTest> = Box::new(ChiSquareTest::new(0.05));
        let by_ref = &test;
        let a = test.test(&d, "X", "Y", &[]).unwrap();
        let b = boxed.test(&d, "X", "Y", &[]).unwrap();
        let c = by_ref.test(&d, "X", "Y", &[]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(boxed.name(), "chi-square");
    }
}
