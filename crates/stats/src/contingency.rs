//! Stratified contingency tables over dimension columns.

// HashMap here never leaks iteration order into output: cell counts keyed by code pair; folded, never iterated to output (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::view::DiscoveryView;
use std::collections::HashMap;
use xinsight_data::{DataError, Dataset, Result};

/// Largest number of dense counter cells (`∏|Z_i| · |X| · |Y|`) a table will
/// allocate eagerly; beyond this the build switches to the sparse per-stratum
/// path, which only materializes strata that actually occur in the data.
const DENSE_CELL_LIMIT: u128 = 1 << 22;

/// A cross tabulation of two dimensions `X`, `Y`, stratified by the joint
/// values of a (possibly empty) conditioning set `Z`.
///
/// Rows with a missing value in any involved column are dropped, matching the
/// preprocessing described in Sec. 4.1 of the paper.
#[derive(Debug, Clone)]
pub struct ContingencyTable {
    /// Number of categories of `X`.
    pub x_cardinality: usize,
    /// Number of categories of `Y`.
    pub y_cardinality: usize,
    /// All per-stratum count matrices in one contiguous buffer,
    /// stratum-major then row-major: the count for stratum `s` at cell
    /// `(xi, yi)` lives at `s · |X|·|Y| + xi · |Y| + yi`.  One allocation
    /// per table — the fit path builds a table per CI test, and the old
    /// `Vec<Vec<u64>>` layout paid one heap allocation per stratum.
    counts: Vec<u64>,
    /// Total number of counted observations.
    pub total: u64,
}

impl ContingencyTable {
    /// Builds the table for `x`, `y` conditioned on the dimensions `z`.
    ///
    /// This is the name-addressed convenience entry: it compiles a throwaway
    /// [`DiscoveryView`] over the involved columns and delegates to
    /// [`ContingencyTable::from_view`].  Hot paths that issue many queries
    /// over the same variable set should compile a view once instead.
    pub fn build(data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<Self> {
        let mut vars = Vec::with_capacity(z.len() + 2);
        vars.push(x);
        vars.push(y);
        vars.extend_from_slice(z);
        let view = DiscoveryView::compile(data, &vars)?;
        let z_ids: Vec<u32> = (2..vars.len() as u32).collect();
        Self::from_view(&view, 0, 1, &z_ids)
    }

    /// Builds the table for view variables `x`, `y` conditioned on `z`, in a
    /// single pass over the code slices.
    ///
    /// When the dense counter space `∏|Z_i| · |X| · |Y|` stays small the
    /// strata are allocated eagerly (and empty strata are retained, matching
    /// [`ContingencyTable::build`] of old); past an internal cell limit
    /// (currently 2²² counters) the build switches to a sparse map keyed by
    /// the joint `Z` configuration, so high-cardinality conditioning sets
    /// cost memory proportional to the strata that actually occur.  Both paths yield
    /// identical [`chi_square_statistic`](ContingencyTable::chi_square_statistic)
    /// values, because empty strata contribute neither statistic nor degrees
    /// of freedom.
    ///
    /// Returns [`DataError::Overflow`] only when the joint stratum space
    /// cannot even be indexed (product of cardinalities exceeds `u128`).
    pub fn from_view(view: &DiscoveryView<'_>, x: u32, y: u32, z: &[u32]) -> Result<Self> {
        view.check_id(x)?;
        view.check_id(y)?;
        for &zi in z {
            view.check_id(zi)?;
        }
        let x_codes = view.codes(x);
        let y_codes = view.codes(y);
        let z_codes: Vec<&[u32]> = z.iter().map(|&zi| view.codes(zi)).collect();
        let x_card = view.cardinality(x).max(1);
        let y_card = view.cardinality(y).max(1);
        let z_cards: Vec<usize> = z.iter().map(|&zi| view.cardinality(zi).max(1)).collect();

        let mut joint: u128 = 1;
        for &card in &z_cards {
            joint = joint.checked_mul(card as u128).ok_or_else(|| {
                DataError::Overflow(format!(
                    "joint stratum space of {} conditioning variables exceeds u128",
                    z.len()
                ))
            })?;
        }
        let cells = joint
            .checked_mul((x_card as u128) * (y_card as u128))
            .ok_or_else(|| DataError::Overflow("contingency cell space exceeds u128".to_owned()))?;
        if cells <= DENSE_CELL_LIMIT {
            Self::build_dense(
                x_codes,
                y_codes,
                &z_codes,
                x_card,
                y_card,
                &z_cards,
                joint as usize,
            )
        } else {
            Self::build_sparse(x_codes, y_codes, &z_codes, x_card, y_card, &z_cards)
        }
    }

    fn build_dense(
        x_codes: &[u32],
        y_codes: &[u32],
        z_codes: &[&[u32]],
        x_card: usize,
        y_card: usize,
        z_cards: &[usize],
        n_strata: usize,
    ) -> Result<Self> {
        let stride = x_card * y_card;
        let n_strata = n_strata.max(1);
        let mut counts = vec![0u64; n_strata * stride];
        let mut total = 0u64;
        const NULL: u32 = xinsight_data::NULL_CODE;
        // The row loop runs once per CI test over every row, so the common
        // conditioning-set sizes (depths 0–2 dominate a skeleton search) get
        // zipped loops with no per-row inner loop and no bounds checks.
        match *z_codes {
            [] => {
                for (&cx, &cy) in x_codes.iter().zip(y_codes) {
                    if cx == NULL || cy == NULL {
                        continue;
                    }
                    counts[cx as usize * y_card + cy as usize] += 1;
                    total += 1;
                }
            }
            [z0] => {
                for ((&cx, &cy), &c0) in x_codes.iter().zip(y_codes).zip(z0) {
                    if cx == NULL || cy == NULL || c0 == NULL {
                        continue;
                    }
                    counts[c0 as usize * stride + cx as usize * y_card + cy as usize] += 1;
                    total += 1;
                }
            }
            [z0, z1] => {
                let card1 = z_cards[1];
                for (((&cx, &cy), &c0), &c1) in x_codes.iter().zip(y_codes).zip(z0).zip(z1) {
                    if cx == NULL || cy == NULL || c0 == NULL || c1 == NULL {
                        continue;
                    }
                    let stratum = c0 as usize * card1 + c1 as usize;
                    counts[stratum * stride + cx as usize * y_card + cy as usize] += 1;
                    total += 1;
                }
            }
            _ => {
                'rows: for i in 0..x_codes.len() {
                    let cx = x_codes[i];
                    let cy = y_codes[i];
                    if cx == NULL || cy == NULL {
                        continue;
                    }
                    let mut stratum = 0usize;
                    for (zc, &card) in z_codes.iter().zip(z_cards) {
                        let cz = zc[i];
                        if cz == NULL {
                            continue 'rows;
                        }
                        stratum = stratum * card + cz as usize;
                    }
                    counts[stratum * stride + cx as usize * y_card + cy as usize] += 1;
                    total += 1;
                }
            }
        }
        Ok(ContingencyTable {
            x_cardinality: x_card,
            y_cardinality: y_card,
            counts,
            total,
        })
    }

    fn build_sparse(
        x_codes: &[u32],
        y_codes: &[u32],
        z_codes: &[&[u32]],
        x_card: usize,
        y_card: usize,
        z_cards: &[usize],
    ) -> Result<Self> {
        let mut map: HashMap<u128, Vec<u64>> = HashMap::new();
        let mut total = 0u64;
        'rows: for i in 0..x_codes.len() {
            let cx = x_codes[i];
            let cy = y_codes[i];
            if cx == xinsight_data::NULL_CODE || cy == xinsight_data::NULL_CODE {
                continue;
            }
            let mut stratum: u128 = 0;
            for (zc, &card) in z_codes.iter().zip(z_cards) {
                let cz = zc[i];
                if cz == xinsight_data::NULL_CODE {
                    continue 'rows;
                }
                stratum = stratum * card as u128 + cz as u128;
            }
            map.entry(stratum)
                .or_insert_with(|| vec![0u64; x_card * y_card])
                [cx as usize * y_card + cy as usize] += 1;
            total += 1;
        }
        // Deterministic stratum order (ascending joint key).
        let stride = x_card * y_card;
        let mut keys: Vec<u128> = map.keys().copied().collect();
        keys.sort_unstable();
        let n_strata = keys.len().max(1);
        let mut counts = vec![0u64; n_strata * stride];
        for (s, k) in keys.into_iter().enumerate() {
            let stratum = map.remove(&k).expect("key collected from map");
            counts[s * stride..(s + 1) * stride].copy_from_slice(&stratum);
        }
        Ok(ContingencyTable {
            x_cardinality: x_card,
            y_cardinality: y_card,
            counts,
            total,
        })
    }

    /// Number of strata (joint categories of the conditioning set).
    #[cfg(test)]
    fn n_strata(&self) -> usize {
        self.counts.len() / (self.x_cardinality * self.y_cardinality).max(1)
    }

    /// Count in stratum `s` at cell (`xi`, `yi`).
    pub fn count(&self, s: usize, xi: usize, yi: usize) -> u64 {
        self.counts[s * self.x_cardinality * self.y_cardinality + xi * self.y_cardinality + yi]
    }

    /// Pearson chi-square statistic and degrees of freedom, summed over
    /// strata.  Strata (and rows/columns within a stratum) with zero margin
    /// contribute neither to the statistic nor to the degrees of freedom.
    pub fn chi_square_statistic(&self) -> (f64, f64) {
        let mut stat = 0.0;
        let mut dof = 0.0;
        // Margin scratch is shared across strata — one allocation per call,
        // not one per stratum.
        let mut row_sums = vec![0u64; self.x_cardinality];
        let mut col_sums = vec![0u64; self.y_cardinality];
        let stride = (self.x_cardinality * self.y_cardinality).max(1);
        for counts in self.counts.chunks_exact(stride) {
            let n: u64 = counts.iter().sum();
            if n == 0 {
                continue;
            }
            row_sums.fill(0);
            col_sums.fill(0);
            for xi in 0..self.x_cardinality {
                for yi in 0..self.y_cardinality {
                    let c = counts[xi * self.y_cardinality + yi];
                    row_sums[xi] += c;
                    col_sums[yi] += c;
                }
            }
            let nonzero_rows = row_sums.iter().filter(|&&r| r > 0).count();
            let nonzero_cols = col_sums.iter().filter(|&&c| c > 0).count();
            if nonzero_rows < 2 || nonzero_cols < 2 {
                continue;
            }
            dof += (nonzero_rows - 1) as f64 * (nonzero_cols - 1) as f64;
            for xi in 0..self.x_cardinality {
                if row_sums[xi] == 0 {
                    continue;
                }
                for yi in 0..self.y_cardinality {
                    if col_sums[yi] == 0 {
                        continue;
                    }
                    let expected = row_sums[xi] as f64 * col_sums[yi] as f64 / n as f64;
                    let observed = counts[xi * self.y_cardinality + yi] as f64;
                    let d = observed - expected;
                    stat += d * d / expected;
                }
            }
        }
        (stat, dof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::DatasetBuilder;

    fn dependent_data() -> Dataset {
        // X perfectly determines Y.
        let x: Vec<&str> = (0..100)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let y: Vec<&str> = (0..100)
            .map(|i| if i % 2 == 0 { "p" } else { "q" })
            .collect();
        DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap()
    }

    fn independent_data() -> Dataset {
        // X and Y vary on unrelated cycles -> near-independent counts.
        let x: Vec<&str> = (0..120)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let y: Vec<&str> = (0..120)
            .map(|i| if (i / 2) % 2 == 0 { "p" } else { "q" })
            .collect();
        DatasetBuilder::new()
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn marginal_table_counts() {
        let d = dependent_data();
        let t = ContingencyTable::build(&d, "X", "Y", &[]).unwrap();
        assert_eq!(t.n_strata(), 1);
        assert_eq!(t.total, 100);
        assert_eq!(t.count(0, 0, 0), 50);
        assert_eq!(t.count(0, 0, 1), 0);
        assert_eq!(t.count(0, 1, 1), 50);
    }

    #[test]
    fn chi_square_large_for_dependence_small_for_independence() {
        let dep = dependent_data();
        let (stat_dep, dof_dep) = ContingencyTable::build(&dep, "X", "Y", &[])
            .unwrap()
            .chi_square_statistic();
        assert_eq!(dof_dep, 1.0);
        assert!(stat_dep > 50.0, "stat = {stat_dep}");

        let ind = independent_data();
        let (stat_ind, dof_ind) = ContingencyTable::build(&ind, "X", "Y", &[])
            .unwrap()
            .chi_square_statistic();
        assert_eq!(dof_ind, 1.0);
        assert!(stat_ind < 3.0, "stat = {stat_ind}");
    }

    #[test]
    fn conditioning_splits_into_strata() {
        // Y = X within each stratum of Z, so conditional dependence persists.
        let n = 80;
        let z: Vec<String> = (0..n).map(|i| format!("z{}", i % 4)).collect();
        let x: Vec<&str> = (0..n)
            .map(|i| if (i / 4) % 2 == 0 { "a" } else { "b" })
            .collect();
        let y: Vec<&str> = (0..n)
            .map(|i| if (i / 4) % 2 == 0 { "p" } else { "q" })
            .collect();
        let d = DatasetBuilder::new()
            .dimension("Z", z.iter().map(String::as_str))
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap();
        let t = ContingencyTable::build(&d, "X", "Y", &["Z"]).unwrap();
        assert_eq!(t.n_strata(), 4);
        let (stat, dof) = t.chi_square_statistic();
        assert_eq!(dof, 4.0);
        assert!(stat > 50.0);
    }

    #[test]
    fn degenerate_margins_contribute_no_dof() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "a"])
            .dimension("Y", ["p", "q", "p", "q"])
            .build()
            .unwrap();
        let t = ContingencyTable::build(&d, "X", "Y", &[]).unwrap();
        let (stat, dof) = t.chi_square_statistic();
        assert_eq!(stat, 0.0);
        assert_eq!(dof, 0.0);
    }

    #[test]
    fn missing_values_are_dropped() {
        let d = DatasetBuilder::new()
            .dimension_column(
                "X",
                xinsight_data::DimensionColumn::from_optional_values([
                    Some("a"),
                    None,
                    Some("b"),
                    Some("b"),
                ]),
            )
            .dimension("Y", ["p", "p", "q", "q"])
            .build()
            .unwrap();
        let t = ContingencyTable::build(&d, "X", "Y", &[]).unwrap();
        assert_eq!(t.total, 3);
    }

    #[test]
    fn from_view_matches_name_based_build() {
        let n = 120;
        let z: Vec<String> = (0..n).map(|i| format!("z{}", i % 5)).collect();
        let x: Vec<&str> = (0..n)
            .map(|i| if (i / 3) % 2 == 0 { "a" } else { "b" })
            .collect();
        let y: Vec<&str> = (0..n)
            .map(|i| if (i / 7) % 2 == 0 { "p" } else { "q" })
            .collect();
        let d = DatasetBuilder::new()
            .dimension("Z", z.iter().map(String::as_str))
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap();
        let by_name = ContingencyTable::build(&d, "X", "Y", &["Z"]).unwrap();
        let view = crate::DiscoveryView::compile(&d, &["Z", "X", "Y"]).unwrap();
        let by_view = ContingencyTable::from_view(&view, 1, 2, &[0]).unwrap();
        assert_eq!(by_name.counts, by_view.counts);
        assert_eq!(by_name.n_strata(), by_view.n_strata());
        assert_eq!(by_name.total, by_view.total);
        assert_eq!(
            by_name.chi_square_statistic(),
            by_view.chi_square_statistic()
        );
    }

    #[test]
    fn sparse_path_agrees_with_dense_on_statistics() {
        // Same data counted through both paths: force the sparse path by
        // routing through build_sparse directly.
        let n = 200;
        let z1: Vec<String> = (0..n).map(|i| format!("u{}", i % 7)).collect();
        let z2: Vec<String> = (0..n).map(|i| format!("v{}", (i / 2) % 6)).collect();
        let x: Vec<&str> = (0..n)
            .map(|i| if (i / 5) % 2 == 0 { "a" } else { "b" })
            .collect();
        let y: Vec<&str> = (0..n)
            .map(|i| if (i / 11) % 2 == 0 { "p" } else { "q" })
            .collect();
        let d = DatasetBuilder::new()
            .dimension("Z1", z1.iter().map(String::as_str))
            .dimension("Z2", z2.iter().map(String::as_str))
            .dimension("X", x)
            .dimension("Y", y)
            .build()
            .unwrap();
        let view = crate::DiscoveryView::compile(&d, &["Z1", "Z2", "X", "Y"]).unwrap();
        let dense = ContingencyTable::from_view(&view, 2, 3, &[0, 1]).unwrap();
        let z_codes: Vec<&[u32]> = vec![view.codes(0), view.codes(1)];
        let sparse = ContingencyTable::build_sparse(
            view.codes(2),
            view.codes(3),
            &z_codes,
            view.cardinality(2),
            view.cardinality(3),
            &[view.cardinality(0), view.cardinality(1)],
        )
        .unwrap();
        assert_eq!(dense.total, sparse.total);
        // Sparse drops empty strata, so stratum counts may differ …
        assert!(sparse.n_strata() <= dense.n_strata());
        // … but the statistics are identical.
        assert_eq!(dense.chi_square_statistic(), sparse.chi_square_statistic());
    }

    #[test]
    fn astronomically_large_stratum_space_is_a_structured_error() {
        // 130 binary conditioning columns: ∏|Z_i| = 2^130 > u128::MAX.
        let mut builder = DatasetBuilder::new()
            .dimension("X", ["a", "b"])
            .dimension("Y", ["p", "q"]);
        let mut names = Vec::new();
        for i in 0..130 {
            let name = format!("Z{i}");
            builder = builder.dimension(&name, ["u", "v"]);
            names.push(name);
        }
        let d = builder.build().unwrap();
        let z_names: Vec<&str> = names.iter().map(String::as_str).collect();
        let err = ContingencyTable::build(&d, "X", "Y", &z_names).unwrap_err();
        assert!(matches!(err, DataError::Overflow(_)), "got {err:?}");
        // A merely huge (but representable) space silently takes the sparse
        // path instead of erroring or allocating: 40 binary columns = 2^40
        // strata, yet only 2 rows exist.
        let t = ContingencyTable::build(&d, "X", "Y", &z_names[..40]).unwrap();
        assert_eq!(t.total, 2);
        assert_eq!(
            t.n_strata(),
            2,
            "one materialized stratum per observed Z configuration"
        );
    }

    #[test]
    fn empty_sparse_table_keeps_one_stratum() {
        let d = DatasetBuilder::new()
            .dimension_column(
                "X",
                xinsight_data::DimensionColumn::from_optional_values::<_, &str>([None, None]),
            )
            .dimension("Y", ["p", "q"])
            .build()
            .unwrap();
        let view = crate::DiscoveryView::compile(&d, &["X", "Y"]).unwrap();
        let sparse = ContingencyTable::build_sparse(
            view.codes(0),
            view.codes(1),
            &[],
            view.cardinality(0).max(1),
            view.cardinality(1),
            &[],
        )
        .unwrap();
        assert_eq!(sparse.total, 0);
        assert_eq!(sparse.n_strata(), 1);
    }

    #[test]
    fn errors_on_measures() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "b"])
            .measure("M", [1.0, 2.0])
            .build()
            .unwrap();
        assert!(ContingencyTable::build(&d, "X", "M", &[]).is_err());
        assert!(ContingencyTable::build(&d, "M", "X", &[]).is_err());
    }
}
