//! The multi-dimensional dataset (`D` in the paper) and its builder.

use crate::column::{Column, DimensionColumn, MeasureColumn, NULL_CODE};
use crate::error::{DataError, Result};
use crate::mask::RowMask;
use crate::schema::{AttributeKind, Schema};
use crate::value::Value;

/// A multi-dimensional dataset: a schema plus column storage.
///
/// Records are assumed to be drawn i.i.d. without selection bias (Sec. 2.1).
/// The dataset is immutable after construction; derived datasets (e.g. after
/// discretization or row filtering) are new values.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.schema.len()
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column index of an attribute name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Column at index `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column looked up by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(self.column(self.index_of(name)?))
    }

    /// Dimension column looked up by name (errors if it is a measure).
    pub fn dimension(&self, name: &str) -> Result<&DimensionColumn> {
        self.column_by_name(name)?.as_dimension(name)
    }

    /// Measure column looked up by name (errors if it is a dimension).
    pub fn measure(&self, name: &str) -> Result<&MeasureColumn> {
        self.column_by_name(name)?.as_measure(name)
    }

    /// Value of cell (`row`, `attribute`).
    pub fn value(&self, row: usize, attribute: &str) -> Result<Value> {
        Ok(self.column_by_name(attribute)?.value(row))
    }

    /// Mask selecting every row.
    pub fn all_rows(&self) -> RowMask {
        RowMask::ones(self.n_rows)
    }

    /// Returns a copy with every row containing a missing value removed
    /// (the preprocessing step described in Sec. 4.1).
    pub fn drop_null_rows(&self) -> Dataset {
        // One pass per column over its codes / values, not a cell lookup
        // per row × column.
        let mut has_null = vec![false; self.n_rows];
        for column in &self.columns {
            match column {
                Column::Dimension(c) => {
                    for (flag, &code) in has_null.iter_mut().zip(c.codes()) {
                        *flag |= code == NULL_CODE;
                    }
                }
                Column::Measure(c) => {
                    for (flag, v) in has_null.iter_mut().zip(c.values()) {
                        *flag |= v.is_nan();
                    }
                }
            }
        }
        let keep: Vec<usize> = has_null
            .iter()
            .enumerate()
            .filter_map(|(i, &null)| (!null).then_some(i))
            .collect();
        self.take_rows(&keep)
    }

    /// Returns a copy containing only the rows selected by `mask`.
    pub fn filter_rows(&self, mask: &RowMask) -> Result<Dataset> {
        if mask.len() != self.n_rows {
            return Err(DataError::MaskLengthMismatch {
                mask: mask.len(),
                rows: self.n_rows,
            });
        }
        let keep: Vec<usize> = mask.iter_selected().collect();
        Ok(self.take_rows(&keep))
    }

    /// Returns a copy containing only the named attributes, in the given order.
    pub fn select_attributes(&self, names: &[&str]) -> Result<Dataset> {
        let mut builder = DatasetBuilder::new();
        for &name in names {
            let idx = self.index_of(name)?;
            builder = match &self.columns[idx] {
                Column::Dimension(c) => builder.dimension_column(name, c.clone()),
                Column::Measure(c) => builder.measure_column(name, c.clone()),
            };
        }
        builder.build()
    }

    /// Returns this dataset with an extra dimension column appended (by
    /// value: the existing columns move, none is copied).
    pub fn with_dimension(mut self, name: &str, column: DimensionColumn) -> Result<Dataset> {
        if column.len() != self.n_rows {
            return Err(DataError::LengthMismatch {
                attribute: name.to_owned(),
                got: column.len(),
                expected: self.n_rows,
            });
        }
        self.schema.push(name, AttributeKind::Dimension)?;
        self.columns.push(Column::Dimension(column));
        Ok(self)
    }

    /// The rows at `rows` of every column: one code gather per dimension
    /// (re-coded in first-appearance order, exactly the dictionary that
    /// re-interning the kept cells would build) and one value gather per
    /// measure.
    fn take_rows(&self, rows: &[usize]) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Dimension(c) => Column::Dimension(c.take(rows)),
                Column::Measure(c) => Column::Measure(c.take(rows)),
            })
            .collect();
        Dataset {
            schema: self.schema.clone(),
            columns,
            n_rows: rows.len(),
        }
    }

    /// Cardinality (number of distinct observed categories) of a dimension.
    pub fn cardinality(&self, name: &str) -> Result<usize> {
        Ok(self.dimension(name)?.cardinality())
    }

    /// Borrowed dictionary-code slice of a dimension (`NULL_CODE` marks
    /// missing rows): zero-copy access for callers that only need the codes,
    /// not the whole [`DimensionColumn`].
    ///
    /// ```
    /// use xinsight_data::DatasetBuilder;
    ///
    /// let d = DatasetBuilder::new()
    ///     .dimension("X", ["a", "b", "a"])
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(d.dimension_codes("X").unwrap(), &[0, 1, 0]);
    /// assert!(d.dimension_codes("missing").is_err());
    /// ```
    pub fn dimension_codes(&self, name: &str) -> Result<&[u32]> {
        Ok(self.dimension(name)?.codes())
    }

    /// Wraps this dataset as a single-segment
    /// [`SegmentedDataset`](crate::SegmentedDataset) — the store the online
    /// engine operates on.  Zero-copy: the segment takes ownership of the
    /// columns and the global dictionary shares their interned categories.
    pub fn into_segmented(self) -> crate::SegmentedDataset {
        crate::SegmentedDataset::from_dataset(self)
    }

    /// Assembles row-major [`Value`]s (in `schema` order) into a columnar
    /// dataset: dimension cells must be [`Value::Category`], measure cells
    /// [`Value::Number`], and [`Value::Null`] marks a missing cell of
    /// either kind.  The one row-to-column codepath behind both
    /// [`SegmentedDataset::append_rows`](crate::SegmentedDataset::append_rows)
    /// and the serving layer's wire ingest.
    pub fn from_rows(schema: &Schema, rows: &[Vec<Value>]) -> Result<Dataset> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(DataError::LengthMismatch {
                    attribute: format!("row {i}"),
                    got: row.len(),
                    expected: schema.len(),
                });
            }
        }
        let mut builder = DatasetBuilder::new();
        for idx in 0..schema.len() {
            let meta = schema.attribute(idx);
            match meta.kind {
                AttributeKind::Dimension => {
                    let values: Vec<Option<&str>> = rows
                        .iter()
                        .map(|row| match &row[idx] {
                            Value::Category(s) => Ok(Some(s.as_str())),
                            Value::Null => Ok(None),
                            Value::Number(_) => Err(DataError::WrongKind {
                                attribute: meta.name.clone(),
                                expected: "dimension",
                            }),
                        })
                        .collect::<Result<_>>()?;
                    builder = builder.dimension_column(
                        &meta.name,
                        DimensionColumn::from_optional_values(values),
                    );
                }
                AttributeKind::Measure => {
                    let values: Vec<Option<f64>> = rows
                        .iter()
                        .map(|row| match &row[idx] {
                            Value::Number(x) => Ok(Some(*x)),
                            Value::Null => Ok(None),
                            Value::Category(_) => Err(DataError::WrongKind {
                                attribute: meta.name.clone(),
                                expected: "measure",
                            }),
                        })
                        .collect::<Result<_>>()?;
                    builder = builder
                        .measure_column(&meta.name, MeasureColumn::from_optional_values(values));
                }
            }
        }
        builder.build()
    }
}

/// Builder for [`Dataset`] values.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: Option<usize>,
    error: Option<DataError>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dimension column from string-like values.
    pub fn dimension<I, S>(self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.dimension_column(name, DimensionColumn::from_values(values))
    }

    /// Adds a dimension column from already-encoded storage.
    pub fn dimension_column(mut self, name: &str, column: DimensionColumn) -> Self {
        if self.error.is_some() {
            return self;
        }
        if let Err(e) = self.push_column(name, AttributeKind::Dimension, Column::Dimension(column))
        {
            self.error = Some(e);
        }
        self
    }

    /// Adds a measure column from numeric values.
    pub fn measure<I: IntoIterator<Item = f64>>(self, name: &str, values: I) -> Self {
        self.measure_column(name, MeasureColumn::from_values(values))
    }

    /// Adds a measure column from already-built storage.
    pub fn measure_column(mut self, name: &str, column: MeasureColumn) -> Self {
        if self.error.is_some() {
            return self;
        }
        if let Err(e) = self.push_column(name, AttributeKind::Measure, Column::Measure(column)) {
            self.error = Some(e);
        }
        self
    }

    fn push_column(&mut self, name: &str, kind: AttributeKind, column: Column) -> Result<()> {
        let len = column.len();
        match self.n_rows {
            None => self.n_rows = Some(len),
            Some(expected) if expected != len => {
                return Err(DataError::LengthMismatch {
                    attribute: name.to_owned(),
                    got: len,
                    expected,
                });
            }
            _ => {}
        }
        self.schema.push(name, kind)?;
        self.columns.push(column);
        Ok(())
    }

    /// Finalizes the dataset.
    pub fn build(self) -> Result<Dataset> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Dataset {
            schema: self.schema,
            columns: self.columns,
            n_rows: self.n_rows.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lung_cancer() -> Dataset {
        DatasetBuilder::new()
            .dimension("Location", ["A", "A", "B", "B"])
            .dimension("Smoking", ["Yes", "Yes", "No", "No"])
            .measure("LungCancer", [3.0, 3.0, 1.0, 2.0])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_basic() {
        let d = lung_cancer();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_attributes(), 3);
        assert_eq!(d.cardinality("Location").unwrap(), 2);
        assert_eq!(
            d.value(0, "Smoking").unwrap(),
            Value::Category("Yes".into())
        );
        assert_eq!(d.value(3, "LungCancer").unwrap(), Value::Number(2.0));
    }

    #[test]
    fn builder_length_mismatch() {
        let err = DatasetBuilder::new()
            .dimension("A", ["x", "y"])
            .measure("B", [1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn builder_duplicate_attribute() {
        let err = DatasetBuilder::new()
            .dimension("A", ["x"])
            .dimension("A", ["y"])
            .build()
            .unwrap_err();
        assert_eq!(err, DataError::DuplicateAttribute("A".into()));
    }

    #[test]
    fn filter_rows_copies_selection() {
        let d = lung_cancer();
        let mask = RowMask::from_bools([true, false, false, true]);
        let sub = d.filter_rows(&mask).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(
            sub.value(1, "Location").unwrap(),
            Value::Category("B".into())
        );
    }

    #[test]
    fn filter_rows_rejects_bad_mask() {
        let d = lung_cancer();
        let mask = RowMask::ones(3);
        assert!(matches!(
            d.filter_rows(&mask),
            Err(DataError::MaskLengthMismatch { .. })
        ));
    }

    #[test]
    fn drop_null_rows_removes_incomplete_records() {
        let d = DatasetBuilder::new()
            .dimension_column(
                "X",
                DimensionColumn::from_optional_values([Some("a"), None, Some("b")]),
            )
            .measure("M", [1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let clean = d.drop_null_rows();
        assert_eq!(clean.n_rows(), 2);
        assert_eq!(clean.value(1, "X").unwrap(), Value::Category("b".into()));
    }

    #[test]
    fn select_attributes_projects_and_reorders() {
        let d = lung_cancer();
        let proj = d.select_attributes(&["LungCancer", "Location"]).unwrap();
        assert_eq!(proj.n_attributes(), 2);
        assert_eq!(proj.schema().names(), vec!["LungCancer", "Location"]);
        assert!(proj.select_attributes(&["Nope"]).is_err());
    }

    #[test]
    fn with_dimension_appends_column() {
        let d = lung_cancer();
        let extra = DimensionColumn::from_values(["u", "v", "u", "v"]);
        let d2 = d.clone().with_dimension("Extra", extra).unwrap();
        assert_eq!(d2.n_attributes(), 4);
        assert_eq!(d2.value(2, "Extra").unwrap(), Value::Category("u".into()));
        let bad = DimensionColumn::from_values(["only-one"]);
        assert!(d.with_dimension("Bad", bad).is_err());
    }
}
