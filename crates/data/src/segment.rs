//! Immutable segments and the epoch-stamped segmented column store.
//!
//! The paper's setting is static — one dataset, loaded once — but a served
//! engine needs to *grow*: new rows must become explainable without a full
//! reload, and large scans want intra-query parallelism.  Both fall out of
//! one storage decision: the store is a sequence of **immutable
//! [`Segment`]s** (bounded row slices of dictionary-encoded columns, each
//! with its own [`RowMask`](crate::RowMask) domain) behind a shared
//! [`Schema`] and a shared **global dictionary** of `Arc<str>` categories.
//!
//! * **Append = seal a segment.**  [`SegmentedDataset::append_rows`] (or
//!   [`SegmentedDataset::seal`] for a pre-built batch) encodes the new rows
//!   against the global dictionary, seals them into a fresh segment and
//!   returns a **new snapshot** whose epoch is bumped by one.  Existing
//!   segments are shared by `Arc`, so a snapshot costs O(new rows), and
//!   readers holding the old snapshot are never disturbed.
//! * **Dictionary codes are stable.**  The global dictionary is
//!   append-only; a category keeps its code forever, and every segment's
//!   columns store codes into a (prefix of the) same dictionary.  Derived
//!   state computed against one segment — row masks, partial aggregates —
//!   therefore stays valid in every later epoch, which is what lets the
//!   engine's selection cache key by `(segment id, seal epoch)` and treat
//!   ingest as *pure growth*: nothing is ever invalidated.
//! * **Aggregation is a merge.**  Per-segment
//!   [`MeasureStats`](crate::MeasureStats) merge with exact summation, so
//!   any segmentation of the same rows yields bit-identical aggregates —
//!   the property the engine's "segmented == monolithic" tests pin down.
//!
//! **Segment granularity.**  Each seal is O(batch rows) for the columns
//! plus O(dictionary) for the per-segment dictionary snapshot, and every
//! scan pays a small per-segment overhead — so prefer batching rows over
//! sealing one row at a time.  The store never mutates a sealed segment
//! (immutability is what makes snapshots and caching free); when many tiny
//! segments accumulate, [`SegmentedDataset::compact`] rewrites them into a
//! **new snapshot with one merged segment** — same rows, same global
//! dictionary codes, same lineage, fresh segment id — so aggregates and
//! explanations over the compacted snapshot are byte-identical while scans
//! stop paying the per-segment overhead.  A bundle reload
//! ([`SegmentedDataset::to_dataset`] + [`SegmentedDataset::from_dataset`])
//! compacts as a side effect too, but starts a fresh lineage.
//!
//! ```
//! use xinsight_data::{Aggregate, DatasetBuilder, SegmentedDataset, Subspace, Value};
//!
//! let base = DatasetBuilder::new()
//!     .dimension("City", ["A", "A", "B"])
//!     .measure("Sales", [10.0, 20.0, 5.0])
//!     .build()
//!     .unwrap();
//! let store = SegmentedDataset::from_dataset(base);
//! assert_eq!((store.n_segments(), store.epoch(), store.n_rows()), (1, 0, 3));
//!
//! // Appending seals a new segment in a new snapshot; the old one is
//! // untouched and new categories extend the global dictionary.
//! let grown = store
//!     .append_rows(&[
//!         vec![Value::from("C"), Value::from(7.0)],
//!         vec![Value::from("A"), Value::from(30.0)],
//!     ])
//!     .unwrap();
//! assert_eq!((grown.n_segments(), grown.epoch(), grown.n_rows()), (2, 1, 5));
//! assert_eq!(store.n_segments(), 1);
//! assert_eq!(grown.cardinality("City").unwrap(), 3);
//!
//! // Aggregates merge across segments exactly.
//! let avg = grown
//!     .aggregate_subspace("Sales", Aggregate::Avg, &Subspace::of("City", "A"))
//!     .unwrap();
//! assert_eq!(avg, Some(20.0));
//! ```

// HashMap here never leaks iteration order into output: interior lookup maps; scans follow column order (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::column::{Column, DimensionColumn, NULL_CODE};
use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::{DataError, Result};
use crate::exact::MeasureStats;
use crate::mask::RowMask;
use crate::schema::{AttributeKind, Schema};
use crate::subspace::Subspace;
use crate::value::Value;
use crate::Aggregate;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide segment id source: ids are unique across every store in the
/// process, so `(segment id, seal epoch)` can key shared caches without any
/// possibility of cross-store collisions.
static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide lineage source: every [`SegmentedDataset`] created from
/// scratch gets a fresh lineage id, preserved across appends, so per-store
/// resources (e.g. the engine's selection cache) can cheaply verify they are
/// being reused with a snapshot of the same store.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// One immutable, sealed slice of the store: a bounded run of rows with its
/// own `RowMask` domain (`0..n_rows()` local row indices).
///
/// The segment's columns are dictionary-encoded against the store's global
/// dictionary *as of its seal epoch* — codes are global and stable, and the
/// category `Arc<str>`s are shared with the store, so a segment adds no
/// per-category *string* memory (its own dictionary snapshot still costs
/// O(categories) pointers and lookup entries; many tiny segments should be
/// compacted by re-sealing — see the module docs on segment granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    id: u64,
    epoch: u64,
    data: Dataset,
}

impl Segment {
    /// The process-unique segment id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The store epoch in which this segment was sealed (0 for the base
    /// segment of a store built from a dataset).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of rows in this segment.
    pub fn n_rows(&self) -> usize {
        self.data.n_rows()
    }

    /// The segment's columnar payload.  Row indices and masks over it are
    /// segment-local (`0..n_rows()`).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Mask selecting every row of this segment.
    pub fn all_rows(&self) -> RowMask {
        self.data.all_rows()
    }

    /// Statistics of `measure` over the segment rows selected by `mask`
    /// (the mergeable building block of every segmented aggregate; the
    /// accumulation loop is the shared [`MeasureStats::of`]).
    pub fn measure_stats(&self, measure: &str, mask: &RowMask) -> Result<MeasureStats> {
        Ok(MeasureStats::of(self.data.measure(measure)?, mask))
    }

    /// Estimated resident bytes of this segment: the columnar payload plus
    /// the per-segment dictionary snapshot (pointer vector + lookup entry
    /// per category; the category *strings* are shared with the store and
    /// not charged here).  An accounting estimate — used by the serving
    /// compactor to report bytes reclaimed — not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        // Documented estimate per dictionary-snapshot category: an
        // `Arc<str>` pointer (8) plus a hash-map entry (~64 with padding).
        const DICT_SNAPSHOT_ENTRY_BYTES: usize = 72;
        let mut bytes = 0usize;
        for idx in 0..self.data.schema().len() {
            bytes += match self.data.column(idx) {
                Column::Dimension(c) => {
                    c.codes().len() * 4 + c.categories().len() * DICT_SNAPSHOT_ENTRY_BYTES
                }
                Column::Measure(c) => c.values().len() * 8,
            };
        }
        bytes
    }
}

/// One dimension's slice of the global dictionary.
#[derive(Debug, Clone, Default)]
struct Dict {
    categories: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl Dict {
    fn from_column(column: &DimensionColumn) -> Dict {
        let categories = column.categories().to_vec();
        let lookup = categories
            .iter()
            .enumerate()
            .map(|(i, c)| (Arc::clone(c), i as u32))
            .collect();
        Dict { categories, lookup }
    }

    /// The global code of `category`, interning it if new.
    fn intern(&mut self, category: &str) -> u32 {
        match self.lookup.get(category) {
            Some(&code) => code,
            None => {
                let code = self.categories.len() as u32;
                let interned: Arc<str> = Arc::from(category);
                self.categories.push(Arc::clone(&interned));
                self.lookup.insert(interned, code);
                code
            }
        }
    }
}

/// An epoch-stamped snapshot of a segmented column store: a shared
/// [`Schema`], the global dictionary, and `Arc`-shared immutable
/// [`Segment`]s.  See the module-level docs for the design and an
/// example.
///
/// Snapshots are values: appending produces a *new* `SegmentedDataset`
/// (epoch + 1) sharing every existing segment, and the old snapshot remains
/// fully usable — the concurrency story of a serving layer (in-flight
/// requests finish on the snapshot they started with) falls out of plain
/// `Arc` swaps.
#[derive(Debug, Clone)]
pub struct SegmentedDataset {
    lineage: u64,
    epoch: u64,
    schema: Schema,
    /// Per attribute: the global dictionary for dimensions, `None` for
    /// measures.  Parallel to the schema.
    dict: Vec<Option<Dict>>,
    segments: Vec<Arc<Segment>>,
    n_rows: usize,
}

impl PartialEq for SegmentedDataset {
    /// Content equality: same schema and the same rows in the same
    /// segmentation.  Lineage and segment ids are identity, not content,
    /// and are deliberately ignored.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.segments.len() == other.segments.len()
            && self
                .segments
                .iter()
                .zip(&other.segments)
                .all(|(a, b)| a.data == b.data)
    }
}

impl From<Dataset> for SegmentedDataset {
    fn from(data: Dataset) -> SegmentedDataset {
        SegmentedDataset::from_dataset(data)
    }
}

impl SegmentedDataset {
    /// Wraps a monolithic dataset as the single-segment, epoch-0 case: the
    /// dataset's per-column dictionaries *are* the global dictionary, and
    /// the segment shares their interned `Arc<str>`s.
    pub fn from_dataset(data: Dataset) -> SegmentedDataset {
        let schema = data.schema().clone();
        let dict = (0..schema.len())
            .map(|idx| match data.column(idx) {
                Column::Dimension(c) => Some(Dict::from_column(c)),
                Column::Measure(_) => None,
            })
            .collect();
        let n_rows = data.n_rows();
        SegmentedDataset {
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed), // relaxed: id allocation needs atomicity only
            epoch: 0,
            schema,
            dict,
            segments: vec![Arc::new(Segment {
                id: NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed), // relaxed: id allocation needs atomicity only
                epoch: 0,
                data,
            })],
            n_rows,
        }
    }

    /// The store's schema (shared by every segment).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across all segments.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of sealed segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// The segments, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The snapshot epoch: 0 at creation, +1 per sealed segment.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The store lineage id: process-unique at creation and preserved
    /// across appends, so caches can verify "same store, any epoch".
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The global dictionary of a dimension: every category observed in any
    /// segment, ordered by first occurrence (= dictionary code).
    pub fn categories(&self, attribute: &str) -> Result<&[Arc<str>]> {
        Ok(&self.dict(attribute)?.categories)
    }

    /// The global dictionary code of `value` in dimension `attribute`, or
    /// `None` when no segment has ever seen the value (it selects no rows).
    /// A code is stable for the life of the store lineage, so it can key
    /// per-segment state in place of the category string.
    pub fn global_code(&self, attribute: &str, value: &str) -> Result<Option<u32>> {
        Ok(self.dict(attribute)?.lookup.get(value).copied())
    }

    fn dict(&self, attribute: &str) -> Result<&Dict> {
        let idx = self.schema.index_of(attribute)?;
        match &self.dict[idx] {
            Some(dict) => Ok(dict),
            None => Err(DataError::WrongKind {
                attribute: attribute.to_owned(),
                expected: "dimension",
            }),
        }
    }

    /// Cardinality of a dimension across the whole store.
    pub fn cardinality(&self, attribute: &str) -> Result<usize> {
        Ok(self.categories(attribute)?.len())
    }

    /// Total number of categories across every dimension's global
    /// dictionary.  The dictionary is append-only, so an unchanged total
    /// between two snapshots of one lineage proves **no** dimension gained
    /// a category in between — the cheap guard result caches use to decide
    /// whether scores that depend on attribute cardinality (the candidate
    /// filter sets, the `σ = 1/m` regulariser) could have changed.
    pub fn dictionary_len(&self) -> usize {
        self.dict.iter().flatten().map(|d| d.categories.len()).sum()
    }

    /// Validates that `name` is a measure of this store.
    pub fn check_measure(&self, name: &str) -> Result<()> {
        match self.schema.attribute_by_name(name)?.kind {
            AttributeKind::Measure => Ok(()),
            AttributeKind::Dimension => Err(DataError::WrongKind {
                attribute: name.to_owned(),
                expected: "measure",
            }),
        }
    }

    /// Seals a pre-built batch of rows into a new segment, returning the
    /// next snapshot (epoch + 1).  The batch must have exactly this store's
    /// schema; its dimension values are re-encoded against the global
    /// dictionary (interning unseen categories), so its own dictionary
    /// codes need not align.
    pub fn seal(&self, batch: &Dataset) -> Result<SegmentedDataset> {
        if *batch.schema() != self.schema {
            return Err(DataError::DatasetMismatch(
                "appended rows must match the store schema (same attributes, kinds and order)"
                    .into(),
            ));
        }
        if batch.n_rows() == 0 {
            return Err(DataError::DatasetMismatch(
                "cannot seal an empty segment (no rows to append)".into(),
            ));
        }
        let mut dict = self.dict.clone();
        let mut builder = DatasetBuilder::new();
        for (idx, slot) in dict.iter_mut().enumerate() {
            let name = &self.schema.attribute(idx).name;
            match batch.column(idx) {
                Column::Dimension(column) => {
                    let global = slot.as_mut().expect("schema kinds match");
                    // Remap the batch's local codes to global codes.
                    let remap: Vec<u32> = column
                        .categories()
                        .iter()
                        .map(|category| global.intern(category))
                        .collect();
                    let codes: Vec<u32> = column
                        .codes()
                        .iter()
                        .map(|&c| {
                            if c == NULL_CODE {
                                NULL_CODE
                            } else {
                                remap[c as usize]
                            }
                        })
                        .collect();
                    let encoded = DimensionColumn::from_parts(codes, global.categories.clone())?;
                    builder = builder.dimension_column(name, encoded);
                }
                Column::Measure(column) => {
                    builder = builder.measure_column(name, column.clone());
                }
            }
        }
        let data = builder.build()?;
        let epoch = self.epoch + 1;
        let mut segments = self.segments.clone();
        segments.push(Arc::new(Segment {
            id: NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed), // relaxed: id allocation needs atomicity only
            epoch,
            data,
        }));
        Ok(SegmentedDataset {
            lineage: self.lineage,
            epoch,
            schema: self.schema.clone(),
            dict,
            segments,
            n_rows: self.n_rows + batch.n_rows(),
        })
    }

    /// Appends rows given as [`Value`]s in schema order, sealing them into
    /// one new segment (see [`SegmentedDataset::seal`]).  Dimension cells
    /// must be [`Value::Category`], measure cells [`Value::Number`];
    /// [`Value::Null`] marks a missing cell of either kind — the shared
    /// row-to-column codepath is [`Dataset::from_rows`].
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<SegmentedDataset> {
        self.seal(&Dataset::from_rows(&self.schema, rows)?)
    }

    /// The aggregate of `measure` over the rows a subspace selects, merged
    /// exactly across segments (`None` when the selection is empty and the
    /// aggregate undefined there, mirroring [`Aggregate::eval_opt`]).
    pub fn aggregate_subspace(
        &self,
        measure: &str,
        aggregate: Aggregate,
        subspace: &Subspace,
    ) -> Result<Option<f64>> {
        self.check_measure(measure)?;
        let mut stats = MeasureStats::new();
        for segment in &self.segments {
            let mask = subspace.mask(segment.data())?;
            stats.merge(&segment.measure_stats(measure, &mask)?);
        }
        Ok(stats.value(aggregate))
    }

    /// Concatenates every segment back into one monolithic [`Dataset`]
    /// (global dictionary codes are preserved).  Intended for tests,
    /// exports and equivalence checks, not the serving hot path.
    pub fn to_dataset(&self) -> Result<Dataset> {
        let mut builder = DatasetBuilder::new();
        for idx in 0..self.schema.len() {
            let name = &self.schema.attribute(idx).name;
            match &self.dict[idx] {
                Some(dict) => {
                    let mut codes = Vec::with_capacity(self.n_rows);
                    for segment in &self.segments {
                        match segment.data.column(idx) {
                            Column::Dimension(c) => codes.extend_from_slice(c.codes()),
                            Column::Measure(_) => unreachable!("schema kinds are shared"),
                        }
                    }
                    builder = builder.dimension_column(
                        name,
                        DimensionColumn::from_parts(codes, dict.categories.clone())?,
                    );
                }
                None => {
                    let mut values = Vec::with_capacity(self.n_rows);
                    for segment in &self.segments {
                        match segment.data.column(idx) {
                            Column::Measure(c) => values.extend_from_slice(c.values()),
                            Column::Dimension(_) => unreachable!("schema kinds are shared"),
                        }
                    }
                    builder = builder.measure(name, values);
                }
            }
        }
        builder.build()
    }

    /// Rewrites every segment into **one** merged segment, returning the
    /// next snapshot (epoch + 1, same lineage, fresh segment id).
    ///
    /// A pure rewrite of immutable data: row order is segment order, the
    /// global dictionary (and every code) is preserved, and nothing about
    /// the rows changes — so every mask, aggregate and explanation over the
    /// compacted snapshot is byte-identical to the segmented one (the
    /// per-segment `MeasureStats` merge is exact for any segmentation).
    /// Because the lineage is preserved, per-lineage resources such as the
    /// engine's selection cache remain valid; entries keyed by the old
    /// segment ids simply stop being probed.
    ///
    /// A store that is already a single segment is returned unchanged
    /// (same snapshot, no epoch bump), so callers can invoke this
    /// idempotently.
    pub fn compact(&self) -> Result<SegmentedDataset> {
        if self.segments.len() <= 1 {
            return Ok(self.clone());
        }
        let data = self.to_dataset()?;
        let epoch = self.epoch + 1;
        Ok(SegmentedDataset {
            lineage: self.lineage,
            epoch,
            schema: self.schema.clone(),
            dict: self.dict.clone(),
            segments: vec![Arc::new(Segment {
                id: NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed), // relaxed: id allocation needs atomicity only
                epoch,
                data,
            })],
            n_rows: self.n_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn base() -> Dataset {
        DatasetBuilder::new()
            .dimension("X", ["a", "a", "b"])
            .dimension("Y", ["p", "q", "p"])
            .measure("M", [1.0, 2.0, 3.0])
            .build()
            .unwrap()
    }

    fn row(x: &str, y: &str, m: f64) -> Vec<Value> {
        vec![Value::from(x), Value::from(y), Value::from(m)]
    }

    #[test]
    fn from_dataset_is_the_single_segment_case() {
        let store = SegmentedDataset::from_dataset(base());
        assert_eq!(store.n_segments(), 1);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.n_rows(), 3);
        assert_eq!(store.cardinality("X").unwrap(), 2);
        assert!(store.categories("M").is_err());
        assert!(store.check_measure("M").is_ok());
        assert!(store.check_measure("X").is_err());
        assert!(store.check_measure("nope").is_err());
        // The segment shares the base dataset's interned categories.
        let seg = &store.segments()[0];
        assert!(Arc::ptr_eq(
            &store.categories("X").unwrap()[0],
            &seg.data().dimension("X").unwrap().categories()[0]
        ));
    }

    #[test]
    fn append_rows_seals_a_new_epoch_and_extends_the_dictionary() {
        let store = SegmentedDataset::from_dataset(base());
        let grown = store
            .append_rows(&[row("c", "p", 4.0), row("a", "r", 5.0)])
            .unwrap();
        assert_eq!(grown.n_segments(), 2);
        assert_eq!(grown.epoch(), 1);
        assert_eq!(grown.n_rows(), 5);
        assert_eq!(grown.lineage(), store.lineage());
        // New categories got fresh codes after the existing ones.
        assert_eq!(
            grown
                .categories("X")
                .unwrap()
                .iter()
                .map(|c| c.as_ref())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        // The new segment's codes are global: `a` keeps code 0.
        let seg = &grown.segments()[1];
        assert_eq!(seg.epoch(), 1);
        assert_eq!(seg.data().dimension_codes("X").unwrap(), &[2, 0]);
        // The old snapshot is untouched (persistent value semantics).
        assert_eq!(store.n_segments(), 1);
        assert_eq!(store.cardinality("X").unwrap(), 2);
        // Old segments are shared, not copied.
        assert!(Arc::ptr_eq(&store.segments()[0], &grown.segments()[0]));
    }

    #[test]
    fn append_rows_validates_shape_and_kinds() {
        let store = SegmentedDataset::from_dataset(base());
        // Wrong arity.
        assert!(store.append_rows(&[vec![Value::from("a")]]).is_err());
        // Number in a dimension / category in a measure.
        assert!(store
            .append_rows(&[vec![Value::from(1.0), Value::from("p"), Value::from(1.0)]])
            .is_err());
        assert!(store
            .append_rows(&[vec![Value::from("a"), Value::from("p"), Value::from("x")]])
            .is_err());
        // Empty batches cannot seal.
        assert!(store.append_rows(&[]).is_err());
        // Nulls are allowed cells.
        let grown = store
            .append_rows(&[vec![Value::Null, Value::from("p"), Value::Null]])
            .unwrap();
        let sealed = grown.segments()[1].data();
        assert!(sealed.column(0).is_null(0) && sealed.column(2).is_null(0));
    }

    #[test]
    fn seal_rejects_schema_mismatches() {
        let store = SegmentedDataset::from_dataset(base());
        let wrong = DatasetBuilder::new()
            .dimension("X", ["a"])
            .measure("M", [1.0])
            .build()
            .unwrap();
        assert!(store.seal(&wrong).is_err());
    }

    #[test]
    fn aggregates_merge_exactly_across_any_segmentation() {
        let store = SegmentedDataset::from_dataset(base());
        let grown = store
            .append_rows(&[row("a", "p", 10.0), row("b", "q", 20.0)])
            .unwrap()
            .append_rows(&[row("a", "q", 30.0)])
            .unwrap();
        let flat = SegmentedDataset::from_dataset(grown.to_dataset().unwrap());
        for aggregate in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Count,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            let sub = Subspace::of("X", "a");
            let merged = grown.aggregate_subspace("M", aggregate, &sub).unwrap();
            let mono = flat.aggregate_subspace("M", aggregate, &sub).unwrap();
            assert_eq!(
                merged.map(f64::to_bits),
                mono.map(f64::to_bits),
                "{aggregate}"
            );
        }
        // Empty selections mirror eval_opt's semantics.
        assert_eq!(
            grown
                .aggregate_subspace("M", Aggregate::Avg, &Subspace::of("X", "zzz"))
                .unwrap(),
            None
        );
        assert_eq!(
            grown
                .aggregate_subspace("M", Aggregate::Sum, &Subspace::of("X", "zzz"))
                .unwrap(),
            Some(0.0)
        );
        assert!(grown
            .aggregate_subspace("X", Aggregate::Sum, &Subspace::all())
            .is_err());
    }

    #[test]
    fn to_dataset_round_trips_rows_and_codes() {
        let store = SegmentedDataset::from_dataset(base())
            .append_rows(&[row("c", "r", 9.0)])
            .unwrap();
        let flat = store.to_dataset().unwrap();
        assert_eq!(flat.n_rows(), 4);
        assert_eq!(flat.value(3, "X").unwrap(), Value::from("c"));
        assert_eq!(flat.value(0, "M").unwrap(), Value::from(1.0));
        assert_eq!(flat.dimension("X").unwrap().cardinality(), 3);
    }

    #[test]
    fn compact_merges_to_one_segment_preserving_rows_codes_and_lineage() {
        let store = SegmentedDataset::from_dataset(base())
            .append_rows(&[row("c", "p", 4.0), row("a", "r", 5.0)])
            .unwrap()
            .append_rows(&[row("b", "q", 6.0)])
            .unwrap();
        assert_eq!(store.n_segments(), 3);
        let compacted = store.compact().unwrap();
        assert_eq!(compacted.n_segments(), 1);
        assert_eq!(compacted.epoch(), store.epoch() + 1);
        assert_eq!(compacted.n_rows(), store.n_rows());
        assert_eq!(compacted.lineage(), store.lineage());
        assert_eq!(compacted.dictionary_len(), store.dictionary_len());
        // The merged segment is a fresh id in a fresh epoch.
        assert_ne!(compacted.segments()[0].id(), store.segments()[0].id());
        // Rows concatenate in segment order with codes preserved.
        let flat = store.to_dataset().unwrap();
        assert_eq!(compacted.segments()[0].data(), &flat);
        // Aggregates are bit-identical before and after.
        for aggregate in [Aggregate::Sum, Aggregate::Avg, Aggregate::Min] {
            let sub = Subspace::of("X", "a");
            assert_eq!(
                store
                    .aggregate_subspace("M", aggregate, &sub)
                    .unwrap()
                    .map(f64::to_bits),
                compacted
                    .aggregate_subspace("M", aggregate, &sub)
                    .unwrap()
                    .map(f64::to_bits),
            );
        }
        // The old snapshot is untouched; compaction of a single segment is
        // the identity (no epoch churn for idempotent callers).
        assert_eq!(store.n_segments(), 3);
        let again = compacted.compact().unwrap();
        assert_eq!(again.epoch(), compacted.epoch());
        assert_eq!(again.segments()[0].id(), compacted.segments()[0].id());
    }

    #[test]
    fn dictionary_len_counts_every_dimension_and_grows_on_new_categories() {
        let store = SegmentedDataset::from_dataset(base());
        // X: {a, b}, Y: {p, q} → 4; M is a measure and contributes nothing.
        assert_eq!(store.dictionary_len(), 4);
        let grown = store.append_rows(&[row("c", "p", 4.0)]).unwrap();
        assert_eq!(grown.dictionary_len(), 5);
        // Appending only known categories leaves the dictionary unchanged.
        let same = grown.append_rows(&[row("a", "q", 5.0)]).unwrap();
        assert_eq!(same.dictionary_len(), 5);
    }

    #[test]
    fn approx_bytes_shrink_when_tiny_segments_are_compacted() {
        let store = SegmentedDataset::from_dataset(base())
            .append_rows(&[row("a", "p", 4.0)])
            .unwrap()
            .append_rows(&[row("b", "q", 5.0)])
            .unwrap()
            .append_rows(&[row("a", "r", 6.0)])
            .unwrap();
        let before: usize = store.segments().iter().map(|s| s.approx_bytes()).sum();
        let compacted = store.compact().unwrap();
        let after: usize = compacted.segments().iter().map(|s| s.approx_bytes()).sum();
        assert!(
            after < before,
            "merging tiny segments must drop the per-segment dictionary \
             snapshot overhead ({after} >= {before})"
        );
    }

    #[test]
    fn content_equality_ignores_identity() {
        let a = SegmentedDataset::from_dataset(base());
        let b = SegmentedDataset::from_dataset(base());
        assert_ne!(a.lineage(), b.lineage());
        assert_eq!(a, b);
        let grown = a.append_rows(&[row("a", "p", 4.0)]).unwrap();
        assert_ne!(a, grown);
    }
}
