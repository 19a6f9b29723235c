//! Exactly-rounded, order-independent summation and the mergeable
//! sufficient statistics built on it.
//!
//! A segmented store answers every aggregate by *merging* per-segment
//! partial results.  Naive `f64` accumulation would make the merged sum
//! depend on where the segment boundaries fall (floating-point addition is
//! not associative), so "segmented == monolithic" could only ever hold
//! approximately.  [`ExactSum`] removes that caveat: it maintains Shewchuk
//! non-overlapping partials (the algorithm behind Python's `math.fsum`)
//! whose values always represent the running sum *exactly*, and
//! [`ExactSum::value`] rounds that exact real number once.  Feeding the
//! same multiset of values in any order — or merging accumulators built
//! over any partition of it — therefore yields bit-identical results.
//!
//! [`MeasureStats`] packages the exact sum together with the row/value
//! counts and min/max into the mergeable `(rows, count, sum, min, max)`
//! tuple from which every [`Aggregate`] the data model supports is derived
//! arithmetically.  It is the unit the engine's selection cache stores per
//! `(segment, selection)` and merges at read time.

use crate::aggregate::Aggregate;

/// An exactly-rounded `f64` accumulator (Shewchuk partials, as in Python's
/// `math.fsum`).
///
/// The partials are a non-overlapping expansion whose mathematical sum is
/// exactly the sum of everything added so far; [`ExactSum::value`] computes
/// its correctly-rounded `f64`.  Because the rounded value is a function of
/// the *exact* real sum alone, it is independent of insertion order and of
/// how the inputs were partitioned across merged accumulators:
///
/// ```
/// use xinsight_data::ExactSum;
///
/// let xs = [1e16, 1.0, -1e16, 1.0, 0.1, -0.3];
/// let mut forward = ExactSum::new();
/// xs.iter().for_each(|&x| forward.add(x));
/// let mut split_a = ExactSum::new();
/// let mut split_b = ExactSum::new();
/// xs[..2].iter().for_each(|&x| split_a.add(x));
/// xs[2..].iter().rev().for_each(|&x| split_b.add(x));
/// split_a.merge(&split_b);
/// assert_eq!(forward.value().to_bits(), split_a.value().to_bits());
/// // Naive accumulation would have lost the two 1.0s entirely:
/// assert_eq!(forward.value(), 2.0 + 0.1 - 0.3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactSum {
    /// Non-overlapping partials in increasing magnitude order; their exact
    /// mathematical sum is the running total.
    partials: Vec<f64>,
}

impl ExactSum {
    /// An accumulator at zero.
    pub fn new() -> Self {
        ExactSum::default()
    }

    /// Adds one value exactly.
    pub fn add(&mut self, x: f64) {
        let mut x = x;
        let mut i = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Two-sum: hi + lo == x + y exactly.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        self.partials.truncate(i);
        self.partials.push(x);
    }

    /// Adds another accumulator's exact total into this one — exact, so a
    /// merge of per-partition sums equals the sum over the whole.
    pub fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
    }

    /// The correctly-rounded `f64` of the exact running sum.
    pub fn value(&self) -> f64 {
        // Sum from the largest partial down, stopping at the first inexact
        // step, then apply the round-half-even correction (CPython fsum).
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }

    /// Heap bytes held by the partials (the accumulator's allocation; the
    /// struct itself is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.partials.capacity() * std::mem::size_of::<f64>()
    }

    /// Whether nothing (or only zeros) has been added.
    pub fn is_zero(&self) -> bool {
        self.partials.iter().all(|&p| p == 0.0)
    }
}

/// Mergeable sufficient statistics of a measure over one selection: the
/// `(rows, count, sum, min, max)` tuple from which every [`Aggregate`] is
/// derived, with the sum held exactly so that merging per-segment partials
/// is independent of the segmentation.
///
/// ```
/// use xinsight_data::{Aggregate, MeasureStats};
///
/// let mut left = MeasureStats::new();
/// left.add_rows(3);               // 3 selected rows…
/// left.observe(2.0);              // …two of which carry a value
/// left.observe(4.0);
/// let mut right = MeasureStats::new();
/// right.add_rows(1);
/// right.observe(6.0);
/// left.merge(&right);
/// assert_eq!(left.rows, 4);
/// assert_eq!(left.count, 3);
/// assert_eq!(left.value(Aggregate::Sum), Some(12.0));
/// assert_eq!(left.value(Aggregate::Avg), Some(4.0));
/// assert_eq!(left.value(Aggregate::Min), Some(2.0));
/// assert_eq!(left.value(Aggregate::Max), Some(6.0));
/// assert_eq!(MeasureStats::new().value(Aggregate::Avg), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureStats {
    /// Number of selected rows (including rows whose measure is missing).
    pub rows: usize,
    /// Number of selected rows with a non-missing measure value.
    pub count: usize,
    /// Exact sum of the non-missing measure values.
    sum: ExactSum,
    /// Minimum of the non-missing values (`∞` when `count == 0`).
    pub min: f64,
    /// Maximum of the non-missing values (`−∞` when `count == 0`).
    pub max: f64,
}

impl Default for MeasureStats {
    fn default() -> Self {
        MeasureStats {
            rows: 0,
            count: 0,
            sum: ExactSum::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl MeasureStats {
    /// Empty statistics (zero rows).
    pub fn new() -> Self {
        MeasureStats::default()
    }

    /// The statistics of a measure column over the rows a mask selects —
    /// the one accumulation loop shared by [`Aggregate::eval`], the
    /// segmented store and the engine's selection cache, so monolithic and
    /// per-segment aggregation can never diverge.  Missing (NaN) cells are
    /// skipped; `rows` is left at 0 (callers that need the selected-row
    /// count account it themselves — it usually falls out of a popcount
    /// they already paid for).
    pub fn of(column: &crate::MeasureColumn, mask: &crate::RowMask) -> MeasureStats {
        let mut stats = MeasureStats::new();
        for i in mask.iter_selected() {
            if let Some(v) = column.value(i) {
                stats.observe(v);
            }
        }
        stats
    }

    /// Accounts for `n` selected rows (independent of whether their measure
    /// is missing; missing rows are *not* [`observe`](MeasureStats::observe)d).
    pub fn add_rows(&mut self, n: usize) {
        self.rows += n;
    }

    /// Folds in one non-missing measure value.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum.add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another selection's statistics (disjoint selections — e.g.
    /// the same predicate on two different segments).  Exact: the result is
    /// identical to having accumulated both selections into one instance,
    /// in any order.
    pub fn merge(&mut self, other: &MeasureStats) {
        self.rows += other.rows;
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Heap bytes held by the exact-sum partials (see
    /// [`ExactSum::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.sum.heap_bytes()
    }

    /// The correctly-rounded sum of the observed values.
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// The value of `aggregate` over this selection, or `None` when the
    /// aggregate is undefined on an empty selection (AVG / MIN / MAX; SUM
    /// and COUNT of an empty selection are 0, mirroring
    /// [`Aggregate::eval`]).
    pub fn value(&self, aggregate: Aggregate) -> Option<f64> {
        match aggregate {
            Aggregate::Sum => Some(self.sum()),
            Aggregate::Count => Some(self.count as f64),
            Aggregate::Avg => (self.count > 0).then(|| self.sum() / self.count as f64),
            Aggregate::Min => (self.count > 0).then_some(self.min),
            Aggregate::Max => (self.count > 0).then_some(self.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / (1u64 << 53) as f64 - 0.5
        }
    }

    #[test]
    fn exact_sum_matches_integer_arithmetic() {
        let mut sum = ExactSum::new();
        for i in 0..1000 {
            sum.add(i as f64);
        }
        assert_eq!(sum.value(), 499500.0);
        assert!(!sum.is_zero());
        assert!(ExactSum::new().is_zero());
        assert_eq!(ExactSum::new().value(), 0.0);
    }

    #[test]
    fn exact_sum_is_order_and_partition_independent() {
        let mut rng = lcg(7);
        let values: Vec<f64> = (0..512).map(|i| rng() * 10f64.powi((i % 19) - 9)).collect();
        let mut forward = ExactSum::new();
        values.iter().for_each(|&v| forward.add(v));
        let mut reverse = ExactSum::new();
        values.iter().rev().for_each(|&v| reverse.add(v));
        assert_eq!(forward.value().to_bits(), reverse.value().to_bits());
        // Any partition into merged accumulators gives the same bits.
        for split in [1usize, 63, 256, 511] {
            let mut a = ExactSum::new();
            values[..split].iter().for_each(|&v| a.add(v));
            let mut b = ExactSum::new();
            values[split..].iter().for_each(|&v| b.add(v));
            a.merge(&b);
            assert_eq!(forward.value().to_bits(), a.value().to_bits(), "{split}");
        }
    }

    #[test]
    fn exact_sum_beats_naive_accumulation() {
        // 1.0 added to 1e16 is lost by naive f64 addition; fsum keeps it.
        let mut sum = ExactSum::new();
        sum.add(1e16);
        for _ in 0..64 {
            sum.add(1.0);
        }
        sum.add(-1e16);
        assert_eq!(sum.value(), 64.0);
    }

    #[test]
    fn measure_stats_merge_equals_flat_accumulation() {
        let mut rng = lcg(11);
        let values: Vec<f64> = (0..300).map(|_| rng() * 1e6).collect();
        let mut flat = MeasureStats::new();
        flat.add_rows(values.len() + 10);
        values.iter().for_each(|&v| flat.observe(v));
        let mut merged = MeasureStats::new();
        for chunk in values.chunks(37) {
            let mut part = MeasureStats::new();
            part.add_rows(chunk.len());
            chunk.iter().for_each(|&v| part.observe(v));
            merged.merge(&part);
        }
        merged.add_rows(10);
        assert_eq!(flat.rows, merged.rows);
        assert_eq!(flat.count, merged.count);
        assert_eq!(flat.sum().to_bits(), merged.sum().to_bits());
        assert_eq!(flat.min, merged.min);
        assert_eq!(flat.max, merged.max);
        assert_eq!(
            flat.value(Aggregate::Avg).unwrap().to_bits(),
            merged.value(Aggregate::Avg).unwrap().to_bits()
        );
    }

    #[test]
    fn empty_measure_stats_semantics() {
        let empty = MeasureStats::new();
        assert_eq!(empty.value(Aggregate::Sum), Some(0.0));
        assert_eq!(empty.value(Aggregate::Count), Some(0.0));
        assert_eq!(empty.value(Aggregate::Avg), None);
        assert_eq!(empty.value(Aggregate::Min), None);
        assert_eq!(empty.value(Aggregate::Max), None);
        // Rows without values keep AVG undefined.
        let mut rows_only = MeasureStats::new();
        rows_only.add_rows(5);
        assert_eq!(rows_only.value(Aggregate::Avg), None);
        assert_eq!(rows_only.rows, 5);
    }
}
