//! Row selection masks.
//!
//! All selection operations in the paper (`D_p`, `D_P`, `D_s`, `D − D'`,
//! Sec. 2.1 "Selection") are implemented as boolean masks over row indices so
//! that XPlainer's repeated re-aggregations never materialize row copies.

/// A fixed-length boolean mask over the rows of a dataset.
///
/// Implemented as a packed bitset (64 rows per word) so intersection, union
/// and difference — the only operations XPlainer needs in its inner loop —
/// are word-parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    bits: Vec<u64>,
    len: usize,
}

impl RowMask {
    /// Mask of `len` rows, all deselected.
    pub fn zeros(len: usize) -> Self {
        RowMask {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Mask of `len` rows, all selected.
    pub fn ones(len: usize) -> Self {
        let mut mask = RowMask {
            bits: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        mask.clear_tail();
        mask
    }

    /// Builds a mask from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bits = Vec::new();
        let mut len = 0usize;
        let mut word = 0u64;
        for (i, b) in iter.into_iter().enumerate() {
            let off = i % 64;
            if off == 0 && i > 0 {
                bits.push(word);
                word = 0;
            }
            if b {
                word |= 1 << off;
            }
            len = i + 1;
        }
        if len > 0 {
            bits.push(word);
        }
        RowMask { bits, len }
    }

    /// One mask per category of a dictionary-coded column: mask `c` selects
    /// the rows whose code is `c`, for `c < categories`.  A row whose code
    /// is [`NULL_CODE`](crate::NULL_CODE), or any code `≥ categories`, sets
    /// no bit in any mask.
    pub fn one_hot(codes: &[u32], categories: usize) -> Vec<RowMask> {
        let mut masks = vec![RowMask::zeros(codes.len()); categories];
        for (w, chunk) in codes.chunks(64).enumerate() {
            for (bit, &code) in chunk.iter().enumerate() {
                if let Some(mask) = masks.get_mut(code as usize) {
                    mask.bits[w] |= 1 << bit;
                }
            }
        }
        masks
    }

    /// Number of rows selected in `self` and in every mask of `others` (all
    /// of one length): the popcount of their word-wise AND, counted without
    /// allocating.
    pub fn and_count(&self, others: &[&RowMask]) -> usize {
        for other in others {
            assert_eq!(self.len, other.len, "mask length mismatch");
        }
        let ones = |w: u64| w.count_ones() as usize;
        let a = &self.bits;
        // The common operand counts get zipped loops with no inner loop
        // over `others` and no bounds checks.
        match *others {
            [] => self.count(),
            [b] => a.iter().zip(&b.bits).map(|(x, y)| ones(x & y)).sum(),
            [b, c] => a
                .iter()
                .zip(&b.bits)
                .zip(&c.bits)
                .map(|((x, y), z)| ones(x & y & z))
                .sum(),
            [b, c, d] => a
                .iter()
                .zip(&b.bits)
                .zip(&c.bits)
                .zip(&d.bits)
                .map(|(((x, y), z), v)| ones(x & y & z & v))
                .sum(),
            [b, c, d, e] => a
                .iter()
                .zip(&b.bits)
                .zip(&c.bits)
                .zip(&d.bits)
                .zip(&e.bits)
                .map(|((((x, y), z), v), u)| ones(x & y & z & v & u))
                .sum(),
            _ => a
                .iter()
                .enumerate()
                .map(|(w, &x)| ones(others.iter().fold(x, |acc, m| acc & m.bits[w])))
                .sum(),
        }
    }

    /// Heap bytes held by the packed words (the mask's allocation; the
    /// struct itself is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of rows covered by the mask (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns whether row `i` is selected.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Selects or deselects row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let word = &mut self.bits[i / 64];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when no row is selected.
    pub fn is_none_selected(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Row-wise AND with another mask of the same length.
    pub fn and(&self, other: &RowMask) -> RowMask {
        assert_eq!(self.len, other.len, "mask length mismatch");
        RowMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Row-wise OR with another mask of the same length.
    pub fn or(&self, other: &RowMask) -> RowMask {
        assert_eq!(self.len, other.len, "mask length mismatch");
        RowMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Rows selected in `self` but not in `other` (`D − D'` in the paper).
    pub fn minus(&self, other: &RowMask) -> RowMask {
        assert_eq!(self.len, other.len, "mask length mismatch");
        RowMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & !b)
                .collect(),
            len: self.len,
        }
    }

    /// Complement of the mask.
    pub fn not(&self) -> RowMask {
        let mut mask = RowMask {
            bits: self.bits.iter().map(|w| !w).collect(),
            len: self.len,
        };
        mask.clear_tail();
        mask
    }

    /// Iterator over the indices of selected rows.
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    fn clear_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.bits.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_and_zeros() {
        let ones = RowMask::ones(70);
        assert_eq!(ones.count(), 70);
        assert!(ones.get(69));
        let zeros = RowMask::zeros(70);
        assert_eq!(zeros.count(), 0);
        assert!(zeros.is_none_selected());
    }

    #[test]
    fn from_bools_roundtrip() {
        let pattern: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let mask = RowMask::from_bools(pattern.iter().copied());
        assert_eq!(mask.len(), 130);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(mask.get(i), b, "row {i}");
        }
        assert_eq!(mask.count(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn set_and_get() {
        let mut mask = RowMask::zeros(10);
        mask.set(3, true);
        mask.set(7, true);
        mask.set(3, false);
        assert!(!mask.get(3));
        assert!(mask.get(7));
        assert_eq!(mask.count(), 1);
    }

    #[test]
    fn boolean_algebra() {
        let a = RowMask::from_bools([true, true, false, false]);
        let b = RowMask::from_bools([true, false, true, false]);
        assert_eq!(a.and(&b).count(), 1);
        assert_eq!(a.or(&b).count(), 3);
        assert_eq!(a.minus(&b).iter_selected().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.not().iter_selected().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn complement_respects_tail() {
        let mask = RowMask::zeros(65);
        let inv = mask.not();
        assert_eq!(inv.count(), 65);
        assert_eq!(inv.iter_selected().max(), Some(64));
    }

    #[test]
    fn iter_selected_matches_get() {
        let mask = RowMask::from_bools((0..200).map(|i| i % 7 == 2));
        let selected: Vec<usize> = mask.iter_selected().collect();
        assert!(selected.iter().all(|&i| mask.get(i)));
        assert_eq!(selected.len(), mask.count());
    }

    #[test]
    fn one_hot_skips_null_codes_and_covers_the_tail_word() {
        let null = crate::NULL_CODE;
        // 130 rows: two full words and a two-row tail; every fifth row NULL.
        let codes: Vec<u32> = (0..130u32)
            .map(|i| if i % 5 == 4 { null } else { i % 3 })
            .collect();
        let masks = RowMask::one_hot(&codes, 4);
        assert_eq!(masks.len(), 4);
        for (c, mask) in masks.iter().enumerate() {
            assert_eq!(mask.len(), 130);
            let expect: Vec<usize> = (0..130).filter(|&i| codes[i] == c as u32).collect();
            assert_eq!(mask.iter_selected().collect::<Vec<_>>(), expect, "code {c}");
        }
        assert!(masks[3].is_none_selected());
        let total: usize = masks.iter().map(RowMask::count).sum();
        assert_eq!(total, 130 - 26);
    }

    #[test]
    fn and_count_equals_the_count_of_the_and() {
        let masks: Vec<RowMask> = (0..6)
            .map(|k| RowMask::from_bools((0..200).map(|i| (i * (k + 3)) % (k + 2) != 0)))
            .collect();
        for n in 1..=masks.len() {
            let (first, rest) = masks[..n].split_first().unwrap();
            let refs: Vec<&RowMask> = rest.iter().collect();
            let expect = rest.iter().fold(first.clone(), |acc, m| acc.and(m)).count();
            assert_eq!(first.and_count(&refs), expect, "{n} operands");
        }
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn and_count_rejects_mismatched_lengths() {
        let _ = RowMask::zeros(4).and_count(&[&RowMask::zeros(5)]);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn mismatched_lengths_panic() {
        let a = RowMask::zeros(4);
        let b = RowMask::zeros(5);
        let _ = a.and(&b);
    }
}
