//! A tiny inline-first vector for compact cache keys.
//!
//! Conditioning sets in constraint-based discovery are short (the depth of
//! the adjacency search, typically ≤ 4), so storing them as `Vec<u32>` in a
//! cache key wastes a heap allocation per entry.  [`SmallVec`] keeps up to
//! `N` elements inline and only spills to the heap beyond that, mirroring
//! the `smallvec` crate's core idea in the handful of lines this workspace
//! needs (the workspace builds offline; external crates are not available).

// HashMap here never leaks iteration order into output: spill map of a counting structure; callers sort on read-out (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::hash::{Hash, Hasher};

/// An inline-first vector of `Copy` elements: up to `N` elements live in the
/// struct itself, longer contents spill to a heap `Vec`.
///
/// Equality, ordering and hashing are those of the element slice.  The
/// representation is private, so the `len ≤ N` inline invariant cannot be
/// violated from outside; `N` must fit the internal `u8` length field
/// (checked at compile time, `N ≤ 255`).
///
/// ```
/// use xinsight_stats::SmallVec;
///
/// let mut v: SmallVec<u32> = SmallVec::new();
/// v.push(7);
/// v.push(3);
/// v.sort_unstable();
/// assert_eq!(v.as_slice(), &[3, 7]);
/// assert!(!v.spilled());
/// ```
#[derive(Debug, Clone)]
pub struct SmallVec<T: Copy + Default, const N: usize = 6> {
    repr: Repr<T, N>,
}

#[derive(Debug, Clone)]
enum Repr<T: Copy, const N: usize> {
    /// Contents stored inline: `len` live elements at the front of `buf`.
    Inline { len: u8, buf: [T; N] },
    /// Contents spilled to the heap.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// Compile-time guard: the inline length is stored as a `u8`, so the
    /// inline capacity must fit it.  Referenced from every constructor so an
    /// oversized `N` fails at monomorphization instead of truncating.
    const INLINE_CAPACITY_FITS_U8: () = assert!(N <= u8::MAX as usize);

    /// Creates an empty vector (inline).
    pub fn new() -> Self {
        #[allow(clippy::let_unit_value)]
        let () = Self::INLINE_CAPACITY_FITS_U8;
        SmallVec {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); N],
            },
        }
    }

    /// Builds a vector from a slice, spilling only when it does not fit.
    pub fn from_slice(items: &[T]) -> Self {
        #[allow(clippy::let_unit_value)]
        let () = Self::INLINE_CAPACITY_FITS_U8;
        if items.len() <= N {
            let mut buf = [T::default(); N];
            buf[..items.len()].copy_from_slice(items);
            SmallVec {
                repr: Repr::Inline {
                    len: items.len() as u8,
                    buf,
                },
            }
        } else {
            SmallVec {
                repr: Repr::Heap(items.to_vec()),
            }
        }
    }

    /// Appends an element, spilling to the heap when the inline buffer is full.
    pub fn push(&mut self, item: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if (*len as usize) < N {
                    buf[*len as usize] = item;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(item);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(item),
        }
    }

    /// The live elements.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The live elements, mutably.
    fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when the contents live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Bytes of heap the vector owns: its spilled capacity, or 0 inline.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity() * std::mem::size_of::<T>(),
        }
    }
}

impl<T: Copy + Default + Ord, const N: usize> SmallVec<T, N> {
    /// Sorts the elements in place (unstable).
    pub fn sort_unstable(&mut self) {
        self.as_mut_slice().sort_unstable();
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: SmallVec<u32, 3> = SmallVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        v.push(3);
        assert!(!v.spilled());
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn equality_and_hashing_follow_the_slice() {
        // Inline vs inline.
        let a: SmallVec<u32, 4> = SmallVec::from_slice(&[1, 2, 3]);
        let b: SmallVec<u32, 4> = [1, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        // Spilled vs spilled, built through different constructors.
        let c: SmallVec<u32, 2> = SmallVec::from_slice(&[1, 2, 3]);
        let d: SmallVec<u32, 2> = [1, 2, 3].into_iter().collect();
        assert!(c.spilled() && d.spilled());
        assert_eq!(c, d);
        let mut map: HashMap<SmallVec<u32, 2>, &str> = HashMap::new();
        map.insert(c, "x");
        assert_eq!(map.get(&d), Some(&"x"));
        let mut e = d;
        e.push(4);
        assert!(!map.contains_key(&e));
    }

    #[test]
    fn from_slice_and_sort() {
        let mut v: SmallVec<u32> = SmallVec::from_slice(&[9, 1, 5]);
        v.sort_unstable();
        assert_eq!(&*v, &[1, 5, 9]);
        let big: SmallVec<u32, 2> = (0..10).collect();
        assert!(big.spilled());
        assert_eq!(big.len(), 10);
    }
}
