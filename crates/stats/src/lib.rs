//! # xinsight-stats
//!
//! Statistical substrate for the XInsight reproduction.
//!
//! Constraint-based causal discovery (Sec. 2.2) reduces to a stream of
//! conditional-independence (CI) queries `X ⫫ Y | Z` answered from data.
//! This crate provides
//!
//! * [`special`] — log-gamma, regularized incomplete gamma and the
//!   chi-square survival function (no third-party math dependency),
//! * [`DiscoveryView`] — a per-fit compilation of the discovery variable set:
//!   names resolved to dense ids once, borrowed `&[u32]` code slices and
//!   cardinalities held for zero-cost repeated access,
//! * [`ContingencyTable`] — stratified cross tabulations of dimensions, built
//!   in one pass from a view (with a sparse stratum fallback for
//!   high-cardinality conditioning sets), or, for a table of fewer than 64
//!   cells in a compiled test, counted by AND and popcount over the view's
//!   one-hot category masks (one [`RowMask`](xinsight_data::RowMask) per
//!   category of each variable of cardinality ≤ 32),
//! * [`ChiSquareTest`] — the CI test for categorical data,
//! * [`CiTest`] — the trait the discovery algorithms program against, with
//!   [`CiTest::compile`] producing an [`IndexedCiTest`] that answers queries
//!   by dense variable id, plus a [`CachedCiTest`] wrapper memoising repeated
//!   queries behind compact `(u32, u32, SmallVec<u32>)` keys (FCI asks the
//!   same question many times across its skeleton and Possible-D-SEP phases).

#![warn(missing_docs)]

mod cache;
mod chi_square;
mod ci_test;
mod contingency;
mod small_vec;
pub mod special;
mod view;

pub use cache::{CacheStats, CachedCiTest};
pub use chi_square::ChiSquareTest;
pub use ci_test::{CiOutcome, CiTest, IndexedCiTest};
pub use contingency::ContingencyTable;
pub use small_vec::SmallVec;
pub use view::DiscoveryView;
