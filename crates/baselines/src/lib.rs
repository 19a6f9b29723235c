//! # xinsight-baselines
//!
//! Re-implementations of the three explanation engines the paper compares
//! XPlainer against in Tables 8 and 9:
//!
//! * [`Scorpion`] — outlier-explanation engine ranking predicates by an
//!   *influence score* (difference reduction normalised by the predicate's
//!   support), searched exhaustively over the attribute's filter subsets,
//! * [`RsExplain`] — intervention-based ranking in the style of Roy & Suciu's
//!   formal explanation framework: every filter whose removal meaningfully
//!   shrinks the difference is reported,
//! * [`BoExplain`] — randomized/Bayesian-optimization-style search with a
//!   fixed evaluation budget.
//!
//! The original systems are not open source in a form that can be embedded
//! here; these reproductions implement the published scoring functions and
//! preserve the computational shape the paper reports (exhaustive searches
//! that blow up with cardinality for Scorpion and RSExplain, a fixed budget
//! with degrading accuracy for BOExplain).

#![warn(missing_docs)]

mod boexplain;
mod common;
mod rsexplain;
mod scorpion;

pub use boexplain::BoExplain;
pub use common::{BaselineExplanation, ExplanationEngine};
pub use rsexplain::RsExplain;
pub use scorpion::Scorpion;
