//! # xinsight-discovery
//!
//! Constraint-based causal discovery substrate for the XInsight reproduction.
//!
//! The paper's XLearner builds on the FCI algorithm (Spirtes et al.; Zhang's
//! complete orientation rules), which this crate implements from scratch:
//!
//! * [`SepsetMap`] — separating sets recorded during the adjacency search,
//! * [`skeleton_search`] — the PC-style adjacency search FCI starts from,
//! * [`fci`] — the FCI algorithm (FCI-SL skeleton phase with Possible-D-SEP
//!   pruning, followed by the FCI-Orient rules R1–R4 and R8–R10),
//! * [`OracleCiTest`] — a d-separation oracle over a known ground-truth graph,
//!   used to test the algorithms independently of finite-sample effects.
//!
//! Rules R5–R7 of Zhang's complete rule set only fire under selection bias,
//! which the paper explicitly assumes away (Sec. 2.1); they are therefore not
//! implemented, and the graphs produced here never contain undirected
//! (tail–tail) edges.

#![warn(missing_docs)]

mod fci;
mod oracle;
mod orientation;
mod sepset;
mod skeleton;

pub use fci::{fci, fci_orient, fci_skeleton, possible_d_sep, FciOptions, FciResult};
pub use oracle::OracleCiTest;
pub use orientation::{apply_fci_rules, orient_colliders};
pub use sepset::SepsetMap;
pub use skeleton::{skeleton_search, SkeletonOptions, SkeletonResult};
