//! # xinsight-graph
//!
//! Causal-graph substrate for the XInsight reproduction.
//!
//! The paper's causal knowledge is represented by graphs with three kinds of
//! edge endpoints — tails, arrowheads and circles (Sec. 2.2):
//!
//! * [`Dag`] — plain directed acyclic graphs, used by the synthetic-data
//!   generators and as the ground-truth data-generating model.
//! * [`MixedGraph`] — directed mixed graphs with per-endpoint
//!   [`Mark`]s; Maximal Ancestral Graphs (MAGs) and Partial Ancestral Graphs
//!   (PAGs) are mixed graphs satisfying extra properties checked by
//!   [`MixedGraph::is_mag`] / edge-mark invariants.
//! * [`separation`] — m-separation over mixed graphs and d-separation over
//!   DAGs (Def. 2.3), the engine behind both the CI oracle used in testing
//!   and XTranslator's explainability rule.
//! * [`metrics`] — skeleton precision, recall and F1 used to
//!   reproduce Table 6 and Figure 7.
//! * [`render`] — deterministic text/DOT/Mermaid emitters shared by the CLI
//!   text path and the serving stack's `/v2/graph` endpoint.
//!
//! [`MixedGraph`] stores adjacency as a dense-id hybrid CSR (interned node
//! names, packed `u32` edge entries, O(degree) array walks) — see the
//! `mixed_graph` module docs for the layout.

#![warn(missing_docs)]

mod dag;
mod edge;
mod endpoint;
pub mod metrics;
mod mixed_graph;
pub mod render;
pub mod separation;

pub use dag::Dag;
pub use edge::Edge;
pub use endpoint::Mark;
pub use mixed_graph::{EdgeType, MixedGraph, NodeId};
