//! # xinsight
//!
//! Facade crate for the XInsight reproduction: re-exports the public API of
//! every workspace crate so examples and downstream users need a single
//! dependency.
//!
//! See `README.md` for a tour and `ARCHITECTURE.md` ("The two phases") for
//! how a Why Query flows through the crates.

pub use xinsight_baselines as baselines;
pub use xinsight_core as core;
pub use xinsight_data as data;
pub use xinsight_discovery as discovery;
pub use xinsight_graph as graph;
pub use xinsight_service as service;
pub use xinsight_stats as stats;
pub use xinsight_synth as synth;
