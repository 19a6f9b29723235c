//! # xinsight-synth
//!
//! Synthetic and simulated datasets for the XInsight reproduction.
//!
//! The paper evaluates on two public datasets (FLIGHT, HOTEL), one production
//! dataset (WEB, judged by six domain experts) and two synthetic families
//! (SYN-A for XLearner, SYN-B for XPlainer).  The real datasets cannot be
//! redistributed, so this crate provides simulators whose *generating
//! mechanisms encode the causal stories the paper reports*, plus the two
//! synthetic generators reproduced from the descriptions in Sec. 4.1 and
//! the supplementary material.  The expert panel of the WEB user study
//! cannot be re-recruited and is not simulated: its tables are measured as
//! agreement with the WEB simulator's ground truth instead.
//!
//! * [`syn_a`] — Erdős–Rényi ground-truth graphs, Dirichlet CPTs, forward
//!   sampling, latent masking and FD-node injection (Table 6 / Fig. 7),
//! * [`syn_b`] — the Scorpion-style `X → Y → Z` generator with planted
//!   ground-truth explanations (Tables 8 / 9),
//! * [`lung_cancer`] — the running example of Fig. 1,
//! * [`flight`], [`hotel`] — simulators standing in for the FLIGHT / HOTEL
//!   case studies of RQ1 (Fig. 6),
//! * [`web`] — a simulator standing in for the WEB production dataset, with
//!   the ground truth Tables 5 and 7 are measured against.
//!
//! Every generator takes an explicit seed and is deterministic given it.

#![warn(missing_docs)]

pub mod flight;
pub mod hotel;
pub mod lung_cancer;
pub mod syn_a;
pub mod syn_b;
pub mod web;
