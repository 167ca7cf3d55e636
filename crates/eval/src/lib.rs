//! # comsig-eval
//!
//! Evaluation substrate for the signature framework: everything Section IV
//! of the paper needs to measure persistence, uniqueness and robustness on
//! whole node populations.
//!
//! * [`stats`] — means, deviations, quantiles.
//! * [`ranking`] — distance-ranked candidate lists with deterministic
//!   tie-breaking.
//! * [`index`] — the inverted-postings matching engine: sub-quadratic
//!   exact ranking, bit-identical to brute force.
//! * [`matcher`] — parallel all-pairs and cross-window distance
//!   computation over [`SignatureSet`](comsig_core::SignatureSet)s,
//!   routed through the index.
//! * [`ann`] — the [`SubjectMatcher`](ann::SubjectMatcher) seam and the
//!   LSH-fronted approximate matcher (Section VI): banded-MinHash
//!   candidate generation with exact re-scoring of survivors.
//! * [`roc`] — ROC curves and AUC, in both variants the paper uses:
//!   single-target self-identification (Figures 2–4) and multi-target
//!   ground-truth sets (Figure 5).
//! * [`property_eval`] — the per-window `(μ_p, s_p, μ_u, s_u)` ellipse
//!   summaries of Figure 1.
//! * [`report`] — fixed-width text tables, CSV and JSON rendering of
//!   experiment results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ann;
pub mod index;
pub mod matcher;
pub mod property_eval;
pub mod ranking;
pub mod report;
pub mod roc;
pub mod significance;
pub mod stats;
