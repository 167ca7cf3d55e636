//! # comsig-core
//!
//! The signature framework of Cormode, Korn, Muthukrishnan & Wu,
//! *On Signatures for Communication Graphs* (ICDE 2008).
//!
//! A **graph signature** `σ_t(v)` (Definition 1) is the top-`k` set of
//! `(node, weight)` pairs under a *relevancy function* `w_vu` computed from
//! the communication graph `G_t`. Different relevancy functions give
//! different **signature schemes**:
//!
//! | Scheme | Relevancy `w_ij` | Characteristics exploited |
//! |---|---|---|
//! | [`TopTalkers`](scheme::TopTalkers) | `C[i,j] / Σ_v C[i,v]` | locality, engagement |
//! | [`UnexpectedTalkers`](scheme::UnexpectedTalkers) | `C[i,j] / \|I(j)\|` | novelty, locality |
//! | [`Rwr`](scheme::Rwr) (full) | steady-state random walk with resets | transitivity, engagement |
//! | [`Rwr`](scheme::Rwr) (`h` hops) | `h`-step truncated walk | locality, transitivity |
//!
//! (Table III of the paper.)
//!
//! Signatures are compared with bounded **distance functions**
//! `Dist(σ_1, σ_2) ∈ [0, 1]` ([`distance`]), from which the three
//! fundamental signature **properties** ([`properties`]) are defined:
//!
//! * persistence `= 1 − Dist(σ_t(v), σ_{t+1}(v))`
//! * uniqueness `= Dist(σ_t(v), σ_t(u))`, `u ≠ v`
//! * robustness `= 1 − Dist(σ_t(v), σ̂_t(v))` against a perturbed graph.
//!
//! ## Example
//!
//! ```
//! use comsig_core::distance::{Jaccard, SignatureDistance};
//! use comsig_core::scheme::{SignatureScheme, TopTalkers};
//! use comsig_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_event(NodeId::new(0), NodeId::new(1), 10.0);
//! b.add_event(NodeId::new(0), NodeId::new(2), 1.0);
//! b.add_event(NodeId::new(3), NodeId::new(1), 9.0);
//! let g = b.build(4);
//!
//! let tt = TopTalkers;
//! let s0 = tt.signature(&g, NodeId::new(0), 2);
//! let s3 = tt.signature(&g, NodeId::new(3), 2);
//! let d = Jaccard.distance(&s0, &s3);
//! assert!(d > 0.0 && d <= 1.0); // they share node 1 but not node 2
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contract;
pub mod distance;
pub mod engine;
pub mod persist;
pub mod pipeline;
pub mod properties;
pub mod scheme;
mod signature;
mod sparse;
pub mod tier;

pub use pipeline::{AdvanceReport, DeltaScheme, DirtySet, SignaturePipeline};
pub use signature::{Signature, SignatureSet};
pub use sparse::SparseVec;
pub use tier::{SignatureTier, TierMemory};
