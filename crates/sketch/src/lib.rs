//! # comsig-sketch
//!
//! The scalability substrate of Section VI ("Extensions") — everything
//! needed to build and compare signatures when the communication graph is
//! too large to store exactly:
//!
//! * **Scalable signature computation** (semi-streaming model): a
//!   [Count-Min sketch](cm::CountMinSketch) per node finds its heaviest
//!   outgoing edges (→ approximate Top Talkers), and an
//!   [FM sketch](fm::FmSketch) per node estimates its in-degree `|I(j)|`
//!   (→ approximate Unexpected Talkers). The [`stream`] module wires
//!   these into one-pass signature extraction.
//! * **Scalable signature comparison**: [`minhash`] estimates the Jaccard
//!   distance between signatures, and [`lsh`] indexes MinHash signatures
//!   in banded hash tables for sub-linear approximate nearest-neighbour
//!   search — the paper's pointer to Indyk–Motwani LSH.
//!
//! All structures are seeded and deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cm;
pub mod distinct;
pub mod fm;
pub mod hash;
pub mod lsh;
pub mod minhash;
pub mod stream;
pub mod tier;
