//! # comsig-graph
//!
//! Communication-graph substrate for the `comsig` workspace.
//!
//! A *communication graph* `G_t = (V, E_t)` records aggregated, weighted,
//! directed communication between labelled nodes over a time window `t`
//! (Section II of Cormode, Korn, Muthukrishnan & Wu, *On Signatures for
//! Communication Graphs*, ICDE 2008). The weight `C[v, u]` of an edge
//! reflects the volume of communication from `v` to `u` — for example the
//! number of TCP sessions, calls or queries observed in the window.
//!
//! This crate provides:
//!
//! * [`NodeId`] / [`Interner`] — compact node identifiers and the mapping
//!   between external labels (IP addresses, user names, …) and internal ids.
//! * [`GraphBuilder`] — accumulates individual communication events or
//!   pre-aggregated edges into a weighted digraph.
//! * [`CommGraph`] — an immutable CSR (compressed sparse row) digraph with
//!   both out- and in-adjacency, supporting the degree/weight queries that
//!   signature schemes need (`C[i,j]`, `|I(j)|`, `|O(i)|`, row sums).
//! * [`Partition`] — optional bipartite node classes (e.g. local hosts vs
//!   external hosts, users vs tables).
//! * [`window`] — slicing a timestamped event stream into a
//!   [`GraphSequence`](window::GraphSequence) of per-window graphs over a
//!   shared node space.
//! * [`SlidingWindower`] / [`WindowDelta`] — the streaming counterpart:
//!   incremental window advances that emit aggregated-edge deltas, applied
//!   by [`CommGraph::apply_delta`] bit-identically to a cold rebuild.
//! * [`stats`] — degree/weight distributions and tail diagnostics used to
//!   check that synthetic workloads have the characteristics the paper
//!   relies on (Section III).
//! * [`perturb`] — the paper's robustness perturbation model: insert
//!   `α·|E|` edges (endpoints sampled by degree, weights from the empirical
//!   weight distribution) and apply `β·|E|` unit-weight decrements
//!   (Section IV-C, "Signature robustness").
//! * [`ShardPlan`] — explicit thread-count configuration that carves an
//!   ordered work list into contiguous per-thread shards, the scheduling
//!   substrate of the bit-identical sharded streaming advance.
//! * [`io`] — plain-text edge-list input/output in a flow-record-like
//!   format, with configurable fault handling ([`IngestPolicy`]:
//!   strict / quarantine / repair) and per-run [`IngestReport`]s.
//!
//! ## Example
//!
//! ```
//! use comsig_graph::{GraphBuilder, Interner};
//!
//! let mut interner = Interner::new();
//! let a = interner.intern("10.0.0.1");
//! let b = interner.intern("search.example.com");
//! let c = interner.intern("mail.example.com");
//!
//! let mut builder = GraphBuilder::new();
//! builder.add_event(a, b, 3.0); // three sessions a -> b
//! builder.add_event(a, c, 1.0);
//! builder.add_event(a, b, 2.0); // aggregated with the first event
//!
//! let g = builder.build(interner.len());
//! assert_eq!(g.edge_weight(a, b), Some(5.0));
//! assert_eq!(g.out_degree(a), 2);
//! assert_eq!(g.in_degree(b), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod delta;
mod edge;
mod error;
mod fenwick;
mod graph;
mod node;
mod shard;

pub mod bipartite;
pub mod io;
pub mod perturb;
pub mod stats;
pub mod window;

pub use builder::GraphBuilder;
pub use delta::{Aggregate, EdgeChange, SlidingWindower, TimedEvent, WindowDelta, WindowerState};
pub use edge::{Edge, EdgeEvent, Weight};
pub use error::GraphError;
pub use graph::{CommGraph, NeighborIter};
pub use io::{IngestPolicy, IngestReport};
pub use node::{Interner, NodeId};
pub use shard::ShardPlan;

pub use bipartite::{NodeClass, Partition};
