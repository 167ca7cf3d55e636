//! `comsig serve`: a crash-safe signature service.
//!
//! The daemon ingests edge events continuously through the streaming
//! pipeline ([`SlidingWindower`](comsig_graph::SlidingWindower) →
//! [`SignaturePipeline`](comsig_core::pipeline::SignaturePipeline) →
//! [`PostingsIndex`](comsig_eval::index::PostingsIndex)) and answers
//! online queries — signature lookup, top-ℓ matching, masquerade and
//! anomaly verdicts — over a line-delimited JSON protocol on a loopback
//! TCP socket. No external crates: the JSON codec is the vendored
//! stand-in, the wire protocol is hand-rolled.
//!
//! Durability is a **snapshot + write-ahead log** pair built on
//! [`comsig_core::persist`]:
//!
//! * every accepted event batch and every window advance is appended to
//!   the WAL (length + FNV-1a digest framed) and fsynced **before** the
//!   daemon acknowledges it;
//! * a snapshot atomically captures the durable in-memory state
//!   (windower, tier state, both signature buffers, counters) and
//!   rotates the WAL to a fresh epoch. The matcher is not stored: it is
//!   a function of the signatures, and recovery rebuilds it.
//!
//! Recovery loads the snapshot (or the genesis state), replays the WAL
//! tail — truncating a torn tail at the last valid record — and
//! verifies, per logged advance, that deterministic re-execution
//! reproduces both the logged [`WindowDelta`](comsig_graph::WindowDelta)
//! and the logged post-apply state digest. A kill-and-resume run is
//! therefore **bit-identical** to an uninterrupted one, with
//! [`LiveState::state_digest`](state::LiveState::state_digest) as the
//! oracle; divergence surfaces as a typed error, never as silent drift.
//!
//! Module map: [`config`] (configuration + error taxonomy), [`state`]
//! (the live in-memory state and its digest), [`snapshot`] /[`wal`]
//! (the two durable artifact codecs), [`durable`] (the logged state
//! machine: ingest/advance/snapshot/recover), [`protocol`] (JSONL
//! request dispatch), [`server`] (the TCP accept loop) and [`client`]
//! (a blocking call helper for tests and `comsig call`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod durable;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod state;
pub mod wal;

pub use client::call;
pub use config::{ServeConfig, ServeError};
pub use durable::{DurableState, Recovery, RecoverySource};
pub use protocol::Gate;
pub use server::{run_server, ServerOpts};
pub use state::GenesisSpace;
