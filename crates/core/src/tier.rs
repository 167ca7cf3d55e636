//! The tier seam: exact and approximate signature maintenance behind
//! one interface.
//!
//! A [`SignatureTier`] consumes [`WindowDelta`]s and maintains one
//! signature per subject for the current window. Two implementations
//! exist:
//!
//! * the **exact tier** — [`SignaturePipeline`], which applies the delta
//!   to a materialised [`CommGraph`](comsig_graph::CommGraph) and
//!   recomputes exactly the dirty subjects, bit-identically to a cold
//!   rebuild;
//! * the **sketch tier** — `comsig_sketch::tier::SketchTier`, which
//!   folds the delta into bounded per-node sketches (Count-Min heavy
//!   hitters, distinct-count tables) and never builds the graph, trading
//!   documented one-sided error bands for `Θ(1)` state per node.
//!
//! Downstream drivers (the streaming detectors, `comsig stream`,
//! `comsig serve`) hold the tier as a `Box<dyn SignatureTier>`, so
//! "exact" vs "sketch" is a per-run mode choice, not a separate code
//! path. Each tier also owns its durable codec
//! ([`SignatureTier::encode_state`]), so snapshots and state digests
//! never branch on the tier. The exact tier's bit-identity contracts are
//! unchanged; the sketch tier reports its resident state through
//! [`SignatureTier::memory`] so the accuracy/memory tradeoff is
//! measured, never implicit.

use comsig_graph::{CommGraph, WindowDelta};

use crate::persist::{self, Enc};
use crate::pipeline::{AdvanceReport, DeltaScheme, SignaturePipeline};
use crate::signature::SignatureSet;

/// Resident-state accounting of one tier, the memory axis of the
/// exact-vs-sketch tradeoff (`BENCH_sketch.json` records it per scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierMemory {
    /// Logical state entries held: graph edge slots for the exact tier,
    /// sketch counters + tracked candidates for the sketch tier.
    pub state_entries: usize,
    /// Approximate resident bytes of that state (excluding the
    /// signature set itself, which both tiers hold identically).
    pub state_bytes: usize,
}

/// One implementation of window-over-window signature maintenance.
///
/// The contract every implementation must keep: after
/// [`advance_window`](Self::advance_window), [`signatures`](Self::signatures)
/// covers exactly the fixed subject population it was seeded with, and
/// the returned [`AdvanceReport::dirty`] lists (in maintained subject
/// order) every subject whose signature may differ from the previous
/// window — a downstream index patches exactly those. `Send`, so a
/// boxed tier can live inside the serve daemon's shared state.
pub trait SignatureTier: Send {
    /// Short stable name of the tier (`"exact"`, `"sketch"`), used in
    /// CLI output and persisted config stamps.
    fn tier_name(&self) -> &'static str;

    /// Consumes the next window's delta and updates the maintained
    /// signatures.
    fn advance_window(&mut self, delta: &WindowDelta) -> AdvanceReport;

    /// The current window's signatures, one per subject.
    fn signatures(&self) -> &SignatureSet;

    /// Resident state held by the tier to support the next advance.
    fn memory(&self) -> TierMemory;

    /// Poisoned or phantom changes the tier dropped instead of applying
    /// (always zero on the exact tier).
    fn dropped_changes(&self) -> u64 {
        0
    }

    /// The materialised window graph, for a tier that holds one (the
    /// exact tier); `None` for a tier that never builds it.
    fn window_graph(&self) -> Option<&CommGraph> {
        None
    }

    /// Appends the tier's durable state, current signatures included, to
    /// a snapshot body or state digest. Deterministic: equal states
    /// encode to equal bytes. State that is a function of the window
    /// (the exact tier's graph edges) is left to the windower's encoding.
    fn encode_state(&self, enc: &mut Enc);
}

impl<S: DeltaScheme + ?Sized> SignatureTier for SignaturePipeline<'_, S> {
    fn tier_name(&self) -> &'static str {
        "exact"
    }

    fn advance_window(&mut self, delta: &WindowDelta) -> AdvanceReport {
        self.advance(delta)
    }

    fn signatures(&self) -> &SignatureSet {
        SignaturePipeline::signatures(self)
    }

    fn memory(&self) -> TierMemory {
        let g = self.graph();
        // The CSR stores each aggregated edge twice (out-row and
        // in-row): a u32 endpoint + f64 weight per slot, plus two
        // offset arrays over the node space.
        let edge_slots = 2 * g.num_edges();
        let bytes = edge_slots * (4 + 8) + 2 * (g.num_nodes() + 1) * 8;
        TierMemory {
            state_entries: edge_slots,
            state_bytes: bytes,
        }
    }

    fn window_graph(&self) -> Option<&CommGraph> {
        Some(self.graph())
    }

    /// The window graph's header (its node count), then the current
    /// signatures. The graph's edges are the windower's aggregates, which
    /// a snapshot or digest already carries.
    fn encode_state(&self, enc: &mut Enc) {
        persist::encode_graph(enc, self.graph());
        persist::encode_signature_set(enc, SignaturePipeline::signatures(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::TopTalkers;
    use comsig_graph::{CommGraph, EdgeEvent, NodeId, SlidingWindower};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn exact_pipeline_drives_through_the_tier_seam() {
        let scheme = TopTalkers;
        let subjects: Vec<NodeId> = (0..3).map(n).collect();
        let mut w = SlidingWindower::tumbling(0, 10);
        for t in 0..20u64 {
            w.push(EdgeEvent {
                time: t,
                src: n((t % 3) as usize),
                dst: n(3 + (t % 4) as usize),
                weight: 1.0 + (t % 5) as f64,
            });
        }
        let mut direct = SignaturePipeline::new(&scheme, CommGraph::empty(8), &subjects, 4);
        let mut seamed = direct.clone();
        let tier: &mut dyn SignatureTier = &mut seamed;
        assert_eq!(tier.tier_name(), "exact");
        assert_eq!(tier.window_graph().map(CommGraph::num_nodes), Some(8));
        assert_eq!(tier.dropped_changes(), 0);
        for _ in 0..2 {
            let delta = w.advance();
            let a = direct.advance(&delta);
            let b = tier.advance_window(&delta);
            assert_eq!(a, b);
        }
        for ((va, sa), (vb, sb)) in direct.signatures().iter().zip(tier.signatures().iter()) {
            assert_eq!(va, vb);
            assert_eq!(sa, sb);
        }
        let mem = tier.memory();
        assert!(mem.state_entries > 0 && mem.state_bytes > mem.state_entries);
    }
}
