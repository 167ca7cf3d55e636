//! Dirty-set signature maintenance over streaming window deltas.
//!
//! The batch path recomputes every subject's signature per window. A
//! [`SignaturePipeline`] instead consumes the [`WindowDelta`] emitted by
//! `comsig_graph::SlidingWindower`, advances the graph incrementally via
//! [`CommGraph::apply_delta`], derives the scheme-specific **dirty set**
//! — the subjects whose signature inputs could have changed — and
//! recomputes *only* those subjects, exactly.
//!
//! # Why the result is bit-identical to a cold rebuild
//!
//! Every implemented scheme computes signatures **per subject
//! independently**: `signature_set` over a subset of subjects produces,
//! for each subject, exactly the value the full batch would. Clean
//! subjects keep their previous signature, which is bit-identical to the
//! cold value by induction: their relevance inputs (adjacency rows,
//! cached sums, in-degrees, transition rows) are bitwise unchanged by the
//! delta, so the cold computation on the new graph would replay the same
//! arithmetic. The [`check_pipeline_equiv`](crate::contract) contract
//! asserts `to_bits` equality against the cold oracle on every advance
//! (debug / `contracts` builds).
//!
//! # Dirty-set derivation per scheme
//!
//! * **TT** — relevance of `v` reads only `v`'s out-row and out-sum:
//!   dirty = sources of changed edges.
//! * **UT** — additionally reads `|I(u)|` of each out-neighbour `u`:
//!   dirty = changed sources ∪ new-graph in-neighbours of destinations
//!   whose in-degree changed (insertions/retractions only; weight-only
//!   updates leave degrees alone, and a source that lost the edge is
//!   already dirty as a changed source).
//! * **RWR^h** — the `h`-step walk from `v` reads rows of nodes within
//!   `h−1` hops, and dangling-reset behaviour is a row property: dirty =
//!   reverse closure of changed rows to depth `h−1` over the new graph.
//!   If a subject's new-graph walk touches only unchanged rows, the old
//!   walk unfolded over the very same rows, so old and new occupancies
//!   are the same computation — new-graph closure alone suffices.
//! * **RWR^∞ / PushRWR** — the steady-state iteration is global (and a
//!   warm start would change the iteration trajectory, breaking
//!   bit-identity), so these fall back to [`DirtySet::All`], a full —
//!   trivially exact — recompute.

use rustc_hash::FxHashSet;

use comsig_graph::{CommGraph, NodeId, ShardPlan, WindowDelta};

use crate::contract;
use crate::scheme::{PushRwr, Rwr, SignatureScheme, TopTalkers, UnexpectedTalkers, WalkDirection};
use crate::signature::{Signature, SignatureSet};

/// The subjects whose signatures a delta may have changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirtySet {
    /// Every subject must be recomputed (global schemes).
    All,
    /// Only these nodes can have changed signatures.
    Nodes(FxHashSet<NodeId>),
}

impl DirtySet {
    /// Whether `v` is dirty under this set.
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        match self {
            DirtySet::All => true,
            DirtySet::Nodes(nodes) => nodes.contains(&v),
        }
    }
}

/// A [`SignatureScheme`] that can bound the effect of a [`WindowDelta`].
///
/// Implementations must guarantee that any subject **not** in the
/// returned [`DirtySet`] has a bit-identical signature on `old` and
/// `new`; the pipeline recomputes dirty subjects with the scheme's own
/// `signature_set` (whose per-subject results are independent of the
/// subject list), so the advance is exact by construction.
pub trait DeltaScheme: SignatureScheme {
    /// The nodes whose signature may differ between `old` and
    /// `new = old.apply_delta(delta)`.
    fn dirty_set(&self, old: &CommGraph, new: &CommGraph, delta: &WindowDelta) -> DirtySet;
}

impl DeltaScheme for TopTalkers {
    fn dirty_set(&self, _old: &CommGraph, _new: &CommGraph, delta: &WindowDelta) -> DirtySet {
        DirtySet::Nodes(delta.changes.iter().map(|c| c.src).collect())
    }
}

impl DeltaScheme for UnexpectedTalkers {
    fn dirty_set(&self, _old: &CommGraph, new: &CommGraph, delta: &WindowDelta) -> DirtySet {
        let mut dirty: FxHashSet<NodeId> = delta.changes.iter().map(|c| c.src).collect();
        let mut degree_changed: FxHashSet<NodeId> = FxHashSet::default();
        for c in &delta.changes {
            if c.is_insertion() || c.is_retraction() {
                degree_changed.insert(c.dst);
            }
        }
        for d in degree_changed {
            for (s, _) in new.in_neighbors(d) {
                dirty.insert(s);
            }
        }
        DirtySet::Nodes(dirty)
    }
}

impl DeltaScheme for Rwr {
    fn dirty_set(&self, _old: &CommGraph, new: &CommGraph, delta: &WindowDelta) -> DirtySet {
        let Some(h) = self.config.hops else {
            // RWR^∞: the fixed point is global, and warm-starting the
            // iteration changes its trajectory (not bit-identical), so
            // advance by full recompute.
            return DirtySet::All;
        };
        let depth = h.saturating_sub(1);
        match self.config.direction {
            WalkDirection::Directed => {
                // A change (s, d) rewrites row s (adjacency, out-sum,
                // danglingness); subjects whose walk can occupy s within
                // h−1 steps are dirty.
                let seeds = delta.changes.iter().map(|c| c.src);
                DirtySet::Nodes(reverse_closure(new, seeds, depth, false))
            }
            WalkDirection::Undirected => {
                // A change (s, d) rewrites the merged undirected rows of
                // both endpoints (adjacency or incident-volume sums).
                let seeds = delta.changes.iter().flat_map(|c| [c.src, c.dst]);
                DirtySet::Nodes(reverse_closure(new, seeds, depth, true))
            }
        }
    }
}

impl DeltaScheme for PushRwr {
    fn dirty_set(&self, _old: &CommGraph, _new: &CommGraph, _delta: &WindowDelta) -> DirtySet {
        // The push frontier is tolerance-driven rather than hop-bounded,
        // so no static closure bounds it; advance by full recompute.
        DirtySet::All
    }
}

/// Nodes that can reach a seed within `depth` hops: BFS from the seeds
/// over reversed edges (plus forward edges when `undirected`, where the
/// walk relation is symmetric). The seeds themselves are included.
fn reverse_closure(
    g: &CommGraph,
    seeds: impl IntoIterator<Item = NodeId>,
    depth: u32,
    undirected: bool,
) -> FxHashSet<NodeId> {
    let mut visited: FxHashSet<NodeId> = seeds.into_iter().collect();
    let mut frontier: Vec<NodeId> = visited.iter().copied().collect();
    // The returned set is order-free, but a sorted seed frontier makes
    // the traversal order (and thus any downstream instrumentation)
    // independent of hash-iteration order.
    frontier.sort_unstable();
    // One frontier buffer reused across depth levels.
    let mut next: Vec<NodeId> = Vec::new();
    for _ in 0..depth {
        if frontier.is_empty() {
            break;
        }
        next.clear();
        for &x in &frontier {
            for (p, _) in g.in_neighbors(x) {
                if visited.insert(p) {
                    next.push(p);
                }
            }
            if undirected {
                for (p, _) in g.out_neighbors(x) {
                    if visited.insert(p) {
                        next.push(p);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    visited
}

/// What one [`SignaturePipeline::advance`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvanceReport {
    /// Aggregated-edge changes in the applied delta.
    pub changed_edges: usize,
    /// The subjects actually recomputed, in maintained subject order —
    /// exactly the set a downstream index must patch.
    pub dirty: Vec<NodeId>,
    /// The signatures the advance replaced (moved out, not cloned),
    /// parallel to `dirty`: each one's previous-window signature.
    pub replaced: Vec<Signature>,
    /// Total subjects maintained by the pipeline.
    pub total_subjects: usize,
    /// Whether the scheme forced a full recompute ([`DirtySet::All`]).
    pub full_recompute: bool,
}

impl AdvanceReport {
    /// Number of subjects recomputed by this advance.
    #[must_use]
    pub fn dirty_subjects(&self) -> usize {
        self.dirty.len()
    }
}

/// Online window-over-window signature maintenance: holds the current
/// window's graph and signature set, and [`advance`](Self::advance)s both
/// incrementally from a [`WindowDelta`].
#[derive(Debug)]
pub struct SignaturePipeline<'a, S: DeltaScheme + ?Sized> {
    scheme: &'a S,
    k: usize,
    graph: CommGraph,
    set: SignatureSet,
    plan: ShardPlan,
    /// Scratch reused across advances: the current delta's dirty
    /// subjects, filtered into maintained subject order.
    dirty_buf: Vec<NodeId>,
}

// Derived `Clone` would demand `S: Clone`; the scheme is only a shared
// borrow, so every instantiation (including `dyn DeltaScheme`) is
// cloneable — forking a pipeline snapshots its window state without
// recomputing signatures.
impl<S: DeltaScheme + ?Sized> Clone for SignaturePipeline<'_, S> {
    fn clone(&self) -> Self {
        SignaturePipeline {
            scheme: self.scheme,
            k: self.k,
            graph: self.graph.clone(),
            set: self.set.clone(),
            plan: self.plan,
            dirty_buf: Vec::new(),
        }
    }
}

impl<'a, S: DeltaScheme + ?Sized> SignaturePipeline<'a, S> {
    /// Seeds the pipeline with an initial window graph (often
    /// [`CommGraph::empty`] before the first advance) and the fixed
    /// subject population, advancing with a machine-sized [`ShardPlan`];
    /// the initial signature set is computed cold.
    #[must_use]
    pub fn new(scheme: &'a S, graph: CommGraph, subjects: &[NodeId], k: usize) -> Self {
        Self::with_plan(scheme, graph, subjects, k, ShardPlan::auto())
    }

    /// [`new`](Self::new) with an explicit shard plan. Every plan yields
    /// bit-identical signatures; the plan only chooses how many worker
    /// threads each advance fans out over.
    #[must_use]
    pub fn with_plan(
        scheme: &'a S,
        graph: CommGraph,
        subjects: &[NodeId],
        k: usize,
        plan: ShardPlan,
    ) -> Self {
        let set = scheme.signature_set_with(&graph, subjects, k, &plan);
        SignaturePipeline {
            scheme,
            k,
            graph,
            set,
            plan,
            dirty_buf: Vec::new(),
        }
    }

    /// Reassembles a pipeline from persisted parts **without** the cold
    /// signature recompute [`with_plan`](Self::with_plan) performs: the
    /// caller supplies the window graph and the signature set exactly as
    /// they were when the pipeline was captured. The restored pipeline
    /// is bit-identical to the captured one — callers are expected to
    /// verify this against a digest recorded at capture time (the
    /// `comsig serve` recovery path does).
    ///
    /// # Errors
    /// Returns an error if a subject or signature entry lies outside the
    /// graph's node space; deeper mismatches (a set that is not the
    /// scheme's output for this graph) are the caller's digest check.
    pub fn resume(
        scheme: &'a S,
        graph: CommGraph,
        set: SignatureSet,
        k: usize,
        plan: ShardPlan,
    ) -> Result<Self, String> {
        if let Some(v) = set.node_outside(graph.num_nodes()) {
            return Err(format!(
                "pipeline resume: node {v} outside the {}-node graph",
                graph.num_nodes()
            ));
        }
        Ok(SignaturePipeline {
            scheme,
            k,
            graph,
            set,
            plan,
            dirty_buf: Vec::new(),
        })
    }

    /// The signature length `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The shard plan advances run under.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The current window's graph.
    #[must_use]
    pub fn graph(&self) -> &CommGraph {
        &self.graph
    }

    /// The current window's signatures (always equal to a cold
    /// `signature_set` on [`graph`](Self::graph)).
    #[must_use]
    pub fn signatures(&self) -> &SignatureSet {
        &self.set
    }

    /// Advances to the next window: applies the delta to the graph,
    /// derives the scheme's dirty set, and recomputes exactly the dirty
    /// subjects — shard-parallel per the pipeline's [`ShardPlan`].
    ///
    /// The dirty subjects are filtered into maintained subject order
    /// (reusing a scratch buffer across windows), partitioned into
    /// contiguous shards, and each shard recomputes its slice with the
    /// scheme's chunk kernel on a private workspace. The merge walks the
    /// shards in order, so replacements land in exactly the serial
    /// path's sequence and the resulting set is bit-identical at every
    /// thread count. Under debug / `contracts` builds the result is
    /// additionally asserted bit-identical to a cold rebuild.
    pub fn advance(&mut self, delta: &WindowDelta) -> AdvanceReport {
        let new_graph = self.graph.apply_delta(delta);
        let dirty = self.scheme.dirty_set(&self.graph, &new_graph, delta);
        let total = self.set.len();
        let full_recompute = matches!(dirty, DirtySet::All);
        self.dirty_buf.clear();
        match &dirty {
            DirtySet::All => self.dirty_buf.extend_from_slice(self.set.subjects()),
            // Preserve subject order: filter the maintained subject list
            // rather than iterating the hash set.
            DirtySet::Nodes(nodes) => self.dirty_buf.extend(
                self.set
                    .subjects()
                    .iter()
                    .copied()
                    .filter(|v| nodes.contains(v)),
            ),
        }
        self.scheme.prepare(&new_graph);
        let ranges = self.plan.ranges(self.dirty_buf.len());
        let dirty_buf = &self.dirty_buf;
        let (scheme, k, g) = (self.scheme, self.k, &new_graph);
        let shard_sigs =
            rayon::scope_chunks(&ranges, |_, r| scheme.signature_chunk(g, &dirty_buf[r], k));
        let mut replaced = Vec::with_capacity(dirty_buf.len());
        for (range, sigs) in ranges.iter().zip(shard_sigs) {
            for (&v, sig) in dirty_buf[range.clone()].iter().zip(sigs) {
                replaced.push(self.set.replace(v, sig));
            }
        }
        let report = AdvanceReport {
            changed_edges: delta.len(),
            dirty: self.dirty_buf.clone(),
            replaced,
            total_subjects: total,
            full_recompute,
        };
        contract::check_pipeline_equiv(self.scheme, &new_graph, self.k, &self.set);
        self.graph = new_graph;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_graph::{EdgeEvent, GraphBuilder, SlidingWindower};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ev(time: u64, src: usize, dst: usize, w: f64) -> EdgeEvent {
        EdgeEvent {
            time,
            src: n(src),
            dst: n(dst),
            weight: w,
        }
    }

    /// Three windows over 8 nodes with churn on every advance.
    fn stream() -> Vec<EdgeEvent> {
        vec![
            ev(0, 0, 1, 2.0),
            ev(1, 0, 2, 1.0),
            ev(2, 1, 2, 4.0),
            ev(3, 3, 4, 1.5),
            ev(4, 4, 5, 0.5),
            ev(11, 0, 1, 3.0),
            ev(12, 1, 2, 4.0),
            ev(13, 2, 6, 1.0),
            ev(14, 5, 4, 2.0),
            ev(21, 0, 7, 1.0),
            ev(22, 6, 2, 2.5),
            ev(23, 3, 4, 1.5),
        ]
    }

    fn cold_window(events: &[EdgeEvent], s: u64, e: u64, num_nodes: usize) -> CommGraph {
        let mut b = GraphBuilder::new();
        for event in events {
            if event.time >= s && event.time < e {
                b.add_event(event.src, event.dst, event.weight);
            }
        }
        b.build(num_nodes)
    }

    fn assert_set_bits_equal(got: &SignatureSet, want: &SignatureSet) {
        assert_eq!(got.len(), want.len());
        for ((gv, gs), (wv, ws)) in got.iter().zip(want.iter()) {
            assert_eq!(gv, wv);
            assert_eq!(gs.len(), ws.len(), "subject {gv}");
            for ((gu, gw), (wu, ww)) in gs.iter().zip(ws.iter()) {
                assert_eq!(gu, wu, "subject {gv}");
                assert_eq!(gw.to_bits(), ww.to_bits(), "subject {gv} node {gu}");
            }
        }
    }

    fn check_scheme<S: DeltaScheme>(scheme: &S) {
        let events = stream();
        let subjects: Vec<NodeId> = (0..8).map(n).collect();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut pipe = SignaturePipeline::new(scheme, CommGraph::empty(8), &subjects, 3);
        for _ in 0..3 {
            let delta = w.advance();
            let report = pipe.advance(&delta);
            assert_eq!(report.total_subjects, 8);
            let cold = cold_window(&events, delta.start, delta.end, 8);
            let want = scheme.signature_set(&cold, &subjects, 3);
            assert_set_bits_equal(pipe.signatures(), &want);
        }
    }

    #[test]
    fn tt_advance_bit_identical() {
        check_scheme(&TopTalkers);
    }

    #[test]
    fn ut_advance_bit_identical() {
        check_scheme(&UnexpectedTalkers::new());
    }

    #[test]
    fn rwr_truncated_advance_bit_identical() {
        check_scheme(&Rwr::truncated(0.1, 3));
        check_scheme(&Rwr::truncated(0.1, 3).undirected());
    }

    #[test]
    fn rwr_full_advance_falls_back_to_full_recompute() {
        let scheme = Rwr::full(0.1);
        let events = stream();
        let subjects: Vec<NodeId> = (0..8).map(n).collect();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut pipe = SignaturePipeline::new(&scheme, CommGraph::empty(8), &subjects, 3);
        let delta = w.advance();
        let report = pipe.advance(&delta);
        assert!(report.full_recompute);
        assert_eq!(report.dirty_subjects(), 8);
    }

    #[test]
    fn tt_dirty_set_is_sources_only() {
        let events = stream();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let g0 = CommGraph::empty(8);
        let delta = w.advance();
        let g1 = g0.apply_delta(&delta);
        let dirty = TopTalkers.dirty_set(&g0, &g1, &delta);
        let DirtySet::Nodes(nodes) = dirty else {
            panic!("TT must produce a bounded dirty set");
        };
        let expected: FxHashSet<NodeId> = delta.changes.iter().map(|c| c.src).collect();
        assert_eq!(nodes, expected);
        // Node 7 never speaks: clean.
        assert!(!nodes.contains(&n(7)));
    }

    #[test]
    fn ut_dirty_set_covers_in_degree_neighbours() {
        // Window 0: 0->2, 1->2. Window 1 adds 3->2 — an in-degree change
        // at node 2 that dirties subjects 0 and 1 even though their own
        // out-rows are untouched.
        let events = vec![
            ev(0, 0, 2, 1.0),
            ev(1, 1, 2, 1.0),
            ev(11, 0, 2, 1.0),
            ev(12, 1, 2, 1.0),
            ev(13, 3, 2, 1.0),
        ];
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let g0 = CommGraph::empty(4).apply_delta(&w.advance());
        let delta = w.advance();
        let g1 = g0.apply_delta(&delta);
        let dirty = UnexpectedTalkers::new().dirty_set(&g0, &g1, &delta);
        assert!(dirty.contains(n(0)) && dirty.contains(n(1)) && dirty.contains(n(3)));
    }

    #[test]
    fn pipeline_handles_window_that_empties() {
        let events = vec![ev(0, 0, 1, 1.0), ev(1, 1, 2, 2.0)];
        let subjects: Vec<NodeId> = (0..3).map(n).collect();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let scheme = Rwr::truncated(0.1, 3);
        let mut pipe = SignaturePipeline::new(&scheme, CommGraph::empty(3), &subjects, 3);
        let _ = pipe.advance(&w.advance());
        assert!(pipe.graph().num_edges() > 0);
        // Next window has no events: everything retracts.
        let delta = w.advance();
        let report = pipe.advance(&delta);
        assert_eq!(pipe.graph().num_edges(), 0);
        assert!(report.dirty_subjects() > 0);
        for (_, sig) in pipe.signatures().iter() {
            assert!(sig.is_empty());
        }
    }
}
