//! Online window-over-window detectors over the signature tier seam.
//!
//! The batch detectors ([`masquerade`](crate::masquerade),
//! [`anomaly`](crate::anomaly)) recompute every signature and rebuild
//! the matching index for each pair of windows. [`TieredMasquerade`] and
//! [`TieredAnomaly`] instead drive a boxed [`SignatureTier`] — the exact
//! `SignaturePipeline` or the bounded-memory
//! [`SketchTier`](comsig_sketch::tier::SketchTier) — and patch only the
//! dirty subjects per [`WindowDelta`] into a maintained boxed
//! [`SubjectMatcher`].
//!
//! Over the exact pipeline and a `PostingsIndex`, signatures, index and
//! detector outputs are **bit-identical** to running the batch detector
//! on cold rebuilds of the same windows (asserted by the tests below
//! and, per advance, by the `check_pipeline_equiv` contract). Over the
//! sketch tier and an LSH-fronted `AnnIndex`, they trade documented
//! one-sided error bands for bounded state. The detectors never ask
//! which pair they hold: the caller picks it once, at construction.

use comsig_core::distance::{BatchDistance, SignatureDistance};
use comsig_core::pipeline::AdvanceReport;
use comsig_core::{Signature, SignatureSet, SignatureTier, TierMemory};
use comsig_eval::ann::SubjectMatcher;
use comsig_eval::index::MatchWorkspace;
use comsig_eval::ranking::Ranking;
use comsig_graph::{ShardPlan, WindowDelta};

use crate::anomaly::{anomaly_scores_from_sets, AnomalyScore};
use crate::masquerade::{run_algorithm1_with, Detection, DetectorConfig};

/// The streaming label-masquerading detector (Algorithm 1, online): a
/// [`SignatureTier`] maintaining the window's signatures and a
/// [`SubjectMatcher`] ranking them. Each [`advance`](Self::advance)
/// compares the previous window's signatures against the new window's,
/// exactly as the batch detector would with `(G_t, G_{t+1})`.
pub struct TieredMasquerade<'a> {
    tier: Box<dyn SignatureTier + 'a>,
    matcher: Box<dyn SubjectMatcher>,
    cfg: DetectorConfig,
    plan: ShardPlan,
    /// The previous window's signatures, double-buffered: after each
    /// advance only the dirty subjects are patched in, instead of
    /// cloning the full set every window.
    prev: SignatureSet,
}

impl<'a> TieredMasquerade<'a> {
    /// Assembles a detector from a seeded (or resumed) tier, a matcher
    /// over the tier's current signatures, and the previous window's
    /// signatures — the tier's current ones on a fresh start.
    ///
    /// # Errors
    /// Returns an error when the parts are inconsistent: `prev` covers a
    /// different subject population than the tier, or the matcher's
    /// candidates diverge from the tier's signatures. Both are checked
    /// because resume assembles the parts from untrusted snapshot bytes.
    pub fn from_parts(
        tier: Box<dyn SignatureTier + 'a>,
        matcher: Box<dyn SubjectMatcher>,
        cfg: DetectorConfig,
        plan: ShardPlan,
        prev: SignatureSet,
    ) -> Result<Self, String> {
        let current = tier.signatures();
        if prev.subjects() != current.subjects() {
            return Err("detector resume: prev/current subject lists differ".into());
        }
        let candidates = matcher.candidate_set();
        if candidates.subjects() != current.subjects() {
            return Err("detector resume: index candidates diverge from the signature set".into());
        }
        if candidates
            .iter()
            .zip(current.iter())
            .any(|((_, a), (_, b))| a != b)
        {
            return Err("detector resume: index candidate signatures diverge from the set".into());
        }
        Ok(TieredMasquerade {
            tier,
            matcher,
            cfg,
            plan,
            prev,
        })
    }

    /// The detector configuration.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The signature tier driving the detector.
    #[must_use]
    pub fn tier(&self) -> &dyn SignatureTier {
        self.tier.as_ref()
    }

    /// Gives up the matcher and previous-window buffer, keeping only the
    /// tier — e.g. to drive a [`TieredAnomaly`] over it.
    #[must_use]
    pub fn into_tier(self) -> Box<dyn SignatureTier + 'a> {
        self.tier
    }

    /// The current window's signatures.
    #[must_use]
    pub fn signatures(&self) -> &SignatureSet {
        self.tier.signatures()
    }

    /// The previous window's signatures (the double buffer's back side).
    #[must_use]
    pub fn prev_signatures(&self) -> &SignatureSet {
        &self.prev
    }

    /// The maintained matcher over the current signatures.
    #[must_use]
    pub fn matcher(&self) -> &dyn SubjectMatcher {
        self.matcher.as_ref()
    }

    /// The tier's resident-state accounting.
    #[must_use]
    pub fn tier_memory(&self) -> TierMemory {
        self.tier.memory()
    }

    /// Ranks `sig` against the maintained candidates, keeping the best
    /// `top`: exact through a postings index, or with the LSH front's
    /// one-sided error (missed candidates at distance 1.0).
    #[must_use]
    pub fn rank_top_l(&self, dist: &dyn BatchDistance, sig: &Signature, top: usize) -> Ranking {
        let mut entries = Vec::with_capacity(top.min(self.matcher.candidate_set().len()));
        self.matcher
            .rank_top_l_into(dist, sig, top, &mut MatchWorkspace::new(), &mut entries);
        Ranking::from_sorted(entries)
    }

    /// Consumes the next window's delta and runs Algorithm 1 between the
    /// previous and the new window. Returns the detection plus the
    /// tier's advance report.
    pub fn advance(&mut self, dist: &dyn BatchDistance, delta: &WindowDelta) -> StreamDetection {
        let (detection, _) = self.advance_inner(dist, delta, false);
        detection
    }

    /// [`advance`](Self::advance) that additionally computes the
    /// per-subject anomaly scores for the same window pair **before**
    /// rolling the double buffer, so one maintained detector serves both
    /// verdicts (the `comsig serve` query plane). Scores are
    /// bit-identical to [`TieredAnomaly::advance`] over the same tier
    /// and stream.
    pub fn advance_with_anomaly(
        &mut self,
        dist: &dyn BatchDistance,
        delta: &WindowDelta,
    ) -> (StreamDetection, Vec<AnomalyScore>) {
        let (detection, scores) = self.advance_inner(dist, delta, true);
        (detection, scores.unwrap_or_default())
    }

    fn advance_inner(
        &mut self,
        dist: &dyn BatchDistance,
        delta: &WindowDelta,
        with_anomaly: bool,
    ) -> (StreamDetection, Option<Vec<AnomalyScore>>) {
        let report = self.tier.advance_window(delta);
        let new_sigs = self.tier.signatures();
        // The tier maintains every subject it reports dirty; a miss
        // would mean the maintained set drifted, and skipping the
        // subject degrades the window instead of killing the stream.
        self.matcher.patch(
            report
                .dirty
                .iter()
                .filter_map(|&v| new_sigs.get(v).map(|sig| (v, sig.clone())))
                .collect(),
            &self.plan,
        );
        let detection = run_algorithm1_with(
            dist,
            &self.prev,
            self.matcher.as_ref(),
            &self.cfg,
            &self.plan,
        );
        let scores = with_anomaly.then(|| anomaly_scores_from_sets(dist, &self.prev, new_sigs));
        // Roll the double buffer forward: only the dirty subjects differ
        // between the windows.
        for &v in &report.dirty {
            if let Some(sig) = new_sigs.get(v) {
                let _ = self.prev.replace(v, sig.clone());
            }
        }
        (StreamDetection { detection, report }, scores)
    }
}

/// One streaming masquerade step: the Algorithm-1 output for the window
/// pair plus what the tier did to produce it.
#[derive(Debug, Clone)]
pub struct StreamDetection {
    /// Algorithm 1's verdict for (previous window, new window).
    pub detection: Detection,
    /// The tier advance that produced the new window.
    pub report: AdvanceReport,
}

/// The streaming anomaly detector: scores every subject's signature
/// change across consecutive windows, with signatures maintained
/// incrementally by any [`SignatureTier`].
pub struct TieredAnomaly<'a> {
    tier: Box<dyn SignatureTier + 'a>,
    /// Previous window's signatures, patched per advance from the dirty
    /// list (same double-buffer discipline as [`TieredMasquerade`]).
    prev: SignatureSet,
}

impl<'a> TieredAnomaly<'a> {
    /// Wraps an already-seeded tier; the previous-window buffer starts
    /// at the tier's current signatures.
    #[must_use]
    pub fn from_tier(tier: Box<dyn SignatureTier + 'a>) -> Self {
        let prev = tier.signatures().clone();
        TieredAnomaly { tier, prev }
    }

    /// The signature tier driving the detector.
    #[must_use]
    pub fn tier(&self) -> &dyn SignatureTier {
        self.tier.as_ref()
    }

    /// The current window's signatures.
    #[must_use]
    pub fn signatures(&self) -> &SignatureSet {
        self.tier.signatures()
    }

    /// The tier's resident-state accounting.
    #[must_use]
    pub fn tier_memory(&self) -> TierMemory {
        self.tier.memory()
    }

    /// Consumes the next window's delta and returns the per-subject
    /// anomaly scores between the previous and the new window (sorted
    /// most-anomalous first), plus the tier's advance report.
    pub fn advance(
        &mut self,
        dist: &dyn SignatureDistance,
        delta: &WindowDelta,
    ) -> (Vec<AnomalyScore>, AdvanceReport) {
        let report = self.tier.advance_window(delta);
        let new_sigs = self.tier.signatures();
        let scores = anomaly_scores_from_sets(dist, &self.prev, new_sigs);
        // Skip any dirty subject the maintained set no longer carries
        // rather than panicking mid-stream (never hit in practice).
        for &v in &report.dirty {
            if let Some(sig) = new_sigs.get(v) {
                let _ = self.prev.replace(v, sig.clone());
            }
        }
        (scores, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::persist::{self, Dec, Enc, Fnv};
    use comsig_core::pipeline::{DeltaScheme, SignaturePipeline};
    use comsig_core::scheme::{Rwr, SignatureScheme, TopTalkers};
    use comsig_eval::ann::{AnnConfig, AnnIndex};
    use comsig_eval::index::PostingsIndex;
    use comsig_graph::{CommGraph, Edge, EdgeEvent, GraphBuilder, NodeId, SlidingWindower};
    use comsig_sketch::stream::StreamConfig;
    use comsig_sketch::tier::{SketchScheme, SketchTier};

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

    const NUM_NODES: usize = 12;

    /// Four windows: hosts 0-3 stable, host 4 churns, window 2 swaps the
    /// behaviour of hosts 0 and 1 (a masquerade-shaped move).
    fn stream() -> Vec<EdgeEvent> {
        let mut events = Vec::new();
        for w in 0..4u64 {
            let t = w * 10;
            if w == 2 {
                // Hosts 0 and 1 swap destination sets.
                events.push(ev(t, 0, 8, 3.0));
                events.push(ev(t + 1, 0, 9, 1.0));
                events.push(ev(t + 2, 1, 6, 3.0));
                events.push(ev(t + 3, 1, 7, 1.0));
            } else {
                events.push(ev(t, 0, 6, 3.0));
                events.push(ev(t + 1, 0, 7, 1.0));
                events.push(ev(t + 2, 1, 8, 3.0));
                events.push(ev(t + 3, 1, 9, 1.0));
            }
            events.push(ev(t + 4, 2, 10, 2.0));
            events.push(ev(t + 5, 3, 11, 2.0));
            events.push(ev(t + 6, 4, (w as usize % 3) + 6, 1.0));
        }
        events
    }

    /// The exact pair: a pipeline seeded on an empty window plus a
    /// postings index over its signatures.
    fn exact<'s>(
        scheme: &'s dyn DeltaScheme,
        subjects: &[NodeId],
        cfg: DetectorConfig,
        plan: ShardPlan,
    ) -> TieredMasquerade<'s> {
        let pipeline = SignaturePipeline::with_plan(
            scheme,
            CommGraph::empty(NUM_NODES),
            subjects,
            cfg.k,
            plan,
        );
        let index = PostingsIndex::build_owned(pipeline.signatures().clone());
        let prev = pipeline.signatures().clone();
        TieredMasquerade::from_parts(Box::new(pipeline), Box::new(index), cfg, plan, prev)
            .expect("fresh parts are consistent")
    }

    fn exact_anomaly<'s>(scheme: &'s dyn DeltaScheme, subjects: &[NodeId]) -> TieredAnomaly<'s> {
        let pipeline = SignaturePipeline::new(scheme, CommGraph::empty(NUM_NODES), subjects, 4);
        TieredAnomaly::from_tier(Box::new(pipeline))
    }

    /// The matcher's contribution to the state digest: the postings
    /// layout digest on the exact tier.
    fn matcher_digest(det: &TieredMasquerade<'_>) -> u64 {
        let mut h = Fnv::new();
        det.matcher().digest_state(&mut h);
        h.finish()
    }

    fn cold_window(events: &[EdgeEvent], s: u64, e: u64) -> CommGraph {
        let mut b = GraphBuilder::new();
        for event in events {
            if event.time >= s && event.time < e {
                b.add_event(event.src, event.dst, event.weight);
            }
        }
        b.build(NUM_NODES)
    }

    /// The streaming masquerade detector must equal the batch detector
    /// run cold on every consecutive window pair — including `delta`,
    /// suspect sets and detected pairs.
    #[test]
    fn streaming_masquerade_equals_batch() {
        let scheme = TopTalkers;
        let events = stream();
        let subjects: Vec<NodeId> = (0..6).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = exact(&scheme, &subjects, cfg, ShardPlan::auto());
        let mut prev_graph = CommGraph::empty(NUM_NODES);
        for _ in 0..4 {
            let delta = w.advance();
            let got = det.advance(&SHel, &delta);
            let cur_graph = cold_window(&events, delta.start, delta.end);
            let want = crate::masquerade::detect_label_masquerading(
                &scheme,
                &SHel,
                &prev_graph,
                &cur_graph,
                &subjects,
                &cfg,
            );
            assert_eq!(got.detection.delta.to_bits(), want.delta.to_bits());
            assert_eq!(got.detection.non_suspects, want.non_suspects);
            assert_eq!(got.detection.detected, want.detected);
            prev_graph = cur_graph;
        }
    }

    /// The swap window must be flagged as a mutual masquerade.
    #[test]
    fn streaming_masquerade_flags_swap_window() {
        let scheme = TopTalkers;
        let events = stream();
        let subjects: Vec<NodeId> = (0..6).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = exact(&scheme, &subjects, cfg, ShardPlan::auto());
        let mut swap_detected = false;
        for _ in 0..3 {
            let delta = w.advance();
            let got = det.advance(&SHel, &delta);
            let pairs: std::collections::HashSet<_> =
                got.detection.detected.iter().copied().collect();
            if pairs.contains(&(n(0), n(1))) && pairs.contains(&(n(1), n(0))) {
                swap_detected = true;
            }
        }
        assert!(swap_detected, "the window-2 swap must be detected");
    }

    /// The streamed index must stay bit-identical to one rebuilt from
    /// the pipeline's signatures after several advances.
    #[test]
    fn streaming_index_matches_rebuild() {
        let scheme = Rwr::truncated(0.15, 2);
        let events = stream();
        let subjects: Vec<NodeId> = (0..NUM_NODES).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = exact(&scheme, &subjects, cfg, ShardPlan::auto());
        for _ in 0..4 {
            let delta = w.advance();
            let _ = det.advance(&SHel, &delta);
        }
        let rebuilt = PostingsIndex::build(det.matcher().candidate_set());
        assert_eq!(det.matcher().memory_entries(), rebuilt.memory_entries());
        let mut h = Fnv::new();
        h.write_u64(rebuilt.layout_digest());
        assert_eq!(
            matcher_digest(&det),
            h.finish(),
            "patched layout is canonical"
        );
    }

    /// Every shard plan must produce bit-identical streaming detections
    /// and byte-identical index layouts — multi-core advance is pure
    /// scheduling.
    #[test]
    fn streaming_masquerade_plans_bit_identical() {
        let scheme = Rwr::truncated(0.15, 2);
        let events = stream();
        let subjects: Vec<NodeId> = (0..NUM_NODES).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        let runs: Vec<(Vec<StreamDetection>, u64)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                let mut w = SlidingWindower::tumbling(0, 10);
                for &e in &events {
                    w.push(e);
                }
                let mut det = exact(&scheme, &subjects, cfg, ShardPlan::new(threads));
                let steps = (0..4).map(|_| det.advance(&SHel, &w.advance())).collect();
                (steps, matcher_digest(&det))
            })
            .collect();
        let (base_steps, base_digest) = &runs[0];
        for (i, (steps, digest)) in runs.iter().enumerate().skip(1) {
            assert_eq!(digest, base_digest, "plan #{i}: index layout diverged");
            for (a, b) in base_steps.iter().zip(steps) {
                assert_eq!(a.detection.delta.to_bits(), b.detection.delta.to_bits());
                assert_eq!(a.detection.non_suspects, b.detection.non_suspects);
                assert_eq!(a.detection.detected, b.detection.detected);
                assert_eq!(a.report.dirty, b.report.dirty);
            }
        }
    }

    /// Streaming anomaly scores must equal scores computed from cold
    /// signature sets of the same window pair.
    #[test]
    fn streaming_anomaly_equals_cold_sets() {
        let scheme = Rwr::truncated(0.15, 3);
        let events = stream();
        let subjects: Vec<NodeId> = (0..6).map(n).collect();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = exact_anomaly(&scheme, &subjects);
        let mut prev_graph = CommGraph::empty(NUM_NODES);
        for _ in 0..4 {
            let delta = w.advance();
            let (scores, _) = det.advance(&SHel, &delta);
            let cur_graph = cold_window(&events, delta.start, delta.end);
            let want = anomaly_scores_from_sets(
                &SHel,
                &scheme.signature_set(&prev_graph, &subjects, 4),
                &scheme.signature_set(&cur_graph, &subjects, 4),
            );
            assert_eq!(scores.len(), want.len());
            for (a, b) in scores.iter().zip(&want) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
            prev_graph = cur_graph;
        }
    }

    /// `advance_with_anomaly` must produce the exact detection of
    /// `advance` and the exact scores of a parallel `TieredAnomaly`
    /// over the same stream.
    #[test]
    fn advance_with_anomaly_matches_both_detectors() {
        let scheme = Rwr::truncated(0.15, 2);
        let events = stream();
        let subjects: Vec<NodeId> = (0..6).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        let mut w1 = SlidingWindower::tumbling(0, 10);
        let mut w2 = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w1.push(e);
            w2.push(e);
        }
        let mut combined = exact(&scheme, &subjects, cfg, ShardPlan::auto());
        let mut masq = exact(&scheme, &subjects, cfg, ShardPlan::auto());
        let mut anom = exact_anomaly(&scheme, &subjects);
        for _ in 0..4 {
            let delta = w1.advance();
            let delta2 = w2.advance();
            let (det, scores) = combined.advance_with_anomaly(&SHel, &delta);
            let want_det = masq.advance(&SHel, &delta2);
            let (want_scores, _) = anom.advance(&SHel, &delta2);
            assert_eq!(
                det.detection.delta.to_bits(),
                want_det.detection.delta.to_bits()
            );
            assert_eq!(det.detection.detected, want_det.detection.detected);
            assert_eq!(scores.len(), want_scores.len());
            for (a, b) in scores.iter().zip(&want_scores) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    /// A detector reassembled mid-stream from its encoded tier state, a
    /// graph rebuilt from the windower's aggregates and an index rebuilt
    /// over the decoded signatures must continue bit-identically to the
    /// uninterrupted one — the serve snapshot/recovery discipline for the
    /// exact tier.
    #[test]
    fn resume_from_parts_continues_bit_identically() {
        let scheme = Rwr::truncated(0.15, 2);
        let events = stream();
        let subjects: Vec<NodeId> = (0..NUM_NODES).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let plan = ShardPlan::new(2);
        let mut det = exact(&scheme, &subjects, cfg, plan);
        let d0 = w.advance();
        let d1 = w.advance();
        let _ = det.advance(&SHel, &d0);
        let _ = det.advance(&SHel, &d1);
        // Capture the tier, as a snapshot would; the index is rebuilt
        // from the decoded signatures.
        let mut enc = Enc::new();
        det.tier().encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let num_nodes = dec.u64("graph.num_nodes").expect("graph header decodes");
        assert_eq!(num_nodes, NUM_NODES as u64);
        let edges = w
            .aggregates()
            .iter()
            .map(|&((src, dst), weight)| Edge { src, dst, weight })
            .collect();
        let graph = CommGraph::from_sorted_edges(NUM_NODES, edges);
        let current = persist::decode_signature_set(&mut dec).expect("signatures decode");
        dec.finish("exact detector state")
            .expect("no trailing bytes");
        let index = PostingsIndex::build_owned(current.clone());
        let pipeline =
            SignaturePipeline::resume(&scheme, graph, current, cfg.k, plan).expect("in range");
        let prev = det.prev_signatures().clone();
        let mut resumed =
            TieredMasquerade::from_parts(Box::new(pipeline), Box::new(index), cfg, plan, prev)
                .expect("parts are consistent");
        assert_eq!(matcher_digest(&resumed), matcher_digest(&det));
        for _ in 0..2 {
            let delta = w.advance();
            let (a, sa) = det.advance_with_anomaly(&SHel, &delta);
            let (b, sb) = resumed.advance_with_anomaly(&SHel, &delta);
            assert_eq!(a.detection.delta.to_bits(), b.detection.delta.to_bits());
            assert_eq!(a.detection.detected, b.detection.detected);
            assert_eq!(a.report.dirty, b.report.dirty);
            assert_eq!(matcher_digest(&resumed), matcher_digest(&det));
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    /// The swap window's anomaly scores must rank the swapped hosts at
    /// the top.
    #[test]
    fn streaming_anomaly_ranks_swap_hosts_first() {
        let scheme = TopTalkers;
        let events = stream();
        let subjects: Vec<NodeId> = (0..6).map(n).collect();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = exact_anomaly(&scheme, &subjects);
        let _ = det.advance(&SHel, &w.advance());
        let _ = det.advance(&SHel, &w.advance());
        // Window 1 -> 2 is the swap.
        let (scores, _) = det.advance(&SHel, &w.advance());
        let top2: std::collections::HashSet<_> = scores[..2].iter().map(|s| s.node).collect();
        assert!(top2.contains(&n(0)) && top2.contains(&n(1)), "{scores:?}");
    }

    /// The sketch pair: an LSH front over a sketch tier's signatures,
    /// with `prev` defaulting to the tier's current signatures.
    fn sketch_parts(
        tier: SketchTier,
        prev: Option<SignatureSet>,
        cfg: DetectorConfig,
    ) -> Result<TieredMasquerade<'static>, String> {
        let ann = AnnIndex::build(tier.signatures(), AnnConfig::default());
        let prev = prev.unwrap_or_else(|| tier.signatures().clone());
        TieredMasquerade::from_parts(Box::new(tier), Box::new(ann), cfg, ShardPlan::new(1), prev)
    }

    fn sketch_masquerade() -> TieredMasquerade<'static> {
        let subjects: Vec<NodeId> = (0..6).map(n).collect();
        let cfg = DetectorConfig {
            k: 4,
            ..DetectorConfig::default()
        };
        // Oversized sketches: estimates are near-exact, only the tier
        // plumbing is under test.
        let stream_cfg = StreamConfig {
            cm_width: 512,
            cm_depth: 4,
            candidate_budget: 32,
            fm_bitmaps: 64,
            seed: 5,
            ..StreamConfig::default()
        };
        let tier = SketchTier::new(
            SketchScheme::TopTalkers,
            stream_cfg,
            &subjects,
            4,
            NUM_NODES,
        );
        sketch_parts(tier, None, cfg).expect("fresh parts are consistent")
    }

    /// The sketch-tier detector must flag the swap window just like the
    /// exact one: the signatures are near-exact at oversized sketch
    /// sizes and the swapped twins are well above the LSH threshold.
    #[test]
    fn sketch_masquerade_flags_swap_window() {
        let events = stream();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = sketch_masquerade();
        assert_eq!(det.tier().tier_name(), "sketch");
        assert_eq!(det.tier().dropped_changes(), 0);
        let mut swap_detected = false;
        for _ in 0..3 {
            let delta = w.advance();
            let step = det.advance(&SHel, &delta);
            let pairs: std::collections::HashSet<_> =
                step.detection.detected.iter().copied().collect();
            if pairs.contains(&(n(0), n(1))) && pairs.contains(&(n(1), n(0))) {
                swap_detected = true;
            }
        }
        assert!(swap_detected, "the window-2 swap must be detected");
        let mem = det.tier_memory();
        assert!(mem.state_entries > 0 && mem.state_bytes > 0);
    }

    /// The maintained ANN index must stay equivalent to one rebuilt cold
    /// from the tier's current signatures after several advances.
    #[test]
    fn sketch_matcher_patch_matches_rebuild() {
        use comsig_eval::index::MatchWorkspace;

        let events = stream();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = sketch_masquerade();
        for _ in 0..4 {
            let _ = det.advance(&SHel, &w.advance());
        }
        let rebuilt = AnnIndex::build(det.signatures(), AnnConfig::default());
        let mut ws = MatchWorkspace::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &v in det.signatures().subjects() {
            let q = det.signatures().get(v).expect("sig");
            det.matcher().rank_top_l_into(&SHel, q, 6, &mut ws, &mut a);
            rebuilt.rank_top_l_into(&SHel, q, 6, &mut ws, &mut b);
            assert_eq!(a, b, "query {v}");
        }
    }

    /// A sketch detector rebuilt from its tier's encoded state plus the
    /// prev buffer must continue identically to the uninterrupted one —
    /// the serve snapshot/recovery discipline for the sketch tier.
    #[test]
    fn sketch_resume_continues_identically() {
        let events = stream();
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let mut det = sketch_masquerade();
        let d0 = w.advance();
        let d1 = w.advance();
        let _ = det.advance(&SHel, &d0);
        let _ = det.advance(&SHel, &d1);

        let mut enc = Enc::new();
        det.tier().encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let tier = SketchTier::decode_state(&mut dec).expect("state decodes");
        dec.finish("sketch tier state").expect("no trailing bytes");
        let mut resumed = sketch_parts(tier, Some(det.prev_signatures().clone()), *det.config())
            .expect("parts are consistent");

        for _ in 0..2 {
            let delta = w.advance();
            let (a, sa) = det.advance_with_anomaly(&SHel, &delta);
            let (b, sb) = resumed.advance_with_anomaly(&SHel, &delta);
            assert_eq!(a.detection.delta.to_bits(), b.detection.delta.to_bits());
            assert_eq!(a.detection.detected, b.detection.detected);
            assert_eq!(a.detection.non_suspects, b.detection.non_suspects);
            assert_eq!(a.report.dirty, b.report.dirty);
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    /// Prev/current subject mismatches must be rejected on sketch resume.
    #[test]
    fn sketch_resume_rejects_subject_mismatch() {
        let tier = SketchTier::new(
            SketchScheme::TopTalkers,
            StreamConfig::default(),
            &[n(0), n(1)],
            4,
            8,
        );
        let wrong = SignatureSet::new(vec![n(0)], vec![comsig_core::Signature::empty()]);
        assert!(sketch_parts(tier, Some(wrong), DetectorConfig::default()).is_err());
    }
}
