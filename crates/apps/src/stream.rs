//! Online window-over-window detection over the signature tier seam.
//!
//! The batch detectors ([`masquerade`](crate::masquerade),
//! [`anomaly`](crate::anomaly)) recompute every signature and rebuild
//! the matching index for each pair of windows. [`TieredMasquerade`]
//! instead drives a boxed [`SignatureTier`] — the exact
//! `SignaturePipeline` or the bounded-memory
//! [`SketchTier`](comsig_sketch::tier::SketchTier) — and patches only the
//! dirty subjects per [`WindowDelta`] into a maintained boxed
//! [`SubjectMatcher`].
//!
//! The detector keeps one signature set, the tier's. Algorithm 1's
//! self-persistence and the anomaly score both read
//! `Dist(σ_t(v), σ_{t+1}(v))`, which [`SelfDistances`] computes once per
//! advance for every subject, clean ones too (`Cosine`'s `Dist(σ, σ)` is
//! not always zero), from the current set and the replaced signatures.
//!
//! Over the exact pipeline and a `PostingsIndex`, signatures, index and
//! detector outputs are **bit-identical** to running the batch detector
//! on cold rebuilds of the same windows (asserted by the tests below
//! and, per advance, by the `check_pipeline_equiv` contract). Over the
//! sketch tier and an LSH-fronted `AnnIndex`, they trade documented
//! one-sided error bands for bounded state. The detector never asks
//! which pair it holds: the caller picks it once, at construction.

use comsig_core::distance::BatchDistance;
use comsig_core::pipeline::AdvanceReport;
use comsig_core::{Signature, SignatureSet, SignatureTier};
use comsig_eval::ann::SubjectMatcher;
use comsig_eval::index::MatchWorkspace;
use comsig_eval::ranking::Ranking;
use comsig_graph::{NodeId, ShardPlan, WindowDelta};

use crate::anomaly::AnomalyScore;
use crate::masquerade::{Detection, DetectorConfig};

/// One window pair's self-distances `Dist(σ_t(v), σ_{t+1}(v))`, read by
/// both verdicts; `previous` (the window-`t` signatures) and `distances`
/// are parallel to `order`'s subjects.
pub struct SelfDistances<'s> {
    pub(crate) order: &'s SignatureSet,
    pub(crate) previous: Vec<&'s Signature>,
    pub(crate) distances: Vec<f64>,
}

impl<'s> SelfDistances<'s> {
    /// The sweep after one tier advance: the previous window is `current`
    /// with `report.replaced` swapped back in. Bit-identical at every
    /// thread count.
    #[must_use]
    pub fn sweep(
        dist: &dyn BatchDistance,
        current: &'s SignatureSet,
        report: &'s AdvanceReport,
        plan: &ShardPlan,
    ) -> Self {
        let mut previous: Vec<&Signature> = current.signatures().iter().collect();
        for (&v, old) in report.dirty.iter().zip(&report.replaced) {
            if let Some(slot) = current.position(v).and_then(|i| previous.get_mut(i)) {
                *slot = old;
            }
        }
        let ranges = plan.ranges(previous.len());
        let (old, new) = (&previous, current.signatures());
        let distances = rayon::scope_chunks(&ranges, |_, r| {
            shard(old, &r)
                .iter()
                .zip(shard(new, &r))
                .map(|(a, b)| dist.distance(a, b))
                .collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect();
        SelfDistances {
            order: current,
            previous,
            distances,
        }
    }

    /// Algorithm 1 for the pair, cross-matching each suspect's window-`t`
    /// signature against `matcher`, which holds the window-`t+1` ones.
    ///
    /// * self-similarities `1 − d` are **summed in subject order**, so
    ///   the adaptive threshold `δ` sees the same float additions at
    ///   every thread count;
    /// * each shard resolves its suspects with a private
    ///   [`MatchWorkspace`] (index sweeps are read-only), and the verdicts
    ///   are folded into `non_suspects` / `detected` in subject order.
    #[must_use]
    pub fn algorithm1<M: SubjectMatcher + ?Sized>(
        &self,
        dist: &dyn BatchDistance,
        matcher: &M,
        cfg: &DetectorConfig,
        plan: &ShardPlan,
    ) -> Detection {
        let subjects = self.order.subjects();
        let ranges = plan.ranges(subjects.len());
        let distances = &self.distances;
        let delta = if subjects.is_empty() {
            0.0
        } else {
            distances.iter().map(|&d| 1.0 - d).sum::<f64>()
                / (cfg.threshold_divisor * subjects.len() as f64)
        };
        // A suspect looks unlike itself: self-similarity at most δ,
        // looked up by subject position.
        let suspect = |u: NodeId| {
            self.order
                .position(u)
                .and_then(|i| distances.get(i))
                .is_some_and(|&d| 1.0 - d <= delta)
        };
        // Cross-match suspects through the matcher: each costs one top-ℓ
        // posting sweep (ascending distance, ties by id), not a |V| scan.
        let verdicts: Vec<Option<NodeId>> = rayon::scope_chunks(&ranges, |_, r| {
            let mut ws = MatchWorkspace::new();
            // One top-ℓ buffer per shard, recycled across its suspects.
            let mut top: Vec<(NodeId, f64)> = Vec::new();
            shard(subjects, &r)
                .iter()
                .zip(shard(distances, &r))
                .zip(shard(&self.previous, &r))
                .map(|((&v, &d), &q)| {
                    if 1.0 - d > delta {
                        return None;
                    }
                    // v looks unlike itself: find who v's old behaviour
                    // moved to.
                    matcher.rank_top_l_into(dist, q, cfg.top_l, &mut ws, &mut top);
                    top.iter()
                        .find(|&&(u, _)| u != v && suspect(u))
                        .map(|&(u, _)| u)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let mut non_suspects = Vec::new();
        let mut detected = Vec::new();
        for (&v, verdict) in subjects.iter().zip(verdicts) {
            match verdict {
                None => non_suspects.push(v),
                Some(u) => detected.push((v, u)),
            }
        }
        Detection {
            non_suspects,
            detected,
            delta,
        }
    }

    /// The anomaly scores for the pair, most anomalous first.
    #[must_use]
    pub fn anomaly_scores(&self) -> Vec<AnomalyScore> {
        let mut scores: Vec<AnomalyScore> = self
            .order
            .subjects()
            .iter()
            .zip(&self.distances)
            .map(|(&node, &score)| AnomalyScore { node, score })
            .collect();
        scores.sort_by(|x, y| y.score.total_cmp(&x.score).then(x.node.cmp(&y.node)));
        scores
    }
}

/// The shard `r` of `xs`; `ShardPlan::ranges` stays within the length
/// it was given, so the fallback to an empty shard is never taken.
fn shard<'x, T>(xs: &'x [T], r: &std::ops::Range<usize>) -> &'x [T] {
    xs.get(r.clone()).unwrap_or_default()
}

/// The streaming window-over-window detector: a [`SignatureTier`]
/// maintaining the window's signatures and a [`SubjectMatcher`] ranking
/// them. Each [`advance`](Self::advance) runs Algorithm 1 and scores
/// anomalies between the previous window's signatures and the new
/// window's, exactly as the batch detectors would with `(G_t, G_{t+1})`.
pub struct TieredMasquerade<'a> {
    tier: Box<dyn SignatureTier + 'a>,
    matcher: Box<dyn SubjectMatcher>,
    cfg: DetectorConfig,
    plan: ShardPlan,
}

impl<'a> TieredMasquerade<'a> {
    /// Assembles a detector from a seeded (or resumed) tier and a
    /// matcher over the tier's current signatures.
    ///
    /// # Errors
    /// Returns an error when the matcher's candidates diverge from the
    /// tier's signatures. This is checked because resume assembles the
    /// parts from untrusted snapshot bytes.
    pub fn from_parts(
        tier: Box<dyn SignatureTier + 'a>,
        matcher: Box<dyn SubjectMatcher>,
        cfg: DetectorConfig,
        plan: ShardPlan,
    ) -> Result<Self, String> {
        let (current, candidates) = (tier.signatures(), matcher.candidate_set());
        if candidates.subjects() != current.subjects()
            || candidates.signatures() != current.signatures()
        {
            return Err("detector resume: index candidates diverge from the signature set".into());
        }
        Ok(TieredMasquerade {
            tier,
            matcher,
            cfg,
            plan,
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

    /// The current window's signatures.
    #[must_use]
    pub fn signatures(&self) -> &SignatureSet {
        self.tier.signatures()
    }

    /// The maintained matcher over the current signatures.
    #[must_use]
    pub fn matcher(&self) -> &dyn SubjectMatcher {
        self.matcher.as_ref()
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

    /// Consumes the next window's delta, patches the matcher with the
    /// dirty subjects, and sweeps the window pair once for both verdicts:
    /// Algorithm 1 and the anomaly scores.
    pub fn advance(&mut self, dist: &dyn BatchDistance, delta: &WindowDelta) -> StreamDetection {
        let report = self.tier.advance_window(delta);
        let current = self.tier.signatures();
        // The tier maintains every subject it reports dirty; a miss
        // would mean the maintained set drifted, and skipping the
        // subject degrades the window instead of killing the stream.
        self.matcher.patch(
            report
                .dirty
                .iter()
                .filter_map(|&v| current.get(v).map(|sig| (v, sig.clone())))
                .collect(),
            &self.plan,
        );
        let pair = SelfDistances::sweep(dist, current, &report, &self.plan);
        let detection = pair.algorithm1(dist, self.matcher.as_ref(), &self.cfg, &self.plan);
        let scores = pair.anomaly_scores();
        StreamDetection {
            detection,
            scores,
            report,
        }
    }
}

/// One streaming step: both verdicts for the window pair plus what the
/// tier did to produce it.
#[derive(Debug, Clone)]
pub struct StreamDetection {
    /// Algorithm 1's verdict for (previous window, new window).
    pub detection: Detection,
    /// Per-subject anomaly scores for the pair, most anomalous first.
    pub scores: Vec<AnomalyScore>,
    /// The tier advance that produced the new window.
    pub report: AdvanceReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::anomaly_scores_from_sets;
    use crate::masquerade::run_algorithm1_with;
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
        TieredMasquerade::from_parts(Box::new(pipeline), Box::new(index), cfg, plan)
            .expect("fresh parts are consistent")
    }

    /// The anomaly-only driver: a bare tier and the shared sweep.
    fn exact_anomaly<'s>(
        scheme: &'s dyn DeltaScheme,
        subjects: &[NodeId],
    ) -> impl FnMut(&WindowDelta) -> Vec<AnomalyScore> + 's {
        let mut pipeline = SignaturePipeline::new(scheme, CommGraph::empty(NUM_NODES), subjects, 4);
        move |delta| {
            let report = pipeline.advance(delta);
            SelfDistances::sweep(&SHel, pipeline.signatures(), &report, &ShardPlan::new(2))
                .anomaly_scores()
        }
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
            let scores = det(&delta);
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

    /// One advance's detection and scores must equal the reference
    /// sweeps over a previous-window set kept by cloning, on a distance
    /// whose `Dist(σ, σ)` is not always zero.
    #[test]
    fn advance_matches_both_reference_sweeps() {
        use comsig_core::distance::Cosine;

        let scheme = Rwr::truncated(0.15, 2);
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
        let mut det = exact(&scheme, &subjects, cfg, ShardPlan::new(2));
        for _ in 0..4 {
            let prev = det.signatures().clone();
            let got = det.advance(&Cosine, &w.advance());
            let want = run_algorithm1_with(&Cosine, &prev, det.matcher(), &cfg, &ShardPlan::new(1));
            assert_eq!(got.detection.delta.to_bits(), want.delta.to_bits());
            assert_eq!(got.detection.non_suspects, want.non_suspects);
            assert_eq!(got.detection.detected, want.detected);
            let want_scores = anomaly_scores_from_sets(&Cosine, &prev, det.signatures());
            assert_eq!(got.scores.len(), want_scores.len());
            for (a, b) in got.scores.iter().zip(&want_scores) {
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
        let mut resumed =
            TieredMasquerade::from_parts(Box::new(pipeline), Box::new(index), cfg, plan)
                .expect("parts are consistent");
        assert_eq!(matcher_digest(&resumed), matcher_digest(&det));
        for _ in 0..2 {
            let delta = w.advance();
            let a = det.advance(&SHel, &delta);
            let b = resumed.advance(&SHel, &delta);
            assert_eq!(a.detection.delta.to_bits(), b.detection.delta.to_bits());
            assert_eq!(a.detection.detected, b.detection.detected);
            assert_eq!(a.report.dirty, b.report.dirty);
            assert_eq!(matcher_digest(&resumed), matcher_digest(&det));
            for (x, y) in a.scores.iter().zip(&b.scores) {
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
        let _ = det(&w.advance());
        let _ = det(&w.advance());
        // Window 1 -> 2 is the swap.
        let scores = det(&w.advance());
        let top2: std::collections::HashSet<_> = scores[..2].iter().map(|s| s.node).collect();
        assert!(top2.contains(&n(0)) && top2.contains(&n(1)), "{scores:?}");
    }

    /// The sketch pair: an LSH front over `candidates`, by default the
    /// sketch tier's signatures.
    fn sketch_parts(
        tier: SketchTier,
        candidates: Option<&SignatureSet>,
        cfg: DetectorConfig,
    ) -> Result<TieredMasquerade<'static>, String> {
        let ann = AnnIndex::build(
            candidates.unwrap_or(tier.signatures()),
            AnnConfig::default(),
        );
        TieredMasquerade::from_parts(Box::new(tier), Box::new(ann), cfg, ShardPlan::new(1))
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
        let mem = det.tier().memory();
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

    /// A sketch detector rebuilt from its tier's encoded state must
    /// continue identically to the uninterrupted one — the serve
    /// snapshot/recovery discipline for the sketch tier.
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
        let mut resumed = sketch_parts(tier, None, *det.config()).expect("parts are consistent");

        for _ in 0..2 {
            let delta = w.advance();
            let a = det.advance(&SHel, &delta);
            let b = resumed.advance(&SHel, &delta);
            assert_eq!(a.detection.delta.to_bits(), b.detection.delta.to_bits());
            assert_eq!(a.detection.detected, b.detection.detected);
            assert_eq!(a.detection.non_suspects, b.detection.non_suspects);
            assert_eq!(a.report.dirty, b.report.dirty);
            assert_eq!(a.scores.len(), b.scores.len());
            for (x, y) in a.scores.iter().zip(&b.scores) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    /// A matcher over a different subject population than the tier must
    /// be rejected on sketch resume.
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
        assert!(sketch_parts(tier, Some(&wrong), DetectorConfig::default()).is_err());
    }
}
