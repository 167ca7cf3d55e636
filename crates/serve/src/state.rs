//! The live in-memory state of the service and its digest oracle.
//!
//! [`LiveState`] bundles everything the daemon mutates between durable
//! records: the sliding windower, the combined masquerade/anomaly
//! detector (one [`TieredMasquerade`] over whichever tier and matcher
//! [`build_detector`] picked), the frozen label space and the monotone
//! counters. It is deliberately free of any I/O so the chaos scenarios
//! and proptests can drive the exact production state machine without a
//! socket.
//!
//! [`LiveState::state_digest`] is the bit-identity oracle. It folds the
//! tier's durable state (exact: the graph's node count and the current
//! signatures; sketch: the sketches, which embed the current
//! signatures), the current signatures again (the frozen slot of the
//! dropped previous-window copy, which always equalled them) and the full
//! windower state into one FNV-1a digest, then the matcher's digest: the
//! exact tier's postings layout digest, which is a function of the
//! current signatures alone; the LSH front adds nothing. The exact tier's
//! graph edges are not digested twice: they are the windower's
//! aggregates, which the contract layer checks after every advance. An
//! uninterrupted run and a kill-and-resume run must produce equal
//! digests at every window boundary — the WAL records the expected
//! digest per advance and recovery verifies it.

use comsig_apps::anomaly::{anomaly_scores_from_sets, AnomalyScore};
use comsig_apps::masquerade::{run_algorithm1_with, DetectorConfig};
use comsig_apps::stream::TieredMasquerade;
use comsig_core::contract;
use comsig_core::distance::BatchDistance;
use comsig_core::persist::{self, Dec, Enc, Fnv};
use comsig_core::pipeline::{DeltaScheme, SignaturePipeline};
use comsig_core::SignatureTier;
use comsig_eval::ann::{AnnIndex, SubjectMatcher};
use comsig_eval::index::PostingsIndex;
use comsig_graph::{
    Aggregate, CommGraph, Edge, EdgeEvent, Interner, NodeId, ShardPlan, SlidingWindower,
    WindowDelta,
};
use comsig_sketch::tier::SketchTier;

use crate::config::{ServeConfig, ServeError, TierSpec};

/// The query-visible residue of the most recent window advance: the
/// masquerade verdict and the anomaly scores for the last window pair.
/// Persisted in snapshots and recomputed by WAL replay, so queries
/// answer byte-identically across a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct LastWindow {
    /// Window bounds `[start, end)` of the advanced window.
    pub start: u64,
    /// Exclusive end of the advanced window.
    pub end: u64,
    /// Aggregated-edge changes applied by the advance.
    pub changed_edges: u64,
    /// Subjects recomputed by the advance.
    pub dirty: u64,
    /// Subjects whose signature survived unchanged (non-suspects).
    pub non_suspects: u64,
    /// Algorithm 1's distance threshold `δ` for the pair.
    pub delta: f64,
    /// Re-identified (suspect, best-match) pairs.
    pub detected: Vec<(NodeId, NodeId)>,
    /// Per-subject anomaly scores, most anomalous first.
    pub scores: Vec<AnomalyScore>,
}

/// The full in-memory state of the service between durable records.
pub struct LiveState<'a> {
    /// Frozen label space: interned once at genesis from the seed
    /// events; ingested labels must already be known.
    pub interner: Interner,
    /// Fixed subject population (sorted, deduplicated seed sources).
    pub subjects: Vec<NodeId>,
    /// The sliding windower consuming accepted events.
    pub windower: SlidingWindower,
    /// The combined detector on the configured tier.
    pub det: TieredMasquerade<'a>,
    /// Windows advanced since genesis.
    pub windows: u64,
    /// Events accepted into the windower since genesis (pre-validation
    /// count: the WAL logs batches before `push` filters them, and
    /// replay repeats the same pushes).
    pub ingested_events: u64,
    /// The most recent advance's query-visible outputs.
    pub last: Option<LastWindow>,
}

/// The frozen genesis node space: the interner and subject set derived
/// from the seed events. Freezing both at genesis keeps signature
/// indices dense and recovery deterministic.
#[derive(Debug, Clone)]
pub struct GenesisSpace {
    /// The frozen label interner.
    pub interner: Interner,
    /// The fixed subject (source) population.
    pub subjects: Vec<NodeId>,
}

/// The fixed subject population for a seed event stream: every source
/// label, sorted and deduplicated (the same rule as `comsig stream`).
#[must_use]
pub fn subject_sources(events: &[EdgeEvent]) -> Vec<NodeId> {
    let set: std::collections::BTreeSet<NodeId> = events.iter().map(|e| e.src).collect();
    set.into_iter().collect()
}

impl<'a> LiveState<'a> {
    /// The genesis state: an empty first window over the frozen label
    /// space, deterministic in `(config, interner, subjects)`. `scheme`
    /// drives the exact tier and is ignored by the sketch tier (which
    /// approximates the scheme named by `config.scheme_spec`).
    ///
    /// # Errors
    /// [`ServeError::Config`] when the sketch tier is configured with a
    /// non-sketchable scheme.
    pub fn genesis(
        scheme: &'a dyn DeltaScheme,
        config: &ServeConfig,
        interner: Interner,
        subjects: Vec<NodeId>,
    ) -> Result<Self, ServeError> {
        let det = build_detector(
            scheme,
            config,
            Origin::Genesis {
                subjects: &subjects,
                num_nodes: interner.len(),
            },
        )?;
        Ok(LiveState {
            interner,
            subjects,
            windower: SlidingWindower::new(config.start, config.width, config.slide),
            det,
            windows: 0,
            ingested_events: 0,
            last: None,
        })
    }

    /// Pushes an accepted event batch into the windower, in batch
    /// order. Events the windower rejects (late, invalid) are counted
    /// by the windower itself; the decision is deterministic, so replay
    /// of the same batch reproduces the same counters.
    pub fn push_events(&mut self, events: &[EdgeEvent]) {
        for &e in events {
            let _ = self.windower.push(e);
        }
        self.ingested_events += events.len() as u64;
    }

    /// Applies one window delta to the detector and records the
    /// query-visible outputs. The delta must come from this state's
    /// windower (live path) or from the WAL (replay path, where it is
    /// verified against a fresh `windower.advance()` first), so under
    /// the contract layer the exact tier's graph is checked against the
    /// windower's aggregates, and the served verdicts against the
    /// reference sweep.
    pub fn apply_window(&mut self, dist: &dyn BatchDistance, delta: &WindowDelta) {
        let step = self.det.advance(dist, delta);
        if let Some(graph) = self.det.tier().window_graph() {
            contract::check_window_graph(graph, self.windower.aggregates());
        }
        if contract::enabled() {
            // The served verdicts equal the reference sweeps over the
            // previous set, rebuilt from the replaced signatures.
            let mut previous = self.det.signatures().clone();
            for (&v, old) in step.report.dirty.iter().zip(step.report.replaced) {
                let _ = previous.replace(v, old);
            }
            let (det, plan) = (&self.det, ShardPlan::new(1));
            let want = run_algorithm1_with(dist, &previous, det.matcher(), det.config(), &plan);
            let want_scores = anomaly_scores_from_sets(dist, &previous, det.signatures());
            let got = (&step.detection, &step.scores);
            contract::check_bit_equal("detector sweep", &got, &(&want, &want_scores));
        }
        self.windows += 1;
        self.last = Some(LastWindow {
            start: delta.start,
            end: delta.end,
            changed_edges: step.report.changed_edges as u64,
            dirty: step.report.dirty.len() as u64,
            non_suspects: step.detection.non_suspects.len() as u64,
            delta: step.detection.delta,
            detected: step.detection.detected,
            scores: step.scores,
        });
    }

    /// Advances the windower one slide and applies the delta — the
    /// uninterrupted (non-replay) path.
    pub fn advance_once(&mut self, dist: &dyn BatchDistance) -> WindowDelta {
        let delta = self.windower.advance();
        self.apply_window(dist, &delta);
        delta
    }

    /// The bit-identity oracle: an FNV-1a digest over the tier's durable
    /// state, the current signatures again and the windower, then the
    /// matcher's digest and the monotone counters.
    /// Equal digests mean equal service state, byte for byte. The
    /// encoders stream straight into the hash, so no byte of the state
    /// is copied; [`state_digest_reference`](Self::state_digest_reference)
    /// is the buffered oracle it must equal.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut enc = Enc::hashing();
        self.det.tier().encode_state(&mut enc);
        // The current set again where the dropped `prev` copy (always equal
        // to it) went, so no digest moves; ROADMAP item 2 Step A drops it.
        persist::encode_signature_set(&mut enc, self.det.signatures());
        persist::encode_live_windower(&mut enc, &self.windower);
        self.finish_digest(enc.into_digest())
    }

    /// [`state_digest`](Self::state_digest) the buffered way: encode the
    /// state, with the windower's exported image, into one `Vec`, then
    /// FNV-1a over it.
    #[must_use]
    pub fn state_digest_reference(&self) -> u64 {
        let mut enc = Enc::new();
        self.det.tier().encode_state(&mut enc);
        // The frozen slot, as in `state_digest` (ROADMAP item 2 Step A).
        persist::encode_signature_set(&mut enc, self.det.signatures());
        persist::encode_windower(&mut enc, &self.windower.export_state());
        self.finish_digest(enc.into_digest())
    }

    /// Folds the matcher digest and the counters after the encoded state.
    fn finish_digest(&self, mut h: Fnv) -> u64 {
        self.det.matcher().digest_state(&mut h);
        h.write_u64(self.windows);
        h.write_u64(self.ingested_events);
        h.finish()
    }
}

/// Where [`build_detector`] takes its tier and matcher from.
pub enum Origin<'s, 'b> {
    /// A fresh tier over an empty first window of `num_nodes` nodes.
    Genesis {
        /// The fixed subject population.
        subjects: &'s [NodeId],
        /// The size of the frozen node space.
        num_nodes: usize,
    },
    /// A snapshot body positioned just past the tier tag, at the tier
    /// state [`encode_snapshot`](crate::snapshot::encode_snapshot)
    /// wrote.
    Snapshot {
        /// The snapshot body.
        dec: &'s mut Dec<'b>,
        /// The size of the snapshot's label space.
        num_nodes: usize,
        /// The snapshot's windower, already decoded, whose aggregates
        /// are the exact tier's window graph. Every node it names must
        /// be below `num_nodes`.
        windower: &'s SlidingWindower,
    },
}

/// The exact tier's window graph over `num_nodes` nodes: the windower's
/// aggregates, which are strictly ascending by pair, valid and in range.
fn window_graph(num_nodes: usize, agg: &[Aggregate]) -> CommGraph {
    let edges = agg
        .iter()
        .map(|&((src, dst), weight)| Edge { src, dst, weight })
        .collect();
    CommGraph::from_sorted_edges(num_nodes, edges)
}

/// Builds or decodes the configured tier — the one place above the tier
/// seam that knows which tiers exist. [`build_detector`] puts a matcher
/// over it; `comsig stream --task anomaly`, which ranks nothing, uses the
/// tier alone.
///
/// * **exact**: a [`SignaturePipeline`], whose graph is always the
///   windower's aggregates: none at genesis, the snapshot windower's on
///   resume.
/// * **sketch**: a [`SketchTier`].
///
/// # Errors
/// [`ServeError::Config`] for a non-sketchable scheme on the sketch
/// tier; [`ServeError::Corrupt`] for snapshot state that does not decode,
/// disagrees with the stamped sketch sizing or the label space, or whose
/// parts are inconsistent with each other.
pub fn build_tier<'a>(
    scheme: &'a dyn DeltaScheme,
    config: &ServeConfig,
    origin: Origin<'_, '_>,
) -> Result<Box<dyn SignatureTier + 'a>, ServeError> {
    let cfg = detector_config(config);
    let plan = plan_of(config);
    let tier: Box<dyn SignatureTier + 'a> = match (config.tier, origin) {
        (
            TierSpec::Exact,
            Origin::Genesis {
                subjects,
                num_nodes,
            },
        ) => {
            let graph = window_graph(num_nodes, &[]);
            let pipeline = SignaturePipeline::with_plan(scheme, graph, subjects, cfg.k, plan);
            Box::new(pipeline)
        }
        (
            TierSpec::Exact,
            Origin::Snapshot {
                dec,
                num_nodes,
                windower,
            },
        ) => {
            let header = dec.u64("graph.num_nodes")?;
            if header != num_nodes as u64 {
                return Err(ServeError::Corrupt(format!(
                    "snapshot graph has {header} nodes, its label space {num_nodes}"
                )));
            }
            let current = persist::decode_signature_set(dec)?;
            let graph = window_graph(num_nodes, windower.aggregates());
            let pipeline = SignaturePipeline::resume(scheme, graph, current, cfg.k, plan)
                .map_err(ServeError::Corrupt)?;
            Box::new(pipeline)
        }
        (
            TierSpec::Sketch,
            Origin::Genesis {
                subjects,
                num_nodes,
            },
        ) => {
            let sketch = config.sketch_scheme()?;
            let tier = SketchTier::new(sketch, config.sketch, subjects, cfg.k, num_nodes);
            Box::new(tier)
        }
        (TierSpec::Sketch, Origin::Snapshot { dec, num_nodes, .. }) => {
            let tier = SketchTier::decode_state(dec)?;
            if tier.k() != config.k
                || tier.stream().config() != config.sketch
                || tier.scheme() != config.sketch_scheme()?
            {
                return Err(ServeError::Corrupt(
                    "snapshot sketch state disagrees with the stamped configuration".to_owned(),
                ));
            }
            // The matcher sizes its slots by node id, and the tier folds
            // changes over its own node space.
            if let Some(u) = tier.signatures().node_outside(num_nodes) {
                return Err(ServeError::Corrupt(format!(
                    "snapshot signatures name node {u} outside the {num_nodes}-label space"
                )));
            }
            if tier.num_nodes() != num_nodes {
                return Err(ServeError::Corrupt(format!(
                    "snapshot sketch tier has {} nodes, its label space {num_nodes}",
                    tier.num_nodes()
                )));
            }
            Box::new(tier)
        }
    };
    Ok(tier)
}

/// Builds or decodes the configured tier ([`build_tier`]), builds its
/// matcher over the tier's signatures and assembles the detector. Serve
/// genesis, snapshot recovery and `comsig stream --task masquerade` all
/// construct through it.
///
/// * **exact**: a [`PostingsIndex`].
/// * **sketch**: an [`AnnIndex`] banded by `config.ann`.
///
/// Both matchers are pure functions of the signatures, so genesis and
/// resume build them the same way and a snapshot never carries them.
///
/// # Errors
/// As [`build_tier`].
pub fn build_detector<'a>(
    scheme: &'a dyn DeltaScheme,
    config: &ServeConfig,
    origin: Origin<'_, '_>,
) -> Result<TieredMasquerade<'a>, ServeError> {
    let tier = build_tier(scheme, config, origin)?;
    let current = tier.signatures().clone();
    let matcher: Box<dyn SubjectMatcher> = match config.tier {
        TierSpec::Exact => Box::new(PostingsIndex::build_owned(current)),
        TierSpec::Sketch => Box::new(AnnIndex::build_owned(current, config.ann)),
    };
    TieredMasquerade::from_parts(tier, matcher, detector_config(config), plan_of(config))
        .map_err(ServeError::Corrupt)
}

/// The Algorithm 1 knobs carried by the service configuration.
#[must_use]
pub fn detector_config(config: &ServeConfig) -> DetectorConfig {
    DetectorConfig {
        k: config.k,
        threshold_divisor: config.threshold_divisor,
        top_l: config.top_l,
    }
}

/// The shard plan for the configured worker count (0 = machine-sized).
#[must_use]
pub fn plan_of(config: &ServeConfig) -> ShardPlan {
    if config.threads == 0 {
        ShardPlan::auto()
    } else {
        ShardPlan::new(config.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;

    fn seeded() -> (Interner, Vec<EdgeEvent>) {
        let mut interner = Interner::new();
        let mut events = Vec::new();
        for t in 0..20u64 {
            let src = interner.intern(&format!("h{}", t % 4));
            let dst = interner.intern(&format!("h{}", (t + 1) % 5));
            if src != dst {
                events.push(EdgeEvent {
                    time: t,
                    src,
                    dst,
                    weight: 1.0 + (t % 3) as f64,
                });
            }
        }
        (interner, events)
    }

    #[test]
    fn digest_changes_with_state_and_repeats_without() {
        let scheme = TopTalkers;
        let config = ServeConfig {
            width: 5,
            slide: 5,
            ..ServeConfig::default()
        };
        let (interner, events) = seeded();
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &config, interner, subjects).unwrap();
        let d0 = live.state_digest();
        assert_eq!(d0, live.state_digest(), "digest must be a pure function");
        live.push_events(&events);
        let d1 = live.state_digest();
        assert_ne!(d0, d1, "pushed events must change the digest");
        let _ = live.advance_once(&SHel);
        let d2 = live.state_digest();
        assert_ne!(d1, d2, "an advance must change the digest");
        assert!(live.last.is_some());
    }

    #[test]
    fn two_identical_runs_share_every_window_digest() {
        let scheme = TopTalkers;
        for tier in [TierSpec::Exact, TierSpec::Sketch] {
            let config = ServeConfig {
                width: 5,
                slide: 5,
                tier,
                ..ServeConfig::default()
            };
            let (interner, events) = seeded();
            let subjects = subject_sources(&events);
            let run = |threads: usize| {
                let config = ServeConfig {
                    threads,
                    ..config.clone()
                };
                let mut live =
                    LiveState::genesis(&scheme, &config, interner.clone(), subjects.clone())
                        .unwrap();
                live.push_events(&events);
                let mut digests = Vec::new();
                while live.windower.pending_events() > 0 {
                    let _ = live.advance_once(&SHel);
                    digests.push(live.state_digest());
                }
                digests
            };
            assert_eq!(
                run(1),
                run(4),
                "{} shard plans must be bit-identical",
                tier.name()
            );
        }
    }

    #[test]
    fn sketch_genesis_rejects_unsketchable_scheme() {
        let scheme = TopTalkers;
        let config = ServeConfig {
            scheme_spec: "rwr:h=2,c=0.1".to_owned(),
            tier: TierSpec::Sketch,
            ..ServeConfig::default()
        };
        let (interner, events) = seeded();
        let subjects = subject_sources(&events);
        assert!(matches!(
            LiveState::genesis(&scheme, &config, interner, subjects),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn sketch_detector_answers_ranking_queries() {
        let scheme = TopTalkers;
        let config = ServeConfig {
            width: 5,
            slide: 5,
            k: 4,
            tier: TierSpec::Sketch,
            ..ServeConfig::default()
        };
        let (interner, events) = seeded();
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &config, interner, subjects).unwrap();
        live.push_events(&events);
        let _ = live.advance_once(&SHel);
        assert_eq!(live.det.tier().tier_name(), "sketch");
        let v = live.subjects[0];
        let sig = live.det.signatures().get(v).expect("subject has signature");
        let ranking = live.det.rank_top_l(&SHel, sig, 3);
        assert!(!ranking.entries().is_empty());
        // Self-identification: the subject's own signature is at
        // distance 0, and the LSH front never misses an identical twin
        // (every band collides).
        assert_eq!(ranking.entries()[0].0, v);
        assert_eq!(ranking.entries()[0].1, 0.0);
        let mem = live.det.tier().memory();
        assert!(mem.state_entries > 0 && mem.state_bytes > 0);
        assert!(live.det.matcher().memory_entries() > 0);
    }
}
