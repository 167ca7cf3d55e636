//! The sketch implementation of the [`SignatureTier`] seam.
//!
//! [`SketchTier`] maintains approximate Top Talkers or Unexpected
//! Talkers signatures for a fixed subject population by folding each
//! [`WindowDelta`] into a turnstile [`SemiStream`] — one pass over the
//! changed aggregated edges, never materialising the CSR. Its accuracy
//! contract is the composition of the substrate guarantees:
//!
//! * **TT weights over-estimate, never under-estimate.** A candidate's
//!   stored weight is a linear-CM point query taken the last time the
//!   candidate was touched; colliding keys only inflate it and the
//!   candidate's own changes refresh it, so it stays `≥` the true
//!   current aggregate (see [`CountMinSketch::update_signed`]).
//! * **UT denominators over-estimate.** `|Î(j)|` counts distinct
//!   sources over the stream's whole horizon (insert-only FM /
//!   [`DistinctCm`]), an over-estimate of the windowed in-degree up to
//!   FM's `≈ 0.78/√m` band — popular destinations are discounted at
//!   least as hard as exactly, novel ones are never inflated.
//! * **Recall misses only at the candidate-budget boundary.** A true
//!   top-`k` destination is absent from the approximate signature only
//!   if it was evicted by `budget` heavier-estimated candidates.
//!
//! Poisoned events (NaN/negative weights, nodes outside the declared
//! space) never reach the sketches: the carrying subject is degraded for
//! the window — reported with a [`DegradeReason`], signature emptied,
//! re-derived from clean state on the next advance — and every other
//! subject proceeds untouched, mirroring the exact engine's per-subject
//! degradation discipline.
//!
//! [`SignatureTier`]: comsig_core::SignatureTier
//! [`CountMinSketch::update_signed`]: crate::cm::CountMinSketch::update_signed
//! [`DistinctCm`]: crate::distinct::DistinctCm

use rustc_hash::{FxHashMap, FxHashSet};

use comsig_core::engine::DegradeReason;
use comsig_core::persist::{decode_signature_set, encode_signature_set, CodecError, Dec, Enc};
use comsig_core::{AdvanceReport, Signature, SignatureSet, SignatureTier, TierMemory};
use comsig_graph::{NodeId, WindowDelta};

use crate::distinct::DistinctCm;
use crate::fm::FmSketch;
use crate::stream::{InDegree, SemiStream, StreamConfig};

/// Which signature definition the sketch tier approximates. The sketch
/// substrate covers the paper's two semi-streamable schemes; RWR needs
/// the materialised graph and stays exact-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchScheme {
    /// Approximate Definition 3: `ĉ[i,j] / Σ_v ĉ[i,v]`.
    TopTalkers,
    /// Approximate Definition 4: `ĉ[i,j] / |Î(j)|`.
    UnexpectedTalkers,
}

impl SketchScheme {
    /// Short stable name (`"tt"` / `"ut"`), matching the CLI scheme specs.
    pub fn name(self) -> &'static str {
        match self {
            SketchScheme::TopTalkers => "tt",
            SketchScheme::UnexpectedTalkers => "ut",
        }
    }

    /// Parses a CLI scheme spec into the sketchable subset: `tt`, and
    /// `ut` with its default ratio scaling. The other UT scalings, any
    /// argument on `tt`, and RWR variants are not sketchable.
    pub fn parse(spec: &str) -> Option<Self> {
        match spec {
            "tt" => Some(SketchScheme::TopTalkers),
            "ut" | "ut:ratio" => Some(SketchScheme::UnexpectedTalkers),
            _ => None,
        }
    }
}

/// The approximate tier: bounded sketch state, one pass per delta.
#[derive(Debug, Clone)]
pub struct SketchTier {
    scheme: SketchScheme,
    k: usize,
    num_nodes: usize,
    stream: SemiStream,
    set: SignatureSet,
    /// Subjects degraded in the last advance, in maintained subject
    /// order (reporting only; cleared each window).
    degraded: Vec<(NodeId, DegradeReason)>,
    /// Subjects whose signature was emptied by degradation and must be
    /// re-derived from (clean) sketch state on the next advance.
    healing: Vec<NodeId>,
    windows: u64,
    dropped_changes: u64,
}

impl SketchTier {
    /// Creates a tier maintaining one signature per subject over a node
    /// space of `num_nodes`, starting from the empty stream.
    ///
    /// # Panics
    /// Panics if `subjects` contains duplicates or ids `≥ num_nodes`,
    /// or if `k` is zero.
    pub fn new(
        scheme: SketchScheme,
        cfg: StreamConfig,
        subjects: &[NodeId],
        k: usize,
        num_nodes: usize,
    ) -> Self {
        assert!(k > 0, "signature size k must be positive");
        for &v in subjects {
            assert!(
                (v.raw() as usize) < num_nodes,
                "subject {v} outside the declared space of {num_nodes} nodes"
            );
        }
        let set = SignatureSet::new(subjects.to_vec(), vec![Signature::empty(); subjects.len()]);
        SketchTier {
            scheme,
            k,
            num_nodes,
            stream: SemiStream::turnstile(cfg),
            set,
            degraded: Vec::new(),
            healing: Vec::new(),
            windows: 0,
            dropped_changes: 0,
        }
    }

    /// The approximated scheme.
    pub fn scheme(&self) -> SketchScheme {
        self.scheme
    }

    /// Signature size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The declared node space.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The underlying semi-streaming state (read-only).
    pub fn stream(&self) -> &SemiStream {
        &self.stream
    }

    /// Windows advanced so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Subjects degraded by the **last** advance, with reasons, in
    /// maintained subject order. Empty after a snapshot resume (the
    /// report is per-window, not part of durable state).
    pub fn degraded(&self) -> &[(NodeId, DegradeReason)] {
        &self.degraded
    }

    fn extract(&self, v: NodeId) -> Signature {
        match self.scheme {
            SketchScheme::TopTalkers => self.stream.tt_signature(v, self.k),
            SketchScheme::UnexpectedTalkers => self.stream.ut_signature(v, self.k),
        }
    }

    /// Rebuilds a tier from [`encode_state`](Self::encode_state) bytes.
    ///
    /// # Errors
    /// Returns a [`CodecError`] on truncation, dimension mismatches, or
    /// invariant violations — never panics on untrusted bytes.
    pub fn decode_state(dec: &mut Dec<'_>) -> Result<SketchTier, CodecError> {
        let cfg = StreamConfig {
            cm_width: dec.u64("sketch.cm_width")? as usize,
            cm_depth: dec.u64("sketch.cm_depth")? as usize,
            candidate_budget: dec.u64("sketch.candidate_budget")? as usize,
            fm_bitmaps: dec.u64("sketch.fm_bitmaps")? as usize,
            seed: dec.u64("sketch.seed")?,
            indeg_cells: dec.u64("sketch.indeg_cells")? as usize,
            indeg_depth: dec.u64("sketch.indeg_depth")? as usize,
        };
        if cfg.cm_width == 0 || cfg.cm_depth == 0 || cfg.candidate_budget == 0 {
            return Err(CodecError::from(
                "sketch.config: zero sketch dimension".to_string(),
            ));
        }
        let scheme = match dec.u8("sketch.scheme")? {
            0 => SketchScheme::TopTalkers,
            1 => SketchScheme::UnexpectedTalkers,
            tag => {
                return Err(CodecError::from(format!(
                    "sketch.scheme: unknown tag {tag}"
                )))
            }
        };
        let k = dec.u64("sketch.k")? as usize;
        let num_nodes = dec.u64("sketch.num_nodes")? as usize;
        let windows = dec.u64("sketch.windows")?;
        let dropped_changes = dec.u64("sketch.dropped")?;
        let set = decode_signature_set(dec)?;

        let mut stream = SemiStream::turnstile(cfg);
        let num_sources = dec.seq_len(20, "sketch.sources")?;
        let mut prev_id: Option<u32> = None;
        for _ in 0..num_sources {
            let raw = dec.u32("sketch.source.id")?;
            if prev_id.is_some_and(|p| p >= raw) {
                return Err(CodecError::from(
                    "sketch.sources: ids not strictly increasing".to_string(),
                ));
            }
            prev_id = Some(raw);
            let id = NodeId::new(raw as usize);
            let total = dec.f64("sketch.source.total")?;
            let cm_total = dec.f64("sketch.source.cm_total")?;
            let n_counters = dec.seq_len(8, "sketch.source.counters")?;
            let mut counters = Vec::with_capacity(n_counters);
            for _ in 0..n_counters {
                counters.push(dec.f64("sketch.source.counter")?);
            }
            let mut state = SemiStream::new_source(&cfg, id, true);
            state.cm.restore(counters, cm_total)?;
            state.total = total;
            let n_cands = dec.seq_len(12, "sketch.source.candidates")?;
            for _ in 0..n_cands {
                let d = NodeId::new(dec.u32("sketch.candidate.id")? as usize);
                let e = dec.f64("sketch.candidate.est")?;
                state.candidates.insert(d, e);
                stream.trackers.entry(d).or_default().insert(id);
            }
            stream.sources.insert(id, state);
        }

        match dec.u8("sketch.indeg.tag")? {
            0 => {
                let mut map = FxHashMap::default();
                let n = dec.seq_len(12, "sketch.indeg.len")?;
                for _ in 0..n {
                    let d = NodeId::new(dec.u32("sketch.indeg.id")? as usize);
                    let n_bits = dec.seq_len(8, "sketch.indeg.bitmaps")?;
                    let mut bitmaps = Vec::with_capacity(n_bits);
                    for _ in 0..n_bits {
                        bitmaps.push(dec.u64("sketch.indeg.bitmap")?);
                    }
                    let mut fm = FmSketch::new(cfg.fm_bitmaps, cfg.seed ^ 0xD15C);
                    fm.restore(bitmaps)?;
                    map.insert(d, fm);
                }
                stream.in_degree = InDegree::PerDst(map);
            }
            1 => {
                if cfg.indeg_cells == 0 {
                    return Err(CodecError::from(
                        "sketch.indeg: bounded table but indeg_cells = 0".to_string(),
                    ));
                }
                let mut table = DistinctCm::new(
                    cfg.indeg_cells,
                    cfg.indeg_depth.max(1),
                    cfg.fm_bitmaps,
                    cfg.seed ^ 0xD15C,
                );
                let n = dec.seq_len(8, "sketch.indeg.cells")?;
                if n != table.cells().len() {
                    return Err(CodecError::from(format!(
                        "sketch.indeg: {n} cells, expected {}",
                        table.cells().len()
                    )));
                }
                for cell in table.cells_mut() {
                    let n_bits = dec.seq_len(8, "sketch.indeg.bitmaps")?;
                    let mut bitmaps = Vec::with_capacity(n_bits);
                    for _ in 0..n_bits {
                        bitmaps.push(dec.u64("sketch.indeg.bitmap")?);
                    }
                    cell.restore(bitmaps)?;
                }
                stream.in_degree = InDegree::Bounded(table);
            }
            tag => return Err(CodecError::from(format!("sketch.indeg: unknown tag {tag}"))),
        }

        let n_heal = dec.seq_len(4, "sketch.healing")?;
        let mut healing = Vec::with_capacity(n_heal);
        for _ in 0..n_heal {
            let v = NodeId::new(dec.u32("sketch.healing.id")? as usize);
            if set.position(v).is_none() {
                return Err(CodecError::from(format!(
                    "sketch.healing: {v} is not a subject"
                )));
            }
            healing.push(v);
        }

        Ok(SketchTier {
            scheme,
            k,
            num_nodes,
            stream,
            set,
            degraded: Vec::new(),
            healing,
            windows,
            dropped_changes,
        })
    }
}

/// Validates one endpoint weight; `None` (absent) is always valid.
fn bad_weight(node: NodeId, w: Option<f64>) -> Option<DegradeReason> {
    let w = w?;
    if !w.is_finite() {
        Some(DegradeReason::NonFiniteOccupancy { node, value: w })
    } else if w <= 0.0 {
        Some(DegradeReason::NegativeOccupancy { node, value: w })
    } else {
        None
    }
}

impl SignatureTier for SketchTier {
    fn tier_name(&self) -> &'static str {
        "sketch"
    }

    fn advance_window(&mut self, delta: &WindowDelta) -> AdvanceReport {
        let mut dirty: FxHashSet<NodeId> = FxHashSet::default();
        let mut reasons: FxHashMap<NodeId, DegradeReason> = FxHashMap::default();
        // Subjects emptied by the previous window's degradation come
        // back dirty so their signatures re-derive from clean state.
        for v in self.healing.drain(..) {
            dirty.insert(v);
        }
        let mut tracker_buf: Vec<NodeId> = Vec::new();
        for ch in &delta.changes {
            let reason = if (ch.src.raw() as usize) >= self.num_nodes {
                Some(DegradeReason::PhantomNode {
                    node: ch.src,
                    space: self.num_nodes,
                })
            } else if (ch.dst.raw() as usize) >= self.num_nodes {
                Some(DegradeReason::PhantomNode {
                    node: ch.dst,
                    space: self.num_nodes,
                })
            } else {
                bad_weight(ch.dst, ch.old).or_else(|| bad_weight(ch.dst, ch.new))
            };
            if let Some(reason) = reason {
                self.dropped_changes += 1;
                if self.set.position(ch.src).is_some() {
                    reasons.entry(ch.src).or_insert(reason);
                    dirty.insert(ch.src);
                }
                continue;
            }
            let indeg_changed = self.stream.apply_change(ch.src, ch.dst, ch.old, ch.new);
            if self.set.position(ch.src).is_some() {
                dirty.insert(ch.src);
            }
            if self.scheme == SketchScheme::UnexpectedTalkers && indeg_changed {
                tracker_buf.clear();
                tracker_buf.extend(self.stream.trackers_of(ch.dst));
                for &t in &tracker_buf {
                    if self.set.position(t).is_some() {
                        dirty.insert(t);
                    }
                }
            }
        }

        let dirty_vec: Vec<NodeId> = self
            .set
            .subjects()
            .iter()
            .copied()
            .filter(|v| dirty.contains(v))
            .collect();
        self.degraded = dirty_vec
            .iter()
            .filter_map(|&v| reasons.get(&v).map(|r| (v, r.clone())))
            .collect();
        self.healing = self.degraded.iter().map(|&(v, _)| v).collect();
        let mut replaced = Vec::with_capacity(dirty_vec.len());
        for &v in &dirty_vec {
            let sig = if reasons.contains_key(&v) {
                Signature::empty()
            } else {
                self.extract(v)
            };
            replaced.push(self.set.replace(v, sig));
        }
        self.windows += 1;
        AdvanceReport {
            changed_edges: delta.len(),
            dirty: dirty_vec,
            replaced,
            total_subjects: self.set.len(),
            full_recompute: false,
        }
    }

    fn signatures(&self) -> &SignatureSet {
        &self.set
    }

    fn memory(&self) -> TierMemory {
        TierMemory {
            state_entries: self.stream.state_size(),
            state_bytes: self.stream.state_bytes(),
        }
    }

    /// Poisoned or phantom changes dropped so far (including ones whose
    /// source was not a subject, which degrade nobody).
    fn dropped_changes(&self) -> u64 {
        self.dropped_changes
    }

    /// Serialises the complete tier state deterministically (sorted
    /// iteration everywhere): equal states encode to equal bytes, and
    /// [`decode_state`](Self::decode_state) → `encode_state` round-trips
    /// byte-identically — the property the serve snapshot digest relies
    /// on.
    fn encode_state(&self, enc: &mut Enc) {
        let cfg = self.stream.cfg;
        enc.u64(cfg.cm_width as u64);
        enc.u64(cfg.cm_depth as u64);
        enc.u64(cfg.candidate_budget as u64);
        enc.u64(cfg.fm_bitmaps as u64);
        enc.u64(cfg.seed);
        enc.u64(cfg.indeg_cells as u64);
        enc.u64(cfg.indeg_depth as u64);
        enc.u8(match self.scheme {
            SketchScheme::TopTalkers => 0,
            SketchScheme::UnexpectedTalkers => 1,
        });
        enc.u64(self.k as u64);
        enc.u64(self.num_nodes as u64);
        enc.u64(self.windows);
        enc.u64(self.dropped_changes);
        encode_signature_set(enc, &self.set);

        let mut ids: Vec<NodeId> = self.stream.sources.keys().copied().collect();
        ids.sort_unstable();
        enc.len(ids.len());
        for id in ids {
            let s = &self.stream.sources[&id];
            enc.u32(id.raw());
            enc.f64(s.total);
            enc.f64(s.cm.total());
            enc.len(s.cm.counters().len());
            for &c in s.cm.counters() {
                enc.f64(c);
            }
            let mut cands: Vec<(NodeId, f64)> =
                s.candidates.iter().map(|(&d, &e)| (d, e)).collect();
            cands.sort_unstable_by_key(|c| c.0);
            enc.len(cands.len());
            for (d, e) in cands {
                enc.u32(d.raw());
                enc.f64(e);
            }
        }

        match &self.stream.in_degree {
            InDegree::PerDst(map) => {
                enc.u8(0);
                let mut dsts: Vec<NodeId> = map.keys().copied().collect();
                dsts.sort_unstable();
                enc.len(dsts.len());
                for d in dsts {
                    enc.u32(d.raw());
                    let fm = &map[&d];
                    enc.len(fm.bitmaps().len());
                    for &b in fm.bitmaps() {
                        enc.u64(b);
                    }
                }
            }
            InDegree::Bounded(table) => {
                enc.u8(1);
                enc.len(table.cells().len());
                for cell in table.cells() {
                    enc.len(cell.bitmaps().len());
                    for &b in cell.bitmaps() {
                        enc.u64(b);
                    }
                }
            }
        }

        enc.len(self.healing.len());
        for &v in &self.healing {
            enc.u32(v.raw());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::scheme::TopTalkers;
    use comsig_core::SignaturePipeline;
    use comsig_graph::{CommGraph, EdgeChange, EdgeEvent, SlidingWindower};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn change(src: usize, dst: usize, old: Option<f64>, new: Option<f64>) -> EdgeChange {
        EdgeChange {
            src: n(src),
            dst: n(dst),
            old,
            new,
        }
    }

    fn delta_of(changes: Vec<EdgeChange>) -> WindowDelta {
        WindowDelta {
            start: 0,
            end: 1,
            changes,
        }
    }

    fn workload_windower() -> SlidingWindower {
        let mut w = SlidingWindower::new(0, 20, 10);
        for t in 0..60u64 {
            w.push(EdgeEvent {
                time: t,
                src: n((t % 3) as usize),
                dst: n(5 + (t % 7) as usize),
                weight: 1.0 + (t % 4) as f64,
            });
        }
        w
    }

    #[test]
    fn tt_sketch_tier_tracks_exact_pipeline_on_oversized_sketches() {
        let scheme = TopTalkers;
        let subjects: Vec<NodeId> = (0..3).map(n).collect();
        let mut exact = SignaturePipeline::new(&scheme, CommGraph::empty(16), &subjects, 4);
        let mut sketch = SketchTier::new(
            SketchScheme::TopTalkers,
            StreamConfig::default(),
            &subjects,
            4,
            16,
        );
        let mut w = workload_windower();
        for _ in 0..3 {
            let delta = w.advance();
            let re = exact.advance(&delta);
            let rs = sketch.advance_window(&delta);
            assert_eq!(re.dirty, rs.dirty, "dirty sets agree");
            for (&v, (u, es)) in subjects.iter().zip(exact.signatures().iter()) {
                assert_eq!(v, u);
                let ss = sketch.signatures().get(v).expect("subject maintained");
                assert_eq!(es.len(), ss.len(), "host {v}");
                for (m, ew) in es.iter() {
                    let sw = ss.get(m).expect("member present");
                    assert!((sw - ew).abs() < 1e-9, "host {v} member {m}");
                }
            }
        }
        assert!(sketch.degraded().is_empty());
        assert_eq!(sketch.dropped_changes(), 0);
        assert_eq!(sketch.tier_name(), "sketch");
        let mem = SignatureTier::memory(&sketch);
        assert!(mem.state_entries > 0 && mem.state_bytes > mem.state_entries);
    }

    #[test]
    fn untouched_subjects_stay_bitwise_stable() {
        let subjects: Vec<NodeId> = (0..3).map(n).collect();
        let mut tier = SketchTier::new(
            SketchScheme::TopTalkers,
            StreamConfig::default(),
            &subjects,
            4,
            32,
        );
        tier.advance_window(&delta_of(vec![
            change(0, 10, None, Some(3.0)),
            change(1, 11, None, Some(2.0)),
        ]));
        let before = tier.signatures().get(n(1)).expect("present").clone();
        let report = tier.advance_window(&delta_of(vec![change(0, 12, None, Some(5.0))]));
        assert_eq!(report.dirty, vec![n(0)]);
        assert_eq!(tier.signatures().get(n(1)), Some(&before));
    }

    #[test]
    fn ut_in_degree_changes_dirty_tracking_subjects() {
        let subjects: Vec<NodeId> = (0..3).map(n).collect();
        let mut tier = SketchTier::new(
            SketchScheme::UnexpectedTalkers,
            StreamConfig::default(),
            &subjects,
            4,
            64,
        );
        // Subject 0 tracks destination 40.
        tier.advance_window(&delta_of(vec![change(0, 40, None, Some(3.0))]));
        // A *different*, non-subject source now talks to 40: subject 0's
        // UT normaliser changed, so 0 must come back dirty.
        let report = tier.advance_window(&delta_of(vec![change(9, 40, None, Some(1.0))]));
        assert_eq!(report.dirty, vec![n(0)]);
    }

    #[test]
    fn poisoned_changes_degrade_only_the_carrying_subject() {
        let subjects: Vec<NodeId> = (0..3).map(n).collect();
        let mut tier = SketchTier::new(
            SketchScheme::TopTalkers,
            StreamConfig::default(),
            &subjects,
            4,
            32,
        );
        tier.advance_window(&delta_of(vec![
            change(0, 10, None, Some(3.0)),
            change(1, 11, None, Some(2.0)),
            change(2, 12, None, Some(4.0)),
        ]));
        let healthy = tier.signatures().get(n(2)).expect("present").clone();
        let report = tier.advance_window(&delta_of(vec![
            change(0, 13, None, Some(f64::NAN)),
            change(1, 14, None, Some(-2.0)),
        ]));
        assert_eq!(report.dirty, vec![n(0), n(1)]);
        assert_eq!(tier.degraded().len(), 2);
        assert!(matches!(
            tier.degraded()[0],
            (v, DegradeReason::NonFiniteOccupancy { .. }) if v == n(0)
        ));
        assert!(matches!(
            tier.degraded()[1],
            (v, DegradeReason::NegativeOccupancy { .. }) if v == n(1)
        ));
        assert!(tier.signatures().get(n(0)).expect("present").is_empty());
        assert!(tier.signatures().get(n(1)).expect("present").is_empty());
        assert_eq!(tier.signatures().get(n(2)), Some(&healthy));
        assert_eq!(tier.dropped_changes(), 2);
        // Next clean window: the degraded subjects heal from unpoisoned
        // sketch state.
        let report = tier.advance_window(&delta_of(vec![]));
        assert_eq!(report.dirty, vec![n(0), n(1)]);
        assert!(tier.degraded().is_empty());
        assert!(!tier.signatures().get(n(0)).expect("present").is_empty());
    }

    #[test]
    fn phantom_nodes_degrade_with_the_space_reason() {
        let subjects: Vec<NodeId> = (0..2).map(n).collect();
        let mut tier = SketchTier::new(
            SketchScheme::TopTalkers,
            StreamConfig::default(),
            &subjects,
            4,
            16,
        );
        tier.advance_window(&delta_of(vec![change(0, 99, None, Some(1.0))]));
        assert!(matches!(
            tier.degraded()[0],
            (v, DegradeReason::PhantomNode { space: 16, .. }) if v == n(0)
        ));
        // Phantom *source*: no subject to pin it to; dropped silently.
        tier.advance_window(&delta_of(vec![change(99, 1, None, Some(1.0))]));
        assert!(tier.degraded().is_empty());
        assert_eq!(tier.dropped_changes(), 2);
    }

    #[test]
    fn encode_decode_round_trips_and_continues_identically() {
        for cells in [0usize, 16] {
            let cfg = StreamConfig {
                indeg_cells: cells,
                ..StreamConfig::default()
            };
            let subjects: Vec<NodeId> = (0..3).map(n).collect();
            let mut tier = SketchTier::new(SketchScheme::UnexpectedTalkers, cfg, &subjects, 4, 16);
            let mut w = workload_windower();
            for _ in 0..2 {
                tier.advance_window(&w.advance());
            }
            let mut enc = Enc::new();
            tier.encode_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let mut restored = SketchTier::decode_state(&mut dec).expect("decodes");
            dec.finish("sketch tier state").expect("fully consumed");
            let mut re = Enc::new();
            restored.encode_state(&mut re);
            assert_eq!(bytes, re.into_bytes(), "re-encode is byte-identical");
            let delta = w.advance();
            let ra = tier.advance_window(&delta);
            let rb = restored.advance_window(&delta);
            assert_eq!(ra, rb);
            for ((va, sa), (vb, sb)) in tier.signatures().iter().zip(restored.signatures().iter()) {
                assert_eq!(va, vb);
                assert_eq!(sa, sb, "cells = {cells}");
            }
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let subjects: Vec<NodeId> = (0..2).map(n).collect();
        let mut tier = SketchTier::new(
            SketchScheme::TopTalkers,
            StreamConfig::default(),
            &subjects,
            4,
            16,
        );
        tier.advance_window(&delta_of(vec![change(0, 10, None, Some(1.0))]));
        let mut enc = Enc::new();
        tier.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        // Truncation anywhere must error, never panic.
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            let mut dec = Dec::new(&bytes[..cut]);
            assert!(SketchTier::decode_state(&mut dec).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn scheme_spec_parsing() {
        assert_eq!(SketchScheme::parse("tt"), Some(SketchScheme::TopTalkers));
        assert_eq!(
            SketchScheme::parse("ut:ratio"),
            Some(SketchScheme::UnexpectedTalkers)
        );
        // Only ratio-UT is sketched: other scalings and arguments are
        // rejected rather than silently approximated as ratio-UT.
        for spec in [
            "ut:tfidf",
            "ut:log",
            "ut:novel=0.5",
            "tt:x",
            "rwr:h=2,c=0.1",
        ] {
            assert_eq!(SketchScheme::parse(spec), None, "{spec}");
        }
        assert_eq!(SketchScheme::TopTalkers.name(), "tt");
    }
}
