//! Label masquerading detection (Sections II-D and V, Algorithm 1).
//!
//! A masquerader switches all communication from one label to another
//! between windows — the repetitive-debtor problem. The paper simulates
//! masquerading by choosing a set `P` of `f·|V|` nodes and applying a
//! bijective relabelling `E_P = {(v, u)}` to `G_{t+1}`: node `v`'s
//! communications now appear under label `u`. Detection (Algorithm 1)
//! flags label pairs `(v, u)` where both look unlike themselves across
//! time (low self-persistence) but `v`'s old signature matches `u`'s new
//! one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

use comsig_core::distance::BatchDistance;
use comsig_core::scheme::SignatureScheme;
use comsig_core::SignatureSet;
use comsig_eval::ann::SubjectMatcher;
use comsig_eval::index::PostingsIndex;
use comsig_graph::{CommGraph, GraphBuilder, NodeId, ShardPlan};

use crate::stream::SelfDistances;

fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

/// A simulated masquerade: the bijective relabelling applied to `G_{t+1}`.
#[derive(Debug, Clone)]
pub struct MasqueradePlan {
    /// The relabelling pairs `(v, u)`: `v`'s communications in `G_{t+1}`
    /// appear under label `u`. Every node in `P` occurs exactly once as a
    /// source and once as a target, with no fixed points.
    pub mapping: Vec<(NodeId, NodeId)>,
}

impl MasqueradePlan {
    /// The perturbed node set `P`.
    pub fn perturbed_nodes(&self) -> Vec<NodeId> {
        self.mapping.iter().map(|&(v, _)| v).collect()
    }
}

/// Draws a masquerade plan: selects `⌊f·|candidates|⌋` nodes (at least 2
/// when `f > 0`) and builds a fixed-point-free bijection on them via a
/// random cyclic rotation of a shuffled order.
pub fn plan_masquerade(candidates: &[NodeId], fraction: f64, seed: u64) -> MasqueradePlan {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0,1], got {fraction}"
    );
    let mut count = (fraction * candidates.len() as f64).floor() as usize;
    if fraction > 0.0 {
        count = count.max(2);
    }
    count = count.min(candidates.len());
    if count < 2 {
        return MasqueradePlan {
            mapping: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = candidates.to_vec();
    shuffle(&mut rng, &mut pool);
    pool.truncate(count);
    // Cyclic rotation: v_i -> v_{i+1}. Fixed-point-free by construction.
    let mapping = (0..count)
        .map(|i| (pool[i], pool[(i + 1) % count]))
        .collect();
    MasqueradePlan { mapping }
}

/// Applies a masquerade plan to a graph: every edge `(v, dst)` with `v`
/// in the plan is rewritten as `(new_label(v), dst)`. Labels outside the
/// plan keep their edges. (Since `E_P` is a bijection on `P`, traffic
/// volumes are conserved.)
pub fn apply_masquerade(g: &CommGraph, plan: &MasqueradePlan) -> CommGraph {
    let remap: FxHashMap<NodeId, NodeId> = plan.mapping.iter().copied().collect();
    let mut builder = GraphBuilder::with_edge_capacity(g.num_edges());
    for e in g.edges() {
        let src = remap.get(&e.src).copied().unwrap_or(e.src);
        builder.add_event(src, e.dst, e.weight);
    }
    builder.build(g.num_nodes())
}

/// Parameters of the Algorithm 1 detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Signature length `k`.
    pub k: usize,
    /// The divisor `c` of the adaptive threshold `δ = mean self-similarity / c`
    /// (the paper used `c ∈ {3, 5, 7}` and reported `c = 5`).
    pub threshold_divisor: f64,
    /// How many top cross-matches to consider per suspect (`ℓ`).
    pub top_l: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            k: 10,
            threshold_divisor: 5.0,
            top_l: 3,
        }
    }
}

/// Output of Algorithm 1.
#[derive(Debug, Clone)]
pub struct Detection {
    /// `M`: labels classified as non-masqueraders.
    pub non_suspects: Vec<NodeId>,
    /// `O_P`: detected pairs `(v, u)` — `v`'s communications are believed
    /// to continue under label `u`.
    pub detected: Vec<(NodeId, NodeId)>,
    /// The adaptive persistence threshold `δ` that was used.
    pub delta: f64,
}

/// The paper's `DETECTLABELMASQUERADING(G_t, G_{t+1})` (Algorithm 1).
///
/// 1. `δ` := (mean self-similarity across time) / `threshold_divisor`.
/// 2. Labels with self-similarity `> δ` are non-suspects.
/// 3. For each suspect `v`: find the labels `u` whose window-`t+1`
///    signature best matches `v`'s window-`t` signature. If one of `v`'s
///    top-ℓ matches `u ≠ v` is itself a suspect (`A[u,u] ≤ δ`), report
///    `(v, u)`; otherwise `v` joins the non-suspects.
pub fn detect_label_masquerading(
    scheme: &dyn SignatureScheme,
    dist: &dyn BatchDistance,
    g_t: &CommGraph,
    g_t1: &CommGraph,
    subjects: &[NodeId],
    cfg: &DetectorConfig,
) -> Detection {
    let sigs_t = scheme.signature_set(g_t, subjects, cfg.k);
    let sigs_t1 = scheme.signature_set(g_t1, subjects, cfg.k);
    let index = PostingsIndex::build(&sigs_t1);
    run_algorithm1_with(dist, &sigs_t, &index, cfg, &ShardPlan::new(1))
}

/// Algorithm 1 at the signature level: the window-`t` signatures against
/// a matcher over the window-`t+1` signatures of the same subjects,
/// sharded per `plan`. Pass a [`PostingsIndex`] for the exact tier or an
/// [`AnnIndex`](comsig_eval::ann::AnnIndex) for LSH-fronted candidate
/// generation with exact re-scoring. Bit-identical at every thread count.
///
/// The reference sweep, over two full signature sets: the streaming
/// detector's [`SelfDistances::sweep`] reads one set and the signatures
/// its advance replaced, and must equal this bit for bit.
pub fn run_algorithm1_with<M: SubjectMatcher + ?Sized>(
    dist: &dyn BatchDistance,
    sigs_t: &SignatureSet,
    index_t1: &M,
    cfg: &DetectorConfig,
    plan: &ShardPlan,
) -> Detection {
    let subjects = sigs_t.subjects();
    let sigs_t1 = index_t1.candidate_set();
    let ranges = plan.ranges(subjects.len());
    // Self-distances Dist(σ_t(v), σ_{t+1}(v)), in subject order.
    let distances: Vec<f64> = rayon::scope_chunks(&ranges, |_, r| {
        subjects[r]
            .iter()
            .map(|&v| {
                // A subject missing from either window cannot be
                // compared; treating it as fully self-similar (distance
                // 0, sim 1.0) keeps it clear of the suspect set instead
                // of panicking. Both sets cover `subjects` by
                // construction, so this is pure degradation armor.
                match (sigs_t.get(v), sigs_t1.get(v)) {
                    (Some(a), Some(b)) => dist.distance(a, b),
                    _ => 0.0,
                }
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    SelfDistances {
        order: sigs_t,
        previous: sigs_t.signatures().iter().collect(),
        distances,
    }
    .algorithm1(dist, index_t1, cfg, plan)
}

/// The paper's accuracy criterion:
/// `(|M ∩ (V−P)| + |O_P ∩ E_P|) / |V|` — the fraction of labels either
/// correctly cleared or correctly re-identified with their new label.
pub fn accuracy(detection: &Detection, plan: &MasqueradePlan, num_subjects: usize) -> f64 {
    assert!(num_subjects > 0, "need at least one subject");
    let perturbed: std::collections::HashSet<NodeId> = plan.perturbed_nodes().into_iter().collect();
    let correct_clear = detection
        .non_suspects
        .iter()
        .filter(|v| !perturbed.contains(v))
        .count();
    let truth: std::collections::HashSet<(NodeId, NodeId)> = plan.mapping.iter().copied().collect();
    let correct_pairs = detection
        .detected
        .iter()
        .filter(|&&(v, u)| truth.contains(&(v, u)))
        .count();
    (correct_clear + correct_pairs) as f64 / num_subjects as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Stable two-window world: hosts 0..4 each with a distinctive
    /// destination set among externals 10..30.
    fn window(seed_shift: usize) -> CommGraph {
        let mut b = GraphBuilder::new();
        for host in 0..5 {
            for j in 0..4 {
                let dst = 10 + host * 4 + j;
                // Weights vary slightly across windows but sets persist.
                b.add_event(n(host), n(dst), (j + 1 + seed_shift % 2) as f64);
            }
        }
        b.build(30)
    }

    #[test]
    fn plan_is_fixed_point_free_bijection() {
        let candidates: Vec<NodeId> = (0..20).map(n).collect();
        let plan = plan_masquerade(&candidates, 0.5, 7);
        assert_eq!(plan.mapping.len(), 10);
        let mut sources: Vec<_> = plan.mapping.iter().map(|&(v, _)| v).collect();
        let mut targets: Vec<_> = plan.mapping.iter().map(|&(_, u)| u).collect();
        sources.sort_unstable();
        targets.sort_unstable();
        assert_eq!(sources, targets, "must be a bijection on P");
        for &(v, u) in &plan.mapping {
            assert_ne!(v, u, "no fixed points");
        }
    }

    #[test]
    fn plan_zero_fraction_is_empty() {
        let candidates: Vec<NodeId> = (0..10).map(n).collect();
        assert!(plan_masquerade(&candidates, 0.0, 1).mapping.is_empty());
    }

    #[test]
    fn plan_minimum_two_nodes() {
        let candidates: Vec<NodeId> = (0..100).map(n).collect();
        let plan = plan_masquerade(&candidates, 0.01, 1);
        assert_eq!(plan.mapping.len(), 2);
    }

    #[test]
    fn apply_moves_traffic() {
        let g = window(0);
        let plan = MasqueradePlan {
            mapping: vec![(n(0), n(1)), (n(1), n(0))],
        };
        let g2 = apply_masquerade(&g, &plan);
        // Node 0's old destinations now belong to node 1.
        assert!(g2.has_edge(n(1), n(10)));
        assert!(g2.has_edge(n(0), n(14)));
        assert!(!g2.has_edge(n(0), n(10)));
        // Unaffected node keeps its edges.
        assert!(g2.has_edge(n(2), n(18)));
        assert_eq!(g2.total_weight(), g.total_weight());
    }

    #[test]
    fn detector_clears_stable_population() {
        let g1 = window(0);
        let g2 = window(1);
        let subjects: Vec<NodeId> = (0..5).map(n).collect();
        let det = detect_label_masquerading(
            &TopTalkers,
            &SHel,
            &g1,
            &g2,
            &subjects,
            &DetectorConfig::default(),
        );
        assert_eq!(det.non_suspects.len(), 5);
        assert!(det.detected.is_empty());
        let plan = MasqueradePlan { mapping: vec![] };
        assert_eq!(accuracy(&det, &plan, 5), 1.0);
    }

    #[test]
    fn detector_recovers_a_swap() {
        let g1 = window(0);
        let plan = MasqueradePlan {
            mapping: vec![(n(0), n(1)), (n(1), n(0))],
        };
        let g2 = apply_masquerade(&window(1), &plan);
        let subjects: Vec<NodeId> = (0..5).map(n).collect();
        let det = detect_label_masquerading(
            &TopTalkers,
            &SHel,
            &g1,
            &g2,
            &subjects,
            &DetectorConfig::default(),
        );
        let detected: std::collections::HashSet<_> = det.detected.iter().copied().collect();
        assert!(detected.contains(&(n(0), n(1))), "detected = {detected:?}");
        assert!(detected.contains(&(n(1), n(0))));
        let acc = accuracy(&det, &plan, 5);
        assert_eq!(acc, 1.0, "all hosts correctly classified");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_rejected() {
        let _ = plan_masquerade(&[n(0)], 1.5, 1);
    }
}
