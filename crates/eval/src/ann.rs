//! LSH-fronted approximate matching: the candidate-generation seam.
//!
//! The exact matcher ([`PostingsIndex`]) scores every candidate whose
//! signature shares a member with the query — already sub-linear on
//! sparse populations, but still Ω(collisions) per query and exact by
//! construction. Section VI's pointer to Indyk–Motwani LSH trades
//! recall for time: a banded MinHash index proposes a small survivor
//! set, the survivors are **re-scored with the exact distance**, and
//! everything the bands never surfaced is assumed far (distance 1).
//!
//! [`SubjectMatcher`] is the seam both matchers implement. Algorithm 1
//! ([`run_algorithm1_with`](../../comsig_apps/masquerade/fn.run_algorithm1_with.html)),
//! [`rank_all_approx`](crate::matcher::rank_all_approx) and
//! [`pairwise_distances_approx`](crate::matcher::pairwise_distances_approx)
//! are generic over it, so the tier choice is one constructor swap.
//!
//! ## Error contract
//!
//! * Survivor distances are exact (`dist.distance`, contract-checked) —
//!   the approximation never mis-scores a retrieved pair, it only
//!   *misses* pairs. Misses are one-sided: a missed pair is reported at
//!   the maximal distance 1, never closer than the truth.
//! * A pair with Jaccard similarity `s` survives with probability
//!   `1 − (1 − s^r)^b` — tune recall with [`AnnConfig::bands`] /
//!   [`AnnConfig::rows`]. The default (32 bands × 4 rows) puts the
//!   S-curve threshold at `(1/32)^{1/4} ≈ 0.42` similarity.
//! * Empty queries follow the exact matcher's empty rule verbatim
//!   (distance 0 to empty candidates, 1 to the rest, ties by id), so
//!   degraded subjects rank identically on both tiers.

use rustc_hash::FxHashSet;

use comsig_core::distance::BatchDistance;
use comsig_core::persist::Fnv;
use comsig_core::{Signature, SignatureSet};
use comsig_graph::{NodeId, ShardPlan};
use comsig_sketch::lsh::LshIndex;
use serde::{Deserialize, Serialize};

use crate::index::{MatchWorkspace, PostingsIndex};

/// Banded-LSH parameters for the approximate matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Number of bands `b`.
    pub bands: usize,
    /// Rows per band `r` (the MinHasher uses `b·r` hash functions).
    pub rows: usize,
    /// Seed for the MinHash and band hash functions.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            bands: 32,
            rows: 4,
            seed: 9,
        }
    }
}

impl AnnConfig {
    /// The similarity threshold `(1/b)^{1/r}` of the banding S-curve.
    #[must_use]
    pub fn similarity_threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }
}

/// The matcher seam: rank candidates against a query, patch dirty
/// signatures in place. [`PostingsIndex`] is the exact implementation;
/// [`AnnIndex`] the LSH-fronted approximate one. Object-safe, so a
/// pipeline can hold `Box<dyn SubjectMatcher>` and pick the tier at
/// runtime.
pub trait SubjectMatcher: Send + Sync {
    /// The candidate signatures this matcher ranks against.
    fn candidate_set(&self) -> &SignatureSet;

    /// The best-`l` candidates for `query`, ascending distance with ties
    /// by id, into a caller-owned buffer (cleared first).
    fn rank_top_l_into(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        l: usize,
        ws: &mut MatchWorkspace,
        entries: &mut Vec<(NodeId, f64)>,
    );

    /// Replaces the signatures of dirty subjects in place. The
    /// population is fixed: every dirty subject must already be a
    /// candidate.
    ///
    /// # Panics
    /// Panics if a dirty subject is not a candidate.
    fn patch(&mut self, dirty: Vec<(NodeId, Signature)>, plan: &ShardPlan);

    /// Logical entries held — the matcher's memory axis in
    /// `bench_snapshot`.
    fn memory_entries(&self) -> usize;

    /// Folds the matcher's own state into a state digest. Nothing by
    /// default. Every matcher is a function of its candidates and is
    /// rebuilt on resume, never persisted.
    fn digest_state(&self, _h: &mut Fnv) {}
}

impl SubjectMatcher for PostingsIndex<'_> {
    fn candidate_set(&self) -> &SignatureSet {
        self.candidates()
    }

    fn rank_top_l_into(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        l: usize,
        ws: &mut MatchWorkspace,
        entries: &mut Vec<(NodeId, f64)>,
    ) {
        PostingsIndex::rank_top_l_into(self, dist, query, l, ws, entries);
    }

    fn patch(&mut self, dirty: Vec<(NodeId, Signature)>, _plan: &ShardPlan) {
        self.update(dirty);
    }

    fn memory_entries(&self) -> usize {
        self.posting_mass() + self.len()
    }

    /// The canonical postings layout, a function of the candidates.
    fn digest_state(&self, h: &mut Fnv) {
        h.write_u64(self.layout_digest());
    }
}

/// The approximate matcher: a banded-LSH index proposing survivors that
/// are re-scored exactly. See the [module docs](self) for the error
/// contract.
#[derive(Debug)]
pub struct AnnIndex {
    candidates: SignatureSet,
    lsh: LshIndex,
    /// Candidate ids ascending — the tie-break / untouched-tail order,
    /// mirroring the exact matcher's `id_order`.
    sorted_ids: Vec<NodeId>,
}

impl AnnIndex {
    /// Builds the LSH index over a candidate set.
    #[must_use]
    pub fn build(candidates: &SignatureSet, cfg: AnnConfig) -> AnnIndex {
        AnnIndex::build_owned(candidates.clone(), cfg)
    }

    /// [`build`](AnnIndex::build) taking ownership — the streaming
    /// detector hands the window's signatures over instead of cloning.
    #[must_use]
    pub fn build_owned(candidates: SignatureSet, cfg: AnnConfig) -> AnnIndex {
        let mut lsh = LshIndex::new(cfg.bands, cfg.rows, cfg.seed);
        lsh.insert_set(&candidates);
        let mut sorted_ids = candidates.subjects().to_vec();
        sorted_ids.sort_unstable();
        AnnIndex {
            candidates,
            lsh,
            sorted_ids,
        }
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the candidate set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The banded-LSH front.
    #[must_use]
    pub fn lsh(&self) -> &LshIndex {
        &self.lsh
    }

    /// Approximate distances from `query` (at candidate position `from`)
    /// to every candidate at a position `> from`, in position order —
    /// the approximate row of the all-pairs upper triangle. Survivors
    /// carry their exact distance; missed pairs are reported at 1.0.
    #[must_use]
    pub fn distances_from(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        from: usize,
    ) -> Vec<f64> {
        let n = self.candidates.len();
        let mut out;
        if query.is_empty() {
            out = Vec::with_capacity(n.saturating_sub(from + 1));
            for &u in &self.candidates.subjects()[from + 1..] {
                let empty = self.candidates.get(u).is_some_and(Signature::is_empty);
                out.push(if empty { 0.0 } else { 1.0 });
            }
            return out;
        }
        out = vec![1.0; n.saturating_sub(from + 1)];
        for u in self.lsh.candidates(query) {
            let Some((pos, sig)) = self.candidates.entry(u) else {
                continue;
            };
            if pos > from {
                out[pos - from - 1] = dist.distance(query, sig);
            }
        }
        out
    }
}

/// Persists nothing: the LSH front is a pure function of the candidate
/// signatures and [`AnnConfig`], so resume rebuilds it.
impl SubjectMatcher for AnnIndex {
    fn candidate_set(&self) -> &SignatureSet {
        &self.candidates
    }

    fn rank_top_l_into(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        l: usize,
        _ws: &mut MatchWorkspace,
        entries: &mut Vec<(NodeId, f64)>,
    ) {
        entries.clear();
        let l = l.min(self.candidates.len());
        if query.is_empty() {
            // Exact empty rule: empty candidates first at 0, the rest at
            // 1, ties by ascending id within each band.
            for &u in &self.sorted_ids {
                if entries.len() == l {
                    break;
                }
                if self.candidates.get(u).is_some_and(Signature::is_empty) {
                    entries.push((u, 0.0));
                }
            }
            for &u in &self.sorted_ids {
                if entries.len() == l {
                    break;
                }
                if !self.candidates.get(u).is_some_and(Signature::is_empty) {
                    entries.push((u, 1.0));
                }
            }
            return;
        }

        // Survivors: band collisions, re-scored with the exact distance.
        let survivors = self.lsh.candidates(query);
        let mut scored: Vec<(NodeId, f64)> = survivors
            .iter()
            .filter_map(|&u| {
                let sig = self.candidates.get(u)?;
                Some((u, dist.distance(query, sig)))
            })
            .collect();
        scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        // Merge with the missed tail at literal 1.0, ascending id — the
        // same merge rule as the exact matcher's untouched tail. Both
        // `survivors` and `sorted_ids` are ascending, so a two-pointer
        // skip excludes survivors from the tail without any hashing.
        let mut ti = 0usize;
        let mut ui = 0usize;
        let mut si = 0usize;
        let n = self.sorted_ids.len();
        while entries.len() < l {
            while ui < n {
                while si < survivors.len() && survivors[si] < self.sorted_ids[ui] {
                    si += 1;
                }
                if si < survivors.len() && survivors[si] == self.sorted_ids[ui] {
                    ui += 1;
                } else {
                    break;
                }
            }
            let take_scored = if ti < scored.len() {
                if ui == n {
                    true
                } else {
                    let (tu, td) = scored[ti];
                    match td.total_cmp(&1.0) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => tu < self.sorted_ids[ui],
                        std::cmp::Ordering::Greater => false,
                    }
                }
            } else {
                false
            };
            if take_scored {
                entries.push(scored[ti]);
                ti += 1;
            } else if ui < n {
                entries.push((self.sorted_ids[ui], 1.0));
                ui += 1;
            } else {
                break;
            }
        }
    }

    fn patch(&mut self, dirty: Vec<(NodeId, Signature)>, _plan: &ShardPlan) {
        for (v, sig) in dirty {
            assert!(
                self.candidates.get(v).is_some(),
                "dirty subject {v} is not a candidate of this index"
            );
            self.lsh.update(v, &sig);
            let _ = self.candidates.replace(v, sig);
        }
    }

    fn memory_entries(&self) -> usize {
        let sig_entries: usize = self.candidates.iter().map(|(_, s)| s.len()).sum();
        self.lsh.memory_entries() + sig_entries
    }
}

/// Mean top-`l` recall of `approx` rankings against `exact` ones, paired
/// by query order: for each query, the fraction of the exact top-`l`
/// subjects the approximate matcher also placed in its top-`l`.
#[must_use]
pub fn top_l_recall(
    exact: &[(NodeId, crate::ranking::Ranking)],
    approx: &[(NodeId, crate::ranking::Ranking)],
    l: usize,
) -> f64 {
    assert_eq!(exact.len(), approx.len(), "rankings must pair up");
    if exact.is_empty() || l == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    for ((qe, re), (qa, ra)) in exact.iter().zip(approx) {
        assert_eq!(qe, qa, "rankings must pair up by query");
        let truth: FxHashSet<NodeId> = re.entries().iter().take(l).map(|&(u, _)| u).collect();
        if truth.is_empty() {
            total += 1.0;
            continue;
        }
        let hit = ra
            .entries()
            .iter()
            .take(l)
            .filter(|&&(u, _)| truth.contains(&u))
            .count();
        total += hit as f64 / truth.len() as f64;
    }
    total / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{rank_all, rank_all_approx};
    use comsig_core::distance::{Jaccard, SHel};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sig(ids: &[usize]) -> Signature {
        Signature::top_k(
            n(999_999),
            ids.iter().map(|&i| (n(i), 1.0)),
            ids.len().max(1),
        )
    }

    /// 40 near-duplicate pairs over disjoint member universes.
    fn twin_population() -> SignatureSet {
        let mut subjects = Vec::new();
        let mut sigs = Vec::new();
        for p in 0..40usize {
            let base: Vec<usize> = (0..10).map(|j| 1000 * p + j).collect();
            let mut twin = base.clone();
            twin[9] = 1000 * p + 99;
            subjects.push(n(2 * p));
            sigs.push(sig(&base));
            subjects.push(n(2 * p + 1));
            sigs.push(sig(&twin));
        }
        SignatureSet::new(subjects, sigs)
    }

    #[test]
    fn survivors_carry_exact_distances() {
        let set = twin_population();
        let ann = AnnIndex::build(&set, AnnConfig::default());
        let exact = PostingsIndex::build(&set);
        let mut ws = MatchWorkspace::new();
        let (mut a_top, mut e_top) = (Vec::new(), Vec::new());
        let q = set.get(n(0)).expect("query");
        SubjectMatcher::rank_top_l_into(&ann, &Jaccard, q, 3, &mut ws, &mut a_top);
        SubjectMatcher::rank_top_l_into(&exact, &Jaccard, q, 3, &mut ws, &mut e_top);
        // The twin (id 1) has Jaccard similarity 9/11 — far above the
        // banding threshold, so it survives and scores identically.
        assert_eq!(a_top[0], e_top[0], "self match");
        assert_eq!(a_top[1], e_top[1], "twin match");
        assert_eq!(a_top[1].0, n(1));
        assert_eq!(a_top[1].1.to_bits(), e_top[1].1.to_bits());
    }

    #[test]
    fn missed_pairs_degrade_to_distance_one() {
        let set = twin_population();
        let ann = AnnIndex::build(&set, AnnConfig::default());
        let mut ws = MatchWorkspace::new();
        let mut top = Vec::new();
        let q = set.get(n(0)).expect("query");
        let l = set.len();
        SubjectMatcher::rank_top_l_into(&ann, &Jaccard, q, l, &mut ws, &mut top);
        assert_eq!(top.len(), l);
        // Disjoint pairs never score below their true distance of 1.
        for &(u, d) in &top {
            if u.raw() >= 2 {
                assert_eq!(d, 1.0, "disjoint candidate {u} scored {d}");
            }
        }
        // The tail is in ascending id order.
        let tail: Vec<NodeId> = top
            .iter()
            .filter(|&&(_, d)| d == 1.0)
            .map(|&(u, _)| u)
            .collect();
        let mut sorted = tail.clone();
        sorted.sort_unstable();
        assert_eq!(tail, sorted);
    }

    #[test]
    fn empty_query_follows_the_exact_rule() {
        let set = SignatureSet::new(
            vec![n(3), n(1), n(2)],
            vec![sig(&[7]), Signature::empty(), sig(&[8])],
        );
        let ann = AnnIndex::build(&set, AnnConfig::default());
        let exact = PostingsIndex::build(&set);
        let mut ws = MatchWorkspace::new();
        let (mut a_top, mut e_top) = (Vec::new(), Vec::new());
        let q = Signature::empty();
        SubjectMatcher::rank_top_l_into(&ann, &SHel, &q, 3, &mut ws, &mut a_top);
        SubjectMatcher::rank_top_l_into(&exact, &SHel, &q, 3, &mut ws, &mut e_top);
        assert_eq!(a_top, e_top);
        assert_eq!(a_top[0], (n(1), 0.0));
    }

    #[test]
    fn patch_matches_cold_rebuild() {
        let set = twin_population();
        let mut ann = AnnIndex::build(&set, AnnConfig::default());
        let mut updated = set.clone();
        let fresh: Vec<usize> = (0..10).map(|j| 77_000 + j).collect();
        let _ = updated.replace(n(0), sig(&fresh));
        ann.patch(vec![(n(0), sig(&fresh))], &ShardPlan::new(1));
        let rebuilt = AnnIndex::build(&updated, AnnConfig::default());
        let mut ws = MatchWorkspace::new();
        let (mut a_top, mut r_top) = (Vec::new(), Vec::new());
        for &v in updated.subjects() {
            let q = updated.get(v).expect("sig");
            SubjectMatcher::rank_top_l_into(&ann, &Jaccard, q, 5, &mut ws, &mut a_top);
            SubjectMatcher::rank_top_l_into(&rebuilt, &Jaccard, q, 5, &mut ws, &mut r_top);
            assert_eq!(a_top, r_top, "query {v}");
        }
        assert_eq!(ann.memory_entries(), rebuilt.memory_entries());
    }

    #[test]
    #[should_panic(expected = "not a candidate")]
    fn patch_unknown_subject_panics() {
        let set = twin_population();
        let mut ann = AnnIndex::build(&set, AnnConfig::default());
        ann.patch(vec![(n(9999), sig(&[1]))], &ShardPlan::new(1));
    }

    #[test]
    fn recall_on_twin_population_meets_default_target() {
        let set = twin_population();
        let exact = rank_all(&Jaccard, &set, &set);
        let approx = rank_all_approx(&Jaccard, &set, &set, AnnConfig::default());
        let r = top_l_recall(&exact, &approx, 3);
        assert!(r >= 0.95, "top-3 recall {r}");
        assert_eq!(top_l_recall(&exact, &exact, 3), 1.0);
    }

    #[test]
    fn postings_index_implements_the_seam() {
        let set = twin_population();
        let mut index = PostingsIndex::build_owned(set.clone());
        let m: &mut dyn SubjectMatcher = &mut index;
        assert_eq!(m.candidate_set().len(), set.len());
        assert!(m.memory_entries() > 0);
        let fresh: Vec<usize> = (0..10).map(|j| 88_000 + j).collect();
        m.patch(vec![(n(0), sig(&fresh))], &ShardPlan::new(1));
        assert_eq!(m.candidate_set().get(n(0)).expect("sig").len(), fresh.len());
    }

    /// The exact index folds its layout digest into the state digest;
    /// the LSH front contributes nothing.
    #[test]
    fn only_the_postings_layout_enters_durable_state() {
        let set = twin_population();
        let index = PostingsIndex::build_owned(set.clone());
        let ann = AnnIndex::build(&set, AnnConfig::default());
        let state = |m: &dyn SubjectMatcher| {
            let mut h = Fnv::new();
            m.digest_state(&mut h);
            h.finish()
        };
        let mut layout_only = Fnv::new();
        layout_only.write_u64(index.layout_digest());
        assert_eq!(state(&index), layout_only.finish());
        assert_eq!(state(&ann), Fnv::new().finish());
    }

    #[test]
    fn threshold_formula() {
        let cfg = AnnConfig::default();
        assert!((cfg.similarity_threshold() - (1.0f64 / 32.0).powf(0.25)).abs() < 1e-12);
    }
}
