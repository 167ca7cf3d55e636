//! Exact sub-quadratic signature matching: the inverted postings index.
//!
//! Signatures are top-`k` sparse sets (`k = 10` in the paper), so in a
//! ranking sweep `Dist(σ_t(v), σ_{t+1}(u))` for all `u ∈ V` almost every
//! pair is disjoint and scores distance exactly 1 under every implemented
//! measure. Brute force still pays an `O(k)` merge-join per pair;
//! [`PostingsIndex`] instead maps each signature *member* node to the
//! posting list of candidates containing it, so scoring one query costs
//! one pass over the query's `k` posting lists — `O(total posting mass
//! touched)` — plus an `O(|C|)` emission of the untouched candidates at
//! literal distance 1. The dominant evaluation cost drops from
//! `O(|Q|·|C|·k)` hashing to `O(total posting mass)`.
//!
//! Exactness is not approximate-equality: both paths run the identical
//! [`BatchDistance`] `accumulate`/`finish` arithmetic over the shared
//! members in ascending node-id order (see `comsig_core::distance::batch`),
//! so indexed distances and rankings are **bit-identical** to the
//! brute-force reference (`rank_all_reference`), including tie-breaks.
//! The contract layer re-verifies this per touched candidate in debug /
//! `contracts` builds ([`contract::check_indexed_distance`]).
//!
//! ## Canonical layout
//!
//! The index's layout is a pure function of its candidate signatures:
//! member `u`'s posting list lives at slot `u.index()` of a dense
//! `Vec`, and every list is kept sorted by candidate position. An index
//! built from scratch and one patched through any history of
//! [`PostingsIndex::update`]s over the same final signatures are
//! therefore identical, not merely rank-equal
//! ([`PostingsIndex::layout_digest`] is the oracle the tests check), so
//! nothing about the index needs to be persisted: resume rebuilds it.
//!
//! The streaming pipeline changes only a dirty subset of candidate
//! signatures per window; `update` patches exactly those candidates'
//! posting entries and scalars by binary search in each touched list
//! instead of rebuilding.

use std::borrow::Cow;

use comsig_core::contract;
use comsig_core::distance::{BatchDistance, SigScalars};
use comsig_core::{Signature, SignatureSet};
use comsig_graph::NodeId;

use crate::ranking::Ranking;

pub use comsig_core::distance::MatchWorkspace;

/// An inverted index over one candidate [`SignatureSet`]: for every
/// member node, the posting list of `(candidate, weight)` pairs whose
/// signature contains it, plus precomputed per-candidate scalars
/// (`|S|`, `Σw`, `Σw²`). Built once and shared immutably across the
/// queries of a matching sweep, or owned ([`build_owned`](Self::build_owned))
/// and patched in place per streaming window via
/// [`update`](Self::update).
#[derive(Debug)]
pub struct PostingsIndex<'a> {
    candidates: Cow<'a, SignatureSet>,
    /// Per-candidate scalars, indexed by candidate position.
    scalars: Vec<SigScalars>,
    /// Candidate positions sorted by ascending subject id — the emission
    /// order of the untouched (distance-1) tail.
    id_order: Vec<u32>,
    /// Posting lists of `(candidate position, weight)`, indexed by
    /// member node id and grown to the largest member seen. Each list
    /// is strictly ascending by candidate position.
    postings: Vec<Vec<(u32, f64)>>,
    /// Total posting entries across all lists.
    posting_mass: usize,
}

impl<'a> PostingsIndex<'a> {
    /// Builds the index in `O(total members)` plus one `O(|C| log |C|)`
    /// id-order sort, borrowing the candidate set.
    #[must_use]
    pub fn build(candidates: &'a SignatureSet) -> PostingsIndex<'a> {
        Self::build_from(Cow::Borrowed(candidates))
    }

    /// Builds an index that owns its candidate set, so it can outlive
    /// the caller's borrow and be patched by [`update`](Self::update)
    /// without cloning — the shape the streaming detectors hold.
    #[must_use]
    pub fn build_owned(candidates: SignatureSet) -> PostingsIndex<'static> {
        PostingsIndex::build_from(Cow::Owned(candidates))
    }

    fn build_from(candidates: Cow<'a, SignatureSet>) -> PostingsIndex<'a> {
        let n = candidates.len();
        let mut scalars = Vec::with_capacity(n);
        let mut postings: Vec<Vec<(u32, f64)>> = Vec::new();
        let mut posting_mass = 0usize;
        // Positions are visited in ascending order, so every list comes
        // out sorted.
        for (pos, (_, sig)) in candidates.iter().enumerate() {
            scalars.push(SigScalars::of(sig));
            for (u, w) in sig.iter() {
                slot_mut(&mut postings, u).push((pos as u32, w));
                posting_mass += 1;
            }
        }
        let mut id_order: Vec<u32> = (0..n as u32).collect();
        id_order.sort_unstable_by_key(|&p| candidates.subjects()[p as usize]);
        PostingsIndex {
            candidates,
            scalars,
            id_order,
            postings,
            posting_mass,
        }
    }

    /// Replaces the signatures of the given dirty subjects, patching
    /// their posting entries and scalars in place: per dirty subject, a
    /// binary search into each touched list to drop departed members,
    /// overwrite kept ones and insert new ones, instead of an
    /// `O(total members)` rebuild. The candidate population is fixed —
    /// every dirty subject must already be in the set.
    ///
    /// The patched index is identical to one built from scratch over the
    /// updated signature set (equal [`layout_digest`](Self::layout_digest),
    /// bit-identical rankings), whatever the order of the dirty subjects.
    ///
    /// # Panics
    /// Panics if a dirty subject is not a candidate.
    pub fn update(&mut self, dirty: impl IntoIterator<Item = (NodeId, Signature)>) {
        for (v, new_sig) in dirty {
            let Some((pos, old_sig)) = self.candidates.entry(v) else {
                panic!("dirty subject {v} is not a candidate of this index");
            };
            let key = pos as u32;
            for (u, _) in old_sig.iter() {
                // Kept members are overwritten in place below.
                if new_sig.contains(u) {
                    continue;
                }
                // Every old member has a posting entry by construction;
                // if the invariant is ever violated the entry is already
                // gone, so skipping degrades gracefully instead of
                // panicking mid-stream.
                let Some(list) = self.postings.get_mut(u.index()) else {
                    continue;
                };
                if let Ok(at) = list.binary_search_by_key(&key, |&(p, _)| p) {
                    let _ = list.remove(at);
                    self.posting_mass -= 1;
                }
            }
            self.scalars[pos] = SigScalars::of(&new_sig);
            for (u, w) in new_sig.iter() {
                let list = slot_mut(&mut self.postings, u);
                match list.binary_search_by_key(&key, |&(p, _)| p) {
                    Ok(at) => list[at].1 = w,
                    Err(at) => {
                        list.insert(at, (key, w));
                        self.posting_mass += 1;
                    }
                }
            }
            let _ = self.candidates.to_mut().replace(v, new_sig);
        }
    }

    /// FNV-1a 64 digest of the index's layout: every non-empty posting
    /// list with its member id, entry order and weight bit patterns, the
    /// id-order table and the posting mass. The layout is canonical, so
    /// this is a function of the candidate signatures alone: a patched
    /// index and a cold [`build_owned`](Self::build_owned) over the same
    /// signatures digest equally.
    #[must_use]
    pub fn layout_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (u, list) in self.postings.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            fold(u as u64);
            fold(list.len() as u64);
            for &(pos, w) in list {
                fold(u64::from(pos));
                fold(w.to_bits());
            }
        }
        for &p in &self.id_order {
            fold(u64::from(p));
        }
        fold(self.posting_mass as u64);
        h
    }

    /// The candidate set the index was built over (including any
    /// [`update`](Self::update)s applied since).
    #[must_use]
    pub fn candidates(&self) -> &SignatureSet {
        &self.candidates
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

    /// Total posting mass (sum of all signature lengths) — the quantity
    /// a full matching sweep is linear in.
    #[must_use]
    pub fn posting_mass(&self) -> usize {
        self.posting_mass
    }

    /// Ranks every candidate by distance to `query` — bit-identical to
    /// [`Ranking::rank_reference`] — using a fresh workspace. Prefer
    /// [`rank_with`](PostingsIndex::rank_with) in loops.
    #[must_use]
    pub fn rank(&self, dist: &dyn BatchDistance, query: &Signature) -> Ranking {
        self.rank_with(dist, query, &mut MatchWorkspace::new())
    }

    /// Ranks every candidate by distance to `query`, reusing `ws`.
    #[must_use]
    pub fn rank_with(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        ws: &mut MatchWorkspace,
    ) -> Ranking {
        self.rank_top_l_with(dist, query, self.len(), ws)
    }

    /// The best-`l` prefix of [`rank_with`](PostingsIndex::rank_with):
    /// the merge of scored and distance-1 candidates stops as soon as
    /// `l` entries are emitted, which is what the masquerading
    /// detector's top-`ℓ` rule consumes.
    #[must_use]
    pub fn rank_top_l_with(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        l: usize,
        ws: &mut MatchWorkspace,
    ) -> Ranking {
        let mut entries = Vec::with_capacity(l.min(self.len()));
        self.rank_top_l_into(dist, query, l, ws, &mut entries);
        Ranking::from_sorted(entries)
    }

    /// [`rank_top_l_with`](PostingsIndex::rank_top_l_with) into a
    /// caller-owned buffer (cleared first), so per-query loops — the
    /// masquerade detector scores one query per suspect per window —
    /// reuse one allocation instead of materialising a fresh `Ranking`
    /// each time. The buffer holds the same `(subject, distance)`
    /// entries, in the same order, as the returned `Ranking` would.
    pub fn rank_top_l_into(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        l: usize,
        ws: &mut MatchWorkspace,
        entries: &mut Vec<(NodeId, f64)>,
    ) {
        entries.clear();
        let n = self.len();
        let l = l.min(n);
        let subjects = self.candidates.subjects();
        if query.is_empty() {
            // Empty-signature rule: distance 0 to empty candidates, 1 to
            // non-empty ones; ties break by ascending id within each band.
            for &p in &self.id_order {
                if entries.len() == l {
                    break;
                }
                if self.scalars[p as usize].is_empty() {
                    entries.push((subjects[p as usize], 0.0));
                }
            }
            for &p in &self.id_order {
                if entries.len() == l {
                    break;
                }
                if !self.scalars[p as usize].is_empty() {
                    entries.push((subjects[p as usize], 1.0));
                }
            }
            return;
        }

        self.sweep(dist, query, ws);
        let qs = SigScalars::of(query);
        // Batched epilogue: one virtual dispatch scores every touched
        // candidate (statically-dispatched `finish` inside), into the
        // workspace-owned scratch.
        let mut touched = ws.take_scored();
        dist.finish_touched(&qs, &self.scalars, ws, &mut touched);
        if contract::enabled() {
            for &(p, d) in &touched {
                let sig = self
                    .candidates
                    .get(subjects[p as usize])
                    .expect("candidate position maps to a subject");
                contract::check_indexed_distance(dist, query, sig, d);
            }
        }
        touched.sort_unstable_by(|x, y| {
            x.1.total_cmp(&y.1)
                .then(subjects[x.0 as usize].cmp(&subjects[y.0 as usize]))
        });

        // Merge the scored candidates with the untouched tail. Untouched
        // candidates carry distance exactly 1.0 (the disjoint shortcut
        // every BatchDistance::finish guarantees) and are already in
        // tie-break (ascending id) order via `id_order`.
        let mut ti = 0usize;
        let mut ui = 0usize;
        while entries.len() < l {
            while ui < n && ws.is_touched(self.id_order[ui]) {
                ui += 1;
            }
            let take_touched = if ti < touched.len() {
                if ui == n {
                    true
                } else {
                    let (tp, td) = touched[ti];
                    let uid = subjects[self.id_order[ui] as usize];
                    match td.total_cmp(&1.0) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => subjects[tp as usize] < uid,
                        std::cmp::Ordering::Greater => false,
                    }
                }
            } else {
                false
            };
            if take_touched {
                let (tp, td) = touched[ti];
                ti += 1;
                entries.push((subjects[tp as usize], td));
            } else if ui < n {
                entries.push((subjects[self.id_order[ui] as usize], 1.0));
                ui += 1;
            } else {
                break;
            }
        }
        ws.put_scored(touched);
    }

    /// Distances from `query` (at candidate position `from`) to every
    /// candidate at a position `> from`, in position order — one row of
    /// the all-pairs upper triangle, bit-identical to per-pair
    /// `dist.distance` calls.
    #[must_use]
    pub fn distances_from(
        &self,
        dist: &dyn BatchDistance,
        query: &Signature,
        from: usize,
        ws: &mut MatchWorkspace,
    ) -> Vec<f64> {
        let n = self.len();
        let mut out = Vec::with_capacity(n.saturating_sub(from + 1));
        if query.is_empty() {
            for c in &self.scalars[from + 1..] {
                out.push(if c.is_empty() { 0.0 } else { 1.0 });
            }
            return out;
        }
        self.sweep(dist, query, ws);
        let qs = SigScalars::of(query);
        for (off, c) in self.scalars[from + 1..].iter().enumerate() {
            let p = (from + 1 + off) as u32;
            let d = if ws.is_touched(p) {
                let d = dist.finish(&qs, c, &ws.inter(p));
                if contract::enabled() {
                    let subjects = self.candidates.subjects();
                    let sig = self
                        .candidates
                        .get(subjects[p as usize])
                        .expect("candidate position maps to a subject");
                    contract::check_indexed_distance(dist, query, sig, d);
                }
                d
            } else {
                // Disjoint (or candidate empty): exactly 1 under every
                // implemented distance.
                1.0
            };
            out.push(d);
        }
        out
    }

    /// One pass over the query's posting lists, accumulating the
    /// per-candidate intersection statistics into `ws`. Shared members
    /// are folded in ascending query node-id order — the same order as
    /// the brute-force merge-join, which is what makes the scores
    /// bit-identical. Each list is swept by one
    /// [`BatchDistance::accumulate_list`] call — a single virtual
    /// dispatch landing in a per-distance monomorphized lane-chunked
    /// loop, instead of one dispatch per posting entry.
    fn sweep(&self, dist: &dyn BatchDistance, query: &Signature, ws: &mut MatchWorkspace) {
        ws.begin(self.len());
        for (u, wq) in query.iter() {
            if let Some(list) = self.postings.get(u.index()) {
                dist.accumulate_list(wq, list, ws);
            }
        }
    }
}

/// The posting list of member `u`, growing the dense slot table to reach
/// it.
fn slot_mut(postings: &mut Vec<Vec<(u32, f64)>>, u: NodeId) -> &mut Vec<(u32, f64)> {
    let slot = u.index();
    if slot >= postings.len() {
        postings.resize_with(slot + 1, Vec::new);
    }
    &mut postings[slot]
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::{all_distances, Jaccard};
    use comsig_core::Signature;
    use comsig_graph::ShardPlan;
    use proptest::prelude::*;

    use crate::ann::SubjectMatcher;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sig(pairs: &[(usize, f64)]) -> Signature {
        Signature::top_k(
            n(999_999),
            pairs.iter().map(|&(i, w)| (n(i), w)),
            pairs.len().max(1),
        )
    }

    fn set(entries: Vec<(usize, Vec<(usize, f64)>)>) -> SignatureSet {
        let subjects: Vec<NodeId> = entries.iter().map(|&(v, _)| n(v)).collect();
        let sigs = entries
            .iter()
            .map(|(_, m)| {
                if m.is_empty() {
                    Signature::empty()
                } else {
                    sig(m)
                }
            })
            .collect();
        SignatureSet::new(subjects, sigs)
    }

    /// One patch round: `(subject, members)` per dirty subject, an empty
    /// member list standing for an empty signature.
    type Round = Vec<(usize, Vec<(usize, f64)>)>;

    /// Candidates in deliberately non-id construction order, with an
    /// empty signature and heavy member overlap.
    fn candidates() -> SignatureSet {
        set(vec![
            (7, vec![(10, 1.0), (11, 2.0)]),
            (0, vec![(10, 1.0), (12, 0.5)]),
            (3, vec![]),
            (5, vec![(20, 4.0)]),
            (1, vec![(11, 2.0), (12, 0.5), (13, 1.0)]),
        ])
    }

    #[test]
    fn index_layout_counts() {
        let c = candidates();
        let idx = PostingsIndex::build(&c);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
        assert_eq!(idx.posting_mass(), 8);
        assert_eq!(idx.candidates().len(), 5);
    }

    #[test]
    fn rank_matches_reference_for_every_distance() {
        let c = candidates();
        let idx = PostingsIndex::build(&c);
        let queries = [
            sig(&[(10, 1.0), (11, 1.0)]),
            sig(&[(99, 1.0)]),
            Signature::empty(),
            sig(&[(12, 0.5)]),
        ];
        for dist in all_distances() {
            for q in &queries {
                let indexed = idx.rank(dist.as_ref(), q);
                let brute = Ranking::rank_reference(dist.as_ref(), q, &c);
                assert_eq!(indexed.len(), brute.len(), "{}", dist.name());
                for (i, b) in indexed.entries().iter().zip(brute.entries()) {
                    assert_eq!(i.0, b.0, "{}", dist.name());
                    assert_eq!(i.1.to_bits(), b.1.to_bits(), "{}", dist.name());
                }
            }
        }
    }

    #[test]
    fn rank_top_l_is_rank_prefix() {
        let c = candidates();
        let idx = PostingsIndex::build(&c);
        let q = sig(&[(10, 1.0), (13, 2.0)]);
        let mut ws = MatchWorkspace::new();
        let full = idx.rank_with(&Jaccard, &q, &mut ws);
        for l in 0..=6 {
            let top = idx.rank_top_l_with(&Jaccard, &q, l, &mut ws);
            assert_eq!(top.entries(), &full.entries()[..l.min(full.len())]);
        }
    }

    #[test]
    fn distances_from_matches_pairwise() {
        let c = candidates();
        let idx = PostingsIndex::build(&c);
        let subjects = c.subjects();
        let mut ws = MatchWorkspace::new();
        for dist in all_distances() {
            for i in 0..subjects.len() {
                let a = c.get(subjects[i]).expect("subject has a signature");
                let row = idx.distances_from(dist.as_ref(), a, i, &mut ws);
                assert_eq!(row.len(), subjects.len() - i - 1);
                for (off, &d) in row.iter().enumerate() {
                    let b = c.get(subjects[i + 1 + off]).expect("subject");
                    assert_eq!(
                        d.to_bits(),
                        dist.distance(a, b).to_bits(),
                        "{}",
                        dist.name()
                    );
                }
            }
        }
    }

    /// Patching dirty candidates must leave the index indistinguishable
    /// — bit-for-bit, for every distance — from one rebuilt over the
    /// updated signature set, including updates that empty a signature,
    /// introduce brand-new member nodes, and repeated re-updates.
    #[test]
    fn update_matches_full_rebuild() {
        let mut idx = PostingsIndex::build_owned(candidates());
        let dirty_rounds: Vec<Round> = vec![
            // Overlapping members + a new member node 30.
            vec![(7, vec![(11, 3.0), (30, 1.0)]), (5, vec![(10, 2.0)])],
            // Empty a signature and revive the previously empty one.
            vec![(1, vec![]), (3, vec![(12, 1.5), (31, 0.25)])],
            // Re-update an already-updated candidate.
            vec![(7, vec![(10, 0.5)])],
        ];
        let queries = [
            sig(&[(10, 1.0), (11, 1.0)]),
            sig(&[(30, 2.0), (12, 0.5)]),
            Signature::empty(),
            sig(&[(31, 1.0)]),
        ];
        for round in dirty_rounds {
            idx.update(round.iter().map(|(v, m)| {
                let s = if m.is_empty() {
                    Signature::empty()
                } else {
                    sig(m)
                };
                (n(*v), s)
            }));
            let rebuilt = PostingsIndex::build(idx.candidates());
            assert_eq!(idx.posting_mass(), rebuilt.posting_mass());
            let mut ws_a = MatchWorkspace::new();
            let mut ws_b = MatchWorkspace::new();
            for dist in all_distances() {
                for q in &queries {
                    let a = idx.rank_with(dist.as_ref(), q, &mut ws_a);
                    let b = rebuilt.rank_with(dist.as_ref(), q, &mut ws_b);
                    assert_eq!(a.len(), b.len(), "{}", dist.name());
                    for (x, y) in a.entries().iter().zip(b.entries()) {
                        assert_eq!(x.0, y.0, "{}", dist.name());
                        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{}", dist.name());
                    }
                }
            }
        }
    }

    /// Random patch rounds of `(plan choice, dirty subjects)`: they empty
    /// signatures, revive empty ones, bring in member ids above the
    /// current maximum and re-update candidates.
    fn rounds() -> impl Strategy<Value = Vec<(usize, Round)>> {
        // Mostly overlapping members, sometimes far above the current
        // maximum member id.
        let member = (0u8..4, 10usize..16, 16usize..400, 0.25f64..4.0)
            .prop_map(|(far, near, above, w)| (if far == 0 { above } else { near }, w));
        let members = (0u8..5, collection::vec(member, 1..6)).prop_map(|(empty, m)| {
            if empty == 0 {
                Vec::new()
            } else {
                m
            }
        });
        let subject = (0usize..5).prop_map(|i| [0, 1, 3, 5, 7][i]);
        let round = (0usize..3, collection::vec((subject, members), 0..6));
        collection::vec(round, 1..6)
    }

    proptest! {
        /// A patched index equals a cold build over the same signatures
        /// after every round — equal layout digest and bit-equal
        /// rankings for every distance — with the rounds applied through
        /// the matcher seam under serial and sharded plans.
        #[test]
        fn patched_index_equals_cold_build(rounds in rounds()) {
            let mut idx = PostingsIndex::build_owned(candidates());
            let mut ws_a = MatchWorkspace::new();
            let mut ws_b = MatchWorkspace::new();
            for (plan, round) in rounds {
                let dirty = round
                    .iter()
                    .map(|(v, m)| {
                        let s = if m.is_empty() { Signature::empty() } else { sig(m) };
                        (n(*v), s)
                    })
                    .collect();
                let plan = ShardPlan::new([1, 2, 8][plan]);
                SubjectMatcher::patch(&mut idx, dirty, &plan);
                let cold = PostingsIndex::build_owned(idx.candidates().clone());
                prop_assert_eq!(idx.layout_digest(), cold.layout_digest());
                prop_assert_eq!(idx.posting_mass(), cold.posting_mass());
                let queries = [
                    sig(&[(10, 1.0), (11, 1.0)]),
                    sig(&[(12, 0.5), (17, 2.0), (399, 1.0)]),
                    Signature::empty(),
                ];
                for dist in all_distances() {
                    for q in &queries {
                        let a = idx.rank_with(dist.as_ref(), q, &mut ws_a);
                        let b = cold.rank_with(dist.as_ref(), q, &mut ws_b);
                        prop_assert_eq!(a.len(), b.len());
                        for (x, y) in a.entries().iter().zip(b.entries()) {
                            prop_assert_eq!(x.0, y.0, "{}", dist.name());
                            prop_assert_eq!(x.1.to_bits(), y.1.to_bits(), "{}", dist.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a candidate")]
    fn patch_unknown_subject_panics() {
        let mut idx = PostingsIndex::build_owned(candidates());
        SubjectMatcher::patch(
            &mut idx,
            vec![(n(99), Signature::empty())],
            &ShardPlan::new(4),
        );
    }

    #[test]
    #[should_panic(expected = "not a candidate")]
    fn update_unknown_subject_panics() {
        let mut idx = PostingsIndex::build_owned(candidates());
        idx.update([(n(99), Signature::empty())]);
    }

    #[test]
    fn workspace_epoch_discipline() {
        let mut ws = MatchWorkspace::new();
        ws.begin(4);
        ws.add(2, (1.0, 0.5));
        ws.add(2, (1.0, 0.5));
        assert!(ws.is_touched(2));
        assert!(!ws.is_touched(1));
        let acc = ws.inter(2);
        assert_eq!(acc.count, 2);
        assert!((acc.a - 2.0).abs() < 1e-15);
        assert!((acc.b - 1.0).abs() < 1e-15);
        assert_eq!(ws.touched(), &[2]);
        ws.begin(4);
        assert!(!ws.is_touched(2));
        assert!(ws.touched().is_empty());
    }
}
