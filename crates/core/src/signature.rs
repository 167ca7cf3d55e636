//! The signature type (Definition 1 of the paper).

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use comsig_graph::NodeId;

/// A communication-graph signature: the top-`k` `(node, weight)` pairs
/// under some relevancy function, for one subject node.
///
/// Entries are stored sorted by **node id** so that distance functions can
/// merge-join two signatures in `O(k)`; the top-`k`-by-weight selection
/// happens once, at construction. Weights are strictly positive — the
/// paper's Definition 1 restricts weights to `ℝ⁺`, and a zero-relevance
/// node carries no information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    /// `(node, weight)` sorted by ascending node id, weights > 0.
    entries: Vec<(NodeId, f64)>,
}

impl Signature {
    /// An empty signature (a node with no observed communication).
    #[must_use]
    pub fn empty() -> Self {
        Signature {
            entries: Vec::new(),
        }
    }

    /// Rebuilds a signature from entries already in canonical form —
    /// strictly ascending node ids with finite positive weights — as
    /// produced by [`iter`](Self::iter). This is the deserialisation
    /// constructor: it validates instead of re-selecting, so a persisted
    /// signature round-trips bit-identically.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant; it never
    /// panics (it runs on the recovery path).
    pub fn from_sorted_entries(entries: Vec<(NodeId, f64)>) -> Result<Self, String> {
        let mut last: Option<NodeId> = None;
        for &(u, w) in &entries {
            if last.is_some_and(|p| p >= u) {
                return Err("signature entries not strictly ascending by node id".into());
            }
            last = Some(u);
            if !(w.is_finite() && w > 0.0) {
                return Err(format!("signature entry {u} has invalid weight {w}"));
            }
        }
        let sig = Signature { entries };
        crate::contract::check_signature(&sig);
        Ok(sig)
    }

    /// Builds a signature for subject `v` by selecting the `k` candidates
    /// with the largest weights (Definition 1).
    ///
    /// * the subject `v` itself is excluded (`u ≠ v` in the definition);
    /// * candidates with non-positive or non-finite weight are dropped;
    /// * ties are broken deterministically by smaller node id (the paper
    ///   allows arbitrary tie-breaking);
    /// * duplicate candidate nodes are summed before selection.
    #[must_use]
    pub fn top_k(
        subject: NodeId,
        candidates: impl IntoIterator<Item = (NodeId, f64)>,
        k: usize,
    ) -> Self {
        let mut merged: FxHashMap<NodeId, f64> = FxHashMap::default();
        for (u, w) in candidates {
            if u != subject && w.is_finite() && w > 0.0 {
                *merged.entry(u).or_insert(0.0) += w;
            }
        }
        let mut entries: Vec<(NodeId, f64)> = merged.into_iter().collect();
        // Weights are filtered to positive finite above, where total_cmp
        // and partial_cmp agree — and total_cmp never panics.
        let rank = |a: &(NodeId, f64), b: &(NodeId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        // Only the k survivors matter and they get re-sorted by id below,
        // so an O(n) partial selection beats the O(n log n) full sort
        // whenever the candidate set is larger than k (multi-hop schemes
        // produce hundreds of candidates for k ~ 10).
        if k > 0 && k < entries.len() {
            entries.select_nth_unstable_by(k - 1, rank);
            entries.truncate(k);
        } else {
            entries.truncate(k);
        }
        entries.sort_unstable_by_key(|&(u, _)| u);
        let sig = Signature { entries };
        crate::contract::check_signature(&sig);
        sig
    }

    /// [`top_k`](Signature::top_k) for **duplicate-free** candidates in
    /// any order — the shape every `RwrWorkspace` extraction has. Skips
    /// the hash-map merge entirely and runs the filter + partial
    /// selection **in place** on the caller's scratch buffer
    /// (destructively), so the only allocation is the signature's own
    /// exact-size entry vector. Candidates need not be id-sorted: only
    /// the ≤ `k` survivors are sorted at the end, which is what lets
    /// the batched engine hand over occupancies in accumulator touch
    /// order instead of paying an O(t log t) sort per subject.
    ///
    /// Produces bit-identical signatures to `top_k` on the same
    /// candidates: with unique ids the merge is the identity, and the
    /// rank comparator is a strict total order, so the selected top-`k`
    /// set — and the final id-sorted entry list — is unique regardless
    /// of traversal order.
    #[must_use]
    pub fn top_k_scratch(subject: NodeId, candidates: &mut Vec<(NodeId, f64)>, k: usize) -> Self {
        candidates.retain(|&(u, w)| u != subject && w.is_finite() && w > 0.0);
        let rank = |a: &(NodeId, f64), b: &(NodeId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if k > 0 && k < candidates.len() {
            candidates.select_nth_unstable_by(k - 1, rank);
            candidates.truncate(k);
        } else {
            candidates.truncate(k);
        }
        candidates.sort_unstable_by_key(|&(u, _)| u);
        debug_assert!(
            candidates.windows(2).all(|p| p[0].0 < p[1].0),
            "top_k_scratch candidates must be duplicate-free"
        );
        let sig = Signature {
            entries: candidates.as_slice().to_vec(),
        };
        crate::contract::check_signature(&sig);
        sig
    }

    /// Number of entries (at most the `k` used at construction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the signature has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of `u` in this signature, or `None` if absent.
    #[must_use]
    pub fn get(&self, u: NodeId) -> Option<f64> {
        self.entries
            .binary_search_by_key(&u, |&(n, _)| n)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether `u` is a member of the signature's node set.
    #[must_use]
    pub fn contains(&self, u: NodeId) -> bool {
        self.get(u).is_some()
    }

    /// Iterates `(node, weight)` in ascending node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The signature's entries ranked by descending weight (ties by id) —
    /// the presentation order of the paper's examples.
    #[must_use]
    pub fn ranked(&self) -> Vec<(NodeId, f64)> {
        let mut v = self.entries.clone();
        v.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Sum of the weights.
    #[must_use]
    pub fn weight_sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// Returns a copy whose weights are L1-normalised (sum to 1), or an
    /// unchanged copy when the signature is empty.
    #[must_use]
    pub fn normalized(&self) -> Signature {
        let sum = self.weight_sum();
        if sum <= 0.0 {
            return self.clone();
        }
        Signature {
            entries: self.entries.iter().map(|&(u, w)| (u, w / sum)).collect(),
        }
    }

    /// Merge-joins two signatures, yielding for every node in the union
    /// the pair of weights `(w1, w2)` with 0 for the absent side. The
    /// workhorse of every distance function.
    #[must_use]
    pub fn union_weights<'a>(&'a self, other: &'a Signature) -> UnionIter<'a> {
        UnionIter {
            a: &self.entries,
            b: &other.entries,
            i: 0,
            j: 0,
        }
    }

    /// Size of the node-set intersection.
    #[must_use]
    pub fn intersection_size(&self, other: &Signature) -> usize {
        self.union_weights(other)
            .filter(|&(_, w1, w2)| w1 > 0.0 && w2 > 0.0)
            .count()
    }

    /// Size of the node-set union.
    #[must_use]
    pub fn union_size(&self, other: &Signature) -> usize {
        self.union_weights(other).count()
    }
}

/// Iterator over the merge-join of two signatures: `(node, w1, w2)`.
#[derive(Debug)]
pub struct UnionIter<'a> {
    a: &'a [(NodeId, f64)],
    b: &'a [(NodeId, f64)],
    i: usize,
    j: usize,
}

impl Iterator for UnionIter<'_> {
    type Item = (NodeId, f64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.a.get(self.i), self.b.get(self.j)) {
            (Some(&(ua, wa)), Some(&(ub, wb))) => {
                if ua < ub {
                    self.i += 1;
                    Some((ua, wa, 0.0))
                } else if ub < ua {
                    self.j += 1;
                    Some((ub, 0.0, wb))
                } else {
                    self.i += 1;
                    self.j += 1;
                    Some((ua, wa, wb))
                }
            }
            (Some(&(ua, wa)), None) => {
                self.i += 1;
                Some((ua, wa, 0.0))
            }
            (None, Some(&(ub, wb))) => {
                self.j += 1;
                Some((ub, 0.0, wb))
            }
            (None, None) => None,
        }
    }
}

/// Signatures for a set of subject nodes in one window, with id lookup.
///
/// This is the unit the evaluation machinery works over: "signatures for
/// each local host in window `t`".
#[derive(Debug, Clone)]
pub struct SignatureSet {
    subjects: Vec<NodeId>,
    signatures: Vec<Signature>,
    index: FxHashMap<NodeId, usize>,
}

impl SignatureSet {
    /// Builds a set from parallel subject/signature vectors.
    ///
    /// # Panics
    /// Panics if lengths differ or a subject repeats.
    #[must_use]
    pub fn new(subjects: Vec<NodeId>, signatures: Vec<Signature>) -> Self {
        assert_eq!(
            subjects.len(),
            signatures.len(),
            "subjects and signatures must align"
        );
        let mut index = FxHashMap::default();
        for (pos, &v) in subjects.iter().enumerate() {
            let prev = index.insert(v, pos);
            assert!(prev.is_none(), "duplicate subject {v}");
        }
        SignatureSet {
            subjects,
            signatures,
            index,
        }
    }

    /// Fallible [`new`](Self::new): builds a set from parallel vectors,
    /// returning a typed error on length mismatch or duplicate subjects
    /// instead of panicking. The deserialisation constructor.
    ///
    /// # Errors
    /// Returns a description of the violated invariant.
    pub fn try_new(subjects: Vec<NodeId>, signatures: Vec<Signature>) -> Result<Self, String> {
        if subjects.len() != signatures.len() {
            return Err(format!(
                "signature set: {} subjects but {} signatures",
                subjects.len(),
                signatures.len()
            ));
        }
        let mut index = FxHashMap::default();
        for (pos, &v) in subjects.iter().enumerate() {
            if index.insert(v, pos).is_some() {
                return Err(format!("signature set: duplicate subject {v}"));
            }
        }
        Ok(SignatureSet {
            subjects,
            signatures,
            index,
        })
    }

    /// Number of subjects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// The subjects, in construction order.
    #[must_use]
    pub fn subjects(&self) -> &[NodeId] {
        &self.subjects
    }

    /// The signatures, parallel to [`subjects`](Self::subjects).
    #[must_use]
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// The signature of subject `v`, if present.
    #[must_use]
    pub fn get(&self, v: NodeId) -> Option<&Signature> {
        self.index.get(&v).map(|&i| &self.signatures[i])
    }

    /// The first subject or signature entry naming a node at or above
    /// `num_nodes`, if any: decoders check a set against their node space.
    #[must_use]
    pub fn node_outside(&self, num_nodes: usize) -> Option<NodeId> {
        self.iter()
            .flat_map(|(v, sig)| sig.iter().map(|(u, _)| u).chain([v]))
            .find(|u| u.index() >= num_nodes)
    }

    /// The construction-order position of subject `v`, if present.
    #[must_use]
    pub fn position(&self, v: NodeId) -> Option<usize> {
        self.index.get(&v).copied()
    }

    /// The position *and* signature of subject `v` in one index lookup —
    /// the accessor for callers that need both (avoids a second lookup
    /// with an unreachable-`None` panic arm).
    #[must_use]
    pub fn entry(&self, v: NodeId) -> Option<(usize, &Signature)> {
        self.index.get(&v).map(|&i| (i, &self.signatures[i]))
    }

    /// Iterates `(subject, signature)` in construction order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Signature)> {
        self.subjects.iter().copied().zip(self.signatures.iter())
    }

    /// Replaces the signature of subject `v` in place and returns the
    /// previous one. Subject order is unchanged — this is the mutation
    /// the streaming pipeline uses to patch dirty subjects only.
    ///
    /// # Panics
    /// Panics if `v` is not a subject of this set.
    pub fn replace(&mut self, v: NodeId, signature: Signature) -> Signature {
        let Some(&i) = self.index.get(&v) else {
            panic!("subject {v} is not in this signature set");
        };
        std::mem::replace(&mut self.signatures[i], signature)
    }

    /// Consumes the set into its parallel subject/signature vectors.
    #[must_use]
    pub fn into_parts(self) -> (Vec<NodeId>, Vec<Signature>) {
        (self.subjects, self.signatures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn top_k_selects_largest() {
        let s = Signature::top_k(
            n(9),
            vec![(n(1), 0.1), (n(2), 0.5), (n(3), 0.3), (n(4), 0.2)],
            2,
        );
        assert_eq!(s.len(), 2);
        assert!(s.contains(n(2)) && s.contains(n(3)));
        assert_eq!(s.get(n(1)), None);
    }

    #[test]
    fn top_k_excludes_subject_and_bad_weights() {
        let s = Signature::top_k(
            n(1),
            vec![
                (n(1), 100.0),    // subject
                (n(2), -1.0),     // negative
                (n(3), f64::NAN), // non-finite
                (n(4), 0.0),      // zero
                (n(5), 0.7),
            ],
            10,
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(n(5)), Some(0.7));
    }

    #[test]
    fn top_k_merges_duplicates() {
        let s = Signature::top_k(n(0), vec![(n(1), 0.2), (n(1), 0.3), (n(2), 0.4)], 1);
        assert_eq!(s.get(n(1)), Some(0.5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ties_break_by_smaller_id() {
        let s = Signature::top_k(n(9), vec![(n(5), 1.0), (n(2), 1.0), (n(7), 1.0)], 2);
        assert!(s.contains(n(2)) && s.contains(n(5)));
        assert!(!s.contains(n(7)));
    }

    #[test]
    fn ranked_descends_by_weight() {
        let s = Signature::top_k(n(9), vec![(n(1), 0.1), (n(2), 0.9), (n(3), 0.5)], 3);
        let ranked = s.ranked();
        assert_eq!(ranked[0].0, n(2));
        assert_eq!(ranked[2].0, n(1));
    }

    #[test]
    fn normalization() {
        let s = Signature::top_k(n(0), vec![(n(1), 2.0), (n(2), 6.0)], 2);
        let norm = s.normalized();
        assert!((norm.weight_sum() - 1.0).abs() < 1e-12);
        assert!((norm.get(n(2)).unwrap() - 0.75).abs() < 1e-12);
        assert!(Signature::empty().normalized().is_empty());
    }

    #[test]
    fn union_weights_merge_join() {
        let a = Signature::top_k(n(9), vec![(n(1), 0.5), (n(3), 0.2)], 5);
        let b = Signature::top_k(n(9), vec![(n(2), 0.4), (n(3), 0.1)], 5);
        let merged: Vec<_> = a.union_weights(&b).collect();
        assert_eq!(
            merged,
            vec![(n(1), 0.5, 0.0), (n(2), 0.0, 0.4), (n(3), 0.2, 0.1)]
        );
        assert_eq!(a.intersection_size(&b), 1);
        assert_eq!(a.union_size(&b), 3);
    }

    #[test]
    fn union_with_empty() {
        let a = Signature::top_k(n(9), vec![(n(1), 0.5)], 5);
        let e = Signature::empty();
        assert_eq!(a.union_size(&e), 1);
        assert_eq!(a.intersection_size(&e), 0);
        assert_eq!(e.union_size(&e), 0);
    }

    #[test]
    fn signature_set_lookup() {
        let set = SignatureSet::new(
            vec![n(0), n(2)],
            vec![
                Signature::top_k(n(0), vec![(n(1), 1.0)], 1),
                Signature::top_k(n(2), vec![(n(3), 1.0)], 1),
            ],
        );
        assert_eq!(set.len(), 2);
        assert!(set.get(n(0)).unwrap().contains(n(1)));
        assert!(set.get(n(1)).is_none());
        assert_eq!(set.subjects(), &[n(0), n(2)]);
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate subject")]
    fn signature_set_rejects_duplicates() {
        let _ = SignatureSet::new(
            vec![n(0), n(0)],
            vec![Signature::empty(), Signature::empty()],
        );
    }
}
