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
//! ## Incremental maintenance
//!
//! The streaming pipeline changes only a dirty subset of candidate
//! signatures per window; [`PostingsIndex::update`] patches exactly
//! those candidates' posting entries and scalars instead of rebuilding.
//! Posting lists are per-slot `Vec`s, so removal is `swap_remove` and
//! insertion is `push`. Within-slot order is **not** load-bearing: each
//! candidate appears at most once per slot, per-candidate accumulation
//! order follows the query's member order (unchanged), and the scored
//! list is fully re-sorted by `(distance, id)` before emission — so an
//! updated index ranks bit-identically to one rebuilt from scratch.
//!
//! [`PostingsIndex::update_with`] shards the patching across worker
//! threads: the dirty set is translated into per-slot edit ops, grouped
//! by slot with the serial edit order preserved, and applied to
//! slot-disjoint posting segments in parallel. Each list replays the
//! serial `swap_remove`/`push` sequence exactly, so the physical layout
//! — not just the ranking — is byte-identical at every thread count
//! ([`PostingsIndex::layout_digest`] is the oracle the tests check).

use std::borrow::Cow;

use rustc_hash::FxHashMap;

use comsig_core::contract;
use comsig_core::distance::{BatchDistance, SigScalars};
use comsig_core::persist::{CodecError, Dec, Enc};
use comsig_core::{Signature, SignatureSet};
use comsig_graph::{NodeId, ShardPlan};

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
    /// Member node → posting-list slot.
    slot_of: FxHashMap<NodeId, u32>,
    /// Per-slot posting lists of `(candidate position, weight)`. A
    /// candidate appears at most once per slot; within-slot order is
    /// arbitrary (see the module docs on why that is bit-safe).
    postings: Vec<Vec<(u32, f64)>>,
    /// Total posting entries across all slots.
    posting_mass: usize,
    /// Patch-op scratch reused across [`update_with`](Self::update_with)
    /// calls, so a steady-state streaming loop allocates nothing per
    /// window beyond posting-entry growth.
    patch_ops: Vec<PatchOp>,
}

/// A [`PostingsIndex`]'s serialisable physical layout, produced by
/// [`PostingsIndex::export_layout`] and consumed by
/// [`PostingsIndex::from_layout`]. Covers exactly the history-dependent
/// state a cold rebuild cannot reproduce: the member→slot assignment
/// and each slot's posting list in its current physical order.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexLayout {
    /// `(member node, slot)`, strictly ascending by member.
    pub members: Vec<(NodeId, u32)>,
    /// Per-slot posting lists of `(candidate position, weight)`,
    /// verbatim.
    pub postings: Vec<Vec<(u32, f64)>>,
}

impl IndexLayout {
    /// Appends the layout to a snapshot body: the member→slot pairs,
    /// then every posting list verbatim.
    pub fn encode(&self, enc: &mut Enc) {
        enc.len(self.members.len());
        for &(u, slot) in &self.members {
            enc.u32(u.raw());
            enc.u32(slot);
        }
        enc.len(self.postings.len());
        for list in &self.postings {
            enc.len(list.len());
            for &(pos, w) in list {
                enc.u32(pos);
                enc.f64(w);
            }
        }
    }

    /// Reads a layout written by [`encode`](Self::encode). Structural
    /// validation against the candidates is
    /// [`PostingsIndex::from_layout`]'s job.
    ///
    /// # Errors
    /// A [`CodecError`] on truncated or oversized input.
    pub fn decode(dec: &mut Dec<'_>) -> Result<IndexLayout, CodecError> {
        let n = dec.seq_len(8, "snapshot.layout.members")?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let u = NodeId::new(dec.u32("layout.member")? as usize);
            members.push((u, dec.u32("layout.slot")?));
        }
        let n = dec.seq_len(8, "snapshot.layout.postings")?;
        let mut postings = Vec::with_capacity(n);
        for _ in 0..n {
            let m = dec.seq_len(12, "layout.posting_list")?;
            let mut list = Vec::with_capacity(m);
            for _ in 0..m {
                let pos = dec.u32("posting.pos")?;
                list.push((pos, dec.f64("posting.weight")?));
            }
            postings.push(list);
        }
        Ok(IndexLayout { members, postings })
    }
}

/// One posting-list edit of a sharded update: remove candidate `pos`
/// from `slot`, or insert `(pos, weight)` into it. `seq` is the op's
/// position in the serial edit order; applying each slot's ops in
/// ascending `seq` replays exactly the serial path's mutations.
#[derive(Debug, Clone, Copy)]
struct PatchOp {
    slot: u32,
    seq: u32,
    pos: u32,
    weight: f64,
    insert: bool,
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
        let mut slot_of: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut postings: Vec<Vec<(u32, f64)>> = Vec::new();
        let mut posting_mass = 0usize;
        for (pos, (_, sig)) in candidates.iter().enumerate() {
            scalars.push(SigScalars::of(sig));
            for (u, w) in sig.iter() {
                let next = postings.len() as u32;
                let s = *slot_of.entry(u).or_insert(next);
                if s == next {
                    postings.push(Vec::new());
                }
                postings[s as usize].push((pos as u32, w));
                posting_mass += 1;
            }
        }
        let mut id_order: Vec<u32> = (0..n as u32).collect();
        id_order.sort_unstable_by_key(|&p| candidates.subjects()[p as usize]);
        PostingsIndex {
            candidates,
            scalars,
            id_order,
            slot_of,
            postings,
            posting_mass,
            patch_ops: Vec::new(),
        }
    }

    /// Replaces the signatures of the given dirty subjects, patching
    /// their posting entries and scalars in place: `O(k)` removals plus
    /// `O(k)` insertions per dirty subject, instead of an `O(total
    /// members)` rebuild. The candidate population is fixed — every
    /// dirty subject must already be in the set.
    ///
    /// Rankings from the patched index are bit-identical to rebuilding
    /// from scratch over the updated signature set.
    ///
    /// # Panics
    /// Panics if a dirty subject is not a candidate.
    pub fn update(&mut self, dirty: impl IntoIterator<Item = (NodeId, Signature)>) {
        let mut old_members: Vec<NodeId> = Vec::new();
        for (v, new_sig) in dirty {
            let Some((pos, old_sig)) = self.candidates.entry(v) else {
                panic!("dirty subject {v} is not a candidate of this index");
            };
            // Remove the old posting entries first: old and new
            // signatures may share members, and the removal must not
            // pick up a freshly inserted entry for the same candidate.
            old_members.clear();
            old_members.extend(old_sig.iter().map(|(u, _)| u));
            for &u in &old_members {
                // Every old member has a slot and a posting entry by
                // construction; if the invariant is ever violated the
                // entry is already gone, so skipping degrades gracefully
                // instead of panicking mid-stream.
                let Some(&s) = self.slot_of.get(&u) else {
                    continue;
                };
                let list = &mut self.postings[s as usize];
                if let Some(at) = list.iter().position(|&(p, _)| p as usize == pos) {
                    let _ = list.swap_remove(at);
                    self.posting_mass -= 1;
                }
            }
            self.scalars[pos] = SigScalars::of(&new_sig);
            for (u, w) in new_sig.iter() {
                let next = self.postings.len() as u32;
                let s = *self.slot_of.entry(u).or_insert(next);
                if s == next {
                    self.postings.push(Vec::new());
                }
                self.postings[s as usize].push((pos as u32, w));
                self.posting_mass += 1;
            }
            let _ = self.candidates.to_mut().replace(v, new_sig);
        }
    }

    /// [`update`](Self::update), sharded per `plan`: the dirty set is
    /// translated serially into per-slot patch ops (slot allocation in
    /// the exact serial encounter order), the ops are grouped by slot —
    /// preserving the serial edit sequence within each slot — and
    /// slot-disjoint chunks are applied in parallel with zero
    /// cross-shard writes. Because each posting list replays exactly
    /// the serial path's `swap_remove`/`push` sequence, the physical
    /// postings layout is **byte-identical** at every thread count (see
    /// [`layout_digest`](Self::layout_digest)). A serial plan delegates
    /// straight to [`update`](Self::update).
    ///
    /// # Panics
    /// Panics if a dirty subject is not a candidate.
    pub fn update_with(
        &mut self,
        dirty: impl IntoIterator<Item = (NodeId, Signature)>,
        plan: &ShardPlan,
    ) {
        if plan.is_serial() {
            return self.update(dirty);
        }
        // Phase 1 (serial): replace signatures and scalars, and record
        // every posting-list edit as a patch op.
        self.patch_ops.clear();
        let mut seq = 0u32;
        let mut old_members: Vec<NodeId> = Vec::new();
        for (v, new_sig) in dirty {
            let Some((pos, old_sig)) = self.candidates.entry(v) else {
                panic!("dirty subject {v} is not a candidate of this index");
            };
            old_members.clear();
            old_members.extend(old_sig.iter().map(|(u, _)| u));
            for &u in &old_members {
                // Same degradation rule as the serial path: a missing
                // slot means the posting entry is already gone.
                let Some(&slot) = self.slot_of.get(&u) else {
                    continue;
                };
                self.patch_ops.push(PatchOp {
                    slot,
                    seq,
                    pos: pos as u32,
                    weight: 0.0,
                    insert: false,
                });
                seq += 1;
                self.posting_mass -= 1;
            }
            self.scalars[pos] = SigScalars::of(&new_sig);
            for (u, w) in new_sig.iter() {
                let next = self.postings.len() as u32;
                let slot = *self.slot_of.entry(u).or_insert(next);
                if slot == next {
                    self.postings.push(Vec::new());
                }
                self.patch_ops.push(PatchOp {
                    slot,
                    seq,
                    pos: pos as u32,
                    weight: w,
                    insert: true,
                });
                seq += 1;
                self.posting_mass += 1;
            }
            let _ = self.candidates.to_mut().replace(v, new_sig);
        }
        if self.patch_ops.is_empty() {
            return;
        }
        // Phase 2: group ops by slot. `seq` makes the key unique, so the
        // unstable sort is deterministic and each slot keeps the serial
        // edit order.
        self.patch_ops.sort_unstable_by_key(|o| (o.slot, o.seq));
        let ops = &self.patch_ops;
        // Shard the op list, then snap each shard boundary forward to
        // the next slot boundary so no posting list straddles shards.
        let mut op_cuts: Vec<usize> = Vec::new();
        let mut slot_cuts: Vec<usize> = Vec::new();
        let targets = plan.ranges(ops.len());
        for r in targets.iter().take(targets.len().saturating_sub(1)) {
            let mut cut = r.end;
            while cut < ops.len() && ops[cut].slot == ops[cut - 1].slot {
                cut += 1;
            }
            if cut < ops.len() && op_cuts.last() != Some(&cut) {
                op_cuts.push(cut);
                slot_cuts.push(ops[cut].slot as usize);
            }
        }
        let mut op_chunks: Vec<&[PatchOp]> = Vec::with_capacity(op_cuts.len() + 1);
        let mut prev = 0usize;
        for &c in &op_cuts {
            op_chunks.push(&ops[prev..c]);
            prev = c;
        }
        op_chunks.push(&ops[prev..]);
        rayon::for_each_chunk_mut(&mut self.postings, &slot_cuts, |ci, base, chunk| {
            for op in op_chunks[ci] {
                let list = &mut chunk[op.slot as usize - base];
                if op.insert {
                    list.push((op.pos, op.weight));
                } else if let Some(at) = list.iter().position(|&(p, _)| p == op.pos) {
                    // A remove op always finds its entry by construction;
                    // if not, there is nothing to remove — degrade, don't
                    // poison the whole shard with a panic.
                    let _ = list.swap_remove(at);
                }
            }
        });
    }

    /// FNV-1a 64 digest of the index's full physical layout: the
    /// member→slot assignment, every posting list's exact order and
    /// weight bit patterns, the id-order table and the posting mass.
    /// Two indexes with equal digests are byte-identical, not merely
    /// rank-equal — the oracle the sharded-update tests check against
    /// serial patching and cold rebuilds.
    #[must_use]
    pub fn layout_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut members: Vec<(NodeId, u32)> = self.slot_of.iter().map(|(&u, &s)| (u, s)).collect();
        members.sort_unstable();
        for (u, s) in members {
            fold(u.index() as u64);
            fold(u64::from(s));
        }
        for list in &self.postings {
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

    /// Exports the index's physical layout — exactly what
    /// [`layout_digest`](Self::layout_digest) fingerprints: the
    /// member→slot assignment (sorted by member for determinism) and
    /// every posting list verbatim. Together with the candidate set this
    /// is sufficient to reconstruct the index byte-identically via
    /// [`from_layout`](Self::from_layout); scalars, id order and posting
    /// mass are derived.
    ///
    /// An *exported-then-restored* index matters because a patched
    /// layout is not the layout a cold rebuild would produce (slot
    /// allocation and `swap_remove` order are history-dependent), so a
    /// crash-recovered index must restore the physical layout, not
    /// rebuild it.
    #[must_use]
    pub fn export_layout(&self) -> IndexLayout {
        let mut members: Vec<(NodeId, u32)> = self.slot_of.iter().map(|(&u, &s)| (u, s)).collect();
        members.sort_unstable();
        IndexLayout {
            members,
            postings: self.postings.clone(),
        }
    }

    /// Reconstructs an index byte-identically from a candidate set and
    /// an exported layout: `restored.layout_digest() ==
    /// original.layout_digest()`.
    ///
    /// # Errors
    /// Validates the layout against the candidate set — slot bijection,
    /// posting positions in range, every entry present in (and
    /// bit-equal to) its candidate's signature, total mass accounted —
    /// and returns a description of the first violation instead of
    /// panicking (this runs on the recovery path).
    pub fn from_layout(
        candidates: SignatureSet,
        layout: IndexLayout,
    ) -> Result<PostingsIndex<'static>, String> {
        let IndexLayout { members, postings } = layout;
        if members.len() != postings.len() {
            return Err(format!(
                "index layout: {} members but {} posting lists",
                members.len(),
                postings.len()
            ));
        }
        let mut slot_of: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut seen_slot = vec![false; postings.len()];
        let mut last: Option<NodeId> = None;
        for &(u, s) in &members {
            if last.is_some_and(|p| p >= u) {
                return Err("index layout: members not strictly ascending".into());
            }
            last = Some(u);
            let Some(slot_seen) = seen_slot.get_mut(s as usize) else {
                return Err(format!("index layout: slot {s} out of range"));
            };
            if std::mem::replace(slot_seen, true) {
                return Err(format!("index layout: slot {s} assigned twice"));
            }
            slot_of.insert(u, s);
        }
        // Every posting entry must be backed by the candidate's actual
        // signature, bit for bit, each candidate at most once per slot,
        // and the totals must account for every signature member.
        let n = candidates.len();
        let subjects = candidates.subjects();
        let mut posting_mass = 0usize;
        for &(u, s) in &members {
            let list = &postings[s as usize];
            let mut prev_pos: Vec<u32> = Vec::with_capacity(list.len());
            for &(pos, w) in list {
                if pos as usize >= n {
                    return Err(format!("index layout: posting position {pos} out of range"));
                }
                if prev_pos.contains(&pos) {
                    return Err(format!(
                        "index layout: candidate {pos} appears twice in slot of {u}"
                    ));
                }
                prev_pos.push(pos);
                let sig = candidates
                    .get(subjects[pos as usize])
                    .ok_or_else(|| format!("index layout: no signature at position {pos}"))?;
                if sig.get(u).map(f64::to_bits) != Some(w.to_bits()) {
                    return Err(format!(
                        "index layout: posting ({u}, {w}) not backed by candidate {pos}"
                    ));
                }
                posting_mass += 1;
            }
        }
        let expected_mass: usize = candidates.iter().map(|(_, sig)| sig.len()).sum();
        if posting_mass != expected_mass {
            return Err(format!(
                "index layout: posting mass {posting_mass} != total signature members {expected_mass}"
            ));
        }
        let scalars = candidates
            .iter()
            .map(|(_, sig)| SigScalars::of(sig))
            .collect();
        let mut id_order: Vec<u32> = (0..n as u32).collect();
        id_order.sort_unstable_by_key(|&p| subjects[p as usize]);
        Ok(PostingsIndex {
            candidates: Cow::Owned(candidates),
            scalars,
            id_order,
            slot_of,
            postings,
            posting_mass,
            patch_ops: Vec::new(),
        })
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
            let Some(&s) = self.slot_of.get(&u) else {
                continue;
            };
            dist.accumulate_list(wq, &self.postings[s as usize], ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::{all_distances, Jaccard};
    use comsig_core::Signature;

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
        type Round = Vec<(usize, Vec<(usize, f64)>)>;
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

    /// The sharded update must leave the index **byte-identical** — same
    /// slot assignment, same within-list order, same weight bits — to
    /// the serial update at every thread count, across rounds that
    /// overlap members, empty signatures, introduce new member nodes and
    /// re-update candidates.
    #[test]
    fn update_with_layout_byte_identical_across_plans() {
        type Round = Vec<(usize, Vec<(usize, f64)>)>;
        let dirty_rounds: Vec<Round> = vec![
            vec![(7, vec![(11, 3.0), (30, 1.0)]), (5, vec![(10, 2.0)])],
            vec![(1, vec![]), (3, vec![(12, 1.5), (31, 0.25)])],
            vec![(7, vec![(10, 0.5)]), (0, vec![(30, 2.0), (32, 1.0)])],
        ];
        let as_dirty = |round: &Round| {
            round
                .iter()
                .map(|(v, m)| {
                    let s = if m.is_empty() {
                        Signature::empty()
                    } else {
                        sig(m)
                    };
                    (n(*v), s)
                })
                .collect::<Vec<_>>()
        };
        // Serial reference: the existing `update` path.
        let mut serial = PostingsIndex::build_owned(candidates());
        let mut serial_digests = Vec::new();
        for round in &dirty_rounds {
            serial.update(as_dirty(round));
            serial_digests.push(serial.layout_digest());
        }
        for threads in [1usize, 2, 4, 8] {
            let plan = ShardPlan::new(threads);
            let mut idx = PostingsIndex::build_owned(candidates());
            for (round, want) in dirty_rounds.iter().zip(&serial_digests) {
                idx.update_with(as_dirty(round), &plan);
                assert_eq!(
                    idx.layout_digest(),
                    *want,
                    "threads={threads}: sharded layout diverged from serial"
                );
            }
        }
    }

    /// Sharded updates with more threads than slots, and a one-subject
    /// dirty set, must still match the serial layout.
    #[test]
    fn update_with_degenerate_shapes() {
        for threads in [2usize, 8, 32] {
            let plan = ShardPlan::new(threads);
            let mut a = PostingsIndex::build_owned(candidates());
            let mut b = PostingsIndex::build_owned(candidates());
            a.update([(n(5), sig(&[(11, 1.25)]))]);
            b.update_with([(n(5), sig(&[(11, 1.25)]))], &plan);
            assert_eq!(a.layout_digest(), b.layout_digest(), "threads={threads}");
            // Empty dirty set: no-op on both paths.
            let before = b.layout_digest();
            b.update_with(std::iter::empty(), &plan);
            assert_eq!(b.layout_digest(), before);
        }
    }

    /// An exported-then-restored index must be byte-identical to the
    /// original — including after patched updates whose layout differs
    /// from a cold rebuild.
    #[test]
    fn layout_export_restore_byte_identical() {
        let mut idx = PostingsIndex::build_owned(candidates());
        idx.update([
            (n(7), sig(&[(11, 3.0), (30, 1.0)])),
            (n(5), sig(&[(10, 2.0)])),
        ]);
        idx.update([(n(1), Signature::empty()), (n(3), sig(&[(12, 1.5)]))]);
        let layout = idx.export_layout();
        let restored =
            PostingsIndex::from_layout(idx.candidates().clone(), layout.clone()).unwrap();
        assert_eq!(restored.layout_digest(), idx.layout_digest());
        assert_eq!(restored.export_layout(), layout);
        // The snapshot codec round-trips the layout exactly.
        let mut enc = Enc::new();
        layout.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(IndexLayout::decode(&mut dec).unwrap(), layout);
        dec.finish("layout").unwrap();
        // The restored index ranks bit-identically too.
        let q = sig(&[(10, 1.0), (11, 1.0)]);
        let a = idx.rank(&Jaccard, &q);
        let b = restored.rank(&Jaccard, &q);
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    /// Corrupt layouts come back as typed errors, never panics.
    #[test]
    fn corrupt_layout_rejected_with_error() {
        let idx = PostingsIndex::build_owned(candidates());
        let good = idx.export_layout();
        let cands = || idx.candidates().clone();
        let mut extra_slot = good.clone();
        extra_slot.postings.push(Vec::new());
        assert!(PostingsIndex::from_layout(cands(), extra_slot).is_err());
        let mut dup_slot = good.clone();
        if dup_slot.members.len() >= 2 {
            dup_slot.members[1].1 = dup_slot.members[0].1;
        }
        assert!(PostingsIndex::from_layout(cands(), dup_slot).is_err());
        let mut bad_weight = good.clone();
        if let Some(e) = bad_weight
            .postings
            .iter_mut()
            .find_map(|list| list.iter_mut().next())
        {
            e.1 += 1.0;
        }
        assert!(PostingsIndex::from_layout(cands(), bad_weight).is_err());
        let mut dropped_entry = good.clone();
        for list in &mut dropped_entry.postings {
            if !list.is_empty() {
                list.pop();
                break;
            }
        }
        assert!(PostingsIndex::from_layout(cands(), dropped_entry).is_err());
        assert!(PostingsIndex::from_layout(cands(), good).is_ok());
    }

    #[test]
    #[should_panic(expected = "not a candidate")]
    fn update_with_unknown_subject_panics() {
        let mut idx = PostingsIndex::build_owned(candidates());
        idx.update_with([(n(99), Signature::empty())], &ShardPlan::new(4));
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
