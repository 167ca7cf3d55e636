//! Incremental window deltas over edge-event streams.
//!
//! The batch path ([`GraphSequence`](crate::window::GraphSequence)) treats
//! each window as an independent rebuild. Following the stream-graph view
//! (Latapy et al.), this module treats the *event stream* as the primary
//! object and windows as sliding views over it: a [`SlidingWindower`]
//! consumes [`EdgeEvent`]s and, per window advance, emits a [`WindowDelta`]
//! — the set of aggregated edges whose weight changed (insertions, weight
//! updates and retractions) relative to the previous window.
//!
//! # Bit-identity discipline
//!
//! Deltas feed [`CommGraph::apply_delta`](crate::CommGraph::apply_delta),
//! whose output must be **bit-identical** to a cold
//! [`GraphBuilder`](crate::GraphBuilder) rebuild of the same window. Two
//! rules make that possible:
//!
//! 1. Aggregated pair weights are never decremented when events leave the
//!    window — floating-point subtraction does not round-trip. Instead a
//!    pair's surviving events are **re-summed in arrival order**, which is
//!    exactly the accumulation order of `GraphBuilder::add_event` over the
//!    window's events.
//! 2. A change whose re-summed weight is bitwise equal to the previous
//!    aggregate is elided from the delta: every downstream value derived
//!    from it is bitwise unchanged.

use std::collections::BTreeMap;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::edge::{EdgeEvent, Weight};
use crate::node::NodeId;

/// One aggregated-edge change between consecutive windows.
///
/// `old == None` is an insertion, `new == None` a retraction, and both
/// `Some` a weight update. `old` carries the weight the previous window's
/// graph must hold (checked bitwise by
/// [`CommGraph::apply_delta`](crate::CommGraph::apply_delta)); `new` is the
/// re-summed aggregate over the new window's events for the pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeChange {
    /// Source of the aggregated edge.
    pub src: NodeId,
    /// Destination of the aggregated edge.
    pub dst: NodeId,
    /// Aggregated weight in the previous window, if the edge existed.
    pub old: Option<Weight>,
    /// Aggregated weight in the new window, if the edge survives.
    pub new: Option<Weight>,
}

impl EdgeChange {
    /// The `(src, dst)` pair this change refers to.
    #[inline]
    #[must_use]
    pub fn pair(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    /// Whether this change inserts a previously absent edge.
    #[inline]
    #[must_use]
    pub fn is_insertion(&self) -> bool {
        self.old.is_none() && self.new.is_some()
    }

    /// Whether this change retracts the edge entirely.
    #[inline]
    #[must_use]
    pub fn is_retraction(&self) -> bool {
        self.old.is_some() && self.new.is_none()
    }
}

/// The aggregated-edge difference between two consecutive windows,
/// produced by [`SlidingWindower::advance`].
///
/// `changes` is strictly sorted by `(src, dst)` and contains no entry
/// whose `old` and `new` weights are bitwise equal.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDelta {
    /// Inclusive start of the window's time range.
    pub start: u64,
    /// Exclusive end of the window's time range.
    pub end: u64,
    /// Aggregated-edge changes, strictly sorted by `(src, dst)`.
    pub changes: Vec<EdgeChange>,
}

impl WindowDelta {
    /// Number of changed aggregated edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the window is edge-identical to its predecessor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Counts of (insertions, updates, retractions).
    #[must_use]
    pub fn summary(&self) -> (usize, usize, usize) {
        let mut ins = 0;
        let mut upd = 0;
        let mut ret = 0;
        for c in &self.changes {
            if c.is_insertion() {
                ins += 1;
            } else if c.is_retraction() {
                ret += 1;
            } else {
                upd += 1;
            }
        }
        (ins, upd, ret)
    }

    /// Distinct nodes appearing as an endpoint of any change.
    #[must_use]
    pub fn touched_nodes(&self) -> FxHashSet<NodeId> {
        let mut nodes = FxHashSet::default();
        for c in &self.changes {
            nodes.insert(c.src);
            nodes.insert(c.dst);
        }
        nodes
    }
}

/// One surviving event of an aggregated pair: `(arrival seq, time,
/// weight)`. Re-summation sorts by the seq to replay the cold
/// accumulation order.
type PairEvent = (u64, u64, Weight);

/// One aggregated pair of the active window: its events and their
/// re-summed aggregate, under one key, so an aggregate without events
/// (or the reverse) cannot exist between advances.
#[derive(Debug, Clone, Default)]
struct PairState {
    /// The pair's active events; sorted by arrival seq between advances.
    events: Vec<PairEvent>,
    /// The aggregate over `events`. `0.0` marks a pair whose first events
    /// are entering mid-advance: every real aggregate is positive, because
    /// every accepted event weight is.
    weight: Weight,
}

/// Sums `events` in list order — never subtracting, so over an
/// arrival-ordered list this replays `GraphBuilder::add_event` bit for
/// bit.
fn arrival_sum(events: &[PairEvent]) -> Weight {
    let mut sum = 0.0;
    for &(_, _, w) in events {
        sum += w;
    }
    sum
}

impl PairState {
    /// Restores arrival order, re-sums the events into the aggregate and
    /// returns the change against the previous aggregate if its bits
    /// moved. An emptied pair retracts (`new == None`); the caller drops
    /// it.
    fn resum(&mut self, src: NodeId, dst: NodeId) -> Option<EdgeChange> {
        // Entering events are appended in `(time, seq)` order after any
        // survivors; restore arrival order before re-summing.
        self.events.sort_unstable_by_key(|&(seq, _, _)| seq);
        let old = (self.weight > 0.0).then_some(self.weight);
        let new = (!self.events.is_empty()).then(|| arrival_sum(&self.events));
        self.weight = new.unwrap_or(0.0);
        (old.map(f64::to_bits) != new.map(f64::to_bits)).then_some(EdgeChange {
            src,
            dst,
            old,
            new,
        })
    }
}

/// Slices a pushed [`EdgeEvent`] stream into sliding windows and emits one
/// [`WindowDelta`] per [`advance`](Self::advance).
///
/// Windows are `[start, start + width)`, advancing by `slide` per call:
/// `slide == width` is tumbling (the batch
/// [`WindowSpec`](crate::window::WindowSpec) semantics), `slide < width`
/// overlaps, and `slide > width` leaves gaps whose events are counted and
/// dropped.
///
/// Events may arrive out of order. An event older than the next
/// unemitted window's start can no longer influence any future window; it
/// is counted as late and dropped. Invalid events (self-loops,
/// non-finite or non-positive weights) are rejected with the exact gate
/// used by [`GraphBuilder::add_event`](crate::GraphBuilder::add_event), so
/// the stream the windower aggregates is the stream a cold rebuild would
/// aggregate.
///
/// Between advances, `pairs` holds exactly the `active` events: every
/// active event sits in its pair's list and nothing else does. Both
/// advance paths and [`from_state`](Self::from_state) keep to that.
#[derive(Debug, Clone)]
pub struct SlidingWindower {
    width: u64,
    slide: u64,
    next_start: u64,
    seq: u64,
    /// Buffered events not yet emitted into a window, keyed by
    /// `(time, arrival seq)`.
    pending: BTreeMap<(u64, u64), (NodeId, NodeId, Weight)>,
    /// Events inside the current window, keyed by `(time, arrival seq)`.
    active: BTreeMap<(u64, u64), (NodeId, NodeId)>,
    /// Per-pair active events and aggregate (the window's edge weights).
    pairs: FxHashMap<(NodeId, NodeId), PairState>,
    invalid_events: u64,
    late_events: u64,
    gap_events: u64,
}

impl SlidingWindower {
    /// Creates a windower whose first window is `[start, start + width)`.
    ///
    /// # Panics
    /// Panics if `width == 0` or `slide == 0`.
    #[must_use]
    pub fn new(start: u64, width: u64, slide: u64) -> Self {
        assert!(width > 0, "window width must be positive");
        assert!(slide > 0, "window slide must be positive");
        SlidingWindower {
            width,
            slide,
            next_start: start,
            seq: 0,
            pending: BTreeMap::new(),
            active: BTreeMap::new(),
            pairs: FxHashMap::default(),
            invalid_events: 0,
            late_events: 0,
            gap_events: 0,
        }
    }

    /// Tumbling windows (`slide == width`), matching the batch
    /// [`WindowSpec`](crate::window::WindowSpec) bucketing.
    #[must_use]
    pub fn tumbling(start: u64, width: u64) -> Self {
        SlidingWindower::new(start, width, width)
    }

    /// The time range of the next window [`advance`](Self::advance) will
    /// emit, or `None` if it would overflow the `u64` time axis.
    #[must_use]
    pub fn next_window(&self) -> Option<(u64, u64)> {
        let end = self.next_start.checked_add(self.width)?;
        Some((self.next_start, end))
    }

    /// Feeds one event. Returns `false` (and counts the event) if it is
    /// invalid or too late to land in any future window.
    pub fn push(&mut self, event: EdgeEvent) -> bool {
        // Exactly the `GraphBuilder::add_event` gate, so the accepted
        // stream equals the stream a cold rebuild would aggregate.
        if event.src == event.dst || !event.weight.is_finite() || event.weight <= 0.0 {
            self.invalid_events += 1;
            return false;
        }
        if event.time < self.next_start {
            self.late_events += 1;
            return false;
        }
        let key = (event.time, self.seq);
        self.seq += 1;
        self.pending
            .insert(key, (event.src, event.dst, event.weight));
        true
    }

    /// Emits the next window `[s, s + width)` and returns the aggregated
    /// delta against the previous window.
    ///
    /// When every active event is older than `s` — always the case for
    /// `slide >= width` — the whole previous window leaves, and the delta
    /// is a diff of the entering events' per-pair sums against the
    /// previous aggregates. Otherwise only the pairs an event enters or
    /// leaves are re-summed. Both paths emit the same bits.
    ///
    /// # Panics
    /// Panics if the window range or the next start would overflow `u64`.
    pub fn advance(&mut self) -> WindowDelta {
        let s = self.next_start;
        let all_leave = self
            .active
            .last_key_value()
            .is_none_or(|(&(newest, _), _)| newest < s);
        self.advance_via(all_leave)
    }

    /// [`advance`](Self::advance) with the path chosen by the caller;
    /// `all_leave` is only sound when every active event is older than
    /// the next window's start.
    fn advance_via(&mut self, all_leave: bool) -> WindowDelta {
        let s = self.next_start;
        let e = s
            .checked_add(self.width)
            .expect("window end overflows the u64 time axis");

        // Events that fell in the gap between the previous window's end
        // and this window's start (only possible when slide > width).
        let keep = self.pending.split_off(&(s, 0));
        let gapped = std::mem::replace(&mut self.pending, keep);
        self.gap_events += gapped.len() as u64;

        // Entering: buffered events with time in [s, e).
        let keep = self.pending.split_off(&(e, 0));
        let entering = std::mem::replace(&mut self.pending, keep);

        let mut changes = if all_leave {
            self.resum_all(entering)
        } else {
            self.resum_dirty(s, &entering)
        };
        changes.sort_unstable_by_key(EdgeChange::pair);

        self.next_start = s
            .checked_add(self.slide)
            .expect("next window start overflows the u64 time axis");
        WindowDelta {
            start: s,
            end: e,
            changes,
        }
    }

    /// The all-leave path: every pair's list is replaced by its entering
    /// events, so one pass re-sums every pair and drops the emptied ones,
    /// and `active` is exactly the (already sorted) entering map.
    fn resum_all(
        &mut self,
        entering: BTreeMap<(u64, u64), (NodeId, NodeId, Weight)>,
    ) -> Vec<EdgeChange> {
        for pair in self.pairs.values_mut() {
            pair.events.clear();
        }
        for (&(time, seq), &(src, dst, w)) in &entering {
            self.pairs
                .entry((src, dst))
                .or_default()
                .events
                .push((seq, time, w));
        }
        let mut changes = Vec::new();
        self.pairs.retain(|&(src, dst), pair| {
            changes.extend(pair.resum(src, dst));
            !pair.events.is_empty()
        });
        self.active = entering
            .into_iter()
            .map(|(key, (src, dst, _))| (key, (src, dst)))
            .collect();
        changes
    }

    /// The general path: events older than `s` leave, the entering ones
    /// join, and only the pairs either touched are re-summed.
    fn resum_dirty(
        &mut self,
        s: u64,
        entering: &BTreeMap<(u64, u64), (NodeId, NodeId, Weight)>,
    ) -> Vec<EdgeChange> {
        // Leaving: active events with time < s.
        let keep = self.active.split_off(&(s, 0));
        let leaving = std::mem::replace(&mut self.active, keep);

        let mut dirty: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
        for &(src, dst) in leaving.values() {
            dirty.insert((src, dst));
        }
        for (&(time, seq), &(src, dst, w)) in entering {
            dirty.insert((src, dst));
            self.pairs
                .entry((src, dst))
                .or_default()
                .events
                .push((seq, time, w));
            self.active.insert((time, seq), (src, dst));
        }

        let mut changes = Vec::with_capacity(dirty.len());
        for (src, dst) in dirty {
            // Always present: a leaving event sat in its pair's list, and
            // an entering one was just pushed.
            let Some(pair) = self.pairs.get_mut(&(src, dst)) else {
                continue;
            };
            pair.events.retain(|&(_, t, _)| t >= s);
            changes.extend(pair.resum(src, dst));
            if pair.events.is_empty() {
                self.pairs.remove(&(src, dst));
            }
        }
        changes
    }

    /// Current aggregated weight of `(src, dst)` in the active window.
    #[must_use]
    pub fn aggregate_weight(&self, src: NodeId, dst: NodeId) -> Option<Weight> {
        self.pairs.get(&(src, dst)).map(|pair| pair.weight)
    }

    /// Number of distinct aggregated edges in the active window.
    #[must_use]
    pub fn active_edges(&self) -> usize {
        self.pairs.len()
    }

    /// Events buffered for future windows.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Events rejected by the validity gate (self-loop / non-finite /
    /// non-positive weight).
    #[must_use]
    pub fn invalid_events(&self) -> u64 {
        self.invalid_events
    }

    /// Events dropped because they arrived after their window was emitted.
    #[must_use]
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Events dropped because they fell between windows (`slide > width`).
    #[must_use]
    pub fn gap_events(&self) -> u64 {
        self.gap_events
    }

    /// A borrowed view of the state in canonical order: what
    /// [`export_state`](Self::export_state) copies out, readable without
    /// copying. Costs one sort of the pair keys.
    #[must_use]
    pub fn view(&self) -> WindowerView<'_> {
        // Keys by value: the sort compares inline keys, not pointers into
        // the hash table.
        let mut pairs: Vec<_> = self
            .pairs
            .iter()
            .map(|(&pair, state)| (pair, state))
            .collect();
        pairs.sort_unstable_by_key(|&(pair, _)| pair);
        WindowerView { w: self, pairs }
    }

    /// Exports the windower's complete state as a deterministic,
    /// serialisable image: map contents are emitted in sorted key order,
    /// so two bit-identical windowers export byte-identical states
    /// regardless of hash-map iteration order.
    #[must_use]
    pub fn export_state(&self) -> WindowerState {
        let view = self.view();
        let [width, slide, next_start, seq, invalid_events, late_events, gap_events] =
            view.header();
        WindowerState {
            width,
            slide,
            next_start,
            seq,
            invalid_events,
            late_events,
            gap_events,
            pending: view.pending().collect(),
            active: view.active().collect(),
            pair_events: view
                .pair_events()
                .map(|(pair, events)| (pair, events.to_vec()))
                .collect(),
            agg: view.agg().collect(),
        }
    }

    /// Rebuilds a windower from an exported state. The result is
    /// bit-identical to the windower that produced the state: every
    /// future [`push`](Self::push)/[`advance`](Self::advance) sequence
    /// yields the same deltas.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant instead of
    /// panicking — restore runs on the recovery path, where corrupt input
    /// must degrade into a typed error. Checked: zero width/slide;
    /// unsorted or duplicated keys; invalid event weights; arrival seqs
    /// that repeat or reach the next seq; a pair whose event list is
    /// empty, not strictly ascending by seq, or without an aggregate (or
    /// the reverse); an aggregate that is not the arrival-order sum of
    /// its events; and any pair event without its active entry, or
    /// active entry without its pair event.
    pub fn from_state(state: WindowerState) -> Result<SlidingWindower, String> {
        if state.width == 0 {
            return Err("windower state: zero window width".into());
        }
        if state.slide == 0 {
            return Err("windower state: zero window slide".into());
        }
        let valid_event =
            |src: NodeId, dst: NodeId, w: Weight| src != dst && w.is_finite() && w > 0.0;
        let mut pending = BTreeMap::new();
        let mut last: Option<(u64, u64)> = None;
        for &(time, seq, src, dst, w) in &state.pending {
            if last.is_some_and(|k| k >= (time, seq)) {
                return Err("windower state: pending keys not strictly ascending".into());
            }
            last = Some((time, seq));
            if !valid_event(src, dst, w) {
                return Err(format!(
                    "windower state: invalid pending event ({time}, {seq})"
                ));
            }
            pending.insert((time, seq), (src, dst, w));
        }
        let mut active = BTreeMap::new();
        let mut last: Option<(u64, u64)> = None;
        for &(time, seq, src, dst) in &state.active {
            if last.is_some_and(|k| k >= (time, seq)) {
                return Err("windower state: active keys not strictly ascending".into());
            }
            last = Some((time, seq));
            active.insert((time, seq), (src, dst));
        }
        // Arrival order is only defined if every buffered or active event
        // has its own seq, below the one the next push takes.
        let mut seqs: Vec<u64> = pending
            .keys()
            .chain(active.keys())
            .map(|&(_, seq)| seq)
            .collect();
        seqs.sort_unstable();
        let buffered = seqs.len();
        seqs.dedup();
        if seqs.len() != buffered {
            return Err("windower state: arrival seqs repeat".into());
        }
        if seqs.last().is_some_and(|&last| last >= state.seq) {
            return Err("windower state: arrival seq at or past the next seq".into());
        }
        if state.pair_events.len() != state.agg.len() {
            return Err("windower state: pair_events and agg cover different pairs".into());
        }
        let mut pairs = FxHashMap::default();
        let mut pair_event_count = 0usize;
        let mut last_pair: Option<(NodeId, NodeId)> = None;
        for ((pair, events), &(agg_pair, weight)) in state.pair_events.into_iter().zip(&state.agg) {
            if last_pair.is_some_and(|p| p >= pair) {
                return Err("windower state: pair keys not strictly ascending".into());
            }
            last_pair = Some(pair);
            if agg_pair != pair {
                return Err(format!(
                    "windower state: pair_events and agg disagree at {pair:?}"
                ));
            }
            if events.is_empty() {
                return Err(format!("windower state: no events for {pair:?}"));
            }
            let mut last_seq: Option<u64> = None;
            for &(seq, time, w) in &events {
                if !(w.is_finite() && w > 0.0) {
                    return Err(format!("windower state: invalid pair event for {pair:?}"));
                }
                if last_seq.is_some_and(|s| s >= seq) {
                    return Err(format!(
                        "windower state: events of {pair:?} not strictly ascending by seq"
                    ));
                }
                last_seq = Some(seq);
                if active.get(&(time, seq)) != Some(&pair) {
                    return Err(format!(
                        "windower state: event ({time}, {seq}) of {pair:?} is not active"
                    ));
                }
            }
            if !(weight.is_finite() && weight > 0.0) {
                return Err(format!("windower state: invalid aggregate for {pair:?}"));
            }
            if arrival_sum(&events).to_bits() != weight.to_bits() {
                return Err(format!(
                    "windower state: aggregate of {pair:?} is not the sum of its events"
                ));
            }
            pair_event_count += events.len();
            pairs.insert(pair, PairState { events, weight });
        }
        // Each pair event matched a distinct active entry above, so equal
        // counts leave no active entry without its pair event.
        if pair_event_count != active.len() {
            return Err("windower state: active events missing from pair_events".into());
        }
        Ok(SlidingWindower {
            width: state.width,
            slide: state.slide,
            next_start: state.next_start,
            seq: state.seq,
            pending,
            active,
            pairs,
            invalid_events: state.invalid_events,
            late_events: state.late_events,
            gap_events: state.gap_events,
        })
    }
}

/// A borrowed image of a [`SlidingWindower`], in the canonical order of
/// [`WindowerState`], produced by [`SlidingWindower::view`]. Encoders walk
/// it to serialise or digest a live windower without copying its event
/// lists.
#[derive(Debug)]
pub struct WindowerView<'a> {
    w: &'a SlidingWindower,
    pairs: Vec<((NodeId, NodeId), &'a PairState)>,
}

impl<'a> WindowerView<'a> {
    /// The scalar fields in [`WindowerState`] order: width, slide, next
    /// start, next seq, then the invalid, late and gap counters.
    #[must_use]
    pub fn header(&self) -> [u64; 7] {
        let w = self.w;
        [
            w.width,
            w.slide,
            w.next_start,
            w.seq,
            w.invalid_events,
            w.late_events,
            w.gap_events,
        ]
    }

    /// [`WindowerState::pending`], borrowed.
    pub fn pending(
        &self,
    ) -> impl ExactSizeIterator<Item = (u64, u64, NodeId, NodeId, Weight)> + 'a {
        self.w
            .pending
            .iter()
            .map(|(&(time, seq), &(src, dst, w))| (time, seq, src, dst, w))
    }

    /// [`WindowerState::active`], borrowed.
    pub fn active(&self) -> impl ExactSizeIterator<Item = (u64, u64, NodeId, NodeId)> + 'a {
        self.w
            .active
            .iter()
            .map(|(&(time, seq), &(src, dst))| (time, seq, src, dst))
    }

    /// [`WindowerState::pair_events`], borrowed.
    pub fn pair_events(
        &self,
    ) -> impl ExactSizeIterator<Item = ((NodeId, NodeId), &'a [PairEvent])> + '_ {
        self.pairs
            .iter()
            .map(|&(pair, state)| (pair, state.events.as_slice()))
    }

    /// [`WindowerState::agg`], borrowed.
    pub fn agg(&self) -> impl ExactSizeIterator<Item = ((NodeId, NodeId), Weight)> + '_ {
        self.pairs.iter().map(|&(pair, state)| (pair, state.weight))
    }
}

/// One pair's surviving events, as `(seq, time, weight)` triples keyed
/// by the `(src, dst)` pair.
pub type PairEvents = ((NodeId, NodeId), Vec<(u64, u64, Weight)>);

/// A complete, deterministic image of a [`SlidingWindower`], produced by
/// [`SlidingWindower::export_state`] and consumed by
/// [`SlidingWindower::from_state`]. All map contents appear in sorted key
/// order, so equal windowers produce equal states (and byte-identical
/// serialisations).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowerState {
    /// Window width.
    pub width: u64,
    /// Window slide.
    pub slide: u64,
    /// Start of the next unemitted window.
    pub next_start: u64,
    /// Next arrival sequence number.
    pub seq: u64,
    /// Events rejected by the validity gate so far.
    pub invalid_events: u64,
    /// Events dropped as too late so far.
    pub late_events: u64,
    /// Events dropped in inter-window gaps so far.
    pub gap_events: u64,
    /// Buffered future events as `(time, seq, src, dst, weight)`,
    /// strictly ascending by `(time, seq)`.
    pub pending: Vec<(u64, u64, NodeId, NodeId, Weight)>,
    /// Active-window events as `(time, seq, src, dst)`, strictly
    /// ascending by `(time, seq)`.
    pub active: Vec<(u64, u64, NodeId, NodeId)>,
    /// Per-pair surviving events `(seq, time, weight)`, pairs strictly
    /// ascending.
    pub pair_events: Vec<PairEvents>,
    /// Aggregated weight per pair, pairs strictly ascending.
    pub agg: Vec<((NodeId, NodeId), Weight)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::CommGraph;
    use proptest::prelude::*;

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

    /// Cold rebuild of the window `[s, e)` over `events` in stream order.
    fn cold(num_nodes: usize, events: &[EdgeEvent], s: u64, e: u64) -> CommGraph {
        let mut b = GraphBuilder::new();
        for event in events {
            if event.time >= s && event.time < e {
                b.add_event(event.src, event.dst, event.weight);
            }
        }
        b.build(num_nodes)
    }

    fn graphs_bit_identical(a: &CommGraph, b: &CommGraph) -> bool {
        a.num_nodes() == b.num_nodes()
            && a.num_edges() == b.num_edges()
            && a.total_weight().to_bits() == b.total_weight().to_bits()
            && a.edges().zip(b.edges()).all(|(x, y)| {
                x.src == y.src && x.dst == y.dst && x.weight.to_bits() == y.weight.to_bits()
            })
    }

    /// Replays deltas onto an empty graph and checks each window against a
    /// cold rebuild of the same range.
    fn check_stream(
        num_nodes: usize,
        events: &[EdgeEvent],
        mut w: SlidingWindower,
        windows: usize,
    ) {
        let mut g = CommGraph::from_sorted_edges(num_nodes, Vec::new());
        for _ in 0..windows {
            let delta = w.advance();
            g = g.apply_delta(&delta);
            let oracle = cold(num_nodes, events, delta.start, delta.end);
            assert!(
                graphs_bit_identical(&g, &oracle),
                "window [{}, {}) diverged from cold rebuild",
                delta.start,
                delta.end
            );
        }
    }

    #[test]
    fn tumbling_matches_cold_rebuild() {
        let events = vec![
            ev(0, 0, 1, 2.0),
            ev(1, 0, 1, 0.125),
            ev(3, 1, 2, 1.0),
            ev(11, 0, 1, 4.0),
            ev(12, 2, 0, 0.5),
            ev(25, 1, 2, 3.0),
        ];
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            assert!(w.push(e));
        }
        check_stream(3, &events, w, 3);
    }

    #[test]
    fn overlapping_windows_resum_in_arrival_order() {
        // width 10, slide 5: events in the overlap survive into the next
        // window and their pair weights must re-sum bit-identically.
        let events = vec![
            ev(1, 0, 1, 0.1),
            ev(6, 0, 1, 0.2),
            ev(7, 1, 2, 1.5),
            ev(9, 0, 1, 0.3),
            ev(12, 0, 1, 0.7),
            ev(14, 2, 1, 2.0),
        ];
        let mut w = SlidingWindower::new(0, 10, 5);
        for &e in &events {
            w.push(e);
        }
        let mut g = CommGraph::from_sorted_edges(3, Vec::new());
        for _ in 0..3 {
            let delta = w.advance();
            g = g.apply_delta(&delta);
            let oracle = cold(3, &events, delta.start, delta.end);
            assert!(graphs_bit_identical(&g, &oracle));
        }
    }

    #[test]
    fn gapped_windows_drop_and_count() {
        // width 5, slide 10: events in [5, 10) fall in the gap.
        let events = vec![ev(1, 0, 1, 1.0), ev(7, 0, 1, 1.0), ev(12, 1, 2, 1.0)];
        let mut w = SlidingWindower::new(0, 5, 10);
        for &e in &events {
            w.push(e);
        }
        let d0 = w.advance();
        assert_eq!((d0.start, d0.end), (0, 5));
        assert_eq!(d0.len(), 1);
        let d1 = w.advance();
        assert_eq!((d1.start, d1.end), (10, 15));
        assert_eq!(w.gap_events(), 1);
        // Window 1 retracts (0,1) and inserts (1,2).
        assert_eq!(d1.len(), 2);
        assert!(d1.changes[0].is_retraction());
        assert!(d1.changes[1].is_insertion());
    }

    #[test]
    fn invalid_and_late_events_counted() {
        let mut w = SlidingWindower::tumbling(0, 10);
        assert!(!w.push(ev(1, 0, 0, 1.0))); // self-loop
        assert!(!w.push(ev(1, 0, 1, f64::NAN)));
        assert!(!w.push(ev(1, 0, 1, -2.0)));
        assert!(!w.push(ev(1, 0, 1, 0.0)));
        assert_eq!(w.invalid_events(), 4);
        let _ = w.advance();
        assert!(!w.push(ev(3, 0, 1, 1.0))); // window [0,10) already emitted
        assert_eq!(w.late_events(), 1);
        assert!(w.push(ev(10, 0, 1, 1.0)));
    }

    #[test]
    fn bit_equal_resum_is_elided() {
        // Pair (0,1) has one event per window with the same weight: the
        // re-summed aggregate is bitwise unchanged, so no change is
        // emitted even though the underlying events differ.
        let events = vec![ev(1, 0, 1, 1.5), ev(11, 0, 1, 1.5), ev(12, 1, 2, 1.0)];
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            w.push(e);
        }
        let _ = w.advance();
        let d1 = w.advance();
        assert_eq!(d1.len(), 1, "only (1,2) changed: {:?}", d1.changes);
        assert_eq!(d1.changes[0].pair(), (n(1), n(2)));
        assert_eq!(w.aggregate_weight(n(0), n(1)), Some(1.5));
    }

    #[test]
    fn out_of_order_arrival_resums_in_arrival_order() {
        // Three same-pair events arrive out of time order; the aggregate
        // must follow arrival order (what a cold builder over the pushed
        // stream would compute), not timestamp order.
        let events = vec![ev(9, 0, 1, 0.1), ev(2, 0, 1, 0.2), ev(5, 0, 1, 0.3)];
        let mut w = SlidingWindower::tumbling(0, 10);
        for &e in &events {
            assert!(w.push(e));
        }
        let delta = w.advance();
        let expected: f64 = 0.1 + 0.2 + 0.3;
        assert_eq!(delta.len(), 1);
        assert_eq!(
            delta.changes[0].new.map(f64::to_bits),
            Some(expected.to_bits())
        );
    }

    #[test]
    fn delta_summary_counts() {
        let delta = WindowDelta {
            start: 0,
            end: 10,
            changes: vec![
                EdgeChange {
                    src: n(0),
                    dst: n(1),
                    old: None,
                    new: Some(1.0),
                },
                EdgeChange {
                    src: n(1),
                    dst: n(2),
                    old: Some(2.0),
                    new: Some(3.0),
                },
                EdgeChange {
                    src: n(2),
                    dst: n(0),
                    old: Some(1.0),
                    new: None,
                },
            ],
        };
        assert_eq!(delta.summary(), (1, 1, 1));
        assert_eq!(delta.touched_nodes().len(), 3);
        assert!(!delta.is_empty());
        assert_eq!(delta.len(), 3);
    }

    #[test]
    #[should_panic(expected = "slide must be positive")]
    fn zero_slide_rejected() {
        let _ = SlidingWindower::new(0, 10, 0);
    }

    /// A restored windower must be bit-indistinguishable from the
    /// original: identical counters, identical future deltas, and a
    /// byte-identical re-export.
    #[test]
    fn export_restore_roundtrip_bit_identical() {
        let events = vec![
            ev(1, 0, 1, 0.1),
            ev(6, 0, 1, 0.2),
            ev(7, 1, 2, 1.5),
            ev(9, 0, 1, 0.3),
            ev(12, 0, 1, 0.7),
            ev(14, 2, 1, 2.0),
            ev(22, 1, 0, 0.25),
        ];
        let mut w = SlidingWindower::new(0, 10, 5);
        for &e in &events {
            w.push(e);
        }
        let _ = w.advance();
        let _ = w.advance();
        let state = w.export_state();
        let mut restored = SlidingWindower::from_state(state.clone()).expect("valid state");
        assert_eq!(restored.export_state(), state, "re-export must round-trip");
        // Both continue identically: same pushes, same deltas.
        let more = vec![ev(16, 0, 2, 1.0), ev(21, 2, 0, 0.5)];
        for &e in &more {
            assert_eq!(w.push(e), restored.push(e));
        }
        for _ in 0..3 {
            let a = w.advance();
            let b = restored.advance();
            assert_eq!((a.start, a.end), (b.start, b.end));
            assert_eq!(a.changes.len(), b.changes.len());
            for (x, y) in a.changes.iter().zip(&b.changes) {
                assert_eq!(x.pair(), y.pair());
                assert_eq!(x.old.map(f64::to_bits), y.old.map(f64::to_bits));
                assert_eq!(x.new.map(f64::to_bits), y.new.map(f64::to_bits));
            }
        }
        assert_eq!(w.invalid_events(), restored.invalid_events());
        assert_eq!(w.late_events(), restored.late_events());
        assert_eq!(w.gap_events(), restored.gap_events());
        assert_eq!(w.pending_events(), restored.pending_events());
        assert_eq!(w.active_edges(), restored.active_edges());
    }

    /// A consistent mid-stream state: pair (0,1) holds three active
    /// events, (1,2) one, and one event is still pending.
    fn mid_stream_state() -> WindowerState {
        let mut w = SlidingWindower::tumbling(0, 10);
        for e in [
            ev(1, 0, 1, 0.1),
            ev(2, 0, 1, 0.2),
            ev(3, 0, 1, 0.3),
            ev(4, 1, 2, 1.5),
            ev(12, 2, 0, 0.5),
        ] {
            assert!(w.push(e));
        }
        let _ = w.advance();
        let state = w.export_state();
        assert_eq!(state.pair_events[0].1.len(), 3, "fixture shape");
        state
    }

    /// Restoring `state` fails, and the error names the broken invariant.
    fn rejects(state: WindowerState, needle: &str) {
        match SlidingWindower::from_state(state) {
            Ok(_) => panic!("accepted a state that should fail with `{needle}`"),
            Err(e) => assert!(e.contains(needle), "`{e}` does not mention `{needle}`"),
        }
    }

    /// Corrupt states must come back as typed errors, never panics. That
    /// covers the cross-part invariants both advance paths rely on:
    /// `pairs` holds exactly the active events, each list in arrival
    /// order, each aggregate the arrival-order sum of its list.
    #[test]
    fn corrupt_state_rejected_with_error() {
        let empty = SlidingWindower::tumbling(0, 10).export_state();
        let mut zero_width = empty.clone();
        zero_width.width = 0;
        assert!(SlidingWindower::from_state(zero_width).is_err());
        let mut bad_agg = empty.clone();
        bad_agg.agg.push(((n(0), n(1)), f64::NAN));
        assert!(SlidingWindower::from_state(bad_agg).is_err());
        let mut dup_pending = empty;
        dup_pending.pending.push((5, 1, n(0), n(1), 1.0));
        dup_pending.pending.push((5, 1, n(0), n(2), 1.0));
        assert!(SlidingWindower::from_state(dup_pending).is_err());

        let base = mid_stream_state();
        assert!(SlidingWindower::from_state(base.clone()).is_ok());

        // An aggregate with no event list, and an event list with no
        // aggregate.
        let mut s = base.clone();
        s.pair_events.remove(1);
        rejects(s, "different pairs");
        let mut s = base.clone();
        s.agg.remove(1);
        rejects(s, "different pairs");
        let mut s = base.clone();
        s.pair_events[1].0 = (n(1), n(3));
        rejects(s, "disagree");

        // An aggregate that is not the arrival-order re-sum.
        let mut s = base.clone();
        let reversed: f64 = 0.3 + 0.2 + 0.1;
        assert_ne!(reversed.to_bits(), s.agg[0].1.to_bits(), "fixture shape");
        s.agg[0].1 = reversed;
        rejects(s, "not the sum of its events");

        // A pair list out of seq order, and an emptied one.
        let mut s = base.clone();
        s.pair_events[0].1.swap(0, 1);
        rejects(s, "not strictly ascending by seq");
        let mut s = base.clone();
        s.pair_events[1].1.clear();
        rejects(s, "no events");

        // An active entry with no pair event: drop one event from the
        // list and keep its aggregate consistent, so only the active
        // cross-check can catch it.
        let mut s = base.clone();
        s.pair_events[0].1.pop();
        s.agg[0].1 = 0.1 + 0.2;
        rejects(s, "missing from pair_events");

        // A pair event with no active entry, or under another pair.
        let mut s = base.clone();
        s.active.remove(0);
        rejects(s, "is not active");
        let mut s = base.clone();
        s.active[0].3 = n(2);
        rejects(s, "is not active");

        // Arrival seqs that repeat, or collide with the next push.
        let mut s = base.clone();
        s.pending[0].1 = s.active[0].1;
        rejects(s, "repeat");
        let mut s = base;
        s.seq = s.pending[0].1;
        rejects(s, "next seq");
    }

    /// Every `f64` of a state, as bits, so equality means bit-identity.
    type StateBits = (
        Vec<(u64, u64, NodeId, NodeId, u64)>,
        Vec<((NodeId, NodeId), Vec<(u64, u64, u64)>)>,
        Vec<((NodeId, NodeId), u64)>,
    );

    fn state_bits(s: &WindowerState) -> StateBits {
        (
            s.pending
                .iter()
                .map(|&(t, q, a, b, w)| (t, q, a, b, w.to_bits()))
                .collect(),
            s.pair_events
                .iter()
                .map(|(p, ev)| {
                    (
                        *p,
                        ev.iter().map(|&(q, t, w)| (q, t, w.to_bits())).collect(),
                    )
                })
                .collect(),
            s.agg.iter().map(|&(p, w)| (p, w.to_bits())).collect(),
        )
    }

    type ChangeBits = (NodeId, NodeId, Option<u64>, Option<u64>);

    fn delta_bits(d: &WindowDelta) -> (u64, u64, Vec<ChangeBits>) {
        let changes = d
            .changes
            .iter()
            .map(|c| {
                (
                    c.src,
                    c.dst,
                    c.old.map(f64::to_bits),
                    c.new.map(f64::to_bits),
                )
            })
            .collect();
        (d.start, d.end, changes)
    }

    fn assert_same_state(a: &SlidingWindower, b: &SlidingWindower) {
        let (x, y) = (a.export_state(), b.export_state());
        assert_eq!(x, y);
        assert_eq!(state_bits(&x), state_bits(&y));
    }

    /// One step of a random stream: push an event, or advance a window.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(EdgeEvent),
        Advance,
    }

    fn op_stream() -> impl Strategy<Value = Vec<Op>> {
        // Times run past several windows in random order, so streams mix
        // out-of-order, late and gapped events; a few self-loops test the
        // validity gate. Weights with no exact binary form make the sum
        // order visible in the bits.
        let op = (0u8..5, 0u64..60, 0usize..5, 0usize..5, 1u32..40);
        prop::collection::vec(op, 0..120).prop_map(|ops| {
            ops.into_iter()
                .map(|(kind, time, src, dst, w)| {
                    if kind == 0 {
                        Op::Advance
                    } else {
                        Op::Push(ev(time, src, dst, f64::from(w) * 0.1))
                    }
                })
                .collect()
        })
    }

    proptest! {
        /// The all-leave path and the general path emit the same deltas
        /// and leave the same state, bit for bit, for tumbling,
        /// overlapping and gapped windows, through a mid-stream
        /// export/restore.
        #[test]
        fn all_leave_path_matches_general_path(
            ops in op_stream(),
            width in 1u64..12,
            slide_pick in 0u8..3,
            step in 1u64..6,
            restore_at in 0usize..120,
        ) {
            // slide < width, slide == width and slide > width in turn.
            let slide = match slide_pick {
                0 => width.saturating_sub(step).max(1),
                1 => width,
                _ => width + step,
            };
            let mut fast = SlidingWindower::new(0, width, slide);
            let mut general = fast.clone();
            for (i, &op) in ops.iter().enumerate() {
                if i == restore_at {
                    fast = SlidingWindower::from_state(fast.export_state()).unwrap();
                    general = SlidingWindower::from_state(general.export_state()).unwrap();
                }
                match op {
                    Op::Push(e) => prop_assert_eq!(fast.push(e), general.push(e)),
                    Op::Advance => {
                        if slide >= width {
                            let s = fast.next_start;
                            prop_assert!(fast.active.keys().all(|&(t, _)| t < s));
                        }
                        let a = fast.advance();
                        let b = general.advance_via(false);
                        prop_assert_eq!(delta_bits(&a), delta_bits(&b));
                    }
                }
                assert_same_state(&fast, &general);
            }
            // Drain the buffer through both paths.
            while fast.pending_events() > 0 {
                let a = fast.advance();
                let b = general.advance_via(false);
                prop_assert_eq!(delta_bits(&a), delta_bits(&b));
                assert_same_state(&fast, &general);
            }
        }
    }
}
