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
//!    window — floating-point subtraction does not round-trip. Instead each
//!    advance **re-sums every pair of the new window in arrival order**,
//!    which is exactly the accumulation order of `GraphBuilder::add_event`
//!    over the window's events.
//! 2. A change whose re-summed weight is bitwise equal to the previous
//!    aggregate is elided from the delta: every downstream value derived
//!    from it is bitwise unchanged.
//!
//! # One advance path
//!
//! Between advances the windower keeps only what a future window reads:
//! the pending events, the emitted window's events that the next window
//! still contains (none when `slide >= width`), and the emitted window's
//! per-pair aggregates, sorted by pair. An advance gathers the window's
//! events (those survivors plus the entering pending events), sorts them
//! by `(pair, arrival seq)`, sums each pair's run, and merge-diffs the sums
//! against the previous aggregates, so the delta comes out sorted. The
//! same path serves tumbling, overlapping and gapped windows. Overlapping
//! windows pay for it: each event is summed once per window that holds
//! it, `width / slide` times in all.
//!
//! # The pending buffer
//!
//! Pending events sit in a `Vec`, and a push is an append. Seqs grow with
//! arrival, so the events of any one time stay in `seq` order, and while
//! no event arrives earlier than the one before it the buffer is in
//! `(time, seq)` order. An event that arrives earlier only marks the
//! buffer unsorted; the next advance restores the order with one stable
//! sort by time, which keeps each time's events in `seq` order.
//! [`SlidingWindower::pending`] yields `(time, seq)` order whichever
//! state the buffer is in, so the snapshot and the state digest see the
//! same bytes either way. An advance drains the emitted prefix and keeps
//! the buffer's capacity for the next window.

use std::borrow::Cow;

use rustc_hash::FxHashSet;

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

/// A buffered event as `(time, arrival seq, src, dst, weight)`.
pub type TimedEvent = (u64, u64, NodeId, NodeId, Weight);

/// An aggregated edge of the emitted window: its `(src, dst)` pair and
/// weight.
pub type Aggregate = ((NodeId, NodeId), Weight);

/// Exactly the [`GraphBuilder::add_event`](crate::GraphBuilder::add_event)
/// gate: no self-loops, finite positive weights.
fn valid_event(src: NodeId, dst: NodeId, w: Weight) -> bool {
    src != dst && w.is_finite() && w > 0.0
}

/// The changes from `old` to `new` aggregates, both strictly ascending
/// by pair: sorted by pair, with bit-equal weights elided.
fn diff(old: &[Aggregate], new: &[Aggregate]) -> Vec<EdgeChange> {
    use std::cmp::Ordering;
    let mut changes = Vec::new();
    let (mut i, mut j) = (0, 0);
    loop {
        let ((src, dst), old_w, new_w) = match (old.get(i), new.get(j)) {
            (None, None) => break,
            (Some(&(p, a)), None) => {
                i += 1;
                (p, Some(a), None)
            }
            (None, Some(&(q, b))) => {
                j += 1;
                (q, None, Some(b))
            }
            (Some(&(p, a)), Some(&(q, b))) => match p.cmp(&q) {
                Ordering::Less => {
                    i += 1;
                    (p, Some(a), None)
                }
                Ordering::Greater => {
                    j += 1;
                    (q, None, Some(b))
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (p, Some(a), Some(b))
                }
            },
        };
        if old_w.map(f64::to_bits) != new_w.map(f64::to_bits) {
            changes.push(EdgeChange {
                src,
                dst,
                old: old_w,
                new: new_w,
            });
        }
    }
    changes
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
/// Between advances the windower keeps only what a future window reads:
/// the events not yet emitted, the emitted window's events that the next
/// window still contains, and the emitted window's per-pair aggregates.
/// With `slide >= width` no emitted event survives, so a tumbling
/// windower holds its pending events and aggregates alone.
#[derive(Debug, Clone)]
pub struct SlidingWindower {
    width: u64,
    slide: u64,
    next_start: u64,
    seq: u64,
    /// Events not yet emitted into a window. A push appends, so each
    /// time's events are in `seq` order.
    pending: Vec<TimedEvent>,
    /// Whether `pending` is in time order, hence in `(time, seq)` order:
    /// false once an event arrived earlier than its predecessor.
    pending_sorted: bool,
    /// Events of the emitted window at or after `next_start`, in
    /// `(time, seq)` order.
    survivors: Vec<TimedEvent>,
    /// The emitted window's aggregated weight per pair, strictly
    /// ascending by pair: the weights of its graph.
    agg: Vec<Aggregate>,
    /// Scratch reused by each advance: the window's events as
    /// `(pair, seq, weight)`.
    runs: Vec<((NodeId, NodeId), u64, Weight)>,
    /// Scratch reused by each advance: the aggregates that replace `agg`.
    next_agg: Vec<Aggregate>,
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
            pending: Vec::new(),
            pending_sorted: true,
            survivors: Vec::new(),
            agg: Vec::new(),
            runs: Vec::new(),
            next_agg: Vec::new(),
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
        if !valid_event(event.src, event.dst, event.weight) {
            self.invalid_events += 1;
            return false;
        }
        if event.time < self.next_start {
            self.late_events += 1;
            return false;
        }
        if self.pending.last().is_some_and(|last| event.time < last.0) {
            self.pending_sorted = false;
        }
        self.pending
            .push((event.time, self.seq, event.src, event.dst, event.weight));
        self.seq += 1;
        true
    }

    /// Emits the next window `[s, s + width)` and returns the aggregated
    /// delta against the previous window.
    ///
    /// The window's events are the previous window's survivors plus the
    /// pending events in `[s, s + width)`. Each pair's events are summed
    /// in arrival order, and the sums are merge-diffed against the
    /// previous aggregates, so the changes come out sorted by pair.
    ///
    /// # Panics
    /// Panics if the window range or the next start would overflow `u64`.
    pub fn advance(&mut self) -> WindowDelta {
        let s = self.next_start;
        let e = s
            .checked_add(self.width)
            .expect("window end overflows the u64 time axis");
        let next = s
            .checked_add(self.slide)
            .expect("next window start overflows the u64 time axis");

        if !self.pending_sorted {
            // Stable, so equal times keep their arrival (seq) order.
            self.pending.sort_by_key(|&(time, ..)| time);
            self.pending_sorted = true;
        }
        // Events that fell in the gap between the previous window's end
        // and this window's start (only possible when slide > width).
        let gap = self.pending.partition_point(|&(time, ..)| time < s);
        self.gap_events += gap as u64;

        // The window: the survivors plus the pending events in [s, e).
        let emitted = self.pending.partition_point(|&(time, ..)| time < e);
        let entering = self.pending.get(gap..emitted).unwrap_or_default();

        // Group per pair in arrival order, and sum each group without
        // ever subtracting: exactly `GraphBuilder::add_event`'s
        // accumulation over the window's events.
        self.runs.clear();
        self.runs.extend(
            self.survivors
                .iter()
                .chain(entering)
                .map(|&(_, seq, src, dst, w)| ((src, dst), seq, w)),
        );
        self.runs
            .sort_unstable_by_key(|&(pair, seq, _)| (pair, seq));
        self.next_agg.clear();
        self.next_agg
            .extend(self.runs.chunk_by(|a, b| a.0 == b.0).filter_map(|run| {
                let &(pair, _, _) = run.first()?;
                Some((pair, run.iter().fold(0.0, |sum, &(_, _, w)| sum + w)))
            }));
        let changes = diff(&self.agg, &self.next_agg);
        std::mem::swap(&mut self.agg, &mut self.next_agg);

        // The next window still holds the events at or after `next`:
        // older survivors first, then entering ones, each part in
        // `(time, seq)` order; one sort merges them.
        self.survivors.retain(|&(time, ..)| time >= next);
        let from = entering.partition_point(|&(time, ..)| time < next);
        if let Some(tail) = entering.get(from..) {
            self.survivors.extend_from_slice(tail);
        }
        self.survivors
            .sort_unstable_by_key(|&(time, seq, ..)| (time, seq));
        self.pending.drain(..emitted);
        self.next_start = next;
        WindowDelta {
            start: s,
            end: e,
            changes,
        }
    }

    /// Number of distinct aggregated edges in the emitted window.
    #[must_use]
    pub fn active_edges(&self) -> usize {
        self.agg.len()
    }

    /// Events buffered for windows not yet emitted.
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

    /// The scalar fields in [`WindowerState`] order: width, slide, next
    /// start, next seq, then the invalid, late and gap counters.
    #[must_use]
    pub fn header(&self) -> [u64; 7] {
        [
            self.width,
            self.slide,
            self.next_start,
            self.seq,
            self.invalid_events,
            self.late_events,
            self.gap_events,
        ]
    }

    /// [`WindowerState::pending`], in `(time, seq)` order: borrowed
    /// while the events arrived in time order, else a stably time-sorted
    /// copy.
    pub fn pending(&self) -> impl ExactSizeIterator<Item = TimedEvent> + '_ {
        let events = if self.pending_sorted {
            Cow::Borrowed(self.pending.as_slice())
        } else {
            let mut sorted = self.pending.clone();
            sorted.sort_by_key(|&(time, ..)| time);
            Cow::Owned(sorted)
        };
        TimeOrdered { events, at: 0 }
    }

    /// [`WindowerState::survivors`], borrowed.
    pub fn survivors(&self) -> impl ExactSizeIterator<Item = TimedEvent> + '_ {
        self.survivors.iter().copied()
    }

    /// [`WindowerState::agg`], borrowed.
    #[must_use]
    pub fn aggregates(&self) -> &[Aggregate] {
        &self.agg
    }

    /// One past the largest node id that a pending event, a survivor or
    /// an aggregate names, or 0 when the windower holds none: the
    /// smallest node space that the windower's graphs fit in.
    #[must_use]
    pub fn node_bound(&self) -> usize {
        let events = self.pending.iter().chain(&self.survivors);
        events
            .map(|&(_, _, src, dst, _)| (src, dst))
            .chain(self.agg.iter().map(|&(pair, _)| pair))
            .map(|(src, dst)| src.index().max(dst.index()) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Exports the windower's complete state as a deterministic,
    /// serialisable image: every part is already in canonical order, so
    /// two bit-identical windowers export byte-identical states.
    #[must_use]
    pub fn export_state(&self) -> WindowerState {
        let [width, slide, next_start, seq, invalid_events, late_events, gap_events] =
            self.header();
        WindowerState {
            width,
            slide,
            next_start,
            seq,
            invalid_events,
            late_events,
            gap_events,
            pending: self.pending().collect(),
            survivors: self.survivors.clone(),
            agg: self.agg.clone(),
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
    /// unsorted or duplicated event keys; invalid events; arrival seqs
    /// that repeat or reach the next seq; a survivor outside
    /// `[next_start, previous window end)` or without an aggregate for
    /// its pair; and aggregates that are not strictly ascending by pair,
    /// or carry a self-loop or an invalid weight.
    pub fn from_state(state: WindowerState) -> Result<SlidingWindower, String> {
        if state.width == 0 {
            return Err("windower state: zero window width".into());
        }
        if state.slide == 0 {
            return Err("windower state: zero window slide".into());
        }
        check_events(&state.pending, "pending")?;
        check_events(&state.survivors, "survivor")?;
        // Arrival order is only defined if every buffered event has its
        // own seq, below the one the next push takes.
        let mut seqs: Vec<u64> = state
            .pending
            .iter()
            .chain(&state.survivors)
            .map(|&(_, seq, ..)| seq)
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
        let mut last: Option<(NodeId, NodeId)> = None;
        for &(pair, w) in &state.agg {
            if last.is_some_and(|p| p >= pair) {
                return Err("windower state: aggregate pairs not strictly ascending".into());
            }
            last = Some(pair);
            if !valid_event(pair.0, pair.1, w) {
                return Err(format!("windower state: invalid aggregate for {pair:?}"));
            }
        }
        // Survivors lie in the emitted window's overlap with the next
        // one, and each adds to its pair's aggregate.
        let prev_end = state
            .next_start
            .checked_sub(state.slide)
            .and_then(|prev_start| prev_start.checked_add(state.width));
        for &(time, seq, src, dst, _) in &state.survivors {
            if time < state.next_start || prev_end.is_none_or(|end| time >= end) {
                return Err(format!(
                    "windower state: survivor ({time}, {seq}) outside the emitted window's overlap"
                ));
            }
            if state
                .agg
                .binary_search_by_key(&(src, dst), |&(pair, _)| pair)
                .is_err()
            {
                return Err(format!(
                    "windower state: survivor ({time}, {seq}) has no aggregate"
                ));
            }
        }
        Ok(SlidingWindower {
            width: state.width,
            slide: state.slide,
            next_start: state.next_start,
            seq: state.seq,
            pending: state.pending,
            pending_sorted: true,
            survivors: state.survivors,
            agg: state.agg,
            runs: Vec::new(),
            next_agg: Vec::new(),
            invalid_events: state.invalid_events,
            late_events: state.late_events,
            gap_events: state.gap_events,
        })
    }
}

/// Checks one event list of a [`WindowerState`]: its `(time, seq)` keys
/// strictly ascend and every event passes the validity gate.
fn check_events(events: &[TimedEvent], what: &str) -> Result<(), String> {
    let mut last: Option<(u64, u64)> = None;
    for &(time, seq, src, dst, w) in events {
        if last.is_some_and(|k| k >= (time, seq)) {
            return Err(format!(
                "windower state: {what} keys not strictly ascending"
            ));
        }
        last = Some((time, seq));
        if !valid_event(src, dst, w) {
            return Err(format!(
                "windower state: invalid {what} event ({time}, {seq})"
            ));
        }
    }
    Ok(())
}

/// [`SlidingWindower::pending`]'s iterator over events already in
/// `(time, seq)` order, borrowed or sorted into a copy.
struct TimeOrdered<'a> {
    events: Cow<'a, [TimedEvent]>,
    at: usize,
}

impl Iterator for TimeOrdered<'_> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        let event = self.events.get(self.at).copied()?;
        self.at += 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.events.len().saturating_sub(self.at);
        (left, Some(left))
    }
}

impl ExactSizeIterator for TimeOrdered<'_> {}

/// A complete, deterministic image of a [`SlidingWindower`], produced by
/// [`SlidingWindower::export_state`] and consumed by
/// [`SlidingWindower::from_state`]. Every part is in canonical order, so
/// equal windowers produce equal states (and byte-identical
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
    /// Events not yet emitted, strictly ascending by `(time, seq)`.
    pub pending: Vec<TimedEvent>,
    /// Events of the emitted window at or after `next_start`, which the
    /// next window still contains, strictly ascending by `(time, seq)`.
    /// Always empty when `slide >= width`.
    pub survivors: Vec<TimedEvent>,
    /// The emitted window's aggregated weight per pair, pairs strictly
    /// ascending.
    pub agg: Vec<Aggregate>,
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
        assert_eq!(w.aggregates()[0], ((n(0), n(1)), 1.5));
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

    /// A consistent mid-stream state: width 10, slide 5, after the
    /// window [0, 10). Pair (0,1) aggregates three events, two of which
    /// survive into [5, 15); (1,2) aggregates one that does not; one
    /// event is still pending.
    fn mid_stream_state() -> WindowerState {
        let mut w = SlidingWindower::new(0, 10, 5);
        for e in [
            ev(1, 0, 1, 0.1),
            ev(6, 0, 1, 0.2),
            ev(7, 0, 1, 0.3),
            ev(4, 1, 2, 1.5),
            ev(12, 2, 0, 0.5),
        ] {
            assert!(w.push(e));
        }
        let _ = w.advance();
        let state = w.export_state();
        assert_eq!(state.survivors.len(), 2, "fixture shape");
        assert_eq!(state.agg.len(), 2, "fixture shape");
        assert_eq!(state.pending.len(), 1, "fixture shape");
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
    /// covers every invariant the advance relies on: event maps in key
    /// order, distinct seqs below the next one, survivors inside the
    /// emitted window's overlap with the next and counted in an
    /// aggregate, and aggregates sorted and valid.
    #[test]
    fn corrupt_state_rejected_with_error() {
        let base = mid_stream_state();
        assert!(SlidingWindower::from_state(base.clone()).is_ok());

        let mut s = base.clone();
        s.width = 0;
        rejects(s, "zero window width");
        let mut s = base.clone();
        s.slide = 0;
        rejects(s, "zero window slide");

        // Event maps out of key order, or holding an invalid event.
        let mut s = base.clone();
        s.survivors.swap(0, 1);
        rejects(s, "survivor keys not strictly ascending");
        let mut s = base.clone();
        s.pending.push(s.pending[0]);
        rejects(s, "pending keys not strictly ascending");
        let mut s = base.clone();
        s.pending[0].4 = f64::NAN;
        rejects(s, "invalid pending event");
        let mut s = base.clone();
        s.survivors[0].3 = s.survivors[0].2;
        rejects(s, "invalid survivor event");

        // Arrival seqs that repeat, or collide with the next push.
        let mut s = base.clone();
        s.pending[0].1 = s.survivors[0].1;
        rejects(s, "repeat");
        let mut s = base.clone();
        s.seq = s.pending[0].1;
        rejects(s, "next seq");

        // A survivor the next window does not contain, one the emitted
        // window did not, and one on a pair with no aggregate.
        let mut s = base.clone();
        s.survivors[0].0 = 4;
        rejects(s, "outside the emitted window's overlap");
        let mut s = base.clone();
        s.survivors[1].0 = 10;
        rejects(s, "outside the emitted window's overlap");
        let mut s = base.clone();
        s.survivors[1].3 = n(2);
        rejects(s, "has no aggregate");

        // A tumbling state keeps no survivors at all.
        let mut s = base.clone();
        s.slide = 10;
        s.next_start = 10;
        s.survivors[0].0 = 10;
        s.survivors[1].0 = 11;
        rejects(s, "outside the emitted window's overlap");

        // Aggregates out of order, on a self-loop, or with a weight no
        // accepted event stream can sum to.
        let mut s = base.clone();
        s.agg.swap(0, 1);
        rejects(s, "not strictly ascending");
        let mut s = base.clone();
        s.agg.push(s.agg[1]);
        rejects(s, "not strictly ascending");
        let mut s = base.clone();
        s.agg[1].0 = (n(2), n(2));
        rejects(s, "invalid aggregate");
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut s = base.clone();
            s.agg[1].1 = bad;
            rejects(s, "invalid aggregate");
        }
    }

    /// Every `f64` of a state, as bits, so equality means bit-identity.
    type StateBits = (
        Vec<(u64, u64, NodeId, NodeId, u64)>,
        Vec<(u64, u64, NodeId, NodeId, u64)>,
        Vec<((NodeId, NodeId), u64)>,
    );

    fn state_bits(s: &WindowerState) -> StateBits {
        let events = |events: &[TimedEvent]| {
            events
                .iter()
                .map(|&(t, q, a, b, w)| (t, q, a, b, w.to_bits()))
                .collect()
        };
        (
            events(&s.pending),
            events(&s.survivors),
            s.agg.iter().map(|&(p, w)| (p, w.to_bits())).collect(),
        )
    }

    /// One step of a random stream: push an event, or advance a window.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(EdgeEvent),
        Advance,
    }

    fn op_stream() -> impl Strategy<Value = Vec<Op>> {
        // Times run past several windows in random order, so streams mix
        // out-of-order, late and gapped events. Three nodes make pairs
        // repeat within a window, and weights with no exact binary form
        // make the sum order visible in the bits; the self-loops among
        // them test the validity gate.
        let op = (0u8..5, 0u64..60, 0usize..3, 0usize..3, 1u32..40);
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

    /// Advances `w`, applies the delta to `g`, and checks the result
    /// against a cold build over the events `w` accepted so far, and
    /// against `w`'s own aggregates, bit for bit.
    fn advance_checked(w: &mut SlidingWindower, g: &mut CommGraph, accepted: &[EdgeEvent]) {
        let delta = w.advance();
        *g = g.apply_delta(&delta);
        let oracle = cold(g.num_nodes(), accepted, delta.start, delta.end);
        prop_assert!(
            graphs_bit_identical(g, &oracle),
            "window [{}, {}) diverged from a cold rebuild",
            delta.start,
            delta.end
        );
        let state = w.export_state();
        let edges: Vec<_> = g
            .edges()
            .map(|x| ((x.src, x.dst), x.weight.to_bits()))
            .collect();
        prop_assert_eq!(edges, state_bits(&state).2);
        prop_assert!(state.slide < state.width || state.survivors.is_empty());
    }

    proptest! {
        /// The oracle: after every advance, the delta-applied graph is
        /// bit-identical to a cold `GraphBuilder` build of the window, and
        /// its edges are the windower's aggregates bit for bit. Streams mix
        /// out-of-order, late, gapped and invalid events; slides run below,
        /// at and above the width; a mid-stream export/restore round-trips
        /// bit-identically and carries on.
        #[test]
        fn every_window_matches_a_cold_rebuild(
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
            let mut w = SlidingWindower::new(0, width, slide);
            let mut g = CommGraph::from_sorted_edges(3, Vec::new());
            let mut accepted = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                if i == restore_at {
                    let state = w.export_state();
                    w = SlidingWindower::from_state(state.clone()).unwrap();
                    prop_assert_eq!(state_bits(&w.export_state()), state_bits(&state));
                }
                match op {
                    Op::Push(e) => {
                        if w.push(e) {
                            accepted.push(e);
                        }
                    }
                    Op::Advance => advance_checked(&mut w, &mut g, &accepted),
                }
            }
            // Drain the buffer.
            while w.pending_events() > 0 {
                advance_checked(&mut w, &mut g, &accepted);
            }
        }

        /// The arrival-order pending buffer: pushes that run backwards in
        /// time mark it unsorted, yet after every push and advance
        /// `pending()` (and the exported state) yields exactly the
        /// accepted events not yet emitted, in `(time, seq)` order, with
        /// `seq` the arrival index; and every delta still matches a cold
        /// rebuild of its window.
        #[test]
        fn pending_order_survives_out_of_order_arrivals(
            ops in op_stream(),
            width in 1u64..12,
            overlap in any::<bool>(),
        ) {
            let slide = if overlap { width.div_ceil(2) } else { width };
            let mut w = SlidingWindower::new(0, width, slide);
            let mut g = CommGraph::from_sorted_edges(3, Vec::new());
            let mut accepted = Vec::new();
            // The pending events as a `(time, seq)`-keyed map would hold
            // them.
            let mut model: Vec<TimedEvent> = Vec::new();
            // Reversed, so most pushes arrive earlier than their
            // predecessor.
            for &op in ops.iter().rev() {
                match op {
                    Op::Push(e) => {
                        if w.push(e) {
                            let seq = accepted.len() as u64;
                            model.push((e.time, seq, e.src, e.dst, e.weight));
                            accepted.push(e);
                        }
                    }
                    Op::Advance => {
                        // The window takes (or the gap drops) every
                        // pending event before its end.
                        let end = w.next_window().unwrap().1;
                        model.retain(|&(time, ..)| time >= end);
                        advance_checked(&mut w, &mut g, &accepted);
                    }
                }
                model.sort_by_key(|&(time, seq, ..)| (time, seq));
                let pending: Vec<TimedEvent> = w.pending().collect();
                prop_assert_eq!(w.pending().len(), model.len());
                prop_assert_eq!(&pending, &model);
                prop_assert_eq!(&w.export_state().pending, &model);
            }
            while w.pending_events() > 0 {
                advance_checked(&mut w, &mut g, &accepted);
            }
        }
    }
}
