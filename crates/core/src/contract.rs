//! Paper-invariant contract layer.
//!
//! The paper's definitions are machine-checkable contracts:
//!
//! * **Definition 1** — a signature is a top-`k` set of `(node, weight)`
//!   pairs with *finite, strictly positive* weights, stored sorted by
//!   node id ([`check_signature`]);
//! * **Definition 2** — every distance function maps into `[0, 1]`
//!   ([`check_unit_interval`]) and is symmetric,
//!   `Dist(σ₁, σ₂) = Dist(σ₂, σ₁)` ([`check_distance`]);
//! * **Definition 5** — RWR transition rows are row-stochastic
//!   ([`check_stochastic_row`], [`check_transition_rows`]) and an
//!   occupancy vector is a (possibly pruned) probability distribution
//!   ([`check_occupancy`]);
//! * the batched engine's epoch-stamped workspaces must be clean at the
//!   start of every batch ([`check_scatter_clean`]);
//! * a streaming-pipeline advance must be bit-identical to a cold
//!   rebuild ([`check_pipeline_equiv`]);
//! * the exact tier's window graph is its windower's aggregates, bit for
//!   bit ([`check_window_graph`]);
//! * a fast path equals its reference oracle bit for bit
//!   ([`check_bit_equal`]), e.g. serve's detector sweep.
//!
//! Checks are **active in debug builds and when the `contracts` feature
//! is enabled**; in a plain release build every checker compiles to a
//! no-op, so the hot paths pay nothing. The checkers are called from the
//! signature constructor, every distance implementation, the property
//! definitions, the batched RWR engine, `comsig-eval`'s matchers and ROC
//! machinery, and `comsig-graph`'s property tests (via dev-dependency).

use comsig_graph::{Aggregate, CommGraph, NodeId};

use crate::distance::SignatureDistance;
use crate::engine::{DegradeReason, DenseScatter};
use crate::scheme::SignatureScheme;
use crate::signature::{Signature, SignatureSet};

/// Absolute tolerance for stochasticity and unit-interval checks.
/// Row sums and distances are accumulated over at most a few thousand
/// float additions, so 1e-9 is orders of magnitude above accumulated
/// rounding noise while still catching any real normalisation bug.
pub const TOLERANCE: f64 = 1e-9;

/// Tolerance for the symmetry check `Dist(a,b) = Dist(b,a)`. Every
/// implemented distance evaluates the same merge-join in the same order
/// for both argument orders, so the two values must agree to the last
/// few ulps.
pub const SYMMETRY_TOLERANCE: f64 = 1e-12;

/// Whether contract checks are compiled in: true in debug builds
/// (`cfg(debug_assertions)`) and when the `contracts` feature is on.
#[inline]
#[must_use]
pub const fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "contracts"))
}

/// Definition 1: every weight is finite and strictly positive, and the
/// entries are strictly sorted by node id (the representation invariant
/// the `O(k)` distance merge-joins rely on).
///
/// # Panics
/// Panics (when [`enabled`]) if the signature violates the contract.
#[inline]
pub fn check_signature(sig: &Signature) {
    if !enabled() {
        return;
    }
    let mut prev: Option<NodeId> = None;
    for (u, w) in sig.iter() {
        assert!(
            w.is_finite() && w > 0.0,
            "contract violation (Definition 1): weight {w} of node {u} is not finite and positive"
        );
        if let Some(p) = prev {
            assert!(
                p < u,
                "contract violation: signature entries out of order ({p} before {u})"
            );
        }
        prev = Some(u);
    }
}

/// Definition 2: `value` lies in `[0, 1]` (up to [`TOLERANCE`]).
///
/// # Panics
/// Panics (when [`enabled`]) if `value` is non-finite or out of range.
#[inline]
pub fn check_unit_interval(what: &str, value: f64) {
    if !enabled() {
        return;
    }
    assert!(
        value.is_finite() && (-TOLERANCE..=1.0 + TOLERANCE).contains(&value),
        "contract violation (Definition 2): {what} = {value} outside [0, 1]"
    );
}

/// Definition 2: bounds plus symmetry. `value` must be `d.distance(a, b)`;
/// the checker recomputes the reversed order and compares.
///
/// This is deliberately *not* called from inside the distance
/// implementations themselves (that would recurse); the implementations
/// check only their own bounds, and the symmetry contract is enforced at
/// the consumption sites (`properties`, `comsig-eval`) and in proptests.
///
/// # Panics
/// Panics (when [`enabled`]) on an out-of-range or asymmetric distance.
#[inline]
pub fn check_distance(d: &dyn SignatureDistance, a: &Signature, b: &Signature, value: f64) {
    if !enabled() {
        return;
    }
    check_unit_interval(d.name(), value);
    let reversed = d.distance(b, a);
    assert!(
        (value - reversed).abs() <= SYMMETRY_TOLERANCE,
        "contract violation (Definition 2): {} is asymmetric ({value} vs {reversed})",
        d.name()
    );
}

/// The index/brute equivalence contract: a distance produced by the
/// inverted-index matcher (`comsig-eval`'s `PostingsIndex`) must be
/// **bit-identical** to the brute-force per-pair evaluation — both paths
/// run the same `BatchDistance::accumulate`/`finish` arithmetic over the
/// shared members in the same (ascending node id) order, so any
/// divergence is a bug, not float noise.
///
/// # Panics
/// Panics (when [`enabled`]) if `got` differs from `d.distance(a, b)` in
/// even one bit.
#[inline]
pub fn check_indexed_distance(d: &dyn SignatureDistance, a: &Signature, b: &Signature, got: f64) {
    if !enabled() {
        return;
    }
    let want = d.distance(a, b);
    assert!(
        got.to_bits() == want.to_bits(),
        "contract violation: indexed {} distance {got:e} differs from brute-force {want:e}",
        d.name()
    );
}

/// The streaming-pipeline equivalence contract: after an incremental
/// [`SignaturePipeline`](crate::pipeline::SignaturePipeline) advance, the
/// maintained signature set must be **bit-identical** to a cold
/// `signature_set` rebuild over the same subjects on the new graph. The
/// dirty-subject recompute runs the same per-subject arithmetic the cold
/// batch runs, and clean subjects' inputs are bitwise unchanged, so any
/// divergence is a dirty-set derivation bug, not float noise.
///
/// Costs a full cold rebuild — this is the oracle, only compiled in when
/// [`enabled`].
///
/// # Panics
/// Panics (when [`enabled`]) if any subject's signature differs from the
/// cold rebuild in membership or in even one weight bit.
pub fn check_pipeline_equiv<S: SignatureScheme + ?Sized>(
    scheme: &S,
    g: &CommGraph,
    k: usize,
    got: &SignatureSet,
) {
    if !enabled() {
        return;
    }
    let want = scheme.signature_set(g, got.subjects(), k);
    for ((gv, gs), (wv, ws)) in got.iter().zip(want.iter()) {
        assert!(
            gv == wv,
            "contract violation: pipeline subject order diverged ({gv} vs {wv})"
        );
        assert!(
            gs.len() == ws.len(),
            "contract violation: pipeline signature of {gv} has {} entries, cold rebuild has {}",
            gs.len(),
            ws.len()
        );
        for ((gu, gw), (wu, ww)) in gs.iter().zip(ws.iter()) {
            assert!(
                gu == wu && gw.to_bits() == ww.to_bits(),
                "contract violation: pipeline signature of {gv} diverges from cold rebuild \
                 ({gu}: {gw:e} vs {wu}: {ww:e})"
            );
        }
    }
}

/// The window-graph contract: the exact tier's graph holds exactly the
/// windower's aggregates, edge for edge and weight bit for weight bit.
/// The windower's deltas carry each aggregate as the change's `new`
/// weight, and `apply_delta` writes exactly that, so the two always
/// agree; this is what lets a snapshot persist the aggregates alone and
/// rebuild the graph from them.
///
/// # Panics
/// Panics (when [`enabled`]) if an edge is missing, extra, or differs
/// from its aggregate in even one weight bit.
pub fn check_window_graph(g: &CommGraph, agg: &[Aggregate]) {
    if !enabled() {
        return;
    }
    assert!(
        g.num_edges() == agg.len(),
        "contract violation: window graph has {} edges, the windower {} aggregates",
        g.num_edges(),
        agg.len()
    );
    for (e, &((src, dst), w)) in g.edges().zip(agg) {
        assert!(
            e.src == src && e.dst == dst && e.weight.to_bits() == w.to_bits(),
            "contract violation: window graph edge {}->{} ({:e}) differs from aggregate \
             {src}->{dst} ({w:e})",
            e.src,
            e.dst,
            e.weight
        );
    }
}

/// A fast path's output equals its reference oracle's bit for bit, as
/// `Debug` prints them (floats in shortest round-trip form, so distinct
/// bits print differently, NaN payloads aside). Callers compute the
/// reference only when [`enabled`].
///
/// # Panics
/// Panics (when [`enabled`]) if the two differ.
pub fn check_bit_equal<T: std::fmt::Debug>(what: &str, got: &T, reference: &T) {
    if enabled() {
        let (got, reference) = (format!("{got:?}"), format!("{reference:?}"));
        assert!(
            got == reference,
            "contract violation: {what} diverged: {got} vs {reference}"
        );
    }
}

/// A transition row must be stochastic: its probability mass sums to 1
/// within [`TOLERANCE`].
///
/// # Panics
/// Panics (when [`enabled`]) if `mass` strays from 1.
#[inline]
pub fn check_stochastic_row(what: &str, node: NodeId, mass: f64) {
    if !enabled() {
        return;
    }
    assert!(
        (mass - 1.0).abs() <= TOLERANCE,
        "contract violation (Definition 5): {what} row of {node} has mass {mass}, expected 1"
    );
}

/// Checks every directed and undirected transition row of `g` for
/// stochasticity. O(|V| + |E|); intended for tests and debug paths, not
/// per-query use.
///
/// # Panics
/// Panics (when [`enabled`]) on the first non-stochastic row.
pub fn check_transition_rows(g: &CommGraph) {
    if !enabled() {
        return;
    }
    for v in g.nodes() {
        if let Some(row) = g.transition_row(v) {
            check_stochastic_row("directed transition", v, row.map(|(_, p)| p).sum());
        }
        if let Some(row) = g.undirected_transition_row(v) {
            check_stochastic_row("undirected transition", v, row.map(|(_, p)| p).sum());
        }
    }
}

/// An RWR occupancy vector is a pruned probability distribution: every
/// entry finite and non-negative, total mass at most `1 + TOLERANCE`
/// (pruning only ever removes mass, never creates it).
///
/// # Panics
/// Panics (when [`enabled`]) on a negative, non-finite or super-unit
/// occupancy vector.
#[inline]
pub fn check_occupancy(entries: &[(NodeId, f64)]) {
    if !enabled() {
        return;
    }
    let mut total = 0.0;
    for &(u, w) in entries {
        assert!(
            w.is_finite() && w >= 0.0,
            "contract violation (Definition 5): occupancy of {u} is {w}"
        );
        total += w;
    }
    assert!(
        total <= 1.0 + TOLERANCE,
        "contract violation (Definition 5): occupancy mass {total} exceeds 1"
    );
}

/// A degraded subject must be excluded from the healthy signature set —
/// the invariant that keeps downstream property/eval aggregates (which
/// consume only the set) free of corrupted subjects. Called from the
/// [`BatchOutcome`](crate::engine::BatchOutcome) constructor and from
/// `comsig-eval`'s outcome-aware aggregates.
///
/// # Panics
/// Panics (when [`enabled`]) if any degraded subject has a signature in
/// `set`.
#[inline]
pub fn check_degraded_excluded(set: &SignatureSet, degraded: &[(NodeId, DegradeReason)]) {
    if !enabled() {
        return;
    }
    for (v, reason) in degraded {
        assert!(
            set.get(*v).is_none(),
            "contract violation: degraded subject {v} ({reason}) present in healthy signature set"
        );
    }
}

/// An epoch-stamped workspace accumulator must be clean at the start of
/// a batch: no live slots and no slot stamped with the current epoch.
///
/// # Panics
/// Panics (when [`enabled`]) if the accumulator leaks state between
/// epochs.
#[inline]
pub fn check_scatter_clean(scatter: &DenseScatter) {
    if !enabled() {
        return;
    }
    assert!(
        scatter.is_clean(),
        "contract violation: epoch-stamped workspace not clean between batches"
    );
}

// The should_panic tests only make sense when the checkers are compiled
// in; `cargo test --release` without the `contracts` feature turns every
// checker into a no-op.
#[cfg(all(test, any(debug_assertions, feature = "contracts")))]
mod tests {
    use super::*;
    use crate::distance::{all_distances, Jaccard};

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

    #[test]
    fn well_formed_values_pass() {
        let a = sig(&[(1, 0.5), (2, 0.25)]);
        let b = sig(&[(2, 0.5), (3, 0.5)]);
        check_signature(&a);
        check_signature(&Signature::empty());
        check_unit_interval("d", 0.0);
        check_unit_interval("d", 1.0);
        for d in all_distances() {
            check_distance(d.as_ref(), &a, &b, d.distance(&a, &b));
        }
        check_stochastic_row("row", n(0), 1.0 + 1e-12);
        check_occupancy(&[(n(0), 0.5), (n(1), 0.25)]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_distance_fires() {
        check_unit_interval("d", 1.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn non_finite_distance_fires() {
        check_unit_interval("d", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetry_fires() {
        let a = sig(&[(1, 1.0)]);
        let b = sig(&[(2, 1.0)]);
        // Feed a value that cannot equal distance(b, a) = 1.
        check_distance(&Jaccard, &a, &b, 0.25);
    }

    #[test]
    #[should_panic(expected = "mass")]
    fn non_stochastic_row_fires() {
        check_stochastic_row("row", n(0), 0.8);
    }

    #[test]
    #[should_panic(expected = "exceeds 1")]
    fn super_unit_occupancy_fires() {
        check_occupancy(&[(n(0), 0.9), (n(1), 0.2)]);
    }

    #[test]
    #[should_panic(expected = "occupancy of")]
    fn negative_occupancy_fires() {
        check_occupancy(&[(n(0), -0.1)]);
    }

    #[test]
    fn disjoint_degraded_passes() {
        let set = SignatureSet::new(vec![n(1)], vec![sig(&[(2, 1.0)])]);
        check_degraded_excluded(&set, &[]);
        check_degraded_excluded(&set, &[(n(7), DegradeReason::MassOverflow { mass: 2.0 })]);
    }

    #[test]
    #[should_panic(expected = "degraded subject")]
    fn degraded_subject_in_set_fires() {
        let set = SignatureSet::new(vec![n(1)], vec![sig(&[(2, 1.0)])]);
        check_degraded_excluded(&set, &[(n(1), DegradeReason::MassOverflow { mass: 2.0 })]);
    }

    #[test]
    fn pipeline_equiv_passes_on_cold_set() {
        use crate::scheme::TopTalkers;
        use comsig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 2.0);
        b.add_event(n(1), n(2), 1.0);
        let g = b.build(3);
        let subjects = vec![n(0), n(1)];
        let set = TopTalkers.signature_set(&g, &subjects, 5);
        check_pipeline_equiv(&TopTalkers, &g, 5, &set);
    }

    #[test]
    #[should_panic(expected = "diverges from cold rebuild")]
    fn pipeline_divergence_fires() {
        use crate::scheme::TopTalkers;
        use comsig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 2.0);
        let g = b.build(2);
        let stale = SignatureSet::new(vec![n(0)], vec![sig(&[(1, 0.5)])]);
        check_pipeline_equiv(&TopTalkers, &g, 5, &stale);
    }

    #[test]
    fn window_graph_matches_its_aggregates() {
        use comsig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 0.1);
        b.add_event(n(0), n(1), 0.2);
        b.add_event(n(2), n(0), 1.5);
        let g = b.build(3);
        check_window_graph(&g, &[((n(0), n(1)), 0.1 + 0.2), ((n(2), n(0)), 1.5)]);
        check_window_graph(&CommGraph::empty(3), &[]);
    }

    #[test]
    #[should_panic(expected = "differs from aggregate")]
    fn window_graph_weight_drift_fires() {
        use comsig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 0.1);
        b.add_event(n(0), n(1), 0.2);
        // 0.3 is not the bit pattern of 0.1 + 0.2.
        check_window_graph(&b.build(2), &[((n(0), n(1)), 0.3)]);
    }

    #[test]
    #[should_panic(expected = "aggregates")]
    fn window_graph_missing_edge_fires() {
        check_window_graph(&CommGraph::empty(2), &[((n(0), n(1)), 1.0)]);
    }

    #[test]
    fn clean_scatter_passes() {
        let mut s = DenseScatter::new();
        s.begin(8);
        check_scatter_clean(&s);
        s.add(n(1), 0.5);
        assert!(!s.is_clean());
        s.begin(8);
        check_scatter_clean(&s);
    }
}
