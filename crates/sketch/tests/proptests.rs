//! Property-based tests for the sketching substrate.

use std::collections::HashMap;

use comsig_core::Signature;
use comsig_graph::NodeId;
use comsig_sketch::cm::CountMinSketch;
use comsig_sketch::fm::FmSketch;
use comsig_sketch::minhash::MinHasher;
use proptest::prelude::*;

proptest! {
    /// Count-Min never underestimates, with or without conservative
    /// update, for any update stream.
    #[test]
    fn cm_never_underestimates(
        stream in prop::collection::vec((0u64..64, 0.1f64..5.0), 1..300),
        conservative in any::<bool>(),
        seed in 0u64..100,
    ) {
        let mut cm = CountMinSketch::new(16, 3, seed);
        if conservative {
            cm = cm.conservative();
        }
        let mut truth: HashMap<u64, f64> = HashMap::new();
        for &(k, w) in &stream {
            cm.update(k, w);
            *truth.entry(k).or_insert(0.0) += w;
        }
        for (&k, &t) in &truth {
            prop_assert!(cm.query(k) >= t - 1e-9, "key {k}: {} < {t}", cm.query(k));
        }
        let total: f64 = truth.values().sum();
        prop_assert!((cm.total() - total).abs() < 1e-6);
    }

    /// The CM over-estimate is bounded by the total stream weight (the
    /// trivial upper bound of the ε·N guarantee).
    #[test]
    fn cm_overestimate_bounded_by_total(
        stream in prop::collection::vec((0u64..200, 0.5f64..2.0), 1..200),
    ) {
        let mut cm = CountMinSketch::new(64, 4, 7);
        for &(k, w) in &stream {
            cm.update(k, w);
        }
        for k in 0..200u64 {
            prop_assert!(cm.query(k) <= cm.total() + 1e-9);
        }
    }

    /// FM estimates are permutation-invariant and duplicate-insensitive.
    #[test]
    fn fm_set_semantics(mut keys in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut a = FmSketch::new(32, 11);
        for &k in &keys {
            a.insert(k);
        }
        keys.reverse();
        let mut b = FmSketch::new(32, 11);
        for &k in &keys {
            b.insert(k);
            b.insert(k); // duplicates must not matter
        }
        prop_assert_eq!(a.estimate(), b.estimate());
        prop_assert!(a.estimate() > 0.0);
    }

    /// Merging FM sketches equals inserting the union.
    #[test]
    fn fm_merge_is_union(
        xs in prop::collection::vec(0u64..5_000, 0..100),
        ys in prop::collection::vec(0u64..5_000, 0..100),
    ) {
        let mut a = FmSketch::new(16, 5);
        let mut b = FmSketch::new(16, 5);
        let mut direct = FmSketch::new(16, 5);
        for &x in &xs {
            a.insert(x);
            direct.insert(x);
        }
        for &y in &ys {
            b.insert(y);
            direct.insert(y);
        }
        a.merge(&b);
        prop_assert_eq!(a.estimate(), direct.estimate());
    }

    /// MinHash distance estimates stay within [0,1], are symmetric, and
    /// are exactly 0 for identical sets.
    #[test]
    fn minhash_estimate_sane(
        xs in prop::collection::vec(0usize..500, 1..40),
        ys in prop::collection::vec(0usize..500, 1..40),
    ) {
        let mh = MinHasher::new(64, 13);
        let sx = Signature::top_k(
            NodeId::new(999_999),
            xs.iter().map(|&i| (NodeId::new(i), 1.0)),
            xs.len(),
        );
        let sy = Signature::top_k(
            NodeId::new(999_999),
            ys.iter().map(|&i| (NodeId::new(i), 1.0)),
            ys.len(),
        );
        let a = mh.minhash(&sx);
        let b = mh.minhash(&sy);
        let d = mh.estimate_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((mh.estimate_distance(&b, &a) - d).abs() < 1e-12);
        prop_assert_eq!(mh.estimate_distance(&a, &a), 0.0);
    }
}
