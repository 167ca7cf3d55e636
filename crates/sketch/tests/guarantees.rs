//! The sketch tier's probabilistic guarantees, tested as properties.
//!
//! Three families back the approximate pipeline mode's error contract:
//! Count-Min never under-counts — including through turnstile
//! retractions, the mode [`SemiStream`](comsig_sketch::stream::SemiStream)
//! relies on for window expiry; FM distinct-count estimates stay inside
//! their analytic error band; and banded-LSH collision
//! probability tracks the `1 − (1 − s^r)^b` S-curve the
//! `AnnConfig::similarity_threshold` knob is derived from.

use std::collections::{HashMap, HashSet};

use comsig_core::Signature;
use comsig_graph::NodeId;
use comsig_sketch::cm::CountMinSketch;
use comsig_sketch::fm::FmSketch;
use comsig_sketch::lsh::LshIndex;
use proptest::prelude::*;

proptest! {
    /// Turnstile Count-Min never under-counts: as long as every key's
    /// *current* aggregate stays non-negative, retractions preserve the
    /// one-sided error guarantee. The generated stream interleaves
    /// insertions with partial and full retractions of earlier weight —
    /// exactly what window expiry does to the per-source sketches.
    #[test]
    fn turnstile_cm_never_underestimates(
        ops in prop::collection::vec((0u64..48, 0.1f64..4.0, 0.0f64..1.0), 1..300),
        seed in 0u64..100,
    ) {
        let mut cm = CountMinSketch::new(16, 3, seed);
        let mut truth: HashMap<u64, f64> = HashMap::new();
        for &(k, w, frac) in &ops {
            // Insert, then retract a fraction of the key's running
            // aggregate (possibly all of it): net weight stays >= 0.
            cm.update_signed(k, w);
            let entry = truth.entry(k).or_insert(0.0);
            *entry += w;
            let retract = *entry * frac;
            cm.update_signed(k, -retract);
            *entry -= retract;
        }
        for (&k, &t) in &truth {
            prop_assert!(
                cm.query(k) >= t - 1e-9,
                "turnstile underestimate for {k}: {} < {t}",
                cm.query(k)
            );
        }
        let total: f64 = truth.values().sum();
        prop_assert!((cm.total() - total).abs() < 1e-6);
    }

    /// A full retraction sequence returns every queried key to (near)
    /// zero when the keys never collide-and-linger: inserting then
    /// deleting the same stream leaves an all-zero sketch.
    #[test]
    fn turnstile_full_retraction_restores_zero(
        stream in prop::collection::vec((0u64..64, 0.5f64..3.0), 1..150),
        seed in 0u64..50,
    ) {
        let mut cm = CountMinSketch::new(32, 4, seed);
        for &(k, w) in &stream {
            cm.update_signed(k, w);
        }
        for &(k, w) in &stream {
            cm.update_signed(k, -w);
        }
        for &(k, _) in &stream {
            prop_assert!(cm.query(k).abs() < 1e-6, "residual weight on {k}");
        }
        prop_assert!(cm.total().abs() < 1e-6);
    }

    /// FM distinct-count estimates stay inside a generous multiplicative
    /// band of the truth. With 64 bitmaps the standard error is ≈ 10%;
    /// the asserted band [n/2, 2n] is many standard deviations wide, so
    /// the property holds across all seeds rather than on average.
    #[test]
    fn fm_estimate_within_error_band(
        n in 200usize..3_000,
        seed in 0u64..50,
    ) {
        let mut fm = FmSketch::new(64, seed);
        for k in 0..n as u64 {
            fm.insert(k * 2_654_435_761 + 1); // spread the key space
        }
        let est = fm.estimate();
        let n = n as f64;
        prop_assert!(
            est >= n / 2.0 && est <= n * 2.0,
            "FM estimate {est} outside [{}, {}]",
            n / 2.0,
            n * 2.0
        );
    }
}

/// Builds a `k`-element signature over a private key range so distinct
/// pairs never share elements by accident.
fn sig(owner: usize, keys: &[usize]) -> Signature {
    Signature::top_k(
        NodeId::new(owner),
        keys.iter().map(|&i| (NodeId::new(i), 1.0)),
        keys.len(),
    )
}

/// Empirical banded-LSH collision probability tracks the analytic
/// S-curve `P(collide) = 1 − (1 − s^r)^b`, where per-row collision
/// probability equals the Jaccard similarity `s` of the pair. This is
/// the formula `AnnConfig::similarity_threshold` inverts to place its
/// `(1/b)^(1/r)` knee, so the recall knob documented in README is only
/// trustworthy if the curve holds empirically.
#[test]
fn lsh_collision_probability_tracks_banding_formula() {
    const K: usize = 10; // signature length, matching the pipeline's k
    const PAIRS: usize = 400;
    for (bands, rows) in [(8usize, 4usize), (16, 3), (32, 2)] {
        // shared = 8 of 10 elements → s = 8 / (2·10 − 8) = 2/3.
        for shared in [4usize, 6, 8, 10] {
            let s = shared as f64 / (2 * K - shared) as f64;
            let expect = 1.0 - (1.0 - s.powi(rows as i32)).powf(bands as f64);
            let mut collided = 0usize;
            for p in 0..PAIRS {
                // A fresh index (and hash family) per pair: each trial
                // is an independent draw of the banding experiment.
                let mut index = LshIndex::new(bands, rows, p as u64);
                let base = p * 100;
                let a: Vec<usize> = (0..K).map(|i| base + i).collect();
                let b: Vec<usize> = (0..K)
                    .map(|i| if i < shared { base + i } else { base + 50 + i })
                    .collect();
                let (sa, sb) = (sig(1, &a), sig(2, &b));
                index.insert(NodeId::new(1), &sa);
                let hits: HashSet<_> = index.candidates(&sb).into_iter().collect();
                if hits.contains(&NodeId::new(1)) {
                    collided += 1;
                }
            }
            let got = collided as f64 / PAIRS as f64;
            // Binomial noise at 400 trials: σ ≤ 0.025, so ±0.08 is > 3σ.
            assert!(
                (got - expect).abs() < 0.08,
                "{bands}x{rows} s={s:.3}: empirical {got:.3} vs analytic {expect:.3}"
            );
        }
    }
}

/// The documented threshold `(1/b)^(1/r)` sits on the steep part of the
/// S-curve: similarity well above it collides almost surely, well below
/// it rarely — the property that makes the banding pair a recall knob.
#[test]
fn banding_threshold_separates_collision_regimes() {
    for (bands, rows) in [(8usize, 4usize), (16, 3), (32, 4)] {
        let t = (1.0 / bands as f64).powf(1.0 / rows as f64);
        let hi = 1.0 - (1.0 - (t * 1.4).min(1.0).powi(rows as i32)).powf(bands as f64);
        let lo = 1.0 - (1.0 - (t * 0.4).powi(rows as i32)).powf(bands as f64);
        assert!(hi > 0.9, "{bands}x{rows}: P(collide) at 1.4·t only {hi:.3}");
        assert!(lo < 0.35, "{bands}x{rows}: P(collide) at 0.4·t is {lo:.3}");
    }
}
