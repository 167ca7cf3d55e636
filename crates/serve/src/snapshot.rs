//! Snapshot codec: one atomic file capturing the full service state.
//!
//! A snapshot is written with [`persist::write_atomic`] (write `.tmp`,
//! fsync, rename), so `snapshot.bin` is always either absent, the
//! previous complete snapshot, or the new complete snapshot — a crash
//! mid-write leaves at worst a stale `.tmp` sibling that the next
//! rotation overwrites. The body carries the config stamp, the frozen
//! label space, the complete windower state, then the detector in one
//! tier-agnostic sequence — the tier tag and the tier's own state
//! ([`SignatureTier::encode_state`](comsig_core::SignatureTier::encode_state)),
//! which holds the detector's one signature set — then the counters,
//! the query-visible residue of the last advance, the WAL epoch this
//! snapshot supersedes, and the state digest at capture, which decoding
//! recomputes and verifies. No matcher state is stored: both matchers
//! are functions of the tier's signatures, and decoding rebuilds them.
//! Nor is the exact tier's window graph, beyond its node count: its
//! edges are the windower's aggregates, and decoding rebuilds the graph
//! from them. Nor is the previous window's signature set: the detector
//! rebuilds what it needs of it from each advance's replaced
//! signatures. Every node id the windower and the signatures name is
//! checked against the label space before anything is built from it.

use std::path::{Path, PathBuf};

use comsig_apps::anomaly::AnomalyScore;
use comsig_core::persist::{self, Dec, Enc};
use comsig_core::pipeline::DeltaScheme;
use comsig_graph::{Interner, NodeId, SlidingWindower};

use crate::config::{ServeConfig, ServeError};
use crate::state::{build_detector, LastWindow, LiveState, Origin};

/// Magic line of the snapshot container (v6: tier-tagged body, no
/// matcher section, a windower of pending events, survivors and
/// aggregates, an exact tier of graph node count and signatures, and no
/// previous-window signatures).
pub const SNAPSHOT_MAGIC: &str = "comsig-serve-snapshot v6";

/// The snapshot path inside a data directory.
#[must_use]
pub fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

/// The WAL path for an epoch inside a data directory.
#[must_use]
pub fn wal_file(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal.{epoch}.log"))
}

fn node(raw: u32) -> NodeId {
    NodeId::new(raw as usize)
}

/// Encodes the snapshot body for `live`, superseding WAL epochs below
/// `wal_epoch` (the epoch the daemon switches to after the snapshot
/// lands).
#[must_use]
pub fn encode_snapshot(config: &ServeConfig, live: &LiveState<'_>, wal_epoch: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    config.stamp(&mut enc);
    enc.len(live.interner.len());
    for (_, label) in live.interner.iter() {
        enc.str(label);
    }
    enc.len(live.subjects.len());
    for &s in &live.subjects {
        enc.u32(s.raw());
    }
    persist::encode_live_windower(&mut enc, &live.windower);
    enc.u8(config.tier.tag());
    live.det.tier().encode_state(&mut enc);
    enc.u64(live.windows);
    enc.u64(live.ingested_events);
    match &live.last {
        None => enc.u8(0),
        Some(last) => {
            enc.u8(1);
            enc.u64(last.start);
            enc.u64(last.end);
            enc.u64(last.changed_edges);
            enc.u64(last.dirty);
            enc.u64(last.non_suspects);
            enc.f64(last.delta);
            enc.len(last.detected.len());
            for &(v, u) in &last.detected {
                enc.u32(v.raw());
                enc.u32(u.raw());
            }
            enc.len(last.scores.len());
            for s in &last.scores {
                enc.u32(s.node.raw());
                enc.f64(s.score);
            }
        }
    }
    enc.u64(wal_epoch);
    enc.u64(live.state_digest());
    enc.into_bytes()
}

/// Decodes a snapshot body back into a live state plus the WAL epoch to
/// replay, verifying the config stamp and the captured state digest.
///
/// # Errors
/// [`ServeError::Config`] on a stamp mismatch, [`ServeError::Corrupt`]
/// on undecodable or internally inconsistent state (including a digest
/// that does not reproduce).
pub fn decode_snapshot<'a>(
    scheme: &'a dyn DeltaScheme,
    config: &ServeConfig,
    body: &[u8],
) -> Result<(LiveState<'a>, u64), ServeError> {
    let mut dec = Dec::new(body);
    config.check_stamp(&mut dec)?;
    let n = dec.seq_len(8, "snapshot.labels")?;
    let mut interner = Interner::with_capacity(n);
    for i in 0..n {
        let label = dec.str("snapshot.label")?;
        let id = interner.intern(&label);
        if id.index() != i {
            return Err(ServeError::Corrupt(format!(
                "duplicate label `{label}` in snapshot"
            )));
        }
    }
    let n = dec.seq_len(4, "snapshot.subjects")?;
    let mut subjects = Vec::with_capacity(n);
    for _ in 0..n {
        subjects.push(node(dec.u32("snapshot.subject")?));
    }
    let windower_state = persist::decode_windower(&mut dec)?;
    let windower = SlidingWindower::from_state(windower_state).map_err(ServeError::Corrupt)?;
    let bound = windower.node_bound();
    if bound > interner.len() {
        return Err(ServeError::Corrupt(format!(
            "snapshot windower names node {} outside its {}-label space",
            bound - 1,
            interner.len()
        )));
    }
    let tier_tag = dec.u8("snapshot.tier")?;
    if tier_tag != config.tier.tag() {
        // The stamp already pins the tier; a disagreeing body tag means
        // the file itself is inconsistent, not merely misconfigured.
        return Err(ServeError::Corrupt(format!(
            "snapshot tier tag {tier_tag} contradicts the stamped `{}` tier",
            config.tier.name()
        )));
    }
    let det = build_detector(
        scheme,
        config,
        Origin::Snapshot {
            dec: &mut dec,
            num_nodes: interner.len(),
            windower: &windower,
        },
    )?;
    let windows = dec.u64("snapshot.windows")?;
    let ingested_events = dec.u64("snapshot.ingested_events")?;
    let last = match dec.u8("snapshot.last.tag")? {
        0 => None,
        1 => {
            let start = dec.u64("last.start")?;
            let end = dec.u64("last.end")?;
            let changed_edges = dec.u64("last.changed_edges")?;
            let dirty = dec.u64("last.dirty")?;
            let non_suspects = dec.u64("last.non_suspects")?;
            let delta = dec.f64("last.delta")?;
            let n = dec.seq_len(8, "last.detected")?;
            let mut detected = Vec::with_capacity(n);
            for _ in 0..n {
                let v = node(dec.u32("detected.suspect")?);
                let u = node(dec.u32("detected.match")?);
                detected.push((v, u));
            }
            let n = dec.seq_len(12, "last.scores")?;
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                let node = node(dec.u32("score.node")?);
                let score = dec.f64("score.score")?;
                scores.push(AnomalyScore { node, score });
            }
            Some(LastWindow {
                start,
                end,
                changed_edges,
                dirty,
                non_suspects,
                delta,
                detected,
                scores,
            })
        }
        tag => {
            return Err(ServeError::Corrupt(format!(
                "bad last-window tag {tag} in snapshot"
            )))
        }
    };
    let wal_epoch = dec.u64("snapshot.wal_epoch")?;
    let stored_digest = dec.u64("snapshot.digest")?;
    dec.finish("snapshot")?;

    let live = LiveState {
        interner,
        subjects,
        windower,
        det,
        windows,
        ingested_events,
        last,
    };
    let digest = live.state_digest();
    if digest != stored_digest {
        return Err(ServeError::Corrupt(format!(
            "snapshot state digest mismatch: stored {stored_digest:016x}, rebuilt {digest:016x}"
        )));
    }
    Ok((live, wal_epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;
    use comsig_graph::EdgeEvent;

    use crate::config::TierSpec;
    use crate::state::subject_sources;

    fn build_live<'a>(scheme: &'a TopTalkers, config: &ServeConfig) -> LiveState<'a> {
        let mut interner = Interner::new();
        let mut events = Vec::new();
        for t in 0..30u64 {
            let src = interner.intern(&format!("h{}", t % 5));
            let dst = interner.intern(&format!("h{}", (t + 2) % 7));
            if src != dst {
                events.push(EdgeEvent {
                    time: t,
                    src,
                    dst,
                    weight: 1.0 + (t % 4) as f64,
                });
            }
        }
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(scheme, config, interner, subjects).unwrap();
        live.push_events(&events);
        let _ = live.advance_once(&SHel);
        let _ = live.advance_once(&SHel);
        live
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            width: 10,
            slide: 10,
            k: 4,
            ..ServeConfig::default()
        }
    }

    fn sketch_config() -> ServeConfig {
        ServeConfig {
            tier: TierSpec::Sketch,
            ..test_config()
        }
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let scheme = TopTalkers;
        let config = test_config();
        let live = build_live(&scheme, &config);
        let body = encode_snapshot(&config, &live, 7);
        let (back, epoch) = decode_snapshot(&scheme, &config, &body).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(back.state_digest(), live.state_digest());
        assert_eq!(back.last, live.last);
        // Re-encoding must be byte-equal — the snapshot codec is
        // deterministic.
        assert_eq!(encode_snapshot(&config, &back, 7), body);
    }

    #[test]
    fn sketch_snapshot_round_trips_bit_identically() {
        let scheme = TopTalkers;
        let config = sketch_config();
        let live = build_live(&scheme, &config);
        assert_eq!(live.det.tier().tier_name(), "sketch");
        let body = encode_snapshot(&config, &live, 3);
        let (back, epoch) = decode_snapshot(&scheme, &config, &body).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(back.state_digest(), live.state_digest());
        assert_eq!(back.last, live.last);
        assert_eq!(encode_snapshot(&config, &back, 3), body);
        // The rebuilt ANN matcher must carry the same candidates (it is
        // derived from signatures, not persisted).
        assert_eq!(
            back.det.matcher().memory_entries(),
            live.det.matcher().memory_entries()
        );
    }

    #[test]
    fn sketch_snapshot_rejects_tier_and_sizing_drift() {
        let scheme = TopTalkers;
        let config = sketch_config();
        let live = build_live(&scheme, &config);
        let body = encode_snapshot(&config, &live, 1);
        // Reopening a sketch data dir under the exact tier is a config
        // error, not silent reinterpretation.
        assert!(matches!(
            decode_snapshot(&scheme, &test_config(), &body),
            Err(ServeError::Config(_))
        ));
        // Resizing the sketches invalidates the state: stamped.
        let resized = ServeConfig {
            sketch: comsig_sketch::stream::StreamConfig {
                cm_width: 256,
                ..config.sketch
            },
            ..config.clone()
        };
        assert!(matches!(
            decode_snapshot(&scheme, &resized, &body),
            Err(ServeError::Config(_))
        ));
        // Re-banding the LSH front moves the recall contract: stamped.
        let rebanded = ServeConfig {
            ann: comsig_eval::ann::AnnConfig {
                bands: 8,
                rows: 2,
                ..config.ann
            },
            ..config.clone()
        };
        assert!(matches!(
            decode_snapshot(&scheme, &rebanded, &body),
            Err(ServeError::Config(_))
        ));
    }

    /// Byte-compat pins for existing data directories: the FNV-1a of the
    /// snapshot bytes and the state digest of a fixed seeded run, on both
    /// tiers. The run is three windows in, so the exact tier's postings
    /// index has been patched rather than freshly built; its canonical
    /// layout still enters the digest. A changed constant means
    /// snapshots written by earlier builds no longer load.
    #[test]
    fn snapshot_bytes_and_digest_are_pinned() {
        let scheme = TopTalkers;
        for (config, want_bytes, want_digest) in [
            (test_config(), 0x5435_c84b_6daa_193e, 0x1ae2_347f_e32c_176e),
            (
                sketch_config(),
                0x2c5c_880b_4463_1097,
                0x155e_cc21_042b_ab1e,
            ),
        ] {
            let mut live = build_live(&scheme, &config);
            let _ = live.advance_once(&SHel);
            let body = encode_snapshot(&config, &live, 5);
            let got = (persist::fnv1a(&body), live.state_digest());
            assert_eq!(got, (want_bytes, want_digest), "{}", config.tier.name());
        }
    }

    /// An event from node 0 to a node one past every label in
    /// `build_live`'s space, at `time`.
    fn outside(live: &LiveState<'_>, time: u64) -> EdgeEvent {
        EdgeEvent {
            time,
            src: NodeId::new(0),
            dst: NodeId::new(live.interner.len()),
            weight: 1.0,
        }
    }

    fn expect_corrupt(
        scheme: &TopTalkers,
        config: &ServeConfig,
        live: &LiveState<'_>,
        needle: &str,
    ) {
        expect_corrupt_body(scheme, config, &encode_snapshot(config, live, 1), needle);
    }

    fn expect_corrupt_body(scheme: &TopTalkers, config: &ServeConfig, body: &[u8], needle: &str) {
        match decode_snapshot(scheme, config, body) {
            Err(ServeError::Corrupt(reason)) => assert!(reason.contains(needle), "{reason}"),
            Err(e) => panic!("expected typed corruption, got {e}"),
            Ok(_) => panic!("a snapshot naming nodes outside its label space must not load"),
        }
    }

    /// A snapshot whose windower names a node outside its label space is
    /// typed corruption, never a panic at the next advance, even though
    /// its digest is consistent: the windower is advanced without the
    /// detector, so only the node range check can catch it. Pending
    /// events, survivors and aggregates are each checked.
    #[test]
    fn snapshot_rejects_windower_nodes_outside_the_label_space() {
        let scheme = TopTalkers;
        let needle = "outside its";

        let config = test_config();
        let mut pending = build_live(&scheme, &config);
        let time = pending.windower.next_window().unwrap().1;
        assert!(pending.windower.push(outside(&pending, time)));
        expect_corrupt(&scheme, &config, &pending, needle);

        // Tumbling: the emitted event leaves an aggregate and no survivor.
        let mut aggregate = build_live(&scheme, &config);
        let time = aggregate.windower.next_window().unwrap().0;
        assert!(aggregate.windower.push(outside(&aggregate, time)));
        let _ = aggregate.windower.advance();
        assert_eq!(aggregate.windower.survivors().len(), 0, "fixture shape");
        expect_corrupt(&scheme, &config, &aggregate, needle);

        // Overlapping: the event lies in the next window too, so it
        // survives.
        let config = ServeConfig {
            slide: 5,
            ..test_config()
        };
        let mut survivor = build_live(&scheme, &config);
        let time = survivor.windower.next_window().unwrap().0 + 7;
        assert!(survivor.windower.push(outside(&survivor, time)));
        let _ = survivor.windower.advance();
        let bad = survivor.interner.len();
        assert!(
            survivor
                .windower
                .survivors()
                .any(|(.., dst, _)| dst.index() == bad),
            "fixture shape"
        );
        expect_corrupt(&scheme, &config, &survivor, needle);
    }

    /// An exact-tier graph header whose node count differs from the label
    /// space is typed corruption, caught by name before any digest check.
    #[test]
    fn snapshot_rejects_a_graph_header_off_the_label_space() {
        let scheme = TopTalkers;
        let config = test_config();
        let mut live = build_live(&scheme, &config);
        live.det = build_detector(
            &scheme,
            &config,
            Origin::Genesis {
                subjects: &live.subjects,
                num_nodes: live.interner.len() + 1,
            },
        )
        .unwrap();
        expect_corrupt(&scheme, &config, &live, "nodes, its label space");
    }

    /// A snapshot whose signatures name a node outside its label space is
    /// typed corruption on both tiers: the matchers size their slots by
    /// node id, so only the range check stands between such a file and an
    /// allocation sized by the bad id. On the exact tier the bad entry is
    /// spliced into a valid body, as a file re-sealed with a consistent
    /// body FNV would carry it; on the sketch tier the state digest is
    /// consistent too.
    #[test]
    fn snapshot_rejects_signature_nodes_outside_the_label_space() {
        use comsig_core::persist::{self, Enc};
        use comsig_core::{Signature, SignatureSet};
        use comsig_graph::{EdgeChange, WindowDelta};

        let scheme = TopTalkers;
        let needle = "outside the";

        // Exact: the first signature names the node one past the label
        // space.
        let config = test_config();
        let live = build_live(&scheme, &config);
        let bad = NodeId::new(live.interner.len());
        let (subjects, mut sigs) = live.det.signatures().clone().into_parts();
        sigs[0] = Signature::from_sorted_entries(vec![(bad, 1.0)]).unwrap();
        let mut good = Enc::new();
        live.det.tier().encode_state(&mut good);
        let good = good.into_bytes();
        let mut evil = Enc::new();
        evil.u64(live.interner.len() as u64);
        persist::encode_signature_set(&mut evil, &SignatureSet::new(subjects, sigs));
        let body = encode_snapshot(&config, &live, 1);
        let at = body.windows(good.len()).position(|w| w == good).unwrap();
        let body = [&body[..at], &evil.into_bytes(), &body[at + good.len()..]].concat();
        expect_corrupt_body(&scheme, &config, &body, needle);

        // Sketch: a tier over one node more than the label space. Its
        // size alone is corruption, even while its signatures stay in
        // range.
        let config = sketch_config();
        let mut live = build_live(&scheme, &config);
        let bad = NodeId::new(live.interner.len());
        let v = live.subjects[0];
        live.det = build_detector(
            &scheme,
            &config,
            Origin::Genesis {
                subjects: &live.subjects,
                num_nodes: live.interner.len() + 1,
            },
        )
        .unwrap();
        assert_eq!(live.det.signatures().node_outside(bad.index()), None);
        expect_corrupt(&scheme, &config, &live, "nodes, its label space");

        // Once it folds a change the windower never saw, its signatures
        // name the extra node too.
        let change = EdgeChange {
            src: v,
            dst: bad,
            old: None,
            new: Some(1.0),
        };
        let delta = WindowDelta {
            start: 0,
            end: 10,
            changes: vec![change],
        };
        let _ = live.det.advance(&SHel, &delta);
        let sig = live.det.signatures().get(v).unwrap();
        assert!(sig.iter().any(|(u, _)| u == bad), "fixture shape");
        expect_corrupt(&scheme, &config, &live, needle);
    }

    #[test]
    fn snapshot_rejects_config_drift_and_corruption() {
        let scheme = TopTalkers;
        let config = test_config();
        let live = build_live(&scheme, &config);
        let body = encode_snapshot(&config, &live, 1);
        let other = ServeConfig {
            k: 9,
            ..test_config()
        };
        assert!(matches!(
            decode_snapshot(&scheme, &other, &body),
            Err(ServeError::Config(_))
        ));
        // Truncations decode as typed corruption, never panics.
        for cut in [3, body.len() / 3, body.len() / 2, body.len() - 5] {
            assert!(matches!(
                decode_snapshot(&scheme, &config, &body[..cut]),
                Err(ServeError::Corrupt(_))
            ));
        }
        // A flipped byte in the middle must be caught by structural
        // validation or the recomputed digest.
        let mut flipped = body.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(decode_snapshot(&scheme, &config, &flipped).is_err());
    }
}
