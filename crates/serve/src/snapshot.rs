//! Snapshot codec: one atomic file capturing the full service state.
//!
//! A snapshot is written with [`persist::write_atomic`] (write `.tmp`,
//! fsync, rename), so `snapshot.bin` is always either absent, the
//! previous complete snapshot, or the new complete snapshot — a crash
//! mid-write leaves at worst a stale `.tmp` sibling that the next
//! rotation overwrites. The body carries the config stamp, the frozen
//! label space, the complete windower state, then the detector in one
//! tier-agnostic sequence — the tier tag, the tier's own state
//! ([`SignatureTier::encode_state`](comsig_core::SignatureTier::encode_state))
//! and the previous signature buffer — then the counters, the
//! query-visible residue of the last advance, the WAL epoch this
//! snapshot supersedes, and the state digest at capture, which decoding
//! recomputes and verifies. No matcher state is stored: both matchers
//! are functions of the tier's signatures, and decoding rebuilds them.

use std::path::{Path, PathBuf};

use comsig_apps::anomaly::AnomalyScore;
use comsig_core::persist::{self, Dec, Enc};
use comsig_core::pipeline::DeltaScheme;
use comsig_graph::{Interner, NodeId, SlidingWindower};

use crate::config::{ServeConfig, ServeError};
use crate::state::{build_detector, LastWindow, LiveState, Origin};

/// Magic line of the snapshot container (v4: tier-tagged body, no
/// matcher section, a windower of pending events, survivors and
/// aggregates).
pub const SNAPSHOT_MAGIC: &str = "comsig-serve-snapshot v4";

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
    persist::encode_signature_set(&mut enc, live.det.prev_signatures());
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
    let tier_tag = dec.u8("snapshot.tier")?;
    if tier_tag != config.tier.tag() {
        // The stamp already pins the tier; a disagreeing body tag means
        // the file itself is inconsistent, not merely misconfigured.
        return Err(ServeError::Corrupt(format!(
            "snapshot tier tag {tier_tag} contradicts the stamped `{}` tier",
            config.tier.name()
        )));
    }
    let det = build_detector(scheme, config, Origin::Snapshot(&mut dec))?;
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
            (test_config(), 0x074c_d515_eaef_1b6b, 0xf6b7_a29e_f5a6_d8c2),
            (
                sketch_config(),
                0x7f7f_b39f_9066_79d5,
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
