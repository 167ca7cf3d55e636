//! Property-based tests for the durability plane.
//!
//! Three properties carry the crash-safety story:
//!
//! 1. WAL record payloads round-trip **byte-exactly** for arbitrary
//!    event batches and windower-produced deltas;
//! 2. snapshots round-trip byte-exactly for arbitrary stream prefixes,
//!    reproducing the state digest;
//! 3. **recovery equivalence** — for any stream and any crash point
//!    (measured in acknowledged windows), kill + reopen + finish
//!    reaches the same digest as the uninterrupted run.
//!
//! A fourth pins the digest itself: the streamed `state_digest` equals
//! the buffered `state_digest_reference` at every step, on both tiers.

use std::path::PathBuf;

use proptest::prelude::*;

use comsig_core::distance::SHel;
use comsig_core::scheme::TopTalkers;
use comsig_graph::{EdgeEvent, Interner, NodeId, SlidingWindower};

use comsig_serve::config::TierSpec;
use comsig_serve::snapshot::{decode_snapshot, encode_snapshot};
use comsig_serve::state::{subject_sources, LiveState};
use comsig_serve::wal::{decode_record, deltas_bit_equal, encode_record, WalRecord};
use comsig_serve::{DurableState, ServeConfig};

/// Strategy: a stream of `(time, src, dst, weight)` events over 6 hosts
/// and 4 width-10 windows, in time order.
fn event_stream() -> impl Strategy<Value = Vec<(u64, u32, u32, f64)>> {
    prop::collection::vec((0u64..40, 0u32..6, 0u32..6, 0.5f64..9.0), 1..80).prop_map(|mut v| {
        v.sort_by_key(|e| e.0);
        v
    })
}

fn to_events(raw: &[(u64, u32, u32, f64)]) -> Vec<EdgeEvent> {
    raw.iter()
        .map(|&(time, src, dst, weight)| EdgeEvent {
            time,
            src: NodeId::new(src as usize),
            dst: NodeId::new(dst as usize),
            weight,
        })
        .collect()
}

/// The frozen 6-host label space every generated stream lives in.
fn frozen_interner() -> Interner {
    let mut interner = Interner::new();
    for i in 0..6 {
        interner.intern(&format!("h{i}"));
    }
    interner
}

fn to_lines(raw: &[(u64, u32, u32, f64)]) -> Vec<String> {
    raw.iter()
        .map(|&(t, s, d, w)| format!("{t} h{s} h{d} {w}"))
        .collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        width: 10,
        slide: 10,
        k: 4,
        ..ServeConfig::default()
    }
}

/// Width 10 with slide 5, 10 or 15 for `pick` 0, 1 or 2: overlapping
/// windows (whose survivors cross every snapshot and replay), tumbling
/// ones, and gapped ones.
fn config_with_slide(pick: u64) -> ServeConfig {
    ServeConfig {
        slide: 5 + 5 * pick,
        ..config()
    }
}

fn scratch(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("comsig-serve-proptests")
        .join(format!("{name}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cheap per-case discriminator for scratch directories (proptest
/// cases run sequentially inside one test thread, so collisions only
/// need avoiding across concurrently running *tests*).
fn case_key(raw: &[(u64, u32, u32, f64)]) -> u64 {
    raw.iter().fold(raw.len() as u64, |acc, &(t, s, d, _)| {
        acc.wrapping_mul(31).wrapping_add(t ^ u64::from(s * 7 + d))
    })
}

proptest! {
    /// `Events` and windower-produced `Advance` payloads round-trip
    /// byte-exactly through the WAL codec.
    #[test]
    fn wal_records_round_trip(raw in event_stream(), digest in any::<u64>()) {
        let events = to_events(&raw);
        let record = WalRecord::Events(events.clone());
        let bytes = encode_record(&record);
        let back = decode_record(&bytes).unwrap();
        prop_assert_eq!(encode_record(&back), bytes);
        if let WalRecord::Events(decoded) = back {
            prop_assert_eq!(decoded.len(), events.len());
            for (a, b) in decoded.iter().zip(events.iter()) {
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
        } else {
            prop_assert!(false, "events decoded to the wrong variant");
        }

        // A real delta from a real windower, not a hand-built one.
        let mut windower = SlidingWindower::new(0, 10, 10);
        for &e in &events {
            windower.push(e);
        }
        let delta = windower.advance();
        let record = WalRecord::Advance { delta: delta.clone(), digest };
        let bytes = encode_record(&record);
        match decode_record(&bytes).unwrap() {
            WalRecord::Advance { delta: decoded, digest: d2 } => {
                prop_assert_eq!(d2, digest);
                prop_assert!(deltas_bit_equal(&decoded, &delta));
            }
            WalRecord::Events(_) => prop_assert!(false, "advance decoded to the wrong variant"),
        }
    }

    /// Snapshots of any stream prefix round-trip byte-exactly and
    /// reproduce the state digest, for overlapping, tumbling and gapped
    /// windows.
    #[test]
    fn snapshots_round_trip(
        raw in event_stream(),
        windows in 0usize..4,
        epoch in any::<u64>(),
        slide_pick in 0u64..3,
    ) {
        let scheme = TopTalkers;
        let cfg = config_with_slide(slide_pick);
        let events = to_events(&raw);
        let interner = frozen_interner();
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &cfg, interner, subjects).unwrap();
        live.push_events(&events);
        for _ in 0..windows {
            let _ = live.advance_once(&SHel);
        }
        let body = encode_snapshot(&cfg, &live, epoch);
        let (back, back_epoch) = decode_snapshot(&scheme, &cfg, &body).unwrap();
        prop_assert_eq!(back_epoch, epoch);
        prop_assert_eq!(back.state_digest(), live.state_digest());
        prop_assert_eq!(encode_snapshot(&cfg, &back, epoch), body);
    }

    /// Recovery equivalence: crash after any number of acknowledged
    /// windows, reopen, feed the rest — the final digest equals the
    /// uninterrupted run's, for overlapping, tumbling and gapped windows.
    #[test]
    fn recovery_is_equivalent_to_uninterrupted(
        raw in event_stream(),
        crash_after in 0usize..4,
        slide_pick in 0u64..3,
    ) {
        let scheme = TopTalkers;
        let dist = SHel;
        let cfg = config_with_slide(slide_pick);
        let case = case_key(&raw).wrapping_mul(3).wrapping_add(slide_pick);
        let lines = to_lines(&raw);
        // Window w's lines are those with time in [10w, 10w + 10).
        let batch = |w: usize| -> String {
            raw.iter()
                .zip(lines.iter())
                .filter(|((t, ..), _)| (t / 10) as usize == w)
                .map(|(_, l)| l.clone())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let open = |dir: &std::path::Path| {
            let events = to_events(&raw);
            DurableState::open(
                &scheme,
                &dist,
                cfg.clone(),
                dir,
                frozen_interner(),
                subject_sources(&events),
            )
            .unwrap()
        };
        let feed = |state: &mut DurableState<'_>, w: usize| {
            let lines = batch(w);
            if !lines.is_empty() {
                state.ingest_lines(&lines).unwrap();
            }
            state.advance().unwrap().digest
        };

        let base_dir = scratch("base", case);
        let (mut base, _) = open(&base_dir);
        let mut want = 0;
        for w in 0..4 {
            want = feed(&mut base, w);
        }

        let crash_dir = scratch("crash", case);
        let mut got = {
            let (mut state, _) = open(&crash_dir);
            let mut digest = state.live().state_digest();
            for w in 0..crash_after {
                digest = feed(&mut state, w);
            }
            digest
            // Crash: dropped with no snapshot, no shutdown.
        };
        {
            let (mut state, recovery) = open(&crash_dir);
            prop_assert_eq!(recovery.replayed_windows, crash_after as u64);
            prop_assert_eq!(recovery.digest, got);
            for w in crash_after..4 {
                got = feed(&mut state, w);
            }
        }
        prop_assert_eq!(got, want, "recovered run diverged from uninterrupted");
        let _ = std::fs::remove_dir_all(&base_dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// The streamed digest equals the buffered reference after every
    /// push batch and every advance, on both tiers, with overlapping,
    /// tumbling and gapped windows, over unsorted streams (so some
    /// events arrive late).
    #[test]
    fn streamed_digest_matches_buffered_reference(
        raw in prop::collection::vec((0u64..40, 0u32..6, 0u32..6, 0.5f64..9.0), 1..80),
        chunk in 1usize..30,
        slide_pick in 0u64..3,
        sketch in any::<bool>(),
    ) {
        let scheme = TopTalkers;
        let cfg = ServeConfig {
            tier: if sketch { TierSpec::Sketch } else { TierSpec::Exact },
            ..config_with_slide(slide_pick)
        };
        let events = to_events(&raw);
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &cfg, frozen_interner(), subjects).unwrap();
        prop_assert_eq!(live.state_digest(), live.state_digest_reference());
        for batch in events.chunks(chunk) {
            live.push_events(batch);
            prop_assert_eq!(live.state_digest(), live.state_digest_reference());
            let _ = live.advance_once(&SHel);
            prop_assert_eq!(live.state_digest(), live.state_digest_reference());
        }
    }
}
