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
//! A fifth pins the detector's one sweep per advance to the reference
//! sweeps over a previous-window set kept by cloning. A sixth pins the
//! one-pass served ingest to the parse-then-remap reference
//! (`served_ingest_matches_the_reference`, which honours
//! `PROPTEST_CASES`).

use std::io::Cursor;
use std::path::PathBuf;

use proptest::prelude::*;

use comsig_apps::anomaly::anomaly_scores_from_sets;
use comsig_apps::masquerade::run_algorithm1_with;
use comsig_core::distance::{BatchDistance, Cosine, SHel};
use comsig_core::persist::scan_wal;
use comsig_core::scheme::TopTalkers;
use comsig_graph::io::{read_events_with_policy, IngestReport};
use comsig_graph::{
    EdgeEvent, GraphError, IngestPolicy, Interner, NodeId, ShardPlan, SlidingWindower,
};

use comsig_serve::config::TierSpec;
use comsig_serve::snapshot::{decode_snapshot, encode_snapshot, wal_file};
use comsig_serve::state::{subject_sources, LiveState};
use comsig_serve::wal::{decode_record, deltas_bit_equal, encode_record, WalRecord};
use comsig_serve::{DurableState, ServeConfig, ServeError};

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

    /// Every window's served detection and anomaly scores are bit-equal
    /// to `run_algorithm1_with` and `anomaly_scores_from_sets` over the
    /// previous window's set, kept here by cloning. Both tiers, with
    /// overlapping, tumbling and gapped windows, under `SHel` and under
    /// `Cosine`, whose `Dist(σ, σ)` is not always zero. Before window
    /// `resume_at` the state goes through a snapshot and resumes from it.
    #[test]
    fn served_sweep_matches_the_reference_sweeps(
        raw in event_stream(),
        slide_pick in 0u64..3,
        sketch in any::<bool>(),
        cosine in any::<bool>(),
        resume_at in 0usize..4,
    ) {
        let scheme = TopTalkers;
        let dist: &dyn BatchDistance = if cosine { &Cosine } else { &SHel };
        let cfg = ServeConfig {
            tier: if sketch { TierSpec::Sketch } else { TierSpec::Exact },
            ..config_with_slide(slide_pick)
        };
        let events = to_events(&raw);
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &cfg, frozen_interner(), subjects).unwrap();
        live.push_events(&events);
        for w in 0..4 {
            if w == resume_at {
                let body = encode_snapshot(&cfg, &live, 0);
                live = decode_snapshot(&scheme, &cfg, &body).unwrap().0;
            }
            let prev = live.det.signatures().clone();
            let delta = live.windower.advance();
            let step = live.det.advance(dist, &delta);
            let det = &live.det;
            let want = run_algorithm1_with(dist, &prev, det.matcher(), det.config(), &ShardPlan::new(1));
            prop_assert_eq!(step.detection.delta.to_bits(), want.delta.to_bits());
            prop_assert_eq!(&step.detection.non_suspects, &want.non_suspects);
            prop_assert_eq!(&step.detection.detected, &want.detected);
            let want = anomaly_scores_from_sets(dist, &prev, det.signatures());
            prop_assert_eq!(step.scores.len(), want.len());
            for (a, b) in step.scores.iter().zip(&want) {
                prop_assert_eq!(a.node, b.node);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }
}

// --- served ingest vs the parse-then-remap reference ----------------------

const TIMES: [&str; 5] = ["0", "3", "17", "x", "-1"];
/// Six known labels and two outside the frozen space.
const LABELS: [&str; 8] = ["h0", "h1", "h2", "h3", "h4", "h5", "ghost", "h6"];
const WEIGHTS: [&str; 13] = [
    "", "1", "2.5", "0.1", "0", "-0", "NaN", "-1.5", "inf", "-inf", "1e400", "w", "7",
];
/// Separators, U+00A0 among them: `split_whitespace` splits on it.
const SEPS: [&str; 5] = [" ", "\t", "  ", "\u{a0}", " \t "];

fn pick(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

/// One physical line with its terminator, twice, and a draw in `0..10`
/// that decides which the batch uses: a clean record (a valid time and
/// weight, labels known or not), or a line from the full mix — mostly
/// records (any separator, leading blanks, an optional or malformed
/// weight, an optional extra field), and comments, blank lines and
/// truncated records.
fn ingest_line() -> impl Strategy<Value = (u8, String, String)> {
    (
        (0u8..10, 0u8..12),
        (pick(&TIMES), pick(&LABELS), pick(&LABELS), pick(&WEIGHTS)),
        (pick(&SEPS), pick(&SEPS)),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((draw, kind), (t, src, dst, w), (sep, pad), (extra, crlf))| {
                let end = if crlf { "\r\n" } else { "\n" };
                let clean = format!(
                    "{pad}{}{sep}{src}{sep}{dst}{sep}{}{end}",
                    kind % 3,
                    0.5 + f64::from(kind)
                );
                let mut line = match kind {
                    0 => format!("{pad}# {t} {src} {dst}"),
                    1 => pad.to_owned(),
                    2 => format!("{t}{sep}{src}"),
                    _ => format!("{pad}{t}{sep}{src}{sep}{dst}"),
                };
                if kind > 2 {
                    for field in [w, if extra { "extra" } else { "" }] {
                        if !field.is_empty() {
                            line.push_str(sep);
                            line.push_str(field);
                        }
                    }
                }
                line.push_str(end);
                (draw, clean, line)
            },
        )
}

/// A batch of lines (the last terminator sometimes dropped) and a policy:
/// strict, quarantine with an empty, random or full budget, or repair.
/// Each batch has its own noise level: the share of lines drawn from the
/// full mix rather than clean, from none to all.
fn ingest_case() -> impl Strategy<Value = (String, IngestPolicy)> {
    (
        prop::collection::vec(ingest_line(), 0..25),
        (0u8..11, any::<bool>()),
        0u8..5,
        0.0f64..1.0,
    )
        .prop_map(|(lines, (noise, cut), pick, fraction)| {
            let mut text: String = lines
                .into_iter()
                .map(|(draw, clean, line)| if draw < noise { line } else { clean })
                .collect();
            if cut {
                let trimmed = text.trim_end_matches(['\r', '\n']).len();
                text.truncate(trimmed);
            }
            let policy = match pick {
                0 => IngestPolicy::Strict,
                1 => IngestPolicy::Quarantine {
                    max_bad_fraction: 0.0,
                },
                2 => IngestPolicy::Quarantine {
                    max_bad_fraction: fraction,
                },
                3 => IngestPolicy::Quarantine {
                    max_bad_fraction: 1.0,
                },
                _ => IngestPolicy::Repair,
            };
            (text, policy)
        })
}

/// The reference ingest: parse the batch into a scratch interner, then
/// remap each event's labels into the frozen space, counting the events
/// with an unknown label. The error is the served error's text.
fn reference_ingest(
    text: &str,
    frozen: &Interner,
    policy: IngestPolicy,
) -> Result<(Vec<EdgeEvent>, u64, IngestReport), (String, GraphError)> {
    let mut scratch = Interner::new();
    let (events, report) =
        read_events_with_policy(Cursor::new(text.as_bytes()), &mut scratch, policy)
            .map_err(|e| (format!("ingest rejected: {e}"), e))?;
    let mut accepted = Vec::new();
    let mut unknown = 0;
    for e in events {
        let src = scratch.label(e.src).and_then(|l| frozen.get(l));
        let dst = scratch.label(e.dst).and_then(|l| frozen.get(l));
        match (src, dst) {
            (Some(src), Some(dst)) => accepted.push(EdgeEvent { src, dst, ..e }),
            _ => unknown += 1,
        }
    }
    Ok((accepted, unknown, report))
}

/// The served ingest (`DurableState::ingest_lines`, one borrowed pass
/// against the frozen interner) accepts the reference's events, weights
/// bitwise (as the bytes of the one `Events` record it logs), reports the
/// same counts, and fails with the same error text, naming the line of a
/// malformed record, under every policy.
#[test]
fn served_ingest_matches_the_reference() {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|c| c.parse().ok())
        .unwrap_or(proptest::NUM_CASES);
    let mut rng = TestRng::deterministic("served_ingest_matches_the_reference");
    let strategy = ingest_case();
    let scheme = TopTalkers;
    let subjects: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    for case in 0..u64::from(cases) {
        let (text, policy) = strategy.generate(&mut rng);
        let cfg = ServeConfig {
            ingest: policy,
            ..config()
        };
        let dir = scratch("ingest", case);
        let (mut state, _) = DurableState::open(
            &scheme,
            &SHel,
            cfg,
            &dir,
            frozen_interner(),
            subjects.clone(),
        )
        .unwrap();
        let got = state.ingest_lines(&text);
        let logged = scan_wal(&wal_file(&dir, state.wal_epoch()))
            .unwrap()
            .records;
        match (got, reference_ingest(&text, &frozen_interner(), policy)) {
            (Ok(out), Ok((events, unknown, report))) => {
                assert_eq!(out.accepted, events.len() as u64, "{text:?}");
                assert_eq!(out.unknown_label, unknown, "{text:?}");
                assert_eq!(out.quarantined, report.quarantined.len() as u64, "{text:?}");
                assert_eq!(out.repaired, report.repaired.len() as u64, "{text:?}");
                let want: Vec<Vec<u8>> = if events.is_empty() {
                    Vec::new()
                } else {
                    vec![encode_record(&WalRecord::Events(events))]
                };
                assert_eq!(logged, want, "{text:?} under {policy:?}");
            }
            (Err(ServeError::Request(got)), Err((want, cause))) => {
                assert_eq!(got, want, "{text:?} under {policy:?}");
                if let GraphError::Parse { line, .. } = cause {
                    assert!(got.contains(&format!("line {line}")), "{got}");
                }
                assert!(logged.is_empty(), "a rejected batch was logged");
            }
            (got, want) => panic!("{text:?} under {policy:?}: served {got:?}, reference {want:?}"),
        }
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
