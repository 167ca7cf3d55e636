//! The logged state machine: ingest, advance, snapshot, recover.
//!
//! [`DurableState`] wraps a [`LiveState`] with the write-ahead log and
//! snapshot rotation, enforcing the durability contract:
//!
//! * **ingest** — the accepted batch is WAL-appended and fsynced
//!   *before* any event enters the windower, so an acknowledged batch
//!   is always recoverable;
//! * **advance** — the delta is applied in memory first, then the
//!   `Advance` record (delta + post-apply digest) is appended and
//!   fsynced before the acknowledgement; a crash in between loses only
//!   an unacknowledged window, which replay regenerates deterministically;
//! * **snapshot** — write `snapshot.bin` atomically (carrying the next
//!   WAL epoch), create the next epoch's empty WAL, then delete the old
//!   WAL best-effort; a crash at any point leaves a recoverable pair.
//!
//! Recovery ([`DurableState::open`]) is snapshot-or-genesis plus WAL
//! replay: a snapshot or WAL in another format is typed corruption, a
//! torn tail is truncated at the last valid record, each
//! replayed advance is verified bit-exactly against the logged delta
//! and digest, and the reopened WAL resumes appending at the truncation
//! point. If a WAL write ever fails at runtime the service **degrades
//! to read-only** ([`ServeError::Degraded`]): queries keep working,
//! mutations are refused, and the operator restarts to recover —
//! acknowledging unlogged mutations is the one thing this plane must
//! never do.

use std::fs;
use std::io::{BufReader, Cursor};
use std::path::{Path, PathBuf};

use comsig_core::distance::BatchDistance;
use comsig_core::persist::{self, WalTail, WalWriter};
use comsig_core::pipeline::DeltaScheme;
use comsig_core::Signature;
use comsig_eval::ranking::Ranking;
use comsig_graph::io::read_events_with_policy;
use comsig_graph::{EdgeEvent, Interner, NodeId};

use crate::config::{ServeConfig, ServeError};
use crate::snapshot::{decode_snapshot, encode_snapshot, snapshot_file, wal_file, SNAPSHOT_MAGIC};
use crate::state::{LastWindow, LiveState};
use crate::wal::{decode_record, deltas_bit_equal, encode_record, WalRecord};

/// Where a recovery started from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverySource {
    /// No snapshot: the deterministic genesis state.
    Genesis,
    /// The snapshot superseding all WAL epochs below `wal_epoch`.
    Snapshot {
        /// The WAL epoch the snapshot points at.
        wal_epoch: u64,
    },
}

/// What a recovery did, for the operator log and the chaos assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Snapshot or genesis.
    pub source: RecoverySource,
    /// Events re-pushed from replayed `Events` records.
    pub replayed_events: u64,
    /// Advances re-applied from replayed `Advance` records.
    pub replayed_windows: u64,
    /// Human-readable reason if a torn WAL tail was truncated.
    pub torn_tail: Option<String>,
    /// WAL bytes dropped by the truncation.
    pub dropped_bytes: u64,
    /// State digest after recovery completed.
    pub digest: u64,
}

impl Recovery {
    /// One-line operator summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let source = match &self.source {
            RecoverySource::Genesis => "genesis".to_owned(),
            RecoverySource::Snapshot { wal_epoch } => format!("snapshot (wal epoch {wal_epoch})"),
        };
        let tail = match &self.torn_tail {
            Some(reason) => format!(
                ", truncated torn tail ({} bytes: {reason})",
                self.dropped_bytes
            ),
            None => String::new(),
        };
        format!(
            "recovered from {source}: {} events + {} windows replayed{tail}, digest {:016x}",
            self.replayed_events, self.replayed_windows, self.digest
        )
    }
}

/// Outcome of one acknowledged ingest batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Events logged and pushed into the windower.
    pub accepted: u64,
    /// Structurally valid events dropped because a label is outside the
    /// frozen node space.
    pub unknown_label: u64,
    /// Records quarantined by the ingest policy.
    pub quarantined: u64,
    /// Weights clamped by the `Repair` policy.
    pub repaired: u64,
    /// Events now buffered ahead of the next window boundary.
    pub pending: u64,
}

/// Outcome of one acknowledged window advance.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvanceOutcome {
    /// The advanced window's query-visible outputs.
    pub last: LastWindow,
    /// Post-advance state digest (also logged in the WAL record).
    pub digest: u64,
    /// Whether this advance triggered an automatic snapshot rotation.
    pub snapshotted: bool,
}

/// A [`LiveState`] with its durability plane attached.
pub struct DurableState<'a> {
    dist: &'a dyn BatchDistance,
    config: ServeConfig,
    dir: PathBuf,
    live: LiveState<'a>,
    wal: WalWriter,
    wal_epoch: u64,
    windows_since_snapshot: u64,
    degraded: Option<String>,
}

impl<'a> DurableState<'a> {
    /// Opens (recovering if needed) the durable state in `dir`.
    ///
    /// `genesis` supplies the frozen label space and subject population
    /// derived from the seed events; when a snapshot exists, its label
    /// space must match — a changed seed file is a config error, not a
    /// silent re-interpretation of logged node ids.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] for untrustworthy durable state,
    /// [`ServeError::Diverged`] when deterministic replay contradicts
    /// the log, [`ServeError::Config`] for stamp/seed mismatches,
    /// [`ServeError::Io`] for environment failures.
    pub fn open(
        scheme: &'a dyn DeltaScheme,
        dist: &'a dyn BatchDistance,
        config: ServeConfig,
        dir: &Path,
        genesis_interner: Interner,
        genesis_subjects: Vec<NodeId>,
    ) -> Result<(Self, Recovery), ServeError> {
        fs::create_dir_all(dir)?;
        let (mut live, wal_epoch, source) =
            match persist::read_atomic(&snapshot_file(dir), SNAPSHOT_MAGIC) {
                persist::LoadOutcome::Miss => {
                    let live =
                        LiveState::genesis(scheme, &config, genesis_interner, genesis_subjects)?;
                    (live, 0, RecoverySource::Genesis)
                }
                persist::LoadOutcome::Corrupt(reason) => {
                    return Err(ServeError::Corrupt(format!("snapshot: {reason}")))
                }
                persist::LoadOutcome::Hit(body) => {
                    let (live, epoch) = decode_snapshot(scheme, &config, &body)?;
                    check_label_space(&live, &genesis_interner, &genesis_subjects)?;
                    (live, epoch, RecoverySource::Snapshot { wal_epoch: epoch })
                }
            };

        let wal_path = wal_file(dir, wal_epoch);
        let scan = persist::scan_wal(&wal_path).map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => ServeError::Corrupt(format!("WAL: {e}")),
            _ => e.into(),
        })?;
        let mut replayed_events = 0u64;
        let mut replayed_windows = 0u64;
        for (i, payload) in scan.records.iter().enumerate() {
            match decode_record(payload)
                .map_err(|e| ServeError::Corrupt(format!("WAL record {i}: {e}")))?
            {
                WalRecord::Events(events) => {
                    replayed_events += events.len() as u64;
                    live.push_events(&events);
                }
                WalRecord::Advance { delta, digest } => {
                    let actual = live.windower.advance();
                    if !deltas_bit_equal(&actual, &delta) {
                        return Err(ServeError::Diverged(format!(
                            "WAL record {i}: replayed advance produced window [{}, {}) with {} \
                             changes, log recorded [{}, {}) with {}",
                            actual.start,
                            actual.end,
                            actual.changes.len(),
                            delta.start,
                            delta.end,
                            delta.changes.len()
                        )));
                    }
                    live.apply_window(dist, &actual);
                    let got = live.state_digest();
                    if got != digest {
                        return Err(ServeError::Diverged(format!(
                            "WAL record {i}: post-advance digest {got:016x} != logged {digest:016x}"
                        )));
                    }
                    replayed_windows += 1;
                }
            }
        }
        let (torn_tail, dropped_bytes) = match scan.tail {
            WalTail::Clean => (None, 0),
            WalTail::Torn {
                dropped_bytes,
                reason,
            } => (Some(reason), dropped_bytes),
        };
        let wal = if wal_path.exists() {
            WalWriter::resume(&wal_path, scan.valid_bytes)?
        } else {
            WalWriter::create(&wal_path)?
        };
        let recovery = Recovery {
            source,
            replayed_events,
            replayed_windows,
            torn_tail,
            dropped_bytes,
            digest: live.state_digest(),
        };
        Ok((
            DurableState {
                dist,
                config,
                dir: dir.to_path_buf(),
                live,
                wal,
                wal_epoch,
                windows_since_snapshot: 0,
                degraded: None,
            },
            recovery,
        ))
    }

    /// The live state (read-only; mutations go through the logged ops).
    #[must_use]
    pub fn live(&self) -> &LiveState<'a> {
        &self.live
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The current WAL epoch.
    #[must_use]
    pub fn wal_epoch(&self) -> u64 {
        self.wal_epoch
    }

    /// Why the service is read-only, if it is.
    #[must_use]
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn check_writable(&self) -> Result<(), ServeError> {
        match &self.degraded {
            Some(reason) => Err(ServeError::Degraded(reason.clone())),
            None => Ok(()),
        }
    }

    /// Appends and fsyncs one record; a failure flips the service into
    /// degraded (read-only) mode and surfaces as [`ServeError::Degraded`].
    fn log_record(&mut self, record: &WalRecord) -> Result<(), ServeError> {
        let payload = encode_record(record);
        let result = self.wal.append(&payload).and_then(|()| self.wal.sync());
        if let Err(e) = result {
            let reason = format!("WAL write failed: {e}");
            self.degraded = Some(reason.clone());
            return Err(ServeError::Degraded(reason));
        }
        Ok(())
    }

    /// Ingests event lines (`time src dst [weight]`, the standard event
    /// format) under the configured [`IngestPolicy`]: malformed records
    /// quarantine without killing the daemon, labels outside the frozen
    /// node space are dropped and counted, and the surviving batch is
    /// logged + fsynced before it enters the windower.
    ///
    /// # Errors
    /// [`ServeError::Request`] when the policy rejects the whole batch
    /// (e.g. `Strict` with a malformed record, or the quarantine budget
    /// exhausted); [`ServeError::Degraded`] when the WAL is read-only.
    pub fn ingest_lines(&mut self, text: &str) -> Result<IngestOutcome, ServeError> {
        self.check_writable()?;
        let mut scratch = Interner::new();
        let (events, report) = read_events_with_policy(
            BufReader::new(Cursor::new(text.as_bytes())),
            &mut scratch,
            self.config.ingest,
        )
        .map_err(|e| ServeError::Request(format!("ingest rejected: {e}")))?;
        let mut accepted = Vec::with_capacity(events.len());
        let mut unknown_label = 0u64;
        for e in &events {
            let src = scratch.label(e.src).and_then(|l| self.live.interner.get(l));
            let dst = scratch.label(e.dst).and_then(|l| self.live.interner.get(l));
            match (src, dst) {
                (Some(src), Some(dst)) => accepted.push(EdgeEvent {
                    time: e.time,
                    src,
                    dst,
                    weight: e.weight,
                }),
                _ => unknown_label += 1,
            }
        }
        if !accepted.is_empty() {
            self.log_record(&WalRecord::Events(accepted.clone()))?;
            self.live.push_events(&accepted);
        }
        Ok(IngestOutcome {
            accepted: accepted.len() as u64,
            unknown_label,
            quarantined: report.quarantined.len() as u64,
            repaired: report.repaired.len() as u64,
            pending: self.live.windower.pending_events() as u64,
        })
    }

    /// Advances one window: applies the delta to the detector, logs the
    /// delta + post-apply digest, and (if due) rotates the snapshot.
    ///
    /// # Errors
    /// [`ServeError::Degraded`] when the WAL is read-only; snapshot
    /// rotation failures propagate as [`ServeError::Io`].
    pub fn advance(&mut self) -> Result<AdvanceOutcome, ServeError> {
        self.check_writable()?;
        let delta = self.live.advance_once(self.dist);
        let digest = self.live.state_digest();
        self.log_record(&WalRecord::Advance { delta, digest })?;
        self.windows_since_snapshot += 1;
        let mut snapshotted = false;
        if self.config.snapshot_every > 0
            && self.windows_since_snapshot >= self.config.snapshot_every
        {
            self.snapshot_now()?;
            snapshotted = true;
        }
        // apply_window always sets `last`; expose it without unwrap so
        // the accept loop never has a panic path through here.
        let last = self.live.last.clone().ok_or_else(|| {
            ServeError::Diverged("advance completed without recording a window".to_owned())
        })?;
        Ok(AdvanceOutcome {
            last,
            digest,
            snapshotted,
        })
    }

    /// Writes a snapshot and rotates the WAL to a fresh epoch: write
    /// `snapshot.bin` atomically (pointing at the new epoch), create
    /// the new epoch's empty WAL, delete the superseded WAL best-effort.
    ///
    /// # Errors
    /// [`ServeError::Io`] on write failures, [`ServeError::Degraded`]
    /// when the service is read-only.
    pub fn snapshot_now(&mut self) -> Result<u64, ServeError> {
        self.check_writable()?;
        let new_epoch = self.wal_epoch + 1;
        let body = encode_snapshot(&self.config, &self.live, new_epoch);
        persist::write_atomic(&snapshot_file(&self.dir), SNAPSHOT_MAGIC, &body)?;
        let new_wal = WalWriter::create(&wal_file(&self.dir, new_epoch))?;
        let old = wal_file(&self.dir, self.wal_epoch);
        self.wal = new_wal;
        self.wal_epoch = new_epoch;
        self.windows_since_snapshot = 0;
        // The snapshot already supersedes the old epoch; leaving it
        // behind on failure costs disk, not correctness.
        let _ = fs::remove_file(old);
        Ok(new_epoch)
    }

    // --- queries (read-only, work even when degraded) ------------------

    /// Resolves a label to its frozen node id.
    ///
    /// # Errors
    /// [`ServeError::Request`] for labels outside the node space.
    pub fn resolve(&self, label: &str) -> Result<NodeId, ServeError> {
        self.live
            .interner
            .get(label)
            .ok_or_else(|| ServeError::Request(format!("unknown label `{label}`")))
    }

    /// The current-window signature of a subject, as labelled entries.
    ///
    /// # Errors
    /// [`ServeError::Request`] for unknown labels or non-subjects.
    pub fn signature_of(&self, label: &str) -> Result<&Signature, ServeError> {
        let v = self.resolve(label)?;
        self.live
            .det
            .signatures()
            .get(v)
            .ok_or_else(|| ServeError::Request(format!("`{label}` is not a subject")))
    }

    /// Ranks every subject against `label`'s current signature and
    /// returns the best `top` (label matching itself included — rank 0
    /// self-identification is the healthy case). On the sketch tier the
    /// ranking carries the LSH front's one-sided error: survivors score
    /// exactly, missed candidates report at distance 1.0.
    ///
    /// # Errors
    /// [`ServeError::Request`] for unknown labels or non-subjects.
    pub fn rank(&self, label: &str, top: usize) -> Result<Ranking, ServeError> {
        let sig = self.signature_of(label)?;
        Ok(self.live.det.rank_top_l(self.dist, sig, top))
    }

    /// The label of a node id (always known for ids the service emits).
    #[must_use]
    pub fn label_of(&self, v: NodeId) -> &str {
        self.live.interner.label(v).unwrap_or("?")
    }
}

fn check_label_space(
    live: &LiveState<'_>,
    genesis_interner: &Interner,
    genesis_subjects: &[NodeId],
) -> Result<(), ServeError> {
    if live.interner.len() != genesis_interner.len()
        || live
            .interner
            .iter()
            .zip(genesis_interner.iter())
            .any(|((_, a), (_, b))| a != b)
    {
        return Err(ServeError::Config(
            "seed events define a different label space than the snapshot; \
             the node space is frozen at genesis"
                .to_owned(),
        ));
    }
    if live.subjects != genesis_subjects {
        return Err(ServeError::Config(
            "seed events define a different subject population than the snapshot".to_owned(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("comsig-serve-durable-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed() -> (Interner, Vec<NodeId>, Vec<String>) {
        let mut interner = Interner::new();
        let mut lines = Vec::new();
        for t in 0..40u64 {
            let src = format!("h{}", t % 5);
            let dst = format!("h{}", (t + 2) % 7);
            interner.intern(&src);
            interner.intern(&dst);
            if src != dst {
                lines.push(format!("{t} {src} {dst} {}", 1.0 + (t % 4) as f64));
            }
        }
        let subjects = {
            let mut s: Vec<NodeId> = (0..5)
                .map(|i| interner.get(&format!("h{i}")).unwrap())
                .collect();
            s.sort_unstable();
            s
        };
        (interner, subjects, lines)
    }

    fn config() -> ServeConfig {
        ServeConfig {
            width: 10,
            slide: 10,
            k: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let scheme = TopTalkers;
        let dist = SHel;
        let (interner, subjects, lines) = seed();
        let text = lines.join("\n");

        // Uninterrupted run: ingest everything, advance three windows.
        let dir_a = temp_dir("uninterrupted");
        let (mut a, _) = DurableState::open(
            &scheme,
            &dist,
            config(),
            &dir_a,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        a.ingest_lines(&text).unwrap();
        let mut digests_a = Vec::new();
        for _ in 0..3 {
            digests_a.push(a.advance().unwrap().digest);
        }

        // Interrupted run: same ops, but drop the state (simulated
        // SIGKILL) after two windows and recover from disk.
        let dir_b = temp_dir("killed");
        let (mut b, _) = DurableState::open(
            &scheme,
            &dist,
            config(),
            &dir_b,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        b.ingest_lines(&text).unwrap();
        let _ = b.advance().unwrap();
        let _ = b.advance().unwrap();
        drop(b); // no shutdown, no snapshot: the WAL is the only truth

        let (mut b, recovery) =
            DurableState::open(&scheme, &dist, config(), &dir_b, interner, subjects).unwrap();
        assert_eq!(recovery.source, RecoverySource::Genesis);
        assert_eq!(recovery.replayed_windows, 2);
        assert_eq!(
            recovery.digest, digests_a[1],
            "recovery must land exactly where the log ends"
        );
        let third = b.advance().unwrap();
        assert_eq!(
            third.digest, digests_a[2],
            "post-recovery advance must be bit-identical"
        );
        // The recovered postings index has the uninterrupted run's
        // layout, not merely its rankings.
        let layout = |s: &DurableState<'_>| {
            let mut h = comsig_core::persist::Fnv::new();
            s.live().det.matcher().digest_state(&mut h);
            h.finish()
        };
        assert_eq!(layout(&b), layout(&a));
    }

    /// The same kill-and-resume discipline must hold on the sketch
    /// tier: WAL replay rebuilds the sketch state bit-identically, and
    /// the snapshot path persists + recovers it (the ANN index is
    /// derived at resume, never persisted).
    #[test]
    fn sketch_kill_and_resume_is_bit_identical() {
        let scheme = TopTalkers;
        let dist = SHel;
        let (interner, subjects, lines) = seed();
        let text = lines.join("\n");
        let cfg = ServeConfig {
            tier: crate::config::TierSpec::Sketch,
            ..config()
        };

        let dir_a = temp_dir("sketch-uninterrupted");
        let (mut a, _) = DurableState::open(
            &scheme,
            &dist,
            cfg.clone(),
            &dir_a,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        a.ingest_lines(&text).unwrap();
        let mut digests_a = Vec::new();
        for _ in 0..3 {
            digests_a.push(a.advance().unwrap().digest);
        }

        // Crash after two windows + a snapshot, so recovery exercises
        // the sketch snapshot codec, not just WAL replay from genesis.
        let dir_b = temp_dir("sketch-killed");
        let (mut b, _) = DurableState::open(
            &scheme,
            &dist,
            cfg.clone(),
            &dir_b,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        b.ingest_lines(&text).unwrap();
        let _ = b.advance().unwrap();
        b.snapshot_now().unwrap();
        let _ = b.advance().unwrap();
        drop(b); // simulated SIGKILL: snapshot + one WAL record survive

        let (mut b, recovery) =
            DurableState::open(&scheme, &dist, cfg, &dir_b, interner, subjects).unwrap();
        assert_eq!(recovery.source, RecoverySource::Snapshot { wal_epoch: 1 });
        assert_eq!(recovery.replayed_windows, 1);
        assert_eq!(
            recovery.digest, digests_a[1],
            "sketch recovery must land exactly where the log ends"
        );
        let third = b.advance().unwrap();
        assert_eq!(
            third.digest, digests_a[2],
            "post-recovery sketch advance must be bit-identical"
        );
        assert_eq!(b.live().det.tier().tier_name(), "sketch");
    }

    #[test]
    fn snapshot_rotation_supersedes_the_old_wal() {
        let scheme = TopTalkers;
        let dist = SHel;
        let (interner, subjects, lines) = seed();
        let dir = temp_dir("rotation");
        let cfg = ServeConfig {
            snapshot_every: 2,
            ..config()
        };
        let (mut s, _) = DurableState::open(
            &scheme,
            &dist,
            cfg.clone(),
            &dir,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        s.ingest_lines(&lines.join("\n")).unwrap();
        let o1 = s.advance().unwrap();
        assert!(!o1.snapshotted);
        let o2 = s.advance().unwrap();
        assert!(o2.snapshotted, "snapshot_every = 2 must rotate here");
        assert_eq!(s.wal_epoch(), 1);
        assert!(snapshot_file(&dir).exists());
        assert!(wal_file(&dir, 1).exists());
        assert!(!wal_file(&dir, 0).exists(), "old epoch deleted");
        let want = s.live().state_digest();
        drop(s);
        let (s, recovery) =
            DurableState::open(&scheme, &dist, cfg, &dir, interner, subjects).unwrap();
        assert_eq!(recovery.source, RecoverySource::Snapshot { wal_epoch: 1 });
        assert_eq!(recovery.replayed_windows, 0);
        assert_eq!(s.live().state_digest(), want);
    }

    #[test]
    fn quarantine_policy_survives_bad_lines_and_unknown_labels() {
        let scheme = TopTalkers;
        let dist = SHel;
        let (interner, subjects, _) = seed();
        let dir = temp_dir("quarantine");
        let cfg = ServeConfig {
            ingest: comsig_graph::IngestPolicy::Quarantine {
                max_bad_fraction: 0.5,
            },
            ..config()
        };
        let (mut s, _) = DurableState::open(&scheme, &dist, cfg, &dir, interner, subjects).unwrap();
        let out = s
            .ingest_lines("1 h0 h1 2.0\nnot a line\n2 h0 stranger 1.0\n3 h1 h2 -4\n")
            .unwrap();
        assert_eq!(out.accepted, 1);
        assert_eq!(out.unknown_label, 1);
        assert_eq!(out.quarantined, 2);
        // The daemon is still healthy and writable.
        assert!(s.degraded().is_none());
        assert!(s.advance().is_ok());
    }

    /// A data dir written by a build with a previous format opens as
    /// typed corruption naming the expected magic, never as a panic, a
    /// misread body, a replay divergence or a truncated tail. That covers
    /// snapshots v2 (which carried the postings layout) and v3 (which
    /// carried per-event windower state), and a WAL without a header,
    /// which every build before the header wrote.
    #[test]
    fn previous_snapshot_format_is_typed_corruption() {
        let scheme = TopTalkers;
        let dist = SHel;
        let (interner, subjects, lines) = seed();
        let expect_corrupt = |dir: &Path, magic: &str| {
            let opened = DurableState::open(
                &scheme,
                &dist,
                config(),
                dir,
                interner.clone(),
                subjects.clone(),
            );
            match opened {
                Err(ServeError::Corrupt(reason)) => assert!(
                    reason.contains(magic),
                    "reason must name the expected magic: {reason}"
                ),
                Err(e) => panic!("expected typed corruption, got {e}"),
                Ok(_) => panic!("a previous format must not open"),
            };
        };
        for old in ["comsig-serve-snapshot v2", "comsig-serve-snapshot v3"] {
            let dir = temp_dir(&old.replace(' ', "-"));
            let (mut s, _) = DurableState::open(
                &scheme,
                &dist,
                config(),
                &dir,
                interner.clone(),
                subjects.clone(),
            )
            .unwrap();
            s.ingest_lines(&lines.join("\n")).unwrap();
            let _ = s.advance().unwrap();
            s.snapshot_now().unwrap();
            drop(s);
            let body = match persist::read_atomic(&snapshot_file(&dir), SNAPSHOT_MAGIC) {
                persist::LoadOutcome::Hit(body) => body,
                _ => panic!("fresh snapshot must load"),
            };
            persist::write_atomic(&snapshot_file(&dir), old, &body).unwrap();
            expect_corrupt(&dir, SNAPSHOT_MAGIC);
        }

        // A genesis data dir whose WAL has no header: its records must
        // not replay, and its bytes must not be truncated away.
        let dir = temp_dir("headerless-wal");
        let (mut s, _) = DurableState::open(
            &scheme,
            &dist,
            config(),
            &dir,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        s.ingest_lines(&lines.join("\n")).unwrap();
        let _ = s.advance().unwrap();
        drop(s);
        let wal = wal_file(&dir, 0);
        let bytes = fs::read(&wal).unwrap();
        let headerless = bytes[persist::WAL_HEADER.len()..].to_vec();
        fs::write(&wal, &headerless).unwrap();
        expect_corrupt(&dir, persist::WAL_HEADER.trim_end());
        assert_eq!(fs::read(&wal).unwrap(), headerless);
    }

    #[test]
    fn config_drift_on_reopen_is_a_typed_error() {
        let scheme = TopTalkers;
        let dist = SHel;
        let (interner, subjects, lines) = seed();
        let dir = temp_dir("drift");
        let (mut s, _) = DurableState::open(
            &scheme,
            &dist,
            config(),
            &dir,
            interner.clone(),
            subjects.clone(),
        )
        .unwrap();
        s.ingest_lines(&lines.join("\n")).unwrap();
        let _ = s.advance().unwrap();
        s.snapshot_now().unwrap();
        drop(s);
        let other = ServeConfig { k: 9, ..config() };
        assert!(matches!(
            DurableState::open(&scheme, &dist, other, &dir, interner, subjects),
            Err(ServeError::Config(_))
        ));
    }
}
