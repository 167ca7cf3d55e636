//! Crash-and-recover scenarios for the `comsig serve` durability plane.
//!
//! Each scenario drives a real [`DurableState`] in a scratch data
//! directory, injects one crash-shaped fault — a process kill between
//! durable records (simulated by dropping the state mid-session), a
//! stale snapshot temp file, a torn or bit-flipped WAL tail — and then
//! reopens the directory. The acceptance bar is the durability
//! contract: recovery must reproduce the **bit-identical** state an
//! uninterrupted run reaches (state digests are the oracle), and every
//! injected fault must surface as a typed outcome, never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use comsig_core::distance::SHel;
use comsig_core::persist::WAL_HEADER;
use comsig_core::scheme::TopTalkers;
use comsig_graph::{EdgeEvent, Interner, NodeId};

use comsig_serve::config::TierSpec;
use comsig_serve::state::subject_sources;
use comsig_serve::{DurableState, Recovery, RecoverySource, ServeConfig, ServeError};
use comsig_sketch::stream::StreamConfig;

/// A scratch data directory, wiped on creation and on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str, seed: u64) -> Self {
        let dir = std::env::temp_dir()
            .join("comsig-chaos-durability")
            .join(format!("{name}-{}-{seed}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        width: 10,
        slide: 10,
        k: 4,
        ..ServeConfig::default()
    }
}

/// The sketch-tier twin of [`config`]: same windowing, but signatures
/// come from a [`SketchTier`](comsig_sketch::tier::SketchTier) whose
/// state is snapshotted and WAL-replayed instead of the exact CSR.
fn sketch_config() -> ServeConfig {
    ServeConfig {
        tier: TierSpec::Sketch,
        sketch: StreamConfig {
            cm_width: 64,
            cm_depth: 2,
            candidate_budget: 8,
            fm_bitmaps: 16,
            seed: 1,
            indeg_cells: 0,
            indeg_depth: 2,
        },
        ..config()
    }
}

/// The frozen label space and event lines of the scenario stream: 6
/// hosts, 4 aligned windows of traffic, weights varied by the seed.
/// Line `t` carries time `t`, so lines `[10w, 10w+10)` are exactly
/// window `w` under the width-10 tumbling config.
fn seed_stream(seed: u64) -> (Interner, Vec<NodeId>, Vec<String>) {
    let mut interner = Interner::new();
    let mut lines = Vec::new();
    let mut events = Vec::new();
    for t in 0..40u64 {
        let src = format!("h{}", (t + seed) % 6);
        let dst = format!("h{}", (t + seed + 2) % 6);
        let s = interner.intern(&src);
        let d = interner.intern(&dst);
        let w = 1 + (t + seed) % 5;
        lines.push(format!("{t} {src} {dst} {w}"));
        events.push(EdgeEvent {
            time: t,
            src: s,
            dst: d,
            weight: w as f64,
        });
    }
    let subjects = subject_sources(&events);
    (interner, subjects, lines)
}

type Opened<'a> = (DurableState<'a>, Recovery);

fn open<'a>(
    scheme: &'a TopTalkers,
    dist: &'a SHel,
    dir: &Path,
    seed: u64,
) -> Result<Opened<'a>, ServeError> {
    open_with(scheme, dist, config(), dir, seed)
}

fn open_with<'a>(
    scheme: &'a TopTalkers,
    dist: &'a SHel,
    cfg: ServeConfig,
    dir: &Path,
    seed: u64,
) -> Result<Opened<'a>, ServeError> {
    let (interner, subjects, _) = seed_stream(seed);
    DurableState::open(scheme, dist, cfg, dir, interner, subjects)
}

fn err(e: impl std::fmt::Display) -> String {
    format!("durability scenario failed: {e}")
}

/// Ingests `lines[range]` and advances once, returning the new digest.
fn feed_window(
    state: &mut DurableState<'_>,
    lines: &[String],
    range: std::ops::Range<usize>,
) -> Result<u64, String> {
    state.ingest_lines(&lines[range].join("\n")).map_err(err)?;
    Ok(state.advance().map_err(err)?.digest)
}

/// The digest an uninterrupted run reaches after all four windows.
fn uninterrupted_digest(seed: u64) -> Result<u64, String> {
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("uninterrupted", seed);
    let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
    let (_, _, lines) = seed_stream(seed);
    let mut digest = 0;
    for w in 0..4 {
        let lo = lines.len() * w / 4;
        let hi = lines.len() * (w + 1) / 4;
        digest = feed_window(&mut state, &lines, lo..hi)?;
    }
    Ok(digest)
}

/// Kill between two windows (drop without shutdown), reopen, finish the
/// stream: the final digest must equal the uninterrupted run's.
pub fn serve_kill_and_resume(seed: u64) -> Result<String, String> {
    let want = uninterrupted_digest(seed)?;
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("kill-resume", seed);
    let (_, _, lines) = seed_stream(seed);
    {
        let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        for w in 0..2 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
        // SIGKILL: the state is dropped with no snapshot and no goodbye.
    }
    let (mut state, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
    if recovery.replayed_windows != 2 {
        return Err(format!(
            "expected 2 replayed windows, got {}",
            recovery.replayed_windows
        ));
    }
    let mut digest = recovery.digest;
    for w in 2..4 {
        let lo = lines.len() * w / 4;
        let hi = lines.len() * (w + 1) / 4;
        digest = feed_window(&mut state, &lines, lo..hi)?;
    }
    if digest != want {
        return Err(format!(
            "resumed digest {digest:016x} != uninterrupted {want:016x}"
        ));
    }
    Ok(format!(
        "kill after window 2 recovered; final digest {digest:016x} matches uninterrupted run"
    ))
}

/// The sketch-tier twin of [`serve_kill_and_resume`]: the snapshot and
/// WAL now carry the full `SemiStream` sketch state (per-source CMs,
/// candidate maps, FM bitmaps). Kill between windows, reopen, finish —
/// the final digest must equal the uninterrupted sketch-tier run's.
pub fn serve_sketch_kill_and_resume(seed: u64) -> Result<String, String> {
    let scheme = TopTalkers;
    let dist = SHel;
    let (_, _, lines) = seed_stream(seed);

    let want = {
        let dir = ScratchDir::new("sketch-uninterrupted", seed);
        let (mut state, _) =
            open_with(&scheme, &dist, sketch_config(), dir.path(), seed).map_err(err)?;
        let mut digest = 0;
        for w in 0..4 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            digest = feed_window(&mut state, &lines, lo..hi)?;
        }
        digest
    };

    let dir = ScratchDir::new("sketch-kill-resume", seed);
    {
        let (mut state, _) =
            open_with(&scheme, &dist, sketch_config(), dir.path(), seed).map_err(err)?;
        for w in 0..2 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
        // SIGKILL: the sketch state is dropped mid-stream, no snapshot.
    }
    let (mut state, recovery) =
        open_with(&scheme, &dist, sketch_config(), dir.path(), seed).map_err(err)?;
    if recovery.replayed_windows != 2 {
        return Err(format!(
            "expected 2 replayed windows, got {}",
            recovery.replayed_windows
        ));
    }
    let mut digest = recovery.digest;
    for w in 2..4 {
        let lo = lines.len() * w / 4;
        let hi = lines.len() * (w + 1) / 4;
        digest = feed_window(&mut state, &lines, lo..hi)?;
    }
    if digest != want {
        return Err(format!(
            "resumed sketch digest {digest:016x} != uninterrupted {want:016x}"
        ));
    }
    Ok(format!(
        "sketch tier killed after window 2 recovered; final digest {digest:016x} matches"
    ))
}

/// A crash mid-snapshot leaves a stale `snapshot.bin.tmp`; recovery must
/// ignore it and still reach the uninterrupted digest.
pub fn serve_kill_mid_snapshot(seed: u64) -> Result<String, String> {
    let want = uninterrupted_digest(seed)?;
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("mid-snapshot", seed);
    let (_, _, lines) = seed_stream(seed);
    {
        let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        for w in 0..4 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
        state.snapshot_now().map_err(err)?;
    }
    // The torn write_atomic temp file a kill would leave behind.
    let tmp = dir.path().join("snapshot.bin.tmp");
    fs::write(&tmp, b"comsig-serve-snapshot v1\ntorn mid-write").map_err(err)?;
    let (state, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
    if !matches!(recovery.source, RecoverySource::Snapshot { .. }) {
        return Err(format!("expected snapshot recovery, got {recovery:?}"));
    }
    let digest = state.live().state_digest();
    if digest != want {
        return Err(format!("digest {digest:016x} != uninterrupted {want:016x}"));
    }
    Ok("stale snapshot.bin.tmp ignored; snapshot recovery bit-identical".to_owned())
}

/// A torn WAL tail (partial final record) is truncated: recovery keeps
/// every complete record and resumes to the uninterrupted digest.
pub fn serve_wal_torn_tail(seed: u64) -> Result<String, String> {
    let want = uninterrupted_digest(seed)?;
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("torn-tail", seed);
    let (_, _, lines) = seed_stream(seed);
    {
        let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        for w in 0..2 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
    }
    // Tear the tail: append a frame header claiming more bytes than
    // exist, exactly what a crash mid-append produces.
    let wal = dir.path().join("wal.0.log");
    let mut bytes = fs::read(&wal).map_err(err)?;
    let before = bytes.len() as u64;
    bytes.extend_from_slice(&500u32.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(b"torn");
    fs::write(&wal, &bytes).map_err(err)?;

    let (mut state, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
    if recovery.torn_tail.is_none() {
        return Err("recovery did not report the torn tail".to_owned());
    }
    if recovery.dropped_bytes != bytes.len() as u64 - before {
        return Err(format!(
            "expected {} dropped bytes, got {}",
            bytes.len() as u64 - before,
            recovery.dropped_bytes
        ));
    }
    let mut digest = recovery.digest;
    for w in 2..4 {
        let lo = lines.len() * w / 4;
        let hi = lines.len() * (w + 1) / 4;
        digest = feed_window(&mut state, &lines, lo..hi)?;
    }
    if digest != want {
        return Err(format!(
            "digest after torn-tail recovery {digest:016x} != uninterrupted {want:016x}"
        ));
    }
    Ok(format!(
        "torn tail of {} bytes truncated; resumed run bit-identical",
        recovery.dropped_bytes
    ))
}

/// A bit flip inside an early WAL record invalidates that record *and
/// everything after it* — recovery must keep only the trustworthy
/// prefix, and replaying it must still verify.
pub fn serve_wal_bitflip(seed: u64) -> Result<String, String> {
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("bitflip", seed);
    let (_, _, lines) = seed_stream(seed);
    {
        let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        for w in 0..3 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
    }
    let wal = dir.path().join("wal.0.log");
    let mut bytes = fs::read(&wal).map_err(err)?;
    // Flip one payload bit somewhere in the middle of the log, varying
    // the position with the seed (never the WAL header or the first
    // frame header, so the log scans and at least one record survives).
    let header = WAL_HEADER.len();
    let pos = header + 13 + (seed as usize % ((bytes.len() - header) / 2));
    bytes[pos] ^= 0x40;
    fs::write(&wal, &bytes).map_err(err)?;

    let (state, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
    if recovery.torn_tail.is_none() {
        return Err("recovery did not report the corrupt record".to_owned());
    }
    if recovery.dropped_bytes == 0 {
        return Err("a flipped bit must drop at least its record".to_owned());
    }
    if recovery.replayed_windows >= 3 && recovery.replayed_events >= 30 {
        return Err("corrupt suffix was replayed in full".to_owned());
    }
    if state.live().state_digest() != recovery.digest {
        return Err("recovery digest does not match the live state".to_owned());
    }
    Ok(format!(
        "bit flip at byte {pos}: {} bytes dropped, {} windows trusted",
        recovery.dropped_bytes, recovery.replayed_windows
    ))
}

/// Recovery is idempotent: reopening twice with no mutations in between
/// must change neither the digest nor a single durable byte.
pub fn serve_double_restart_idempotent(seed: u64) -> Result<String, String> {
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("double-restart", seed);
    let (_, _, lines) = seed_stream(seed);
    {
        let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        for w in 0..2 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
    }
    let wal = dir.path().join("wal.0.log");
    let bytes_before = fs::read(&wal).map_err(err)?;
    let first = {
        let (_, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        recovery
    };
    let second = {
        let (_, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        recovery
    };
    if first != second {
        return Err(format!("recoveries diverged: {first:?} vs {second:?}"));
    }
    let bytes_after = fs::read(&wal).map_err(err)?;
    if bytes_before != bytes_after {
        return Err("recovery rewrote WAL bytes without any mutation".to_owned());
    }
    Ok(format!(
        "two restarts identical: digest {:016x}, WAL untouched ({} bytes)",
        second.digest,
        bytes_after.len()
    ))
}

/// Snapshot rotation mid-run plus a tail of later windows: recovery
/// starts from the snapshot, replays only the tail, and matches the
/// uninterrupted digest.
pub fn serve_snapshot_plus_tail_replay(seed: u64) -> Result<String, String> {
    let want = uninterrupted_digest(seed)?;
    let scheme = TopTalkers;
    let dist = SHel;
    let dir = ScratchDir::new("snapshot-tail", seed);
    let (_, _, lines) = seed_stream(seed);
    {
        let (mut state, _) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
        for w in 0..2 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
        let epoch = state.snapshot_now().map_err(err)?;
        if epoch != 1 {
            return Err(format!("expected rotation to epoch 1, got {epoch}"));
        }
        for w in 2..4 {
            let lo = lines.len() * w / 4;
            let hi = lines.len() * (w + 1) / 4;
            feed_window(&mut state, &lines, lo..hi)?;
        }
        // Kill: epoch-1 WAL holds windows 3 and 4, superseded epoch 0 is
        // gone.
    }
    if dir.path().join("wal.0.log").exists() {
        return Err("rotation left the superseded wal.0.log behind".to_owned());
    }
    let (state, recovery) = open(&scheme, &dist, dir.path(), seed).map_err(err)?;
    if recovery.source != (RecoverySource::Snapshot { wal_epoch: 1 }) {
        return Err(format!("expected snapshot@1 recovery, got {recovery:?}"));
    }
    if recovery.replayed_windows != 2 {
        return Err(format!(
            "expected 2 tail windows replayed, got {}",
            recovery.replayed_windows
        ));
    }
    let digest = state.live().state_digest();
    if digest != want {
        return Err(format!("digest {digest:016x} != uninterrupted {want:016x}"));
    }
    Ok(format!(
        "snapshot@1 + {} tail windows replayed to the uninterrupted digest",
        recovery.replayed_windows
    ))
}
