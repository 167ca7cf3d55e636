//! Crash-safe persistence primitives shared by the experiment
//! checkpoints and the `comsig serve` durability plane.
//!
//! Three layers, all dependency-free:
//!
//! 1. **Digest** — the FNV-1a 64-bit hash used everywhere the repo
//!    fingerprints bytes ([`fnv1a`], incremental [`Fnv`]). Cheap and
//!    enough to catch truncation and bit rot; this guards against
//!    accidents, not adversaries.
//! 2. **Binary codec** — [`Enc`]/[`Dec`], a little-endian length-checked
//!    byte codec. Every [`Dec`] method returns a [`CodecError`] instead
//!    of panicking: decoding runs on the recovery path, where corrupt
//!    input must degrade into a typed error. An [`Enc`] can also hash
//!    instead of buffer, so a state digest costs no copy of the state.
//! 3. **Atomic containers and WAL framing** — [`write_atomic`] writes
//!    `magic + digest + body` to a `.tmp` sibling, fsyncs, and renames
//!    into place, so a file is either absent, the old version, or
//!    complete — never torn. [`WalWriter`]/[`scan_wal`] implement an
//!    append-only log: a [`WAL_HEADER`] line, then
//!    `[u32 len][u64 digest][payload]` records; [`scan_wal`] rejects a
//!    file without the header and stops at the first invalid record,
//!    reporting the torn tail so recovery can truncate it.
//!
//! On top of those, the module provides byte encoders for the streaming
//! state types ([`WindowDelta`], [`WindowerState`], [`SignatureSet`], and
//! a [`CommGraph`]'s header): deterministic output (equal values encode
//! to equal bytes) and validated, panic-free decoding.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use comsig_graph::{
    Aggregate, CommGraph, EdgeChange, NodeId, SlidingWindower, TimedEvent, WindowDelta,
    WindowerState,
};

use crate::signature::{Signature, SignatureSet};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher, for digesting state without
/// materialising one contiguous buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Folds raw bytes into the digest.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian bytes) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One-shot FNV-1a 64 over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// A decoding failure: what was expected and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of the violated expectation.
    pub context: String,
}

impl CodecError {
    fn new(context: impl Into<String>) -> Self {
        CodecError {
            context: context.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.context)
    }
}

impl std::error::Error for CodecError {}

impl From<String> for CodecError {
    fn from(context: String) -> Self {
        CodecError { context }
    }
}

/// Where an [`Enc`] puts its bytes.
#[derive(Debug)]
enum Sink {
    /// Appended to an owned buffer.
    Buf(Vec<u8>),
    /// Folded into an FNV-1a digest and dropped.
    Hash(Fnv),
}

impl Default for Sink {
    fn default() -> Self {
        Sink::Buf(Vec::new())
    }
}

/// Little-endian binary encoder. Equal values always encode to equal
/// bytes — the property the round-trip proptests and the recovery
/// digest oracle rely on.
///
/// An encoder either buffers its bytes ([`new`](Self::new)) or folds
/// them straight into FNV-1a ([`hashing`](Self::hashing)). FNV-1a
/// consumes bytes in order, so a hashing encoder's
/// [`into_digest`](Self::into_digest) equals [`fnv1a`] over the bytes a
/// buffering encoder would have produced, without holding them.
#[derive(Debug, Default)]
pub struct Enc {
    sink: Sink,
    written: usize,
}

impl Enc {
    /// A fresh, empty, buffering encoder.
    #[must_use]
    pub fn new() -> Self {
        Enc::default()
    }

    /// A fresh encoder that digests its bytes instead of keeping them.
    #[must_use]
    pub fn hashing() -> Self {
        Enc {
            sink: Sink::Hash(Fnv::new()),
            written: 0,
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.written += bytes.len();
        match &mut self.sink {
            Sink::Buf(buf) => buf.extend_from_slice(bytes),
            Sink::Hash(h) => h.write(bytes),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its bit pattern (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.put(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.put(b);
    }

    /// The encoded bytes. A hashing encoder keeps none and returns an
    /// empty vector.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Buf(buf) => buf,
            Sink::Hash(_) => Vec::new(),
        }
    }

    /// The FNV-1a state over every byte written, ready to fold in more:
    /// its [`finish`](Fnv::finish) is [`fnv1a`] of the encoded bytes, in
    /// either mode.
    #[must_use]
    pub fn into_digest(self) -> Fnv {
        match self.sink {
            Sink::Buf(buf) => {
                let mut h = Fnv::new();
                h.write(&buf);
                h
            }
            Sink::Hash(h) => h,
        }
    }

    /// Bytes written so far, in either mode.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.written
    }
}

/// Little-endian binary decoder over a byte slice. Every method is
/// bounds-checked and returns [`CodecError`] rather than panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is fully consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the input is fully consumed — trailing garbage in a
    /// container is corruption, not padding.
    pub fn finish(&self, what: &str) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CodecError::new(format!(
                "{what}: need {n} bytes, {} left",
                self.remaining()
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a collection length written by [`Enc::len`], rejecting any
    /// length that could not possibly fit in the remaining input (each
    /// element needs at least `min_elem_bytes`). This keeps a corrupt
    /// length from turning into a huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, CodecError> {
        let n = self.u64(what)?;
        let cap = self
            .remaining()
            .checked_div(min_elem_bytes)
            .map_or(u64::MAX, |c| c as u64);
        if n > cap {
            return Err(CodecError::new(format!(
                "{what}: implausible length {n} ({} bytes left)",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, CodecError> {
        let n = self.seq_len(1, what)?;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|e| CodecError::new(format!("{what}: {e}")))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>, CodecError> {
        let n = self.seq_len(1, what)?;
        Ok(self.take(n, what)?.to_vec())
    }
}

// ---------------------------------------------------------------------
// Atomic containers.
// ---------------------------------------------------------------------

/// Result of probing an atomic container file.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A valid file: the verified body bytes.
    Hit(Vec<u8>),
    /// No file exists.
    Miss,
    /// A file exists but cannot be trusted; carries the reason.
    Corrupt(String),
}

/// Atomically replaces `path` with `magic`-tagged, digest-guarded
/// `body` bytes: the payload goes to a `.tmp` sibling first, is synced,
/// and renamed into place, so readers never observe a torn file — a
/// crash leaves either the old version or the new one.
///
/// # Errors
/// Propagates I/O failures from the write, sync or rename.
pub fn write_atomic(path: &Path, magic: &str, body: &[u8]) -> io::Result<()> {
    let mut payload = Vec::with_capacity(magic.len() + 32 + body.len());
    payload.extend_from_slice(magic.as_bytes());
    payload.push(b'\n');
    payload.extend_from_slice(format!("digest {:016x}\n", fnv1a(body)).as_bytes());
    payload.extend_from_slice(body);

    let mut tmp_name = path.file_name().map_or_else(
        || std::ffi::OsString::from("atomic"),
        std::ffi::OsString::from,
    );
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Sync the directory so the rename itself survives a crash; best
    // effort — some filesystems refuse to sync directories.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Probes an atomic container written by [`write_atomic`], verifying
/// magic and digest.
#[must_use]
pub fn read_atomic(path: &Path, magic: &str) -> LoadOutcome {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Miss,
        Err(e) => return LoadOutcome::Corrupt(format!("unreadable: {e}")),
    };
    let Some(rest) = bytes
        .strip_prefix(magic.as_bytes())
        .and_then(|r| r.strip_prefix(b"\n"))
    else {
        return LoadOutcome::Corrupt(format!("bad magic (expected `{magic}`)"));
    };
    // "digest <16 hex>\n" = 24 bytes.
    if rest.len() < 24 || &rest[..7] != b"digest " || rest[23] != b'\n' {
        return LoadOutcome::Corrupt("bad digest line".to_owned());
    }
    let stored = match std::str::from_utf8(&rest[7..23])
        .ok()
        .and_then(|d| u64::from_str_radix(d, 16).ok())
    {
        Some(stored) => stored,
        None => return LoadOutcome::Corrupt("bad digest line".to_owned()),
    };
    let body = &rest[24..];
    let computed = fnv1a(body);
    if stored != computed {
        return LoadOutcome::Corrupt(format!(
            "digest mismatch: stored {stored:016x}, computed {computed:016x}"
        ));
    }
    LoadOutcome::Hit(body.to_vec())
}

// ---------------------------------------------------------------------
// Write-ahead log framing.
// ---------------------------------------------------------------------

/// Upper bound on one WAL record's payload; a larger claimed length is
/// treated as corruption.
pub const MAX_WAL_RECORD: u32 = 1 << 30;

/// The line that opens every WAL file. It versions the framing and the
/// records inside, so a log written in another format fails to scan
/// instead of replaying as garbage.
pub const WAL_HEADER: &str = "comsig-wal v1\n";

/// Append-only writer for a write-ahead log: a [`WAL_HEADER`] line, then
/// `[u32 len][u64 digest][payload]`-framed records. A record is durable
/// once [`sync`](Self::sync) returns after its [`append`](Self::append).
#[derive(Debug)]
pub struct WalWriter {
    file: fs::File,
    bytes: u64,
}

impl WalWriter {
    /// Creates (truncating) a fresh log at `path`, its header written and
    /// synced.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn create(path: &Path) -> io::Result<Self> {
        WalWriter::start(fs::File::create(path)?)
    }

    /// Writes and syncs the header into an empty `file`.
    fn start(mut file: fs::File) -> io::Result<Self> {
        file.write_all(WAL_HEADER.as_bytes())?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            bytes: WAL_HEADER.len() as u64,
        })
    }

    /// Re-opens an existing log for appending after recovery, first
    /// truncating it to `valid_bytes` (everything past the last valid
    /// record, as reported by [`scan_wal`], is discarded). A log whose
    /// header never fully landed is rewritten from its header.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn resume(path: &Path, valid_bytes: u64) -> io::Result<Self> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        if valid_bytes < WAL_HEADER.len() as u64 {
            file.set_len(0)?;
            return WalWriter::start(file);
        }
        file.set_len(valid_bytes)?;
        file.sync_all()?;
        let mut writer = WalWriter {
            file,
            bytes: valid_bytes,
        };
        writer.seek_end()?;
        Ok(writer)
    }

    fn seek_end(&mut self) -> io::Result<()> {
        use std::io::Seek;
        self.file.seek(io::SeekFrom::End(0))?;
        Ok(())
    }

    /// Appends one framed record. Not durable until
    /// [`sync`](Self::sync).
    ///
    /// # Errors
    /// Fails if the payload exceeds [`MAX_WAL_RECORD`] or on I/O error.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_WAL_RECORD)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("WAL record too large: {} bytes", payload.len()),
                )
            })?;
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Forces appended records to stable storage — the durability
    /// boundary the server acks behind.
    ///
    /// # Errors
    /// Propagates the sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Bytes written (valid prefix length after the last append).
    #[must_use]
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }
}

/// How a scanned WAL ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The file ends in an invalid record (torn write or bit rot); the
    /// scan stopped at the last valid record.
    Torn {
        /// Bytes past the valid prefix.
        dropped_bytes: u64,
        /// What made the first invalid record invalid.
        reason: String,
    },
}

/// The result of scanning a WAL file: every valid record in order, the
/// byte length of the valid prefix, and how the file ended.
#[derive(Debug)]
pub struct WalScan {
    /// Payloads of the valid records, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (pass to [`WalWriter::resume`]).
    pub valid_bytes: u64,
    /// Whether a torn/corrupt tail was dropped.
    pub tail: WalTail,
}

/// Scans a WAL file, stopping at the first invalid record. A missing
/// file scans as empty and clean (a rotated log that never received a
/// record), and so does a file that is a strict prefix of
/// [`WAL_HEADER`] (a crash while creating it; its bytes are reported as
/// a torn tail). Records after a corrupt one are **not** recovered even
/// if they frame correctly — a mid-log digest mismatch means the file
/// cannot be trusted past that point.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`], naming the expected header, for a
/// file that starts with anything else: a log in another format, never a
/// torn tail to truncate. Propagates I/O failures other than `NotFound`.
pub fn scan_wal(path: &Path) -> io::Result<WalScan> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                valid_bytes: 0,
                tail: WalTail::Clean,
            })
        }
        Err(e) => return Err(e),
    };
    let header = WAL_HEADER.as_bytes();
    if bytes.len() < header.len() && header.starts_with(&bytes) {
        let tail = if bytes.is_empty() {
            WalTail::Clean
        } else {
            WalTail::Torn {
                dropped_bytes: bytes.len() as u64,
                reason: "torn WAL header".to_owned(),
            }
        };
        return Ok(WalScan {
            records: Vec::new(),
            valid_bytes: 0,
            tail,
        });
    }
    if !bytes.starts_with(header) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad WAL header (expected `{}`)", WAL_HEADER.trim_end()),
        ));
    }
    let mut records = Vec::new();
    let mut pos = header.len();
    let mut tail = WalTail::Clean;
    while pos < bytes.len() {
        let invalid = |reason: String| WalTail::Torn {
            dropped_bytes: (bytes.len() - pos) as u64,
            reason,
        };
        if bytes.len() - pos < 12 {
            tail = invalid(format!("truncated header ({} bytes)", bytes.len() - pos));
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_WAL_RECORD {
            tail = invalid(format!("implausible record length {len}"));
            break;
        }
        let mut digest_bytes = [0u8; 8];
        digest_bytes.copy_from_slice(&bytes[pos + 4..pos + 12]);
        let stored = u64::from_le_bytes(digest_bytes);
        let start = pos + 12;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            tail = invalid(format!(
                "truncated payload (want {len}, have {})",
                bytes.len() - start
            ));
            break;
        };
        let payload = &bytes[start..end];
        let computed = fnv1a(payload);
        if stored != computed {
            tail = invalid(format!(
                "record digest mismatch: stored {stored:016x}, computed {computed:016x}"
            ));
            break;
        }
        records.push(payload.to_vec());
        pos = end;
    }
    Ok(WalScan {
        records,
        valid_bytes: pos as u64,
        tail,
    })
}

// ---------------------------------------------------------------------
// Typed encoders for the streaming state.
// ---------------------------------------------------------------------

fn enc_opt_f64(enc: &mut Enc, v: Option<f64>) {
    match v {
        Some(w) => {
            enc.u8(1);
            enc.f64(w);
        }
        None => enc.u8(0),
    }
}

fn dec_opt_f64(dec: &mut Dec<'_>, what: &str) -> Result<Option<f64>, CodecError> {
    match dec.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(dec.f64(what)?)),
        tag => Err(CodecError::new(format!("{what}: bad option tag {tag}"))),
    }
}

fn node(raw: u32) -> NodeId {
    NodeId::new(raw as usize)
}

/// Encodes a [`WindowDelta`] (deterministic: equal deltas encode to
/// equal bytes).
pub fn encode_delta(enc: &mut Enc, delta: &WindowDelta) {
    enc.u64(delta.start);
    enc.u64(delta.end);
    enc.len(delta.changes.len());
    for c in &delta.changes {
        enc.u32(c.src.raw());
        enc.u32(c.dst.raw());
        enc_opt_f64(enc, c.old);
        enc_opt_f64(enc, c.new);
    }
}

/// Decodes a [`WindowDelta`], validating the sort/elision invariants
/// its producer guarantees.
///
/// # Errors
/// Returns [`CodecError`] on truncation or invariant violation.
pub fn decode_delta(dec: &mut Dec<'_>) -> Result<WindowDelta, CodecError> {
    let start = dec.u64("delta.start")?;
    let end = dec.u64("delta.end")?;
    let n = dec.seq_len(10, "delta.changes")?;
    let mut changes = Vec::with_capacity(n);
    let mut prev: Option<(NodeId, NodeId)> = None;
    for _ in 0..n {
        let src = node(dec.u32("change.src")?);
        let dst = node(dec.u32("change.dst")?);
        let old = dec_opt_f64(dec, "change.old")?;
        let new = dec_opt_f64(dec, "change.new")?;
        if prev.is_some_and(|p| p >= (src, dst)) {
            return Err(CodecError::new("delta changes not strictly sorted"));
        }
        prev = Some((src, dst));
        if old.map(f64::to_bits) == new.map(f64::to_bits) {
            return Err(CodecError::new("delta change with bit-equal old/new"));
        }
        changes.push(EdgeChange { src, dst, old, new });
    }
    Ok(WindowDelta {
        start,
        end,
        changes,
    })
}

/// Encodes a [`CommGraph`]'s header: its node count, and no edges. A
/// window graph's edges are its windower's aggregates, which the
/// windower's own encoding already carries, so decoding rebuilds the
/// graph from those with [`CommGraph::from_sorted_edges`] instead of
/// reading a second copy.
pub fn encode_graph(enc: &mut Enc, graph: &CommGraph) {
    enc.u64(graph.num_nodes() as u64);
}

/// Encodes a [`SignatureSet`] in subject order with each signature's
/// canonical sorted entries.
pub fn encode_signature_set(enc: &mut Enc, set: &SignatureSet) {
    enc.len(set.len());
    for (subject, sig) in set.iter() {
        enc.u32(subject.raw());
        enc.len(sig.len());
        for (u, w) in sig.iter() {
            enc.u32(u.raw());
            enc.f64(w);
        }
    }
}

/// Decodes a [`SignatureSet`] through the validated constructors —
/// strictly sorted positive finite entries, unique subjects.
///
/// # Errors
/// Returns [`CodecError`] on truncation or invariant violation.
pub fn decode_signature_set(dec: &mut Dec<'_>) -> Result<SignatureSet, CodecError> {
    let n = dec.seq_len(12, "signature_set.len")?;
    let mut subjects = Vec::with_capacity(n);
    let mut signatures = Vec::with_capacity(n);
    for _ in 0..n {
        subjects.push(node(dec.u32("signature.subject")?));
        let k = dec.seq_len(12, "signature.entries")?;
        let mut entries = Vec::with_capacity(k);
        for _ in 0..k {
            let u = node(dec.u32("entry.node")?);
            let w = dec.f64("entry.weight")?;
            entries.push((u, w));
        }
        signatures.push(Signature::from_sorted_entries(entries)?);
    }
    Ok(SignatureSet::try_new(subjects, signatures)?)
}

/// Encodes a [`WindowerState`] (already canonically sorted by
/// construction).
pub fn encode_windower(enc: &mut Enc, state: &WindowerState) {
    let header = [
        state.width,
        state.slide,
        state.next_start,
        state.seq,
        state.invalid_events,
        state.late_events,
        state.gap_events,
    ];
    encode_windower_parts(
        enc,
        header,
        state.pending.iter().copied(),
        state.survivors.iter().copied(),
        &state.agg,
    );
}

/// Encodes a live windower to exactly the bytes [`encode_windower`]
/// writes for its [`export_state`](SlidingWindower::export_state),
/// reading its canonically ordered parts in place instead of copying
/// them.
pub fn encode_live_windower(enc: &mut Enc, windower: &SlidingWindower) {
    encode_windower_parts(
        enc,
        windower.header(),
        windower.pending(),
        windower.survivors(),
        windower.aggregates(),
    );
}

/// The windower byte format, shared by both windower encoders.
fn encode_windower_parts(
    enc: &mut Enc,
    header: [u64; 7],
    pending: impl ExactSizeIterator<Item = TimedEvent>,
    survivors: impl ExactSizeIterator<Item = TimedEvent>,
    agg: &[Aggregate],
) {
    for v in header {
        enc.u64(v);
    }
    encode_timed_events(enc, pending);
    encode_timed_events(enc, survivors);
    enc.len(agg.len());
    for &((src, dst), w) in agg {
        enc.u32(src.raw());
        enc.u32(dst.raw());
        enc.f64(w);
    }
}

fn encode_timed_events(enc: &mut Enc, events: impl ExactSizeIterator<Item = TimedEvent>) {
    enc.len(events.len());
    for (time, seq, src, dst, w) in events {
        enc.u64(time);
        enc.u64(seq);
        enc.u32(src.raw());
        enc.u32(dst.raw());
        enc.f64(w);
    }
}

fn decode_timed_events(dec: &mut Dec<'_>, what: &str) -> Result<Vec<TimedEvent>, CodecError> {
    let n = dec.seq_len(32, what)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let time = dec.u64("event.time")?;
        let seq = dec.u64("event.seq")?;
        let src = node(dec.u32("event.src")?);
        let dst = node(dec.u32("event.dst")?);
        let w = dec.f64("event.weight")?;
        events.push((time, seq, src, dst, w));
    }
    Ok(events)
}

/// Decodes a [`WindowerState`]. Structural validation (key ordering,
/// weight validity) happens in
/// [`SlidingWindower::from_state`](comsig_graph::SlidingWindower::from_state),
/// which callers should feed this into.
///
/// # Errors
/// Returns [`CodecError`] on truncation or implausible lengths.
pub fn decode_windower(dec: &mut Dec<'_>) -> Result<WindowerState, CodecError> {
    let width = dec.u64("windower.width")?;
    let slide = dec.u64("windower.slide")?;
    let next_start = dec.u64("windower.next_start")?;
    let seq = dec.u64("windower.seq")?;
    let invalid_events = dec.u64("windower.invalid_events")?;
    let late_events = dec.u64("windower.late_events")?;
    let gap_events = dec.u64("windower.gap_events")?;
    let pending = decode_timed_events(dec, "windower.pending")?;
    let survivors = decode_timed_events(dec, "windower.survivors")?;
    let n = dec.seq_len(16, "windower.agg")?;
    let mut agg = Vec::with_capacity(n);
    for _ in 0..n {
        let src = node(dec.u32("agg.src")?);
        let dst = node(dec.u32("agg.dst")?);
        let w = dec.f64("agg.weight")?;
        agg.push(((src, dst), w));
    }
    Ok(WindowerState {
        width,
        slide,
        next_start,
        seq,
        invalid_events,
        late_events,
        gap_events,
        pending,
        survivors,
        agg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_graph::{EdgeEvent, GraphBuilder, SlidingWindower};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn fnv_matches_oneshot_and_reference() {
        // Reference value of FNV-1a 64 over "comsig".
        let mut h = Fnv::new();
        h.write(b"com");
        h.write(b"sig");
        assert_eq!(h.finish(), fnv1a(b"comsig"));
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn codec_round_trips_primitives() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u32(0xdead_beef);
        enc.u64(u64::MAX - 1);
        enc.f64(-0.0);
        enc.str("héllo");
        enc.bytes(&[1, 2, 3]);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8("a").unwrap(), 7);
        assert_eq!(dec.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(dec.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(dec.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.str("e").unwrap(), "héllo");
        assert_eq!(dec.bytes("f").unwrap(), vec![1, 2, 3]);
        assert!(dec.finish("done").is_ok());
        assert!(dec.u8("past end").is_err());
    }

    #[test]
    fn decoder_rejects_implausible_lengths() {
        let mut enc = Enc::new();
        enc.u64(u64::MAX); // claimed length
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(dec.seq_len(8, "seq").is_err());
        let mut dec = Dec::new(&bytes);
        assert!(dec.str("s").is_err());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("comsig-persist-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn atomic_container_round_trips_and_detects_rot() {
        let path = temp_path("atomic.bin");
        let body = b"binary\x00body\xff".to_vec();
        write_atomic(&path, "comsig-test v1", &body).unwrap();
        match read_atomic(&path, "comsig-test v1") {
            LoadOutcome::Hit(got) => assert_eq!(got, body),
            other => panic!("expected Hit, got {other:?}"),
        }
        assert!(matches!(
            read_atomic(&path, "other-magic"),
            LoadOutcome::Corrupt(_)
        ));
        // Flip one body byte: digest must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match read_atomic(&path, "comsig-test v1") {
            LoadOutcome::Corrupt(reason) => assert!(reason.contains("digest mismatch")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            read_atomic(&path, "comsig-test v1"),
            LoadOutcome::Miss
        ));
    }

    #[test]
    fn wal_round_trips_and_truncates_torn_tail() {
        let path = temp_path("wal.log");
        let payloads: Vec<Vec<u8>> = vec![b"first".to_vec(), vec![0u8; 100], b"third".to_vec()];
        let mut w = WalWriter::create(&path).unwrap();
        for p in &payloads {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        let full_len = w.byte_len();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.valid_bytes, full_len);
        assert_eq!(scan.tail, WalTail::Clean);
        // Tear the last record mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
        // Resume truncates the tear and appends cleanly.
        let mut w = WalWriter::resume(&path, scan.valid_bytes).unwrap();
        w.append(b"fourth").unwrap();
        w.sync().unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2], b"fourth");
        assert_eq!(scan.tail, WalTail::Clean);
        fs::remove_file(&path).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, WalTail::Clean);
    }

    #[test]
    fn wal_bitflip_stops_at_last_good_record() {
        let path = temp_path("wal-flip.log");
        let mut w = WalWriter::create(&path).unwrap();
        for i in 0..4u8 {
            w.append(&[i; 16]).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Flip a bit inside record 2's payload (frame 12 + 16 bytes each).
        let mut bytes = fs::read(&path).unwrap();
        let first = WAL_HEADER.len();
        let off = first + 2 * 28 + 12 + 5;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        // Records 0 and 1 survive; record 3 is *not* recovered even
        // though its own framing is intact.
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_bytes, (first + 2 * 28) as u64);
        match scan.tail {
            WalTail::Torn { ref reason, .. } => assert!(reason.contains("digest mismatch")),
            WalTail::Clean => panic!("expected torn tail"),
        }
    }

    /// A log torn while its header was written scans as empty and
    /// resumes with a fresh header; a log with any other start is a
    /// typed error naming the header, and is left untouched.
    #[test]
    fn wal_header_tears_resume_and_mismatches_reject() {
        let path = temp_path("wal-header.log");
        for cut in [0, 1, WAL_HEADER.len() - 1] {
            fs::write(&path, &WAL_HEADER.as_bytes()[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(scan.records.is_empty());
            assert_eq!(scan.valid_bytes, 0);
            assert_eq!(scan.tail == WalTail::Clean, cut == 0);
            let mut w = WalWriter::resume(&path, scan.valid_bytes).unwrap();
            w.append(b"after").unwrap();
            w.sync().unwrap();
            drop(w);
            let scan = scan_wal(&path).unwrap();
            assert_eq!(scan.records, vec![b"after".to_vec()]);
            assert_eq!(scan.tail, WalTail::Clean);
        }
        // A header-less log of the previous format, and a wrong version.
        let mut frame = 5u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&fnv1a(b"first").to_le_bytes());
        frame.extend_from_slice(b"first");
        for bytes in [frame, b"comsig-wal v0\n".to_vec()] {
            fs::write(&path, &bytes).unwrap();
            let err = scan_wal(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(WAL_HEADER.trim_end()), "{err}");
            assert_eq!(fs::read(&path).unwrap(), bytes);
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delta_codec_round_trips_bit_exactly() {
        let mut windower = SlidingWindower::new(0, 10, 5);
        let stream = [
            (1u64, 0usize, 1usize, 0.1),
            (6, 0, 1, 0.2),
            (7, 1, 2, 1.5),
            (12, 0, 1, 0.7),
        ];
        for &(time, src, dst, weight) in &stream {
            windower.push(EdgeEvent {
                time,
                src: n(src),
                dst: n(dst),
                weight,
            });
        }
        for _ in 0..3 {
            let delta = windower.advance();
            let mut enc = Enc::new();
            encode_delta(&mut enc, &delta);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let back = decode_delta(&mut dec).unwrap();
            dec.finish("delta").unwrap();
            let mut enc2 = Enc::new();
            encode_delta(&mut enc2, &back);
            assert_eq!(enc2.into_bytes(), bytes, "re-encode must be byte-equal");
        }
    }

    #[test]
    fn delta_decode_rejects_unsorted_changes() {
        let mut enc = Enc::new();
        enc.u64(0);
        enc.u64(10);
        enc.len(2);
        for _ in 0..2 {
            enc.u32(3);
            enc.u32(4);
            enc.u8(0);
            enc.u8(1);
            enc.f64(1.0);
        }
        let bytes = enc.into_bytes();
        assert!(decode_delta(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn signature_set_codec_round_trips() {
        let set = SignatureSet::new(
            vec![n(0), n(2)],
            vec![
                Signature::top_k(n(0), vec![(n(1), 1.0), (n(3), 0.5)], 2),
                Signature::empty(),
            ],
        );
        let mut enc = Enc::new();
        encode_signature_set(&mut enc, &set);
        let bytes = enc.into_bytes();
        let back = decode_signature_set(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.subjects(), set.subjects());
        let mut enc2 = Enc::new();
        encode_signature_set(&mut enc2, &back);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn windower_codec_round_trips_through_restore() {
        let mut w = SlidingWindower::new(0, 10, 5);
        for (time, src, dst, weight) in [(1u64, 0, 1, 0.5), (6, 1, 2, 0.25), (12, 0, 1, 2.0)] {
            w.push(EdgeEvent {
                time,
                src: n(src),
                dst: n(dst),
                weight,
            });
        }
        let _ = w.advance();
        let state = w.export_state();
        let mut enc = Enc::new();
        encode_windower(&mut enc, &state);
        let bytes = enc.into_bytes();
        let back = decode_windower(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back, state);
        let restored = SlidingWindower::from_state(back).unwrap();
        assert_eq!(restored.export_state(), state);
    }

    /// A windower mid-stream: overlapping windows, one event surviving
    /// into the next window, an aggregate over several events, one event
    /// still pending and one counted late.
    fn mid_stream_windower() -> SlidingWindower {
        let mut w = SlidingWindower::new(0, 10, 5);
        for (time, src, dst, weight) in [
            (1u64, 0, 1, 0.5),
            (6, 1, 2, 0.25),
            (7, 0, 1, 0.1),
            (3, 0, 1, 0.2),
            (12, 0, 1, 2.0),
            (31, 2, 0, 1.5),
        ] {
            w.push(EdgeEvent {
                time,
                src: n(src),
                dst: n(dst),
                weight,
            });
        }
        let _ = w.advance();
        let _ = w.advance();
        assert_eq!(w.survivors().len(), 1, "fixture shape");
        // Too late for any future window: counted, not buffered.
        assert!(!w.push(EdgeEvent {
            time: 2,
            src: n(0),
            dst: n(1),
            weight: 1.0,
        }));
        w
    }

    /// The borrowed live encoding writes exactly the bytes of the
    /// exported image's encoding.
    #[test]
    fn live_windower_encodes_like_its_export() {
        let mut w = mid_stream_windower();
        for _ in 0..4 {
            let mut live = Enc::new();
            encode_live_windower(&mut live, &w);
            let mut exported = Enc::new();
            encode_windower(&mut exported, &w.export_state());
            assert_eq!(live.into_bytes(), exported.into_bytes());
            let _ = w.advance();
        }
    }

    /// Encodes through `encode` twice, buffered and hashing: the hashing
    /// encoder must count the same bytes and digest exactly them.
    fn assert_hashing_matches_buffered(encode: impl Fn(&mut Enc)) {
        let mut buffered = Enc::new();
        encode(&mut buffered);
        let mut hashing = Enc::hashing();
        encode(&mut hashing);
        assert_eq!(hashing.byte_len(), buffered.byte_len());
        let bytes = buffered.into_bytes();
        assert!(!bytes.is_empty());
        assert_eq!(hashing.into_digest().finish(), fnv1a(&bytes));
    }

    #[test]
    fn hashing_encoder_digests_the_buffered_bytes() {
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 0.1);
        b.add_event(n(0), n(1), 0.2);
        b.add_event(n(2), n(0), 1.5);
        let g = b.build(3);
        assert_hashing_matches_buffered(|enc| encode_graph(enc, &g));

        let set = SignatureSet::new(
            vec![n(0), n(2)],
            vec![
                Signature::top_k(n(0), vec![(n(1), 1.0), (n(3), 0.5)], 2),
                Signature::empty(),
            ],
        );
        assert_hashing_matches_buffered(|enc| encode_signature_set(enc, &set));

        let mut w = mid_stream_windower();
        assert_hashing_matches_buffered(|enc| encode_windower(enc, &w.export_state()));
        assert_hashing_matches_buffered(|enc| encode_live_windower(enc, &w));
        let delta = w.advance();
        assert!(!delta.is_empty());
        assert_hashing_matches_buffered(|enc| encode_delta(enc, &delta));

        // The primitives and their mix, and a hashing encoder keeps no
        // bytes.
        assert_hashing_matches_buffered(|enc| {
            enc.u8(7);
            enc.u32(0xdead_beef);
            enc.f64(-0.0);
            enc.str("héllo");
            enc.bytes(&[1, 2, 3]);
        });
        let mut hashing = Enc::hashing();
        hashing.u64(1);
        assert!(hashing.into_bytes().is_empty());
    }
}
