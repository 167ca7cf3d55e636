//! Service configuration and the durability-plane error taxonomy.

use std::fmt;
use std::io;

use comsig_core::persist::{CodecError, Dec, Enc};
use comsig_eval::ann::AnnConfig;
use comsig_graph::IngestPolicy;
use comsig_sketch::stream::StreamConfig;
use comsig_sketch::tier::SketchScheme;

/// Which signature tier the service runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSpec {
    /// The exact pipeline: materialised window graph + postings index.
    Exact,
    /// The bounded-memory sketch tier fronted by a banded-LSH matcher.
    Sketch,
}

impl TierSpec {
    /// Stable name (`"exact"` / `"sketch"`), matching the CLI `--tier`
    /// values and the config stamp.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TierSpec::Exact => "exact",
            TierSpec::Sketch => "sketch",
        }
    }

    /// The snapshot body's tier tag (`0` exact, `1` sketch).
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            TierSpec::Exact => 0,
            TierSpec::Sketch => 1,
        }
    }

    /// Parses a `--tier` value.
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        match spec {
            "exact" => Some(TierSpec::Exact),
            "sketch" => Some(TierSpec::Sketch),
            _ => None,
        }
    }
}

/// Configuration of one `comsig serve` instance.
///
/// The *semantic* fields — everything that shapes the durable state or
/// the query outputs — form the **config stamp** stored in every
/// snapshot ([`stamp`](Self::stamp)). Re-opening a data directory under
/// a different stamp is a [`ServeError::Config`] at recovery time, not
/// silent divergence. Operational knobs (`snapshot_every`, `threads`,
/// `ingest`) are deliberately outside the stamp: the WAL replays
/// decisions, not policies, and every shard plan is bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Scheme specification string (e.g. `tt`, `rwr:h=3,c=0.1`). The
    /// server treats it as an opaque identity stamp; the caller parses
    /// it into the actual scheme object.
    pub scheme_spec: String,
    /// Distance specification string (e.g. `shel`).
    pub dist_spec: String,
    /// Signature length.
    pub k: usize,
    /// Window width in time units.
    pub width: u64,
    /// Window slide in time units.
    pub slide: u64,
    /// Stream start time (first window is `[start, start + width)`).
    pub start: u64,
    /// Algorithm 1 threshold divisor `c`.
    pub threshold_divisor: f64,
    /// Algorithm 1 top-ℓ re-identification depth.
    pub top_l: usize,
    /// Snapshot automatically after this many advances (0 = only on
    /// demand via the `snapshot` op).
    pub snapshot_every: u64,
    /// Worker threads for the sharded advance (0 = auto).
    pub threads: usize,
    /// Fault handling for ingested event lines.
    pub ingest: IngestPolicy,
    /// Which signature tier drives the service. Part of the stamp: a
    /// data directory built on one tier never silently reopens on the
    /// other (the durable state shapes differ entirely).
    pub tier: TierSpec,
    /// Sketch sizing (semantic only under [`TierSpec::Sketch`], where it
    /// joins the stamp — resizing a sketch invalidates its state).
    pub sketch: StreamConfig,
    /// LSH banding for the sketch tier's approximate matcher (stamped
    /// under [`TierSpec::Sketch`]: band/row/seed changes move the recall
    /// contract, and the logged digests depend on nothing else deriving
    /// the index differently).
    pub ann: AnnConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scheme_spec: "tt".to_owned(),
            dist_spec: "shel".to_owned(),
            k: 10,
            width: 1,
            slide: 1,
            start: 0,
            threshold_divisor: 5.0,
            top_l: 3,
            snapshot_every: 0,
            threads: 0,
            ingest: IngestPolicy::Strict,
            tier: TierSpec::Exact,
            sketch: StreamConfig::default(),
            ann: AnnConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Whether the service runs on the sketch tier.
    #[must_use]
    pub fn is_sketch(&self) -> bool {
        self.tier == TierSpec::Sketch
    }

    /// The sketchable scheme of `scheme_spec`, required by the sketch
    /// tier.
    ///
    /// # Errors
    /// [`ServeError::Config`] when the tier is sketch but the scheme is
    /// not semi-streamable (RWR needs the materialised graph).
    pub fn sketch_scheme(&self) -> Result<SketchScheme, ServeError> {
        SketchScheme::parse(&self.scheme_spec).ok_or_else(|| {
            ServeError::Config(format!(
                "the sketch tier supports tt|ut schemes, not `{}`",
                self.scheme_spec
            ))
        })
    }

    /// Encodes the semantic fields into the snapshot's config stamp.
    pub fn stamp(&self, enc: &mut Enc) {
        enc.str(&self.scheme_spec);
        enc.str(&self.dist_spec);
        enc.len(self.k);
        enc.u64(self.width);
        enc.u64(self.slide);
        enc.u64(self.start);
        enc.f64(self.threshold_divisor);
        enc.len(self.top_l);
        enc.str(self.tier.name());
        if self.is_sketch() {
            // Sketch sizing and LSH banding shape the durable state and
            // the query outputs, so they join the stamp — but only on
            // the tier that reads them, keeping exact-tier stamps free
            // of inert knobs.
            enc.len(self.sketch.cm_width);
            enc.len(self.sketch.cm_depth);
            enc.len(self.sketch.candidate_budget);
            enc.len(self.sketch.fm_bitmaps);
            enc.u64(self.sketch.seed);
            enc.len(self.sketch.indeg_cells);
            enc.len(self.sketch.indeg_depth);
            enc.len(self.ann.bands);
            enc.len(self.ann.rows);
            enc.u64(self.ann.seed);
        }
    }

    /// Decodes a stamp and verifies it matches this configuration.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] on truncation, [`ServeError::Config`] on
    /// a well-formed stamp that differs from `self`.
    pub fn check_stamp(&self, dec: &mut Dec<'_>) -> Result<(), ServeError> {
        let scheme_spec = dec.str("stamp.scheme")?;
        let dist_spec = dec.str("stamp.dist")?;
        let k = dec.u64("stamp.k")? as usize;
        let width = dec.u64("stamp.width")?;
        let slide = dec.u64("stamp.slide")?;
        let start = dec.u64("stamp.start")?;
        let threshold_divisor = dec.f64("stamp.c")?;
        let top_l = dec.u64("stamp.l")? as usize;
        let mismatch = |what: &str, stored: &dyn fmt::Display, want: &dyn fmt::Display| {
            Err(ServeError::Config(format!(
                "data dir was built with {what} = {stored}, current config says {want}; \
                 refusing to mix"
            )))
        };
        if scheme_spec != self.scheme_spec {
            return mismatch("scheme", &scheme_spec, &self.scheme_spec);
        }
        if dist_spec != self.dist_spec {
            return mismatch("dist", &dist_spec, &self.dist_spec);
        }
        if k != self.k {
            return mismatch("k", &k, &self.k);
        }
        if width != self.width {
            return mismatch("window width", &width, &self.width);
        }
        if slide != self.slide {
            return mismatch("slide", &slide, &self.slide);
        }
        if start != self.start {
            return mismatch("start", &start, &self.start);
        }
        if threshold_divisor.to_bits() != self.threshold_divisor.to_bits() {
            return mismatch("c", &threshold_divisor, &self.threshold_divisor);
        }
        if top_l != self.top_l {
            return mismatch("l", &top_l, &self.top_l);
        }
        let tier = dec.str("stamp.tier")?;
        if tier != self.tier.name() {
            return mismatch("tier", &tier, &self.tier.name());
        }
        if self.is_sketch() {
            let stored = StreamConfig {
                cm_width: dec.u64("stamp.cm_width")? as usize,
                cm_depth: dec.u64("stamp.cm_depth")? as usize,
                candidate_budget: dec.u64("stamp.budget")? as usize,
                fm_bitmaps: dec.u64("stamp.fm")? as usize,
                seed: dec.u64("stamp.sketch_seed")?,
                indeg_cells: dec.u64("stamp.indeg_cells")? as usize,
                indeg_depth: dec.u64("stamp.indeg_depth")? as usize,
            };
            if stored != self.sketch {
                return mismatch(
                    "sketch sizing",
                    &format!("{stored:?}"),
                    &format!("{:?}", self.sketch),
                );
            }
            let ann = AnnConfig {
                bands: dec.u64("stamp.bands")? as usize,
                rows: dec.u64("stamp.rows")? as usize,
                seed: dec.u64("stamp.ann_seed")?,
            };
            if ann != self.ann {
                return mismatch(
                    "LSH banding",
                    &format!("{ann:?}"),
                    &format!("{:?}", self.ann),
                );
            }
        }
        Ok(())
    }
}

/// Everything that can go wrong in the service plane, by blame.
#[derive(Debug)]
pub enum ServeError {
    /// The environment failed (filesystem, socket).
    Io(String),
    /// Durable state on disk cannot be trusted (bad magic, digest
    /// mismatch, undecodable payload).
    Corrupt(String),
    /// Deterministic replay produced a different state than the log
    /// recorded — the data directory and this binary disagree.
    Diverged(String),
    /// The data directory was produced under an incompatible
    /// configuration.
    Config(String),
    /// The request itself is invalid (unknown op, unknown label, bad
    /// field, rejected ingest batch).
    Request(String),
    /// Mutations are refused: a WAL write failed and the service
    /// degraded to read-only.
    Degraded(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "io error: {m}"),
            ServeError::Corrupt(m) => write!(f, "corrupt state: {m}"),
            ServeError::Diverged(m) => write!(f, "replay diverged: {m}"),
            ServeError::Config(m) => write!(f, "config mismatch: {m}"),
            ServeError::Request(m) => write!(f, "bad request: {m}"),
            ServeError::Degraded(m) => write!(f, "degraded (read-only): {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips_and_rejects_drift() {
        let config = ServeConfig::default();
        let mut enc = Enc::new();
        config.stamp(&mut enc);
        let bytes = enc.into_bytes();
        assert!(config.check_stamp(&mut Dec::new(&bytes)).is_ok());

        let other = ServeConfig {
            k: 7,
            ..ServeConfig::default()
        };
        match other.check_stamp(&mut Dec::new(&bytes)) {
            Err(ServeError::Config(msg)) => assert!(msg.contains("k = 10"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
        // Operational knobs are not stamped.
        let op_only = ServeConfig {
            snapshot_every: 99,
            threads: 4,
            ingest: IngestPolicy::Repair,
            ..ServeConfig::default()
        };
        assert!(op_only.check_stamp(&mut Dec::new(&bytes)).is_ok());
        // Truncated stamp is corruption, not a mismatch.
        assert!(matches!(
            config.check_stamp(&mut Dec::new(&bytes[..4])),
            Err(ServeError::Corrupt(_))
        ));
    }
}
