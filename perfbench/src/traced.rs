//! The traced in-process run.
//!
//! The served workload is replayed in this process through each layer's
//! public functions, composed the way `comsig serve` composes them, with
//! a span recorded around every call: protocol decode → `graph::io`
//! parse → WAL append + fsync → windower push for an ingest; windower
//! advance → tier advance (the exact tier split into `apply_delta`,
//! `dirty_set` and the sharded recompute) → matcher patch → Algorithm 1
//! → anomaly scores → state digest → WAL for an advance; matcher rank
//! for a query; snapshot encode + write for a rotation; snapshot decode +
//! WAL replay for a recovery.
//!
//! Because the detector can only be split from outside by composing its
//! pieces, every window's composed outputs are asserted equal to the
//! production `LiveState` path (delta, dirty count, detected pairs,
//! anomaly scores, state digest) and to the served run's replies, byte
//! for byte. Spans stay in memory and are written out at the end.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufReader, Cursor, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use comsig_apps::anomaly::anomaly_scores_from_sets;
use comsig_apps::masquerade::{run_algorithm1_with, DetectorConfig};
use comsig_core::distance::BatchDistance;
use comsig_core::persist::{self, Enc, Fnv, LoadOutcome, WalWriter};
use comsig_core::pipeline::{DeltaScheme, DirtySet};
use comsig_core::{SignatureSet, SignatureTier};
use comsig_eval::ann::{AnnIndex, SubjectMatcher};
use comsig_eval::index::{MatchWorkspace, PostingsIndex};
use comsig_eval::ranking::Ranking;
use comsig_graph::io::read_events_with_policy;
use comsig_graph::{CommGraph, Interner, NodeId, ShardPlan, SlidingWindower, WindowDelta};
use comsig_serve::config::TierSpec;
use comsig_serve::snapshot::{
    decode_snapshot, encode_snapshot, snapshot_file, wal_file, SNAPSHOT_MAGIC,
};
use comsig_serve::state::{detector_config, plan_of};
use comsig_serve::wal::{deltas_bit_equal, encode_record, WalRecord};
use comsig_serve::{DurableState, ServeConfig};
use comsig_sketch::tier::SketchTier;
use serde_json::{json, Value};

use crate::gen::{Request, Shape, Stream, RANK_TOP};
use crate::replay::{remap, Genesis, Replay};
use crate::served::ServedRun;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer span name (`module.function`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The window every span of one window shares.
    pub window: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    window: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            window: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            window: self.window,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id].end = end;
    }

    /// Duration minus the time covered by direct children, per span.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"window":{}}}"#,
                s.name, s.start, s.end, s.window
            )
            .map_err(|e| format!("write spans: {e}"))?;
        }
        out.flush().map_err(|e| format!("write spans: {e}"))
    }
}

/// Per-name totals over the timed windows.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Counters the spans cannot carry.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    events: u64,
    quarantined: u64,
    wal_bytes: u64,
    changes: u64,
    dirty: u64,
    full_recomputes: u64,
    snapshot_bytes: u64,
    digest_bytes: u64,
}

impl Counts {
    /// What accrued since `earlier`; the snapshot size is the latest.
    fn since(self, earlier: Counts) -> Counts {
        Counts {
            events: self.events - earlier.events,
            quarantined: self.quarantined - earlier.quarantined,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            changes: self.changes - earlier.changes,
            dirty: self.dirty - earlier.dirty,
            full_recomputes: self.full_recomputes - earlier.full_recomputes,
            snapshot_bytes: self.snapshot_bytes,
            digest_bytes: self.digest_bytes - earlier.digest_bytes,
        }
    }
}

/// The tier and its matcher, composed from the layers' public pieces.
enum Tier<'a> {
    Exact {
        scheme: &'a dyn DeltaScheme,
        graph: CommGraph,
        set: SignatureSet,
        index: PostingsIndex<'static>,
    },
    Sketch {
        tier: SketchTier,
        ann: AnnIndex,
    },
}

impl Tier<'_> {
    fn signatures(&self) -> &SignatureSet {
        match self {
            Tier::Exact { set, .. } => set,
            Tier::Sketch { tier, .. } => tier.signatures(),
        }
    }
}

/// What one composed advance produced.
struct Step {
    delta: WindowDelta,
    dirty: Vec<NodeId>,
    detected: Vec<(NodeId, NodeId)>,
    non_suspects: usize,
    threshold: f64,
    scores: Vec<(NodeId, f64)>,
    digest: u64,
    reply: String,
}

/// The composed service state.
struct Composed<'a> {
    config: ServeConfig,
    dist: &'a dyn BatchDistance,
    cfg: DetectorConfig,
    plan: ShardPlan,
    interner: Interner,
    windower: SlidingWindower,
    tier: Tier<'a>,
    prev: SignatureSet,
    windows: u64,
    ingested: u64,
    dir: PathBuf,
    wal: WalWriter,
    wal_epoch: u64,
    since_snapshot: u64,
    counts: Counts,
}

impl<'a> Composed<'a> {
    fn genesis(
        scheme: &'a dyn DeltaScheme,
        dist: &'a dyn BatchDistance,
        config: &ServeConfig,
        genesis: &Genesis,
        dir: &Path,
    ) -> Result<Self, String> {
        let n = genesis.interner.len();
        let cfg = detector_config(config);
        let plan = plan_of(config);
        let (tier, prev) = match config.tier {
            TierSpec::Exact => {
                let graph = CommGraph::empty(n);
                let set = scheme.signature_set_with(&graph, &genesis.subjects, cfg.k, &plan);
                let index = PostingsIndex::build_owned(set.clone());
                let prev = set.clone();
                (
                    Tier::Exact {
                        scheme,
                        graph,
                        set,
                        index,
                    },
                    prev,
                )
            }
            TierSpec::Sketch => {
                let scheme = config.sketch_scheme().map_err(|e| e.to_string())?;
                let tier = SketchTier::new(scheme, config.sketch, &genesis.subjects, cfg.k, n);
                let prev = tier.signatures().clone();
                let ann = AnnIndex::build(tier.signatures(), config.ann);
                (Tier::Sketch { tier, ann }, prev)
            }
        };
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let wal = WalWriter::create(&wal_file(dir, 0)).map_err(|e| format!("WAL: {e}"))?;
        Ok(Composed {
            config: config.clone(),
            dist,
            cfg,
            plan,
            interner: genesis.interner.clone(),
            windower: SlidingWindower::new(config.start, config.width, config.slide),
            tier,
            prev,
            windows: 0,
            ingested: 0,
            dir: dir.to_path_buf(),
            wal,
            wal_epoch: 0,
            since_snapshot: 0,
            counts: Counts::default(),
        })
    }

    fn label(&self, v: NodeId) -> &str {
        self.interner.label(v).unwrap_or("?")
    }

    fn log_record(&mut self, tr: &mut Tracer, record: &WalRecord) -> Result<(), String> {
        let s = tr.enter("core.persist.wal_append");
        let payload = encode_record(record);
        let before = self.wal.byte_len();
        self.wal
            .append(&payload)
            .map_err(|e| format!("WAL append: {e}"))?;
        self.counts.wal_bytes += self.wal.byte_len() - before;
        tr.exit(s);
        let s = tr.enter("core.persist.wal_fsync");
        self.wal.sync().map_err(|e| format!("WAL fsync: {e}"))?;
        tr.exit(s);
        Ok(())
    }

    /// One `ingest` request; returns the accepted events and the reply.
    fn ingest(
        &mut self,
        tr: &mut Tracer,
        line: &str,
    ) -> Result<(Vec<comsig_graph::EdgeEvent>, String), String> {
        let root = tr.enter("serve.protocol.ingest");
        let request: Value = serde_json::from_str(line).map_err(|e| format!("request: {e}"))?;
        let text = request
            .get("lines")
            .and_then(Value::as_str)
            .ok_or("ingest without lines")?;
        let s = tr.enter("graph.io.parse");
        let mut scratch = Interner::new();
        let (events, report) = read_events_with_policy(
            BufReader::new(Cursor::new(text.as_bytes())),
            &mut scratch,
            self.config.ingest,
        )
        .map_err(|e| format!("ingest rejected: {e}"))?;
        tr.exit(s);
        let accepted = remap(&events, &scratch, &self.interner)?;
        self.log_record(tr, &WalRecord::Events(accepted.clone()))?;
        let s = tr.enter("graph.window.push");
        for &e in &accepted {
            let _ = self.windower.push(e);
        }
        self.ingested += accepted.len() as u64;
        tr.exit(s);
        let reply = json!({
            "ok": true,
            "accepted": accepted.len() as u64,
            "unknown_label": 0u64,
            "quarantined": report.quarantined.len() as u64,
            "repaired": report.repaired.len() as u64,
            "pending": self.windower.pending_events() as u64,
        })
        .to_string();
        tr.exit(root);
        self.counts.events += accepted.len() as u64;
        self.counts.quarantined += report.quarantined.len() as u64;
        Ok((accepted, reply))
    }

    /// One `advance` request, composed layer by layer.
    fn advance(&mut self, tr: &mut Tracer) -> Result<Step, String> {
        let root = tr.enter("serve.protocol.advance");
        let s = tr.enter("graph.window.advance");
        let delta = self.windower.advance();
        tr.exit(s);
        let (dist, cfg, plan) = (self.dist, self.cfg, self.plan);
        let (dirty, matcher): (Vec<NodeId>, &mut dyn SubjectMatcher) = match &mut self.tier {
            Tier::Exact {
                scheme,
                graph,
                set,
                index,
            } => {
                let p = tr.enter("core.pipeline.advance");
                let s = tr.enter("core.pipeline.apply_delta");
                let new_graph = graph.apply_delta(&delta);
                tr.exit(s);
                let s = tr.enter("core.pipeline.dirty_set");
                let dirty_set = scheme.dirty_set(graph, &new_graph, &delta);
                let dirty: Vec<NodeId> = match &dirty_set {
                    DirtySet::All => set.subjects().to_vec(),
                    DirtySet::Nodes(nodes) => set
                        .subjects()
                        .iter()
                        .copied()
                        .filter(|v| nodes.contains(v))
                        .collect(),
                };
                tr.exit(s);
                let s = tr.enter("core.pipeline.recompute");
                scheme.prepare(&new_graph);
                let ranges = plan.ranges(dirty.len());
                let (k, g, d) = (cfg.k, &new_graph, &dirty);
                let scheme: &dyn DeltaScheme = *scheme;
                let shards =
                    rayon::scope_chunks(&ranges, |_, r| scheme.signature_chunk(g, &d[r], k));
                for (range, sigs) in ranges.iter().zip(shards) {
                    for (&v, sig) in dirty[range.clone()].iter().zip(sigs) {
                        let _ = set.replace(v, sig);
                    }
                }
                tr.exit(s);
                *graph = new_graph;
                tr.exit(p);
                if matches!(dirty_set, DirtySet::All) {
                    self.counts.full_recomputes += 1;
                }
                let s = tr.enter("eval.index.patch");
                let patch = dirty
                    .iter()
                    .filter_map(|&v| set.get(v).map(|sig| (v, sig.clone())))
                    .collect();
                index.patch(patch, &plan);
                tr.exit(s);
                (dirty, index)
            }
            Tier::Sketch { tier, ann } => {
                let s = tr.enter("sketch.tier.advance");
                let report = tier.advance_window(&delta);
                tr.exit(s);
                let s = tr.enter("eval.ann.patch");
                let new_sigs = tier.signatures();
                let patch = report
                    .dirty
                    .iter()
                    .filter_map(|&v| new_sigs.get(v).map(|sig| (v, sig.clone())))
                    .collect();
                ann.patch(patch, &plan);
                tr.exit(s);
                (report.dirty, ann)
            }
        };
        let s = tr.enter("apps.masquerade.algorithm1");
        let detection = run_algorithm1_with(dist, &self.prev, &*matcher, &cfg, &plan);
        tr.exit(s);
        let new_sigs = self.tier.signatures();
        let s = tr.enter("apps.anomaly.scores");
        let scores = anomaly_scores_from_sets(dist, &self.prev, new_sigs);
        tr.exit(s);
        for &v in &dirty {
            if let Some(sig) = new_sigs.get(v) {
                let _ = self.prev.replace(v, sig.clone());
            }
        }
        self.windows += 1;
        let s = tr.enter("serve.state.digest");
        let digest = self.state_digest();
        tr.exit(s);
        self.log_record(
            tr,
            &WalRecord::Advance {
                delta: delta.clone(),
                digest,
            },
        )?;
        self.since_snapshot += 1;
        let snapshotted =
            self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every;
        let detected: Vec<Value> = detection
            .detected
            .iter()
            .map(|&(v, u)| json!([self.label(v), self.label(u)]))
            .collect();
        let reply = json!({
            "ok": true,
            "window": json!([delta.start, delta.end]),
            "changed_edges": delta.len() as u64,
            "dirty": dirty.len() as u64,
            "non_suspects": detection.non_suspects.len() as u64,
            "delta": detection.delta,
            "detected": Value::Array(detected),
            "digest": format!("{digest:016x}"),
            "snapshotted": snapshotted,
        })
        .to_string();
        tr.exit(root);
        self.counts.changes += delta.len() as u64;
        self.counts.dirty += dirty.len() as u64;
        Ok(Step {
            delta,
            dirty,
            non_suspects: detection.non_suspects.len(),
            threshold: detection.delta,
            detected: detection.detected,
            scores: scores.iter().map(|s| (s.node, s.score)).collect(),
            digest,
            reply,
        })
    }

    /// The digest `LiveState::state_digest` computes, over the composed
    /// parts.
    fn state_digest(&mut self) -> u64 {
        let mut enc = Enc::new();
        let mut h = Fnv::new();
        let layout = match &self.tier {
            Tier::Exact {
                graph, set, index, ..
            } => {
                persist::encode_graph(&mut enc, graph);
                persist::encode_signature_set(&mut enc, set);
                Some(index.layout_digest())
            }
            Tier::Sketch { tier, .. } => {
                tier.encode_state(&mut enc);
                None
            }
        };
        persist::encode_signature_set(&mut enc, &self.prev);
        persist::encode_windower(&mut enc, &self.windower.export_state());
        self.counts.digest_bytes += enc.byte_len() as u64;
        h.write(&enc.into_bytes());
        if let Some(layout) = layout {
            h.write_u64(layout);
        }
        h.write_u64(self.windows);
        h.write_u64(self.ingested);
        h.finish()
    }

    /// One read request.
    fn query(&mut self, tr: &mut Tracer, line: &str) -> Result<String, String> {
        let root = tr.enter("serve.protocol.query");
        let request: Value = serde_json::from_str(line).map_err(|e| format!("request: {e}"))?;
        let op = request.get("op").and_then(Value::as_str).unwrap_or("");
        let label = request
            .get("node")
            .and_then(Value::as_str)
            .ok_or("query without node")?;
        let sig = self
            .interner
            .get(label)
            .and_then(|v| self.tier.signatures().get(v))
            .ok_or_else(|| format!("`{label}` is not a subject"))?;
        let reply = if op == "rank" {
            let top = request
                .get("top")
                .and_then(Value::as_u64)
                .map_or(RANK_TOP, |t| t as usize);
            let ranking = match &self.tier {
                Tier::Exact { index, .. } => {
                    let s = tr.enter("eval.index.rank");
                    let r = index.rank_top_l_with(self.dist, sig, top, &mut MatchWorkspace::new());
                    tr.exit(s);
                    r
                }
                Tier::Sketch { ann, .. } => {
                    let s = tr.enter("eval.ann.rank");
                    let mut entries = Vec::new();
                    ann.rank_top_l_into(
                        self.dist,
                        sig,
                        top,
                        &mut MatchWorkspace::new(),
                        &mut entries,
                    );
                    tr.exit(s);
                    Ranking::from_sorted(entries)
                }
            };
            let entries: Vec<Value> = ranking
                .entries()
                .iter()
                .map(|&(u, d)| json!([self.label(u), d]))
                .collect();
            json!({"ok": true, "node": label, "ranking": entries})
        } else {
            let entries: Vec<Value> = sig.iter().map(|(u, w)| json!([self.label(u), w])).collect();
            json!({"ok": true, "node": label, "entries": entries})
        };
        let reply = reply.to_string();
        tr.exit(root);
        Ok(reply)
    }

    /// Snapshot + WAL rotation, as `DurableState::snapshot_now` does,
    /// encoding the production state (digest-equal to the composed one).
    fn rotate(&mut self, tr: &mut Tracer, production: &Replay<'_>) -> Result<(), String> {
        let root = tr.enter("serve.durable.rotate");
        let new_epoch = self.wal_epoch + 1;
        let s = tr.enter("serve.snapshot.encode");
        let body = encode_snapshot(&self.config, &production.live, new_epoch);
        tr.exit(s);
        self.counts.snapshot_bytes = body.len() as u64;
        let s = tr.enter("serve.snapshot.write");
        persist::write_atomic(&snapshot_file(&self.dir), SNAPSHOT_MAGIC, &body)
            .map_err(|e| format!("snapshot write: {e}"))?;
        tr.exit(s);
        self.wal = WalWriter::create(&wal_file(&self.dir, new_epoch))
            .map_err(|e| format!("WAL rotate: {e}"))?;
        let _ = fs::remove_file(wal_file(&self.dir, self.wal_epoch));
        self.wal_epoch = new_epoch;
        self.since_snapshot = 0;
        tr.exit(root);
        Ok(())
    }
}

/// The traced run's results.
pub struct TracedRun {
    /// Per-layer metrics, name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Human-readable coverage and split lines.
    pub report: Vec<String>,
}

fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Replays the served run's windows in process with tracing, asserting
/// every composed output against the production path and every reply
/// against the served one.
///
/// # Errors
/// Names the first disagreement.
pub fn run(
    scheme: &dyn DeltaScheme,
    dist: &dyn BatchDistance,
    shape: &Shape,
    seed: u64,
    served: &ServedRun,
    work: &Path,
    spans_out: &Path,
) -> Result<TracedRun, String> {
    let config = shape.config();
    let mut stream = Stream::new(shape, seed);
    let genesis = Genesis::parse(&stream.seed_file())?;
    let dir = work.join("traced");
    let _ = fs::remove_dir_all(&dir);
    let mut composed = Composed::genesis(scheme, dist, &config, &genesis, &dir)?;
    let mut production = Replay::new(scheme, dist, &config, &genesis)?;
    let mut tr = Tracer::new();
    let mut timed = Vec::new();
    let (mut counts_start, mut counts_end) = (Counts::default(), Counts::default());

    for (w, log) in served.windows.iter().enumerate() {
        let window = stream.next_window();
        let requests = &window.requests;
        let lines: Vec<String> = requests.iter().map(Request::to_line).collect();
        tr.window = w as u64;
        if log.timed && timed.is_empty() {
            counts_start = composed.counts;
        }
        let mut batches = Vec::new();
        let mut replies = Vec::with_capacity(lines.len());
        let mut step = None;
        let root = tr.enter("window");
        for (request, line) in requests.iter().zip(&lines) {
            let reply = match request {
                Request::Ingest { .. } => {
                    let (accepted, reply) = composed.ingest(&mut tr, line)?;
                    batches.push(accepted);
                    reply
                }
                Request::Advance => {
                    let s = composed.advance(&mut tr)?;
                    let reply = s.reply.clone();
                    step = Some(s);
                    reply
                }
                Request::Rank(_) | Request::Signature(_) => composed.query(&mut tr, line)?,
            };
            replies.push(reply);
        }
        tr.exit(root);
        if log.timed {
            timed.push(w as u64);
            counts_end = composed.counts;
        }

        // Production path, untraced: the same events, one advance.
        for batch in &batches {
            production.push(batch);
        }
        let (pdelta, pdigest) = production.advance();
        let last = production.last()?.clone();
        let step = step.ok_or("window without an advance")?;
        let at = |what: &str| format!("traced window {w}: composed {what} differs from LiveState");
        check(deltas_bit_equal(&step.delta, &pdelta), || at("delta"))?;
        check(step.dirty.len() as u64 == last.dirty, || at("dirty count"))?;
        check(step.delta.len() as u64 == last.changed_edges, || {
            at("changed edges")
        })?;
        check(step.detected == last.detected, || at("detected pairs"))?;
        check(step.non_suspects as u64 == last.non_suspects, || {
            at("non-suspects")
        })?;
        check(step.threshold.to_bits() == last.delta.to_bits(), || {
            at("threshold")
        })?;
        let scores_equal = step.scores.len() == last.scores.len()
            && step
                .scores
                .iter()
                .zip(&last.scores)
                .all(|(a, b)| a.0 == b.node && a.1.to_bits() == b.score.to_bits());
        check(scores_equal, || at("anomaly scores"))?;
        check(step.digest == pdigest, || at("state digest"))?;
        check(replies.len() == log.replies.len(), || {
            format!("traced window {w}: reply count differs from the served run")
        })?;
        for (i, (mine, theirs)) in replies.iter().zip(&log.replies).enumerate() {
            let theirs = theirs.to_string();
            check(*mine == theirs, || {
                format!(
                    "traced window {w} request {i}: reply `{mine}` differs from served `{theirs}`"
                )
            })?;
        }
        if composed.since_snapshot >= config.snapshot_every && config.snapshot_every > 0 {
            composed.rotate(&mut tr, &production)?;
        }
        if !log.timed && served.windows.get(w + 1).is_some_and(|next| next.timed) {
            // The served run snapshots explicitly before timing starts.
            composed.rotate(&mut tr, &production)?;
        }
        if let Some(killed_at) = &log.killed_at {
            check(format!("{pdigest:016x}") == *killed_at, || {
                format!("traced window {w}: digest differs from the served pre-kill digest")
            })?;
            // The served process was killed and recovered here; a new
            // process counts advances towards its snapshot from zero.
            composed.since_snapshot = 0;
        }
    }

    // Recovery over the WAL + snapshot the composed run wrote.
    tr.window = served.windows.len() as u64;
    let root = tr.enter("serve.durable.recover");
    let s = tr.enter("serve.durable.decode");
    let body = match persist::read_atomic(&snapshot_file(&dir), SNAPSHOT_MAGIC) {
        LoadOutcome::Hit(body) => body,
        _ => return Err("traced run left no readable snapshot".to_owned()),
    };
    let decoded = decode_snapshot(scheme, &config, &body).map_err(|e| format!("decode: {e}"))?;
    drop(decoded);
    tr.exit(s);
    tr.exit(root);
    let t0 = Instant::now();
    let (reopened, recovery) = DurableState::open(
        scheme,
        dist,
        config.clone(),
        &dir,
        genesis.interner.clone(),
        genesis.subjects.clone(),
    )
    .map_err(|e| format!("recovery of the traced data dir: {e}"))?;
    let open_ns = t0.elapsed().as_nanos() as u64;
    drop(reopened);
    check(recovery.digest == production.live.state_digest(), || {
        "recovery of the traced data dir lands on another digest".to_owned()
    })?;
    check(recovery.replayed_windows > 0, || {
        "recovery replayed no window".to_owned()
    })?;
    tr.write_jsonl(spans_out)?;
    let _ = fs::remove_dir_all(&dir);

    check(!timed.is_empty(), || "no timed window".to_owned())?;
    let counts = Counts {
        snapshot_bytes: composed.counts.snapshot_bytes,
        ..counts_end.since(counts_start)
    };
    Ok(summarise(
        &tr,
        &timed,
        &counts,
        &composed,
        shape,
        served,
        genesis.subjects.len(),
        open_ns,
        recovery.replayed_windows,
    ))
}

/// Turns spans and counters into the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn summarise(
    tr: &Tracer,
    timed: &[u64],
    counts: &Counts,
    composed: &Composed<'_>,
    shape: &Shape,
    served: &ServedRun,
    subjects: usize,
    open_ns: u64,
    replayed_windows: u64,
) -> TracedRun {
    let own = tr.self_times();
    let (lo, hi) = (timed[0], timed[timed.len() - 1]);
    let mut agg: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut whole: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        let a = whole.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.end - s.start;
        a.self_ns += own[i];
        if (lo..=hi).contains(&s.window) {
            let a = agg.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end - s.start;
            a.self_ns += own[i];
        }
    }
    let get = |name: &str| agg.get(name).copied().unwrap_or_default();
    let windows = timed.len() as f64;
    let per_window_ms = |name: &str| get(name).total_ns as f64 / windows / 1e6;
    let mean = |a: Agg, ns: u64, scale: f64| {
        if a.count == 0 {
            0.0
        } else {
            ns as f64 / a.count as f64 / scale
        }
    };
    let events = counts.events.max(1) as f64;
    let wal_ops = get("core.persist.wal_append");
    let fsyncs = get("core.persist.wal_fsync");
    let exact = shape.tier == TierSpec::Exact;
    let (sketch_dropped, sketch_mib, ann_entries) = match &composed.tier {
        Tier::Sketch { tier, ann } => (
            tier.dropped_changes() as f64,
            tier.memory().state_bytes as f64 / (1024.0 * 1024.0),
            ann.memory_entries() as f64,
        ),
        Tier::Exact { .. } => (0.0, 0.0, 0.0),
    };
    let dirty_fraction = counts.dirty as f64 / (windows * subjects as f64);
    let snapshots = whole
        .get("serve.snapshot.encode")
        .copied()
        .unwrap_or_default();
    let writes = whole
        .get("serve.snapshot.write")
        .copied()
        .unwrap_or_default();
    let decode = whole
        .get("serve.durable.decode")
        .copied()
        .unwrap_or_default();
    let advance_ms = per_window_ms("serve.protocol.advance");
    let rotate_ms = per_window_ms("serve.durable.rotate");
    let inprocess_ms = per_window_ms("window") + rotate_ms;
    let untraced_ms = get("window").self_ns as f64 / windows / 1e6;
    // Served and in-process phases run at different times on a shared
    // host, so the transport gap compares each side's least-disturbed
    // block (the windows one server process served) per window.
    let mut inprocess_blocks = Vec::new();
    let mut first = lo;
    for (w, log) in served.windows.iter().enumerate() {
        let w = w as u64;
        if w >= lo && log.killed_at.is_some() {
            let ns: u64 = tr
                .spans
                .iter()
                .filter(|s| s.parent.is_none() && (first..=w).contains(&s.window))
                .filter(|s| s.name == "window" || s.name == "serve.durable.rotate")
                .map(|s| s.end - s.start)
                .sum();
            inprocess_blocks.push(ns as f64 / (w - first + 1) as f64 / 1e6);
            first = w + 1;
        }
    }
    let best_inprocess_ms = inprocess_blocks
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let served_ms = served
        .blocks
        .iter()
        .map(|b| b.wall_s * 1e3 / b.windows as f64)
        .fold(f64::INFINITY, f64::min);
    let tier_ms = if exact {
        per_window_ms("core.pipeline.advance")
    } else {
        per_window_ms("sketch.tier.advance")
    };
    let serial_ms = per_window_ms("core.pipeline.apply_delta")
        + per_window_ms("core.pipeline.dirty_set")
        + per_window_ms("eval.index.patch");
    let sharded_ms = per_window_ms("core.pipeline.recompute");

    let mut m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let rank = |name: &str| mean(get(name), get(name).total_ns, 1e3);
    m.insert(
        "serve.protocol.ingest_us",
        (
            mean(
                get("serve.protocol.ingest"),
                get("serve.protocol.ingest").self_ns,
                1e3,
            ),
            "us",
        ),
    );
    m.insert(
        "serve.protocol.query_us",
        (
            mean(
                get("serve.protocol.query"),
                get("serve.protocol.query").self_ns,
                1e3,
            ),
            "us",
        ),
    );
    m.insert(
        "graph.io.parse_ns_per_event",
        (get("graph.io.parse").total_ns as f64 / events, "ns"),
    );
    m.insert("graph.io.quarantined", (counts.quarantined as f64, "count"));
    m.insert(
        "core.persist.wal_append_us",
        (mean(wal_ops, wal_ops.total_ns, 1e3), "us"),
    );
    m.insert(
        "core.persist.wal_fsync_us",
        (mean(fsyncs, fsyncs.total_ns, 1e3), "us"),
    );
    m.insert(
        "core.persist.wal_bytes_per_event",
        (counts.wal_bytes as f64 / events, "B"),
    );
    m.insert(
        "graph.window.push_ns_per_event",
        (get("graph.window.push").total_ns as f64 / events, "ns"),
    );
    m.insert(
        "graph.window.advance_ms",
        (per_window_ms("graph.window.advance"), "ms"),
    );
    m.insert(
        "graph.window.changes",
        (counts.changes as f64 / windows, "count"),
    );
    m.insert(
        "graph.window.late_invalid",
        (
            (composed.windower.late_events() + composed.windower.invalid_events()) as f64,
            "count",
        ),
    );
    m.insert(
        "core.pipeline.advance_ms",
        (per_window_ms("core.pipeline.advance"), "ms"),
    );
    m.insert(
        "core.pipeline.apply_delta_ms",
        (per_window_ms("core.pipeline.apply_delta"), "ms"),
    );
    m.insert(
        "core.pipeline.dirty_set_ms",
        (per_window_ms("core.pipeline.dirty_set"), "ms"),
    );
    m.insert("core.pipeline.recompute_ms", (sharded_ms, "ms"));
    m.insert(
        "core.pipeline.dirty_fraction",
        (if exact { dirty_fraction } else { 0.0 }, "fraction"),
    );
    m.insert(
        "core.pipeline.full_recomputes",
        (counts.full_recomputes as f64, "count"),
    );
    m.insert(
        "core.pipeline.serial_ms",
        (if exact { serial_ms } else { 0.0 }, "ms"),
    );
    m.insert(
        "sketch.tier.advance_ms",
        (per_window_ms("sketch.tier.advance"), "ms"),
    );
    m.insert(
        "sketch.tier.dirty_fraction",
        (if exact { 0.0 } else { dirty_fraction }, "fraction"),
    );
    m.insert("sketch.tier.dropped_changes", (sketch_dropped, "count"));
    m.insert("sketch.tier.state_mib", (sketch_mib, "MiB"));
    m.insert(
        "eval.index.patch_ms",
        (per_window_ms("eval.index.patch"), "ms"),
    );
    m.insert(
        "eval.index.patched_subjects",
        (
            if exact {
                counts.dirty as f64 / windows
            } else {
                0.0
            },
            "count",
        ),
    );
    m.insert("eval.index.rank_us", (rank("eval.index.rank"), "us"));
    m.insert("eval.ann.patch_ms", (per_window_ms("eval.ann.patch"), "ms"));
    m.insert("eval.ann.rank_us", (rank("eval.ann.rank"), "us"));
    m.insert("eval.ann.memory_entries", (ann_entries, "count"));
    m.insert(
        "apps.masquerade.algorithm1_ms",
        (per_window_ms("apps.masquerade.algorithm1"), "ms"),
    );
    m.insert(
        "apps.anomaly.scores_ms",
        (per_window_ms("apps.anomaly.scores"), "ms"),
    );
    m.insert(
        "serve.state.digest_ms",
        (per_window_ms("serve.state.digest"), "ms"),
    );
    m.insert(
        "serve.state.digest_bytes",
        (
            counts.digest_bytes as f64 / get("serve.state.digest").count.max(1) as f64,
            "B",
        ),
    );
    m.insert(
        "serve.snapshot.encode_ms",
        (mean(snapshots, snapshots.total_ns, 1e6), "ms"),
    );
    m.insert(
        "serve.snapshot.write_ms",
        (mean(writes, writes.total_ns, 1e6), "ms"),
    );
    m.insert("serve.snapshot.bytes", (counts.snapshot_bytes as f64, "B"));
    m.insert(
        "serve.durable.decode_ms",
        (mean(decode, decode.total_ns, 1e6), "ms"),
    );
    m.insert(
        "serve.durable.replay_ms_per_window",
        (
            open_ns.saturating_sub(decode.total_ns) as f64 / replayed_windows.max(1) as f64 / 1e6,
            "ms",
        ),
    );
    m.insert("serve.durable.rotate_ms_per_window", (rotate_ms, "ms"));
    m.insert("trace.advance_ms", (advance_ms, "ms"));
    m.insert(
        "trace.tier_advance_share",
        (tier_ms / advance_ms, "fraction"),
    );
    m.insert("trace.inprocess_window_ms", (inprocess_ms, "ms"));
    m.insert("trace.untraced_ms", (untraced_ms, "ms"));
    m.insert(
        "trace.traced_share",
        (1.0 - untraced_ms / inprocess_ms, "fraction"),
    );
    m.insert("trace.served_window_ms", (served_ms, "ms"));
    m.insert("trace.transport_ms", (served_ms - best_inprocess_ms, "ms"));

    let mut report = Vec::new();
    let layer_self: f64 = agg
        .iter()
        .filter(|(name, _)| **name != "window")
        .map(|(_, a)| a.self_ns as f64)
        .sum::<f64>()
        / windows
        / 1e6;
    report.push(format!(
        "coverage per timed window ({} windows): layers {layer_self:.3} ms + untraced {untraced_ms:.3} ms = in-process {inprocess_ms:.3} ms; least-disturbed block: served {served_ms:.3} ms vs in-process {best_inprocess_ms:.3} ms, transport/process overhead {:.3} ms",
        timed.len(),
        served_ms - best_inprocess_ms
    ));
    // The advance split: direct children of each timed advance span,
    // plus the advance span's own remainder (double-buffer roll, reply).
    let mut split: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, span) in tr.spans.iter().enumerate() {
        if !(lo..=hi).contains(&span.window) {
            continue;
        }
        if span.name == "serve.protocol.advance" {
            *split.entry("serve.protocol.advance (self)").or_default() += own[i];
        } else if span
            .parent
            .is_some_and(|p| tr.spans[p].name == "serve.protocol.advance")
        {
            *split.entry(span.name).or_default() += span.end - span.start;
        }
    }
    let mut shares: Vec<(&str, f64)> = split
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / windows / 1e6 / advance_ms))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.push(format!(
        "advance split ({advance_ms:.3} ms per window): {}; the periodic snapshot rotation adds {rotate_ms:.3} ms per window amortised",
        shares
            .iter()
            .map(|(n, s)| format!("{n} {:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if exact {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let note = if cores < 2 {
            "single core: the sharded recompute ran serially, so this split shows no parallel speed-up"
                .to_owned()
        } else {
            format!("{cores} cores, {} shards", composed.plan.threads())
        };
        report.push(format!(
            "serial vs sharded per window: serial (apply_delta + dirty_set + index patch) {serial_ms:.3} ms, sharded (recompute) {sharded_ms:.3} ms; {note}"
        ));
    }
    TracedRun { metrics: m, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tr = Tracer::new();
        let root = tr.enter("window");
        let child = tr.enter("a");
        let grandchild = tr.enter("b");
        tr.exit(grandchild);
        tr.exit(child);
        tr.exit(root);
        let own = tr.self_times();
        let dur = |i: usize| tr.spans[i].end - tr.spans[i].start;
        assert_eq!(own[root], dur(root) - dur(child));
        assert_eq!(own[child], dur(child) - dur(grandchild));
        assert_eq!(own[grandchild], dur(grandchild));
        assert_eq!(tr.spans[grandchild].parent, Some(child));
        assert_eq!(tr.spans[root].parent, None);
    }
}
