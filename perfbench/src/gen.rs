//! Seeded workload generator: the seed-events file and the request stream.
//!
//! Every workload is a bipartite locals → externals link stream cut into
//! tumbling width-1 windows. Each window carries one event line per live
//! edge (time = window index), so a persistent edge re-appears with the
//! same weight every window and only churned edges reach the delta.
//! Churn is host-localised: a picked local re-weights or re-points every
//! one of its edges while every other local persists untouched.
//!
//! Inputs depend only on the workload shape and the seed: the generator
//! carries its own SplitMix64 stream, so no library's sampling algorithm
//! can move them.

use comsig_eval::ann::AnnConfig;
use comsig_serve::config::TierSpec;
use comsig_serve::ServeConfig;
use comsig_sketch::stream::StreamConfig;

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 3] = ["persist-tt", "hub-rwr", "sketch-query"];

/// Windows ingested and advanced before timing starts (window 0 is the
/// full cold build; window 1 is the first churn window).
pub const WARMUP_WINDOWS: u64 = 2;

/// Windows a server serves after its periodic snapshot before it is
/// SIGKILLed: the fixed WAL tail every recovery replays.
pub const TAIL_WINDOWS: u64 = 2;

/// Auto-snapshot cadence passed to the server (`--snapshot-every`).
pub const SNAPSHOT_EVERY: u64 = 8;

/// Ranking depth of every `rank` query.
pub const RANK_TOP: usize = 10;

/// SplitMix64: a small, fully specified PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` tag.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }
}

/// The fixed shape of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Signature tier the server runs on.
    pub tier: TierSpec,
    /// Scheme spec passed as `--scheme`.
    pub scheme: &'static str,
    /// Subject population (labels `l0..`).
    pub locals: usize,
    /// Uniform externals (labels `e0..`).
    pub externals: usize,
    /// Hot-head externals (labels `h0..`).
    pub hubs: usize,
    /// Share of edges aimed at the hot head.
    pub hub_share: f64,
    /// Distinct destinations per local.
    pub out_degree: usize,
    /// Share of locals churning per window.
    pub churn: f64,
    /// Event lines per `ingest` request.
    pub batch_lines: usize,
    /// `rank` queries per window.
    pub ranks: usize,
    /// `signature` queries per window.
    pub signatures: usize,
}

impl Shape {
    /// The shape named `name`, if it is one of [`WORKLOADS`].
    #[must_use]
    pub fn named(name: &str) -> Option<Shape> {
        let persist = Shape {
            name: "persist-tt",
            tier: TierSpec::Exact,
            scheme: "tt",
            locals: 20_000,
            externals: 80_000,
            hubs: 0,
            hub_share: 0.0,
            out_degree: 8,
            churn: 0.01,
            batch_lines: 2_000,
            ranks: 16,
            signatures: 0,
        };
        let hub = Shape {
            name: "hub-rwr",
            scheme: "rwr:h=3,c=0.1,undirected",
            locals: 10_000,
            externals: 40_000,
            hubs: 100,
            hub_share: 0.2,
            churn: 0.05,
            ..persist.clone()
        };
        match name {
            "persist-tt" => Some(persist),
            "hub-rwr" => Some(hub),
            "sketch-query" => Some(Shape {
                name: "sketch-query",
                tier: TierSpec::Sketch,
                scheme: "tt",
                churn: 0.02,
                ranks: 1_000,
                signatures: 200,
                ..hub
            }),
            _ => None,
        }
    }

    /// Sketch sizing, fixed here rather than taken from defaults.
    fn sketch_config() -> StreamConfig {
        StreamConfig {
            cm_width: 128,
            cm_depth: 4,
            candidate_budget: 64,
            fm_bitmaps: 32,
            seed: 1,
            indeg_cells: 0,
            indeg_depth: 2,
        }
    }

    /// The service configuration every in-process path uses; equal to
    /// what `comsig serve` builds from [`serve_flags`](Self::serve_flags).
    #[must_use]
    pub fn config(&self) -> ServeConfig {
        let sketch = Self::sketch_config();
        ServeConfig {
            scheme_spec: self.scheme.to_owned(),
            dist_spec: "shel".to_owned(),
            k: 10,
            width: 1,
            slide: 1,
            start: 0,
            threshold_divisor: 5.0,
            top_l: 3,
            snapshot_every: SNAPSHOT_EVERY,
            threads: 0,
            ingest: comsig_graph::IngestPolicy::Strict,
            tier: self.tier,
            sketch,
            ann: AnnConfig {
                bands: 32,
                rows: 4,
                ..AnnConfig::default()
            },
        }
    }

    /// Explicit `comsig serve` flags for this shape (data dir, seed file
    /// and address file are added by the caller).
    #[must_use]
    pub fn serve_flags(&self) -> Vec<String> {
        let c = self.config();
        let mut flags: Vec<String> = [
            ("--tier", c.tier.name().to_owned()),
            ("--scheme", c.scheme_spec.clone()),
            ("--dist", c.dist_spec.clone()),
            ("--k", c.k.to_string()),
            ("--window-width", c.width.to_string()),
            ("--slide", c.slide.to_string()),
            ("--start", c.start.to_string()),
            ("--c", c.threshold_divisor.to_string()),
            ("--l", c.top_l.to_string()),
            ("--snapshot-every", c.snapshot_every.to_string()),
            ("--threads", c.threads.to_string()),
            ("--ingest", "strict".to_owned()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_owned(), v])
        .collect();
        if c.tier == TierSpec::Sketch {
            // `--sketch-seed` is left at its default on purpose: the CLI
            // also feeds it to the LSH seed, which must stay the default.
            for (k, v) in [
                ("--cm-width", c.sketch.cm_width),
                ("--cm-depth", c.sketch.cm_depth),
                ("--budget", c.sketch.candidate_budget),
                ("--fm", c.sketch.fm_bitmaps),
                ("--indeg-cells", c.sketch.indeg_cells),
                ("--indeg-depth", c.sketch.indeg_depth),
                ("--bands", c.ann.bands),
                ("--rows", c.ann.rows),
            ] {
                flags.push(k.to_owned());
                flags.push(v.to_string());
            }
        }
        flags
    }

    /// Live edges (= event lines) per window.
    #[cfg(test)]
    fn events_per_window(&self) -> usize {
        self.locals * self.out_degree
    }
}

/// One protocol request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An `ingest` batch; `text` holds newline-separated event lines.
    Ingest {
        /// The event lines, `\n`-separated.
        text: String,
        /// Number of event lines.
        events: usize,
    },
    /// Close the next window.
    Advance,
    /// Top-[`RANK_TOP`] ranking of one subject.
    Rank(String),
    /// Current signature of one subject.
    Signature(String),
}

impl Request {
    /// The JSONL request line sent to the server.
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Request::Ingest { text, .. } => {
                let mut line = String::with_capacity(text.len() + text.len() / 16 + 32);
                line.push_str(r#"{"op":"ingest","lines":""#);
                for (i, l) in text.split('\n').enumerate() {
                    if i > 0 {
                        line.push_str("\\n");
                    }
                    line.push_str(l);
                }
                line.push_str("\"}");
                line
            }
            Request::Advance => r#"{"op":"advance"}"#.to_owned(),
            Request::Rank(node) => {
                format!(r#"{{"op":"rank","node":"{node}","top":{RANK_TOP}}}"#)
            }
            Request::Signature(node) => format!(r#"{{"op":"signature","node":"{node}"}}"#),
        }
    }

    /// Whether the request only reads state.
    #[cfg(test)]
    fn is_read(&self) -> bool {
        matches!(self, Request::Rank(_) | Request::Signature(_))
    }
}

/// One window's requests: ingest batches, one advance, then queries.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index (= event time of its lines).
    pub index: u64,
    /// The requests in send order.
    pub requests: Vec<Request>,
}

/// The seeded generator state: the live edge rows of every local.
#[derive(Debug, Clone)]
pub struct Stream {
    shape: Shape,
    churn_rng: Rng,
    query_rng: Rng,
    /// Per local: `(destination id, integer weight)` in row order.
    rows: Vec<Vec<(u32, u8)>>,
    next: u64,
}

impl Stream {
    /// The stream of `shape` under `seed`, positioned before window 0.
    #[must_use]
    pub fn new(shape: &Shape, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let rows = (0..shape.locals)
            .map(|_| {
                let mut row: Vec<(u32, u8)> = Vec::with_capacity(shape.out_degree);
                while row.len() < shape.out_degree {
                    let dst = pick_dst(shape, &mut rng);
                    if row.iter().all(|&(d, _)| d != dst) {
                        row.push((dst, 1 + rng.below(4) as u8));
                    }
                }
                row
            })
            .collect();
        Stream {
            shape: shape.clone(),
            churn_rng: Rng::new(seed, 2),
            query_rng: Rng::new(seed, 3),
            rows,
            next: 0,
        }
    }

    /// The seed-events file: window 0's edges, then one line per
    /// destination label window 0 does not mention, so the frozen label
    /// space covers every label the stream can ever use. The subjects are
    /// exactly the locals (the only sources).
    #[must_use]
    pub fn seed_file(&self) -> String {
        let mut text = String::new();
        let mut seen = vec![false; self.shape.externals + self.shape.hubs];
        for (v, row) in self.rows.iter().enumerate() {
            for &(dst, w) in row {
                seen[dst as usize] = true;
                push_line(&mut text, &self.shape, 0, v, dst, w);
            }
        }
        for (dst, _) in seen.iter().enumerate().filter(|(_, &s)| !s) {
            push_line(&mut text, &self.shape, 0, 0, dst as u32, 1);
        }
        text
    }

    /// Generates the next window: churn (from window 1 on), one event
    /// line per live edge in ingest batches, one advance, then queries.
    pub fn next_window(&mut self) -> Window {
        let index = self.next;
        self.next += 1;
        if index > 0 {
            self.churn();
        }
        let shape = &self.shape;
        let mut requests = Vec::new();
        let mut text = String::new();
        let mut events = 0;
        for (v, row) in self.rows.iter().enumerate() {
            for &(dst, w) in row {
                if events > 0 {
                    text.push('\n');
                }
                push_event(&mut text, shape, index, v, dst, w);
                events += 1;
                if events == shape.batch_lines {
                    requests.push(Request::Ingest {
                        text: std::mem::take(&mut text),
                        events,
                    });
                    events = 0;
                }
            }
        }
        if events > 0 {
            requests.push(Request::Ingest { text, events });
        }
        requests.push(Request::Advance);
        // Reads interleave: one signature query after every
        // `ranks / signatures` rank queries.
        let every = shape
            .ranks
            .checked_div(shape.signatures)
            .map_or(usize::MAX, |e| e.max(1));
        let mut signatures = 0;
        for i in 0..shape.ranks {
            requests.push(Request::Rank(local(self.query_rng.below(shape.locals))));
            if (i + 1) % every == 0 && signatures < shape.signatures {
                requests.push(Request::Signature(local(
                    self.query_rng.below(shape.locals),
                )));
                signatures += 1;
            }
        }
        Window { index, requests }
    }

    /// Host-localised churn: `churn · locals` distinct locals each
    /// re-weight or re-point every edge.
    fn churn(&mut self) {
        let shape = &self.shape;
        let target = ((shape.locals as f64 * shape.churn).round() as usize).max(1);
        let mut picked = vec![false; shape.locals];
        let mut count = 0;
        while count < target {
            let v = self.churn_rng.below(shape.locals);
            if picked[v] {
                continue;
            }
            picked[v] = true;
            count += 1;
            for i in 0..self.rows[v].len() {
                let (dst, w) = self.rows[v][i];
                if self.churn_rng.chance(0.5) {
                    let mut nw = 1 + self.churn_rng.below(4) as u8;
                    while nw == w {
                        nw = 1 + self.churn_rng.below(4) as u8;
                    }
                    self.rows[v][i] = (dst, nw);
                } else {
                    let mut nd = pick_dst(shape, &mut self.churn_rng);
                    while self.rows[v].iter().any(|&(d, _)| d == nd) {
                        nd = pick_dst(shape, &mut self.churn_rng);
                    }
                    self.rows[v][i] = (nd, w);
                }
            }
        }
    }
}

/// A destination id: the hot head with probability `hub_share`, else a
/// uniform external. Ids `0..externals` are externals, the rest hubs.
fn pick_dst(shape: &Shape, rng: &mut Rng) -> u32 {
    if shape.hubs > 0 && rng.chance(shape.hub_share) {
        (shape.externals + rng.below(shape.hubs)) as u32
    } else {
        rng.below(shape.externals) as u32
    }
}

/// The label of local `v`.
#[must_use]
pub fn local(v: usize) -> String {
    format!("l{v}")
}

fn push_event(text: &mut String, shape: &Shape, time: u64, src: usize, dst: u32, w: u8) {
    use std::fmt::Write as _;
    let dst = dst as usize;
    let _ = if dst < shape.externals {
        write!(text, "{time} l{src} e{dst} {w}")
    } else {
        write!(text, "{time} l{src} h{} {w}", dst - shape.externals)
    };
}

fn push_line(text: &mut String, shape: &Shape, time: u64, src: usize, dst: u32, w: u8) {
    push_event(text, shape, time, src, dst, w);
    text.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::persist::fnv1a;

    /// Digest of the seed file plus the first `windows` request lines.
    fn fingerprint(name: &str, seed: u64, windows: usize) -> (u64, u64) {
        let shape = Shape::named(name).unwrap();
        let mut stream = Stream::new(&shape, seed);
        let seed_file = fnv1a(stream.seed_file().as_bytes());
        let mut all = Vec::new();
        for _ in 0..windows {
            for r in stream.next_window().requests {
                all.extend_from_slice(r.to_line().as_bytes());
                all.push(b'\n');
            }
        }
        (seed_file, fnv1a(&all))
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for name in WORKLOADS {
            let a = fingerprint(name, 7, 3);
            assert_eq!(a, fingerprint(name, 7, 3), "{name}: not reproducible");
            let b = fingerprint(name, 8, 3);
            assert_ne!(a.0, b.0, "{name}: seed file ignores the seed");
            assert_ne!(a.1, b.1, "{name}: request stream ignores the seed");
        }
    }

    #[test]
    fn ingest_lines_round_trip_through_json() {
        let shape = Shape::named("persist-tt").unwrap();
        let mut stream = Stream::new(&shape, 1);
        let window = stream.next_window();
        let Request::Ingest { text, events } = &window.requests[0] else {
            panic!("a window opens with an ingest batch");
        };
        assert_eq!(*events, shape.batch_lines);
        let v = serde_json::from_str(&window.requests[0].to_line()).unwrap();
        assert_eq!(v.get("lines").and_then(|l| l.as_str()), Some(text.as_str()));
        assert_eq!(text.lines().count(), shape.batch_lines);
    }

    #[test]
    fn every_window_has_one_line_per_live_edge() {
        for name in WORKLOADS {
            let shape = Shape::named(name).unwrap();
            let mut stream = Stream::new(&shape, 3);
            for _ in 0..2 {
                let w = stream.next_window();
                let events: usize = w
                    .requests
                    .iter()
                    .map(|r| match r {
                        Request::Ingest { events, .. } => *events,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(events, shape.events_per_window(), "{name}");
                let advances = w
                    .requests
                    .iter()
                    .filter(|r| **r == Request::Advance)
                    .count();
                assert_eq!(advances, 1, "{name}");
            }
        }
    }

    /// sketch-query is ≥ 90% reads.
    #[test]
    fn sketch_query_is_read_heavy() {
        let shape = Shape::named("sketch-query").unwrap();
        let mut stream = Stream::new(&shape, 11);
        let w = stream.next_window();
        let reads = w.requests.iter().filter(|r| r.is_read()).count();
        let share = reads as f64 / w.requests.len() as f64;
        assert!(share >= 0.9, "sketch-query read share {share}");
        assert_eq!(
            w.requests
                .iter()
                .filter(|r| matches!(r, Request::Signature(_)))
                .count(),
            shape.signatures
        );
    }

    /// The scheme's own dirty set over the generated windows: persist-tt
    /// dirties ~1% of subjects per window, hub-rwr at least 80%.
    #[test]
    fn dirty_fractions_hold() {
        use comsig_graph::{CommGraph, SlidingWindower};
        for (name, lo, hi) in [("persist-tt", 0.009, 0.011), ("hub-rwr", 0.8, 1.0)] {
            let shape = Shape::named(name).unwrap();
            let mut stream = Stream::new(&shape, 11);
            let genesis = crate::replay::Genesis::parse(&stream.seed_file()).unwrap();
            let scheme = comsig_cli::spec::parse_delta_scheme(shape.scheme).unwrap();
            let mut windower = SlidingWindower::tumbling(0, 1);
            let mut graph = CommGraph::empty(genesis.interner.len());
            for w in 0..3 {
                for r in stream.next_window().requests {
                    if let Request::Ingest { text, .. } = r {
                        let (events, _) =
                            crate::replay::parse_batch(&text, &genesis.interner).unwrap();
                        for e in events {
                            windower.push(e);
                        }
                    }
                }
                let delta = windower.advance();
                let next = graph.apply_delta(&delta);
                let dirty = scheme.dirty_set(&graph, &next, &delta);
                graph = next;
                if w == 0 {
                    continue; // the cold build dirties everything
                }
                let n = genesis
                    .subjects
                    .iter()
                    .filter(|&&v| dirty.contains(v))
                    .count();
                let fraction = n as f64 / genesis.subjects.len() as f64;
                assert!(
                    (lo..=hi).contains(&fraction),
                    "{name}: dirty fraction {fraction}"
                );
            }
        }
    }

    /// The seed file names every label the stream can use, and its
    /// sources are exactly the locals.
    #[test]
    fn seed_file_covers_the_label_space() {
        let shape = Shape::named("hub-rwr").unwrap();
        let stream = Stream::new(&shape, 5);
        let mut interner = comsig_graph::Interner::new();
        let (events, _) = comsig_graph::io::read_events_with_policy(
            std::io::Cursor::new(stream.seed_file()),
            &mut interner,
            comsig_graph::IngestPolicy::Strict,
        )
        .unwrap();
        assert_eq!(interner.len(), shape.locals + shape.externals + shape.hubs);
        let subjects = comsig_serve::state::subject_sources(&events);
        assert_eq!(subjects.len(), shape.locals);
    }
}
