//! Writes the perf snapshots at the repository root:
//!
//! * `BENCH_schemes.json` — median ns/op for each signature scheme over
//!   the Medium flow dataset, covering both the batched dense-workspace
//!   RWR engine and the per-subject SparseVec reference path;
//! * `BENCH_matching.json` — indexed vs brute-force `rank_all` on
//!   synthetic populations at `|C| ∈ {1k, 10k, 50k}`, `k = 10`.
//!
//! Run with `cargo run --release -p comsig-bench --bin bench_snapshot`.
//! The snapshots are the landed, machine-readable record of the perf
//! numbers quoted in README.md; re-run after touching the engine or the
//! matcher.

#![forbid(unsafe_code)]

use std::time::Instant;

use rayon::prelude::*;
use serde_json::{json, Map, Number, Value};

use comsig_bench::experiments::sketches;
use comsig_bench::synth::{matching_population, query_subset, stream_workload};
use comsig_bench::{datasets, Scale};
use comsig_core::distance::{Jaccard, SHel};
use comsig_core::pipeline::{DeltaScheme, SignaturePipeline};
use comsig_core::scheme::{Rwr, SignatureScheme, TopTalkers, UnexpectedTalkers};
use comsig_core::{SignatureSet, SignatureTier};
use comsig_eval::ann::{top_l_recall, AnnConfig};
use comsig_eval::matcher::{rank_all, rank_all_approx, rank_all_reference};
use comsig_graph::{CommGraph, NodeId, ShardPlan};
use comsig_sketch::stream::StreamConfig;
use comsig_sketch::tier::{SketchScheme, SketchTier};

/// Samples per measurement; the median is reported.
const SAMPLES: usize = 7;

/// Kernel variant axis recorded in every snapshot: the blocked,
/// 4-lane-chunked f64 kernels of DESIGN.md §15, the only kernels the
/// build has, so the axis is a constant, not a sweep.
const KERNEL: &str = "blocked-lane4-f64";

fn median_ns(mut f: impl FnMut()) -> f64 {
    // One untimed warm-up run (fills lazy caches such as the merged
    // undirected CSR, touches the page cache).
    f();
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

fn reference_signature_set(rwr: &Rwr, g: &CommGraph, subjects: &[NodeId], k: usize) -> usize {
    let sigs: Vec<_> = subjects
        .par_iter()
        .map(|&v| rwr.signature(g, v, k))
        .collect();
    sigs.len()
}

fn main() {
    let d = datasets::flow(Scale::Medium, 7);
    let g = d.windows.window(0).expect("window 0");
    let subjects = d.local_nodes();
    let k = Scale::Medium.flow_k();

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, ns: f64| {
        eprintln!("{name:<32} {ns:>16.0} ns/op (median of {SAMPLES})");
        results.push((name.to_string(), ns));
    };

    record(
        "TT_all",
        median_ns(|| {
            std::hint::black_box(TopTalkers.signature_set(g, &subjects, k));
        }),
    );
    record(
        "UT_all",
        median_ns(|| {
            std::hint::black_box(UnexpectedTalkers::new().signature_set(g, &subjects, k));
        }),
    );
    for h in [3u32, 5, 7] {
        let rwr = Rwr::truncated(0.1, h).undirected();
        record(
            &format!("RWR{h}_all_batched"),
            median_ns(|| {
                let set: SignatureSet = rwr.signature_set(g, &subjects, k);
                std::hint::black_box(set);
            }),
        );
        record(
            &format!("RWR{h}_all_reference"),
            median_ns(|| {
                std::hint::black_box(reference_signature_set(&rwr, g, &subjects, k));
            }),
        );
    }

    let mut schemes = Map::new();
    for (name, ns) in &results {
        let mut entry = Map::new();
        entry.insert(
            "median_ns".to_string(),
            Value::Number(Number::from_f64(ns.round()).expect("finite")),
        );
        entry.insert(
            "ns_per_subject".to_string(),
            Value::Number(Number::from_f64((ns / subjects.len() as f64).round()).expect("finite")),
        );
        schemes.insert(name.clone(), Value::Object(entry));
    }
    let out = json!({
        "dataset": "flow_medium_window0",
        "num_subjects": subjects.len(),
        "num_nodes": g.num_nodes(),
        "num_edges": g.num_edges(),
        "k": k,
        "samples": SAMPLES,
        "kernel": KERNEL,
        "schemes": Value::Object(schemes),
    });

    // The bin may be invoked from any directory; anchor the output at
    // the workspace root relative to this crate's manifest.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_schemes.json");
    let body = serde_json::to_string_pretty(&out).expect("snapshot serialises");
    std::fs::write(path, body + "\n").expect("write BENCH_schemes.json");
    eprintln!("wrote {path}");

    matching_snapshot();
    pipeline_snapshot();
    sketch_snapshot();
}

/// Queries per rank_all sweep in the matching snapshot.
const MATCH_QUERIES: usize = 64;

/// Signature length of the matching snapshot (the paper's `k`).
const MATCH_K: usize = 10;

/// Times indexed vs brute-force `rank_all` on synthetic populations and
/// writes `BENCH_matching.json`.
fn matching_snapshot() {
    let mut sizes = Map::new();
    for n in [1_000usize, 10_000, 50_000] {
        let pop = matching_population(n, MATCH_K, 42);
        let queries = query_subset(&pop, MATCH_QUERIES);
        let indexed_ns = median_ns(|| {
            std::hint::black_box(rank_all(&SHel, &queries, &pop));
        });
        let brute_ns = median_ns(|| {
            std::hint::black_box(rank_all_reference(&SHel, &queries, &pop));
        });
        let speedup = brute_ns / indexed_ns;
        eprintln!(
            "rank_all |C|={n:<6} indexed {indexed_ns:>14.0} ns, brute {brute_ns:>14.0} ns, {speedup:.1}x"
        );
        let mut entry = Map::new();
        entry.insert(
            "indexed_median_ns".to_string(),
            Value::Number(Number::from_f64(indexed_ns.round()).expect("finite")),
        );
        entry.insert(
            "brute_median_ns".to_string(),
            Value::Number(Number::from_f64(brute_ns.round()).expect("finite")),
        );
        entry.insert(
            "speedup".to_string(),
            Value::Number(Number::from_f64((speedup * 100.0).round() / 100.0).expect("finite")),
        );
        sizes.insert(n.to_string(), Value::Object(entry));
    }
    let out = json!({
        "workload": "rank_all_synthetic",
        "distance": "SHel",
        "k": MATCH_K,
        "queries": MATCH_QUERIES,
        "samples": SAMPLES,
        "kernel": KERNEL,
        "candidates": Value::Object(sizes),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json");
    let body = serde_json::to_string_pretty(&out).expect("snapshot serialises");
    std::fs::write(path, body + "\n").expect("write BENCH_matching.json");
    eprintln!("wrote {path}");
}

/// Subject (local) count of the streaming-pipeline snapshot.
const STREAM_LOCALS: usize = 2_000;

/// External-node count of the streaming-pipeline snapshot.
const STREAM_EXTERNALS: usize = 8_000;

/// Out-edges per local; `STREAM_LOCALS * STREAM_OUT_DEGREE` edges total.
const STREAM_OUT_DEGREE: usize = 5;

/// Signature length of the streaming-pipeline snapshot.
const STREAM_K: usize = 10;

fn finite(v: f64) -> Value {
    Value::Number(Number::from_f64(v).expect("finite"))
}

/// Times `SignaturePipeline::advance` against a full window rebuild
/// (`apply_delta` + complete `signature_set` — both paths pay the graph
/// patch, so the comparison isolates the signature work) over the
/// bipartite stream workload, and writes `BENCH_pipeline.json`.
fn pipeline_snapshot() {
    // The first delta is the warm-up; the remaining SAMPLES are timed.
    let windows = SAMPLES + 1;
    let mut churn_map = Map::new();
    for churn in [0.002f64, 0.01, 0.05, 0.10] {
        let cases: Vec<(&str, Box<dyn DeltaScheme>)> = vec![
            ("TT", Box::new(TopTalkers)),
            ("RWR3", Box::new(Rwr::truncated(0.1, 3))),
        ];
        let mut schemes = Map::new();
        for (name, scheme) in &cases {
            let wl = stream_workload(
                STREAM_LOCALS,
                STREAM_EXTERNALS,
                STREAM_OUT_DEGREE,
                churn,
                windows,
                42,
            );

            let mut pipeline =
                SignaturePipeline::new(scheme.as_ref(), wl.graph.clone(), &wl.subjects, STREAM_K);
            let mut advance_samples = Vec::with_capacity(SAMPLES);
            let mut dirty_fraction = 0.0;
            for (i, delta) in wl.deltas.iter().enumerate() {
                let t = Instant::now();
                let report = pipeline.advance(delta);
                let ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(pipeline.signatures());
                if i > 0 {
                    advance_samples.push(ns);
                    dirty_fraction += report.dirty_subjects() as f64 / report.total_subjects as f64;
                }
            }
            let advance_ns = median(advance_samples);
            let dirty_fraction = dirty_fraction / SAMPLES as f64;

            let mut g = wl.graph.clone();
            let mut rebuild_samples = Vec::with_capacity(SAMPLES);
            for (i, delta) in wl.deltas.iter().enumerate() {
                let t = Instant::now();
                let next = g.apply_delta(delta);
                let sigs = scheme.signature_set(&next, &wl.subjects, STREAM_K);
                let ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(&sigs);
                g = next;
                if i > 0 {
                    rebuild_samples.push(ns);
                }
            }
            let rebuild_ns = median(rebuild_samples);

            let speedup = rebuild_ns / advance_ns;
            eprintln!(
                "pipeline churn={churn:<5} {name:<5} advance {advance_ns:>12.0} ns, \
                 rebuild {rebuild_ns:>12.0} ns, {speedup:.1}x (dirty {:.1}%)",
                dirty_fraction * 100.0
            );
            let mut entry = Map::new();
            entry.insert("advance_median_ns".to_string(), finite(advance_ns.round()));
            entry.insert("rebuild_median_ns".to_string(), finite(rebuild_ns.round()));
            entry.insert(
                "speedup".to_string(),
                finite((speedup * 100.0).round() / 100.0),
            );
            entry.insert(
                "dirty_fraction".to_string(),
                finite((dirty_fraction * 10_000.0).round() / 10_000.0),
            );
            schemes.insert((*name).to_string(), Value::Object(entry));
        }
        churn_map.insert(format!("{churn}"), Value::Object(schemes));
    }
    let out = json!({
        "workload": "stream_bipartite",
        "locals": STREAM_LOCALS,
        "externals": STREAM_EXTERNALS,
        "edges": STREAM_LOCALS * STREAM_OUT_DEGREE,
        "k": STREAM_K,
        "samples": SAMPLES,
        "kernel": KERNEL,
        "churn": Value::Object(churn_map),
        "thread_scaling": thread_scaling_axis(),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let body = serde_json::to_string_pretty(&out).expect("snapshot serialises");
    std::fs::write(path, body + "\n").expect("write BENCH_pipeline.json");
    eprintln!("wrote {path}");
}

/// Subject count of the thread-scaling axis: a 10^5-subject high-churn
/// stream sharded over explicit [`ShardPlan`]s.
const SCALE_LOCALS: usize = 100_000;

/// External hosts of the thread-scaling workload (same 1:4 ratio as the
/// churn sweep).
const SCALE_EXTERNALS: usize = 400_000;

/// Churn of the thread-scaling workload — high enough that the advance
/// is dominated by signature recomputation rather than delta plumbing.
const SCALE_CHURN: f64 = 0.10;

/// Times the sharded advance at 1/2/4/8 worker threads on the
/// high-churn 10^5-subject workload. The full-rebuild baseline is
/// measured once per scheme (it does not depend on the plan); every
/// thread count reports its advance median and speedup against that
/// shared baseline. The output is bit-identical at every thread count,
/// so the axis is purely a scheduling measurement.
fn thread_scaling_axis() -> Value {
    let windows = SAMPLES + 1;
    let cases: Vec<(&str, Box<dyn DeltaScheme>)> = vec![
        ("TT", Box::new(TopTalkers)),
        ("RWR3", Box::new(Rwr::truncated(0.1, 3))),
    ];
    let mut schemes = Map::new();
    for (name, scheme) in &cases {
        let wl = stream_workload(
            SCALE_LOCALS,
            SCALE_EXTERNALS,
            STREAM_OUT_DEGREE,
            SCALE_CHURN,
            windows,
            42,
        );

        let mut g = wl.graph.clone();
        let mut rebuild_samples = Vec::with_capacity(SAMPLES);
        for (i, delta) in wl.deltas.iter().enumerate() {
            let t = Instant::now();
            let next = g.apply_delta(delta);
            let sigs = scheme.signature_set(&next, &wl.subjects, STREAM_K);
            let ns = t.elapsed().as_nanos() as f64;
            std::hint::black_box(&sigs);
            g = next;
            if i > 0 {
                rebuild_samples.push(ns);
            }
        }
        let rebuild_ns = median(rebuild_samples);

        let mut threads_map = Map::new();
        for threads in [1usize, 2, 4, 8] {
            let mut pipeline = SignaturePipeline::with_plan(
                scheme.as_ref(),
                wl.graph.clone(),
                &wl.subjects,
                STREAM_K,
                ShardPlan::new(threads),
            );
            let mut advance_samples = Vec::with_capacity(SAMPLES);
            for (i, delta) in wl.deltas.iter().enumerate() {
                let t = Instant::now();
                pipeline.advance(delta);
                let ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(pipeline.signatures());
                if i > 0 {
                    advance_samples.push(ns);
                }
            }
            let advance_ns = median(advance_samples);
            let speedup = rebuild_ns / advance_ns;
            eprintln!(
                "scaling {name:<5} threads={threads} advance {advance_ns:>12.0} ns, \
                 rebuild {rebuild_ns:>12.0} ns, {speedup:.1}x"
            );
            let mut entry = Map::new();
            entry.insert("advance_median_ns".to_string(), finite(advance_ns.round()));
            entry.insert(
                "speedup_vs_rebuild".to_string(),
                finite((speedup * 100.0).round() / 100.0),
            );
            threads_map.insert(format!("{threads}"), Value::Object(entry));
        }
        let mut entry = Map::new();
        entry.insert("rebuild_median_ns".to_string(), finite(rebuild_ns.round()));
        entry.insert("threads".to_string(), Value::Object(threads_map));
        schemes.insert((*name).to_string(), Value::Object(entry));
    }
    json!({
        "locals": SCALE_LOCALS,
        "externals": SCALE_EXTERNALS,
        "edges": SCALE_LOCALS * STREAM_OUT_DEGREE,
        "churn": SCALE_CHURN,
        "k": STREAM_K,
        "schemes": Value::Object(schemes),
    })
}

/// Median of a pre-collected sample vector (the streaming paths advance
/// real state per sample, so the repeated-closure [`median_ns`] shape
/// does not fit).
fn median(mut ns: Vec<f64>) -> f64 {
    assert!(!ns.is_empty(), "no samples");
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

/// One sketch sizing for the whole tier sweep: modest Count-Min tables
/// so the Θ(1)-per-source story is visible against the exact tier's
/// Θ(out-degree)-per-source CSR at the dense large scale. The bounded
/// in-degree table (`indeg_cells > 0`) keeps the UT distinct-source
/// state at Θ(cells) instead of one FM sketch per seen destination —
/// essential at the million-external scale.
const SKETCH_CFG: StreamConfig = StreamConfig {
    cm_width: 32,
    cm_depth: 4,
    candidate_budget: 48,
    fm_bitmaps: 32,
    seed: 1,
    indeg_cells: 2_048,
    indeg_depth: 2,
};

/// Subjects sampled for the divergence (accuracy) measurement at each
/// scale — enough for a stable mean without paying a full-population
/// exact comparison at the million-node scale.
const SKETCH_ACCURACY_SAMPLE: usize = 2_000;

/// Queries of the LSH rank_all comparison.
const LSH_QUERIES: usize = 4_096;

/// The exact-vs-sketch tier sweep: per scale and scheme, the advance
/// medians, resident state, and final-window signature divergence, plus
/// the LSH-fronted rank_all operating point. Writes `BENCH_sketch.json`.
///
/// The scale axis is the tier tradeoff: at the small scales the exact
/// CSR is cheap and the sketch tier only buys bounded state, while the
/// dense ≥1M-node scale is where the exact tier's per-edge state
/// overtakes the sketches' fixed per-source budget.
fn sketch_snapshot() {
    let windows = SAMPLES + 1;
    let mut scales_map = Map::new();
    for (locals, externals, out_degree, churn) in [
        (5_000usize, 20_000usize, 16usize, 0.02f64),
        (20_000, 100_000, 32, 0.01),
        (50_000, 1_000_000, 96, 0.005),
    ] {
        let num_nodes = locals + externals;
        let wl = stream_workload(locals, externals, out_degree, churn, windows, 42);
        let genesis = sketches::genesis_delta(&wl.graph);
        let sample: Vec<NodeId> = wl
            .subjects
            .iter()
            .copied()
            .take(SKETCH_ACCURACY_SAMPLE)
            .collect();

        let mut schemes = Map::new();
        let mut exact_bytes = 0usize;
        let mut tt_sketch_bytes = 0usize;
        let cases: Vec<(&str, Box<dyn DeltaScheme>, SketchScheme)> = vec![
            ("TT", Box::new(TopTalkers), SketchScheme::TopTalkers),
            (
                "UT",
                Box::new(UnexpectedTalkers::new()),
                SketchScheme::UnexpectedTalkers,
            ),
        ];
        for (name, scheme, sketch_scheme) in &cases {
            let mut pipeline = SignaturePipeline::new(
                scheme.as_ref(),
                CommGraph::empty(num_nodes),
                &wl.subjects,
                STREAM_K,
            );
            pipeline.advance(&genesis);
            let mut exact_samples = Vec::with_capacity(SAMPLES);
            for (i, delta) in wl.deltas.iter().enumerate() {
                let t = Instant::now();
                pipeline.advance(delta);
                let ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(pipeline.signatures());
                if i > 0 {
                    exact_samples.push(ns);
                }
            }
            let exact_ns = median(exact_samples);
            exact_bytes = SignatureTier::memory(&pipeline).state_bytes;

            let mut tier = SketchTier::new(
                *sketch_scheme,
                SKETCH_CFG,
                &wl.subjects,
                STREAM_K,
                num_nodes,
            );
            tier.advance_window(&genesis);
            let mut sketch_samples = Vec::with_capacity(SAMPLES);
            for (i, delta) in wl.deltas.iter().enumerate() {
                let t = Instant::now();
                tier.advance_window(delta);
                let ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(tier.signatures());
                if i > 0 {
                    sketch_samples.push(ns);
                }
            }
            let sketch_ns = median(sketch_samples);
            let sketch_bytes = tier.memory().state_bytes;
            if *name == "TT" {
                tt_sketch_bytes = sketch_bytes;
            }
            let divergence =
                sketches::mean_divergence(pipeline.signatures(), tier.signatures(), &sample);

            let speedup = exact_ns / sketch_ns;
            eprintln!(
                "sketch n={num_nodes:<9} {name:<3} exact {exact_ns:>12.0} ns / {:>6.1} MiB, \
                 sketch {sketch_ns:>12.0} ns / {:>6.1} MiB, {speedup:.2}x, divergence {divergence:.4}",
                exact_bytes as f64 / (1024.0 * 1024.0),
                sketch_bytes as f64 / (1024.0 * 1024.0),
            );
            let mut entry = Map::new();
            entry.insert(
                "exact_advance_median_ns".to_string(),
                finite(exact_ns.round()),
            );
            entry.insert(
                "sketch_advance_median_ns".to_string(),
                finite(sketch_ns.round()),
            );
            entry.insert(
                "advance_speedup".to_string(),
                finite((speedup * 100.0).round() / 100.0),
            );
            entry.insert(
                "mean_jaccard_divergence".to_string(),
                finite((divergence * 10_000.0).round() / 10_000.0),
            );
            entry.insert("sketch_state_bytes".to_string(), Value::from(sketch_bytes));
            schemes.insert((*name).to_string(), Value::Object(entry));
        }

        let memory_ratio = exact_bytes as f64 / tt_sketch_bytes.max(1) as f64;
        if num_nodes >= 1_000_000 {
            assert!(
                memory_ratio > 1.0,
                "the >=1M-node scale is where the sketch tier must win on \
                 memory; exact {exact_bytes} B vs sketch {tt_sketch_bytes} B"
            );
        }
        let mut entry = Map::new();
        entry.insert("locals".to_string(), Value::from(locals));
        entry.insert("externals".to_string(), Value::from(externals));
        entry.insert("nodes".to_string(), Value::from(num_nodes));
        entry.insert("out_degree".to_string(), Value::from(out_degree));
        entry.insert("churn".to_string(), finite(churn));
        entry.insert("exact_state_bytes".to_string(), Value::from(exact_bytes));
        entry.insert(
            "exact_over_sketch_memory".to_string(),
            finite((memory_ratio * 100.0).round() / 100.0),
        );
        entry.insert("schemes".to_string(), Value::Object(schemes));
        scales_map.insert(num_nodes.to_string(), Value::Object(entry));
    }

    let out = json!({
        "workload": "stream_bipartite",
        "k": STREAM_K,
        "samples": SAMPLES,
        "kernel": KERNEL,
        "sketch_config": json!({
            "cm_width": SKETCH_CFG.cm_width,
            "cm_depth": SKETCH_CFG.cm_depth,
            "candidate_budget": SKETCH_CFG.candidate_budget,
            "fm_bitmaps": SKETCH_CFG.fm_bitmaps,
            "indeg_cells": SKETCH_CFG.indeg_cells,
            "indeg_depth": SKETCH_CFG.indeg_depth,
            "seed": SKETCH_CFG.seed,
        }),
        "scales": Value::Object(scales_map),
        "lsh_rank_all": lsh_axis(),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sketch.json");
    let body = serde_json::to_string_pretty(&out).expect("snapshot serialises");
    std::fs::write(path, body + "\n").expect("write BENCH_sketch.json");
    eprintln!("wrote {path}");
}

/// LSH-fronted rank_all vs the exact matchers on the cross-window
/// self-identification workload: queries are window `W−1` signatures,
/// candidates window `W`. Two exact baselines: the paper's brute-force
/// full scan (`rank_all_reference`, one merge-join per pair — the
/// matcher the speedup claim is against) and this repo's own postings
/// index (`rank_all`, already sub-linear; the LSH front is expected to
/// hold parity there, not beat it). The default banding's recall is the
/// number README quotes; the sweep shows the knob.
fn lsh_axis() -> Value {
    let (locals, externals, out_degree, churn) = (20_000usize, 100_000usize, 32usize, 0.01f64);
    let num_nodes = locals + externals;
    let wl = stream_workload(locals, externals, out_degree, churn, SAMPLES + 1, 42);
    let mut pipeline = SignaturePipeline::new(
        &TopTalkers,
        CommGraph::empty(num_nodes),
        &wl.subjects,
        STREAM_K,
    );
    pipeline.advance(&sketches::genesis_delta(&wl.graph));
    let mut prev = pipeline.signatures().clone();
    for delta in &wl.deltas {
        prev = pipeline.signatures().clone();
        pipeline.advance(delta);
    }
    let current = pipeline.signatures().clone();
    let queries = query_subset(&prev, LSH_QUERIES.min(prev.len()));

    let exact = rank_all(&Jaccard, &queries, &current);
    let indexed_ns = median_ns(|| {
        std::hint::black_box(rank_all(&Jaccard, &queries, &current));
    });
    let scan_ns = median_ns(|| {
        std::hint::black_box(rank_all_reference(&Jaccard, &queries, &current));
    });

    let mut sweep = Vec::new();
    let mut default_entry = Map::new();
    for (bands, rows) in [(8usize, 4usize), (16, 3), (32, 2), (32, 4)] {
        let cfg = AnnConfig {
            bands,
            rows,
            seed: 9,
        };
        let approx = rank_all_approx(&Jaccard, &queries, &current, cfg);
        let recall_1 = top_l_recall(&exact, &approx, 1);
        let recall_3 = top_l_recall(&exact, &approx, 3);
        let approx_ns = median_ns(|| {
            std::hint::black_box(rank_all_approx(&Jaccard, &queries, &current, cfg));
        });
        let speedup_scan = scan_ns / approx_ns;
        let speedup_indexed = indexed_ns / approx_ns;
        eprintln!(
            "lsh rank_all {bands}x{rows}: recall@1 {recall_1:.4}, recall@3 {recall_3:.4}, \
             scan {scan_ns:>12.0} ns, indexed {indexed_ns:>12.0} ns, approx {approx_ns:>12.0} ns, \
             {speedup_scan:.2}x over scan, {speedup_indexed:.2}x over indexed"
        );
        let mut entry = Map::new();
        entry.insert("bands".to_string(), Value::from(bands));
        entry.insert("rows".to_string(), Value::from(rows));
        entry.insert(
            "recall_at_1".to_string(),
            finite((recall_1 * 10_000.0).round() / 10_000.0),
        );
        entry.insert(
            "recall_at_3".to_string(),
            finite((recall_3 * 10_000.0).round() / 10_000.0),
        );
        entry.insert("approx_median_ns".to_string(), finite(approx_ns.round()));
        entry.insert(
            "speedup_over_scan".to_string(),
            finite((speedup_scan * 100.0).round() / 100.0),
        );
        entry.insert(
            "speedup_over_indexed".to_string(),
            finite((speedup_indexed * 100.0).round() / 100.0),
        );
        if cfg == AnnConfig::default() {
            default_entry = entry.clone();
        }
        sweep.push(Value::Object(entry));
    }
    let default_recall = default_entry
        .get("recall_at_1")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    assert!(
        default_recall >= 0.95,
        "default banding must hold the documented recall@1 >= 0.95 floor, got {default_recall}"
    );
    let default_speedup = default_entry
        .get("speedup_over_scan")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    assert!(
        default_speedup > 1.0,
        "default banding must beat the full-scan matcher, got {default_speedup}x"
    );
    json!({
        "locals": locals,
        "externals": externals,
        "queries": queries.len(),
        "candidates": current.len(),
        "distance": "Jaccard",
        "scan_median_ns": finite(scan_ns.round()),
        "indexed_median_ns": finite(indexed_ns.round()),
        "default": Value::Object(default_entry),
        "sweep": Value::Array(sweep),
    })
}
