//! Criterion benches: graph-substrate operations (CSR construction,
//! lookups, perturbation) and label-interner lookups.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use comsig_bench::datasets;
use comsig_bench::Scale;
use comsig_graph::perturb::{perturb, PerturbConfig};
use comsig_graph::{GraphBuilder, Interner};

fn bench_graph_ops(c: &mut Criterion) {
    let d = datasets::flow(Scale::Medium, 7);
    let g = d.windows.window(0).expect("window 0");
    let subjects = d.local_nodes();

    let mut group = c.benchmark_group("graph_ops");
    group.sample_size(20);

    group.bench_function("csr_rebuild", |b| {
        let edges: Vec<_> = g.edges().collect();
        b.iter(|| {
            let mut builder = GraphBuilder::with_edge_capacity(edges.len());
            builder.extend_edges(edges.iter().copied());
            black_box(builder.build(g.num_nodes()))
        })
    });

    group.bench_function("edge_weight_lookup", |b| {
        let v = subjects[0];
        let (dst, _) = g.out_neighbors(v).next().expect("host has edges");
        b.iter(|| black_box(g.edge_weight(black_box(v), black_box(dst))))
    });

    group.bench_function("perturb_0.4", |b| {
        b.iter(|| black_box(perturb(g, &PerturbConfig::symmetric(0.4, 99))))
    });

    group.finish();
}

/// `Interner::get` over a frozen 100k-label space, for flow-style
/// `e{i}` labels and IPv4-style `10.a.b.c` labels: each iteration
/// resolves 2,000 labels (one serve ingest batch's sources) in a
/// scattered order.
fn bench_interner_get(c: &mut Criterion) {
    const LABELS: usize = 100_000;
    fn e_label(i: usize) -> String {
        format!("e{i}")
    }
    fn ipv4_label(i: usize) -> String {
        format!("10.{}.{}.{}", (i >> 16) & 255, (i >> 8) & 255, i & 255)
    }
    let spaces = [
        ("e_labels", e_label as fn(usize) -> String),
        ("ipv4_labels", ipv4_label),
    ];
    let mut group = c.benchmark_group("interner_get");
    group.sample_size(20);
    for (name, label) in spaces {
        let labels: Vec<String> = (0..LABELS).map(label).collect();
        let mut interner = Interner::with_capacity(LABELS);
        for l in &labels {
            interner.intern(l);
        }
        // A multiplicative walk visits the space in a scattered order.
        let probes: Vec<&str> = (0..2_000)
            .map(|i| labels[(i * 40_503) % LABELS].as_str())
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut found = 0usize;
                for &p in &probes {
                    found += interner.get(black_box(p)).map_or(0, |id| id.index() & 1);
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_graph_ops, bench_interner_get);
criterion_main!(benches);
