//! Criterion benches: graph-substrate operations (CSR construction,
//! lookups, perturbation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use comsig_bench::datasets;
use comsig_bench::Scale;
use comsig_graph::perturb::{perturb, PerturbConfig};
use comsig_graph::GraphBuilder;

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

criterion_group!(benches, bench_graph_ops);
criterion_main!(benches);
