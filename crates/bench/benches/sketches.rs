//! Criterion benches: sketch update/query throughput (Section VI).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use comsig_bench::datasets;
use comsig_bench::Scale;
use comsig_graph::NodeId;
use comsig_sketch::cm::CountMinSketch;
use comsig_sketch::fm::FmSketch;
use comsig_sketch::stream::{SemiStream, StreamConfig};

fn bench_sketches(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch_ops");

    group.bench_function("cm_update", |b| {
        let mut cm = CountMinSketch::new(128, 4, 1);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            cm.update(black_box(i % 1000), 1.0);
        })
    });
    group.bench_function("cm_query", |b| {
        let mut cm = CountMinSketch::new(128, 4, 1);
        for i in 0..1000u64 {
            cm.update(i, 1.0);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(cm.query(black_box(i % 1000)))
        })
    });
    group.bench_function("fm_insert", |b| {
        let mut fm = FmSketch::new(32, 2);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            fm.insert(black_box(i));
        })
    });
    group.bench_function("fm_estimate", |b| {
        let mut fm = FmSketch::new(32, 2);
        for i in 0..10_000u64 {
            fm.insert(i);
        }
        b.iter(|| black_box(fm.estimate()))
    });
    group.finish();

    let mut group = c.benchmark_group("stream_pipeline");
    group.sample_size(10);
    let d = datasets::flow(Scale::Medium, 7);
    let g = d.windows.window(0).expect("window 0");
    group.bench_function("observe_window", |b| {
        b.iter(|| {
            let mut stream = SemiStream::new(StreamConfig::default());
            stream.observe_graph(black_box(g));
            black_box(stream.num_sources())
        })
    });
    group.bench_function("extract_tt_signature", |b| {
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe_graph(g);
        let v = d.local_nodes()[0];
        b.iter(|| black_box(stream.tt_signature(black_box(v), 10)))
    });
    group.bench_function("extract_ut_signature", |b| {
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe_graph(g);
        let v = d.local_nodes()[0];
        b.iter(|| black_box(stream.ut_signature(black_box(v), 10)))
    });
    group.finish();

    // Keep NodeId in scope for type inference in closures above.
    let _ = NodeId::new(0);
}

criterion_group!(benches, bench_sketches);
criterion_main!(benches);
