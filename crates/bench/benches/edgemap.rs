//! Criterion comparison of the three sparse `edgeMap` implementations
//! (§4.1, Table 5) and of the graphFilter pack operations (§4.2).

use criterion::{criterion_group, criterion_main, Criterion};
use sage_core::edge_map::{EdgeMapOpts, SparseImpl, Strategy};
use sage_core::GraphFilter;
use sage_graph::gen;

fn bench_edgemap_variants(c: &mut Criterion) {
    let g = gen::rmat(15, 16, gen::RmatParams::default(), 1);
    let mut group = c.benchmark_group("bfs_sparse_impl");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (label, si) in [
        ("sparse", SparseImpl::Sparse),
        ("blocked", SparseImpl::Blocked),
        ("chunked", SparseImpl::Chunked),
    ] {
        group.bench_function(label, |b| {
            let opts = EdgeMapOpts {
                strategy: Strategy::Auto,
                sparse_impl: si,
            };
            b.iter(|| sage_core::algo::bfs::bfs_with_opts(&g, 0, opts));
        });
    }
    group.finish();
}

fn bench_filter_ops(c: &mut Criterion) {
    let g = gen::rmat(14, 16, gen::RmatParams::default(), 2);
    let mut group = c.benchmark_group("graph_filter");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("make_filter", |b| {
        b.iter(|| GraphFilter::new(&g, true).active_edges());
    });
    group.bench_function("filter_edges_half", |b| {
        b.iter(|| {
            let mut f = GraphFilter::new(&g, false);
            f.filter_edges(|u, v, _| (u ^ v) & 1 == 0)
        });
    });
    group.finish();
}

fn bench_dense_vs_sparse_rounds(c: &mut Criterion) {
    let g = gen::rmat(15, 16, gen::RmatParams::default(), 3);
    let mut group = c.benchmark_group("direction_optimization");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (label, strat) in [
        ("auto", Strategy::Auto),
        ("force_sparse", Strategy::ForceSparse),
    ] {
        group.bench_function(label, |b| {
            let opts = EdgeMapOpts {
                strategy: strat,
                sparse_impl: SparseImpl::Chunked,
            };
            b.iter(|| sage_core::algo::bfs::bfs_with_opts(&g, 0, opts));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_edgemap_variants,
    bench_filter_ops,
    bench_dense_vs_sparse_rounds
);
criterion_main!(benches);
