//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! LDD β (§5.3 uses 0.2), lazy vs semi-eager bucketing (App. B), the
//! reusable dense histogram against the one-shot routines (§4.3.4), and the
//! chunked traversal's group size floor (Algorithm 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sage_core::bucket::{Buckets, Order, Packing};
use sage_graph::gen;
use sage_parallel::{histogram_dense, histogram_sparse, Histogram};

fn bench_ldd_beta(c: &mut Criterion) {
    let g = gen::rmat(14, 16, gen::RmatParams::default(), 1);
    let mut group = c.benchmark_group("ldd_beta");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for beta in [0.05f64, 0.2, 0.5] {
        group.bench_with_input(BenchmarkId::from_parameter(beta), &beta, |b, &beta| {
            b.iter(|| sage_core::algo::ldd::ldd(&g, beta, 1).rounds)
        });
    }
    group.finish();
}

fn bench_connectivity_beta(c: &mut Criterion) {
    // The downstream effect of β: fewer inter-cluster edges (small β) vs
    // fewer LDD rounds (large β). The paper picks 0.2 (§5.3).
    let g = gen::rmat(14, 8, gen::RmatParams::default(), 2);
    let mut group = c.benchmark_group("connectivity_beta");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for beta in [0.05f64, 0.2, 0.5] {
        group.bench_with_input(BenchmarkId::from_parameter(beta), &beta, |b, &beta| {
            b.iter(|| sage_core::algo::connectivity::connectivity(&g, beta, 1))
        });
    }
    group.finish();
}

fn bench_bucket_packing(c: &mut Criterion) {
    // k-core-shaped churn over the two packing strategies of Appendix B,
    // with each round's moves applied as one parallel `update_batch`.
    let n = 1usize << 16;
    let mut group = c.benchmark_group("bucket_packing");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (label, packing) in [("lazy", Packing::Lazy), ("semi_eager", Packing::SemiEager)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut buckets = Buckets::new(n, Order::Increasing, packing, |v| {
                    Some(sage_parallel::hash64(v as u64) % 64)
                });
                let mut extracted = 0usize;
                let mut round = 0u64;
                while let Some((k, vs)) = buckets.next_bucket() {
                    extracted += vs.len();
                    round += 1;
                    // Re-bucket a third of the extracted vertices upward,
                    // mimicking peeling updates.
                    if k < 256 {
                        let moves: Vec<(u32, u64)> = vs
                            .iter()
                            .copied()
                            .filter(|&v| (v as u64 + round) % 3 == 0)
                            .map(|v| (v, k + 5))
                            .collect();
                        buckets.update_batch_distinct(&moves);
                    }
                }
                extracted
            })
        });
    }
    group.finish();
}

fn bench_histogram_variants(c: &mut Criterion) {
    // The round-structured `Histogram` (one dense scratch held across
    // iterations, exactly like a peeling algorithm holds it across rounds)
    // against the two one-shot routines it replaced per round: the
    // hash-table aggregation and the allocate-and-pack dense array. Small
    // rounds are what a peel is made of; the large size is the other side
    // of the inline/parallel cutoff.
    let n = 1usize << 16;
    let keys: Vec<u32> = (0..(1usize << 18))
        .map(|i| (sage_parallel::hash64(i as u64) % n as u64) as u32)
        .collect();
    let mut group = c.benchmark_group("histogram_variants");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for len in [1usize << 10, 1 << 18] {
        let keys = &keys[..len];
        let mut h = Histogram::new();
        group.bench_with_input(BenchmarkId::new("reused_scratch", len), &len, |b, _| {
            b.iter(|| h.count(len, len, n, |i, emit| emit(keys[i])).len())
        });
        group.bench_with_input(BenchmarkId::new("one_shot_sparse", len), &len, |b, _| {
            b.iter(|| histogram_sparse(len, len, |i, emit| emit(keys[i])).len())
        });
        group.bench_with_input(BenchmarkId::new("one_shot_dense", len), &len, |b, _| {
            b.iter(|| histogram_dense(len, n, |i, emit| emit(keys[i])).len())
        });
    }
    group.finish();
}

fn bench_kclique(c: &mut Criterion) {
    // The §3.2 extension: cost growth with k.
    let g = gen::rmat(11, 12, gen::RmatParams::default(), 3);
    let mut group = c.benchmark_group("kclique");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [3usize, 4, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| sage_core::algo::kclique::kclique_count(&g, k))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ldd_beta,
    bench_connectivity_beta,
    bench_bucket_packing,
    bench_histogram_variants,
    bench_kclique
);
criterion_main!(benches);
