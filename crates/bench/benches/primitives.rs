//! Criterion microbenchmarks for the parallel primitives (§2): scan, reduce,
//! filter/pack, sort, and the histogram of §4.3.4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sage_parallel as par;

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[1usize << 16, 1 << 20] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let data: Vec<u64> = (0..n as u64).collect();
            b.iter(|| {
                let mut v = data.clone();
                par::scan_add(&mut v)
            });
        });
    }
    group.finish();
}

fn bench_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 1usize << 20;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
        b.iter(|| par::reduce_add(0, n, |i| i as u64));
    });
    group.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack_index");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 1usize << 20;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("every-7th", |b| {
        b.iter(|| par::pack_index(n, |i| i % 7 == 0));
    });
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_sort");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 1usize << 20;
    let data: Vec<u64> = (0..n).map(|i| par::hash64(i as u64)).collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("random-u64", |b| {
        b.iter(|| {
            let mut v = data.clone();
            par::par_sort(&mut v);
            v[0]
        });
    });
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 1usize << 18;
    let keys: Vec<u32> = (0..n)
        .map(|i| (par::hash64(i as u64) % 4096) as u32)
        .collect();
    group.bench_function("dense", |b| {
        b.iter(|| par::histogram_dense(keys.len(), 4096, |i, emit| emit(keys[i])));
    });
    group.bench_function("dense_reused_scratch", |b| {
        // The peeling configuration: one Histogram whose dense scratch is
        // allocated on the first call and reused by every later one.
        let mut h = par::Histogram::new();
        b.iter(|| h.count(keys.len(), keys.len(), 4096, |i, emit| emit(keys[i])));
    });
    group.bench_function("sparse", |b| {
        b.iter(|| par::histogram_sparse(keys.len(), keys.len(), |i, emit| emit(keys[i])));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_reduce,
    bench_pack,
    bench_sort,
    bench_histogram
);
criterion_main!(benches);
