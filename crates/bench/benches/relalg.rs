//! P3 — relational-algebra micro-benchmarks: the flat arena-backed
//! [`epq_relalg::Relation`] against the seed nested-`Vec` layout
//! ([`epq_bench::naive::NaiveRelation`]) on identical inputs, per
//! primitive (join / project / union) and cardinality.
//!
//! The `experiments` binary's `P3` gate measures the same workloads
//! with agreement checks and reports them in `BENCH.json`; this suite
//! is the statistically-rigorous criterion view of the same comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epq_bench::naive::NaiveRelation;
use epq_bench::{p3_join_pair, p3_rows};
use epq_relalg::Relation;

fn join_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("P3/join");
    group.sample_size(10);
    for n in [512usize, 2048, 8192] {
        let ((rs, rr), (ss, sr)) = p3_join_pair(n);
        let flat_r = Relation::new(rs.clone(), rr.clone());
        let flat_s = Relation::new(ss.clone(), sr.clone());
        let naive_r = NaiveRelation::new(rs, rr);
        let naive_s = NaiveRelation::new(ss, sr);
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| flat_r.join(&flat_s, 1));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| naive_r.join(&naive_s));
        });
    }
    group.finish();
}

fn project_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("P3/project");
    group.sample_size(10);
    for n in [2048usize, 8192, 32768] {
        let schema = vec![0u32, 1, 2, 3];
        let rows = p3_rows(31 + n as u64, n, &[97, 89, 7, 5]);
        let flat = Relation::new(schema.clone(), rows.clone());
        let naive = NaiveRelation::new(schema, rows);
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| flat.project(&[3, 1]));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| naive.project(&[3, 1]));
        });
    }
    group.finish();
}

fn union_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("P3/union");
    group.sample_size(10);
    for n in [2048usize, 8192, 32768] {
        let schema = vec![0u32, 1];
        let left = p3_rows(77 + n as u64, n, &[251, 127]);
        let right = p3_rows(78 + n as u64, n, &[251, 127]);
        let flat_l = Relation::new(schema.clone(), left.clone());
        let flat_r = Relation::new(schema.clone(), right.clone());
        let naive_l = NaiveRelation::new(schema.clone(), left);
        let naive_r = NaiveRelation::new(schema, right);
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| flat_l.union(&flat_r));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| naive_l.union(&naive_r));
        });
    }
    group.finish();
}

criterion_group!(benches, join_layouts, project_layouts, union_layouts);
criterion_main!(benches);
