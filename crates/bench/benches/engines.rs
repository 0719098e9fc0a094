//! F1 — counting-engine scaling on FPT-family queries, and P1 — the
//! sequential-vs-sharded comparison.
//!
//! Regenerates the engine-comparison series of EXPERIMENTS.md: counting
//! time versus structure size for a fixed bounded-treewidth query, per
//! engine (brute force / relational algebra / #Hom-DP / FPT), plus the
//! `fpt` and `brute-force` engines sharded across 1, 2, and 4 worker
//! threads (one worker *is* the sequential algorithm — those bars
//! measure the call path's overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epq_bench::pp_of;
use epq_counting::engines::{
    BruteForceEngine, FptEngine, HomDpEngine, PpCountingEngine, RelalgEngine,
};
use epq_logic::Query;
use epq_workloads::{data, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engines_on_quantified_path(c: &mut Criterion) {
    let query = queries::quantified_path_query(3);
    let pp = pp_of(&query);
    let mut group = c.benchmark_group("F1/qpath3");
    group.sample_size(10);
    for n in [8usize, 16, 32, 64] {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(n as u64), n, 0.08);
        let engines: Vec<Box<dyn PpCountingEngine>> = vec![
            Box::new(BruteForceEngine),
            Box::new(RelalgEngine),
            Box::new(HomDpEngine),
            Box::new(FptEngine),
        ];
        for engine in engines {
            if engine.name() == "brute-force" && n > 32 {
                continue; // quadratic × hom-check blowup; series recorded up to 32
            }
            group.bench_with_input(BenchmarkId::new(engine.name(), n), &n, |bencher, _| {
                bencher.iter(|| engine.count(&pp, &b));
            });
        }
    }
    group.finish();
}

fn engines_on_free_path(c: &mut Criterion) {
    // Quantifier-free path P_2 (3 liberal variables): #Hom-DP territory.
    let query = queries::path_query(2);
    let pp = pp_of(&query);
    let mut group = c.benchmark_group("F1/path2");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(7 + n as u64), n, 0.1);
        for engine in [
            &HomDpEngine as &dyn PpCountingEngine,
            &FptEngine,
            &RelalgEngine,
        ] {
            group.bench_with_input(BenchmarkId::new(engine.name(), n), &n, |bencher, _| {
                bencher.iter(|| engine.count(&pp, &b));
            });
        }
    }
    group.finish();
}

/// P1: `engine` on one worker against the same engine sharded across
/// 1, 2 and 4 workers, on random digraphs of each size (seeded with
/// `seed + n`). Counts are asserted identical before timing starts.
fn sharded_vs_sequential(
    c: &mut Criterion,
    group: &str,
    engine: &dyn PpCountingEngine,
    query: &Query,
    (sizes, seed, density): (&[usize], u64, f64),
) {
    let pp = pp_of(query);
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    for &n in sizes {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(seed + n as u64), n, density);
        let sequential = engine.count(&pp, &b);
        group.bench_with_input(BenchmarkId::new(engine.name(), n), &n, |bencher, _| {
            bencher.iter(|| engine.count(&pp, &b));
        });
        for threads in [1usize, 2, 4] {
            let name = format!("{}/{threads}t", engine.name());
            assert_eq!(
                engine.count_threads(&pp, &b, threads),
                sequential,
                "{name} on {n}"
            );
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bencher, _| {
                bencher.iter(|| engine.count_threads(&pp, &b, threads));
            });
        }
    }
    group.finish();
}

fn parallel_vs_sequential_fpt(c: &mut Criterion) {
    // The largest F1 structure sizes. Expect ~linear scaling in threads
    // on multi-core runners.
    let query = queries::quantified_path_query(3);
    sharded_vs_sequential(c, "P1/qpath3-par", &FptEngine, &query, (&[64, 96], 0, 0.08));
}

fn parallel_vs_sequential_brute(c: &mut Criterion) {
    // The assignment sweep is embarrassingly parallel, so this series
    // is the cleanest speedup readout.
    let query = queries::path_query(2);
    sharded_vs_sequential(
        c,
        "P1/path2-brute-par",
        &BruteForceEngine,
        &query,
        (&[16, 24], 7, 0.1),
    );
}

criterion_group!(
    benches,
    engines_on_quantified_path,
    engines_on_free_path,
    parallel_vs_sequential_fpt,
    parallel_vs_sequential_brute
);
criterion_main!(benches);
