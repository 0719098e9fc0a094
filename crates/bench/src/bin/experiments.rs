//! Prints the tables and series for the experiment ids listed in
//! `docs/BENCHMARK.md` (`T1`, `E1`–`E6`, `F1`–`F4`, `A1`–`A3`), and runs
//! the CI bench-smoke gates `P1` (sharded engines vs one worker), `P2`
//! (prepared-query amortization and batched counting), `P3` (flat arena
//! relations vs the seed nested-`Vec` layout) and `P4` (incremental
//! streaming maintenance vs prepare-once/recount-each-checkpoint).
//!
//! The gates collect their rows and ratios into one [`Report`], printed
//! as one table and written to `BENCH.json` (override the path with
//! `EPQ_BENCH_JSON`). The binary then exits 1, naming each failed gate,
//! if any row's result disagrees with its reference or a gated ratio
//! (`join_speedup`, `incremental_speedup`) is below 1.0.
//!
//! ```sh
//! cargo run -p epq-bench --release --bin experiments                  # all
//! cargo run -p epq-bench --release --bin experiments -- T1 F2        # some
//! cargo run -p epq-bench --release --bin experiments -- P1 P2 P3 P4  # CI gates
//! ```

use epq_bench::{
    p4_stream_log, pp_of, row, rule, stream_incremental, stream_recount, time_engine, time_us,
    timed, Report, Row,
};
use epq_bigint::Natural;
use epq_core::classify::FamilyReport;
use epq_core::count::{count_ep, count_ep_with};
use epq_core::equivalence::{counting_equivalent, empirically_counting_equivalent};
use epq_core::iex::{evaluate_signed_sum, inclusion_exclusion_terms, star};
use epq_core::oracle;
use epq_core::plus::plus_decomposition;
use epq_counting::brute;
use epq_counting::engines::{
    all_engines, BruteForceEngine, FptEngine, HomDpEngine, PpCountingEngine,
};
use epq_graph::cliques;
use epq_logic::parser::parse_query;
use epq_logic::query::infer_signature;
use epq_logic::{dnf, PpFormula, Query};
use epq_structures::{Signature, Structure};
use epq_workloads::{data, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("epq experiments — Chen & Mengel (PODS 2016) reproduction\n");
    if want("T1") {
        t1_trichotomy_table();
    }
    if want("E1") {
        e1_example_4_1();
    }
    if want("E2") {
        e2_cancellation();
    }
    if want("E3") {
        e3_oracle_recovery();
    }
    if want("E4") {
        e4_theta_plus();
    }
    if want("E5") {
        e5_counting_equivalence();
    }
    if want("E6") {
        e6_general_recovery();
    }
    if want("F1") {
        f1_engine_scaling();
    }
    if want("F2") {
        f2_sharp_clique_hardness();
    }
    if want("F3") {
        f3_case_two_scaling();
    }
    if want("F4") {
        f4_random_ucq_cancellation();
    }
    let gates = [
        ("P1", p1_parallel_engines as fn(&mut Report)),
        ("P2", p2_prepared_queries),
        ("P3", p3_relalg_layouts),
        ("P4", p4_streaming),
    ];
    let mut report = Report::new(epq_pool::available_threads());
    let mut ran = Vec::new();
    for (id, run) in gates {
        if want(id) {
            run(&mut report);
            ran.push(id);
        }
    }
    if want("A1") {
        a1_distinguisher_ablation();
    }
    if want("A2") {
        a2_merging_ablation();
    }
    if want("A3") {
        a3_case_two_reduction();
    }
    if !ran.is_empty() {
        check_gates(&report, &ran.join(", "));
    }
}

/// Prints the gate report, writes it to `BENCH.json` (or
/// `$EPQ_BENCH_JSON`) — before any exit, so a failed run still leaves
/// the report behind — and exits 1 listing every failed gate.
fn check_gates(report: &Report, ran: &str) {
    println!("== {ran}: bench-smoke gates ==");
    print!("{}", report.table());
    let path = std::env::var("EPQ_BENCH_JSON").unwrap_or_else(|_| "BENCH.json".to_string());
    let mut failures = report.failures();
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("report written to {path}"),
        Err(e) => failures.push(format!("could not write {path}: {e}")),
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!("all counts agree and every gated ratio holds \u{2714}\n");
}

/// P1 — the `fpt` and `brute-force` engines sharded across 1/2/4
/// workers: per-thread-count medians, the speedup at 4 workers, and a
/// hard agreement gate against the 1-worker count.
fn p1_parallel_engines(report: &mut Report) {
    // One sweep per (family, n); the 1-worker run is the reference.
    let mut measure = |family: &'static str,
                       query: &Query,
                       sizes: &[usize],
                       density: f64,
                       seed_offset: u64,
                       engine: &dyn PpCountingEngine| {
        let pp = pp_of(query);
        for &n in sizes {
            let b = data::random_digraph(
                &mut StdRng::seed_from_u64(seed_offset + n as u64),
                n,
                density,
            );
            let runs: Vec<(usize, String, f64)> = [1usize, 2, 4]
                .into_iter()
                .map(|t| {
                    let (count, us) = time_engine(engine, &pp, &b, t, 3);
                    (t, count, us)
                })
                .collect();
            let (_, one_count, one_us) = &runs[0];
            for (t, count, us) in &runs {
                report.rows.push(Row {
                    experiment: "P1",
                    family,
                    variant: format!("{}/{t}t", engine.name()),
                    n,
                    threads: *t,
                    median_us: *us,
                    result: count.clone(),
                    agrees: count == one_count,
                });
            }
            let widest_us = runs[runs.len() - 1].2;
            report.ratio(
                format!("{family}_n{n}_speedup_4t"),
                one_us / widest_us,
                None,
            );
        }
    };

    // qpath3 is the largest `engines` bench family; path2 stresses the
    // brute enumerator's sharded assignment sweep.
    measure(
        "qpath3",
        &queries::quantified_path_query(3),
        &[48, 96],
        0.08,
        0,
        &FptEngine,
    );
    measure(
        "path2-brute",
        &queries::path_query(2),
        &[16, 24],
        0.1,
        7,
        &BruteForceEngine,
    );
}

/// P2 — the prepared-query architecture: prepare-once vs
/// prepare-per-call on a 32-structure batch, batch-vs-loop fan-out at
/// 1/2/4 threads, and the classifier cache. Every amortized or batched
/// count is checked against the prepare-per-call reference.
fn p2_prepared_queries(report: &mut Report) {
    use epq_core::prepared::{classifier_cache_clear, classifier_cache_stats, PreparedQuery};

    let query =
        parse_query("(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))")
            .unwrap();
    let sig = infer_signature([query.formula()]).unwrap();
    let batch = data::random_digraph_batch(&mut StdRng::seed_from_u64(2024), 32, 10, 0.18);
    let n = batch.len();

    // A prepare on a cold classifier cache: the whole per-query phase.
    let cold_prepare = || {
        classifier_cache_clear();
        PreparedQuery::prepare(&query, &sig).unwrap()
    };
    // The reference: the whole per-query phase redone per structure.
    let (refs, per_call_us) = timed(3, || {
        batch
            .iter()
            .map(|b| cold_prepare().count(b))
            .collect::<Vec<_>>()
    });
    // Prepare once, count in a sequential loop.
    let (once, once_us) = timed(3, || {
        let p = cold_prepare();
        batch.iter().map(|b| p.count(b)).collect::<Vec<_>>()
    });
    // Batched fan-out at 1/2/4 threads against the sequential loop.
    let prepared = PreparedQuery::prepare(&query, &sig).unwrap();
    let (looped, loop_us) = timed(3, || batch.iter().map(|b| prepared.count(b)).collect());
    let mut measured = vec![
        ("prepare", "per-call".into(), 1, per_call_us, refs.clone()),
        ("prepare", "once+loop".into(), 1, once_us, once),
        ("batch", "loop".into(), 1, loop_us, looped),
    ];
    for threads in [1usize, 2, 4] {
        let (counts, us) = timed(3, || prepared.count_batch(&batch, threads));
        measured.push(("batch", format!("pool/{threads}t"), threads, us, counts));
    }
    let widest_us = measured[measured.len() - 1].3;
    for (family, variant, threads, median_us, counts) in measured {
        let total = counts.iter().fold(Natural::zero(), |a, c| a + c.clone());
        report.rows.push(Row {
            experiment: "P2",
            family,
            variant,
            n,
            threads,
            median_us,
            result: total.to_string(),
            agrees: counts == refs,
        });
    }

    // Classifier cache: the second classification of the same
    // canonical query must be a hit.
    classifier_cache_clear();
    let before = classifier_cache_stats();
    let classify = || {
        let _ = PreparedQuery::prepare(&query, &sig)
            .unwrap()
            .analysis()
            .max_core_treewidth;
    };
    let cold_us = time_us(1, classify);
    let warm_us = time_us(3, classify);
    let cache_hit = classifier_cache_stats().hits > before.hits;
    for (variant, median_us, agrees) in [("cold", cold_us, true), ("cached", warm_us, cache_hit)] {
        report.rows.push(Row {
            experiment: "P2",
            family: "classify",
            variant: variant.into(),
            n: 1,
            threads: 1,
            median_us,
            result: String::new(),
            agrees,
        });
    }

    report.ratio("prepare_once_speedup", per_call_us / once_us, None);
    report.ratio("batch_speedup", loop_us / widest_us, None);
    report.ratio("classify_cache_speedup", cold_us / warm_us, None);
}

/// P3 — the flat arena-backed `Relation` against the seed nested-`Vec`
/// layout (`epq_bench::naive`), on identical inputs, per primitive:
/// join-heavy (single joins at two cardinalities plus a three-way
/// chain), projection, and union. The "naive" rows *are* the seed
/// medians, re-measured on the same machine in the same run, and every
/// operation doubles as a row-for-row agreement check. The median
/// join-heavy speedup is gated at `join_speedup >= 1.0`.
fn p3_relalg_layouts(report: &mut Report) {
    use epq_bench::naive::NaiveRelation;
    use epq_bench::{p3_join_pair, p3_rows};
    use epq_relalg::Relation;

    /// Flat and naive results must be the same row set in the same
    /// canonical order.
    fn same_rows(flat: &Relation, naive: &NaiveRelation) -> bool {
        flat.schema() == naive.schema()
            && flat.len() == naive.len()
            && flat
                .rows()
                .zip(naive.rows().iter())
                .all(|(a, b)| a == b.as_slice())
    }

    /// Times `flat` and `naive` (5 runs each), records one row per
    /// layout, and returns the naive/flat speedup.
    fn race(
        report: &mut Report,
        family: &'static str,
        op: &str,
        n: usize,
        flat: impl FnMut() -> Relation,
        naive: impl FnMut() -> NaiveRelation,
    ) -> f64 {
        let (flat_out, flat_us) = timed(5, flat);
        let (naive_out, naive_us) = timed(5, naive);
        let agrees = same_rows(&flat_out, &naive_out);
        for (layout, us, out_rows) in [
            ("naive", naive_us, naive_out.len()),
            ("flat", flat_us, flat_out.len()),
        ] {
            report.rows.push(Row {
                experiment: "P3",
                family,
                variant: format!("{op}/{layout}"),
                n,
                threads: 1,
                median_us: us,
                result: out_rows.to_string(),
                agrees,
            });
        }
        naive_us / flat_us
    }

    // Join-heavy family: R(0,1) ⋈ S(1,2) at two cardinalities, plus a
    // three-way chain — the shape every pp-formula evaluation takes.
    let mut join_speedups: Vec<f64> = Vec::new();
    for n in [2000usize, 8000] {
        let ((rs, rr), (ss, sr)) = p3_join_pair(n);
        let flat_r = Relation::new(rs.clone(), rr.clone());
        let flat_s = Relation::new(ss.clone(), sr.clone());
        let naive_r = NaiveRelation::new(rs, rr);
        let naive_s = NaiveRelation::new(ss, sr);
        join_speedups.push(race(
            report,
            "join-heavy",
            "join2",
            n,
            || flat_r.join(&flat_s, 1),
            || naive_r.join(&naive_s),
        ));
    }
    {
        let n = 4000usize;
        let ((rs, rr), (ss, sr)) = p3_join_pair(n);
        let ts = vec![2u32, 3];
        let tr = p3_rows(3000 + n as u64, n, &[61, 17]);
        let flat_r = Relation::new(rs.clone(), rr.clone());
        let flat_s = Relation::new(ss.clone(), sr.clone());
        let flat_t = Relation::new(ts.clone(), tr.clone());
        let naive_r = NaiveRelation::new(rs, rr);
        let naive_s = NaiveRelation::new(ss, sr);
        let naive_t = NaiveRelation::new(ts, tr);
        join_speedups.push(race(
            report,
            "join-heavy",
            "chain3",
            n,
            || flat_r.join(&flat_s, 1).join(&flat_t, 1),
            || naive_r.join(&naive_s).join(&naive_t),
        ));
    }

    // Projection: arity-4 rows down to a reordered pair.
    for n in [8000usize, 32000] {
        let schema = vec![0u32, 1, 2, 3];
        let data = p3_rows(31 + n as u64, n, &[97, 89, 7, 5]);
        let flat = Relation::new(schema.clone(), data.clone());
        let naive = NaiveRelation::new(schema, data);
        let speedup = race(
            report,
            "project",
            "project",
            n,
            || flat.project(&[3, 1]),
            || naive.project(&[3, 1]),
        );
        report.ratio(format!("project_n{n}_speedup"), speedup, None);
    }

    // Union: two same-schema sides (the UCQ disjunct accumulation).
    for n in [8000usize, 32000] {
        let schema = vec![0u32, 1];
        let left = p3_rows(77 + n as u64, n, &[251, 127]);
        let right = p3_rows(78 + n as u64, n, &[251, 127]);
        let flat_l = Relation::new(schema.clone(), left.clone());
        let flat_r = Relation::new(schema.clone(), right.clone());
        let naive_l = NaiveRelation::new(schema.clone(), left);
        let naive_r = NaiveRelation::new(schema, right);
        let speedup = race(
            report,
            "union",
            "union",
            n,
            || flat_l.union(&flat_r),
            || naive_l.union(&naive_r),
        );
        report.ratio(format!("union_n{n}_speedup"), speedup, None);
    }

    // The gate statistic: the median speedup across the join-heavy
    // family.
    join_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    report.ratio(
        "join_speedup",
        join_speedups[join_speedups.len() / 2],
        Some(1.0),
    );
}

/// P4 — streaming maintenance: `LiveCount` (per-disjunct read sets +
/// cached relational-algebra scans) against prepare-once/
/// recount-each-checkpoint on the same insert log, gated at
/// `incremental_speedup >= 1.0`. A second, smaller family runs the
/// DP-table fallback (`fpt` engine) for agreement. Every checkpoint
/// count is checked against the recount; a row's result is the count
/// at the last checkpoint.
fn p4_streaming(report: &mut Report) {
    use epq_counting::engines::RelalgEngine;

    // The gate family: a large, quiet E next to a hot F stream. The
    // E-path term dominates a full recount; incremental maintenance
    // recounts only the F-reading terms at each checkpoint.
    let query = parse_query("(x,y,z) := (E(x,y) & E(y,z)) | (F(x,y) & F(y,z))").unwrap();
    let log = p4_stream_log(48, 1600, 300, 30, 41);
    let relalg: fn() -> Box<dyn PpCountingEngine> = || Box::new(RelalgEngine);
    let (refs, recount_us) = timed(3, || stream_recount(&query, &log, relalg));
    let (incr, incr_us) = timed(3, || stream_incremental(&query, &log, relalg, 1));
    // Pool-parallel maintenance: same counts, joins sharded.
    let (par, par_us) = timed(3, || stream_incremental(&query, &log, relalg, 4));

    // The DP-table fallback family (smaller: every affected term is
    // fully recounted through the fpt engine — this checks agreement,
    // not speed).
    let fallback_query = parse_query("(x,y) := (E(x,y) & E(y,x)) | F(x,y)").unwrap();
    let small = p4_stream_log(12, 60, 60, 12, 43);
    let fpt: fn() -> Box<dyn PpCountingEngine> = || Box::new(FptEngine);
    let fb_refs = stream_recount(&fallback_query, &small, fpt);
    let (fb, fb_us) = timed(3, || stream_incremental(&fallback_query, &small, fpt, 1));

    let (n, fb_n) = (log.insert_count(), small.insert_count());
    for (family, variant, n, threads, median_us, counts, refs) in [
        ("skewed-feed", "recount", n, 1, recount_us, &refs, &refs),
        ("skewed-feed", "incremental", n, 1, incr_us, &incr, &refs),
        ("skewed-feed", "incr-par/4t", n, 4, par_us, &par, &refs),
        ("fallback-fpt", "incremental", fb_n, 1, fb_us, &fb, &fb_refs),
    ] {
        report.rows.push(Row {
            experiment: "P4",
            family,
            variant: variant.into(),
            n,
            threads,
            median_us,
            result: counts.last().map(ToString::to_string).unwrap_or_default(),
            agrees: counts == refs,
        });
    }
    report.ratio("incremental_speedup", recount_us / incr_us, Some(1.0));
}

/// A1 — ablation: Lemma 5.12's distinguishing structure, randomized
/// search vs the paper's deterministic amplification.
fn a1_distinguisher_ablation() {
    println!("== A1 (ablation): distinguishing structures — search vs amplification ==");
    let sig = data::digraph_signature();
    let make = |text: &str| PpFormula::from_query(&parse_query(text).unwrap(), &sig).unwrap();
    let f1 = make("E(x,y)");
    let f2 = make("(x, y) := E(x,y) & E(y,y)");
    let f3 = make("(x, y) := E(x,y) & E(y,x)");
    let reps = [&f1, &f2, &f3];

    let t_search = time_us(3, || {
        let _ = oracle::find_distinguishing_structure(&reps);
    });
    let c_search = oracle::find_distinguishing_structure(&reps);
    let t_amplified = time_us(1, || {
        let _ = epq_core::distinguish::amplified_distinguishing_structure(&reps);
    });
    let c_amplified = epq_core::distinguish::amplified_distinguishing_structure(&reps);
    println!(
        "  randomized search : {:>8.0} us, |C| = {:>4} elements, valid: {}",
        t_search,
        c_search.universe_size(),
        oracle::is_distinguishing(&c_search, &reps)
    );
    println!(
        "  amplification     : {:>8.0} us, |C| = {:>4} elements, valid: {}",
        t_amplified,
        c_amplified.universe_size(),
        oracle::is_distinguishing(&c_amplified, &reps)
    );
    println!("  (the proof's construction is explicit but yields larger structures)\n");
}

/// A2 — ablation: φ* merging by counting equivalence (Theorem 5.4) vs
/// merging by logical equivalence only.
fn a2_merging_ablation() {
    println!("== A2 (ablation): phi* merging — counting equivalence vs logical equivalence ==");
    let sig = data::digraph_signature();
    let mut totals = (0usize, 0usize, 0usize);
    let samples = 30;
    for seed in 0..samples as u64 {
        let q = queries::random_ucq(&mut StdRng::seed_from_u64(seed), 3, 4, 2, 0.2);
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        let raw = inclusion_exclusion_terms(&ds);
        // Merge by logical equivalence only.
        let mut logical: Vec<(PpFormula, epq_bigint::Integer)> = Vec::new();
        for t in &raw {
            match logical
                .iter_mut()
                .find(|(f, _)| f.logically_equivalent(&t.formula))
            {
                Some((_, c)) => *c += &t.coefficient,
                None => logical.push((t.formula.clone(), t.coefficient.clone())),
            }
        }
        logical.retain(|(_, c)| !c.is_zero());
        let counting = star(&ds);
        totals.0 += raw.len();
        totals.1 += logical.len();
        totals.2 += counting.len();
    }
    println!(
        "  over {samples} random 3-disjunct UCQs: raw terms {}, after logical-equivalence \
         merge {}, after counting-equivalence merge {}",
        totals.0, totals.1, totals.2
    );
    println!("  (counting equivalence merges strictly more — Theorem 5.4's payoff)\n");
}

/// A3 — the case-2 reduction made concrete: counting pendant-clique
/// answers with a clique-decision oracle.
fn a3_case_two_reduction() {
    println!("== A3: case-2 counting with a clique-DECISION oracle ==");
    let widths = [6, 8, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "k".into(),
                "n".into(),
                "count".into(),
                "oracle calls".into(),
                "agree".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in 2..=3usize {
        for n in [12usize, 24] {
            let g = epq_graph::generators::random_gnp(
                n,
                0.35,
                &mut StdRng::seed_from_u64(50 + n as u64),
            );
            let mut calls = 0usize;
            let mut decision_oracle = |h: &epq_graph::Graph, k: usize| {
                calls += 1;
                epq_graph::cliques::has_k_clique(h, k)
            };
            let via_oracle = epq_counting::clique::count_pendant_cliques_via_decision_oracle(
                &g,
                k,
                &mut decision_oracle,
            );
            let query = queries::pendant_clique_query(k);
            let pp = pp_of(&query);
            let b = epq_counting::clique::graph_to_structure(&g);
            let via_query = FptEngine.count(&pp, &b);
            println!(
                "{}",
                row(
                    &[
                        k.to_string(),
                        n.to_string(),
                        via_oracle.to_string(),
                        calls.to_string(),
                        (via_oracle == via_query).to_string()
                    ],
                    &widths
                )
            );
        }
    }
    println!("  (a counting problem answered with |V| decision queries — Thm 3.2 case 2)\n");
}

fn family<I>(name: &str, members: I) -> FamilyReport
where
    I: IntoIterator<Item = (usize, Query)>,
{
    FamilyReport::build(
        name,
        members.into_iter().map(|(k, q)| {
            let sig = infer_signature([q.formula()]).unwrap();
            (k, q, sig)
        }),
    )
    .expect("family classifies")
}

/// T1 — the trichotomy table (Theorem 3.2).
fn t1_trichotomy_table() {
    println!("== T1: trichotomy table (Theorem 3.2) ==");
    let widths = [24, 22, 22, 26];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "core tw by k".into(),
                "contract tw by k".into(),
                "regime".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    let families = vec![
        (
            "paths P_k",
            family("paths", (1..=6).map(|k| (k, queries::path_query(k)))),
        ),
        (
            "stars S_k",
            family("stars", (1..=6).map(|k| (k, queries::star_query(k)))),
        ),
        (
            "cycles C_k",
            family("cycles", (3..=6).map(|k| (k, queries::cycle_query(k)))),
        ),
        (
            "exists-paths Q_k",
            family(
                "qpaths",
                (2..=6).map(|k| (k, queries::quantified_path_query(k))),
            ),
        ),
        (
            "pendant cliques W_k",
            family(
                "pendant",
                (2..=5).map(|k| (k, queries::pendant_clique_query(k))),
            ),
        ),
        (
            "free cliques K_k",
            family("cliques", (2..=5).map(|k| (k, queries::clique_query(k)))),
        ),
        (
            "free grids G_kxk",
            family("grids", (1..=3).map(|k| (k, queries::grid_query(k, k)))),
        ),
    ];
    for (label, fam) in families {
        let cores: Vec<String> = fam.measures.iter().map(|m| m.1.to_string()).collect();
        let contracts: Vec<String> = fam.measures.iter().map(|m| m.2.to_string()).collect();
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    cores.join(","),
                    contracts.join(","),
                    fam.inferred_regime().to_string()
                ],
                &widths
            )
        );
    }
    println!();
}

/// E1 — Example 4.1: the inclusion–exclusion identity.
fn e1_example_4_1() {
    println!("== E1: Example 4.1 (inclusion-exclusion identity) ==");
    let b = data::example_4_3_structure();
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let ds = dnf::disjuncts(&query, b.signature()).unwrap();
    let c1 = brute::count_pp_brute(&ds[0], &b);
    let c2 = brute::count_pp_brute(&ds[1], &b);
    let c12 = brute::count_pp_brute(&PpFormula::conjoin(&[&ds[0], &ds[1]]), &b);
    let whole = brute::count_ep_brute(&query, &b);
    println!("  phi = {text}");
    println!("  |phi(B)| = {whole}; |phi1| = {c1}, |phi2| = {c2}, |phi1^phi2| = {c12}");
    println!(
        "  identity |phi| = |phi1|+|phi2|-|phi1^phi2|: {} ✔\n",
        (c1 + c2).checked_sub(&c12).unwrap() == whole
    );
}

/// E2 — Examples 4.2/5.15: cancellation and its measured payoff.
fn e2_cancellation() {
    println!("== E2: Examples 4.2/5.15 (phi* cancellation) ==");
    let text = "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let raw = inclusion_exclusion_terms(&ds);
    let star_terms = star(&ds);
    let tw = |pp: &PpFormula| epq_graph::treewidth_exact(&pp.structure().gaifman_graph()).unwrap();
    println!(
        "  raw terms: {} (max tw {})",
        raw.len(),
        raw.iter().map(|t| tw(&t.formula)).max().unwrap()
    );
    println!(
        "  phi* terms: {} (max tw {}), coefficients {:?}",
        star_terms.len(),
        star_terms.iter().map(|t| tw(&t.formula)).max().unwrap(),
        star_terms
            .iter()
            .map(|t| t.coefficient.to_i64().unwrap())
            .collect::<Vec<_>>()
    );
    // Measured payoff: evaluate both signed sums on a random structure.
    let b = data::random_digraph(&mut StdRng::seed_from_u64(42), 48, 0.12);
    let raw_us = time_us(3, || {
        let _ = evaluate_signed_sum(&raw, &b, &FptEngine);
    });
    let star_us = time_us(3, || {
        let _ = evaluate_signed_sum(&star_terms, &b, &FptEngine);
    });
    let check_raw = evaluate_signed_sum(&raw, &b, &FptEngine);
    let check_star = evaluate_signed_sum(&star_terms, &b, &FptEngine);
    println!(
        "  on G(48, 0.12): raw-sum {:.0} us vs phi*-sum {:.0} us (speedup {:.1}x), counts agree: {}\n",
        raw_us,
        star_us,
        raw_us / star_us,
        check_raw == check_star
    );
}

/// E3 — Example 4.3: oracle recovery, all-free case.
fn e3_oracle_recovery() {
    println!("== E3: Example 4.3 (Vandermonde oracle recovery) ==");
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let b = data::example_4_3_structure();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let star_terms = star(&ds);
    let mut oracle_fn = |d: &Structure| count_ep(&query, &sig, d, &FptEngine).unwrap();
    let recovered = oracle::recover_all_free_counts(&star_terms, &b, &mut oracle_fn);
    for (i, n) in &recovered.counts {
        let direct = brute::count_pp_brute(&star_terms[*i].formula, &b);
        println!(
            "  |{}(B)| recovered = {n}, direct = {direct} {}",
            star_terms[*i].formula,
            if *n == direct { "✔" } else { "✘" }
        );
    }
    println!("  oracle queries: {}\n", recovered.oracle_queries);
}

/// E4 — Example 5.21: the theta-plus construction.
fn e4_theta_plus() {
    println!("== E4: Example 5.21 (theta-plus) ==");
    let text = "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y)) \
                | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let dec = plus_decomposition(&query, &sig).unwrap();
    println!(
        "  normalized disjuncts {}, all-free {}, sentences {}",
        dec.disjuncts.len(),
        dec.all_free.len(),
        dec.sentences.len()
    );
    println!(
        "  theta*_af: {} terms; theta-_af: {}",
        dec.star_af.len(),
        dec.minus_af().len()
    );
    println!("  theta+ =");
    for f in &dec.plus {
        println!("    {f}");
    }
    println!("  (paper: theta+ = {{phi1, theta1}}) ✔\n");
}

/// E5 — Theorem 5.4: counting-equivalence decision.
fn e5_counting_equivalence() {
    println!("== E5: Theorem 5.4 (counting equivalence decision) ==");
    let sig = data::digraph_signature();
    let pairs = [
        ("E(x,y)", "E(w,z)", true),
        ("E(x,y) & E(y,z)", "E(a,b) & E(b,c)", true),
        ("E(x,y) & E(y,z)", "E(a,b) & E(a,c)", false),
        ("(x) := exists u . E(x,u)", "(y) := exists v . E(y,v)", true),
        (
            "(x) := exists u . E(x,u)",
            "(y) := exists v . E(v,y)",
            false,
        ),
    ];
    let widths = [30, 30, 10, 12];
    println!(
        "{}",
        row(
            &[
                "phi1".into(),
                "phi2".into(),
                "decided".into(),
                "median us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for (ta, tb, expected) in pairs {
        let a = PpFormula::from_query(&parse_query(ta).unwrap(), &sig).unwrap();
        let b = PpFormula::from_query(&parse_query(tb).unwrap(), &sig).unwrap();
        let decided = counting_equivalent(&a, &b);
        assert_eq!(decided, expected);
        let us = time_us(5, || {
            let _ = counting_equivalent(&a, &b);
        });
        println!(
            "{}",
            row(
                &[
                    ta.into(),
                    tb.into(),
                    decided.to_string(),
                    format!("{us:.0}")
                ],
                &widths
            )
        );
    }
    // Random agreement sweep vs an empirical battery.
    let mut agree = 0usize;
    let total = 60;
    let battery: Vec<Structure> = (0..4)
        .map(|i| data::random_digraph(&mut StdRng::seed_from_u64(900 + i), 3, 0.4))
        .collect();
    for seed in 0..total as u64 {
        let qa = queries::random_cq(&mut StdRng::seed_from_u64(seed), 3, 2, 0.3);
        let qb = queries::random_cq(&mut StdRng::seed_from_u64(seed + 7000), 3, 2, 0.3);
        let a = PpFormula::from_query(&qa, &sig).unwrap();
        let b = PpFormula::from_query(&qb, &sig).unwrap();
        let decided = counting_equivalent(&a, &b);
        let empirical = empirically_counting_equivalent(&a, &b, &battery);
        // decision ⇒ empirical; ¬empirical ⇒ ¬decision.
        if !decided || empirical {
            agree += 1;
        }
    }
    println!("  random sweep: {agree}/{total} decisions consistent with empirical battery\n");
}

/// E6 — Appendix A: general-case recovery with sentence disjuncts.
fn e6_general_recovery() {
    println!("== E6: general-case oracle recovery (Appendix A) ==");
    let text = "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))";
    let query = parse_query(text).unwrap();
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let dec = plus_decomposition(&query, &sig).unwrap();
    let mut b = Structure::new(sig.clone(), 3);
    b.add_tuple_named("E", &[0, 1]);
    b.add_tuple_named("F", &[1, 2]);
    b.add_tuple_named("F", &[0, 1]);
    let mut calls = 0usize;
    let mut oracle_fn = |d: &Structure| {
        calls += 1;
        count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1)
    };
    let recovered = oracle::recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle_fn);
    for (formula, n) in &recovered {
        let direct = brute::count_pp_brute(formula, &b);
        println!(
            "  |{formula}(B)| recovered = {n}, direct = {direct} {}",
            if *n == direct { "✔" } else { "✘" }
        );
    }
    println!("  oracle queries: {calls}\n");
}

/// F1 — engine scaling on an FPT-family query (Theorem 3.2 case 1).
fn f1_engine_scaling() {
    println!("== F1: engine scaling, query Q_3(x,y) = ∃u,v path (FPT family) ==");
    let query = queries::quantified_path_query(3);
    let pp = pp_of(&query);
    let widths = [8, 12, 14, 14, 14, 14];
    println!(
        "{}",
        row(
            &[
                "n".into(),
                "count".into(),
                "brute us".into(),
                "relalg us".into(),
                "hom-dp us".into(),
                "fpt us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for n in [8usize, 16, 32, 64, 128] {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(n as u64), n, 0.08);
        let mut cells = vec![n.to_string()];
        let mut counts = Vec::new();
        for engine in all_engines() {
            let runs = if engine.name() == "brute-force" && n > 64 {
                1
            } else {
                3
            };
            let (c, us) = time_engine(engine.as_ref(), &pp, &b, 1, runs);
            counts.push((engine.name(), c));
            cells.push(format!("{us:.0}"));
        }
        let (first, want) = &counts[0];
        for (name, c) in &counts[1..] {
            assert_eq!(c, want, "F1 n={n}: {name} disagrees with {first}");
        }
        cells.insert(1, want.clone());
        println!("{}", row(&cells, &widths));
    }
    println!("  (all engines agree on counts; FPT/hom-dp/relalg scale polynomially)\n");

    // F1b: the real FPT payoff is in *query-size* scaling — a free path
    // P_k has k+1 liberal variables, so brute force pays |B|^(k+1) while
    // the DP engines stay polynomial.
    println!("== F1b: query-size scaling, free paths P_k on G(8, 0.25) ==");
    let b = data::random_digraph(&mut StdRng::seed_from_u64(99), 8, 0.25);
    let widths = [6, 12, 14, 14, 14];
    println!(
        "{}",
        row(
            &[
                "k".into(),
                "count".into(),
                "brute us".into(),
                "hom-dp us".into(),
                "fpt us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in [2usize, 3, 4, 5, 6] {
        let pp = pp_of(&queries::path_query(k));
        let (count, brute_us) = time_engine(&BruteForceEngine, &pp, &b, 1, 1);
        let (dp_count, dp_us) = time_engine(&HomDpEngine, &pp, &b, 1, 3);
        let (fpt_count, fpt_us) = time_engine(&FptEngine, &pp, &b, 1, 3);
        for (name, c) in [("hom-dp", &dp_count), ("fpt", &fpt_count)] {
            assert_eq!(c, &count, "F1b k={k}: {name} disagrees with brute-force");
        }
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    count,
                    format!("{brute_us:.0}"),
                    format!("{dp_us:.0}"),
                    format!("{fpt_us:.0}")
                ],
                &widths
            )
        );
    }
    println!("  (brute force pays |B|^(k+1); the DP engines stay flat — the FPT crossover)\n");
}

/// F2 — #Clique-hardness (Theorem 3.2 case 3): counting k-cliques by
/// query counting vs the direct graph algorithm.
fn f2_sharp_clique_hardness() {
    println!("== F2: k-clique counting via answer counting (case 3) ==");
    let g = epq_graph::generators::random_gnp(30, 0.4, &mut StdRng::seed_from_u64(7));
    let widths = [6, 12, 16, 16];
    println!(
        "{}",
        row(
            &[
                "k".into(),
                "#k-cliques".into(),
                "query-count us".into(),
                "graph-alg us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in 2..=5usize {
        let direct = cliques::count_k_cliques(&g, k);
        let via_query = epq_counting::clique::count_cliques_via_answers(&g, k, &FptEngine);
        assert_eq!(via_query.to_u64().unwrap() as u128, direct);
        let query_us = time_us(1, || {
            let _ = epq_counting::clique::count_cliques_via_answers(&g, k, &FptEngine);
        });
        let graph_us = time_us(3, || {
            let _ = cliques::count_k_cliques(&g, k);
        });
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    direct.to_string(),
                    format!("{query_us:.0}"),
                    format!("{graph_us:.0}")
                ],
                &widths
            )
        );
    }
    println!("  (time grows superpolynomially in k on both sides — the #W[1] wall)\n");
}

/// F3 — the Clique-equivalent regime (case 2): pendant-clique queries.
fn f3_case_two_scaling() {
    println!("== F3: pendant clique W_k(x) (case 2) — FPT in n, hard in k ==");
    let widths = [6, 8, 12, 14];
    println!(
        "{}",
        row(
            &["k".into(), "n".into(), "count".into(), "fpt us".into()],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in 2..=4usize {
        let query = queries::pendant_clique_query(k);
        let pp = pp_of(&query);
        for n in [10usize, 20, 40] {
            let g = epq_graph::generators::random_gnp(
                n,
                0.4,
                &mut StdRng::seed_from_u64(100 + n as u64),
            );
            let b = epq_counting::clique::graph_to_structure(&g);
            let (count, us) = time_engine(&FptEngine, &pp, &b, 1, 1);
            println!(
                "{}",
                row(
                    &[k.to_string(), n.to_string(), count, format!("{us:.0}")],
                    &widths
                )
            );
        }
    }
    println!("  (per fixed k, time polynomial in n; the k-dependence is exponential)\n");
}

/// F4 — random UCQ cancellation statistics.
fn f4_random_ucq_cancellation() {
    println!("== F4: phi* cancellation on random UCQs (s = 3 disjuncts) ==");
    let sig = data::digraph_signature();
    let mut survivors = Vec::new();
    let mut tw_drops = 0usize;
    let samples = 40;
    for seed in 0..samples as u64 {
        let q = queries::random_ucq(&mut StdRng::seed_from_u64(seed), 3, 3, 2, 0.2);
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        let raw = inclusion_exclusion_terms(&ds);
        let star_terms = star(&ds);
        survivors.push(star_terms.len());
        let tw = |pp: &PpFormula| {
            epq_graph::treewidth_exact(&pp.structure().gaifman_graph()).unwrap_or(99)
        };
        let raw_max = raw.iter().map(|t| tw(&t.formula)).max().unwrap_or(0);
        let star_max = star_terms.iter().map(|t| tw(&t.formula)).max().unwrap_or(0);
        if star_max < raw_max {
            tw_drops += 1;
        }
    }
    let avg: f64 = survivors.iter().sum::<usize>() as f64 / samples as f64;
    let min = survivors.iter().min().unwrap();
    let max = survivors.iter().max().unwrap();
    println!("  raw terms per query: 7; surviving phi* terms: avg {avg:.2}, min {min}, max {max}");
    println!("  queries where cancellation strictly lowered max treewidth: {tw_drops}/{samples}\n");
}
