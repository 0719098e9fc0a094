//! Property tests for `epq-core`: the oracle reductions round-trip on
//! random queries/structures, redundant disjuncts change no count,
//! width or `φ*_af`, the batched prepared-query API is bit-identical
//! to sequential counting at every thread count, incremental
//! streaming maintenance agrees with from-scratch recounts after every
//! random insert sequence, and the bucketed `φ*` merge keys
//! counting-equivalent terms alike and returns what the all-pairs merge
//! returns.

use epq_core::classify::classify_query;
use epq_core::count::{count_ep, count_ep_with};
use epq_core::equivalence::counting_equivalent;
use epq_core::iex::{inclusion_exclusion_terms, star, SignedPp};
use epq_core::incremental::LiveCount;
use epq_core::oracle;
use epq_core::plus::plus_decomposition;
use epq_core::prepared::{count_ep_batch, PreparedQuery};
use epq_counting::brute;
use epq_counting::engines::{FptEngine, RelalgEngine};
use epq_logic::{dnf, Atom, Formula, PpFormula, Query, Var};
use epq_structures::iso;
use epq_workloads::{data, queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // The oracle pipeline multiplies structure sizes (products B × C^ℓ
    // verified by brute force), so keep the case budget and the inputs
    // deliberately small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_free_recovery_roundtrips_on_random_ucqs(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
    ) {
        // Quantifier-free disjuncts keep every star term free; two
        // variables and two disjuncts keep the Vandermonde products
        // (whose recovered counts the test verifies by brute force)
        // small enough for the debug profile.
        let (disjuncts, n) = (2usize, 2usize);
        let query = queries::random_ucq(
            &mut StdRng::seed_from_u64(qseed), disjuncts, 2, 2, 0.0);
        let sig = data::digraph_signature();
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        prop_assume!(ds.iter().all(|d| d.is_free()));
        let star_terms = star(&ds);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.45);
        let mut oracle_fn =
            |d: &epq_structures::Structure| count_ep(&query, &sig, d, &FptEngine).unwrap();
        let recovered = oracle::recover_all_free_counts(&star_terms, &b, &mut oracle_fn);
        prop_assert_eq!(recovered.counts.len(), star_terms.len());
        prop_assert!(recovered.oracle_queries >= 1);
        for (i, count) in &recovered.counts {
            let direct = brute::count_pp_brute(&star_terms[*i].formula, &b);
            prop_assert_eq!(count, &direct, "star term {}", i);
        }
    }

    #[test]
    fn general_recovery_roundtrips_with_sentence_disjuncts(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
    ) {
        // A free part plus a random fully-quantified sentence disjunct
        // (built over fresh variable names so the sentence's binders
        // cannot capture the free part's liberal variables).
        let free = queries::random_ucq(&mut StdRng::seed_from_u64(qseed), 2, 2, 1, 0.0);
        let sentence = {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(qseed + 1);
            let names = ["s0", "s1"];
            let atoms: Vec<epq_logic::Formula> = (0..2)
                .map(|_| {
                    epq_logic::Formula::atom(
                        "E",
                        &[
                            names[rng.gen_range(0..2usize)],
                            names[rng.gen_range(0..2usize)],
                        ],
                    )
                })
                .collect();
            epq_logic::Formula::exists(&names, epq_logic::Formula::conjunction(atoms))
        };
        let formula = epq_logic::Formula::Or(
            Box::new(free.formula().clone()),
            Box::new(sentence),
        );
        let query = epq_logic::Query::new(formula, free.liberal().to_vec()).unwrap();
        let sig = data::digraph_signature();
        let dec = plus_decomposition(&query, &sig).unwrap();
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), 2, 0.5);
        let mut oracle_fn = |d: &epq_structures::Structure| {
            count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1)
        };
        let recovered =
            oracle::recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle_fn);
        prop_assert_eq!(recovered.len(), dec.plus.len());
        for (formula, count) in &recovered {
            let direct = brute::count_pp_brute(formula, &b);
            prop_assert_eq!(count, &direct, "formula {}", formula);
        }
    }
}

/// Disjunct `d` as a formula with its quantified variables renamed to
/// `r0, r1, …` (an α-variant), conjoined with `extra` atoms.
fn renamed_copy(d: &PpFormula, extra: Vec<Formula>) -> Formula {
    let s = d.liberal_count() as u32;
    let name = |e: u32| {
        if e < s {
            d.name(e).clone()
        } else {
            Var::new(format!("r{}", e - s))
        }
    };
    let mut atoms = extra;
    for (rel, relation, _) in d.signature().iter() {
        for t in d.structure().relation(rel).tuples() {
            atoms.push(Formula::Atom(Atom::new(
                relation,
                t.iter().map(|&e| name(e)).collect(),
            )));
        }
    }
    let bound: Vec<String> = (s..d.structure().universe_size() as u32)
        .map(|e| name(e).to_string())
        .collect();
    let bound: Vec<&str> = bound.iter().map(String::as_str).collect();
    Formula::exists(&bound, Formula::conjunction(atoms))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planted redundancy: an α-renamed copy of a disjunct, and a copy
    /// conjoined with one more atom (over the disjunct's variables and
    /// a fresh bound one), both entail the disjunct. Normalization
    /// drops them, so counts, widths and `φ⁺` are those of the original
    /// query, and no more free disjuncts are kept.
    #[test]
    fn planted_redundant_disjuncts_change_nothing(
        qseed in 0u64..10_000,
        sseed in 0u64..10_000,
        pick in 0usize..8,
        extra_rel in 0usize..2,
        args in (0usize..8, 0usize..8),
        first in any::<bool>(),
    ) {
        let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
        let query = queries::random_ucq_over(
            &mut StdRng::seed_from_u64(qseed), &sig, 2, 3, 2, 0.3);
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        let d = &ds[pick % ds.len()];
        let mut vars: Vec<Var> = d.liberal_names().to_vec();
        vars.extend((0..d.quantified_names().len()).map(|i| Var::new(format!("r{i}"))));
        vars.push(Var::new("rx"));
        let extra = Formula::Atom(Atom::new(
            ["E", "F"][extra_rel],
            vec![vars[args.0 % vars.len()].clone(), vars[args.1 % vars.len()].clone()],
        ));
        let planted_parts = Formula::exists(&["rx"], renamed_copy(d, vec![extra]))
            .or(renamed_copy(d, Vec::new()));
        // The copies go before or after the original disjuncts.
        let formula = if first {
            planted_parts.or(query.formula().clone())
        } else {
            query.formula().clone().or(planted_parts)
        };
        let planted = Query::new(formula, query.liberal().to_vec()).unwrap();

        let structures =
            data::random_structure_batch(&mut StdRng::seed_from_u64(sseed), 3, &sig, 3, 0.4, 9);
        let prepared = PreparedQuery::prepare(&planted, &sig).unwrap();
        for b in &structures {
            let expected = brute::count_ep_brute(&query, b);
            prop_assert_eq!(&brute::count_ep_brute(&planted, b), &expected);
            prop_assert_eq!(&prepared.count(b), &expected);
        }

        // `classify_query` bypasses the classifier cache, where the two
        // queries' canonical keys may coincide.
        let (before, after) = (
            classify_query(&query, &sig).unwrap(),
            classify_query(&planted, &sig).unwrap(),
        );
        prop_assert_eq!(after.max_core_treewidth, before.max_core_treewidth);
        prop_assert_eq!(after.max_contract_treewidth, before.max_contract_treewidth);
        prop_assert_eq!(after.plus_analyses.len(), before.plus_analyses.len());
        let (before, after) = (
            plus_decomposition(&query, &sig).unwrap(),
            plus_decomposition(&planted, &sig).unwrap(),
        );
        prop_assert!(after.all_free.len() <= before.all_free.len());
        prop_assert_eq!(after.star_af.len(), before.star_af.len());
    }

    #[test]
    fn batch_counts_match_sequential_loop_at_every_thread_count(
        qseed in 0u64..10_000,
        sseed in 0u64..10_000,
        batch in 1usize..=12,
        n in 1usize..=4,
    ) {
        let query = queries::random_ucq(&mut StdRng::seed_from_u64(qseed), 2, 3, 2, 0.3);
        let sig = data::digraph_signature();
        let structures =
            data::random_digraph_batch(&mut StdRng::seed_from_u64(sseed), batch, n, 0.4);
        let prepared = PreparedQuery::prepare(&query, &sig).unwrap();
        // The reference: one-at-a-time counting through the plain API
        // (itself cross-checked against brute force elsewhere).
        let sequential: Vec<_> = structures
            .iter()
            .map(|b| count_ep(&query, &sig, b, &FptEngine).unwrap())
            .collect();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                prepared.count_batch(&structures, threads),
                sequential.clone(),
                "threads = {}", threads
            );
        }
        prop_assert_eq!(count_ep_batch(&prepared, &structures), sequential);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streaming tentpole invariant: after **every** checkpoint of
    /// a random insert sequence, `LiveCount::current` equals a
    /// from-scratch `PreparedQuery::count` on the same snapshot — for
    /// the cached-relalg maintenance path at 1/2/4 worker threads and
    /// for the DP-table fallback path, with a brute-force cross-check
    /// on the final structure.
    #[test]
    fn live_count_agrees_with_recount_after_random_inserts(
        qseed in 0u64..10_000,
        lseed in 0u64..10_000,
        n in 1usize..=4,
        inserts in 1usize..=24,
        checkpoint_every in 1usize..=5,
        e_weight in 0u32..=3,
    ) {
        // A random two-relation UCQ (some draws include sentence
        // disjuncts via fully-quantified random CQs) over a random
        // skew between the two relations.
        let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
        let query = queries::random_ucq_over(
            &mut StdRng::seed_from_u64(qseed), &sig, 2, 3, 2, 0.3);
        let log = data::random_insert_log(
            &mut StdRng::seed_from_u64(lseed),
            &sig,
            n,
            inserts,
            checkpoint_every,
            &[e_weight, 1],
        );

        // Maintenance configurations: cached relational algebra at
        // three thread caps, plus the DP-table (fpt) fallback.
        let mut maintainers: Vec<LiveCount> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let prepared = PreparedQuery::prepare(&query, &sig)
                    .unwrap()
                    .with_engine(Box::new(RelalgEngine));
                LiveCount::new(prepared, log.open()).unwrap().with_threads(threads)
            })
            .collect();
        maintainers.push({
            let prepared = PreparedQuery::prepare(&query, &sig).unwrap();
            LiveCount::new(prepared, log.open()).unwrap()
        });
        prop_assert!(!maintainers.last().unwrap().uses_cached_relalg());

        for op in &log.ops {
            let counts: Vec<_> = maintainers
                .iter_mut()
                .map(|m| m.apply(op))
                .collect();
            if let Some(Some(first)) = counts.first() {
                let reference = maintainers[0].recount_from_scratch();
                prop_assert_eq!(first, &reference, "cached relalg (1 thread) vs recount");
                for (i, count) in counts.iter().enumerate() {
                    prop_assert_eq!(
                        count.as_ref().unwrap(),
                        &reference,
                        "maintainer {} vs recount", i
                    );
                }
            }
        }
        // Final cross-check against ground truth on the full replay.
        let final_structure = log.replay();
        let expected = brute::count_ep_brute(&query, &final_structure);
        for (i, m) in maintainers.iter_mut().enumerate() {
            prop_assert_eq!(&m.current(), &expected, "maintainer {} vs brute force", i);
        }
    }
}

/// The all-pairs merge that `iex::merge_terms` replaced: each term is
/// compared with every kept term.
fn quadratic_merge(terms: Vec<SignedPp>) -> Vec<SignedPp> {
    let mut merged: Vec<SignedPp> = Vec::new();
    for term in terms {
        match merged
            .iter_mut()
            .find(|m| counting_equivalent(&m.formula, &term.formula))
        {
            Some(m) => m.coefficient += &term.coefficient,
            None => merged.push(term),
        }
    }
    merged.retain(|m| !m.coefficient.is_zero());
    merged
}

/// `pp` with its liberal names rotated by `rotate` places and its
/// quantified variables renamed to `q0, q1, …` in reverse prefix order:
/// a counting-equivalent copy whose elements sit in other positions.
fn permuted_copy(pp: &PpFormula, rotate: usize) -> PpFormula {
    let s = pp.liberal_count();
    let n = pp.structure().universe_size();
    let name = |e: usize| {
        if e < s {
            pp.liberal_names()[(e + rotate) % s].clone()
        } else {
            Var::new(format!("q{}", n - 1 - e))
        }
    };
    let mut atoms = Vec::new();
    for (rel, relation, _) in pp.signature().iter() {
        for t in pp.structure().relation(rel).tuples() {
            atoms.push(Atom::new(
                relation,
                t.iter().map(|&e| name(e as usize)).collect(),
            ));
        }
    }
    let quantified: Vec<Var> = (s..n).rev().map(name).collect();
    PpFormula::from_parts(
        pp.signature(),
        (0..s).map(name).collect(),
        quantified,
        &atoms,
    )
    .unwrap()
}

fn key(pp: &PpFormula) -> Vec<u64> {
    let core = pp.core();
    iso::invariant(core.structure(), core.liberal_count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bucket soundness: the cored disjuncts and conjunctions of a
    /// random UCQ, and α-renamed, liberal-permuted copies of them, get
    /// the key of their original; and any counting-equivalent pair among
    /// all of them shares a key.
    #[test]
    fn counting_equivalent_terms_share_a_merge_key(
        qseed in 0u64..10_000,
        rotate in 0usize..3,
    ) {
        let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
        let query = queries::random_ucq_over(
            &mut StdRng::seed_from_u64(qseed), &sig, 3, 3, 2, 0.3);
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        let mut pool: Vec<PpFormula> =
            inclusion_exclusion_terms(&ds).into_iter().map(|t| t.formula).collect();
        for term in pool.clone() {
            let copy = permuted_copy(&term, rotate);
            prop_assert!(counting_equivalent(&term, &copy), "{} vs {}", term, copy);
            prop_assert_eq!(key(&copy), key(&term), "{} vs {}", term, copy);
            pool.push(copy);
        }
        for (i, a) in pool.iter().enumerate() {
            for b in &pool[i + 1..] {
                if counting_equivalent(a, b) {
                    prop_assert_eq!(key(a), key(b), "{} vs {}", a, b);
                }
            }
        }
    }

    /// The bucketed merge returns the all-pairs merge's terms, in the
    /// same order, with the same formulas and coefficients.
    #[test]
    fn star_equals_the_all_pairs_merge(
        qseed in 0u64..10_000,
        disjuncts in 1usize..=4,
    ) {
        let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
        let query = queries::random_ucq_over(
            &mut StdRng::seed_from_u64(qseed), &sig, disjuncts, 3, 2, 0.3);
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        let pairs = |terms: Vec<SignedPp>| -> Vec<_> {
            terms.into_iter().map(|t| (t.formula, t.coefficient)).collect()
        };
        prop_assert_eq!(
            pairs(star(&ds)),
            pairs(quadratic_merge(inclusion_exclusion_terms(&ds)))
        );
    }
}
