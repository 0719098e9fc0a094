//! The reverse reductions of the equivalence theorem, as executable
//! oracle algorithms (Example 4.3, Lemmas 5.12/5.13/5.18, Theorem 5.20,
//! Appendix A).
//!
//! Given only an oracle for `|φ(·)|` (the ep-query's counting function),
//! these algorithms recover the counts `|ψ(B)|` of every pp-formula
//! `ψ ∈ φ⁺`:
//!
//! 1. **Distinguishing structure** (Lemma 5.12): find **C** on which
//!    every pp-formula is satisfiable and representatives of distinct
//!    semi-counting-equivalence classes have distinct counts. The paper
//!    proves existence by product/disjoint-union amplification; we search
//!    candidate structures that contain a *diagonal element* (an element
//!    `a` with `(a,…,a)` in every relation — making every pp-formula
//!    satisfiable by the constant-`a` assignment) and verify the defining
//!    property before use, escalating size until it holds.
//! 2. **Vandermonde recovery** (Example 4.3 / Theorem 5.20): query the
//!    oracle on **B** × **C**^ℓ for ℓ = 0, …, s−1; since
//!    `|ψ(B × C^ℓ)| = |ψ(B)| · |ψ(C)|^ℓ`, the per-class signed sums fall
//!    out of a transposed Vandermonde system solved exactly over ℚ.
//! 3. **Class splitting** (Lemma 5.18): within one semi-counting
//!    equivalence class, repeatedly pick a hom-minimal formula `ψᵢ`; on
//!    products with `ψᵢ`'s own structure every other class member
//!    vanishes, isolating `cᵢ·|ψᵢ(B)|·|ψᵢ(Cᵢ)|`.
//! 4. **General case** (Appendix A): sentence disjuncts are decided by
//!    the saturation test on `A × B`; for `ψ ∈ φ⁻_af` the recovery runs
//!    on `B × C_ψ` where `C_ψ` is `ψ`'s own structure — on every queried
//!    product the factor `C_ψ` falsifies *all* sentence disjuncts (ψ
//!    entails none of them), so the φ-oracle agrees with the φ_af-oracle
//!    there: a homomorphism from a sentence disjunct into `B' × C_ψ`
//!    projects to one into `C_ψ`, which would mean ψ entails it.
//!
//!    This deliberately deviates from the appendix, which uses the
//!    disjoint union of all `φ⁻_af` structures. With a *disconnected*
//!    sentence disjunct `θ₁ ∧ θ₂` that union can satisfy the sentence
//!    even though no single member entails it (`θ₁` maps into one
//!    member's structure, `θ₂` into another's), and then the φ-oracle
//!    and the φ_af-oracle disagree on the queried products. The
//!    per-target structure keeps the appendix's argument and avoids
//!    that case; `tests/oracle_roundtrip.rs` checks the recovered counts
//!    against direct counting on queries with sentence disjuncts.

use crate::equivalence::semi_counting_equivalent;
use crate::iex::SignedPp;
use crate::plus::PlusDecomposition;
use epq_bigint::linalg::solve_transposed_vandermonde;
use epq_bigint::{Integer, Natural, Rational};
use epq_counting::brute::count_pp_brute;
use epq_logic::PpFormula;
use epq_structures::{hom, ops, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// A counting oracle for some fixed query: maps a structure to a count.
pub type CountOracle<'a> = dyn FnMut(&Structure) -> Natural + 'a;

/// Searches for a distinguishing structure for the given class
/// representatives (Lemma 5.12): every pp-formula over the signature is
/// satisfiable on the result (diagonal element), and the representatives'
/// counts are pairwise distinct. Deterministic (seeded) randomized search
/// with size escalation.
///
/// # Panics
/// Panics if two representatives are semi-counting equivalent (then no
/// such structure exists), or if the search exhausts its budget.
pub fn find_distinguishing_structure(representatives: &[&PpFormula]) -> Structure {
    for (i, a) in representatives.iter().enumerate() {
        for b in &representatives[i + 1..] {
            assert!(
                !semi_counting_equivalent(a, b),
                "representatives must be pairwise non-semi-counting-equivalent"
            );
        }
    }
    let signature = match representatives.first() {
        None => return ops::one_point(epq_structures::Signature::new()),
        Some(r) => r.signature().clone(),
    };
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for universe in 2..=9usize {
        let attempts = 60 * representatives.len().max(1);
        for _ in 0..attempts {
            let density = rng.gen_range(0.15..0.75);
            let mut c = Structure::new(signature.clone(), universe);
            // Diagonal element 0: every pp-formula is satisfiable.
            for (rel, _, arity) in signature.iter() {
                c.add_tuple(rel, &vec![0; arity]);
            }
            for (rel, _, arity) in signature.iter() {
                let mut tuple = vec![0u32; arity];
                let cells = universe.pow(arity as u32).min(512);
                for _ in 0..cells {
                    for t in tuple.iter_mut() {
                        *t = rng.gen_range(0..universe as u32);
                    }
                    if rng.gen_bool(density) {
                        c.add_tuple(rel, &tuple);
                    }
                }
            }
            if is_distinguishing(&c, representatives) {
                return c;
            }
        }
    }
    panic!("distinguishing-structure search exhausted its budget");
}

/// Verifies the Lemma 5.12 property for `c`.
pub fn is_distinguishing(c: &Structure, representatives: &[&PpFormula]) -> bool {
    let counts: Vec<Natural> = representatives
        .iter()
        .map(|r| count_pp_brute(r, c))
        .collect();
    if counts.iter().any(|x| x.is_zero()) {
        return false;
    }
    for (i, a) in counts.iter().enumerate() {
        for b in &counts[i + 1..] {
            if a == b {
                return false;
            }
        }
    }
    true
}

/// The result of recovering pp counts from an ep oracle.
#[derive(Clone, Debug)]
pub struct RecoveredCounts {
    /// `(star-term index, |ψ(B)|)` for every term of `φ*`.
    pub counts: Vec<(usize, Natural)>,
    /// Number of oracle queries spent.
    pub oracle_queries: usize,
}

/// Recovers `|ψ(B)|` for every `ψ ∈ φ*` of an **all-free** disjunctive
/// ep-formula, given an oracle for `|φ(·)|` (Theorem 5.20's reduction
/// from count\[Φ*\] to count\[Φ\]).
///
/// `star` must be the output of [`crate::iex::star`] on the disjuncts of
/// `φ` (so that `|φ(D)| = Σ c_ψ |ψ(D)|` holds for every `D`).
pub fn recover_all_free_counts(
    star: &[SignedPp],
    b: &Structure,
    oracle: &mut CountOracle,
) -> RecoveredCounts {
    let queries = Rc::new(RefCell::new(0usize));
    let oracle = Rc::new(RefCell::new(oracle));
    let q2 = Rc::clone(&queries);
    let o2 = Rc::clone(&oracle);
    let counts = recover_with(star, b, &move |d: &Structure| {
        *q2.borrow_mut() += 1;
        (o2.borrow_mut())(d)
    });
    let total = *queries.borrow();
    RecoveredCounts {
        counts,
        oracle_queries: total,
    }
}

type SumFn<'a> = Rc<dyn Fn(&Structure) -> Integer + 'a>;

fn recover_with<'a>(
    star: &[SignedPp],
    b: &Structure,
    oracle: &'a (dyn Fn(&Structure) -> Natural + 'a),
) -> Vec<(usize, Natural)> {
    if star.is_empty() {
        return Vec::new();
    }
    // Group into semi-counting-equivalence classes.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (i, term) in star.iter().enumerate() {
        match classes
            .iter_mut()
            .find(|class| semi_counting_equivalent(&star[class[0]].formula, &term.formula))
        {
            Some(class) => class.push(i),
            None => classes.push(vec![i]),
        }
    }
    let representatives: Vec<&PpFormula> = classes
        .iter()
        .map(|class| &star[class[0]].formula)
        .collect();
    let c = find_distinguishing_structure(&representatives);

    // x_j = |ψ_j(C)| (equal within a class since all counts on C are
    // positive and the class is semi-counting equivalent).
    let xs: Vec<Rational> = representatives
        .iter()
        .map(|r| Rational::from(Integer::from(count_pp_brute(r, &c))))
        .collect();

    // The per-class signed sums on an arbitrary structure D, recovered by
    // s oracle queries on D × C^ℓ and a Vandermonde solve.
    let class_sums = {
        let c = c.clone();
        let xs = xs.clone();
        move |d: &Structure| -> Vec<Integer> {
            let ys: Vec<Rational> = (0..xs.len())
                .map(|l| {
                    let product = ops::direct_product(d, &ops::power(&c, l));
                    Rational::from(Integer::from(oracle(&product)))
                })
                .collect();
            let solution = solve_transposed_vandermonde(&xs, &ys)
                .expect("distinct class counts give a nonsingular system");
            solution
                .into_iter()
                .map(|w| w.to_integer().expect("class sums are integers"))
                .collect()
        }
    };
    let class_sums = Rc::new(class_sums);

    // Split each class with Lemma 5.18.
    let mut results: Vec<(usize, Natural)> = Vec::new();
    for (j, class) in classes.iter().enumerate() {
        let terms: Vec<(usize, PpFormula, Integer)> = class
            .iter()
            .map(|&i| (i, star[i].formula.clone(), star[i].coefficient.clone()))
            .collect();
        let sums = Rc::clone(&class_sums);
        let base: SumFn = Rc::new(move |d: &Structure| sums(d)[j].clone());
        split_class(&terms, base, b, &mut results);
    }
    results.sort_by_key(|&(i, _)| i);
    results
}

/// Lemma 5.18: recovers each `|ψᵢ(B)|` from an oracle for the signed
/// class sum `Σ cᵢ·|ψᵢ(·)|`, for pairwise semi-counting-equivalent,
/// pairwise non-counting-equivalent formulas with nonzero coefficients.
fn split_class<'a>(
    terms: &[(usize, PpFormula, Integer)],
    class_sum: SumFn<'a>,
    b: &Structure,
    results: &mut Vec<(usize, Natural)>,
) {
    if terms.is_empty() {
        return;
    }
    // Find a hom-minimal formula: no other member's structure maps into it
    // (Proposition 5.19; minimality exists because members are pairwise
    // non-hom-equivalent by Proposition 5.17).
    let minimal = (0..terms.len())
        .find(|&i| {
            terms.iter().enumerate().all(|(j, (_, other, _))| {
                j == i || !hom::homomorphism_exists(other.structure(), terms[i].1.structure())
            })
        })
        .expect("a hom-minimal class member exists");
    let (index, formula, coefficient) = &terms[minimal];
    let c_i: Structure = formula.structure().clone();
    // |ψᵢ(Cᵢ)| ≥ 1 (the identity assignment extends).
    let count_on_ci = Integer::from(count_pp_brute(formula, &c_i));
    assert!(!count_on_ci.is_zero());
    let denominator = coefficient * &count_on_ci;

    // class_sum(B × Cᵢ) = cᵢ·|ψᵢ(B)|·|ψᵢ(Cᵢ)| — all other members vanish.
    let value = class_sum(&ops::direct_product(b, &c_i));
    let count_b = value.div_exact(&denominator);
    assert!(
        !count_b.is_negative(),
        "recovered count must be non-negative"
    );
    results.push((*index, count_b.into_magnitude()));

    // Remaining members: subtract ψᵢ's contribution from the sum.
    let rest: Vec<(usize, PpFormula, Integer)> = terms
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != minimal)
        .map(|(_, t)| t.clone())
        .collect();
    if rest.is_empty() {
        return;
    }
    let coefficient = coefficient.clone();
    let parent = Rc::clone(&class_sum);
    let reduced: SumFn = Rc::new(move |d: &Structure| {
        let on_product = parent(&ops::direct_product(d, &c_i));
        let psi_on_d = on_product.div_exact(&denominator);
        &parent(d) - &(&coefficient * &psi_on_d)
    });
    split_class(&rest, reduced, b, results);
}

/// Recovers `|ψ(B)|` for every formula of `φ⁺` — the general-case
/// reduction of Appendix A. Returns `(formula, count)` pairs in the order
/// of `decomposition.plus`.
pub fn recover_plus_counts(
    decomposition: &PlusDecomposition,
    liberal_count: usize,
    b: &Structure,
    oracle: &mut CountOracle,
) -> Vec<(PpFormula, Natural)> {
    let mut results = Vec::new();
    // φ⁻_af members: recover on B × C_ψ where C_ψ is ψ's own structure.
    for star_index in decomposition.minus_af() {
        let psi = &decomposition.star_af[star_index].formula;
        let c_psi = psi.structure().clone();
        let target = ops::direct_product(b, &c_psi);
        let recovered = recover_all_free_counts(&decomposition.star_af, &target, oracle);
        let on_product = recovered
            .counts
            .iter()
            .find(|(i, _)| *i == star_index)
            .expect("recovery covers every star term")
            .1
            .clone();
        let on_c = count_pp_brute(psi, &c_psi);
        let (count, remainder) = on_product.div_rem(&on_c);
        assert!(remainder.is_zero(), "product counts factor exactly");
        results.push((psi.clone(), count));
    }
    // Sentence disjuncts: the A × B saturation test.
    for theta in &decomposition.sentences {
        let a = theta.structure();
        let product = ops::direct_product(a, b);
        let observed = oracle(&product);
        let saturated =
            Natural::from(a.universe_size() * b.universe_size()).pow(liberal_count as u32);
        let count = if observed == saturated && b.universe_size() > 0 {
            Natural::from(b.universe_size()).pow(liberal_count as u32)
        } else {
            Natural::zero()
        };
        results.push((theta.clone(), count));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_ep_with;
    use crate::iex::star;
    use crate::plus::plus_decomposition;
    use epq_counting::brute::count_disjuncts_brute;
    use epq_counting::engines::FptEngine;
    use epq_logic::parser::parse_query;
    use epq_logic::{dnf, Query};
    use epq_structures::Signature;

    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    fn disjuncts_of(text: &str) -> (Query, Vec<PpFormula>) {
        let q = parse_query(text).unwrap();
        let sig = epq_logic::query::infer_signature([q.formula()]).unwrap();
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        (q, ds)
    }

    /// Example 4.3: the paper's concrete distinguishing structure
    /// C = ({1,2,3,4}, E = {(1,2),(2,3),(3,4),(4,4)}) (0-based here)
    /// separates φ1, φ2, φ1∧φ2 of Example 4.1.
    #[test]
    fn example_4_3_paper_structure_is_distinguishing() {
        let (_, ds) = disjuncts_of("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))");
        let phi1 = &ds[0];
        let phi2 = &ds[1];
        let conj = PpFormula::conjoin(&[phi1, phi2]);
        let c = example_c();
        assert!(is_distinguishing(&c, &[phi1, phi2, &conj]));
        // The paper's counts are distinct; sanity check them.
        let c1 = count_pp_brute(phi1, &c);
        let c2 = count_pp_brute(phi2, &c);
        let c12 = count_pp_brute(&conj, &c);
        assert!(c1 != c2 && c1 != c12 && c2 != c12);
    }

    #[test]
    fn example_4_3_full_recovery_from_oracle() {
        // Recover |φ1(B)|, |φ2(B)|, |(φ1∧φ2)(B)| from an oracle for
        // |φ(·)| only.
        let (query, ds) = disjuncts_of("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))");
        let star_terms = star(&ds);
        let b = example_c();
        let sig = b.signature().clone();
        let mut oracle_calls = 0usize;
        let mut oracle = |d: &Structure| {
            oracle_calls += 1;
            crate::count::count_ep(&query, &sig, d, &FptEngine).unwrap()
        };
        let recovered = recover_all_free_counts(&star_terms, &b, &mut oracle);
        assert_eq!(recovered.counts.len(), star_terms.len());
        for (i, count) in &recovered.counts {
            let direct = count_pp_brute(&star_terms[*i].formula, &b);
            assert_eq!(*count, direct, "star term {i}");
        }
        assert!(recovered.oracle_queries > 0);
    }

    #[test]
    fn recovery_on_example_4_2_with_cancellation() {
        let (query, ds) =
            disjuncts_of("(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))");
        let star_terms = star(&ds);
        assert_eq!(star_terms.len(), 2);
        let b = example_c();
        let sig = b.signature().clone();
        let mut oracle =
            |d: &Structure| crate::count::count_ep(&query, &sig, d, &FptEngine).unwrap();
        let recovered = recover_all_free_counts(&star_terms, &b, &mut oracle);
        for (i, count) in &recovered.counts {
            assert_eq!(*count, count_pp_brute(&star_terms[*i].formula, &b));
        }
    }

    #[test]
    fn distinguishing_search_on_semi_equivalent_classes_panics() {
        let (_, ds) = disjuncts_of("(x, y) := E(x,y) | E(y,x)");
        // E(x,y) and E(y,x) with the same liberal set are semi-counting
        // equivalent (renaming) — the search must reject them.
        let result = std::panic::catch_unwind(|| find_distinguishing_structure(&[&ds[0], &ds[1]]));
        assert!(result.is_err());
    }

    #[test]
    fn general_recovery_with_sentence_disjuncts() {
        // Example 5.21's θ — recover |φ1(B)| and |θ1(B)| from the
        // θ-oracle.
        let text = "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) \
                    | (E(w,x) & E(x,y)) \
                    | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))";
        let query = parse_query(text).unwrap();
        let sig = Signature::from_symbols([("E", 2)]);
        let dec = plus_decomposition(&query, &sig).unwrap();
        assert_eq!(dec.plus.len(), 2);

        // Structure without a directed 3-path: θ1 false.
        let mut b = Structure::new(sig.clone(), 4);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("E", &[2, 3]);
        let mut oracle =
            |d: &Structure| count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1);
        let recovered = recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle);
        assert_eq!(recovered.len(), 2);
        for (formula, count) in &recovered {
            assert_eq!(*count, count_pp_brute(formula, &b), "{formula}");
        }

        // Structure with a 3-path: θ1 true, |θ1(B)| = |B|^4.
        let b2 = example_c();
        let mut oracle2 =
            |d: &Structure| count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1);
        let recovered2 = recover_plus_counts(&dec, query.liberal_count(), &b2, &mut oracle2);
        for (formula, count) in &recovered2 {
            assert_eq!(*count, count_pp_brute(formula, &b2), "{formula}");
        }
        let theta_count = &recovered2.last().unwrap().1;
        assert_eq!(theta_count.to_u64(), Some(256));
    }

    #[test]
    fn class_splitting_exercises_lemma_5_18() {
        // A union whose star terms contain two semi-counting-equivalent
        // but non-counting-equivalent members: E(x,y) ∨ (E(x,y) ∧ E(y,y)).
        // Star: E(x,y) [+1], E(x,y)∧E(y,y) [cancels to ... compute].
        let (query, ds) = disjuncts_of("(x, y) := E(x,y) | (E(x,y) & E(y,y))");
        let star_terms = star(&ds);
        // Check that at least one semi-counting-equivalence class has two
        // members (the whole point of this test).
        let mut found_multi = false;
        for (i, a) in star_terms.iter().enumerate() {
            for b in &star_terms[i + 1..] {
                if semi_counting_equivalent(&a.formula, &b.formula) {
                    found_multi = true;
                }
            }
        }
        let b = example_c();
        let sig = b.signature().clone();
        let mut oracle =
            |d: &Structure| crate::count::count_ep(&query, &sig, d, &FptEngine).unwrap();
        let recovered = recover_all_free_counts(&star_terms, &b, &mut oracle);
        for (i, count) in &recovered.counts {
            assert_eq!(*count, count_pp_brute(&star_terms[*i].formula, &b));
        }
        // The union count check: Σ c|ψ(B)| = |φ(B)|.
        let direct = count_disjuncts_brute(&ds, &b);
        let mut acc = Integer::zero();
        for (i, count) in &recovered.counts {
            acc += &(&star_terms[*i].coefficient * &Integer::from(count.clone()));
        }
        assert_eq!(acc.into_magnitude(), direct);
        let _ = found_multi; // documented: classes here may be singletons
    }
}
