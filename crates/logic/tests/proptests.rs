//! Property tests for the logic substrate: parser/printer round-trips,
//! DNF semantic preservation, component/hat laws, and entailment sanity.

use epq_logic::parser::parse_query;
use epq_logic::query::infer_signature;
use epq_logic::{dnf, Atom, Formula, PpFormula, Query, Var};
use epq_structures::{Signature, Structure};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a random ep-formula over variables v0..v3 and relations
/// E/2, P/1, with bounded depth.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = (0u8..2, 0usize..4, 0usize..4).prop_map(|(rel, a, b)| {
        if rel == 0 {
            Formula::Atom(Atom::new(
                "E",
                vec![Var::new(format!("v{a}")), Var::new(format!("v{b}"))],
            ))
        } else {
            Formula::Atom(Atom::new("P", vec![Var::new(format!("v{a}"))]))
        }
    });
    atom.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.and(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.or(r)),
            (0usize..4, inner)
                .prop_map(|(v, f)| { Formula::Exists(Var::new(format!("v{v}")), Box::new(f)) }),
        ]
    })
}

/// Strategy: a random small digraph+unary structure.
fn small_structure() -> impl Strategy<Value = Structure> {
    (1usize..=3, any::<u32>(), any::<u8>()).prop_map(|(n, emask, pmask)| {
        let sig = Signature::from_symbols([("E", 2), ("P", 1)]);
        let mut s = Structure::new(sig, n);
        let mut bit = 0;
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if emask & (1 << (bit % 32)) != 0 {
                    s.add_tuple_named("E", &[u, v]);
                }
                bit += 1;
            }
            if pmask & (1 << u) != 0 {
                s.add_tuple_named("P", &[u]);
            }
        }
        s
    })
}

/// Builds a query when the formula is well-formed (no variable both free
/// and quantified across branches); `None` otherwise.
fn query_of(f: Formula) -> Option<Query> {
    Query::from_formula(f).ok()
}

/// All assignments in `{0..domain}^arity` (one empty assignment for
/// arity 0; none for an empty domain with positive arity).
fn all_assignments(domain: usize, arity: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(out.len() * domain);
        for prefix in &out {
            for x in 0..domain as u32 {
                let mut a = prefix.clone();
                a.push(x);
                next.push(a);
            }
        }
        out = next;
    }
    out
}

/// Flattens nested ∧/∨ into sorted lists so that structural comparison is
/// modulo associativity and commutativity (Display does not preserve the
/// association of parsed trees, only their meaning).
fn canon(f: &Formula) -> Formula {
    fn flatten_and(f: &Formula, out: &mut Vec<Formula>) {
        match f {
            Formula::And(l, r) => {
                flatten_and(l, out);
                flatten_and(r, out);
            }
            other => out.push(canon(other)),
        }
    }
    fn flatten_or(f: &Formula, out: &mut Vec<Formula>) {
        match f {
            Formula::Or(l, r) => {
                flatten_or(l, out);
                flatten_or(r, out);
            }
            other => out.push(canon(other)),
        }
    }
    match f {
        Formula::And(_, _) => {
            let mut parts = Vec::new();
            flatten_and(f, &mut parts);
            parts.sort_by_key(|p| format!("{p:?}"));
            Formula::conjunction(parts)
        }
        Formula::Or(_, _) => {
            let mut parts = Vec::new();
            flatten_or(f, &mut parts);
            parts.sort_by_key(|p| format!("{p:?}"));
            Formula::disjunction(parts)
        }
        Formula::Exists(v, body) => Formula::Exists(v.clone(), Box::new(canon(body))),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn display_parse_roundtrip(f in formula_strategy()) {
        let Some(q) = query_of(f) else { return Ok(()) };
        let printed = q.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
        prop_assert_eq!(q.liberal(), reparsed.liberal());
        prop_assert_eq!(canon(q.formula()), canon(reparsed.formula()));
    }

    #[test]
    fn dnf_preserves_satisfaction(f in formula_strategy(), b in small_structure()) {
        let Some(q) = query_of(f) else { return Ok(()) };
        let sig = b.signature().clone();
        if infer_signature([q.formula()]).is_err() {
            return Ok(()); // arity clash with fixed signature: skip
        }
        let ds = match dnf::disjuncts(&q, &sig) {
            Ok(ds) if ds.len() <= 16 => ds,
            _ => return Ok(()),
        };
        // Check agreement on every liberal assignment.
        let liberal = q.liberal().to_vec();
        for assignment in all_assignments(b.universe_size(), liberal.len()) {
            let env: HashMap<Var, u32> = liberal
                .iter()
                .cloned()
                .zip(assignment.iter().copied())
                .collect();
            let direct = q.formula().satisfied_by(&b, &env);
            let via_disjuncts = ds.iter().any(|d| d.satisfied_by(&b, &assignment));
            prop_assert_eq!(direct, via_disjuncts, "assignment {:?}", assignment);
        }
    }

    #[test]
    fn normalization_preserves_counts(f in formula_strategy(), b in small_structure()) {
        let Some(q) = query_of(f) else { return Ok(()) };
        let sig = b.signature().clone();
        let ds = match dnf::disjuncts(&q, &sig) {
            Ok(ds) if ds.len() <= 12 => ds,
            _ => return Ok(()),
        };
        let normalized = dnf::normalize(ds.clone());
        // The normal form is an antichain under entailment.
        for (i, d) in normalized.iter().enumerate() {
            for (j, e) in normalized.iter().enumerate() {
                prop_assert!(i == j || !d.entails(e), "kept disjunct {} entails {}", i, j);
            }
        }
        let count = |set: &[PpFormula]| -> usize {
            match set.first() {
                None => 0,
                Some(first) => all_assignments(b.universe_size(), first.liberal_count())
                    .into_iter()
                    .filter(|a| set.iter().any(|d| d.satisfied_by(&b, a)))
                    .count(),
            }
        };
        let original = count(&ds);
        prop_assert_eq!(count(&normalized), original, "normalize changed the count");
    }

    #[test]
    fn components_cover_all_atoms(f in formula_strategy()) {
        let Some(q) = query_of(f) else { return Ok(()) };
        if !q.is_pp() {
            return Ok(());
        }
        let sig = match infer_signature([q.formula()]) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let pp = PpFormula::from_query(&q, &sig).unwrap();
        let comps = pp.components();
        let total_tuples: usize =
            comps.iter().map(|c| c.structure().tuple_count()).sum();
        prop_assert_eq!(total_tuples, pp.structure().tuple_count());
        let total_elements: usize =
            comps.iter().map(|c| c.structure().universe_size()).sum();
        prop_assert_eq!(total_elements, pp.structure().universe_size());
        let total_liberal: usize = comps.iter().map(|c| c.liberal_count()).sum();
        prop_assert_eq!(total_liberal, pp.liberal_count());
    }

    #[test]
    fn hat_keeps_liberal_components_intact(f in formula_strategy()) {
        let Some(q) = query_of(f) else { return Ok(()) };
        if !q.is_pp() {
            return Ok(());
        }
        let sig = match infer_signature([q.formula()]) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let pp = PpFormula::from_query(&q, &sig).unwrap();
        let hat = pp.hat();
        // Hat never adds tuples and keeps the universe.
        prop_assert!(hat.structure().tuple_count() <= pp.structure().tuple_count());
        prop_assert_eq!(
            hat.structure().universe_size(),
            pp.structure().universe_size()
        );
        // Hat is idempotent.
        let hat2 = hat.hat();
        prop_assert_eq!(hat2.structure(), hat.structure());
    }

    #[test]
    fn entailment_is_reflexive_and_conjunction_strengthens(f in formula_strategy()) {
        let Some(q) = query_of(f) else { return Ok(()) };
        if !q.is_pp() {
            return Ok(());
        }
        let sig = match infer_signature([q.formula()]) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let pp = PpFormula::from_query(&q, &sig).unwrap();
        prop_assert!(pp.entails(&pp));
        // φ ∧ φ ≡ φ; and any conjunction with φ entails φ.
        let doubled = PpFormula::conjoin(&[&pp, &pp]);
        prop_assert!(doubled.entails(&pp));
        prop_assert!(pp.entails(&doubled));
    }
}
