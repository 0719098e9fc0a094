//! Property tests for the structures substrate: the tuple store against
//! a set model, homomorphism counting laws under products and unions,
//! core idempotence, the one-pass core against the restart loop,
//! parse/display round-trips (shuffled input included), and
//! augmentation pinning.

use epq_bigint::Natural;
use epq_structures::{core, hom, iso, ops, parse, LiveStructure, RelId, Signature, Structure};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random digraph structure on up to 4 elements (an edge
/// mask over ordered pairs, loops included).
fn small_digraph() -> impl Strategy<Value = Structure> {
    (1usize..=4, any::<u32>()).prop_map(|(n, mask)| {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        let mut bit = 0;
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if mask & (1 << (bit % 32)) != 0 {
                    s.add_tuple_named("E", &[u, v]);
                }
                bit += 1;
            }
        }
        s
    })
}

/// The core loop that `core::core_of` replaced: after every drop it
/// restarts at element 0 and retries the elements that already failed.
fn restart_core_of(a: &Structure) -> (Structure, Vec<u32>) {
    let mut current = a.clone();
    let mut element_of: Vec<u32> = (0..a.universe_size() as u32).collect();
    'outer: loop {
        let n = current.universe_size();
        for drop in 0..n as u32 {
            let rest: Vec<u32> = (0..n as u32).filter(|&v| v != drop).collect();
            let (candidate, map) = current.induced_substructure(&rest);
            if hom::homomorphism_exists(&current, &candidate) {
                element_of = map.iter().map(|&m| element_of[m as usize]).collect();
                current = candidate;
                continue 'outer;
            }
        }
        return (current, element_of);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hom_counts_multiply_over_products(
        a in small_digraph(), b in small_digraph(), c in small_digraph(),
    ) {
        // |Hom(A, B×C)| = |Hom(A,B)| · |Hom(A,C)| (universal property).
        let product = ops::direct_product(&b, &c);
        let lhs = hom::count_homomorphisms(&a, &product);
        let rhs = hom::count_homomorphisms(&a, &b) * hom::count_homomorphisms(&a, &c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn hom_counts_add_over_unions_for_connected_sources(
        b in small_digraph(), c in small_digraph(),
    ) {
        // For a connected source with at least one atom: |Hom(A, B+C)| =
        // |Hom(A,B)| + |Hom(A,C)|. Use a fixed connected A (a 2-path).
        let sig = Signature::from_symbols([("E", 2)]);
        let mut a = Structure::new(sig, 3);
        a.add_tuple_named("E", &[0, 1]);
        a.add_tuple_named("E", &[1, 2]);
        let union = ops::disjoint_union(&b, &c);
        let lhs = hom::count_homomorphisms(&a, &union);
        let rhs = hom::count_homomorphisms(&a, &b) + hom::count_homomorphisms(&a, &c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn every_found_hom_is_a_hom(a in small_digraph(), b in small_digraph()) {
        if let Some(h) = hom::find_homomorphism(&a, &b) {
            prop_assert!(hom::is_homomorphism(&a, &b, &h));
        } else {
            // No hom found: counting must agree.
            prop_assert_eq!(hom::count_homomorphisms(&a, &b), Natural::zero());
        }
    }

    #[test]
    fn core_is_idempotent_and_equivalent(a in small_digraph()) {
        let (core1, _) = core::core_of(&a);
        prop_assert!(core::is_core(&core1));
        prop_assert!(core::homomorphically_equivalent(&a, &core1));
        let (core2, _) = core::core_of(&core1);
        prop_assert!(iso::isomorphic(&core1, &core2));
    }

    /// The one-pass `core_of` returns the very structure and element
    /// map of the restart loop: on a digraph, on a disjoint union of two
    /// (up to 8 elements, so several drops happen), and on that union
    /// augmented with pins on its first elements.
    #[test]
    fn one_pass_core_matches_the_restart_loop(
        a in small_digraph(), b in small_digraph(), pins in 0usize..=3,
    ) {
        let union = ops::disjoint_union(&a, &b);
        let pinned: Vec<u32> = (0..pins.min(union.universe_size()) as u32).collect();
        let augmented = ops::augment(&union, &pinned);
        for s in [a, union, augmented] {
            prop_assert_eq!(core::core_of(&s), restart_core_of(&s));
        }
    }

    #[test]
    fn cores_of_hom_equivalent_structures_are_isomorphic(a in small_digraph()) {
        // A and A ⊎ A are hom-equivalent; their cores must be isomorphic.
        let doubled = ops::disjoint_union(&a, &a);
        let (c1, _) = core::core_of(&a);
        let (c2, _) = core::core_of(&doubled);
        prop_assert!(iso::isomorphic(&c1, &c2));
    }

    #[test]
    fn display_parse_roundtrip(a in small_digraph()) {
        let text = a.to_string();
        let reparsed = parse::parse_structure(&text);
        // Empty relations need declared arities, which Display omits only
        // when the relation is empty — handle both outcomes.
        match reparsed {
            Ok(b) => prop_assert_eq!(a, b),
            Err(_) => {
                let e = a.signature().lookup("E").unwrap();
                prop_assert!(a.relation(e).is_empty());
            }
        }
    }

    #[test]
    fn one_point_is_terminal(a in small_digraph()) {
        let unit = ops::one_point(a.signature().clone());
        prop_assert_eq!(
            hom::count_homomorphisms(&a, &unit),
            Natural::one()
        );
    }

    #[test]
    fn padding_makes_everything_satisfiable(a in small_digraph(), b in small_digraph()) {
        let padded = ops::add_units(&b, 1);
        prop_assert!(hom::homomorphism_exists(&a, &padded));
    }

    #[test]
    fn augmentation_restricts_homs(a in small_digraph()) {
        prop_assume!(a.universe_size() >= 1);
        // Pinning all elements: the only candidate endo of aug is the identity.
        let pins: Vec<u32> = (0..a.universe_size() as u32).collect();
        let aug = ops::augment(&a, &pins);
        let count = hom::count_homomorphisms(&aug, &aug);
        prop_assert_eq!(count, Natural::one());
    }

    #[test]
    fn isomorphism_is_reflexive_and_respects_relabeling(a in small_digraph()) {
        prop_assert!(iso::isomorphic(&a, &a));
        // Relabel by reversing element order.
        let n = a.universe_size();
        let relabeled: Vec<u32> = (0..n as u32).rev().collect();
        let (b, _) = a.induced_substructure(&relabeled);
        prop_assert!(iso::isomorphic(&a, &b));
    }

    #[test]
    fn power_counts_are_powers(a in small_digraph(), b in small_digraph()) {
        let squared = ops::power(&b, 2);
        let single = hom::count_homomorphisms(&a, &b);
        let lhs = hom::count_homomorphisms(&a, &squared);
        prop_assert_eq!(lhs, &single * &single);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random inserts, with repeats and in random order, into a live
    /// structure and into a `BTreeSet` model: the relation lists the
    /// model's tuples in order, membership agrees on every tuple over
    /// the drawn values, and each insert reports whether its tuple was
    /// new. Arities 1–6 cover the `u64`, `u128` and arena layouts; the
    /// values mix small elements with ones near `u32::MAX`, so packed
    /// columns use all 32 bits.
    #[test]
    fn tuple_store_matches_a_set_model(
        n in 1u32..=4,
        arity in 1usize..=6,
        draws in collection::vec(any::<u32>(), 0..48),
    ) {
        let values = &[0, u32::MAX - 1, 1, u32::MAX - 2][..n as usize];
        let rel = RelId(0);
        let universe = u32::MAX as usize;
        let mut live = LiveStructure::new(Signature::from_symbols([("R", arity)]), universe);
        let mut model: BTreeSet<Vec<u32>> = BTreeSet::new();
        for draw in draws {
            let tuple: Vec<u32> = (0..arity as u32)
                .map(|i| values[(draw.rotate_right(5 * i) % n) as usize])
                .collect();
            let new = model.insert(tuple.clone());
            prop_assert_eq!(live.insert_tuple(rel, &tuple), new, "insert {:?}", tuple);
        }
        let stored: Vec<Vec<u32>> = live
            .snapshot()
            .relation(rel)
            .tuples()
            .map(|t| t.to_vec())
            .collect();
        prop_assert_eq!(&stored, &model.iter().cloned().collect::<Vec<_>>());
        prop_assert_eq!(live.snapshot().relation(rel).len(), model.len());
        let mut probe = vec![0u32; arity];
        for code in 0..n.pow(arity as u32) {
            for (i, slot) in probe.iter_mut().enumerate() {
                *slot = values[(code / n.pow(i as u32) % n) as usize];
            }
            prop_assert_eq!(
                live.snapshot().has_tuple(rel, &probe),
                model.contains(&probe),
                "probe {:?}", probe
            );
        }
    }

    /// A structure written with its tuples in shuffled order, repeats
    /// included, parses to the structure built by inserting them, and
    /// so does its `Display`: the parser's one sort per relation puts
    /// every layout (arities 1–6) in canonical order.
    #[test]
    fn shuffled_structure_text_parses_back(
        n in 1u32..=5,
        draws in collection::vec(any::<u32>(), 0..40),
    ) {
        let sig = Signature::from_symbols((1..=6).map(|k| (format!("R{k}"), k)));
        let mut built = Structure::new(sig.clone(), n as usize);
        let mut clauses: Vec<Vec<String>> = vec![Vec::new(); sig.len()];
        for draw in draws {
            let rel = RelId(draw % 6);
            let tuple: Vec<u32> = (0..sig.arity(rel) as u32)
                .map(|i| draw.rotate_right(3 + 4 * i) % n)
                .collect();
            built.add_tuple(rel, &tuple);
            let shown: Vec<String> = tuple.iter().map(u32::to_string).collect();
            clauses[rel.0 as usize].push(format!("({})", shown.join(",")));
        }
        let mut text = format!("structure {{ universe {n}");
        for ((_, name, arity), tuples) in sig.iter().zip(&clauses) {
            text.push_str(&format!(" {name}/{arity} = {{ {} }}", tuples.join(", ")));
        }
        text.push_str(" }");
        let parsed = parse::parse_structure(&text);
        prop_assert_eq!(parsed.as_ref(), Ok(&built), "{}", text);
        // Display omits arities, so it parses back only when no
        // relation is empty.
        if built.signature().iter().all(|(rel, _, _)| !built.relation(rel).is_empty()) {
            prop_assert_eq!(parse::parse_structure(&built.to_string()), Ok(built));
        }
    }
}
