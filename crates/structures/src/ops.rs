//! Structure operations used by the paper's proofs.
//!
//! * **Direct (categorical) products** — Example 4.3 uses
//!   `|ψ(D₁ × D₂)| = |ψ(D₁)| · |ψ(D₂)|` for pp-formulas ψ; the oracle
//!   reductions query counts on **B** × **C**^ℓ.
//! * **Disjoint unions and one-point paddings** — the proof of Theorem 5.9
//!   pads a structure to **B** + k·**I** (k disjoint copies of the
//!   one-point structure I_τ) to force every pp-formula satisfiable.
//! * **Augmentation** — aug(A, S) expands the vocabulary with a fresh unary
//!   singleton relation `R_a = {a}` per distinguished element `a ∈ S`,
//!   pinning those elements under homomorphisms (Section 2.1).

use crate::structure::{Signature, Structure};

/// The direct (categorical) product **A** × **B**: universe `A × B` with
/// `((a₁,b₁),…,(aₖ,bₖ)) ∈ R` iff the component tuples are in `R^A` and
/// `R^B`. Element `(i, j)` is encoded as `i · |B| + j` (see [`pair_index`]).
///
/// # Panics
/// Panics if the signatures differ.
pub fn direct_product(a: &Structure, b: &Structure) -> Structure {
    assert_eq!(
        a.signature(),
        b.signature(),
        "product of different signatures"
    );
    let bn = b.universe_size();
    let mut p = Structure::new(a.signature().clone(), a.universe_size() * bn);
    let mut tuple = Vec::new();
    for (rel, _, _) in a.signature().iter() {
        for ta in a.relation(rel).tuples() {
            for tb in b.relation(rel).tuples() {
                tuple.clear();
                tuple.extend(
                    ta.iter()
                        .zip(tb.iter())
                        .map(|(&x, &y)| pair_index(bn, x, y)),
                );
                p.add_tuple(rel, &tuple);
            }
        }
    }
    p
}

/// Encodes product element `(i, j)` for a right factor of size `b_size`.
pub fn pair_index(b_size: usize, i: u32, j: u32) -> u32 {
    i * b_size as u32 + j
}

/// Decodes a product element into `(i, j)`.
pub fn unpair_index(b_size: usize, e: u32) -> (u32, u32) {
    (e / b_size as u32, e % b_size as u32)
}

/// The k-th categorical power `A^k`. `A^0` is the one-point structure I_τ
/// (the terminal object), `A^1` is a copy of `A`.
pub fn power(a: &Structure, k: usize) -> Structure {
    let mut acc = one_point(a.signature().clone());
    for _ in 0..k {
        acc = direct_product(&acc, a);
    }
    acc
}

/// The one-point structure I_τ: universe `{0}` and every relation holding
/// the all-zero tuple (Section 2.1 of the paper).
pub fn one_point(signature: Signature) -> Structure {
    let mut s = Structure::new(signature.clone(), 1);
    for (rel, _, arity) in signature.iter() {
        s.add_tuple(rel, &vec![0; arity]);
    }
    s
}

/// The disjoint union **A** + **B** (B's elements shifted by |A|).
///
/// # Panics
/// Panics if the signatures differ.
pub fn disjoint_union(a: &Structure, b: &Structure) -> Structure {
    assert_eq!(
        a.signature(),
        b.signature(),
        "union of different signatures"
    );
    let shift = a.universe_size() as u32;
    let mut u = Structure::new(a.signature().clone(), a.universe_size() + b.universe_size());
    let mut tuple = Vec::new();
    for (rel, _, _) in a.signature().iter() {
        for t in a.relation(rel).tuples() {
            u.add_tuple(rel, &t);
        }
        for t in b.relation(rel).tuples() {
            tuple.clear();
            tuple.extend(t.iter().map(|&e| e + shift));
            u.add_tuple(rel, &tuple);
        }
    }
    u
}

/// `B + k·I`: `b` padded with `k` disjoint copies of the one-point
/// structure (the construction in the proof of Theorem 5.9). For `k > 0`,
/// every pp-formula over the signature is satisfiable on the result.
pub fn add_units(b: &Structure, k: usize) -> Structure {
    let unit = one_point(b.signature().clone());
    let mut acc = b.clone();
    for _ in 0..k {
        acc = disjoint_union(&acc, &unit);
    }
    acc
}

/// Prefix used for the pinning relations added by [`augment`].
pub const PIN_PREFIX: &str = "@pin";

/// The augmented structure aug(A, S): the vocabulary gains a fresh unary
/// symbol `@pin{i}` for the i-th element of `pinned` (in the given order),
/// interpreted as the singleton `{pinned[i]}`.
///
/// Two augmented structures are comparable when built with *corresponding*
/// pinned orders — the logic layer orders pins by liberal-variable name so
/// positions line up.
pub fn augment(a: &Structure, pinned: &[u32]) -> Structure {
    let mut sig = a.signature().clone();
    let pin_ids: Vec<_> = pinned
        .iter()
        .enumerate()
        .map(|(i, _)| sig.add_symbol(format!("{PIN_PREFIX}{i}"), 1))
        .collect();
    let mut out = Structure::new(sig, a.universe_size());
    for (rel, _, _) in a.signature().iter() {
        for t in a.relation(rel).tuples() {
            out.add_tuple(rel, &t);
        }
    }
    for (i, &e) in pinned.iter().enumerate() {
        out.add_tuple(pin_ids[i], &[e]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::{count_homomorphisms, homomorphism_exists};
    use crate::structure::Signature;

    fn digraph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        for &(u, v) in edges {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    #[test]
    fn product_universe_and_tuples() {
        let a = digraph(2, &[(0, 1)]);
        let b = digraph(3, &[(0, 1), (1, 2)]);
        let p = direct_product(&a, &b);
        assert_eq!(p.universe_size(), 6);
        // (0,0)-(1,1) and (0,1)-(1,2).
        assert_eq!(p.tuple_count(), 2);
        let e = p.signature().lookup("E").unwrap();
        assert!(p.has_tuple(e, &[pair_index(3, 0, 0), pair_index(3, 1, 1)]));
        assert!(p.has_tuple(e, &[pair_index(3, 0, 1), pair_index(3, 1, 2)]));
    }

    #[test]
    fn pairing_roundtrip() {
        for i in 0..5u32 {
            for j in 0..7u32 {
                assert_eq!(unpair_index(7, pair_index(7, i, j)), (i, j));
            }
        }
    }

    #[test]
    fn hom_counts_multiply_over_products() {
        // |Hom(A, B×C)| = |Hom(A,B)| · |Hom(A,C)| (universal property).
        let a = digraph(2, &[(0, 1)]);
        let b = digraph(2, &[(0, 1), (1, 0)]);
        let c = digraph(3, &[(0, 1), (1, 2), (2, 0)]);
        let bc = direct_product(&b, &c);
        let lhs = count_homomorphisms(&a, &bc);
        let rhs = count_homomorphisms(&a, &b) * count_homomorphisms(&a, &c);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn power_zero_is_one_point() {
        let a = digraph(3, &[(0, 1)]);
        let p0 = power(&a, 0);
        assert_eq!(p0.universe_size(), 1);
        let e = p0.signature().lookup("E").unwrap();
        assert!(p0.has_tuple(e, &[0, 0]));
        assert_eq!(power(&a, 1).universe_size(), 3);
        assert_eq!(power(&a, 2).universe_size(), 9);
    }

    #[test]
    fn every_structure_maps_into_one_point() {
        let a = digraph(4, &[(0, 1), (1, 2), (3, 3)]);
        let i = one_point(a.signature().clone());
        assert!(homomorphism_exists(&a, &i));
    }

    #[test]
    fn disjoint_union_shifts_and_preserves() {
        let a = digraph(2, &[(0, 1)]);
        let b = digraph(2, &[(1, 0)]);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.universe_size(), 4);
        let e = u.signature().lookup("E").unwrap();
        assert!(u.has_tuple(e, &[0, 1]));
        assert!(u.has_tuple(e, &[3, 2]));
        assert_eq!(u.tuple_count(), 2);
    }

    #[test]
    fn add_units_makes_everything_satisfiable() {
        // An E-empty structure has no hom from an edge; B + I does.
        let edge = digraph(2, &[(0, 1)]);
        let empty = digraph(3, &[]);
        assert!(!homomorphism_exists(&edge, &empty));
        let padded = add_units(&empty, 1);
        assert_eq!(padded.universe_size(), 4);
        assert!(homomorphism_exists(&edge, &padded));
    }

    #[test]
    fn augment_pins_elements_under_homs() {
        // P2 with endpoint 0 pinned: a hom of the augmented structure into
        // itself must fix 0.
        let p = digraph(3, &[(0, 1), (1, 2)]);
        let aug = augment(&p, &[0]);
        assert_eq!(aug.signature().len(), 2);
        let pin = aug.signature().lookup("@pin0").unwrap();
        assert!(aug.has_tuple(pin, &[0]));
        // A hom aug → aug must map 0 to 0 (the only @pin0 witness).
        let homs = count_homomorphisms(&aug, &aug);
        // Homs of P3 fixing 0: identity and the "fold" 0,1,2 → 0,1,0? No:
        // (1,2) must map to an edge from h(1)=1, so h(2) = 2. Identity only.
        assert_eq!(homs.to_u64(), Some(1));
    }

    #[test]
    fn union_product_count_laws() {
        // |Hom(A, B + C)| for connected A with at least one tuple is
        // |Hom(A,B)| + |Hom(A,C)|.
        let a = digraph(2, &[(0, 1)]);
        let b = digraph(2, &[(0, 1), (1, 0)]);
        let c = digraph(3, &[(0, 1), (1, 2)]);
        let u = disjoint_union(&b, &c);
        let lhs = count_homomorphisms(&a, &u);
        let rhs = count_homomorphisms(&a, &b) + count_homomorphisms(&a, &c);
        assert_eq!(lhs, rhs);
    }
}
