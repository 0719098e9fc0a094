//! Structure isomorphism.
//!
//! Used to compare cores: pp-formulas are logically equivalent iff their
//! cores are isomorphic (Theorem 2.3 of the paper). The [`invariant`]
//! key is also what the `φ*` merge buckets its terms by.

use crate::structure::Structure;
use std::ops::ControlFlow;

/// Whether `a` and `b` are isomorphic.
///
/// Rejects on differing [`invariant`]s first (universe size, tuple
/// counts, per-element occurrence vectors), then runs a backtracking
/// search for a bijective homomorphism; since per-relation tuple counts
/// agree, a bijective homomorphism is automatically an isomorphism (it
/// maps each relation *onto* the target relation).
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    if a.signature() != b.signature() || invariant(a, 0) != invariant(b, 0) {
        return false;
    }
    let search = crate::hom::HomSearch::new(a, b, &[]);
    let mut found = false;
    search.for_each(|h| {
        let mut used = vec![false; b.universe_size()];
        let injective = h.iter().all(|&y| {
            if used[y as usize] {
                false
            } else {
                used[y as usize] = true;
                true
            }
        });
        if injective {
            found = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found
}

/// An isomorphism invariant of `s` whose first `marked` elements are
/// distinguished (the liberal elements of a pp-formula): equal for any
/// two structures over one signature related by an isomorphism that
/// maps marked elements onto marked elements.
///
/// The key lists the universe size, `marked`, the per-relation tuple
/// counts, then the sorted multiset of per-element vectors. An
/// element's vector holds one occurrence count per (relation, position)
/// pair, followed by a 1 if the element is marked and a 0 otherwise.
/// Keys of structures over different signatures are not comparable.
pub fn invariant(s: &Structure, marked: usize) -> Vec<u64> {
    let n = s.universe_size();
    let width: usize = 1 + s.signature().iter().map(|(_, _, k)| k).sum::<usize>();
    let mut rows = vec![0u64; n * width];
    let mut key = vec![n as u64, marked as u64];
    let mut column = 0;
    for (rel, _, arity) in s.signature().iter() {
        let relation = s.relation(rel);
        key.push(relation.len() as u64);
        for t in relation.tuples() {
            for (p, &e) in t.iter().enumerate() {
                rows[e as usize * width + column + p] += 1;
            }
        }
        column += arity;
    }
    for e in 0..marked.min(n) {
        rows[e * width + column] = 1;
    }
    let mut sorted: Vec<&[u64]> = rows.chunks_exact(width).collect();
    sorted.sort_unstable();
    key.reserve(rows.len());
    for row in sorted {
        key.extend_from_slice(row);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn relabeled_cycles_are_isomorphic() {
        let c = digraph(3, &[(0, 1), (1, 2), (2, 0)]);
        let d = digraph(3, &[(1, 0), (0, 2), (2, 1)]);
        assert!(isomorphic(&c, &d));
    }

    #[test]
    fn direction_matters() {
        let path = digraph(3, &[(0, 1), (1, 2)]);
        let inward = digraph(3, &[(0, 1), (2, 1)]);
        assert!(!isomorphic(&path, &inward));
    }

    #[test]
    fn size_and_count_mismatch() {
        assert!(!isomorphic(&digraph(2, &[(0, 1)]), &digraph(3, &[(0, 1)])));
        assert!(!isomorphic(
            &digraph(2, &[(0, 1)]),
            &digraph(2, &[(0, 1), (1, 0)])
        ));
    }

    #[test]
    fn empty_structures_are_isomorphic() {
        assert!(isomorphic(&digraph(0, &[]), &digraph(0, &[])));
    }

    #[test]
    fn signature_mismatch_is_not_isomorphic() {
        let a = digraph(1, &[]);
        let b = Structure::new(Signature::from_symbols([("F", 2)]), 1);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn invariant_is_stable_under_relabeling_and_sees_marks() {
        let c = digraph(3, &[(0, 1), (1, 2), (2, 0), (0, 0)]);
        let (relabeled, _) = c.induced_substructure(&[2, 0, 1]);
        assert_eq!(invariant(&c, 0), invariant(&relabeled, 0));
        // One edge, its source marked vs its target marked.
        let out = digraph(2, &[(0, 1)]);
        let into = digraph(2, &[(1, 0)]);
        assert_eq!(invariant(&out, 0), invariant(&into, 0));
        assert_ne!(invariant(&out, 1), invariant(&into, 1));
        assert_ne!(invariant(&out, 1), invariant(&out, 2));
    }

    #[test]
    fn bijective_hom_that_is_not_onto_a_relation_is_rejected() {
        // a: edges (0,1); b: edges (0,1) — but also compare a variant where
        // a bijective vertex map exists yet tuple counts differ.
        let a = digraph(3, &[(0, 1), (1, 2)]);
        let b = digraph(3, &[(0, 1), (0, 2)]);
        assert!(!isomorphic(&a, &b));
    }
}
