//! Structure isomorphism.
//!
//! Used to compare cores: pp-formulas are logically equivalent iff their
//! cores are isomorphic (Theorem 2.3 of the paper).

use crate::structure::Structure;
use std::ops::ControlFlow;

/// Whether `a` and `b` are isomorphic.
///
/// Backtracking search for a bijective homomorphism; since per-relation
/// tuple counts are checked first, a bijective homomorphism is
/// automatically an isomorphism (it maps each relation *onto* the target
/// relation).
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    if a.signature() != b.signature() {
        return false;
    }
    if a.universe_size() != b.universe_size() {
        return false;
    }
    for (rel, _, _) in a.signature().iter() {
        if a.relation(rel).len() != b.relation(rel).len() {
            return false;
        }
    }
    // Cheap invariant: multiset of element "degrees" (occurrence counts).
    let mut deg_a = occurrence_profile(a);
    let mut deg_b = occurrence_profile(b);
    deg_a.sort_unstable();
    deg_b.sort_unstable();
    if deg_a != deg_b {
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

/// Per-element total occurrence counts across all relations (an
/// isomorphism invariant).
fn occurrence_profile(s: &Structure) -> Vec<usize> {
    let mut counts = vec![0usize; s.universe_size()];
    for (rel, _, _) in s.signature().iter() {
        for t in s.relation(rel).tuples() {
            for &e in t.iter() {
                counts[e as usize] += 1;
            }
        }
    }
    counts
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
    fn bijective_hom_that_is_not_onto_a_relation_is_rejected() {
        // a: edges (0,1); b: edges (0,1) — but also compare a variant where
        // a bijective vertex map exists yet tuple counts differ.
        let a = digraph(3, &[(0, 1), (1, 2)]);
        let b = digraph(3, &[(0, 1), (0, 2)]);
        assert!(!isomorphic(&a, &b));
    }
}
