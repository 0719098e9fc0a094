//! Disjunctive form and normalization of ep-formulas.
//!
//! Every ep-formula is equivalent to a *disjunctive* ep-formula — a
//! disjunction of prenex pp-formulas sharing the outer liberal set
//! (Section 2.1). [`disjuncts`] performs that rewriting; [`normalize`]
//! keeps the entailment-minimal disjuncts (no disjunct entails another),
//! the classical UCQ minimization. It is stronger than the paper's
//! normalization (no sentence disjunct has a homomorphism into any other
//! disjunct) and changes no count or classification: `φ*_af` is unique
//! up to counting equivalence (Proposition 5.16), so the disjuncts it
//! drops only shrink the inclusion–exclusion expansion. At most 24 free
//! disjuncts ([`MAX_EXPANSION_DISJUNCTS`]) may remain after
//! normalization.

use crate::formula::Formula;
use crate::pp::PpFormula;
use crate::query::{LogicError, Query};
use epq_structures::Signature;

/// Rewrites a query into its list of prenex pp disjuncts, each carrying
/// the query's full liberal variable set.
///
/// The number of disjuncts can be exponential in the nesting of ∧ over ∨;
/// this is inherent to the disjunctive form (the formula is the
/// *parameter* in the parameterized problems studied).
pub fn disjuncts(query: &Query, signature: &Signature) -> Result<Vec<PpFormula>, LogicError> {
    let pieces = dnf_pieces(query.formula());
    pieces
        .into_iter()
        .map(|piece| {
            let sub = Query::new(piece, query.liberal().to_vec())?;
            PpFormula::from_query(&sub, signature)
        })
        .collect()
}

/// Recursively lifts disjunction to the top: returns pp formula trees
/// whose disjunction is equivalent to `f`.
fn dnf_pieces(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::Top | Formula::Atom(_) => vec![f.clone()],
        Formula::Or(l, r) => {
            let mut out = dnf_pieces(l);
            out.extend(dnf_pieces(r));
            out
        }
        Formula::And(l, r) => {
            let ls = dnf_pieces(l);
            let rs = dnf_pieces(r);
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for a in &ls {
                for b in &rs {
                    out.push(a.clone().and(b.clone()));
                }
            }
            out
        }
        // ∃x (α ∨ β) ≡ ∃x α ∨ ∃x β.
        Formula::Exists(v, body) => dnf_pieces(body)
            .into_iter()
            .map(|piece| Formula::Exists(v.clone(), Box::new(piece)))
            .collect(),
    }
}

/// The largest number of free disjuncts the inclusion–exclusion
/// expansion of `φ*_af` accepts: `2^24 − 1` raw terms is already far
/// beyond any practical query (the formula is the parameter).
/// [`normalize`] stops minimizing the free disjuncts once it keeps more
/// than this many, since such a query is rejected anyway.
pub const MAX_EXPANSION_DISJUNCTS: usize = 24;

/// The one UCQ normal form: the entailment antichain of the disjuncts.
/// A disjunct that entails another is dropped (its answers are contained
/// in the other's), and among logically equivalent disjuncts the
/// earliest stays; survivors keep their input order. The result is
/// logically equivalent to the input disjunction, and it satisfies the
/// paper's normalization (Section 2.1: no sentence disjunct maps into
/// any other disjunct).
///
/// Sentence disjuncts are minimized first, then the free ones against
/// the kept antichain (a sentence never entails a free disjunct). Once
/// more than [`MAX_EXPANSION_DISJUNCTS`] free disjuncts are kept, the
/// remaining free disjuncts are only checked against the sentences and
/// appended: the query is past the expansion limit either way, and this
/// bounds the pairwise checks on wide DNFs.
pub fn normalize(disjuncts: Vec<PpFormula>) -> Vec<PpFormula> {
    let (sentences, free): (Vec<usize>, Vec<usize>) =
        (0..disjuncts.len()).partition(|&i| disjuncts[i].is_sentence());
    let mut kept_sentences: Vec<usize> = Vec::new();
    for i in sentences {
        keep_if_minimal(&disjuncts, &mut kept_sentences, i);
    }
    let mut kept_free: Vec<usize> = Vec::new();
    for i in free {
        if kept_sentences
            .iter()
            .any(|&k| disjuncts[i].entails(&disjuncts[k]))
        {
            continue;
        }
        if kept_free.len() > MAX_EXPANSION_DISJUNCTS {
            kept_free.push(i);
        } else {
            keep_if_minimal(&disjuncts, &mut kept_free, i);
        }
    }
    let mut keep = vec![false; disjuncts.len()];
    for i in kept_sentences.into_iter().chain(kept_free) {
        keep[i] = true;
    }
    disjuncts
        .into_iter()
        .zip(keep)
        .filter_map(|(d, k)| k.then_some(d))
        .collect()
}

/// Adds disjunct `i` to the antichain `kept` (indices into `disjuncts`,
/// all earlier than `i`) unless it entails a kept disjunct, dropping the
/// kept disjuncts that entail it.
fn keep_if_minimal(disjuncts: &[PpFormula], kept: &mut Vec<usize>, i: usize) {
    let candidate = &disjuncts[i];
    if kept.iter().any(|&k| candidate.entails(&disjuncts[k])) {
        return;
    }
    kept.retain(|&k| !disjuncts[k].entails(candidate));
    kept.push(i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Var;
    use crate::query::infer_signature;

    fn query(liberal: &[&str], f: Formula) -> (Query, Signature) {
        let sig = infer_signature([&f]).unwrap();
        let q = Query::new(f, liberal.iter().map(|&v| Var::new(v))).unwrap();
        (q, sig)
    }

    /// Example 4.1: φ(w,x,y,z) = E(x,y) ∧ (E(w,x) ∨ (E(y,z) ∧ E(z,z))).
    fn example_4_1() -> (Query, Signature) {
        let f = Formula::atom("E", &["x", "y"]).and(
            Formula::atom("E", &["w", "x"])
                .or(Formula::atom("E", &["y", "z"]).and(Formula::atom("E", &["z", "z"]))),
        );
        query(&["w", "x", "y", "z"], f)
    }

    #[test]
    fn example_4_1_lifts_to_two_disjuncts() {
        let (q, sig) = example_4_1();
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        // φ1 = E(x,y) ∧ E(w,x); φ2 = E(x,y) ∧ E(y,z) ∧ E(z,z).
        assert_eq!(ds[0].structure().tuple_count(), 2);
        assert_eq!(ds[1].structure().tuple_count(), 3);
        for d in &ds {
            assert_eq!(d.liberal_count(), 4);
        }
    }

    #[test]
    fn exists_distributes_over_or() {
        // ∃u (E(x,u) ∨ E(u,x)) → two disjuncts each with the quantifier.
        let f = Formula::exists(
            &["u"],
            Formula::atom("E", &["x", "u"]).or(Formula::atom("E", &["u", "x"])),
        );
        let (q, sig) = query(&["x"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        for d in &ds {
            assert_eq!(d.quantified_names().len(), 1);
            assert_eq!(d.structure().tuple_count(), 1);
        }
    }

    #[test]
    fn and_over_or_multiplies() {
        // (a ∨ b) ∧ (c ∨ d) → 4 disjuncts.
        let f = (Formula::atom("A", &["x"]).or(Formula::atom("B", &["x"])))
            .and(Formula::atom("C", &["x"]).or(Formula::atom("D", &["x"])));
        let (q, sig) = query(&["x"], f);
        assert_eq!(disjuncts(&q, &sig).unwrap().len(), 4);
    }

    #[test]
    fn normalization_drops_disjuncts_subsumed_by_sentences() {
        // θ1 = ∃a,b,c,d . E(a,b) ∧ E(b,c) ∧ E(c,d) (a sentence disjunct);
        // ψ = E(x,y) ∧ E(y,z) ∧ E(z,w) entails θ1 → ψ dropped.
        let sentence = Formula::exists(
            &["a", "b", "c", "d"],
            Formula::conjunction([
                Formula::atom("E", &["a", "b"]),
                Formula::atom("E", &["b", "c"]),
                Formula::atom("E", &["c", "d"]),
            ]),
        );
        let psi = Formula::conjunction([
            Formula::atom("E", &["x", "y"]),
            Formula::atom("E", &["y", "z"]),
            Formula::atom("E", &["z", "w"]),
        ]);
        let f = sentence.or(psi);
        let (q, sig) = query(&["w", "x", "y", "z"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        let normalized = normalize(ds);
        assert_eq!(normalized.len(), 1);
        assert!(normalized[0].is_sentence());
    }

    #[test]
    fn normalization_keeps_incomparable_disjuncts() {
        // E(x,y) ∨ F(x,y): nothing to drop.
        let f = Formula::atom("E", &["x", "y"]).or(Formula::atom("F", &["x", "y"]));
        let (q, sig) = query(&["x", "y"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(normalize(ds).len(), 2);
    }

    #[test]
    fn normalization_dedupes_equivalent_sentences() {
        // Two logically equivalent sentence disjuncts → one survives.
        let s1 = Formula::exists(&["a", "b"], Formula::atom("E", &["a", "b"]));
        let s2 = Formula::exists(&["c", "d"], Formula::atom("E", &["c", "d"]));
        let f = s1.or(s2);
        let (q, sig) = query(&["x"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(normalize(ds).len(), 1);
    }

    #[test]
    fn normalization_drops_entailing_free_disjuncts() {
        // (E(x,y) ∧ E(y,x)) ∨ E(x,y): the first entails the second.
        let strong = Formula::atom("E", &["x", "y"]).and(Formula::atom("E", &["y", "x"]));
        let weak = Formula::atom("E", &["x", "y"]);
        let f = strong.or(weak);
        let (q, sig) = query(&["x", "y"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        let normalized = normalize(ds);
        assert_eq!(normalized.len(), 1);
        assert_eq!(normalized[0].structure().tuple_count(), 1);
    }

    #[test]
    fn normalization_keeps_the_first_of_equivalent_free_disjuncts() {
        // E(x,y) ∨ (∃u . E(x,y) ∧ E(x,u)) ∨ E(x,y): all three are
        // equivalent; the first (one atom) stays.
        let f = Formula::atom("E", &["x", "y"])
            .or(Formula::exists(
                &["u"],
                Formula::atom("E", &["x", "y"]).and(Formula::atom("E", &["x", "u"])),
            ))
            .or(Formula::atom("E", &["x", "y"]));
        let (q, sig) = query(&["x", "y"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 3);
        let normalized = normalize(ds);
        assert_eq!(normalized.len(), 1);
        assert_eq!(normalized[0].structure().tuple_count(), 1);
    }

    #[test]
    fn normalization_keeps_input_order() {
        // F(x) ∨ (E(x) ∧ F(x)) ∨ ∃a G(a) ∨ E(x): the second disjunct
        // entails the first and goes; the rest keep their order.
        let f = Formula::atom("F", &["x"])
            .or(Formula::atom("E", &["x"]).and(Formula::atom("F", &["x"])))
            .or(Formula::exists(&["a"], Formula::atom("G", &["a"])))
            .or(Formula::atom("E", &["x"]));
        let (q, sig) = query(&["x"], f);
        let normalized = normalize(disjuncts(&q, &sig).unwrap());
        let shown: Vec<String> = normalized.iter().map(|d| d.to_string()).collect();
        assert_eq!(normalized.len(), 3, "{shown:?}");
        assert!(normalized[0].is_free() && normalized[2].is_free());
        assert!(normalized[1].is_sentence());
    }

    #[test]
    fn free_disjuncts_past_the_limit_are_appended_unminimized() {
        // MAX + 1 incomparable disjuncts, then one more copy of the
        // first: it is past the limit, so only the sentence check runs.
        let names: Vec<String> = (0..=MAX_EXPANSION_DISJUNCTS)
            .map(|i| format!("R{i}"))
            .collect();
        let mut f = Formula::atom(&names[0], &["x"]);
        for name in &names[1..] {
            f = f.or(Formula::atom(name, &["x"]));
        }
        f = f.or(Formula::atom(&names[0], &["x"]));
        let (q, sig) = query(&["x"], f);
        let normalized = normalize(disjuncts(&q, &sig).unwrap());
        assert_eq!(normalized.len(), MAX_EXPANSION_DISJUNCTS + 2);
    }
}
