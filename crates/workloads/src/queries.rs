//! Query family generators.
//!
//! Families are indexed by a size parameter `k` and come in three width
//! profiles matching the trichotomy's regimes:
//!
//! * flat core & contract treewidth (paths, stars, quantified chains) —
//!   the FPT regime;
//! * growing core treewidth, flat contract treewidth (quantified
//!   cliques) — the Clique-equivalent regime;
//! * growing contract treewidth (free cliques, free grids) — the
//!   #Clique-hard regime.

use epq_logic::{Formula, Query, Var};
use epq_structures::Signature;
use rand::Rng;

/// `P_k(v0,…,vk) = ⋀ E(v_i, v_{i+1})` — the length-k directed path query
/// (treewidth 1; FPT family).
pub fn path_query(k: usize) -> Query {
    assert!(k >= 1, "paths need at least one edge");
    let atoms = (0..k).map(|i| {
        Formula::Atom(epq_logic::Atom::new(
            "E",
            vec![Var::new(format!("v{i}")), Var::new(format!("v{}", i + 1))],
        ))
    });
    Query::from_formula(Formula::conjunction(atoms)).expect("valid path query")
}

/// The k-cycle query `C_k` (treewidth 2; FPT family).
pub fn cycle_query(k: usize) -> Query {
    assert!(k >= 2, "cycles need at least 2 edges");
    let mut atoms: Vec<Formula> = (0..k - 1)
        .map(|i| {
            Formula::Atom(epq_logic::Atom::new(
                "E",
                vec![Var::new(format!("v{i}")), Var::new(format!("v{}", i + 1))],
            ))
        })
        .collect();
    atoms.push(Formula::Atom(epq_logic::Atom::new(
        "E",
        vec![Var::new(format!("v{}", k - 1)), Var::new("v0")],
    )));
    Query::from_formula(Formula::conjunction(atoms)).expect("valid cycle query")
}

/// The k-leaf out-star query `⋀ E(c, l_i)` (treewidth 1; FPT family).
pub fn star_query(k: usize) -> Query {
    assert!(k >= 1);
    let atoms = (0..k).map(|i| {
        Formula::Atom(epq_logic::Atom::new(
            "E",
            vec![Var::new("c"), Var::new(format!("l{i}"))],
        ))
    });
    Query::from_formula(Formula::conjunction(atoms)).expect("valid star query")
}

/// The quantified-middle path query
/// `Q_k(x, y) = ∃u₁…u_{k−1} . E(x,u₁) ∧ … ∧ E(u_{k−1},y)`
/// (core/contract treewidth 1; FPT family with quantifiers).
pub fn quantified_path_query(k: usize) -> Query {
    assert!(k >= 2, "need at least one quantified middle vertex");
    let middles: Vec<String> = (1..k).map(|i| format!("u{i}")).collect();
    let mut names = vec!["x".to_string()];
    names.extend(middles.iter().cloned());
    names.push("y".to_string());
    let atoms = (0..k).map(|i| {
        Formula::Atom(epq_logic::Atom::new(
            "E",
            vec![Var::new(&names[i]), Var::new(&names[i + 1])],
        ))
    });
    let matrix = Formula::conjunction(atoms);
    let refs: Vec<&str> = middles.iter().map(|s| s.as_str()).collect();
    Query::from_formula(Formula::exists(&refs, matrix)).expect("valid quantified path")
}

/// The free k-clique query (growing core *and* contract treewidth:
/// the #Clique-hard family). Re-exported from `epq-counting`.
pub fn clique_query(k: usize) -> Query {
    epq_counting::clique::clique_query(k)
}

/// The pendant-clique query
/// `W_k(x) = ∃u₁…u_k . E(x,u₁) ∧ ⋀_{i<j} E(u_i,u_j)` — one free vertex
/// attached to a fully quantified k-clique. Core treewidth grows with k,
/// contract treewidth stays 0: the Clique-equivalent family (case 2).
pub fn pendant_clique_query(k: usize) -> Query {
    assert!(k >= 2);
    let us: Vec<String> = (1..=k).map(|i| format!("u{i}")).collect();
    let mut atoms = vec![Formula::Atom(epq_logic::Atom::new(
        "E",
        vec![Var::new("x"), Var::new(&us[0])],
    ))];
    for i in 0..k {
        for j in i + 1..k {
            atoms.push(Formula::Atom(epq_logic::Atom::new(
                "E",
                vec![Var::new(&us[i]), Var::new(&us[j])],
            )));
        }
    }
    let refs: Vec<&str> = us.iter().map(|s| s.as_str()).collect();
    Query::from_formula(Formula::exists(&refs, Formula::conjunction(atoms)))
        .expect("valid pendant clique query")
}

/// The free `r × c` grid query (contract treewidth min(r, c): a
/// polynomially-growing hard family).
pub fn grid_query(rows: usize, cols: usize) -> Query {
    assert!(rows >= 1 && cols >= 1);
    let var = |r: usize, c: usize| format!("g{r}_{c}");
    let mut atoms = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                atoms.push(Formula::Atom(epq_logic::Atom::new(
                    "E",
                    vec![Var::new(var(r, c)), Var::new(var(r, c + 1))],
                )));
            }
            if r + 1 < rows {
                atoms.push(Formula::Atom(epq_logic::Atom::new(
                    "E",
                    vec![Var::new(var(r, c)), Var::new(var(r + 1, c))],
                )));
            }
        }
    }
    Query::from_formula(Formula::conjunction(atoms)).expect("valid grid query")
}

/// A seeded random conjunctive query: `vars` variables named `v0…`,
/// `atoms` binary `E`-atoms over them, each variable quantified with
/// probability `quantify`.
pub fn random_cq<R: Rng>(rng: &mut R, vars: usize, atoms: usize, quantify: f64) -> Query {
    assert!(vars >= 1);
    let names: Vec<String> = (0..vars).map(|i| format!("v{i}")).collect();
    let mut parts = Vec::with_capacity(atoms);
    for _ in 0..atoms {
        let a = rng.gen_range(0..vars);
        let b = rng.gen_range(0..vars);
        parts.push(Formula::Atom(epq_logic::Atom::new(
            "E",
            vec![Var::new(&names[a]), Var::new(&names[b])],
        )));
    }
    let matrix = Formula::conjunction(parts);
    let used = matrix.free_vars();
    let quantified: Vec<&str> = names
        .iter()
        .filter(|n| used.contains(&Var::new(n.as_str())) && rng.gen_bool(quantify))
        .map(|s| s.as_str())
        .collect();
    Query::from_formula(Formula::exists(&quantified, matrix)).expect("valid random CQ")
}

/// A seeded random UCQ: a disjunction of random CQ disjuncts over a
/// shared variable pool. Which variables are quantifiable is decided
/// globally (with probability `quantify` per variable), so no variable is
/// liberal in one disjunct and quantified in another.
pub fn random_ucq<R: Rng>(
    rng: &mut R,
    disjuncts: usize,
    vars: usize,
    atoms: usize,
    quantify: f64,
) -> Query {
    random_ucq_with(rng, disjuncts, vars, atoms, quantify, |rng, names| {
        let a = rng.gen_range(0..names.len());
        let b = rng.gen_range(0..names.len());
        Formula::Atom(epq_logic::Atom::new(
            "E",
            vec![Var::new(&names[a]), Var::new(&names[b])],
        ))
    })
}

/// A seeded random UCQ over an arbitrary signature: like
/// [`random_ucq`], but each atom draws its relation symbol uniformly
/// from `signature` and fills its arity with random variables from the
/// shared pool. Which variables are quantifiable is decided globally,
/// as in [`random_ucq`].
pub fn random_ucq_over<R: Rng>(
    rng: &mut R,
    signature: &Signature,
    disjuncts: usize,
    vars: usize,
    atoms: usize,
    quantify: f64,
) -> Query {
    assert!(!signature.is_empty());
    let symbols: Vec<(String, usize)> = signature
        .iter()
        .map(|(_, name, arity)| (name.to_string(), arity))
        .collect();
    random_ucq_with(rng, disjuncts, vars, atoms, quantify, |rng, names| {
        let (name, arity) = &symbols[rng.gen_range(0..symbols.len())];
        let args: Vec<Var> = (0..*arity)
            .map(|_| Var::new(&names[rng.gen_range(0..names.len())]))
            .collect();
        Formula::Atom(epq_logic::Atom::new(name, args))
    })
}

/// The shared UCQ builder behind [`random_ucq`] and
/// [`random_ucq_over`], parameterized by the atom draw (kept a closure
/// rather than delegation so each caller's seeded RNG sequence stays
/// exactly what it always was).
fn random_ucq_with<R: Rng>(
    rng: &mut R,
    disjuncts: usize,
    vars: usize,
    atoms: usize,
    quantify: f64,
    mut draw_atom: impl FnMut(&mut R, &[String]) -> Formula,
) -> Query {
    assert!(disjuncts >= 1);
    assert!(vars >= 1);
    let names: Vec<String> = (0..vars).map(|i| format!("v{i}")).collect();
    let quantifiable: Vec<bool> = (0..vars).map(|_| rng.gen_bool(quantify)).collect();
    let parts: Vec<Formula> = (0..disjuncts)
        .map(|_| {
            let body: Vec<Formula> = (0..atoms).map(|_| draw_atom(rng, &names)).collect();
            let matrix = Formula::conjunction(body);
            let used = matrix.free_vars();
            let quantified: Vec<&str> = names
                .iter()
                .enumerate()
                .filter(|(i, n)| quantifiable[*i] && used.contains(&Var::new(n.as_str())))
                .map(|(_, s)| s.as_str())
                .collect();
            Formula::exists(&quantified, matrix)
        })
        .collect();
    Query::from_formula(Formula::disjunction(parts)).expect("valid random UCQ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::query::infer_signature;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_ucq_over_uses_signature_and_is_deterministic() {
        let sig = Signature::from_symbols([("E", 2), ("T", 3)]);
        let a = random_ucq_over(&mut StdRng::seed_from_u64(5), &sig, 2, 3, 2, 0.4);
        let b = random_ucq_over(&mut StdRng::seed_from_u64(5), &sig, 2, 3, 2, 0.4);
        assert_eq!(a.to_string(), b.to_string());
        // Every atom checks against the generating signature.
        epq_logic::query::check_against_signature(a.formula(), &sig).unwrap();
    }

    #[test]
    fn path_query_shape() {
        let q = path_query(3);
        assert_eq!(q.formula().atoms().len(), 3);
        assert_eq!(q.liberal_count(), 4);
        assert!(q.is_pp());
    }

    #[test]
    fn cycle_query_closes() {
        let q = cycle_query(4);
        assert_eq!(q.formula().atoms().len(), 4);
        assert_eq!(q.liberal_count(), 4);
    }

    #[test]
    fn quantified_path_liberal_set() {
        let q = quantified_path_query(3);
        assert_eq!(q.liberal_count(), 2);
        assert_eq!(q.formula().atoms().len(), 3);
    }

    #[test]
    fn pendant_clique_is_single_free_variable() {
        let q = pendant_clique_query(3);
        assert_eq!(q.liberal_count(), 1);
        // 1 pendant edge + C(3,2) clique atoms.
        assert_eq!(q.formula().atoms().len(), 4);
    }

    #[test]
    fn grid_query_atom_count() {
        let q = grid_query(2, 3);
        // edges of a 2×3 grid = 7.
        assert_eq!(q.formula().atoms().len(), 7);
        assert_eq!(q.liberal_count(), 6);
    }

    #[test]
    fn random_cq_is_deterministic_per_seed() {
        let a = random_cq(&mut StdRng::seed_from_u64(1), 4, 5, 0.4);
        let b = random_cq(&mut StdRng::seed_from_u64(1), 4, 5, 0.4);
        assert_eq!(a, b);
        assert!(a.is_pp());
    }

    #[test]
    fn random_ucq_has_requested_disjuncts() {
        let q = random_ucq(&mut StdRng::seed_from_u64(2), 3, 4, 3, 0.3);
        assert!(!q.is_pp());
        let sig = infer_signature([q.formula()]).unwrap();
        let ds = epq_logic::dnf::disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn star_query_center_degree() {
        let q = star_query(5);
        assert_eq!(q.formula().atoms().len(), 5);
        assert_eq!(q.liberal_count(), 6);
    }
}
