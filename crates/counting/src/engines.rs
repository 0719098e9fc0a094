//! A common interface over the pp-counting engines, for cross-checking
//! tests and the benchmark harness (experiment F1).

use crate::brute::{assignment_space, count_pp_brute, for_each_assignment_in_range};
use epq_bigint::Natural;
use epq_logic::PpFormula;
use epq_structures::Structure;

/// An engine that computes `|φ(B)|` for prenex pp-formulas.
///
/// Engines are `Send + Sync` so that one engine instance can serve
/// counts for many structures concurrently (the batched counting API
/// in `epq_core::prepared` fans a shared `&dyn PpCountingEngine`
/// across the pool workers). All engines here are stateless unit
/// structs: the worker cap is an argument of each call, not engine
/// state.
pub trait PpCountingEngine: Send + Sync {
    /// A short display name for reports.
    fn name(&self) -> &'static str;

    /// Computes `|φ(B)|`, sharding the engine's hot loops across up to
    /// `threads` pool workers. The result is identical at every thread
    /// count, and `threads <= 1` runs the sequential algorithm.
    fn count_threads(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural;

    /// Computes `|φ(B)|` on one worker.
    fn count(&self, pp: &PpFormula, b: &Structure) -> Natural {
        self.count_threads(pp, b, 1)
    }

    /// Whether this engine evaluates by relational-algebra atom scans,
    /// so that an incremental maintainer
    /// (`epq_core::incremental::LiveCount`) can re-evaluate affected
    /// formulas through cached scan intermediates
    /// (`epq_relalg::ScanCache`). The DP-table and enumeration engines
    /// return `false`: a dirty relation invalidates their state
    /// wholesale, so incremental maintenance falls back to a full
    /// per-formula recount through the engine.
    fn scan_based(&self) -> bool {
        false
    }
}

/// Exhaustive assignment enumeration (`O(|B|^|lib|)` hom checks).
///
/// With more than one worker, the flat index range `0..|B|^|lib|` is
/// split into contiguous shards (a few per worker, so the atomic job
/// cursor balances uneven satisfiability checks) and the per-shard
/// partial counts are summed in shard order (see
/// [`crate::brute::for_each_assignment_in_range`]).
pub struct BruteForceEngine;

impl PpCountingEngine for BruteForceEngine {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn count_threads(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        let arity = pp.liberal_count();
        let domain = b.universe_size();
        let total = match assignment_space(domain, arity) {
            Some(total) if threads > 1 && total > 1 => total,
            _ => return count_pp_brute(pp, b),
        };
        let jobs: Vec<_> = epq_pool::split_ranges(total, threads.saturating_mul(4))
            .into_iter()
            .map(|(start, end)| {
                move || {
                    let mut count = Natural::zero();
                    let one = Natural::one();
                    for_each_assignment_in_range(domain, arity, start, end, &mut |values| {
                        if pp.satisfied_by(b, values) {
                            count += &one;
                        }
                    });
                    count
                }
            })
            .collect();
        let mut acc = Natural::zero();
        for partial in epq_pool::run_jobs(threads, jobs) {
            acc += &partial;
        }
        acc
    }
}

/// The relational-algebra engine (scan/join/project, per component);
/// each join's outer relation is partitioned across the workers (see
/// [`epq_relalg::count_pp`]).
pub struct RelalgEngine;

impl PpCountingEngine for RelalgEngine {
    fn name(&self) -> &'static str {
        "relalg"
    }

    fn count_threads(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        epq_relalg::count_pp(pp, b, threads)
    }

    fn scan_based(&self) -> bool {
        true
    }
}

/// The `#Hom` tree-decomposition dynamic program (Dalmau–Jonsson).
///
/// Directly applicable to quantifier-free formulas, where
/// `|φ(B)| = #Hom(A, B) · |B|^(#isolated liberal variables not in atoms)`
/// — which the DP handles natively because isolated liberal variables are
/// unconstrained CSP variables. Quantified formulas delegate to the FPT
/// algorithm (homomorphism counts do not project).
pub struct HomDpEngine;

impl PpCountingEngine for HomDpEngine {
    fn name(&self) -> &'static str {
        "hom-dp"
    }

    fn count_threads(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        if pp.quantified_names().is_empty() {
            crate::csp::count_homs_td(pp.structure(), b, threads)
        } else {
            crate::fpt::count_pp_fpt(pp, b, threads)
        }
    }
}

/// The full FPT algorithm (\[CM15\]; see [`crate::fpt`]).
pub struct FptEngine;

impl PpCountingEngine for FptEngine {
    fn name(&self) -> &'static str {
        "fpt"
    }

    fn count_threads(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        crate::fpt::count_pp_fpt(pp, b, threads)
    }
}

/// Every engine, for cross-checking loops.
pub fn all_engines() -> Vec<Box<dyn PpCountingEngine>> {
    vec![
        Box::new(BruteForceEngine),
        Box::new(RelalgEngine),
        Box::new(HomDpEngine),
        Box::new(FptEngine),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_structures::Signature;

    fn pp_of(text: &str) -> PpFormula {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    fn structures() -> Vec<Structure> {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut c = Structure::new(sig.clone(), 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            c.add_tuple_named("E", &[u, v]);
        }
        let mut dense = Structure::new(sig.clone(), 5);
        for u in 0..5u32 {
            for v in 0..5u32 {
                if (u + 2 * v) % 3 == 0 {
                    dense.add_tuple_named("E", &[u, v]);
                }
            }
        }
        let empty = Structure::new(sig, 3);
        vec![c, dense, empty]
    }

    #[test]
    fn all_engines_agree_across_queries_and_structures() {
        let queries = [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "E(x,y) & E(y,z)",
            "E(x,x)",
            "(x) := exists u . E(x,u)",
            "(x,y) := exists u . E(x,u) & E(y,u)",
            "(x) := exists u, v . E(x,u) & E(u,v)",
        ];
        let engines = all_engines();
        for b in structures() {
            for q in queries {
                let pp = pp_of(q);
                let reference = engines[0].count(&pp, &b);
                for e in &engines[1..] {
                    assert_eq!(
                        e.count(&pp, &b),
                        reference,
                        "engine {} disagrees on {q}",
                        e.name()
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_engines_agree_at_every_thread_count() {
        let pp = pp_of("(x,y) := exists u . E(x,u) & E(y,u)");
        for b in structures() {
            let expected = FptEngine.count(&pp, &b);
            for e in all_engines() {
                for threads in [0usize, 1, 2, 4] {
                    assert_eq!(
                        e.count_threads(&pp, &b, threads),
                        expected,
                        "engine {} at {threads} threads",
                        e.name()
                    );
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_engines().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 4);
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }
}
