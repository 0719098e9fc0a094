//! The trichotomy classifier (Theorem 3.2).
//!
//! For a set Φ of ep-formulas of bounded arity, with Φ⁺ the derived
//! pp-formula set of Theorem 3.1:
//!
//! 1. Φ⁺ satisfies the **tractability condition** (cores *and* contract
//!    graphs of bounded treewidth) → `param-count[Φ]` is **FPT**;
//! 2. Φ⁺ satisfies only the **contraction condition** (contract graphs
//!    bounded) → interreducible with **p-Clique** (W\[1\]-equivalent);
//! 3. otherwise → **p-#Clique-hard** (#W\[1\]-hard).
//!
//! Boundedness is a property of infinite families, so the API computes
//! exact per-formula width measures ([`PpAnalysis`], [`QueryAnalysis`])
//! and classifies *against an explicit width bound* ([`classify_widths`]),
//! or reports the measured growth of a family
//! ([`FamilyReport`]). The benchmark harness prints the trichotomy table
//! (experiment T1) from these reports.

use crate::plus::plus_decomposition;
use epq_graph::{treewidth, TreewidthBound};
use epq_logic::query::LogicError;
use epq_logic::{contract, PpFormula, Query};
use epq_structures::Signature;
use std::fmt;

/// The three regimes of Theorem 3.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// Case 1: fixed-parameter tractable.
    Fpt,
    /// Case 2: interreducible with p-Clique under counting
    /// FPT-reductions (W\[1\]-equivalent).
    CliqueEquivalent,
    /// Case 3: at least as hard as p-#Clique (#W\[1\]-hard).
    SharpCliqueHard,
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regime::Fpt => write!(f, "FPT"),
            Regime::CliqueEquivalent => write!(f, "Clique-equivalent (W[1])"),
            Regime::SharpCliqueHard => write!(f, "#Clique-hard (#W[1])"),
        }
    }
}

/// Width measures of a single pp-formula (computed on its core, as the
/// conditions require).
#[derive(Clone, Debug)]
pub struct PpAnalysis {
    /// The core of the formula.
    pub core: PpFormula,
    /// Treewidth of the core's Gaifman graph.
    pub core_treewidth: TreewidthBound,
    /// Treewidth of contract(core).
    pub contract_treewidth: TreewidthBound,
}

/// Analyzes one pp-formula: core it, measure both treewidths.
pub fn analyze_pp(pp: &PpFormula) -> PpAnalysis {
    let core = pp.core();
    let core_treewidth = treewidth::treewidth_bound(&core.structure().gaifman_graph());
    let contract_treewidth = treewidth::treewidth_bound(&contract::contract_graph(&core));
    PpAnalysis {
        core,
        core_treewidth,
        contract_treewidth,
    }
}

/// The analysis of an ep-query: its `φ⁺` with per-formula measures.
#[derive(Clone, Debug)]
pub struct QueryAnalysis {
    /// Analyses of each formula in `φ⁺`.
    pub plus_analyses: Vec<PpAnalysis>,
    /// Maximum core treewidth over `φ⁺` (upper bounds).
    pub max_core_treewidth: usize,
    /// Maximum contract treewidth over `φ⁺` (upper bounds).
    pub max_contract_treewidth: usize,
}

/// Computes `φ⁺` and analyzes every formula in it.
///
/// This is the uncached primitive; [`crate::prepared::classify_query_cached`]
/// (and [`crate::prepared::PreparedQuery`]) memoize the result process-wide
/// by the query's canonical form.
pub fn classify_query(query: &Query, signature: &Signature) -> Result<QueryAnalysis, LogicError> {
    let dec = plus_decomposition(query, signature)?;
    Ok(analyze_decomposition(&dec))
}

/// Analyzes every formula of an already-computed `φ⁺` decomposition
/// (the per-query phase split out so prepared queries can run it
/// lazily and share the result).
pub fn analyze_decomposition(dec: &crate::plus::PlusDecomposition) -> QueryAnalysis {
    let plus_analyses: Vec<PpAnalysis> = dec.plus.iter().map(analyze_pp).collect();
    let max_core_treewidth = plus_analyses
        .iter()
        .map(|a| a.core_treewidth.upper())
        .max()
        .unwrap_or(0);
    let max_contract_treewidth = plus_analyses
        .iter()
        .map(|a| a.contract_treewidth.upper())
        .max()
        .unwrap_or(0);
    QueryAnalysis {
        plus_analyses,
        max_core_treewidth,
        max_contract_treewidth,
    }
}

/// Applies Theorem 3.2 given width measures and a width bound `w`
/// (the set is viewed as "bounded" when all its widths are ≤ `w`).
pub fn classify_widths(max_core_tw: usize, max_contract_tw: usize, w: usize) -> Regime {
    let contraction = max_contract_tw <= w;
    let tractability = contraction && max_core_tw <= w;
    if tractability {
        Regime::Fpt
    } else if contraction {
        Regime::CliqueEquivalent
    } else {
        Regime::SharpCliqueHard
    }
}

/// Width growth of a query family `{φ_k}`, for deciding boundedness
/// empirically (the trichotomy table of experiment T1).
#[derive(Clone, Debug)]
pub struct FamilyReport {
    /// Family name for reports.
    pub name: String,
    /// Per-member `(k, max core tw, max contract tw)`.
    pub measures: Vec<(usize, usize, usize)>,
}

impl FamilyReport {
    /// Builds the report by classifying each family member.
    pub fn build(
        name: impl Into<String>,
        members: impl IntoIterator<Item = (usize, Query, Signature)>,
    ) -> Result<Self, LogicError> {
        let mut measures = Vec::new();
        for (k, query, signature) in members {
            let analysis = classify_query(&query, &signature)?;
            measures.push((
                k,
                analysis.max_core_treewidth,
                analysis.max_contract_treewidth,
            ));
        }
        Ok(FamilyReport {
            name: name.into(),
            measures,
        })
    }

    /// Whether the measured core treewidths grow with k (strictly larger
    /// in the last member than the first).
    pub fn core_treewidth_grows(&self) -> bool {
        match (self.measures.first(), self.measures.last()) {
            (Some(first), Some(last)) => last.1 > first.1,
            _ => false,
        }
    }

    /// Whether the measured contract treewidths grow with k.
    pub fn contract_treewidth_grows(&self) -> bool {
        match (self.measures.first(), self.measures.last()) {
            (Some(first), Some(last)) => last.2 > first.2,
            _ => false,
        }
    }

    /// The regime suggested by the measured growth: growing widths are
    /// read as "unbounded" (correct for the monotone families of the
    /// trichotomy table, experiment `T1` of the `experiments` binary).
    pub fn inferred_regime(&self) -> Regime {
        if self.contract_treewidth_grows() {
            Regime::SharpCliqueHard
        } else if self.core_treewidth_grows() {
            Regime::CliqueEquivalent
        } else {
            Regime::Fpt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_counting::clique;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;

    fn analyze_text(text: &str) -> QueryAnalysis {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        classify_query(&q, &sig).unwrap()
    }

    #[test]
    fn path_queries_have_width_one() {
        let a = analyze_text("E(x,y) & E(y,z) & E(z,w)");
        assert_eq!(a.max_core_treewidth, 1);
        assert_eq!(a.max_contract_treewidth, 1);
        assert_eq!(classify_widths(1, 1, 2), Regime::Fpt);
    }

    #[test]
    fn clique_queries_have_full_width() {
        // The k-clique query: core tw = contract tw = k−1.
        for k in 2..=4 {
            let pp = clique::clique_pp(k);
            let analysis = analyze_pp(&pp);
            assert_eq!(analysis.core_treewidth.upper(), k - 1, "core tw, k={k}");
            assert_eq!(
                analysis.contract_treewidth.upper(),
                k - 1,
                "contract tw, k={k}"
            );
        }
        assert_eq!(classify_widths(3, 3, 2), Regime::SharpCliqueHard);
    }

    #[test]
    fn quantified_clique_queries_separate_the_conditions() {
        // θ_k(x) = x plus a fully quantified k-clique attached to x:
        // core treewidth grows, but the contract graph is a single vertex.
        // This is the case-2 (Clique-equivalent) pattern: the count is
        // decision-like (which vertices see a k-clique).
        for k in [3, 4] {
            let vars: Vec<String> = (1..=k).map(|i| format!("u{i}")).collect();
            let mut atoms = vec![format!("E(x,{})", vars[0])];
            for i in 0..k {
                for j in i + 1..k {
                    atoms.push(format!("E({},{})", vars[i], vars[j]));
                }
            }
            let text = format!("(x) := exists {} . {}", vars.join(", "), atoms.join(" & "));
            let analysis = analyze_text(&text);
            assert_eq!(analysis.max_contract_treewidth, 0, "k={k}");
            assert_eq!(analysis.max_core_treewidth, k - 1, "k={k}");
        }
        assert_eq!(classify_widths(3, 0, 2), Regime::CliqueEquivalent);
    }

    #[test]
    fn classification_is_on_the_core() {
        // A query that *looks* wide but cores down: redundant clique atoms
        // over the same two variables.
        let a = analyze_text("(x) := exists u, v, w . E(x,u) & E(x,v) & E(x,w)");
        assert_eq!(a.max_core_treewidth, 1);
        assert_eq!(a.max_contract_treewidth, 0);
    }

    #[test]
    fn ucq_classification_uses_plus() {
        // Example 5.21's θ: θ⁺ = {φ1 (a 2-path), θ1 (a quantified 3-path
        // sentence)} — all widths 1, FPT regime.
        let a = analyze_text(
            "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y)) \
             | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))",
        );
        assert_eq!(a.plus_analyses.len(), 2);
        assert_eq!(a.max_core_treewidth, 1);
        assert_eq!(a.max_contract_treewidth, 1);
    }

    #[test]
    fn cancellation_can_lower_the_classification_width() {
        // Example 4.2: the raw inclusion–exclusion terms include a 4-cycle
        // (tw 2), but φ* cancels it — the analysis sees only tw 1.
        let a =
            analyze_text("(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))");
        assert_eq!(a.max_core_treewidth, 1);
    }

    #[test]
    fn family_report_growth_detection() {
        let members = (2..=4).map(|k| {
            let q = clique::clique_query(k);
            (k, q, clique::graph_signature())
        });
        let report = FamilyReport::build("cliques", members).unwrap();
        assert!(report.core_treewidth_grows());
        assert!(report.contract_treewidth_grows());
        assert_eq!(report.inferred_regime(), Regime::SharpCliqueHard);
    }

    #[test]
    fn path_family_is_flat() {
        let members = (2..=5).map(|k| {
            let atoms: Vec<String> = (0..k).map(|i| format!("E(v{i},v{})", i + 1)).collect();
            let q = parse_query(&atoms.join(" & ")).unwrap();
            let sig = infer_signature([q.formula()]).unwrap();
            (k, q, sig)
        });
        let report = FamilyReport::build("paths", members).unwrap();
        assert!(!report.core_treewidth_grows());
        assert!(!report.contract_treewidth_grows());
        assert_eq!(report.inferred_regime(), Regime::Fpt);
    }

    #[test]
    fn regime_display() {
        assert_eq!(Regime::Fpt.to_string(), "FPT");
        assert!(Regime::CliqueEquivalent.to_string().contains("W[1]"));
        assert!(Regime::SharpCliqueHard.to_string().contains("#W[1]"));
    }
}
