//! # epq-logic — existential positive queries as syntax and as structures
//!
//! A substrate crate of the `epq` workspace (see the dependency map in
//! `docs/ARCHITECTURE.md`).
//!
//! This crate implements the logical side of Chen & Mengel's paper:
//!
//! * [`formula`] — existential positive formulas (atoms, ∧, ∨, ∃, ⊤) with
//!   free/quantified variable computation and direct satisfaction
//!   evaluation;
//! * [`query`] — a formula paired with its *liberal* variables `lib(φ)`
//!   (a superset of the free variables over which answers are counted —
//!   Section 2.1), plus signature inference;
//! * [`pp`] — prenex primitive positive formulas in their Chandra–Merlin
//!   structure view `(A, S)`, with components, the liberal part `φ̂`,
//!   conjunction glueing, augmented structures, cores, and logical
//!   entailment/equivalence (Theorem 2.3);
//! * [`dnf`] — rewriting an ep-formula into a disjunction of prenex
//!   pp-formulas (the *disjunctive* form) and the paper's *normalization*;
//! * [`contract`] — ∃-components and the contract graph `contract(A, S)`
//!   (Section 2.4), the combinatorial heart of the tractability and
//!   contraction conditions;
//! * [`parser`] — a text syntax for queries.
//!
//! ## Query syntax
//!
//! ```text
//! (w, x, y, z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))
//! ```
//!
//! The head lists the liberal variables (it may be omitted, defaulting to
//! the free variables). Connectives: `&`, `|`, `exists v1, v2 . φ`,
//! parentheses, `true`.

pub mod contract;
pub mod dnf;
pub mod formula;
pub mod parser;
pub mod pp;
pub mod query;

pub use formula::{Atom, Formula, Var};
pub use pp::PpFormula;
pub use query::Query;
