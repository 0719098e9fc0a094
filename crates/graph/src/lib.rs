//! # epq-graph — graphs, treewidth, and tree decompositions
//!
//! A substrate crate of the `epq` workspace (see the dependency map in
//! `docs/ARCHITECTURE.md`).
//!
//! The complexity classification of Chen & Mengel is stated in terms of
//! graph-theoretic measures of queries:
//!
//! * the *graph of a pp-formula* (Section 2.1 "Graphs") — vertices are the
//!   formula's variables, edges join variables co-occurring in an atom;
//! * *connected components* of that graph (used for the component product
//!   law |φ(B)| = Π |φᵢ(B)| and the liberal part φ̂);
//! * *∃-components* and the *contract graph* contract(A, S) (Section 2.4),
//!   whose **treewidth** decides the contraction condition;
//! * the treewidth of *cores*, which decides the tractability condition;
//! * the **clique problem**, the hardness anchor of the trichotomy.
//!
//! This crate supplies all of it: a compact undirected [`Graph`], connected
//! components, clique decision/counting/maximum ([`cliques`]), exact and
//! heuristic treewidth ([`treewidth`]), tree decompositions and *nice* tree
//! decompositions with validity checking ([`decomposition`]), and graph
//! generators for the benchmark families ([`generators`]).

pub mod cliques;
pub mod decomposition;
pub mod generators;
pub mod graph;
pub mod treewidth;

pub use decomposition::{NiceNode, NiceTreeDecomposition, TreeDecomposition};
pub use graph::Graph;
pub use treewidth::{treewidth_bound, treewidth_exact, TreewidthBound};
