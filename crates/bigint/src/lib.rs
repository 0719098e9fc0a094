//! # epq-bigint — exact arbitrary-precision arithmetic
//!
//! A substrate crate of the `epq` workspace (see the dependency map in
//! `docs/ARCHITECTURE.md`).
//!
//! Counting answers to a query φ(V) on a structure **B** can yield values as
//! large as |B|^|V|, and the oracle interreductions of Chen & Mengel
//! (Theorem 5.20, Example 4.3) evaluate query counts on *product* structures
//! **B** × **C**^ℓ whose counts grow multiplicatively, then solve a
//! Vandermonde linear system exactly. Machine integers overflow almost
//! immediately, and no arbitrary-precision crate is on the offline dependency
//! allowlist — so this crate implements the required tower from scratch:
//!
//! * [`Natural`] — unsigned arbitrary-precision integers (64-bit limbs,
//!   little-endian, Knuth Algorithm D division, Karatsuba multiplication).
//! * [`Integer`] — signed integers on top of [`Natural`].
//! * [`Rational`] — exact fractions, always normalized.
//! * [`linalg`] — exact Gaussian elimination and the (transposed) Vandermonde
//!   solver used by the equivalence-theorem reductions; also exact polynomial
//!   interpolation (the paper's Preliminaries, "Polynomials").
//!
//! All types implement the usual operator traits by value and by reference,
//! `Ord`, `Hash`, and `Display`/`FromStr` in decimal.

pub mod integer;
pub mod linalg;
pub mod natural;
pub mod rational;

pub use integer::Integer;
pub use natural::Natural;
pub use rational::Rational;
