//! Signatures and finite relational structures.

use epq_graph::Graph;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// Identifier of a relation symbol within a [`Signature`] (its index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

/// A relational signature: a list of relation symbols with arities.
///
/// The paper's vocabularies contain only relation symbols (no constants or
/// function symbols); every arity is at least 1.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Signature {
    symbols: Vec<(String, usize)>,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Self {
        Signature::default()
    }

    /// Builds a signature from `(name, arity)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate names or zero arities.
    pub fn from_symbols<I, S>(symbols: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        let mut sig = Signature::new();
        for (name, arity) in symbols {
            sig.add_symbol(name.into(), arity);
        }
        sig
    }

    /// Adds a relation symbol, returning its [`RelId`].
    ///
    /// # Panics
    /// Panics on duplicate names or zero arity.
    pub fn add_symbol(&mut self, name: impl Into<String>, arity: usize) -> RelId {
        let name = name.into();
        assert!(arity >= 1, "relation symbols must have arity >= 1");
        assert!(
            self.lookup(&name).is_none(),
            "duplicate relation symbol {name:?}"
        );
        self.symbols.push((name, arity));
        RelId(self.symbols.len() as u32 - 1)
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether there are no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Finds a symbol by name.
    pub fn lookup(&self, name: &str) -> Option<RelId> {
        self.symbols
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| RelId(i as u32))
    }

    /// Name of a symbol.
    pub fn name(&self, rel: RelId) -> &str {
        &self.symbols[rel.0 as usize].0
    }

    /// Arity of a symbol.
    pub fn arity(&self, rel: RelId) -> usize {
        self.symbols[rel.0 as usize].1
    }

    /// The largest arity (0 for the empty signature).
    pub fn max_arity(&self) -> usize {
        self.symbols.iter().map(|&(_, a)| a).max().unwrap_or(0)
    }

    /// Iterator over `(RelId, name, arity)`.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &str, usize)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, (n, a))| (RelId(i as u32), n.as_str(), *a))
    }
}

/// One relation instance: a sorted, deduplicated set of fixed-arity
/// tuples — the workspace's one tuple store, held by [`Structure`] and
/// taken as the allowed set of every CSP constraint.
///
/// Tuples of arity 1–2 are packed into one `u64` each, of arity 3–4
/// into one `u128`, first column in the high bits, so the integer order
/// of the words is the lexicographic order of the tuples; wider tuples
/// live in a sorted row-major `u32` arena. Membership and insertion
/// pack the probe once and binary-search machine words, not slices.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Relation {
    arity: usize,
    rows: Rows,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Rows {
    W64(Vec<u64>),
    W128(Vec<u128>),
    Wide(Vec<u32>),
}

fn pack64(tuple: &[u32]) -> u64 {
    tuple.iter().fold(0, |acc, &v| (acc << 32) | u64::from(v))
}

fn pack128(tuple: &[u32]) -> u128 {
    tuple.iter().fold(0, |acc, &v| (acc << 32) | u128::from(v))
}

/// The `arity` columns packed into `word`, first column first: shifting
/// out the unused high columns aligns the first column with the top.
fn unpack64(word: u64, arity: usize) -> [u32; 4] {
    let w = word << (32 * (2 - arity));
    [(w >> 32) as u32, w as u32, 0, 0]
}

/// [`unpack64`] for arity 3–4.
fn unpack128(word: u128, arity: usize) -> [u32; 4] {
    let w = word << (32 * (4 - arity));
    [
        (w >> 96) as u32,
        (w >> 64) as u32,
        (w >> 32) as u32,
        w as u32,
    ]
}

fn sorted<W: Ord>(mut words: Vec<W>) -> Vec<W> {
    words.sort_unstable();
    words.dedup();
    words
}

/// Sorts the `arity`-wide rows of a row-major arena and drops
/// duplicates.
fn sort_dedup_rows(arity: usize, data: Vec<u32>) -> Vec<u32> {
    let row = |i: usize| &data[i * arity..(i + 1) * arity];
    let mut order: Vec<usize> = (0..data.len() / arity).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|a, b| row(*a) == row(*b));
    order.iter().flat_map(|&i| row(i)).copied().collect()
}

impl Relation {
    /// Builds a relation of width `arity` from tuples in any order, with
    /// one sort and one dedup.
    ///
    /// # Panics
    /// Panics if `arity` is 0 or a tuple's width differs from `arity`.
    pub fn from_tuples<I>(arity: usize, tuples: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[u32]>,
    {
        assert!(arity >= 1, "relations have arity >= 1");
        let tuples = tuples
            .into_iter()
            .inspect(|t| assert_eq!(t.as_ref().len(), arity, "tuple arity mismatch"));
        let rows = match arity {
            1 | 2 => Rows::W64(sorted(tuples.map(|t| pack64(t.as_ref())).collect())),
            3 | 4 => Rows::W128(sorted(tuples.map(|t| pack128(t.as_ref())).collect())),
            _ => {
                let mut data = Vec::new();
                tuples.for_each(|t| data.extend_from_slice(t.as_ref()));
                Rows::Wide(sort_dedup_rows(arity, data))
            }
        };
        Relation { arity, rows }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::W64(words) => words.len(),
            Rows::W128(words) => words.len(),
            Rows::Wide(data) => data.len() / self.arity,
        }
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterator over the tuples in lexicographic order.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple<'_>> + '_ {
        let arity = self.arity;
        (0..self.len()).map(move |i| {
            Tuple(match &self.rows {
                Rows::W64(words) => TupleRepr::Packed(unpack64(words[i], arity), arity),
                Rows::W128(words) => TupleRepr::Packed(unpack128(words[i], arity), arity),
                Rows::Wide(data) => TupleRepr::Row(&data[i * arity..(i + 1) * arity]),
            })
        })
    }

    /// Whether `tuple` is in the relation.
    ///
    /// # Panics
    /// Panics if the width of `tuple` differs from the arity.
    pub fn contains(&self, tuple: &[u32]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        match &self.rows {
            Rows::W64(words) => words.binary_search(&pack64(tuple)).is_ok(),
            Rows::W128(words) => words.binary_search(&pack128(tuple)).is_ok(),
            Rows::Wide(data) => search_rows(data, tuple).is_ok(),
        }
    }

    /// Inserts `tuple` in sorted position, returning whether it was new
    /// (a present tuple is a no-op).
    fn insert(&mut self, tuple: &[u32]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        match &mut self.rows {
            Rows::W64(words) => insert_sorted(words, pack64(tuple)),
            Rows::W128(words) => insert_sorted(words, pack128(tuple)),
            Rows::Wide(data) => match search_rows(data, tuple) {
                Ok(_) => false,
                Err(row) => {
                    let at = row * tuple.len();
                    data.splice(at..at, tuple.iter().copied());
                    true
                }
            },
        }
    }
}

fn insert_sorted<W: Ord>(words: &mut Vec<W>, word: W) -> bool {
    match words.binary_search(&word) {
        Ok(_) => false,
        Err(at) => {
            words.insert(at, word);
            true
        }
    }
}

/// Binary search over the rows of a sorted arena of `tuple`-wide rows:
/// `Ok(row)` where `tuple` sits, or `Err(row)` where it would be
/// inserted.
fn search_rows(data: &[u32], tuple: &[u32]) -> Result<usize, usize> {
    let arity = tuple.len();
    let (mut lo, mut hi) = (0, data.len() / arity);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match data[mid * arity..(mid + 1) * arity].cmp(tuple) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// One tuple of a [`Relation`], as yielded by [`Relation::tuples`]:
/// unpacked from its word, or borrowed from the wide arena. It
/// dereferences to `[u32]`.
#[derive(Clone, Copy)]
pub struct Tuple<'a>(TupleRepr<'a>);

#[derive(Clone, Copy)]
enum TupleRepr<'a> {
    /// The unpacked columns and the arity.
    Packed([u32; 4], usize),
    Row(&'a [u32]),
}

impl Deref for Tuple<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match &self.0 {
            TupleRepr::Packed(values, arity) => &values[..*arity],
            TupleRepr::Row(row) => row,
        }
    }
}

impl fmt::Debug for Tuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A finite relational structure: a universe `{0, …, n−1}` plus one
/// [`Relation`] per signature symbol.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Structure {
    signature: Signature,
    universe_size: usize,
    relations: Vec<Relation>,
}

impl Structure {
    /// An empty structure over `signature` with the given universe size.
    ///
    /// # Panics
    /// Panics if `universe_size` exceeds `u32::MAX` (elements are `u32`).
    pub fn new(signature: Signature, universe_size: usize) -> Self {
        assert!(
            universe_size <= u32::MAX as usize,
            "universe size {universe_size} exceeds u32::MAX"
        );
        let relations = signature
            .iter()
            .map(|(_, _, arity)| Relation::from_tuples(arity, std::iter::empty::<&[u32]>()))
            .collect();
        Structure {
            signature,
            universe_size,
            relations,
        }
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Universe size.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Iterator over the universe elements `0..n`.
    pub fn universe(&self) -> impl Iterator<Item = u32> {
        0..self.universe_size as u32
    }

    /// The relation of `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.0 as usize]
    }

    /// Replaces `rel`'s relation wholesale (the parser's bulk path; its
    /// elements are already range-checked).
    pub(crate) fn set_relation(&mut self, rel: RelId, relation: Relation) {
        let slot = &mut self.relations[rel.0 as usize];
        assert_eq!(slot.arity(), relation.arity(), "relation arity mismatch");
        *slot = relation;
    }

    /// Adds a tuple to `rel`'s relation, returning whether it was new
    /// (idempotent).
    ///
    /// # Panics
    /// Panics if elements are out of range or the arity mismatches.
    pub fn add_tuple(&mut self, rel: RelId, tuple: &[u32]) -> bool {
        for &e in tuple {
            assert!(
                (e as usize) < self.universe_size,
                "element {e} outside universe of size {}",
                self.universe_size
            );
        }
        self.relations[rel.0 as usize].insert(tuple)
    }

    /// Adds a tuple by relation name.
    pub fn add_tuple_named(&mut self, name: &str, tuple: &[u32]) {
        let rel = self
            .signature
            .lookup(name)
            .unwrap_or_else(|| panic!("unknown relation {name:?}"));
        self.add_tuple(rel, tuple);
    }

    /// Whether `tuple` belongs to `rel`'s relation.
    pub fn has_tuple(&self, rel: RelId, tuple: &[u32]) -> bool {
        self.relations[rel.0 as usize].contains(tuple)
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// The Gaifman graph: vertices are universe elements, with an edge
    /// between two distinct elements that co-occur in some tuple.
    ///
    /// This is the "graph of a pp-formula" from the paper (Section 2.1)
    /// when the structure is a query structure.
    pub fn gaifman_graph(&self) -> Graph {
        let mut g = Graph::new(self.universe_size);
        for rel in &self.relations {
            for tuple in rel.tuples() {
                for (i, &a) in tuple.iter().enumerate() {
                    for &b in &tuple[i + 1..] {
                        if a != b {
                            g.add_edge(a, b);
                        }
                    }
                }
            }
        }
        g
    }

    /// The substructure induced by `elements` (which may be unsorted but
    /// must be duplicate-free); also returns the map from new index to old
    /// element.
    pub fn induced_substructure(&self, elements: &[u32]) -> (Structure, Vec<u32>) {
        let mut index_of = vec![u32::MAX; self.universe_size];
        for (new, &old) in elements.iter().enumerate() {
            assert!(
                index_of[old as usize] == u32::MAX,
                "duplicate element {old} in induced_substructure"
            );
            index_of[old as usize] = new as u32;
        }
        let mut sub = Structure::new(self.signature.clone(), elements.len());
        let mut scratch = Vec::new();
        for (rel, _, _) in self.signature.iter() {
            for tuple in self.relation(rel).tuples() {
                scratch.clear();
                if tuple.iter().all(|&e| index_of[e as usize] != u32::MAX) {
                    scratch.extend(tuple.iter().map(|&e| index_of[e as usize]));
                    sub.add_tuple(rel, &scratch);
                }
            }
        }
        (sub, elements.to_vec())
    }
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure {{")?;
        writeln!(f, "  universe {}", self.universe_size)?;
        for (rel, name, _) in self.signature.iter() {
            write!(f, "  {} = {{", name)?;
            let mut first = true;
            for tuple in self.relation(rel).tuples() {
                if !first {
                    write!(f, ",")?;
                }
                first = false;
                write!(f, " (")?;
                for (i, e) in tuple.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f, " }}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph_sig() -> Signature {
        Signature::from_symbols([("E", 2)])
    }

    #[test]
    fn signature_lookup_and_arity() {
        let sig = Signature::from_symbols([("E", 2), ("F", 3)]);
        assert_eq!(sig.lookup("E"), Some(RelId(0)));
        assert_eq!(sig.lookup("F"), Some(RelId(1)));
        assert_eq!(sig.lookup("G"), None);
        assert_eq!(sig.arity(RelId(1)), 3);
        assert_eq!(sig.max_arity(), 3);
        assert_eq!(sig.name(RelId(0)), "E");
    }

    #[test]
    #[should_panic(expected = "duplicate relation symbol")]
    fn duplicate_symbol_panics() {
        Signature::from_symbols([("E", 2), ("E", 2)]);
    }

    #[test]
    #[should_panic(expected = "arity >= 1")]
    fn zero_arity_panics() {
        Signature::from_symbols([("E", 0)]);
    }

    #[test]
    fn tuples_are_sorted_and_deduped() {
        let mut s = Structure::new(digraph_sig(), 3);
        let e = RelId(0);
        s.add_tuple(e, &[2, 1]);
        s.add_tuple(e, &[0, 1]);
        s.add_tuple(e, &[2, 1]);
        let tuples: Vec<Vec<u32>> = s.relation(e).tuples().map(|t| t.to_vec()).collect();
        assert_eq!(tuples, vec![vec![0, 1], vec![2, 1]]);
        assert!(s.has_tuple(e, &[2, 1]));
        assert!(!s.has_tuple(e, &[1, 2]));
        assert_eq!(s.tuple_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_tuple_panics() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple(RelId(0), &[0, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn universe_past_u32_panics() {
        Structure::new(digraph_sig(), u32::MAX as usize + 1);
    }

    #[test]
    fn gaifman_graph_of_ternary_tuple() {
        let sig = Signature::from_symbols([("T", 3)]);
        let mut s = Structure::new(sig, 4);
        s.add_tuple(RelId(0), &[0, 1, 2]);
        let g = s.gaifman_graph();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn gaifman_ignores_repeated_elements() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple(RelId(0), &[1, 1]);
        assert_eq!(s.gaifman_graph().edge_count(), 0);
    }

    #[test]
    fn induced_substructure_filters_tuples() {
        let mut s = Structure::new(digraph_sig(), 4);
        let e = RelId(0);
        s.add_tuple(e, &[0, 1]);
        s.add_tuple(e, &[1, 2]);
        s.add_tuple(e, &[2, 3]);
        let (sub, map) = s.induced_substructure(&[1, 2]);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.universe_size(), 2);
        // Only (1,2) survives, renamed to (0,1).
        assert!(sub.has_tuple(e, &[0, 1]));
        assert_eq!(sub.tuple_count(), 1);
    }

    #[test]
    fn display_format() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple(RelId(0), &[0, 1]);
        let shown = s.to_string();
        assert!(shown.contains("universe 2"));
        assert!(shown.contains("E = { (0,1) }"));
    }

    #[test]
    fn has_tuple_membership() {
        let mut s = Structure::new(digraph_sig(), 3);
        let e = RelId(0);
        assert!(!s.has_tuple(e, &[0, 1]));
        for t in [[1, 2], [0, 1], [2, 0], [1, 0]] {
            s.add_tuple(e, &t);
        }
        for t in [[0, 1], [1, 0], [1, 2], [2, 0]] {
            assert!(s.has_tuple(e, &t), "{t:?}");
        }
        for t in [[0, 0], [0, 2], [2, 1], [2, 2]] {
            assert!(!s.has_tuple(e, &t), "{t:?}");
        }
    }

    fn relation(tuples: &[&[u32]]) -> Relation {
        Relation::from_tuples(tuples[0].len(), tuples)
    }

    #[test]
    fn membership_across_arities() {
        for arity in 1usize..=6 {
            let tuples: Vec<Vec<u32>> = (0..40u32)
                .map(|i| (0..arity as u32).map(|c| (i * 7 + c * 3) % 11).collect())
                .collect();
            let reference: std::collections::HashSet<Vec<u32>> = tuples.iter().cloned().collect();
            let packed = Relation::from_tuples(arity, &tuples);
            assert_eq!(packed.len(), reference.len(), "arity {arity}");
            // Probe the full cross-space of small values.
            let mut probe = vec![0u32; arity];
            loop {
                assert_eq!(
                    packed.contains(&probe),
                    reference.contains(&probe),
                    "arity {arity}, probe {probe:?}"
                );
                let mut i = 0;
                while i < arity {
                    probe[i] += 1;
                    if probe[i] < 12 {
                        break;
                    }
                    probe[i] = 0;
                    i += 1;
                }
                if i == arity {
                    break;
                }
            }
        }
    }

    #[test]
    fn full_32_bit_columns_pack_without_collision() {
        let big = u32::MAX;
        let s = relation(&[&[big, 0], &[0, big], &[big, big]]);
        assert!(s.contains(&[big, 0]));
        assert!(s.contains(&[0, big]));
        assert!(s.contains(&[big, big]));
        assert!(!s.contains(&[big - 1, big]));
        let s4 = relation(&[&[big, 0, big, 1]]);
        assert!(s4.contains(&[big, 0, big, 1]));
        assert!(!s4.contains(&[big, 0, big, 2]));
    }

    #[test]
    fn duplicates_collapse_and_iter_is_sorted() {
        let s = relation(&[&[3, 1], &[0, 2], &[3, 1]]);
        assert_eq!(s.len(), 2);
        let tuples: Vec<Vec<u32>> = s.tuples().map(|t| t.to_vec()).collect();
        assert_eq!(tuples, vec![vec![0, 2], vec![3, 1]]);
        // Wide arity round-trips through tuples() too.
        let w = relation(&[&[5, 4, 3, 2, 1], &[1, 2, 3, 4, 5]]);
        let rows: Vec<Vec<u32>> = w.tuples().map(|t| t.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 2, 3, 4, 5], vec![5, 4, 3, 2, 1]]);
    }

    #[test]
    #[should_panic(expected = "tuple arity mismatch")]
    fn has_tuple_checks_arity() {
        let s = Structure::new(digraph_sig(), 2);
        s.has_tuple(RelId(0), &[0]);
    }
}
