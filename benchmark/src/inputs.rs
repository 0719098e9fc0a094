//! The three workloads: seeded input files, the `epq` command line of
//! each op, and reference counts computed in-process along paths that
//! share neither the CLI nor the `φ*` pipeline under test.

use epq::counting::brute::count_disjuncts_brute;
use epq::logic::parser::parse_query;
use epq::logic::{dnf, PpFormula, Query};
use epq::relalg::count_ucq;
use epq::structures::parse::{parse_structure, parse_structures};
use epq::structures::{RelId, Signature, StreamLog, StreamOp, Structure};
use epq::workloads::queries::random_ucq_over;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Worker threads passed to every `epq` process.
pub const THREADS: usize = 2;

/// Seeds the shape of every workload: its queries, graphs and edge
/// sets. `--seed` only picks an isomorphic copy of that shape, so every
/// seed asks `epq` for the same work and runs with different seeds
/// measure the same thing.
const SHAPE_SEED: u64 = 0x5eed;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Per-query bound: `--data`, one structure and one count per op.
    PrepareMix,
    /// Per-structure bound: `--batch`, one count per structure.
    BatchDp,
    /// Per-tuple bound: `--stream --engine relalg`, one count per
    /// checkpoint.
    StreamSkewed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PrepareMix,
        Workload::BatchDp,
        Workload::StreamSkewed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrepareMix => "prepare_mix",
            Workload::BatchDp => "batch_dp",
            Workload::StreamSkewed => "stream_skewed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--engine` each op passes (`fpt` is the CLI default and is
    /// not passed).
    pub fn engine(self) -> &'static str {
        match self {
            Workload::StreamSkewed => "relalg",
            Workload::PrepareMix | Workload::BatchDp => "fpt",
        }
    }
}

/// One `epq count` process: a query over one input file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub query: String,
    pub file: String,
}

/// A workload's generated inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub workload: Workload,
    /// `(file name, contents)`, in the order the files are written.
    pub files: Vec<(String, String)>,
    /// One pass over the workload: every op once.
    pub ops: Vec<Op>,
}

impl Inputs {
    /// Generates the workload's inputs; the same seed gives the same
    /// bytes. The seed permutes elements, relation names and the order
    /// of disjuncts, queries and inserts, but not the workload's shape.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let salt = 0x9e37_79b9 << workload as u64;
        let shape = &mut StdRng::seed_from_u64(SHAPE_SEED ^ salt);
        let copy = &mut StdRng::seed_from_u64(seed ^ salt);
        let (files, ops) = match workload {
            Workload::PrepareMix => prepare_mix(shape, copy),
            Workload::BatchDp => batch_dp(shape, copy),
            Workload::StreamSkewed => stream_skewed(shape, copy),
        };
        Inputs {
            workload,
            files,
            ops,
        }
    }

    pub fn file(&self, name: &str) -> &str {
        &self
            .files
            .iter()
            .find(|(n, _)| n == name)
            .expect("op names a generated file")
            .1
    }

    /// The arguments of `epq` for `op`, with its file under `dir`.
    pub fn cli_args(&self, op: &Op, dir: &std::path::Path) -> Vec<String> {
        let path = dir.join(&op.file).to_string_lossy().into_owned();
        let flag = match self.workload {
            Workload::PrepareMix => "--data",
            Workload::BatchDp => "--batch",
            Workload::StreamSkewed => "--stream",
        };
        let mut args: Vec<String> = ["count", "--query", &op.query, flag, &path]
            .iter()
            .map(|s| s.to_string())
            .collect();
        if self.workload == Workload::StreamSkewed {
            args.extend(["--engine".into(), self.workload.engine().into()]);
        }
        args.extend(["--threads".into(), THREADS.to_string()]);
        args
    }

    /// The lines each op must print, computed in-process:
    /// brute-force enumeration of the DNF union for single structures,
    /// relational-algebra union of the disjunct answer sets for batches,
    /// and that union again on the snapshot at every checkpoint of a
    /// stream. None of these touches the CLI, `φ*`, the FPT engine or
    /// `LiveCount`.
    pub fn references(&self) -> Vec<Vec<String>> {
        self.ops
            .iter()
            .map(|op| {
                let text = self.file(&op.file);
                let query = parse_query(&op.query).expect("generated query parses");
                match self.workload {
                    Workload::PrepareMix => {
                        let b = parse_structure(text).expect("generated structure parses");
                        let ds = disjuncts(&query, b.signature());
                        vec![count_disjuncts_brute(&ds, &b).to_string()]
                    }
                    Workload::BatchDp => {
                        let bs = parse_structures(text).expect("generated batch parses");
                        let ds = disjuncts(&query, bs[0].signature());
                        bs.iter().map(|b| count_ucq(&ds, b).to_string()).collect()
                    }
                    Workload::StreamSkewed => {
                        let log = StreamLog::parse(text).expect("generated log parses");
                        let ds = disjuncts(&query, &log.signature);
                        let mut live = log.open();
                        let mut counts = Vec::new();
                        for op in &log.ops {
                            match op {
                                StreamOp::Insert { rel, tuple } => {
                                    live.insert_tuple(*rel, tuple);
                                }
                                StreamOp::Checkpoint => {
                                    counts.push(count_ucq(&ds, live.snapshot()).to_string())
                                }
                            }
                        }
                        counts
                    }
                }
            })
            .collect()
    }
}

fn disjuncts(query: &Query, signature: &Signature) -> Vec<PpFormula> {
    dnf::disjuncts(query, signature).expect("generated query fits its signature")
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn pick_relation(rng: &mut StdRng) -> &'static str {
    if rng.gen_bool(0.5) {
        "E"
    } else {
        "F"
    }
}

/// A uniformly random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    shuffle(rng, &mut perm);
    perm
}

/// The image of `s` under the element permutation `perm`, with the
/// tuples of relation `i` moved to relation `rel_map(i)`.
fn relabeled(s: &Structure, perm: &[u32], rel_map: impl Fn(RelId) -> RelId) -> Structure {
    let mut out = Structure::new(s.signature().clone(), s.universe_size());
    for (rel, _, _) in s.signature().iter() {
        for tuple in s.relation(rel).tuples() {
            let image: Vec<u32> = tuple.iter().map(|&e| perm[e as usize]).collect();
            out.add_tuple(rel_map(rel), &image);
        }
    }
    out
}

/// `text` with the relation names `E` and `F` exchanged.
fn swap_e_f(text: &str) -> String {
    text.replace("E(", "#(")
        .replace("F(", "E(")
        .replace("#(", "F(")
}

/// `count` random pairs over `0..n`, each new to `seen`, in draw order.
fn distinct_pairs(
    rng: &mut StdRng,
    n: usize,
    count: usize,
    seen: &mut BTreeSet<(u32, u32)>,
) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let e = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if seen.insert(e) {
            pairs.push(e);
        }
    }
    pairs
}

/// A binary structure over `sig` on `n` elements whose `i`-th relation
/// holds `edges[i]` distinct random pairs.
fn random_graph(rng: &mut StdRng, sig: &Signature, n: usize, edges: &[usize]) -> Structure {
    let mut s = Structure::new(sig.clone(), n);
    for (rel, &count) in sig.iter().map(|(rel, _, _)| rel).zip(edges) {
        for (u, v) in distinct_pairs(rng, n, count, &mut BTreeSet::new()) {
            s.add_tuple(rel, &[u, v]);
        }
    }
    s
}

/// Per-query bound. One universe-8 structure and queries from three
/// families; the copy permutes the elements, may exchange `E` and `F`
/// throughout, and shuffles disjuncts and queries:
///
/// * `(x) := ∨ᵢ (∃yᵢ,zᵢ . R(x,yᵢ) ∧ R(yᵢ,zᵢ)) ∨ R(x,x)` for `s` = 6…10
///   disjuncts, six of each (all but one disjunct cancel in `φ*`);
/// * every subset of three or more of the directed cycles of lengths
///   2, 3, 5, 7 and 11 through `x` (pairwise incomparable disjuncts);
/// * `random_ucq_over` UCQs with 5 and 6 disjuncts, 27 of each.
///
/// The families are sized so that even the median query spends most of
/// its process's time in the per-query pipeline, not in process start.
fn prepare_mix(shape: &mut StdRng, copy: &mut StdRng) -> (Vec<(String, String)>, Vec<Op>) {
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let swap = copy.gen_bool(0.5);
    let rel_map = |rel: RelId| if swap { RelId(1 - rel.0) } else { rel };
    let tiny = relabeled(
        &random_graph(shape, &sig, 8, &[14, 14]),
        &permutation(copy, 8),
        rel_map,
    );
    let named = |text: String| if swap { swap_e_f(&text) } else { text };
    let mut queries = Vec::new();
    for s in 6..=10 {
        for k in 0..6 {
            let r = pick_relation(shape);
            let mut parts: Vec<String> = (0..s - 1)
                .map(|i| {
                    format!(
                        "(exists y{k}_{i}, z{k}_{i} . {r}(x,y{k}_{i}) & {r}(y{k}_{i},z{k}_{i}))"
                    )
                })
                .collect();
            parts.push(format!("{r}(x,x)"));
            shuffle(copy, &mut parts);
            queries.push(named(format!("(x) := {}", parts.join(" | "))));
        }
    }
    const CYCLES: [usize; 5] = [2, 3, 5, 7, 11];
    for mask in 1u32..(1 << CYCLES.len()) {
        if mask.count_ones() < 3 {
            continue;
        }
        let r = pick_relation(shape);
        let mut parts: Vec<String> = CYCLES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(i, &len)| {
                let mut vars = vec!["x".to_string()];
                vars.extend((1..len).map(|j| format!("c{mask}_{i}_{j}")));
                let atoms: Vec<String> = (0..len)
                    .map(|j| format!("{r}({},{})", vars[j], vars[(j + 1) % len]))
                    .collect();
                format!("(exists {} . {})", vars[1..].join(", "), atoms.join(" & "))
            })
            .collect();
        shuffle(copy, &mut parts);
        queries.push(named(format!("(x) := {}", parts.join(" | "))));
    }
    for (disjuncts, count) in [(5, 27), (6, 27)] {
        for _ in 0..count {
            queries.push(named(
                random_ucq_over(shape, &sig, disjuncts, 4, 3, 0.5).to_string(),
            ));
        }
    }
    shuffle(copy, &mut queries);
    let ops = queries
        .into_iter()
        .map(|query| Op {
            query,
            file: "tiny.txt".into(),
        })
        .collect();
    (vec![("tiny.txt".into(), format!("{tiny}\n"))], ops)
}

/// The `batch_dp` query: three free disjuncts whose `φ*` keeps 7 terms.
const BATCH_QUERY: &str = "(x,y) := (exists u . E(x,u) & E(u,y)) \
    | (exists v, w . E(x,v) & E(v,w) & E(w,y)) \
    | (exists t . E(x,y) & E(y,t) & E(t,t))";

/// Batch files per pass, structures per file, and their universes.
const BATCH_FILES: usize = 10;
const BATCH_UNIVERSES: [usize; 4] = [20, 26, 32, 38];

/// Per-structure bound. `BATCH_FILES` `--batch` files, each holding one
/// random digraph with exactly `4n` edges at every universe size of
/// `BATCH_UNIVERSES`, all counted with the FPT engine. The copy
/// permutes each digraph's elements.
fn batch_dp(shape: &mut StdRng, copy: &mut StdRng) -> (Vec<(String, String)>, Vec<Op>) {
    let sig = Signature::from_symbols([("E", 2)]);
    let mut files = Vec::new();
    let mut ops = Vec::new();
    for f in 0..BATCH_FILES {
        let mut text = String::new();
        for &n in &BATCH_UNIVERSES {
            let graph = random_graph(shape, &sig, n, &[4 * n]);
            let graph = relabeled(&graph, &permutation(copy, n), |rel| rel);
            text.push_str(&format!("{graph}\n"));
        }
        let name = format!("batch-{f:02}.txt");
        files.push((name.clone(), text));
        ops.push(Op {
            query: BATCH_QUERY.into(),
            file: name,
        });
    }
    (files, ops)
}

/// The `stream_skewed` query: `φ*` has an `E`-only, an `F`-only and an
/// `E ∧ F` term.
const STREAM_QUERY: &str = "(x,z) := (exists y . E(x,y) & E(y,z)) | (exists y . F(x,y) & F(y,z))";

const STREAM_UNIVERSE: usize = 400;
const STREAM_BULK_INSERTS: usize = 6000;
const STREAM_CHECKPOINT_EVERY: usize = 30;
const STREAM_CHECKPOINTS: usize = 60;

/// Per-tuple bound. `STREAM_BULK_INSERTS` distinct pairs into `E` and
/// one checkpoint, then distinct pairs into `F` with a checkpoint after
/// every `STREAM_CHECKPOINT_EVERY`. Every insert adds a tuple. The copy
/// permutes the elements and the order of the bulk inserts and of the
/// inserts between two checkpoints.
fn stream_skewed(shape: &mut StdRng, copy: &mut StdRng) -> (Vec<(String, String)>, Vec<Op>) {
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let (e, f) = (RelId(0), RelId(1));
    let n = STREAM_UNIVERSE;
    let perm = permutation(copy, n);
    let insert = |rel, &(u, v): &(u32, u32)| StreamOp::Insert {
        rel,
        tuple: vec![perm[u as usize], perm[v as usize]],
    };
    let mut bulk = distinct_pairs(shape, n, STREAM_BULK_INSERTS, &mut BTreeSet::new());
    shuffle(copy, &mut bulk);
    let mut ops: Vec<StreamOp> = bulk.iter().map(|p| insert(e, p)).collect();
    ops.push(StreamOp::Checkpoint);
    let hot = STREAM_CHECKPOINT_EVERY * STREAM_CHECKPOINTS;
    let mut hot = distinct_pairs(shape, n, hot, &mut BTreeSet::new());
    for chunk in hot.chunks_mut(STREAM_CHECKPOINT_EVERY) {
        shuffle(copy, chunk);
        ops.extend(chunk.iter().map(|p| insert(f, p)));
        ops.push(StreamOp::Checkpoint);
    }
    let log = StreamLog {
        signature: sig,
        universe: n,
        ops,
    };
    let op = Op {
        query: STREAM_QUERY.into(),
        file: "feed.log".into(),
    };
    (vec![("feed.log".into(), log.to_string())], vec![op])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_files() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            assert_eq!(a, b, "{}", w.name());
            let other = Inputs::generate(w, 8);
            assert_ne!(a.files, other.files, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn seeds_give_isomorphic_copies_of_one_shape() {
        // Renaming, permuting and reordering keep every query's length.
        let lengths = |seed| {
            let mut lengths: Vec<usize> = Inputs::generate(Workload::PrepareMix, seed)
                .ops
                .iter()
                .map(|op| op.query.len())
                .collect();
            lengths.sort_unstable();
            lengths
        };
        assert_eq!(lengths(3), lengths(4));
        for w in [Workload::BatchDp, Workload::StreamSkewed] {
            let (a, b) = (Inputs::generate(w, 3), Inputs::generate(w, 4));
            assert_ne!(a.files, b.files);
            assert_eq!(a.references(), b.references(), "{}", w.name());
        }
    }

    #[test]
    fn workload_shapes() {
        let mix = Inputs::generate(Workload::PrepareMix, 1);
        let distinct: BTreeSet<&str> = mix.ops.iter().map(|o| o.query.as_str()).collect();
        assert!(distinct.len() >= 100, "{} distinct queries", distinct.len());
        let batch = Inputs::generate(Workload::BatchDp, 1);
        assert_eq!(batch.ops.len(), BATCH_FILES);
        let stream = Inputs::generate(Workload::StreamSkewed, 1);
        let log = StreamLog::parse(stream.file("feed.log")).unwrap();
        assert_eq!(log.checkpoint_count(), 1 + STREAM_CHECKPOINTS);
    }

    #[test]
    fn references_match_a_small_known_count() {
        // The quickstart pair: 24 answers.
        let inputs = Inputs {
            workload: Workload::PrepareMix,
            files: vec![(
                "q.txt".into(),
                "structure { universe 4  E = { (0,1), (1,2), (2,3), (3,3) } }".into(),
            )],
            ops: vec![Op {
                query: "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))".into(),
                file: "q.txt".into(),
            }],
        };
        assert_eq!(inputs.references(), vec![vec!["24".to_string()]]);
    }
}
