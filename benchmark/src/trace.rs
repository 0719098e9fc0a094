//! The traced run: the same inputs replayed in-process through the
//! public library calls the CLI makes, with a span around each call.
//!
//! Every op is two root spans. `op` mirrors the CLI's own sequence of
//! calls (read, parse, prepare, count, write) in a fresh-process state:
//! the classifier cache is cleared first, as a new `epq` process has it
//! empty. `replay` then re-runs the stages hidden inside those calls
//! through their own public functions — DNF, normalization, the
//! inclusion–exclusion expansion and merge, the `φ⁺` decomposition, and
//! one engine call per kept `φ*` term — so each stage gets a time of its
//! own. Spans stay in memory and are written out once the run ends.

use crate::inputs::{Inputs, Op, Workload, THREADS};
use crate::stats::{median, percentile};
use crate::Metric;
use epq::core::count::sentence_holds;
use epq::core::iex::{inclusion_exclusion_terms, merge_terms};
use epq::core::incremental::LiveCount;
use epq::core::plus::{plus_decomposition_of_normalized, PlusDecomposition};
use epq::core::prepared::{classifier_cache_clear, classifier_cache_stats, PreparedQuery};
use epq::counting::engines::{FptEngine, PpCountingEngine, RelalgEngine};
use epq::logic::parser::parse_query;
use epq::logic::query::check_against_signature;
use epq::logic::{dnf, PpFormula, Query};
use epq::structures::parse::{parse_structure, parse_structures};
use epq::structures::{Signature, StreamLog, StreamOp, Structure};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: usize,
    pass: usize,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// An in-memory span recorder: spans nest by call structure.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    pass: usize,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
            pass: self.pass,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Writes one JSON object per span.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"pass\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.op,
                s.pass,
                parent,
                s.start.as_nanos() as f64 / 1e3,
                s.end.as_nanos() as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

/// Work counts of one traced pass.
#[derive(Default)]
struct Counts {
    disjuncts: usize,
    normalized: usize,
    raw_terms: usize,
    kept_terms: usize,
    fpt_calls: usize,
    structure_bytes: usize,
    inserts: usize,
    term_recounts: u64,
    term_reuses: u64,
}

/// What the traced run checked and measured.
pub struct TraceRun {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Replays whole passes over `inputs` until `deadline` (at least one),
/// checks every count against `references`, writes the spans to
/// `dir/spans.jsonl`, and derives the per-layer metrics. `untraced_ms`
/// is the wall time of one untraced CLI pass over the same inputs.
pub fn run(
    inputs: &Inputs,
    references: &[Vec<String>],
    dir: &Path,
    deadline: Instant,
    untraced_ms: f64,
) -> std::io::Result<TraceRun> {
    let mut t = Tracer::new();
    let mut passes: Vec<Counts> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let cache_before = classifier_cache_stats();
    while passes.is_empty() || Instant::now() < deadline {
        t.pass = passes.len();
        let mut c = Counts::default();
        for (i, (op, expected)) in inputs.ops.iter().zip(references).enumerate() {
            t.op = i;
            let path = dir.join(&op.file);
            let printed = match inputs.workload {
                Workload::PrepareMix => single(&mut t, &mut c, &path, op),
                Workload::BatchDp => batch(&mut t, &mut c, &path, op),
                Workload::StreamSkewed => stream(&mut t, &mut c, &path, op),
            };
            attempted += 1;
            match printed {
                Ok(out) if out.lines().eq(expected.iter().map(String::as_str)) => {}
                Ok(_) => failed += 1,
                Err(e) => {
                    eprintln!("traced op {i} failed: {e}");
                    failed += 1;
                }
            }
        }
        passes.push(c);
    }
    let cache_after = classifier_cache_stats();
    t.write_jsonl(&dir.join("spans.jsonl"))?;
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    let hit_ratio = ratio(
        (cache_after.hits - cache_before.hits) as f64,
        lookups as f64,
    );
    let metrics = derive(&t, &passes, inputs.workload, hit_ratio, untraced_ms);
    Ok(TraceRun {
        attempted,
        failed,
        metrics,
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `parse_query` plus the CLI's signature check.
fn parse_checked(text: &str, signature: &Signature) -> Result<Query, String> {
    let q = parse_query(text).map_err(err)?;
    check_against_signature(q.formula(), signature).map_err(err)?;
    Ok(q)
}

/// `PreparedQuery::prepare` as a new process runs it: cache empty.
fn prepare(t: &mut Tracer, q: &Query, signature: &Signature) -> Result<PreparedQuery, String> {
    classifier_cache_clear();
    t.span("core.prepared", |_| PreparedQuery::prepare(q, signature))
        .map_err(err)
}

/// `epq count --data`.
fn single(t: &mut Tracer, c: &mut Counts, path: &Path, op: &Op) -> Result<String, String> {
    let (b, prepared, out) = t.span("op", |t| {
        let text = t
            .span("cli.read", |_| std::fs::read_to_string(path))
            .map_err(err)?;
        c.structure_bytes += text.len();
        let b = t
            .span("structures.parse", |_| parse_structure(&text))
            .map_err(err)?;
        let q = t.span("logic.parser", |_| parse_checked(&op.query, b.signature()))?;
        let prepared = prepare(t, &q, b.signature())?;
        let n = t.span("core.count", |_| prepared.count(&b));
        let out = t.span("cli.write", |_| format!("{n}\n"));
        Ok::<_, String>((b, prepared, out))
    })?;
    t.span("replay", |t| {
        let dec = replay_prepare(t, c, prepared.query(), b.signature())?;
        replay_count(t, c, &dec, &b, &FptEngine);
        Ok::<_, String>(())
    })?;
    Ok(out)
}

/// `epq count --batch`: the fan-out at `THREADS` workers, then a
/// sequential count loop for the pool's busy time.
fn batch(t: &mut Tracer, c: &mut Counts, path: &Path, op: &Op) -> Result<String, String> {
    let (bs, prepared, out) = t.span("op", |t| {
        let text = t
            .span("cli.read", |_| std::fs::read_to_string(path))
            .map_err(err)?;
        c.structure_bytes += text.len();
        let bs = t
            .span("structures.parse", |_| parse_structures(&text))
            .map_err(err)?;
        let q = t.span("logic.parser", |_| {
            parse_checked(&op.query, bs[0].signature())
        })?;
        let prepared = prepare(t, &q, bs[0].signature())?;
        let counts = t.span("pool.batch", |_| prepared.count_batch(&bs, THREADS));
        let out = t.span("cli.write", |_| {
            counts.iter().fold(String::new(), |mut s, n| {
                let _ = writeln!(s, "{n}");
                s
            })
        });
        Ok::<_, String>((bs, prepared, out))
    })?;
    t.span("replay", |t| {
        let dec = replay_prepare(t, c, prepared.query(), bs[0].signature())?;
        for b in &bs {
            t.span("core.count", |_| prepared.count(b));
        }
        for b in &bs {
            replay_count(t, c, &dec, b, &FptEngine);
        }
        Ok::<_, String>(())
    })?;
    Ok(out)
}

/// The index of the first checkpoint at or after `from`, or `ops.len()`.
fn next_checkpoint(ops: &[StreamOp], from: usize) -> usize {
    ops[from..]
        .iter()
        .position(|op| matches!(op, StreamOp::Checkpoint))
        .map_or(ops.len(), |k| from + k)
}

/// `epq count --stream --engine relalg`: inserts and reconciles through
/// `LiveCount`; the replay recounts every checkpoint from scratch.
fn stream(t: &mut Tracer, c: &mut Counts, path: &Path, op: &Op) -> Result<String, String> {
    let (log, live, out) = t.span("op", |t| {
        let text = t
            .span("cli.read", |_| std::fs::read_to_string(path))
            .map_err(err)?;
        let log = t
            .span("structures.live.parse", |_| StreamLog::parse(&text))
            .map_err(err)?;
        let q = t.span("logic.parser", |_| parse_checked(&op.query, &log.signature))?;
        let prepared = prepare(t, &q, &log.signature)?.with_engine(Box::new(RelalgEngine));
        let mut live = t
            .span("core.incremental.open", |_| {
                LiveCount::new(prepared, log.open())
            })
            .map_err(err)?
            .with_threads(THREADS);
        let mut out = String::new();
        let mut i = 0;
        while i < log.ops.len() {
            let j = next_checkpoint(&log.ops, i);
            t.span("core.incremental.insert", |_| {
                for op in &log.ops[i..j] {
                    live.apply(op);
                }
            });
            c.inserts += j - i;
            if j < log.ops.len() {
                let n = t.span("core.incremental.reconcile", |_| live.current());
                t.span("cli.write", |_| writeln!(out, "{n}")).map_err(err)?;
            }
            i = j + 1;
        }
        if !matches!(log.ops.last(), None | Some(StreamOp::Checkpoint)) {
            let n = t.span("core.incremental.reconcile", |_| live.current());
            t.span("cli.write", |_| writeln!(out, "{n}")).map_err(err)?;
        }
        let stats = live.stats();
        c.term_recounts += stats.term_recounts;
        c.term_reuses += stats.term_reuses;
        Ok::<_, String>((log, live, out))
    })?;
    t.span("replay", |t| {
        let prepared = live.prepared();
        let dec = replay_prepare(t, c, prepared.query(), &log.signature)?;
        let mut snapshot = log.open();
        let mut i = 0;
        while i < log.ops.len() {
            let j = next_checkpoint(&log.ops, i);
            t.span("structures.live.insert", |_| {
                for op in &log.ops[i..j] {
                    if let StreamOp::Insert { rel, tuple } = op {
                        snapshot.insert_tuple(*rel, tuple);
                    }
                }
            });
            t.span("core.incremental.recount", |_| {
                prepared.count(snapshot.snapshot())
            });
            replay_count(t, c, &dec, snapshot.snapshot(), &RelalgEngine);
            i = j + 1;
        }
        Ok::<_, String>(())
    })?;
    Ok(out)
}

/// The per-query stages inside `PreparedQuery::prepare`, each through
/// its own public function.
fn replay_prepare(
    t: &mut Tracer,
    c: &mut Counts,
    q: &Query,
    signature: &Signature,
) -> Result<PlusDecomposition, String> {
    let raw = t
        .span("logic.dnf.disjuncts", |_| dnf::disjuncts(q, signature))
        .map_err(err)?;
    c.disjuncts += raw.len();
    let normalized = t.span("logic.dnf.normalize", |_| dnf::normalize(raw));
    c.normalized += normalized.len();
    let free: Vec<PpFormula> = normalized.iter().filter(|d| d.is_free()).cloned().collect();
    if !free.is_empty() {
        let terms = t.span("core.iex.expand", |_| inclusion_exclusion_terms(&free));
        c.raw_terms += terms.len();
        let kept = t.span("core.iex.merge", |_| merge_terms(terms));
        c.kept_terms += kept.len();
    }
    Ok(t.span("core.plus.decompose", |_| {
        plus_decomposition_of_normalized(normalized)
    }))
}

/// The per-structure stages inside `count_ep_with`: the sentence
/// checks, then one engine call per kept `φ*` term.
fn replay_count(
    t: &mut Tracer,
    c: &mut Counts,
    dec: &PlusDecomposition,
    b: &Structure,
    engine: &dyn PpCountingEngine,
) {
    for theta in &dec.sentences {
        if t.span("core.count.sentence_holds", |_| sentence_holds(theta, b)) {
            return;
        }
    }
    let name = if engine.scan_based() {
        "relalg.count_pp"
    } else {
        "counting.fpt.count"
    };
    for (term, _) in dec.star_af.iter().zip(&dec.kept).filter(|(_, &k)| k) {
        std::hint::black_box(t.span(name, |_| engine.count(&term.formula, b)));
        if !engine.scan_based() {
            c.fpt_calls += 1;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A statistic over no samples: the layer is off this workload's path.
fn or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn derive(
    t: &Tracer,
    passes: &[Counts],
    workload: Workload,
    hit_ratio: f64,
    untraced_ms: f64,
) -> Vec<Metric> {
    // Σ ms per (name, pass), and every duration per name.
    let mut sums: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    let mut each: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &t.spans {
        *sums.entry((s.name, s.pass)).or_default() += s.ms();
        each.entry(s.name).or_default().push(s.ms());
    }
    let sum = |name: &str, pass: usize| sums.get(&(name, pass)).copied().unwrap_or(0.0);
    let per_pass =
        |f: &dyn Fn(usize) -> f64| or_zero(median(&(0..passes.len()).map(f).collect::<Vec<_>>()));
    let layer = |name: &'static str| per_pass(&|p| sum(name, p));
    let all = |name: &str| each.get(name).cloned().unwrap_or_default();
    let total = |name: &str| all(name).iter().sum::<f64>();
    let first = &passes[0];

    // Root spans and the top-level layer spans directly under them.
    let is_root = |s: &Span| s.parent.is_none();
    let root_ms: f64 = t.spans.iter().filter(|s| is_root(s)).map(Span::ms).sum();
    let top_ms: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| is_root(&t.spans[p])))
        .map(Span::ms)
        .sum();

    let signed_sum = per_pass(&|p| {
        let counted = sum("core.count", p) + sum("core.incremental.recount", p);
        let engine = sum("counting.fpt.count", p)
            + sum("relalg.count_pp", p)
            + sum("core.count.sentence_holds", p);
        (counted - engine).max(0.0)
    });
    let (batch_wall, batch_busy, utilization) = if workload == Workload::BatchDp {
        (
            layer("pool.batch"),
            layer("core.count"),
            per_pass(&|p| ratio(sum("core.count", p), THREADS as f64 * sum("pool.batch", p))),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let inserts: usize = passes.iter().map(|c| c.inserts).sum();
    let parse_ms = total("structures.parse");
    let bytes: usize = passes.iter().map(|c| c.structure_bytes).sum();
    let trace_total = layer("op");
    let m = |name, value: f64, unit| Metric {
        name,
        value: or_zero(value),
        unit,
    };
    vec![
        m("cli.read_ms", layer("cli.read"), "ms"),
        m("cli.write_ms", layer("cli.write"), "ms"),
        m("logic.parser.parse_query_ms", layer("logic.parser"), "ms"),
        m("logic.dnf.disjuncts_ms", layer("logic.dnf.disjuncts"), "ms"),
        m("logic.dnf.disjuncts", first.disjuncts as f64, "count"),
        m("logic.dnf.normalize_ms", layer("logic.dnf.normalize"), "ms"),
        m(
            "logic.dnf.normalize_kept_ratio",
            ratio(first.normalized as f64, first.disjuncts as f64),
            "ratio",
        ),
        m("core.iex.expand_ms", layer("core.iex.expand"), "ms"),
        m("core.iex.raw_terms", first.raw_terms as f64, "count"),
        m("core.iex.merge_ms", layer("core.iex.merge"), "ms"),
        m("core.iex.kept_terms", first.kept_terms as f64, "count"),
        m(
            "core.iex.kept_ratio",
            ratio(first.kept_terms as f64, first.raw_terms as f64),
            "ratio",
        ),
        m("core.plus.decompose_ms", layer("core.plus.decompose"), "ms"),
        m("core.prepared.prepare_ms", layer("core.prepared"), "ms"),
        m("core.prepared.cache_hit_ratio", hit_ratio, "ratio"),
        m(
            "structures.parse.parse_structures_ms",
            layer("structures.parse"),
            "ms",
        ),
        m(
            "structures.parse.mb_per_s",
            ratio(bytes as f64 / 1e6, parse_ms / 1e3),
            "MB/s",
        ),
        m(
            "core.count.sentence_holds_ms",
            layer("core.count.sentence_holds"),
            "ms",
        ),
        m(
            "counting.fpt.count_ms.p50",
            percentile(&all("counting.fpt.count"), 0.5),
            "ms",
        ),
        m(
            "counting.fpt.count_ms.max",
            percentile(&all("counting.fpt.count"), 1.0),
            "ms",
        ),
        m("counting.fpt.calls", first.fpt_calls as f64, "count"),
        m("core.count.signed_sum_ms", signed_sum, "ms"),
        m("pool.batch.wall_ms", batch_wall, "ms"),
        m("pool.batch.busy_ms", batch_busy, "ms"),
        m("pool.batch.utilization", utilization, "ratio"),
        m(
            "structures.live.stream_parse_ms",
            layer("structures.live.parse"),
            "ms",
        ),
        m(
            "core.incremental.insert_us",
            ratio(total("core.incremental.insert") * 1e3, inserts as f64),
            "us",
        ),
        m(
            "core.incremental.reconcile_ms.p50",
            percentile(&all("core.incremental.reconcile"), 0.5),
            "ms",
        ),
        m(
            "core.incremental.reconcile_ms.p90",
            percentile(&all("core.incremental.reconcile"), 0.9),
            "ms",
        ),
        m(
            "core.incremental.term_reuse_ratio",
            ratio(
                first.term_reuses as f64,
                (first.term_reuses + first.term_recounts) as f64,
            ),
            "ratio",
        ),
        m(
            "core.incremental.term_recounts",
            first.term_recounts as f64,
            "count",
        ),
        m(
            "core.incremental.recount_ms",
            median(&all("core.incremental.recount")),
            "ms",
        ),
        m(
            "core.incremental.speedup_vs_recount",
            ratio(
                total("core.incremental.recount"),
                total("core.incremental.reconcile"),
            ),
            "ratio",
        ),
        m("relalg.count_pp_ms", layer("relalg.count_pp"), "ms"),
        m("trace.coverage", ratio(top_ms, root_ms), "ratio"),
        m("trace.total_ms", trace_total, "ms"),
        m("trace.untraced_wall_ms", untraced_ms, "ms"),
        m(
            "trace.overhead_ratio",
            ratio(untraced_ms, trace_total),
            "ratio",
        ),
    ]
}
