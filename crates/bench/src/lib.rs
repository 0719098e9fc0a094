//! # epq-bench — benchmark harness and experiment runner
//!
//! The benchmark crate of the `epq` workspace (layering in
//! `docs/ARCHITECTURE.md`, experiment ids in `docs/BENCHMARK.md`).
//!
//! Its one entry point is the **`experiments` binary** (`cargo run -p
//! epq-bench --release --bin experiments -- [ids…]`). It prints the
//! tables and series for the ids T1, E1–E6, F1–F4 and A1–A3, and runs
//! the CI gates P1–P4, which collect their rows into one [`Report`]
//! written to `BENCH.json`. Timings are medians of a few wall-clock
//! runs ([`time_us`], [`timed`]).
//!
//! This library holds the workload builders, measurement helpers and
//! gate report the binary uses, kept here so they can be unit-tested.

pub mod naive;

use epq_counting::engines::PpCountingEngine;
use epq_logic::query::infer_signature;
use epq_logic::{PpFormula, Query};
use epq_structures::Structure;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Builds the pp view of a query against its inferred signature.
pub fn pp_of(query: &Query) -> PpFormula {
    let sig = infer_signature([query.formula()]).expect("signature infers");
    PpFormula::from_query(query, &sig).expect("query converts")
}

/// Median wall-clock microseconds over `runs` executions of `f`.
pub fn time_us(runs: usize, mut f: impl FnMut()) -> f64 {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Times one engine on one (query, structure) pair at up to `threads`
/// workers, returning (count, median µs).
pub fn time_engine(
    engine: &dyn PpCountingEngine,
    pp: &PpFormula,
    b: &Structure,
    threads: usize,
    runs: usize,
) -> (String, f64) {
    let (count, us) = timed(runs, || engine.count_threads(pp, b, threads));
    (count.to_string(), us)
}

/// Runs `f` once for its result, then times `runs` more executions:
/// (result, median µs).
pub fn timed<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let out = f();
    let us = time_us(runs, || {
        std::hint::black_box(f());
    });
    (out, us)
}

/// Deterministic random rows for the `P3` layout comparison: `n` rows,
/// column `c` drawn uniformly from `0..vals[c]`. Both layouts (the
/// flat arena and the [`naive`] seed baseline) are built from one call's
/// output, so they measure and agree on identical inputs.
pub fn p3_rows(seed: u64, n: usize, vals: &[u32]) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| vals.iter().map(|&v| rng.gen_range(0..v.max(1))).collect())
        .collect()
}

/// The `P3` join-heavy pair: `R(0,1) ⋈ S(1,2)` with `n` rows per side
/// and a shared-column domain of 211 values, so the expected output is
/// about `n²/211` rows — enough matches that the join inner loop, not
/// the scan, dominates.
#[allow(clippy::type_complexity)]
pub fn p3_join_pair(n: usize) -> ((Vec<u32>, Vec<Vec<u32>>), (Vec<u32>, Vec<Vec<u32>>)) {
    let wide = (n as u32 / 4).max(1);
    (
        (vec![0, 1], p3_rows(1000 + n as u64, n, &[wide, 211])),
        (vec![1, 2], p3_rows(2000 + n as u64, n, &[211, 61])),
    )
}

/// The `P4` streaming workload: a bulk seed phase into `E` (one
/// checkpoint at its end), then a hot stream into `F` with a
/// checkpoint every `checkpoint_every` inserts — the traffic shape
/// where most writes land on one relation while the query also reads
/// a large, quiet one.
pub fn p4_stream_log(
    n: usize,
    seed_inserts: usize,
    stream_inserts: usize,
    checkpoint_every: usize,
    seed: u64,
) -> epq_structures::live::StreamLog {
    let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = epq_workloads::data::random_insert_log(
        &mut rng,
        &sig,
        n,
        seed_inserts,
        seed_inserts.max(1),
        &[1, 0],
    );
    let stream = epq_workloads::data::random_insert_log(
        &mut rng,
        &sig,
        n,
        stream_inserts,
        checkpoint_every,
        &[0, 1],
    );
    log.ops.extend(stream.ops);
    log
}

/// Replays `log` through incremental maintenance
/// (`epq_core::incremental::LiveCount`, up to `threads` workers per
/// recount), returning the checkpoint counts.
pub fn stream_incremental(
    query: &epq_logic::Query,
    log: &epq_structures::live::StreamLog,
    engine: fn() -> Box<dyn PpCountingEngine>,
    threads: usize,
) -> Vec<epq_bigint::Natural> {
    let prepared = epq_core::prepared::PreparedQuery::prepare(query, &log.signature)
        .expect("query prepares")
        .with_engine(engine());
    let mut live = epq_core::incremental::LiveCount::new(prepared, log.open())
        .expect("signatures match")
        .with_threads(threads);
    log.ops.iter().filter_map(|op| live.apply(op)).collect()
}

/// Replays `log` with prepare-once/recount-each-checkpoint — the best
/// non-incremental pipeline available before the streaming layer —
/// returning the checkpoint counts.
pub fn stream_recount(
    query: &epq_logic::Query,
    log: &epq_structures::live::StreamLog,
    engine: fn() -> Box<dyn PpCountingEngine>,
) -> Vec<epq_bigint::Natural> {
    let prepared = epq_core::prepared::PreparedQuery::prepare(query, &log.signature)
        .expect("query prepares")
        .with_engine(engine());
    let mut live = log.open();
    let mut counts = Vec::new();
    for op in &log.ops {
        match op {
            epq_structures::live::StreamOp::Insert { rel, tuple } => {
                live.insert_tuple(*rel, tuple);
            }
            epq_structures::live::StreamOp::Checkpoint => {
                counts.push(prepared.count(live.snapshot()));
            }
        }
    }
    counts
}

/// Escapes a string for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters). [`Report::to_json`] writes
/// `BENCH.json` by hand — the workspace has no serde.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<width$}", width = w))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints a rule line matching `widths`.
pub fn rule(widths: &[usize]) -> String {
    "-".repeat(widths.iter().sum::<usize>() + widths.len().saturating_sub(1))
}

/// One measured configuration of a P1–P4 gate experiment.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment id (`P1`…`P4`).
    pub experiment: &'static str,
    /// Workload family, e.g. `qpath3` or `join-heavy`.
    pub family: &'static str,
    /// What was run on it, e.g. `fpt/4t` or `join2/flat`.
    pub variant: String,
    /// Size parameter: structure size, batch size, rows per side or
    /// inserts.
    pub n: usize,
    /// Worker cap of the run.
    pub threads: usize,
    /// Median wall-clock microseconds.
    pub median_us: f64,
    /// A count or an output row count (empty when the row has none).
    pub result: String,
    /// Whether the result matches the experiment's reference.
    pub agrees: bool,
}

/// A named ratio of two medians; with a `min`, it is a gate.
#[derive(Clone, Debug)]
pub struct Ratio {
    /// Name, e.g. `join_speedup`.
    pub name: String,
    /// The measured ratio.
    pub value: f64,
    /// The gate's lower bound, if any.
    pub min: Option<f64>,
}

/// The P1–P4 report: every row and ratio of one run, plus the host's
/// hardware thread count, which a parallel speedup must be read next to.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Hardware threads available to the run.
    pub host_threads: usize,
    /// Measured rows, in run order.
    pub rows: Vec<Row>,
    /// Named ratios, in run order.
    pub ratios: Vec<Ratio>,
}

impl Report {
    /// An empty report for a host with `host_threads` hardware threads.
    pub fn new(host_threads: usize) -> Self {
        Report {
            host_threads,
            ..Report::default()
        }
    }

    /// Records a ratio; `min` makes it a gate.
    pub fn ratio(&mut self, name: impl Into<String>, value: f64, min: Option<f64>) {
        self.ratios.push(Ratio {
            name: name.into(),
            value,
            min,
        });
    }

    /// The gate checker: one message per disagreeing row and per gated
    /// ratio below its minimum (a NaN ratio fails too). Empty means
    /// every gate passed.
    pub fn failures(&self) -> Vec<String> {
        let rows = self.rows.iter().filter(|r| !r.agrees).map(|r| {
            format!(
                "{} {} {} n={}: result {} disagrees with the reference",
                r.experiment, r.family, r.variant, r.n, r.result
            )
        });
        let ratios = self.ratios.iter().filter_map(|r| {
            let min = r.min?;
            (r.value.is_nan() || r.value < min)
                .then(|| format!("{} = {} is below {min}", r.name, r.value))
        });
        rows.chain(ratios).collect()
    }

    /// The human-readable table: one line per row, then the ratios.
    pub fn table(&self) -> String {
        let widths = [4, 12, 16, 7, 8, 12, 12, 6];
        let header = [
            "exp",
            "family",
            "variant",
            "n",
            "threads",
            "median us",
            "result",
            "agree",
        ];
        let mut lines = vec![
            format!("host threads: {}", self.host_threads),
            row(&header.map(String::from), &widths),
            rule(&widths),
        ];
        for r in &self.rows {
            lines.push(row(
                &[
                    r.experiment.into(),
                    r.family.into(),
                    r.variant.clone(),
                    r.n.to_string(),
                    r.threads.to_string(),
                    format!("{:.0}", r.median_us),
                    r.result.clone(),
                    r.agrees.to_string(),
                ],
                &widths,
            ));
        }
        for r in &self.ratios {
            let gate = r
                .min
                .map(|m| format!(" (gate: >= {m})"))
                .unwrap_or_default();
            lines.push(format!("{}: {:.2}x{gate}", r.name, r.value));
        }
        lines.join("\n") + "\n"
    }

    /// `BENCH.json`: the host thread count, the disagreement count, the
    /// ratios and one object per row. Non-finite ratios become `null`.
    pub fn to_json(&self) -> String {
        let number = |x: f64| {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        };
        let ratios: Vec<String> = self
            .ratios
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"value\": {}, \"min\": {}}}",
                    json_escape(&r.name),
                    number(r.value),
                    r.min.map_or("null".to_string(), number)
                )
            })
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"experiment\": \"{}\", \"family\": \"{}\", \"variant\": \"{}\", \
                     \"n\": {}, \"threads\": {}, \"median_us\": {:.1}, \"result\": \"{}\", \
                     \"agrees\": {}}}",
                    json_escape(r.experiment),
                    json_escape(r.family),
                    json_escape(&r.variant),
                    r.n,
                    r.threads,
                    r.median_us,
                    json_escape(&r.result),
                    r.agrees
                )
            })
            .collect();
        format!(
            "{{\n  \"host_threads\": {},\n  \"disagreements\": {},\n  \"ratios\": [\n{}\n  ],\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            self.host_threads,
            self.rows.iter().filter(|r| !r.agrees).count(),
            ratios.join(",\n"),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_workloads::{data, queries};

    #[test]
    fn timing_helpers_run() {
        let us = time_us(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(us >= 0.0);
    }

    #[test]
    fn engine_timer_returns_consistent_count() {
        let q = queries::path_query(2);
        let pp = pp_of(&q);
        let b = data::path_structure(5);
        let (count, _) = time_engine(&epq_counting::engines::FptEngine, &pp, &b, 1, 2);
        assert_eq!(count, "3");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }

    fn report_row(family: &'static str, agrees: bool) -> Row {
        Row {
            experiment: "P1",
            family,
            variant: "fpt/2t".into(),
            n: 8,
            threads: 2,
            median_us: 12.5,
            result: "42".into(),
            agrees,
        }
    }

    #[test]
    fn checker_fails_a_disagreeing_row() {
        let mut report = Report::new(2);
        report.rows.push(report_row("a", true));
        assert!(report.failures().is_empty());
        report.rows.push(report_row("b", false));
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("P1 b fpt/2t"), "{failures:?}");
    }

    #[test]
    fn checker_holds_gated_ratios_to_their_minimum() {
        let mut report = Report::new(1);
        report.ratio("exactly_one", 1.0, Some(1.0));
        report.ratio("ungated", 0.01, None);
        report.ratio("ungated_nan", f64::NAN, None);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        report.ratio("join_speedup", 0.99, Some(1.0));
        report.ratio("incremental_speedup", f64::NAN, Some(1.0));
        let failures = report.failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("join_speedup = 0.99"));
        assert!(failures[1].starts_with("incremental_speedup"));
    }

    #[test]
    fn json_has_one_escaped_object_per_row() {
        let mut report = Report::new(4);
        report.rows.push(report_row("plain", true));
        report.rows.push(report_row("quo\"te", false));
        report.ratio("join_speedup", 3.5, Some(1.0));
        report.ratio("batch_speedup", f64::INFINITY, None);
        let json = report.to_json();
        assert_eq!(json.matches("\"experiment\": \"P1\"").count(), 2);
        assert!(json.contains("\"family\": \"quo\\\"te\""), "{json}");
        assert!(json.contains("\"host_threads\": 4,"));
        assert!(json.contains("\"disagreements\": 1,"));
        assert!(json.contains("{\"name\": \"join_speedup\", \"value\": 3.5, \"min\": 1}"));
        assert!(json.contains("\"value\": null, \"min\": null"));
    }

    #[test]
    fn table_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   bb  ");
        assert_eq!(rule(&[3, 4]).len(), 8);
    }
}
