//! End-to-end benchmark of `epq count`.
//!
//! ```text
//! epq-e2e-bench --workload <prepare_mix|batch_dp|stream_skewed|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, computes reference
//! counts in-process, then runs whole passes of `epq count` processes
//! (the binary named by `EPQ_BIN`, default `target/release/epq`), one at
//! a time, for `--seconds`. Times are reported in multiples of a fixed
//! calibration kernel timed between passes, which tracks the host's
//! drifting speed; the raw times go on comment lines. With `--trace 1` the measured passes are
//! instead replayed in-process with a span around every library call,
//! and the per-layer metrics come from those spans. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `benchmark/README.md` defines every workload and metric.

mod calib;
mod child;
mod inputs;
mod runner;
mod stats;
mod trace;

use child::Outcome;
use inputs::{Inputs, Workload, THREADS};
use stats::{median, percentile, tail_percentile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Input builds per run; `setup_s` takes their median.
const SETUP_REPS: usize = 3;
/// After this long no further process starts; ops not run count failed.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads = vec![Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

/// Running totals of ops checked.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    timeouts: usize,
    bad_exits: usize,
    wrong_counts: usize,
}

/// One pass: every op of the workload once, in order.
#[derive(Default)]
struct Pass {
    wall: Duration,
    /// Per-response latencies of the ops that succeeded, in ms.
    latencies_ms: Vec<f64>,
    /// Counts printed and verified by the ops that succeeded.
    counts: usize,
    /// Σ process wall time of the ops that succeeded.
    busy: Duration,
    peak_rss_mb: f64,
    /// The calibration kernel's time around the pass: the mean of the
    /// runs just before and just after it, in seconds.
    cal_s: f64,
}

/// Checks one op's outcome against its reference lines and books it.
fn record(
    outcome: Option<&Outcome>,
    expected: &[String],
    workload: Workload,
    pass: &mut Pass,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let Some(out) = outcome else {
        tally.timeouts += 1;
        tally.failed += 1;
        return;
    };
    if out.timed_out {
        tally.timeouts += 1;
    } else if !out.exited_ok {
        tally.bad_exits += 1;
    } else if out.lines != expected {
        tally.wrong_counts += 1;
    } else {
        pass.counts += out.lines.len();
        pass.busy += out.wall;
        match workload {
            Workload::PrepareMix | Workload::BatchDp => pass.latencies_ms.push(ms(out.wall)),
            // Successive count lines: one checkpoint each.
            Workload::StreamSkewed => pass
                .latencies_ms
                .extend(out.line_times.windows(2).map(|w| ms(w[1] - w[0]))),
        }
        return;
    }
    tally.failed += 1;
}

/// Runs one pass through the runner (this binary with `--run-plan`).
fn run_pass(
    epq: &Path,
    inputs: &Inputs,
    references: &[Vec<String>],
    plan: &Path,
    limit: Instant,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let left = limit.saturating_duration_since(Instant::now());
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("--run-plan")
        .arg(plan)
        .arg("--epq")
        .arg(epq)
        .args(["--limit-ms", &left.as_millis().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the pass runner: {e}"))?;
    if !out.status.success() {
        return Err(format!("the pass runner failed: {}", out.status));
    }
    let report = runner::parse(&String::from_utf8_lossy(&out.stdout))?;
    if report.outcomes.len() != inputs.ops.len() {
        return Err("the pass runner skipped part of its plan".into());
    }
    let mut pass = Pass {
        wall: report.wall,
        peak_rss_mb: report.peak_rss_mb,
        ..Pass::default()
    };
    for (outcome, expected) in report.outcomes.iter().zip(references) {
        record(
            outcome.as_ref(),
            expected,
            inputs.workload,
            &mut pass,
            tally,
        );
    }
    Ok(pass)
}

/// One entry per measured pass: `value(pass) / pass.cal_s`.
fn per_cal(passes: &[Pass], value: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(|p| value(p) / p.cal_s).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// 64-bit FNV-1a of a file: identifies the binary measured when no
/// commit is known.
fn fnv64(path: &Path) -> std::io::Result<String> {
    let hash = std::fs::read(path)?
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    Ok(format!("{hash:016x}"))
}

/// The workload-specific name the README gives a metric on this
/// workload, where it has one.
fn alias(workload: Workload, metric: &str) -> Option<&'static str> {
    match (workload, metric) {
        (Workload::PrepareMix, "latency_cal.p50") => Some("query_latency_cal.p50"),
        (Workload::PrepareMix, "latency_cal.p90") => Some("query_latency_cal.p90"),
        (Workload::BatchDp, "counts_per_cal") => Some("batch_structures_per_cal"),
        (Workload::StreamSkewed, "latency_cal.p50") => Some("checkpoint_latency_cal.p50"),
        (Workload::StreamSkewed, "latency_cal.p90") => Some("checkpoint_latency_cal.p90"),
        _ => None,
    }
}

fn join(values: impl Iterator<Item = f64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run_workload(epq: &Path, w: Workload, args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let limit = started + RUN_LIMIT;
    let io = |e: std::io::Error| e.to_string();
    let dir = PathBuf::from(".bench_out").join(format!("{}-seed{}", w.name(), args.seed));
    std::fs::create_dir_all(&dir).map_err(io)?;

    // Set-up: build the inputs several times, keep the last build.
    let mut builds = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = Inputs::generate(w, args.seed);
        for (name, text) in &inputs.files {
            std::fs::write(dir.join(name), text).map_err(io)?;
        }
        let plan: String = inputs
            .ops
            .iter()
            .map(|op| inputs.cli_args(op, &dir).join("\t") + "\n")
            .collect();
        std::fs::write(dir.join("plan.tsv"), plan).map_err(io)?;
        let references = inputs.references();
        builds.push(t0.elapsed().as_secs_f64());
        built = Some((inputs, references));
    }
    let (inputs, references) = built.expect("at least one set-up");
    let plan = dir.join("plan.tsv");
    let mut tally = Tally::default();
    // The first kernel run also warms the kernel up; it is not used.
    calib::seconds();
    let warm_up = run_pass(epq, &inputs, &references, &plan, limit, &mut tally)?;
    let setup_s = median(&builds) + warm_up.wall.as_secs_f64();

    let measure_until = (Instant::now() + Duration::from_secs(args.seconds)).min(limit);
    let mut passes: Vec<Pass> = Vec::new();
    let mut raw = String::new();
    let metrics = if args.trace {
        let untraced = run_pass(epq, &inputs, &references, &plan, limit, &mut tally)?;
        let traced =
            trace::run(&inputs, &references, &dir, measure_until, ms(untraced.wall)).map_err(io)?;
        tally.attempted += traced.attempted;
        tally.failed += traced.failed;
        tally.wrong_counts += traced.failed;
        traced.metrics
    } else {
        let mut cal_before = calib::seconds();
        while passes.is_empty() || Instant::now() < measure_until {
            let mut pass = run_pass(epq, &inputs, &references, &plan, limit, &mut tally)?;
            let cal_after = calib::seconds();
            pass.cal_s = (cal_before + cal_after) / 2.0;
            cal_before = cal_after;
            passes.push(pass);
        }
        let secs = |p: &Pass| p.wall.as_secs_f64();
        let walls: Vec<f64> = passes.iter().map(secs).collect();
        let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
        let cal_latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latencies_ms.iter().map(|l| l / 1e3 / p.cal_s))
            .collect();
        let counts: usize = passes.iter().map(|p| p.counts).sum();
        let busy: f64 = passes.iter().map(|p| p.busy.as_secs_f64()).sum();
        let cal_busy: f64 = per_cal(&passes, |p| p.busy.as_secs_f64()).iter().sum();
        // A two-thread process's peak varies from run to run with the
        // allocator's per-thread arenas, so report the median pass's.
        let peak_rss_mb = median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>());
        raw = format!(
            "# raw: wall_s={:.6} latency_ms.p50={:.6} latency_ms.p90={:.6} counts_per_s={:.6} \
             cal_s={:.6}",
            median(&walls),
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
            counts as f64 / busy,
            median(&passes.iter().map(|p| p.cal_s).collect::<Vec<_>>()),
        );
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("wall_cal", median(&per_cal(&passes, secs)), "cal"),
            m("latency_cal.p50", percentile(&cal_latencies, 0.5), "cal"),
            m("latency_cal.p90", percentile(&cal_latencies, 0.9), "cal"),
            m("counts_per_cal", counts as f64 / cal_busy, "1/cal"),
            m("peak_rss_mb", peak_rss_mb, "MB"),
            m("setup_s", setup_s, "s"),
        ]
    };
    let samples: usize = passes.iter().map(|p| p.latencies_ms.len()).sum();
    let notes = if args.trace {
        format!("spans={}", dir.join("spans.jsonl").display())
    } else {
        format!(
            "passes={} latency_samples={samples} highest_supported_percentile={}",
            passes.len(),
            tail_percentile(samples).map_or("none".to_string(), |q| format!("p{}", q * 100.0))
        )
    };

    let engine = w.engine();
    let commit = std::env::var("EPQ_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let binary = fnv64(epq).map_err(io)?;
    println!(
        "# workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host_threads={host_threads} threads={THREADS} engine={engine} commit={commit} \
         epq={} epq_fnv64={binary}",
        epq.display()
    );
    println!("# {notes} elapsed_s={:.1}", started.elapsed().as_secs_f64());
    if !raw.is_empty() {
        println!("{raw}");
    }
    println!(
        "# attempted={} failed={} (timeouts={} nonzero_exits={} wrong_counts={}) failed_frac={}",
        tally.attempted,
        tally.failed,
        tally.timeouts,
        tally.bad_exits,
        tally.wrong_counts,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let mut metrics = metrics;
    let mut report = String::new();
    for m in &mut metrics {
        // A statistic over no samples (every op failed) still prints.
        if !m.value.is_finite() {
            m.value = 0.0;
        }
        let alias = alias(w, m.name).map_or(String::new(), |a| format!("  ({a})"));
        report.push_str(&format!(
            "{:<40} {:>16.6} {}{alias}\n",
            m.name, m.value, m.unit
        ));
    }
    print!("{report}");
    let line = json_line(&tally, &metrics);
    let facts = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_threads\": {host_threads}, \
         \"threads\": {THREADS}, \"engine\": \"{engine}\", \"commit\": \"{commit}\", \
         \"epq_fnv64\": \"{binary}\", \"pass_wall_s\": [{}], \"pass_cal_s\": [{}], \
         \"pass_latencies_ms\": [{}], \
         \"result\": {line}}}\n",
        w.name(),
        args.seed,
        args.trace,
        join(passes.iter().map(|p| p.wall.as_secs_f64())),
        join(passes.iter().map(|p| p.cal_s)),
        passes
            .iter()
            .map(|p| format!("[{}]", join(p.latencies_ms.iter().copied())))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let report_path = dir.join(format!("report-trace{}.json", u8::from(args.trace)));
    std::fs::write(report_path, facts).map_err(io)?;
    println!("{line}");
    Ok(())
}

/// `--run-plan PLAN --epq BIN --limit-ms N`: the pass runner's mode.
fn runner_main(argv: &[String]) -> Result<(), String> {
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("the runner needs {name}"))
    };
    let plan = std::fs::read_to_string(flag("--run-plan")?).map_err(|e| e.to_string())?;
    let limit_ms: u64 = flag("--limit-ms")?
        .parse()
        .map_err(|_| "bad --limit-ms".to_string())?;
    let report = runner::run_plan(
        &plan,
        Path::new(flag("--epq")?),
        Duration::from_millis(limit_ms),
    )
    .map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--run-plan") {
        return match runner_main(&argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("epq-e2e-bench runner: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("epq-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let epq =
        PathBuf::from(std::env::var("EPQ_BIN").unwrap_or_else(|_| "target/release/epq".into()));
    if !epq.is_file() {
        eprintln!("epq-e2e-bench: no epq binary at {}", epq.display());
        return ExitCode::from(2);
    }
    for &w in &args.workloads {
        if let Err(e) = run_workload(&epq, w, &args) {
            eprintln!("epq-e2e-bench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_count_is_a_failure() {
        // `echo` stands in for `epq`: it prints its arguments.
        let plan = "5\nsix\n";
        let text = runner::run_plan(plan, Path::new("/bin/echo"), Duration::from_secs(30)).unwrap();
        let report = runner::parse(&text).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        let expected = [vec!["5".to_string()], vec!["6".to_string()]];
        let mut pass = Pass::default();
        let mut tally = Tally::default();
        for (outcome, expected) in report.outcomes.iter().zip(&expected) {
            record(
                outcome.as_ref(),
                expected,
                Workload::PrepareMix,
                &mut pass,
                &mut tally,
            );
        }
        assert_eq!(
            (tally.attempted, tally.failed, tally.wrong_counts),
            (2, 1, 1)
        );
        assert_eq!((pass.counts, pass.latencies_ms.len()), (1, 1));
    }

    #[test]
    fn skipped_and_killed_ops_are_failures() {
        let text = runner::run_plan(
            "-c\texec sleep 30\n",
            Path::new("sh"),
            Duration::from_millis(200),
        )
        .unwrap();
        let mut report = runner::parse(&text).unwrap();
        report.outcomes.push(None);
        let mut pass = Pass::default();
        let mut tally = Tally::default();
        for outcome in &report.outcomes {
            record(
                outcome.as_ref(),
                &[],
                Workload::StreamSkewed,
                &mut pass,
                &mut tally,
            );
        }
        assert_eq!((tally.attempted, tally.failed, tally.timeouts), (2, 2, 2));
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let tally = Tally {
            attempted: 4,
            failed: 1,
            ..Tally::default()
        };
        let line = json_line(
            &tally,
            &[Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let args: Vec<String> = [
            "--workload",
            "batch_dp",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workloads, [Workload::BatchDp]);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 3, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }
}
