//! The pass runner: a small child process of the harness that starts
//! the `epq` processes of one pass and reports what they did.
//!
//! A child started by `posix_spawn` shares its parent's memory until it
//! execs, and Linux counts the parent's peak resident set into the
//! child's `ru_maxrss` at that exec. The harness's peak grows with the
//! reference counts it computes, so `epq` processes it started itself
//! would report the harness's peak instead of their own. The runner
//! stays small, so the peak it reads over its children is theirs.

use crate::child::{self, Outcome};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// A process still running after this long is killed and counted failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// One pass as the runner saw it.
pub struct Report {
    /// One entry per plan line; `None` for an op skipped at the limit.
    pub outcomes: Vec<Option<Outcome>>,
    /// First spawn to last exit.
    pub wall: Duration,
    /// Largest resident set of the pass's `epq` processes.
    pub peak_rss_mb: f64,
}

/// Runs every op of `plan` (one line per op, its `epq` arguments
/// separated by tabs) one at a time, starting none after `limit`, and
/// returns the report text that [`parse`] reads.
pub fn run_plan(plan: &str, epq: &Path, limit: Duration) -> std::io::Result<String> {
    let start = Instant::now();
    let mut report = String::new();
    let mut failures = 0;
    for line in plan.lines() {
        let left = limit.saturating_sub(start.elapsed());
        if left.is_zero() {
            report.push_str("skip\n");
            continue;
        }
        let args: Vec<String> = line.split('\t').map(str::to_string).collect();
        let out = child::run(epq, &args, OP_TIMEOUT.min(left))?;
        let _ = writeln!(
            report,
            "op {} {} {} {}",
            u8::from(out.exited_ok),
            u8::from(out.timed_out),
            out.wall.as_nanos(),
            out.lines.len()
        );
        for (text, at) in out.lines.iter().zip(&out.line_times) {
            let _ = writeln!(report, "{} {text}", at.as_nanos());
        }
        if !out.exited_ok {
            failures += 1;
            if failures <= 3 {
                eprintln!("epq {line:?} failed: {}", out.stderr.trim());
            }
        }
    }
    let _ = writeln!(
        report,
        "pass {} {}",
        start.elapsed().as_nanos(),
        child::peak_child_rss_mb().unwrap_or(0.0)
    );
    Ok(report)
}

/// Reads a report written by [`run_plan`].
pub fn parse(report: &str) -> Result<Report, String> {
    let bad = |line: &str| format!("malformed runner report line {line:?}");
    let nanos = |s: &str| s.parse::<u64>().map(Duration::from_nanos);
    let mut outcomes = Vec::new();
    let mut lines = report.lines();
    while let Some(line) = lines.next() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["skip"] => outcomes.push(None),
            ["op", ok, timed_out, wall, count] => {
                let count: usize = count.parse().map_err(|_| bad(line))?;
                let mut out = Outcome {
                    lines: Vec::with_capacity(count),
                    line_times: Vec::with_capacity(count),
                    wall: nanos(wall).map_err(|_| bad(line))?,
                    exited_ok: *ok == "1",
                    timed_out: *timed_out == "1",
                    stderr: String::new(),
                };
                for _ in 0..count {
                    let entry = lines.next().ok_or_else(|| bad(line))?;
                    let (at, text) = entry.split_once(' ').ok_or_else(|| bad(entry))?;
                    out.line_times.push(nanos(at).map_err(|_| bad(entry))?);
                    out.lines.push(text.to_string());
                }
                outcomes.push(Some(out));
            }
            ["pass", wall, rss] => {
                return Ok(Report {
                    outcomes,
                    wall: nanos(wall).map_err(|_| bad(line))?,
                    peak_rss_mb: rss.parse().map_err(|_| bad(line))?,
                })
            }
            _ => return Err(bad(line)),
        }
    }
    Err("runner report ends before its pass line".into())
}
