//! Running one `epq` child process: stdout lines with arrival times, a
//! per-process timeout, and the peak resident set of finished children.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// What one child process did.
pub struct Outcome {
    /// Stdout lines, without their line endings.
    pub lines: Vec<String>,
    /// Arrival time of each stdout line, measured from spawn.
    pub line_times: Vec<Duration>,
    /// Spawn to end of stdout (the child closes stdout when it exits).
    pub wall: Duration,
    /// The child exited with status 0 before its timeout.
    pub exited_ok: bool,
    /// The child was killed at its timeout.
    pub timed_out: bool,
    /// Everything the child wrote to stderr.
    pub stderr: String,
}

/// Runs `program args…` with stdin closed, killing it after `timeout`.
///
/// A reader thread drains stdout and then stderr, stamping each stdout
/// line as it arrives; the calling thread waits on it with the timeout,
/// so the wall time is exact and no polling is involved.
pub fn run(program: &Path, args: &[String], timeout: Duration) -> std::io::Result<Outcome> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let (done, finished) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut lines = Vec::new();
        let mut line_times = Vec::new();
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            line_times.push(start.elapsed());
            lines.push(line.trim_end().to_string());
            line.clear();
        }
        let wall = start.elapsed();
        let mut err = String::new();
        let _ = stderr.read_to_string(&mut err);
        let _ = done.send(());
        (lines, line_times, wall, err)
    });
    let timed_out = finished.recv_timeout(timeout).is_err();
    if timed_out {
        // The child may have exited in the meantime; kill then fails
        // harmlessly.
        let _ = child.kill();
    }
    let status = child.wait()?;
    let (lines, line_times, wall, stderr) = reader.join().expect("stdout reader panicked");
    Ok(Outcome {
        lines,
        line_times,
        wall,
        exited_ok: status.success() && !timed_out,
        timed_out,
        stderr,
    })
}

/// Resource usage as `getrusage(2)` fills it on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The largest resident set, in MiB, of any child this process has
/// waited for; `None` where the platform does not report it.
pub fn peak_child_rss_mb() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const RUSAGE_CHILDREN: i32 = -1;
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss_kib: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value with the layout of
        // `struct rusage` on 64-bit Linux (two timevals, then fourteen
        // longs), and getrusage writes only within it.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        (rc == 0 && usage.maxrss_kib > 0).then(|| usage.maxrss_kib as f64 / 1024.0)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}
