//! The host-speed calibration kernel.
//!
//! On a shared host the speed of a core drifts by tens of percent over
//! tens of seconds, and whole runs move with it. The kernel is fixed
//! work of the kind `epq` does (hash-table inserts and probes, a sort
//! of machine words) that depends on no code of the repository, so its
//! time tracks the host and not the program. The harness times it
//! between passes and reports each pass's times in multiples of it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Keys per kernel run: about 0.1 s on a 2.1 GHz Xeon core.
const KEYS: usize = 600_000;

/// A fixed multiply-xorshift hasher, so every run does the same work.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 ^= n;
    }
}

/// The kernel's work; returns a checksum so it cannot be optimised away.
fn kernel(keys: usize) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut values: Vec<u64> = (0..keys)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (keys as u64 * 4)
        })
        .collect();
    let mut seen: HashMap<u64, u32, BuildHasherDefault<Mix>> = HashMap::default();
    for &v in &values {
        *seen.entry(v).or_default() += 1;
    }
    values.sort_unstable();
    let probes = values
        .iter()
        .map(|v| u64::from(seen.get(&(v ^ 1)).copied().unwrap_or(0)))
        .fold(0u64, u64::wrapping_add);
    probes ^ values[keys / 2]
}

/// Runs the kernel once and returns its wall time in seconds.
pub fn seconds() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(KEYS)));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(1000), kernel(1000));
        assert!(seconds() > 0.0);
    }
}
