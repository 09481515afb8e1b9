//! The reference operation: how fast is this host, right now, at the kind
//! of work the workloads do?
//!
//! The sandbox's speed moves under the benchmark. The same binary renders
//! the same HotCRP page in 27 µs or in 35 µs depending on what the host's
//! other tenants are doing, for seconds or minutes at a time, independently
//! on each core — more than any bound this benchmark sets. A pure ALU loop
//! does not follow those moves; a piece of string, allocator and hash-map
//! work does, to about 2 %. So every block of measured operations is
//! preceded, on the thread that does the measured work, by a few runs of
//! the operation below, and the block's times are scaled by
//! `NOMINAL_NS ÷ median(reference time)`. Reported times are therefore
//! times at the reference speed; `host.speed_ratio` says how far the host
//! was from it. The operation uses nothing but `std`, so no change to the
//! repository's crates can move it.

use std::collections::HashMap;
use std::time::Instant;

use crate::gen::{body_text, escape_html, fnv1a, Rng, FNV_OFFSET};

/// What one reference operation takes on the seed commit's host in its
/// common state. Frozen: it only fixes the scale of the reported times.
pub const NOMINAL_NS: f64 = 25_000.0;

/// Reference runs before each block of measured operations.
pub const RUNS_PER_BLOCK: usize = 40;

pub struct RefOp {
    body: String,
}

impl RefOp {
    pub fn new() -> RefOp {
        RefOp {
            body: body_text(&mut Rng::new(7), 1024),
        }
    }

    /// Renders a small page, escapes a body, indexes its words, hashes
    /// the result: formatting, allocation, byte scanning and hashing in
    /// about the mix a request handler has.
    pub fn run(&self) -> u64 {
        let mut page = String::new();
        for i in 0..40 {
            page.push_str(&format!(
                "<div class=\"row r{i}\">{}</div>",
                "x".repeat(100)
            ));
        }
        page.push_str(&escape_html(&self.body));
        let mut index = HashMap::new();
        for (i, word) in self.body.split(' ').enumerate() {
            index.insert(word, i);
        }
        std::hint::black_box(fnv1a(FNV_OFFSET, page.as_bytes()) ^ index.len() as u64)
    }

    /// Times one run.
    pub fn timed(&self) -> u64 {
        let t = Instant::now();
        self.run();
        t.elapsed().as_nanos() as u64
    }

    /// The factor that brings times measured now to the reference speed.
    pub fn scale_now(&self) -> f64 {
        let mut samples: Vec<u64> = (0..RUNS_PER_BLOCK).map(|_| self.timed()).collect();
        scale_of(&mut samples)
    }
}

/// `NOMINAL_NS ÷ median(samples)`; 1 when there are no samples.
pub fn scale_of(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    NOMINAL_NS / crate::stats::median_u64(samples).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_median() {
        assert_eq!(scale_of(&mut [50_000, 10, 50_000]), 0.5);
        assert_eq!(scale_of(&mut [12_500]), 2.0);
        assert_eq!(scale_of(&mut []), 1.0);
    }

    #[test]
    fn reference_operation_is_deterministic_and_takes_microseconds() {
        let op = RefOp::new();
        assert_eq!(op.run(), op.run());
        let ns = (0..20).map(|_| op.timed()).min().unwrap();
        assert!((2_000..2_000_000).contains(&ns), "{ns}");
    }
}
