//! Shard planning for deterministic multi-core work partitioning.
//!
//! The streaming advance parallelises over *subjects*: a [`ShardPlan`]
//! carves an ordered work list into contiguous per-thread shards. Two
//! properties make this the right primitive for bit-identical
//! parallelism:
//!
//! 1. **The partition is pure scheduling.** Shards are contiguous
//!    sub-ranges of the caller's ordered work list, so concatenating
//!    per-shard results in shard order reproduces exactly the serial
//!    iteration order — no sort, no nondeterministic interleaving.
//! 2. **The arithmetic matches the historical chunking.** `ranges`
//!    uses the same ceil-division split as the vendored `rayon`
//!    stand-in's internal chunker, so a default (`auto`) plan assigns
//!    work to shards exactly as the previous `par_iter` batch paths
//!    did.
//!
//! Every consumer (`SignaturePipeline`, the detectors,
//! `comsig stream --threads`) takes a plan explicitly
//! instead of reading ad-hoc globals, so one config struct pins the
//! thread count end to end.

use std::ops::Range;

/// An explicit thread-count configuration for sharded batch work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    threads: usize,
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::auto()
    }
}

impl ShardPlan {
    /// A plan with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> ShardPlan {
        ShardPlan {
            threads: threads.max(1),
        }
    }

    /// A plan sized to the machine: `rayon::current_num_threads()`
    /// (which honours `RAYON_NUM_THREADS`).
    #[must_use]
    pub fn auto() -> ShardPlan {
        ShardPlan::new(rayon::current_num_threads())
    }

    /// The configured worker count (always ≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this plan runs everything on the calling thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Partitions `0..n` into at most [`threads`](Self::threads)
    /// contiguous, non-empty, ascending ranges — one per shard. Uses
    /// ceil-division chunks (the vendored rayon arithmetic), so every
    /// shard but possibly the last has the same size. `n == 0` yields
    /// no ranges.
    #[must_use]
    pub fn ranges(&self, n: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let shards = self.threads.min(n);
        let chunk = n.div_ceil(shards);
        (0..shards)
            .filter_map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                (lo < hi).then_some(lo..hi)
            })
            .collect()
    }

    /// Splits an ordered work slice into per-shard contiguous
    /// sub-slices, aligned with [`ranges`](Self::ranges).
    #[must_use]
    pub fn split<'w, T>(&self, work: &'w [T]) -> Vec<&'w [T]> {
        self.ranges(work.len())
            .into_iter()
            .map(|r| &work[r])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_clamps_to_one_thread() {
        assert_eq!(ShardPlan::new(0).threads(), 1);
        assert!(ShardPlan::new(0).is_serial());
        assert!(!ShardPlan::new(2).is_serial());
    }

    #[test]
    fn ranges_cover_exactly_once_in_order() {
        for threads in [1usize, 2, 3, 4, 8, 17] {
            for n in [0usize, 1, 2, 7, 8, 9, 100] {
                let ranges = ShardPlan::new(threads).ranges(n);
                let mut covered = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, covered, "t={threads} n={n}");
                    assert!(r.end > r.start, "t={threads} n={n}");
                    covered = r.end;
                }
                assert_eq!(covered, n, "t={threads} n={n}");
                assert!(ranges.len() <= threads.min(n.max(1)));
            }
        }
    }

    #[test]
    fn ranges_match_ceil_division_chunking() {
        // 10 items over 4 threads: ceil(10/4) = 3 → 3,3,3,1.
        let sizes: Vec<usize> = ShardPlan::new(4)
            .ranges(10)
            .iter()
            .map(std::ops::Range::len)
            .collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        // 8 over 8: one item each.
        assert_eq!(ShardPlan::new(8).ranges(8).len(), 8);
        // More threads than items: one shard per item.
        assert_eq!(ShardPlan::new(8).ranges(3).len(), 3);
    }

    #[test]
    fn split_aligns_with_ranges() {
        let work: Vec<u32> = (0..10).collect();
        let plan = ShardPlan::new(3);
        let shards = plan.split(&work);
        let flat: Vec<u32> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, work);
        assert_eq!(shards.len(), plan.ranges(10).len());
    }

    #[test]
    fn serial_plan_is_one_shard() {
        let plan = ShardPlan::new(1);
        assert_eq!(plan.ranges(100), vec![0..100]);
    }
}
