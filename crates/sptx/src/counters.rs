//! Execution profiles: the dynamic counters produced by running a kernel.
//!
//! These are the SPTX equivalent of the hardware profiler the paper relies on
//! ("the Profiler, which is provided by the manufacturer, acquires execution
//! information such as the number of executed instructions per instruction type ...").

use std::collections::HashMap;

use crate::isa::BlockId;
use crate::program::ClassCounts;

/// Summary of the memory behaviour of one kernel execution, consumed by the GPU
/// device model's cache/stall estimator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryTraceSummary {
    /// Total bytes loaded from global memory.
    pub load_bytes: u64,
    /// Total bytes stored to global memory.
    pub store_bytes: u64,
    /// Number of distinct 128-byte memory segments touched. A low
    /// `unique_segments / accesses` ratio indicates well-coalesced, cache-friendly
    /// access; a high ratio indicates scattered access.
    pub unique_segments: u64,
    /// Total number of load/store operations.
    pub accesses: u64,
}

impl MemoryTraceSummary {
    /// Spatial-locality score in `[0, 1]`: 1 means every access hit an already
    /// touched 128-byte segment, 0 means every access opened a new segment.
    pub fn locality(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        1.0 - (self.unique_segments as f64 / self.accesses as f64).min(1.0)
    }
}

/// Deduplicating accumulator for touched 128-byte memory segments.
///
/// The interpreter previously tracked segments in a `HashSet<u64>`, paying a
/// hash and probe on every load and store. Kernel access streams are strongly
/// run-structured — consecutive accesses usually hit the same or an adjacent
/// segment — so an append-only vec with a last-value fast path and periodic
/// sort+dedup compaction is cheaper, and per-worker sets merge by
/// concatenation followed by one final compaction.
#[derive(Debug, Clone)]
pub struct SegmentSet {
    segs: Vec<u64>,
    /// Compact when the raw vec reaches this length; doubled after each
    /// compaction so the amortized cost per insert stays O(log n).
    watermark: usize,
}

impl Default for SegmentSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentSet {
    /// An empty set.
    pub fn new() -> Self {
        SegmentSet { segs: Vec::new(), watermark: 1024 }
    }

    /// Record a touched segment.
    #[inline]
    pub fn insert(&mut self, seg: u64) {
        if self.segs.last() == Some(&seg) {
            return;
        }
        self.segs.push(seg);
        if self.segs.len() >= self.watermark {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.segs.sort_unstable();
        self.segs.dedup();
        self.watermark = (self.segs.len() * 2).max(1024);
    }

    /// Fold another set into this one. Order-insensitive: the distinct count
    /// of the union does not depend on which worker touched a segment first.
    pub fn absorb(&mut self, other: SegmentSet) {
        self.segs.extend(other.segs);
        if self.segs.len() >= self.watermark {
            self.compact();
        }
    }

    /// Number of distinct segments recorded so far.
    pub fn distinct(&mut self) -> u64 {
        self.compact();
        self.segs.len() as u64
    }
}

/// Full dynamic profile of one kernel launch over an entire grid.
///
/// Contains everything the paper's Profile-Based Execution Analysis consumes:
/// per-class dynamic instruction counts (σ on the machine that ran it), per-block
/// iteration counts (λ_b, obtained in the paper by "dynamically inserting PTX
/// instructions"), and a memory-trace summary for the data-cache stall model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionProfile {
    /// Dynamic instruction counts by class, summed over all threads.
    pub counts: ClassCounts,
    /// Per-basic-block execution counts λ_b, summed over all threads.
    pub block_iterations: HashMap<BlockId, u64>,
    /// Memory behaviour summary.
    pub memory: MemoryTraceSummary,
    /// Number of threads that ran.
    pub threads: u64,
}

impl ExecutionProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// λ for one block (0 if never executed).
    pub fn iterations(&self, block: BlockId) -> u64 {
        self.block_iterations.get(&block).copied().unwrap_or(0)
    }

    /// Merge another profile into this one (e.g. accumulate per-thread profiles).
    pub fn merge(&mut self, other: &ExecutionProfile) {
        self.counts = self.counts.merged(&other.counts);
        for (b, n) in &other.block_iterations {
            *self.block_iterations.entry(*b).or_insert(0) += n;
        }
        self.memory.load_bytes += other.memory.load_bytes;
        self.memory.store_bytes += other.memory.store_bytes;
        self.memory.unique_segments += other.memory.unique_segments;
        self.memory.accesses += other.memory.accesses;
        self.threads += other.threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::InstrClass;

    #[test]
    fn merge_accumulates_everything() {
        let mut a = ExecutionProfile::new();
        a.counts.add(InstrClass::Fp32, 10);
        a.block_iterations.insert(BlockId(0), 5);
        a.memory.load_bytes = 64;
        a.memory.accesses = 4;
        a.threads = 1;

        let mut b = ExecutionProfile::new();
        b.counts.add(InstrClass::Fp32, 6);
        b.counts.add(InstrClass::Ld, 2);
        b.block_iterations.insert(BlockId(0), 3);
        b.block_iterations.insert(BlockId(1), 1);
        b.memory.load_bytes = 32;
        b.memory.accesses = 2;
        b.threads = 1;

        a.merge(&b);
        assert_eq!(a.counts.get(InstrClass::Fp32), 16);
        assert_eq!(a.counts.get(InstrClass::Ld), 2);
        assert_eq!(a.iterations(BlockId(0)), 8);
        assert_eq!(a.iterations(BlockId(1)), 1);
        assert_eq!(a.memory.load_bytes, 96);
        assert_eq!(a.threads, 2);
        assert_eq!(a.counts.total() as f64 / a.threads as f64, 9.0, "instructions per thread");
    }

    #[test]
    fn locality_bounds() {
        let m =
            MemoryTraceSummary { load_bytes: 0, store_bytes: 0, unique_segments: 0, accesses: 0 };
        assert_eq!(m.locality(), 1.0);
        let m =
            MemoryTraceSummary { load_bytes: 4, store_bytes: 0, unique_segments: 10, accesses: 10 };
        assert_eq!(m.locality(), 0.0);
        let m =
            MemoryTraceSummary { load_bytes: 4, store_bytes: 0, unique_segments: 1, accesses: 10 };
        assert!((m.locality() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn segment_set_matches_a_hash_set() {
        use std::collections::HashSet;
        // A run-structured stream with repeats, plus a scattered tail that
        // forces several compactions past the (lowered) watermark.
        let mut set = SegmentSet::new();
        let mut reference = HashSet::new();
        let stream: Vec<u64> = (0..5000u64).map(|i| (i / 7) ^ ((i * 2654435761) % 97)).collect();
        for &s in &stream {
            set.insert(s);
            reference.insert(s);
        }
        assert_eq!(set.distinct(), reference.len() as u64);
        // distinct() is idempotent.
        assert_eq!(set.distinct(), reference.len() as u64);
    }

    #[test]
    fn segment_set_absorb_unions() {
        let mut a = SegmentSet::new();
        let mut b = SegmentSet::new();
        for s in [1u64, 2, 3, 3, 4] {
            a.insert(s);
        }
        for s in [3u64, 4, 5, 1] {
            b.insert(s);
        }
        a.absorb(b);
        assert_eq!(a.distinct(), 5);
        assert_eq!(SegmentSet::default().distinct(), 0);
    }
}
