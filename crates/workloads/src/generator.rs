//! Parameterized synthetic trace generation.

use crate::trace::{MemOp, OpKind, Trace};
use crate::zipf::Zipf;
use anubis_nvm::{fnv1a64, BlockAddr, SplitMix64, FNV1A64_EMPTY};

/// Lines per 4 KiB page.
const LINES_PER_PAGE: u64 = 64;

/// The tunable shape of a synthetic workload.
///
/// Construct with [`WorkloadSpec::new`] and the builder-style setters, or
/// take a premade SPEC-like profile from [`crate::spec2006`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name carried into the generated [`Trace`].
    pub name: &'static str,
    /// Fraction of operations that are reads (0..=1).
    pub read_fraction: f64,
    /// Working-set size in 64-byte blocks.
    pub footprint_blocks: u64,
    /// Zipf exponent for page popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Fraction of operations continuing a sequential stream.
    pub sequential_fraction: f64,
    /// Fraction of *writes* that re-hit one of the 32 most recently
    /// written lines (models store bursts that push counters past the
    /// Osiris stop-loss limit).
    pub rewrite_fraction: f64,
    /// Mean CPU gap between memory operations in nanoseconds (memory
    /// intensity: lower = more intense).
    pub mean_gap_ns: f64,
}

impl WorkloadSpec {
    /// A neutral starting spec: 50/50 mix, 64 MiB footprint, moderate
    /// locality, 100 ns mean gap.
    pub fn new(name: &'static str) -> Self {
        WorkloadSpec {
            name,
            read_fraction: 0.5,
            footprint_blocks: (64 << 20) / 64,
            zipf_exponent: 0.9,
            sequential_fraction: 0.3,
            rewrite_fraction: 0.1,
            mean_gap_ns: 100.0,
        }
    }

    /// Sets the read fraction.
    pub fn read_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.read_fraction = f;
        self
    }

    /// Sets the footprint in bytes (rounded down to blocks).
    pub fn footprint_bytes(mut self, bytes: u64) -> Self {
        self.footprint_blocks = (bytes / 64).max(LINES_PER_PAGE);
        self
    }

    /// Sets the Zipf exponent.
    pub fn zipf(mut self, alpha: f64) -> Self {
        self.zipf_exponent = alpha;
        self
    }

    /// Sets the sequential-stream fraction.
    pub fn sequential(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.sequential_fraction = f;
        self
    }

    /// Sets the write re-hit fraction.
    pub fn rewrites(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.rewrite_fraction = f;
        self
    }

    /// Sets the mean inter-op CPU gap in nanoseconds.
    pub fn gap_ns(mut self, ns: f64) -> Self {
        assert!(ns >= 0.0);
        self.mean_gap_ns = ns;
        self
    }
}

/// Generates deterministic traces from a [`WorkloadSpec`] within a data
/// region of a given capacity.
///
/// The footprint is placed at the bottom of the data region; addresses
/// produced are block indices **relative to the data region** (the memory
/// controller adds the region base).
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    data_blocks: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec` over a data region of
    /// `data_capacity_bytes`.
    ///
    /// The footprint is clamped to the region size.
    pub fn new(spec: WorkloadSpec, data_capacity_bytes: u64) -> Self {
        let data_blocks = (data_capacity_bytes / 64).max(LINES_PER_PAGE);
        TraceGenerator { spec, data_blocks }
    }

    /// The effective footprint after clamping, in blocks.
    pub fn effective_footprint(&self) -> u64 {
        self.spec.footprint_blocks.min(self.data_blocks)
    }

    /// The spec driving this generator.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Generates `n_ops` operations deterministically from `seed`.
    pub fn generate(&self, n_ops: usize, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed ^ fnv1a64(FNV1A64_EMPTY, self.spec.name.as_bytes()));
        let footprint = self.effective_footprint();
        let n_pages = (footprint / LINES_PER_PAGE).max(1);
        let zipf = Zipf::new(n_pages, self.spec.zipf_exponent);

        let mut ops = Vec::with_capacity(n_ops);
        let mut stream_pos: u64 = rng.gen_range(0..footprint);
        let mut recent_writes: Vec<u64> = Vec::with_capacity(32);

        for _ in 0..n_ops {
            let is_read = rng.gen_bool(self.spec.read_fraction);
            let addr = if !is_read
                && !recent_writes.is_empty()
                && rng.gen_bool(self.spec.rewrite_fraction)
            {
                recent_writes[rng.gen_index(recent_writes.len())]
            } else if rng.gen_bool(self.spec.sequential_fraction) {
                stream_pos = (stream_pos + 1) % footprint;
                stream_pos
            } else {
                let page = zipf.sample(&mut rng);
                let line = rng.gen_range(0..LINES_PER_PAGE);
                (page * LINES_PER_PAGE + line) % footprint
            };
            if !is_read {
                if recent_writes.len() == 32 {
                    recent_writes.remove(0);
                }
                recent_writes.push(addr);
            }
            // Exponential inter-arrival gap.
            let u: f64 = rng.next_f64().max(1e-9);
            let gap = (-self.spec.mean_gap_ns * u.ln()).min(u32::MAX as f64) as u32;
            ops.push(MemOp {
                kind: if is_read { OpKind::Read } else { OpKind::Write },
                addr: BlockAddr::new(addr),
                gap_ns: gap,
            });
        }
        Trace::new(self.spec.name, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new("test").footprint_bytes(1 << 20)
    }

    #[test]
    fn deterministic_per_seed() {
        let g = TraceGenerator::new(spec(), 1 << 30);
        assert_eq!(g.generate(1000, 1), g.generate(1000, 1));
        assert_ne!(g.generate(1000, 1), g.generate(1000, 2));
    }

    #[test]
    fn name_changes_stream() {
        let a = TraceGenerator::new(spec(), 1 << 30).generate(100, 1);
        let b = TraceGenerator::new(WorkloadSpec::new("other").footprint_bytes(1 << 20), 1 << 30)
            .generate(100, 1);
        assert_ne!(a.ops(), b.ops());
    }

    #[test]
    fn read_fraction_respected() {
        let g = TraceGenerator::new(spec().read_fraction(0.9), 1 << 30);
        let t = g.generate(20_000, 3);
        assert!(
            (t.read_fraction() - 0.9).abs() < 0.02,
            "got {}",
            t.read_fraction()
        );
    }

    #[test]
    fn footprint_clamped_to_region() {
        let g = TraceGenerator::new(spec().footprint_bytes(1 << 40), 1 << 20);
        assert_eq!(g.effective_footprint(), (1 << 20) / 64);
        let t = g.generate(5000, 1);
        for op in t.iter() {
            assert!(op.addr.index() < (1 << 20) / 64);
        }
    }

    #[test]
    fn all_addresses_within_footprint() {
        let g = TraceGenerator::new(spec(), 1 << 30);
        let fp = g.effective_footprint();
        for op in g.generate(10_000, 5).iter() {
            assert!(op.addr.index() < fp);
        }
    }

    #[test]
    fn rewrites_produce_repeat_write_addresses() {
        let g = TraceGenerator::new(
            spec().read_fraction(0.1).rewrites(0.8).sequential(0.0),
            1 << 30,
        );
        let t = g.generate(10_000, 7);
        let writes: Vec<_> = t.iter().filter(|o| o.is_write()).map(|o| o.addr).collect();
        let mut uniq = writes.clone();
        uniq.sort_unstable_by_key(|a| a.index());
        uniq.dedup();
        assert!(
            uniq.len() < writes.len() / 2,
            "expected heavy write reuse: {} unique of {}",
            uniq.len(),
            writes.len()
        );
    }

    #[test]
    fn gaps_average_near_mean() {
        let g = TraceGenerator::new(spec().gap_ns(200.0), 1 << 30);
        let t = g.generate(20_000, 11);
        let avg: f64 = t.iter().map(|o| o.gap_ns as f64).sum::<f64>() / t.len() as f64;
        assert!((avg - 200.0).abs() < 20.0, "got mean gap {avg}");
    }

    #[test]
    fn sequential_streaming_visits_neighbors() {
        let g = TraceGenerator::new(spec().sequential(1.0).read_fraction(1.0), 1 << 30);
        let t = g.generate(100, 13);
        let mut consecutive = 0;
        for w in t.ops().windows(2) {
            if w[1].addr.index() == (w[0].addr.index() + 1) % g.effective_footprint() {
                consecutive += 1;
            }
        }
        assert!(consecutive >= 98, "only {consecutive} sequential pairs");
    }
}
