//! Device access statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for device-level reads and writes, broken down by region label.
///
/// Used for the paper's endurance discussion (§6.2: strict persistence
/// costs "at least an additional ten writes per memory write operation",
/// ASIT only one) and for write-amplification experiments.
///
/// Counters live behind interior mutability so that *reads* of the device
/// can take `&self` — a read does not logically mutate memory, and forcing
/// `&mut` on every read path infected controllers, recovery code and the
/// simulator with spurious exclusive borrows.
///
/// The per-region breakdown is a flat array of `AtomicU64` slots indexed
/// by region number (regions are fixed at `configure_regions` time), so
/// recording a read is a single `Relaxed` fetch-add into one slot, and a
/// write (under `&mut`) a plain increment — the mutex-guarded `BTreeMap`
/// this replaced serialized every counted access in the hot path. Totals are
/// not kept as separate counters at all: they are the sum of the region
/// slots plus one unattributed slot, aggregated once per query instead of
/// incremented once per access.
#[derive(Debug, Default)]
pub struct NvmStats {
    /// Region labels, indexed by region number. Fixed between
    /// reconfigurations; kept alongside the counters so name-based
    /// queries still work.
    region_names: Vec<&'static str>,
    /// Reads per region, same indexing as `region_names`; the final extra
    /// slot counts unattributed reads.
    reads_by_region: Vec<AtomicU64>,
    /// Writes per region, same layout as `reads_by_region`.
    writes_by_region: Vec<AtomicU64>,
    max_writes_to_one_block: AtomicU64,
}

impl NvmStats {
    /// Creates zeroed statistics with no regions configured (every access
    /// counts as unattributed until `configure_regions`).
    pub fn new() -> Self {
        let mut s = Self::default();
        s.configure_regions(Vec::new());
        s
    }

    /// Installs the region label table and zeroes all per-region
    /// counters. Called when a region map is registered on the device.
    pub(crate) fn configure_regions(&mut self, names: Vec<&'static str>) {
        let slots = names.len() + 1; // + the unattributed slot
        self.region_names = names;
        self.reads_by_region = (0..slots).map(|_| AtomicU64::new(0)).collect();
        self.writes_by_region = (0..slots).map(|_| AtomicU64::new(0)).collect();
        self.max_writes_to_one_block = AtomicU64::new(0);
    }

    /// Slot index for a resolved region (the last slot is the
    /// unattributed bucket).
    fn slot(&self, region: Option<usize>) -> usize {
        region.unwrap_or(self.region_names.len())
    }

    /// Total block reads served by the device.
    pub fn reads(&self) -> u64 {
        self.reads_by_region
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total block writes applied to the device.
    pub fn writes(&self) -> u64 {
        self.writes_by_region
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Writes attributed to the region labeled `name` (0 if never seen).
    pub fn writes_in(&self, name: &str) -> u64 {
        self.region_names
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.writes_by_region[i].load(Ordering::Relaxed))
    }

    /// The largest number of writes any single block has received —
    /// a simple wear-leveling/endurance indicator.
    pub fn max_writes_to_one_block(&self) -> u64 {
        self.max_writes_to_one_block.load(Ordering::Relaxed)
    }

    /// Iterates `(region, writes)` pairs in region-name order, skipping
    /// regions that were never written (matching the lazily populated map
    /// this structure replaced).
    pub fn writes_by_region(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut pairs: Vec<(&'static str, u64)> = self
            .region_names
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, self.writes_by_region[i].load(Ordering::Relaxed)))
            .filter(|(_, v)| *v > 0)
            .collect();
        pairs.sort_unstable_by_key(|(n, _)| *n);
        pairs.into_iter()
    }

    pub(crate) fn record_read(&self, region: Option<usize>) {
        self.reads_by_region[self.slot(region)].fetch_add(1, Ordering::Relaxed);
    }

    /// Writes take the device by `&mut`, so they bump the counters
    /// without atomic read-modify-writes.
    pub(crate) fn record_write(&mut self, region: Option<usize>, writes_to_block: u64) {
        let slot = self.slot(region);
        *self.writes_by_region[slot].get_mut() += 1;
        let max = self.max_writes_to_one_block.get_mut();
        *max = (*max).max(writes_to_block);
    }

    /// Resets every counter to zero (the region table is kept).
    pub fn reset(&mut self) {
        for c in self.reads_by_region.iter().chain(&self.writes_by_region) {
            c.store(0, Ordering::Relaxed);
        }
        self.max_writes_to_one_block.store(0, Ordering::Relaxed);
    }

    /// A plain-value snapshot of every counter — the bridge the
    /// observability layer publishes into its metric registry without
    /// `anubis-nvm` needing a telemetry dependency.
    pub fn snapshot(&self) -> StatsSnapshot {
        let collect = |counters: &[AtomicU64]| {
            let mut pairs: Vec<(&'static str, u64)> = self
                .region_names
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, counters[i].load(Ordering::Relaxed)))
                .filter(|(_, v)| *v > 0)
                .collect();
            pairs.sort_unstable_by_key(|(n, _)| *n);
            pairs
        };
        StatsSnapshot {
            reads: self.reads(),
            writes: self.writes(),
            max_writes_to_one_block: self.max_writes_to_one_block(),
            reads_by_region: collect(&self.reads_by_region),
            writes_by_region: collect(&self.writes_by_region),
        }
    }
}

/// A point-in-time copy of [`NvmStats`] as plain values, in region-name
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total block reads served by the device.
    pub reads: u64,
    /// Total block writes applied to the device.
    pub writes: u64,
    /// The largest number of writes any single block has received.
    pub max_writes_to_one_block: u64,
    /// `(region, reads)` pairs in region-name order.
    pub reads_by_region: Vec<(&'static str, u64)>,
    /// `(region, writes)` pairs in region-name order.
    pub writes_by_region: Vec<(&'static str, u64)>,
}

impl Clone for NvmStats {
    fn clone(&self) -> Self {
        NvmStats {
            region_names: self.region_names.clone(),
            reads_by_region: self
                .reads_by_region
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            writes_by_region: self
                .writes_by_region
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            max_writes_to_one_block: AtomicU64::new(self.max_writes_to_one_block()),
        }
    }
}

impl PartialEq for NvmStats {
    fn eq(&self, other: &Self) -> bool {
        // Value equality over the observable counters, so two stats with
        // different (but equally unused) region tables still compare
        // equal — matching the lazily populated maps this replaced.
        self.snapshot() == other.snapshot()
    }
}

impl Eq for NvmStats {}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_regions(names: &[&'static str]) -> NvmStats {
        let mut s = NvmStats::new();
        s.configure_regions(names.to_vec());
        s
    }

    #[test]
    fn records_and_resets() {
        let mut s = with_regions(&["data", "ctr"]);
        s.record_read(Some(0));
        s.record_read(None);
        s.record_write(Some(0), 1);
        s.record_write(Some(1), 5);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.snapshot().reads_by_region, vec![("data", 1)]);
        assert_eq!(s.writes_in("ctr"), 1);
        assert_eq!(s.writes_in("nope"), 0);
        assert_eq!(s.max_writes_to_one_block(), 5);
        assert_eq!(s.writes_by_region().count(), 2);
        s.reset();
        assert_eq!(s, NvmStats::new());
        // The region table survives a reset.
        s.record_write(Some(1), 1);
        assert_eq!(s.writes_in("ctr"), 1);
    }

    #[test]
    fn recording_works_through_shared_references() {
        let s = with_regions(&["data"]);
        let shared: &NvmStats = &s;
        shared.record_read(Some(0));
        shared.record_read(Some(0));
        assert_eq!(shared.reads(), 2);
        assert_eq!(shared.snapshot().reads_by_region, vec![("data", 2)]);
    }

    #[test]
    fn clone_snapshots_counts() {
        let mut s = with_regions(&["data"]);
        s.record_read(Some(0));
        s.record_write(Some(0), 3);
        let snap = s.clone();
        s.record_read(None);
        assert_eq!(snap.reads(), 1);
        assert_eq!(snap.writes(), 1);
        assert_eq!(snap.max_writes_to_one_block(), 3);
        assert_ne!(snap, s);
    }

    #[test]
    fn snapshot_skips_untouched_regions_and_sorts_by_name() {
        let mut s = with_regions(&["zeta", "alpha", "mid"]);
        s.record_write(Some(0), 1);
        s.record_write(Some(1), 1);
        let snap = s.snapshot();
        assert_eq!(snap.writes_by_region, vec![("alpha", 1), ("zeta", 1)]);
        assert!(snap.reads_by_region.is_empty());
    }

    #[test]
    fn recording_is_sound_across_threads() {
        let s = with_regions(&["data"]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stats = &s;
                scope.spawn(move || {
                    for _ in 0..250 {
                        stats.record_read(Some(0));
                    }
                });
            }
        });
        assert_eq!(s.reads(), 1000);
        assert_eq!(s.snapshot().reads_by_region, vec![("data", 1000)]);
    }
}
