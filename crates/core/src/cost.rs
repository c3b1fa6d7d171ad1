//! Per-operation cost accounting for the timing simulator.

use core::ops::AddAssign;

/// The memory-controller work performed by one data-path operation.
///
/// The timing simulator (`anubis-sim`) converts these into nanoseconds
/// with the PCM latency model; the controllers just count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// NVM block reads on the critical path (data, counters, tree nodes).
    pub nvm_reads: u32,
    /// NVM block writes issued (data, metadata, shadow entries). Writes
    /// are posted through the WPQ, so they cost queue occupancy rather
    /// than stall time — unless the queue backs up.
    pub nvm_writes: u32,
    /// Hash/MAC/pad computations on the critical path (digest checks,
    /// MAC seals, ECC probes).
    pub hash_ops: u32,
    /// Hash computations *off* the critical path (e.g. the ASIT
    /// shadow-protection tree, maintained by a dedicated engine while the
    /// data write retires). Counted for energy/efficiency reporting; the
    /// timing model does not stall on them.
    pub bg_hash_ops: u32,
}

impl OpCost {
    /// A zero cost.
    pub fn zero() -> Self {
        Self::default()
    }
}

impl AddAssign for OpCost {
    fn add_assign(&mut self, rhs: Self) {
        self.nvm_reads += rhs.nvm_reads;
        self.nvm_writes += rhs.nvm_writes;
        self.hash_ops += rhs.hash_ops;
        self.bg_hash_ops += rhs.bg_hash_ops;
    }
}

/// Cumulative costs split by operation kind, for overhead reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostAccum {
    /// Number of data reads served.
    pub reads: u64,
    /// Number of data writes served.
    pub writes: u64,
    /// Total NVM reads across all ops.
    pub nvm_reads: u64,
    /// Total NVM writes across all ops.
    pub nvm_writes: u64,
    /// Total critical-path hash ops across all ops.
    pub hash_ops: u64,
    /// Total background hash ops across all ops.
    pub bg_hash_ops: u64,
}

impl CostAccum {
    /// Records one completed data op.
    pub fn record(&mut self, is_write: bool, cost: OpCost) {
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.nvm_reads += cost.nvm_reads as u64;
        self.nvm_writes += cost.nvm_writes as u64;
        self.hash_ops += cost.hash_ops as u64;
        self.bg_hash_ops += cost.bg_hash_ops as u64;
    }

    /// NVM writes per data write — the endurance/write-amplification
    /// metric from the paper's §6.2 discussion.
    pub fn writes_per_data_write(&self) -> Option<f64> {
        (self.writes > 0).then(|| self.nvm_writes as f64 / self.writes as f64)
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = OpCost {
            nvm_reads: 1,
            nvm_writes: 2,
            hash_ops: 3,
            bg_hash_ops: 1,
        };
        a += OpCost {
            nvm_reads: 10,
            nvm_writes: 20,
            hash_ops: 30,
            bg_hash_ops: 4,
        };
        assert_eq!(
            a,
            OpCost {
                nvm_reads: 11,
                nvm_writes: 22,
                hash_ops: 33,
                bg_hash_ops: 5
            }
        );
        assert_eq!(OpCost::zero(), OpCost::default());
    }

    #[test]
    fn accum_records_and_ratios() {
        let mut acc = CostAccum::default();
        assert_eq!(acc.writes_per_data_write(), None);
        acc.record(
            true,
            OpCost {
                nvm_reads: 0,
                nvm_writes: 3,
                hash_ops: 1,
                bg_hash_ops: 0,
            },
        );
        acc.record(
            true,
            OpCost {
                nvm_reads: 0,
                nvm_writes: 1,
                hash_ops: 1,
                bg_hash_ops: 2,
            },
        );
        acc.record(
            false,
            OpCost {
                nvm_reads: 2,
                nvm_writes: 0,
                hash_ops: 1,
                bg_hash_ops: 0,
            },
        );
        assert_eq!(acc.reads, 1);
        assert_eq!(acc.writes, 2);
        assert_eq!(acc.nvm_writes, 4);
        assert_eq!(acc.writes_per_data_write(), Some(2.0));
        assert_eq!(acc.bg_hash_ops, 2);
        acc.reset();
        assert_eq!(acc, CostAccum::default());
    }
}
