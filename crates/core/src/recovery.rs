//! Recovery reports and the analytical recovery-time model.
//!
//! The paper estimates recovery time by counting the blocks that must be
//! fetched/updated plus the hash/decrypt computations, at **100 ns each**
//! (footnote 1). Executed recoveries in this crate count their actual
//! operations; for terabyte-scale capacities (Figs. 5 and 12) the
//! [`time`] module evaluates the same counts analytically.

use crate::datapath::Policy;
use crate::error::RecoveryError;

/// Cost of one recovery operation (fetch + hash/decrypt), per the paper's
/// footnote 1.
pub const NS_PER_RECOVERY_OP: u64 = 100;

/// The recovery skeleton every scheme runs: power-up (the persistent
/// registers REDO their group), then the scheme's own algorithm, which
/// tallies its work into the report, inside the `recovery` span and
/// counted in `recovery_runs_total`.
///
/// No algorithm moves a register its image must keep. ASIT's writes
/// nothing. The one register a Bonsai recovery moves is the
/// re-encryption log it clears once the page is done; its mirror keeps
/// the log until the next commit group, and a power-on that still finds
/// it redoes the page, which is idempotent.
pub(crate) fn run<P: Policy>(c: &mut P) -> Result<RecoveryReport, RecoveryError> {
    let tel = c.path().telemetry.clone();
    let _recovery_span = tel.span("recovery", c.name());
    let mut report = RecoveryReport {
        redo_writes: c.path_mut().domain.power_up() as u64,
        ..RecoveryReport::default()
    };
    c.recover_metadata(&mut report)?;
    tel.incr("recovery_runs_total", c.name(), 1);
    Ok(report)
}

/// What a completed recovery did and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// NVM blocks read during recovery.
    pub nvm_reads: u64,
    /// NVM blocks written during recovery.
    pub nvm_writes: u64,
    /// Hash/MAC/ECC-probe computations.
    pub hash_ops: u64,
    /// Encryption counters repaired (Osiris trials that moved a counter).
    pub counters_fixed: u64,
    /// Tree nodes recomputed/restored.
    pub nodes_fixed: u64,
    /// Writes REDOne from the persistent registers at power-up.
    pub redo_writes: u64,
    /// Whether an interrupted page re-encryption was completed first.
    pub reencryption_completed: bool,
}

impl RecoveryReport {
    /// Total recovery operations under the paper's cost model.
    pub fn total_ops(&self) -> u64 {
        self.nvm_reads + self.nvm_writes + self.hash_ops
    }

    /// Estimated wall-clock recovery time in nanoseconds
    /// (`total_ops × 100 ns`).
    pub fn estimated_ns(&self) -> u64 {
        self.total_ops() * NS_PER_RECOVERY_OP
    }

    /// Estimated recovery time in seconds.
    pub fn estimated_secs(&self) -> f64 {
        self.estimated_ns() as f64 * 1e-9
    }
}

/// Analytical recovery-time formulas for capacities too large to execute.
pub mod time {
    use super::NS_PER_RECOVERY_OP;
    use anubis_itree::TreeGeometry;

    /// Recovery operations for **full Osiris recovery** of a
    /// `capacity_bytes` memory with a general tree (Fig. 5): every data
    /// block is read and ECC-probed to fix its counter, every counter
    /// block is read and rewritten, and the whole tree is rebuilt.
    pub fn osiris_full_ops(capacity_bytes: u64, stop_loss: u32) -> u64 {
        let n_data = capacity_bytes / 64;
        let n_ctr = n_data.div_ceil(64);
        let g = TreeGeometry::new(n_ctr.max(1), 8);
        // Per data line: 1 read + ~(stop_loss/2 + 1)/2... the paper charges
        // one fetch and one hash/decrypt per block; expected probe count
        // is small, so we charge 1 read + 1 probe per line (matching the
        // paper's ≈2 ops/block that reproduces its 7.8 h @ 8 TB).
        let _ = stop_loss;
        let counter_fix = n_data * 2 + n_ctr * 2; // read+probe, read+write ctr blocks
                                                  // Tree rebuild: hash every node's children once and write it.
        let interior = g.interior_blocks();
        let tree_rebuild = interior * 2 + g.num_leaves(); // leaf digests + node writes/hashes
        counter_fix + tree_rebuild
    }

    /// Recovery time in seconds for full Osiris recovery (Fig. 5).
    pub fn osiris_full_secs(capacity_bytes: u64, stop_loss: u32) -> f64 {
        osiris_full_ops(capacity_bytes, stop_loss) as f64 * NS_PER_RECOVERY_OP as f64 * 1e-9
    }

    /// Recovery operations for **AGIT** (Fig. 12): scan both shadow
    /// tables, Osiris-fix the 64 counters of every tracked counter block
    /// (one data read + one probe each), and recompute every tracked tree
    /// node from its 8 children.
    pub fn agit_ops(counter_cache_bytes: u64, tree_cache_bytes: u64, capacity_bytes: u64) -> u64 {
        let sct_slots = counter_cache_bytes / 64;
        let smt_slots = tree_cache_bytes / 64;
        let n_ctr = (capacity_bytes / 64).div_ceil(64);
        let g = TreeGeometry::new(n_ctr.max(1), 8);
        let scan = sct_slots + smt_slots;
        // The paper's footnote 1 charges fetch + hash/decrypt as ONE
        // 100 ns unit. Per tracked counter block: 1 block read + 64
        // data-read-and-probe units + 1 write.
        let counter_fix = sct_slots * (1 + 64 + 1);
        // Per tracked node: 8 child read-and-digest units + 1 write.
        let node_fix = smt_slots * (8 + 1);
        // Root check: one digest per level on the final path.
        scan + counter_fix + node_fix + g.num_levels() as u64
    }

    /// AGIT recovery time in seconds (Fig. 12).
    pub fn agit_secs(counter_cache_bytes: u64, tree_cache_bytes: u64, capacity_bytes: u64) -> f64 {
        agit_ops(counter_cache_bytes, tree_cache_bytes, capacity_bytes) as f64
            * NS_PER_RECOVERY_OP as f64
            * 1e-9
    }

    /// Recovery operations for **ASIT** (Fig. 12): scan the ST, re-hash it
    /// against `SHADOW_TREE_ROOT`, then per entry read the stale node,
    /// splice, read the parent (counter) and verify one MAC.
    pub fn asit_ops(metadata_cache_bytes: u64) -> u64 {
        let st_slots = metadata_cache_bytes / 64;
        let g = TreeGeometry::new(st_slots.max(1), 8);
        let shadow_hashes: u64 = (0..g.num_levels()).map(|l| g.nodes_at(l)).sum();
        let scan = st_slots;
        // Per entry: stale-node read + parent read + MAC verify.
        let per_entry = 3u64;
        scan + shadow_hashes + st_slots * per_entry
    }

    /// ASIT recovery time in seconds (Fig. 12).
    pub fn asit_secs(metadata_cache_bytes: u64) -> f64 {
        asit_ops(metadata_cache_bytes) as f64 * NS_PER_RECOVERY_OP as f64 * 1e-9
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fig5_8tb_is_hours() {
            // Paper: ≈ 28 193 s (7.8 h) for 8 TB.
            let secs = osiris_full_secs(8 << 40, 4);
            assert!((20_000.0..40_000.0).contains(&secs), "got {secs}");
        }

        #[test]
        fn fig5_scales_linearly() {
            let s1 = osiris_full_secs(1 << 40, 4);
            let s8 = osiris_full_secs(8 << 40, 4);
            assert!((s8 / s1 - 8.0).abs() < 0.1);
        }

        #[test]
        fn fig12_headline_numbers() {
            // Paper: ≈ 0.03 s at 256 KB caches, ≈ 0.48 s at 4 MB.
            let small = agit_secs(256 << 10, 256 << 10, 8 << 40);
            assert!((0.02..0.06).contains(&small), "256 KB: {small}");
            let large = agit_secs(4 << 20, 4 << 20, 8 << 40);
            assert!((0.3..0.7).contains(&large), "4 MB: {large}");
        }

        #[test]
        fn asit_is_faster_than_agit() {
            for kb in [256u64, 512, 1024, 2048, 4096] {
                let agit = agit_secs(kb << 10, kb << 10, 8 << 40);
                let asit = asit_secs(2 * (kb << 10));
                assert!(asit < agit, "cache {kb} KB: asit {asit} vs agit {agit}");
            }
        }

        #[test]
        fn speedup_is_order_1e5_at_8tb() {
            // Paper: 58 735× at 4 MB caches; ~10^6 at 256 KB.
            let osiris = osiris_full_secs(8 << 40, 4);
            let agit = agit_secs(4 << 20, 4 << 20, 8 << 40);
            let speedup = osiris / agit;
            assert!(speedup > 10_000.0, "speedup only {speedup}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_arithmetic() {
        let r = RecoveryReport {
            nvm_reads: 10,
            nvm_writes: 5,
            hash_ops: 15,
            ..Default::default()
        };
        assert_eq!(r.total_ops(), 30);
        assert_eq!(r.estimated_ns(), 3000);
        assert!((r.estimated_secs() - 3e-6).abs() < 1e-12);
    }
}
