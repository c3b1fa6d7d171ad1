//! Both controller families publish the data path's metrics from one
//! place (`DataPath::publish_telemetry` in `crates/core/src/datapath.rs`).
//! This drives the same write / read / crash / recover script through
//! AGIT-Plus and ASIT on private registries and holds them to the
//! identical set of common metric names — so the next data-path metric is
//! added once, and a family that grows its own copy of one fails here.

use anubis::telemetry::Telemetry;
use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_nvm::Block;
use std::collections::{BTreeMap, BTreeSet};

/// The names every scheme reports, whatever its metadata policy.
const COMMON: [&str; 22] = [
    "cache_hits_total",
    "cache_misses_total",
    "commit_groups_total",
    "ecc_corrections_total",
    "nvm_max_writes_to_one_block",
    "nvm_reads_total",
    "nvm_region_writes_total",
    "nvm_writes_total",
    "persist_writes_total",
    "quarantine_lost_lines_total",
    "quarantine_spares_left",
    "quarantined_blocks",
    "rollback_detected_total",
    "wal_frames_total",
    "wal_log_bytes",
    "wal_records_coalesced_total",
    "wal_rejected_total",
    "wal_slack_bytes",
    "wpq_capacity",
    "wpq_occupancy",
    // Not data-path metrics proper, but shared by construction too: the
    // shadow-table write count (regions differ, name does not) and the
    // recovery-run counter.
    "shadow_table_writes_total",
    "recovery_runs_total",
];

/// Runs the script and returns every metric name the controller
/// published under its own scheme label, a device-region label, or the
/// `mac` cache label — i.e. everything except its own metadata-cache rows.
fn published<C: MemoryController>(mut c: C, own_caches: &[&str]) -> BTreeSet<String> {
    let (reg, tel) = Telemetry::private();
    c.set_telemetry(tel);
    for i in 0..96u64 {
        c.write(DataAddr::new((i * 37) % 300), Block::filled(i as u8 + 1))
            .expect("write");
    }
    for i in 0..32u64 {
        c.read(DataAddr::new((i * 37) % 300)).expect("read");
    }
    c.crash();
    c.recover().expect("recover");
    for i in 0..32u64 {
        c.read(DataAddr::new((i * 37) % 300))
            .expect("read after recovery");
    }
    c.publish_telemetry();

    let snap = reg.snapshot();
    let mut names = names_outside(&snap.counters, own_caches);
    names.append(&mut names_outside(&snap.gauges, own_caches));
    names
}

/// The metric names with at least one label other than `own_caches`.
fn names_outside<V>(
    metrics: &BTreeMap<String, BTreeMap<String, V>>,
    own_caches: &[&str],
) -> BTreeSet<String> {
    metrics
        .iter()
        .filter(|(_, by_label)| by_label.keys().any(|l| !own_caches.contains(&l.as_str())))
        .map(|(name, _)| name.clone())
        .collect()
}

#[test]
fn both_families_publish_the_same_common_metric_names() {
    let cfg = AnubisConfig::small_test();
    let agit = published(
        BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        &["counter", "tree"],
    );
    let asit = published(SgxController::new(SgxScheme::Asit, &cfg), &["metadata"]);

    let common: BTreeSet<String> = COMMON.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = common.difference(&asit).collect();
    assert!(missing.is_empty(), "ASIT does not publish {missing:?}");
    let missing: Vec<_> = common.difference(&agit).collect();
    assert!(missing.is_empty(), "AGIT-Plus does not publish {missing:?}");

    // Anything one family publishes beyond the common set must be a
    // metric of its own policy, not a data-path metric the other lacks.
    let only_agit: Vec<_> = agit.difference(&asit).collect();
    assert_eq!(only_agit, ["stop_loss_events_total"]);
    let only_asit: Vec<_> = asit.difference(&agit).collect();
    assert!(only_asit.is_empty(), "ASIT-only metrics: {only_asit:?}");
    let uncommon: Vec<_> = asit.difference(&common).collect();
    assert!(
        uncommon.is_empty(),
        "published by both but not listed as common: {uncommon:?}"
    );
}
