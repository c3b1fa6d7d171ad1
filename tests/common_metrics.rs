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
const COMMON: [&str; 20] = [
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
/// published under its own scheme label or a device-region label — i.e.
/// everything except its own metadata-cache rows — and its
/// `shadow_table_writes_total`.
fn published<C: MemoryController>(mut c: C, own_caches: &[&str]) -> (BTreeSet<String>, u64) {
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
    let shadow_writes = snap.counter("shadow_table_writes_total", c.scheme_name());
    (names, shadow_writes)
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
    let (agit, agit_shadow) = published(
        BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        &["counter", "tree"],
    );
    let (asit, asit_shadow) = published(SgxController::new(SgxScheme::Asit, &cfg), &["metadata"]);
    // The shadow-table writes sum each family's own regions (`sct` +
    // `smt`, `st`): pinned, so a change to which regions count moves them.
    assert_eq!((agit_shadow, asit_shadow), (8, 53));

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

/// What one family's recovery leaves in its spans, in the order the
/// spans began: the `recovery` span's label, the `recovery_phase`
/// labels (with their item counts) of one crash + `recover()`, the
/// `recovery_runs_total` counter, and the `supervisor_rung` labels of one
/// `supervisor::resume` and then one `supervisor::recover`, each after
/// its own crash.
struct RecoverySpans {
    recovery: Vec<String>,
    phases: Vec<String>,
    runs: u64,
    resume_rungs: Vec<String>,
    recover_rungs: Vec<String>,
}

/// Labels (and, where `with_items`, item counts) of the spans named
/// `name`, in the order they began.
fn span_labels(reg: &anubis::telemetry::Registry, name: &str, with_items: bool) -> Vec<String> {
    let mut spans = reg.spans();
    spans.retain(|s| s.name == name);
    spans.sort_by_key(|s| s.start_ns);
    spans
        .into_iter()
        .map(|s| {
            if with_items {
                format!("{} x {}", s.label, s.items)
            } else {
                s.label
            }
        })
        .collect()
}

fn recovery_spans<C: anubis::Supervised>(mut c: C) -> RecoverySpans {
    for i in 0..96u64 {
        c.write(DataAddr::new((i * 37) % 300), Block::filled(i as u8 + 1))
            .expect("write");
    }
    c.crash();
    let (reg, tel) = Telemetry::private();
    c.set_telemetry(tel);
    c.recover().expect("recover");
    let recovery = span_labels(&reg, "recovery", false);
    let phases = span_labels(&reg, "recovery_phase", true);
    let runs = reg
        .snapshot()
        .counter("recovery_runs_total", c.scheme_name());

    c.crash();
    let (reg, tel) = Telemetry::private();
    c.set_telemetry(tel);
    anubis::supervisor::resume(&mut c, None).expect("resume");
    let resume_rungs = span_labels(&reg, "supervisor_rung", false);

    c.crash();
    let (reg, tel) = Telemetry::private();
    c.set_telemetry(tel);
    anubis::supervisor::recover(&mut c).expect("supervised recover");
    let recover_rungs = span_labels(&reg, "supervisor_rung", false);
    RecoverySpans {
        recovery,
        phases,
        runs,
        resume_rungs,
        recover_rungs,
    }
}

#[test]
fn recovery_spans_of_both_families_are_pinned() {
    let cfg = AnubisConfig::small_test();
    let agit = recovery_spans(BonsaiController::new(BonsaiScheme::AgitPlus, &cfg));
    assert_eq!(agit.recovery, ["agit-plus"]);
    assert_eq!(
        agit.phases,
        [
            "reencryption_replay x 0",
            "shadow_scan x 0",
            "osiris_probe x 5",
            "level_rebuild_1 x 1",
            "level_rebuild_2 x 1",
            "level_rebuild_3 x 1",
            "root_check x 0",
        ]
    );
    assert_eq!(agit.runs, 1);
    assert_eq!(agit.resume_rungs, ["fast"]);
    assert_eq!(agit.recover_rungs, ["fast", "scrub"]);

    let asit = recovery_spans(SgxController::new(SgxScheme::Asit, &cfg));
    assert_eq!(asit.recovery, ["asit"]);
    assert_eq!(
        asit.phases,
        [
            "st_scan x 128",
            "shadow_verify x 0",
            "splice x 38",
            "mac_verify x 38",
        ]
    );
    assert_eq!(asit.runs, 1);
    assert_eq!(asit.resume_rungs, ["fast"]);
    assert_eq!(asit.recover_rungs, ["fast", "scrub"]);
}
