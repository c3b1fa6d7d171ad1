//! Recovery pins: what recovery reports, what it costs the device and the
//! image it leaves, as constants.
//!
//! Every case folds one FNV-1a digest over ([`RecoveryReport`], the
//! device's `StatsSnapshot`, the persist-write count, the recovered
//! image) at every crash point of a scripted workload and compares it
//! with a constant. The constants were recorded when recovery still
//! fanned out over a pool of 1, 2 or 8 threads ("lanes") and every lane
//! count agreed on them; recovery has been one serial pass since, and
//! they did not move. The two telemetry cases pin the published counters
//! and gauges and the phase spans by value. A change to a recovery
//! algorithm moves these constants on purpose or not at all.
//!
//! (File and test names are the ones the tier-1 floor lists them under.)

use anubis::telemetry::{Registry, Telemetry};
use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, RecoveryReport,
    SgxController, SgxScheme,
};
use anubis_nvm::{Block, NvmBackend};
use anubis_sim::campaign::{fnv1a64, FNV1A64_EMPTY};
use std::collections::HashMap;

fn payload(op: u64) -> Block {
    Block::from_words([
        op,
        op * 3,
        !op,
        op << 9,
        op ^ 0xFEED,
        op + 1,
        op.rotate_left(7),
        0x42,
    ])
}

/// Same scripted workload shape as `crash_matrix.rs` / `fault_matrix.rs`.
fn script(n: usize) -> Vec<(bool, u64)> {
    (0..n as u64)
        .map(|i| (i % 3 != 2, (i * 37) % 300))
        .collect()
}

/// A stable fingerprint of the persistent device state: every touched
/// block and every register mirror, hashed in address order.
fn device_fingerprint<C: MemoryController + ?Sized>(ctrl: &C) -> u64 {
    let backend = ctrl.domain().device().backend();
    let mut entries = backend.entries();
    entries.sort_by_key(|&(a, _)| a);
    let mut regs = backend.regs();
    regs.sort_by_key(|&(i, _)| i);
    let mut h = FNV1A64_EMPTY;
    for (addr, block) in &entries {
        h = fnv1a64(fnv1a64(h, &addr.to_le_bytes()), block.as_bytes());
    }
    h = fnv1a64(h, b"|regs|");
    for (idx, block) in &regs {
        h = fnv1a64(fnv1a64(h, &[*idx]), block.as_bytes());
    }
    h
}

/// Folds one recovery into `h`: the report, the device statistics, the
/// persist-write count and the image. Taken before any read-back — reads
/// count.
fn fold_recovery<C: MemoryController>(h: u64, report: &RecoveryReport, ctrl: &C) -> u64 {
    let stats = ctrl.domain().device().stats().snapshot();
    let mut h = [
        report.nvm_reads,
        report.nvm_writes,
        report.hash_ops,
        report.counters_fixed,
        report.nodes_fixed,
        report.redo_writes,
        u64::from(report.reencryption_completed),
        stats.reads,
        stats.writes,
        stats.max_writes_to_one_block,
        ctrl.domain().persist_writes(),
        device_fingerprint(ctrl),
    ]
    .iter()
    .fold(h, |h, v| fnv1a64(h, &v.to_le_bytes()));
    for (region, n) in stats.reads_by_region.iter().chain(&stats.writes_by_region) {
        h = fnv1a64(fnv1a64(h, region.as_bytes()), &n.to_le_bytes());
    }
    h
}

fn assert_pinned(digest: u64, pin: u64, name: &str) {
    assert_eq!(digest, pin, "{name}: recovery digest is now {digest:#018x}");
}

fn pinned_matrix<C: MemoryController>(make: impl Fn() -> C, name: &str, pin: u64) {
    let ops = script(48);
    let mut digest = FNV1A64_EMPTY;
    for k in 0..=ops.len() {
        let mut ctrl = make();
        let mut model: HashMap<u64, Block> = HashMap::new();
        for (i, (is_write, addr)) in ops.iter().take(k).enumerate() {
            if *is_write {
                let b = payload(i as u64);
                ctrl.write(DataAddr::new(*addr), b)
                    .unwrap_or_else(|e| panic!("{name}: write {i} failed: {e}"));
                model.insert(*addr, b);
            } else {
                ctrl.read(DataAddr::new(*addr))
                    .unwrap_or_else(|e| panic!("{name}: read {i} failed: {e}"));
            }
        }
        ctrl.crash();

        let report = ctrl
            .recover()
            .unwrap_or_else(|e| panic!("{name}: recovery at k={k} failed: {e}"));
        digest = fold_recovery(digest, &report, &ctrl);
        for (addr, expect) in &model {
            let got = ctrl.read(DataAddr::new(*addr)).unwrap_or_else(|e| {
                panic!("{name}: post-recovery read {addr} failed at k={k}: {e}")
            });
            assert_eq!(&got, expect, "{name}: addr {addr} diverged at k={k}");
        }
    }
    assert_pinned(digest, pin, name);
}

#[test]
fn osiris_whole_memory_sweep_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    pinned_matrix(
        || BonsaiController::new(BonsaiScheme::Osiris, &cfg),
        "osiris",
        0x1f6e_baff_fced_fa4e,
    );
}

#[test]
fn agit_read_recovery_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    pinned_matrix(
        || BonsaiController::new(BonsaiScheme::AgitRead, &cfg),
        "agit-read",
        0xc74d_5eb1_d42f_ed4e,
    );
}

#[test]
fn agit_plus_recovery_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    pinned_matrix(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        "agit-plus",
        0xdfad_5956_63c5_c924,
    );
}

#[test]
fn asit_recovery_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    pinned_matrix(
        || SgxController::new(SgxScheme::Asit, &cfg),
        "asit",
        0xfcb2_3ef2_ad63_c551,
    );
}

#[test]
fn strict_persist_recovery_is_lane_invariant() {
    // Strict recovery is trivial, but it has a report and statistics all
    // the same.
    let cfg = AnubisConfig::small_test();
    pinned_matrix(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
        "strict-persist",
        0xfa27_c9f1_09bb_67e6,
    );
}

/// What one recovery published: every counter and gauge as
/// `name{label}=value`, and the whole-phase spans as `label x items` in
/// the registry's sorted order. Span durations are wall-clock and left
/// out.
fn published(reg: &Registry) -> (Vec<String>, Vec<String>) {
    let snap = reg.snapshot();
    let mut values = Vec::new();
    for (name, by_label) in &snap.counters {
        for (label, v) in by_label {
            values.push(format!("{name}{{{label}}}={v}"));
        }
    }
    for (name, by_label) in &snap.gauges {
        for (label, v) in by_label {
            values.push(format!("{name}{{{label}}}={v}"));
        }
    }
    assert_eq!(reg.span_count("recovery"), 1);
    let phases = reg
        .spans()
        .iter()
        .filter(|s| s.name == "recovery_phase")
        .map(|s| format!("{} x {}", s.label, s.items))
        .collect();
    (values, phases)
}

/// Runs the script, crashes, recovers under a private registry and
/// returns what [`published`] sees.
fn recovery_telemetry<C: MemoryController>(mut ctrl: C) -> (Vec<String>, Vec<String>) {
    for (i, (is_write, addr)) in script(48).iter().enumerate() {
        if *is_write {
            ctrl.write(DataAddr::new(*addr), payload(i as u64)).unwrap();
        } else {
            ctrl.read(DataAddr::new(*addr)).unwrap();
        }
    }
    ctrl.crash();
    let (reg, tel) = Telemetry::private();
    ctrl.set_telemetry(tel);
    ctrl.recover().unwrap();
    ctrl.publish_telemetry();
    published(&reg)
}

fn strs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

#[test]
fn telemetry_snapshot_is_lane_invariant() {
    // Bonsai: Osiris probe + whole-tree rebuild.
    let cfg = AnubisConfig::small_test();
    let (values, phases) = recovery_telemetry(BonsaiController::new(BonsaiScheme::Osiris, &cfg));
    assert_eq!(
        strs(&values),
        [
            "cache_hits_total{counter}=43",
            "cache_hits_total{mac}=0",
            "cache_hits_total{tree}=100",
            "cache_misses_total{counter}=5",
            "cache_misses_total{mac}=0",
            "cache_misses_total{tree}=1",
            "commit_groups_total{osiris}=32",
            "ecc_corrections_total{osiris}=0",
            "nvm_max_writes_to_one_block{osiris}=2",
            "nvm_reads_total{osiris}=33357",
            "nvm_region_writes_total{counters}=9",
            "nvm_region_writes_total{data}=32",
            "nvm_region_writes_total{side}=32",
            "nvm_region_writes_total{tree}=37",
            "nvm_writes_total{osiris}=110",
            "persist_writes_total{osiris}=70",
            "quarantine_lost_lines_total{osiris}=0",
            "recovery_runs_total{osiris}=1",
            "rollback_detected_total{osiris}=0",
            "shadow_table_writes_total{osiris}=0",
            "stop_loss_events_total{osiris}=0",
            "wal_frames_total{osiris}=0",
            "wal_records_coalesced_total{osiris}=0",
            "wal_rejected_total{osiris}=0",
            "cache_hit_rate{counter}=0.8958333333333334",
            "cache_hit_rate{tree}=0.9900990099009901",
            "quarantine_spares_left{osiris}=64",
            "quarantined_blocks{osiris}=0",
            "wal_log_bytes{osiris}=0",
            "wal_slack_bytes{osiris}=0",
            "wpq_capacity{osiris}=32",
            "wpq_occupancy{osiris}=0",
        ]
    );
    assert_eq!(
        strs(&phases),
        [
            "level_rebuild_1 x 32",
            "level_rebuild_2 x 4",
            "level_rebuild_3 x 1",
            "osiris_probe x 256",
            "reencryption_replay x 0",
            "root_check x 0",
        ]
    );
}

#[test]
fn sgx_telemetry_snapshot_is_lane_invariant() {
    // SGX: ST scan, splice, MAC verify, ST rewrite.
    let cfg = AnubisConfig::small_test();
    let (values, phases) = recovery_telemetry(SgxController::new(SgxScheme::Asit, &cfg));
    assert_eq!(
        strs(&values),
        [
            "cache_hits_total{mac}=0",
            "cache_hits_total{metadata}=20",
            "cache_misses_total{mac}=0",
            "cache_misses_total{metadata}=28",
            "commit_groups_total{asit}=32",
            "ecc_corrections_total{asit}=0",
            "nvm_max_writes_to_one_block{asit}=2",
            "nvm_reads_total{asit}=243",
            "nvm_region_writes_total{data}=32",
            "nvm_region_writes_total{side}=32",
            "nvm_region_writes_total{st}=52",
            "nvm_writes_total{asit}=116",
            "persist_writes_total{asit}=96",
            "quarantine_lost_lines_total{asit}=0",
            "recovery_runs_total{asit}=1",
            "rollback_detected_total{asit}=0",
            "shadow_table_writes_total{asit}=52",
            "wal_frames_total{asit}=0",
            "wal_records_coalesced_total{asit}=0",
            "wal_rejected_total{asit}=0",
            "cache_hit_rate{metadata}=0.4166666666666667",
            "quarantine_spares_left{asit}=64",
            "quarantined_blocks{asit}=0",
            "wal_log_bytes{asit}=0",
            "wal_slack_bytes{asit}=0",
            "wpq_capacity{asit}=32",
            "wpq_occupancy{asit}=0",
        ]
    );
    assert_eq!(
        strs(&phases),
        [
            "mac_verify x 24",
            "shadow_verify x 0",
            "splice x 24",
            "st_rewrite x 24",
            "st_scan x 128",
        ]
    );
}

#[test]
fn reencryption_crash_recovery_is_lane_invariant() {
    // Crash right behind a page re-encryption (the 128th write to one
    // line overflows its minor counter): the whole-tree rebuild and
    // AGIT's tracked rebuild over a counter block with a bumped major.
    let cfg = AnubisConfig::small_test();
    let mut digest = FNV1A64_EMPTY;
    for scheme in [BonsaiScheme::Osiris, BonsaiScheme::AgitPlus] {
        let mut ctrl = BonsaiController::new(scheme, &cfg);
        let hot = DataAddr::new(70);
        ctrl.write(DataAddr::new(71), payload(999)).unwrap();
        for i in 0..=127u64 {
            ctrl.write(hot, payload(i)).unwrap();
        }
        ctrl.crash();
        let report = ctrl
            .recover()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        digest = fold_recovery(digest, &report, &ctrl);
        assert_eq!(ctrl.read(hot).unwrap(), payload(127), "{}", scheme.name());
    }
    assert_pinned(digest, 0x24fe_afa8_0da1_f57b, "re-encryption crash");
}

#[test]
fn recovery_after_a_trace_replay_is_lane_invariant() {
    // The scale the script above never reaches: a 4 MiB memory behind
    // 32 KiB caches dirtied by 3 000 milc ops (the configuration the
    // retired `bench_recovery --smoke` checked).
    use anubis_sim::{run_trace, TimingModel};
    use anubis_workloads::{spec2006, TraceGenerator};

    fn fold_replay<C: MemoryController>(
        digest: u64,
        mut ctrl: C,
        trace: &anubis_workloads::Trace,
    ) -> u64 {
        let name = ctrl.scheme_name();
        run_trace(&mut ctrl, trace, &TimingModel::paper())
            .unwrap_or_else(|e| panic!("{name}: dirtying replay failed: {e}"));
        ctrl.crash();
        let report = ctrl
            .recover()
            .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
        assert!(report.total_ops() > 0, "{name}: recovery had nothing to do");
        fold_recovery(digest, &report, &ctrl)
    }

    let cfg = AnubisConfig::small_test()
        .with_capacity(4 << 20)
        .with_cache_bytes(32 << 10);
    let trace = TraceGenerator::new(spec2006::milc(), cfg.capacity_bytes).generate(3_000, 1907);
    let mut digest = FNV1A64_EMPTY;
    for scheme in [BonsaiScheme::Osiris, BonsaiScheme::AgitPlus] {
        digest = fold_replay(digest, BonsaiController::new(scheme, &cfg), &trace);
    }
    digest = fold_replay(digest, SgxController::new(SgxScheme::Asit, &cfg), &trace);
    assert_pinned(digest, 0x5f8c_1d68_4453_09c2, "milc replay");
}
