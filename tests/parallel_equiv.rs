//! Parallel/serial recovery equivalence: for crash points across a
//! scripted workload, recovery at 2 and 8 lanes must produce a
//! bit-identical [`RecoveryReport`], identical device statistics, and an
//! identical recovered memory image to the serial (1-lane) path.
//!
//! This is the determinism contract of `anubis::parallel` — the parallel
//! engine is an *implementation* of the same recovery algorithms, not a
//! variant of them.
//!
//! Exhaustive over crash points by default; `ANUBIS_FAULT_SMOKE=1`
//! selects the same strided subset as the fault matrices.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, RecoveryError,
    RecoveryReport, SgxController, SgxScheme,
};
use anubis_nvm::Block;
use std::collections::HashMap;

const LANE_COUNTS: [usize; 2] = [2, 8];

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

/// Exhaustive by default; `ANUBIS_FAULT_SMOKE` selects a strided subset
/// for quick CI runs.
fn stride() -> usize {
    if std::env::var_os("ANUBIS_FAULT_SMOKE").is_some() {
        23
    } else {
        1
    }
}

fn equivalence_matrix<C, F, R>(make: F, recover_lanes: R, name: &str)
where
    C: MemoryController + Clone,
    F: Fn() -> C,
    R: Fn(&mut C, usize) -> Result<RecoveryReport, RecoveryError>,
{
    let ops = script(48);
    for k in (0..=ops.len()).step_by(stride()) {
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

        let mut serial = ctrl.clone();
        let serial_report = recover_lanes(&mut serial, 1)
            .unwrap_or_else(|e| panic!("{name}: serial recovery at k={k} failed: {e}"));

        for lanes in LANE_COUNTS {
            let mut par = ctrl.clone();
            let report = recover_lanes(&mut par, lanes)
                .unwrap_or_else(|e| panic!("{name}: {lanes}-lane recovery at k={k} failed: {e}"));
            assert_eq!(
                report, serial_report,
                "{name}: RecoveryReport diverged at k={k} lanes={lanes}"
            );
            assert_eq!(
                par.domain().device().stats(),
                serial.domain().device().stats(),
                "{name}: device stats diverged at k={k} lanes={lanes}"
            );
            assert_eq!(
                par.domain().persist_writes(),
                serial.domain().persist_writes(),
                "{name}: persist-write count diverged at k={k} lanes={lanes}"
            );
            // Stats compared first — the readback below counts reads.
            for (addr, expect) in &model {
                let got = par.read(DataAddr::new(*addr)).unwrap_or_else(|e| {
                    panic!("{name}: post-recovery read {addr} failed at k={k} lanes={lanes}: {e}")
                });
                assert_eq!(
                    &got, expect,
                    "{name}: addr {addr} diverged at k={k} lanes={lanes}"
                );
            }
        }
    }
}

#[test]
fn osiris_whole_memory_sweep_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    equivalence_matrix(
        || BonsaiController::new(BonsaiScheme::Osiris, &cfg),
        |c, lanes| c.recover_with_lanes(lanes),
        "osiris",
    );
}

#[test]
fn agit_read_recovery_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    equivalence_matrix(
        || BonsaiController::new(BonsaiScheme::AgitRead, &cfg),
        |c, lanes| c.recover_with_lanes(lanes),
        "agit-read",
    );
}

#[test]
fn agit_plus_recovery_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    equivalence_matrix(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        |c, lanes| c.recover_with_lanes(lanes),
        "agit-plus",
    );
}

#[test]
fn asit_recovery_is_lane_invariant() {
    let cfg = AnubisConfig::small_test();
    equivalence_matrix(
        || SgxController::new(SgxScheme::Asit, &cfg),
        |c, lanes| c.recover_with_lanes(lanes),
        "asit",
    );
}

#[test]
fn strict_persist_recovery_is_lane_invariant() {
    // Strict recovery is trivial, but the report and stats must still be
    // unaffected by the lane count.
    let cfg = AnubisConfig::small_test();
    equivalence_matrix(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
        |c, lanes| c.recover_with_lanes(lanes),
        "strict-persist",
    );
}

#[test]
fn telemetry_snapshot_is_lane_invariant() {
    // The determinism contract extends to telemetry: counters and gauges
    // published during and after recovery must be bit-identical at 1, 2
    // and 8 lanes, and whole-phase span counts must match. (Per-lane span
    // counts legitimately vary with the lane count and span durations are
    // wall-clock — both excluded.)
    use anubis::telemetry::Telemetry;
    let cfg = AnubisConfig::small_test();
    for lanes_under_test in [1usize, 2, 8] {
        let mut baseline = None;
        // Bonsai (Osiris probe + tree rebuild) and SGX (ST scan + splice)
        // exercise both recovery engines.
        for run in 0..2 {
            let mut ctrl = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
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
            let lanes = if run == 0 { 1 } else { lanes_under_test };
            ctrl.recover_with_lanes(lanes).unwrap();
            ctrl.publish_telemetry();
            let snap = reg.snapshot();
            let view = (
                snap.counters.clone(),
                snap.gauges.clone(),
                reg.span_count("recovery"),
                reg.span_count("recovery_phase"),
            );
            match &baseline {
                None => baseline = Some(view),
                Some(serial) => assert_eq!(
                    serial, &view,
                    "telemetry diverged between 1 and {lanes_under_test} lanes"
                ),
            }
        }
    }
}

#[test]
fn sgx_telemetry_snapshot_is_lane_invariant() {
    use anubis::telemetry::Telemetry;
    let cfg = AnubisConfig::small_test();
    let mut baseline = None;
    for lanes in [1usize, 2, 8] {
        let mut ctrl = SgxController::new(SgxScheme::Asit, &cfg);
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
        ctrl.recover_with_lanes(lanes).unwrap();
        ctrl.publish_telemetry();
        let snap = reg.snapshot();
        let view = (
            snap.counters.clone(),
            snap.gauges.clone(),
            reg.span_count("recovery"),
            reg.span_count("recovery_phase"),
        );
        match &baseline {
            None => baseline = Some(view),
            Some(serial) => assert_eq!(serial, &view, "asit telemetry diverged at {lanes} lanes"),
        }
    }
}

#[test]
fn reencryption_crash_recovery_is_lane_invariant() {
    // Crash mid page-reencryption (minor counter overflow), then compare
    // the recovery across lane counts — exercises the whole-tree rebuild
    // plus the re-encryption completion path.
    let cfg = AnubisConfig::small_test();
    for scheme in [BonsaiScheme::Osiris, BonsaiScheme::AgitPlus] {
        let mut ctrl = BonsaiController::new(scheme, &cfg);
        let hot = DataAddr::new(70);
        ctrl.write(DataAddr::new(71), payload(999)).unwrap();
        for i in 0..=127u64 {
            ctrl.write(hot, payload(i)).unwrap();
        }
        ctrl.crash();
        let mut serial = ctrl.clone();
        let serial_report = serial
            .recover_with_lanes(1)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        for lanes in LANE_COUNTS {
            let mut par = ctrl.clone();
            let report = par
                .recover_with_lanes(lanes)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert_eq!(report, serial_report, "{} lanes={lanes}", scheme.name());
            assert_eq!(
                par.domain().device().stats(),
                serial.domain().device().stats(),
                "{} lanes={lanes}",
                scheme.name()
            );
            assert_eq!(par.read(hot).unwrap(), payload(127), "{}", scheme.name());
        }
    }
}

#[test]
fn recovery_after_a_trace_replay_is_lane_invariant() {
    // The scale the script above never reaches: a 4 MiB memory behind
    // 32 KiB caches dirtied by 3 000 milc ops, so every lane of an
    // 8-lane recovery has work (over the 48-op script most lane chunks
    // are empty).
    use anubis_sim::{run_trace, TimingModel};
    use anubis_workloads::{spec2006, TraceGenerator};

    fn reports_agree<C: MemoryController + Clone>(
        mut ctrl: C,
        trace: &anubis_workloads::Trace,
        recover_lanes: impl Fn(&mut C, usize) -> Result<RecoveryReport, RecoveryError>,
    ) {
        let name = ctrl.scheme_name();
        run_trace(&mut ctrl, trace, &TimingModel::paper())
            .unwrap_or_else(|e| panic!("{name}: dirtying replay failed: {e}"));
        ctrl.crash();
        let report_at = |lanes: usize| {
            recover_lanes(&mut ctrl.clone(), lanes)
                .unwrap_or_else(|e| panic!("{name}: {lanes}-lane recovery failed: {e}"))
        };
        let serial = report_at(1);
        assert!(serial.total_ops() > 0, "{name}: recovery had nothing to do");
        for lanes in [2, 4, 8] {
            assert_eq!(report_at(lanes), serial, "{name}: lanes={lanes}");
        }
    }

    let cfg = AnubisConfig::small_test()
        .with_capacity(4 << 20)
        .with_cache_bytes(32 << 10);
    let trace = TraceGenerator::new(spec2006::milc(), cfg.capacity_bytes).generate(3_000, 1907);
    for scheme in [BonsaiScheme::Osiris, BonsaiScheme::AgitPlus] {
        reports_agree(BonsaiController::new(scheme, &cfg), &trace, |c, lanes| {
            c.recover_with_lanes(lanes)
        });
    }
    reports_agree(
        SgxController::new(SgxScheme::Asit, &cfg),
        &trace,
        |c, lanes| c.recover_with_lanes(lanes),
    );
}
