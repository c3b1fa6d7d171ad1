//! Exhaustive crash-point injection: for every prefix of a workload,
//! crash there, recover, and verify that every acknowledged write is
//! intact — for every scheme that claims recoverability.
//!
//! This is invariant 6 of DESIGN.md, the strongest end-to-end guarantee
//! the paper's schemes make.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, RecoveryError,
    RecoveryReport, SgxController, SgxScheme,
};
use anubis_nvm::{AnchorPolicy, Block, FileBackend, NvmBackend};
use anubis_sim::campaign::{drill_script, fnv1a64, FNV1A64_EMPTY};
use std::collections::{BTreeMap, HashMap};

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

/// The scripted workload: a mix of overwrites, spread, and read traffic.
fn script(n: usize) -> Vec<(bool, u64)> {
    (0..n as u64)
        .map(|i| {
            let write = i % 3 != 2;
            let addr = (i * 37) % 300;
            (write, addr)
        })
        .collect()
}

/// Folds `words` into the matrix digest.
fn fold(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a64(h, &w.to_le_bytes()))
}

/// Folds a recovery report into the matrix digest, field by field.
fn fold_report(h: u64, r: &RecoveryReport) -> u64 {
    fold(
        h,
        &[
            r.nvm_reads,
            r.nvm_writes,
            r.hash_ops,
            r.counters_fixed,
            r.nodes_fixed,
            r.redo_writes,
            u64::from(r.reencryption_completed),
        ],
    )
}

/// Crashes after every prefix of the script, recovers, crashes again at
/// once and recovers again, and checks every acknowledged write. The
/// second crash lands on an image whose only writes since the first are
/// recovery's own, so a register recovery moved without its mirror
/// fails it. The matrix digest — each point's first recovery report and
/// its post-recovery read-back, in address order — is a constant of the
/// scheme and must equal `pin`.
fn run_crash_matrix<C, F>(make: F, name: &str, pin: u64)
where
    C: MemoryController,
    F: Fn() -> C,
{
    let ops = script(48);
    let mut digest = FNV1A64_EMPTY;
    // Crash after every k ops (k=0 included: crash before any work).
    for k in 0..=ops.len() {
        let mut ctrl = make();
        let mut model: BTreeMap<u64, Block> = BTreeMap::new();
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
            .unwrap_or_else(|e| panic!("{name}: recovery after {k} ops failed: {e}"));
        digest = fold_report(fold(digest, &[k as u64]), &report);
        ctrl.crash();
        ctrl.recover()
            .unwrap_or_else(|e| panic!("{name}: second recovery after {k} ops failed: {e}"));
        for (addr, expect) in &model {
            let got = ctrl
                .read(DataAddr::new(*addr))
                .unwrap_or_else(|e| panic!("{name}: post-recovery read {addr} failed: {e}"));
            assert_eq!(&got, expect, "{name}: addr {addr} after crash at {k}");
            digest = fold(fold(digest, &[*addr]), &got.words());
        }
    }
    assert_eq!(
        digest, pin,
        "{name}: crash-matrix digest is now {digest:#018x}"
    );
}

#[test]
fn osiris_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::Osiris, &cfg),
        "osiris",
        0x38f9_2fc0_53a7_d21c,
    );
}

#[test]
fn agit_read_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::AgitRead, &cfg),
        "agit-read",
        0xfd35_e8dd_c91a_059a,
    );
}

#[test]
fn agit_plus_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        "agit-plus",
        0x2c59_fdb6_6ada_56ec,
    );
}

#[test]
fn strict_persist_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
        "strict-persist",
        0x5c18_4de9_51e2_54ae,
    );
}

#[test]
fn asit_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || SgxController::new(SgxScheme::Asit, &cfg),
        "asit",
        0x703a_caf8_9e53_2ca1,
    );
}

#[test]
fn sgx_strict_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || SgxController::new(SgxScheme::StrictPersist, &cfg),
        "sgx-strict",
        0x5c18_4de9_51e2_54ae,
    );
}

#[test]
fn repeated_crashes_with_interleaved_work() {
    // Crash, recover, write more, crash again — five rounds, both families.
    let cfg = AnubisConfig::small_test();
    let mut bonsai = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
    let mut sgx = SgxController::new(SgxScheme::Asit, &cfg);
    let mut model: HashMap<u64, Block> = HashMap::new();
    for round in 0..5u64 {
        for i in 0..30u64 {
            let addr = (round * 13 + i * 7) % 200;
            let b = payload(round * 1000 + i);
            bonsai.write(DataAddr::new(addr), b).unwrap();
            sgx.write(DataAddr::new(addr), b).unwrap();
            model.insert(addr, b);
        }
        bonsai.crash();
        bonsai
            .recover()
            .unwrap_or_else(|e| panic!("bonsai round {round}: {e}"));
        sgx.crash();
        sgx.recover()
            .unwrap_or_else(|e| panic!("sgx round {round}: {e}"));
        for (addr, expect) in &model {
            assert_eq!(bonsai.read(DataAddr::new(*addr)).unwrap(), *expect);
            assert_eq!(sgx.read(DataAddr::new(*addr)).unwrap(), *expect);
        }
    }
}

#[test]
fn crash_during_page_reencryption_recovers() {
    // Drive a minor counter to overflow, then crash right after the op
    // that triggered re-encryption; the persistent re-encryption log must
    // carry recovery through.
    let cfg = AnubisConfig::small_test();
    for scheme in [BonsaiScheme::Osiris, BonsaiScheme::AgitPlus] {
        let mut ctrl = BonsaiController::new(scheme, &cfg);
        let hot = DataAddr::new(70);
        let cold = DataAddr::new(71);
        ctrl.write(cold, payload(999)).unwrap();
        for i in 0..=127u64 {
            ctrl.write(hot, payload(i)).unwrap();
        }
        // Overflow happened inside the loop (128th increment).
        ctrl.crash();
        ctrl.recover()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert_eq!(ctrl.read(hot).unwrap(), payload(127), "{}", scheme.name());
        assert_eq!(ctrl.read(cold).unwrap(), payload(999), "{}", scheme.name());
    }
}

#[test]
fn intra_op_sweep_mode() {
    // Sweep mode: instead of crashing at op boundaries, cut power after
    // individual device-level writes *inside* operations, with depth 0 of
    // `anubis_sim::nested_sweep`. Every 7th injection point keeps this
    // cheap next to the matrices above; the full sweep runs, per scheme,
    // in `tests/fault_matrix.rs`.
    let cfg = AnubisConfig::small_test();
    let ops = script(48);
    let power_cut = |k| vec![anubis_nvm::FaultPlan::power_cut_after(k)];
    for report in [
        anubis_sim::nested_sweep(
            || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &ops,
            0,
            7,
            power_cut,
        ),
        anubis_sim::nested_sweep(
            || SgxController::new(SgxScheme::Asit, &cfg),
            &ops,
            0,
            7,
            power_cut,
        ),
    ] {
        assert!(
            report.injection_points > 0,
            "{}: no faults fired",
            report.scheme
        );
        assert_eq!(
            report.recovered, report.injection_points,
            "{}: every intra-op power cut must recover",
            report.scheme
        );
    }
}

#[test]
fn stale_counter_beyond_stop_loss_errs_without_panic() {
    // The stop-loss boundary: Osiris can only probe `stop_loss` minor
    // increments past the persisted counter. Replay a stale counter block
    // whose gap to the actual data exceeds that budget — recovery must
    // surface a typed error, never panic, and the same crash image must
    // still recover when the counter is left untampered.
    let cfg = AnubisConfig::small_test();
    let mut c = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
    let a = DataAddr::new(9);
    c.write(a, payload(0)).unwrap();
    c.shutdown_flush().unwrap();
    let (leaf, _) = c.layout().leaf_of(a);
    let ctr = c.layout().node_addr(leaf);
    let stale = c.domain().device().peek(ctr);
    // stop_loss + 2 more writes: the data line's minor is now further
    // ahead of the recorded `stale` block than probing can bridge.
    for i in 1..=u64::from(cfg.stop_loss) + 2 {
        c.write(a, payload(i)).unwrap();
    }
    c.domain_mut().drain_wpq();
    c.crash();

    // Positive control: the honest crash image recovers.
    let mut honest = c.clone();
    honest
        .recover()
        .expect("untampered crash image must recover");

    c.domain_mut().device_mut().tamper_replay(ctr, stale);
    let err = c
        .recover()
        .expect_err("a counter gap beyond stop-loss must be an error, not a panic");
    assert!(
        matches!(
            err,
            RecoveryError::CounterNotRecovered { .. } | RecoveryError::StopLossExceeded { .. }
        ),
        "unexpected recovery error: {err}"
    );
}

#[test]
fn an_overfull_shadow_table_fails_asit_recovery_with_shadow_capacity_exceeded() {
    // A verified Shadow Table tracking more same-set nodes than the
    // metadata cache's associativity can hold must fail ASIT recovery
    // with `ShadowCapacityExceeded`, naming the offending address.
    use anubis::StEntry;
    use anubis_itree::NodeId;

    let cfg = AnubisConfig::small_test();
    let sets = (cfg.metadata_cache_bytes / 64 / cfg.metadata_cache_ways) as u64;
    let conflicting = cfg.metadata_cache_ways as u64 + 1;
    let mut c = SgxController::new(SgxScheme::Asit, &cfg);
    // Leaf node addresses `sets` blocks apart share a cache set, so
    // ways + 1 of them can never co-reside.
    for j in 0..conflicting {
        let addr = c.layout().node_addr(NodeId::new(0, j * sets));
        let entry = StEntry::new(addr, 0, [0u64; 8]);
        let slot = c.layout().shadow("st").nth(j);
        c.domain_mut().device_mut().poke(slot, entry.to_block());
    }
    c.debug_refresh_shadow_root_from_nvm();

    c.crash();
    match c.recover() {
        // Entries are placed in slot order: the first one that cannot
        // fit is the last of the ways + 1.
        Err(RecoveryError::ShadowCapacityExceeded { addr }) => assert_eq!(
            addr,
            c.layout()
                .node_addr(NodeId::new(0, (conflicting - 1) * sets)),
            "not the address of the node that found its set full"
        ),
        Err(e) => panic!("expected ShadowCapacityExceeded, got {e}"),
        Ok(_) => panic!("over-capacity shadow table must not recover"),
    }
}

#[test]
fn a_flush_leaves_no_shadow_entry_for_a_later_recovery_to_resurrect() {
    // 2 sets × 2 ways. `shutdown_flush` writes every dirty node back
    // without evicting it; an ST entry left for such a clean node is
    // orphaned by its later clean eviction, and a recovery that brings
    // it back splices a node whose MAC no longer verifies.
    let cfg = AnubisConfig {
        metadata_cache_ways: 2,
        ..AnubisConfig::small_test()
            .with_capacity(16 << 10)
            .with_cache_bytes(128)
    };
    let mut c = SgxController::new(SgxScheme::Asit, &cfg);
    let st = c.layout().shadow("st").clone();
    let (mut model, mut left_after_flush) = (BTreeMap::new(), Vec::new());
    let script = [
        ('W', 54),
        ('F', 0),
        ('R', 97),
        ('W', 10),
        ('R', 100),
        ('W', 60),
        ('R', 49),
        ('R', 90),
    ];
    for (i, (op, addr)) in script.into_iter().enumerate() {
        let at = DataAddr::new(addr);
        match op {
            'W' => {
                c.write(at, payload(i as u64)).unwrap();
                model.insert(addr, payload(i as u64));
            }
            'R' => assert_eq!(
                c.read(at).unwrap(),
                model.get(&addr).copied().unwrap_or_default()
            ),
            _ => {
                c.shutdown_flush().unwrap();
                let left = st
                    .iter()
                    .filter(|&s| !c.domain().read(s).unwrap().is_zeroed());
                left_after_flush.extend(left);
            }
        }
    }
    c.crash();
    c.recover().expect("no orphaned entry to resurrect");
    for (addr, expect) in &model {
        assert_eq!(
            &c.read(DataAddr::new(*addr)).unwrap(),
            expect,
            "line {addr}"
        );
    }
    assert_eq!(left_after_flush, [], "ST slots a flush left written");
}

#[test]
fn counter_write_through_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::CounterWriteThrough, &cfg),
        "ctr-write-through",
        0x0dd9_be8d_6eb5_9c4e,
    );
}

/// `crash()` is a reopen of the image: after a seeded script over an
/// anchored file image, crashing the live controller and reopening a
/// copy of its image give the same registers, the same recovery result
/// and the same read-back. The SGX write-back scheme recovers after an
/// orderly shutdown and refuses after losing dirty metadata, over a
/// reopened image as in process.
#[test]
fn crash_is_a_reopen_of_the_image() {
    let cfg = AnubisConfig::small_test();
    let agit_plus = |b: FileBackend| BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, b).0;
    let asit = |b: FileBackend| SgxController::reopen(SgxScheme::Asit, &cfg, b).0;
    let write_back = |b: FileBackend| SgxController::reopen(SgxScheme::WriteBack, &cfg, b).0;
    let root = |c: &BonsaiController<FileBackend>| c.root().0;
    let shadow_root = |c: &SgxController<FileBackend>| c.shadow_root().0;
    assert!(crash_and_reopen_agree("agit-plus", false, agit_plus, root).is_ok());
    assert!(crash_and_reopen_agree("asit", false, asit, shadow_root).is_ok());
    assert!(
        crash_and_reopen_agree("sgx-write-back-flushed", true, write_back, shadow_root).is_ok()
    );
    assert!(matches!(
        crash_and_reopen_agree("sgx-write-back", false, write_back, shadow_root),
        Err(RecoveryError::SchemeCannotRecover { .. })
    ));
}

/// Runs the script (then `shutdown_flush` when `flush`), crashes, and
/// holds the crashed controller and a reopened copy of its image to the
/// same registers, recovery result and read-back. Returns the result.
fn crash_and_reopen_agree<C>(
    name: &str,
    flush: bool,
    reopen: impl Fn(FileBackend) -> C,
    register: impl Fn(&C) -> u64,
) -> Result<RecoveryReport, RecoveryError>
where
    C: MemoryController<Backend = FileBackend>,
{
    let dir =
        std::env::temp_dir().join(format!("anubis-crash-reopen-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let open = |image: &std::path::Path| {
        let key = AnubisConfig::small_test().key.0;
        FileBackend::open_with_anchor(image, key, AnchorPolicy::Strict).expect("anchored open")
    };
    let (image, copy) = (dir.join("live.wal"), dir.join("copy.wal"));
    let mut live = reopen(open(&image));
    live.recover().expect("boot of a fresh image");
    let mut model = BTreeMap::new();
    for (i, (is_write, addr)) in drill_script(600, 400, 0xC0DE).into_iter().enumerate() {
        let at = DataAddr::new(addr);
        if is_write {
            let b = payload(i as u64);
            live.write(at, b)
                .unwrap_or_else(|e| panic!("{name}: write {i}: {e}"));
            model.insert(addr, b);
        } else {
            live.read(at)
                .unwrap_or_else(|e| panic!("{name}: read {i}: {e}"));
        }
    }
    if flush {
        live.shutdown_flush().expect("orderly shutdown");
    }
    live.crash();
    anubis_nvm::copy_image(&image, &copy).expect("copy image");
    let mut reopened = reopen(open(&copy));
    let regs = |c: &C| (register(c), c.domain().device().backend().regs());
    assert_eq!(
        regs(&live),
        regs(&reopened),
        "{name}: registers after the crash"
    );
    let recovered = live.recover();
    assert_eq!(recovered, reopened.recover(), "{name}: recovery results");
    assert_eq!(
        regs(&live),
        regs(&reopened),
        "{name}: registers after recovery"
    );
    for (addr, expect) in recovered.is_ok().then_some(&model).into_iter().flatten() {
        let at = DataAddr::new(*addr);
        let (a, b) = (live.read(at), reopened.read(at));
        assert_eq!(
            a.as_ref().ok(),
            Some(expect),
            "{name}: crashed controller, addr {addr}"
        );
        assert_eq!(
            b.as_ref().ok(),
            Some(expect),
            "{name}: reopened copy, addr {addr}"
        );
    }
    drop((live, reopened));
    let _ = std::fs::remove_dir_all(&dir);
    recovered
}
