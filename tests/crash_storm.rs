//! Nested crashes, enumerated: a fault at every counted persist write of
//! a short script — a power cut, a torn write, a bit flip — then a write
//! cut at every device write of the recovery that follows, and (with
//! `ANUBIS_CRASH_SWEEP=1`, the nightly scale) at every write of the next
//! recovery too, over every recoverable scheme (`anubis_sim::nested_sweep`).
//!
//! Each point is held to two verdicts. The plain `recover()` keeps the
//! fault sweep's rules. The supervised ladder must end in a structured
//! outcome with every acknowledged line committed, in flight, or a zero
//! on a line it quarantined, and a clean crash plus one more ladder must
//! end `Recovered`. A power cut must come back exact through both.
//!
//! Nothing is sampled: each scheme's report — points per outcome, lost
//! lines, escalations, cuts, and a digest in enumeration order — is a
//! pure function of scheme, configuration, script and depth, and is
//! pinned at both depths. No plain recovery after a power cut is refused
//! at any depth. One finding is pinned, not fixed: AGIT-Read is not a
//! fixpoint after some bit flips (a ladder that ends `Recovered` is
//! followed, after reads and a clean crash, by one that quarantines).
//! The Bonsai schemes' lost lines and digests were re-taken when the
//! targeted rung's per-line salvage stopped counting a retired line lost
//! for its counter bits alone: a counter block that fails its probe does
//! not say which of its lines were written, so only content at rest
//! counts (about half the retired lines held none; six strict-persist
//! points at depth 1, fourteen at depth 2, went from quarantined to
//! degraded).
//!
//! Run with `-- --nocapture` to print the counts.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, MemoryController, SgxController, SgxScheme,
};
use anubis_nvm::FaultPlan;
use anubis_sim::{nested_sweep, NestedReport, ScriptOp};

/// 16 KiB (four Bonsai counter blocks) under two-block counter and tree
/// caches and a four-block SGX metadata cache, with the default 64
/// spares: small enough that the ladder's scrub, which reads every line,
/// stays cheap, and that the script evicts dirty metadata.
fn config() -> AnubisConfig {
    let config = AnubisConfig::small_test()
        .with_capacity(16 << 10)
        .with_cache_bytes(128);
    AnubisConfig {
        counter_cache_ways: 2,
        tree_cache_ways: 2,
        ..config
    }
}

/// A write, a read and a write, each in its own counter block: the third
/// block evicts the first, dirty.
fn script() -> Vec<ScriptOp> {
    (0..3u64).map(|i| (i != 1, i * 67)).collect()
}

/// One plan of each class at every counted persist write `k`: a power
/// cut, a torn write of four words, and bit flips 3 and 200.
fn plans(k: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::power_cut_after(k),
        FaultPlan::torn_write_after(k, 4),
        FaultPlan::bit_flip_after(k, vec![3, 200]),
    ]
}

/// Depth 1 in tier 1; `ANUBIS_CRASH_SWEEP` selects depth 2.
fn depth() -> u32 {
    if std::env::var_os("ANUBIS_CRASH_SWEEP").is_some() {
        2
    } else {
        1
    }
}

/// The dirty metadata blocks the script evicts on a fresh controller.
fn dirty_evictions<C: MemoryController>(mut ctrl: C, evicted: impl Fn(&C) -> u64) -> u64 {
    let stop = anubis_sim::campaign::drive(&mut ctrl, &script(), |_, _, _| Ok::<(), ()>(()));
    assert_eq!(stop, Ok(anubis_sim::campaign::Stop::Completed));
    evicted(&ctrl)
}

fn bonsai(scheme: BonsaiScheme) -> (NestedReport, u64) {
    let make = || BonsaiController::new(scheme, &config());
    let evicted = dirty_evictions(make(), |c| {
        c.counter_cache_stats().dirty_evictions + c.tree_cache_stats().dirty_evictions
    });
    (nested_sweep(make, &script(), depth(), 1, plans), evicted)
}

fn sgx(scheme: SgxScheme) -> (NestedReport, u64) {
    let make = || SgxController::new(scheme, &config());
    let evicted = dirty_evictions(make(), |c| c.cache_stats().dirty_evictions);
    (nested_sweep(make, &script(), depth(), 1, plans), evicted)
}

/// The pinned shape of a report: plain points, recovered, detected and
/// refused; ladder outcomes (recovered, degraded, quarantined), lost
/// lines, escalations, power cuts that retired an acknowledged line and
/// unsettled points; cuts — and the digest.
type Pin = ([u64; 12], u64);

fn counts(r: &NestedReport) -> Pin {
    let [recovered, degraded, quarantined] = r.outcomes;
    let counts = [
        r.injection_points,
        r.recovered,
        r.detected,
        r.plain_refused,
        recovered,
        degraded,
        quarantined,
        r.lost_lines,
        r.escalations,
        r.retired_after_power_cut,
        r.unsettled,
        r.cuts,
    ];
    (counts, r.digest)
}

/// Holds one scheme's sweep to the contract and to its pins, `[depth 1,
/// depth 2]`. Only AGIT-Read has unsettled points: the pinned finding.
fn pinned((r, evicted): (NestedReport, u64), pins: [Pin; 2]) {
    let name = &r.scheme;
    println!(
        "{name} at depth {}: {r:?}; {evicted} dirty evictions",
        depth()
    );
    assert_eq!(r.retired_after_power_cut, 0, "{name}: power cuts are exact");
    assert_eq!(
        r.plain_refused, 0,
        "{name}: a cut recovery refused the next one"
    );
    assert_eq!(r.unsettled > 0, name == "agit-read", "{name}: unsettled");
    let strict = name.contains("strict");
    assert!(strict || evicted > 0, "{name}: no dirty eviction");
    let got = counts(&r);
    let want = pins[depth() as usize - 1];
    assert_eq!(
        got,
        want,
        "{name}: the depth-{} report is now {got:?}",
        depth()
    );
}

#[test]
fn every_recovery_cut_osiris() {
    let depth_1 = (
        [43, 34, 9, 0, 36, 0, 185, 4823, 187, 0, 0, 234],
        0x4797_7c44_bb98_7a31,
    );
    let depth_2 = (
        [126, 116, 10, 0, 416, 0, 27348, 961023, 27351, 0, 0, 27860],
        0xbed6_56c5_c047_d962,
    );
    pinned(bonsai(BonsaiScheme::Osiris), [depth_1, depth_2]);
}

#[test]
fn every_recovery_cut_agit_read() {
    let depth_1 = (
        [100, 81, 19, 0, 86, 10, 171, 4683, 189, 0, 6, 313],
        0xb753_676f_ec4a_1471,
    );
    let depth_2 = (
        [352, 324, 28, 0, 607, 43, 27167, 940595, 27222, 0, 12, 28115],
        0x6eb9_12cb_8c70_c6b5,
    );
    pinned(bonsai(BonsaiScheme::AgitRead), [depth_1, depth_2]);
}

#[test]
fn every_recovery_cut_agit_plus() {
    let depth_1 = (
        [89, 71, 18, 0, 77, 9, 171, 4683, 185, 0, 0, 298],
        0x32a3_e4a4_44cb_3b70,
    );
    let depth_2 = (
        [328, 302, 26, 0, 604, 19, 27163, 940591, 27189, 0, 0, 28066],
        0x65ea_ce46_1237_91b5,
    );
    pinned(bonsai(BonsaiScheme::AgitPlus), [depth_1, depth_2]);
}

#[test]
fn every_recovery_cut_bonsai_strict() {
    let depth_1 = (
        [56, 49, 7, 0, 46, 14, 312, 9459, 326, 0, 0, 380],
        0x0dc4_2125_a679_5e24,
    );
    let depth_2 = (
        [184, 177, 7, 0, 772, 26, 53853, 1884306, 53879, 0, 0, 54787],
        0x1840_d16e_5098_e1a1,
    );
    pinned(bonsai(BonsaiScheme::StrictPersist), [depth_1, depth_2]);
}

#[test]
fn every_recovery_cut_asit() {
    let depth_1 = (
        [66, 59, 7, 0, 57, 9, 57, 70, 67, 0, 0, 135],
        0x4e12_8299_59d4_62a4,
    );
    let depth_2 = (
        [243, 236, 7, 0, 246, 24, 322, 427, 347, 0, 0, 781],
        0x5545_dde3_31f3_5905,
    );
    pinned(sgx(SgxScheme::Asit), [depth_1, depth_2]);
}

/// ASIT under 1 KiB caches, where six ops leave many dirty nodes in the
/// Shadow Table: a cut anywhere inside the recovery after a power cut
/// leaves a table the next recovery accepts, and no ladder retires an
/// acknowledged line. Depth 1 at every scale.
#[test]
fn a_cut_asit_recovery_under_a_larger_cache_restarts() {
    let config = config().with_cache_bytes(1 << 10);
    let script: Vec<ScriptOp> = (0..6u64).map(|i| (i % 3 != 2, 37 * i % 128)).collect();
    let r = nested_sweep(
        || SgxController::new(SgxScheme::Asit, &config),
        &script,
        1,
        1,
        plans,
    );
    println!("asit under 1 KiB caches: {r:?}");
    assert_eq!(r.plain_refused, 0, "a cut recovery refused the next one");
    assert_eq!(r.retired_after_power_cut, 0, "power cuts are exact");
}

#[test]
fn every_recovery_cut_sgx_strict() {
    let depth_1 = (
        [56, 52, 4, 0, 46, 10, 45, 61, 55, 0, 0, 109],
        0xb3d4_0ea3_37d8_5566,
    );
    let depth_2 = (
        [184, 180, 4, 0, 183, 23, 231, 330, 254, 0, 0, 573],
        0x9b00_25fe_e8ab_1fc0,
    );
    pinned(sgx(SgxScheme::StrictPersist), [depth_1, depth_2]);
}
