//! Crash-storm campaign over every recoverable scheme: randomized fault
//! plans (power cuts, torn writes, bit flips, plus write cuts injected
//! *during* recovery) must all terminate in a structured
//! `RecoveryOutcome` with the acknowledged-write contract intact, and the
//! campaign fingerprint — a digest of every run's outcome and repair
//! counts — must be the pinned one.
//!
//! The smoke-sized campaign always runs; set `ANUBIS_CRASH_SWEEP=1` for
//! the exhaustive sweep (>1000 randomized plans, the scale
//! `bench_campaign storm` ships as an artifact).

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme, Supervised};
use anubis_sim::{crash_storm, StormConfig, StormReport};

fn config() -> AnubisConfig {
    AnubisConfig::small_test().with_spare_blocks(256)
}

fn pinned_storm<C, F>(make: F, cfg: &StormConfig, pin: u64) -> StormReport
where
    C: Supervised,
    F: Fn() -> C,
{
    let report = crash_storm(&make, cfg);
    assert_eq!(
        report.recovered + report.degraded + report.quarantined,
        report.runs,
        "{}: every run must end in a structured outcome",
        report.scheme
    );
    assert_eq!(
        report.fingerprint, pin,
        "{}: storm fingerprint is now {:#018x}",
        report.scheme, report.fingerprint
    );
    report
}

#[test]
fn crash_storm_smoke_bonsai_family() {
    let cfg = StormConfig::smoke(0xC5).with_runs(6);
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::Osiris, &config()),
        &cfg,
        0x554a_40ba_f8f7_28aa,
    );
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitRead, &config()),
        &cfg,
        0xde5c_b443_3306_d5c3,
    );
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        &cfg,
        0x5fae_b102_2fcf_22e3,
    );
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &config()),
        &cfg,
        0x601c_1a45_96db_35e8,
    );
}

#[test]
fn crash_storm_smoke_sgx_family() {
    let cfg = StormConfig::smoke(0x5C).with_runs(6);
    pinned_storm(
        || SgxController::new(SgxScheme::Asit, &config()),
        &cfg,
        0x2347_8ac9_b7f9_6a77,
    );
    pinned_storm(
        || SgxController::new(SgxScheme::StrictPersist, &config()),
        &cfg,
        0xdd31_a2bc_e4ef_39a6,
    );
}

/// The six fingerprints `bench_campaign storm --smoke` prints (six plans
/// per scheme, 24 ops over 256 lines, the bench's per-scheme seeds). A
/// fingerprint digests every run's outcome and repair counts, so the
/// script driver, the fault plans and the supervisor ladder all have to
/// do exactly what they did for these to hold.
#[test]
fn crash_storm_smoke_fingerprints_are_pinned() {
    let storm = |seed| StormConfig {
        runs: 6,
        ops: 24,
        addr_space: 256,
        seed,
        max_retries: 3,
        recovery_faults: true,
    };
    let bonsai = |scheme, seed| {
        crash_storm(|| BonsaiController::new(scheme, &config()), &storm(seed)).fingerprint
    };
    let sgx = |scheme, seed| {
        crash_storm(|| SgxController::new(scheme, &config()), &storm(seed)).fingerprint
    };
    assert_eq!(
        [
            bonsai(BonsaiScheme::Osiris, 0x05),
            bonsai(BonsaiScheme::AgitRead, 0xA6),
            bonsai(BonsaiScheme::AgitPlus, 0xA7),
            bonsai(BonsaiScheme::StrictPersist, 0xB5),
            sgx(SgxScheme::Asit, 0x51),
            sgx(SgxScheme::StrictPersist, 0x55),
        ],
        [
            0xebee_428f_fbf7_5ce8,
            0xdd34_8ad7_d1b8_42aa,
            0x0571_dc3f_611e_0a1c,
            0x5a45_d187_b863_06d2,
            0x9275_78ce_5a27_8924,
            0x7535_0f21_a647_e961,
        ]
    );
}

#[test]
fn crash_storm_exhaustive_sweep() {
    // >1000 randomized plans across the six recoverable schemes; gated
    // behind ANUBIS_CRASH_SWEEP=1 (nightly CI).
    if std::env::var_os("ANUBIS_CRASH_SWEEP").is_none() {
        return;
    }
    let cfg = StormConfig {
        runs: 170,
        ops: 24,
        addr_space: 256,
        seed: 0xEE,
        max_retries: 3,
        recovery_faults: true,
    };
    let mut plans = 0;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::Osiris, &config()),
        &cfg,
        0x823a_5d21_2508_3b31,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitRead, &config()),
        &cfg,
        0x60b7_ef36_29b8_51d1,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        &cfg,
        0x0f57_038a_2902_4159,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &config()),
        &cfg,
        0xf187_ed84_0b55_5011,
    )
    .runs;
    plans += pinned_storm(
        || SgxController::new(SgxScheme::Asit, &config()),
        &cfg,
        0x14af_875c_cacc_05ee,
    )
    .runs;
    plans += pinned_storm(
        || SgxController::new(SgxScheme::StrictPersist, &config()),
        &cfg,
        0x664d_cc22_3ff1_4aa7,
    )
    .runs;
    assert!(plans >= 1000, "sweep must exercise at least 1000 plans");
}
