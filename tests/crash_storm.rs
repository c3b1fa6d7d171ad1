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
//!
//! Six fingerprints were re-taken when `crash()` became a reopen over the
//! persistence domain (the AGIT-Read and ASIT smoke ones; Osiris,
//! AGIT-Read, AGIT-Plus and ASIT exhaustive). A crash during recovery
//! used to keep the on-chip registers and the bad-block table a cut
//! recovery had moved in place; now it keeps only the register mirrors
//! and the table region the cut let through, as a reopen does.

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
        0x88e3_ab2a_6338_3493,
    );
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitRead, &config()),
        &cfg,
        0x35e3_2c32_8aed_3ab1,
    );
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        &cfg,
        0x48fb_19e3_6a70_d642,
    );
    pinned_storm(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &config()),
        &cfg,
        0x4399_a7d5_fac6_de26,
    );
}

#[test]
fn crash_storm_smoke_sgx_family() {
    let cfg = StormConfig::smoke(0x5C).with_runs(6);
    pinned_storm(
        || SgxController::new(SgxScheme::Asit, &config()),
        &cfg,
        0xb3cb_8d35_5d89_72d2,
    );
    pinned_storm(
        || SgxController::new(SgxScheme::StrictPersist, &config()),
        &cfg,
        0xa9a7_7018_3781_e46c,
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
            0x749a_9ccc_5388_bc8a,
            0x8fae_4931_6d4e_e68f,
            0x54ba_28d4_11c8_7510,
            0x7a06_11f4_b4d6_032a,
            0x54cb_da65_2b8e_01c5,
            0xd7c2_bf20_bbcd_be69,
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
        recovery_faults: true,
    };
    let mut plans = 0;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::Osiris, &config()),
        &cfg,
        0x8001_6cbf_3184_b9bc,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitRead, &config()),
        &cfg,
        0x78e2_0f42_de37_90f8,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        &cfg,
        0xd1a4_3e50_90dc_b39e,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &config()),
        &cfg,
        0xea80_618a_358d_e4ba,
    )
    .runs;
    plans += pinned_storm(
        || SgxController::new(SgxScheme::Asit, &config()),
        &cfg,
        0x4303_208b_5121_c199,
    )
    .runs;
    plans += pinned_storm(
        || SgxController::new(SgxScheme::StrictPersist, &config()),
        &cfg,
        0x8b3e_c753_b71d_0f03,
    )
    .runs;
    assert!(plans >= 1000, "sweep must exercise at least 1000 plans");
}
