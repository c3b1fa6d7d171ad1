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
//!
//! Nine were re-taken when a retired line under a never-written counter
//! began to count as lost whenever its data or side block was not zero
//! (the Osiris and ASIT family smoke ones; Osiris, AGIT-Read and ASIT of
//! the `bench_campaign storm --smoke` set; Osiris, AGIT-Read, AGIT-Plus
//! and ASIT exhaustive): runs that read `Degraded` with zero lost lines
//! now read `Quarantined` with the lines counted; no run's recovered
//! count moved.

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
        0x63d6_8f4a_0a53_3b2c,
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
        0x27da_80e5_9edb_f719,
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
            0x56a4_0eca_c5b7_0803,
            0x1adb_ee3b_909d_dfce,
            0x54ba_28d4_11c8_7510,
            0x7a06_11f4_b4d6_032a,
            0xd2fa_d6fa_285c_dff9,
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
        0x3dbd_7855_a349_d76e,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitRead, &config()),
        &cfg,
        0x3895_b69f_24a3_bc51,
    )
    .runs;
    plans += pinned_storm(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        &cfg,
        0xb750_c1de_fb42_661b,
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
        0xf6f1_4e94_7190_5a81,
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
