//! Freshness-anchor refusal ladder: a valid anchor proving rollback is
//! always refused; a missing or corrupt anchor is refused under the
//! strict policy and recoverable only through the explicit operator
//! override (`AnchorPolicy::Override`) — never by silently accepting a
//! default epoch; an anchor lagging exactly one barrier behind (the
//! honest crash window) heals forward. Refusals must also land in the
//! supervisor's telemetry counters, and a refused image must be left on
//! disk exactly as the refusal found it. An image with no history at all
//! bootstraps its anchor whether it is missing or torn.

use std::fs;
use std::path::{Path, PathBuf};

use anubis::telemetry::Telemetry;
use anubis::{
    supervisor, AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController,
    RecoveryError,
};
use anubis_nvm::{
    anchor_path_for, home_path_for, AnchorPolicy, Block, FileBackend, Freshness, FreshnessAnchor,
    NvmBackend,
};

const SCHEME_LABEL: &str = "agit-plus";

fn cfg() -> AnubisConfig {
    AnubisConfig::small_test()
}

fn key() -> [u64; 2] {
    cfg().key.0
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "anubis-anchor-refusal-{}-{}.wal",
        std::process::id(),
        name
    ))
}

fn cleanup(image: &Path) {
    for file in [
        image.to_path_buf(),
        home_path_for(image),
        anchor_path_for(image),
    ] {
        let _ = fs::remove_file(file);
    }
}

/// Opens the image under the anchor and reopens a controller on it.
fn reopen(
    image: &PathBuf,
    policy: AnchorPolicy,
) -> (BonsaiController<FileBackend>, Option<RecoveryError>) {
    let backend = FileBackend::open_with_anchor(image, key(), policy).expect("anchored open");
    BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg(), backend)
}

/// Feeds a reopen hint into the supervisor ladder the way the server's
/// boot path does.
fn recover_with_hint(
    ctrl: &mut BonsaiController<FileBackend>,
    hint: &Option<RecoveryError>,
) -> Result<(), RecoveryError> {
    match hint {
        Some(e) => supervisor::repair_then_recover(ctrl, e).map(|_| ()),
        None => supervisor::recover(ctrl).map(|_| ()),
    }
}

/// One generation of history: anchored open, recover, write a run of
/// tagged lines, clean shutdown. Leaves image + anchor sealed on disk.
fn seed_generation(image: &PathBuf, writes: std::ops::Range<u64>, tag: u8) {
    let (mut c, hint) = reopen(image, AnchorPolicy::Strict);
    recover_with_hint(&mut c, &hint).expect("seed generation must recover");
    for i in writes {
        c.write(DataAddr::new(i * 3), Block::filled(tag | (i as u8 & 0x0F)))
            .expect("seed write");
    }
    c.shutdown_flush().expect("seed flush");
}

/// Reads back the seed-generation lines and checks them bit-for-bit.
fn assert_generation_intact(
    c: &mut BonsaiController<FileBackend>,
    writes: std::ops::Range<u64>,
    tag: u8,
) {
    for i in writes {
        assert_eq!(
            c.read(DataAddr::new(i * 3)).expect("post-recovery read"),
            Block::filled(tag | (i as u8 & 0x0F)),
            "line {i} must survive recovery intact"
        );
    }
}

#[test]
fn image_rollback_is_refused_and_counted() {
    let image = tmp("rollback");
    cleanup(&image);
    seed_generation(&image, 0..20, 0xA0);
    let old_image = fs::read(&image).expect("capture generation-1 image");
    // Generation 2 moves both the image and the anchor forward.
    seed_generation(&image, 20..40, 0xB0);
    // Roll the image back to generation 1; the anchor stays sealed ahead.
    fs::write(&image, &old_image).expect("restore stale image");

    let (mut c, hint) = reopen(&image, AnchorPolicy::Strict);
    assert!(
        matches!(hint, Some(RecoveryError::RollbackDetected { .. })),
        "rolled-back image must surface RollbackDetected at reopen, got {hint:?}"
    );
    let (reg, tel) = Telemetry::private();
    c.set_telemetry(tel);
    let err = recover_with_hint(&mut c, &hint).expect_err("ladder must refuse rollback");
    assert!(err.is_refusal(), "rollback must be a refusal: {err}");
    assert!(matches!(err, RecoveryError::RollbackDetected { .. }));
    assert!(
        reg.snapshot()
            .counter("supervisor_rollback_refusals_total", SCHEME_LABEL)
            >= 1,
        "refusal must be counted in supervisor telemetry"
    );
    drop(c);
    assert!(
        fs::read(&image).expect("read refused image") == old_image,
        "a refused ladder must leave the rolled-back image as it found it"
    );
    cleanup(&image);
}

#[test]
fn missing_anchor_is_refused_under_strict_policy() {
    let image = tmp("anchor-missing");
    cleanup(&image);
    seed_generation(&image, 0..20, 0xA0);
    fs::remove_file(anchor_path_for(&image)).expect("delete anchor");

    let (mut c, hint) = reopen(&image, AnchorPolicy::Strict);
    assert!(
        matches!(hint, Some(RecoveryError::FreshnessAnchorViolation { .. })),
        "anchor loss must surface a freshness violation, got {hint:?}"
    );
    let (reg, tel) = Telemetry::private();
    c.set_telemetry(tel);
    let err = recover_with_hint(&mut c, &hint).expect_err("strict policy must refuse");
    assert!(err.is_refusal(), "anchor loss must be a refusal: {err}");
    assert!(
        reg.snapshot()
            .counter("supervisor_anchor_refusals_total", SCHEME_LABEL)
            >= 1,
        "anchor refusal must be counted in supervisor telemetry"
    );
    cleanup(&image);
}

#[test]
fn missing_anchor_recovers_only_via_explicit_override() {
    let image = tmp("anchor-override");
    cleanup(&image);
    seed_generation(&image, 0..20, 0xA0);
    fs::remove_file(anchor_path_for(&image)).expect("delete anchor");

    // The override is an explicit operator decision, not a default: the
    // epoch cannot be verified, but service resumes with the image as-is
    // and a fresh anchor is sealed at the image's epoch (never at a
    // default epoch 0, which would mask a later rollback).
    let (mut c, hint) = reopen(&image, AnchorPolicy::Override);
    assert!(
        hint.is_none(),
        "override must clear the freshness hint, got {hint:?}"
    );
    recover_with_hint(&mut c, &hint).expect("override recovery");
    assert_generation_intact(&mut c, 0..20, 0xA0);
    let image_epoch = c.domain().epoch();
    assert!(image_epoch > 0, "seeded image must have real history");
    assert_eq!(
        FreshnessAnchor::probe(&anchor_path_for(&image), key()),
        Ok(Some(image_epoch)),
        "override must reseal the anchor at the image epoch"
    );
    cleanup(&image);
}

#[test]
fn corrupt_anchor_refused_strict_recoverable_via_override() {
    let image = tmp("anchor-corrupt");
    cleanup(&image);
    seed_generation(&image, 0..20, 0xC0);
    // Trash both ping-pong slots: no valid seal survives.
    fs::write(anchor_path_for(&image), [0xFFu8; 44]).expect("corrupt anchor");

    let (mut c, hint) = reopen(&image, AnchorPolicy::Strict);
    assert!(
        matches!(hint, Some(RecoveryError::FreshnessAnchorViolation { .. })),
        "corrupt anchor must surface a freshness violation, got {hint:?}"
    );
    let err = recover_with_hint(&mut c, &hint).expect_err("strict policy must refuse");
    assert!(err.is_refusal(), "corrupt anchor must be a refusal: {err}");

    let (mut c, hint) = reopen(&image, AnchorPolicy::Override);
    assert!(hint.is_none(), "override must clear the hint, got {hint:?}");
    recover_with_hint(&mut c, &hint).expect("override recovery");
    assert_generation_intact(&mut c, 0..20, 0xC0);
    cleanup(&image);
}

#[test]
fn anchor_lagging_one_barrier_heals_forward() {
    let image = tmp("anchor-lag");
    cleanup(&image);
    seed_generation(&image, 0..20, 0xD0);
    let apath = anchor_path_for(&image);
    let image_epoch = {
        let b =
            FileBackend::open_with_anchor(&image, key(), AnchorPolicy::Strict).expect("probe open");
        b.epoch()
    };
    assert!(image_epoch > 1, "seeded image must have several barriers");
    // Re-seal the anchor exactly one barrier behind: the honest crash
    // window (frame fsynced, seal lost). Strict policy must heal, not
    // refuse.
    fs::remove_file(&apath).expect("drop healed anchor");
    FreshnessAnchor::create(apath.clone(), key(), image_epoch - 1).expect("lagged anchor");

    let (mut c, hint) = reopen(&image, AnchorPolicy::Strict);
    assert!(
        hint.is_none(),
        "one-barrier lag is the honest crash window, got {hint:?}"
    );
    recover_with_hint(&mut c, &hint).expect("healed recovery");
    assert_generation_intact(&mut c, 0..20, 0xD0);
    // Recovery's repair writes ride the first read's barrier, so the
    // image may already be a frame past the healed epoch; the anchor
    // must have followed it, never fallen behind the pre-lag image.
    let healed = c.domain().epoch();
    assert!(
        healed >= image_epoch,
        "healed epoch {healed} fell behind the image epoch {image_epoch}"
    );
    assert_eq!(
        FreshnessAnchor::probe(&apath, key()),
        Ok(Some(healed)),
        "heal must reseal the anchor at the image epoch"
    );
    cleanup(&image);
}

#[test]
fn a_first_boot_killed_inside_the_anchor_creation_boots_again() {
    // Creating the anchor truncates its file, then writes it: a kill in
    // between, on a tenant's very first boot, leaves it with no valid
    // slot. The image beside it has no frame and no home block, so there
    // is nothing a torn anchor could hide — exactly as when the anchor is
    // deleted — and the next strict open bootstraps it.
    let image = tmp("anchor-torn-bootstrap");
    cleanup(&image);
    drop(FileBackend::open_with_anchor(&image, key(), AnchorPolicy::Strict).expect("first boot"));
    fs::File::create(anchor_path_for(&image)).expect("truncate the anchor");
    let b = FileBackend::open_with_anchor(&image, key(), AnchorPolicy::Strict).expect("reopen");
    assert_eq!(b.freshness(), Freshness::Fresh { epoch: 0 });
    drop(b);
    assert_eq!(
        FreshnessAnchor::probe(&anchor_path_for(&image), key()),
        Ok(Some(0))
    );
    // With history, a torn anchor is still a refusal.
    seed_generation(&image, 0..4, 0xE0);
    fs::File::create(anchor_path_for(&image)).expect("truncate the anchor");
    let b = FileBackend::open_with_anchor(&image, key(), AnchorPolicy::Strict).expect("reopen");
    assert!(
        matches!(b.freshness(), Freshness::AnchorCorrupt { .. }),
        "{:?}",
        b.freshness()
    );
    cleanup(&image);
}
