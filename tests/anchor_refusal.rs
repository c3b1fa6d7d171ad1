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
    supervisor, AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, Family, MemoryController,
    RecoveryError,
};
use anubis_nvm::{
    anchor_path_for, home_path_for, AnchorPolicy, Block, FileBackend, Freshness, FreshnessAnchor,
    NvmBackend, HOME_SLOT_BYTES,
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

/// The home area's attacks: slots at rest that the log does not redo.
#[derive(Clone, Copy, Debug)]
enum HomeAttack {
    /// One bit flipped in a held data-line slot outside the log's reach.
    FlipHeldSlot,
    /// The whole home area replaced by a capture taken before the last
    /// checkpoint; the log and the anchor stay.
    RollBackPastCheckpoint,
}

/// Lines the home-area prefill cycles through.
const HOME_LINES: u64 = 256;

fn home_payload(round: u64, line: u64) -> Block {
    Block::from_words([round, line, !round, !line, round ^ line, 0x40, 0, 1])
}

/// What the home-area attacks start from: an anchored image prefilled
/// past two checkpoints, killed a few writes after the second.
struct Prefilled {
    /// Every acknowledged line and its value.
    acked: std::collections::BTreeMap<u64, Block>,
    /// The home area as the first checkpoint left it.
    capture: Vec<u8>,
    /// A held data-line slot no frame of the surviving log writes.
    untracked: u64,
}

fn prefill_past_a_checkpoint(family: Family, image: &Path) -> Prefilled {
    let boot_cfg = cfg();
    let backend = FileBackend::open_with_anchor(image, key(), AnchorPolicy::Strict).expect("open");
    let (mut ctrl, hint) = family.reopen(&boot_cfg, backend);
    supervisor::resume(ctrl.as_mut(), hint.as_ref()).expect("first boot");
    let log_bytes =
        |c: &anubis::Reopened<FileBackend>| c.domain().device().backend().wal_stats().log_bytes;
    let mut acked = std::collections::BTreeMap::new();
    let (mut checkpoints, mut capture, mut after) = (0, Vec::new(), Vec::new());
    let mut last = log_bytes(&ctrl);
    let mut i = 0u64;
    while checkpoints < 2 || after.len() < 3 {
        let items: Vec<_> = (i..i + 8)
            .map(|j| {
                let line = j % HOME_LINES;
                (DataAddr::new(line), home_payload(j / HOME_LINES, line))
            })
            .collect();
        i += 8;
        ctrl.write_batch(&items).expect("prefill batch");
        acked.extend(items.iter().map(|&(addr, data)| (addr.index(), data)));
        if checkpoints == 2 {
            after.extend(items.iter().map(|&(addr, _)| addr.index()));
        }
        let now = log_bytes(&ctrl);
        if now < last {
            checkpoints += 1;
            if checkpoints == 1 {
                capture = fs::read(home_path_for(image)).expect("capture the home area");
            }
        }
        last = now;
    }
    // Half the cycle away from the last lines written: untouched since
    // the second checkpoint carried it home.
    let line = (i + HOME_LINES / 2) % HOME_LINES;
    assert!(!after.contains(&line));
    let untracked = ctrl.data_block(DataAddr::new(line)).index();
    drop(ctrl); // killed: no flush
    Prefilled {
        acked,
        capture,
        untracked,
    }
}

/// Boots `image` the way a server boots a tenant, reads back every
/// acknowledged line and then takes the fault path a failed read takes.
/// Each read must return the acknowledged value or a typed error, and
/// the image must end refused: by the open, by the boot's ladder or by
/// that recovery — never served stale.
fn boot_and_read_back(
    family: Family,
    image: &Path,
    acked: &std::collections::BTreeMap<u64, Block>,
    label: &str,
) -> String {
    let backend = match FileBackend::open_with_anchor(image, key(), AnchorPolicy::Strict) {
        Ok(backend) => backend,
        Err(e) => return format!("open: {e}"),
    };
    let (mut ctrl, hint) = family.reopen(&cfg(), backend);
    if let Err(e) = supervisor::resume(ctrl.as_mut(), hint.as_ref()) {
        assert!(
            e.is_refusal(),
            "{label}: the boot must refuse, not fail: {e}"
        );
        return format!("boot: {e}");
    }
    for (&line, &value) in acked {
        if let Ok(got) = ctrl.read(DataAddr::new(line)) {
            assert_eq!(got, value, "{label}: line {line} served stale");
        }
    }
    let err = supervisor::recover(ctrl.as_mut()).expect_err("recovery over the image must refuse");
    assert!(
        err.is_refusal(),
        "the recovery must refuse, not fail: {err}"
    );
    format!("recover: {err}")
}

#[test]
fn a_home_area_flipped_or_rolled_back_at_rest_ends_refused_never_served_stale() {
    for family in Family::all() {
        let base = tmp(&format!("home-{}", family.name()));
        cleanup(&base);
        let prefilled = prefill_past_a_checkpoint(family, &base);
        for attack in [HomeAttack::FlipHeldSlot, HomeAttack::RollBackPastCheckpoint] {
            let image = tmp(&format!("home-{}-{attack:?}", family.name()));
            cleanup(&image);
            anubis_nvm::copy_image(&base, &image).expect("copy the image");
            let home = home_path_for(&image);
            let mut bytes = fs::read(&home).expect("read the home area");
            match attack {
                HomeAttack::FlipHeldSlot => {
                    let at = prefilled.untracked as usize * HOME_SLOT_BYTES;
                    assert_eq!(bytes[at], 0xB5, "the slot holds a block");
                    bytes[at + 9] ^= 0x04;
                }
                HomeAttack::RollBackPastCheckpoint => {
                    assert_ne!(bytes, prefilled.capture);
                    bytes.clone_from(&prefilled.capture);
                }
            }
            fs::write(&home, &bytes).expect("write the home area");
            let label = format!("{} {attack:?}", family.name());
            let how = boot_and_read_back(family, &image, &prefilled.acked, &label);
            println!("{label}: refused at {how}");
            cleanup(&image);
        }
        cleanup(&base);
    }
}
