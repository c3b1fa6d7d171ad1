//! What a file image holds after a fixed served-shape history, pinned per
//! family: a change below the controller that must not move a stored byte
//! (the file backend's in-memory bookkeeping, the persistence domain's
//! queues) must leave these digests as they are.
//!
//! One seeded stream per family, over an anchored image booted the way a
//! server boots a tenant (`Family::reopen`, `supervisor::resume`):
//! - a prefill of [`PREFILL`] lines in [`PREFILL_BATCH`]-line batches,
//!   which crosses [`CHECKPOINT_BYTES`] at least once;
//! - [`SCALARS`] Zipf(0.9) scalar writes, then [`BATCHES`] batches of
//!   [`BATCH`] Zipf lines;
//! - a kill (the controller dropped: every acknowledged op ended in a
//!   synced barrier), an anchored reopen and `resume`;
//! - one line made unreadable at rest (two bit flips in one word, beyond
//!   the ECC), and `supervisor::recover`, which quarantines it.
//!
//! The digest folds the log, home-area and anchor bytes, the backend's
//! `WalStats`, the device's statistics since the reboot and the
//! backend's wear count of every block it holds. A failing pin prints the
//! new digest.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use anubis::{supervisor, AnubisConfig, DataAddr, Family, RecoveryOutcome, Reopened};
use anubis_nvm::{
    anchor_path_for, home_path_for, AnchorPolicy, Block, BlockAddr, FileBackend, NvmBackend,
    SplitMix64, CHECKPOINT_BYTES,
};
use anubis_sim::campaign::{fnv1a64, FNV1A64_EMPTY};
use anubis_sim::fault::op_payload;
use anubis_workloads::Zipf;

const PREFILL: u64 = 4_096;
const PREFILL_BATCH: u64 = 512;
const SCALARS: u64 = 500;
const BATCHES: u64 = 50;
const BATCH: usize = 32;
/// The line damaged at rest: a hot one, so recovery meets it.
const DAMAGED: u64 = 3;

fn config() -> AnubisConfig {
    AnubisConfig::small_test()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anubis-image-pin-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn boot(family: Family, image: &Path) -> Reopened<FileBackend> {
    let backend = FileBackend::open_with_anchor(image, config().key.0, AnchorPolicy::Strict)
        .expect("open image");
    let (mut ctrl, hint) = family.reopen(&config(), backend);
    let sup = supervisor::resume(ctrl.as_mut(), hint.as_ref()).expect("boot");
    assert_eq!(sup.outcome, RecoveryOutcome::Recovered, "{}", family.name());
    ctrl
}

/// [`BATCH`] distinct Zipf lines, each with the payload of write `op`.
fn zipf_batch(zipf: &Zipf, rng: &mut SplitMix64, op: u64) -> Vec<(DataAddr, Block)> {
    let mut lines = BTreeMap::new();
    while lines.len() < BATCH {
        let addr = zipf.sample(rng);
        lines.insert(addr, op_payload(op, addr));
    }
    (lines.into_iter())
        .map(|(addr, data)| (DataAddr::new(addr), data))
        .collect()
}

fn image_digest(family: Family) -> u64 {
    let dir = scratch(family.name());
    let image = dir.join("tenant.wal");
    let mut ctrl = boot(family, &image);
    for b in 0..PREFILL / PREFILL_BATCH {
        let items: Vec<_> = (b * PREFILL_BATCH..(b + 1) * PREFILL_BATCH)
            .map(|addr| (DataAddr::new(addr), op_payload(b, addr)))
            .collect();
        ctrl.write_batch(&items).expect("prefill batch");
    }
    let home = home_path_for(&image);
    assert!(
        fs::metadata(&home).is_ok_and(|m| m.len() > 0),
        "the prefill crosses {CHECKPOINT_BYTES} log bytes"
    );
    let zipf = Zipf::new(PREFILL, 0.9);
    let mut rng = SplitMix64::new(0x1ADE_2019);
    for op in 0..SCALARS {
        let addr = zipf.sample(&mut rng);
        (ctrl.write(DataAddr::new(addr), op_payload(PREFILL + op, addr))).expect("write");
    }
    for b in 0..BATCHES {
        let items = zipf_batch(&zipf, &mut rng, PREFILL + SCALARS + b);
        ctrl.write_batch(&items).expect("batch");
    }
    drop(ctrl);

    let mut ctrl = boot(family, &image);
    // The data region starts at block 0 (`tests/region_map.rs`).
    let at = BlockAddr::new(DAMAGED);
    ctrl.domain_mut().device_mut().tamper_flip_bit(at, 130);
    ctrl.domain_mut().device_mut().tamper_flip_bit(at, 133);
    ctrl.barrier().expect("barrier");
    let sup = supervisor::recover(ctrl.as_mut()).expect("recover");
    assert_eq!(sup.quarantined_lines, 1, "{}: {sup:?}", family.name());

    let mut h = FNV1A64_EMPTY;
    let backend = ctrl.domain().device().backend();
    let wal = backend.wal_stats();
    for word in [wal.log_bytes, wal.slack_bytes, wal.records_coalesced] {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    let stats = ctrl.domain().device().stats().snapshot();
    h = fnv1a64(h, format!("{stats:?}").as_bytes());
    for (phys, _) in backend.entries() {
        h = fnv1a64(h, &phys.to_le_bytes());
        h = fnv1a64(h, &backend.writes_to(phys).to_le_bytes());
    }
    drop(ctrl);
    for file in [image.clone(), home, anchor_path_for(&image)] {
        h = fnv1a64(h, b"|");
        h = fnv1a64(h, &fs::read(&file).expect("image file"));
    }
    let _ = fs::remove_dir_all(&dir);
    h
}

#[test]
fn agit_plus_image_is_pinned() {
    assert_eq!(
        image_digest(Family::BonsaiAgitPlus),
        6_375_644_957_081_066_393
    );
}

#[test]
fn asit_image_is_pinned() {
    assert_eq!(image_digest(Family::SgxAsit), 1_933_962_273_442_051_752);
}
