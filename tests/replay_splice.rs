//! The replay splice at `anchored + 1`, pinned without a SIGKILL.
//!
//! An anchored open accepts an image one frame past its sealed anchor and
//! heals the anchor forward (DESIGN.md §14.1): that frame is the one an
//! honest crash fsyncs and dies before sealing. Under WAL format version
//! 3 anyone could write it — the frame checksum was keyless — so an old
//! frame's payload re-framed there was replayed as the newest state, and
//! some of those replays served an acknowledged line stale with no typed
//! error (`bench_campaign adversary`, `replay-splice-slack-1`, found in
//! some runs only, because the SIGKILL picks the epoch). The sweep here
//! drives a script of its own in process instead (one write per frame;
//! the served schedules of `bench_campaign adversary` sample one donor
//! per kill point) and, at every epoch of a window
//! and for every earlier payload-bearing donor frame, splices the donor's
//! payload at anchor + 1 on a copy, restarts it and audits it: every
//! pair, replayable. Since version 4 a frame's tag is keyed and chained
//! behind the frame before it, and every such splice is refused at open —
//! as are the two *genuine* frames an adversary could still move: one of
//! another history under the same key, and one of the log a checkpoint
//! replaced (a compaction, before version 5).

use std::fs;
use std::path::{Path, PathBuf};

use anubis::Family;
use anubis_nvm::{
    copy_image, AnchorPolicy, Block, FileBackend, Freshness, NvmBackend, WalFrame, WalWalker,
};
use anubis_sim::adversary::{splice_sweep, PUBLIC_WAL_KEY};
use anubis_sim::campaign::{ScriptSpec, Verdict};

/// A device key, for the histories built here by hand.
const KEY: [u64; 2] = [0x5EED_0000_0000_0022, 0x0000_5A1C_E000_0022];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anubis-splice-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Sweeps `drops` with the keyless forger, which frames under the one key
/// it knows, and demands a refusal at open for every (epoch, donor) pair.
/// `pairs` pins how many there are, so the sweep cannot go vacuous.
fn every_pair_is_refused(family: Family, drops: std::ops::Range<u64>, pairs: usize) {
    let spec = ScriptSpec {
        script_len: 400,
        lines: 220,
        seed: 0xAD7E_5A21,
    };
    let dir = scratch(family.name());
    let points = splice_sweep(family, &spec, drops.clone(), PUBLIC_WAL_KEY, &dir)
        .unwrap_or_else(|e| panic!("{}: sweep: {e}", family.name()));
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(points.len(), pairs, "{}: pairs swept", family.name());
    for epoch in drops {
        assert!(
            points.iter().any(|p| p.epoch == epoch),
            "{}: no drop at epoch {epoch}",
            family.name()
        );
    }
    for p in &points {
        match &p.verdict {
            Ok(Verdict::Refused { reason, .. }) => assert!(
                reason.contains("frame tag mismatch"),
                "{}: epoch {} donor {}: refused, but not by the tag: {reason}",
                family.name(),
                p.epoch,
                p.donor
            ),
            other => panic!(
                "{}: epoch {} donor {}: {other:?}",
                family.name(),
                p.epoch,
                p.donor
            ),
        }
    }
}

#[test]
fn every_one_epoch_replay_splice_is_refused_bonsai_agit_plus() {
    // Under version 3, 13 of these 584 pairs served stale (donors 4 and
    // 8 at epochs 33–42); 556 recovered in full, 15 declared damage.
    every_pair_is_refused(Family::BonsaiAgitPlus, 30..46, 584);
}

#[test]
fn every_one_epoch_replay_splice_is_refused_sgx_asit() {
    // Under version 3, 543 of these 1 077 pairs served stale (every donor
    // at epochs 181–183), the other 534 declared damage.
    every_pair_is_refused(Family::SgxAsit, 178..184, 1_077);
}

/// The image at `p`, tagged under [`KEY`]: bytes, frames, logical end.
fn layout(p: &Path) -> (Vec<u8>, Vec<WalFrame>, usize) {
    let bytes = fs::read(p).expect("read image");
    let mut walk = WalWalker::new(&bytes, KEY).expect("image header");
    let frames = walk
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("a clean log");
    let end = walk.logical_end();
    (bytes, frames, end)
}

/// Writes `donor` — a genuine frame of the image at `from` — verbatim at
/// the end of the log at `onto`, one epoch past its anchor, and opens
/// that under the anchor.
fn splice_genuine(from: &Path, donor: WalFrame, onto: &Path) -> Result<FileBackend, String> {
    let (donor_image, _, _) = layout(from);
    let (mut bytes, frames, end) = layout(onto);
    let last = frames.last().expect("a frame to splice behind");
    assert_eq!(
        donor.epoch,
        last.epoch + 1,
        "the donor lands in the heal window"
    );
    bytes[end..end + donor.len].copy_from_slice(&donor_image[donor.start..donor.end()]);
    fs::write(onto, &bytes).expect("write spliced image");
    FileBackend::open_with_anchor(onto, KEY, AnchorPolicy::Strict).map_err(|e| e.to_string())
}

#[test]
fn a_genuine_frame_of_a_foreign_history_is_refused_by_the_chain() {
    // Two histories under one key; the foreign one is a frame longer. Its
    // last frame is genuine — tagged under the key, at the epoch the heal
    // window admits — but chained behind a frame this log does not hold.
    // (Version 3 opened the splice as `Fresh` at that epoch.)
    let dir = scratch("foreign");
    let (ours, foreign) = (dir.join("ours.wal"), dir.join("foreign.wal"));
    for (image, fill, frames) in [(&ours, 0xA0u8, 8u64), (&foreign, 0xB0, 9)] {
        let mut b = FileBackend::open_with_anchor(image, KEY, AnchorPolicy::Strict).expect("open");
        for i in 0..frames {
            b.store(i, Block::filled(fill + i as u8));
            b.barrier().expect("barrier");
        }
    }
    let donor = *layout(&foreign).1.last().expect("the foreign frame");
    let err = splice_genuine(&foreign, donor, &ours).expect_err("a foreign frame");
    assert!(err.contains("frame tag mismatch"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_pre_compaction_frame_spliced_after_a_compaction_is_refused() {
    // One history up to the barrier that checkpoints its log (the
    // checkpoint of format 5 took the place of compaction; the name is
    // kept); a copy of the image from just before that barrier is then
    // continued, with other blocks, past the checkpointed log's epoch. Its
    // frame at that epoch + 1 is genuine and sits in the heal window, but
    // it chains behind another log than the checkpoint's: the checkpoint
    // frame opens with the tag of the frame it checkpointed, which the
    // copy's history does not share. (Version 3 opened such a splice as
    // `Fresh`.)
    let dir = scratch("compaction");
    let (image, old) = (dir.join("image.wal"), dir.join("old.wal"));
    let mut b = FileBackend::open_with_anchor(&image, KEY, AnchorPolicy::Strict).expect("open");
    for i in 0u64.. {
        copy_image(&image, &old).expect("copy the image before the checkpoint");
        let log = b.wal_stats().log_bytes;
        b.store(i % 64, Block::filled(i as u8));
        b.barrier().expect("barrier");
        if b.wal_stats().log_bytes < log {
            break;
        }
    }
    let checkpointed = b.epoch();
    drop(b);
    let frames = layout(&image).1;
    assert_eq!(frames.len(), 1, "the log was checkpointed");
    assert_eq!(frames[0].epoch, checkpointed, "at the epoch it checkpoints");

    let mut c = FileBackend::open_with_anchor(&old, KEY, AnchorPolicy::Strict).expect("reopen");
    assert_eq!(
        c.freshness(),
        Freshness::Fresh {
            epoch: checkpointed - 1
        }
    );
    while c.epoch() <= checkpointed {
        c.store(1_000 + c.epoch(), Block::filled(0xC0));
        c.barrier().expect("barrier");
    }
    drop(c);
    let donor = *layout(&old).1.last().expect("the old log's last frame");
    let err = splice_genuine(&old, donor, &image).expect_err("a frame of another chain");
    assert!(err.contains("frame tag mismatch"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
