//! The checkpoint of the file-backed image, from outside the backend.
//!
//! An image is a home area — block *i* in slot *i* — and a log of what
//! changed since the last checkpoint. A checkpoint writes the value the
//! log replays every address it holds to into that address's slot,
//! syncs the home area and only then renames a new log into place, so:
//!
//! * an open walks at most the checkpoint bound of log, however long the
//!   history behind the image — a count of bytes, not a time; and
//! * a kill anywhere inside a checkpoint leaves a state that reopens to
//!   the same blocks, registers and epoch as the checkpoint's end. Each
//!   such state is built here by file surgery on copies: the old log over
//!   any prefix of the slot writes (cut at any byte, a torn last slot
//!   included), the old log over all of them, and the new log over the
//!   synced home area.

use std::fs;
use std::path::{Path, PathBuf};

use anubis_nvm::{
    anchor_path_for, copy_image, home_path_for, AnchorPolicy, Block, FileBackend, Freshness,
    MemBackend, NvmBackend, SplitMix64, CHECKPOINT_BYTES,
};

const KEY: [u64; 2] = [0xC4EC_4901_0000_0028, 0x0000_B0DE_D000_0028];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anubis-checkpoint-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn open(image: &Path) -> FileBackend {
    FileBackend::open_with_anchor(image, KEY, AnchorPolicy::Strict).expect("anchored open")
}

/// What an image replays to: its blocks, its registers and its epoch.
type State = (Vec<(u64, Block)>, Vec<(u8, Block)>, u64);

fn state(b: &FileBackend) -> State {
    (b.entries(), b.regs(), b.epoch())
}

/// The bytes of a file, or none where it does not exist.
fn bytes(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_default()
}

/// One operation's worth of records: stores to eight of `addrs`
/// addresses and a register, as a controller's commit groups leave them.
fn op(rng: &mut SplitMix64, addrs: u64, backends: &mut [&mut dyn NvmBackend]) {
    for _ in 0..8 {
        let (phys, fill) = (rng.next_u64() % addrs, rng.next_u64() as u8);
        for b in backends.iter_mut() {
            b.store(phys, Block::filled(fill));
        }
    }
    let root = Block::from_words([rng.next_u64(), 0, 0, 0, 0, 0, 0, 1]);
    for b in backends.iter_mut() {
        b.store_reg(0, root);
    }
}

#[test]
fn an_open_walks_at_most_the_checkpoint_bound_of_log() {
    // An op is 8 block records and a register record in one frame: about
    // 670 bytes. Histories of 1×, 4× and 16× the bound of such frames.
    const OP_BYTES: u64 = 20 + 8 * 73 + 66 + 1;
    for times in [1, 4, 16] {
        let dir = scratch(&format!("bounded-{times}"));
        let image = dir.join("image.wal");
        let mut file = open(&image);
        let header = file.wal_stats().log_bytes;
        let mut mem = MemBackend::new();
        let mut rng = SplitMix64::new(0xB0DE_D000 + times);
        let ops = times * CHECKPOINT_BYTES / OP_BYTES;
        for _ in 0..ops {
            op(&mut rng, 4_096, &mut [&mut file, &mut mem]);
            file.barrier().expect("barrier");
        }
        assert_eq!(file.epoch(), ops, "{times}x: one epoch per frame");
        drop(file); // killed: no shutdown

        let reopened = open(&image);
        let walked = reopened.wal_stats().log_bytes;
        assert!(
            walked <= header + CHECKPOINT_BYTES,
            "{times}x: the open walked {walked} bytes of log"
        );
        assert_eq!(reopened.freshness(), Freshness::Fresh { epoch: ops });
        assert_eq!(
            (reopened.entries(), reopened.regs()),
            (mem.entries(), mem.regs()),
            "{times}x: the image replays to the history"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Drives split barriers — stores, journaled records that never drain,
/// a register — until a committed cut leaves a checkpoint due, and
/// returns with the checkpoint not yet run.
fn until_due(b: &mut FileBackend, rng: &mut SplitMix64) {
    loop {
        op(rng, 512, &mut [&mut *b]);
        let journaled = 512 + rng.next_u64() % 64;
        b.journal(journaled, Block::filled(rng.next_u64() as u8));
        let cut = b.cut().expect("records are buffered");
        let due = cut.wants_settle();
        cut.commit().expect("the frame");
        if due {
            return;
        }
    }
}

/// Writes one state a kill can leave beside `at`: `log` as the log,
/// `home` as the home area and `anchor`, plus what a checkpoint wrote
/// aside and never renamed, if anything.
fn stage(at: &Path, log: &[u8], home: &[u8], anchor: &[u8], aside: Option<&[u8]>) {
    fs::write(at, log).expect("log");
    fs::write(home_path_for(at), home).expect("home area");
    fs::write(anchor_path_for(at), anchor).expect("anchor");
    let tmp = at.with_extension("checkpoint-tmp");
    match aside {
        Some(new_log) => fs::write(tmp, new_log).expect("new log, not renamed"),
        None => {
            let _ = fs::remove_file(tmp);
        }
    }
}

#[test]
fn every_state_a_kill_inside_a_checkpoint_leaves_reopens_alike() {
    let dir = scratch("kill-inside");
    let (image, before, work) = (
        dir.join("image.wal"),
        dir.join("before.wal"),
        dir.join("work.wal"),
    );
    let mut b = open(&image);
    let mut rng = SplitMix64::new(0x0C4E_C4B0_1D00_0028);
    // The first checkpoint creates the home area; the second overwrites
    // slots of it.
    for round in 0..2 {
        until_due(&mut b, &mut rng);
        copy_image(&image, &before).expect("the image before the checkpoint");
        let log = b.wal_stats().log_bytes;
        b.settle().expect("the checkpoint");
        assert!(
            b.wal_stats().log_bytes < log,
            "round {round}: it checkpointed"
        );
        copy_image(&image, &work).expect("the image after it");
        let want = state(&open(&work));
        assert_eq!(
            want.2,
            b.epoch(),
            "round {round}: a checkpoint takes no epoch"
        );

        let (old_log, old_home) = (bytes(&before), bytes(&home_path_for(&before)));
        let (new_log, new_home) = (bytes(&image), bytes(&home_path_for(&image)));
        let anchor = bytes(&anchor_path_for(&before));
        assert_eq!(
            anchor,
            bytes(&anchor_path_for(&image)),
            "the anchor is not resealed"
        );
        assert!(new_home.len() >= old_home.len() && new_home != old_home);

        // The old log over every prefix of the slot writes: at each slot
        // boundary and inside each slot, the rest of the home area as it
        // was. Slot writes go out in address order.
        let mut cuts: Vec<usize> = (0..=new_home.len()).step_by(65).collect();
        cuts.extend(
            (0..new_home.len())
                .step_by(65)
                .map(|slot| slot + 1 + slot % 64),
        );
        for cut in cuts {
            let mut home = new_home[..cut].to_vec();
            home.extend(old_home.get(cut..).unwrap_or_default());
            stage(&work, &old_log, &home, &anchor, None);
            assert_eq!(
                state(&open(&work)),
                want,
                "round {round}: slot writes cut at {cut}"
            );
        }
        // All of them, the new log written aside and not yet renamed — or
        // renamed, and the rename undone by a power loss.
        stage(&work, &old_log, &new_home, &anchor, Some(&new_log));
        assert_eq!(
            state(&open(&work)),
            want,
            "round {round}: before the rename"
        );
        stage(&work, &old_log, &new_home, &anchor, None);
        assert_eq!(
            state(&open(&work)),
            want,
            "round {round}: the rename undone"
        );
        // The new log over the synced home area.
        stage(&work, &new_log, &new_home, &anchor, None);
        assert_eq!(state(&open(&work)), want, "round {round}: after the rename");
    }
    drop(b);
    let _ = fs::remove_dir_all(&dir);
}
