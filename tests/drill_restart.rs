//! Restart-survivability drills over the file-backed NVM device.
//!
//! `tests/crash_matrix.rs` and friends crash controllers *in process*:
//! the device image survives because it shares the address space. These
//! tests cross the process-death boundary instead (without actually
//! spawning processes — `bench_campaign drill` does that): a controller serves a
//! deterministic script against an anchored [`FileBackend`] image, the
//! image and its anchor are copied at arbitrary acknowledgement points
//! (byte-identical to what a SIGKILL at that instant would leave on disk,
//! since every ack rides a synced barrier and seal), and a **fresh
//! controller in a fresh device** must reopen the copy, recover, and
//! serve exactly what the drill's epoch table says the copy owes.
//!
//! Also covered here: the write-cut (dying platform) primitive must
//! suppress file-backend flushes so an unacknowledged tail never leaks
//! into the image; a post-recovery image, copied and reopened, must
//! replay to the pinned state and reload its remap table; and a
//! corrupted persisted quarantine table must surface as a
//! typed [`RecoveryError::CorruptImage`] hint that enters the supervisor
//! ladder at `targeted` via [`supervisor::repair_then_recover`].
//!
//! The last section pins the op-scoped durability barrier: every public
//! controller op — a 32-line `write_batch`, a write that re-encrypts a
//! whole page — is exactly one WAL frame and one anchor seal, so a dropped
//! process keeps every acknowledged batch and a torn tail frame removes
//! the unacknowledged batch as a whole. Frames land in preallocated
//! slack, so the image is addressed through the backend's own frame
//! walker, never by file length. With the barrier split from execution
//! (`*_deferred` + `barrier`): a process that dies between the two
//! leaves not a byte of the executed op behind, several ops behind one
//! barrier are one frame and are torn away together, and a write before
//! `recover()` on a reopened image is a typed refusal, not a panic.

use std::fs;
use std::path::{Path, PathBuf};

use anubis::{
    supervisor, AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, Family, MemError,
    MemoryController, RecoveryError, SgxController, SgxScheme, Supervised,
};
use anubis_nvm::{
    anchor_path_for, home_path_for, AnchorPolicy, Block, FileBackend, Freshness, FreshnessAnchor,
    NvmBackend, WalFrame, WalWalker, BLOCK_BYTES,
};
use anubis_sim::campaign::{drive, fnv1a64, Done, Stop, FNV1A64_EMPTY};
use anubis_sim::drill::{drill_script, verify_dead_image, EpochTable};
use anubis_sim::fault::{op_payload, ScriptOp};

fn config() -> AnubisConfig {
    AnubisConfig::small_test()
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anubis-drill-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Opens `image` under the device key and the strict anchor: the one open.
fn open(image: &Path) -> FileBackend {
    FileBackend::open_with_anchor(image, config().key.0, AnchorPolicy::Strict)
        .expect("anchored open")
}

/// Copies an image: what a kill at that instant leaves.
fn copy_image(from: &Path, to: &Path) {
    anubis_nvm::copy_image(from, to).expect("copy image");
}

/// Restarts a dead image over a copy and demands full recovery against
/// the exact model `table` gives at the epoch it opens at. Returns that
/// epoch.
fn verify(family: Family, image: &Path, table: &EpochTable, lines: u64) -> u64 {
    let (epoch, _) = verify_dead_image(family, image, |epoch| table.model(epoch, lines))
        .unwrap_or_else(|e| panic!("{} {}: {e}", family.name(), image.display()));
    epoch
}

/// Runs supervised recovery on a freshly (re)opened controller, entering
/// at `targeted` when reopen produced a corruption hint.
fn recover_fresh<C: Supervised + ?Sized>(ctrl: &mut C, hint: Option<RecoveryError>) {
    supervisor::resume(ctrl, hint.as_ref()).expect("recovery of reopened image");
}

/// Plays `script` to its end, panicking on any controller error, and
/// returns `(op index, addr)` per acknowledged write.
/// `acked(n)` runs right after the `n`-th acknowledgement.
fn serve<C: MemoryController + ?Sized>(
    ctrl: &mut C,
    script: &[ScriptOp],
    mut acked: impl FnMut(usize),
) -> Vec<(u64, u64)> {
    let mut log = Vec::new();
    let stop = drive(ctrl, script, |i, addr, what| {
        if let Done::Wrote(_) = what {
            log.push((i, addr));
            acked(log.len());
        }
        Ok::<(), std::convert::Infallible>(())
    });
    assert_eq!(stop, Ok(Stop::Completed), "drill script failed");
    log
}

/// Image copies taken mid-run, as `(path, acks-at-copy)` pairs.
type ImageCopies = Vec<(PathBuf, usize)>;

/// The in-process restart drill: the image and its anchor are copied at
/// the given ack counts and at the end, and every copy must recover in a
/// fresh controller to exactly the writes acknowledged before it — the
/// epoch table of a dry run of the same script says so from the epoch
/// the copy opens at.
fn in_process_drill(family: Family) {
    let dir = scratch(family.name());
    let image = dir.join("image.wal");
    let script = drill_script(400, 300, 0xD1A7);
    let table = EpochTable::dry_run(family, &script, &dir.join("dry.wal")).expect("dry run");
    let (mut ctrl, hint) = family.reopen(&config(), open(&image));
    recover_fresh(ctrl.as_mut(), hint);
    let mut copies: ImageCopies = Vec::new();
    let acked = serve(ctrl.as_mut(), &script, |n| {
        if [5, 60, 200].contains(&n) {
            let copy = dir.join(format!("at{n}.wal"));
            copy_image(&image, &copy);
            copies.push((copy, n));
        }
    });
    let fin = dir.join("final.wal");
    copy_image(&image, &fin);
    copies.push((fin, acked.len()));
    assert!(acked.len() > 200, "script should ack >200 writes");
    for (copy, n) in &copies {
        let epoch = verify(family, copy, &table, 300);
        assert_eq!(
            table.owed(epoch),
            *n as u64,
            "{}: copy at {n} acks",
            family.name()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_drill_in_process_bonsai_agit_plus() {
    in_process_drill(Family::BonsaiAgitPlus);
}

#[test]
fn restart_drill_in_process_sgx_asit() {
    in_process_drill(Family::SgxAsit);
}

/// Raw fingerprint of an image file: its replayed blocks and registers,
/// independent of any controller. Taken over a copy: the image may be
/// live, and an anchored open of it could reseal its anchor.
fn raw_fingerprint(image: &Path) -> u64 {
    let copy = image.with_extension("fingerprint.wal");
    copy_image(image, &copy);
    let backend = open(&copy);
    for stale in [&copy, &home_path_for(&copy), &anchor_path_for(&copy)] {
        let _ = fs::remove_file(stale);
    }
    let mut h = FNV1A64_EMPTY;
    for (phys, block) in backend.entries() {
        h = fnv1a64(fnv1a64(h, &phys.to_le_bytes()), block.as_bytes());
    }
    for (idx, block) in backend.regs() {
        h = fnv1a64(fnv1a64(h, &[idx]), block.as_bytes());
    }
    h
}

#[test]
fn write_cut_mid_recovery_suppresses_file_backend_flushes() {
    let dir = scratch("write-cut");
    let image = dir.join("image.wal");
    let cfg = config();
    let script = drill_script(150, 100, 0xC07);
    let table = EpochTable::dry_run(Family::BonsaiAgitPlus, &script, &dir.join("dry.wal"))
        .expect("dry run");
    {
        let (mut ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, open(&image));
        recover_fresh(&mut ctrl, hint);
        serve(&mut ctrl, &script, |_| {});

        // Power dies again one device write into the recovery attempt:
        // everything the aborted recovery does past that instant must
        // stay off the image.
        ctrl.crash();
        ctrl.domain_mut().device_mut().arm_write_cut(1);
        let _ = supervisor::recover(&mut ctrl);
        assert!(
            ctrl.domain().device().write_cut_fired(),
            "recovery of a dirty crash must write (cut never fired)"
        );
        assert!(
            ctrl.domain().device().backend().flushes_suppressed(),
            "write cut must suppress file-backend flushes"
        );
        let frozen = raw_fingerprint(&image);

        // A dying platform persists nothing more: further traffic and
        // explicit barriers must leave the image byte-identical.
        let _ = ctrl.write(DataAddr::new(1), op_payload(9_999, 1));
        ctrl.domain_mut().drain_wpq();
        assert_eq!(
            raw_fingerprint(&image),
            frozen,
            "dropped tail leaked into the image after the cut instant"
        );
    }
    // The restarted machine reopens the half-recovered image and must
    // still serve every write acknowledged before the first crash.
    let epoch = verify(Family::BonsaiAgitPlus, &image, &table, 100);
    assert!(
        epoch >= table.final_epoch(),
        "restart after mid-recovery cut"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The scrub reads every line deferred and takes one barrier per pass.
/// Held against the fused scrub it replaced — rung 1, then a fused
/// `read()` of every line, one barrier each — over two copies of one
/// killed image: the durable image afterwards (what a reopen of the file
/// replays, so anything left buffered would be missing from it) is
/// block-for-block and register-for-register the same, and the ladder
/// cut at most as many frames.
#[test]
fn the_scrub_takes_one_barrier_per_pass_and_leaves_the_fused_image() {
    for family in Family::all() {
        let name = family.name();
        let dir = scratch(&format!("scrub-{name}"));
        let killed = dir.join("killed.wal");
        {
            let (mut ctrl, hint) = family.reopen(&config(), open(&killed));
            recover_fresh(ctrl.as_mut(), hint);
            serve(ctrl.as_mut(), &drill_script(400, 300, 0x5C2B), |_| {});
        }
        let frames = |copy: &str, ladder: &dyn Fn(&mut dyn Supervised<Backend = FileBackend>)| {
            let image = dir.join(copy);
            copy_image(&killed, &image);
            let (mut ctrl, hint) = family.reopen(&config(), open(&image));
            assert_eq!(hint, None, "{name}: a killed image raises no hint");
            let before = ctrl.domain().epoch();
            ladder(ctrl.as_mut());
            let backend = ctrl.domain().device().backend();
            assert_eq!(
                backend.ticket(),
                backend.epoch(),
                "{name} {copy}: nothing is left buffered"
            );
            (backend.epoch() - before, raw_fingerprint(&image))
        };
        let (ladder_frames, ladder_image) = frames("ladder.wal", &|ctrl| {
            supervisor::recover(ctrl).expect("full ladder");
        });
        let (fused_frames, fused_image) = frames("fused.wal", &|ctrl| {
            ctrl.recover().expect("rung 1");
            for line in 0..ctrl.data_lines() {
                ctrl.read(DataAddr::new(line)).expect("fused scrub read");
            }
        });
        assert_eq!(ladder_image, fused_image, "{name}: durable image");
        // Rung 1's power-up and the one clean pass: two barriers at most
        // (sgx-asit's fused scrub of this image cuts 40 frames).
        assert!(
            ladder_frames <= fused_frames.min(2),
            "{name}: the ladder cut {ladder_frames} frames, the fused scrub {fused_frames}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// What a recovered image leaves on disk is what the next process
/// opens. After a drill script, a persisted quarantine, a crash and the
/// whole ladder, a copy of the image reopens in a fresh controller with
/// no hint and the recovered remap table, replays to the pinned raw
/// fingerprint, and serves every acknowledged write (the script never
/// writes the quarantined line, so no acknowledged content is retired).
///
/// `counts_pin` pins what does not hash the image: the ladder's
/// accounting and the device's statistics after it, then every line the
/// recovered controller reads back. A change to the hash or MAC
/// functions moves `pin` and must leave `counts_pin` where it is.
fn post_recovery_image_reopens(family: Family, pin: u64, counts_pin: u64) {
    let name = family.name();
    let dir = scratch(&format!("post-recovery-{name}"));
    let image = dir.join("image.wal");
    let script = drill_script(300, 200, 0x5EED);
    let epochs = EpochTable::dry_run(family, &script, &dir.join("dry.wal")).expect("dry run");
    let (mut ctrl, hint) = family.reopen(&config(), open(&image));
    recover_fresh(ctrl.as_mut(), hint);
    serve(ctrl.as_mut(), &script, |_| {});
    // A non-trivial remap table, persisted, so the image carries it.
    ctrl.quarantine_line(DataAddr::new(3)).expect("quarantine");
    ctrl.persist_quarantine();
    ctrl.crash();
    let out = supervisor::recover(ctrl.as_mut())
        .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
    let stats = ctrl.domain().device().stats().snapshot();
    let mut counts = fnv1a64(FNV1A64_EMPTY, format!("{out:?} {stats:?}").as_bytes());
    let table = |c: &dyn Supervised<Backend = FileBackend>| {
        let t = c.domain().device().quarantine_table();
        (t.mappings().collect::<Vec<_>>(), t.lost_lines())
    };
    let recovered = table(ctrl.as_ref());
    assert_eq!(recovered.0.len(), 1, "{name}: one line quarantined");
    let copy = dir.join("copy.wal");
    copy_image(&image, &copy);

    let digest = raw_fingerprint(&copy);
    let (fresh, hint) = family.reopen(&config(), open(&copy));
    assert_eq!(hint, None, "{name}: a recovered image raises no hint");
    assert_eq!(table(fresh.as_ref()), recovered, "{name}: remap table");
    drop(fresh);
    assert_eq!(
        digest, pin,
        "{name}: post-recovery image fingerprint is now {digest:#018x}"
    );
    verify(family, &copy, &epochs, 200);
    for line in 0..200 {
        let read = ctrl.read(DataAddr::new(line));
        counts = fnv1a64(counts, format!("{line} {read:?}").as_bytes());
    }
    assert_eq!(
        counts, counts_pin,
        "{name}: post-recovery counts digest is now {counts:#018x}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn post_recovery_image_reopens_to_its_pinned_state_bonsai_agit_plus() {
    post_recovery_image_reopens(
        Family::BonsaiAgitPlus,
        0xe224_1cb5_c7f5_ac13,
        0x5ff0_99e1_ed72_0274,
    );
}

#[test]
fn post_recovery_image_reopens_to_its_pinned_state_sgx_asit() {
    post_recovery_image_reopens(
        Family::SgxAsit,
        0x3e7b_e789_2b5f_e3ec,
        0xdf0d_d1c8_4534_00f7,
    );
}

#[test]
fn corrupt_qtable_image_is_typed_and_feeds_rung_three() {
    let dir = scratch("corrupt-qtable");
    let image = dir.join("image.wal");
    let cfg = config();
    let script = drill_script(120, 80, 0xBAD5EED);
    let acked;
    {
        let (mut ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, open(&image));
        recover_fresh(&mut ctrl, hint);
        acked = serve(&mut ctrl, &script, |_| {});
        // Poison the persisted quarantine-table header in the image.
        let qaddr = ctrl.layout().qtable_addr(0);
        ctrl.domain_mut()
            .device_mut()
            .poke(qaddr, Block::from_bytes([0xFF; BLOCK_BYTES]));
        ctrl.domain_mut().drain_wpq();
    }
    let (mut ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, open(&image));
    let err = hint.expect("corrupt qtable must surface a typed reopen hint");
    assert!(
        matches!(
            err,
            RecoveryError::CorruptImage {
                what: "quarantine table"
            }
        ),
        "unexpected hint: {err}"
    );
    let out = supervisor::repair_then_recover(&mut ctrl, &err)
        .expect("a `targeted` entry must still recover the image");
    assert!(
        out.escalations >= 1,
        "a `targeted` entry must count an escalation"
    );
    for &(i, addr) in &acked {
        let want = op_payload(i, addr);
        let last = acked
            .iter()
            .rev()
            .find(|&&(_, a)| a == addr)
            .expect("addr is in the log");
        if last.0 != i {
            continue; // overwritten later; only the final payload must survive
        }
        assert_eq!(
            ctrl.read(DataAddr::new(addr)).expect("post-recovery read"),
            want,
            "acked write at op {i} lost after a `targeted` entry"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Op-scoped durability barrier: one frame + one anchor seal per public op
// ---------------------------------------------------------------------

const BATCH_LINES: u64 = 32;

type Reopen<C> = fn(FileBackend) -> (C, Option<RecoveryError>);

fn reopen_agit_plus(b: FileBackend) -> (BonsaiController<FileBackend>, Option<RecoveryError>) {
    BonsaiController::reopen(BonsaiScheme::AgitPlus, &config(), b)
}

fn reopen_asit(b: FileBackend) -> (SgxController<FileBackend>, Option<RecoveryError>) {
    SgxController::reopen(SgxScheme::Asit, &config(), b)
}

/// Opens `image` under its sealed anchor (strict policy: a rolled-back
/// or anchor-less image would surface as a refusal) and runs supervised
/// recovery.
fn open_anchored<C: Supervised>(reopen: Reopen<C>, image: &Path) -> C {
    let (mut ctrl, hint) = reopen(open(image));
    recover_fresh(&mut ctrl, hint);
    ctrl
}

/// Batch `b`: 32 lines nobody else writes, so a batch that never became
/// durable reads back as zeroes and one that did as its own payloads.
fn batch_items(b: u64) -> Vec<(DataAddr, Block)> {
    (b * BATCH_LINES..(b + 1) * BATCH_LINES)
        .map(|addr| (DataAddr::new(addr), op_payload(b, addr)))
        .collect()
}

/// The contract every returned op leaves behind: the sealed anchor has
/// caught up with the image, so no acknowledgement ever precedes its
/// frame's fsync or its seal.
fn assert_sealed<C: Supervised>(ctrl: &C, image: &Path, what: &str) {
    let sealed = FreshnessAnchor::probe(&anchor_path_for(image), config().key.0)
        .expect("anchor readable")
        .expect("anchor present");
    assert_eq!(
        sealed,
        ctrl.domain().epoch(),
        "{what}: sealed anchor and image epoch disagree after the op returned"
    );
}

/// Writes batches `0..n` (asserting one frame and several commit groups
/// per batch, and the seal after each) and returns the controller.
fn serve_batches<C: Supervised>(reopen: Reopen<C>, image: &Path, n: u64) -> C {
    let mut ctrl = open_anchored(reopen, image);
    for b in 0..n {
        let (epoch, groups) = (ctrl.domain().epoch(), ctrl.domain().commits());
        ctrl.write_batch(&batch_items(b)).expect("write_batch");
        assert_eq!(
            ctrl.domain().epoch() - epoch,
            1,
            "batch {b}: a 32-line write_batch must be exactly one frame"
        );
        assert!(
            ctrl.domain().commits() - groups > 1,
            "batch {b}: 32 lines must span several commit groups"
        );
        assert_sealed(&ctrl, image, "write_batch");
    }
    ctrl
}

fn assert_batch_reads<C: Supervised>(ctrl: &mut C, b: u64, present: bool) {
    for (addr, payload) in batch_items(b) {
        let want = if present { payload } else { Block::zeroed() };
        assert_eq!(
            ctrl.read(addr).expect("post-recovery read"),
            want,
            "batch {b}, line {}: expected the batch wholly {}",
            addr.index(),
            if present { "present" } else { "absent" }
        );
    }
}

/// Every public op is at most one frame, and the seal follows it.
fn one_frame_per_op<C: Supervised>(reopen: Reopen<C>, name: &str) {
    let dir = scratch(&format!("frames-{name}"));
    let image = dir.join("image.wal");
    let mut ctrl = serve_batches(reopen, &image, 8);
    for k in 0..48u64 {
        let addr = DataAddr::new((k * 7) % (8 * BATCH_LINES));
        let epoch = ctrl.domain().epoch();
        ctrl.write(addr, op_payload(1_000 + k, addr.index()))
            .expect("scalar write");
        assert_eq!(
            ctrl.domain().epoch() - epoch,
            1,
            "{name}: a scalar write is one frame"
        );
        assert_sealed(&ctrl, &image, "write");
        let epoch = ctrl.domain().epoch();
        ctrl.read(DataAddr::new(k * 5)).expect("read");
        assert!(
            ctrl.domain().epoch() - epoch <= 1,
            "{name}: a read is at most one frame (its fills' shadow traffic)"
        );
        assert_sealed(&ctrl, &image, "read");
    }
    let epoch = ctrl.domain().epoch();
    ctrl.shutdown_flush().expect("shutdown_flush");
    assert!(
        ctrl.domain().epoch() - epoch <= 1,
        "{name}: shutdown_flush is at most one frame"
    );
    assert_sealed(&ctrl, &image, "shutdown_flush");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_op_is_one_frame_bonsai_agit_plus() {
    one_frame_per_op(reopen_agit_plus, "agit-plus");
}

#[test]
fn every_op_is_one_frame_sgx_asit() {
    one_frame_per_op(reopen_asit, "asit");
}

#[test]
fn minor_overflow_page_reencryption_is_one_frame() {
    let dir = scratch("reenc");
    let image = dir.join("image.wal");
    // 1024 live lines first: the log stays far below its compaction
    // threshold, so the only epoch bumps below are frames.
    let mut ctrl = serve_batches(reopen_agit_plus, &image, 32);
    let hot = DataAddr::new(5);
    let mut reencrypted = false;
    for k in 0..130u64 {
        let (epoch, groups) = (ctrl.domain().epoch(), ctrl.domain().commits());
        ctrl.write(hot, op_payload(k, hot.index()))
            .expect("hot-line write");
        assert_eq!(
            ctrl.domain().epoch() - epoch,
            1,
            "write {k}: one frame, however many groups it took"
        );
        assert_sealed(&ctrl, &image, "hot-line write");
        // 64 per-line groups plus the log set-up, besides the write's own.
        reencrypted |= ctrl.domain().commits() - groups >= 65;
    }
    assert!(
        reencrypted,
        "130 writes to one line must overflow its 7-bit minor counter"
    );
    drop(ctrl);
    let mut ctrl = open_anchored(reopen_agit_plus, &image);
    assert_eq!(
        ctrl.read(hot).expect("hot line after restart"),
        op_payload(129, hot.index())
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Acknowledged batches survive a process that dies without
/// `shutdown_flush`.
fn acked_batches_survive_drop<C: Supervised>(reopen: Reopen<C>, name: &str) {
    const BATCHES: u64 = 12;
    let dir = scratch(&format!("acked-{name}"));
    let image = dir.join("image.wal");
    drop(serve_batches(reopen, &image, BATCHES));

    let mut ctrl = open_anchored(reopen, &image);
    for b in 0..BATCHES {
        assert_batch_reads(&mut ctrl, b, true);
    }
    assert_sealed(&ctrl, &image, "post-recovery read");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn acked_batches_survive_drop_bonsai_agit_plus() {
    acked_batches_survive_drop(reopen_agit_plus, "agit-plus");
}

#[test]
fn acked_batches_survive_drop_sgx_asit() {
    acked_batches_survive_drop(reopen_asit, "asit");
}

/// The committed frames of `image` — anchored, so tagged under the
/// device key — and the logical end of its log.
fn wal_layout(image: &Path) -> (Vec<WalFrame>, usize) {
    let bytes = fs::read(image).expect("read image");
    let mut walk = WalWalker::new(&bytes, config().key.0).expect("image header");
    let frames = walk
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("a clean log");
    assert!(!walk.torn_tail(), "an acknowledged op left a torn tail");
    (frames, walk.logical_end())
}

/// A kill inside the last batch's append: the frame is torn — its first
/// half on disk, the slack's zeros where the rest would have gone — and
/// the anchor still holds the previous epoch. The batch must vanish as a
/// whole — its commit groups share the frame — and nothing before it.
fn torn_last_frame_drops_whole_batch<C: Supervised>(reopen: Reopen<C>, name: &str) {
    const BATCHES: u64 = 6;
    let dir = scratch(&format!("torn-{name}"));
    let image = dir.join("image.wal");
    let mut ctrl = serve_batches(reopen, &image, BATCHES - 1);
    let acked_epoch = ctrl.domain().epoch();
    let (_, acked_end) = wal_layout(&image);
    let acked_anchor = fs::read(anchor_path_for(&image)).expect("read anchor");
    ctrl.write_batch(&batch_items(BATCHES - 1))
        .expect("last batch");
    drop(ctrl);

    let (frames, full_end) = wal_layout(&image);
    let last = *frames.last().expect("the last batch's frame");
    assert_eq!(
        (last.start, last.end(), last.epoch),
        (acked_end, full_end, acked_epoch + 1),
        "the last batch must be exactly the one frame behind the acknowledged log"
    );
    let mut bytes = fs::read(&image).expect("read image");
    bytes[acked_end + last.len / 2..full_end].fill(0);
    fs::write(&image, &bytes).expect("tear the last frame");
    fs::write(anchor_path_for(&image), &acked_anchor).expect("rewind the unsealed anchor");

    let mut ctrl = open_anchored(reopen, &image);
    assert_eq!(ctrl.domain().device().backend().frames_rejected(), 1);
    for b in 0..BATCHES - 1 {
        assert_batch_reads(&mut ctrl, b, true);
    }
    assert_batch_reads(&mut ctrl, BATCHES - 1, false);
    // The anchor moves forward again with the first frames of the new
    // process, from the acknowledged epoch the torn frame never passed.
    assert!(
        ctrl.domain().epoch() >= acked_epoch,
        "{name}: epoch went backwards"
    );
    assert_sealed(&ctrl, &image, "post-recovery read");
    ctrl.write_batch(&batch_items(BATCHES - 1))
        .expect("retry of the lost batch");
    assert_sealed(&ctrl, &image, "retried batch");
    assert_batch_reads(&mut ctrl, BATCHES - 1, true);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_last_frame_drops_whole_batch_bonsai_agit_plus() {
    torn_last_frame_drops_whole_batch(reopen_agit_plus, "agit-plus");
}

#[test]
fn torn_last_frame_drops_whole_batch_sgx_asit() {
    torn_last_frame_drops_whole_batch(reopen_asit, "asit");
}

/// A kill between execute and barrier: the op ran to completion inside
/// the controller (`write_batch_deferred` returned) and the process died
/// before anyone took the barrier that would have acknowledged it. Not a
/// byte of it may be on the medium: the anchored reopen is `Fresh` at
/// the last acknowledged epoch with no rejected frame, the op is wholly
/// absent, and every acknowledged op before it reads back.
fn kill_between_execute_and_barrier<C: Supervised>(reopen: Reopen<C>, name: &str) {
    const ACKED: u64 = 4;
    let dir = scratch(&format!("unbarriered-{name}"));
    let image = dir.join("image.wal");
    let mut ctrl = serve_batches(reopen, &image, ACKED);
    let acked_epoch = ctrl.domain().epoch();
    let on_disk = (
        fs::read(&image).expect("read image"),
        fs::read(anchor_path_for(&image)).expect("read anchor"),
    );

    ctrl.write_batch_deferred(&batch_items(ACKED))
        .expect("execute");
    ctrl.write_deferred(DataAddr::new(3), op_payload(77, 3))
        .expect("execute");
    let backend = ctrl.domain().device().backend();
    assert_eq!(
        (backend.epoch(), backend.ticket()),
        (acked_epoch, acked_epoch + 1),
        "{name}: executed ops wait for the next frame, which nobody cut"
    );
    drop(ctrl); // the process dies here

    assert_eq!(
        (
            fs::read(&image).expect("read image"),
            fs::read(anchor_path_for(&image)).expect("read anchor")
        ),
        on_disk,
        "{name}: an op that was never barriered reached the medium"
    );
    let mut ctrl = open_anchored(reopen, &image);
    let backend = ctrl.domain().device().backend();
    assert_eq!(backend.frames_rejected(), 0);
    assert_eq!(
        backend.freshness(),
        Freshness::Fresh { epoch: acked_epoch },
        "{name}: the image stops at the last acknowledged epoch"
    );
    for b in 0..ACKED {
        assert_batch_reads(&mut ctrl, b, true);
    }
    assert_batch_reads(&mut ctrl, ACKED, false);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_execute_and_barrier_bonsai_agit_plus() {
    kill_between_execute_and_barrier(reopen_agit_plus, "agit-plus");
}

#[test]
fn kill_between_execute_and_barrier_sgx_asit() {
    kill_between_execute_and_barrier(reopen_asit, "asit");
}

/// Group commit puts several ops into one frame: three executed behind
/// one barrier are one epoch, and a kill inside that frame's append
/// removes all three together — none of them was acknowledged — and
/// nothing before them.
fn torn_group_frame_drops_every_op_in_it<C: Supervised>(reopen: Reopen<C>, name: &str) {
    const ACKED: u64 = 3;
    let dir = scratch(&format!("torn-group-{name}"));
    let image = dir.join("image.wal");
    let mut ctrl = serve_batches(reopen, &image, ACKED);
    let acked_epoch = ctrl.domain().epoch();
    let (_, acked_end) = wal_layout(&image);
    let acked_anchor = fs::read(anchor_path_for(&image)).expect("read anchor");
    // A line of batch 0 overwritten, and two new batches: k = 3 ops.
    let rewritten = DataAddr::new(5);
    ctrl.write_batch_deferred(&batch_items(ACKED))
        .expect("execute");
    ctrl.write_deferred(rewritten, op_payload(99, rewritten.index()))
        .expect("execute");
    ctrl.write_batch_deferred(&batch_items(ACKED + 1))
        .expect("execute");
    ctrl.barrier().expect("one barrier for the three");
    assert_eq!(ctrl.domain().epoch(), acked_epoch + 1, "{name}: one frame");
    assert_sealed(&ctrl, &image, "group barrier");
    drop(ctrl);

    let (frames, full_end) = wal_layout(&image);
    let last = *frames.last().expect("the group's frame");
    assert_eq!(
        (last.start, last.end(), last.epoch),
        (acked_end, full_end, acked_epoch + 1)
    );
    let mut bytes = fs::read(&image).expect("read image");
    bytes[acked_end + last.len / 2..full_end].fill(0);
    fs::write(&image, &bytes).expect("tear the group's frame");
    fs::write(anchor_path_for(&image), &acked_anchor).expect("rewind the unsealed anchor");

    let mut ctrl = open_anchored(reopen, &image);
    assert_eq!(ctrl.domain().device().backend().frames_rejected(), 1);
    for b in 0..ACKED {
        assert_batch_reads(&mut ctrl, b, true); // line 5 holds batch 0's payload again
    }
    assert_batch_reads(&mut ctrl, ACKED, false);
    assert_batch_reads(&mut ctrl, ACKED + 1, false);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_group_frame_drops_every_op_in_it_bonsai_agit_plus() {
    torn_group_frame_drops_every_op_in_it(reopen_agit_plus, "agit-plus");
}

#[test]
fn torn_group_frame_drops_every_op_in_it_sgx_asit() {
    torn_group_frame_drops_every_op_in_it(reopen_asit, "asit");
}

/// A reopened image has lost its volatile metadata; until `recover()`
/// has rebuilt it a write must be refused with a typed error — ASIT's
/// shadow tree is gone, and staging a Shadow Table entry against it used
/// to panic — and must leave the image exactly as it found it.
fn write_before_recover_is_refused<C: Supervised>(
    reopen: Reopen<C>,
    name: &str,
    want: Option<MemError>,
) {
    let dir = scratch(&format!("unrecovered-{name}"));
    let image = dir.join("image.wal");
    drop(serve_batches(reopen, &image, 2)); // dies with dirty metadata cached
    let on_disk = (
        fs::read(&image).expect("read image"),
        fs::read(anchor_path_for(&image)).expect("read anchor"),
    );
    let (mut ctrl, hint) = reopen(open(&image));
    assert!(hint.is_none(), "{name}: a clean image");
    let scalar = ctrl.write(DataAddr::new(3), op_payload(7, 3));
    let batch = ctrl.write_batch(&batch_items(1));
    for refused in [scalar, batch] {
        let err = refused.expect_err("a write before recover() must be refused");
        if let Some(want) = &want {
            assert_eq!(&err, want, "{name}");
        }
    }
    drop(ctrl);
    assert_eq!(
        (
            fs::read(&image).expect("read image"),
            fs::read(anchor_path_for(&image)).expect("read anchor")
        ),
        on_disk,
        "{name}: a refused write changed the image"
    );
    // Refusing cost nothing: the image still recovers and serves.
    let mut ctrl = open_anchored(reopen, &image);
    assert_batch_reads(&mut ctrl, 0, true);
    assert_batch_reads(&mut ctrl, 1, true);
    ctrl.write(DataAddr::new(3), op_payload(7, 3))
        .expect("write after recover()");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn write_before_recover_is_refused_bonsai_agit_plus() {
    write_before_recover_is_refused(reopen_agit_plus, "agit-plus", None);
}

#[test]
fn write_before_recover_is_refused_sgx_asit() {
    write_before_recover_is_refused(reopen_asit, "asit", Some(MemError::RecoveryPending));
}

/// Acknowledged ops land in slack that is already on disk: while they
/// fit, the image file does not grow by a byte, and a process that dies
/// there reopens to the same log with the rest of its slack intact.
fn writes_inside_the_slack_leave_the_file_length_alone<C: Supervised>(
    reopen: Reopen<C>,
    name: &str,
) {
    let dir = scratch(&format!("slack-{name}"));
    let image = dir.join("image.wal");
    let mut ctrl = serve_batches(reopen, &image, 1);
    let file_len = || fs::metadata(&image).expect("stat image").len();
    let len = file_len();
    let mut writes = 0u64;
    // A scalar write's frame is a fraction of a KiB; stop well short of
    // the slack's end so none of these has to extend the file.
    while ctrl.domain().device().backend().wal_stats().slack_bytes > 16 * 1024 {
        let addr = DataAddr::new(writes % BATCH_LINES);
        ctrl.write(addr, op_payload(7_000 + writes, addr.index()))
            .expect("scalar write");
        assert_sealed(&ctrl, &image, "write into the slack");
        assert_eq!(file_len(), len, "{name}: write {writes} grew the image");
        writes += 1;
    }
    assert!(writes >= 10, "{name}: only {writes} writes fit the slack");
    let (epoch, stats) = (
        ctrl.domain().epoch(),
        ctrl.domain().device().backend().wal_stats(),
    );
    assert_eq!(stats.log_bytes + stats.slack_bytes, len);
    let (frames, end) = wal_layout(&image);
    assert_eq!((frames.len() as u64, end as u64), (epoch, stats.log_bytes));
    drop(ctrl); // no shutdown_flush: the process just dies

    let backend = open(&image);
    let reopened = backend.wal_stats();
    assert_eq!(
        (backend.frames_rejected(), backend.epoch()),
        (0, epoch),
        "{name}: reopen must replay every acknowledged frame"
    );
    assert_eq!(
        (reopened.log_bytes, reopened.slack_bytes),
        (stats.log_bytes, stats.slack_bytes),
        "{name}: reopen must resume at the logical end with the slack it left"
    );
    let (mut ctrl, hint) = reopen(backend);
    recover_fresh(&mut ctrl, hint);
    for k in writes.saturating_sub(BATCH_LINES)..writes {
        let addr = DataAddr::new(k % BATCH_LINES);
        assert_eq!(
            ctrl.read(addr).expect("post-restart read"),
            op_payload(7_000 + k, addr.index()),
            "{name}: write {k} lost"
        );
    }
    ctrl.write(DataAddr::new(0), op_payload(9_999, 0))
        .expect("write after restart");
    assert_eq!(
        file_len(),
        len,
        "{name}: the inherited slack was not reused"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn writes_inside_the_slack_leave_the_file_length_alone_bonsai_agit_plus() {
    writes_inside_the_slack_leave_the_file_length_alone(reopen_agit_plus, "agit-plus");
}

#[test]
fn writes_inside_the_slack_leave_the_file_length_alone_sgx_asit() {
    writes_inside_the_slack_leave_the_file_length_alone(reopen_asit, "asit");
}
