//! Restart-time adversary engine: at-rest tamper drills for durable state.
//!
//! The kill −9 drills in [`crate::drill`] prove that an *honest* crash
//! loses no acknowledged write. This module drops the honesty
//! assumption: between a crash and the restart, an adversary with full
//! filesystem access **mutates the durable artifacts** — bit flips,
//! truncations, frame splices and reorders, wholesale rollback to an
//! earlier captured state, cross-domain image swaps, and attacks on the
//! freshness anchor itself — and the campaign demands that every single
//! mutated restart terminates in one of exactly three typed verdicts:
//!
//! 1. **Full recovery** — every acknowledged write reads back intact
//!    (only allowed when the mutation could not have removed acked
//!    state, e.g. an anchor deletion under the explicit operator
//!    override);
//! 2. **Degraded** — the system serves, but damage is *declared*
//!    through typed read errors or quarantine loss accounting;
//! 3. **Refusal** — reopen or supervised recovery returns a typed
//!    error ([`anubis::RecoveryError::RollbackDetected`] for
//!    freshness violations) and nothing is served.
//!
//! Two outcomes are campaign-stopping findings, not verdicts: a
//! **panic** anywhere in the reopen/recover/read path, and a **silent
//! stale serve** — a read of an acknowledged address returning wrong
//! data without a typed error or declared quarantine loss. A completed
//! campaign therefore certifies: zero panics, zero silent staleness,
//! and 100 % detection of image rollback.
//!
//! Both findings are [`CampaignError::Breach`], named for the mutation;
//! a verdict below its class's floor is [`CampaignError::Short`]. A
//! mutation the image offers nothing to apply to is a bad spec
//! ([`HarnessError::Spec`]), not a finding. A failing base run keeps its
//! directory, `<family>-r<run>`: the base image, the capture and one
//! `m<i>-<label>` directory per mutation staged so far.
//!
//! The dead images are made in process: the script is driven over a
//! fresh anchored image and stopped at an exact ack count, where image
//! and anchor are what a kill there leaves, and the model of what was
//! acknowledged is exact. A campaign is therefore a pure function of its
//! seed. The real SIGKILL stays with [`crate::drill`].
//!
//! ## Threat-model boundary
//!
//! The sealed anchor beside the image stands in for the paper's
//! *on-chip NVRAM root register*: the adversary may read it but its
//! mutations there are limited to deletion/corruption/rollback of the
//! *file* (modeling NVRAM loss, not NVRAM forgery — the MAC key lives
//! in the processor). Substituting a *consistent old pair* (image +
//! matching anchor captured together) is out of scope, exactly as
//! rewinding the on-chip register in lockstep with external NVM is out
//! of scope for Anubis itself. The same key tags every WAL frame,
//! chained behind the frame before it: the adversary frames under the
//! one key it knows, [`PUBLIC_WAL_KEY`], so a forged or re-framed frame is
//! refused wherever it lands — one epoch past the anchor, where only the
//! honest in-flight frame of a crash may be, included — and so is a
//! genuine frame moved to another place in the chain. Forging with the
//! device key itself is NVRAM forgery, out of scope as in the paper; a
//! unit test pins what such a forger could still do.

use std::fs;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use anubis::{AnubisConfig, DataAddr, Family};
use anubis_nvm::{
    anchor_path_for, copy_image, encode_wal_frame, home_path_for, AnchorPolicy, FreshnessAnchor,
    NvmBackend, WalFrame, WalWalker, HOME_SLOT_BYTES,
};

use crate::campaign::{
    drive_anchored, io_ctx, judge, op_payload, remove_image, restart, run_points, Acked,
    CampaignError, HarnessError, ScriptOp, ScriptSpec, Verdict, XorShift64,
};

/// The forger's key: the one a format-aware adversary frames under. It is
/// public — written here, in the clear — and is not the device key, so
/// no frame tagged under it verifies in an image.
pub const PUBLIC_WAL_KEY: [u64; 2] = [
    u64::from_le_bytes(*b"ANUBWAL4"),
    u64::from_le_bytes(*b"PUBLIC!!"),
];

/// Acks before the base's last that the capture is taken at, so the
/// captured image is well behind the base image's sealed anchor — and a
/// checkpoint apart from it: more acks than the log bound holds, so the
/// base's home area holds slots the capture's does not.
const CAPTURE_MARGIN_ACKS: u64 = 1_200;

/// Smallest kill threshold: enough acked frames for every frame-level
/// mutation, comfortably past the capture margin, and past the first
/// checkpoint, so the home area holds blocks.
const MIN_KILL_ACKS: u64 = 1_300;

/// Mutations evaluated per base kill point (including the unmutated
/// control), across all classes in [`MutationClass::all`].
pub const MUTATIONS_PER_RUN: u64 = 27;

/// The mutation classes the adversary draws from. Every class carries a
/// *required verdict floor* — the weakest verdict the campaign accepts
/// for it (see [`Requirement`]); stronger outcomes are always allowed
/// upward in the order refusal > degraded > full recovery for damage,
/// but a required refusal is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MutationClass {
    /// The unmutated dead image — must recover and serve (baseline).
    Control,
    /// One bit flipped somewhere in the log (image header and frames),
    /// or one in the zero slack behind it.
    BitFlip,
    /// Bytes sheared off the end of the log, slack included (torn or
    /// malicious tail).
    TruncateTail,
    /// Two or more *complete acked frames* removed from the WAL tail —
    /// internally consistent older state; only the anchor can tell.
    WalRollback,
    /// Two adjacent frames swapped in place (reordered log).
    FrameReorder,
    /// An earlier frame written again at the end of the log (duplicated
    /// log).
    FrameDuplicate,
    /// An old frame's payload re-framed at fresh epochs with valid
    /// checksums and written into the slack — a format-aware replay
    /// splice, two frames deep or a single frame one or two epochs on.
    ReplaySplice,
    /// The whole image file replaced by a copy taken mid-run (image
    /// rollback); the anchor stays, as on-chip NVRAM would.
    StateRollback,
    /// The image (and optionally anchor) of a *different device with a
    /// different key* swapped in.
    CrossSwap,
    /// Attacks on the anchor file itself: deletion (strict and
    /// override), corruption, rollback, and the one-barrier lag heal.
    AnchorAttack,
    /// Attacks on the home area, which carries no tag: a bit flipped in a
    /// slot that holds a block, and every slot rolled back to the mid-run
    /// capture's. The log and the anchor stay. An open reads no home
    /// slot: a flipped or rolled-back slot outside the log's reach fails
    /// its tree or MAC check when first read, and the recovery ladder
    /// refuses it by the home digest in the log before any rung past
    /// `fast`; a flip inside the log's reach is redone.
    HomeArea,
}

impl MutationClass {
    /// Stable identifier used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::Control => "control",
            MutationClass::BitFlip => "bit-flip",
            MutationClass::TruncateTail => "truncate-tail",
            MutationClass::WalRollback => "wal-rollback",
            MutationClass::FrameReorder => "frame-reorder",
            MutationClass::FrameDuplicate => "frame-duplicate",
            MutationClass::ReplaySplice => "replay-splice",
            MutationClass::StateRollback => "state-rollback",
            MutationClass::CrossSwap => "cross-swap",
            MutationClass::AnchorAttack => "anchor-attack",
            MutationClass::HomeArea => "home-area",
        }
    }

    /// Every class, in report order.
    pub fn all() -> [MutationClass; 11] {
        [
            MutationClass::Control,
            MutationClass::BitFlip,
            MutationClass::TruncateTail,
            MutationClass::WalRollback,
            MutationClass::FrameReorder,
            MutationClass::FrameDuplicate,
            MutationClass::ReplaySplice,
            MutationClass::StateRollback,
            MutationClass::CrossSwap,
            MutationClass::AnchorAttack,
            MutationClass::HomeArea,
        ]
    }
}

/// The verdict floor a mutation must reach for the campaign to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requirement {
    /// Any of the three verdicts (silent staleness and panics are
    /// campaign failures regardless, so "any" still means *typed*).
    AnyTyped,
    /// Recovery must refuse: reopen or the supervisor returns a typed
    /// error and nothing is served.
    Refusal,
    /// Recovery must refuse *specifically* with
    /// [`anubis::RecoveryError::RollbackDetected`].
    RollbackRefusal,
    /// The system must serve (full or degraded recovery) — refusing
    /// would mean the legitimate path is broken.
    Accepted,
}

impl Requirement {
    /// Stable identifier used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Requirement::AnyTyped => "any-typed",
            Requirement::Refusal => "refusal",
            Requirement::RollbackRefusal => "rollback-refusal",
            Requirement::Accepted => "accepted",
        }
    }

    /// Whether `verdict` satisfies this floor.
    pub fn met(self, verdict: &Verdict) -> bool {
        match self {
            Requirement::AnyTyped => true,
            Requirement::Refusal => matches!(verdict, Verdict::Refused { .. }),
            Requirement::RollbackRefusal => {
                matches!(verdict, Verdict::Refused { rollback: true, .. })
            }
            Requirement::Accepted => !matches!(verdict, Verdict::Refused { .. }),
        }
    }
}

/// The key every image the campaign attacks is written under: the device
/// key of [`AnubisConfig::small_test`], which its script is served with.
fn device_key() -> [u64; 2] {
    AnubisConfig::small_test().key.0
}

/// The logical log inside a staged image, as the backend's own walker
/// (`anubis_nvm::WalWalker`, under the device key) reads it: the
/// committed frames and where they end. Everything from `end` to the end
/// of the file is zero slack.
struct LogView {
    frames: Vec<WalFrame>,
    end: usize,
}

/// A mutation the spec asks for that the image offers nothing to apply
/// to: a bad spec, not a finding.
fn unappliable(label: &str, detail: impl std::fmt::Display) -> HarnessError {
    let what = format!("mutation {label} could not be applied: {detail}");
    HarnessError::Spec { what }
}

/// Walks a dead image before it is mutated.
fn log_view(label: &str, bytes: &[u8]) -> Result<LogView, HarnessError> {
    let fault = |e| unappliable(label, format_args!("dead image is not a log: {e}"));
    let mut walk = WalWalker::new(bytes, device_key()).map_err(fault)?;
    let frames = walk
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .map_err(fault)?;
    Ok(LogView {
        frames,
        end: walk.logical_end(),
    })
}

/// Writes `data` at `at`, growing the image when the slack is too short
/// (an adversary is not bound by the slack the victim preallocated).
fn write_at(bytes: &mut Vec<u8>, at: usize, data: &[u8]) {
    if bytes.len() < at + data.len() {
        bytes.resize(at + data.len(), 0);
    }
    bytes[at..at + data.len()].copy_from_slice(data);
}

/// The home area at `path`: empty before the image's first checkpoint.
fn read_home(path: &Path) -> Result<Vec<u8>, HarnessError> {
    match fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read.map_err(io_ctx("read home area", path)),
    }
}

/// Flips one bit of a home slot that holds a block: `draw` picks the
/// slot among those that do, and the bit among its 65 bytes.
fn flip_home_bit(home: &mut [u8], draw: u64) -> Result<(), String> {
    let held: Vec<usize> = (home.chunks_exact(HOME_SLOT_BYTES).enumerate())
        .filter(|(_, slot)| slot[0] != 0)
        .map(|(i, _)| i)
        .collect();
    if held.is_empty() {
        return Err("the home area holds no block".into());
    }
    let slot = held[(draw % held.len() as u64) as usize];
    let bit = (draw >> 32) % (HOME_SLOT_BYTES as u64 * 8);
    home[slot * HOME_SLOT_BYTES + (bit / 8) as usize] ^= 1 << (bit % 8);
    Ok(())
}

/// The byte-level operation one mutation performs on the staged copy.
#[derive(Debug, Clone)]
enum MutationOp {
    /// Leave the image alone (the control point).
    Noop,
    /// Flip one bit of the log — image header or frames; `draw` selects
    /// offset and bit.
    FlipBit { draw: u64 },
    /// Flip one bit of the zero slack behind the log.
    FlipSlackBit { draw: u64 },
    /// Cut the file inside the log, `draw` bytes back from its logical
    /// end (the slack goes with them).
    TruncateTail { draw: u64 },
    /// Zero the last `frames` committed frames (≥ 2, so detection
    /// cannot hinge on the one-barrier anchor lag) — or all of them, when
    /// a log that a checkpoint started holds fewer — leaving an image
    /// that looks exactly like an honest earlier one, slack and all.
    DropTailFrames { frames: usize },
    /// Swap two adjacent frames; `draw` selects which pair.
    SwapAdjacentFrames { draw: u64 },
    /// Write a copy of an earlier frame at the logical end; `draw`
    /// selects it.
    DuplicateFrame { draw: u64 },
    /// Re-frame an earlier frame's payload at the logical end, chained
    /// behind the last frame, once per entry of `ahead` at that many
    /// epochs past it — tagged under [`PUBLIC_WAL_KEY`], the one key a
    /// format-aware adversary knows; `draw` selects the source frame.
    SpliceReplay { draw: u64, ahead: &'static [u64] },
    /// Replace the image with the mid-run capture (anchor untouched).
    SubstituteCapturedImage,
    /// Replace the image with the foreign-key device's image; when
    /// `with_anchor`, its anchor too.
    SwapInForeign {
        /// Also swap in the foreign anchor (a consistent foreign pair).
        with_anchor: bool,
    },
    /// Delete the anchor file.
    DeleteAnchor,
    /// Overwrite the anchor file with garbage of the same length.
    CorruptAnchor,
    /// Replace the anchor with the mid-run capture's anchor (anchor
    /// rolled back far beyond the crash window).
    RollBackAnchor,
    /// Reseal the anchor at `image epoch − 1` — the honest one-barrier
    /// crash lag, which reopen must heal forward, not refuse.
    LagAnchorByOne,
    /// Flip one bit of a home slot that holds a block, marker or
    /// contents; `draw` selects the slot and the bit.
    FlipHomeBit { draw: u64 },
    /// Replace the home area with the mid-run capture's (log and anchor
    /// untouched).
    RollBackHome,
}

/// One planned mutation: the op plus its class, label, open policy,
/// and required verdict floor.
#[derive(Debug, Clone)]
struct MutationSpec {
    class: MutationClass,
    label: String,
    op: MutationOp,
    policy: AnchorPolicy,
    requirement: Requirement,
}

/// Draws the per-base-run mutation plan: [`MUTATIONS_PER_RUN`] specs
/// covering every class in [`MutationClass::all`].
fn plan_mutations(rng: &mut XorShift64) -> Vec<MutationSpec> {
    let mut plan = Vec::with_capacity(MUTATIONS_PER_RUN as usize);
    let mut push = |class: MutationClass,
                    label: String,
                    op: MutationOp,
                    policy: AnchorPolicy,
                    requirement: Requirement| {
        plan.push(MutationSpec {
            class,
            label,
            op,
            policy,
            requirement,
        });
    };

    push(
        MutationClass::Control,
        "control".into(),
        MutationOp::Noop,
        AnchorPolicy::Strict,
        Requirement::Accepted,
    );
    for k in 0..4 {
        push(
            MutationClass::BitFlip,
            format!("bit-flip-{k}"),
            MutationOp::FlipBit {
                draw: rng.next_star(),
            },
            AnchorPolicy::Strict,
            Requirement::AnyTyped,
        );
    }
    // Within a frame header's reach of the log's end a stray slack bit
    // reads as the first bytes of a torn append and is dropped like
    // one; anywhere deeper it is refused. Both are typed.
    push(
        MutationClass::BitFlip,
        "bit-flip-slack".into(),
        MutationOp::FlipSlackBit {
            draw: rng.next_star(),
        },
        AnchorPolicy::Strict,
        Requirement::AnyTyped,
    );
    for k in 0..3 {
        push(
            MutationClass::TruncateTail,
            format!("truncate-tail-{k}"),
            MutationOp::TruncateTail {
                draw: rng.next_star(),
            },
            AnchorPolicy::Strict,
            Requirement::AnyTyped,
        );
    }
    for k in 0..3 {
        let frames = 2 + (rng.next_star() % 8) as usize;
        push(
            MutationClass::WalRollback,
            format!("wal-rollback-{k}x{frames}"),
            MutationOp::DropTailFrames { frames },
            AnchorPolicy::Strict,
            Requirement::RollbackRefusal,
        );
    }
    push(
        MutationClass::FrameReorder,
        "frame-reorder".into(),
        MutationOp::SwapAdjacentFrames {
            draw: rng.next_star(),
        },
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    push(
        MutationClass::FrameDuplicate,
        "frame-duplicate".into(),
        MutationOp::DuplicateFrame {
            draw: rng.next_star(),
        },
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    // A re-framed payload is refused wherever it lands: no frame the
    // adversary tags verifies under the device key — one epoch past the
    // image, inside the crash window (§14.1), included.
    for (label, ahead) in [
        ("replay-splice", &[1u64, 2][..]),
        ("replay-splice-slack-1", &[1][..]),
        ("replay-splice-slack-2", &[2][..]),
    ] {
        push(
            MutationClass::ReplaySplice,
            label.into(),
            MutationOp::SpliceReplay {
                draw: rng.next_star(),
                ahead,
            },
            AnchorPolicy::Strict,
            Requirement::Refusal,
        );
    }
    push(
        MutationClass::StateRollback,
        "state-rollback".into(),
        MutationOp::SubstituteCapturedImage,
        AnchorPolicy::Strict,
        Requirement::RollbackRefusal,
    );
    // The foreign image's frames are tagged under its own key: it does
    // not open under this device's, so it never gets as far as the
    // anchor that would call it a rollback.
    push(
        MutationClass::CrossSwap,
        "cross-swap-image".into(),
        MutationOp::SwapInForeign { with_anchor: false },
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    push(
        MutationClass::CrossSwap,
        "cross-swap-pair".into(),
        MutationOp::SwapInForeign { with_anchor: true },
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    push(
        MutationClass::AnchorAttack,
        "anchor-delete-strict".into(),
        MutationOp::DeleteAnchor,
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    push(
        MutationClass::AnchorAttack,
        "anchor-delete-override".into(),
        MutationOp::DeleteAnchor,
        AnchorPolicy::Override,
        Requirement::Accepted,
    );
    push(
        MutationClass::AnchorAttack,
        "anchor-corrupt-strict".into(),
        MutationOp::CorruptAnchor,
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    push(
        MutationClass::AnchorAttack,
        "anchor-rollback".into(),
        MutationOp::RollBackAnchor,
        AnchorPolicy::Strict,
        Requirement::Refusal,
    );
    push(
        MutationClass::AnchorAttack,
        "anchor-lag-one".into(),
        MutationOp::LagAnchorByOne,
        AnchorPolicy::Strict,
        Requirement::Accepted,
    );
    // An open reads no home slot. A slot these touch outside the log's
    // reach fails its tree or MAC check when first read (typed damage),
    // or makes `fast` fail, and then the home digest in the log refuses
    // it before any rung past `fast`; a slot no read reaches is never
    // served, and one the log redoes may hold anything. What they must
    // never do is serve stale silently.
    push(
        MutationClass::HomeArea,
        "home-bit-flip".into(),
        MutationOp::FlipHomeBit {
            draw: rng.next_star(),
        },
        AnchorPolicy::Strict,
        Requirement::AnyTyped,
    );
    push(
        MutationClass::HomeArea,
        "home-rollback".into(),
        MutationOp::RollBackHome,
        AnchorPolicy::Strict,
        Requirement::AnyTyped,
    );
    debug_assert_eq!(plan.len() as u64, MUTATIONS_PER_RUN);
    plan
}

/// Builds a small healthy device of the same family under a *different
/// key* — the cross-swap donor — with a handful of distinct lines
/// written so it has real history. Returns its image (its anchor beside
/// it) and final epoch (the campaign keeps every kill threshold above it
/// so a swapped foreign image always reads as rolled back).
fn build_foreign(
    family: Family,
    dir: &Path,
    spec: &ScriptSpec,
) -> Result<(PathBuf, u64), HarnessError> {
    fs::create_dir_all(dir).map_err(io_ctx("create foreign dir", dir))?;
    let image = dir.join("foreign.wal");
    remove_image(&image);
    let mut config = AnubisConfig::small_test();
    config.key.0 = [0x0F0E_1617_C0FF_EE00, 0x5EED_0000_0000_0042];
    let (mut ctrl, _) = restart(family, &config, &image, AnchorPolicy::Strict)?;
    for i in 0..8u64 {
        let addr = i % spec.lines.max(1);
        ctrl.write(DataAddr::new(addr), op_payload(0xF0_0000 + i, addr))
            .map_err(|err| HarnessError::Serve { op_index: i, err })?;
    }
    let epoch = ctrl.domain().device().backend().epoch();
    Ok((image, epoch))
}

/// Everything a mutation can draw on when staging its files: three
/// images, each with its anchor beside it.
struct PointCtx<'a> {
    base: &'a Path,
    capture: &'a Path,
    foreign: &'a Path,
}

/// Applies one of the log-level mutations to a staged image in memory.
/// `Err` says why the image offers nothing to apply it to.
fn mutate_log(op: &MutationOp, bytes: &mut Vec<u8>, log: &LogView) -> Result<(), String> {
    let Some(first) = log.frames.first() else {
        return Err("the log holds no committed frame".into());
    };
    let pick = |draw: u64, among: usize| (draw % among as u64) as usize;
    match *op {
        MutationOp::FlipBit { draw } => {
            bytes[pick(draw, log.end)] ^= 1 << ((draw >> 48) % 8);
        }
        MutationOp::FlipSlackBit { draw } => {
            if bytes.len() == log.end {
                // A log that fills its file exactly: the adversary
                // supplies the slack as well as the flip.
                bytes.resize(log.end + 4096, 0);
            }
            let off = log.end + pick(draw, bytes.len() - log.end);
            bytes[off] ^= 1 << ((draw >> 48) % 8);
        }
        MutationOp::TruncateTail { draw } => {
            let span = (log.end - first.start - 1).min(4096);
            bytes.truncate(log.end - 1 - pick(draw, span));
        }
        MutationOp::DropTailFrames { frames } => {
            let keep = log.frames.len().saturating_sub(frames);
            bytes[log.frames[keep].start..].fill(0);
        }
        MutationOp::SwapAdjacentFrames { draw } => {
            if log.frames.len() < 2 {
                return Err("fewer than two frames to swap".into());
            }
            let i = pick(draw, log.frames.len() - 1);
            let (a, b) = (log.frames[i], log.frames[i + 1]);
            let swapped = [&bytes[b.start..b.end()], &bytes[a.start..a.end()]].concat();
            bytes[a.start..b.end()].copy_from_slice(&swapped);
        }
        MutationOp::DuplicateFrame { draw } => {
            let dup = log.frames[pick(draw, log.frames.len())];
            let frame = bytes[dup.start..dup.end()].to_vec();
            write_at(bytes, log.end, &frame);
        }
        MutationOp::SpliceReplay { draw, ahead } => {
            // Prefer a non-empty old frame so the replay carries records.
            let donors: Vec<WalFrame> = log
                .frames
                .iter()
                .filter(|f| !f.payload(bytes).is_empty())
                .copied()
                .collect();
            if donors.is_empty() {
                return Err("no payload-bearing frame to replay".into());
            }
            let donor = donors[pick(draw, donors.len())];
            splice_replay(bytes, log, donor, ahead, PUBLIC_WAL_KEY);
        }
        _ => return Err(format!("{op:?} is not a log-level mutation")),
    }
    Ok(())
}

/// Re-frames `donor`'s payload under `key` at the logical end of `log`,
/// chained behind the last frame, once per entry of `ahead` at that many
/// epochs past it.
fn splice_replay(
    bytes: &mut Vec<u8>,
    log: &LogView,
    donor: WalFrame,
    ahead: &[u64],
    key: [u64; 2],
) {
    let last = *log.frames.last().expect("a donor implies a frame");
    let payload = donor.payload(bytes).to_vec();
    let (mut at, mut prev) = (log.end, last.tag);
    for step in ahead {
        let forged = encode_wal_frame(key, prev, last.epoch + step, &payload);
        write_at(bytes, at, &forged);
        prev = u64::from_le_bytes(forged[4..12].try_into().expect("the tag field"));
        at += forged.len();
    }
}

/// Stages one mutation into `dir` and returns the image path to
/// evaluate. The staged copy always has its own anchor file beside it
/// (except when the mutation removes it).
fn stage_mutation(
    spec: &MutationSpec,
    ctx: &PointCtx<'_>,
    dir: &Path,
) -> Result<PathBuf, HarnessError> {
    fs::create_dir_all(dir).map_err(io_ctx("create mutation dir", dir))?;
    let work = dir.join("image.wal");
    let work_anchor = anchor_path_for(&work);
    // The image to copy, and the image whose anchor goes beside it.
    let (src_image, src_anchor) = match &spec.op {
        MutationOp::SubstituteCapturedImage => (ctx.capture, Some(ctx.base)),
        MutationOp::SwapInForeign { with_anchor: false } => (ctx.foreign, Some(ctx.base)),
        MutationOp::SwapInForeign { with_anchor: true } => (ctx.foreign, Some(ctx.foreign)),
        MutationOp::DeleteAnchor => (ctx.base, None),
        _ => (ctx.base, Some(ctx.base)),
    };
    copy_image(src_image, &work).map_err(io_ctx("copy image to", &work))?;
    match src_anchor {
        Some(of) => fs::copy(anchor_path_for(of), &work_anchor)
            .map(drop)
            .map_err(io_ctx("copy anchor to", &work_anchor))?,
        None => fs::remove_file(&work_anchor).map_err(io_ctx("remove anchor", &work_anchor))?,
    }

    let bad = |detail: &str| unappliable(&spec.label, detail);
    match &spec.op {
        MutationOp::Noop
        | MutationOp::SubstituteCapturedImage
        | MutationOp::SwapInForeign { .. }
        | MutationOp::DeleteAnchor => {}
        MutationOp::FlipHomeBit { draw } => {
            let home = home_path_for(&work);
            let mut bytes = read_home(&home)?;
            flip_home_bit(&mut bytes, *draw).map_err(|detail| bad(&detail))?;
            fs::write(&home, &bytes).map_err(io_ctx("write home area", &home))?;
        }
        MutationOp::RollBackHome => {
            let (captured, home) = (
                read_home(&home_path_for(ctx.capture))?,
                home_path_for(&work),
            );
            fs::write(&home, captured).map_err(io_ctx("write home area", &home))?;
        }
        MutationOp::FlipBit { .. }
        | MutationOp::FlipSlackBit { .. }
        | MutationOp::TruncateTail { .. }
        | MutationOp::DropTailFrames { .. }
        | MutationOp::SwapAdjacentFrames { .. }
        | MutationOp::DuplicateFrame { .. }
        | MutationOp::SpliceReplay { .. } => {
            let mut bytes = fs::read(&work).map_err(io_ctx("read image", &work))?;
            let log = log_view(&spec.label, &bytes)?;
            mutate_log(&spec.op, &mut bytes, &log).map_err(|detail| bad(&detail))?;
            fs::write(&work, &bytes).map_err(io_ctx("write image", &work))?;
        }
        MutationOp::CorruptAnchor => {
            let len = fs::metadata(&work_anchor)
                .map(|m| m.len() as usize)
                .unwrap_or(44);
            let garbage: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(0xA7) ^ 0x5C)
                .collect();
            fs::write(&work_anchor, &garbage).map_err(io_ctx("write anchor", &work_anchor))?;
        }
        MutationOp::RollBackAnchor => {
            fs::copy(anchor_path_for(ctx.capture), &work_anchor)
                .map_err(io_ctx("copy captured anchor to", &work_anchor))?;
        }
        MutationOp::LagAnchorByOne => {
            let bytes = fs::read(&work).map_err(io_ctx("read image", &work))?;
            let Some(last) = log_view(&spec.label, &bytes)?.frames.last().copied() else {
                return Err(bad("no frames; cannot derive epoch"));
            };
            if last.epoch == 0 {
                return Err(bad("image at epoch 0; cannot lag"));
            }
            fs::remove_file(&work_anchor).map_err(io_ctx("remove anchor", &work_anchor))?;
            FreshnessAnchor::create(work_anchor, device_key(), last.epoch - 1)
                .map_err(|e| unappliable(&spec.label, format_args!("reseal lagged anchor: {e}")))?;
        }
    }
    Ok(work)
}

/// [`judge`] with what stops a campaign named for the mutation that
/// found it, `at`: a silent stale serve, or a panic anywhere in the
/// restart.
fn judge_mutation(
    at: String,
    family: Family,
    image: &Path,
    policy: AnchorPolicy,
    model: &Acked,
) -> Result<Verdict, CampaignError> {
    judge(family, image, policy, |_| model.clone())
        .map_err(|breach| CampaignError::Breach { at, breach })
}

/// How a finding names a mutation.
fn mutation_at(class: MutationClass, label: &str) -> String {
    format!("class {} ({label})", class.name())
}

/// Every payload-bearing frame of `image` but its last re-framed under
/// `forger` one epoch past the last, each on a fresh copy (at `work`) of
/// the image and its anchor, restarted and judged against `model`.
fn splice_every_donor(
    family: Family,
    forger: [u64; 2],
    image: &Path,
    work: &Path,
    model: &Acked,
) -> Result<Vec<SplicePoint>, HarnessError> {
    let (anchor, work_anchor) = (anchor_path_for(image), anchor_path_for(work));
    let bytes = fs::read(image).map_err(io_ctx("read image", image))?;
    let seal = fs::read(&anchor).map_err(io_ctx("read anchor", &anchor))?;
    let log = log_view("splice-sweep", &bytes)?;
    let Some((last, older)) = log.frames.split_last() else {
        return Ok(Vec::new());
    };
    let mut points = Vec::new();
    for &donor in older {
        if donor.payload(&bytes).is_empty() {
            continue;
        }
        let mut spliced = bytes.clone();
        splice_replay(&mut spliced, &log, donor, &[1], forger);
        fs::write(work, &spliced).map_err(io_ctx("write image", work))?;
        fs::write(&work_anchor, &seal).map_err(io_ctx("write anchor", &work_anchor))?;
        let label = format!("replay-splice-slack-1-e{}-d{}", last.epoch, donor.epoch);
        let at = mutation_at(MutationClass::ReplaySplice, &label);
        let verdict = judge_mutation(at, family, work, AnchorPolicy::Strict, model);
        points.push(SplicePoint {
            epoch: last.epoch,
            donor: donor.epoch,
            verdict,
        });
    }
    Ok(points)
}

/// One point of [`splice_sweep`].
#[derive(Debug)]
pub struct SplicePoint {
    /// Epoch the image was dropped at: its last frame, sealed in its
    /// anchor.
    pub epoch: u64,
    /// Epoch of the donor frame whose payload was re-framed at
    /// `epoch + 1`.
    pub donor: u64,
    /// How the restart over the spliced copy ended, or the finding it
    /// made instead.
    pub verdict: Result<Verdict, CampaignError>,
}

/// The one-epoch replay splice, every donor. Drives `spec`'s script over
/// an anchored image in `dir` (the campaign's own driver); whenever an op
/// seals an epoch *e* in `drops`, every earlier payload-bearing frame *d*
/// is re-framed under the `forger` key at *e* + 1
/// (`replay-splice-slack-1`, inside the heal window) on a copy, which is
/// restarted and audited against the writes acknowledged so far.
/// Exhaustive where the campaign samples one donor per kill point. The
/// script stops at the end of `drops` or of itself.
///
/// # Errors
///
/// Harness failures only (file I/O, a script op that fails); what each
/// restart found is its point's `verdict`.
pub fn splice_sweep(
    family: Family,
    spec: &ScriptSpec,
    drops: std::ops::Range<u64>,
    forger: [u64; 2],
    dir: &Path,
) -> Result<Vec<SplicePoint>, HarnessError> {
    fs::create_dir_all(dir).map_err(io_ctx("create sweep dir", dir))?;
    let (image, work) = (dir.join("image.wal"), dir.join("spliced.wal"));
    let (mut points, mut sealed) = (Vec::new(), 0);
    drive_anchored(family, &spec.script(), &image, |model, _, (_, epoch)| {
        if epoch >= drops.end {
            return Ok(ControlFlow::Break(()));
        }
        if std::mem::replace(&mut sealed, epoch) != epoch && drops.contains(&epoch) {
            points.extend(splice_every_donor(family, forger, &image, &work, model)?);
        }
        Ok::<_, HarnessError>(ControlFlow::Continue(()))
    })?;
    Ok(points)
}

/// One evaluated mutation point.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// The mutation class.
    pub class: MutationClass,
    /// The specific mutation label.
    pub label: String,
    /// Base-run kill threshold this point was built from.
    pub kill_after_acks: u64,
    /// The required verdict floor.
    pub requirement: Requirement,
    /// The verdict reached.
    pub verdict: Verdict,
}

/// Per-class verdict tallies.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    /// Points evaluated in this class.
    pub points: u64,
    /// Full-recovery verdicts.
    pub full: u64,
    /// Degraded verdicts.
    pub degraded: u64,
    /// Refusal verdicts.
    pub refused: u64,
    /// Refusals that were specifically `RollbackDetected`.
    pub rollback_refusals: u64,
}

/// Aggregate results of one family's adversary campaign.
#[derive(Debug, Clone)]
pub struct FamilyAdvReport {
    /// The drilled family.
    pub family: Family,
    /// Base kill points executed (one drive each).
    pub base_runs: u64,
    /// Mutated-restart points evaluated (including controls).
    pub points: u64,
    /// Acked writes audited across all points.
    pub audited_reads: u64,
    /// The cross-swap donor's final epoch.
    pub foreign_epoch: u64,
    /// Per-class verdict tallies, in [`MutationClass::all`] order.
    pub classes: Vec<(MutationClass, ClassStats)>,
    /// Every point, in evaluation order.
    pub outcomes: Vec<MutationOutcome>,
}

/// Runs one family's full adversary campaign: `base_runs` randomized
/// kill points, base run `r` in `dir/<family>-r<r>`, each mutated
/// [`MUTATIONS_PER_RUN`] ways and driven to a verdict. A pure function
/// of `spec` and `base_runs`.
///
/// # Errors
///
/// Stops at the first failing base run ([`CampaignError::Point`]). A
/// completed campaign means: every point reached a typed verdict meeting
/// its class requirement, zero panics, zero silent-stale serves, and
/// 100 % rollback detection.
pub fn run_campaign(
    family: Family,
    spec: &ScriptSpec,
    dir: &Path,
    base_runs: u64,
) -> Result<FamilyAdvReport, CampaignError> {
    let script = spec.script();
    let max_acks = script.iter().filter(|op| op.0).count() as u64;
    let foreign_dir = dir.join(format!("{}-foreign", family.name()));
    let (foreign, foreign_epoch) = build_foreign(family, &foreign_dir, spec)?;
    // Every kill threshold stays above both the capture margin and the
    // foreign donor's epoch, so state-rollback and cross-swap points are
    // *guaranteed* behind the base anchor; below `hi` the script always
    // reaches it.
    let lo = MIN_KILL_ACKS.max(foreign_epoch + 2);
    let hi = max_acks.saturating_mul(3) / 4;
    if hi <= lo {
        let what = format!("script too short: kill window [{lo}, {hi}) is empty");
        return Err(HarnessError::Spec { what }.into());
    }

    let mut rng = XorShift64::for_family(spec.seed, family);
    let name = family.name();
    let run = |r| (format!("{name}-r{r}"), format!("{name} base run {r}"), ());
    // Each run draws its kill, then its mutation plan.
    let runs = run_points(dir, (0..base_runs).map(run), |(), rdir| {
        let kill_after = lo + rng.next_star() % (hi - lo);
        run_base_point(family, &script, rdir, kill_after, &foreign, &mut rng)
    })?;
    let _ = fs::remove_dir_all(&foreign_dir);

    let audited_reads = (runs.iter())
        .map(|(acked, run)| acked * run.len() as u64)
        .sum();
    let outcomes: Vec<MutationOutcome> = runs.into_iter().flat_map(|(_, run)| run).collect();
    let mut classes: Vec<_> = (MutationClass::all().into_iter())
        .map(|c| (c, ClassStats::default()))
        .collect();
    for o in &outcomes {
        // `classes` is in declaration order.
        let s = &mut classes[o.class as usize].1;
        s.points += 1;
        match &o.verdict {
            Verdict::FullRecovery => s.full += 1,
            Verdict::Degraded { .. } => s.degraded += 1,
            Verdict::Refused { rollback, .. } => {
                s.refused += 1;
                s.rollback_refusals += u64::from(*rollback);
            }
        }
    }
    Ok(FamilyAdvReport {
        family,
        base_runs,
        points: outcomes.len() as u64,
        audited_reads,
        foreign_epoch,
        classes,
        outcomes,
    })
}

/// One base kill point in the empty directory `rdir`: one drive, which
/// copies the image and its anchor aside as the capture
/// [`CAPTURE_MARGIN_ACKS`] acks before it stops at exactly `kill_after`,
/// then every planned mutation staged and evaluated. Returns the acked
/// addresses each point audited, and the points.
fn run_base_point(
    family: Family,
    script: &[ScriptOp],
    rdir: &Path,
    kill_after: u64,
    foreign: &Path,
    rng: &mut XorShift64,
) -> Result<(u64, Vec<MutationOutcome>), CampaignError> {
    let (base, capture) = (rdir.join("base.wal"), rdir.join("capture.wal"));
    let mut captured = false;
    let model = drive_anchored(family, script, &base, |_, acks, _| {
        if acks == kill_after - CAPTURE_MARGIN_ACKS && !captured {
            copy_image(&base, &capture).map_err(io_ctx("copy image to", &capture))?;
            captured = true;
        }
        Ok::<_, HarnessError>(if acks == kill_after {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        })
    })?;
    let ctx = PointCtx {
        base: &base,
        capture: &capture,
        foreign,
    };
    let mut outcomes = Vec::with_capacity(MUTATIONS_PER_RUN as usize);
    for (mi, m) in plan_mutations(rng).into_iter().enumerate() {
        let mdir = rdir.join(format!("m{mi}-{}", m.label));
        let image = stage_mutation(&m, &ctx, &mdir)?;
        let at = mutation_at(m.class, &m.label);
        let verdict = judge_mutation(at.clone(), family, &image, m.policy, &model)?;
        if !m.requirement.met(&verdict) {
            let (want, got) = (
                m.requirement.name(),
                format!("{} ({verdict:?})", verdict.name()),
            );
            return Err(CampaignError::Short { at, want, got });
        }
        outcomes.push(MutationOutcome {
            class: m.class,
            label: m.label,
            kill_after_acks: kill_after,
            requirement: m.requirement,
            verdict,
        });
    }
    Ok((model.len() as u64, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Breach;

    /// The committed `BENCH_adversary.json` is reproducible from its seed
    /// only while the first base run of each family kills where it did
    /// (the cross-swap donor ends at epoch 8, so the window opens at
    /// [`MIN_KILL_ACKS`]) and draws the mutations it did.
    #[test]
    fn committed_seed_produces_the_recorded_kill_points_and_mutations() {
        let spec = ScriptSpec::adversary();
        let script = spec.script();
        let max_acks = script.iter().filter(|op| op.0).count() as u64;
        let (lo, hi) = (MIN_KILL_ACKS.max(8 + 2), max_acks * 3 / 4);
        for (family, kill, rollbacks) in [
            (Family::BonsaiAgitPlus, 2160, ["0x3", "1x9", "2x7"]),
            (Family::SgxAsit, 1570, ["0x2", "1x3", "2x5"]),
        ] {
            let mut rng = XorShift64::for_family(spec.seed, family);
            assert_eq!(lo + rng.next_star() % (hi - lo), kill, "{}", family.name());
            let labels: Vec<String> = plan_mutations(&mut rng)
                .into_iter()
                .map(|m| m.label)
                .collect();
            let rb = |k: usize| format!("wal-rollback-{}", rollbacks[k]);
            let want = [
                "control",
                "bit-flip-0",
                "bit-flip-1",
                "bit-flip-2",
                "bit-flip-3",
                "bit-flip-slack",
                "truncate-tail-0",
                "truncate-tail-1",
                "truncate-tail-2",
                &rb(0),
                &rb(1),
                &rb(2),
                "frame-reorder",
                "frame-duplicate",
                "replay-splice",
                "replay-splice-slack-1",
                "replay-splice-slack-2",
                "state-rollback",
                "cross-swap-image",
                "cross-swap-pair",
                "anchor-delete-strict",
                "anchor-delete-override",
                "anchor-corrupt-strict",
                "anchor-rollback",
                "anchor-lag-one",
                "home-bit-flip",
                "home-rollback",
            ];
            assert_eq!(labels, want, "{}", family.name());
        }
    }

    /// The boundary that remains: a forger holding the device key — the
    /// processor's, NVRAM forgery, out of scope as in the paper — writes
    /// frames the WAL cannot tell from the honest in-flight one. At the
    /// first drop where a keyless re-framing served stale under format
    /// version 3 (AGIT-Plus, epoch 33, donor 4), the keyed one still does;
    /// none of its splices is refused. The same drop under the public key
    /// is refused at every donor.
    #[test]
    fn a_forger_with_the_device_key_is_past_the_wal() {
        let spec = ScriptSpec {
            script_len: 400,
            ..ScriptSpec::adversary()
        };
        let dir = std::env::temp_dir().join(format!("anubis-keyed-forger-{}", std::process::id()));
        let family = Family::BonsaiAgitPlus;
        let keyed = splice_sweep(family, &spec, 33..34, device_key(), &dir).expect("sweep");
        let keyless = splice_sweep(family, &spec, 33..34, PUBLIC_WAL_KEY, &dir).expect("sweep");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!((keyed.len(), keyless.len()), (32, 32));
        for p in &keyless {
            assert!(matches!(p.verdict, Ok(Verdict::Refused { .. })), "{p:?}");
        }
        for p in &keyed {
            let stale = matches!(
                p.verdict,
                Err(CampaignError::Breach {
                    breach: Breach::SilentStale { .. },
                    ..
                })
            );
            assert_eq!(stale, p.donor == 4, "{p:?}");
            assert!(!matches!(p.verdict, Ok(Verdict::Refused { .. })), "{p:?}");
        }
    }
}
