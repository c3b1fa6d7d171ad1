//! File-backed NVM images: blocks at their home addresses, a bounded
//! write-ahead log of what changed since, and a sealed freshness anchor.
//!
//! An image is three files. The **log** at the image's path — header,
//! frames tagged in a keyed chain and closed by a commit marker, zero
//! slack, in the format of [`crate::wal`], which also owns the rule that
//! tells the clean end of the log from a torn append from corruption. The
//! **home area** beside it ([`home_path_for`]): block *i* at byte
//! *i* × 65, a presence marker and its 64 bytes, as on the paper's NVM
//! where data and metadata sit at their own addresses. And the
//! [`FreshnessAnchor`] (`<path>.anchor`). [`copy_image`] copies all three.
//!
//! Every [`NvmBackend::store`] / [`NvmBackend::journal`] /
//! [`NvmBackend::store_reg`] adds a record to an in-memory pending
//! frame; a barrier writes the frame at the log's **write position** and
//! `sync_data`s it. A frame is therefore the atomicity unit, and since
//! barriers are taken between public operations it is a whole number of
//! operations' worth of commit groups (a 32-line batch, a whole page
//! re-encryption, or several served writes that shared one group
//! commit): on reopen, the log's records are replayed over the home area
//! in append order (last write to an address wins), and
//! a torn tail frame — the signature of a process killed mid-append,
//! i.e. before any operation in it was acknowledged — is discarded and
//! truncated away. Anything else that is not a committed, tag-valid,
//! in-order frame is *corruption*, surfaced as a typed
//! [`NvmError::Backend`], never a panic and never a silent drop.
//!
//! **Checkpoint.** Once the log has grown [`CHECKPOINT_BYTES`] past its
//! header, the next settle writes the value the log replays every address
//! it holds a record for to into that address's home slot, `sync_data`s
//! the home area, and then installs a new log — the header and one frame
//! of a checkpoint record and the registers — by writing it aside and
//! renaming it into place.
//! This is idempotent redo: the home area only ever receives values the
//! surviving log replays to as well, so a kill anywhere inside a
//! checkpoint — before, during or after the slot writes, or a rename that
//! power loss undoes — reopens to the same state. The checkpoint takes no
//! epoch of its own: the new log's frame carries the epoch it
//! checkpoints, and the anchor is not resealed. An open therefore walks
//! at most the bound (plus the frame that crossed it), however much
//! memory was written, and reads no home slot (below): it costs the log,
//! not the layout.
//!
//! **Two halves.** The backend is split where a barrier is: the
//! *in-memory half* — the live blocks, the register file, the few
//! addresses where the image differs from the live blocks, and the pending
//! frame — is the [`FileBackend`] itself and lives under the
//! controller; the *file half* — log, home area and anchor — is a
//! `WalSink` behind an `Arc`. [`NvmBackend::cut`] moves the pending
//! frame out of the first, [`Cut::commit`] carries it into the second
//! with no reference to the first, and [`NvmBackend::barrier`] is the
//! two back to back. Every step that moves the file — a frame or a
//! checkpoint — takes its turn through the backend's
//! [`Durability`], which admits them strictly in epoch order and refuses
//! everything after a failure, so the in-memory half may account for a
//! frame from the moment it is cut.
//!
//! **The write position is not the file length.** Appending to a file
//! grows it, and a sync that has to commit a new length and new blocks
//! waits for a filesystem-journal commit — several times the cost of
//! syncing bytes that overwrite blocks already on disk. So the log file is
//! kept longer than the log: whenever the next frame does not fit, the
//! file is first extended by writing zeros past it
//! (`max(64 KiB, log length / 4)` of them) and `sync_all`ed, and only
//! then does the frame land, inside blocks that exist. The durability
//! point of every acknowledged operation is thus a data-only sync, and
//! it is still a sync of the whole frame before the anchor seal before
//! the reply. The invariant that makes the tail classification of
//! [`crate::wal`] exact: **whenever no append is in progress, every byte
//! at and after the write position is zero**, and slack is durable
//! before a frame is written into it. Extension only ever adds zeros;
//! a reopen truncates a torn tail away, keeps the remaining slack
//! (`sync_all`ing it once, since the process that wrote it may have died
//! first) and resumes at the logical end; a checkpoint starts a new file;
//! and a commit that fails poisons the backend — every later barrier is
//! refused, and the next open sees at worst a torn tail.
//!
//! Each flushed frame carries the device's **freshness epoch**, bumped on
//! every flushing barrier, and a **tag** keyed with the device key over
//! its epoch, its payload and the previous frame's tag. Replay demands a
//! tag that verifies at the frame's place in the chain and strictly
//! increasing epochs, so a forged, spliced, reordered or duplicated frame
//! is typed corruption. The one open, [`FileBackend::open_with_anchor`],
//! compares the last epoch against the sealed [`FreshnessAnchor`] beside
//! the image: an image *behind* the anchor is a rollback to stale state
//! and is reported as [`Freshness::RolledBack`] for the recovery layer to
//! refuse; one *ahead* of it by the one frame an honest crash can leave
//! unsealed is healed — and since no one without the key can write that
//! frame, it is the honest in-flight frame. The chain starts afresh, from
//! the key, in every new log (the first, and each checkpoint's).
//!
//! **The home area is bound to its log.** Its slots carry no tag of their
//! own, but its *digest* — the wrapping sum of a keyed tag per present
//! slot — is in the log: a checkpoint record holds the digest of the home
//! area the checkpoint left, and a priors record in each frame the sum of
//! the tags the home area held for the addresses that frame writes first,
//! each masked by a keyed fold of its frame's epoch and its place in the
//! frame so that no record shows a slot tag.
//! [`NvmBackend::check_home`] checks that the slots the log does not
//! rewrite sum to the recorded digest less those priors, so a home slot
//! flipped, rolled back or dropped at rest outside the log's reach is a
//! typed error, while every state a kill inside a checkpoint leaves still
//! checks: the slots a checkpoint rewrites are exactly the ones its
//! surviving log redoes. The check reads the whole home area, so it runs
//! where its guarantee is used, not at open: the recovery ladder runs it
//! before any rung that re-anchors the roots to what the medium holds,
//! under which a rolled-back slot would verify. Until then such a slot is
//! the integrity tree's to catch, as in the paper: it fails its tree or
//! MAC check when it is first read, which sends the tenant to that
//! ladder.
//!
//! **One map of blocks.** The image in memory is the home area's own
//! layout, in units of 64 slots that are each read in with one `read_at`
//! the first time one of their slots is touched — by a load, a store, a
//! frame's priors or a checkpoint alike — so an open reads none of the
//! home area and the process holds only what it touched. An open replays
//! the log into the units it writes as they are read in; from then on the
//! units *are* the image, except at the few addresses a later write has
//! not brought back in line — a journaled record still in the WPQ, a
//! store not yet cut. Nothing in memory is a second copy of the image. A
//! unit that cannot be read, or holds a marker that is neither empty nor
//! present, reads as empty and breaks the backend: its next barrier or
//! settle fails, typed.
//!
//! Beside the blocks, **one record per address** (`AddrRecord`) holds
//! all the rest the in-memory half knows of it: what the image as cut
//! replays it to where that is not the live block (a cell in a small
//! pool), where its record sits in the pending frame, the log generation
//! it was last logged in, and its wear. So a store, a journaled write and
//! a cut each make one probe of one map and at most one access to the
//! blocks, and a checkpoint, which reads the few differing blocks from
//! the pool and ends a generation with a counter, probes no record per
//! slot it writes.

use crate::addr_hash::AddrMap;
use crate::anchor::{anchor_path_for, AnchorError, AnchorPolicy, Freshness, FreshnessAnchor};
use crate::backend::{Cut, Durability, NvmBackend, WalStats};
use crate::block::Block;
use crate::error::NvmError;
use crate::wal::{
    seal_frame, SlotKey, TagKey, WalWalker, FRAME_HEADER_BYTES, HEADER_BYTES, MAGIC, VERSION,
};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::num::NonZeroUsize;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const TAG_WRITE: u8 = 0;
const TAG_REG: u8 = 1;
/// Opens a checkpoint's log: the digest of the home area the checkpoint
/// left, masked ([`SlotKey::mask`]).
const TAG_CHECKPOINT: u8 = 2;
const CHECKPOINT_RECORD_BYTES: usize = 1 + 8;
/// The sum of the slot tags the home area held, when the log began, for
/// the addresses the frame writes for the first time in this log; masked
/// like the digest.
const TAG_PRIORS: u8 = 3;
const PRIORS_RECORD_BYTES: usize = 1 + 8;

/// A checkpoint is due once the log has grown this many bytes past its
/// header: the most an open walks, bar the frame that crossed it.
pub const CHECKPOINT_BYTES: u64 = 256 * 1024;

/// Bytes of one home slot: the presence marker, then the contents.
pub const HOME_SLOT_BYTES: usize = 1 + crate::BLOCK_BYTES;

/// Marks a home slot that holds a block; an empty slot is zero. Like the
/// WAL's commit marker it has bits to spare, so no single bit flip turns
/// it into either value — a marker that is neither is corruption.
const SLOT_PRESENT: u8 = 0xB5;

/// The page a home slot's byte lies in, for merging a checkpoint's
/// writes.
const PAGE_BYTES: u64 = 4096;

/// Slack kept ahead of the log: at least this much, a quarter of the log
/// beyond that, so extensions stay as rare for a large log as for a
/// small one.
const SLACK_FLOOR: u64 = 64 * 1024;
static ZEROS: [u8; SLACK_FLOOR as usize] = [0; SLACK_FLOOR as usize];

fn io_err(op: &str, path: &Path, e: std::io::Error) -> NvmError {
    NvmError::Backend {
        reason: format!("{op} {}: {e}", path.display()),
    }
}

/// The standard home-area path for an image: `<image>.home`.
pub fn home_path_for(image: &Path) -> PathBuf {
    let mut os = image.as_os_str().to_os_string();
    os.push(".home");
    PathBuf::from(os)
}

/// Copies the image at `from` — its log, its home area and its anchor —
/// to `to`: what a restart over a copy opens. A home area or anchor that
/// `from` does not have (no checkpoint yet, an anchor deleted) is removed
/// at `to`, so the copy never pairs with what was there before.
///
/// # Errors
///
/// The first I/O failure.
pub fn copy_image(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::copy(from, to)?;
    for (from, to) in [
        (home_path_for(from), home_path_for(to)),
        (anchor_path_for(from), anchor_path_for(to)),
    ] {
        match std::fs::copy(&from, &to) {
            Err(e) if e.kind() == ErrorKind::NotFound && !from.exists() => {
                match std::fs::remove_file(&to) {
                    Err(e) if e.kind() != ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
            copied => {
                copied?;
            }
        }
    }
    Ok(())
}

/// Slots a unit of the home area holds: what one read brings in.
const UNIT_SLOTS: u64 = 64;
/// Bytes of one unit, 4 160.
const UNIT_BYTES: usize = UNIT_SLOTS as usize * HOME_SLOT_BYTES;
/// Units in one group of the table. A group's cells are made when one of
/// its units is first touched, so the table stays as small as what was
/// touched, however far the layout spans.
const GROUP_UNITS: u64 = 256;

type Unit = OnceLock<Box<[u8; UNIT_BYTES]>>;

/// Blocks by address in the home area's layout: slot `i`, at byte
/// `i × HOME_SLOT_BYTES`, holds block `i` behind a marker that says whether
/// it was ever stored. Held in units of [`UNIT_SLOTS`] slots, the same
/// bytes in memory as on disk, each read in with one `read_at` of the
/// home area the first time one of its slots is touched — so an open
/// reads none of it. A unit the log has records for takes them on top as
/// it is read.
#[derive(Debug)]
struct Slots {
    /// The home area as the open found it, and its length. A unit not
    /// read yet is as the open found it: a checkpoint writes only slots
    /// whose units it has read.
    home: Option<File>,
    home_path: PathBuf,
    home_len: u64,
    /// Slots the table spans: the home area's, or up to the highest
    /// address stored. Past it every slot is empty.
    len: u64,
    groups: Vec<OnceLock<Box<[Unit]>>>,
    /// The log's last record for each address it writes, by unit: laid
    /// over the unit as it is read. Dropped by the first checkpoint,
    /// which reads every unit the log writes.
    redo: AddrMap<Vec<(usize, Block)>>,
    /// Broken by a unit that cannot be read, or holds a marker that is
    /// neither empty nor present: such a unit reads as empty, and nothing
    /// more becomes durable.
    durability: Durability,
}

impl Slots {
    /// The image over the home area at `home_path` (absent before the
    /// first checkpoint), with `redo` — the log's last record for each
    /// address it writes — on top.
    fn open(
        home_path: PathBuf,
        redo: AddrMap<Block>,
        durability: Durability,
    ) -> Result<Slots, NvmError> {
        let (home, home_len) = match File::open(&home_path) {
            Ok(file) => {
                let len = (file.metadata())
                    .map_err(|e| io_err("stat", &home_path, e))?
                    .len();
                (Some(file), len)
            }
            Err(e) if e.kind() == ErrorKind::NotFound => (None, 0),
            Err(e) => return Err(io_err("open", &home_path, e)),
        };
        let mut slots = Slots {
            home,
            home_path,
            home_len,
            len: 0,
            groups: Vec::new(),
            redo: AddrMap::default(),
            durability,
        };
        slots.span(home_len.div_ceil(HOME_SLOT_BYTES as u64));
        for (phys, block) in redo {
            slots.span(phys + 1);
            let (unit, at) = (phys / UNIT_SLOTS, (phys % UNIT_SLOTS) as usize);
            slots.redo.entry(unit).or_default().push((at, block));
        }
        Ok(slots)
    }

    /// Grows the table to span `len` slots.
    fn span(&mut self, len: u64) {
        if len > self.len {
            self.len = len;
            let groups = len.div_ceil(UNIT_SLOTS * GROUP_UNITS);
            let groups = usize::try_from(groups).expect("a table the address space can hold");
            self.groups.resize_with(groups, OnceLock::new);
        }
    }

    /// The unit holding `phys`, read in if it was not, and the slot's
    /// offset in it; `None` past the table.
    fn unit(&self, phys: u64) -> Option<(&[u8; UNIT_BYTES], usize)> {
        if phys >= self.len {
            return None;
        }
        let (unit, at) = (phys / UNIT_SLOTS, (phys % UNIT_SLOTS) as usize);
        let group = self.groups[(unit / GROUP_UNITS) as usize]
            .get_or_init(|| (0..GROUP_UNITS).map(|_| OnceLock::new()).collect());
        let cell = &group[(unit % GROUP_UNITS) as usize];
        Some((
            cell.get_or_init(|| self.read_unit(unit)),
            at * HOME_SLOT_BYTES,
        ))
    }

    /// Unit `unit` as the home area holds it — zeros past its end: a last
    /// slot cut short is the torn write of a checkpoint its log redoes —
    /// with the log's records on top. One that cannot be read, or holds
    /// a marker that is neither empty nor present, is empty, and breaks
    /// the backend.
    fn read_unit(&self, unit: u64) -> Box<[u8; UNIT_BYTES]> {
        let mut bytes = Box::new([0; UNIT_BYTES]);
        let at = unit * UNIT_BYTES as u64;
        let read = match &self.home {
            Some(home) if at < self.home_len => {
                let len = (self.home_len - at).min(UNIT_BYTES as u64) as usize;
                read_full(home, at, &mut bytes[..len]).map(drop)
            }
            _ => Ok(()),
        };
        let fault = match read {
            Err(e) => Some(format!("read {}: {e}", self.home_path.display())),
            Ok(()) => bad_marker(&bytes[..]).map(|slot| {
                let slot = unit * UNIT_SLOTS + slot as u64;
                corrupt_slot(&self.home_path, slot)
            }),
        };
        if let Some(reason) = fault {
            self.durability.abandon(|| reason);
            bytes.fill(0);
            return bytes;
        }
        for &(slot, block) in self.redo.get(&unit).into_iter().flatten() {
            put(&mut bytes[..], slot * HOME_SLOT_BYTES, block);
        }
        bytes
    }

    fn get(&self, phys: u64) -> Option<Block> {
        let (unit, at) = self.unit(phys)?;
        (unit[at] == SLOT_PRESENT).then(|| block_at(&unit[..], at + 1))
    }

    /// Stores `block` at `phys`; what the slot held.
    fn replace(&mut self, phys: u64, block: Block) -> Option<Block> {
        self.span(phys + 1);
        let (_, at) = self.unit(phys).expect("a slot the table spans");
        let unit = phys / UNIT_SLOTS;
        let group = self.groups[(unit / GROUP_UNITS) as usize].get_mut();
        let cell = group.and_then(|group| group[(unit % GROUP_UNITS) as usize].get_mut());
        let bytes = &mut cell.expect("a unit read in")[..];
        let held = (bytes[at] == SLOT_PRESENT).then(|| block_at(bytes, at + 1));
        put(bytes, at, block);
        held
    }

    /// Every present block, by address: reads in every unit.
    fn iter(&self) -> impl Iterator<Item = (u64, Block)> + '_ {
        (0..self.len).filter_map(|phys| Some((phys, self.get(phys)?)))
    }
}

/// Slot `at` of `bytes` marked present and holding `block`.
fn put(bytes: &mut [u8], at: usize, block: Block) {
    bytes[at] = SLOT_PRESENT;
    bytes[at + 1..at + HOME_SLOT_BYTES].copy_from_slice(block.as_bytes());
}

/// The first slot of `bytes` whose marker is neither empty nor present.
fn bad_marker(bytes: &[u8]) -> Option<usize> {
    (bytes.chunks(HOME_SLOT_BYTES)).position(|slot| slot[0] != 0 && slot[0] != SLOT_PRESENT)
}

fn corrupt_slot(home_path: &Path, slot: u64) -> String {
    format!(
        "{}: corrupt home slot {slot} (bad presence marker)",
        home_path.display()
    )
}

/// Reads `file` from `at` into `bytes` until it is full or the file ends;
/// how many bytes it read.
fn read_full(file: &File, at: u64, bytes: &mut [u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match file.read_at(&mut bytes[done..], at + done as u64) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// The block whose 64 bytes start at `at`.
fn block_at(bytes: &[u8], at: usize) -> Block {
    Block::from_bytes(
        bytes[at..at + crate::BLOCK_BYTES]
            .try_into()
            .expect("64-byte slice"),
    )
}

/// The log file: frames up to `end`, zeros from there to `len`.
#[derive(Debug)]
struct Log {
    file: File,
    path: PathBuf,
    /// The write position — the logical end of the log.
    end: u64,
    /// The file's length; `len - end` is the slack.
    len: u64,
    /// What the frames are tagged under.
    key: TagKey,
    /// The last frame's tag (the key's seed in a log without one): what
    /// the next frame chains behind.
    tag: u64,
}

impl Log {
    /// Starts an empty log in `file`: just the image header, and a chain
    /// seeded from `key`.
    fn init(mut file: File, path: PathBuf, key: TagKey) -> Result<Log, NvmError> {
        file.write_all(MAGIC)
            .map_err(|e| io_err("init", &path, e))?;
        file.write_all(&VERSION.to_le_bytes())
            .map_err(|e| io_err("init", &path, e))?;
        Ok(Log {
            file,
            path,
            end: HEADER_BYTES as u64,
            len: HEADER_BYTES as u64,
            key,
            tag: key.seed(),
        })
    }

    /// A new log file at `path`: the header, then `frame` sealed for
    /// `epoch` at the head of a chain seeded from `key`, then slack for
    /// all the log may grow to before the next checkpoint, so that no
    /// frame of it has to extend the file — written whole and made
    /// durable, length included, by one `sync_all`.
    fn create(
        path: PathBuf,
        key: TagKey,
        frame: &mut Vec<u8>,
        epoch: u64,
    ) -> Result<Log, NvmError> {
        let tag = seal_frame(frame, &key, key.seed(), epoch);
        let end = (HEADER_BYTES + frame.len()) as u64;
        let len = end + CHECKPOINT_BYTES + SLACK_FLOOR;
        let mut bytes = Vec::with_capacity(len as usize);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(frame);
        bytes.resize(len as usize, 0);
        let mut file = File::create(&path).map_err(|e| io_err("create", &path, e))?;
        file.write_all(&bytes)
            .map_err(|e| io_err("write", &path, e))?;
        file.sync_all().map_err(|e| io_err("sync", &path, e))?;
        Ok(Log {
            file,
            path,
            end,
            len,
            key,
            tag,
        })
    }

    /// Seals `frame` — [`FRAME_HEADER_BYTES`] of reservation followed by
    /// the payload — for `epoch` behind the last frame, writes it at the
    /// write position and `sync_data`s it. The sync is data-only in
    /// effect as well as in name: the frame lands in slack that
    /// [`Log::reserve`] made durable.
    ///
    /// Until the whole frame is durable, bytes past `end` may be
    /// non-zero: after an `Err` nothing more may be written through this
    /// log, which is what [`Durability::in_turn`] enforces.
    fn append(&mut self, frame: &mut Vec<u8>, epoch: u64) -> Result<(), NvmError> {
        let tag = seal_frame(frame, &self.key, self.tag, epoch);
        self.reserve(frame.len() as u64)?;
        self.file
            .seek(SeekFrom::Start(self.end))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.file
            .write_all(frame)
            .map_err(|e| io_err("append", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("sync", &self.path, e))?;
        self.end += frame.len() as u64;
        self.tag = tag;
        Ok(())
    }

    /// Makes sure `bytes` fit between the write position and the end of
    /// the file, extending it with durable zeros if not.
    fn reserve(&mut self, bytes: u64) -> Result<(), NvmError> {
        let need = self.end + bytes;
        if need <= self.len {
            return Ok(());
        }
        let target = need + SLACK_FLOOR.max(self.end / 4);
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut at = self.len;
        while at < target {
            let n = (target - at).min(SLACK_FLOOR);
            self.file
                .write_all(&ZEROS[..n as usize])
                .map_err(|e| io_err("extend", &self.path, e))?;
            at += n;
        }
        // The new length and blocks are committed here, once, so that no
        // frame sync has to.
        self.file
            .sync_all()
            .map_err(|e| io_err("sync", &self.path, e))?;
        self.len = target;
        Ok(())
    }
}

/// The file half of a [`FileBackend`]: the log, the home area and the
/// sealed anchor, shared between the backend (fused barriers,
/// checkpoints) and whatever thread carries a detached [`Cut`].
///
/// `file` is held across a frame's `write_all`, `sync_data` and anchor
/// seal; how far that has got is the [`Durability`]'s to say, under a
/// lock of its own, so asking never waits for the I/O that moves it.
#[derive(Debug)]
struct WalSink {
    file: Mutex<FileHalf>,
    durability: Durability,
}

#[derive(Debug)]
struct FileHalf {
    log: Log,
    /// The home area, opened for writing by the first checkpoint that
    /// needs it.
    home: Option<File>,
    /// Sealed epoch register; absent when the open found a violation,
    /// so the evidence stays untouched.
    anchor: Option<FreshnessAnchor>,
}

impl FileHalf {
    fn seal(&mut self, epoch: u64) -> Result<(), NvmError> {
        if let Some(anchor) = &mut self.anchor {
            anchor.seal(epoch).map_err(|e| NvmError::Backend {
                reason: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Writes `runs` — slot bytes, each at the slot of its first address
    /// — into the home area at `path` and `sync_data`s it. The first
    /// write of a process may create the home area, so it is followed by
    /// a directory sync, like the rename that comes after it.
    fn write_home(&mut self, path: &Path, runs: &[(u64, Vec<u8>)]) -> Result<(), NvmError> {
        let created = self.home.is_none();
        let home = match &mut self.home {
            Some(home) => home,
            slot => slot.insert(
                OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(path)
                    .map_err(|e| io_err("open", path, e))?,
            ),
        };
        for (first, bytes) in runs {
            home.write_all_at(bytes, first * HOME_SLOT_BYTES as u64)
                .map_err(|e| io_err("write", path, e))?;
        }
        home.sync_data().map_err(|e| io_err("sync", path, e))?;
        if created {
            sync_dir(path);
        }
        Ok(())
    }
}

/// Best-effort sync of the directory holding `path`, so that a file
/// created or renamed there stays.
fn sync_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl WalSink {
    fn file(&self) -> MutexGuard<'_, FileHalf> {
        // A holder that panicked mid-frame broke the log through its
        // `in_turn`; the guard is only ever used again to read offsets.
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One frame: append + `sync_data`, then the anchor seal. The WAL
    /// lands strictly before the anchor advances, so an honest crash
    /// between the two leaves the image *ahead* of the anchor (accepted
    /// and healed on reopen) — never behind it. To be run in the
    /// frame's turn ([`Durability::in_turn`]).
    fn write(&self, epoch: u64, frame: &mut Vec<u8>) -> Result<(), NvmError> {
        let mut file = self.file();
        file.log.append(frame, epoch)?;
        file.seal(epoch)
    }
}

/// What the in-memory half keeps for one address besides its block: 32
/// bytes, so that the map of them stays in cache.
#[derive(Clone, Copy, Debug, Default)]
struct AddrRecord {
    /// Where the image as cut — home area and log — does not replay the
    /// address to the live block, which of the [`Cuts`] holds what it
    /// does replay it to. `None` where the image *is* the live block. Two
    /// things make them differ: a journaled record not yet drained —
    /// WPQ-resident, so invisible to `load`, but in the log, which a
    /// checkpoint must carry home and a later write coalesces against —
    /// and a store not yet cut. A cut or a store that brings the two back
    /// in line clears it, so while the platform lives about the WPQ's
    /// worth of journaled lines plus one frame's stores hold one. Set at
    /// the cut, not at the commit: coalescing consults the image as cut
    /// for the *next* frame while this one may still be in flight, and a
    /// frame that fails to land ends the log (the sink breaks), so no
    /// record describes a log that goes on without it.
    cut: Option<u32>,
    /// Where the 64 contents bytes of the address's one record in the
    /// pending frame sit. The frame is the atomicity unit and replay is
    /// last-write-wins, so only the last image of an address within a
    /// frame matters: a later record overwrites the earlier one in place.
    pending: Option<NonZeroUsize>,
    /// The log generation ([`FileBackend::generation`]) a frame cut last
    /// held a record for the address in: while it is the current one, the
    /// address is a home slot the next checkpoint writes.
    logged_in: u64,
    /// Counted writes since the open (wear accounting; not part of the
    /// image).
    writes: u64,
}

/// What the image as cut replays an address to where that is not its
/// live block — its last record in a frame cut so far or its home slot,
/// `None` if it has neither — one cell per [`AddrRecord::cut`], each
/// with its address, and the cells no record holds, whose address is
/// [`VACANT`]: a checkpoint reads every address that differs here,
/// without a probe of the records per slot it writes.
#[derive(Debug, Default)]
struct Cuts {
    cells: Vec<(u64, Option<Block>)>,
    free: Vec<u32>,
}

/// The address of a cell no record holds: past every device's capacity.
const VACANT: u64 = u64::MAX;

impl Cuts {
    fn get(&self, cell: Option<u32>) -> Option<Option<Block>> {
        cell.map(|cell| self.cells[cell as usize].1)
    }

    /// Points `phys`'s `cell` at `cut`, or frees it for `None`.
    fn set(&mut self, phys: u64, cell: &mut Option<u32>, cut: Option<Option<Block>>) {
        if let Some(at) = cell.take() {
            self.cells[at as usize].0 = VACANT;
            self.free.push(at);
        }
        if let Some(block) = cut {
            let at = self.free.pop().unwrap_or_else(|| {
                self.cells.push((VACANT, None));
                u32::try_from(self.cells.len() - 1).expect("under 2^32 blocks differ")
            });
            self.cells[at as usize] = (phys, block);
            *cell = Some(at);
        }
    }
}

/// The next frame under construction.
#[derive(Debug)]
struct Pending {
    /// [`FRAME_HEADER_BYTES`] reserved for the header (filled in when the
    /// frame is sealed), then the serialized records awaiting the next
    /// cut, which takes the buffer with it.
    bytes: Vec<u8>,
    /// The addresses with a record in `bytes`, in frame order; each
    /// record's [`AddrRecord::pending`] says where its bytes sit.
    addrs: Vec<u64>,
    /// Where in `bytes` the 64 contents bytes of each register's one
    /// record sit.
    regs: Vec<(u8, usize)>,
    /// Records that cost no frame bytes of their own (see [`WalStats`]).
    coalesced: u64,
}

impl Pending {
    /// Adds a block record for `phys` — unless the frame already holds
    /// one, which is overwritten in place, or the image as cut already
    /// replays `phys` to exactly `block` (a journaled write reaching
    /// `store` when the WPQ evicts it), which needs no record at all.
    /// `same` says whether it does; it need not be right where the frame
    /// holds a record.
    fn write(&mut self, phys: u64, record: &mut AddrRecord, block: Block, same: bool) {
        match record.pending {
            Some(at) => {
                let at = at.get();
                self.bytes[at..at + crate::BLOCK_BYTES].copy_from_slice(block.as_bytes());
                self.coalesced += 1;
            }
            None if same => self.coalesced += 1,
            None => {
                self.bytes.push(TAG_WRITE);
                self.bytes.extend_from_slice(&phys.to_le_bytes());
                record.pending = NonZeroUsize::new(self.bytes.len());
                self.bytes.extend_from_slice(block.as_bytes());
                self.addrs.push(phys);
            }
        }
    }

    /// As [`Pending::write`] for a register mirror; `flushed` is the
    /// image the log yields for `idx` when no record is pending.
    fn reg(&mut self, idx: u8, block: Block, flushed: Option<Block>) {
        if let Some(&(_, at)) = self.regs.iter().find(|&&(i, _)| i == idx) {
            self.bytes[at..at + crate::BLOCK_BYTES].copy_from_slice(block.as_bytes());
            self.coalesced += 1;
        } else if flushed == Some(block) {
            self.coalesced += 1;
        } else {
            self.bytes.push(TAG_REG);
            self.bytes.push(idx);
            self.regs.push((idx, self.bytes.len()));
            self.bytes.extend_from_slice(block.as_bytes());
        }
    }

    fn is_empty(&self) -> bool {
        self.bytes.len() == FRAME_HEADER_BYTES
    }

    /// Takes the frame, leaving an empty one behind with room for as many
    /// bytes, so that a run of like frames grows no buffer.
    fn take(&mut self) -> Vec<u8> {
        self.addrs.clear();
        self.regs.clear();
        let mut next = Vec::with_capacity(self.bytes.len());
        next.resize(FRAME_HEADER_BYTES, 0);
        std::mem::replace(&mut self.bytes, next)
    }
}

/// A durable, write-ahead-logged file backend for [`crate::NvmDevice`].
///
/// Persisted bytes never reflect an unflushed commit group: records only
/// reach the file at a barrier, which the controllers take once at the
/// end of every fused public operation, a serving layer once per group
/// of deferred ones, and the persistence domain on its platform paths
/// (ADR flush, power-up REDO, WPQ drain) — see the durability
/// contract on [`NvmBackend`]. Reopening the image after a SIGKILL
/// therefore reconstructs a state an in-process `power_fail` could have
/// left at an operation boundary: every commit group of every
/// acknowledged operation, and of the operations in flight either all
/// groups they had completed when their barrier was cut or none.
///
/// This struct is the in-memory half; the files live in a shared sink
/// (module docs), which is why `epoch` here is the epoch of the last
/// frame *cut* and may run one detached [`Cut`] ahead of what
/// [`NvmBackend::durability`] has reached.
#[derive(Debug)]
pub struct FileBackend {
    sink: Arc<WalSink>,
    path: PathBuf,
    /// The live blocks: what `load` sees, every store included.
    live: Slots,
    /// Everything else the in-memory half knows of an address, one record
    /// each: every address stored, journaled or logged since the open.
    records: AddrMap<AddrRecord>,
    cuts: Cuts,
    /// The addresses logged in the current generation.
    logged: Vec<u64>,
    /// The log generation: one more than the checkpoints since the open.
    generation: u64,
    /// The live registers. A register is never journaled, so it differs
    /// from the log as cut only while a record for it is pending.
    regs: BTreeMap<u8, Block>,
    /// What home slots are tagged under.
    slot_key: SlotKey,
    /// The digest of the home area as the log's checkpoint record has it.
    home_digest: u64,
    /// The sum of the log's priors records.
    priors: u64,
    /// The log's logical end once every frame cut so far has landed.
    log_end: u64,
    pending: Pending,
    /// Current freshness epoch: that of the image's last intact frame at
    /// open, bumped by each cut.
    epoch: u64,
    /// The anchor check's verdict at open time.
    freshness: Freshness,
    /// Torn tail frames discarded (and truncated away) at open.
    rejected_frames: u64,
    suppressed: bool,
}

impl FileBackend {
    /// Opens (or creates) the image at `path` whose frames are tagged
    /// under `key`: replays every committed frame of its log over its home
    /// area, which it reads none of (a torn tail frame is truncated away), and
    /// verifies the log's epoch against the sealed freshness anchor
    /// beside it (`<path>.anchor`, sealed under the same key), creating
    /// the anchor for a fresh image. The verdict is reported through
    /// [`NvmBackend::freshness`]; an image behind the anchor still opens
    /// (so the damage can be inspected) but reports
    /// [`Freshness::RolledBack`], which the recovery layer must refuse.
    /// Under [`AnchorPolicy::Override`] a missing or corrupt anchor is
    /// resealed from the image's epoch instead of reported as a
    /// violation; genuine rollback is never overridden.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] for I/O failures (the anchor's
    /// included), a bad magic or version, and every [`crate::WalFault`]: a
    /// committed frame whose tag (under `key`) or epoch order fails, and
    /// bytes at the tail that are neither zero slack nor a torn append.
    pub fn open_with_anchor(
        path: impl AsRef<Path>,
        key: [u64; 2],
        policy: AnchorPolicy,
    ) -> Result<Self, NvmError> {
        let path = path.as_ref().to_path_buf();
        let slot_key = SlotKey::new(key);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", &path, e))?;

        let (mut redo, mut regs) = (AddrMap::default(), BTreeMap::new());
        let mut check = HomeCheck::new(slot_key);
        let mut epoch = 0u64;
        let mut rejected_frames = 0u64;

        let tag_key = TagKey::new(key);
        let log = if bytes.is_empty() {
            let log = Log::init(file, path.clone(), tag_key)?;
            log.file
                .sync_data()
                .map_err(|e| io_err("sync", &log.path, e))?;
            log
        } else {
            let fault = |f| NvmError::Backend {
                reason: format!("{}: {f}", path.display()),
            };
            let mut walk = WalWalker::new(&bytes, key).map_err(fault)?;
            for frame in walk.by_ref() {
                let frame = frame.map_err(fault)?;
                let first = epoch == 0;
                epoch = frame.epoch;
                let payload = frame.payload(&bytes);
                replay_frame(
                    &path, payload, epoch, first, &mut check, &mut redo, &mut regs,
                )?;
            }
            let (end, torn) = (walk.logical_end() as u64, walk.torn_tail());
            let mut len = bytes.len() as u64;
            if torn {
                // The unacknowledged append of a killed process: dropped
                // whole, which also restores the zero tail.
                rejected_frames += 1;
                len = end;
                file.set_len(len)
                    .map_err(|e| io_err("truncate", &path, e))?;
            }
            if torn || len > end {
                // Inherited slack may never have been synced by the
                // process that wrote it.
                file.sync_all().map_err(|e| io_err("sync", &path, e))?;
            }
            Log {
                file,
                path: path.clone(),
                end,
                len,
                key: tag_key,
                tag: walk.last_tag(),
            }
        };

        let durability = Durability::at(epoch);
        let logged: Vec<u64> = redo.keys().copied().collect();
        let record = AddrRecord {
            logged_in: 1,
            ..AddrRecord::default()
        };
        let records = logged.iter().map(|&phys| (phys, record)).collect();
        let live = Slots::open(home_path_for(&path), redo, durability.clone())?;
        // No frame and no home block: nothing a missing or torn anchor
        // could be hiding.
        let fresh = epoch == 0 && live.home_len == 0;
        let (anchor, freshness) = Self::check_anchor(&log.path, key, policy, epoch, fresh)?;
        let log_end = log.end;

        Ok(FileBackend {
            sink: Arc::new(WalSink {
                file: Mutex::new(FileHalf {
                    log,
                    home: None,
                    anchor,
                }),
                durability,
            }),
            path,
            live,
            records,
            cuts: Cuts::default(),
            logged,
            generation: 1,
            regs,
            slot_key,
            home_digest: check.recorded,
            priors: check.priors,
            log_end,
            pending: Pending {
                bytes: vec![0; FRAME_HEADER_BYTES],
                addrs: Vec::new(),
                regs: Vec::new(),
                coalesced: 0,
            },
            epoch,
            freshness,
            rejected_frames,
            suppressed: false,
        })
    }

    /// Resolves the anchor beside the image against the image's replayed
    /// epoch. Returns the anchor handle (absent only when the verdict is
    /// a strict-policy violation, so evidence is preserved untouched)
    /// plus the freshness verdict. A `fresh` image — no frame, no home
    /// block — bootstraps a missing or corrupt anchor: deleting the
    /// anchor of such an image already bootstraps it, and a first boot
    /// killed inside the anchor's creation leaves one torn.
    fn check_anchor(
        path: &Path,
        key: [u64; 2],
        policy: AnchorPolicy,
        image_epoch: u64,
        fresh: bool,
    ) -> Result<(Option<FreshnessAnchor>, Freshness), NvmError> {
        let apath = anchor_path_for(path);
        let anchor_io = |e: AnchorError| NvmError::Backend {
            reason: e.to_string(),
        };
        match FreshnessAnchor::probe(&apath, key) {
            Ok(Some(anchored)) if anchored > image_epoch => {
                // A valid anchor ahead of the image proves rollback; no
                // policy overrides it, and the anchor is left untouched.
                Ok((
                    None,
                    Freshness::RolledBack {
                        anchored_epoch: anchored,
                        image_epoch,
                    },
                ))
            }
            Ok(Some(anchored)) if image_epoch > anchored + 1 => {
                // The seal follows every frame fsync, so an honest crash
                // leaves the image at most ONE epoch past the anchor.
                // Further ahead means frames were appended at rest — by a
                // holder of the key, since their tags verify. Like
                // rollback this is proven by a valid anchor, so no policy
                // overrides it.
                Ok((
                    None,
                    Freshness::TailForged {
                        anchored_epoch: anchored,
                        image_epoch,
                    },
                ))
            }
            Ok(Some(anchored)) => {
                let mut a = FreshnessAnchor::open(apath, key).map_err(anchor_io)?;
                if anchored < image_epoch {
                    // Honest crash after the WAL fsync but before the
                    // anchor seal (or mid-seal, torn): heal forward. The
                    // frame's tag verified under the key, behind this
                    // log's last frame — no one else wrote it.
                    a.seal(image_epoch).map_err(anchor_io)?;
                }
                Ok((Some(a), Freshness::Fresh { epoch: image_epoch }))
            }
            Ok(None) | Err(AnchorError::Corrupt) if fresh => {
                // Fresh image with no history: bootstrap the anchor.
                let a = FreshnessAnchor::create(apath, key, 0).map_err(anchor_io)?;
                Ok((Some(a), Freshness::Fresh { epoch: 0 }))
            }
            Ok(None) => match policy {
                AnchorPolicy::Strict => Ok((None, Freshness::AnchorMissing { image_epoch })),
                AnchorPolicy::Override => {
                    let a = FreshnessAnchor::create(apath, key, image_epoch).map_err(anchor_io)?;
                    Ok((Some(a), Freshness::Overridden { image_epoch }))
                }
            },
            Err(AnchorError::Corrupt) => match policy {
                AnchorPolicy::Strict => Ok((None, Freshness::AnchorCorrupt { image_epoch })),
                AnchorPolicy::Override => {
                    let a = FreshnessAnchor::create(apath, key, image_epoch).map_err(anchor_io)?;
                    Ok((Some(a), Freshness::Overridden { image_epoch }))
                }
            },
            Err(e @ AnchorError::Io { .. }) => Err(anchor_io(e)),
        }
    }

    /// The image path this backend persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether [`NvmBackend::suppress_flushes`] has been invoked.
    pub fn flushes_suppressed(&self) -> bool {
        self.suppressed
    }

    /// Stores `block` at `phys` and returns its record. The image as cut
    /// does not move: `live` differs from it at `phys` from now on unless
    /// it already holds `block` there.
    fn store_record(&mut self, phys: u64, block: Block) -> &mut AddrRecord {
        let live = self.live.replace(phys, block);
        let record = self.records.entry(phys).or_default();
        let logged = self.cuts.get(record.cut).unwrap_or(live);
        let cut = (logged != Some(block)).then_some(logged);
        self.cuts.set(phys, &mut record.cut, cut);
        let same = logged == Some(block);
        self.pending.write(phys, record, block, same);
        record
    }

    /// Drops the records awaiting the next cut.
    fn clear_pending(&mut self) {
        for phys in &self.pending.addrs {
            let record = self.records.get_mut(phys).expect("a pending record");
            record.pending = None;
        }
        self.pending.take();
    }

    /// The in-memory half of a barrier: bumps the epoch, accounts for
    /// the pending records as part of the log (each address's record,
    /// `log_end`), closes the frame with a priors record when it writes
    /// for the first time since the checkpoint an address the home area
    /// holds a block for, and returns it
    /// — header reservation plus payload, to be sealed for the new epoch
    /// — leaving an empty pending frame behind. `None` when there is
    /// nothing to cut.
    fn cut_frame(&mut self) -> Option<Vec<u8>> {
        if self.suppressed {
            // The platform died: unflushed records evaporate.
            self.clear_pending();
            return None;
        }
        if self.pending.is_empty() {
            return None;
        }
        self.epoch += 1;
        let mut priors = 0u64;
        for &phys in &self.pending.addrs {
            let record = self.records.get_mut(&phys).expect("a pending record");
            let at = record.pending.take().expect("a pending record").get();
            let live = self.live.get(phys);
            if record.logged_in != self.generation {
                record.logged_in = self.generation;
                self.logged.push(phys);
                // What the image held before this frame: the home slot.
                let home = self.cuts.get(record.cut).unwrap_or(live);
                let tag = home.map_or(0, |block| self.slot_key.tag(phys, &block));
                priors = priors.wrapping_add(tag);
            }
            let logged = block_at(&self.pending.bytes, at);
            let cut = (live != Some(logged)).then_some(Some(logged));
            self.cuts.set(phys, &mut record.cut, cut);
        }
        if priors != 0 {
            // A sum of nothing, empty slots included, adds nothing.
            let bytes = &mut self.pending.bytes;
            let mask = (self.slot_key).mask(self.epoch, bytes.len() - FRAME_HEADER_BYTES);
            bytes.push(TAG_PRIORS);
            bytes.extend_from_slice(&priors.wrapping_add(mask).to_le_bytes());
            self.priors = self.priors.wrapping_add(priors);
        }
        // The frame's header is reserved; its commit marker is not yet.
        self.log_end += self.pending.bytes.len() as u64 + 1;
        Some(self.pending.take())
    }

    /// Cut and commit back to back, for the paths that hold `&mut self`
    /// throughout anyway: the frame queues behind any cut in flight.
    fn flush(&mut self) -> Result<(), NvmError> {
        let Some(mut frame) = self.cut_frame() else {
            return Ok(());
        };
        let (sink, epoch) = (&self.sink, self.epoch);
        (sink.durability).in_turn(epoch, || sink.write(epoch, &mut frame))
    }

    /// What the image as cut replays each address to: the few addresses
    /// where it is not `live` are the cut cells in use, read once here so
    /// that a checkpoint probes no record per slot it writes.
    fn image(&self) -> impl Fn(u64) -> Option<Block> + '_ {
        let cuts = self.cuts.cells.iter().filter(|&&(phys, _)| phys != VACANT);
        let cuts: AddrMap<Option<Block>> = cuts.copied().collect();
        move |phys| (cuts.get(&phys).copied()).unwrap_or_else(|| self.live.get(phys))
    }

    fn checkpoint_due(&self) -> bool {
        self.log_end > HEADER_BYTES as u64 + CHECKPOINT_BYTES
    }

    /// The home slots a checkpoint writes: every address the log holds a
    /// record for — and the slots between two of them whose pages touch,
    /// so a write never dirties a page the logged slots alone would not
    /// — as runs of slot bytes, each with the address of its first slot.
    /// Every slot holds what the image as cut replays it to, which for a
    /// slot between two logged addresses is what the home area holds
    /// already.
    fn home_runs(&self, mut addrs: Vec<u64>) -> Vec<(u64, Vec<u8>)> {
        let image = self.image();
        let page = |phys: u64, byte: u64| (phys * HOME_SLOT_BYTES as u64 + byte) / PAGE_BYTES;
        addrs.sort_unstable();
        addrs.dedup();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for phys in addrs {
            match spans.last_mut() {
                Some((_, last)) if page(phys, 0) <= page(*last, HOME_SLOT_BYTES as u64 - 1) + 1 => {
                    *last = phys;
                }
                _ => spans.push((phys, phys)),
            }
        }
        (spans.into_iter())
            .map(|(first, last)| {
                let mut bytes = Vec::with_capacity((last - first + 1) as usize * HOME_SLOT_BYTES);
                for phys in first..=last {
                    match image(phys) {
                        Some(block) => {
                            bytes.push(SLOT_PRESENT);
                            bytes.extend_from_slice(block.as_bytes());
                        }
                        None => bytes.resize(bytes.len() + HOME_SLOT_BYTES, 0),
                    }
                }
                (first, bytes)
            })
            .collect()
    }

    /// Carries the log home and starts a new one: writes the home slots
    /// of every address the log holds a record for ([`Self::home_runs`]),
    /// `sync_data`s the home area, then writes the new log — header and
    /// one frame, tagged at the current epoch, of the checkpoint record
    /// (the new home digest) and the registers, with its own slack —
    /// aside and renames it into place. Idempotent redo: a kill anywhere in it leaves the old log over a home area that holds
    /// only values the old log also replays to, or the new log over the
    /// synced home area, and either reopens to the same state at the same
    /// epoch — also when power loss undoes the rename. The blocks
    /// journaled and still undrained go home with the rest: `logged`
    /// reads each record's image as cut over `live`. The image replays to
    /// what it did, so those stay as they are.
    ///
    /// Both halves are at rest for it: `&mut self` holds the in-memory
    /// half, and the checkpoint starts only once every frame cut before
    /// it — all of which the records already account for — is durable.
    /// Nothing may be buffered: `regs` is live, not the log as cut —
    /// [`NvmBackend::settle`] flushes first.
    fn checkpoint(&mut self) -> Result<(), NvmError> {
        debug_assert!(self.pending.is_empty());
        let addrs = std::mem::take(&mut self.logged);
        self.generation += 1;
        let image = self.image();
        // The home digest moves by the logged slots' tags, old to new.
        let logged = (addrs.iter())
            .filter_map(|&phys| Some(self.slot_key.tag(phys, &image(phys)?)))
            .fold(0u64, u64::wrapping_add);
        drop(image);
        let digest = (self.home_digest.wrapping_sub(self.priors)).wrapping_add(logged);
        let runs = self.home_runs(addrs);
        let mut regs = Vec::with_capacity(self.regs.len() * 66);
        for (&idx, block) in &self.regs {
            regs.push(TAG_REG);
            regs.push(idx);
            regs.extend_from_slice(block.as_bytes());
        }
        let log_end =
            (HEADER_BYTES + FRAME_HEADER_BYTES + CHECKPOINT_RECORD_BYTES + regs.len() + 1) as u64;

        let (epoch, path, sink) = (self.epoch, &self.path, &self.sink);
        let masked = digest.wrapping_add(self.slot_key.mask(epoch, 0));
        sink.durability.at_rest(epoch, || {
            let mut file = sink.file();
            let mut frame = vec![0; FRAME_HEADER_BYTES];
            frame.push(TAG_CHECKPOINT);
            frame.extend_from_slice(&masked.to_le_bytes());
            frame.extend_from_slice(&regs);
            file.write_home(&home_path_for(path), &runs)?;
            let tmp = path.with_extension("checkpoint-tmp");
            let mut out = Log::create(tmp, file.log.key, &mut frame, epoch)?;
            std::fs::rename(&out.path, path).map_err(|e| io_err("rename", &out.path, e))?;
            sync_dir(path);
            out.path.clone_from(path);
            file.log = out;
            Ok(())
        })?;
        (self.log_end, self.home_digest, self.priors) = (log_end, digest, 0);
        // `home_runs` read in every unit the log wrote.
        self.live.redo = AddrMap::default();
        Ok(())
    }
}

/// What the log says the home area held, gathered while it replays.
struct HomeCheck {
    /// What home slots are tagged, and the records masked, under.
    key: SlotKey,
    /// The digest the log's checkpoint record carries; zero for a log no
    /// checkpoint began, which starts over an empty home area.
    recorded: u64,
    /// The sum of the log's priors records.
    priors: u64,
}

impl HomeCheck {
    fn new(key: SlotKey) -> HomeCheck {
        HomeCheck {
            key,
            recorded: 0,
            priors: 0,
        }
    }
}

/// One record of a frame's payload. A digest or priors sum is read as
/// written, masked, with its offset in the payload.
enum Record {
    Write(u64, Block),
    Reg(u8, Block),
    Checkpoint { at: usize, masked: u64 },
    Priors { at: usize, masked: u64 },
}

fn records(path: &Path, payload: &[u8]) -> Result<Vec<Record>, NvmError> {
    let malformed = |pos: usize| NvmError::Backend {
        reason: format!(
            "{}: malformed WAL record at frame offset {pos}",
            path.display()
        ),
    };
    let word =
        |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8-byte slice"));
    let fits = |pos: usize, len: usize| pos + len <= payload.len();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        let (record, len) = match payload[pos] {
            TAG_WRITE if fits(pos, 9 + crate::BLOCK_BYTES) => (
                Record::Write(word(pos + 1), block_at(payload, pos + 9)),
                9 + crate::BLOCK_BYTES,
            ),
            TAG_REG if fits(pos, 2 + crate::BLOCK_BYTES) => (
                Record::Reg(payload[pos + 1], block_at(payload, pos + 2)),
                2 + crate::BLOCK_BYTES,
            ),
            TAG_CHECKPOINT if fits(pos, CHECKPOINT_RECORD_BYTES) => (
                Record::Checkpoint {
                    at: pos,
                    masked: word(pos + 1),
                },
                CHECKPOINT_RECORD_BYTES,
            ),
            TAG_PRIORS if fits(pos, PRIORS_RECORD_BYTES) => (
                Record::Priors {
                    at: pos,
                    masked: word(pos + 1),
                },
                PRIORS_RECORD_BYTES,
            ),
            _ => return Err(malformed(pos)),
        };
        out.push(record);
        pos += len;
    }
    Ok(out)
}

/// Replays one frame into `redo` — the last record of each address —
/// and `regs`, adding what it says about the home area to `check`: its
/// priors, unmasked for the frame's `epoch`.
/// A checkpoint record belongs in the log's `first` frame only.
fn replay_frame(
    path: &Path,
    payload: &[u8],
    epoch: u64,
    first: bool,
    check: &mut HomeCheck,
    redo: &mut AddrMap<Block>,
    regs: &mut BTreeMap<u8, Block>,
) -> Result<(), NvmError> {
    let key = check.key;
    for record in records(path, payload)? {
        match record {
            Record::Write(phys, block) => {
                redo.insert(phys, block);
            }
            Record::Reg(idx, block) => {
                regs.insert(idx, block);
            }
            Record::Checkpoint { at, masked } if first => {
                check.recorded = masked.wrapping_sub(key.mask(epoch, at));
            }
            Record::Checkpoint { .. } => {
                return Err(NvmError::Backend {
                    reason: format!(
                        "{}: a checkpoint record past the log's first frame",
                        path.display()
                    ),
                })
            }
            Record::Priors { at, masked } => {
                let sum = masked.wrapping_sub(key.mask(epoch, at));
                check.priors = check.priors.wrapping_add(sum);
            }
        }
    }
    Ok(())
}

impl NvmBackend for FileBackend {
    fn load(&self, phys: u64) -> Option<Block> {
        self.live.get(phys)
    }

    fn store(&mut self, phys: u64, block: Block) {
        self.store_record(phys, block);
    }

    fn store_counted(&mut self, phys: u64, block: Block) -> u64 {
        let record = self.store_record(phys, block);
        record.writes += 1;
        record.writes
    }

    fn writes_to(&self, phys: u64) -> u64 {
        self.records.get(&phys).map_or(0, |record| record.writes)
    }

    fn touched(&self) -> usize {
        self.live.iter().count()
    }

    fn entries(&self) -> Vec<(u64, Block)> {
        self.live.iter().collect()
    }

    fn store_reg(&mut self, idx: u8, block: Block) {
        let previous = self.regs.insert(idx, block);
        self.pending.reg(idx, block, previous);
    }

    fn reg(&self, idx: u8) -> Option<Block> {
        self.regs.get(&idx).copied()
    }

    fn regs(&self) -> Vec<(u8, Block)> {
        self.regs.iter().map(|(&i, &b)| (i, b)).collect()
    }

    fn journal(&mut self, phys: u64, block: Block) {
        let record = self.records.entry(phys).or_default();
        // Where the frame holds a record, what the image as cut holds
        // does not matter: it is not read.
        let (cuts, live) = (&self.cuts, &self.live);
        let logged = || cuts.get(record.cut).unwrap_or_else(|| live.get(phys));
        let same = record.pending.is_none() && logged() == Some(block);
        self.pending.write(phys, record, block, same);
    }

    fn cut(&mut self) -> Option<Cut> {
        let mut frame = self.cut_frame()?;
        let (sink, epoch) = (Arc::clone(&self.sink), self.epoch);
        Some(Cut::new(
            epoch,
            self.checkpoint_due(),
            self.sink.durability.clone(),
            move || sink.write(epoch, &mut frame),
        ))
    }

    fn ticket(&self) -> u64 {
        self.epoch + u64::from(!self.pending.is_empty())
    }

    fn durability(&self) -> Durability {
        self.sink.durability.clone()
    }

    fn barrier(&mut self) -> Result<(), NvmError> {
        match self.cut() {
            Some(cut) => {
                cut.commit()?;
                self.settle()
            }
            // Nothing to write, but a log broken since is still news.
            None => self.sink.durability.reached().map(drop),
        }
    }

    fn settle(&mut self) -> Result<(), NvmError> {
        self.sink.durability.reached()?;
        if self.suppressed || !self.checkpoint_due() {
            return Ok(());
        }
        // Operations may have executed since the cut that left this due.
        self.flush()?;
        self.checkpoint()
    }

    fn suppress_flushes(&mut self) {
        self.suppressed = true;
        self.clear_pending();
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn freshness(&self) -> Freshness {
        self.freshness
    }

    fn frames_rejected(&self) -> u64 {
        self.rejected_frames
    }

    fn check_home(&self) -> Result<(), NvmError> {
        let _file = self.sink.file();
        let path = home_path_for(&self.path);
        let home = match File::open(&path) {
            Ok(home) => Some(home),
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("open", &path, e)),
        };
        // The slots the log does not write must hold what they held when
        // it began: the checkpoint's digest less the priors of the slots
        // it does write. Read a group's worth of units at a time.
        let mut sum = 0u64;
        if let Some(home) = home {
            let mut bytes = vec![0; UNIT_BYTES * GROUP_UNITS as usize];
            let mut first = 0u64;
            loop {
                let at = first * HOME_SLOT_BYTES as u64;
                let read =
                    read_full(&home, at, &mut bytes).map_err(|e| io_err("read", &path, e))?;
                // A last slot cut short reads as zeros, as in a unit.
                let slots = &mut bytes[..read.div_ceil(HOME_SLOT_BYTES) * HOME_SLOT_BYTES];
                slots[read..].fill(0);
                if let Some(slot) = bad_marker(slots) {
                    let reason = corrupt_slot(&path, first + slot as u64);
                    return Err(NvmError::Backend { reason });
                }
                for slot in slots.chunks_exact(HOME_SLOT_BYTES) {
                    let logged_in = self.records.get(&first).map(|r| r.logged_in);
                    if slot[0] == SLOT_PRESENT && logged_in != Some(self.generation) {
                        sum = sum.wrapping_add(self.slot_key.tag(first, &block_at(slot, 1)));
                    }
                    first += 1;
                }
                if read < bytes.len() {
                    break;
                }
            }
        }
        if sum != self.home_digest.wrapping_sub(self.priors) {
            return Err(NvmError::Backend {
                reason: format!(
                    "{}: the home area is not the one its log was written over",
                    path.display()
                ),
            });
        }
        Ok(())
    }

    fn wal_stats(&self) -> WalStats {
        let file = self.sink.file();
        WalStats {
            log_bytes: file.log.end,
            slack_bytes: file.log.len - file.log.end,
            records_coalesced: self.pending.coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_wal_frame, WalFault, WalFrame};

    const KEY: [u64; 2] = [7, 13];

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anubis-walt-{}-{name}.img", std::process::id()));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        for file in [p.to_path_buf(), home_path_for(p), anchor_path_for(p)] {
            let _ = std::fs::remove_file(file);
        }
    }

    /// The image at `p`, written under [`KEY`]: its bytes, committed
    /// frames and logical end.
    fn layout(p: &Path) -> (Vec<u8>, Vec<WalFrame>, usize) {
        let bytes = std::fs::read(p).unwrap();
        let mut walk = WalWalker::new(&bytes, KEY).unwrap();
        let frames = walk.by_ref().map(|f| f.unwrap()).collect();
        let end = walk.logical_end();
        (bytes, frames, end)
    }

    /// Two one-record frames (epochs 1 and 2); returns the anchor file as
    /// it stood before the second barrier.
    fn two_frames(p: &Path) -> Vec<u8> {
        let mut b = open(p).unwrap();
        b.store(1, Block::filled(0xAA));
        b.barrier().unwrap();
        let anchor = std::fs::read(anchor_path_for(p)).unwrap();
        b.store(2, Block::filled(0xBB));
        b.barrier().unwrap();
        anchor
    }

    /// The open every image gets: under [`KEY`] and the strict anchor.
    fn open(p: &Path) -> Result<FileBackend, NvmError> {
        FileBackend::open_with_anchor(p, KEY, AnchorPolicy::Strict)
    }

    /// Copies the image at `from` to `to`: what a restart over a copy
    /// opens.
    fn copy_image(from: &Path, to: &Path) {
        super::copy_image(from, to).unwrap();
    }

    /// The bytes of the home area beside the image at `p`; none before
    /// its first checkpoint.
    fn home_bytes(p: &Path) -> Vec<u8> {
        std::fs::read(home_path_for(p)).unwrap_or_default()
    }

    #[test]
    fn an_address_record_takes_32_bytes() {
        assert_eq!(std::mem::size_of::<AddrRecord>(), 32);
    }

    #[test]
    fn store_barrier_reopen_roundtrips() {
        let p = tmp("roundtrip");
        {
            let mut b = open(&p).unwrap();
            b.store(5, Block::filled(0x11));
            b.store_reg(2, Block::filled(0x22));
            b.barrier().unwrap();
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(5), Some(Block::filled(0x11)));
        assert_eq!(b.reg(2), Some(Block::filled(0x22)));
        assert_eq!(b.touched(), 1);
        assert_eq!(b.epoch(), 1);
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 1 });
        cleanup(&p);
    }

    #[test]
    fn frame_bytes_follow_the_documented_layout() {
        let p = tmp("layout");
        let mut b = open(&p).unwrap();
        b.store_reg(3, Block::filled(0x33));
        b.journal(9, Block::filled(0x99));
        b.store(4, Block::filled(0x44));
        b.barrier().unwrap();
        b.store(5, Block::filled(0x55));
        b.barrier().unwrap();

        let write = |phys: u64, fill: u8| {
            let mut r = vec![TAG_WRITE];
            r.extend_from_slice(&phys.to_le_bytes());
            r.extend_from_slice(&[fill; crate::BLOCK_BYTES]);
            r
        };
        let mut first = vec![TAG_REG, 3];
        first.extend_from_slice(&[0x33; crate::BLOCK_BYTES]);
        first.extend(write(9, 0x99));
        first.extend(write(4, 0x44));
        // Re-taken for version 4: the eight bytes after the length are now
        // the frame tag — keyed, chained behind the previous frame's tag,
        // folded a word at a time (`wal.rs`) — where version 3 had FNV-1a
        // over epoch ‖ payload. Stated here once more, over the zero-padded
        // message, under the image's key. Re-taken for version 5: only the
        // version word moved; the frames are version 4's.
        let f = |h: u64, w: u64| {
            let product = u128::from(h ^ w) * 0x9E37_79B9_7F4A_7C15u128;
            (product as u64) ^ ((product >> 64) as u64)
        };
        let domain = u64::from_le_bytes(*b"WAL-TAG4");
        let k0 = f(f(domain, KEY[0]), KEY[1]);
        let k1 = f(k0, domain);
        let tag = |prev: u64, epoch: u64, payload: &[u8]| {
            let mut words = payload.to_vec();
            words.resize(payload.len().div_ceil(8) * 8, 0);
            let h = words.chunks(8).fold(f(f(k0, epoch), prev), |h, w| {
                f(h, u64::from_le_bytes(w.try_into().unwrap()))
            });
            f(f(h, payload.len() as u64), k1)
        };
        let mut prev = tag(0, 0, &[]);
        let mut want = MAGIC.to_vec();
        want.extend_from_slice(&5u32.to_le_bytes());
        for (epoch, payload) in [(1u64, first), (2, write(5, 0x55))] {
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            prev = tag(prev, epoch, &payload);
            want.extend_from_slice(&prev.to_le_bytes());
            want.extend_from_slice(&epoch.to_le_bytes());
            want.extend_from_slice(&payload);
            want.push(0xC3);
        }
        let (bytes, frames, end) = layout(&p);
        assert_eq!(bytes[..end], want[..]);
        assert_eq!(frames.len(), 2);
        // The file is longer than the log, and all of the rest is zero.
        let stats = b.wal_stats();
        assert_eq!(stats.log_bytes, end as u64);
        assert_eq!(stats.slack_bytes, (bytes.len() - end) as u64);
        assert!(stats.slack_bytes > SLACK_FLOOR / 2);
        assert!(bytes[end..].iter().all(|&x| x == 0));
        cleanup(&p);
    }

    #[test]
    fn barriers_inside_the_slack_leave_the_file_length_alone() {
        let p = tmp("slack");
        let file_len = || std::fs::metadata(&p).unwrap().len();
        let mut b = open(&p).unwrap();
        b.store(0, Block::filled(1));
        b.barrier().unwrap(); // the first frame extends the file
        let len = file_len();
        for i in 1..200u64 {
            b.store(i, Block::filled(i as u8));
            b.store_reg(0, Block::filled(!(i as u8)));
            b.barrier().unwrap();
            assert_eq!(file_len(), len, "barrier {i} grew the file");
        }
        let (entries, regs, epoch, stats) = (b.entries(), b.regs(), b.epoch(), b.wal_stats());
        assert_eq!(stats.log_bytes + stats.slack_bytes, len);
        drop(b);

        // Reopen: same state, same slack, and it is used up first.
        let mut b = open(&p).unwrap();
        assert_eq!((b.entries(), b.regs(), b.epoch()), (entries, regs, epoch));
        assert_eq!(b.frames_rejected(), 0);
        assert_eq!(b.wal_stats(), stats);
        let mut grew = false;
        for i in 200..2_000u64 {
            let room = b.wal_stats().slack_bytes;
            b.store(i, Block::filled(i as u8));
            b.barrier().unwrap();
            if file_len() != len {
                // Only the frame that did not fit extends the file.
                assert!(room < (FRAME_HEADER_BYTES + 73 + 1) as u64);
                grew = true;
                break;
            }
        }
        assert!(grew, "64 KiB of slack cannot hold 1 800 more frames");
        let (bytes, _, end) = layout(&p);
        assert!(bytes[end..].iter().all(|&x| x == 0));
        assert_eq!(
            FreshnessAnchor::probe(&anchor_path_for(&p), KEY).unwrap(),
            Some(b.epoch())
        );
        cleanup(&p);
    }

    #[test]
    fn unflushed_stores_do_not_persist() {
        let p = tmp("unflushed");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB)); // never barriered
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        cleanup(&p);
    }

    #[test]
    fn journal_records_replay_without_live_store() {
        let p = tmp("journal");
        {
            let mut b = open(&p).unwrap();
            b.journal(9, Block::filled(0x99));
            assert_eq!(b.load(9), None); // WPQ-resident in this process
            b.barrier().unwrap();
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(9), Some(Block::filled(0x99)));
        cleanup(&p);
    }

    #[test]
    fn last_record_wins_on_replay() {
        let p = tmp("lastwins");
        {
            let mut b = open(&p).unwrap();
            b.store(4, Block::filled(1));
            b.barrier().unwrap();
            b.journal(4, Block::filled(2));
            b.store(4, Block::filled(3));
            b.barrier().unwrap();
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(4), Some(Block::filled(3)));
        cleanup(&p);
    }

    /// The uncoalesced reference: every call is one record, a barrier
    /// replays the records of its frame in call order, last write wins.
    #[derive(Default)]
    struct NaiveLog {
        frame: Vec<(Option<u64>, u8, Block)>,
        blocks: BTreeMap<u64, Block>,
        regs: BTreeMap<u8, Block>,
        live: BTreeMap<u64, Block>,
        bytes: u64,
        suppressed: bool,
    }

    impl NaiveLog {
        fn write(&mut self, phys: u64, block: Block, stored: bool) {
            if stored {
                self.live.insert(phys, block);
            }
            self.frame.push((Some(phys), 0, block));
        }

        fn reg(&mut self, idx: u8, block: Block) {
            self.frame.push((None, idx, block));
        }

        fn barrier(&mut self) {
            if self.suppressed {
                self.frame.clear();
            }
            if self.frame.is_empty() {
                return;
            }
            self.bytes += (FRAME_HEADER_BYTES + 1) as u64;
            for (phys, idx, block) in self.frame.drain(..) {
                match phys {
                    Some(phys) => {
                        self.bytes += 73;
                        self.blocks.insert(phys, block);
                    }
                    None => {
                        self.bytes += 66;
                        self.regs.insert(idx, block);
                    }
                }
            }
        }
    }

    /// Applies `calls` to a fresh image and to the naive reference, and
    /// after every barrier demands that a reopen of the image replays to
    /// exactly the reference's state. Returns the backend's final stats,
    /// the bytes the uncoalesced frames would have taken and the number
    /// of barriers that checkpointed the log.
    fn against_naive(name: &str, calls: &[(char, u64, u8)]) -> (WalStats, u64, u32) {
        let (p, copy) = (tmp(name), tmp(&format!("{name}-copy")));
        let mut b = open(&p).unwrap();
        let mut naive = NaiveLog::default();
        let mut checkpoints = 0;
        for (n, &(call, at, fill)) in calls.iter().enumerate() {
            let block = Block::filled(fill);
            match call {
                's' => {
                    b.store(at, block);
                    naive.write(at, block, true);
                }
                'j' => {
                    b.journal(at, block);
                    naive.write(at, block, false);
                }
                'r' => {
                    b.store_reg(at as u8, block);
                    naive.reg(at as u8, block);
                }
                'x' => {
                    b.suppress_flushes();
                    naive.suppressed = true;
                    naive.frame.clear();
                }
                _ => {
                    let (epoch, log) = (b.epoch(), b.wal_stats().log_bytes);
                    b.barrier().unwrap();
                    // A checkpoint takes no epoch; it shortens the log.
                    assert!(b.epoch() <= epoch + 1);
                    checkpoints += u32::from(b.wal_stats().log_bytes < log);
                    naive.barrier();
                    copy_image(&p, &copy);
                    let reopened = open(&copy).unwrap();
                    let blocks: Vec<_> = naive.blocks.iter().map(|(&k, &v)| (k, v)).collect();
                    let regs: Vec<_> = naive.regs.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(reopened.entries(), blocks, "blocks after call {n}");
                    assert_eq!(reopened.regs(), regs, "registers after call {n}");
                    assert_eq!(reopened.frames_rejected(), 0);
                }
            }
            // `load` sees every store at once, skipped record or not.
            let live: Vec<_> = naive.live.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(b.entries(), live, "live blocks after call {n}");
        }
        let stats = b.wal_stats();
        cleanup(&p);
        cleanup(&copy);
        (stats, naive.bytes, checkpoints)
    }

    /// A seeded call stream for [`against_naive`]: journals, stores and
    /// register writes over `addrs` addresses and three registers with
    /// four values each, and barriers. The top quarter of the addresses
    /// is journaled and never stored, like lines still in the WPQ.
    fn seeded_calls(rng: &mut crate::SplitMix64, len: usize, addrs: u64) -> Vec<(char, u64, u8)> {
        (0..len)
            .map(|_| {
                let fill = 1 + (rng.next_u64() % 4) as u8;
                match rng.next_u64() % 16 {
                    0..=4 => ('j', rng.next_u64() % addrs, fill),
                    5..=9 => ('s', rng.next_u64() % (addrs - addrs / 4), fill),
                    10..=12 => ('r', rng.next_u64() % 3, fill),
                    _ => ('b', 0, 0),
                }
            })
            .collect()
    }

    #[test]
    fn coalesced_frames_replay_like_the_uncoalesced_record_stream() {
        let calls = [
            // A commit group journals, the WPQ evicts the same block in a
            // later frame: no second record.
            ('j', 1, 0xA1),
            ('r', 0, 0x01),
            ('b', 0, 0),
            ('s', 1, 0xA1),
            ('r', 0, 0x01),
            ('b', 0, 0), // nothing new: no frame at all
            // Journal and eviction inside one frame, then a newer image.
            ('j', 2, 0xB1),
            ('s', 2, 0xB1),
            ('j', 2, 0xB2),
            ('b', 0, 0),
            // A store of a *different* block than the one journaled.
            ('j', 3, 0xC1),
            ('b', 0, 0),
            ('s', 3, 0xC2),
            ('b', 0, 0),
            // power_up's REDO: stores with no journal before them.
            ('s', 4, 0xD1),
            ('s', 5, 0xD2),
            ('b', 0, 0),
            // A register that moves away and back within one frame still
            // needs its record once another frame changed it.
            ('r', 0, 0x02),
            ('r', 0, 0x01),
            ('b', 0, 0),
            ('r', 0, 0x03),
            ('b', 0, 0),
            ('r', 0, 0x01),
            ('j', 1, 0xA2),
            ('s', 1, 0xA1), // back to the flushed image, record pending
            ('b', 0, 0),
            // A dying platform: pending records evaporate for good.
            ('s', 6, 0xE1),
            ('x', 0, 0),
            ('s', 6, 0xE1),
            ('r', 1, 0x09),
            ('b', 0, 0),
        ];
        let (stats, naive_bytes, _) = against_naive("coalesce", &calls);
        assert_eq!(stats.records_coalesced, 6);
        assert!(stats.log_bytes - (HEADER_BYTES as u64) < naive_bytes);

        // The same check over a long seeded stream that keeps hitting a
        // few addresses and registers with a few values.
        let mut rng = crate::SplitMix64::new(0x0C0A_1E5C_ED00_0013);
        let calls: Vec<_> = (0..3_000)
            .map(|_| {
                let fill = 1 + (rng.next_u64() % 3) as u8;
                match rng.next_u64() % 16 {
                    0..=5 => ('j', rng.next_u64() % 8, fill),
                    6..=10 => ('s', rng.next_u64() % 8, fill),
                    11..=13 => ('r', rng.next_u64() % 3, fill),
                    _ => ('b', 0, 0),
                }
            })
            .collect();
        let (stats, naive_bytes, _) = against_naive("coalesce-seeded", &calls);
        assert!(stats.records_coalesced > 500, "{stats:?}");
        assert!(
            stats.log_bytes < naive_bytes / 2,
            "{stats:?} vs {naive_bytes}"
        );
    }

    #[test]
    fn seeded_histories_replay_like_the_naive_log_and_coalesce_as_pinned() {
        // 200 short histories over at most 16 addresses, a quarter of them
        // ending on a dying platform, and one long enough to checkpoint.
        // Beside the replay check, the coalescing decisions are pinned:
        // one digest over every history's (coalesced, log bytes). Re-taken
        // for format 5: history 0 grew from 4 000 calls to 16 000 so that
        // it checkpoints twice, and its log after a checkpoint is the
        // registers and the home digest (eight bytes), where a
        // compaction's held every live block.
        let mut rng = crate::SplitMix64::new(0x0DE1_7A5E_ED00_0021);
        let mut pinned = Vec::new();
        let mut checkpointed = 0;
        for n in 0..=200 {
            let (len, addrs) = match n {
                0 => (16_000, 16),
                _ => (
                    20 + (rng.next_u64() % 100) as usize,
                    1 + rng.next_u64() % 16,
                ),
            };
            let mut calls = seeded_calls(&mut rng, len, addrs);
            if n > 0 && rng.next_u64().is_multiple_of(4) {
                let at = len - 1 - (rng.next_u64() % (len as u64 / 2)) as usize;
                calls.insert(at, ('x', 0, 0));
            }
            let (stats, _, checkpoints) = against_naive(&format!("model-{n}"), &calls);
            checkpointed += checkpoints;
            for word in [stats.records_coalesced, stats.log_bytes] {
                pinned.extend_from_slice(&word.to_le_bytes());
            }
        }
        assert!(checkpointed >= 2, "{checkpointed} checkpoints");
        let pin = crate::fnv1a64(crate::FNV1A64_EMPTY, &pinned);
        assert_eq!(
            pin, 0x10de_0d5b_318a_0950,
            "coalescing moved: the digest is now {pin:#018x}"
        );
    }

    #[test]
    fn the_bytes_of_a_fixed_history_are_pinned() {
        // Fused and split barriers, operations executed between a cut and
        // its commit, journaled records left undrained across checkpoints
        // (addresses 12–15 are journaled and never stored): the log and
        // the home area a fixed history leaves, byte for byte. How the
        // backend keeps its books in memory may change; this may not.
        // Re-taken for format version 4 (the tag fields) and for version
        // 5, where checkpoints replaced compactions: the history grew from
        // 6 000 calls to 24 000 so that it checkpoints as often as it
        // compacted, the digest covers the home area too, and the
        // checkpoint record holds only the masked home digest.
        let p = tmp("byte-pin");
        let mut b = open(&p).unwrap();
        let mut rng = crate::SplitMix64::new(0x000B_17E0_F1A6_0021);
        let mut in_flight: Option<Cut> = None;
        let land = |b: &mut FileBackend, cut: Option<Cut>| {
            if let Some(cut) = cut {
                let settle = cut.wants_settle();
                cut.commit().unwrap();
                if settle {
                    b.settle().unwrap();
                }
            }
        };
        let mut checkpoints = 0;
        for _ in 0..24_000 {
            let (at, fill) = (rng.next_u64() % 16, 1 + (rng.next_u64() % 4) as u8);
            let log = b.wal_stats().log_bytes;
            match rng.next_u64() % 16 {
                0..=4 => b.journal(at, Block::filled(fill)),
                5..=9 => b.store(at % 12, Block::filled(fill)),
                10..=11 => b.store_reg((at % 3) as u8, Block::filled(fill)),
                12..=13 => {
                    land(&mut b, in_flight.take());
                    b.barrier().unwrap();
                }
                _ => match in_flight.take() {
                    None => in_flight = b.cut(),
                    cut => land(&mut b, cut),
                },
            }
            checkpoints += u32::from(b.wal_stats().log_bytes < log);
        }
        land(&mut b, in_flight.take());
        b.barrier().unwrap();
        assert!(checkpoints >= 2, "{checkpoints} checkpoints");
        let (entries, epoch) = (b.entries(), b.epoch());
        drop(b);
        let (log, home) = (std::fs::read(&p).unwrap(), home_bytes(&p));
        let digest = crate::fnv1a64(crate::FNV1A64_EMPTY, &[&log[..], &home[..]].concat());
        assert_eq!(
            (digest, log.len(), home.len(), epoch),
            (0xd43e_fb3f_38e6_16a4, 327_920, 1_040, 3_777),
            "the image moved: FNV {digest:#018x}, {} + {} bytes, epoch {epoch}",
            log.len(),
            home.len()
        );
        // And it replays to what the backend held live, less what never
        // left the WPQ.
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch });
        assert!(entries.iter().all(|&(k, _)| b.load(k).is_some()));
        cleanup(&p);
    }

    #[test]
    fn torn_tail_frame_is_truncated_away() {
        let p = tmp("torn");
        let acked_anchor = two_frames(&p);
        // Chop the file inside the last frame: a kill mid-append whose
        // slack an adversary (or a copy tool) trimmed as well, before the
        // anchor was sealed.
        let (_, frames, end) = layout(&p);
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(end as u64 - 10).unwrap();
        drop(f);
        std::fs::write(anchor_path_for(&p), &acked_anchor).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 1 });
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        assert_eq!(b.frames_rejected(), 1);
        // The torn tail is physically gone after reopen.
        assert_eq!(std::fs::metadata(&p).unwrap().len(), frames[1].start as u64);
        cleanup(&p);
    }

    #[test]
    fn a_frame_cut_anywhere_inside_the_slack_is_dropped_whole() {
        let p = tmp("cut");
        let acked_anchor = two_frames(&p);
        let (bytes, frames, end) = layout(&p);
        let last = frames[1];
        assert_eq!(last.end(), end);
        // A killed append leaves a prefix of the frame — cut in the
        // header, the payload or right before the marker — and the
        // slack's zeros where the rest would have gone.
        for cut in last.start + 1..end {
            let mut torn = bytes.clone();
            torn[cut..end].fill(0);
            std::fs::write(&p, &torn).unwrap();
            std::fs::write(anchor_path_for(&p), &acked_anchor).unwrap();
            let mut b = open(&p).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(b.frames_rejected(), 1, "cut at {cut}");
            assert_eq!(b.load(1), Some(Block::filled(0xAA)));
            assert_eq!(b.load(2), None, "cut at {cut}");
            assert_eq!(b.epoch(), 1);
            assert_eq!(b.freshness(), Freshness::Fresh { epoch: 1 });
            assert_eq!(b.wal_stats().log_bytes, last.start as u64);
            // The chain resumes behind the last frame that stayed.
            b.store(3, Block::filled(0xCC));
            b.barrier().unwrap();
            drop(b);
            let b = open(&p).unwrap();
            assert_eq!(b.frames_rejected(), 0);
            assert_eq!(b.load(3), Some(Block::filled(0xCC)));
            assert_eq!(b.epoch(), 2);
        }
        cleanup(&p);
    }

    #[test]
    fn damage_to_the_last_committed_frame_is_corruption_not_a_torn_tail() {
        let p = tmp("lastflip");
        two_frames(&p);
        let (bytes, frames, end) = layout(&p);
        let last = frames[1].start;
        let cases = [
            ("payload", last + FRAME_HEADER_BYTES + 20, 0x40, "frame tag"),
            ("tag", last + 6, 0x01, "frame tag"),
            ("epoch", last + 12, 0x01, "frame tag"),
            ("marker", end - 1, 0x02, "commit marker"),
        ];
        for (what, off, flip, says) in cases {
            let mut bad = bytes.clone();
            bad[off] ^= flip;
            std::fs::write(&p, &bad).unwrap();
            let err = open(&p).expect_err(what);
            assert!(matches!(err, NvmError::Backend { .. }), "{what}: {err:?}");
            assert!(err.to_string().contains(says), "{what}: {err}");
            // Refused means untouched: nothing was truncated away.
            assert_eq!(std::fs::read(&p).unwrap(), bad, "{what}");
        }
        cleanup(&p);
    }

    #[test]
    fn bytes_behind_an_unmarked_frame_or_the_log_are_corruption() {
        let p = tmp("unmarked");
        two_frames(&p);
        let (bytes, frames, end) = layout(&p);
        // The first frame loses its marker; a committed frame follows.
        let mut bad = bytes.clone();
        bad[frames[0].end() - 1] = 0;
        std::fs::write(&p, &bad).unwrap();
        let err = open(&p).unwrap_err().to_string();
        assert!(err.contains("no commit marker"), "got {err}");
        // One stray byte in the slack. Within a frame header's reach of
        // the end of the log it reads as the first bytes of a torn append
        // and is dropped like one; any deeper and nothing honest explains
        // it.
        for off in [
            end,
            end + 1,
            end + 19,
            end + 20,
            end + 4_000,
            bytes.len() - 1,
        ] {
            let mut bad = bytes.clone();
            bad[off] = 0x01;
            std::fs::write(&p, &bad).unwrap();
            let opened = open(&p);
            if off < end + FRAME_HEADER_BYTES {
                let b = opened.unwrap();
                assert_eq!((b.frames_rejected(), b.epoch()), (1, 2), "offset {off}");
                assert_eq!(b.load(2), Some(Block::filled(0xBB)));
            } else {
                let err = opened.expect_err("stray slack byte").to_string();
                assert!(
                    err.contains("after the end of the WAL") || err.contains("commit marker"),
                    "offset {off}: {err}"
                );
                assert_eq!(std::fs::read(&p).unwrap(), bad);
            }
        }
        cleanup(&p);
    }

    #[test]
    fn bit_flipped_frame_is_typed_corruption() {
        let p = tmp("flip");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = HEADER_BYTES + FRAME_HEADER_BYTES + 20;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = open(&p).unwrap_err();
        assert!(matches!(err, NvmError::Backend { .. }), "got {err:?}");
        assert!(err.to_string().contains("frame tag"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let p = tmp("magic");
        std::fs::write(&p, b"NOTAWAL!....").unwrap();
        assert!(matches!(open(&p).unwrap_err(), NvmError::Backend { .. }));
        // A version-2 image (frames without commit markers, no slack) is
        // refused by version, not misread frame by frame.
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&2u32.to_le_bytes());
        let frame = encode_wal_frame(KEY, 0, 1, &[]);
        img.extend_from_slice(&frame[..frame.len() - 1]);
        std::fs::write(&p, &img).unwrap();
        let err = open(&p).unwrap_err().to_string();
        assert!(err.contains("unsupported WAL version 2"), "got {err}");
        assert_eq!(std::fs::read(&p).unwrap(), img);
        cleanup(&p);
    }

    #[test]
    fn a_version_3_image_is_refused_by_version() {
        // What version 3 wrote: the same frame layout, its eight bytes
        // after the length FNV-1a over epoch ‖ payload, keyless. No
        // reader of it is left, so a data dir from then does not open.
        let p = tmp("v3");
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&3u32.to_le_bytes());
        let mut payload = vec![TAG_WRITE];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&[0x77; crate::BLOCK_BYTES]);
        let mut summed = 1u64.to_le_bytes().to_vec();
        summed.extend_from_slice(&payload);
        img.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        img.extend_from_slice(&crate::fnv1a64(crate::FNV1A64_EMPTY, &summed).to_le_bytes());
        img.extend_from_slice(&1u64.to_le_bytes());
        img.extend_from_slice(&payload);
        img.push(0xC3);
        img.resize(img.len() + 64, 0);
        assert_eq!(
            WalWalker::new(&img, KEY).unwrap_err(),
            WalFault::UnsupportedVersion(3)
        );
        std::fs::write(&p, &img).unwrap();
        let err = open(&p).unwrap_err();
        assert!(matches!(err, NvmError::Backend { .. }), "got {err:?}");
        assert!(
            err.to_string()
                .contains("unsupported WAL version 3 (expected 5)"),
            "got {err}"
        );
        assert_eq!(
            std::fs::read(&p).unwrap(),
            img,
            "a refused image is left as found"
        );
        cleanup(&p);
    }

    #[test]
    fn a_version_4_image_is_refused_by_version() {
        // Version 4 wrote today's frames, with every live block in the log
        // and no home area beside it. No reader of it is left either.
        let p = tmp("v4");
        two_frames(&p);
        let mut img = std::fs::read(&p).unwrap();
        img[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&p, &img).unwrap();
        let err = open(&p).unwrap_err().to_string();
        assert!(
            err.contains("unsupported WAL version 4 (expected 5)"),
            "got {err}"
        );
        assert_eq!(std::fs::read(&p).unwrap(), img);
        cleanup(&p);
    }

    #[test]
    fn opening_under_the_wrong_key_is_a_typed_tag_fault() {
        // An image opens only under the key it was written with: under
        // any other device key — even with the anchor overridden — it is a
        // tag fault at the first frame.
        let p = tmp("wrong-key");
        two_frames(&p);
        let bytes = std::fs::read(&p).unwrap();
        for key in [[7, 14], [13, 7]] {
            let first = WalWalker::new(&bytes, key).unwrap().next();
            assert_eq!(
                first,
                Some(Err(WalFault::Checksum { at: HEADER_BYTES })),
                "{key:?}"
            );
            let opened = FileBackend::open_with_anchor(&p, key, AnchorPolicy::Override);
            let err = opened.expect_err("wrong key").to_string();
            assert!(
                err.contains(&format!("WAL frame at byte {HEADER_BYTES} (frame tag")),
                "{key:?}: {err}"
            );
            assert_eq!(std::fs::read(&p).unwrap(), bytes);
        }
        // Under its own key it opens as written.
        let b = open(&p).unwrap();
        assert_eq!((b.epoch(), b.load(2)), (2, Some(Block::filled(0xBB))));
        cleanup(&p);
    }

    #[test]
    fn suppress_drops_pending_and_future_barriers() {
        let p = tmp("suppress");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB)); // pending when the cut fires
            b.suppress_flushes();
            b.store(3, Block::filled(0xCC));
            b.barrier().unwrap(); // no-op
            assert!(b.flushes_suppressed());
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        assert_eq!(b.load(3), None);
        cleanup(&p);
    }

    #[test]
    fn a_failed_append_poisons_the_backend() {
        let p = tmp("poison");
        let mut b = open(&p).unwrap();
        b.store(1, Block::filled(0xAA));
        b.barrier().unwrap();
        // The medium fails: every write through this handle is refused.
        b.sink.file().log.file = File::open(&p).unwrap();
        b.store(2, Block::filled(0xBB));
        let err = b.barrier().unwrap_err().to_string();
        assert!(err.contains("append"), "got {err}");
        // Bytes past the write position can no longer be trusted to be
        // zero, so nothing more is written, even once the medium is back.
        b.sink.file().log.file = OpenOptions::new().write(true).open(&p).unwrap();
        b.store(3, Block::filled(0xCC));
        let err = b.barrier().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "got {err}");
        drop(b);
        let b = open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!((b.load(2), b.load(3)), (None, None));
        assert_eq!((b.epoch(), b.frames_rejected()), (1, 0));
        cleanup(&p);
    }

    /// A barrier in its two halves, as a group-commit leader takes it.
    fn split_barrier(b: &mut FileBackend) -> Result<(), NvmError> {
        let Some(cut) = b.cut() else { return Ok(()) };
        let settle = cut.wants_settle();
        cut.commit()?;
        if settle {
            b.settle()?;
        }
        Ok(())
    }

    #[test]
    fn cut_then_commit_writes_the_bytes_a_fused_barrier_writes() {
        let (fused, split) = (tmp("halves-fused"), tmp("halves-split"));
        let mut a = open(&fused).unwrap();
        let mut b = open(&split).unwrap();
        // Long enough to cross the checkpoint bound once.
        let mut checkpointed = false;
        let mut i = 0u64;
        while !checkpointed || !i.is_multiple_of(64) {
            let log = a.wal_stats().log_bytes;
            for backend in [&mut a, &mut b] {
                backend.store(7, Block::filled((i % 251) as u8));
                backend.journal(1_000 + i % 3, Block::filled(i as u8));
                backend.store_reg(1, Block::filled((i % 13) as u8));
            }
            a.barrier().unwrap();
            assert_eq!(b.ticket(), b.epoch() + 1, "records are buffered");
            split_barrier(&mut b).unwrap();
            assert_eq!(
                (b.ticket(), b.durability().reached().unwrap()),
                (b.epoch(), b.epoch())
            );
            assert_eq!(a.epoch(), b.epoch(), "after barrier {i}");
            checkpointed |= a.wal_stats().log_bytes < log;
            i += 1;
        }
        split_barrier(&mut b).unwrap(); // nothing buffered: no cut, no frame
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.epoch(), i, "a checkpoint takes no epoch");
        assert_eq!(
            std::fs::read(&fused).unwrap(),
            std::fs::read(&split).unwrap()
        );
        assert_eq!(home_bytes(&fused), home_bytes(&split));
        assert!(!home_bytes(&split).is_empty());
        assert_eq!(
            FreshnessAnchor::probe(&anchor_path_for(&split), KEY).unwrap(),
            Some(b.epoch())
        );
        cleanup(&fused);
        cleanup(&split);
    }

    #[test]
    fn a_cut_accounts_for_its_frame_before_the_frame_lands() {
        let p = tmp("optimistic");
        let mut b = open(&p).unwrap();
        b.store(1, Block::filled(0xAA));
        b.barrier().unwrap();
        b.store(1, Block::filled(0xBB));
        let in_flight = b.cut().expect("a record is buffered");
        assert_eq!((in_flight.epoch(), b.epoch(), b.ticket()), (2, 2, 2));
        assert_eq!(b.durability().reached().unwrap(), 1, "cut, not yet durable");
        // A write back to the value the *file* still holds is not a
        // repeat of what the log replays — the log includes the frame in
        // flight — so it must get its record.
        b.store(1, Block::filled(0xAA));
        assert_eq!(b.ticket(), 3);
        in_flight.commit().unwrap();
        assert_eq!(b.durability().reached().unwrap(), 2);
        b.barrier().unwrap();
        drop(b);
        let b = open(&p).unwrap();
        assert_eq!((b.load(1), b.epoch()), (Some(Block::filled(0xAA)), 3));
        cleanup(&p);
    }

    #[test]
    fn a_fused_barrier_queues_behind_a_cut_in_flight() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let p = tmp("in-order");
        let mut b = open(&p).unwrap();
        b.store(1, Block::filled(0x01));
        let first = b.cut().expect("frame 1");
        b.store(2, Block::filled(0x02));
        let (started, on_start) = channel();
        let (finished, on_finish) = channel();
        let racer = std::thread::spawn(move || {
            started.send(()).unwrap();
            let result = b.barrier(); // frame 2
            finished.send(()).unwrap();
            (b, result)
        });
        on_start.recv().unwrap();
        // Frame 2 must not reach the file while frame 1 has not.
        assert!(on_finish.recv_timeout(Duration::from_millis(150)).is_err());
        let (_, frames, _) = layout(&p);
        assert!(frames.is_empty(), "frame 2 overtook frame 1");
        first.commit().unwrap();
        on_finish.recv().unwrap();
        let (b, result) = racer.join().unwrap();
        result.unwrap();
        assert_eq!(b.durability().reached().unwrap(), 2);
        let (_, frames, _) = layout(&p);
        assert_eq!(frames.iter().map(|f| f.epoch).collect::<Vec<_>>(), [1, 2]);
        drop(b);
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 2 });
        assert_eq!(b.load(2), Some(Block::filled(0x02)));
        cleanup(&p);
    }

    #[test]
    fn a_cut_dropped_uncommitted_breaks_the_backend() {
        let p = tmp("dropped-cut");
        let mut b = open(&p).unwrap();
        b.store(1, Block::filled(0xAA));
        b.barrier().unwrap();
        b.store(2, Block::filled(0xBB));
        drop(b.cut().expect("a record is buffered"));
        // The in-memory half counts frame 2 as part of the log; nothing
        // may be appended behind the hole, and nobody may wait for it.
        let err = b.durability().reached().unwrap_err().to_string();
        assert!(err.contains("never committed"), "got {err}");
        b.store(3, Block::filled(0xCC));
        let err = b.barrier().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "got {err}");
        drop(b);
        let b = open(&p).unwrap();
        assert_eq!(
            (b.load(1), b.load(2), b.load(3)),
            (Some(Block::filled(0xAA)), None, None)
        );
        assert_eq!((b.epoch(), b.frames_rejected()), (1, 0));
        cleanup(&p);
    }

    #[test]
    fn settling_with_operations_executed_since_the_cut_keeps_the_image_an_op_prefix() {
        // A group-commit leader commits its frame with the backend
        // unlocked, so by the time it settles, later operations have
        // buffered records — and moved the live registers. Whatever a
        // kill then leaves must pair the registers of one operation
        // with the blocks of the same one.
        let p = tmp("settle-pending");
        let op = |b: &mut FileBackend, i: u64| {
            b.store(7 + i % 64, Block::filled(i as u8));
            b.store_reg(1, Block::filled(i as u8)); // the "root" over block 7
        };
        let mut b = open(&p).unwrap();
        let mut i = 0;
        let due = loop {
            i += 1;
            op(&mut b, i);
            let cut = b.cut().expect("records are buffered");
            if cut.wants_settle() {
                break cut;
            }
            cut.commit().unwrap();
            // Nothing is due: settling leaves what is buffered alone.
            i += 1;
            op(&mut b, i);
            let buffered = b.ticket();
            b.settle().unwrap();
            assert_eq!((b.ticket(), b.epoch() + 1), (buffered, buffered));
        };
        // Two more operations execute while the leader's frame lands.
        let cut_epoch = due.epoch();
        op(&mut b, i + 1);
        op(&mut b, i + 2);
        let ticket = b.ticket();
        assert_eq!(ticket, cut_epoch + 1);
        due.commit().unwrap();
        b.settle().unwrap();
        // Their records went in as the frame their ticket names, and the
        // checkpoint took no epoch after it.
        assert_eq!(b.epoch(), ticket);
        assert_eq!(b.durability().reached().unwrap(), ticket);
        let (_, frames, _) = layout(&p);
        assert_eq!(frames.len(), 1, "the log was checkpointed");
        assert_eq!(frames[0].epoch, ticket, "at the epoch it checkpoints");
        drop(b); // killed: no barrier

        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: ticket });
        let newest = Block::filled((i + 2) as u8);
        assert_eq!(
            (b.load(7 + (i + 2) % 64), b.reg(1)),
            (Some(newest), Some(newest))
        );
        cleanup(&p);
    }

    #[test]
    fn a_checkpoint_carries_home_what_the_log_holds_and_nothing_buffered() {
        // One hot address until a cut leaves a checkpoint due; then stores
        // to four new addresses execute while that frame lands. The
        // settle makes them a frame of their own before the checkpoint,
        // which carries both frames home; a store buffered after it stays
        // out of the home area until its own frame.
        let p = tmp("settle-fresh");
        let mut b = open(&p).unwrap();
        let mut i = 0u64;
        let due = loop {
            i += 1;
            b.store(0, Block::filled(i as u8));
            let cut = b.cut().expect("a record is buffered");
            if cut.wants_settle() {
                break cut;
            }
            cut.commit().unwrap();
        };
        let frame = (FRAME_HEADER_BYTES + 73 + 1) as u64;
        assert_eq!(i, CHECKPOINT_BYTES / frame + 1);
        for phys in 1..=4 {
            b.store(phys, Block::filled(0xF0));
        }
        due.commit().unwrap();
        let epoch = b.epoch();
        b.settle().unwrap();
        assert_eq!(b.epoch(), epoch + 1, "the buffered frame, and no more");
        b.store(5, Block::filled(0xF5));
        drop(b);
        let (_, frames, _) = layout(&p);
        assert_eq!(frames.len(), 1, "the log was checkpointed");
        let blocks: Vec<_> = (home_bytes(&p).chunks_exact(HOME_SLOT_BYTES).enumerate())
            .filter(|(_, slot)| slot[0] == SLOT_PRESENT)
            .map(|(i, slot)| (i as u64, block_at(slot, 1)))
            .collect();
        let mut want = vec![(0, Block::filled(i as u8))];
        want.extend((1..=4).map(|phys| (phys, Block::filled(0xF0))));
        assert_eq!(blocks, want);
        cleanup(&p);
    }

    #[test]
    fn a_checkpoint_preserves_journaled_undrained_records() {
        // The drill-campaign failure mode: a write journaled at commit
        // time sits in the WPQ (never store()d) while unrelated traffic
        // triggers a checkpoint; a kill before the WPQ drains must still
        // find the journaled record in the reopened image, now at home.
        let p = tmp("checkpoint-journal");
        {
            let mut b = open(&p).unwrap();
            b.journal(42, Block::filled(0x5A));
            b.barrier().unwrap();
            while home_bytes(&p).is_empty() {
                b.store(7, Block::filled((b.epoch() % 251) as u8));
                b.barrier().unwrap();
            }
            assert_eq!(b.load(42), None, "journaled write must stay WPQ-resident");
            // Drained later, to the value it went home with: no record.
            let log = b.wal_stats().log_bytes;
            b.store(42, Block::filled(0x5A));
            b.barrier().unwrap();
            assert_eq!(b.wal_stats().log_bytes, log);
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(42), Some(Block::filled(0x5A)));
        cleanup(&p);
    }

    #[test]
    fn a_checkpoint_keeps_last_wins_across_journal_and_store() {
        let p = tmp("checkpoint-order");
        {
            let mut b = open(&p).unwrap();
            b.store(4, Block::filled(1));
            b.barrier().unwrap();
            b.journal(4, Block::filled(2)); // later record: wins on replay
            b.barrier().unwrap();
            while home_bytes(&p).is_empty() {
                b.store(7, Block::filled((b.epoch() % 251) as u8));
                b.barrier().unwrap();
            }
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(4), Some(Block::filled(2)));
        cleanup(&p);
    }

    #[test]
    fn a_checkpoint_preserves_contents_and_takes_no_epoch() {
        let p = tmp("checkpoint");
        let (epoch, last);
        {
            let mut b = open(&p).unwrap();
            // Hammer one address until the log crosses the bound.
            let mut i = 0u64;
            while home_bytes(&p).is_empty() {
                b.store(7, Block::filled((i % 251) as u8));
                b.store(8 + i % 3, Block::zeroed());
                b.store_reg(1, Block::filled((i % 13) as u8));
                b.barrier().unwrap();
                assert_eq!(b.epoch(), i + 1, "one epoch per frame, none more");
                i += 1;
            }
            (epoch, last) = (b.epoch(), i - 1);
            let log = b.wal_stats().log_bytes;
            // Header and one frame: the checkpoint record and the one register.
            let frame = FRAME_HEADER_BYTES + CHECKPOINT_RECORD_BYTES + 66 + 1;
            assert_eq!(log, (HEADER_BYTES + frame) as u64);
        }
        let b = open(&p).unwrap();
        assert_eq!(b.load(7), Some(Block::filled((last % 251) as u8)));
        assert_eq!(b.reg(1), Some(Block::filled((last % 13) as u8)));
        // A block stored as zeros is still present.
        assert_eq!((b.load(9), b.touched()), (Some(Block::zeroed()), 4));
        assert_eq!(b.freshness(), Freshness::Fresh { epoch });
        cleanup(&p);
    }

    #[test]
    fn a_kill_right_after_a_checkpoint_reopens_clean() {
        let p = tmp("checkpoint-kill");
        let mut b = open(&p).unwrap();
        let mut i = 0u64;
        // Stop at the barrier that checkpointed: its log is one frame.
        while home_bytes(&p).is_empty() {
            b.store(7, Block::filled((i % 251) as u8));
            b.journal(1_000 + i % 3, Block::filled(i as u8));
            b.barrier().unwrap();
            i += 1;
        }
        // What a restart must find: the image as cut, WPQ-resident journal
        // records included.
        let mut entries = b.entries();
        let image = b.image();
        entries.extend((1_000..1_003).map(|phys| (phys, image(phys).unwrap())));
        drop(image);
        let (epoch, stats) = (b.epoch(), b.wal_stats());
        drop(b); // killed before any further barrier
        assert!(!p.with_extension("checkpoint-tmp").exists());

        let (bytes, frames, end) = layout(&p);
        assert_eq!(frames.len(), 1, "the checkpointed log is one frame");
        assert_eq!(
            (end as u64, bytes.len() as u64),
            (stats.log_bytes, stats.log_bytes + stats.slack_bytes)
        );
        assert!(stats.slack_bytes >= SLACK_FLOOR && bytes[end..].iter().all(|&x| x == 0));
        let mut b = open(&p).unwrap();
        assert_eq!((b.frames_rejected(), b.epoch()), (0, epoch));
        assert_eq!(b.freshness(), Freshness::Fresh { epoch });
        assert_eq!(b.entries(), entries);
        assert_eq!(entries.len(), 4, "address 7 and three journaled lines");
        b.store(8, Block::filled(8));
        b.barrier().unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), bytes.len() as u64);
        cleanup(&p);
    }

    #[test]
    fn a_home_area_its_log_was_not_written_over_is_refused() {
        // The checkpoint record carries the home area's digest and every
        // frame the priors of the slots it rewrites first, so any slot the
        // log does not redo must hold what it held when the log began.
        let p = tmp("home-digest");
        let mut b = open(&p).unwrap();
        let mut i = 0u64;
        while home_bytes(&p).is_empty() {
            b.store(i % 40, Block::filled(i as u8));
            b.barrier().unwrap();
            i += 1;
        }
        let first = home_bytes(&p);
        let mut before = None;
        while home_bytes(&p) == first {
            before.get_or_insert_with(|| (std::fs::read(&p).unwrap(), home_bytes(&p)));
            b.store(i % 40, Block::filled(i as u8));
            b.barrier().unwrap();
            i += 1;
        }
        // Slot 39 was last written before the second checkpoint; the log
        // after it writes only slot 0.
        b.store(0, Block::filled(0xEE));
        b.barrier().unwrap();
        let (entries, epoch) = (b.entries(), b.epoch());
        drop(b);
        let home = home_bytes(&p);
        // The open reads no slot; the check the recovery ladder runs before
        // it re-anchors anything does.
        let refused = |bad: &[u8]| {
            std::fs::write(home_path_for(&p), bad).unwrap();
            let b = open(&p).expect("an open reads no home slot");
            let err = b
                .check_home()
                .expect_err("a home area its log does not match");
            assert!(err.to_string().contains("not the one its log"), "{err}");
        };
        // A bit flipped in the contents of a slot the log does not redo.
        let mut bad = home.clone();
        bad[39 * HOME_SLOT_BYTES + 7] ^= 0x10;
        refused(&bad);
        // The whole home area rolled back a checkpoint, or to nothing.
        refused(&first);
        refused(&[]);
        // A slot the log redoes may hold anything.
        let mut redone = home;
        redone[1..HOME_SLOT_BYTES].fill(0x5A);
        std::fs::write(home_path_for(&p), &redone).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.check_home(), Ok(()));
        assert_eq!(state_of(&b), (entries, epoch));
        drop(b);
        // An earlier log with the home area it was written over is a
        // consistent pair: its staleness is the anchor's to prove.
        let (log, home) = before.unwrap();
        std::fs::write(&p, log).unwrap();
        std::fs::write(home_path_for(&p), home).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.check_home(), Ok(()));
        let stale = b.freshness();
        assert!(matches!(stale, Freshness::RolledBack { .. }), "{stale:?}");
        cleanup(&p);
    }

    #[test]
    fn no_record_shows_a_slot_tag_or_the_digest() {
        let p = tmp("home-mask");
        let mut b = open(&p).unwrap();
        let mut i = 0u64;
        while home_bytes(&p).is_empty() {
            b.store(i % 40, Block::filled(i as u8));
            b.barrier().unwrap();
            i += 1;
        }
        // One frame that first-writes one address the home area holds.
        let held = b.load(5).unwrap();
        b.store(5, Block::filled(0xEE));
        b.barrier().unwrap();
        let digest = b.home_digest;
        drop(b);
        let key = SlotKey::new(KEY);
        let (bytes, frames, _) = layout(&p);
        let word = |payload: &[u8], at: usize| {
            u64::from_le_bytes(payload[at + 1..at + 9].try_into().unwrap())
        };

        let checkpoint = frames[0].payload(&bytes);
        assert_eq!(checkpoint[0], TAG_CHECKPOINT);
        let masked = word(checkpoint, 0);
        assert_ne!(masked, digest, "the digest is masked");
        assert_eq!(masked.wrapping_sub(key.mask(frames[0].epoch, 0)), digest);

        let write = frames[1].payload(&bytes);
        let at = write.len() - PRIORS_RECORD_BYTES;
        assert_eq!(write[at], TAG_PRIORS);
        let (masked, tag) = (word(write, at), key.tag(5, &held));
        assert_ne!(masked, tag, "the priors sum is masked");
        assert_eq!(masked.wrapping_sub(key.mask(frames[1].epoch, at)), tag);
        cleanup(&p);
    }

    fn state_of(b: &FileBackend) -> (Vec<(u64, Block)>, u64) {
        (b.entries(), b.epoch())
    }

    #[test]
    fn a_home_slot_is_empty_present_or_corrupt() {
        let p = tmp("home-marker");
        let mut b = open(&p).unwrap();
        while home_bytes(&p).is_empty() {
            b.store(3, Block::filled((b.epoch() % 200) as u8 + 1));
            b.barrier().unwrap();
        }
        // The log holds a record for the slot again.
        b.store(3, Block::filled(0xEE));
        b.barrier().unwrap();
        let (entries, epoch) = (b.entries(), b.epoch());
        drop(b);
        let home = home_bytes(&p);
        assert_eq!(
            home.len(),
            4 * HOME_SLOT_BYTES,
            "sparse up to the slot stored"
        );
        assert!(home[..3 * HOME_SLOT_BYTES].iter().all(|&x| x == 0));
        // Any single bit flip of the marker is typed corruption — found
        // where the slot's unit is first read, which takes no block from
        // it and breaks the backend, or by the home-area check — and
        // leaves the image as it found it.
        for bit in 0..8 {
            let mut bad = home.clone();
            bad[3 * HOME_SLOT_BYTES] ^= 1 << bit;
            std::fs::write(home_path_for(&p), &bad).unwrap();
            let mut b = open(&p).expect("an open reads no home slot");
            let err = b.check_home().unwrap_err().to_string();
            assert!(err.contains("corrupt home slot 3"), "bit {bit}: {err}");
            assert_eq!(b.load(3), None, "bit {bit}");
            let err = b.barrier().unwrap_err().to_string();
            assert!(err.contains("corrupt home slot 3"), "bit {bit}: {err}");
            b.store(4, Block::filled(4));
            assert!(b.barrier().is_err() && b.settle().is_err(), "bit {bit}");
            drop(b);
            assert_eq!(home_bytes(&p), bad);
        }
        // A home area that cannot be read fails the same way.
        std::fs::remove_file(home_path_for(&p)).unwrap();
        std::fs::create_dir(home_path_for(&p)).unwrap();
        let mut b = open(&p).expect("an open reads no home slot");
        assert_eq!(b.load(3), None);
        let err = b.settle().unwrap_err().to_string();
        assert!(err.contains("read"), "{err}");
        drop(b);
        std::fs::remove_dir(home_path_for(&p)).unwrap();
        // A last slot cut short is zeros past the end: the torn write of a
        // checkpoint that the surviving log redoes.
        std::fs::write(home_path_for(&p), &home[..3 * HOME_SLOT_BYTES + 20]).unwrap();
        let b = open(&p).unwrap();
        assert_eq!((b.entries(), b.epoch()), (entries, epoch));
        assert_eq!(b.check_home(), Ok(()));
        cleanup(&p);
    }

    #[test]
    fn duplicated_and_reordered_frames_break_the_tag_chain() {
        let p = tmp("dup");
        two_frames(&p);
        let (bytes, frames, end) = layout(&p);
        let (f1, f2) = (frames[0], frames[1]);
        // The last frame again where the next one would go, and the two
        // frames swapped: each is tagged behind another frame than the
        // one it now follows.
        let mut dup = bytes.clone();
        dup.copy_within(f2.start..end, end);
        let mut swapped = bytes.clone();
        swapped[f1.start..f1.start + f2.len].copy_from_slice(&bytes[f2.start..f2.end()]);
        swapped[f1.start + f2.len..f2.end()].copy_from_slice(&bytes[f1.start..f1.end()]);
        for (bad, at) in [(dup, end), (swapped, f1.start)] {
            std::fs::write(&p, &bad).unwrap();
            let err = open(&p).unwrap_err().to_string();
            assert!(
                err.contains(&format!("frame at byte {at} (frame tag mismatch)")),
                "got {err}"
            );
        }
        // Epoch order is still checked: a stale epoch in a frame whose tag
        // verifies in its place — which only a holder of the key writes.
        let mut stale = bytes;
        let frame = encode_wal_frame(KEY, f2.tag, 2, &[]);
        stale[end..end + frame.len()].copy_from_slice(&frame);
        std::fs::write(&p, &stale).unwrap();
        let err = open(&p).unwrap_err();
        assert!(err.to_string().contains("non-monotonic"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn tampered_frame_epoch_fails_the_tag() {
        let p = tmp("epochtamper");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        // The epoch field is covered by the frame tag: bumping it without
        // re-tagging must be detected.
        bytes[HEADER_BYTES + 12] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let err = open(&p).unwrap_err();
        assert!(err.to_string().contains("frame tag"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn anchored_open_detects_rollback() {
        let p = tmp("rollback");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
        }
        let early = std::fs::read(&p).unwrap();
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0x02));
            b.barrier().unwrap();
            b.store(1, Block::filled(0x03));
            b.barrier().unwrap();
        }
        // Roll the image (but not the anchor — on-chip NVRAM) back.
        std::fs::write(&p, &early).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(
            b.freshness(),
            Freshness::RolledBack {
                anchored_epoch: 3,
                image_epoch: 1
            }
        );
        // Rollback is not overridable: the override policy sees it too.
        drop(b);
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Override).unwrap();
        assert!(matches!(b.freshness(), Freshness::RolledBack { .. }));
        cleanup(&p);
    }

    #[test]
    fn anchored_open_accepts_and_heals_image_ahead() {
        let p = tmp("heal");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
            b.store(1, Block::filled(0x02));
            b.barrier().unwrap();
        }
        // Rewind only the anchor, simulating a crash between the WAL
        // fsync and the anchor seal.
        let apath = anchor_path_for(&p);
        let _ = std::fs::remove_file(&apath);
        FreshnessAnchor::create(apath.clone(), KEY, 1).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 2 });
        drop(b);
        // The heal resealed the anchor at the image epoch.
        assert_eq!(FreshnessAnchor::probe(&apath, KEY).unwrap(), Some(2));
        cleanup(&p);
    }

    #[test]
    fn anchored_open_refuses_forged_tail_beyond_crash_window() {
        let p = tmp("forgedtail");
        two_frames(&p);
        let apath = anchor_path_for(&p);
        let sealed = std::fs::read(&apath).unwrap();
        // Empty frames written into the slack, chained behind the last
        // one, under `key` — at the end of the log, where a splicing
        // adversary who cannot touch the anchor would write them.
        let (honest, frames, end) = layout(&p);
        let forge = |key: [u64; 2], epochs: &[u64]| {
            let mut bytes = honest.clone();
            let (mut at, mut prev) = (end, frames[1].tag);
            for &e in epochs {
                let frame = encode_wal_frame(key, prev, e, &[]);
                bytes[at..at + frame.len()].copy_from_slice(&frame);
                prev = u64::from_le_bytes(frame[4..12].try_into().unwrap());
                at += frame.len();
            }
            bytes
        };

        // Without the key no frame verifies, not even in the crash window.
        std::fs::write(&p, forge([7, 14], &[3])).unwrap();
        let err = open(&p).unwrap_err();
        assert!(err.to_string().contains("frame tag"), "got {err}");

        // With it, one epoch past the anchor is the crash window: the
        // in-flight barrier of a killed process, which only a holder of
        // the key can have written — accepted, the anchor healed forward.
        std::fs::write(&p, forge(KEY, &[3])).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 3 });
        drop(b);
        assert_eq!(FreshnessAnchor::probe(&apath, KEY).unwrap(), Some(3));

        // Two past it — by one frame that skips an epoch, or by two
        // frames — is a forged tail.
        for (epochs, image_epoch) in [(&[4u64][..], 4), (&[3, 4][..], 4)] {
            std::fs::write(&apath, &sealed).unwrap();
            std::fs::write(&p, forge(KEY, epochs)).unwrap();
            let b = open(&p).unwrap();
            assert_eq!(
                b.freshness(),
                Freshness::TailForged {
                    anchored_epoch: 2,
                    image_epoch
                }
            );
            assert!(b.freshness().is_violation());
            drop(b);
            // Never overridable, and the anchor evidence is left untouched.
            let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Override).unwrap();
            assert!(matches!(b.freshness(), Freshness::TailForged { .. }));
            drop(b);
            assert_eq!(FreshnessAnchor::probe(&apath, KEY).unwrap(), Some(2));
        }
        cleanup(&p);
    }
    #[test]
    fn missing_and_corrupt_anchor_are_strict_violations() {
        let p = tmp("anchorloss");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
        }
        let apath = anchor_path_for(&p);
        std::fs::remove_file(&apath).unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::AnchorMissing { image_epoch: 1 });
        assert!(b.freshness().is_violation());
        drop(b);
        std::fs::write(&apath, b"garbage anchor bytes........................").unwrap();
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::AnchorCorrupt { image_epoch: 1 });
        cleanup(&p);
    }

    #[test]
    fn override_reseals_missing_anchor_from_image() {
        let p = tmp("override");
        {
            let mut b = open(&p).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
        }
        let apath = anchor_path_for(&p);
        std::fs::remove_file(&apath).unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Override).unwrap();
        assert_eq!(b.freshness(), Freshness::Overridden { image_epoch: 1 });
        drop(b);
        // Resealed: the next strict open is clean again.
        let b = open(&p).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 1 });
        cleanup(&p);
    }
}
