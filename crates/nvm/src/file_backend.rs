//! File-backed NVM images: a write-ahead log with ordered flushes and a
//! sealed freshness anchor.
//!
//! The on-disk format — header, frames tagged in a keyed chain and closed
//! by a commit marker, zero slack — and the rule that tells the clean end
//! of the log from a torn append from corruption live in [`crate::wal`];
//! this module owns the file.
//!
//! Every [`NvmBackend::store`] / [`NvmBackend::journal`] /
//! [`NvmBackend::store_reg`] adds a record to an in-memory pending
//! frame; a barrier writes the frame at the log's **write position** and
//! `sync_data`s it. A frame is therefore the atomicity unit, and since
//! barriers are taken between public operations it is a whole number of
//! operations' worth of commit groups (a 32-line batch, a whole page
//! re-encryption, or several served writes that shared one group
//! commit): on reopen, records are replayed in append order (last write
//! to an address wins) and a torn tail frame — the signature of a
//! process killed mid-append, i.e. before any operation in it was
//! acknowledged — is discarded and truncated away. Anything else that
//! is not a committed, tag-valid, in-order frame is *corruption*,
//! surfaced as a typed [`NvmError::Backend`], never a panic and never a
//! silent drop.
//!
//! **Two halves.** The backend is split where a barrier is: the
//! *in-memory half* — the live block map, the register file, the few
//! addresses where the log differs from the live map, and the pending
//! frame — is the [`FileBackend`] itself and lives under the
//! controller; the *file half* — the log file and the anchor — is a
//! `WalSink` behind an `Arc`. [`NvmBackend::cut`] moves the pending
//! frame out of the first, [`Cut::commit`] carries it into the second
//! with no reference to the first, and [`NvmBackend::barrier`] is the
//! two back to back. Every step that moves the file — a frame or a
//! compaction — takes its turn through the backend's
//! [`Durability`], which admits them strictly in epoch order and refuses
//! everything after a failure, so the in-memory half may account for a
//! frame from the moment it is cut.
//!
//! **The write position is not the file length.** Appending to a file
//! grows it, and a sync that has to commit a new length and new blocks
//! waits for a filesystem-journal commit — several times the cost of
//! syncing bytes that overwrite blocks already on disk. So the file is
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
//! first) and resumes at the logical end; compaction starts a new file;
//! and a commit that fails poisons the backend — every later barrier is
//! refused, and the next open sees at worst a torn tail.
//!
//! Each flushed frame carries the device's **freshness epoch**, bumped on
//! every flushing barrier and compaction, and a **tag** keyed
//! with the device key over its epoch, its payload and the previous
//! frame's tag. Replay demands a tag that verifies at the frame's place
//! in the chain and strictly increasing epochs, so a forged, spliced,
//! reordered or duplicated frame is typed corruption. When the image is
//! opened with [`FileBackend::open_with_anchor`], the last epoch is
//! compared against the sealed [`FreshnessAnchor`] beside the image: an
//! image *behind* the anchor is a rollback to stale state and is reported
//! as [`Freshness::RolledBack`] for the recovery layer to refuse; one
//! *ahead* of it by the one frame an honest crash can leave unsealed is
//! healed — and since no one without the key can write that frame, it is
//! the honest in-flight frame. The chain starts afresh, from the key, in
//! every new file (the first, and each compaction's), and the un-anchored
//! [`FileBackend::open`] tags under the public [`PUBLIC_WAL_KEY`]: such
//! an image makes no authenticity claim. Content authenticity of the data
//! itself stays with the crypto layer above.
//!
//! The log is compacted (rewritten as one frame holding just the live
//! blocks and registers, then atomically renamed into place) once the
//! replayed record count sufficiently exceeds the live footprint.
//!
//! **One map of blocks.** An open replays the log straight into the live
//! map, and the live map *is* the log from then on, except at the few
//! addresses a later write has not brought back in line — a journaled
//! record still in the WPQ, a store not yet cut — which a small side map
//! holds. Nothing in memory is a second copy of the image.

use crate::addr_hash::{AddrHash, AddrMap};
use crate::anchor::{anchor_path_for, AnchorError, AnchorPolicy, Freshness, FreshnessAnchor};
use crate::backend::{Cut, Durability, NvmBackend, WalStats};
use crate::block::Block;
use crate::error::NvmError;
use crate::wal::{
    seal_frame, TagKey, WalWalker, FRAME_HEADER_BYTES, HEADER_BYTES, MAGIC, PUBLIC_WAL_KEY, VERSION,
};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const TAG_WRITE: u8 = 0;
const TAG_REG: u8 = 1;

/// Compaction triggers when the flushed record count exceeds
/// `COMPACT_FACTOR × live footprint + COMPACT_FLOOR`.
const COMPACT_FACTOR: u64 = 4;
const COMPACT_FLOOR: u64 = 1024;

/// Bytes of one block record in a frame: tag, address, contents.
const WRITE_RECORD_BYTES: usize = 1 + 8 + crate::BLOCK_BYTES;

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

/// The image file: frames up to `end`, zeros from there to `len`.
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

/// The file half of a [`FileBackend`]: the log and the sealed anchor,
/// shared between the backend (fused barriers, compaction) and whatever
/// thread carries a detached [`Cut`].
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
    /// Sealed epoch register, present for anchored opens.
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
/// This struct is the in-memory half; the log file and the anchor live
/// in a shared sink (module docs), which is why `epoch` here is the
/// epoch of the last frame *cut* and may run one detached [`Cut`] ahead
/// of what [`NvmBackend::durability`] has reached.
#[derive(Debug)]
pub struct FileBackend {
    sink: Arc<WalSink>,
    path: PathBuf,
    /// The live blocks: what `load` sees, every store included.
    cache: AddrMap<Block>,
    /// The live registers. A register is never journaled, so it differs
    /// from the log as cut only while a record for it is pending.
    regs: BTreeMap<u8, Block>,
    /// The addresses where the log as cut does not replay to `cache`,
    /// each with what it does replay to: its last record in any frame
    /// cut so far, `None` if it has none. Everywhere else the log *is*
    /// `cache`. Two things put an address here: a journaled record not
    /// yet drained — WPQ-resident, so invisible to `load`, but in the
    /// log, which compaction must rewrite and [`FileBackend::push_write`]
    /// coalesces against — and a store not yet cut. Empty after an
    /// open; a cut or a store that brings the two back in line removes
    /// the address, so while the platform lives it holds about the WPQ's
    /// worth of journaled lines plus one frame's stores. Updated at the
    /// cut, not at the commit: `push_write` consults the log as cut for
    /// the *next* frame while this one may still be in flight, and a
    /// frame that fails to land ends the log (the sink breaks), so the
    /// map never describes a log that goes on without it.
    log_diff: AddrMap<Option<Block>>,
    /// The next frame under construction: [`FRAME_HEADER_BYTES`] reserved
    /// for the header (filled in when the frame is sealed), then the
    /// serialized records awaiting the next cut, which takes the buffer
    /// with it.
    pending: Vec<u8>,
    /// Where in `pending` the 64 contents bytes of each address's (resp.
    /// register's) one record sit. The frame is the atomicity unit and
    /// replay is last-write-wins, so only the last image of an address
    /// within a frame matters: a later record overwrites the earlier one
    /// in place. Applied to `log_diff` when the frame is cut.
    pending_writes: AddrMap<usize>,
    pending_regs: Vec<(u8, usize)>,
    /// Records that cost no frame bytes of their own (see [`WalStats`]).
    coalesced: u64,
    /// Records sitting in cut frames (reset by compaction).
    wal_records: u64,
    /// Current freshness epoch: that of the image's last intact frame at
    /// open, bumped by each cut and compaction.
    epoch: u64,
    /// The anchor check's verdict at open time.
    freshness: Freshness,
    /// Torn tail frames discarded (and truncated away) at open.
    rejected_frames: u64,
    suppressed: bool,
}

impl FileBackend {
    /// Opens (or creates) a WAL image at `path`, replaying every
    /// committed frame. A torn tail frame is truncated away. No
    /// freshness anchor is consulted: the image's epoch is trusted at
    /// face value ([`Freshness::Untracked`]), and frames are tagged under
    /// the public [`PUBLIC_WAL_KEY`] — an image written here opens only
    /// here, not under [`FileBackend::open_with_anchor`].
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] for I/O failures, a bad magic or
    /// version, and every [`crate::WalFault`]: a committed frame whose
    /// tag or epoch order fails, and bytes at the tail that are neither
    /// zero slack nor a torn append.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, NvmError> {
        Self::open_inner(path.as_ref(), PUBLIC_WAL_KEY, None)
    }

    /// Opens a WAL image whose frames are tagged under `key`, and
    /// verifies its epoch against the sealed freshness anchor beside it
    /// (`<path>.anchor`, sealed under the same key), creating the anchor
    /// for a fresh image. The verdict is reported through
    /// [`NvmBackend::freshness`]; an image behind the anchor still opens
    /// (so the damage can be inspected) but reports
    /// [`Freshness::RolledBack`], which the recovery layer must refuse.
    /// Under [`AnchorPolicy::Override`] a missing or corrupt anchor is
    /// resealed from the image's epoch instead of reported as a
    /// violation; genuine rollback is never overridden.
    ///
    /// # Errors
    ///
    /// As [`FileBackend::open`] — a frame not tagged under `key` is a
    /// tag fault — plus anchor I/O failures.
    pub fn open_with_anchor(
        path: impl AsRef<Path>,
        key: [u64; 2],
        policy: AnchorPolicy,
    ) -> Result<Self, NvmError> {
        Self::open_inner(path.as_ref(), key, Some(policy))
    }

    fn open_inner(
        path: &Path,
        key: [u64; 2],
        anchoring: Option<AnchorPolicy>,
    ) -> Result<Self, NvmError> {
        let path = path.to_path_buf();
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

        // Compaction holds a log to `COMPACT_FACTOR` records per live
        // block (plus the floor), so the image holds about this many
        // blocks at least: the map starts that large instead of growing
        // into it, and never much larger than it will end up.
        let records = bytes.len() / WRITE_RECORD_BYTES;
        let blocks = records.saturating_sub(COMPACT_FLOOR as usize) / COMPACT_FACTOR as usize;
        let mut cache = AddrMap::with_capacity_and_hasher(blocks, AddrHash::default());
        let mut regs = BTreeMap::new();
        let mut wal_records = 0u64;
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
                epoch = frame.epoch;
                wal_records += replay_frame(&path, frame.payload(&bytes), &mut cache, &mut regs)?;
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

        let (anchor, freshness) = match anchoring {
            None => (None, Freshness::Untracked),
            Some(policy) => Self::check_anchor(&log.path, key, policy, epoch)?,
        };

        Ok(FileBackend {
            sink: Arc::new(WalSink {
                file: Mutex::new(FileHalf { log, anchor }),
                durability: Durability::at(epoch),
            }),
            path,
            cache,
            regs,
            log_diff: AddrMap::default(),
            pending: vec![0; FRAME_HEADER_BYTES],
            pending_writes: AddrMap::default(),
            pending_regs: Vec::new(),
            coalesced: 0,
            wal_records,
            epoch,
            freshness,
            rejected_frames,
            suppressed: false,
        })
    }

    /// Resolves the anchor beside the image against the image's replayed
    /// epoch. Returns the anchor handle (absent only when the verdict is
    /// a strict-policy violation, so evidence is preserved untouched)
    /// plus the freshness verdict.
    fn check_anchor(
        path: &Path,
        key: [u64; 2],
        policy: AnchorPolicy,
        image_epoch: u64,
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
            Ok(None) if image_epoch == 0 => {
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

    /// What the log as cut replays `phys` to.
    fn logged(&self, phys: u64) -> Option<Block> {
        match self.log_diff.get(&phys) {
            Some(&logged) => logged,
            None => self.cache.get(&phys).copied(),
        }
    }

    /// Adds a block record to the pending frame — unless the frame
    /// already holds one for `phys`, which is overwritten in place, or
    /// the log as cut already replays `phys` to exactly `block` (a
    /// journaled write reaching `store` when the WPQ evicts it), which
    /// needs no record at all. `logged` is what it replays to.
    fn push_write(&mut self, phys: u64, block: Block, logged: Option<Block>) {
        match self.pending_writes.entry(phys) {
            Entry::Occupied(record) => {
                let at = *record.get();
                self.pending[at..at + crate::BLOCK_BYTES].copy_from_slice(block.as_bytes());
                self.coalesced += 1;
            }
            Entry::Vacant(_) if logged == Some(block) => self.coalesced += 1,
            Entry::Vacant(slot) => {
                self.pending.push(TAG_WRITE);
                self.pending.extend_from_slice(&phys.to_le_bytes());
                slot.insert(self.pending.len());
                self.pending.extend_from_slice(block.as_bytes());
            }
        }
    }

    /// As [`FileBackend::push_write`] for a register mirror; `flushed` is
    /// the image the log yields for `idx` when no record is pending.
    fn push_reg(&mut self, idx: u8, block: Block, flushed: Option<Block>) {
        if let Some(&(_, at)) = self.pending_regs.iter().find(|&&(i, _)| i == idx) {
            self.pending[at..at + crate::BLOCK_BYTES].copy_from_slice(block.as_bytes());
            self.coalesced += 1;
        } else if flushed == Some(block) {
            self.coalesced += 1;
        } else {
            self.pending.push(TAG_REG);
            self.pending.push(idx);
            self.pending_regs.push((idx, self.pending.len()));
            self.pending.extend_from_slice(block.as_bytes());
        }
    }

    /// The records of a compacted log: one per address the log as cut
    /// holds a record for, one per register.
    fn live_records(&self) -> u64 {
        let mut blocks = self.cache.len();
        for (phys, logged) in &self.log_diff {
            match (logged.is_some(), self.cache.contains_key(phys)) {
                (true, false) => blocks += 1,
                (false, true) => blocks -= 1,
                _ => {}
            }
        }
        (blocks + self.regs.len()) as u64
    }

    /// The blocks of the log as cut, sorted by address: `cache` with
    /// `log_diff` laid over it.
    fn logged_blocks(&self) -> Vec<(u64, Block)> {
        let mut blocks = Vec::with_capacity(self.cache.len() + self.log_diff.len());
        for (&phys, &block) in &self.cache {
            if !self.log_diff.contains_key(&phys) {
                blocks.push((phys, block));
            }
        }
        for (&phys, &logged) in &self.log_diff {
            blocks.extend(logged.map(|block| (phys, block)));
        }
        blocks.sort_unstable_by_key(|&(phys, _)| phys);
        blocks
    }

    /// Drops the records awaiting the next cut, keeping the header
    /// reservation and the buffer's capacity.
    fn clear_pending(&mut self) {
        self.pending.truncate(FRAME_HEADER_BYTES);
        self.pending_writes.clear();
        self.pending_regs.clear();
    }

    /// The in-memory half of a barrier: bumps the epoch, accounts for
    /// the pending records as part of the log (`log_diff`, `wal_records`)
    /// and returns the frame — header reservation plus payload, to be
    /// sealed for the new epoch — leaving an empty pending frame behind.
    /// `None` when there is nothing to cut.
    fn cut_frame(&mut self) -> Option<Vec<u8>> {
        if self.suppressed {
            // The platform died: unflushed records evaporate.
            self.clear_pending();
            return None;
        }
        let records = (self.pending_writes.len() + self.pending_regs.len()) as u64;
        if records == 0 {
            return None;
        }
        self.epoch += 1;
        self.wal_records += records;
        for (&phys, &at) in &self.pending_writes {
            let contents = self.pending[at..at + crate::BLOCK_BYTES]
                .try_into()
                .expect("64-byte slice");
            let logged = Block::from_bytes(contents);
            if self.cache.get(&phys) == Some(&logged) {
                self.log_diff.remove(&phys);
            } else {
                self.log_diff.insert(phys, Some(logged));
            }
        }
        self.pending_writes.clear();
        self.pending_regs.clear();
        Some(std::mem::replace(
            &mut self.pending,
            vec![0; FRAME_HEADER_BYTES],
        ))
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

    fn compaction_due(&self) -> bool {
        self.wal_records > COMPACT_FACTOR * self.live_records() + COMPACT_FLOOR
    }

    /// Rewrites the log as header + one frame of what it replays to and
    /// atomically renames it into place. The blocks are `cache` *with
    /// `log_diff` laid over it*: journaled-but-undrained writes are
    /// durable in the log being discarded and must survive into its
    /// replacement, and stores not yet cut must not enter it. The
    /// rewritten frame carries a freshly bumped epoch, sealed into the
    /// anchor after the rename. The replacement is a new file written
    /// through the same [`Log::append`], so it starts with its own slack
    /// and the zero-tail invariant holds for it from its first byte. It
    /// replays to what the old log did, so `log_diff` stays as it is.
    ///
    /// Both halves are at rest for it: `&mut self` holds the in-memory
    /// half, and the rewrite takes its turn like a frame, so it starts
    /// only once every frame cut before it — all of which `log_diff`
    /// already accounts for — is in the file it replaces. Nothing may be
    /// buffered: `regs` is live, not the log as cut, and the epoch taken
    /// here must not be one a buffered record holds a
    /// [`NvmBackend::ticket`] for — [`NvmBackend::settle`] flushes first.
    fn compact(&mut self) -> Result<(), NvmError> {
        debug_assert!(self.pending_writes.is_empty() && self.pending_regs.is_empty());
        let blocks = self.logged_blocks();
        let mut frame = Vec::with_capacity(
            FRAME_HEADER_BYTES + blocks.len() * WRITE_RECORD_BYTES + self.regs.len() * 66,
        );
        frame.resize(FRAME_HEADER_BYTES, 0);
        for (phys, block) in &blocks {
            frame.push(TAG_WRITE);
            frame.extend_from_slice(&phys.to_le_bytes());
            frame.extend_from_slice(block.as_bytes());
        }
        for (&idx, block) in &self.regs {
            frame.push(TAG_REG);
            frame.push(idx);
            frame.extend_from_slice(block.as_bytes());
        }

        self.epoch += 1;
        let epoch = self.epoch;
        let (path, sink) = (&self.path, &self.sink);
        sink.durability.in_turn(epoch, || {
            let mut file = sink.file();
            let tmp = path.with_extension("compact-tmp");
            let out = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            let mut out = Log::init(out, tmp, file.log.key)?;
            out.append(&mut frame, epoch)?;
            std::fs::rename(&out.path, path).map_err(|e| io_err("rename", &out.path, e))?;
            // Best-effort directory sync so the rename itself is durable.
            if let Some(dir) = path.parent() {
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            out.path.clone_from(path);
            file.log = out;
            file.seal(epoch)
        })?;
        self.wal_records = self.live_records();
        Ok(())
    }
}

fn replay_frame(
    path: &Path,
    payload: &[u8],
    cache: &mut AddrMap<Block>,
    regs: &mut BTreeMap<u8, Block>,
) -> Result<u64, NvmError> {
    let malformed = |pos: usize| NvmError::Backend {
        reason: format!(
            "{}: malformed WAL record at frame offset {pos}",
            path.display()
        ),
    };
    let mut pos = 0usize;
    let mut records = 0u64;
    while pos < payload.len() {
        match payload[pos] {
            TAG_WRITE => {
                let end = pos + WRITE_RECORD_BYTES;
                if end > payload.len() {
                    return Err(malformed(pos));
                }
                let phys =
                    u64::from_le_bytes(payload[pos + 1..pos + 9].try_into().expect("8-byte slice"));
                let block =
                    Block::from_bytes(payload[pos + 9..end].try_into().expect("64-byte slice"));
                cache.insert(phys, block);
                pos = end;
            }
            TAG_REG => {
                let end = pos + 2 + crate::BLOCK_BYTES;
                if end > payload.len() {
                    return Err(malformed(pos));
                }
                let idx = payload[pos + 1];
                let block =
                    Block::from_bytes(payload[pos + 2..end].try_into().expect("64-byte slice"));
                regs.insert(idx, block);
                pos = end;
            }
            _ => return Err(malformed(pos)),
        }
        records += 1;
    }
    Ok(records)
}

impl NvmBackend for FileBackend {
    fn load(&self, phys: u64) -> Option<Block> {
        self.cache.get(&phys).copied()
    }

    fn store(&mut self, phys: u64, block: Block) {
        // The log as cut does not move: `cache` differs from it at `phys`
        // from now on unless the log already holds `block` there.
        let logged = self.logged(phys);
        self.cache.insert(phys, block);
        if logged == Some(block) {
            self.log_diff.remove(&phys);
        } else {
            self.log_diff.insert(phys, logged);
        }
        self.push_write(phys, block, logged);
    }

    fn touched(&self) -> usize {
        self.cache.len()
    }

    fn entries(&self) -> Vec<(u64, Block)> {
        let mut v: Vec<_> = self.cache.iter().map(|(&k, &b)| (k, b)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    fn store_reg(&mut self, idx: u8, block: Block) {
        let previous = self.regs.insert(idx, block);
        self.push_reg(idx, block, previous);
    }

    fn reg(&self, idx: u8) -> Option<Block> {
        self.regs.get(&idx).copied()
    }

    fn regs(&self) -> Vec<(u8, Block)> {
        self.regs.iter().map(|(&i, &b)| (i, b)).collect()
    }

    fn journal(&mut self, phys: u64, block: Block) {
        self.push_write(phys, block, self.logged(phys));
    }

    fn cut(&mut self) -> Option<Cut> {
        let mut frame = self.cut_frame()?;
        let (sink, epoch) = (Arc::clone(&self.sink), self.epoch);
        Some(Cut::new(
            epoch,
            self.compaction_due(),
            self.sink.durability.clone(),
            move || sink.write(epoch, &mut frame),
        ))
    }

    fn ticket(&self) -> u64 {
        let buffered = !(self.pending_writes.is_empty() && self.pending_regs.is_empty());
        self.epoch + u64::from(buffered)
    }

    fn durability(&self) -> Durability {
        self.sink.durability.clone()
    }

    fn settle(&mut self) -> Result<(), NvmError> {
        if self.suppressed || !self.compaction_due() {
            return Ok(());
        }
        // Operations may have executed since the cut that left this due.
        self.flush()?;
        self.compact()
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

    fn wal_stats(&self) -> WalStats {
        let file = self.sink.file();
        WalStats {
            log_bytes: file.log.end,
            slack_bytes: file.log.len - file.log.end,
            records_coalesced: self.coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_wal_frame, WalFault, WalFrame};

    const KEY: [u64; 2] = [7, 13];

    /// What an image written through [`open_as`] is tagged under.
    fn key_of(anchored: bool) -> [u64; 2] {
        if anchored {
            KEY
        } else {
            PUBLIC_WAL_KEY
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anubis-walt-{}-{name}.img", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(anchor_path_for(&p));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(anchor_path_for(p));
    }

    /// The image at `p`, written through [`open_as`]: its bytes,
    /// committed frames and logical end.
    fn layout(p: &Path, anchored: bool) -> (Vec<u8>, Vec<WalFrame>, usize) {
        let bytes = std::fs::read(p).unwrap();
        let mut walk = WalWalker::new(&bytes, key_of(anchored)).unwrap();
        let frames = walk.by_ref().map(|f| f.unwrap()).collect();
        let end = walk.logical_end();
        (bytes, frames, end)
    }

    /// Two one-record frames (epochs 1 and 2) written through
    /// [`open_as`]; returns the anchor file as it stood before the second
    /// barrier (nothing when un-anchored).
    fn two_frames(p: &Path, anchored: bool) -> Vec<u8> {
        let mut b = open_as(p, anchored).unwrap();
        b.store(1, Block::filled(0xAA));
        b.barrier().unwrap();
        let anchor = std::fs::read(anchor_path_for(p)).unwrap_or_default();
        b.store(2, Block::filled(0xBB));
        b.barrier().unwrap();
        anchor
    }

    /// The two ways to open an image — un-anchored, or under the strict
    /// anchor — each of which reopens only what it wrote.
    fn open_as(p: &Path, anchored: bool) -> Result<FileBackend, NvmError> {
        if anchored {
            FileBackend::open_with_anchor(p, KEY, AnchorPolicy::Strict)
        } else {
            FileBackend::open(p)
        }
    }

    #[test]
    fn store_barrier_reopen_roundtrips() {
        let p = tmp("roundtrip");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(5, Block::filled(0x11));
            b.store_reg(2, Block::filled(0x22));
            b.barrier().unwrap();
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(5), Some(Block::filled(0x11)));
        assert_eq!(b.reg(2), Some(Block::filled(0x22)));
        assert_eq!(b.touched(), 1);
        assert_eq!(b.epoch(), 1);
        assert_eq!(b.freshness(), Freshness::Untracked);
        cleanup(&p);
    }

    #[test]
    fn frame_bytes_follow_the_documented_layout() {
        let p = tmp("layout");
        let mut b = FileBackend::open(&p).unwrap();
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
        // message, under the public key `open` tags with.
        let f = |h: u64, w: u64| {
            let product = u128::from(h ^ w) * 0x9E37_79B9_7F4A_7C15u128;
            (product as u64) ^ ((product >> 64) as u64)
        };
        let domain = u64::from_le_bytes(*b"WAL-TAG4");
        let k0 = f(f(domain, PUBLIC_WAL_KEY[0]), PUBLIC_WAL_KEY[1]);
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
        want.extend_from_slice(&4u32.to_le_bytes());
        for (epoch, payload) in [(1u64, first), (2, write(5, 0x55))] {
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            prev = tag(prev, epoch, &payload);
            want.extend_from_slice(&prev.to_le_bytes());
            want.extend_from_slice(&epoch.to_le_bytes());
            want.extend_from_slice(&payload);
            want.push(0xC3);
        }
        let (bytes, frames, end) = layout(&p, false);
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
        for anchored in [false, true] {
            let p = tmp(if anchored { "slack-anchored" } else { "slack" });
            let open = || open_as(&p, anchored).unwrap();
            let file_len = || std::fs::metadata(&p).unwrap().len();
            let mut b = open();
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
            let mut b = open();
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
            let (bytes, _, end) = layout(&p, anchored);
            assert!(bytes[end..].iter().all(|&x| x == 0));
            if anchored {
                assert_eq!(
                    FreshnessAnchor::probe(&anchor_path_for(&p), KEY).unwrap(),
                    Some(b.epoch())
                );
            }
            cleanup(&p);
        }
    }

    #[test]
    fn unflushed_stores_do_not_persist() {
        let p = tmp("unflushed");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB)); // never barriered
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        cleanup(&p);
    }

    #[test]
    fn journal_records_replay_without_live_store() {
        let p = tmp("journal");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.journal(9, Block::filled(0x99));
            assert_eq!(b.load(9), None); // WPQ-resident in this process
            b.barrier().unwrap();
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(9), Some(Block::filled(0x99)));
        cleanup(&p);
    }

    #[test]
    fn last_record_wins_on_replay() {
        let p = tmp("lastwins");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(4, Block::filled(1));
            b.barrier().unwrap();
            b.journal(4, Block::filled(2));
            b.store(4, Block::filled(3));
            b.barrier().unwrap();
        }
        let b = FileBackend::open(&p).unwrap();
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
    /// of barriers that compacted the log.
    fn against_naive(name: &str, calls: &[(char, u64, u8)]) -> (WalStats, u64, u32) {
        let (p, copy) = (tmp(name), tmp(&format!("{name}-copy")));
        let mut b = FileBackend::open(&p).unwrap();
        let mut naive = NaiveLog::default();
        let mut compactions = 0;
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
                    let epoch = b.epoch();
                    b.barrier().unwrap();
                    // A compaction takes an epoch of its own.
                    compactions += u32::from(b.epoch() == epoch + 2);
                    naive.barrier();
                    std::fs::copy(&p, &copy).unwrap();
                    let reopened = FileBackend::open(&copy).unwrap();
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
        (stats, naive.bytes, compactions)
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
        // ending on a dying platform, and one long enough to compact.
        // Beside the replay check, the coalescing decisions are pinned:
        // one digest over every history's (coalesced, log bytes).
        let mut rng = crate::SplitMix64::new(0x0DE1_7A5E_ED00_0021);
        let mut pinned = Vec::new();
        let mut compacted = 0;
        for n in 0..=200 {
            let (len, addrs) = match n {
                0 => (4_000, 16),
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
            let (stats, _, compactions) = against_naive(&format!("model-{n}"), &calls);
            compacted += compactions;
            for word in [stats.records_coalesced, stats.log_bytes] {
                pinned.extend_from_slice(&word.to_le_bytes());
            }
        }
        assert!(compacted >= 1, "no history compacted");
        let pin = crate::backend::fnv1a64(&pinned);
        assert_eq!(
            pin, 0x968d_3cde_6090_a159,
            "coalescing moved: the digest is now {pin:#018x}"
        );
    }

    #[test]
    fn the_bytes_of_a_fixed_history_are_pinned() {
        // Fused and split barriers, operations executed between a cut and
        // its commit, journaled records left undrained across compactions
        // (addresses 12–15 are journaled and never stored): the image file
        // a fixed history leaves, byte for byte. How the backend keeps its
        // books in memory may change; this may not. Re-taken once, for
        // format version 4: every frame's eight-byte field after its
        // length became the keyed, chained tag, and nothing else moved —
        // same length, same epoch, same frames (version 3 read
        // 0x650b_1f3c_a1be_6ffa).
        let p = tmp("byte-pin");
        let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
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
        let mut compactions = 0;
        for _ in 0..6_000 {
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
            compactions += u32::from(b.wal_stats().log_bytes < log);
        }
        land(&mut b, in_flight.take());
        b.barrier().unwrap();
        assert!(compactions >= 2, "{compactions} compactions");
        let (entries, epoch) = (b.entries(), b.epoch());
        drop(b);
        let bytes = std::fs::read(&p).unwrap();
        let digest = crate::backend::fnv1a64(&bytes);
        assert_eq!(
            (digest, bytes.len(), epoch),
            (0x9919_a8a6_176e_9b2e, 66_935, 921),
            "the image moved: FNV {digest:#018x}, {} bytes, epoch {epoch}",
            bytes.len()
        );
        // And it replays to what the backend held live, less what never
        // left the WPQ.
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch });
        assert!(entries.iter().all(|&(k, _)| b.load(k).is_some()));
        cleanup(&p);
    }

    #[test]
    fn torn_tail_frame_is_truncated_away() {
        let p = tmp("torn");
        two_frames(&p, false);
        // Chop the file inside the last frame: a kill mid-append whose
        // slack an adversary (or a copy tool) trimmed as well.
        let (_, frames, end) = layout(&p, false);
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(end as u64 - 10).unwrap();
        drop(f);
        let b = FileBackend::open(&p).unwrap();
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
        for anchored in [false, true] {
            cleanup(&p);
            let acked_anchor = two_frames(&p, anchored);
            let (bytes, frames, end) = layout(&p, anchored);
            let last = frames[1];
            assert_eq!(last.end(), end);
            // A killed append leaves a prefix of the frame — cut in the
            // header, the payload or right before the marker — and the
            // slack's zeros where the rest would have gone.
            for cut in last.start + 1..end {
                let mut torn = bytes.clone();
                torn[cut..end].fill(0);
                std::fs::write(&p, &torn).unwrap();
                if anchored {
                    std::fs::write(anchor_path_for(&p), &acked_anchor).unwrap();
                }
                let mut b = open_as(&p, anchored).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
                assert_eq!(b.frames_rejected(), 1, "cut at {cut}");
                assert_eq!(b.load(1), Some(Block::filled(0xAA)));
                assert_eq!(b.load(2), None, "cut at {cut}");
                assert_eq!(b.epoch(), 1);
                if anchored {
                    assert_eq!(b.freshness(), Freshness::Fresh { epoch: 1 });
                }
                assert_eq!(b.wal_stats().log_bytes, last.start as u64);
                // The chain resumes behind the last frame that stayed.
                b.store(3, Block::filled(0xCC));
                b.barrier().unwrap();
                drop(b);
                let b = open_as(&p, anchored).unwrap();
                assert_eq!(b.frames_rejected(), 0);
                assert_eq!(b.load(3), Some(Block::filled(0xCC)));
                assert_eq!(b.epoch(), 2);
            }
        }
        cleanup(&p);
    }

    #[test]
    fn damage_to_the_last_committed_frame_is_corruption_not_a_torn_tail() {
        let p = tmp("lastflip");
        for anchored in [false, true] {
            cleanup(&p);
            two_frames(&p, anchored);
            let (bytes, frames, end) = layout(&p, anchored);
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
                let err = open_as(&p, anchored).expect_err(what);
                assert!(matches!(err, NvmError::Backend { .. }), "{what}: {err:?}");
                assert!(err.to_string().contains(says), "{what}: {err}");
                // Refused means untouched: nothing was truncated away.
                assert_eq!(std::fs::read(&p).unwrap(), bad, "{what}");
            }
        }
        cleanup(&p);
    }

    #[test]
    fn bytes_behind_an_unmarked_frame_or_the_log_are_corruption() {
        let p = tmp("unmarked");
        for anchored in [false, true] {
            cleanup(&p);
            two_frames(&p, anchored);
            let (bytes, frames, end) = layout(&p, anchored);
            // The first frame loses its marker; a committed frame follows.
            let mut bad = bytes.clone();
            bad[frames[0].end() - 1] = 0;
            std::fs::write(&p, &bad).unwrap();
            let err = open_as(&p, anchored).unwrap_err().to_string();
            assert!(err.contains("no commit marker"), "got {err}");
            // One stray byte in the slack. Within a frame header's reach of
            // the end of the log it reads as the first bytes of a torn
            // append and is dropped like one; any deeper and nothing honest
            // explains it.
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
                let opened = open_as(&p, anchored);
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
        }
        cleanup(&p);
    }

    #[test]
    fn bit_flipped_frame_is_typed_corruption() {
        let p = tmp("flip");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = HEADER_BYTES + FRAME_HEADER_BYTES + 20;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(matches!(err, NvmError::Backend { .. }), "got {err:?}");
        assert!(err.to_string().contains("frame tag"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let p = tmp("magic");
        std::fs::write(&p, b"NOTAWAL!....").unwrap();
        assert!(matches!(
            FileBackend::open(&p).unwrap_err(),
            NvmError::Backend { .. }
        ));
        // A version-2 image (frames without commit markers, no slack) is
        // refused by version, not misread frame by frame.
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&2u32.to_le_bytes());
        let frame = encode_wal_frame(PUBLIC_WAL_KEY, 0, 1, &[]);
        img.extend_from_slice(&frame[..frame.len() - 1]);
        std::fs::write(&p, &img).unwrap();
        for anchored in [false, true] {
            let err = open_as(&p, anchored).unwrap_err().to_string();
            assert!(err.contains("unsupported WAL version 2"), "got {err}");
        }
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
        img.extend_from_slice(&crate::backend::fnv1a64(&summed).to_le_bytes());
        img.extend_from_slice(&1u64.to_le_bytes());
        img.extend_from_slice(&payload);
        img.push(0xC3);
        img.resize(img.len() + 64, 0);
        assert_eq!(
            WalWalker::new(&img, PUBLIC_WAL_KEY).unwrap_err(),
            WalFault::UnsupportedVersion(3)
        );
        std::fs::write(&p, &img).unwrap();
        for anchored in [false, true] {
            let err = open_as(&p, anchored).unwrap_err();
            assert!(matches!(err, NvmError::Backend { .. }), "got {err:?}");
            assert!(
                err.to_string()
                    .contains("unsupported WAL version 3 (expected 4)"),
                "got {err}"
            );
        }
        assert_eq!(
            std::fs::read(&p).unwrap(),
            img,
            "a refused image is left as found"
        );
        cleanup(&p);
    }

    #[test]
    fn opening_under_the_wrong_key_is_a_typed_tag_fault() {
        // An image opens only under the key it was written with: one
        // written under the anchor's key does not open un-anchored or
        // under another device key, and one written un-anchored does not
        // open under the anchor — each a tag fault at the first frame.
        let p = tmp("wrong-key");
        for (anchored, others) in [(true, [PUBLIC_WAL_KEY, [7, 14]]), (false, [KEY, [13, 7]])] {
            cleanup(&p);
            two_frames(&p, anchored);
            let bytes = std::fs::read(&p).unwrap();
            for key in others {
                let first = WalWalker::new(&bytes, key).unwrap().next();
                assert_eq!(
                    first,
                    Some(Err(WalFault::Checksum { at: HEADER_BYTES })),
                    "{key:?}"
                );
                let opened = if key == PUBLIC_WAL_KEY {
                    FileBackend::open(&p)
                } else {
                    FileBackend::open_with_anchor(&p, key, AnchorPolicy::Override)
                };
                let err = opened.expect_err("wrong key").to_string();
                assert!(
                    err.contains(&format!("WAL frame at byte {HEADER_BYTES} (frame tag")),
                    "{key:?}: {err}"
                );
                assert_eq!(std::fs::read(&p).unwrap(), bytes);
            }
            // Under its own key it opens as written.
            let b = open_as(&p, anchored).unwrap();
            assert_eq!((b.epoch(), b.load(2)), (2, Some(Block::filled(0xBB))));
        }
        cleanup(&p);
    }

    #[test]
    fn suppress_drops_pending_and_future_barriers() {
        let p = tmp("suppress");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB)); // pending when the cut fires
            b.suppress_flushes();
            b.store(3, Block::filled(0xCC));
            b.barrier().unwrap(); // no-op
            assert!(b.flushes_suppressed());
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        assert_eq!(b.load(3), None);
        cleanup(&p);
    }

    #[test]
    fn a_failed_append_poisons_the_backend() {
        let p = tmp("poison");
        let mut b = FileBackend::open(&p).unwrap();
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
        let b = FileBackend::open(&p).unwrap();
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
        let mut a = FileBackend::open_with_anchor(&fused, KEY, AnchorPolicy::Strict).unwrap();
        let mut b = FileBackend::open_with_anchor(&split, KEY, AnchorPolicy::Strict).unwrap();
        // Long enough to cross the compaction threshold once.
        for i in 0..(COMPACT_FLOOR + 64) {
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
        }
        assert!(a.epoch() > COMPACT_FLOOR + 64, "no compaction happened");
        split_barrier(&mut b).unwrap(); // nothing buffered: no cut, no frame
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(
            std::fs::read(&fused).unwrap(),
            std::fs::read(&split).unwrap()
        );
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
        let mut b = FileBackend::open(&p).unwrap();
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
        let b = FileBackend::open(&p).unwrap();
        assert_eq!((b.load(1), b.epoch()), (Some(Block::filled(0xAA)), 3));
        cleanup(&p);
    }

    #[test]
    fn a_fused_barrier_queues_behind_a_cut_in_flight() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let p = tmp("in-order");
        let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
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
        let (_, frames, _) = layout(&p, true);
        assert!(frames.is_empty(), "frame 2 overtook frame 1");
        first.commit().unwrap();
        on_finish.recv().unwrap();
        let (b, result) = racer.join().unwrap();
        result.unwrap();
        assert_eq!(b.durability().reached().unwrap(), 2);
        let (_, frames, _) = layout(&p, true);
        assert_eq!(frames.iter().map(|f| f.epoch).collect::<Vec<_>>(), [1, 2]);
        drop(b);
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 2 });
        assert_eq!(b.load(2), Some(Block::filled(0x02)));
        cleanup(&p);
    }

    #[test]
    fn a_cut_dropped_uncommitted_breaks_the_backend() {
        let p = tmp("dropped-cut");
        let mut b = FileBackend::open(&p).unwrap();
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
        let b = FileBackend::open(&p).unwrap();
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
            b.store(7, Block::filled(i as u8));
            b.store_reg(1, Block::filled(i as u8)); // the "root" over block 7
        };
        let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
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
        // rewrite took the epoch after it.
        assert_eq!(b.epoch(), ticket + 1);
        assert_eq!(b.durability().reached().unwrap(), ticket + 1);
        let (_, frames, _) = layout(&p, true);
        assert_eq!(frames.len(), 1, "the log was compacted");
        drop(b); // killed: no barrier

        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: ticket + 1 });
        let newest = Block::filled((i + 2) as u8);
        assert_eq!((b.load(7), b.reg(1)), (Some(newest), Some(newest)));
        cleanup(&p);
    }

    #[test]
    fn a_settle_weighs_the_log_as_cut_not_the_stores_buffered_since() {
        // One hot address until a cut leaves compaction due; then first
        // stores to four new addresses execute while that frame lands.
        // They are not in the log yet, so they do not raise the live
        // footprint the rewrite is measured against: it still runs.
        let p = tmp("settle-fresh");
        let mut b = FileBackend::open(&p).unwrap();
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
        assert_eq!(i, COMPACT_FACTOR + COMPACT_FLOOR + 1);
        for phys in 1..=4 {
            b.store(phys, Block::filled(0xF0));
        }
        due.commit().unwrap();
        let epoch = b.epoch();
        b.settle().unwrap();
        assert_eq!(b.epoch(), epoch + 2, "the buffered frame, then the rewrite");
        drop(b);
        let (_, frames, _) = layout(&p, false);
        assert_eq!(frames.len(), 1, "the log was compacted");
        cleanup(&p);
    }

    #[test]
    fn compaction_preserves_journaled_undrained_records() {
        // The drill-campaign failure mode: a write journaled at commit
        // time sits in the WPQ (never store()d) while unrelated traffic
        // triggers compaction; a kill before the WPQ drains must still
        // find the journaled record in the reopened image.
        let p = tmp("compact-journal");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.journal(42, Block::filled(0x5A));
            b.barrier().unwrap();
            for i in 0..(COMPACT_FLOOR + 64) {
                b.store(7, Block::filled((i % 251) as u8));
                b.barrier().unwrap();
            }
            assert_eq!(b.load(42), None, "journaled write must stay WPQ-resident");
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(42), Some(Block::filled(0x5A)));
        cleanup(&p);
    }

    #[test]
    fn compaction_keeps_last_wins_across_journal_and_store() {
        let p = tmp("compact-order");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(4, Block::filled(1));
            b.barrier().unwrap();
            b.journal(4, Block::filled(2)); // later record: wins on replay
            b.barrier().unwrap();
            for i in 0..(COMPACT_FLOOR + 64) {
                b.store(7, Block::filled((i % 251) as u8));
                b.barrier().unwrap();
            }
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(4), Some(Block::filled(2)));
        cleanup(&p);
    }

    #[test]
    fn compaction_preserves_contents() {
        let p = tmp("compact");
        let pre_epoch;
        {
            let mut b = FileBackend::open(&p).unwrap();
            // Hammer one address so the WAL grows far beyond the live
            // footprint and compaction triggers.
            for i in 0..(COMPACT_FLOOR + 64) {
                b.store(7, Block::filled((i % 251) as u8));
                b.store_reg(1, Block::filled((i % 13) as u8));
                b.barrier().unwrap();
            }
            pre_epoch = b.epoch();
            let log = b.wal_stats().log_bytes;
            // ~2200 records × ~75 bytes would exceed 150 KiB without
            // compaction; the compacted log stays a small multiple of the
            // 2-record live footprint.
            assert!(log < 20_000, "WAL did not compact (log {log})");
        }
        let b = FileBackend::open(&p).unwrap();
        let last = COMPACT_FLOOR + 63;
        assert_eq!(b.load(7), Some(Block::filled((last % 251) as u8)));
        assert_eq!(b.reg(1), Some(Block::filled((last % 13) as u8)));
        // Compaction bumps the epoch; the rewritten image preserves it.
        assert_eq!(b.epoch(), pre_epoch);
        assert!(pre_epoch > COMPACT_FLOOR);
        cleanup(&p);
    }

    #[test]
    fn a_kill_right_after_compaction_reopens_clean() {
        for anchored in [false, true] {
            let p = tmp(if anchored {
                "compact-kill-anchored"
            } else {
                "compact-kill"
            });
            let open = || open_as(&p, anchored).unwrap();
            let mut b = open();
            let mut epoch = 0;
            let mut i = 0u64;
            // Stop at the barrier that compacted: its epoch moves by two.
            while b.epoch() - epoch < 2 {
                epoch = b.epoch();
                b.store(7, Block::filled((i % 251) as u8));
                b.journal(1_000 + i % 3, Block::filled(i as u8));
                b.barrier().unwrap();
                i += 1;
            }
            assert!(i > COMPACT_FLOOR / 2, "compacted after only {i} barriers");
            // What a restart must find: the log as cut, WPQ-resident
            // journal records included.
            let entries = b.logged_blocks();
            let (epoch, stats) = (b.epoch(), b.wal_stats());
            drop(b); // killed before any further barrier
            assert!(!p.with_extension("compact-tmp").exists());

            let (bytes, frames, end) = layout(&p, anchored);
            assert_eq!(frames.len(), 1, "the compacted log is one frame");
            assert_eq!(
                (end as u64, bytes.len() as u64),
                (stats.log_bytes, stats.log_bytes + stats.slack_bytes)
            );
            assert!(stats.slack_bytes >= SLACK_FLOOR && bytes[end..].iter().all(|&x| x == 0));
            let mut b = open();
            assert_eq!((b.frames_rejected(), b.epoch()), (0, epoch));
            if anchored {
                assert_eq!(b.freshness(), Freshness::Fresh { epoch });
            }
            assert_eq!(b.entries(), entries);
            assert_eq!(entries.len(), 4, "address 7 and three journaled lines");
            b.store(8, Block::filled(8));
            b.barrier().unwrap();
            assert_eq!(std::fs::metadata(&p).unwrap().len(), bytes.len() as u64);
            cleanup(&p);
        }
    }

    #[test]
    fn duplicated_and_reordered_frames_break_the_tag_chain() {
        let p = tmp("dup");
        two_frames(&p, false);
        let (bytes, frames, end) = layout(&p, false);
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
            let err = FileBackend::open(&p).unwrap_err().to_string();
            assert!(
                err.contains(&format!("frame at byte {at} (frame tag mismatch)")),
                "got {err}"
            );
        }
        // Epoch order is still checked: a stale epoch in a frame whose tag
        // verifies in its place — which only a holder of the key writes.
        let mut stale = bytes;
        let frame = encode_wal_frame(PUBLIC_WAL_KEY, f2.tag, 2, &[]);
        stale[end..end + frame.len()].copy_from_slice(&frame);
        std::fs::write(&p, &stale).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(err.to_string().contains("non-monotonic"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn tampered_frame_epoch_fails_the_tag() {
        let p = tmp("epochtamper");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        // The epoch field is covered by the frame tag: bumping it without
        // re-tagging must be detected.
        bytes[HEADER_BYTES + 12] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(err.to_string().contains("frame tag"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn anchored_open_detects_rollback() {
        let p = tmp("rollback");
        {
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
        }
        let early = std::fs::read(&p).unwrap();
        {
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
            b.store(1, Block::filled(0x02));
            b.barrier().unwrap();
            b.store(1, Block::filled(0x03));
            b.barrier().unwrap();
        }
        // Roll the image (but not the anchor — on-chip NVRAM) back.
        std::fs::write(&p, &early).unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
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
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
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
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 2 });
        drop(b);
        // The heal resealed the anchor at the image epoch.
        assert_eq!(FreshnessAnchor::probe(&apath, KEY).unwrap(), Some(2));
        cleanup(&p);
    }

    #[test]
    fn anchored_open_refuses_forged_tail_beyond_crash_window() {
        let p = tmp("forgedtail");
        two_frames(&p, true);
        let apath = anchor_path_for(&p);
        let sealed = std::fs::read(&apath).unwrap();
        // Empty frames written into the slack, chained behind the last
        // one, under `key` — at the end of the log, where a splicing
        // adversary who cannot touch the anchor would write them.
        let (honest, frames, end) = layout(&p, true);
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
        let err = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap_err();
        assert!(err.to_string().contains("frame tag"), "got {err}");

        // With it, one epoch past the anchor is the crash window: the
        // in-flight barrier of a killed process, which only a holder of
        // the key can have written — accepted, the anchor healed forward.
        std::fs::write(&p, forge(KEY, &[3])).unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 3 });
        drop(b);
        assert_eq!(FreshnessAnchor::probe(&apath, KEY).unwrap(), Some(3));

        // Two past it — by one frame that skips an epoch, or by two
        // frames — is a forged tail.
        for (epochs, image_epoch) in [(&[4u64][..], 4), (&[3, 4][..], 4)] {
            std::fs::write(&apath, &sealed).unwrap();
            std::fs::write(&p, forge(KEY, epochs)).unwrap();
            let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
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
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
        }
        let apath = anchor_path_for(&p);
        std::fs::remove_file(&apath).unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::AnchorMissing { image_epoch: 1 });
        assert!(b.freshness().is_violation());
        drop(b);
        std::fs::write(&apath, b"garbage anchor bytes........................").unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::AnchorCorrupt { image_epoch: 1 });
        cleanup(&p);
    }

    #[test]
    fn override_reseals_missing_anchor_from_image() {
        let p = tmp("override");
        {
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
        }
        let apath = anchor_path_for(&p);
        std::fs::remove_file(&apath).unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Override).unwrap();
        assert_eq!(b.freshness(), Freshness::Overridden { image_epoch: 1 });
        drop(b);
        // Resealed: the next strict open is clean again.
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 1 });
        cleanup(&p);
    }
}
