//! File-backed NVM images: a write-ahead log with ordered flushes and a
//! sealed freshness anchor.
//!
//! The on-disk format is an append-only log:
//!
//! ```text
//! header:  "ANUBWAL1" (8 bytes) | version u32 LE (= 2)
//! frame*:  payload_len u32 LE | fnv1a64(epoch ‖ payload) u64 LE | epoch u64 LE | payload
//! record*: tag 0 (block write): phys u64 LE | 64 contents bytes
//!          tag 1 (register):    idx u8     | 64 contents bytes
//! ```
//!
//! Every [`NvmBackend::store`] / [`NvmBackend::journal`] /
//! [`NvmBackend::store_reg`] appends a record to an in-memory pending
//! buffer; [`NvmBackend::barrier`] serializes the buffer as **one**
//! checksummed frame and fsyncs. A frame is therefore the atomicity unit,
//! and since the controllers barrier once per public operation it is one
//! operation's worth of commit groups (a 32-line batch, a whole page
//! re-encryption): on reopen, records are replayed in append order (last
//! write to an address wins) and a structurally torn tail frame — the
//! signature of a process killed mid-append, i.e. before the operation
//! was acknowledged — is discarded and truncated away. A frame
//! whose checksum fails any other way is *corruption*, surfaced as a
//! typed [`NvmError::Backend`], never a panic.
//!
//! Each flushed frame carries the device's **freshness epoch**, bumped on
//! every flushing barrier, compaction, and snapshot. Replay demands
//! strictly increasing epochs, so a spliced, reordered, or duplicated
//! frame — internally checksum-valid — is still typed corruption. When
//! the image is opened with [`FileBackend::open_with_anchor`], the last
//! epoch is compared against the sealed [`FreshnessAnchor`] beside the
//! image: an image *behind* the anchor is a rollback to stale state and
//! is reported as [`Freshness::RolledBack`] for the recovery layer to
//! refuse. The frame checksum itself stays unkeyed by design — it is a
//! structural integrity check; content authenticity belongs to the
//! crypto layer above, and freshness to the anchor.
//!
//! The log is compacted (rewritten as one frame holding just the live
//! blocks and registers, then atomically renamed into place) once the
//! replayed record count sufficiently exceeds the live footprint.

use crate::anchor::{anchor_path_for, AnchorError, AnchorPolicy, Freshness, FreshnessAnchor};
use crate::backend::{fnv1a64, fnv1a64_seeded, NvmBackend};
use crate::block::Block;
use crate::error::NvmError;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ANUBWAL1";
const VERSION: u32 = 2;
const HEADER_BYTES: usize = 12;
const FRAME_HEADER_BYTES: usize = 20;

const TAG_WRITE: u8 = 0;
const TAG_REG: u8 = 1;

/// Compaction triggers when the flushed record count exceeds
/// `COMPACT_FACTOR × live footprint + COMPACT_FLOOR`.
const COMPACT_FACTOR: u64 = 4;
const COMPACT_FLOOR: u64 = 1024;

fn io_err(op: &str, path: &Path, e: std::io::Error) -> NvmError {
    NvmError::Backend {
        reason: format!("{op} {}: {e}", path.display()),
    }
}

/// The checksum of one WAL frame: an FNV-1a stream over the frame epoch
/// followed by the payload, so neither can be altered independently.
fn frame_crc(epoch: u64, payload: &[u8]) -> u64 {
    fnv1a64_seeded(fnv1a64(&epoch.to_le_bytes()), payload)
}

/// Completes `frame` — [`FRAME_HEADER_BYTES`] of reservation followed by
/// the payload — with its header for `epoch`, appends it to `file` in one
/// write and fsyncs. Building the frame in place keeps an op-sized
/// payload from being copied a second time on every barrier.
///
/// Callers bump the epoch before and seal the anchor after: the WAL
/// lands strictly before the anchor advances, so an honest crash between
/// the two leaves the image *ahead* of the anchor (accepted and healed
/// on reopen) — never behind it.
fn write_frame(file: &mut File, path: &Path, frame: &mut [u8], epoch: u64) -> Result<(), NvmError> {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..12].copy_from_slice(&frame_crc(epoch, payload).to_le_bytes());
    header[12..].copy_from_slice(&epoch.to_le_bytes());
    file.write_all(frame)
        .map_err(|e| io_err("append", path, e))?;
    file.sync_data().map_err(|e| io_err("sync", path, e))
}

/// A durable, write-ahead-logged file backend for [`crate::NvmDevice`].
///
/// Persisted bytes never reflect an unflushed commit group: records only
/// reach the file at [`NvmBackend::barrier`], which the controllers
/// invoke once at the end of every public operation and the persistence
/// domain on its platform paths (ADR flush, power-up REDO, WPQ drain,
/// snapshot) — see the durability contract on [`NvmBackend`]. Reopening
/// the image after a SIGKILL therefore reconstructs a state an in-process
/// `power_fail` could have left at an operation boundary: every commit
/// group of every acknowledged operation, and of the operation in flight
/// either all groups it had completed when its barrier landed or none.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    path: PathBuf,
    cache: HashMap<u64, Block>,
    regs: BTreeMap<u8, Block>,
    /// Exact replay state of the flushed log: the last *flushed* record
    /// (store or journal) per address. `cache` deliberately excludes
    /// journaled-but-undrained writes — they are WPQ-resident and must
    /// stay invisible to `load` — but those records are already durable,
    /// so compaction must rewrite from this map, never from `cache`.
    replay: HashMap<u64, Block>,
    /// The next frame under construction: [`FRAME_HEADER_BYTES`] reserved
    /// for the header (filled in by `write_frame`), then the serialized
    /// records awaiting the next barrier. Truncated, never dropped, so an
    /// op-sized frame reuses the allocation of the one before it.
    pending: Vec<u8>,
    /// Structured mirror of the block records in `pending`, applied to
    /// `replay` once the frame durably lands.
    pending_ops: Vec<(u64, Block)>,
    pending_records: u64,
    /// Records sitting in flushed frames (reset by compaction).
    wal_records: u64,
    /// Current freshness epoch: that of the image's last intact frame,
    /// bumped before each flushed frame / compaction / snapshot.
    epoch: u64,
    /// Sealed epoch register, present for anchored opens.
    anchor: Option<FreshnessAnchor>,
    /// The anchor check's verdict at open time.
    freshness: Freshness,
    /// Torn tail frames discarded (and truncated away) at open.
    rejected_frames: u64,
    suppressed: bool,
}

impl FileBackend {
    /// Opens (or creates) a WAL image at `path`, replaying every intact
    /// frame. A structurally torn tail frame is truncated away. No
    /// freshness anchor is consulted: the image's epoch is trusted at
    /// face value ([`Freshness::Untracked`]).
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] for I/O failures, a bad magic or
    /// version, a checksum-corrupt frame that is not a torn tail, or a
    /// non-monotonic frame epoch.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, NvmError> {
        Self::open_inner(path.as_ref(), None)
    }

    /// Opens a WAL image and verifies its epoch against the sealed
    /// freshness anchor beside it (`<path>.anchor`), creating the anchor
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
    /// As [`FileBackend::open`], plus anchor I/O failures.
    pub fn open_with_anchor(
        path: impl AsRef<Path>,
        key: [u64; 2],
        policy: AnchorPolicy,
    ) -> Result<Self, NvmError> {
        Self::open_inner(path.as_ref(), Some((key, policy)))
    }

    fn open_inner(
        path: &Path,
        anchoring: Option<([u64; 2], AnchorPolicy)>,
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

        let mut cache = HashMap::new();
        let mut regs = BTreeMap::new();
        let mut wal_records = 0u64;
        let mut epoch = 0u64;
        let mut rejected_frames = 0u64;

        let valid_len = if bytes.is_empty() {
            file.write_all(MAGIC)
                .map_err(|e| io_err("init", &path, e))?;
            file.write_all(&VERSION.to_le_bytes())
                .map_err(|e| io_err("init", &path, e))?;
            file.sync_data().map_err(|e| io_err("sync", &path, e))?;
            HEADER_BYTES
        } else {
            if bytes.len() < HEADER_BYTES || &bytes[..8] != MAGIC {
                return Err(NvmError::Backend {
                    reason: format!("{}: not an Anubis WAL image (bad magic)", path.display()),
                });
            }
            let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
            if version != VERSION {
                return Err(NvmError::Backend {
                    reason: format!(
                        "{}: unsupported WAL version {version} (expected {VERSION})",
                        path.display()
                    ),
                });
            }
            let mut pos = HEADER_BYTES;
            while pos < bytes.len() {
                if pos + FRAME_HEADER_BYTES > bytes.len() {
                    rejected_frames += 1;
                    break; // torn tail: incomplete frame header
                }
                let len = u32::from_le_bytes([
                    bytes[pos],
                    bytes[pos + 1],
                    bytes[pos + 2],
                    bytes[pos + 3],
                ]) as usize;
                let crc = u64::from_le_bytes(
                    bytes[pos + 4..pos + 12]
                        .try_into()
                        .expect("slice is 8 bytes"),
                );
                let frame_epoch = u64::from_le_bytes(
                    bytes[pos + 12..pos + 20]
                        .try_into()
                        .expect("slice is 8 bytes"),
                );
                let start = pos + FRAME_HEADER_BYTES;
                let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
                    rejected_frames += 1;
                    break; // torn tail: payload cut short by the kill
                };
                let payload = &bytes[start..end];
                if frame_crc(frame_epoch, payload) != crc {
                    // A complete frame with a bad checksum is bit
                    // corruption, not a torn append.
                    return Err(NvmError::Backend {
                        reason: format!(
                            "{}: corrupt WAL frame at byte {pos} (checksum mismatch)",
                            path.display()
                        ),
                    });
                }
                if frame_epoch <= epoch {
                    // Epochs strictly increase through the log; a repeat
                    // or regression is a reordered, duplicated, or
                    // spliced frame — checksum-intact, still corruption.
                    return Err(NvmError::Backend {
                        reason: format!(
                            "{}: non-monotonic WAL frame epoch {frame_epoch} after {epoch} \
                             at byte {pos} (spliced or reordered frame)",
                            path.display()
                        ),
                    });
                }
                epoch = frame_epoch;
                wal_records += replay_frame(&path, payload, &mut cache, &mut regs)?;
                pos = end;
            }
            pos
        };

        if (valid_len as u64) < bytes.len() as u64 {
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate", &path, e))?;
            file.sync_data().map_err(|e| io_err("sync", &path, e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, e))?;

        let (anchor, freshness) = match anchoring {
            None => (None, Freshness::Untracked),
            Some((key, policy)) => Self::check_anchor(&path, key, policy, epoch)?,
        };

        Ok(FileBackend {
            file,
            path,
            replay: cache.clone(),
            cache,
            regs,
            pending: vec![0; FRAME_HEADER_BYTES],
            pending_ops: Vec::new(),
            pending_records: 0,
            wal_records,
            epoch,
            anchor,
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
                // Further ahead means frames were appended at rest — a
                // spliced or forged tail. Like rollback this is proven by
                // a valid anchor, so no policy overrides it.
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
                    // anchor seal (or mid-seal, torn): heal forward.
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

    fn push_write(&mut self, phys: u64, block: Block) {
        self.pending.push(TAG_WRITE);
        self.pending.extend_from_slice(&phys.to_le_bytes());
        self.pending.extend_from_slice(block.as_bytes());
        self.pending_ops.push((phys, block));
        self.pending_records += 1;
    }

    fn push_reg(&mut self, idx: u8, block: Block) {
        self.pending.push(TAG_REG);
        self.pending.push(idx);
        self.pending.extend_from_slice(block.as_bytes());
        self.pending_records += 1;
    }

    fn live_records(&self) -> u64 {
        (self.replay.len() + self.regs.len()) as u64
    }

    /// Drops the records awaiting the next barrier, keeping the header
    /// reservation and the buffer's capacity.
    fn clear_pending(&mut self) {
        self.pending.truncate(FRAME_HEADER_BYTES);
        self.pending_ops.clear();
        self.pending_records = 0;
    }

    fn seal_anchor(&mut self) -> Result<(), NvmError> {
        if let Some(anchor) = &mut self.anchor {
            anchor.seal(self.epoch).map_err(|e| NvmError::Backend {
                reason: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Rewrites the log as header + one frame of the replay state and
    /// atomically renames it into place. The baseline is `replay`, not
    /// `cache`: journaled-but-undrained writes are durable in the log
    /// being discarded and must survive into its replacement. The
    /// rewritten frame carries a freshly bumped epoch, sealed into the
    /// anchor after the rename.
    fn compact(&mut self) -> Result<(), NvmError> {
        let mut frame =
            Vec::with_capacity(FRAME_HEADER_BYTES + self.replay.len() * 73 + self.regs.len() * 66);
        frame.resize(FRAME_HEADER_BYTES, 0);
        let mut entries: Vec<_> = self.replay.iter().map(|(&k, &b)| (k, b)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        for (phys, block) in &entries {
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
        let tmp = self.path.with_extension("compact-tmp");
        let mut out = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        out.write_all(MAGIC).map_err(|e| io_err("write", &tmp, e))?;
        out.write_all(&VERSION.to_le_bytes())
            .map_err(|e| io_err("write", &tmp, e))?;
        write_frame(&mut out, &tmp, &mut frame, self.epoch)?;
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("rename", &tmp, e))?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        out.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &tmp, e))?;
        self.file = out;
        self.wal_records = self.live_records();
        self.seal_anchor()
    }
}

fn replay_frame(
    path: &Path,
    payload: &[u8],
    cache: &mut HashMap<u64, Block>,
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
                let end = pos + 1 + 8 + crate::BLOCK_BYTES;
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
        self.cache.insert(phys, block);
        self.push_write(phys, block);
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
        self.regs.insert(idx, block);
        self.push_reg(idx, block);
    }

    fn reg(&self, idx: u8) -> Option<Block> {
        self.regs.get(&idx).copied()
    }

    fn regs(&self) -> Vec<(u8, Block)> {
        self.regs.iter().map(|(&i, &b)| (i, b)).collect()
    }

    fn journal(&mut self, phys: u64, block: Block) {
        self.push_write(phys, block);
    }

    fn barrier(&mut self) -> Result<(), NvmError> {
        if self.suppressed {
            // The platform died: unflushed records evaporate.
            self.clear_pending();
            return Ok(());
        }
        if self.pending_records == 0 {
            return Ok(());
        }
        self.epoch += 1;
        write_frame(&mut self.file, &self.path, &mut self.pending, self.epoch)?;
        self.seal_anchor()?;
        self.wal_records += self.pending_records;
        for &(phys, block) in &self.pending_ops {
            self.replay.insert(phys, block);
        }
        self.clear_pending();
        if self.wal_records > COMPACT_FACTOR * self.live_records() + COMPACT_FLOOR {
            self.compact()?;
        }
        Ok(())
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

    fn bump_epoch(&mut self) -> Result<(), NvmError> {
        if self.suppressed {
            return Ok(());
        }
        // An empty frame: nothing to replay, but the epoch advance is
        // durable and anchored, so post-snapshot state is provably newer
        // than the snapshot it feeds.
        self.epoch += 1;
        let mut empty = [0; FRAME_HEADER_BYTES];
        write_frame(&mut self.file, &self.path, &mut empty, self.epoch)?;
        self.seal_anchor()
    }

    fn frames_rejected(&self) -> u64 {
        self.rejected_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u64; 2] = [7, 13];

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
    fn frame_bytes_follow_the_documented_layout_from_a_reused_buffer() {
        let p = tmp("layout");
        let mut b = FileBackend::open(&p).unwrap();
        b.store_reg(3, Block::filled(0x33));
        b.journal(9, Block::filled(0x99));
        b.store(4, Block::filled(0x44));
        b.barrier().unwrap();
        let capacity = b.pending.capacity();
        b.store(5, Block::filled(0x55));
        b.barrier().unwrap();
        assert_eq!(
            b.pending.capacity(),
            capacity,
            "a barrier must keep the frame buffer for the next one"
        );
        b.bump_epoch().unwrap();

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
        let mut want = MAGIC.to_vec();
        want.extend_from_slice(&VERSION.to_le_bytes());
        for (epoch, payload) in [(1u64, first), (2, write(5, 0x55)), (3, Vec::new())] {
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&frame_crc(epoch, &payload).to_le_bytes());
            want.extend_from_slice(&epoch.to_le_bytes());
            want.extend_from_slice(&payload);
        }
        assert_eq!(std::fs::read(&p).unwrap(), want);
        cleanup(&p);
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

    #[test]
    fn torn_tail_frame_is_truncated_away() {
        let p = tmp("torn");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB));
            b.barrier().unwrap();
        }
        // Chop bytes off the last frame, simulating a kill mid-append.
        let len = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        assert_eq!(b.frames_rejected(), 1);
        // The torn tail is physically gone after reopen.
        assert!(std::fs::metadata(&p).unwrap().len() < len - 10);
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
        assert!(err.to_string().contains("checksum"), "got {err}");
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
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&p, &img).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(err.to_string().contains("version"), "got {err}");
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
            b.bump_epoch().unwrap(); // also a no-op on a dead platform
            assert!(b.flushes_suppressed());
        }
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), None);
        assert_eq!(b.load(3), None);
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
            let size = std::fs::metadata(&p).unwrap().len();
            // ~2200 records × ~75 bytes would exceed 150 KiB without
            // compaction; the compacted log stays a small multiple of the
            // 2-record live footprint.
            assert!(size < 20_000, "WAL did not compact (size {size})");
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
    fn duplicated_frame_is_typed_epoch_corruption() {
        let p = tmp("dup");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB));
            b.barrier().unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        // Duplicate the last frame verbatim: checksum-valid, epoch stale.
        let frame_len = FRAME_HEADER_BYTES + 73;
        let last = bytes.len() - frame_len;
        let dup = bytes[last..].to_vec();
        bytes.extend_from_slice(&dup);
        std::fs::write(&p, &bytes).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(err.to_string().contains("non-monotonic"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn reordered_frames_are_typed_epoch_corruption() {
        let p = tmp("reorder");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
            b.store(2, Block::filled(0xBB));
            b.barrier().unwrap();
        }
        let bytes = std::fs::read(&p).unwrap();
        let frame_len = FRAME_HEADER_BYTES + 73;
        let f1 = HEADER_BYTES;
        let f2 = HEADER_BYTES + frame_len;
        let mut swapped = bytes[..HEADER_BYTES].to_vec();
        swapped.extend_from_slice(&bytes[f2..f2 + frame_len]);
        swapped.extend_from_slice(&bytes[f1..f1 + frame_len]);
        std::fs::write(&p, &swapped).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(err.to_string().contains("non-monotonic"), "got {err}");
        cleanup(&p);
    }

    #[test]
    fn tampered_frame_epoch_fails_checksum() {
        let p = tmp("epochtamper");
        {
            let mut b = FileBackend::open(&p).unwrap();
            b.store(1, Block::filled(0xAA));
            b.barrier().unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        // The epoch field is covered by the frame checksum: bumping it
        // without re-checksumming must be detected.
        bytes[HEADER_BYTES + 12] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let err = FileBackend::open(&p).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got {err}");
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
        {
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
            b.store(1, Block::filled(0x02));
            b.barrier().unwrap();
        }
        // Forge two empty frames with valid (keyless) checksums at
        // epochs 3 and 4 — what a splicing adversary who knows the frame
        // format but cannot touch the anchor would append.
        let mut bytes = std::fs::read(&p).unwrap();
        for e in [3u64, 4] {
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&frame_crc(e, &[]).to_le_bytes());
            bytes.extend_from_slice(&e.to_le_bytes());
        }
        std::fs::write(&p, &bytes).unwrap();
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(
            b.freshness(),
            Freshness::TailForged {
                anchored_epoch: 2,
                image_epoch: 4
            }
        );
        assert!(b.freshness().is_violation());
        drop(b);
        // Never overridable, and the anchor evidence is left untouched.
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Override).unwrap();
        assert!(matches!(b.freshness(), Freshness::TailForged { .. }));
        drop(b);
        assert_eq!(
            FreshnessAnchor::probe(&anchor_path_for(&p), KEY).unwrap(),
            Some(2)
        );
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

    #[test]
    fn bump_epoch_is_durable_and_anchored() {
        let p = tmp("bump");
        {
            let mut b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
            b.store(1, Block::filled(0x01));
            b.barrier().unwrap();
            b.bump_epoch().unwrap();
            assert_eq!(b.epoch(), 2);
        }
        let b = FileBackend::open_with_anchor(&p, KEY, AnchorPolicy::Strict).unwrap();
        assert_eq!(b.epoch(), 2);
        assert_eq!(b.freshness(), Freshness::Fresh { epoch: 2 });
        assert_eq!(b.load(1), Some(Block::filled(0x01)));
        cleanup(&p);
    }
}
