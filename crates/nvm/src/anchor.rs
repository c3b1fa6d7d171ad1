//! The freshness anchor: a sealed, separately-fsynced epoch register.
//!
//! The Anubis paper anchors recovery trust in *on-chip* persistent
//! registers the adversary cannot touch. In this reproduction the process
//! dies but the host filesystem survives, so the stand-in is a tiny
//! anchor file beside the WAL image holding the device's **freshness
//! epoch** — a monotonic counter bumped on every flushing WAL barrier
//! and compaction. On reopen the WAL image's epoch is compared
//! against the anchor: an image *behind* the anchor is a rollback to
//! stale state and must be refused, never silently served.
//!
//! File format (44 bytes):
//!
//! ```text
//! "ANUBANC1" (8) | version u32 LE | slot0: epoch u64 | mac u64
//!                                 | slot1: epoch u64 | mac u64
//! ```
//!
//! Epoch `E` is sealed into slot `E % 2`, so a torn in-place write can
//! only damage the slot being written while the previous epoch's slot
//! survives intact — an honest crash mid-seal therefore degrades to
//! "anchor one epoch behind the image", which reopen accepts and heals.
//! Each slot carries a MAC keyed with the device key (a keyed-FNV
//! sandwich — the in-tree stand-in for a real MAC, consistent with the
//! simulation-grade checksums used across the durable formats), so an
//! adversary without the key cannot fabricate a valid anchor for an
//! arbitrary epoch.
//!
//! Threat-model boundary: the anchor models on-chip NVRAM, so *replaying
//! a captured anchor file together with a matching old image* is outside
//! the software-visible attack surface (in hardware the register simply
//! cannot be rolled back). Deleting or corrupting the anchor **is**
//! in-model and yields a typed violation, resolvable only by the explicit
//! operator override policy.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ANUBANC1";
const VERSION: u32 = 1;
const HEADER_BYTES: usize = 12;
const SLOT_BYTES: usize = 16;
const FILE_BYTES: usize = HEADER_BYTES + 2 * SLOT_BYTES;

/// Why an anchor file could not be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnchorError {
    /// The file exists but no slot carries a valid sealed epoch (torn
    /// beyond repair, bit-flipped, truncated, or forged without the key).
    Corrupt,
    /// I/O failure touching the anchor file.
    Io {
        /// Operation and path context.
        reason: String,
    },
}

impl core::fmt::Display for AnchorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnchorError::Corrupt => write!(f, "freshness anchor is corrupt (no valid slot)"),
            AnchorError::Io { reason } => write!(f, "freshness anchor i/o failure: {reason}"),
        }
    }
}

impl std::error::Error for AnchorError {}

/// How reopen treats a missing or corrupt anchor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnchorPolicy {
    /// Conservative default: a missing/corrupt anchor over a non-empty
    /// image is a typed violation and recovery refuses to proceed.
    Strict,
    /// Explicit operator override (`ANUBIS_ANCHOR_OVERRIDE=1` at the
    /// binary level): accept the image at face value and reseal the
    /// anchor from the image's epoch. Never applies to a *valid* anchor
    /// that proves rollback — genuine rollback is not overridable.
    Override,
}

/// What the anchor check concluded about a reopened image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// No anchor is associated with this backend (a volatile one); no
    /// freshness claim is made.
    Untracked,
    /// The image is at (or exactly one barrier ahead of, after an honest
    /// crash between the WAL fsync and the seal — healed on open) the
    /// anchored epoch.
    Fresh {
        /// The verified current epoch.
        epoch: u64,
    },
    /// The image is *behind* the anchor: stale state substituted between
    /// death and restart. Must be refused.
    RolledBack {
        /// Epoch the sealed anchor proves was reached.
        anchored_epoch: u64,
        /// Older epoch the image actually carries.
        image_epoch: u64,
    },
    /// The anchor file is gone but the image has history; under
    /// [`AnchorPolicy::Strict`] this is a refusal.
    AnchorMissing {
        /// Epoch the unverifiable image carries.
        image_epoch: u64,
    },
    /// The anchor file exists but no slot seals a valid epoch.
    AnchorCorrupt {
        /// Epoch the unverifiable image carries.
        image_epoch: u64,
    },
    /// The image ran *ahead* of the anchor by more than the single
    /// in-flight barrier an honest crash can leave unanchored (the seal
    /// follows every frame fsync, so the gap is at most one). Extra tail
    /// frames were appended to the image at rest — a spliced or forged
    /// replay. Never overridable: the valid anchor is the proof.
    TailForged {
        /// Epoch the sealed anchor proves was reached.
        anchored_epoch: u64,
        /// Newer epoch the image claims (anchored + 2 or more).
        image_epoch: u64,
    },
    /// [`AnchorPolicy::Override`] accepted an image with a
    /// missing/corrupt anchor and resealed the anchor from it.
    Overridden {
        /// Epoch the anchor was resealed to.
        image_epoch: u64,
    },
}

impl Freshness {
    /// True when the status must stop recovery (rollback or an anchor
    /// violation under the strict policy).
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            Freshness::RolledBack { .. }
                | Freshness::TailForged { .. }
                | Freshness::AnchorMissing { .. }
                | Freshness::AnchorCorrupt { .. }
        )
    }
}

fn io_reason(op: &str, path: &Path, e: std::io::Error) -> AnchorError {
    AnchorError::Io {
        reason: format!("{op} {}: {e}", path.display()),
    }
}

/// Seals `epoch` under `key` — a keyed-FNV sandwich over
/// `key || epoch || key'`, simulation-grade like the WAL's frame tag
/// (whose key words are derived apart from these) and, like it,
/// unforgeable without the key.
fn seal_mac(key: [u64; 2], epoch: u64) -> u64 {
    let mut buf = [0u8; 32];
    buf[0..8].copy_from_slice(&key[0].to_le_bytes());
    buf[8..16].copy_from_slice(&epoch.to_le_bytes());
    buf[16..24].copy_from_slice(&key[1].to_le_bytes());
    buf[24..32].copy_from_slice(&key[0].rotate_left(17).to_le_bytes());
    crate::backend::fnv1a64(&buf)
}

/// The standard anchor path for a WAL image: `<image>.anchor`.
pub fn anchor_path_for(image: &Path) -> PathBuf {
    let mut os = image.as_os_str().to_os_string();
    os.push(".anchor");
    PathBuf::from(os)
}

/// An open, sealed freshness-epoch register backed by a tiny file.
#[derive(Debug)]
pub struct FreshnessAnchor {
    file: File,
    path: PathBuf,
    key: [u64; 2],
    /// Highest validly sealed epoch currently on disk.
    anchored: u64,
}

impl FreshnessAnchor {
    /// Reads the anchor at `path` without creating it. `Ok(None)` means
    /// the file does not exist; a present file with no valid slot is
    /// [`AnchorError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`AnchorError::Corrupt`] or [`AnchorError::Io`].
    pub fn probe(path: &Path, key: [u64; 2]) -> Result<Option<u64>, AnchorError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_reason("read", path, e)),
        };
        Ok(Some(Self::decode(&bytes, key)?))
    }

    fn decode(bytes: &[u8], key: [u64; 2]) -> Result<u64, AnchorError> {
        if bytes.len() < FILE_BYTES || &bytes[..8] != MAGIC {
            return Err(AnchorError::Corrupt);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if version != VERSION {
            return Err(AnchorError::Corrupt);
        }
        let mut best: Option<u64> = None;
        for slot in 0..2usize {
            let off = HEADER_BYTES + slot * SLOT_BYTES;
            let epoch = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte slice"));
            let mac =
                u64::from_le_bytes(bytes[off + 8..off + 16].try_into().expect("8-byte slice"));
            // A slot only counts if its MAC verifies *and* its parity
            // matches its position — epoch E lives in slot E % 2, so a
            // valid seal copied into the wrong slot is still a forgery.
            if mac == seal_mac(key, epoch) && (epoch % 2) as usize == slot {
                best = Some(best.map_or(epoch, |b: u64| b.max(epoch)));
            }
        }
        best.ok_or(AnchorError::Corrupt)
    }

    /// Opens an existing anchor, or creates one sealed at epoch 0.
    ///
    /// # Errors
    ///
    /// [`AnchorError::Corrupt`] when the file exists but neither slot
    /// verifies; [`AnchorError::Io`] for filesystem failures.
    pub fn open(path: PathBuf, key: [u64; 2]) -> Result<Self, AnchorError> {
        match Self::probe(&path, key)? {
            Some(anchored) => {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_reason("open", &path, e))?;
                Ok(FreshnessAnchor {
                    file,
                    path,
                    key,
                    anchored,
                })
            }
            None => Self::create(path, key, 0),
        }
    }

    /// Creates (or overwrites) the anchor sealed at `epoch` — the
    /// operator-override reseal path and the fresh-image bootstrap.
    ///
    /// # Errors
    ///
    /// [`AnchorError::Io`] for filesystem failures.
    pub fn create(path: PathBuf, key: [u64; 2], epoch: u64) -> Result<Self, AnchorError> {
        let mut bytes = Vec::with_capacity(FILE_BYTES);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        // Seal `epoch` into its parity slot; the other slot gets the
        // epoch of opposite parity just below it (or a copy at epoch 0)
        // so both slots always verify.
        let other = if epoch == 0 { 0 } else { epoch - 1 };
        for slot in 0..2u64 {
            let e = if epoch % 2 == slot { epoch } else { other };
            bytes.extend_from_slice(&e.to_le_bytes());
            bytes.extend_from_slice(&seal_mac(key, e).to_le_bytes());
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_reason("create", &path, e))?;
        file.write_all(&bytes)
            .map_err(|e| io_reason("write", &path, e))?;
        file.sync_data().map_err(|e| io_reason("sync", &path, e))?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(FreshnessAnchor {
            file,
            path,
            key,
            anchored: epoch,
        })
    }

    /// The highest validly sealed epoch.
    pub fn anchored(&self) -> u64 {
        self.anchored
    }

    /// The anchor file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Advances the anchor to `epoch` with one in-place slot write plus
    /// fsync. Seals strictly forward: a request at or below the anchored
    /// epoch is a no-op, so a rolled-back caller can never overwrite the
    /// evidence against it.
    ///
    /// # Errors
    ///
    /// [`AnchorError::Io`] for filesystem failures.
    pub fn seal(&mut self, epoch: u64) -> Result<(), AnchorError> {
        if epoch <= self.anchored {
            return Ok(());
        }
        let slot = (epoch % 2) as usize;
        let off = (HEADER_BYTES + slot * SLOT_BYTES) as u64;
        let mut rec = [0u8; SLOT_BYTES];
        rec[..8].copy_from_slice(&epoch.to_le_bytes());
        rec[8..].copy_from_slice(&seal_mac(self.key, epoch).to_le_bytes());
        self.file
            .seek(SeekFrom::Start(off))
            .map_err(|e| io_reason("seek", &self.path, e))?;
        self.file
            .write_all(&rec)
            .map_err(|e| io_reason("write", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| io_reason("sync", &self.path, e))?;
        self.anchored = epoch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u64; 2] = [0x1122_3344_5566_7788, 0x99AA_BBCC_DDEE_FF00];

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anubis-anchor-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn create_seal_probe_roundtrip() {
        let p = tmp("roundtrip");
        let mut a = FreshnessAnchor::open(p.clone(), KEY).unwrap();
        assert_eq!(a.anchored(), 0);
        for e in 1..=9 {
            a.seal(e).unwrap();
        }
        assert_eq!(a.anchored(), 9);
        drop(a);
        assert_eq!(FreshnessAnchor::probe(&p, KEY).unwrap(), Some(9));
        let b = FreshnessAnchor::open(p.clone(), KEY).unwrap();
        assert_eq!(b.anchored(), 9);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn seal_never_goes_backward() {
        let p = tmp("backward");
        let mut a = FreshnessAnchor::open(p.clone(), KEY).unwrap();
        a.seal(5).unwrap();
        a.seal(3).unwrap(); // no-op
        assert_eq!(a.anchored(), 5);
        drop(a);
        assert_eq!(FreshnessAnchor::probe(&p, KEY).unwrap(), Some(5));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn missing_file_probes_none() {
        let p = tmp("missing");
        assert_eq!(FreshnessAnchor::probe(&p, KEY).unwrap(), None);
    }

    #[test]
    fn torn_slot_write_leaves_previous_epoch_valid() {
        let p = tmp("torn");
        let mut a = FreshnessAnchor::open(p.clone(), KEY).unwrap();
        a.seal(6).unwrap();
        a.seal(7).unwrap();
        drop(a);
        // Tear the *next* seal: epoch 8 targets slot 0; garble slot 0
        // mid-write the way a crash during `seal(8)` would.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&8u64.to_le_bytes());
        bytes[HEADER_BYTES + 8] ^= 0xFF; // MAC half-written
        std::fs::write(&p, &bytes).unwrap();
        // Slot 1 still seals epoch 7.
        assert_eq!(FreshnessAnchor::probe(&p, KEY).unwrap(), Some(7));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn wrong_key_and_bit_flips_are_corrupt() {
        let p = tmp("forge");
        let mut a = FreshnessAnchor::open(p.clone(), KEY).unwrap();
        a.seal(1).unwrap();
        a.seal(2).unwrap();
        drop(a);
        assert_eq!(
            FreshnessAnchor::probe(&p, [1, 2]).unwrap_err(),
            AnchorError::Corrupt
        );
        let mut bytes = std::fs::read(&p).unwrap();
        for b in bytes.iter_mut().skip(HEADER_BYTES) {
            *b ^= 0x10;
        }
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(
            FreshnessAnchor::probe(&p, KEY).unwrap_err(),
            AnchorError::Corrupt
        );
        std::fs::write(&p, b"short").unwrap();
        assert_eq!(
            FreshnessAnchor::probe(&p, KEY).unwrap_err(),
            AnchorError::Corrupt
        );
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn valid_seal_in_wrong_slot_is_rejected() {
        let p = tmp("parity");
        let mut a = FreshnessAnchor::open(p.clone(), KEY).unwrap();
        a.seal(3).unwrap();
        a.seal(4).unwrap();
        drop(a);
        let mut bytes = std::fs::read(&p).unwrap();
        // Copy slot 0's (even-epoch) seal over slot 1.
        let (head, tail) = bytes.split_at_mut(HEADER_BYTES + SLOT_BYTES);
        tail[..SLOT_BYTES].copy_from_slice(&head[HEADER_BYTES..]);
        std::fs::write(&p, &bytes).unwrap();
        // Slot 0 still valid at 4; the misplaced copy contributes nothing.
        assert_eq!(FreshnessAnchor::probe(&p, KEY).unwrap(), Some(4));
        let _ = std::fs::remove_file(&p);
    }
}
