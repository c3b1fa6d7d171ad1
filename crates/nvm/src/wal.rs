//! The on-disk format of a [`FileBackend`](crate::FileBackend) image's log
//! and the one walker that reads it.
//!
//! ```text
//! header:  "ANUBWAL1" (8 bytes) | version u32 LE (= 5)
//! frame*:  payload_len u32 LE | tag u64 LE | epoch u64 LE
//!          | payload | commit marker 0xC3
//! slack:   zero bytes up to the end of the file
//! record*: tag 0 (block write): phys u64 LE | 64 contents bytes
//!          tag 1 (register):    idx u8     | 64 contents bytes
//!          tag 2 (checkpoint):  u64 LE, the digest of the home area it
//!                               left, masked
//!          tag 3 (priors):      u64 LE, the sum of the slot tags the home
//!                               area held for the addresses first written
//!                               in this frame since the checkpoint, masked
//!
//! frame tag, under the tag key words k0, k1 (derived from the key):
//!   h   = f(f(k0, epoch), prev)          prev: the previous frame's tag
//!   h   = f(h, w) for every payload word w (8 bytes LE, the last one
//!         zero-padded)
//!   tag = f(f(h, payload_len), k1)
//!   f(h, w) = lo ^ hi of the 128-bit product (h ^ w) · ⌊2⁶⁴/φ⌋
//! chain:   prev of a file's first frame is the seed, the tag of an
//!          empty frame at epoch 0 whose prev is 0 — a frame no log holds
//! home:    <image>.home, slot i at byte 65·i: marker u8 (0 = empty,
//!          0xB5 = present) | 64 contents bytes; zeros past its end
//! digest:  wrapping sum over present slots of a slot tag, a keyed fold
//!          over i and the block's eight words under key words of its own
//! masked:  the sum plus (wrapping) a keyed fold of the frame's epoch and
//!          the record's offset in the payload, so no record shows a tag
//! ```
//!
//! The log holds what changed since the last checkpoint: a fresh image's
//! log starts at epoch 1, a checkpoint's with one frame — a checkpoint
//! record and the registers — at the epoch it checkpoints, and both
//! replay over the home area (`file_backend.rs`), which the checkpoint
//! record's digest and the priors records bind to the log.
//!
//! **The tag chains frames under a key.** It covers the frame's epoch,
//! its payload and the tag of the frame before it, eight bytes per step
//! (the fold of [`crate::addr_hash`]), so it cannot be computed without
//! the key — an at-rest adversary cannot re-frame an old payload — and a
//! genuine frame of another history under the same key, or of the log a
//! checkpoint replaced, does not verify at this log's end: its previous
//! tag is another log's. Simulation-grade like the anchor's `seal_mac`
//! (and, like it, no cryptographic MAC), and under key words of its own.
//! [`FileBackend::open_with_anchor`](crate::FileBackend::open_with_anchor)
//! tags under the device key it is given, and an image opens only under
//! the key it was written with.
//!
//! The file is longer than the log: frames are appended into slack that
//! is already on disk as zeros, so **end-of-file does not mark
//! end-of-log**. The log ends where a frame header would start and every
//! remaining byte is zero; a frame counts only once the non-zero commit
//! marker behind its payload is there. Reading the file as if it were
//! followed by zeros forever, the bytes at the end of the last committed
//! frame are exactly one of
//!
//! * **all zero** — the clean end of the log (not a rejected frame);
//! * **an unmarked frame followed only by zeros** — the torn append of a
//!   killed process, written front to back and cut before its marker:
//!   dropped whole;
//! * **anything else** — corruption, a typed [`WalFault`]: a marked frame
//!   whose tag or epoch order fails, a marker byte that is neither
//!   zero nor the commit marker, an unmarked frame with something
//!   non-zero behind it, non-zero bytes after the end of the log.
//!
//! That rule needs every byte at and after the append position to be
//! zero whenever no append is in progress, which is the invariant
//! [`FileBackend`](crate::FileBackend) keeps.

use crate::addr_hash::fold;
use crate::block::Block;

pub(crate) const MAGIC: &[u8; 8] = b"ANUBWAL1";
pub(crate) const VERSION: u32 = 5;
pub(crate) const HEADER_BYTES: usize = 12;
pub(crate) const FRAME_HEADER_BYTES: usize = 20;

/// Closes every frame. Two or more set bits, so no single bit flip
/// turns a committed frame into an unmarked one.
const COMMIT_MARKER: u8 = 0xC3;

/// Separates the tag key words from the device key words the anchor's
/// `seal_mac` takes.
const TAG_DOMAIN: u64 = u64::from_le_bytes(*b"WAL-TAG4");

/// The two words a frame tag is keyed with, derived from a device key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TagKey([u64; 2]);

impl TagKey {
    pub(crate) fn new(key: [u64; 2]) -> TagKey {
        let k0 = fold(fold(TAG_DOMAIN, key[0]), key[1]);
        TagKey([k0, fold(k0, TAG_DOMAIN)])
    }

    /// The tag of `payload` at `epoch` behind a frame tagged `prev`.
    pub(crate) fn tag(&self, prev: u64, epoch: u64, payload: &[u8]) -> u64 {
        let mut h = fold(fold(self.0[0], epoch), prev);
        let mut words = payload.chunks_exact(8);
        for word in words.by_ref() {
            h = fold(
                h,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            );
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            h = fold(h, u64::from_le_bytes(word));
        }
        fold(fold(h, payload.len() as u64), self.0[1])
    }

    /// Where the chain of every new file starts.
    pub(crate) fn seed(&self) -> u64 {
        self.tag(0, 0, &[])
    }
}

/// Separates the home-slot key words from the frame tag's and the anchor's.
const SLOT_DOMAIN: u64 = u64::from_le_bytes(*b"WAL-HOME");

/// The two words a home slot's tag is keyed with, derived from a device
/// key under a domain of their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotKey([u64; 2]);

impl SlotKey {
    pub(crate) fn new(key: [u64; 2]) -> SlotKey {
        let k0 = fold(fold(SLOT_DOMAIN, key[0]), key[1]);
        SlotKey([k0, fold(k0, SLOT_DOMAIN)])
    }

    /// The tag of `block` at home address `phys`; a home area's digest is
    /// the wrapping sum of its present slots' tags.
    pub(crate) fn tag(&self, phys: u64, block: &Block) -> u64 {
        let h = (0..Block::WORDS).fold(fold(self.0[0], phys), |h, w| fold(h, block.word(w)));
        fold(h, self.0[1])
    }

    /// What a digest or priors record at offset `at` of a frame at
    /// `epoch` adds to the sum it carries. Within one history no two
    /// records share an epoch and an offset (a checkpoint's record opens
    /// its frame, a priors record follows a write), so a record never
    /// shows a slot tag, nor two records the difference of their sums,
    /// and the slot tags stay out of reach of a search for a
    /// substitution that keeps a sum.
    pub(crate) fn mask(&self, epoch: u64, at: usize) -> u64 {
        fold(fold(fold(self.0[1], epoch), at as u64), self.0[0])
    }
}

/// Completes `frame` — [`FRAME_HEADER_BYTES`] of reservation followed by
/// the payload — in place: fills the header for `epoch`, chained behind
/// a frame tagged `prev`, and pushes the commit marker. Returns the
/// frame's tag. Building the frame in place keeps an op-sized payload
/// from being copied a second time on every barrier.
pub(crate) fn seal_frame(frame: &mut Vec<u8>, key: &TagKey, prev: u64, epoch: u64) -> u64 {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    let tag = key.tag(prev, epoch, payload);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..12].copy_from_slice(&tag.to_le_bytes());
    header[12..].copy_from_slice(&epoch.to_le_bytes());
    frame.push(COMMIT_MARKER);
    tag
}

/// The bytes of one committed frame carrying `payload` at `epoch`,
/// tagged under `key` behind a frame tagged `prev` (the
/// [`WalFrame::tag`] of the log's last frame, or
/// [`WalWalker::last_tag`] of a log without one). Exported for the
/// at-rest adversary and the format tests.
pub fn encode_wal_frame(key: [u64; 2], prev: u64, epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + 1);
    frame.resize(FRAME_HEADER_BYTES, 0);
    frame.extend_from_slice(payload);
    seal_frame(&mut frame, &TagKey::new(key), prev, epoch);
    frame
}

/// Why a WAL image is not a log: every way [`WalWalker`] refuses bytes.
/// None of these is a torn append — that is [`WalWalker::torn_tail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The image does not start with the WAL magic.
    BadMagic,
    /// The image carries a format version this build does not read.
    UnsupportedVersion(u32),
    /// A committed frame's tag does not verify: its bytes, its key or
    /// its place in the chain is not the one it was tagged with.
    Checksum {
        /// Byte offset of the frame header.
        at: usize,
    },
    /// A committed frame's epoch does not exceed its predecessor's,
    /// although its tag verifies there: only a holder of the key writes
    /// such a frame.
    Epoch {
        /// Byte offset of the frame header.
        at: usize,
        /// The offending frame's epoch.
        epoch: u64,
        /// The epoch of the frame before it.
        after: u64,
    },
    /// The byte closing a frame is neither zero nor the commit marker.
    Marker {
        /// Byte offset of the frame header.
        at: usize,
    },
    /// A frame without its commit marker has non-zero bytes behind it,
    /// so it is not the tail a killed append leaves.
    Unmarked {
        /// Byte offset of the frame header.
        at: usize,
    },
    /// Non-zero bytes in the slack after the end of the log.
    Trailing {
        /// Byte offset of the end of the log.
        at: usize,
    },
}

impl std::fmt::Display for WalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WalFault::BadMagic => write!(f, "not an Anubis WAL image (bad magic)"),
            WalFault::UnsupportedVersion(v) => {
                write!(f, "unsupported WAL version {v} (expected {VERSION})")
            }
            WalFault::Checksum { at } => {
                write!(f, "corrupt WAL frame at byte {at} (frame tag mismatch)")
            }
            WalFault::Epoch { at, epoch, after } => write!(
                f,
                "non-monotonic WAL frame epoch {epoch} after {after} at byte {at} \
                 (spliced or reordered frame)"
            ),
            WalFault::Marker { at } => {
                write!(f, "corrupt WAL frame at byte {at} (bad commit marker)")
            }
            WalFault::Unmarked { at } => write!(
                f,
                "corrupt WAL frame at byte {at} (no commit marker, yet bytes follow it)"
            ),
            WalFault::Trailing { at } => {
                write!(f, "non-zero bytes after the end of the WAL at byte {at}")
            }
        }
    }
}

/// One committed frame located in a WAL image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFrame {
    /// Byte offset of the frame header.
    pub start: usize,
    /// Extent of the whole frame: header, payload and commit marker.
    pub len: usize,
    /// The frame's freshness epoch.
    pub epoch: u64,
    /// The frame's tag, which the next frame chains behind.
    pub tag: u64,
}

impl WalFrame {
    /// Byte offset just past the frame's commit marker.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// The frame's records, given the image it was found in.
    pub fn payload<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.start + FRAME_HEADER_BYTES..self.end() - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    Frames,
    CleanEnd,
    TornTail,
    Faulted,
}

/// Whether every byte is zero, eight at a time: asked once over the
/// slack behind the log, which can be a quarter of the log long.
fn all_zero(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    words
        .by_ref()
        .all(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")) == 0)
        && words.remainder().iter().all(|&b| b == 0)
}

/// Walks the committed frames of a WAL image in log order — the iterator
/// [`FileBackend`](crate::FileBackend) itself opens images with, so a
/// tool that locates frames through it cannot disagree with replay.
///
/// Yields each frame that is committed, tagged under the walk's key at
/// its place in the chain, and in epoch order, or the [`WalFault`] that
/// ends the walk. Once it returns `None`, [`WalWalker::logical_end`] is
/// the end of the log, [`WalWalker::last_tag`] what the next frame
/// chains behind, and [`WalWalker::torn_tail`] tells whether a torn
/// append follows it.
#[derive(Debug, Clone)]
pub struct WalWalker<'a> {
    image: &'a [u8],
    key: TagKey,
    pos: usize,
    epoch: u64,
    tag: u64,
    state: Walk,
}

impl<'a> WalWalker<'a> {
    /// Starts a walk behind the image header, verifying tags under `key`,
    /// the device key the image was written with.
    ///
    /// # Errors
    ///
    /// [`WalFault::BadMagic`] or [`WalFault::UnsupportedVersion`] when
    /// the header is not this format's.
    pub fn new(image: &'a [u8], key: [u64; 2]) -> Result<Self, WalFault> {
        if image.len() < HEADER_BYTES || &image[..8] != MAGIC {
            return Err(WalFault::BadMagic);
        }
        let version = u32::from_le_bytes([image[8], image[9], image[10], image[11]]);
        if version != VERSION {
            return Err(WalFault::UnsupportedVersion(version));
        }
        let key = TagKey::new(key);
        Ok(WalWalker {
            image,
            key,
            pos: HEADER_BYTES,
            epoch: 0,
            tag: key.seed(),
            state: Walk::Frames,
        })
    }

    /// The tag of the last frame yielded so far (the chain seed before
    /// the first): what the next frame appended to the log chains behind.
    pub fn last_tag(&self) -> u64 {
        self.tag
    }

    /// End of the last frame yielded so far (of the header before the
    /// first): once the walk is over, where the next frame is appended.
    pub fn logical_end(&self) -> usize {
        self.pos
    }

    /// Whether the walk ended at a torn append: an unmarked frame with
    /// only zeros behind it, to be dropped whole.
    pub fn torn_tail(&self) -> bool {
        self.state == Walk::TornTail
    }

    /// Classifies the bytes at `self.pos`, read as if zeros followed the
    /// image forever.
    fn step(&mut self) -> Result<Option<WalFrame>, WalFault> {
        let at = self.pos;
        let rest = &self.image[at..];
        if all_zero(rest) {
            self.state = Walk::CleanEnd;
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_BYTES];
        let have = rest.len().min(FRAME_HEADER_BYTES);
        header[..have].copy_from_slice(&rest[..have]);
        let [l0, l1, l2, l3, tag @ .., e0, e1, e2, e3, e4, e5, e6, e7] = header;
        let payload_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let epoch = u64::from_le_bytes([e0, e1, e2, e3, e4, e5, e6, e7]);
        // A marker offset past `usize` is past the image: an absent byte.
        let marker_at = FRAME_HEADER_BYTES.checked_add(payload_len);
        match marker_at.and_then(|m| rest.get(m)).copied().unwrap_or(0) {
            COMMIT_MARKER => {}
            0 => {
                let behind = marker_at.and_then(|m| rest.get(m..)).unwrap_or(&[]);
                return if all_zero(behind) {
                    self.state = Walk::TornTail;
                    Ok(None)
                } else if all_zero(&header) {
                    Err(WalFault::Trailing { at })
                } else {
                    Err(WalFault::Unmarked { at })
                };
            }
            _ => return Err(WalFault::Marker { at }),
        }
        let len = FRAME_HEADER_BYTES + payload_len + 1;
        let tag = u64::from_le_bytes(tag);
        if self
            .key
            .tag(self.tag, epoch, &rest[FRAME_HEADER_BYTES..len - 1])
            != tag
        {
            return Err(WalFault::Checksum { at });
        }
        if epoch <= self.epoch {
            return Err(WalFault::Epoch {
                at,
                epoch,
                after: self.epoch,
            });
        }
        self.epoch = epoch;
        self.tag = tag;
        self.pos = at + len;
        Ok(Some(WalFrame {
            start: at,
            len,
            epoch,
            tag,
        }))
    }
}

impl Iterator for WalWalker<'_> {
    type Item = Result<WalFrame, WalFault>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != Walk::Frames {
            return None;
        }
        let step = self.step();
        if step.is_err() {
            self.state = Walk::Faulted;
        }
        step.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u64; 2] = [7, 13];

    /// The tag in a frame's header.
    fn tag_of(frame: &[u8]) -> u64 {
        u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"))
    }

    /// A header and `frames`, chained under [`KEY`], then `slack` zeros.
    fn image(frames: &[(u64, &[u8])], slack: usize) -> Vec<u8> {
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&VERSION.to_le_bytes());
        let mut prev = TagKey::new(KEY).seed();
        for &(epoch, payload) in frames {
            let frame = encode_wal_frame(KEY, prev, epoch, payload);
            prev = tag_of(&frame);
            img.extend(frame);
        }
        img.resize(img.len() + slack, 0);
        img
    }

    fn walk(img: &[u8]) -> (Vec<Result<WalFrame, WalFault>>, usize, bool) {
        let mut w = WalWalker::new(img, KEY).expect("header");
        let items: Vec<_> = w.by_ref().collect();
        (items, w.logical_end(), w.torn_tail())
    }

    #[test]
    fn frames_then_slack_is_a_clean_end() {
        let img = image(&[(1, b"abc"), (2, b""), (5, b"defgh")], 100);
        let (items, end, torn) = walk(&img);
        let frames: Vec<WalFrame> = items.into_iter().map(|f| f.expect("frame")).collect();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].payload(&img), b"abc");
        assert_eq!(frames[1].len, FRAME_HEADER_BYTES + 1);
        assert_eq!(frames[2].epoch, 5);
        assert_eq!((end, torn), (img.len() - 100, false));
        assert_eq!(frames[2].end(), end);
        // No slack at all is the same clean end.
        let (items, end2, torn) = walk(&img[..end]);
        assert_eq!((items.len(), end2, torn), (3, end, false));
        // The walk ends on the last frame's tag; before any, on the seed.
        let mut w = WalWalker::new(&img, KEY).expect("header");
        assert_eq!(w.last_tag(), TagKey::new(KEY).seed());
        assert_eq!(w.by_ref().count(), 3);
        assert_eq!(w.last_tag(), frames[2].tag);
    }

    #[test]
    fn header_faults_are_typed() {
        assert_eq!(WalWalker::new(b"", KEY).unwrap_err(), WalFault::BadMagic);
        assert_eq!(
            WalWalker::new(b"NOTAWAL!....", KEY).unwrap_err(),
            WalFault::BadMagic
        );
        for old in [2u32, 3, 4] {
            let mut img = MAGIC.to_vec();
            img.extend_from_slice(&old.to_le_bytes());
            assert_eq!(
                WalWalker::new(&img, KEY).unwrap_err(),
                WalFault::UnsupportedVersion(old)
            );
        }
    }

    #[test]
    fn a_frame_verifies_only_under_its_key() {
        let img = image(&[(1, b"first"), (2, b"second")], 8);
        for other in [[0, 0], [7, 14], [13, 7]] {
            let mut w = WalWalker::new(&img, other).expect("header");
            assert_eq!(
                w.next(),
                Some(Err(WalFault::Checksum { at: HEADER_BYTES })),
                "key {other:?}"
            );
            assert!(w.next().is_none());
        }
        // The tag key words are neither the device key nor each other's.
        let TagKey([k0, k1]) = TagKey::new(KEY);
        assert!(![k0, k1].iter().any(|k| KEY.contains(k)) && k0 != k1);
    }

    #[test]
    fn every_cut_of_the_last_frame_is_a_torn_tail() {
        let img = image(&[(1, b"first"), (2, b"second payload")], 0);
        let first_end = HEADER_BYTES + FRAME_HEADER_BYTES + 5 + 1;
        for cut in first_end + 1..img.len() {
            for slack in [0usize, 1, 64] {
                let mut torn_img = img[..cut].to_vec();
                torn_img.resize(cut + slack, 0);
                let (items, end, torn) = walk(&torn_img);
                assert_eq!(items.len(), 1, "cut {cut} slack {slack}");
                assert!(items[0].is_ok());
                // A cut that leaves only zero header bytes is no frame at
                // all; any other cut is a torn one.
                let wrote_nonzero = !all_zero(&img[first_end..cut]);
                assert_eq!((end, torn), (first_end, wrote_nonzero), "cut {cut}");
            }
        }
    }

    #[test]
    fn anything_else_at_the_tail_is_a_fault() {
        let img = image(&[(1, b"first"), (2, b"second")], 32);
        let second = HEADER_BYTES + FRAME_HEADER_BYTES + 5 + 1;
        let log_end = img.len() - 32;
        let fault = |img: &[u8]| walk(img).0.pop().expect("an item").unwrap_err();

        // Flips inside the last committed frame: payload, tag, epoch.
        for off in [second + FRAME_HEADER_BYTES + 2, second + 5, second + 13] {
            let mut bad = img.clone();
            bad[off] ^= 0x10;
            assert_eq!(fault(&bad), WalFault::Checksum { at: second }, "off {off}");
        }
        // Its marker turned into another non-zero byte.
        let mut bad = img.clone();
        bad[log_end - 1] ^= 0x01;
        assert_eq!(fault(&bad), WalFault::Marker { at: second });
        // An unmarked frame with a committed one behind it.
        let mut bad = img.clone();
        bad[second - 1] = 0;
        assert_eq!(fault(&bad), WalFault::Unmarked { at: HEADER_BYTES });
        // A byte in the slack.
        let mut bad = img.clone();
        bad[log_end + 25] = 1;
        assert_eq!(fault(&bad), WalFault::Trailing { at: log_end });
        // Frames valid at another place in the chain: tagged behind the
        // first frame instead of the last, the first frame itself again,
        // and the last one again — each a new epoch or not.
        let first_tag = tag_of(&img[HEADER_BYTES..]);
        let spliced = [
            encode_wal_frame(KEY, first_tag, 3, b"third"),
            img[HEADER_BYTES..second].to_vec(),
            img[second..log_end].to_vec(),
        ];
        for frame in spliced {
            let mut bad = img[..log_end].to_vec();
            bad.extend(frame);
            assert_eq!(fault(&bad), WalFault::Checksum { at: log_end });
        }
        // A stale epoch behind a tag that verifies in its place: what only
        // a holder of the key can write.
        let mut bad = img[..log_end].to_vec();
        bad.extend(encode_wal_frame(KEY, tag_of(&img[second..]), 2, b"again"));
        assert_eq!(
            fault(&bad),
            WalFault::Epoch {
                at: log_end,
                epoch: 2,
                after: 2
            }
        );
        // The walk is over after a fault.
        let mut w = WalWalker::new(&bad, KEY).expect("header");
        assert_eq!(w.by_ref().count(), 3);
        assert!(w.next().is_none());
        assert!(!w.torn_tail());
    }
}
