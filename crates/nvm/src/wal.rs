//! The on-disk format of a [`FileBackend`](crate::FileBackend) image and
//! the one walker that reads it.
//!
//! ```text
//! header:  "ANUBWAL1" (8 bytes) | version u32 LE (= 3)
//! frame*:  payload_len u32 LE | fnv1a64(epoch ‖ payload) u64 LE | epoch u64 LE
//!          | payload | commit marker 0xC3
//! slack:   zero bytes up to the end of the file
//! record*: tag 0 (block write): phys u64 LE | 64 contents bytes
//!          tag 1 (register):    idx u8     | 64 contents bytes
//! ```
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
//!   whose checksum or epoch order fails, a marker byte that is neither
//!   zero nor the commit marker, an unmarked frame with something
//!   non-zero behind it, non-zero bytes after the end of the log.
//!
//! That rule needs every byte at and after the append position to be
//! zero whenever no append is in progress, which is the invariant
//! [`FileBackend`](crate::FileBackend) keeps.

use crate::backend::{fnv1a64, fnv1a64_seeded};

pub(crate) const MAGIC: &[u8; 8] = b"ANUBWAL1";
pub(crate) const VERSION: u32 = 3;
pub(crate) const HEADER_BYTES: usize = 12;
pub(crate) const FRAME_HEADER_BYTES: usize = 20;

/// Closes every frame. Two or more set bits, so no single bit flip
/// turns a committed frame into an unmarked one.
const COMMIT_MARKER: u8 = 0xC3;

/// The checksum of one WAL frame: an FNV-1a stream over the frame epoch
/// followed by the payload, so neither can be altered independently.
fn frame_crc(epoch: u64, payload: &[u8]) -> u64 {
    fnv1a64_seeded(fnv1a64(&epoch.to_le_bytes()), payload)
}

/// Completes `frame` — [`FRAME_HEADER_BYTES`] of reservation followed by
/// the payload — in place: fills the header for `epoch` and pushes the
/// commit marker. Building the frame in place keeps an op-sized payload
/// from being copied a second time on every barrier.
pub(crate) fn seal_frame(frame: &mut Vec<u8>, epoch: u64) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..12].copy_from_slice(&frame_crc(epoch, payload).to_le_bytes());
    header[12..].copy_from_slice(&epoch.to_le_bytes());
    frame.push(COMMIT_MARKER);
}

/// The bytes of one committed frame carrying `payload` at `epoch`. The
/// checksum is keyless, so anyone who knows the format can forge a frame
/// — which is why the anchor, not the checksum, carries the freshness
/// authority. Exported for the at-rest adversary and the format tests.
pub fn encode_wal_frame(epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + 1);
    frame.resize(FRAME_HEADER_BYTES, 0);
    frame.extend_from_slice(payload);
    seal_frame(&mut frame, epoch);
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
    /// A committed frame's checksum does not cover its epoch and payload.
    Checksum {
        /// Byte offset of the frame header.
        at: usize,
    },
    /// A committed frame's epoch does not exceed its predecessor's: a
    /// reordered, duplicated or spliced frame, checksum-intact or not.
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
                write!(f, "corrupt WAL frame at byte {at} (checksum mismatch)")
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

fn all_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// Walks the committed frames of a WAL image in log order — the iterator
/// [`FileBackend`](crate::FileBackend) itself opens images with, so a
/// tool that locates frames through it cannot disagree with replay.
///
/// Yields each frame that is committed, checksum-valid and in epoch
/// order, or the [`WalFault`] that ends the walk. Once it returns `None`,
/// [`WalWalker::logical_end`] is the end of the log and
/// [`WalWalker::torn_tail`] tells whether a torn append follows it.
#[derive(Debug, Clone)]
pub struct WalWalker<'a> {
    image: &'a [u8],
    pos: usize,
    epoch: u64,
    state: Walk,
}

impl<'a> WalWalker<'a> {
    /// Starts a walk behind the image header.
    ///
    /// # Errors
    ///
    /// [`WalFault::BadMagic`] or [`WalFault::UnsupportedVersion`] when
    /// the header is not this format's.
    pub fn new(image: &'a [u8]) -> Result<Self, WalFault> {
        if image.len() < HEADER_BYTES || &image[..8] != MAGIC {
            return Err(WalFault::BadMagic);
        }
        let version = u32::from_le_bytes([image[8], image[9], image[10], image[11]]);
        if version != VERSION {
            return Err(WalFault::UnsupportedVersion(version));
        }
        Ok(WalWalker {
            image,
            pos: HEADER_BYTES,
            epoch: 0,
            state: Walk::Frames,
        })
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
        let [l0, l1, l2, l3, crc @ .., e0, e1, e2, e3, e4, e5, e6, e7] = header;
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
        if frame_crc(epoch, &rest[FRAME_HEADER_BYTES..len - 1]) != u64::from_le_bytes(crc) {
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
        self.pos = at + len;
        Ok(Some(WalFrame {
            start: at,
            len,
            epoch,
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

    fn image(frames: &[(u64, &[u8])], slack: usize) -> Vec<u8> {
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&VERSION.to_le_bytes());
        for &(epoch, payload) in frames {
            img.extend(encode_wal_frame(epoch, payload));
        }
        img.resize(img.len() + slack, 0);
        img
    }

    fn walk(img: &[u8]) -> (Vec<Result<WalFrame, WalFault>>, usize, bool) {
        let mut w = WalWalker::new(img).expect("header");
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
    }

    #[test]
    fn header_faults_are_typed() {
        assert_eq!(WalWalker::new(b"").unwrap_err(), WalFault::BadMagic);
        assert_eq!(
            WalWalker::new(b"NOTAWAL!....").unwrap_err(),
            WalFault::BadMagic
        );
        let mut v2 = MAGIC.to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            WalWalker::new(&v2).unwrap_err(),
            WalFault::UnsupportedVersion(2)
        );
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

        // Flips inside the last committed frame: payload, checksum, epoch.
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
        // A stale epoch behind a valid checksum.
        let mut bad = img[..log_end].to_vec();
        bad.extend(encode_wal_frame(2, b"again"));
        assert_eq!(
            fault(&bad),
            WalFault::Epoch {
                at: log_end,
                epoch: 2,
                after: 2
            }
        );
        // The walk is over after a fault.
        let mut w = WalWalker::new(&bad).expect("header");
        assert_eq!(w.by_ref().count(), 3);
        assert!(w.next().is_none());
        assert!(!w.torn_tail());
    }
}
