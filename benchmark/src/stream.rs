//! Seeded inputs and the ledger every read is checked against.
//!
//! The program under test only ever sees generated addresses and
//! payloads; the seed stays here. A payload encodes its own address and
//! a per-line version, so a read can be checked without remembering the
//! bytes: decode the version, check it is one the line may hold right
//! now, and compare all 64 bytes against what that version must be. A
//! stale, torn, misdirected or corrupted line fails one of the three.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use anubis_nvm::{Block, SplitMix64};
use anubis_workloads::Zipf;

/// Data lines in one served tenant (`AnubisConfig::small_test()`:
/// 1 MiB of 64-byte lines). The 4 KiB counter cache reaches 64 counter
/// blocks × 64 lines = 256 KiB, a quarter of this.
pub const TENANT_LINES: u64 = 16_384;

/// Zipf exponent of every served address stream.
pub const ZIPF_ALPHA: f64 = 0.9;

/// The 64 bytes version `version` of line `addr` holds. Version 0 is
/// the never-written line, which reads as zeros.
pub fn payload(addr: u64, version: u32) -> [u8; 64] {
    let mut out = [0u8; 64];
    if version == 0 {
        return out;
    }
    let v = u64::from(version);
    let mut x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        let word = match i {
            0 => addr,
            1 => v,
            _ => {
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i as u64);
                x
            }
        };
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The bytes of a line as the controllers take them.
pub fn block_of(bytes: &[u8; 64]) -> Block {
    let mut b = Block::filled(0);
    b.as_bytes_mut().copy_from_slice(bytes);
    b
}

/// Whether `data` is exactly some version in `lo..=hi` of line `addr`.
pub fn holds_version_in(addr: u64, data: &[u8; 64], lo: u32, hi: u32) -> bool {
    let claimed = if data.iter().all(|b| *b == 0) {
        0
    } else {
        let v = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        match u32::try_from(v) {
            Ok(v) if v > 0 => v,
            _ => return false,
        }
    };
    (lo..=hi).contains(&claimed) && payload(addr, claimed) == *data
}

/// Versions of a dense line space shared by concurrent connections.
///
/// A writer bumps `issued` before it sends and `acked` once the server
/// acknowledged. A reader notes `acked` before it sends (the floor: an
/// acknowledged write may never be lost) and `issued` after the reply
/// (the ceiling: nothing newer exists). Any version in between is a
/// legal answer while a write is in flight.
pub struct Ledger {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Ledger {
    pub fn new(lines: u64) -> Ledger {
        let mk = || (0..lines).map(|_| AtomicU32::new(0)).collect();
        Ledger {
            issued: mk(),
            acked: mk(),
        }
    }

    /// The payload to send for the next write of `addr`.
    pub fn begin_write(&self, addr: u64) -> (u32, [u8; 64]) {
        let v = self.issued[addr as usize].fetch_add(1, Ordering::SeqCst) + 1;
        (v, payload(addr, v))
    }

    /// Records the server's acknowledgement of version `v`.
    pub fn ack_write(&self, addr: u64, v: u32) {
        self.acked[addr as usize].fetch_max(v, Ordering::SeqCst);
    }

    /// The oldest version a read issued now may return.
    pub fn floor(&self, addr: u64) -> u32 {
        self.acked[addr as usize].load(Ordering::SeqCst)
    }

    /// Checks a reply against the floor noted before the read was sent.
    pub fn check_read(&self, addr: u64, floor: u32, data: &[u8; 64]) -> bool {
        let ceiling = self.issued[addr as usize].load(Ordering::SeqCst);
        holds_version_in(addr, data, floor, ceiling)
    }

    /// Lines with at least one acknowledged write, ascending.
    pub fn acked_lines(&self) -> Vec<u64> {
        (0..self.acked.len() as u64)
            .filter(|a| self.floor(*a) > 0)
            .collect()
    }
}

/// Versions of a sparse line space driven by one thread (the 16 GiB
/// paper configuration of `replay_spec`).
#[derive(Default)]
pub struct SparseLedger {
    versions: HashMap<u64, u32>,
}

impl SparseLedger {
    pub fn next_write(&mut self, addr: u64) -> [u8; 64] {
        let v = self.versions.entry(addr).or_insert(0);
        *v += 1;
        payload(addr, *v)
    }

    /// The version `addr` holds now (0: never written).
    pub fn version(&self, addr: u64) -> u32 {
        self.versions.get(&addr).copied().unwrap_or(0)
    }

    pub fn check_read(&self, addr: u64, data: &[u8; 64]) -> bool {
        let v = self.version(addr);
        holds_version_in(addr, data, v, v)
    }
}

/// Zipf-ranked draws over the first `lines` lines of a tenant. Ranks
/// are scattered over the address space by an odd multiplier (a
/// bijection when `lines` is a power of two, as it is outside
/// `--check`), so the hot lines do not share counter blocks by
/// construction.
pub struct AddrLaw {
    zipf: Zipf,
    mul: u64,
    off: u64,
    lines: u64,
}

impl AddrLaw {
    pub fn new(seed: u64, lines: u64) -> AddrLaw {
        let mut rng = SplitMix64::new(seed ^ 0xADD7_1A77);
        AddrLaw {
            zipf: Zipf::new(lines, ZIPF_ALPHA),
            mul: rng.next_u64() | 1,
            off: rng.next_u64(),
            lines,
        }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> u64 {
        let rank = self.zipf.sample(rng);
        rank.wrapping_mul(self.mul).wrapping_add(self.off) % self.lines
    }
}

/// The RNG of one lane (connection or thread) of a run.
pub fn lane_rng(seed: u64, lane: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (lane + 1).wrapping_mul(0x9E37_79B9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_read_is_a_failure() {
        let ledger = Ledger::new(64);
        let (v, bytes) = ledger.begin_write(5);
        ledger.ack_write(5, v);
        let floor = ledger.floor(5);
        assert!(ledger.check_read(5, floor, &bytes));
        // One flipped bit anywhere in the line.
        for bit in [0usize, 70, 200, 511] {
            let mut bad = bytes;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(!ledger.check_read(5, floor, &bad), "bit {bit} accepted");
        }
        // The right bytes of another line.
        assert!(!ledger.check_read(6, 0, &bytes));
        // A lost acknowledged write: the line reads as never written.
        assert!(!ledger.check_read(5, floor, &[0u8; 64]));
    }

    #[test]
    fn in_flight_writes_allow_old_or_new_but_nothing_else() {
        let ledger = Ledger::new(8);
        let (v1, b1) = ledger.begin_write(3);
        ledger.ack_write(3, v1);
        let floor = ledger.floor(3);
        let (_v2, b2) = ledger.begin_write(3); // sent, not yet acknowledged
        assert!(ledger.check_read(3, floor, &b1));
        assert!(ledger.check_read(3, floor, &b2));
        assert!(!ledger.check_read(3, floor, &payload(3, 3)));
        assert!(!ledger.check_read(3, floor, &[0u8; 64]));
    }

    #[test]
    fn sparse_ledger_tracks_last_write_only() {
        let mut l = SparseLedger::default();
        assert!(l.check_read(1 << 27, &[0u8; 64]));
        let first = l.next_write(1 << 27);
        let second = l.next_write(1 << 27);
        assert!(l.check_read(1 << 27, &second));
        assert!(!l.check_read(1 << 27, &first), "stale version accepted");
    }

    #[test]
    fn the_seed_reaches_the_addresses() {
        let draws = |seed| {
            let law = AddrLaw::new(seed, TENANT_LINES);
            let mut rng = lane_rng(seed, 0);
            (0..64).map(|_| law.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(1907), draws(1907));
        assert_ne!(draws(1907), draws(7));
        assert!(draws(7).iter().all(|a| *a < TENANT_LINES));
    }
}
