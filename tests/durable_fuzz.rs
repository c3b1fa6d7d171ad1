//! Deterministic mutation fuzz over every durable-state parser.
//!
//! The at-rest adversary model says: *anything* on disk may be garbage
//! when the process comes back. Every parser of durable bytes — the WAL
//! image's home area and log replay, the quarantine table, and the
//! freshness-anchor probe —
//! must therefore terminate with `Ok` or a *typed* error on arbitrary
//! mutations, and never panic. The mutations here are driven by the
//! in-tree SplitMix64, so any failure reproduces bit-for-bit from the
//! seed printed in the assertion message.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use anubis_nvm::{
    anchor_path_for, home_path_for, AnchorPolicy, Block, BlockAddr, FileBackend, FreshnessAnchor,
    NvmBackend, NvmDevice, RemapTable, SplitMix64, WalWalker, BLOCK_BYTES,
};

const KEY: [u64; 2] = [7, 13];
const ROUNDS: u64 = 300;
/// Rounds the WAL tests add past [`ROUNDS`], each with the log intact and
/// the home area mutated.
const HOME_ROUNDS: u64 = 100;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "anubis-durable-fuzz-{}-{}",
        std::process::id(),
        name
    ))
}

fn cleanup(p: &Path) {
    for file in [p.to_path_buf(), home_path_for(p), anchor_path_for(p)] {
        let _ = fs::remove_file(file);
    }
}

/// One deterministic mutation: xor a byte, shear the tail, or splice
/// random bytes in at a random position.
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.next_u64() % 3 {
        0 if !out.is_empty() => {
            let i = rng.gen_range(0..out.len() as u64) as usize;
            out[i] ^= (1 + rng.next_u64() % 255) as u8;
        }
        1 if !out.is_empty() => {
            let keep = rng.gen_range(0..out.len() as u64) as usize;
            out.truncate(keep);
        }
        _ => {
            let at = if out.is_empty() {
                0
            } else {
                rng.gen_range(0..out.len() as u64 + 1) as usize
            };
            let n = 1 + rng.gen_range(0..40) as usize;
            let junk: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            out.splice(at..at, junk);
        }
    }
    out
}

/// A WAL image is a short log followed by far more zero slack, so a
/// uniformly placed mutation would almost never touch a frame. Aim two
/// in three at the log (header and frames; the slack then follows
/// whatever is left of it, as after a kill mid-append) and one in three
/// at the slack alone.
fn mutate_wal(image: &[u8], log_end: usize, rng: &mut SplitMix64) -> Vec<u8> {
    let (log, slack) = image.split_at(log_end);
    if rng.next_u64().is_multiple_of(3) {
        [log, &mutate(slack, rng)].concat()
    } else {
        [&mutate(log, rng), slack].concat()
    }
}

/// The one open: under [`KEY`] and the strict anchor.
fn open(p: &PathBuf) -> Result<FileBackend, anubis_nvm::NvmError> {
    FileBackend::open_with_anchor(p, KEY, AnchorPolicy::Strict)
}

/// A realistic image under [`KEY`]: stores, register writes and barriers
/// past a checkpoint, so its home area holds blocks, then twelve more
/// frames in the log.
struct Seeded {
    log: Vec<u8>,
    log_end: usize,
    home: Vec<u8>,
    epoch: u64,
}

impl Seeded {
    fn new(name: &str) -> Seeded {
        let p = tmp(name);
        cleanup(&p);
        let epoch;
        {
            let mut b = open(&p).expect("fresh WAL image opens");
            let mut i = 0u64;
            let mut barrier = |b: &mut FileBackend| {
                for k in 0..8 {
                    b.store((i * 7 + k * 3) % 512, Block::filled(i as u8 ^ k as u8));
                }
                b.store_reg(0, Block::filled(0xA0 | i as u8));
                b.barrier().expect("barrier on fresh image");
                i += 1;
            };
            while !home_path_for(&p).exists() {
                barrier(&mut b);
            }
            for _ in 0..12 {
                barrier(&mut b);
            }
            epoch = b.epoch();
        }
        let log = fs::read(&p).expect("read seeded WAL");
        let home = fs::read(home_path_for(&p)).expect("read seeded home area");
        cleanup(&p);
        let mut walk = WalWalker::new(&log, KEY).expect("seeded WAL header");
        assert_eq!(walk.by_ref().filter(Result::is_ok).count(), 13);
        let log_end = walk.logical_end();
        assert!(log_end < log.len(), "the seeded image must carry slack");
        assert!(home.iter().any(|&x| x != 0), "and a home area with blocks");
        Seeded {
            log,
            log_end,
            home,
            epoch,
        }
    }

    /// Writes the seeded image at `p` with one mutation: in the first
    /// [`ROUNDS`] rounds to the log ([`mutate_wal`]), in the
    /// [`HOME_ROUNDS`] after them to the home area.
    fn mutated(&self, p: &PathBuf, round: u64, rng: &mut SplitMix64) {
        let (log, home) = if round < ROUNDS {
            (mutate_wal(&self.log, self.log_end, rng), self.home.clone())
        } else {
            (self.log.clone(), mutate(&self.home, rng))
        };
        fs::write(p, &log).expect("write mutated log");
        fs::write(home_path_for(p), &home).expect("write mutated home area");
    }
}

/// The parser alone: every round's image opens with no anchor beside
/// it, so the reads, the walk and the replay are all that run before the
/// verdict (a strict open never creates an anchor for an image with
/// history).
#[test]
fn wal_parser_never_panics_on_mutated_images() {
    let seeded = Seeded::new("wal");
    let p = tmp("wal-mut");
    let mut rng = SplitMix64::new(0xF022_DEAD_BEEF_0001);
    for round in 0..ROUNDS + HOME_ROUNDS {
        cleanup(&p);
        seeded.mutated(&p, round, &mut rng);
        let result = panic::catch_unwind(AssertUnwindSafe(|| match open(&p) {
            Ok(b) => {
                // An accepted image must be internally consistent enough
                // to serve loads without panicking either.
                let _ = b.load(7);
                let _ = b.entries().len();
                true
            }
            Err(e) => {
                assert!(!e.to_string().is_empty());
                false
            }
        }));
        assert!(result.is_ok(), "WAL open panicked at fuzz round {round}");
    }
    cleanup(&p);
}

#[test]
fn anchored_wal_open_never_panics_on_mutated_images() {
    let seeded = Seeded::new("walanc");
    let p = tmp("walanc-mut");
    cleanup(&p);
    // Give the mutated image a live anchor so the freshness check runs.
    let reseal = || {
        let _ = fs::remove_file(anchor_path_for(&p));
        FreshnessAnchor::create(anchor_path_for(&p), KEY, seeded.epoch).expect("seed anchor");
    };
    reseal();
    let mut rng = SplitMix64::new(0xF022_DEAD_BEEF_0002);
    for round in 0..ROUNDS + HOME_ROUNDS {
        seeded.mutated(&p, round, &mut rng);
        let result = panic::catch_unwind(AssertUnwindSafe(|| match open(&p) {
            Ok(b) => {
                let _ = b.freshness();
                let _ = b.epoch();
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        }));
        assert!(
            result.is_ok(),
            "anchored WAL open panicked at round {round}"
        );
        // The anchor may have been healed forward by an accepted image;
        // reseal a known value so later rounds still exercise the check.
        if FreshnessAnchor::probe(&anchor_path_for(&p), KEY) != Ok(Some(seeded.epoch)) {
            reseal();
        }
    }
    cleanup(&p);
}

/// The remap table is the durable parser every reopen reaches: the
/// controllers reload it from the image's qtable region without any
/// other check. An accepted table must also survive what recovery does
/// with it next — quarantine a block, count a lost line, persist again.
#[test]
fn quarantine_table_parser_never_panics_on_mutated_images() {
    let spares = || (1_000..1_008).map(BlockAddr::new).collect::<Vec<_>>();
    let mut table = RemapTable::new();
    table.install_spares(spares());
    for addr in [3u64, 17, 40, 41, 99] {
        table.quarantine(BlockAddr::new(addr));
    }
    table.record_lost(2);
    let seed_bytes: Vec<u8> = table
        .to_blocks()
        .iter()
        .flat_map(|b| *b.as_bytes())
        .collect();
    let mut rng = SplitMix64::new(0xF022_DEAD_BEEF_0003);
    for round in 0..ROUNDS {
        let mut mutated = mutate(&seed_bytes, &mut rng);
        mutated.resize(mutated.len().div_ceil(BLOCK_BYTES) * BLOCK_BYTES, 0);
        let blocks: Vec<Block> = mutated
            .chunks(BLOCK_BYTES)
            .map(|c| Block::from_bytes(c.try_into().expect("one block")))
            .collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut device = NvmDevice::new(1 << 20);
            device.install_spare_pool(spares());
            match device.load_quarantine_table(&blocks) {
                Ok(()) => {
                    let _ = device.quarantine_block(BlockAddr::new(7));
                    device.record_lost_lines(1);
                    let _ = device.quarantine_table_blocks();
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }));
        assert!(
            result.is_ok(),
            "quarantine table parse panicked at round {round}"
        );
    }
}

#[test]
fn anchor_probe_never_panics_on_mutated_files() {
    let p = tmp("anchor-mut");
    let seed_path = tmp("anchor-seed");
    cleanup(&seed_path);
    FreshnessAnchor::create(seed_path.clone(), KEY, 41).expect("seed anchor");
    let seed_bytes = fs::read(&seed_path).expect("read seeded anchor");
    cleanup(&seed_path);
    let mut rng = SplitMix64::new(0xF022_DEAD_BEEF_0004);
    for round in 0..ROUNDS {
        let mutated = mutate(&seed_bytes, &mut rng);
        fs::write(&p, &mutated).expect("write mutated anchor");
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| match FreshnessAnchor::probe(&p, KEY) {
                Ok(_) => {}
                Err(e) => assert!(!e.to_string().is_empty()),
            }));
        assert!(result.is_ok(), "anchor probe panicked at round {round}");
    }
    let _ = fs::remove_file(&p);
}
