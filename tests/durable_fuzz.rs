//! Deterministic mutation fuzz over every durable-state parser.
//!
//! The at-rest adversary model says: *anything* on disk may be garbage
//! when the process comes back. Every parser of durable bytes — the WAL
//! image replay, the quarantine table, and the freshness-anchor probe —
//! must therefore terminate with `Ok` or a *typed* error on arbitrary
//! mutations, and never panic. The mutations here are driven by the
//! in-tree SplitMix64, so any failure reproduces bit-for-bit from the
//! seed printed in the assertion message.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use anubis_nvm::{
    anchor_path_for, AnchorPolicy, Block, BlockAddr, FileBackend, FreshnessAnchor, NvmBackend,
    NvmDevice, RemapTable, SplitMix64, WalWalker, BLOCK_BYTES,
};

const KEY: [u64; 2] = [7, 13];
const ROUNDS: u64 = 300;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "anubis-durable-fuzz-{}-{}",
        std::process::id(),
        name
    ))
}

fn cleanup(p: &PathBuf) {
    let _ = fs::remove_file(p);
    let _ = fs::remove_file(anchor_path_for(p));
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

/// Builds a realistic WAL image — a few epochs of stores, register
/// writes, and barriers, under [`KEY`] — and returns it with the logical
/// end of its log.
fn seed_wal_bytes(name: &str) -> (Vec<u8>, usize) {
    let p = tmp(name);
    cleanup(&p);
    {
        let mut b = open(&p).expect("fresh WAL image opens");
        for i in 0..12u64 {
            b.store(i * 7, Block::filled(i as u8));
            b.store_reg(0, Block::filled(0xA0 | i as u8));
            b.barrier().expect("barrier on fresh image");
        }
    }
    let bytes = fs::read(&p).expect("read seeded WAL");
    cleanup(&p);
    let mut walk = WalWalker::new(&bytes, KEY).expect("seeded WAL header");
    assert_eq!(walk.by_ref().filter(Result::is_ok).count(), 12);
    let log_end = walk.logical_end();
    assert!(log_end < bytes.len(), "the seeded image must carry slack");
    (bytes, log_end)
}

/// The parser alone: every round's image opens with no anchor beside
/// it, so the walk and the replay are all that run before the verdict
/// (a strict open never creates an anchor for an image with history).
#[test]
fn wal_parser_never_panics_on_mutated_images() {
    let (seed_bytes, log_end) = seed_wal_bytes("wal");
    let p = tmp("wal-mut");
    let mut rng = SplitMix64::new(0xF022_DEAD_BEEF_0001);
    for round in 0..ROUNDS {
        let mutated = mutate_wal(&seed_bytes, log_end, &mut rng);
        cleanup(&p);
        fs::write(&p, &mutated).expect("write mutated image");
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
        assert!(
            result.is_ok(),
            "WAL open panicked at fuzz round {round} ({} mutated bytes)",
            mutated.len()
        );
    }
    cleanup(&p);
}

#[test]
fn anchored_wal_open_never_panics_on_mutated_images() {
    let (seed_bytes, log_end) = seed_wal_bytes("walanc");
    let p = tmp("walanc-mut");
    cleanup(&p);
    // Give the mutated image a live anchor so the freshness check runs.
    FreshnessAnchor::create(anchor_path_for(&p), KEY, 3).expect("seed anchor");
    let mut rng = SplitMix64::new(0xF022_DEAD_BEEF_0002);
    for round in 0..ROUNDS {
        let mutated = mutate_wal(&seed_bytes, log_end, &mut rng);
        fs::write(&p, &mutated).expect("write mutated image");
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
        if FreshnessAnchor::probe(&anchor_path_for(&p), KEY) != Ok(Some(3)) {
            let _ = fs::remove_file(anchor_path_for(&p));
            FreshnessAnchor::create(anchor_path_for(&p), KEY, 3).expect("reseal anchor");
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
