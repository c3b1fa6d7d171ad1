//! Unit tests for the shared data path: the group-buffer invariant and
//! the staged-seal mechanics, without a controller on top.

use super::*;
use anubis_nvm::{MemBackend, NvmError, RegionAllocator};

const KEY: Key = Key([7, 13]);

fn path() -> DataPath<MemBackend> {
    let mut alloc = RegionAllocator::new();
    let data = alloc.alloc("data", 256);
    let qtable = alloc.alloc("qtable", 4);
    DataPath::new(
        PersistenceDomain::new(alloc.total_blocks() * 64),
        KEY,
        data,
        qtable,
    )
}

fn group_is_empty(p: &DataPath<MemBackend>) -> bool {
    p.pending.is_empty() && p.seal_jobs.is_empty() && p.seal_slots.is_empty()
}

#[test]
fn store_to_load_forwarding_returns_the_latest_staged_image() {
    let mut p = path();
    let a = BlockAddr::new(3);
    p.domain
        .commit_group([WriteOp::new(a, Block::filled(1))])
        .expect("powered");
    assert_eq!(p.nvm_read(a).expect("read"), Block::filled(1));
    p.stage(a, Block::filled(2));
    p.stage(BlockAddr::new(4), Block::filled(9));
    p.stage(a, Block::filled(3));
    assert_eq!(p.nvm_read(a).expect("read"), Block::filled(3));
    assert_eq!(p.cost.nvm_reads, 2);
    assert_eq!(p.nvm_read_free(a).expect("read"), Block::filled(3));
    assert_eq!(p.cost.nvm_reads, 2, "side-block transfers are free");
    p.commit(&[]).expect("commit");
    assert_eq!(p.nvm_read(a).expect("read"), Block::filled(3));
}

#[test]
fn a_group_of_deferred_seals_equals_scalar_seals_and_primes_the_mac_cache() {
    let mut p = path();
    let lines: Vec<(Line, IvCounter, Block)> = (0..5u64)
        .map(|i| {
            let iv = IvCounter::split(1, i + 1);
            let line = Line {
                dev: BlockAddr::new(i),
                side: BlockAddr::new(100 + i),
                iv: Some(iv),
            };
            (line, iv, Block::filled(0x40 + i as u8))
        })
        .collect();
    for (line, iv, data) in &lines {
        // An unrelated op between seals must not disturb the slots.
        p.stage(BlockAddr::new(200), Block::filled(0xEE));
        p.stage_sealed(line.dev, line.side, *iv, *data);
    }
    assert_eq!(p.cost.hash_ops, 10, "pad + MAC per seal");
    assert_eq!(p.cost.nvm_writes, 10, "side blocks are free");
    p.commit(&[]).expect("commit");
    assert!(group_is_empty(&p));
    let scalar = DataCodec::new(KEY);
    for (line, iv, data) in &lines {
        let want = scalar.seal(line.dev, *iv, data);
        assert_eq!(p.domain.read(line.dev).expect("read"), want.ciphertext);
        assert_eq!(p.domain.read(line.side).expect("read"), side_block(&want));
    }
    for (line, _, data) in &lines {
        assert_eq!(p.open_line(*line).expect("verifies"), *data);
    }
    assert_eq!(
        (p.mac_cache.hits(), p.mac_cache.misses()),
        (5, 0),
        "a freshly sealed line skips the MAC recomputation"
    );
}

#[test]
fn reset_and_failed_commit_both_leave_no_group_behind() {
    let iv = IvCounter::monolithic(1);
    let mut p = path();
    p.stage_sealed(BlockAddr::new(0), BlockAddr::new(100), iv, Block::filled(1));
    p.stage(BlockAddr::new(5), Block::filled(2));
    assert!(!group_is_empty(&p));
    p.reset_group();
    assert!(group_is_empty(&p));

    p.stage_sealed(BlockAddr::new(0), BlockAddr::new(100), iv, Block::filled(1));
    p.domain.power_fail();
    assert!(matches!(
        p.commit(&[]),
        Err(MemError::Nvm(NvmError::PoweredOff))
    ));
    assert!(group_is_empty(&p));
    // The next group starts from clean indices.
    p.domain.power_up();
    p.stage_sealed(BlockAddr::new(1), BlockAddr::new(101), iv, Block::filled(3));
    p.commit(&[]).expect("commit");
    assert!(p.domain.read(BlockAddr::new(0)).expect("read").is_zeroed());
}
