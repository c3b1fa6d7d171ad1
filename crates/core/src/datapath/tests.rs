//! Unit tests for the shared data path: the commit group and the
//! staged-seal mechanics, without a controller on top.

use super::*;
use crate::AnubisConfig;
use anubis_nvm::{MemBackend, NvmError};

const KEY: Key = Key([7, 13]);

fn path() -> DataPath<MemBackend> {
    let layout = Layout::sgx(&AnubisConfig::small_test(), 8);
    DataPath::new(layout, KEY, MemBackend::new())
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

    // A data line staged in the open group reads back sealed.
    let iv = IvCounter::split(1, 1);
    let line = p.line(DataAddr::new(2), Some(iv));
    p.stage_sealed(DataAddr::new(2), iv, Block::filled(0x42));
    let want = DataCodec::new(KEY).seal(line.dev, iv, &Block::filled(0x42));
    assert_eq!(p.nvm_read(line.dev).expect("read"), want.ciphertext);
    assert_eq!(p.nvm_read_free(line.side).expect("read"), side_block(&want));
}

#[test]
fn a_group_of_staged_seals_equals_scalar_seals() {
    let mut p = path();
    let lines: Vec<(DataAddr, Line, IvCounter, Block)> = (0..5u64)
        .map(|i| {
            let iv = IvCounter::split(1, i + 1);
            let addr = DataAddr::new(i);
            (
                addr,
                p.line(addr, Some(iv)),
                iv,
                Block::filled(0x40 + i as u8),
            )
        })
        .collect();
    for (addr, _, iv, data) in &lines {
        // An unrelated op between seals must not disturb them.
        p.stage(BlockAddr::new(200), Block::filled(0xEE));
        p.stage_sealed(*addr, *iv, *data);
    }
    assert_eq!(p.cost.hash_ops, 10, "pad + MAC per seal");
    assert_eq!(p.cost.nvm_writes, 10, "side blocks are free");
    p.commit(&[]).expect("commit");
    assert!(p.pending.is_empty());
    let scalar = DataCodec::new(KEY);
    for (_, line, iv, data) in &lines {
        let want = scalar.seal(line.dev, *iv, data);
        assert_eq!(p.domain.read(line.dev).expect("read"), want.ciphertext);
        assert_eq!(p.domain.read(line.side).expect("read"), side_block(&want));
    }
    for (_, line, _, data) in &lines {
        assert_eq!(p.open_line(*line).expect("verifies"), *data);
    }
}

#[test]
fn reset_and_failed_commit_both_leave_no_group_behind() {
    let iv = IvCounter::monolithic(1);
    let mut p = path();
    p.stage_sealed(DataAddr::new(0), iv, Block::filled(1));
    p.stage(BlockAddr::new(5), Block::filled(2));
    assert!(!p.pending.is_empty());
    p.reset_group();
    assert!(p.pending.is_empty());

    p.stage_sealed(DataAddr::new(0), iv, Block::filled(1));
    p.domain.power_fail();
    assert!(matches!(
        p.commit(&[]),
        Err(MemError::Nvm(NvmError::PoweredOff))
    ));
    assert!(p.pending.is_empty());
    // The next group starts empty.
    p.domain.power_up();
    p.stage_sealed(DataAddr::new(1), iv, Block::filled(3));
    p.commit(&[]).expect("commit");
    let dev = p.layout.data_addr(DataAddr::new(0));
    assert!(p.domain.read(dev).expect("read").is_zeroed());
}

#[test]
fn a_retired_line_counts_as_lost_when_its_media_is_not_zero() {
    // A counter that reads as never written leaves the line no IV, but
    // whatever sits in its data or side block is content the retirement
    // throws away.
    let cases = [
        (Block::filled(0x5A), Block::zeroed(), true),
        (Block::zeroed(), Block::filled(0x01), true),
        (Block::zeroed(), Block::zeroed(), false),
    ];
    for (i, (data, side, lost)) in cases.into_iter().enumerate() {
        let mut p = path();
        let line = p.line(DataAddr::new(5), None);
        p.domain.device_mut().poke(line.dev, data);
        p.domain.device_mut().poke(line.side, side);
        assert_eq!(p.quarantine_line(line, true), lost, "case {i}");
        let device = p.domain.device();
        assert!(device.is_quarantined(line.dev), "case {i}");
        assert_eq!(
            device.quarantine_table().lost_lines(),
            u64::from(lost),
            "case {i}"
        );
        assert!(device.read(line.dev).is_zeroed(), "case {i}");
        assert!(device.read(line.side).is_zeroed(), "case {i}");
    }
}
