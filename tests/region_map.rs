//! Pins where each controller family puts every NVM region: name, first
//! block and length, and the device size the layout asks for, at the
//! three configurations the repository runs (`small_test`, `paper` and
//! the one-line `with_capacity(64)` clamp). A change to how either
//! family lays out its memory — region order, a region's length, the
//! leaf fan-out, the on-chip top node — moves a number here; a change
//! that only moves code does not.

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};

/// `(name, first block, length)` of every region, in address order.
type Map = Vec<(&'static str, u64, u64)>;

fn bonsai(cfg: &AnubisConfig) -> (Map, u64) {
    let c = BonsaiController::new(BonsaiScheme::AgitPlus, cfg);
    let layout = c.layout();
    let map = (layout.regions().regions().iter())
        .map(|r| (r.name(), r.base().index(), r.len()))
        .collect();
    (map, layout.device_bytes())
}

fn sgx(cfg: &AnubisConfig) -> (Map, u64) {
    let c = SgxController::new(SgxScheme::Asit, cfg);
    let layout = c.layout();
    let map = (layout.regions().regions().iter())
        .map(|r| (r.name(), r.base().index(), r.len()))
        .collect();
    (map, layout.device_bytes())
}

#[test]
fn small_test_region_maps_are_pinned() {
    let cfg = AnubisConfig::small_test();
    assert_eq!(
        bonsai(&cfg),
        (
            vec![
                ("data", 0, 16384),
                ("side", 16384, 16384),
                ("counters", 32768, 256),
                ("tree", 33024, 37),
                ("sct", 33061, 64),
                ("smt", 33125, 64),
                ("spare", 33189, 64),
                ("qtable", 33253, 33),
            ],
            2_130_304
        )
    );
    assert_eq!(
        sgx(&cfg),
        (
            vec![
                ("data", 0, 16384),
                ("side", 16384, 16384),
                ("leaves", 32768, 2048),
                ("tree", 34816, 292),
                ("st", 35108, 128),
                ("spare", 35236, 64),
                ("qtable", 35300, 33),
            ],
            2_261_312
        )
    );
}

#[test]
fn paper_region_maps_are_pinned() {
    let cfg = AnubisConfig::paper();
    assert_eq!(
        bonsai(&cfg),
        (
            vec![
                ("data", 0, 268_435_456),
                ("side", 268_435_456, 268_435_456),
                ("counters", 536_870_912, 4_194_304),
                ("tree", 541_065_216, 599_187),
                ("sct", 541_664_403, 4096),
                ("smt", 541_668_499, 4096),
                ("spare", 541_672_595, 64),
                ("qtable", 541_672_659, 33),
            ],
            34_667_052_288
        )
    );
    assert_eq!(
        sgx(&cfg),
        (
            vec![
                ("data", 0, 268_435_456),
                ("side", 268_435_456, 268_435_456),
                ("leaves", 536_870_912, 33_554_432),
                ("tree", 570_425_344, 4_793_490),
                ("st", 575_218_834, 8192),
                ("spare", 575_227_026, 64),
                ("qtable", 575_227_090, 33),
            ],
            36_814_535_872
        )
    );
}

/// One line of capacity: each family clamps its data region up to one
/// whole leaf (64 lines under a counter block, 8 under an SGX leaf).
#[test]
fn one_line_region_maps_are_pinned() {
    let cfg = AnubisConfig::small_test().with_capacity(64);
    assert_eq!(
        bonsai(&cfg),
        (
            vec![
                ("data", 0, 64),
                ("side", 64, 64),
                ("counters", 128, 1),
                ("tree", 129, 1),
                ("sct", 130, 64),
                ("smt", 194, 64),
                ("spare", 258, 64),
                ("qtable", 322, 33),
            ],
            22_720
        )
    );
    assert_eq!(
        sgx(&cfg),
        (
            vec![
                ("data", 0, 8),
                ("side", 8, 8),
                ("leaves", 16, 1),
                ("tree", 17, 1),
                ("st", 18, 128),
                ("spare", 146, 64),
                ("qtable", 210, 33),
            ],
            15_552
        )
    );
}
