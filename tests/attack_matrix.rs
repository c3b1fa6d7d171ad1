//! Tamper matrix: flip bits in every NVM region (data, side, counters,
//! tree nodes, shadow tables) under every scheme, and check the threat
//! model holds — single-bit faults on ECC-protected data are repaired,
//! everything beyond that is detected, at read time or recovery time.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemError, MemoryController,
    RecoveryError, SgxController, SgxScheme,
};
use anubis_crypto::ecc::ecc_word;
use anubis_nvm::{Block, BlockAddr, NvmBackend, NvmDevice};

fn cfg() -> AnubisConfig {
    AnubisConfig::small_test()
}

fn warmed_bonsai(scheme: BonsaiScheme) -> BonsaiController {
    let mut c = BonsaiController::new(scheme, &cfg());
    for i in 0..50u64 {
        c.write(DataAddr::new(i * 3), Block::filled(i as u8))
            .unwrap();
    }
    c.shutdown_flush().unwrap();
    c
}

fn warmed_sgx(scheme: SgxScheme) -> SgxController {
    let mut c = SgxController::new(scheme, &cfg());
    for i in 0..50u64 {
        c.write(DataAddr::new(i * 3), Block::filled(i as u8))
            .unwrap();
    }
    c.shutdown_flush().unwrap();
    c
}

/// Where a cold read died: recovery itself, or the post-recovery read.
/// Both are detections; the variant preserves the *real* typed error
/// instead of collapsing recovery failures into a fake MAC mismatch.
#[derive(Debug)]
enum ColdReadFailure {
    Recovery(RecoveryError),
    Read(MemError),
}

/// Fresh controller sharing the tampered device state, to force re-fetch
/// and re-verification (caches would otherwise mask NVM contents).
fn cold_read_bonsai(c: &mut BonsaiController, addr: DataAddr) -> Result<Block, ColdReadFailure> {
    // Crash + recover re-cold-starts caches while keeping device state.
    c.crash();
    c.recover().map_err(ColdReadFailure::Recovery)?;
    c.read(addr).map_err(ColdReadFailure::Read)
}

#[test]
fn data_region_tamper_corrected_then_detected_all_bonsai_schemes() {
    for scheme in BonsaiScheme::all() {
        let mut c = warmed_bonsai(scheme);
        let dev = c.layout().data_addr(DataAddr::new(3));
        // A single flipped ciphertext bit is within SEC-DED's correction
        // budget: the read transparently repairs it.
        c.domain_mut().device_mut().tamper_flip_bit(dev, 77);
        assert_eq!(
            c.read(DataAddr::new(3)).unwrap(),
            Block::filled(1),
            "{}: single flip must be corrected",
            scheme.name()
        );
        assert!(
            c.ecc_corrections() > 0,
            "{}: correction must be counted",
            scheme.name()
        );
        // A second flip in the same 64-bit word exceeds it: typed error,
        // never wrong data.
        c.domain_mut().device_mut().tamper_flip_bit(dev, 78);
        assert!(
            c.read(DataAddr::new(3)).is_err(),
            "{}: double flip must be detected",
            scheme.name()
        );
    }
}

#[test]
fn side_region_tamper_corrected_then_detected() {
    let mut c = warmed_bonsai(BonsaiScheme::AgitPlus);
    let side = c.layout().side_addr(DataAddr::new(6));
    // SEC-DED protects its own check bits: one flip in the stored ECC
    // word decodes as a check-bit error and is absorbed.
    c.domain_mut().device_mut().tamper_flip_bit(side, 5);
    assert_eq!(
        c.read(DataAddr::new(6)).unwrap(),
        Block::filled(2),
        "flipped check bit must be absorbed"
    );
    // The MAC (side word 1) has no such slack: any flip is detected.
    c.domain_mut().device_mut().tamper_flip_bit(side, 64 + 5);
    assert!(c.read(DataAddr::new(6)).is_err(), "tampered MAC must fail");
}

/// A forgery that needs no key: flip bit 63 of ciphertext words 0 and 5,
/// and XOR the check byte of that flip into side-block ECC bytes 0 and 5.
/// Counter mode carries each ciphertext flip into the plaintext and the
/// Hamming code is linear, so the decrypted ECC still checks: only the
/// data MAC stands between this line and the reader.
fn forge_bit63_pair<B: NvmBackend>(dev: &mut NvmDevice<B>, data: BlockAddr, side: BlockAddr) {
    let check = ecc_word(1 << 63);
    for word in [0, 5] {
        dev.tamper_flip_bit(data, word * 64 + 63);
        for bit in (0..8).filter(|b| check >> b & 1 == 1) {
            dev.tamper_flip_bit(side, word * 8 + bit);
        }
    }
}

#[test]
fn a_keyless_bit63_pair_forgery_is_refused_never_served() {
    let line = DataAddr::new(3);
    for scheme in BonsaiScheme::all() {
        let mut c = warmed_bonsai(scheme);
        let (data, side) = (c.layout().data_addr(line), c.layout().side_addr(line));
        forge_bit63_pair(c.domain_mut().device_mut(), data, side);
        let out = c.read(line);
        assert!(
            out.is_err(),
            "{}: forged line served: {out:?}",
            scheme.name()
        );
    }
    for scheme in SgxScheme::all() {
        let mut c = warmed_sgx(scheme);
        let (data, side) = (c.layout().data_addr(line), c.layout().side_addr(line));
        forge_bit63_pair(c.domain_mut().device_mut(), data, side);
        let out = c.read(line);
        assert!(
            out.is_err(),
            "{}: forged line served: {out:?}",
            scheme.name()
        );
    }
}

#[test]
fn counter_region_tamper_detected_after_recovery() {
    let mut c = warmed_bonsai(BonsaiScheme::AgitPlus);
    let (leaf, _) = c.layout().leaf_of(DataAddr::new(3));
    let addr = c.layout().node_addr(leaf);
    c.domain_mut().device_mut().tamper_flip_bit(addr, 10);
    // Either recovery notices (root mismatch) or the read's path check
    // does — and the failure carries the real typed error either way.
    match cold_read_bonsai(&mut c, DataAddr::new(3)) {
        Ok(b) => panic!("tampered counter must be detected, read {b:?}"),
        Err(ColdReadFailure::Recovery(e)) => {
            // Any typed recovery error is a detection (here: the counter
            // probe finds no candidate) — but it must be corruption, not
            // a freshness refusal: tampering is repairable in principle,
            // rollback never is.
            assert!(
                !e.is_refusal(),
                "counter tamper is corruption, not a freshness refusal: {e}"
            );
        }
        Err(ColdReadFailure::Read(e)) => {
            assert!(
                matches!(e, MemError::Crypto(_) | MemError::Nvm(_)),
                "read-time detection must be a crypto/device error, got {e}"
            );
        }
    }
}

#[test]
fn tree_region_tamper_never_yields_wrong_data() {
    // Interior nodes are pure functions of the leaves, so a full rebuild
    // (write-back/Osiris recovery) *heals* interior tampering rather than
    // detecting it — the attack only matters if it could smuggle wrong
    // data past verification. Assert it cannot: after tamper + crash +
    // recovery, either recovery errors or every line reads back intact.
    let mut c = warmed_bonsai(BonsaiScheme::WriteBack);
    let node = anubis_itree::NodeId::new(1, 0);
    let addr = c.layout().node_addr(node);
    c.domain_mut().device_mut().tamper_flip_bit(addr, 444);
    match c.crash_recover_err() {
        Some(_) => {} // detected — fine
        None => {
            for i in 0..50u64 {
                assert_eq!(
                    c.read(DataAddr::new(i * 3)).unwrap(),
                    Block::filled(i as u8),
                    "healed tree must still serve correct data"
                );
            }
        }
    }
}

trait CrashRecoverErr {
    fn crash_recover_err(&mut self) -> Option<RecoveryError>;
}

impl CrashRecoverErr for BonsaiController {
    fn crash_recover_err(&mut self) -> Option<RecoveryError> {
        self.crash();
        self.recover().err()
    }
}

#[test]
fn data_replay_attack_detected() {
    // Record a sealed line, overwrite it, then replay the old ciphertext:
    // the counter has moved on, so ECC/MAC must fail.
    let mut c = warmed_bonsai(BonsaiScheme::Osiris);
    let a = DataAddr::new(9);
    c.write(a, Block::filled(1)).unwrap();
    c.domain_mut().drain_wpq();
    let dev = c.layout().data_addr(a);
    let side = c.layout().side_addr(a);
    let old_data = c.domain().device().peek(dev);
    let old_side = c.domain().device().peek(side);
    c.write(a, Block::filled(2)).unwrap();
    c.domain_mut().drain_wpq();
    c.domain_mut().device_mut().tamper_replay(dev, old_data);
    c.domain_mut().device_mut().tamper_replay(side, old_side);
    assert!(c.read(a).is_err(), "replayed stale data must fail");
}

#[test]
fn sgx_data_and_node_tampering_detected() {
    for scheme in SgxScheme::all() {
        let mut c = warmed_sgx(scheme);
        let dev = c.layout().data_addr(DataAddr::new(3));
        // One flip: repaired by SEC-DED. Two in the same word: detected.
        c.domain_mut().device_mut().tamper_flip_bit(dev, 123);
        assert_eq!(
            c.read(DataAddr::new(3)).unwrap(),
            Block::filled(1),
            "{}: single flip must be corrected",
            scheme.name()
        );
        assert!(c.ecc_corrections() > 0, "{}", scheme.name());
        c.domain_mut().device_mut().tamper_flip_bit(dev, 124);
        assert!(c.read(DataAddr::new(3)).is_err(), "{}", scheme.name());
    }
    // Interior node tamper, checked on cold fetch.
    let mut c = warmed_sgx(SgxScheme::WriteBack);
    c.crash();
    c.recover().expect("clean crash after flush recovers");
    let node = anubis_itree::NodeId::new(1, 0);
    let addr = c.layout().node_addr(node);
    c.domain_mut().device_mut().tamper_flip_bit(addr, 50);
    assert!(c.read(DataAddr::new(0)).is_err());
}

#[test]
fn asit_shadow_table_attacks_detected() {
    // (a) bit flip in an ST entry; (b) wholesale replay of an old ST
    // image; both must fail SHADOW_TREE_ROOT verification.
    let mut c = SgxController::new(SgxScheme::Asit, &cfg());
    for i in 0..40u64 {
        c.write(DataAddr::new(i), Block::filled(i as u8)).unwrap();
    }
    // Snapshot the ST region early.
    c.domain_mut().drain_wpq();
    let snapshot: Vec<(u64, Block)> = (0..c.layout().shadow("st").len())
        .map(|s| {
            let a = c.layout().shadow("st").nth(s);
            (s, c.domain().device().peek(a))
        })
        .collect();
    for i in 40..80u64 {
        c.write(DataAddr::new(i), Block::filled(i as u8)).unwrap();
    }
    c.crash();
    // Replay the old ST image.
    for (s, b) in snapshot {
        let a = c.layout().shadow("st").nth(s);
        c.domain_mut().device_mut().tamper_replay(a, b);
    }
    assert_eq!(c.recover(), Err(RecoveryError::ShadowTableTampered));
}

#[test]
fn agit_shadow_table_lies_caught_by_root() {
    // AGIT's shadow tables are *not* separately protected; lying in them
    // misdirects recovery, which the final root check must catch.
    let mut c = BonsaiController::new(BonsaiScheme::AgitRead, &cfg());
    for i in 0..30u64 {
        c.write(DataAddr::new(i * 64), Block::filled(i as u8))
            .unwrap();
    }
    c.crash();
    // Zero out the whole SCT: recovery will "fix" nothing.
    for s in 0..c.layout().shadow("sct").len() {
        let a = c.layout().shadow("sct").nth(s);
        c.domain_mut().device_mut().poke(a, Block::zeroed());
    }
    assert_eq!(c.recover(), Err(RecoveryError::RootMismatch));
}

/// One honest line's content.
fn line_pattern(i: u64) -> Block {
    Block::from_words([i, !i, i << 7, 0xA5, i, !i, i.rotate_left(17), 3])
}

/// Writes 1 821 lines at stride 9 over the whole of `small_test`, then
/// reads 12 of them corrupted beyond ECC, and counts the honest lines
/// that afterwards cannot be read back, or rewritten, as written.
fn honest_lines_lost_after_refused_reads<C: MemoryController>(
    c: &mut C,
    dev: impl Fn(&C, DataAddr) -> anubis_nvm::BlockAddr,
) -> usize {
    let lines: Vec<u64> = (0..1821u64).map(|i| i * 9).collect();
    for (i, &line) in lines.iter().enumerate() {
        c.write(DataAddr::new(line), line_pattern(i as u64))
            .unwrap();
    }
    c.domain_mut().drain_wpq();
    let bad: Vec<u64> = (0..12).map(|k| lines[k * 151 + 75]).collect();
    for &line in &bad {
        let at = dev(c, DataAddr::new(line));
        c.domain_mut().device_mut().tamper_flip_bit(at, 3);
        c.domain_mut().device_mut().tamper_flip_bit(at, 4);
        assert!(c.read(DataAddr::new(line)).is_err(), "line {line}");
    }
    lines
        .iter()
        .enumerate()
        .filter(|(_, line)| !bad.contains(line))
        .filter(|&(i, &line)| {
            let a = DataAddr::new(line);
            let read_ok = matches!(c.read(a), Ok(b) if b == line_pattern(i as u64));
            !read_ok || c.write(a, line_pattern(i as u64 + 1)).is_err()
        })
        .count()
}

#[test]
fn a_refused_data_read_keeps_the_metadata_traffic_of_its_fill() {
    // The fill that brought the refused line's counter in has already
    // evicted dirty metadata and bumped the victims' parent counters in
    // the cache or on chip: its commit group (the victims' writebacks,
    // the bumps, the shadow entries) must land even though the read
    // fails, or honest metadata no longer verifies.
    let mut bonsai = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg());
    let lost = honest_lines_lost_after_refused_reads(&mut bonsai, |c, a| c.layout().data_addr(a));
    assert_eq!(lost, 0, "agit-plus");
    let mut sgx = SgxController::new(SgxScheme::Asit, &cfg());
    let lost = honest_lines_lost_after_refused_reads(&mut sgx, |c, a| c.layout().data_addr(a));
    assert_eq!(lost, 0, "asit");
}
