//! Unit tests for the Bonsai controller family.

use super::*;
use crate::{MemoryController, Supervised};

fn cfg() -> AnubisConfig {
    AnubisConfig::small_test()
}

fn controller(scheme: BonsaiScheme) -> BonsaiController {
    BonsaiController::new(scheme, &cfg())
}

fn pattern(i: u64) -> Block {
    Block::from_words([i, i ^ 0xAA, i * 3, i + 7, !i, i << 8, i.rotate_left(13), 42])
}

#[test]
fn fresh_memory_reads_zero() {
    for scheme in BonsaiScheme::all() {
        let mut c = controller(scheme);
        assert_eq!(c.read(DataAddr::new(0)).unwrap(), Block::zeroed());
        assert_eq!(c.read(DataAddr::new(12345)).unwrap(), Block::zeroed());
    }
}

#[test]
fn write_read_roundtrip_all_schemes() {
    for scheme in BonsaiScheme::all() {
        let mut c = controller(scheme);
        for i in 0..50u64 {
            c.write(DataAddr::new(i * 97 % 4000), pattern(i)).unwrap();
        }
        for i in 0..50u64 {
            assert_eq!(
                c.read(DataAddr::new(i * 97 % 4000)).unwrap(),
                pattern(i),
                "{} idx {i}",
                scheme.name()
            );
        }
    }
}

#[test]
fn overwrites_return_latest() {
    let mut c = controller(BonsaiScheme::AgitPlus);
    let a = DataAddr::new(99);
    for i in 0..20u64 {
        c.write(a, pattern(i)).unwrap();
    }
    assert_eq!(c.read(a).unwrap(), pattern(19));
}

#[test]
fn out_of_range_rejected() {
    let mut c = controller(BonsaiScheme::WriteBack);
    let cap = c.layout().data_blocks();
    assert!(matches!(
        c.read(DataAddr::new(cap)),
        Err(MemError::OutOfRange { .. })
    ));
    assert!(c.write(DataAddr::new(cap + 5), Block::zeroed()).is_err());
}

#[test]
fn single_bit_data_flip_corrected_on_read() {
    // One flipped ciphertext bit is within SEC-DED reach: the read path
    // repairs it, re-verifies the MAC, and serves the original data.
    let mut c = controller(BonsaiScheme::Osiris);
    let a = DataAddr::new(7);
    c.write(a, pattern(1)).unwrap();
    c.domain_mut().drain_wpq();
    let dev = c.layout().data_addr(a);
    c.domain_mut().device_mut().tamper_flip_bit(dev, 100);
    assert_eq!(c.read(a).unwrap(), pattern(1));
    assert_eq!(c.ecc_corrections(), 1);
}

#[test]
fn multi_bit_data_tamper_detected_on_read() {
    let mut c = controller(BonsaiScheme::Osiris);
    let a = DataAddr::new(7);
    c.write(a, pattern(1)).unwrap();
    c.domain_mut().drain_wpq();
    let dev = c.layout().data_addr(a);
    c.domain_mut().device_mut().tamper_flip_bit(dev, 100);
    c.domain_mut().device_mut().tamper_flip_bit(dev, 101); // same word
    assert!(matches!(c.read(a), Err(MemError::Crypto(_))));
    assert_eq!(c.ecc_corrections(), 0);
}

#[test]
fn counter_tamper_detected_via_tree() {
    let mut c = controller(BonsaiScheme::WriteBack);
    let a = DataAddr::new(7);
    c.write(a, pattern(1)).unwrap();
    c.shutdown_flush().unwrap();
    // Evict everything so the next read re-fetches and re-verifies.
    c.counter_cache.invalidate_all();
    c.tree_cache.invalidate_all();
    let (leaf, _) = c.layout().leaf_of(a);
    let ctr_addr = c.layout().node_addr(leaf);
    c.domain_mut().device_mut().tamper_flip_bit(ctr_addr, 9);
    assert!(matches!(c.read(a), Err(MemError::Integrity { .. })));
}

#[test]
fn tree_node_tamper_detected() {
    let mut c = controller(BonsaiScheme::WriteBack);
    c.write(DataAddr::new(0), pattern(1)).unwrap();
    c.shutdown_flush().unwrap();
    c.counter_cache.invalidate_all();
    c.tree_cache.invalidate_all();
    let node = NodeId::new(1, 0);
    let addr = c.layout().node_addr(node);
    c.domain_mut().device_mut().tamper_flip_bit(addr, 3);
    assert!(matches!(
        c.read(DataAddr::new(0)),
        Err(MemError::Integrity { .. })
    ));
}

#[test]
fn zero_state_tamper_detected() {
    // Writing garbage into a never-written line must not read as valid.
    let mut c = controller(BonsaiScheme::WriteBack);
    let a = DataAddr::new(3);
    let dev = c.layout().data_addr(a);
    c.domain_mut().device_mut().tamper_flip_bit(dev, 0);
    assert!(matches!(c.read(a), Err(MemError::Crypto(_))));
}

#[test]
fn graceful_shutdown_then_recover_for_all_schemes() {
    for scheme in BonsaiScheme::all() {
        let mut c = controller(scheme);
        for i in 0..30u64 {
            c.write(DataAddr::new(i), pattern(i)).unwrap();
        }
        c.shutdown_flush().unwrap();
        c.crash();
        let report = c.recover();
        assert!(report.is_ok(), "{}: {report:?}", scheme.name());
        for i in 0..30u64 {
            assert_eq!(
                c.read(DataAddr::new(i)).unwrap(),
                pattern(i),
                "{}",
                scheme.name()
            );
        }
    }
}

#[test]
fn crash_recover_osiris_and_agit() {
    for scheme in [
        BonsaiScheme::Osiris,
        BonsaiScheme::AgitRead,
        BonsaiScheme::AgitPlus,
    ] {
        let mut c = controller(scheme);
        for i in 0..60u64 {
            c.write(DataAddr::new(i * 13 % 500), pattern(i)).unwrap();
        }
        c.crash(); // no flush: dirty metadata in caches is lost
        let report = c
            .recover()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert!(report.total_ops() > 0);
        for i in 0..60u64 {
            // Later writes to the same address win; recompute expectation.
            let addr = i * 13 % 500;
            let last = (0..60u64).filter(|j| j * 13 % 500 == addr).max().unwrap();
            assert_eq!(
                c.read(DataAddr::new(addr)).unwrap(),
                pattern(last),
                "{} addr {addr}",
                scheme.name()
            );
        }
    }
}

#[test]
fn writeback_crash_with_dirty_metadata_unrecoverable() {
    let mut c = controller(BonsaiScheme::WriteBack);
    // Write enough times that counters drift past what NVM holds.
    for i in 0..10u64 {
        c.write(DataAddr::new(1), pattern(i)).unwrap();
    }
    c.crash();
    assert_eq!(c.recover(), Err(RecoveryError::RootMismatch));
}

#[test]
fn strict_crash_recovers_trivially() {
    let mut c = controller(BonsaiScheme::StrictPersist);
    for i in 0..25u64 {
        c.write(DataAddr::new(i * 3), pattern(i)).unwrap();
    }
    c.crash();
    let report = c.recover().unwrap();
    assert_eq!(report.counters_fixed, 0);
    for i in 0..25u64 {
        assert_eq!(c.read(DataAddr::new(i * 3)).unwrap(), pattern(i));
    }
}

#[test]
fn agit_recovery_is_much_cheaper_than_osiris() {
    let run = |scheme| {
        let mut c = controller(scheme);
        for i in 0..40u64 {
            c.write(DataAddr::new(i), pattern(i)).unwrap();
        }
        c.crash();
        c.recover().unwrap().total_ops()
    };
    let osiris = run(BonsaiScheme::Osiris);
    let agit = run(BonsaiScheme::AgitPlus);
    assert!(
        agit < osiris,
        "AGIT ({agit}) must beat Osiris ({osiris}) even at test scale"
    );
}

#[test]
fn agit_plus_issues_fewer_shadow_writes_than_agit_read() {
    // Read-heavy access: AGIT-Read shadows every fill, AGIT-Plus only
    // first modifications.
    let run = |scheme| {
        let mut c = controller(scheme);
        for i in 0..20u64 {
            c.write(DataAddr::new(i * 64), pattern(i)).unwrap();
        }
        for _ in 0..5 {
            for i in 0..200u64 {
                c.read(DataAddr::new(i * 64)).unwrap();
            }
        }
        c.domain().device().stats().writes_in("sct")
            + c.domain().device().stats().writes_in("smt")
            + pending_shadow(&c)
    };
    fn pending_shadow(_c: &BonsaiController) -> u64 {
        0 // WPQ coalescing means stats lag slightly; totals dominate anyway
    }
    let read_scheme = run(BonsaiScheme::AgitRead);
    let plus_scheme = run(BonsaiScheme::AgitPlus);
    assert!(
        plus_scheme < read_scheme,
        "AGIT-Plus ({plus_scheme}) must shadow less than AGIT-Read ({read_scheme})"
    );
}

#[test]
fn stop_loss_bounds_counter_drift() {
    let mut c = controller(BonsaiScheme::Osiris);
    let a = DataAddr::new(5);
    for i in 0..9u64 {
        c.write(a, pattern(i)).unwrap();
    }
    c.domain_mut().drain_wpq();
    let (leaf, line) = c.layout().leaf_of(a);
    let nvm_ctr = SplitCounterBlock::from_block(&{
        let a = c.layout().node_addr(leaf);
        c.domain_mut().device_mut().read(a)
    });
    let slot = (c.counter_cache.slot_of(c.layout().node_addr(leaf))).expect("resident");
    let cached = c.counter_cache.at(slot).ctr;
    let drift = cached.minor(line) - nvm_ctr.minor(line);
    assert!(
        drift < cfg().stop_loss,
        "drift {drift} must stay below stop-loss"
    );
}

#[test]
fn minor_overflow_reencrypts_page_and_stays_readable() {
    let mut c = controller(BonsaiScheme::AgitPlus);
    let a = DataAddr::new(130); // page 2, line 2
    let neighbor = DataAddr::new(131);
    c.write(neighbor, pattern(777)).unwrap();
    for i in 0..(MINOR_MAX as u64 + 5) {
        c.write(a, pattern(i)).unwrap();
    }
    // Major counter must have advanced.
    let (leaf, line) = c.layout().leaf_of(a);
    let slot = (c.counter_cache.slot_of(c.layout().node_addr(leaf))).expect("resident");
    let entry = c.counter_cache.at(slot);
    assert_eq!(entry.ctr.major(), 1, "major bumped after overflow");
    assert!(entry.ctr.minor(line) >= 1);
    // Both the hot line and its neighbor survive re-encryption.
    assert_eq!(c.read(a).unwrap(), pattern(MINOR_MAX as u64 + 4));
    assert_eq!(c.read(neighbor).unwrap(), pattern(777));
}

#[test]
fn overflow_then_crash_recovers() {
    for scheme in [
        BonsaiScheme::Osiris,
        BonsaiScheme::AgitPlus,
        BonsaiScheme::AgitRead,
    ] {
        let mut c = controller(scheme);
        let a = DataAddr::new(130);
        let neighbor = DataAddr::new(140);
        c.write(neighbor, pattern(1)).unwrap();
        for i in 0..(MINOR_MAX as u64 + 3) {
            c.write(a, pattern(i)).unwrap();
        }
        c.crash();
        c.recover()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert_eq!(
            c.read(a).unwrap(),
            pattern(MINOR_MAX as u64 + 2),
            "{}",
            scheme.name()
        );
        assert_eq!(c.read(neighbor).unwrap(), pattern(1), "{}", scheme.name());
    }
}

#[test]
fn strict_persist_writes_most_agit_plus_close_to_osiris() {
    // Write-amplification ordering from the paper: strict ≫ agit-read ≥
    // agit-plus ≥ osiris ≥ write-back.
    let amp = |scheme| {
        let mut c = controller(scheme);
        for i in 0..300u64 {
            c.write(DataAddr::new(i * 7 % 2000), pattern(i)).unwrap();
        }
        c.total_cost().writes_per_data_write().unwrap()
    };
    let wb = amp(BonsaiScheme::WriteBack);
    let strict = amp(BonsaiScheme::StrictPersist);
    let osiris = amp(BonsaiScheme::Osiris);
    let agit_r = amp(BonsaiScheme::AgitRead);
    let agit_p = amp(BonsaiScheme::AgitPlus);
    assert!(strict > 3.0 * wb, "strict {strict} vs wb {wb}");
    assert!(osiris >= wb);
    assert!(agit_p >= osiris - 1e-9);
    assert!(agit_r + 1e-9 >= agit_p, "read {agit_r} vs plus {agit_p}");
    assert!(strict > agit_r, "strict {strict} vs agit-read {agit_r}");
}

#[test]
fn costs_are_recorded_per_op() {
    let mut c = controller(BonsaiScheme::AgitPlus);
    c.write(DataAddr::new(0), pattern(0)).unwrap();
    let w = c.last_cost();
    assert!(w.nvm_writes >= 1, "data write staged");
    assert!(w.hash_ops >= 2, "pad+mac at minimum");
    c.read(DataAddr::new(0)).unwrap();
    let r = c.last_cost();
    assert!(r.nvm_reads >= 1);
    assert_eq!(c.total_cost().reads, 1);
    assert_eq!(c.total_cost().writes, 1);
    c.reset_costs();
    assert_eq!(c.total_cost().reads, 0);
}

#[test]
fn recovery_report_counts_fixed_counters() {
    let mut c = controller(BonsaiScheme::AgitPlus);
    for i in 0..3u64 {
        c.write(DataAddr::new(64 * i), pattern(i)).unwrap();
    }
    c.crash();
    let report = c.recover().unwrap();
    // Each written line's counter was at drift 1 (one write since fill,
    // below stop-loss), so three counters needed fixing.
    assert_eq!(report.counters_fixed, 3);
    assert!(report.nodes_fixed >= 1);
    assert!(!report.reencryption_completed);
}

#[test]
fn tampered_sct_detected_at_root_check() {
    // AGIT has no shadow-table integrity tree: tampering SCT misleads
    // recovery into fixing the wrong blocks, which the final root check
    // catches (paper §4.2.1).
    let mut c = controller(BonsaiScheme::AgitPlus);
    for i in 0..10u64 {
        c.write(DataAddr::new(i * 64), pattern(i)).unwrap();
    }
    c.crash();
    // Overwrite every SCT entry with a bogus-but-well-formed entry so the
    // truly-dirty counters are never repaired.
    for slot in 0..c.layout().shadow("sct").len() {
        let bogus = ShadowAddrEntry::new(NodeId::new(0, 99)).to_block();
        let addr = c.layout().shadow("sct").nth(slot);
        c.domain_mut().device_mut().poke(addr, bogus);
    }
    assert_eq!(c.recover(), Err(RecoveryError::RootMismatch));
}

#[test]
fn zero_tree_root_is_consistent_with_first_fetch() {
    // A fresh controller must accept its own all-zero NVM image.
    let mut c = controller(BonsaiScheme::WriteBack);
    // Touch two widely separated addresses: exercises multi-level fetch
    // verification against the zero-tree root.
    assert!(c.read(DataAddr::new(0)).is_ok());
    assert!(c.read(DataAddr::new(16000)).is_ok());
}

#[test]
fn cache_stats_flow_through() {
    let mut c = controller(BonsaiScheme::WriteBack);
    for i in 0..100u64 {
        c.write(DataAddr::new(i * 64), pattern(i)).unwrap(); // distinct pages
    }
    let s = c.counter_cache_stats();
    assert!(s.misses >= 64, "each new page misses: {s:?}");
    assert!(c.tree_cache_stats().hits > 0);
}

#[test]
fn flushed_nvm_tree_matches_reference_model() {
    // After a graceful flush, the NVM image (counters + interior nodes)
    // must equal a ReferenceTree built from the NVM counter blocks, and
    // its root must equal the on-chip register — the strongest
    // cross-check between the cached controller and the pure model.
    use anubis_itree::bonsai::ReferenceTree;
    let mut c = controller(BonsaiScheme::WriteBack);
    for i in 0..200u64 {
        c.write(DataAddr::new(i * 29 % 3000), pattern(i)).unwrap();
    }
    c.shutdown_flush().unwrap();
    let g = c.layout().geometry().clone();
    let leaves: Vec<Block> = (0..g.num_leaves())
        .map(|i| {
            let addr = c.layout().node_addr(NodeId::new(0, i));
            c.domain().device().peek(addr)
        })
        .collect();
    let reference = ReferenceTree::build(cfg().key, leaves);
    assert_eq!(
        reference.root(),
        c.root(),
        "root register equals model root"
    );
    // Every *written* interior node in NVM matches the model node.
    for level in 1..g.num_levels() {
        for index in 0..g.nodes_at(level) {
            let node = NodeId::new(level, index);
            let nvm = c.domain().device().peek(c.layout().node_addr(node));
            if !nvm.is_zeroed() {
                assert_eq!(&nvm, reference.node(node), "node {node}");
            }
        }
    }
}

#[test]
fn agit_recovery_root_matches_reference_after_crash() {
    use anubis_itree::bonsai::ReferenceTree;
    let mut c = controller(BonsaiScheme::AgitPlus);
    for i in 0..150u64 {
        c.write(DataAddr::new(i * 41 % 2500), pattern(i)).unwrap();
    }
    c.crash();
    c.recover().unwrap();
    // Post-recovery NVM counters define the tree; its root must equal the
    // register (recovery already checked this — assert the cross-model
    // equality independently).
    let g = c.layout().geometry().clone();
    let leaves: Vec<Block> = (0..g.num_leaves())
        .map(|i| {
            c.domain()
                .device()
                .peek(c.layout().node_addr(NodeId::new(0, i)))
        })
        .collect();
    let reference = ReferenceTree::build(cfg().key, leaves);
    assert_eq!(reference.root(), c.root());
}

#[test]
fn single_page_memory_works() {
    // Degenerate geometry: one counter block, single-leaf tree (the root
    // IS the leaf digest).
    let tiny = cfg().with_capacity(4096);
    for scheme in BonsaiScheme::all() {
        let mut c = BonsaiController::new(scheme, &tiny);
        assert_eq!(c.layout().geometry().num_levels(), 1, "{}", scheme.name());
        for i in 0..64u64 {
            c.write(DataAddr::new(i), pattern(i)).unwrap();
        }
        for i in 0..64u64 {
            assert_eq!(
                c.read(DataAddr::new(i)).unwrap(),
                pattern(i),
                "{}",
                scheme.name()
            );
        }
        if scheme != BonsaiScheme::WriteBack {
            c.crash();
            c.recover()
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert_eq!(c.read(DataAddr::new(5)).unwrap(), pattern(5));
        }
    }
}

#[test]
fn read_heavy_then_crash_recovers_cleanly() {
    // Reads dirty nothing; recovery after pure reads must be near-trivial
    // and succeed even for write-back.
    let mut c = controller(BonsaiScheme::WriteBack);
    for i in 0..100u64 {
        c.write(DataAddr::new(i), pattern(i)).unwrap();
    }
    c.shutdown_flush().unwrap();
    for _ in 0..3 {
        for i in 0..100u64 {
            c.read(DataAddr::new(i)).unwrap();
        }
    }
    c.crash();
    c.recover().expect("nothing dirty lost");
    assert_eq!(c.read(DataAddr::new(42)).unwrap(), pattern(42));
}

#[test]
fn recovery_is_idempotent() {
    let mut c = controller(BonsaiScheme::AgitPlus);
    for i in 0..50u64 {
        c.write(DataAddr::new(i * 3), pattern(i)).unwrap();
    }
    c.crash();
    let r1 = c.recover().unwrap();
    // Crash immediately again without any new writes: the second recovery
    // must also succeed, with nothing left to fix.
    c.crash();
    let r2 = c.recover().unwrap();
    assert!(r1.counters_fixed >= r2.counters_fixed);
    assert_eq!(
        r2.counters_fixed, 0,
        "first recovery already persisted the fixes"
    );
    assert_eq!(c.read(DataAddr::new(0)).unwrap(), pattern(0));
}

#[test]
fn counter_write_through_recovers_without_probing() {
    // SecPM-style: counters always current in NVM, so recovery succeeds
    // with zero Osiris probe fixes — but it still walks the whole tree.
    let mut c = controller(BonsaiScheme::CounterWriteThrough);
    for i in 0..60u64 {
        c.write(DataAddr::new(i * 13 % 600), pattern(i)).unwrap();
    }
    c.crash();
    let report = c.recover().unwrap();
    assert_eq!(
        report.counters_fixed, 0,
        "write-through needs no counter fixes"
    );
    assert!(
        report.nodes_fixed >= c.layout().geometry().interior_blocks(),
        "recovery is still O(memory): the whole tree is rebuilt"
    );
    for i in 0..60u64 {
        let addr = i * 13 % 600;
        let last = (0..60u64).filter(|j| j * 13 % 600 == addr).max().unwrap();
        assert_eq!(c.read(DataAddr::new(addr)).unwrap(), pattern(last));
    }
}

#[test]
fn counter_write_through_amplification_between_wb_and_strict() {
    let amp = |scheme| {
        let mut c = controller(scheme);
        for i in 0..200u64 {
            c.write(DataAddr::new(i * 7 % 1000), pattern(i)).unwrap();
        }
        c.total_cost().writes_per_data_write().unwrap()
    };
    let wb = amp(BonsaiScheme::WriteBack);
    let wt = amp(BonsaiScheme::CounterWriteThrough);
    let strict = amp(BonsaiScheme::StrictPersist);
    assert!(
        wt > wb,
        "write-through adds the counter write: {wt} vs {wb}"
    );
    assert!(wt < strict, "but not the whole tree path: {wt} vs {strict}");
    assert!(
        (wt - wb - 1.0).abs() < 0.3,
        "≈ +1 write per data write: {}",
        wt - wb
    );
}

#[test]
fn recovery_completes_reencryption_interrupted_at_any_line() {
    // Reconstruct the exact mid-flight state of `reencrypt_page` — log
    // active, counter block installed, the first `k` lines re-encrypted —
    // and crash there. Recovery must finish the remaining lines from the
    // log's old-counter snapshot, for every interruption point class.
    for k in [0usize, 1, 7, 32, 63, 64] {
        let mut c = controller(BonsaiScheme::AgitPlus);
        let page_base = 64u64; // page 1
        for i in 0..64u64 {
            c.write(DataAddr::new(page_base + i), pattern(i)).unwrap();
        }
        c.shutdown_flush().unwrap();
        let (leaf, _) = c.layout().leaf_of(DataAddr::new(page_base));
        let leaf_addr = c.layout().node_addr(leaf);
        let old = SplitCounterBlock::from_block(&c.domain().device().peek(leaf_addr));

        // --- faithful replay of reencrypt_page steps 1–2 ---
        let slot = c.ensure_counter(leaf).unwrap();
        let fresh = SplitCounterBlock::with_major(old.major() + 1);
        c.reenc_log = Some(ReencLog {
            leaf: leaf.index,
            old,
            next_line: 0,
        });
        let entry = c.counter_cache.at_mut(slot);
        entry.ctr = fresh;
        entry.since_persist = 0;
        c.counter_cache.mark_dirty_at(slot);
        c.track_counter_if_first_mod(leaf, slot);
        c.path.stage(leaf_addr, fresh.to_block());
        c.counter_cache.mark_clean_at(slot);
        c.update_path(leaf, slot).unwrap();
        c.commit().unwrap();
        // --- step 3, interrupted after k lines ---
        for line in 0..k {
            c.reencrypt_line(leaf.index, &old, old.major() + 1, line)
                .unwrap();
            c.commit().unwrap();
            c.reenc_log.as_mut().unwrap().next_line = line as u8 + 1;
        }

        c.crash();
        let report = c.recover().unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert!(report.reencryption_completed, "k={k}");
        for i in 0..64u64 {
            assert_eq!(
                c.read(DataAddr::new(page_base + i)).unwrap(),
                pattern(i),
                "k={k} line {i}"
            );
        }
        // The page's counter block now carries the bumped major.
        let after = SplitCounterBlock::from_block(&c.domain().device().peek(leaf_addr));
        assert_eq!(after.major(), old.major() + 1, "k={k}");
    }
}

#[test]
fn lazy_scheme_roundtrips_and_root_lags() {
    let mut c = controller(BonsaiScheme::LazyWriteBack);
    let initial_root = c.root();
    for i in 0..80u64 {
        c.write(DataAddr::new(i * 19 % 900), pattern(i)).unwrap();
    }
    for i in 0..80u64 {
        let addr = i * 19 % 900;
        let last = (0..80u64).filter(|j| j * 19 % 900 == addr).max().unwrap();
        assert_eq!(c.read(DataAddr::new(addr)).unwrap(), pattern(last));
    }
    // With a small working set and a warm cache, the top node may never
    // have been written back: the root register may still be stale (it
    // only advances on top-node writebacks). Either way, a graceful flush
    // must advance it to the persisted tree's root.
    c.shutdown_flush().unwrap();
    assert_ne!(c.root(), initial_root, "flush must refresh the lazy root");
}

#[test]
fn lazy_flush_crash_recovers_crash_without_flush_does_not() {
    // Recoverable after a clean flush...
    let mut c = controller(BonsaiScheme::LazyWriteBack);
    for i in 0..40u64 {
        c.write(DataAddr::new(i * 7), pattern(i)).unwrap();
    }
    c.shutdown_flush().unwrap();
    c.crash();
    c.recover().expect("flushed lazy tree recovers");
    for i in 0..40u64 {
        assert_eq!(c.read(DataAddr::new(i * 7)).unwrap(), pattern(i));
    }
    // ...but not after losing dirty metadata. Two failure shapes, both
    // fatal (paper §2.6): if any writeback advanced the root register, the
    // rebuilt stale tree mismatches it; if nothing was ever written back,
    // the stale root *matches* the stale tree — recovery "succeeds" into a
    // silent rollback and the data written since is unreadable. Either
    // way, committed writes are gone.
    let mut c = controller(BonsaiScheme::LazyWriteBack);
    for i in 0..40u64 {
        c.write(DataAddr::new(i * 7), pattern(i)).unwrap();
    }
    c.crash();
    match c.recover() {
        Err(RecoveryError::RootMismatch) => {}
        Ok(_) => {
            assert!(
                c.read(DataAddr::new(0)).is_err(),
                "silent rollback: post-crash reads of written lines must fail"
            );
        }
        Err(e) => panic!("unexpected recovery error: {e}"),
    }
}

#[test]
fn lazy_is_cheaper_than_eager_at_run_time() {
    // The §2.6 trade-off: lazy updates skip the per-write path hashing.
    let hashes = |scheme| {
        let mut c = controller(scheme);
        for i in 0..300u64 {
            c.write(DataAddr::new(i % 64), pattern(i)).unwrap(); // warm, hot page
        }
        c.total_cost().hash_ops
    };
    let eager = hashes(BonsaiScheme::WriteBack);
    let lazy = hashes(BonsaiScheme::LazyWriteBack);
    assert!(
        lazy * 2 < eager,
        "lazy ({lazy}) must hash far less than eager ({eager}) on a warm cache"
    );
}

#[test]
fn lazy_eviction_cascade_keeps_tree_verifiable() {
    // Heavy churn forces dirty evictions whose digest updates cascade
    // through non-resident parents; everything must stay verifiable.
    let mut c = controller(BonsaiScheme::LazyWriteBack);
    for i in 0..500u64 {
        c.write(DataAddr::new(i * 67 % 8000), pattern(i)).unwrap();
    }
    c.shutdown_flush().unwrap();
    c.counter_cache.invalidate_all();
    c.tree_cache.invalidate_all();
    for i in 0..500u64 {
        let addr = i * 67 % 8000;
        let last = (0..500u64).filter(|j| j * 67 % 8000 == addr).max().unwrap();
        assert_eq!(
            c.read(DataAddr::new(addr)).unwrap(),
            pattern(last),
            "addr {addr}"
        );
    }
}

#[test]
fn a_flush_of_more_dirty_metadata_than_one_group_holds_reopens_whole() {
    // One line in each of the 256 counter blocks: past a 64-block counter
    // cache, so the eager scheme ends with 64 dirty counter blocks plus
    // their dirty tree nodes — more than the 64-entry register file takes
    // in one commit group.
    let lines: Vec<u64> = (0..256u64)
        .map(|k| k * LINES_PER_COUNTER_BLOCK + k % 64)
        .collect();
    for scheme in [BonsaiScheme::AgitPlus, BonsaiScheme::LazyWriteBack] {
        let name = scheme.name();
        let mut c = controller(scheme);
        for &line in &lines {
            c.write(DataAddr::new(line), pattern(line)).unwrap();
        }
        // Each resident metadata block with its dirty bit.
        let resident = |c: &BonsaiController| -> Vec<(BlockAddr, Block, bool)> {
            let ctrs =
                (c.counter_cache.iter_resident()).map(|(_, a, e, d)| (a, e.ctr.to_block(), d));
            let nodes = c.tree_cache.iter_resident().map(|(_, a, b, d)| (a, *b, d));
            ctrs.chain(nodes).collect()
        };
        let dirty: Vec<BlockAddr> = resident(&c)
            .into_iter()
            .filter(|e| e.2)
            .map(|e| e.0)
            .collect();
        if scheme == BonsaiScheme::AgitPlus {
            assert!(dirty.len() > anubis_nvm::PREG_CAPACITY, "{}", dirty.len());
        }
        c.shutdown_flush().unwrap_or_else(|e| panic!("{name}: {e}"));
        let flushed = resident(&c);
        assert!(
            flushed.iter().all(|e| !e.2),
            "{name}: a flush leaves nothing dirty"
        );

        // Every block that was dirty is in the reopened image as the cache
        // holds it.
        let image = c.domain().device().backend().clone();
        let (mut reopened, hint) = BonsaiController::reopen(scheme, &cfg(), image);
        assert_eq!(hint, None, "{name}");
        for (addr, block, _) in flushed.iter().filter(|e| dirty.contains(&e.0)) {
            assert_eq!(
                reopened.domain().device().peek(*addr),
                *block,
                "{name}: {addr}"
            );
        }
        reopened.recover().unwrap_or_else(|e| panic!("{name}: {e}"));
        for &line in &lines {
            assert_eq!(reopened.read(DataAddr::new(line)).unwrap(), pattern(line));
        }
    }
}

#[test]
fn all_with_extras_lists_seven_bonsai_schemes() {
    let schemes = BonsaiScheme::all_with_extras();
    let mut names: Vec<_> = schemes.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 7);
}

/// 400 acknowledged writes through AGIT-Read's 512 B (two-set) caches,
/// then bit 9 flipped in a counter block that is not resident and whose
/// parent node is neither resident nor on chip. Returns the controller,
/// the writes and a line under the damaged block.
fn a_cold_counter_block_flipped() -> (BonsaiController, Vec<(DataAddr, Block)>, DataAddr) {
    let mut c = BonsaiController::new(BonsaiScheme::AgitRead, &cfg().with_cache_bytes(512));
    let written: Vec<_> = (0..400u64)
        .map(|i| (DataAddr::new(i * 37 % 4000), pattern(i)))
        .collect();
    for &(addr, value) in &written {
        c.write(addr, value).unwrap();
    }
    c.domain_mut().drain_wpq();
    let g = c.layout().geometry().clone();
    let line = (0..c.layout().data_blocks())
        .map(DataAddr::new)
        .find(|&a| {
            let (leaf, _) = c.layout().leaf_of(a);
            let parent = g.parent(leaf).expect("a multi-level tree");
            !c.layout().is_on_chip(parent)
                && c.counter_cache
                    .slot_of(c.layout().node_addr(leaf))
                    .is_none()
                && c.tree_cache.slot_of(c.layout().node_addr(parent)).is_none()
        })
        .expect("a line under two cold levels");
    let leaf_addr = c.layout().node_addr(c.layout().leaf_of(line).0);
    c.domain_mut().device_mut().tamper_flip_bit(leaf_addr, 9);
    (c, written, line)
}

#[test]
fn a_restart_over_a_damaged_untracked_counter_block_never_recovers_into_read_errors() {
    // Every acknowledged line is read, so the damaged block's parent is
    // filled and tracked; the crash leaves that parent to be rebuilt from
    // the damaged block. The restart a server takes may end `Recovered`
    // only if every acknowledged line then reads back; here it must
    // declare the lines under the damaged block, and only those written.
    let (mut c, written, line) = a_cold_counter_block_flipped();
    let leaf = c.layout().leaf_of(line).0;
    for &(addr, _) in &written {
        let _ = c.read(addr);
    }
    c.crash();
    let rec = crate::supervisor::resume(&mut c, None).expect("the ladder serves");
    let under = (written.iter())
        .filter(|(a, _)| c.layout().leaf_of(*a).0 == leaf)
        .count() as u64;
    assert_eq!(under, 6);
    assert_eq!(
        rec.outcome,
        crate::RecoveryOutcome::Quarantined { lost_lines: under }
    );
    for &(addr, value) in &written {
        let want = if c.layout().leaf_of(addr).0 == leaf {
            Block::zeroed()
        } else {
            value
        };
        assert_eq!(c.read(addr), Ok(want), "line {}", addr.index());
    }
}

#[test]
fn a_fill_refused_mid_chain_commits_its_group_and_loses_no_acknowledged_line() {
    // The Bonsai twin of the SGX test: the parent tree node is fetched
    // and inserted (evicting dirty metadata, whose writebacks and shadow
    // entries are staged) before the damaged counter block under it is
    // refused. The group commits, so every acknowledged line not under
    // that block reads back. Two-set caches keep the tree cache full of
    // dirty nodes.
    let (mut c, written, line) = a_cold_counter_block_flipped();
    let g = c.layout().geometry().clone();
    let (leaf, _) = c.layout().leaf_of(line);

    let dirty = |c: &BonsaiController| {
        c.counter_cache_stats().dirty_evictions + c.tree_cache_stats().dirty_evictions
    };
    let evicted = dirty(&c);
    assert!(matches!(c.read(line), Err(MemError::Integrity { .. })));
    assert!(
        dirty(&c) > evicted,
        "the parent's fetch evicted dirty metadata"
    );
    for &(addr, value) in &written {
        if c.layout().leaf_of(addr).0 != leaf {
            assert_eq!(c.read(addr), Ok(value), "line {}", addr.index());
        }
    }
    // After a crash recovery rebuilds the damaged block's tracked parent
    // from it, and refuses there: the parent's untracked parent stores
    // the digest of what the block held. The ladder then retires the
    // lines under the block; every other line reads back.
    c.crash();
    assert!(
        matches!(c.recover(), Err(RecoveryError::EdgeMismatch { node, .. })
            if Some(node) == g.parent(leaf)),
        "the refusal names the rebuilt parent"
    );
    crate::supervisor::recover(&mut c).expect("the ladder serves");
    for &(addr, value) in &written {
        let under = c.layout().leaf_of(addr).0 == leaf;
        let want = if under { Block::zeroed() } else { value };
        assert_eq!(c.read(addr), Ok(want), "line {}", addr.index());
        assert_eq!(c.is_line_quarantined(addr), under, "line {}", addr.index());
    }
}
