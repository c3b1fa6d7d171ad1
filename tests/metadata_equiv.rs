//! Metadata-path equivalence pin: what the controllers' caches, device
//! and cost accounting do over a SPEC-like replay, as constants.
//!
//! Every Bonsai and SGX scheme replays the first ops of mcf, lbm and
//! libquantum (seed 1907, `AnubisConfig::paper()`, the traces the
//! overhead experiment and the ledger's `replay_spec` lanes run) on a
//! fresh controller per trace, and mcf once more under 8 KiB caches, so
//! that evictions — dirty ones and, for SGX, their write-back cascades —
//! are the common case rather than the rare one. One FNV-1a digest per
//! scheme folds, per replay, every metadata cache's `CacheStats`, the
//! device's read and
//! write counts per region, the `CostAccum` totals, every value read and
//! the image (`backend.entries()`, sorted by address). A change to how
//! the controllers find, fill, dirty or write back metadata — the cache
//! walk, the WPQ, the region accounting — must leave every constant
//! where it is; a failing pin prints the new digest.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_cache::CacheStats;
use anubis_nvm::{Block, NvmBackend};
use anubis_sim::campaign::{fnv1a64, FNV1A64_EMPTY};
use anubis_workloads::{spec2006, OpKind, Trace, TraceGenerator};

/// Ops replayed per trace.
const OPS: usize = 3_000;
const SEED: u64 = 1907;

/// The replays: (configuration, trace).
fn legs() -> Vec<(AnubisConfig, Trace)> {
    let paper = AnubisConfig::paper();
    let trace = |spec| TraceGenerator::new(spec, paper.capacity_bytes).generate(OPS, SEED);
    let small = paper.clone().with_cache_bytes(8 << 10);
    vec![
        (paper.clone(), trace(spec2006::mcf())),
        (paper.clone(), trace(spec2006::lbm())),
        (paper.clone(), trace(spec2006::libquantum())),
        (small, trace(spec2006::mcf())),
    ]
}

fn payload(op: u64) -> Block {
    Block::from_words([op, !op, op << 3, op ^ 0x5EED, op * 7, 1, op >> 1, 9])
}

fn fold_u64s(h: u64, values: &[u64]) -> u64 {
    values.iter().fold(h, |h, v| fnv1a64(h, &v.to_le_bytes()))
}

fn fold_cache(h: u64, s: &CacheStats) -> u64 {
    fold_u64s(
        h,
        &[
            s.hits,
            s.misses,
            s.clean_evictions,
            s.dirty_evictions,
            s.first_modifications,
            s.updates,
            s.fills,
        ],
    )
}

/// Replays `trace` on `ctrl` and folds every read reply, then the
/// device's counts, the cost totals and the image into `h`.
fn replay<C: MemoryController>(mut h: u64, ctrl: &mut C, trace: &Trace) -> u64 {
    for (i, op) in trace.ops().iter().enumerate() {
        let addr = DataAddr::new(op.addr.index());
        match op.kind {
            OpKind::Write => ctrl.write(addr, payload(i as u64)).expect("write"),
            OpKind::Read => {
                let got = ctrl.read(addr).expect("read");
                h = fnv1a64(h, got.as_bytes());
            }
        }
    }
    let stats = ctrl.domain().device().stats().snapshot();
    for (region, n) in stats.reads_by_region.iter().chain(&stats.writes_by_region) {
        h = fnv1a64(fnv1a64(h, region.as_bytes()), &n.to_le_bytes());
    }
    let cost = ctrl.total_cost();
    h = fold_u64s(
        h,
        &[
            cost.reads,
            cost.writes,
            cost.nvm_reads,
            cost.nvm_writes,
            cost.hash_ops,
            cost.bg_hash_ops,
        ],
    );
    let mut entries = ctrl.domain().device().backend().entries();
    entries.sort_by_key(|&(a, _)| a);
    for (addr, block) in &entries {
        h = fnv1a64(fnv1a64(h, &addr.to_le_bytes()), block.as_bytes());
    }
    h
}

fn bonsai_digest(scheme: BonsaiScheme, legs: &[(AnubisConfig, Trace)]) -> u64 {
    legs.iter().fold(FNV1A64_EMPTY, |h, (config, trace)| {
        let mut ctrl = BonsaiController::new(scheme, config);
        let h = replay(h, &mut ctrl, trace);
        let h = fold_cache(h, ctrl.counter_cache_stats());
        fold_cache(h, ctrl.tree_cache_stats())
    })
}

fn sgx_digest(scheme: SgxScheme, legs: &[(AnubisConfig, Trace)]) -> u64 {
    legs.iter().fold(FNV1A64_EMPTY, |h, (config, trace)| {
        let mut ctrl = SgxController::new(scheme, config);
        let h = replay(h, &mut ctrl, trace);
        fold_cache(h, ctrl.cache_stats())
    })
}

fn check(got: Vec<(&'static str, u64)>, pins: &[(&str, u64)]) {
    let moved: Vec<String> = (got.iter().zip(pins))
        .filter(|((_, g), (_, p))| g != p)
        .map(|((name, g), _)| format!("{name}: {g:#018x}"))
        .collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
    let pinned: Vec<&str> = pins.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "one pin per scheme, in order");
    assert!(moved.is_empty(), "digests moved, now {moved:#?}");
}

#[test]
fn bonsai_schemes_replay_spec_traces_as_pinned() {
    let legs = legs();
    let got = (BonsaiScheme::all_with_extras().into_iter())
        .map(|s| (s.name(), bonsai_digest(s, &legs)))
        .collect();
    check(
        got,
        &[
            ("write-back", 0x3979_9590_cb35_4f77),
            ("strict-persist", 0xe8a8_fc2c_e84e_6950),
            ("osiris", 0x830f_5f31_7b3e_9d77),
            ("agit-read", 0xbedf_5be7_37c5_1790),
            ("agit-plus", 0x14c1_f77e_0339_4cfa),
            ("ctr-write-through", 0x10de_4342_3e15_422e),
            ("lazy-write-back", 0xfef3_5b32_e0bc_fe1f),
        ],
    );
}

#[test]
fn sgx_schemes_replay_spec_traces_as_pinned() {
    let legs = legs();
    let got = (SgxScheme::all_with_extras().into_iter())
        .map(|s| (s.name(), sgx_digest(s, &legs)))
        .collect();
    check(
        got,
        &[
            ("sgx-write-back", 0xa525_b550_1e1e_87f9),
            ("sgx-eager-write-back", 0x0489_e711_06fa_4ec4),
            ("sgx-strict-persist", 0x3f36_f3f7_62d6_293d),
            ("sgx-osiris", 0xe57b_c0e9_76df_2fca),
            ("asit", 0xb58b_ad4c_2e12_0d7f),
        ],
    );
}
