//! Randomized tests: the set-associative cache against a straightforward
//! reference model, plus the stable-slot invariant Anubis depends on.
//! Driven by the in-tree [`SplitMix64`] generator; failure messages carry
//! the seed.

use anubis_cache::MetadataCache;
use anubis_nvm::{BlockAddr, SplitMix64, BLOCK_BYTES};
use std::collections::HashMap;

/// A reference model: per-set LRU lists over (addr, value, dirty).
struct RefModel {
    sets: Vec<Vec<(u64, u64, bool)>>, // MRU at the back
    ways: usize,
}

impl RefModel {
    fn new(num_sets: usize, ways: usize) -> Self {
        RefModel {
            sets: vec![Vec::new(); num_sets],
            ways,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        (addr % self.sets.len() as u64) as usize
    }

    fn lookup(&mut self, addr: u64) -> Option<u64> {
        let s = self.set_of(addr);
        if let Some(pos) = self.sets[s].iter().position(|(a, _, _)| *a == addr) {
            let entry = self.sets[s].remove(pos);
            let value = entry.1;
            self.sets[s].push(entry);
            Some(value)
        } else {
            None
        }
    }

    fn insert(&mut self, addr: u64, value: u64) -> Option<(u64, u64, bool)> {
        let s = self.set_of(addr);
        if let Some(pos) = self.sets[s].iter().position(|(a, _, _)| *a == addr) {
            let (_, _, dirty) = self.sets[s].remove(pos);
            self.sets[s].push((addr, value, dirty));
            return None;
        }
        let victim = if self.sets[s].len() == self.ways {
            Some(self.sets[s].remove(0))
        } else {
            None
        };
        self.sets[s].push((addr, value, false));
        victim
    }

    fn mark_dirty(&mut self, addr: u64) {
        let s = self.set_of(addr);
        if let Some(e) = self.sets[s].iter_mut().find(|(a, _, _)| *a == addr) {
            e.2 = true;
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Lookup(u64),
    Insert(u64, u64),
    MarkDirty(u64),
}

fn rand_ops(rng: &mut SplitMix64, max_len: u64) -> Vec<Op> {
    let len = rng.gen_range(1..max_len) as usize;
    (0..len)
        .map(|_| match rng.gen_range(0..3) {
            0 => Op::Lookup(rng.gen_range(0..64)),
            1 => Op::Insert(rng.gen_range(0..64), rng.next_u64()),
            _ => Op::MarkDirty(rng.gen_range(0..64)),
        })
        .collect()
}

/// The cache agrees with the reference model on every lookup result
/// and every eviction (victim identity and dirtiness).
#[test]
fn agrees_with_reference_model() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let ops = rand_ops(&mut rng, 200);
        let num_sets = 4;
        let ways = 2;
        let mut cache: MetadataCache<u64> = MetadataCache::new(num_sets * ways * BLOCK_BYTES, ways);
        let mut model = RefModel::new(num_sets, ways);
        for op in ops {
            match op {
                Op::Lookup(a) => {
                    let got = cache.lookup(BlockAddr::new(a)).map(|v| *v);
                    assert_eq!(got, model.lookup(a), "seed {seed}");
                }
                Op::Insert(a, v) => {
                    let out = cache.insert(BlockAddr::new(a), v);
                    let expect = model.insert(a, v);
                    match (out.evicted, expect) {
                        (None, None) => {}
                        (Some(ev), Some((ma, mv, md))) => {
                            assert_eq!(ev.addr, BlockAddr::new(ma), "seed {seed}");
                            assert_eq!(ev.value, mv, "seed {seed}");
                            assert_eq!(ev.dirty, md, "seed {seed}");
                        }
                        (a, b) => panic!("eviction mismatch (seed {seed}): {a:?} vs {b:?}"),
                    }
                }
                Op::MarkDirty(a) => {
                    if let Some(slot) = cache.slot_of(BlockAddr::new(a)) {
                        cache.mark_dirty_at(slot);
                        model.mark_dirty(a);
                    }
                }
            }
        }
    }
}

/// The Anubis invariant: a block's slot never changes while resident,
/// no matter what other traffic the cache sees.
#[test]
fn slots_are_stable_for_residents() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed ^ 0x510);
        let ops = rand_ops(&mut rng, 300);
        let mut cache: MetadataCache<u64> = MetadataCache::new(8 * 4 * BLOCK_BYTES, 4);
        let mut pinned: HashMap<u64, anubis_cache::SlotId> = HashMap::new();
        for op in ops {
            match op {
                Op::Lookup(a) => {
                    let _ = cache.lookup(BlockAddr::new(a));
                }
                Op::Insert(a, v) => {
                    let out = cache.insert(BlockAddr::new(a), v);
                    if let Some(ev) = &out.evicted {
                        pinned.remove(&ev.addr.index());
                    }
                    // Residents keep their recorded slot; new blocks pin it.
                    match pinned.get(&a) {
                        Some(slot) => assert_eq!(*slot, out.slot, "seed {seed}"),
                        None => {
                            pinned.insert(a, out.slot);
                        }
                    }
                }
                Op::MarkDirty(a) => {
                    if let Some(slot) = cache.slot_of(BlockAddr::new(a)) {
                        cache.mark_dirty_at(slot);
                    }
                }
            }
            for (addr, slot) in &pinned {
                assert_eq!(
                    cache.slot_of(BlockAddr::new(*addr)),
                    Some(*slot),
                    "seed {seed}"
                );
            }
        }
    }
}

/// Eviction accounting: clean + dirty evictions equals fills minus
/// residents (every filled block either evicted once or still here).
#[test]
fn eviction_accounting_balances() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed ^ 0xACC);
        let ops = rand_ops(&mut rng, 300);
        let mut cache: MetadataCache<u64> = MetadataCache::new(4 * 2 * BLOCK_BYTES, 2);
        let mut distinct_fills = 0u64;
        for op in ops {
            match op {
                Op::Lookup(a) => {
                    let _ = cache.lookup(BlockAddr::new(a));
                }
                Op::Insert(a, v) => {
                    if cache.slot_of(BlockAddr::new(a)).is_none() {
                        distinct_fills += 1;
                    }
                    let _ = cache.insert(BlockAddr::new(a), v);
                }
                Op::MarkDirty(a) => {
                    if let Some(slot) = cache.slot_of(BlockAddr::new(a)) {
                        cache.mark_dirty_at(slot);
                    }
                }
            }
        }
        let s = cache.stats();
        assert_eq!(
            s.evictions() + cache.len() as u64,
            distinct_fills,
            "seed {seed}, stats: {s:?}"
        );
    }
}
