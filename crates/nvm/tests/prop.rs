//! Randomized property tests for the persistence domain: commit-group
//! atomicity under arbitrary crash points, and WPQ/ADR semantics.
//!
//! Driven by the in-tree [`SplitMix64`] generator (the workspace builds
//! offline, so no external property-testing framework): each property is
//! checked over many independently seeded random cases, and every failure
//! message carries the seed for exact reproduction.

use anubis_nvm::{
    Block, BlockAddr, MemBackend, NvmBackend, NvmDevice, PersistenceDomain, SplitMix64, Wpq,
    WriteOp,
};
use std::collections::HashMap;

fn rand_block(rng: &mut SplitMix64) -> Block {
    Block::from_words(core::array::from_fn(|_| rng.next_u64()))
}

/// One scripted group of writes: (addresses, fill values).
fn rand_group(rng: &mut SplitMix64) -> Vec<(u64, Block)> {
    let len = rng.gen_range(1..6) as usize;
    (0..len)
        .map(|_| (rng.gen_range(0..64), rand_block(rng)))
        .collect()
}

/// Whatever sequence of groups commits, a crash+power-up leaves the
/// device holding exactly the last committed value of every address —
/// never a torn mixture.
#[test]
fn committed_groups_are_atomic() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let mut domain = PersistenceDomain::new(1 << 20);
        let mut model = HashMap::new();
        let n_groups = rng.gen_range(1..20) as usize;
        for _ in 0..n_groups {
            let group = rand_group(&mut rng);
            let ops: Vec<WriteOp> = group
                .iter()
                .map(|(a, b)| WriteOp::new(BlockAddr::new(*a), *b))
                .collect();
            domain.commit_group(ops).expect("groups are small");
            for (a, b) in group {
                model.insert(a, b);
            }
        }
        domain.power_fail();
        domain.power_up();
        for (a, b) in &model {
            assert_eq!(
                domain.device().peek(BlockAddr::new(*a)),
                *b,
                "seed {seed} addr {a}"
            );
        }
    }
}

/// A group lost while staging (before DONE_BIT) leaves no trace; a
/// group interrupted while draining is REDOne completely.
#[test]
fn in_flight_groups_all_or_nothing() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed ^ 0xD00D);
        let group = rand_group(&mut rng);
        let drained_before_crash = rng.gen_range(0..8) as usize;
        let set_done = rng.gen_bool(0.5);

        let mut domain = PersistenceDomain::new(1 << 20);
        for (a, b) in &group {
            domain
                .pregs_mut()
                .stage(WriteOp::new(BlockAddr::new(*a), *b));
        }
        if set_done {
            domain.pregs_mut().set_done();
            let drained =
                domain.pregs_mut().entries()[..drained_before_crash.min(group.len())].to_vec();
            for op in drained {
                // Simulate partial WPQ insertion by writing directly.
                domain.device_mut().write(op.addr, op.block);
            }
        }
        domain.power_fail();
        domain.power_up();
        // All-or-nothing: either every address holds its group value, or
        // (staging crash) none were REDOne — partially drained groups must
        // complete.
        let mut last = HashMap::new();
        for (a, b) in &group {
            last.insert(*a, *b);
        }
        if set_done {
            for (a, b) in &last {
                assert_eq!(
                    domain.device().peek(BlockAddr::new(*a)),
                    *b,
                    "seed {seed} addr {a}"
                );
            }
        }
        // If !set_done, addresses may be zero or partially written by the
        // simulated pre-drain — but DONE_BIT was never set, so the REDO
        // log itself must be empty:
        assert!(domain.pregs_mut().is_empty(), "seed {seed}");
    }
}

/// WPQ coalescing never loses the newest value.
#[test]
fn wpq_read_after_write_consistency() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed ^ 0xBEEF);
        let mut domain = PersistenceDomain::new(1 << 20);
        let mut model = HashMap::new();
        let n_ops = rng.gen_range(1..40) as usize;
        for _ in 0..n_ops {
            let a = rng.gen_range(0..16);
            let b = rand_block(&mut rng);
            domain
                .commit_group([WriteOp::new(BlockAddr::new(a), b)])
                .unwrap();
            model.insert(a, b);
            // Read through the WPQ without draining.
            assert_eq!(domain.read(BlockAddr::new(a)).unwrap(), b, "seed {seed}");
        }
        for (a, b) in &model {
            assert_eq!(
                domain.read(BlockAddr::new(*a)).unwrap(),
                *b,
                "seed {seed} addr {a}"
            );
        }
    }
}

/// The ADR guarantee under randomized op sequences: every write accepted
/// into the WPQ before `power_fail()` reaches the device afterwards, a
/// full queue force-drains its oldest entry (occupancy never exceeds
/// capacity), and pending lookups always serve the newest value.
#[test]
fn wpq_adr_guarantee_under_random_sequences() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed ^ 0xADF0);
        let capacity = rng.gen_range(1..9) as usize;
        let mut dev = NvmDevice::new(1 << 20);
        let mut wpq = Wpq::new(capacity);
        // What the persistent domain must hold after ADR: every accepted
        // write's newest value (whether still queued or force-drained).
        let mut accepted: HashMap<u64, Block> = HashMap::new();
        let n_ops = rng.gen_range(10..120) as usize;
        for _ in 0..n_ops {
            let addr = rng.gen_range(0..24);
            let block = rand_block(&mut rng);
            wpq.insert(WriteOp::new(BlockAddr::new(addr), block), &mut dev);
            accepted.insert(addr, block);
            assert!(
                wpq.len() <= capacity,
                "occupancy bound violated, seed {seed}"
            );
            if let Some(b) = accepted.get(&addr) {
                let visible = wpq
                    .pending(BlockAddr::new(addr))
                    .unwrap_or_else(|| dev.peek(BlockAddr::new(addr)));
                assert_eq!(visible, *b, "newest value lost, seed {seed}");
            }
        }
        // Power failure: ADR flushes the queue.
        wpq.flush(&mut dev);
        assert!(wpq.is_empty(), "seed {seed}");
        for (a, b) in &accepted {
            assert_eq!(
                dev.peek(BlockAddr::new(*a)),
                *b,
                "accepted write lost across power_fail, seed {seed} addr {a}"
            );
        }
        // Sanity: small queues under 120 ops must actually force a drain
        // at least once (guards against a vacuous test).
        if capacity == 1 && n_ops > 40 {
            assert!(wpq.forced_drains() > 0, "no forced drain, seed {seed}");
        }
    }
}

/// A backend that logs every counted store in order — the writes a WPQ
/// drains into its device.
#[derive(Debug, Default)]
struct DrainLog {
    inner: MemBackend,
    drained: Vec<(u64, Block)>,
}

impl NvmBackend for DrainLog {
    fn load(&self, phys: u64) -> Option<Block> {
        self.inner.load(phys)
    }
    fn store(&mut self, phys: u64, block: Block) {
        self.inner.store(phys, block);
    }
    fn store_counted(&mut self, phys: u64, block: Block) -> u64 {
        self.drained.push((phys, block));
        self.inner.store_counted(phys, block)
    }
    fn writes_to(&self, phys: u64) -> u64 {
        self.inner.writes_to(phys)
    }
    fn touched(&self) -> usize {
        self.inner.touched()
    }
    fn entries(&self) -> Vec<(u64, Block)> {
        self.inner.entries()
    }
    fn store_reg(&mut self, idx: u8, block: Block) {
        self.inner.store_reg(idx, block);
    }
    fn reg(&self, idx: u8) -> Option<Block> {
        self.inner.reg(idx)
    }
    fn regs(&self) -> Vec<(u8, Block)> {
        self.inner.regs()
    }
}

/// The queue the WPQ must behave as: a `Vec`, oldest first, scanned on
/// every probe.
struct NaiveWpq {
    entries: Vec<(u64, Block)>,
    capacity: usize,
    forced_drains: u64,
    drained: Vec<(u64, Block)>,
}

impl NaiveWpq {
    fn insert(&mut self, addr: u64, block: Block) {
        if let Some(entry) = self.entries.iter_mut().find(|(a, _)| *a == addr) {
            entry.1 = block;
            return;
        }
        if self.entries.len() == self.capacity {
            self.drained.push(self.entries.remove(0));
            self.forced_drains += 1;
        }
        self.entries.push((addr, block));
    }

    fn flush(&mut self) {
        self.drained.append(&mut self.entries);
    }

    fn pending(&self, addr: u64) -> Option<Block> {
        (self.entries.iter())
            .find(|(a, _)| *a == addr)
            .map(|&(_, b)| b)
    }
}

/// The WPQ against [`NaiveWpq`] over seeded runs of fresh inserts,
/// coalescing inserts, forced drains and flushes: after every step the
/// two agree on `len`, `forced_drains`, the writes drained so far (in
/// order) and `pending` for an arbitrary address and a queued one (every
/// queued one each eighth step). The
/// capacities run from one entry to 300, more than a `u8` per index
/// bucket could count; addresses come at strides of 1, 64 and 4 096
/// blocks, so they share index buckets in every pattern.
#[test]
fn wpq_agrees_with_a_naive_queue() {
    for capacity in [1usize, 32, 300] {
        let (mut runs_flushed, mut runs_forced) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = SplitMix64::new(seed ^ 0x3A9 ^ ((capacity as u64) << 24));
            let mut dev = NvmDevice::with_backend(1 << 40, DrainLog::default());
            let mut wpq = Wpq::new(capacity);
            let mut naive = NaiveWpq {
                entries: Vec::new(),
                capacity,
                forced_drains: 0,
                drained: Vec::new(),
            };
            let stride = [1, 64, 4096][rng.gen_range(0..3) as usize];
            let space = 2 * capacity as u64 + 8;
            let at = |what: &str| format!("capacity {capacity}, seed {seed}: {what}");
            let mut flushes = 0;
            for step in 0..6 * capacity + 64 {
                // About one flush per three queue lengths of inserts.
                if rng.gen_range(0..3 * capacity as u64 + 16) == 0 {
                    wpq.flush(&mut dev);
                    naive.flush();
                    flushes += 1;
                } else {
                    let block = rand_block(&mut rng);
                    let addr = if rng.gen_bool(0.3) && !naive.entries.is_empty() {
                        let i = rng.gen_range(0..naive.entries.len() as u64) as usize;
                        naive.entries[i].0 // coalesces
                    } else {
                        rng.gen_range(0..space) * stride
                    };
                    wpq.insert(WriteOp::new(BlockAddr::new(addr), block), &mut dev);
                    naive.insert(addr, block);
                }
                assert_eq!(wpq.len(), naive.entries.len(), "{}", at("len"));
                assert_eq!(wpq.forced_drains(), naive.forced_drains, "{}", at("drains"));
                assert_eq!(
                    dev.backend().drained.len(),
                    naive.drained.len(),
                    "{}",
                    at("drained count")
                );
                assert_eq!(
                    dev.backend().drained.last(),
                    naive.drained.last(),
                    "{}",
                    at("last drained write")
                );
                // Every eighth step, every queued address; otherwise one.
                let queued: Vec<u64> = if step % 8 == 0 {
                    naive.entries.iter().map(|&(a, _)| a).collect()
                } else {
                    let i = rng.gen_range(0..naive.entries.len().max(1) as u64) as usize;
                    naive.entries.get(i).map(|&(a, _)| a).into_iter().collect()
                };
                let probe = rng.gen_range(0..space) * stride;
                for addr in queued.into_iter().chain([probe]) {
                    assert_eq!(
                        wpq.pending(BlockAddr::new(addr)),
                        naive.pending(addr),
                        "{}",
                        at(&format!("pending({addr})"))
                    );
                }
            }
            wpq.flush(&mut dev);
            naive.flush();
            assert!(wpq.is_empty(), "{}", at("flushed"));
            assert_eq!(
                dev.backend().drained,
                naive.drained,
                "{}",
                at("drain order")
            );
            runs_flushed += u64::from(flushes > 0);
            runs_forced += u64::from(naive.forced_drains > 0);
        }
        // Guards against a vacuous run: most runs both fill the queue and
        // flush it mid-run.
        assert!(
            runs_flushed >= 8,
            "capacity {capacity}: {runs_flushed} runs flushed"
        );
        assert!(
            runs_forced >= 8,
            "capacity {capacity}: {runs_forced} runs drained"
        );
    }
}

/// Entries accepted into the *persistence domain* before `power_fail()`
/// are always on the device afterwards — the end-to-end ADR property.
#[test]
fn domain_writes_survive_power_fail_without_power_up() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let mut domain = PersistenceDomain::new(1 << 20);
        let mut model = HashMap::new();
        for _ in 0..rng.gen_range(1..60) {
            let a = rng.gen_range(0..48);
            let b = rand_block(&mut rng);
            domain
                .commit_group([WriteOp::new(BlockAddr::new(a), b)])
                .unwrap();
            model.insert(a, b);
        }
        domain.power_fail();
        // No power_up: ADR alone must have persisted everything acked.
        for (a, b) in &model {
            assert_eq!(
                domain.device().peek(BlockAddr::new(*a)),
                *b,
                "seed {seed} addr {a}"
            );
        }
    }
}

/// Region allocation is a partition: every block belongs to at most
/// one region and lookups agree with containment.
#[test]
fn regions_partition_address_space() {
    use anubis_nvm::RegionAllocator;
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(seed ^ 0x9A9A);
        let names: &[&'static str] = &["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let n_regions = rng.gen_range(1..10) as usize;
        let sizes: Vec<u64> = (0..n_regions).map(|_| rng.gen_range(1..100)).collect();
        let mut alloc = RegionAllocator::new();
        let regions: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| alloc.alloc(names[i], len))
            .collect();
        let total = alloc.total_blocks();
        assert_eq!(total, sizes.iter().sum::<u64>());
        for probe in 0..total {
            let addr = BlockAddr::new(probe);
            let containing: Vec<_> = regions.iter().filter(|r| r.contains(addr)).collect();
            assert_eq!(containing.len(), 1, "block {probe} regions, seed {seed}");
            assert_eq!(
                alloc.region_of(addr).map(|r| r.name()),
                Some(containing[0].name()),
                "seed {seed}"
            );
        }
        assert!(alloc.region_of(BlockAddr::new(total)).is_none());
    }
}

/// Block word accessors are a bijection with the byte view.
#[test]
fn block_words_and_bytes_agree() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed ^ 0xB10C);
        let words: [u64; 8] = core::array::from_fn(|_| rng.next_u64());
        let b = Block::from_words(words);
        assert_eq!(b.words(), words);
        let b2 = Block::from_bytes(*b.as_bytes());
        assert_eq!(b2, b);
        // XOR identity and self-inverse.
        let k = Block::from_words(words.map(|w| w.rotate_left(13)));
        assert_eq!(b.xored(&k).xored(&k), b);
    }
}
