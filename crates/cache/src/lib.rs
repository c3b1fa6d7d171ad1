//! Set-associative security-metadata caches for the Anubis reproduction.
//!
//! The counter cache, Merkle-tree cache and (for SGX-style systems) the
//! combined metadata cache are all instances of [`MetadataCache`]. Two
//! properties matter beyond ordinary cache behaviour:
//!
//! * **Stable slot index.** "The position of the block in the counter
//!   cache remains fixed for its lifetime in the cache; LRU bits are
//!   typically stored and changed in the tag array" (paper §4.1). Anubis
//!   shadow tables mirror the cache's *data array*, one NVM block per
//!   cache slot, so each resident block exposes a [`SlotId`] that never
//!   changes while the block is resident.
//! * **Clean/dirty eviction accounting.** Figure 7 of the paper and the
//!   AGIT-Plus optimization both hinge on how many blocks leave the cache
//!   unmodified; [`CacheStats`] tracks this, along with first-modification
//!   events (the AGIT-Plus trigger).
//!
//! # Slot handles
//!
//! A [`SlotId`] is a handle onto the data array. Finding a block by its
//! address scans the ways of its set; that scan happens once, in
//! [`MetadataCache::lookup_slot`] (which ticks LRU and counts the hit or
//! miss), [`MetadataCache::slot_of`] (which touches neither) or
//! [`MetadataCache::insert`]. [`MetadataCache::at`],
//! [`MetadataCache::at_mut`], [`MetadataCache::mark_dirty_at`] and
//! [`MetadataCache::mark_clean_at`] then act on the slot directly. A
//! handle is valid only while its block is resident: an insert into the
//! same set may evict the block and hand the slot to another, and
//! [`MetadataCache::invalidate_all`] empties every slot. The accessors
//! panic on an empty slot, but cannot tell a reused one from the
//! original, so a caller holds a handle only across code that does not
//! insert into the cache.
//!
//! # Example
//!
//! ```
//! use anubis_cache::MetadataCache;
//! use anubis_nvm::{Block, BlockAddr};
//!
//! let mut cache: MetadataCache<Block> = MetadataCache::new(4096, 8); // 64 slots
//! let outcome = cache.insert(BlockAddr::new(1), Block::zeroed());
//! assert!(outcome.evicted.is_none());
//! let slot = cache.lookup_slot(BlockAddr::new(1)).expect("resident");
//! assert_eq!(slot, outcome.slot);
//! assert!(cache.mark_dirty_at(slot), "first modification");
//! assert!(!cache.mark_dirty_at(slot), "already dirty");
//! cache.at_mut(slot).set_word(0, 7);
//! assert_eq!(cache.at(slot).word(0), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use anubis_nvm::{BlockAddr, BLOCK_BYTES};

/// The fixed position of a resident block inside the cache data array,
/// and the handle the slot accessors take (valid while the block stays
/// resident; see the crate docs).
///
/// `SlotId` is what a shadow table indexes by: slot *k* of the cache maps
/// to block *k* of the shadow region in NVM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    set: u32,
    way: u32,
}

impl SlotId {
    fn new(set: usize, way: usize) -> Self {
        SlotId {
            set: set as u32,
            way: way as u32,
        }
    }

    /// The set index.
    pub fn set(self) -> usize {
        self.set as usize
    }

    /// The way index within the set.
    pub fn way(self) -> usize {
        self.way as usize
    }

    /// Linearizes to `set * ways + way` — the shadow-table block offset.
    pub fn linear(self, ways: usize) -> usize {
        self.set as usize * ways + self.way as usize
    }
}

/// A block displaced from the cache by an insertion or explicit eviction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Eviction<T> {
    /// Address the victim was caching.
    pub addr: BlockAddr,
    /// The cached value at eviction time.
    pub value: T,
    /// Whether the victim had been modified since it was inserted
    /// (dirty victims must be written back to NVM).
    pub dirty: bool,
    /// The slot the victim occupied (and the new block will occupy).
    pub slot: SlotId,
}

/// Result of [`MetadataCache::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertOutcome<T> {
    /// The slot the new block now occupies (stable for its residency).
    pub slot: SlotId,
    /// The displaced victim, if the slot was occupied.
    pub evicted: Option<Eviction<T>>,
}

/// Hit/miss/eviction statistics, including the clean-vs-dirty eviction
/// split reported in the paper's Figure 7.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Evictions of unmodified blocks.
    pub clean_evictions: u64,
    /// Evictions of modified blocks (require writeback).
    pub dirty_evictions: u64,
    /// Number of times a clean resident block became dirty
    /// (the AGIT-Plus shadow-write trigger).
    pub first_modifications: u64,
    /// Total `mark_dirty` calls (every metadata update).
    pub updates: u64,
    /// Insertions.
    pub fills: u64,
}

impl CacheStats {
    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.clean_evictions + self.dirty_evictions
    }

    /// Fraction of evictions that were clean, or `None` before the first
    /// eviction.
    pub fn clean_eviction_fraction(&self) -> Option<f64> {
        let total = self.evictions();
        (total > 0).then(|| self.clean_evictions as f64 / total as f64)
    }

    /// Hit rate over all lookups, or `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

#[derive(Clone, Debug)]
struct Slot<T> {
    tag: BlockAddr,
    value: T,
    dirty: bool,
    last_use: u64,
}

/// A set-associative, write-back cache for 64-byte security metadata.
///
/// Generic over the cached value type `T` so the counter cache can store
/// decoded counter blocks, the tree cache decoded nodes, etc. The cache
/// only manages residency; writebacks are the caller's responsibility via
/// the returned [`Eviction`]s.
#[derive(Clone, Debug)]
pub struct MetadataCache<T> {
    sets: Vec<Vec<Option<Slot<T>>>>,
    ways: usize,
    tick: u64,
    /// Resident blocks with the dirty bit set.
    dirty: usize,
    stats: CacheStats,
}

impl<T> MetadataCache<T> {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity
    /// and 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `64 * ways`.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        assert!(
            capacity_bytes > 0 && capacity_bytes.is_multiple_of(BLOCK_BYTES * ways),
            "capacity {capacity_bytes} B must be a positive multiple of {} B",
            BLOCK_BYTES * ways
        );
        let num_sets = capacity_bytes / BLOCK_BYTES / ways;
        MetadataCache {
            sets: (0..num_sets)
                .map(|_| (0..ways).map(|_| None).collect())
                .collect(),
            ways,
            tick: 0,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total number of slots (= shadow-table length in blocks).
    pub fn num_slots(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.num_slots() * BLOCK_BYTES
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_index(&self, addr: BlockAddr) -> usize {
        (addr.index() % self.sets.len() as u64) as usize
    }

    /// The way of `ways` (one set) holding `addr`.
    fn way_of(ways: &[Option<Slot<T>>], addr: BlockAddr) -> Option<usize> {
        ways.iter()
            .position(|s| s.as_ref().is_some_and(|s| s.tag == addr))
    }

    fn resident(&self, slot: SlotId) -> &Slot<T> {
        self.sets[slot.set()][slot.way()]
            .as_ref()
            .expect("a SlotId names a resident block")
    }

    fn resident_mut(&mut self, slot: SlotId) -> &mut Slot<T> {
        self.sets[slot.set()][slot.way()]
            .as_mut()
            .expect("a SlotId names a resident block")
    }

    /// [`MetadataCache::lookup_slot`] and the value it found. It walks the
    /// set itself and stamps the hit in place: indexing the way `way_of`
    /// returns a second time made a hit 6–7 % slower.
    fn touch(&mut self, addr: BlockAddr) -> Option<(SlotId, &mut T)> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        for (way, s) in self.sets[set].iter_mut().enumerate() {
            if let Some(resident) = s.as_mut().filter(|s| s.tag == addr) {
                resident.last_use = tick;
                self.stats.hits += 1;
                return Some((SlotId::new(set, way), &mut resident.value));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Looks up `addr`, updating LRU state and hit/miss statistics, and
    /// returns the slot it occupies.
    pub fn lookup_slot(&mut self, addr: BlockAddr) -> Option<SlotId> {
        self.touch(addr).map(|(slot, _)| slot)
    }

    /// [`MetadataCache::lookup_slot`], returning the value.
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<&mut T> {
        self.touch(addr).map(|(_, value)| value)
    }

    /// The slot of a resident block. Does not touch LRU or statistics.
    pub fn slot_of(&self, addr: BlockAddr) -> Option<SlotId> {
        let set = self.set_index(addr);
        Self::way_of(&self.sets[set], addr).map(|way| SlotId::new(set, way))
    }

    /// The value in `slot`. Does not touch LRU or statistics.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is empty; a handle whose block was evicted since
    /// may name the block that replaced it.
    pub fn at(&self, slot: SlotId) -> &T {
        &self.resident(slot).value
    }

    /// The value in `slot`, mutably. Does not touch LRU or statistics.
    ///
    /// # Panics
    ///
    /// As [`MetadataCache::at`].
    pub fn at_mut(&mut self, slot: SlotId) -> &mut T {
        &mut self.resident_mut(slot).value
    }

    /// Inserts `addr` (clean), evicting the LRU way of its set if full.
    /// If `addr` is already resident its value is replaced in place and no
    /// eviction occurs.
    pub fn insert(&mut self, addr: BlockAddr, value: T) -> InsertOutcome<T> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        self.stats.fills += 1;

        // Already resident: replace value, keep slot and dirty bit.
        if let Some(way) = Self::way_of(&self.sets[set], addr) {
            let slot = SlotId::new(set, way);
            let resident = self.resident_mut(slot);
            resident.value = value;
            resident.last_use = tick;
            return InsertOutcome {
                slot,
                evicted: None,
            };
        }

        // Free way?
        if let Some(way) = self.sets[set].iter().position(Option::is_none) {
            self.sets[set][way] = Some(Slot {
                tag: addr,
                value,
                dirty: false,
                last_use: tick,
            });
            return InsertOutcome {
                slot: SlotId::new(set, way),
                evicted: None,
            };
        }

        // Evict LRU.
        let way = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.as_ref().map(|s| s.last_use).unwrap_or(0))
            .map(|(w, _)| w)
            .expect("nonzero associativity");
        let slot_id = SlotId::new(set, way);
        let victim = self.sets[set][way]
            .replace(Slot {
                tag: addr,
                value,
                dirty: false,
                last_use: tick,
            })
            .expect("set was full");
        if victim.dirty {
            self.dirty -= 1;
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        InsertOutcome {
            slot: slot_id,
            evicted: Some(Eviction {
                addr: victim.tag,
                value: victim.value,
                dirty: victim.dirty,
                slot: slot_id,
            }),
        }
    }

    /// Inserts `addr` (clean) into the slot whose linear index is `slot`,
    /// which must be an empty way of `addr`'s own set — how a recovery
    /// puts a block back where a shadow table says it was. Returns `None`,
    /// and changes nothing, if the slot is in another set or taken, or
    /// `addr` is already resident.
    pub fn insert_at(&mut self, addr: BlockAddr, slot: usize, value: T) -> Option<SlotId> {
        let (set, way) = (slot / self.ways, slot % self.ways);
        if set != self.set_index(addr)
            || Self::way_of(&self.sets[set], addr).is_some()
            || self.sets[set][way].is_some()
        {
            return None;
        }
        self.tick += 1;
        self.stats.fills += 1;
        self.sets[set][way] = Some(Slot {
            tag: addr,
            value,
            dirty: false,
            last_use: self.tick,
        });
        Some(SlotId::new(set, way))
    }

    /// Marks the block in `slot` dirty, returning `true` if this was its
    /// *first* modification since insertion (the AGIT-Plus trigger).
    ///
    /// # Panics
    ///
    /// As [`MetadataCache::at`]: callers must fill before modifying.
    pub fn mark_dirty_at(&mut self, slot: SlotId) -> bool {
        let resident = self.resident_mut(slot);
        let first = !resident.dirty;
        resident.dirty = true;
        self.stats.updates += 1;
        if first {
            self.dirty += 1;
            self.stats.first_modifications += 1;
        }
        first
    }

    /// Clears the dirty bit of the block in `slot` (after an explicit
    /// writeback), returning whether it was dirty.
    ///
    /// # Panics
    ///
    /// As [`MetadataCache::at`].
    pub fn mark_clean_at(&mut self, slot: SlotId) -> bool {
        let resident = self.resident_mut(slot);
        let was = std::mem::replace(&mut resident.dirty, false);
        self.dirty -= usize::from(was);
        was
    }

    /// Iterates every resident block as `(slot, addr, value, dirty)` —
    /// used to model crash loss and to drain caches at shutdown.
    pub fn iter_resident(&self) -> impl Iterator<Item = (SlotId, BlockAddr, &T, bool)> + '_ {
        self.sets.iter().enumerate().flat_map(move |(set, ways)| {
            ways.iter().enumerate().filter_map(move |(way, s)| {
                s.as_ref()
                    .map(|s| (SlotId::new(set, way), s.tag, &s.value, s.dirty))
            })
        })
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.sets.iter().flatten().filter(|s| s.is_some()).count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any resident block is dirty (constant time).
    pub fn has_dirty(&self) -> bool {
        self.dirty > 0
    }

    /// Drops every resident block without writeback — the crash model
    /// (caches are volatile).
    pub fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            for slot in set.iter_mut() {
                *slot = None;
            }
        }
        self.dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_nvm::Block;

    fn cache(slots: usize, ways: usize) -> MetadataCache<u64> {
        MetadataCache::new(slots * BLOCK_BYTES, ways)
    }

    fn slot(c: &MetadataCache<u64>, a: u64) -> SlotId {
        c.slot_of(BlockAddr::new(a)).expect("resident")
    }

    fn mark_dirty(c: &mut MetadataCache<u64>, a: u64) -> bool {
        let s = slot(c, a);
        c.mark_dirty_at(s)
    }

    fn mark_clean(c: &mut MetadataCache<u64>, a: u64) -> bool {
        let s = slot(c, a);
        c.mark_clean_at(s)
    }

    fn is_dirty(c: &MetadataCache<u64>, a: u64) -> Option<bool> {
        (c.iter_resident())
            .find(|(_, addr, _, _)| *addr == BlockAddr::new(a))
            .map(|(_, _, _, dirty)| dirty)
    }

    #[test]
    fn geometry() {
        let c = cache(64, 8);
        assert_eq!(c.num_slots(), 64);
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.ways(), 8);
        assert_eq!(c.capacity_bytes(), 64 * 64);
        // Paper config: 256 KB, 8-way.
        let paper: MetadataCache<Block> = MetadataCache::new(256 * 1024, 8);
        assert_eq!(paper.num_slots(), 4096);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_capacity_panics() {
        let _ = cache(3, 2); // 192 B not a multiple of 128? it is... use odd bytes
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_multiple_capacity_panics() {
        let _: MetadataCache<u64> = MetadataCache::new(100, 1);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = cache(8, 2);
        assert!(c.lookup(BlockAddr::new(1)).is_none());
        c.insert(BlockAddr::new(1), 11);
        assert_eq!(c.lookup(BlockAddr::new(1)), Some(&mut 11));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), Some(0.5));
    }

    #[test]
    fn lookup_slot_counts_and_ticks_like_lookup() {
        let mut c = cache(2, 2); // one set
        assert_eq!(c.lookup_slot(BlockAddr::new(1)), None);
        let one = c.insert(BlockAddr::new(1), 1).slot;
        c.insert(BlockAddr::new(2), 2);
        assert_eq!(c.lookup_slot(BlockAddr::new(1)), Some(one));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        // The hit made 1 most recent: 2 is the victim.
        let ev = c.insert(BlockAddr::new(3), 3).evicted.expect("full set");
        assert_eq!(ev.addr, BlockAddr::new(2));
        assert_eq!(*c.at(one), 1);
    }

    #[test]
    fn slot_is_stable_across_hits() {
        let mut c = cache(16, 4);
        let a = BlockAddr::new(5);
        let slot = c.insert(a, 1).slot;
        for i in 0..20u64 {
            // Insert same-set blocks to churn other ways.
            c.insert(BlockAddr::new(5 + 4 * (i + 1)), i);
            c.lookup(a); // keep `a` MRU
            assert_eq!(c.slot_of(a), Some(slot), "slot moved at churn {i}");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(2, 2); // 1 set... no: 2 slots 2 ways = 1 set
        c.insert(BlockAddr::new(1), 1);
        c.insert(BlockAddr::new(2), 2);
        c.lookup(BlockAddr::new(1)); // 2 is now LRU
        let out = c.insert(BlockAddr::new(3), 3);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev.addr, BlockAddr::new(2));
    }

    #[test]
    fn clean_dirty_eviction_split() {
        let mut c = cache(2, 2);
        c.insert(BlockAddr::new(1), 1);
        c.insert(BlockAddr::new(2), 2);
        mark_dirty(&mut c, 1);
        c.insert(BlockAddr::new(3), 3); // evicts 2 (clean)
        c.insert(BlockAddr::new(4), 4); // evicts 1 (dirty, LRU after 3 churn)
        let s = c.stats();
        assert_eq!(s.clean_evictions, 1);
        assert_eq!(s.dirty_evictions, 1);
        assert_eq!(s.clean_eviction_fraction(), Some(0.5));
    }

    #[test]
    fn has_dirty_follows_every_way_a_dirty_bit_moves() {
        let mut c = cache(2, 2);
        c.insert(BlockAddr::new(1), 1);
        c.insert(BlockAddr::new(2), 2);
        assert!(!c.has_dirty());
        mark_dirty(&mut c, 1);
        mark_dirty(&mut c, 1);
        mark_dirty(&mut c, 2);
        mark_clean(&mut c, 2);
        mark_clean(&mut c, 2);
        assert!(c.has_dirty(), "block 1 is still dirty");
        c.insert(BlockAddr::new(1), 10); // in place: stays dirty
        assert!(c.has_dirty());
        c.insert(BlockAddr::new(3), 3); // evicts 2 (clean)
        c.insert(BlockAddr::new(4), 4); // evicts 1 (dirty)
        assert!(!c.has_dirty());
        mark_dirty(&mut c, 3);
        c.insert(BlockAddr::new(5), 5); // evicts 3 (dirty)
        assert!(!c.has_dirty());
        mark_dirty(&mut c, 4);
        c.invalidate_all();
        assert!(!c.has_dirty());
    }

    #[test]
    fn first_modification_detection() {
        let mut c = cache(4, 4);
        c.insert(BlockAddr::new(1), 0);
        assert!(mark_dirty(&mut c, 1));
        assert!(!mark_dirty(&mut c, 1));
        assert_eq!(c.stats().first_modifications, 1);
        assert_eq!(c.stats().updates, 2);
        // Writeback then re-dirty counts again.
        assert!(mark_clean(&mut c, 1));
        assert!(!mark_clean(&mut c, 1));
        assert!(mark_dirty(&mut c, 1));
        assert_eq!(c.stats().first_modifications, 2);
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn a_handle_to_an_emptied_slot_panics() {
        let mut c = cache(4, 4);
        let slot = c.insert(BlockAddr::new(9), 9).slot;
        c.invalidate_all();
        c.mark_dirty_at(slot);
    }

    #[test]
    fn reinsert_keeps_slot_and_dirty_bit() {
        let mut c = cache(4, 4);
        let slot = c.insert(BlockAddr::new(1), 1).slot;
        c.mark_dirty_at(slot);
        let out = c.insert(BlockAddr::new(1), 2);
        assert_eq!(out.slot, slot);
        assert!(out.evicted.is_none());
        assert_eq!(is_dirty(&c, 1), Some(true));
        assert_eq!(c.at(slot), &2);
    }

    #[test]
    fn iter_resident_and_invalidate() {
        let mut c = cache(8, 2);
        c.insert(BlockAddr::new(1), 1);
        c.insert(BlockAddr::new(2), 2);
        mark_dirty(&mut c, 2);
        let resident: Vec<_> = c.iter_resident().collect();
        assert_eq!(resident.len(), 2);
        assert!(resident
            .iter()
            .any(|(_, a, v, d)| *a == BlockAddr::new(2) && **v == 2 && *d));
        assert_eq!(c.len(), 2);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.iter_resident().count(), 0);
    }

    #[test]
    fn linear_slot_index_is_dense_and_unique() {
        let mut c = cache(16, 4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            let out = c.insert(BlockAddr::new(i), i);
            let lin = out.slot.linear(c.ways());
            assert!(lin < c.num_slots());
            assert!(seen.insert(lin), "duplicate linear slot {lin}");
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn insert_at_fills_only_an_empty_way_of_the_blocks_own_set() {
        let mut c = cache(12, 3); // 4 sets: block k lives in set k % 4
        let a = BlockAddr::new(5); // set 1: slots 3, 4 and 5
        assert_eq!(c.insert_at(a, 0, 1), None, "a slot of another set");
        assert_eq!(c.insert_at(a, 12, 1), None, "past the last slot");
        c.insert_at(BlockAddr::new(9), 3, 9).expect("an empty way");
        assert_eq!(c.insert_at(a, 3, 1), None, "a taken way");
        let slot = c.insert_at(a, 4, 1).expect("another way");
        assert_eq!(c.slot_of(a), Some(slot));
        assert_eq!(slot.linear(c.ways()), 4);
        assert_eq!(c.insert_at(a, 5, 1), None, "resident elsewhere");
        assert_eq!(c.slot_of(a).map(|s| s.linear(c.ways())), Some(4));
        assert_eq!(c.at(slot), &1);
        assert_eq!(is_dirty(&c, 5), Some(false));
    }

    #[test]
    fn slot_of_and_at_do_not_touch_stats_or_lru() {
        let mut c = cache(2, 2);
        c.insert(BlockAddr::new(1), 1);
        c.insert(BlockAddr::new(2), 2);
        let _ = c.at(slot(&c, 1));
        // 1 is still LRU because neither call promoted it.
        let ev = c.insert(BlockAddr::new(3), 3).evicted.expect("evicts");
        assert_eq!(ev.addr, BlockAddr::new(1));
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 0);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use anubis_nvm::BlockAddr;

    #[test]
    fn at_mut_mutates_without_lru_touch() {
        let mut c: MetadataCache<u64> = MetadataCache::new(2 * BLOCK_BYTES, 2);
        let one = c.insert(BlockAddr::new(1), 10).slot;
        c.insert(BlockAddr::new(2), 20);
        *c.at_mut(one) = 99;
        assert_eq!(c.at(one), &99);
        // 1 was not promoted: it is still the LRU victim.
        let ev = c.insert(BlockAddr::new(3), 30).evicted.unwrap();
        assert_eq!(ev.addr, BlockAddr::new(1));
        assert_eq!(ev.value, 99, "mutation visible in the eviction record");
    }

    #[test]
    fn single_way_cache_is_direct_mapped() {
        let mut c: MetadataCache<u64> = MetadataCache::new(4 * BLOCK_BYTES, 1);
        assert_eq!(c.num_sets(), 4);
        c.insert(BlockAddr::new(0), 1);
        // Same set (0 % 4 == 4 % 4): must evict.
        let ev = c.insert(BlockAddr::new(4), 2).evicted.unwrap();
        assert_eq!(ev.addr, BlockAddr::new(0));
        // Different set: no eviction.
        assert!(c.insert(BlockAddr::new(1), 3).evicted.is_none());
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c: MetadataCache<u64> = MetadataCache::new(2 * BLOCK_BYTES, 2);
        c.insert(BlockAddr::new(1), 7);
        c.lookup(BlockAddr::new(1));
        c.reset_stats();
        assert_eq!(c.stats().hits, 0);
        let slot = c.slot_of(BlockAddr::new(1)).expect("resident");
        assert_eq!(c.at(slot), &7);
    }
}
