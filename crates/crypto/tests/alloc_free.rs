//! Regression guard for the zero-allocation hot path: seal, open,
//! open_correcting (clean), probe, the byte and word hashes and the data
//! MAC must not touch the heap. These run millions of times per
//! recovery/replay, and an allocation per op was exactly the waste the
//! hot-path overhaul removed.
//!
//! Uses a counting wrapper around the system allocator — installing it as
//! the test binary's global allocator lets plain assertions observe every
//! heap round-trip the measured region makes. The count is per thread:
//! the tests of this binary run on parallel threads, and a process-wide
//! counter would charge one test's set-up to another's measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anubis_crypto::otp::IvCounter;
use anubis_crypto::{DataCodec, Key};
use anubis_nvm::{Block, BlockAddr};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Charges one allocation to the calling thread (`try_with`: a thread
/// that is tearing its TLS down still allocates, and must not panic).
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f` on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn counter_sees_the_measuring_threads_allocations() {
    // Positive control: a per-thread counter that counted nothing would
    // make every assertion below pass vacuously.
    let n = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}

#[test]
fn scalar_hot_path_is_allocation_free() {
    let codec = DataCodec::new(Key([0xFEED, 0xF00D]));
    let addr = BlockAddr::new(42);
    let ctr = IvCounter::split(3, 17);
    let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
    let sealed = codec.seal(addr, ctr, &pt);

    // Warm up every path once so lazy runtime setup is paid for.
    codec.open(addr, ctr, &sealed).unwrap();
    codec.open_correcting(addr, ctr, &sealed).unwrap();
    codec.probe(addr, ctr, &sealed).unwrap();

    let n = allocations_in(|| {
        for minor in 0..64u64 {
            let ctr = IvCounter::split(3, minor);
            let s = codec.seal(addr, ctr, &pt);
            assert_eq!(codec.open(addr, ctr, &s).unwrap(), pt);
            assert_eq!(codec.open_correcting(addr, ctr, &s).unwrap(), (pt, 0));
            assert_eq!(codec.probe(addr, ctr, &s).unwrap(), pt);
        }
    });
    assert_eq!(n, 0, "scalar seal/open/open_correcting/probe allocated");
}

#[test]
fn hash_words_is_allocation_free() {
    use anubis_crypto::hash::Hasher64;
    let h = Hasher64::new(Key([1, 2]).derive("tree-hash"));
    let words: Vec<u64> = (0..9).collect();
    h.hash_words(&words); // warm up
    let n = allocations_in(|| {
        for i in 0..64 {
            std::hint::black_box(h.hash_words(&words[..(i % 10)]));
        }
    });
    assert_eq!(n, 0, "hash_words allocated");
}

#[test]
fn byte_hash_and_data_mac_are_allocation_free() {
    use anubis_crypto::hash::Hasher64;
    let h = Hasher64::new(Key([1, 2]).derive("tree-hash"));
    let codec = DataCodec::new(Key([0xFEED, 0xF00D]));
    let node = Block::from_words([9, 8, 7, 6, 5, 4, 3, 2]);
    h.hash(node.as_bytes()); // warm up
    codec.data_mac(1, &node);
    let n = allocations_in(|| {
        for i in 0..64u64 {
            std::hint::black_box(h.hash(node.as_bytes()));
            std::hint::black_box(h.hash(&node.as_bytes()[..(i % 65) as usize]));
            std::hint::black_box(codec.data_mac(i, &node));
        }
    });
    assert_eq!(n, 0, "hash(&[u8]) or the data MAC allocated");
}
