//! Randomized property tests for the cryptographic substrate, driven by
//! the in-tree [`SplitMix64`] generator (no external dependencies; every
//! assertion message carries the seed for reproduction).

use anubis_crypto::otp::IvCounter;
use anubis_crypto::{ecc, DataCodec, Key, SgxCounterNode, SplitCounterBlock};
use anubis_crypto::{MINOR_COUNTERS_PER_BLOCK, MINOR_MAX, SGX_COUNTER_MAX};
use anubis_nvm::{Block, BlockAddr, SplitMix64};

fn rand_block(rng: &mut SplitMix64) -> Block {
    Block::from_words(core::array::from_fn(|_| rng.next_u64()))
}

/// Counter-mode seal/open is the identity for every (key, address,
/// counter, plaintext).
#[test]
fn seal_open_identity() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let codec = DataCodec::new(Key([rng.next_u64(), rng.next_u64()]));
        let addr = BlockAddr::new(rng.next_u64());
        let iv = IvCounter::split(rng.next_u64(), rng.gen_range(0..(1 << 56)));
        let pt = rand_block(&mut rng);
        let sealed = codec.seal(addr, iv, &pt);
        assert_eq!(codec.open(addr, iv, &sealed).unwrap(), pt, "seed {seed}");
    }
}

/// Decrypting with a counter that differs in the minor fails the ECC
/// sanity check (the Osiris property) — overwhelmingly.
#[test]
fn wrong_minor_fails_probe() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed ^ 0x0515);
        let codec = DataCodec::new(Key([11, 22]));
        let addr = BlockAddr::new(rng.next_u64());
        let minor = rng.gen_range(0..1000);
        let delta = rng.gen_range(1..16);
        let pt = rand_block(&mut rng);
        let sealed = codec.seal(addr, IvCounter::split(3, minor), &pt);
        let probe = codec.probe(addr, IvCounter::split(3, minor + delta), &sealed);
        assert!(probe.is_none(), "seed {seed}");
    }
}

/// Split-counter serialization round-trips for every counter state.
#[test]
fn split_counter_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed ^ 0x5011);
        let mut ctr = SplitCounterBlock::with_major(rng.next_u64());
        for i in 0..MINOR_COUNTERS_PER_BLOCK {
            ctr.advance_minor(i, rng.gen_range(0..u64::from(MINOR_MAX) + 1) as u8)
                .unwrap();
        }
        let back = SplitCounterBlock::from_block(&ctr.to_block());
        assert_eq!(back, ctr, "seed {seed}");
    }
}

/// SGX node serialization round-trips, and a seal verifies only under
/// the exact parent counter.
#[test]
fn sgx_node_roundtrip_and_freshness() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed ^ 0x59C5);
        let mac_key = anubis_crypto::hash::Hasher64::new(Key([1, 2]).derive("sgx-mac"));
        let mut node = SgxCounterNode::new();
        for i in 0..8 {
            node.set_counter(i, rng.gen_range(0..SGX_COUNTER_MAX + 1));
        }
        let pc = rng.gen_range(0..(1 << 40));
        node.seal(&mac_key, pc);
        let back = SgxCounterNode::from_block(&node.to_block());
        assert_eq!(back, node, "seed {seed}");
        assert!(back.verify(&mac_key, pc), "seed {seed}");
        assert!(!back.verify(&mac_key, pc + 1), "seed {seed}");
    }
}

/// ECC detects every single-bit corruption of a block.
#[test]
fn ecc_detects_single_bit_flips() {
    let mut rng = SplitMix64::new(0xECC);
    for bit in 0..512usize {
        let pt = rand_block(&mut rng);
        let code = ecc::ecc_block(&pt);
        let mut tampered = pt;
        tampered.flip_bit(bit);
        assert!(!ecc::check_block(&tampered, code), "bit {bit}");
    }
}

/// Ciphertexts are position-bound: the same plaintext sealed at two
/// addresses or counters yields different ciphertexts.
#[test]
fn ciphertext_uniqueness() {
    let mut rng = SplitMix64::new(0xC1FE);
    let codec = DataCodec::new(Key([3, 4]));
    for case in 0..64u64 {
        let pt = rand_block(&mut rng);
        let (a1, a2) = (rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000));
        let (m1, m2) = (rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000));
        if a1 == a2 && m1 == m2 {
            continue;
        }
        let s1 = codec.seal(BlockAddr::new(a1), IvCounter::split(0, m1), &pt);
        let s2 = codec.seal(BlockAddr::new(a2), IvCounter::split(0, m2), &pt);
        assert_ne!(s1.ciphertext, s2.ciphertext, "case {case}");
    }
}

/// Speck decrypt ∘ encrypt is the identity for arbitrary keys/blocks.
#[test]
fn speck_roundtrip() {
    let mut rng = SplitMix64::new(0x5BEC);
    for case in 0..128u64 {
        let cipher = anubis_crypto::Speck128::new(Key([rng.next_u64(), rng.next_u64()]));
        let pt = (rng.next_u64(), rng.next_u64());
        assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt, "case {case}");
    }
}

/// Key derivation is injective-in-practice over purposes: distinct
/// purpose strings give distinct keys (collision would break domain
/// separation between encryption/MAC/tree keys).
#[test]
fn derive_distinct_purposes() {
    let mut rng = SplitMix64::new(0xDE51);
    let alphabet: Vec<char> = ('a'..='z').collect();
    let rand_purpose = |rng: &mut SplitMix64| -> String {
        let len = rng.gen_range(1..13) as usize;
        (0..len)
            .map(|_| alphabet[rng.gen_index(alphabet.len())])
            .collect()
    };
    for case in 0..64u64 {
        let m = Key([rng.next_u64(), rng.next_u64()]);
        let a = rand_purpose(&mut rng);
        let b = rand_purpose(&mut rng);
        if a == b {
            continue;
        }
        assert_ne!(m.derive(&a), m.derive(&b), "case {case}: {a} vs {b}");
    }
}

/// ECC is a pure function of the data: re-encoding is stable and
/// block-level check accepts exactly the original.
#[test]
fn ecc_stability() {
    let mut rng = SplitMix64::new(0xECC2);
    for case in 0..64u64 {
        let pt = rand_block(&mut rng);
        let c1 = ecc::ecc_block(&pt);
        let c2 = ecc::ecc_block(&pt);
        assert_eq!(c1, c2, "case {case}");
        assert!(ecc::check_block(&pt, c1), "case {case}");
    }
}

/// Every two-word flip pattern: words `i < j` of `n`, one bit of each
/// from the low, middle, SGX-top (55) and top (63) positions. The top
/// pair is the one two xor-multiply lanes let through unchanged.
fn two_word_flips(n: usize) -> impl Iterator<Item = (usize, u32, usize, u32)> {
    const BITS: [u32; 4] = [0, 31, 55, 63];
    (0..n).flat_map(move |i| {
        (i + 1..n).flat_map(move |j| {
            BITS.iter()
                .flat_map(move |&a| BITS.iter().map(move |&b| (i, a, j, b)))
        })
    })
}

/// Any two flipped words move the SGX node MAC (eight counters and the
/// parent counter) and the data MAC.
#[test]
fn two_word_flips_change_the_sgx_mac_and_the_data_mac() {
    let mac_key = anubis_crypto::hash::Hasher64::new(Key([1, 2]).derive("sgx-mac"));
    let words: [u64; 9] = core::array::from_fn(|i| (i as u64 + 1) * 0x0101_0101_0101);
    let node = |w: &[u64; 9]| {
        SgxCounterNode::compute_mac(&mac_key, w[..8].try_into().expect("8 counters"), w[8])
    };
    let base = node(&words);
    for (i, a, j, b) in two_word_flips(9) {
        let mut w = words;
        w[i] ^= 1 << a;
        w[j] ^= 1 << b;
        assert_ne!(
            node(&w),
            base,
            "SGX MAC: word {i} bit {a}, word {j} bit {b}"
        );
    }

    let codec = DataCodec::new(Key([3, 4]));
    let pt: [u64; 8] = core::array::from_fn(|i| !(i as u64) << 40);
    let base = codec.data_mac(0x7EA5, &Block::from_words(pt));
    for (i, a, j, b) in two_word_flips(8) {
        let mut w = pt;
        w[i] ^= 1 << a;
        w[j] ^= 1 << b;
        let mac = codec.data_mac(0x7EA5, &Block::from_words(w));
        assert_ne!(mac, base, "data MAC: word {i} bit {a}, word {j} bit {b}");
    }
}
