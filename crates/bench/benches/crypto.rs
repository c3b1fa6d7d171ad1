//! Micro-benchmarks for the cryptographic substrate: the per-operation
//! primitives whose latencies the timing model abstracts as
//! `read_ns`/`hash_ns` constants. Run with `cargo bench -p anubis-bench`.
//!
//! Ungated: nothing compares these numbers to a baseline. The gated
//! host-time rows are the ledger's (`benchmark/`, `crypto.*` probes).

use anubis_bench::time_case;
use anubis_crypto::{ecc, hash::Hasher64, otp, DataCodec, Key, Speck128, SplitCounterBlock};
use anubis_nvm::{Block, BlockAddr};
use std::hint::black_box;

fn main() {
    let key = Key([1, 2]).derive("encryption");
    // One scalar Speck block: code no kernel change touches, so its
    // spread between two trees is the noise floor of the cases below.
    let speck = Speck128::new(key);
    time_case("speck_encrypt", 100_000, || {
        black_box(speck.encrypt(black_box((7, 9))));
    });
    time_case("otp_pad_64B", 100_000, || {
        black_box(otp::pad(
            black_box(key),
            BlockAddr::new(1234),
            otp::IvCounter::split(7, 9),
        ));
    });

    let h = Hasher64::new(Key([3, 4]));
    let block = Block::filled(0x5A);
    time_case("hash64_64B", 100_000, || {
        black_box(h.hash(black_box(block.as_bytes())));
    });

    let ecc_in = Block::filled(0xA5);
    time_case("ecc_block_64B", 100_000, || {
        black_box(ecc::ecc_block(black_box(&ecc_in)));
    });

    let codec = DataCodec::new(Key([5, 6]));
    let addr = BlockAddr::new(42);
    let ctr = otp::IvCounter::split(1, 3);
    let pt = Block::filled(0x33);
    let sealed = codec.seal(addr, ctr, &pt);
    time_case("codec_seal", 100_000, || {
        black_box(codec.seal(addr, ctr, black_box(&pt)));
    });
    time_case("codec_open", 100_000, || {
        black_box(codec.open(addr, ctr, black_box(&sealed)).unwrap());
    });
    time_case("osiris_probe_miss", 100_000, || {
        black_box(codec.probe(addr, otp::IvCounter::split(1, 4), black_box(&sealed)));
    });

    // The codec's stages one by one, and the correcting open.
    let key = Key([0xFEED, 0xF00D]);
    let codec = DataCodec::new(key);
    let enc = Speck128::new(key.derive("data-otp"));
    let addr = BlockAddr::new(0x2a);
    let ctr = otp::IvCounter::split(3, 17);
    let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
    let sealed = codec.seal(addr, ctr, &pt);
    let pads = otp::pad_set_with(&enc, addr, ctr);
    time_case("otp_pad_set", 100_000, || {
        black_box(otp::pad_set_with(&enc, black_box(addr), black_box(ctr)));
    });
    time_case("data_mac", 100_000, || {
        black_box(codec.data_mac(black_box(pads.tweak), black_box(&pt)));
    });
    time_case("open_correcting_clean", 100_000, || {
        black_box(
            codec
                .open_correcting(addr, ctr, black_box(&sealed))
                .unwrap(),
        );
    });

    let mut ctr_block = SplitCounterBlock::new();
    for i in 0..64 {
        ctr_block.increment(i);
    }
    time_case("split_counter_pack_unpack", 100_000, || {
        black_box(SplitCounterBlock::from_block(black_box(
            &ctr_block.to_block(),
        )));
    });
}
