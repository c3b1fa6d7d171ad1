//! Micro-benchmarks for the memory-controller data paths: the
//! simulator-side cost of one read/write per scheme (not the modeled NVM
//! time — the host cost of simulating it), and of one 32-line
//! `write_batch` per family over the in-memory backend, so without the
//! durable barrier a served batch also pays. Run with
//! `cargo bench -p anubis-bench`.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_bench::time_case;
use anubis_nvm::{Block, SplitMix64};
use anubis_workloads::Zipf;
use std::hint::black_box;

/// Lines per batch in the `*_write_batch32` cases.
const BATCH_LINES: usize = 32;

/// Batches of [`BATCH_LINES`] Zipf(0.9) lines over the first `lines`
/// lines, ranks scattered by an odd multiplier so hot lines do not share
/// counter blocks. Drawn up front, so the timed loop only cycles them.
fn zipf_batches(lines: u64, count: usize) -> Vec<Vec<(DataAddr, Block)>> {
    let zipf = Zipf::new(lines, 0.9);
    let mut rng = SplitMix64::new(0xBA7C);
    let mul = rng.next_u64() | 1;
    (0..count)
        .map(|_| {
            (0..BATCH_LINES)
                .map(|_| {
                    let line = zipf.sample(&mut rng).wrapping_mul(mul) % lines;
                    (DataAddr::new(line), Block::filled(line as u8))
                })
                .collect()
        })
        .collect()
}

fn main() {
    let config = AnubisConfig::small_test();

    for scheme in BonsaiScheme::all() {
        let mut ctrl = BonsaiController::new(scheme, &config);
        let mut i = 0u64;
        time_case(&format!("bonsai_write/{}", scheme.name()), 20_000, || {
            i = (i + 97) % 4000;
            ctrl.write(DataAddr::new(black_box(i)), Block::filled(i as u8))
                .unwrap();
        });
    }

    for scheme in [BonsaiScheme::WriteBack, BonsaiScheme::AgitPlus] {
        let mut ctrl = BonsaiController::new(scheme, &config);
        for i in 0..1000u64 {
            ctrl.write(DataAddr::new(i), Block::filled(i as u8))
                .unwrap();
        }
        let mut i = 0u64;
        time_case(&format!("bonsai_read/{}", scheme.name()), 20_000, || {
            i = (i + 131) % 1000;
            ctrl.read(DataAddr::new(black_box(i))).unwrap();
        });
    }

    for scheme in SgxScheme::all() {
        let mut ctrl = SgxController::new(scheme, &config);
        let mut i = 0u64;
        time_case(&format!("sgx_write/{}", scheme.name()), 20_000, || {
            i = (i + 97) % 4000;
            ctrl.write(DataAddr::new(black_box(i)), Block::filled(i as u8))
                .unwrap();
        });
    }

    let batches = zipf_batches(16 * 1024, 256);
    let mut bonsai = BonsaiController::new(BonsaiScheme::AgitPlus, &config);
    let mut sgx = SgxController::new(SgxScheme::Asit, &config);
    let mut i = 0;
    time_case("bonsai_write_batch32/agit-plus", 2_000, || {
        i = (i + 1) % batches.len();
        bonsai.write_batch(black_box(&batches[i])).unwrap();
    });
    time_case("sgx_write_batch32/asit", 2_000, || {
        i = (i + 1) % batches.len();
        sgx.write_batch(black_box(&batches[i])).unwrap();
    });
}
