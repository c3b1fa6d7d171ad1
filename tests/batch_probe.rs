//! The batch probe: what a served-shape 32-line batch costs the
//! controller and everything below it, on the file backend and on the
//! in-memory one side by side.
//!
//! Per family, two tenants of the small-test configuration, one over a
//! `FileBackend` image and one over a `MemBackend`, each with all of its
//! 16 384 lines written once in 512-line batches. Then `ROUNDS` rounds of
//! one batch of 32 distinct Zipf(0.9) lines, the same batch to both
//! tenants, the two taken in turn: the execute half (`write_batch_deferred`)
//! and the durable half (`barrier`) timed apart. One line per family gives
//! the median execute on each backend, their difference — what the file
//! backend's in-memory bookkeeping adds to a batch — and the median barrier
//! on the file backend. It uses only public interfaces, so the same file
//! builds against earlier revisions of the workspace for a side-by-side
//! run.
//!
//! A timing probe, so ignored by default. Run it pinned to one CPU, and
//! alternate it with the build it is compared against:
//!
//! ```text
//! taskset -c 0 cargo test --release --test batch_probe -- --ignored --nocapture
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::time::{Duration, Instant};

use anubis::{supervisor, AnubisConfig, DataAddr, Family, Reopened};
use anubis_nvm::{AnchorPolicy, Block, FileBackend, MemBackend, NvmBackend, SplitMix64};
use anubis_workloads::Zipf;

const LINES: u64 = 16_384;
const BATCH: usize = 32;
const ROUNDS: usize = 3_000;

fn boot<B: NvmBackend + 'static>(family: Family, config: &AnubisConfig, backend: B) -> Reopened<B> {
    let (mut ctrl, hint) = family.reopen(config, backend);
    supervisor::resume(ctrl.as_mut(), hint.as_ref()).expect("boot");
    let lines: Vec<u64> = (0..LINES).collect();
    for chunk in lines.chunks(512) {
        let items: Vec<_> = (chunk.iter())
            .map(|&line| (DataAddr::new(line), payload(0, line)))
            .collect();
        ctrl.write_batch(&items).expect("prefill");
    }
    ctrl
}

fn payload(op: u64, line: u64) -> Block {
    let mut rng = SplitMix64::new(op.wrapping_mul(0x9E37_79B9) ^ line);
    Block::from_words(std::array::from_fn(|_| rng.next_u64()))
}

/// Times one batch on `ctrl`: (execute, barrier).
fn timed<B: NvmBackend>(
    ctrl: &mut Reopened<B>,
    items: &[(DataAddr, Block)],
) -> (Duration, Duration) {
    let start = Instant::now();
    ctrl.write_batch_deferred(items).expect("execute");
    let executed = Instant::now();
    ctrl.barrier().expect("barrier");
    (executed - start, executed.elapsed())
}

fn median_us(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

#[test]
#[ignore = "timing probe; run with --ignored --nocapture"]
fn batch_probe() {
    let config = AnubisConfig::small_test();
    let dir = std::env::temp_dir().join(format!("anubis-batch-probe-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    println!("family            exec_file_us  exec_mem_us  file_minus_mem_us  barrier_file_us");
    for family in Family::all() {
        let image = dir.join(format!("{}.wal", family.name()));
        let backend = FileBackend::open_with_anchor(&image, config.key.0, AnchorPolicy::Strict)
            .expect("open image");
        let mut on_file = boot(family, &config, backend);
        let mut in_memory = boot(family, &config, MemBackend::new());
        let zipf = Zipf::new(LINES, 0.9);
        let mut rng = SplitMix64::new(0xBA7C_4032);
        let (mut exec_file, mut exec_mem, mut barrier_file) = (vec![], vec![], vec![]);
        for round in 0..ROUNDS {
            let mut lines = BTreeMap::new();
            while lines.len() < BATCH {
                let line = zipf.sample(&mut rng);
                lines.insert(line, payload(1 + round as u64, line));
            }
            let items: Vec<_> = (lines.into_iter())
                .map(|(line, data)| (DataAddr::new(line), data))
                .collect();
            // Alternate which backend goes first, so neither always runs
            // on a cache the other warmed.
            if round % 2 == 0 {
                let (exec, barrier) = timed(&mut on_file, &items);
                exec_file.push(exec);
                barrier_file.push(barrier);
                exec_mem.push(timed(&mut in_memory, &items).0);
            } else {
                exec_mem.push(timed(&mut in_memory, &items).0);
                let (exec, barrier) = timed(&mut on_file, &items);
                exec_file.push(exec);
                barrier_file.push(barrier);
            }
        }
        let (file, mem) = (median_us(exec_file), median_us(exec_mem));
        println!(
            "{:<17} {file:>12.1} {mem:>12.1} {:>18.1} {:>16.1}",
            family.name(),
            file - mem,
            median_us(barrier_file)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
