//! The restart probe: how long the anchored open of a served tenant's
//! image takes, against how much memory the tenant holds and how long it
//! has run.
//!
//! The images are `crash_recover`-shaped and made in process: the
//! small-test configuration, every one of 4 096 or 16 384 lines written
//! once in 512-line batches, then cycles of 300 Zipf(0.9) scalar writes,
//! each cycle ended by a kill (the controller dropped, no flush) and the
//! next begun by a restart. After 0, 12 and 48 cycles the image is opened
//! `OPENS` times. It uses only public interfaces, so the same file builds
//! against earlier revisions of the workspace for a side-by-side run.
//!
//! A timing probe, so ignored by default. Run it pinned to one CPU, and
//! alternate it with the build it is compared against:
//!
//! ```text
//! taskset -c 0 cargo test --release --test restart_probe -- --ignored --nocapture
//! ```
//!
//! One line per (family, prefill, cycles): the median open in µs, the
//! bytes the image's directory holds and the log bytes the open walked.

use std::fs;
use std::path::Path;
use std::time::Instant;

use anubis::{supervisor, AnubisConfig, DataAddr, Family, Reopened};
use anubis_nvm::{AnchorPolicy, Block, FileBackend, NvmBackend, SplitMix64};

const PREFILLS: [u64; 2] = [4_096, 16_384];
const CYCLES: [u64; 3] = [0, 12, 48];
const WRITES_PER_CYCLE: usize = 300;
const OPENS: usize = 15;

/// The restart a served tenant makes: the anchored open, then the
/// supervisor's resume.
fn boot(family: Family, config: &AnubisConfig, image: &Path) -> Reopened<FileBackend> {
    let backend = FileBackend::open_with_anchor(image, config.key.0, AnchorPolicy::Strict)
        .expect("anchored open");
    let (mut ctrl, hint) = family.reopen(config, backend);
    supervisor::resume(ctrl.as_mut(), hint.as_ref()).expect("recovery");
    ctrl
}

/// The cumulative distribution of Zipf(`s`) over `n` ranks.
fn zipf_cdf(n: u64, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    (weights.iter())
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn payload(cycle: u64, line: u64) -> Block {
    Block::from_words([cycle, line, !cycle, !line, cycle ^ line, 0, 0, 1])
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn disk_bytes(dir: &Path) -> u64 {
    (fs::read_dir(dir).expect("list the image's directory"))
        .map(|entry| {
            entry
                .expect("a directory entry")
                .metadata()
                .expect("stat")
                .len()
        })
        .sum()
}

#[test]
#[ignore = "a timing probe: run it pinned, alternating with the build it is compared to"]
fn restart_open_probe() {
    let config = AnubisConfig::small_test();
    for family in Family::all() {
        for prefill in PREFILLS {
            let dir = std::env::temp_dir().join(format!(
                "anubis-restart-probe-{}-{}-{prefill}",
                std::process::id(),
                family.name()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("scratch dir");
            let image = dir.join("tenant.wal");
            let (cdf, mut rng) = (
                zipf_cdf(prefill, 0.9),
                SplitMix64::new(0x0AE5_7A27 ^ prefill),
            );

            let mut ctrl = boot(family, &config, &image);
            let lines: Vec<u64> = (0..prefill).collect();
            for chunk in lines.chunks(512) {
                let items: Vec<_> = (chunk.iter())
                    .map(|&line| (DataAddr::new(line), payload(0, line)))
                    .collect();
                ctrl.write_batch(&items).expect("prefill");
            }
            drop(ctrl);

            let mut done = 0;
            for cycles in CYCLES {
                while done < cycles {
                    done += 1;
                    let mut ctrl = boot(family, &config, &image);
                    for _ in 0..WRITES_PER_CYCLE {
                        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        let line = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
                        ctrl.write(DataAddr::new(line), payload(done, line))
                            .expect("cycle write");
                    }
                    drop(ctrl); // killed: no flush
                }
                let (mut us, mut walked) = (Vec::with_capacity(OPENS), 0);
                for _ in 0..OPENS {
                    let t = Instant::now();
                    let backend =
                        FileBackend::open_with_anchor(&image, config.key.0, AnchorPolicy::Strict)
                            .expect("anchored open");
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(!backend.freshness().is_violation());
                    walked = backend.wal_stats().log_bytes;
                }
                println!(
                    "probe family={} prefill={prefill} cycles={cycles} open_us={:.0} \
                     disk_bytes={} log_bytes={walked}",
                    family.name(),
                    median_us(us),
                    disk_bytes(&dir)
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
