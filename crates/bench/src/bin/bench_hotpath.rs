//! Hot-path component benchmark + regression gate.
//!
//! Times every component of the secure-memory data path on the host —
//! crypto seal/open, the data MAC, OTP pad generation, SEC-DED ECC,
//! counter-cache hits, tree-node digests, device commits, and full
//! controller read/write for both tree families — and emits the
//! per-component ns breakdown to `BENCH_hotpath.json` (override with
//! `--out PATH`).
//!
//! `--check [BASELINE]` (default `BENCH_hotpath.json`) re-times the
//! components and fails (exit 1) if any regresses more than 10% against
//! the committed baseline. Comparisons use speck-normalized units
//! (`per_speck` = component ns / calibration Speck-encrypt ns), so the
//! gate tracks algorithmic regressions rather than host speed.
//!
//! `--smoke` (or `ANUBIS_SMOKE=1`) shortens the timed loops.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_bench::json::{self, Json};
use anubis_bench::{host_info_json, out_path_from_args};
use anubis_crypto::ecc::ecc_block;
use anubis_crypto::hash::Hasher64;
use anubis_crypto::otp::{self, IvCounter};
use anubis_crypto::{DataCodec, Key, MacCache, Speck128};
use anubis_nvm::{Block, BlockAddr, PersistenceDomain, WriteOp};
use std::hint::black_box;
use std::time::Instant;

/// Allowed relative growth of a component's speck-normalized cost before
/// the gate fails.
const REGRESSION_TOLERANCE: f64 = 0.10;
/// Absolute slack in speck units, so scheduler jitter on cheap components
/// (a fraction of one Speck call) cannot trip the relative gate.
const ABSOLUTE_SLACK: f64 = 0.5;

struct Timed {
    name: &'static str,
    ns_per_op: f64,
}

/// Best-of-5 wall-clock of `iters` calls, after a warmup pass. Best-of
/// (not mean) discards scheduler preemptions and frequency dips, which
/// dominate run-to-run variance on shared/single-core hosts — exactly the
/// noise the regression gate must see through.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 5 + 1 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
        if ns < best {
            best = ns;
        }
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = anubis_bench::smoke_requested();
    let check = args.iter().position(|a| a == "--check").map(|pos| {
        args.get(pos + 1)
            .filter(|next| !next.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_hotpath.json".to_string())
    });

    // Iteration counts: micro ops are nanoseconds each, controller ops
    // are microseconds each.
    let (micro, ctrl_iters, batch_rounds) = if smoke {
        (20_000u32, 2_000u32, 200u32)
    } else {
        (200_000u32, 20_000u32, 2_000u32)
    };

    println!("== Anubis reproduction :: hot-path component benchmark ==");
    println!(
        "mode: {}, micro iters {micro}, controller iters {ctrl_iters}",
        if smoke { "smoke" } else { "full" }
    );

    let key = Key([0xFEED, 0xF00D]);
    let codec = DataCodec::new(key);
    let enc = Speck128::new(key.derive("data-otp"));
    let tree_hasher = Hasher64::new(key.derive("tree-hash"));
    let addr = BlockAddr::new(0x2a);
    let ctr = IvCounter::split(3, 17);
    let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
    let sealed = codec.seal(addr, ctr, &pt);
    let pads = otp::pad_set_with(&enc, addr, ctr);

    // --- calibration -------------------------------------------------
    // Oversampled relative to the other components: every per-speck
    // ratio divides by this number, so its jitter multiplies everything.
    let speck_ns = {
        let mut x = (1u64, 2u64);
        time_ns(micro.saturating_mul(4), || {
            x = enc.encrypt(black_box(x));
        })
    };
    println!("calibration: speck encrypt {speck_ns:.1} ns");

    // --- crypto micro components ------------------------------------
    let mut components = Vec::new();
    components.push(Timed {
        name: "otp_pad_set",
        ns_per_op: time_ns(micro, || {
            black_box(otp::pad_set_with(&enc, black_box(addr), black_box(ctr)));
        }),
    });
    components.push(Timed {
        name: "ecc_block",
        ns_per_op: time_ns(micro, || {
            black_box(ecc_block(black_box(&pt)));
        }),
    });
    components.push(Timed {
        name: "data_mac",
        ns_per_op: time_ns(micro, || {
            black_box(codec.data_mac(black_box(pads.tweak), black_box(&pt)));
        }),
    });
    components.push(Timed {
        name: "hasher64_block",
        ns_per_op: time_ns(micro, || {
            black_box(tree_hasher.hash_words(black_box(&pt.words())));
        }),
    });
    components.push(Timed {
        name: "seal",
        ns_per_op: time_ns(micro, || {
            black_box(codec.seal(black_box(addr), black_box(ctr), black_box(&pt)));
        }),
    });
    components.push(Timed {
        name: "open",
        ns_per_op: time_ns(micro, || {
            black_box(codec.open(black_box(addr), black_box(ctr), black_box(&sealed)))
                .expect("clean open");
        }),
    });
    components.push(Timed {
        name: "open_correcting_clean",
        ns_per_op: time_ns(micro, || {
            black_box(codec.open_correcting(black_box(addr), black_box(ctr), black_box(&sealed)))
                .expect("clean correcting open");
        }),
    });
    {
        let mut cache = MacCache::default();
        codec
            .open_correcting_cached(&mut cache, addr, ctr, &sealed)
            .expect("prime mac cache");
        components.push(Timed {
            name: "open_cached_hit",
            ns_per_op: time_ns(micro, || {
                black_box(
                    codec
                        .open_correcting_cached(&mut cache, addr, ctr, black_box(&sealed))
                        .expect("cached open"),
                );
            }),
        });
    }

    // --- batch path (per-op at a commit-group-sized batch) -----------
    {
        let items: Vec<(BlockAddr, IvCounter, Block)> = (0..64u64)
            .map(|i| {
                (
                    BlockAddr::new(i),
                    IvCounter::split(2, i),
                    Block::filled(i as u8),
                )
            })
            .collect();
        let mut out = Vec::new();
        codec.seal_batch_into(&items, &mut out);
        let to_open: Vec<(BlockAddr, IvCounter, anubis_crypto::SealedBlock)> = items
            .iter()
            .zip(&out)
            .map(|((a, c, _), s)| (*a, *c, *s))
            .collect();
        let mut opened = Vec::new();
        components.push(Timed {
            name: "seal_batch64_per_op",
            ns_per_op: time_ns(batch_rounds, || {
                codec.seal_batch_into(black_box(&items), &mut out);
            }) / 64.0,
        });
        components.push(Timed {
            name: "open_batch64_per_op",
            ns_per_op: time_ns(batch_rounds, || {
                codec.open_batch_into(black_box(&to_open), &mut opened);
            }) / 64.0,
        });
    }

    // --- counter cache hit -------------------------------------------
    {
        let mut cache: anubis_cache::MetadataCache<u64> = anubis_cache::MetadataCache::new(4096, 4);
        for i in 0..16u64 {
            cache.insert(BlockAddr::new(i), i);
        }
        components.push(Timed {
            name: "counter_cache_hit",
            ns_per_op: time_ns(micro, || {
                black_box(cache.peek(black_box(BlockAddr::new(7))));
            }),
        });
    }

    // --- tree update unit (one node re-digest) ------------------------
    {
        let node = Block::from_words([9, 8, 7, 6, 5, 4, 3, 2]);
        components.push(Timed {
            name: "tree_node_digest",
            ns_per_op: time_ns(micro, || {
                black_box(tree_hasher.hash(black_box(node.as_bytes())));
            }),
        });
    }

    // --- device write (one-op commit group through WPQ + ADR) ---------
    {
        let mut domain: PersistenceDomain = PersistenceDomain::new(1 << 20);
        let block = Block::filled(0x5a);
        components.push(Timed {
            name: "device_commit_write",
            ns_per_op: time_ns(ctrl_iters, || {
                domain
                    .commit_group(vec![WriteOp::new(BlockAddr::new(12), black_box(block))])
                    .expect("commit");
            }),
        });
    }

    // --- controller-level ops -----------------------------------------
    let cfg = AnubisConfig::small_test();
    {
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        let mut i = 0u64;
        components.push(Timed {
            name: "ctrl_write_agit_plus",
            ns_per_op: time_ns(ctrl_iters, || {
                c.write(DataAddr::new(i % 256), black_box(pt))
                    .expect("write");
                i += 1;
            }),
        });
        let mut j = 0u64;
        components.push(Timed {
            name: "ctrl_read_agit_plus",
            ns_per_op: time_ns(ctrl_iters, || {
                black_box(c.read(DataAddr::new(j % 256)).expect("read"));
                j += 1;
            }),
        });
        let items: Vec<(DataAddr, Block)> =
            (0..32u64).map(|k| (DataAddr::new(k % 256), pt)).collect();
        components.push(Timed {
            name: "ctrl_write_batch32_agit_plus",
            ns_per_op: time_ns(ctrl_iters / 32 + 1, || {
                c.write_batch(black_box(&items)).expect("write_batch");
            }) / 32.0,
        });
    }
    {
        let mut c = SgxController::new(SgxScheme::Asit, &cfg);
        let mut i = 0u64;
        components.push(Timed {
            name: "ctrl_write_asit",
            ns_per_op: time_ns(ctrl_iters, || {
                c.write(DataAddr::new(i % 256), black_box(pt))
                    .expect("write");
                i += 1;
            }),
        });
        let mut j = 0u64;
        components.push(Timed {
            name: "ctrl_read_asit",
            ns_per_op: time_ns(ctrl_iters, || {
                black_box(c.read(DataAddr::new(j % 256)).expect("read"));
                j += 1;
            }),
        });
    }

    // --- report --------------------------------------------------------
    println!("\n{:<30} {:>12} {:>12}", "component", "ns/op", "per-speck");
    let row_json = |t: &Timed| {
        println!(
            "{:<30} {:>12.1} {:>12.2}",
            t.name,
            t.ns_per_op,
            t.ns_per_op / speck_ns
        );
        Json::obj(vec![
            ("name", Json::Str(t.name.into())),
            ("ns_per_op", Json::Num(t.ns_per_op)),
            ("per_speck", Json::Num(t.ns_per_op / speck_ns)),
        ])
    };
    let component_rows: Vec<Json> = components.iter().map(&row_json).collect();

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("hotpath".into())),
        ("smoke", Json::Bool(smoke)),
        ("host", host_info_json()),
        (
            "calibration",
            Json::obj(vec![("speck_encrypt_ns", Json::Num(speck_ns))]),
        ),
        ("components", Json::Arr(component_rows)),
    ]);

    if let Some(baseline_path) = check {
        // Gate mode: compare against the committed baseline, do not
        // overwrite it.
        match run_gate(&baseline_path, &components, speck_ns) {
            Ok(()) => println!(
                "\nregression gate: OK (within {:.0}%)",
                REGRESSION_TOLERANCE * 100.0
            ),
            Err(failures) => {
                eprintln!("\nregression gate FAILED:");
                for f in failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let out = out_path_from_args("BENCH_hotpath.json");
    std::fs::write(&out, doc.render()).expect("write baseline json");
    println!("\nwrote {}", out.display());

    let telemetry = anubis_bench::telemetry::start();
    if telemetry.enabled() {
        // One instrumented controller pass so the artifact has counters.
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        for k in 0..512u64 {
            c.write(DataAddr::new(k % 128), pt).expect("write");
            c.read(DataAddr::new(k % 128)).expect("read");
        }
        c.publish_telemetry();
    }
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_hotpath");
}

/// Compares the fresh component timings against a committed baseline in
/// speck-normalized units. Returns the list of regressions, empty on pass.
fn run_gate(baseline_path: &str, components: &[Timed], speck_ns: f64) -> Result<(), Vec<String>> {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("cannot read baseline {baseline_path}: {e}")]),
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("cannot parse baseline {baseline_path}: {e}")]),
    };
    let Some(rows) = doc.get("components").and_then(Json::as_arr) else {
        return Err(vec![format!(
            "baseline {baseline_path} has no components array"
        )]);
    };
    let baseline_row = |name: &str| -> Option<(f64, f64)> {
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))?;
        Some((
            row.get("ns_per_op").and_then(Json::as_f64)?,
            row.get("per_speck").and_then(Json::as_f64)?,
        ))
    };
    // A component regresses only when BOTH views agree: raw ns/op (valid
    // when baseline and run share a host class, as in CI) and the
    // speck-normalized ratio (valid across hosts, but amplified by
    // calibration jitter). A real algorithmic regression moves both; a
    // frequency-scaling artifact moves only one.
    let mut failures = Vec::new();
    println!("\n--- regression gate vs {baseline_path} ---");
    for t in components {
        let new_ratio = t.ns_per_op / speck_ns;
        match baseline_row(t.name) {
            None => println!("{:<30} (no baseline entry, skipped)", t.name),
            Some((base_ns, base_ratio)) => {
                let ns_limit = base_ns * (1.0 + REGRESSION_TOLERANCE);
                let ratio_limit = base_ratio * (1.0 + REGRESSION_TOLERANCE) + ABSOLUTE_SLACK;
                let regressed = t.ns_per_op > ns_limit && new_ratio > ratio_limit;
                println!(
                    "{:<30} ns {:>9.1}/{:<9.1} per-speck {:>7.2}/{:<7.2} {}",
                    t.name,
                    t.ns_per_op,
                    ns_limit,
                    new_ratio,
                    ratio_limit,
                    if regressed { "REGRESSED" } else { "ok" }
                );
                if regressed {
                    failures.push(format!(
                        "{}: {:.1} ns/op ({:.2} speck units) vs baseline {:.1} ns/op \
                         ({:.2} speck units), limit +{:.0}%",
                        t.name,
                        t.ns_per_op,
                        new_ratio,
                        base_ns,
                        base_ratio,
                        REGRESSION_TOLERANCE * 100.0
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}
