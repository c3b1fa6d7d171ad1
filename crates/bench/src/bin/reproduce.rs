//! Renders the paper's figures and tables, and the reproduction's own
//! tables and ablations, as the text files under `results/`.
//!
//! `reproduce <name>|all [--smoke] [--out DIR | --check DIR]`
//!
//! Each experiment is a name — its `results/` file stem — and a function
//! that renders its text. The text goes to stdout by default; `--out DIR`
//! writes `DIR/<name>.txt`, and `--check DIR` compares every byte with
//! `DIR/<name>.txt` and exits 1 naming the first differing line of each
//! file that differs. `--smoke` replays 3 000 ops per run instead of
//! 200 000 (`results/smoke/` holds that scale); `fig05` and `latency`
//! have one scale and ignore it. Every number is simulated, so the check
//! is exact on any host. Run with `--release`: the full `all` takes
//! about 4 minutes on a 2-core VM.

use std::fmt::{self, Write};
use std::path::{Path, PathBuf};

use anubis::recovery::time;
use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemError, MemoryController,
    SgxController, SgxScheme,
};
use anubis_sim::experiments::{
    bonsai_row, cache_sensitivity, clean_eviction_fraction, geomean, measured_recovery, sgx_row,
    Row, Scale,
};
use anubis_sim::{run_trace, EnduranceModel, RunResult, Table, TimingModel};
use anubis_workloads::{spec2006, Trace, TraceGenerator, WorkloadSpec};

/// Renders one experiment at a scale into `out`.
type Render = fn(&mut String, Scale) -> fmt::Result;

/// Every experiment, named after its file under `results/`.
const EXPERIMENTS: [(&str, Render); 13] = [
    ("fig05", fig05),
    ("fig07", fig07),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("write_amp", write_amp),
    ("table_endurance", table_endurance),
    ("workload_report", workload_report),
    ("latency", latency),
    ("ablation_shadow_policy", ablation_shadow_policy),
    ("ablation_stop_loss", ablation_stop_loss),
    ("ablation_timing_model", ablation_timing_model),
];

const USAGE: &str = "usage: reproduce <name>|all [--smoke] [--out DIR | --check DIR]";

/// Where the rendered text goes.
#[derive(Debug, PartialEq)]
enum Sink {
    Stdout,
    Out(PathBuf),
    Check(PathBuf),
}

/// A parsed command line.
struct Cli {
    experiments: Vec<(&'static str, Render)>,
    scale: Scale,
    sink: Sink,
}

/// Parses the arguments after the program name; `Err` says what is wrong.
fn parse(args: &[String]) -> Result<Cli, String> {
    let (mut target, mut smoke, mut sink) = (None, false, Sink::Stdout);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            flag @ ("--out" | "--check") if sink == Sink::Stdout => {
                let dir = args
                    .next()
                    .ok_or_else(|| format!("{flag} needs a directory"))?;
                sink = match flag {
                    "--out" => Sink::Out(dir.into()),
                    _ => Sink::Check(dir.into()),
                };
            }
            name if target.is_none() && !name.starts_with('-') => target = Some(name),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let target = target.ok_or("name an experiment or `all`")?;
    let experiments: Vec<_> = EXPERIMENTS
        .into_iter()
        .filter(|(name, _)| target == "all" || *name == target)
        .collect();
    if experiments.is_empty() {
        let names: Vec<_> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "no experiment {target:?}; one of: {}",
            names.join(", ")
        ));
    }
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    Ok(Cli {
        experiments,
        scale,
        sink,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let telemetry = anubis_bench::telemetry::start();
    let mut failures = Vec::new();
    for (name, render) in cli.experiments {
        let started = std::time::Instant::now();
        let text = rendered(render, cli.scale);
        eprintln!("{name}: {:.1} s", started.elapsed().as_secs_f64());
        match &cli.sink {
            Sink::Stdout => print!("{text}"),
            Sink::Out(dir) => {
                let path = dir.join(format!("{name}.txt"));
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            }
            Sink::Check(dir) => failures.extend(check(dir, name, &text).err()),
        }
    }
    anubis_bench::telemetry::finish(&telemetry, "reproduce");
    if let Sink::Check(dir) = &cli.sink {
        for f in &failures {
            eprintln!("{f}");
        }
        if !failures.is_empty() {
            eprintln!(
                "reproduce: {} file(s) differ from {}",
                failures.len(),
                dir.display()
            );
            std::process::exit(1);
        }
        println!("reproduce: every byte matches {}", dir.display());
    }
}

/// One experiment's text.
fn rendered(render: Render, scale: Scale) -> String {
    let mut text = String::new();
    render(&mut text, scale).expect("writing to a String cannot fail");
    text
}

/// Compares `text` with `dir/<name>.txt` byte for byte; `Err` names the
/// file and the first line that differs.
fn check(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = dir.join(format!("{name}.txt"));
    let committed =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if committed == text {
        return Ok(());
    }
    // Past its end each text reads as endless `<end of file>` lines, so
    // the first unequal pair is where the texts part.
    let eof = std::iter::repeat("<end of file>");
    let lines = |s| str::split_inclusive(s, '\n').chain(eof.clone());
    let (same, (c, t)) = (lines(&committed).zip(lines(text)).enumerate())
        .find(|(_, (c, t))| c != t)
        .expect("the texts differ");
    Err(format!(
        "{}:{}: committed {c:?}, rendered {t:?}",
        path.display(),
        same + 1
    ))
}

/// The header every experiment but Figure 5 starts with.
fn banner(out: &mut String, figure: &str, what: &str, scale: Scale) -> fmt::Result {
    let (ops, seed) = (scale.ops, scale.seed);
    writeln!(out, "== Anubis reproduction :: {figure} ==\n{what}")?;
    writeln!(out, "(trace length: {ops} ops per run, seed {seed})\n")
}

/// A table with these `|`-separated column headers.
fn table(headers: &str) -> Table {
    Table::new(headers.split('|').map(String::from).collect())
}

/// A table row: `label`, then each value with three decimals.
fn fixed3(label: &str, values: &[f64]) -> Vec<String> {
    let cells = values.iter().map(|v| format!("{v:.3}"));
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// A capacity as the paper labels it.
fn human_bytes(b: u64) -> String {
    match b {
        _ if b >= 1 << 40 => format!("{} TB", b >> 40),
        _ if b >= 1 << 30 => format!("{} GB", b >> 30),
        _ => format!("{} MB", b >> 20),
    }
}

/// Figure 5: Osiris full-recovery time vs capacity, by the paper's
/// footnote-1 model (100 ns per fetched/updated/hashed block), plus the
/// same recovery executed on a miniature memory.
fn fig05(out: &mut String, _scale: Scale) -> fmt::Result {
    writeln!(out, "== Anubis reproduction :: Figure 5 ==")?;
    writeln!(
        out,
        "Osiris full-recovery time vs memory capacity (analytical, 100 ns/op)\n"
    )?;
    let mut t = table("capacity|recovery ops|seconds|hours");
    for bytes in (37..=43).map(|shift| 1u64 << shift) {
        let secs = time::osiris_full_secs(bytes, 4);
        let ops = time::osiris_full_ops(bytes, 4).to_string();
        let hours = format!("{:.2}", secs / 3600.0);
        t.row(vec![human_bytes(bytes), ops, format!("{secs:.1}"), hours]);
    }
    writeln!(out, "{t}\npaper reference: ≈ 28 193 s (7.8 h) at 8 TB\n")?;

    let config = AnubisConfig::small_test();
    let mut ctrl = BonsaiController::new(BonsaiScheme::Osiris, &config);
    for i in 0..200u64 {
        let line = anubis_nvm::Block::filled(i as u8);
        ctrl.write(DataAddr::new(i * 37 % 4000), line)
            .expect("write");
    }
    ctrl.crash();
    let report = ctrl.recover().expect("osiris recovery at miniature scale");
    writeln!(
        out,
        "executed cross-check ({} data): measured {} recovery ops -> {:.6} s \
         (model scales linearly with capacity)",
        human_bytes(config.capacity_bytes),
        report.total_ops(),
        report.estimated_secs()
    )
}

/// Figure 7: the clean fraction of counter-cache evictions per workload.
fn fig07(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Clean vs dirty counter-cache evictions per SPEC-like workload";
    banner(out, "Figure 7", what, scale)?;
    let config = AnubisConfig::paper();
    let fractions: Vec<(&str, f64)> = (spec2006::all().iter())
        .map(|spec| {
            let f = clean_eviction_fraction(spec, &config, scale).expect("workload replay");
            (spec.name, f.unwrap_or(f64::NAN))
        })
        .collect();
    writeln!(
        out,
        "{}\npaper reference: \"most applications evict a large number of cache-blocks \
         from the counter cache that are clean\" — read-heavy apps (mcf, xalancbmk) \
         should show the highest clean fractions.",
        clean_table(&fractions)
    )
}

/// Figure 7's table from each workload's clean fraction, NaN for one with
/// no counter-cache eviction. The average is over the finite fractions;
/// when that is not every workload, its label says how many it covers.
fn clean_table(fractions: &[(&str, f64)]) -> Table {
    let mut t = table("workload|clean %|dirty %");
    let percent = |f: f64| format!("{:.1}", f * 100.0);
    for &(name, f) in fractions {
        t.row(vec![name.to_string(), percent(f), percent(1.0 - f)]);
    }
    let finite: Vec<f64> = fractions
        .iter()
        .map(|r| r.1)
        .filter(|f| f.is_finite())
        .collect();
    let avg = finite.iter().sum::<f64>() / finite.len() as f64;
    let label = match finite.len() {
        n if n == fractions.len() => "AVERAGE".to_string(),
        n => format!("AVERAGE ({n} of {})", fractions.len()),
    };
    t.row(vec![label, percent(avg), percent(1.0 - avg)]);
    t
}

/// Figure 10: the Bonsai schemes' run time, normalized to write-back.
fn fig10(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "AGIT performance: normalized execution time (write-back = 1.00)";
    banner(out, "Figure 10", what, scale)?;
    overhead(out, scale, bonsai_row)?;
    writeln!(
        out,
        "paper reference (averages): write-back 1.00, strict 1.63, osiris 1.014, \
         agit-read 1.104, agit-plus 1.034.\n\
         Expected shape: strict ≫ everything; AGIT-Read worst on read-heavy mcf;\n\
         AGIT-Plus within a few % of Osiris while recovering in O(cache) time.\n\
         Note the mean-vs-tail gap: schemes with similar normalized (mean) time\n\
         can differ at p99, where WPQ pressure and bank conflicts surface."
    )
}

/// Figure 11: the SGX schemes' run time, normalized to SGX write-back.
fn fig11(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "ASIT performance: normalized execution time (SGX write-back = 1.00)";
    banner(out, "Figure 11", what, scale)?;
    overhead(out, scale, sgx_row)?;
    writeln!(
        out,
        "paper reference (averages): write-back 1.00, strict 1.63, osiris ~1.01, \
         asit 1.079. Of the four, only strict and ASIT can actually recover an \
         SGX-style tree; ASIT costs one extra NVM write per data write instead \
         of strict's ~tree-depth.\n\
         Note the mean-vs-tail gap: ASIT's extra shadow write mostly hides in\n\
         the WPQ at the mean but shows up at p99 under write bursts."
    )
}

/// One scheme family's run time per workload, normalized to the family's
/// write-back (`row` runs every scheme of the family), with the geometric
/// mean and each run's p99.
fn overhead(
    out: &mut String,
    scale: Scale,
    row: fn(&WorkloadSpec, &AnubisConfig, &TimingModel, Scale) -> Result<Row, MemError>,
) -> fmt::Result {
    let (config, model) = (AnubisConfig::paper(), TimingModel::paper());
    let rows: Vec<Row> = spec2006::all()
        .iter()
        .map(|spec| row(spec, &config, &model, scale).expect("replay"))
        .collect();
    let schemes: Vec<&str> = rows[0].results.iter().map(|r| r.scheme).collect();
    let mut t = table(&format!("workload|{}", schemes.join("|")));
    let mut tail = table(&format!("workload|{} p99", schemes.join(" p99|")));
    let mut per_scheme = vec![Vec::new(); schemes.len()];
    for row in &rows {
        let norm = row.normalized();
        for (values, n) in per_scheme.iter_mut().zip(&norm) {
            values.push(*n);
        }
        t.row(fixed3(&row.workload, &norm));
        let p99 = row
            .results
            .iter()
            .map(|r| format!("{} ns", r.latency.p99_ns));
        tail.row(std::iter::once(row.workload.clone()).chain(p99).collect());
    }
    let means: Vec<f64> = per_scheme.iter().map(|v| geomean(v)).collect();
    t.row(fixed3("GEOMEAN", &means));
    writeln!(
        out,
        "{t}\np99 per-op latency (simulated ns, same runs):\n{tail}"
    )
}

/// Figure 12: recovery time vs cache size by the footnote-1 model at
/// 8 TB, plus executed crash recoveries at miniature scale.
fn fig12(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Recovery time vs cache size (AGIT: counter+tree caches; ASIT: combined)";
    banner(out, "Figure 12", what, scale)?;
    let mut t = table("cache (each)|AGIT ops|AGIT s|ASIT ops|ASIT s");
    let agit_secs = |cache| time::agit_secs(cache, cache, 8 << 40);
    for kb in [256u64, 512, 1024, 2048, 4096] {
        let cache = kb << 10;
        t.row(vec![
            format!("{kb} KB"),
            time::agit_ops(cache, cache, 8 << 40).to_string(),
            format!("{:.4}", agit_secs(cache)),
            time::asit_ops(2 * cache).to_string(),
            format!("{:.4}", time::asit_secs(2 * cache)),
        ]);
    }
    let osiris = time::osiris_full_secs(8 << 40, 4);
    let (small, large) = (osiris / agit_secs(256 << 10), osiris / agit_secs(4 << 20));
    writeln!(
        out,
        "{t}\nspeedup over Osiris full recovery @8TB: {small:.0}x (256 KB caches), \
         {large:.0}x (4 MB caches)\n\
         paper reference: ≈0.03 s @256 KB, ≈0.48 s @4 MB AGIT; 58 735x at 4 MB.\n"
    )?;

    let spec = spec2006::milc();
    let short = Scale {
        ops: scale.ops.min(20_000),
        ..scale
    };
    for kb in [4usize, 8, 16] {
        let config = AnubisConfig::small_test().with_cache_bytes(kb << 10);
        let agit = measured_recovery(&spec, &config, short, true).expect("agit recovery");
        let asit = measured_recovery(&spec, &config, short, false).expect("asit recovery");
        writeln!(
            out,
            "executed @ {kb:>2} KB caches: AGIT {:>7} ops ({:.6} s) | ASIT {:>7} ops ({:.6} s)",
            agit.total_ops(),
            agit.estimated_secs(),
            asit.total_ops(),
            asit.estimated_secs(),
        )?;
    }
    writeln!(
        out,
        "\n(executed numbers scale with cache size, not memory size — the paper's point)"
    )
}

/// Figure 13: the recoverable schemes' run time vs metadata cache size,
/// each normalized to its family's write-back at the same size.
fn fig13(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Normalized performance vs cache size (write-back at same size = 1.00)";
    banner(out, "Figure 13", what, scale)?;
    let (config, model) = (AnubisConfig::paper(), TimingModel::paper());
    let sizes = [128usize, 256, 512, 1024, 2048, 4096].map(|kb| kb << 10);
    for spec in [spec2006::mcf(), spec2006::libquantum(), spec2006::milc()] {
        let points = cache_sensitivity(&spec, &config, &sizes, &model, scale).expect("sweep");
        let mut t = table("cache|agit-read|agit-plus|asit|write-back ms");
        for p in &points {
            let norm: Vec<f64> = p.normalized.iter().map(|(_, n)| *n).collect();
            let mut cells = fixed3(&format!("{} KB", p.cache_bytes >> 10), &norm);
            cells.push(format!("{:.2}", p.write_back_ns / 1e6));
            t.row(cells);
        }
        writeln!(out, "workload: {}\n{t}", spec.name)?;
    }
    writeln!(
        out,
        "paper reference: overheads shrink with cache size and flatten beyond ~1 MB;\n\
         ASIT is the least sensitive (its extra writes track data writes, not locality)."
    )
}

/// One scheme's replay of the libquantum trace, with the device wear and
/// hashing the §6.2 tables report.
struct SchemeRun {
    result: RunResult,
    max_wear: u64,
    shadow_writes: u64,
    hash_ops: u64,
}

/// Every `all_with_extras` scheme of both families over the libquantum
/// trace, the write-intensive worst case.
fn libquantum_runs(config: &AnubisConfig, scale: Scale) -> Vec<SchemeRun> {
    let model = TimingModel::paper();
    let trace = TraceGenerator::new(spec2006::libquantum(), config.capacity_bytes)
        .generate(scale.ops, scale.seed);
    let bonsai = BonsaiScheme::all_with_extras()
        .map(|s| scheme_run(&mut BonsaiController::new(s, config), &trace, &model));
    let sgx = SgxScheme::all_with_extras()
        .map(|s| scheme_run(&mut SgxController::new(s, config), &trace, &model));
    bonsai.into_iter().chain(sgx).collect()
}

/// Replays `trace` on `c` and reads back what the §6.2 tables report.
fn scheme_run<C: MemoryController>(c: &mut C, trace: &Trace, model: &TimingModel) -> SchemeRun {
    let result = run_trace(c, trace, model).expect("replay");
    let stats = c.domain().device().stats();
    let cost = c.total_cost();
    SchemeRun {
        result,
        max_wear: stats.max_writes_to_one_block(),
        shadow_writes: ["sct", "smt", "st"]
            .map(|r| stats.writes_in(r))
            .iter()
            .sum(),
        hash_ops: cost.hash_ops + cost.bg_hash_ops,
    }
}

/// §6.2's write-amplification claims: NVM writes per data write and the
/// worst single-block wear per scheme.
fn write_amp(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "NVM writes per data write and worst-block wear, libquantum trace";
    banner(out, "Write amplification (paper §6.2 claims)", what, scale)?;
    let mut t = table("scheme|writes/data-write|max wear (1 block)|shadow writes");
    for run in libquantum_runs(&AnubisConfig::paper(), scale) {
        t.row(vec![
            run.result.scheme.to_string(),
            format!("{:.2}", run.result.writes_per_data_write),
            run.max_wear.to_string(),
            run.shadow_writes.to_string(),
        ]);
    }
    writeln!(
        out,
        "{t}\nexpected shape: strict-persist ≈ tree-depth writes per write (paper: 10+);\n\
         ASIT ≈ baseline + 1 (the Shadow Table write); AGIT variants between\n\
         Osiris and AGIT-Read depending on shadow-update policy."
    )
}

/// §6.2's endurance argument quantified: lifetime with ideal and with no
/// wear-leveling, and memory-system energy, per scheme.
fn table_endurance(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Projected lifetime and memory-system energy, libquantum trace";
    banner(
        out,
        "Endurance & energy (paper §6.2, quantified)",
        what,
        scale,
    )?;
    let (config, endurance) = (AnubisConfig::paper(), EnduranceModel::pcm());
    let mut t = table("scheme|writes/op|life (ideal WL) yr|life (no WL) h|energy mJ");
    for run in libquantum_runs(&config, scale) {
        let r = &run.result;
        let ideal_years = endurance.ideal_lifetime_years(r, config.data_blocks());
        let unleveled_years = endurance.unleveled_lifetime_years(run.max_wear, r.total_ns);
        t.row(vec![
            r.scheme.to_string(),
            format!("{:.2}", r.writes_per_data_write),
            format!("{ideal_years:.1}"),
            format!("{:.1}", unleveled_years * 365.25 * 24.0),
            format!("{:.2}", endurance.energy_mj(r, run.hash_ops)),
        ]);
    }
    writeln!(
        out,
        "{t}\nexpected shape: strict persistence loses an order of magnitude of\n\
         unleveled lifetime to tree-path hot-spotting; Anubis schemes stay\n\
         within a small factor of the write-back baseline."
    )
}

/// The synthetic SPEC-like workloads: trace statistics and the metadata
/// cache behaviour and latency they induce on write-back.
fn workload_report(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Trace statistics and induced metadata-cache behaviour per profile";
    banner(out, "Workload characterization", what, scale)?;
    let config = AnubisConfig::paper();
    let mut t = table(
        "workload|read %|footprint MB|uniq/op|ctr$ hit %|tree$ hit %|clean-ev %|p50 ns|p95 ns|p99 ns",
    );
    let percent = |f: f64| format!("{:.1}", f * 100.0);
    for spec in spec2006::all() {
        let trace = TraceGenerator::new(spec.clone(), config.capacity_bytes)
            .generate(scale.ops, scale.seed);
        let mut ctrl = BonsaiController::new(BonsaiScheme::WriteBack, &config);
        let result = run_trace(&mut ctrl, &trace, &TimingModel::paper()).expect("replay");
        let (cs, ts, latency) = (
            ctrl.counter_cache_stats(),
            ctrl.tree_cache_stats(),
            result.latency,
        );
        let footprint = trace.footprint_blocks() as f64;
        t.row(vec![
            spec.name.to_string(),
            percent(trace.read_fraction()),
            format!("{:.1}", footprint * 64.0 / 1e6),
            format!("{:.3}", footprint / trace.len() as f64),
            percent(cs.hit_rate().unwrap_or(0.0)),
            percent(ts.hit_rate().unwrap_or(0.0)),
            percent(cs.clean_eviction_fraction().unwrap_or(0.0)),
            latency.p50_ns.to_string(),
            latency.p95_ns.to_string(),
            latency.p99_ns.to_string(),
        ]);
    }
    writeln!(
        out,
        "{t}\nLatency columns are per-op simulated ns on the write-back baseline;\n\
         the p99/p50 spread shows how much queueing each profile induces\n\
         beyond its mean (reproduce latency breaks this down per scheme)."
    )
}

/// The latency table's one scale. Like Figure 5 it ignores `--smoke`, so
/// `results/latency.txt` and `results/smoke/latency.txt` hold the same
/// bytes and the smoke check is as strict as the full one.
const LATENCY_SCALE: Scale = Scale {
    ops: 40_000,
    warmup_ops: 4_000,
    seed: 1907,
};

/// The per-operation latency distribution of every Bonsai and SGX scheme
/// over milc on an 8 MiB memory, with each run's totals, in the simulated
/// ns the event engine records.
fn latency(out: &mut String, _scale: Scale) -> fmt::Result {
    let scale = LATENCY_SCALE;
    let what = format!(
        "Per-op latency per scheme, milc on 8 MiB, after {} warm-up ops (simulated ns)",
        scale.warmup_ops
    );
    banner(out, "Per-op latency distribution", &what, scale)?;
    let spec = spec2006::milc();
    let config = AnubisConfig::small_test().with_capacity(8 << 20);
    let model = TimingModel::paper();
    let bonsai = bonsai_row(&spec, &config, &model, scale).expect("bonsai replay");
    let sgx = sgx_row(&spec, &config, &model, scale).expect("sgx replay");
    let mut t = table(
        "scheme|ops|mean ns|p50 ns|p95 ns|p99 ns|max ns|total ns|read stall ns|write stall ns",
    );
    for r in bonsai.results.iter().chain(&sgx.results) {
        let l = r.latency;
        t.row(vec![
            r.scheme.to_string(),
            l.count.to_string(),
            format!("{:?}", l.mean_ns),
            l.p50_ns.to_string(),
            l.p95_ns.to_string(),
            l.p99_ns.to_string(),
            l.max_ns.to_string(),
            r.total_ns.to_string(),
            r.read_stall_ns.to_string(),
            r.write_stall_ns.to_string(),
        ]);
    }
    writeln!(
        out,
        "{t}\nmean .. max ns are per op; total ns is the run's simulated time, and the stalls\n\
         are the part of it the CPU waited on reads and on write-queue back-pressure.\n\
         expected shape: Osiris tracks write-back at every percentile; the shadow\n\
         writes of AGIT and ASIT surface at p95 and p99, behind data writes in the WPQ."
    )
}

/// AGIT-Read (shadow on every fill) vs AGIT-Plus (shadow on first
/// modification) as the read fraction sweeps — the crossover §6.1's
/// mcf/lbm discussion implies.
fn ablation_shadow_policy(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "AGIT-Read vs AGIT-Plus overhead as the read fraction sweeps 10%..95%";
    banner(out, "Ablation: shadow-update policy", what, scale)?;
    let (config, model) = (AnubisConfig::paper(), TimingModel::paper());
    let mut t = table("read %|agit-read|agit-plus|read shadow wr|plus shadow wr");
    for read_pct in [10u32, 25, 50, 75, 90, 95] {
        let spec = WorkloadSpec::new("sweep")
            .read_fraction(f64::from(read_pct) / 100.0)
            .footprint_bytes(256 << 20)
            .zipf(0.7)
            .sequential(0.3)
            .gap_ns(80.0);
        let trace =
            TraceGenerator::new(spec, config.capacity_bytes).generate(scale.ops, scale.seed);
        let mut wb = BonsaiController::new(BonsaiScheme::WriteBack, &config);
        let base = run_trace(&mut wb, &trace, &model).expect("baseline");
        let (mut norms, mut shadow_writes) = (Vec::new(), Vec::new());
        for scheme in [BonsaiScheme::AgitRead, BonsaiScheme::AgitPlus] {
            let mut ctrl = BonsaiController::new(scheme, &config);
            let r = run_trace(&mut ctrl, &trace, &model).expect("replay");
            norms.push(r.normalized_to(&base));
            let stats = ctrl.domain().device().stats();
            shadow_writes.push((stats.writes_in("sct") + stats.writes_in("smt")).to_string());
        }
        t.row([fixed3(&read_pct.to_string(), &norms), shadow_writes].concat());
    }
    writeln!(
        out,
        "{t}\nexpected shape: AGIT-Read's fill-triggered shadowing grows with read\n\
         intensity while AGIT-Plus stays flat — the paper's MCF observation,\n\
         generalized into a crossover curve."
    )
}

/// The Osiris stop-loss limit: run-time counter writes against recovery
/// probe work (the paper fixes it at 4, §6.1 scheme ③).
fn ablation_stop_loss(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Run-time overhead vs recovery probe work as the stop-loss limit varies";
    banner(out, "Ablation: stop-loss limit", what, scale)?;
    let (config, model) = (AnubisConfig::paper(), TimingModel::paper());
    let mut t = table("stop-loss|norm. time|ctr writes/data-write|recovery ops|counters fixed");
    let trace = TraceGenerator::new(spec2006::libquantum(), config.capacity_bytes)
        .generate(scale.ops, scale.seed);
    let mut wb = BonsaiController::new(BonsaiScheme::WriteBack, &config);
    let base = run_trace(&mut wb, &trace, &model).expect("baseline");
    for stop_loss in [1u8, 2, 4, 8, 16] {
        let cfg = AnubisConfig::paper().with_stop_loss(stop_loss);
        let mut ctrl = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        let r = run_trace(&mut ctrl, &trace, &model).expect("replay");
        let ctr_writes = ctrl.domain().device().stats().writes_in("counters");
        let writes = ctrl.total_cost().writes.max(1);
        ctrl.crash();
        let report = ctrl.recover().expect("recovers");
        let norms = [r.normalized_to(&base), ctr_writes as f64 / writes as f64];
        let counts = [report.total_ops(), report.counters_fixed].map(|n| n.to_string());
        t.row([fixed3(&stop_loss.to_string(), &norms), counts.to_vec()].concat());
    }
    writeln!(
        out,
        "{t}\nexpected shape: stop-loss 1 = strict counter persistence (max run-time\n\
         writes, zero probe work); larger limits cut counter writes but recovery\n\
         probes more candidates per counter. 4 sits near the knee — the paper's pick."
    )
}

/// Whether the paper's conclusions — the scheme ordering and the rough
/// size of Anubis's advantage — survive changes to the timing model's
/// free parameters (bank parallelism, hash latency, write queue depth).
fn ablation_timing_model(out: &mut String, scale: Scale) -> fmt::Result {
    let what = "Scheme ordering under different channel/bank/hash assumptions";
    banner(out, "Ablation: timing-model robustness", what, scale)?;
    let config = AnubisConfig::paper();
    let paper_with = |change: fn(&mut TimingModel)| {
        let mut model = TimingModel::paper();
        change(&mut model);
        model
    };
    let variants = [
        ("paper (4 banks)", paper_with(|_| {})),
        ("serial channel", paper_with(|m| m.banks = 1)),
        ("8 banks", paper_with(|m| m.banks = 8)),
        ("slow hash 20ns", paper_with(|m| m.hash_ns = 20.0)),
        ("tiny WPQ (8)", paper_with(|m| m.write_queue_depth = 8)),
        ("fast writes 90ns", paper_with(|m| m.write_ns = 90.0)),
    ];
    let specs = [spec2006::mcf(), spec2006::libquantum(), spec2006::milc()];
    let mut t = table("model|strict|osiris|agit-read|agit-plus|sgx-strict|asit|order ok");
    for (name, model) in &variants {
        // strict, osiris, agit-read, agit-plus (Bonsai, normalized to
        // Bonsai write-back), then strict and asit (SGX, normalized to SGX
        // write-back).
        let mut norms = vec![Vec::new(); 6];
        for spec in &specs {
            let bonsai = bonsai_row(spec, &config, model, scale).expect("replay");
            let sgx = sgx_row(spec, &config, model, scale).expect("replay");
            let (bonsai, sgx) = (bonsai.normalized(), sgx.normalized());
            let row = bonsai[1..].iter().chain([&sgx[1], &sgx[3]]);
            for (values, n) in norms.iter_mut().zip(row) {
                values.push(*n);
            }
        }
        let g: Vec<f64> = norms.iter().map(|v| geomean(v)).collect();
        // Strict is worst; Osiris is nearly free; AGIT-Plus <= AGIT-Read;
        // ASIT is below its own family's strict persistence.
        let order_ok =
            g[0] > g[2] && g[0] > g[3] && g[1] < 1.1 && g[3] <= g[2] + 0.02 && g[5] < g[4];
        let mut cells = fixed3(name, &g);
        cells.push(if order_ok { "yes" } else { "NO" }.into());
        t.row(cells);
    }
    writeln!(
        out,
        "{t}\nevery row should read 'yes': the scheme ordering is invariant to the\n\
         timing model's free parameters; only magnitudes move."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn results_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The `.txt` stems in `dir`.
    fn stems(dir: &Path) -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .expect("results directory")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn every_experiment_has_one_results_file_at_each_scale_and_no_file_is_orphaned() {
        let names: BTreeSet<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment names repeat");
        assert_eq!(stems(&results_dir()), names);
        assert_eq!(stems(&results_dir().join("smoke")), names);
    }

    #[test]
    fn the_latency_table_is_the_same_at_both_scales() {
        let read = |dir: PathBuf| std::fs::read(dir.join("latency.txt")).expect("latency.txt");
        assert_eq!(read(results_dir()), read(results_dir().join("smoke")));
    }

    #[test]
    fn fig07_averages_the_workloads_that_evicted_and_says_how_many() {
        let average = |fractions: &[(&str, f64)]| -> Vec<String> {
            let t = clean_table(fractions).to_string();
            let row = t.lines().find(|l| l.contains("AVERAGE"));
            row.expect("an average row")
                .split_whitespace()
                .map(String::from)
                .collect()
        };
        let with_nan = [("a", 0.5), ("b", f64::NAN), ("c", 0.7), ("d", f64::NAN)];
        assert_eq!(
            average(&with_nan),
            ["AVERAGE", "(2", "of", "4)", "60.0", "40.0"]
        );
        assert_eq!(
            average(&[("a", 0.5), ("c", 0.7)]),
            ["AVERAGE", "60.0", "40.0"]
        );
    }

    #[test]
    fn fig05_renders_the_committed_bytes() {
        let committed =
            std::fs::read_to_string(results_dir().join("fig05.txt")).expect("results/fig05.txt");
        assert_eq!(rendered(fig05, Scale::full()), committed);
    }

    #[test]
    fn check_names_the_file_and_first_line_that_differ() {
        let dir = std::env::temp_dir().join(format!("reproduce-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let committed =
            std::fs::read_to_string(results_dir().join("fig05.txt")).expect("results/fig05.txt");
        std::fs::write(dir.join("fig05.txt"), &committed).expect("copy");
        assert_eq!(check(&dir, "fig05", &committed), Ok(()));

        // One byte changed on the fifth line.
        let at = committed.match_indices('\n').nth(3).expect("five lines").0 + 1;
        let mut bytes = committed.clone().into_bytes();
        bytes[at] = if bytes[at] == b'#' { b'*' } else { b'#' };
        std::fs::write(dir.join("fig05.txt"), &bytes).expect("mutate");
        let err = check(&dir, "fig05", &committed).expect_err("one byte differs");
        let file = dir.join("fig05.txt");
        assert!(err.starts_with(&format!("{}:5: ", file.display())), "{err}");

        // A rendered text that stops early differs at the first missing line.
        std::fs::write(dir.join("fig05.txt"), &committed).expect("restore");
        let err =
            check(&dir, "fig05", "== Anubis reproduction :: Figure 5 ==\n").expect_err("truncated");
        assert!(err.contains(":2: "), "{err}");
        assert!(err.ends_with("rendered \"<end of file>\""), "{err}");

        assert!(check(&dir, "fig07", "").is_err(), "a missing file fails");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn default_scale_is_full() {
        assert_eq!(
            parse(&args(&["fig07"])).expect("parses").scale,
            Scale::full()
        );
        let smoke = parse(&args(&["fig07", "--smoke"])).expect("parses");
        assert_eq!(smoke.scale, Scale::smoke());
    }

    #[test]
    fn the_command_line_takes_a_name_or_all_and_one_sink() {
        let cli = parse(&args(&["all", "--check", "results"])).expect("parses");
        assert_eq!(cli.experiments.len(), EXPERIMENTS.len());
        assert_eq!(cli.sink, Sink::Check("results".into()));
        let cli = parse(&args(&["--out", "o", "fig12"])).expect("parses");
        assert_eq!(cli.experiments.len(), 1);
        assert_eq!(cli.experiments[0].0, "fig12");
        assert_eq!(cli.sink, Sink::Out("o".into()));
        for bad in [
            &[][..],
            &["fig99"],
            &["fig05", "fig07"],
            &["all", "--ops", "500"],
            &["all", "--out"],
            &["all", "--out", "a", "--check", "b"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
