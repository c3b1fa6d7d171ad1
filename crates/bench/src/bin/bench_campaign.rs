//! The crash / restart campaigns behind one command line:
//!
//! ```text
//! bench_campaign <drill|adversary|serve|storm>
//!                [--points N] [--seed S] [--dir D] [--sweep] [--smoke] [--out PATH]
//! ```
//!
//! | campaign | what it does | default `--out` | exit code 1 on |
//! |---|---|---|---|
//! | `drill` | SIGKILLs a child serving a deterministic script over the file-backed device at `N` randomized ack counts **per family** (default 100; `--sweep`: one per possible ack count), restarts in a fresh address space over a copy of the dead image, recovers, audits every acknowledged write | `BENCH_drill.json` | an acknowledged write lost, a recovery failure |
//! | `adversary` | in process: drives the script over an anchored image to a seeded ack count, mutates the dead image and its anchor (bit flips, truncations, WAL splices / reorders / duplicates, rollback to a state captured on the way, cross-key swaps, anchor attacks), restarts; `N` mutated restarts **per family** rounded up to whole base runs (default 120; `--sweep`: at least 440); the report is a pure function of the seed | `BENCH_adversary.json` | a panic in the recovery path, a silent stale serve, a class that missed its verdict floor |
//! | `serve` | concurrent tenant clients against a child server, one injected connection fault per point, SIGKILL at `N` randomized fleet-wide ack thresholds (default 100; `--sweep`: the first `N` thresholds in order), restart, time-to-healthy | `BENCH_serve.json` | an acknowledged write lost, an untyped connection fault, a tenant that never returned to full service |
//! | `storm` | supervised recovery under randomized fault plans (power cuts, torn writes, bit flips, write cuts *during* recovery), 170 plans per scheme (`--smoke`: 6), six schemes | `BENCH_recovery_degraded.json` | nothing of its own: a plan that ends without a structured outcome, or serves wrong data after one, panics inside `crash_storm` with the plan's label (exit code 101) |
//!
//! `--seed S` (decimal or `0x…`) seeds scripts, kill points and mutation
//! draws — each campaign's default is the seed its committed
//! `BENCH_*.json` was recorded with — and `--dir D` is the scratch
//! directory for images and logs (default: a campaign-named directory
//! under `$TMPDIR`). `storm` runs in process and takes only `--smoke` and
//! `--out`.
//!
//! The process campaigns re-execute this binary as their victim:
//! `--child …` is the script child of `drill`
//! (`anubis_sim::campaign::ScriptChild`), `--serve` the server of
//! `serve`, configured through the `ANUBIS_SERVE_*` knobs its parent
//! sets. Both are killed mid-flight on purpose.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, Family, SgxController, SgxScheme, Supervised,
};
use anubis_bench::json::Json;
use anubis_bench::{host_info_json, out_path_from_args, parse_number, smoke_requested};
use anubis_sim::adversary::{self, AdversarySpec, FamilyAdvReport, Verdict, MUTATIONS_PER_RUN};
use anubis_sim::chaos::{run_chaos_campaign, ChaosReport, ChaosSpec};
use anubis_sim::drill::{self, DrillSpec, FamilyReport};
use anubis_sim::{crash_storm, StormConfig};

const USAGE: &str = "usage: bench_campaign <drill|adversary|serve|storm> \
                     [--points N] [--seed S] [--dir D] [--sweep] [--smoke] [--out PATH]";

/// The flags after the campaign name.
#[derive(Default)]
struct Flags {
    points: Option<u64>,
    seed: Option<u64>,
    dir: Option<PathBuf>,
    sweep: bool,
}

impl Flags {
    /// Parses `words`, refusing a flag that is unknown, malformed, or not
    /// one of those `campaign` takes.
    fn parse(campaign: &str, takes: &[&str], words: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut words = words.iter();
        while let Some(flag) = words.next() {
            if !takes.contains(&flag.as_str()) {
                return Err(format!("{campaign} does not take {flag}\n{USAGE}"));
            }
            let mut value = || {
                words
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
            };
            let number = |v: &String| {
                parse_number(v).ok_or_else(|| format!("{flag}: {v:?} is not a number"))
            };
            match flag.as_str() {
                "--points" => flags.points = Some(number(value()?)?),
                "--seed" => flags.seed = Some(number(value()?)?),
                "--dir" => flags.dir = Some(PathBuf::from(value()?)),
                "--sweep" => flags.sweep = true,
                // Read where every bench bin reads them: `out_path_from_args`
                // and `smoke_requested`.
                "--out" => {
                    value()?;
                }
                _ => {}
            }
        }
        Ok(flags)
    }

    fn scratch(&self, name: &str) -> PathBuf {
        self.dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join(name))
    }
}

/// Writes the report to `--out` (or `default`) and returns the path.
fn write_report(default: &str, doc: &Json) -> Result<PathBuf, String> {
    let out = out_path_from_args(default);
    std::fs::write(&out, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(out)
}

const SCRIPT_FLAGS: [&str; 5] = ["--points", "--seed", "--dir", "--sweep", "--out"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let run =
        match args.get(1).map(String::as_str) {
            Some("--child") => anubis_sim::campaign::child_main(&args[2..])
                .map_err(|e| format!("campaign child: {e}")),
            Some("--serve") => serve_child(),
            Some("drill") => with_exe(&args[2..], "drill", drill_campaign),
            Some("adversary") => Flags::parse("adversary", &SCRIPT_FLAGS, &args[2..])
                .and_then(|flags| adversary_campaign(&flags)),
            Some("serve") => with_exe(&args[2..], "serve", serve_campaign),
            Some("storm") => Flags::parse("storm", &["--smoke", "--out"], &args[2..])
                .and_then(|_| storm_campaign()),
            _ => Err(USAGE.to_string()),
        };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A process campaign: its flags, and this binary's path to re-execute.
fn with_exe(
    words: &[String],
    campaign: &str,
    run: fn(&Path, &Flags) -> Result<(), String>,
) -> Result<(), String> {
    let flags = Flags::parse(campaign, &SCRIPT_FLAGS, words)?;
    let exe = std::env::current_exe()
        .map_err(|e| format!("{campaign}: cannot locate own executable: {e}"))?;
    run(&exe, &flags)
}

fn kill_range_json(range: (u64, u64)) -> Json {
    Json::Arr(vec![Json::Int(range.0), Json::Int(range.1)])
}

// ---------------------------------------------------------------------
// drill
// ---------------------------------------------------------------------

fn drill_campaign(exe: &Path, flags: &Flags) -> Result<(), String> {
    let defaults = DrillSpec::default();
    let spec = DrillSpec {
        seed: flags.seed.unwrap_or(defaults.seed),
        ..defaults
    };
    let (points, sweep, seed) = (flags.points.unwrap_or(100), flags.sweep, spec.seed);
    let dir = flags.scratch("anubis-drill");

    println!("== Anubis reproduction :: kill -9 restart drill ==");
    println!(
        "{} kill points/family{}, seed {seed:#x}, scratch {}",
        points,
        if sweep { " (exhaustive sweep)" } else { "" },
        dir.display()
    );

    let mut families = Vec::new();
    let mut total_points = 0u64;
    let mut total_acked = 0u64;
    for family in Family::all() {
        let report = drill::run_campaign(exe, family, &spec, &dir, points, sweep)
            .map_err(|e| format!("drill FAILED for {}: {e}", family.name()))?;
        println!(
            "  {:<18} {:>4} points, {:>6} acked writes verified, \
             {} clean-exit runs, in-flight observed {}x",
            family.name(),
            report.points,
            report.acked_total,
            report.completed_runs,
            report.inflight_observed
        );
        total_points += report.points;
        total_acked += report.acked_total;
        families.push(drill_family_json(&report));
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("drill".into())),
        ("host", host_info_json()),
        ("seed", Json::Int(seed)),
        ("sweep", Json::Bool(sweep)),
        ("script_len", Json::Int(spec.script_len as u64)),
        ("lines", Json::Int(spec.lines)),
        ("total_kill_points", Json::Int(total_points)),
        ("total_acked_verified", Json::Int(total_acked)),
        ("acked_write_losses", Json::Int(0)),
        ("families", Json::Arr(families)),
    ]);
    let out = write_report("BENCH_drill.json", &doc)?;
    println!(
        "{total_points} kill points, {total_acked} acked writes verified, zero losses -> {}",
        out.display()
    );
    Ok(())
}

fn drill_family_json(r: &FamilyReport) -> Json {
    let outcomes: Vec<Json> = r
        .outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("kill_after_acks", Json::Int(o.kill_after_acks)),
                ("acked", Json::Int(o.acked)),
                ("completed", Json::Bool(o.completed)),
                ("verified_addrs", Json::Int(o.verified_addrs)),
                ("inflight_observed", Json::Bool(o.inflight_observed)),
                ("outcome", Json::Str(o.outcome.clone())),
                ("fingerprint", Json::Str(format!("{:#018x}", o.fingerprint))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("family", Json::Str(r.family.name().into())),
        ("points", Json::Int(r.points)),
        ("completed_runs", Json::Int(r.completed_runs)),
        ("acked_total", Json::Int(r.acked_total)),
        ("inflight_observed", Json::Int(r.inflight_observed)),
        ("kill_range", kill_range_json(r.kill_range)),
        ("acked_write_losses", Json::Int(0)),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

// ---------------------------------------------------------------------
// adversary
// ---------------------------------------------------------------------

fn adversary_campaign(flags: &Flags) -> Result<(), String> {
    let defaults = AdversarySpec::default();
    let spec = AdversarySpec {
        seed: flags.seed.unwrap_or(defaults.seed),
        ..defaults
    };
    let (sweep, seed) = (flags.sweep, spec.seed);
    let points = flags.points.unwrap_or(120).max(if sweep { 440 } else { 0 });
    let base_runs = points.div_ceil(MUTATIONS_PER_RUN).max(1);
    let dir = flags.scratch("anubis-adversary");

    println!("== Anubis reproduction :: restart-time adversary drill ==");
    println!(
        "{} mutated-restart points/family ({base_runs} base runs x {MUTATIONS_PER_RUN} mutations){}, \
         seed {seed:#x}, scratch {}",
        base_runs * MUTATIONS_PER_RUN,
        if sweep { " (nightly sweep)" } else { "" },
        dir.display()
    );

    let mut families = Vec::new();
    let mut total_points = 0u64;
    let mut total_audited = 0u64;
    let mut total_rollback_refusals = 0u64;
    for family in Family::all() {
        let report = adversary::run_campaign(family, &spec, &dir, base_runs)
            .map_err(|e| format!("adversary campaign FAILED for {}: {e}", family.name()))?;
        let rb: u64 = report
            .classes
            .iter()
            .map(|(_, s)| s.rollback_refusals)
            .sum();
        println!(
            "  {:<18} {:>4} points, {:>7} acked reads audited, {} rollback refusals",
            family.name(),
            report.points,
            report.audited_reads,
            rb,
        );
        total_points += report.points;
        total_audited += report.audited_reads;
        total_rollback_refusals += rb;
        families.push(adversary_family_json(&report));
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("adversary".into())),
        ("host", host_info_json()),
        ("seed", Json::Int(seed)),
        ("sweep", Json::Bool(sweep)),
        ("script_len", Json::Int(spec.script_len as u64)),
        ("lines", Json::Int(spec.lines)),
        ("mutations_per_run", Json::Int(MUTATIONS_PER_RUN)),
        ("total_points", Json::Int(total_points)),
        ("total_audited_reads", Json::Int(total_audited)),
        (
            "total_rollback_refusals",
            Json::Int(total_rollback_refusals),
        ),
        ("silent_stale_serves", Json::Int(0)),
        ("panics", Json::Int(0)),
        ("requirement_misses", Json::Int(0)),
        ("families", Json::Arr(families)),
    ]);
    let out = write_report("BENCH_adversary.json", &doc)?;
    println!(
        "{total_points} mutated restarts, {total_audited} acked reads audited, \
         zero silent-stale, zero panics -> {}",
        out.display()
    );
    Ok(())
}

fn adversary_family_json(r: &FamilyAdvReport) -> Json {
    let classes: Vec<Json> = r
        .classes
        .iter()
        .map(|(c, s)| {
            Json::obj(vec![
                ("class", Json::Str(c.name().into())),
                ("points", Json::Int(s.points)),
                ("full_recovery", Json::Int(s.full)),
                ("degraded", Json::Int(s.degraded)),
                ("refused", Json::Int(s.refused)),
                ("rollback_refusals", Json::Int(s.rollback_refusals)),
            ])
        })
        .collect();
    let outcomes: Vec<Json> = r
        .outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![
                ("class", Json::Str(o.class.name().into())),
                ("label", Json::Str(o.label.clone())),
                ("kill_after_acks", Json::Int(o.kill_after_acks)),
                ("required", Json::Str(o.requirement.name().into())),
                ("verdict", Json::Str(o.verdict.name().into())),
            ];
            match &o.verdict {
                Verdict::FullRecovery => {}
                Verdict::Degraded { damage, outcome } => {
                    fields.push(("damage", Json::Int(*damage)));
                    fields.push(("outcome", Json::Str(outcome.clone())));
                }
                Verdict::Refused { rollback, reason } => {
                    fields.push(("rollback", Json::Bool(*rollback)));
                    fields.push(("reason", Json::Str(reason.clone())));
                }
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("family", Json::Str(r.family.name().into())),
        ("base_runs", Json::Int(r.base_runs)),
        ("points", Json::Int(r.points)),
        ("audited_reads", Json::Int(r.audited_reads)),
        ("kill_range", kill_range_json(r.kill_range)),
        ("foreign_epoch", Json::Int(r.foreign_epoch)),
        ("classes", Json::Arr(classes)),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// The `--serve` victim mode: a plain `anubis-serve` daemon configured
/// from the environment, printing its listen address for the parent.
fn serve_child() -> Result<(), String> {
    use std::io::Write;
    let server = anubis_server::ServeConfig::from_env()
        .map_err(|e| e.to_string())
        .and_then(|cfg| anubis_server::Server::start(cfg).map_err(|e| e.to_string()))
        .map_err(|e| format!("bench_campaign --serve: {e}"))?;
    println!("ANUBIS_SERVE_LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn serve_campaign(exe: &Path, flags: &Flags) -> Result<(), String> {
    let defaults = ChaosSpec::default();
    let spec = ChaosSpec {
        seed: flags.seed.unwrap_or(defaults.seed),
        ..defaults
    };
    let (points, sweep, seed) = (flags.points.unwrap_or(100), flags.sweep, spec.seed);
    let dir = flags.scratch("anubis-serve-chaos");

    println!("== Anubis reproduction :: multi-tenant serving chaos drill ==");
    println!(
        "{points} kill points{}, {} tenants, seed {seed:#x}, scratch {}",
        if sweep { " (exhaustive sweep)" } else { "" },
        spec.tenants,
        dir.display()
    );

    let report = run_chaos_campaign(exe, &["--serve"], &spec, &dir, points, sweep)
        .map_err(|e| format!("serve drill FAILED: {e}"))?;
    println!(
        "  {} points, {} acked writes verified ({} in-flight tolerated), \
         time-to-healthy p50 {} us / p95 {} us",
        report.points,
        report.verified_total,
        report.inflight_tolerated,
        report.tth_p50_us,
        report.tth_p95_us
    );
    for (fault, n) in &report.fault_counts {
        println!("  fault {fault:<22} injected {n}x, all typed");
    }

    let out = write_report("BENCH_serve.json", &serve_json(&report, seed, sweep))?;
    println!(
        "{} kill points, {} acked writes verified, zero losses -> {}",
        report.points,
        report.verified_total,
        out.display()
    );
    Ok(())
}

/// The `_ms` keys older readers of the artifact know: the microsecond
/// measurement, rounded.
fn rounded_ms(us: u64) -> u64 {
    (us + 500) / 1000
}

fn serve_json(r: &ChaosReport, seed: u64, sweep: bool) -> Json {
    let outcomes: Vec<Json> = r
        .outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("kill_after_acks", Json::Int(o.kill_after_acks)),
                ("acked", Json::Int(o.acked)),
                ("completed", Json::Bool(o.completed)),
                ("fault", Json::Str(o.fault.into())),
                ("time_to_healthy_us", Json::Int(o.time_to_healthy_us)),
                (
                    "time_to_healthy_ms",
                    Json::Int(rounded_ms(o.time_to_healthy_us)),
                ),
                ("verified_addrs", Json::Int(o.verified_addrs)),
                ("inflight_tolerated", Json::Int(o.inflight_tolerated)),
            ])
        })
        .collect();
    let faults: Vec<Json> = r
        .fault_counts
        .iter()
        .map(|(k, v)| {
            Json::obj(vec![
                ("fault", Json::Str((*k).into())),
                ("injected", Json::Int(*v)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("benchmark", Json::Str("serve".into())),
        ("host", host_info_json()),
        ("seed", Json::Int(seed)),
        ("sweep", Json::Bool(sweep)),
        ("points", Json::Int(r.points)),
        ("tenants", Json::Int(r.tenants)),
        ("acked_total", Json::Int(r.acked_total)),
        ("verified_total", Json::Int(r.verified_total)),
        ("acked_write_losses", Json::Int(0)),
        ("completed_runs", Json::Int(r.completed_runs)),
        ("inflight_tolerated", Json::Int(r.inflight_tolerated)),
        ("time_to_healthy_p50_us", Json::Int(r.tth_p50_us)),
        ("time_to_healthy_p95_us", Json::Int(r.tth_p95_us)),
        (
            "time_to_healthy_p50_ms",
            Json::Int(rounded_ms(r.tth_p50_us)),
        ),
        (
            "time_to_healthy_p95_ms",
            Json::Int(rounded_ms(r.tth_p95_us)),
        ),
        ("kill_range", kill_range_json(r.kill_range)),
        ("connection_faults", Json::Arr(faults)),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

// ---------------------------------------------------------------------
// storm
// ---------------------------------------------------------------------

fn storm_campaign() -> Result<(), String> {
    let smoke = smoke_requested();
    let runs_per_scheme: u64 = if smoke { 6 } else { 170 };
    let config = AnubisConfig::small_test().with_spare_blocks(256);

    println!("== Anubis reproduction :: degraded-mode recovery storm ==");
    println!("{runs_per_scheme} randomized fault plans per scheme");

    let telemetry = anubis_bench::telemetry::start();
    let bonsai = |scheme| {
        let config = config.clone();
        move || BonsaiController::new(scheme, &config)
    };
    let sgx = |scheme| {
        let config = config.clone();
        move || SgxController::new(scheme, &config)
    };
    let storm = |seed| StormConfig {
        runs: runs_per_scheme,
        ops: 24,
        addr_space: 256,
        seed,
        recovery_faults: true,
    };
    let cases = vec![
        storm_case("osiris", &storm(0x05), bonsai(BonsaiScheme::Osiris)),
        storm_case("agit-read", &storm(0xA6), bonsai(BonsaiScheme::AgitRead)),
        storm_case("agit-plus", &storm(0xA7), bonsai(BonsaiScheme::AgitPlus)),
        storm_case(
            "bonsai-strict",
            &storm(0xB5),
            bonsai(BonsaiScheme::StrictPersist),
        ),
        storm_case("asit", &storm(0x51), sgx(SgxScheme::Asit)),
        storm_case("sgx-strict", &storm(0x55), sgx(SgxScheme::StrictPersist)),
    ];
    let plans_total = runs_per_scheme * cases.len() as u64;

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("recovery_degraded".into())),
        ("host", host_info_json()),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj(vec![
                ("runs_per_scheme", Json::Int(runs_per_scheme)),
                ("plans_total", Json::Int(plans_total)),
                ("ops_per_run", Json::Int(24)),
                ("spare_blocks", Json::Int(256)),
                ("recovery_faults", Json::Bool(true)),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ]);
    let out = write_report("BENCH_recovery_degraded.json", &doc)?;
    println!("wrote {}", out.display());
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_recovery_degraded");
    println!("{plans_total} plans, every one ended in a structured outcome");
    Ok(())
}

/// Runs one scheme's campaign and renders its report.
fn storm_case<C, F>(name: &str, storm: &StormConfig, make: F) -> Json
where
    C: Supervised,
    F: Fn() -> C,
{
    let t0 = Instant::now();
    let r = crash_storm(&make, storm);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    println!(
        "{name:>14}: {:>4} recovered / {:>3} degraded / {:>3} quarantined, \
         {} lost lines, {} recovery faults, fp {:016x}",
        r.recovered,
        r.degraded,
        r.quarantined,
        r.lost_lines,
        r.recovery_faults_injected,
        r.fingerprint,
    );
    Json::obj(vec![
        ("scheme", Json::Str(name.into())),
        ("wall_ns", Json::Num(wall_ns)),
        ("runs", Json::Int(r.runs)),
        ("recovered", Json::Int(r.recovered)),
        ("degraded", Json::Int(r.degraded)),
        ("quarantined", Json::Int(r.quarantined)),
        ("repaired_lines", Json::Int(r.repaired_lines)),
        ("rebuilt_nodes", Json::Int(r.rebuilt_nodes)),
        ("quarantined_lines", Json::Int(r.quarantined_lines)),
        ("lost_lines", Json::Int(r.lost_lines)),
        ("escalations_total", Json::Int(r.escalations_total)),
        (
            "recovery_faults_injected",
            Json::Int(r.recovery_faults_injected),
        ),
        ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_bench::json;

    /// One rendered point with the scratch root its reason may name cut
    /// off, down to the base run's own directory.
    fn unrooted(point: &str, family: &str) -> String {
        let run = format!("/{family}-r0/");
        let Some(at) = point.find(&run) else {
            return point.to_string();
        };
        let root = point[..at].rfind(' ').map_or(0, |space| space + 1);
        format!("{}{}", &point[..root], &point[at + 1..])
    }

    /// The committed `BENCH_adversary.json` is what this binary writes:
    /// the first base run of each family in it is, point for point, a
    /// fresh run of the default spec.
    #[test]
    fn the_committed_adversary_report_starts_with_a_fresh_base_run() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_adversary.json");
        let text = std::fs::read_to_string(&path).expect("the committed report");
        let committed = json::parse(&text).expect("it parses");
        let families = committed.get("families").and_then(Json::as_arr);
        let dir = std::env::temp_dir().join(format!("anubis-bench-adv-{}", std::process::id()));
        for (family, recorded) in Family::all().into_iter().zip(families.expect("families")) {
            let fresh = adversary::run_campaign(family, &AdversarySpec::default(), &dir, 1)
                .map(|report| adversary_family_json(&report))
                .expect("a fresh base run");
            let first_run = |doc: &Json| -> Vec<String> {
                let points = doc.get("points_detail").and_then(Json::as_arr);
                (points.expect("points_detail").iter())
                    .take(MUTATIONS_PER_RUN as usize)
                    .map(|p| unrooted(&p.render(), family.name()))
                    .collect()
            };
            assert_eq!(first_run(&fresh), first_run(recorded), "{}", family.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
