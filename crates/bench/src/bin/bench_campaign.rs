//! The crash / restart campaigns behind one command line:
//!
//! ```text
//! bench_campaign <drill|adversary|serve>
//!                [--points N] [--seed S] [--dir D] [--sweep] [--out PATH]
//! ```
//!
//! | campaign | what it does | default `--out` | exit code 1 on |
//! |---|---|---|---|
//! | `drill` | SIGKILLs a child serving a deterministic script over an anchored file-backed image once its anchor has sealed one of `N` randomized epochs **per family** (default 100; `--sweep`: every epoch of the script), restarts in a fresh address space over a copy of the dead image and its anchor, recovers, audits every line against the exact model of the epoch it opens at | `BENCH_drill.json` | an owed write lost, a write not owed visible, anything short of full recovery |
//! | `adversary` | in process: drives the script over an anchored image to a seeded ack count, mutates the dead image and its anchor (bit flips, truncations, WAL splices / reorders / duplicates, rollback to a state captured on the way, cross-key swaps, anchor attacks), restarts; `N` mutated restarts **per family** rounded up to whole base runs (default 120; `--sweep`: at least 440); the report is a pure function of the seed | `BENCH_adversary.json` | a panic in the recovery path, a silent stale serve, a class that missed its verdict floor |
//! | `serve` | in process: four tenants of the server's own boot play one seeded schedule of writes on one thread through the execute / durable seam, are killed at `N` drawn event indices (default 100; `--sweep`: every index), copied, restarted and audited line by line against the exact model; the report is a pure function of the seed apart from time-to-healthy | `BENCH_serve.json` | a durable or answered write lost, a not-durable write visible, a typed refusal, a tenant not back in full service |
//!
//! `--seed S` (decimal or `0x…`) seeds scripts, schedules, kill points
//! and mutation draws — each campaign's default is the seed its committed
//! `BENCH_*.json` was recorded with — and `--dir D` is the scratch
//! directory for images and logs (default: a campaign-named directory
//! under `$TMPDIR`).
//!
//! `drill` re-executes this binary as its victim: `--child …` is its
//! script child (`anubis_sim::campaign::ScriptChild`), killed mid-flight
//! on purpose.

use std::path::PathBuf;
use std::process::ExitCode;

use anubis::Family;
use anubis_bench::json::Json;
use anubis_bench::{host_info_json, parse_number};
use anubis_sim::adversary::{self, FamilyAdvReport, MUTATIONS_PER_RUN};
use anubis_sim::campaign::{ScriptSpec, Verdict};
use anubis_sim::drill::{self, FamilyReport};
use anubis_sim::serve::{self, ServeReport, ServeSpec};

const USAGE: &str = "usage: bench_campaign <drill|adversary|serve> \
                     [--points N] [--seed S] [--dir D] [--sweep] [--out PATH]";

/// The flags after the campaign name.
#[derive(Debug, Default)]
struct Flags {
    points: Option<u64>,
    seed: Option<u64>,
    dir: Option<PathBuf>,
    sweep: bool,
    out: Option<PathBuf>,
}

impl Flags {
    /// Parses `words`, refusing a flag that is unknown or malformed.
    fn parse(campaign: &str, words: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut words = words.iter();
        while let Some(flag) = words.next() {
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
                "--out" => flags.out = Some(PathBuf::from(value()?)),
                _ => return Err(format!("{campaign} does not take {flag}\n{USAGE}")),
            }
        }
        Ok(flags)
    }

    fn scratch(&self, name: &str) -> PathBuf {
        self.dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join(name))
    }

    /// Writes the report to `--out` (or `default`) and returns the path.
    fn write_report(&self, default: &str, doc: &Json) -> Result<PathBuf, String> {
        let out = self.out.clone().unwrap_or_else(|| PathBuf::from(default));
        std::fs::write(&out, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        Ok(out)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let script_campaign = |campaign: &str, run: fn(&Flags) -> Result<(), String>| {
        Flags::parse(campaign, &args[2..]).and_then(|flags| run(&flags))
    };
    let run = match args.get(1).map(String::as_str) {
        Some("--child") => {
            anubis_sim::campaign::child_main(&args[2..]).map_err(|e| format!("campaign child: {e}"))
        }
        Some("drill") => script_campaign("drill", drill_campaign),
        Some("adversary") => script_campaign("adversary", adversary_campaign),
        Some("serve") => script_campaign("serve", serve_campaign),
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

/// The smallest and largest of `kills`, `[0, 0]` when there are none.
fn kill_range_json(kills: impl Iterator<Item = u64> + Clone) -> Json {
    let (lo, hi) = (kills.clone().min(), kills.max());
    Json::Arr(vec![Json::Int(lo.unwrap_or(0)), Json::Int(hi.unwrap_or(0))])
}

// ---------------------------------------------------------------------
// drill
// ---------------------------------------------------------------------

fn drill_campaign(flags: &Flags) -> Result<(), String> {
    // The drill's victim is this binary, re-executed as `--child`.
    let exe =
        std::env::current_exe().map_err(|e| format!("drill: cannot locate own executable: {e}"))?;
    let defaults = ScriptSpec::drill();
    let spec = ScriptSpec {
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
    let mut total_owed = 0u64;
    for family in Family::all() {
        let report = drill::run_campaign(&exe, family, &spec, &dir, points, sweep)
            .map_err(|e| format!("drill FAILED for {}: {e}", family.name()))?;
        println!(
            "  {:<18} {:>4} points over {} epochs, {:>6} owed writes verified, \
             {} clean-exit runs, anchor one frame behind {}x",
            family.name(),
            report.outcomes.len(),
            report.final_epoch,
            report.owed_total,
            report.completed_runs,
            report.anchor_behind
        );
        total_points += report.outcomes.len() as u64;
        total_owed += report.owed_total;
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
        ("total_owed_verified", Json::Int(total_owed)),
        ("owed_write_losses", Json::Int(0)),
        ("not_owed_writes_visible", Json::Int(0)),
        ("families", Json::Arr(families)),
    ]);
    let out = flags.write_report("BENCH_drill.json", &doc)?;
    println!(
        "{total_points} kill points, {total_owed} owed writes verified, zero lost, \
         none visible that was not owed -> {}",
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
                ("kill_at_epoch", Json::Int(o.kill_at)),
                ("completed", Json::Bool(o.completed)),
                ("image_epoch", Json::Int(o.image_epoch)),
                ("anchor_behind", Json::Bool(o.anchor_behind)),
                ("owed", Json::Int(o.owed)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("family", Json::Str(r.family.name().into())),
        ("final_epoch", Json::Int(r.final_epoch)),
        ("points", Json::Int(r.outcomes.len() as u64)),
        ("completed_runs", Json::Int(r.completed_runs)),
        ("owed_total", Json::Int(r.owed_total)),
        ("anchor_behind", Json::Int(r.anchor_behind)),
        (
            "kill_range",
            kill_range_json(r.outcomes.iter().map(|o| o.kill_at)),
        ),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

// ---------------------------------------------------------------------
// adversary
// ---------------------------------------------------------------------

fn adversary_campaign(flags: &Flags) -> Result<(), String> {
    let defaults = ScriptSpec::adversary();
    let spec = ScriptSpec {
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
    let out = flags.write_report("BENCH_adversary.json", &doc)?;
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
        (
            "kill_range",
            kill_range_json(r.outcomes.iter().map(|o| o.kill_after_acks)),
        ),
        ("foreign_epoch", Json::Int(r.foreign_epoch)),
        ("classes", Json::Arr(classes)),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

fn serve_campaign(flags: &Flags) -> Result<(), String> {
    let defaults = ServeSpec::default();
    let spec = ServeSpec {
        seed: flags.seed.unwrap_or(defaults.seed),
        ..defaults
    };
    let (points, sweep) = (flags.points.unwrap_or(100), flags.sweep);
    let dir = flags.scratch("anubis-serve");

    println!("== Anubis reproduction :: in-process serve campaign ==");
    let kills = if sweep {
        "a kill at every event (exhaustive sweep)".to_string()
    } else {
        format!("{points} kill points")
    };
    println!(
        "{kills}, {} tenants, seed {:#x}, scratch {}",
        spec.tenants,
        spec.seed,
        dir.display()
    );

    let report = serve::run_campaign(&spec, &dir, points, sweep)
        .map_err(|e| format!("serve campaign FAILED: {e}"))?;
    println!(
        "  {} points over a {}-event schedule: {} writes durable at the kill ({} answered), \
         {} not durable, {} lines verified; time-to-healthy p50 {} us / p95 {} us",
        report.outcomes.len(),
        report.events,
        report.durable_total,
        report.acked_total,
        report.not_durable_total,
        report.verified_total,
        report.tth_p50_us,
        report.tth_p95_us
    );

    let out = flags.write_report("BENCH_serve.json", &serve_json(&report, &spec, sweep))?;
    println!(
        "{} kill points, zero durable or answered writes lost, no not-durable write \
         visible, every tenant back in full service -> {}",
        report.outcomes.len(),
        out.display()
    );
    Ok(())
}

fn serve_json(r: &ServeReport, spec: &ServeSpec, sweep: bool) -> Json {
    let outcomes: Vec<Json> = r
        .outcomes
        .iter()
        .map(|o| {
            let sum = |field: fn(&serve::TenantOutcome) -> u64| -> u64 {
                o.tenants.iter().map(field).sum()
            };
            let epochs = o.tenants.iter().map(|t| Json::Int(t.durable_epoch));
            Json::obj(vec![
                ("kill_at_event", Json::Int(o.kill_at)),
                ("durable_epochs", Json::Arr(epochs.collect())),
                ("acked", Json::Int(sum(|t| t.acked))),
                ("durable", Json::Int(sum(|t| t.durable))),
                ("not_durable", Json::Int(sum(|t| t.not_durable))),
                ("verified_lines", Json::Int(sum(|t| t.verified_lines))),
                ("time_to_healthy_us", Json::Int(o.time_to_healthy_us)),
            ])
        })
        .collect();
    let points = r.outcomes.len() as u64;
    Json::obj(vec![
        ("benchmark", Json::Str("serve".into())),
        ("host", host_info_json()),
        ("seed", Json::Int(spec.seed)),
        ("sweep", Json::Bool(sweep)),
        ("points", Json::Int(points)),
        ("tenants", Json::Int(spec.tenants as u64)),
        ("lines", Json::Int(spec.lines)),
        ("script_len", Json::Int(spec.script_len)),
        ("events", Json::Int(r.events)),
        ("acked_total", Json::Int(r.acked_total)),
        ("durable_total", Json::Int(r.durable_total)),
        ("not_durable_total", Json::Int(r.not_durable_total)),
        ("verified_total", Json::Int(r.verified_total)),
        ("acked_write_losses", Json::Int(0)),
        ("durable_write_losses", Json::Int(0)),
        ("not_durable_writes_visible", Json::Int(0)),
        (
            "tenant_restarts_full",
            Json::Int(points * spec.tenants as u64),
        ),
        ("time_to_healthy_p50_us", Json::Int(r.tth_p50_us)),
        ("time_to_healthy_p95_us", Json::Int(r.tth_p95_us)),
        (
            "kill_range",
            kill_range_json(r.outcomes.iter().map(|o| o.kill_at)),
        ),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_is_read_with_the_other_flags() {
        let words = |w: &[&str]| w.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let flags =
            Flags::parse("serve", &words(&["--points", "3", "--out", "r.json"])).expect("parses");
        assert_eq!(flags.out, Some(PathBuf::from("r.json")));
        assert_eq!(flags.points, Some(3));
        assert_eq!(Flags::parse("serve", &[]).expect("parses").out, None);
        let err = Flags::parse("serve", &words(&["--out"])).expect_err("--out needs a path");
        assert!(err.starts_with("--out needs a value"), "{err}");
    }

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

    /// The first base run's point objects of `family` in `report`, a
    /// campaign report rendered by [`Json::render`], each unrooted. A
    /// family object sits at depth 2 of the report, so its points open
    /// at eight spaces and their array closes at six.
    fn first_run(report: &str, family: &str) -> Vec<String> {
        let section = report
            .split_once(&format!("\"family\": \"{family}\""))
            .expect("the family's section")
            .1;
        let points = section
            .split_once("\"points_detail\": [")
            .expect("its points")
            .1;
        let points = points.split_once("\n      ]").expect("their end").0;
        (points.split("\n        {").skip(1))
            .take(MUTATIONS_PER_RUN as usize)
            .map(|p| unrooted(p.trim_end_matches(','), family))
            .collect()
    }

    /// The committed `BENCH_adversary.json` is what this binary writes:
    /// the first base run of each family in it is, point for point, a
    /// fresh run of the default spec, rendered at the same depth.
    #[test]
    fn the_committed_adversary_report_starts_with_a_fresh_base_run() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_adversary.json");
        let committed = std::fs::read_to_string(&path).expect("the committed report");
        let dir = std::env::temp_dir().join(format!("anubis-bench-adv-{}", std::process::id()));
        for family in Family::all() {
            let fresh = adversary::run_campaign(family, &ScriptSpec::adversary(), &dir, 1)
                .map(|report| adversary_family_json(&report))
                .expect("a fresh base run");
            let fresh = Json::obj(vec![("families", Json::Arr(vec![fresh]))]).render();
            let fresh = first_run(&fresh, family.name());
            assert_eq!(fresh.len() as u64, MUTATIONS_PER_RUN, "{}", family.name());
            assert_eq!(
                fresh,
                first_run(&committed, family.name()),
                "{}",
                family.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
