//! The performance ledger of the Anubis reproduction.
//!
//! ```text
//! ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--append FILE]
//! ledger --check
//! ledger compare <set-a.jsonl> <set-b.jsonl>
//! ```
//!
//! One run measures one workload and prints every metric by name with
//! its unit and clock, then — as the last line of stdout — the result
//! object of the benchmark contract. `--trace 0` (default) reports the
//! end-to-end metrics with nothing recording; `--trace 1` replays a
//! sample of the same stream through an in-process twin of the path
//! with a span around every call into a layer, reports the per-layer
//! metrics and writes `benchmark/out/trace_<workload>.jsonl`.
//!
//! Everything is measured from outside the crates, through their
//! public functions; `benchmark/README.md` has the tables.

#![forbid(unsafe_code)]

mod canary;
mod compare;
mod crash;
mod json;
mod metrics;
mod replay;
mod rundir;
mod served;
mod simpass;
mod stats;
mod stream;
mod twin;

use std::process::ExitCode;

use canary::Canary;
use metrics::{Report, END_TO_END, PER_LAYER};
use served::Mix;
use simpass::PaperNumbers;

/// Workload names are stable: later issues refer to them.
pub const WORKLOADS: [&str; 5] = [
    "replay_spec",
    "serve_read",
    "serve_mixed",
    "serve_batch",
    "crash_recover",
];

pub const DEFAULT_SEED: u64 = 1907;

/// How much work one run does.
pub struct Budget {
    /// Length of the host-timed phase.
    pub seconds: f64,
    /// Divisor on every fixed op count (1 normally, 50 under `--check`).
    pub div: usize,
    /// How often the set-up is performed at least; `setup_s` is the
    /// median over the repetitions.
    pub setup_reps: usize,
}

/// A cheap set-up is repeated beyond `setup_reps` until this much time
/// went into set-ups or [`MAX_SETUP_REPS`] is reached: the median of
/// nine 30 ms set-ups is steadier than that of three.
const SETUP_FILL_SECONDS: f64 = 2.0;
const MAX_SETUP_REPS: usize = 9;

impl Budget {
    pub fn scaled(&self, n: usize) -> usize {
        (n / self.div).max(1)
    }

    /// Slices of the measured phase: one canary reading each, about
    /// eight a second.
    pub fn slices(&self) -> usize {
        ((self.seconds * 8.0).round() as usize).clamp(4, 64)
    }

    /// Sets up repeatedly, dropping each product before the next is
    /// made (one server child at a time), with canary readings around
    /// every repetition. Returns the last product and fills in
    /// `setup_s`: the median over the repetitions of set-up seconds
    /// scaled by the host index of all four kernels.
    pub fn set_up<T>(
        &self,
        canary: &mut Canary,
        report: &mut Report,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut timeline = canary::Timeline::default();
        let mut times = Vec::new();
        let mut product = None;
        loop {
            drop(product.take());
            timeline.push(canary.read(3));
            let t = std::time::Instant::now();
            product = Some(setup()?);
            times.push(t.elapsed().as_secs_f64());
            timeline.push(canary.read(3));
            let enough = times.len() >= self.setup_reps
                && (self.setup_reps == 1
                    || times.iter().sum::<f64>() >= SETUP_FILL_SECONDS
                    || times.len() >= MAX_SETUP_REPS);
            if enough {
                break;
            }
        }
        // Repetition i sits between readings 2i and 2i + 1.
        let mut scaled: Vec<f64> = times
            .iter()
            .enumerate()
            .map(|(i, s)| s / timeline.index(2 * i, &canary::ALL))
            .collect();
        report.set(
            &END_TO_END,
            "setup_s",
            stats::median(&mut scaled),
            times.len(),
        );
        report.raw.push(("setup_s", stats::median(&mut times)));
        Ok(product.expect("at least one set-up"))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    append: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: ledger --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--append FILE]\n       \
         ledger --check\n       ledger compare <set-a.jsonl> <set-b.jsonl>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        append: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--append" => args.append = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    Ok(args)
}

/// Divisors of the two simulated experiments on `workload`: full scale
/// where the experiment is the workload's own, a tenth elsewhere.
pub fn paper_scale(workload: &str, budget: &Budget) -> (usize, usize) {
    let overhead = if workload == "replay_spec" { 1 } else { 10 };
    let recovery = if workload == "crash_recover" { 1 } else { 10 };
    (overhead * budget.div, recovery * budget.div)
}

fn set_sim(report: &mut Report, paper: &PaperNumbers) {
    report.attempted += paper.repeats_checked;
    for _ in 0..paper.repeats_differed {
        report.fail(|| "a repeated crash counted different recovery operations".into());
    }
    for (suffix, f, r) in [
        (
            "agit_plus",
            &paper.overhead.agit_plus,
            &paper.recovery.agit_plus,
        ),
        ("asit", &paper.overhead.asit, &paper.recovery.asit),
    ] {
        report.set(
            &END_TO_END,
            &format!("sim_overhead_pct.{suffix}"),
            100.0 * (f.slowdown - 1.0),
            0,
        );
        report.set(
            &END_TO_END,
            &format!("sim_tail_ns.{suffix}"),
            f.tail_ns,
            f.samples.div_ceil(100),
        );
        report.set(
            &END_TO_END,
            &format!("recovery_sim_ms.{suffix}"),
            r.recovery_ms,
            0,
        );
        report.notes.push(format!(
            "{suffix}: normalized execution time {:.6} (paper average over 11 applications: {}); nearest-rank sim p99 {} ns over {} ops",
            f.slowdown,
            if suffix == "agit_plus" { "1.034" } else { "1.079" },
            f.p99_ns,
            f.samples
        ));
    }
}

/// One untraced run: the end-to-end metrics.
fn run_end_to_end(
    workload: &str,
    seed: u64,
    budget: &Budget,
    canary: &mut Canary,
) -> Result<Report, String> {
    let mut report = match workload {
        "replay_spec" => replay::run(seed, budget, canary)?,
        "serve_read" | "serve_mixed" | "serve_batch" => {
            served::run(mix_of(workload), seed, budget, canary)?.0
        }
        "crash_recover" => crash::run(seed, budget, canary)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (overhead_div, recovery_div) = paper_scale(workload, budget);
    set_sim(
        &mut report,
        &simpass::paper_pass(seed, overhead_div, recovery_div)?,
    );
    Ok(report)
}

pub fn mix_of(workload: &str) -> Mix {
    match workload {
        "serve_read" => Mix::Read,
        "serve_mixed" => Mix::Mixed,
        _ => Mix::Batch,
    }
}

fn run_workload(args: &Args, budget: &Budget) -> Result<bool, String> {
    let mut canary = Canary::new()?;
    canary.sample();
    let (report, table): (Report, &[metrics::MetricDef]) = if args.trace {
        (
            twin::run_traced(&args.workload, args.seed, budget, &mut canary)?,
            &PER_LAYER,
        )
    } else {
        (
            run_end_to_end(&args.workload, args.seed, budget, &mut canary)?,
            &END_TO_END,
        )
    };
    canary.sample();
    let missing = report.missing(table);
    if !missing.is_empty() {
        return Err(format!(
            "workload {} did not report {missing:?}",
            args.workload
        ));
    }
    let canary = canary.report();
    report.print_human(&args.workload, args.seed, &canary);
    let result = report.result_json();
    if let Some(path) = &args.append {
        compare::append_run(
            path,
            &args.workload,
            args.seed,
            args.trace,
            &canary,
            &report.raw,
            &result,
        )
        .map_err(|e| format!("--append {path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(report.correct())
}

/// `--check`: every workload at about 1/50 scale, end to end and
/// traced, as a smoke test of the benchmark itself.
fn check() -> Result<(), String> {
    let budget = Budget {
        seconds: 0.4,
        div: 50,
        setup_reps: 1,
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: DEFAULT_SEED,
                seconds: budget.seconds,
                trace,
                append: None,
            };
            if !run_workload(&args, &budget)? {
                return Err(format!(
                    "--check: {workload} (trace {}) was not correct",
                    u8::from(trace)
                ));
            }
        }
    }
    println!(
        "check ok: {} workloads, end to end and traced",
        WORKLOADS.len()
    );
    Ok(())
}

/// Every measuring run has its whole process tree on one CPU. On this
/// two-core host a served round trip is mostly wake-ups: with client
/// and server threads free to roam, the p50 of `serve_read` sat at 21 µs
/// or 32 µs for seconds at a time and moved by half between identical
/// runs, and a lone connection measured 58 µs because both cores kept
/// going idle. On one CPU every hand-off is a context switch, no core
/// idles, nothing migrates, and the p50 repeats within a few percent.
/// The cost is that the two threads of the simulated pass share the CPU.
fn wants_one_cpu(argv: &[String]) -> bool {
    matches!(
        argv.first().map(String::as_str),
        Some("--check" | "--workload" | "--seed" | "--seconds" | "--trace" | "--append")
    )
}

/// Re-executes this process under `taskset -c <last allowed CPU>` and
/// returns its exit code; `None` when already pinned or when `taskset`
/// cannot be run, in which case the run goes on unpinned and says so.
fn rerun_on_one_cpu(argv: &[String]) -> Option<ExitCode> {
    const MARK: &str = "LEDGER_PINNED_CPU";
    if std::env::var_os(MARK).is_some() {
        return None;
    }
    let cpu = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let list = s
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            let last = list.trim().rsplit([',', '-']).next()?;
            last.parse::<u32>().ok()
        });
    let pinned = cpu.and_then(|cpu| {
        std::process::Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .arg(std::env::current_exe().ok()?)
            .args(argv)
            .env(MARK, cpu.to_string())
            .status()
            .ok()
    });
    match pinned {
        Some(status) => Some(ExitCode::from(
            status.code().unwrap_or(3).clamp(0, 255) as u8
        )),
        None => {
            println!(
                "# taskset is not available: running unpinned, served latencies will be noisier"
            );
            None
        }
    }
}

fn main() -> ExitCode {
    // The in-process controllers publish to the global registry when
    // this is set; the ledger measures the disabled path.
    std::env::remove_var("ANUBIS_TELEMETRY");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if wants_one_cpu(&argv) {
        if let Some(code) = rerun_on_one_cpu(&argv) {
            return code;
        }
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("serve-child") => rundir::serve_child_main(),
        Some("janitor") => match argv.get(1) {
            Some(dir) => rundir::janitor_main(std::path::Path::new(dir)),
            None => Err("janitor needs a directory".to_string()),
        },
        Some("compare") => compare::main(&argv[1..]),
        Some("--check") => check().map(|()| true),
        Some("-h" | "--help") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(|args| {
            let budget = Budget {
                seconds: args.seconds,
                div: 1,
                setup_reps: 3,
            };
            run_workload(&args, &budget)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
