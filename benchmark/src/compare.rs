//! `ledger compare A B`: two result sets of the same workloads, one
//! verdict per (metric, workload).
//!
//! A result set is a file of lines written by `--append`, one per run:
//! the workload, the seed, the canary's reading and the run's result
//! object. Runs the canary marked `disturbed` and runs that were not
//! correct are left out. Bounds come from `BENCHMARK.json` in the
//! current directory.
//!
//! * Simulated metrics repeat exactly for a seed, so they are paired by
//!   seed and any difference is a change: `worse` or `better` by the
//!   sign of the summed differences, whatever the bound. (With no seed in
//!   common they are compared like host metrics.)
//! * Host metrics compare medians against the bound. When either side's
//!   interquartile spread is wider than the bound the verdict is
//!   `unresolved` — unless every run of B is on one side of every run
//!   of A, which settles it.

use std::collections::BTreeMap;
use std::io::Write;

use crate::canary::CanaryReport;
use crate::json::Json;
use crate::metrics::{Clock, END_TO_END};
use crate::stats;

const MIN_RUNS: usize = 5;

/// Appends one run to a result set.
pub fn append_run(
    path: &str,
    workload: &str,
    seed: u64,
    traced: bool,
    canary: &CanaryReport,
    raw: &[(&'static str, f64)],
    result: &Json,
) -> std::io::Result<()> {
    let line = Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        (
            "canary_ns",
            Json::obj(
                crate::canary::KERNELS
                    .iter()
                    .zip(canary.median_ns)
                    .map(|(k, ns)| (*k, Json::Num(ns)))
                    .collect(),
            ),
        ),
        ("disturbed", Json::Bool(canary.disturbed)),
        (
            "raw",
            Json::obj(raw.iter().map(|(k, v)| (*k, Json::Num(*v))).collect()),
        ),
        ("result", result.clone()),
    ])
    .render();
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// (workload, metric) → (seed, value) of every usable untraced run.
type Set = BTreeMap<(String, String), Vec<(u64, f64)>>;

#[derive(Default)]
struct Loaded {
    set: Set,
    dropped_disturbed: usize,
    dropped_incorrect: usize,
}

fn load(text: &str) -> Result<Loaded, String> {
    let mut out = Loaded::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("line {}: no {k:?}", n + 1))
        };
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        if field("disturbed")?.as_bool() == Some(true) {
            out.dropped_disturbed += 1;
            continue;
        }
        let result = field("result")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            out.dropped_incorrect += 1;
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: {name} has no value", n + 1))?;
            out.set
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Lower is better for every end-to-end metric of the ledger.
pub fn verdict(exact: bool, bound: f64, a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
    let values = |s: &[(u64, f64)]| s.iter().map(|(_, v)| *v).collect::<Vec<f64>>();
    let (va, vb) = (values(a), values(b));
    if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (_, ma, _) = stats::quartiles(&va);
    let (_, mb, _) = stats::quartiles(&vb);
    if exact {
        // Paired by seed: a run left out on one side must not look like
        // a change on the other.
        let by_seed: BTreeMap<u64, f64> = a.iter().copied().collect();
        let pairs: Vec<(f64, f64)> = b
            .iter()
            .filter_map(|(seed, y)| by_seed.get(seed).map(|x| (*x, *y)))
            .collect();
        if !pairs.is_empty() {
            let drift: f64 = pairs.iter().map(|(x, y)| y - x).sum();
            return if pairs.iter().all(|(x, y)| x.to_bits() == y.to_bits()) {
                Verdict::Same
            } else if drift > 0.0 {
                Verdict::Worse
            } else if drift < 0.0 {
                Verdict::Better
            } else {
                Verdict::Unresolved
            };
        }
        // No seed in common: the values are comparable only as host
        // numbers are, through the bound.
    }
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let noisy = stats::spread(&va) > bound || stats::spread(&vb) > bound;
    let rel = (mb - ma) / ma;
    if rel > bound {
        if noisy && min(&vb) <= max(&va) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if rel < -bound {
        if noisy && max(&vb) >= min(&va) {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the current directory: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Prints the table; `Ok(false)` when any verdict is `worse`.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = argv else {
        return Err("usage: ledger compare <set-a.jsonl> <set-b.jsonl>".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| load(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(path_a)?, read(path_b)?);
    let bounds = bounds()?;
    println!(
        "{:<14} {:<28} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "change",
        "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), runs_a) in &a.set {
        let Some(runs_b) = b.set.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<14} {metric:<28} missing from {path_b}");
            continue;
        };
        let Some(def) = END_TO_END.iter().find(|d| d.name == metric) else {
            continue;
        };
        let bound = bounds.get(metric).copied().unwrap_or(0.0);
        let v = verdict(def.clock != Clock::Host, bound, runs_a, runs_b);
        any_worse |= v == Verdict::Worse;
        let q = |runs: &[(u64, f64)]| {
            let vals: Vec<f64> = runs.iter().map(|(_, x)| *x).collect();
            if vals.len() >= 2 {
                stats::quartiles(&vals)
            } else {
                (f64::NAN, f64::NAN, f64::NAN)
            }
        };
        let (a1, a2, a3) = q(runs_a);
        let (b1, b2, b3) = q(runs_b);
        println!(
            "{workload:<14} {metric:<28} {a1:>12.5} {a2:>12.5} {a3:>12.5} | {b1:>12.5} {b2:>12.5} {b3:>12.5} {:>+7.2}% {:>6.1}%  {} (n={}/{})",
            100.0 * (b2 - a2) / a2,
            100.0 * bound,
            v.word(),
            runs_a.len(),
            runs_b.len()
        );
    }
    for (name, l) in [(path_a, &a), (path_b, &b)] {
        if l.dropped_disturbed + l.dropped_incorrect > 0 {
            println!(
                "# {name}: left out {} disturbed and {} incorrect runs",
                l.dropped_disturbed, l.dropped_incorrect
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn exact_metrics_flag_any_difference() {
        let a = runs(&[1.034, 1.035, 1.036, 1.034, 1.033]);
        assert_eq!(verdict(true, 0.01, &a, &a), Verdict::Same);
        let mut b = a.clone();
        for r in &mut b {
            r.1 += 0.0001;
        }
        assert_eq!(verdict(true, 0.01, &a, &b), Verdict::Worse);
        assert_eq!(verdict(true, 0.01, &b, &a), Verdict::Better);
    }

    #[test]
    fn exact_metrics_pair_by_seed() {
        let a = runs(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        // B lost its two cheapest seeds to the canary: still the same.
        assert_eq!(verdict(true, 0.01, &a, &a[2..]), Verdict::Same);
        let mut b = a[2..].to_vec();
        b[0].1 = 3.5;
        assert_eq!(verdict(true, 0.5, &a, &b), Verdict::Worse);
    }

    #[test]
    fn host_metrics_use_the_bound_and_the_spread() {
        let a = runs(&[30.0, 30.5, 29.8, 30.2, 30.1, 29.9]);
        let near = runs(&[30.9, 31.0, 30.6, 31.2, 30.8, 30.7]);
        let far = runs(&[36.0, 36.5, 35.8, 36.2, 36.1, 35.9]);
        assert_eq!(verdict(false, 0.10, &a, &near), Verdict::Same);
        assert_eq!(verdict(false, 0.10, &a, &far), Verdict::Worse);
        assert_eq!(verdict(false, 0.10, &far, &a), Verdict::Better);
        // Spread wider than the bound and overlapping runs: nothing is shown.
        let wide_a = runs(&[30.0, 45.0, 25.0, 38.0, 28.0, 33.0]);
        let wide_b = runs(&[36.0, 50.0, 29.0, 44.0, 35.0, 41.0]);
        assert_eq!(verdict(false, 0.10, &wide_a, &wide_b), Verdict::Unresolved);
        assert_eq!(verdict(false, 0.10, &wide_a, &wide_a), Verdict::Unresolved);
        // ...unless every run of B is worse than every run of A.
        let wide_worse = runs(&[60.0, 75.0, 55.0, 68.0, 58.0, 63.0]);
        assert_eq!(verdict(false, 0.10, &wide_a, &wide_worse), Verdict::Worse);
        // Too few runs never resolve.
        assert_eq!(verdict(false, 0.10, &a[..4], &far), Verdict::Unresolved);
    }

    #[test]
    fn disturbed_and_incorrect_runs_are_left_out() {
        let line = |seed: u64, disturbed: bool, correct: bool| {
            format!(
                "{{\"workload\": \"serve_read\", \"seed\": {seed}, \"trace\": 0, \"canary_ns\": {{}}, \
                 \"disturbed\": {disturbed}, \"result\": {{\"correct\": {correct}, \"attempted\": 1, \
                 \"failed\": 0, \"metrics\": {{\"setup_s\": {{\"value\": 2.5, \"unit\": \"s\"}}}}}}}}"
            )
        };
        let text = [
            line(1, false, true),
            line(2, true, true),
            line(3, false, false),
        ]
        .join("\n");
        let loaded = load(&text).expect("load");
        assert_eq!((loaded.dropped_disturbed, loaded.dropped_incorrect), (1, 1));
        assert_eq!(
            loaded.set[&("serve_read".to_string(), "setup_s".to_string())],
            vec![(1, 2.5)]
        );
    }
}
