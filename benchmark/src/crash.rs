//! `crash_recover`: what an operator waits after `kill -9`. (The
//! simulated half of the paper's recovery headline is the recovery
//! experiment of [`crate::simpass`], which this workload runs at
//! `bench_recovery`'s full scale.)
//!
//! On tenants holding all their lines: cycles of {acknowledged scalar
//! writes on both tenants → SIGKILL → respawn on the same data dir →
//! tight poll until the tenant is `Full` → read back what the cycles
//! wrote so far and a sample of the rest}, and after the last cycle
//! every line of both tenants. Lane a is the bonsai tenant's
//! spawn-to-`Full` time, lane b the sgx tenant's. The read-back is the
//! durability check: the page cache survives SIGKILL, so this proves
//! ordering and replay, not power-loss safety.

use std::collections::BTreeSet;

use crate::canary::{self, Canary, Samples, Timeline};
use crate::metrics::{Report, END_TO_END};
use crate::rundir::{ServerChild, TENANTS};
use crate::served::{audit, audit_lines, bring_up, Served};
use crate::stats;
use crate::stream::{lane_rng, AddrLaw, TENANT_LINES};
use crate::Budget;

const WRITES_PER_CYCLE: usize = 300;
/// Lines never written by a cycle that are read back after each restart.
const AUDIT_SAMPLE: usize = 256;
/// A restart is process start, WAL replay and the recovery ladder:
/// arithmetic and memory latency.
const KERNELS: [usize; 2] = [canary::CPU, canary::MEM];
/// Kill cycles per second of `--seconds`: 12 cycles at the 8 s the
/// benchmark is run with.
const CYCLES_PER_SECOND: f64 = 1.5;

struct Burst {
    report: Report,
    written: Vec<u64>,
}

fn write_burst(
    served: &Served,
    tenant: usize,
    law: &AddrLaw,
    seed: u64,
    cycle: u64,
    n: usize,
) -> Result<Burst, String> {
    let ledger = &served.ledgers[tenant];
    let (mut client, _) = served
        .child
        .connect_full(&TENANTS[tenant])
        .map_err(|e| e.to_string())?;
    let mut rng = lane_rng(seed ^ (cycle << 32), tenant as u64);
    let mut burst = Burst {
        report: Report::default(),
        written: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let addr = law.draw(&mut rng);
        let (v, bytes) = ledger.begin_write(addr);
        match client.write(addr, bytes, 0) {
            Ok(()) => {
                ledger.ack_write(addr, v);
                burst.written.push(addr);
                burst.report.check(true, String::new);
            }
            Err(e) => burst
                .report
                .check(false, || format!("cycle {cycle}: write {addr}: {e}")),
        }
    }
    Ok(burst)
}

pub fn run(seed: u64, budget: &Budget, canary: &mut Canary) -> Result<Report, String> {
    let lines = budget.scaled(TENANT_LINES as usize) as u64;
    let mut report = Report::default();
    let mut served = budget.set_up(canary, &mut report, || bring_up("crash", lines))?;

    let law = AddrLaw::new(seed, lines);
    let cycles = ((budget.seconds * CYCLES_PER_SECOND).round() as u64).max(3);
    let writes = budget.scaled(WRITES_PER_CYCLE);
    let mut touched = [BTreeSet::new(), BTreeSet::new()];
    let mut to_full_us = [Samples::default(), Samples::default()];
    let mut timeline = Timeline::default();
    for cycle in 0..cycles {
        timeline.push(canary.read(3));
        for lane in &mut to_full_us {
            lane.begin_slice();
        }
        let bursts: Vec<Result<Burst, String>> = std::thread::scope(|s| {
            let (served, law) = (&served, &law);
            let h: Vec<_> = (0..2)
                .map(|t| s.spawn(move || write_burst(served, t, law, seed, cycle, writes)))
                .collect();
            h.into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("write burst panicked".into()))
                })
                .collect()
        });
        for (tenant, b) in bursts.into_iter().enumerate() {
            let b = b?;
            report.merge(b.report);
            touched[tenant].extend(b.written);
        }

        // kill -9, then the same data dir under a new process.
        let Served {
            ledgers,
            child,
            dir,
        } = served;
        child.kill();
        let child =
            ServerChild::spawn(dir.path()).map_err(|e| format!("respawn in cycle {cycle}: {e}"))?;
        let fulls: Vec<Result<f64, String>> = std::thread::scope(|s| {
            let child = &child;
            let h: Vec<_> = TENANTS
                .iter()
                .map(|t| {
                    s.spawn(move || {
                        child
                            .connect_full(t)
                            .map(|(_, since_spawn)| since_spawn.as_secs_f64() * 1e6)
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            h.into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("poll thread panicked".into()))
                })
                .collect()
        });
        for (lane, us) in fulls.into_iter().enumerate() {
            to_full_us[lane].push(us?);
        }
        served = Served {
            ledgers,
            child,
            dir,
        };
        for (tenant, touched) in touched.iter().enumerate() {
            let mut rng = lane_rng(seed ^ (cycle << 32), 50 + tenant as u64);
            let mut check: Vec<u64> = touched.iter().copied().collect();
            check.extend((0..AUDIT_SAMPLE.min(lines as usize)).map(|_| rng.gen_range(0..lines)));
            audit_lines(&served, tenant, &check, &mut report)?;
        }
    }
    for tenant in 0..2 {
        audit(&served, tenant, &mut report)?;
    }

    let n = to_full_us[0].values.len();
    for (name, lane) in ["lane_a_p50_us", "lane_b_p50_us"]
        .into_iter()
        .zip(&to_full_us)
    {
        report.set(
            &END_TO_END,
            name,
            stats::median(&mut lane.scaled(&timeline, &KERNELS)),
            n,
        );
    }
    let [mut a, mut b] = to_full_us.map(|lane| lane.values);
    report.raw.push(("lane_a_p50_us", stats::median(&mut a)));
    report.raw.push(("lane_b_p50_us", stats::median(&mut b)));
    report.notes.push(format!(
        "{cycles} kill cycles of {writes} acknowledged writes per tenant; raw spawn-to-Full min..max: \
         tenant a {:.1}..{:.1} ms, tenant b {:.1}..{:.1} ms",
        a[0] / 1e3,
        a[n - 1] / 1e3,
        b[0] / 1e3,
        b[n - 1] / 1e3
    ));
    Ok(report)
}
