//! The served workloads: a real server child over TCP, two closed-loop
//! connections, every reply checked against the ledger.
//!
//! | workload | lane a | lane b |
//! |---|---|---|
//! | `serve_read` | `Read` on tenant a (bonsai, AGIT-Plus) | `Read` on tenant b (sgx, ASIT) |
//! | `serve_mixed` | scalar `Write` on tenant a | `Read` on tenant a, beside the writer |
//! | `serve_batch` | `WriteBatch`×32 on tenant a | `WriteBatch`×32 on tenant b |
//!
//! Closed loop because the protocol is one in-order request per frame
//! with a blocking client. Lanes on different tenants take turns within
//! each slice of the measured phase; the two lanes of `serve_mixed`,
//! which share a tenant, run together. Set-up (fresh data dir, spawn,
//! both tenants `Full`, all 16 384 lines of each tenant written once) is
//! untimed and reported as `setup_s`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anubis_nvm::SplitMix64;
use anubis_server::ServeClient;

use crate::canary::{self, Canary, Samples, Timeline};
use crate::metrics::{Report, END_TO_END};
use crate::rundir::{RunDir, ServerChild, TENANTS};
use crate::stats;
use crate::stream::{lane_rng, AddrLaw, Ledger, TENANT_LINES};
use crate::Budget;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Read,
    Mixed,
    Batch,
}

pub const BATCH_LINES: usize = 32;

const PREFILL_BATCH: usize = 512;

/// What one lane does for the whole measured phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOp {
    Read,
    Write,
    Batch,
}

impl Mix {
    /// The canary kernels that resemble what bounds a lane of this mix:
    /// a read is syscalls, wake-ups and arithmetic; a write (scalar or
    /// batch), and a read queued behind one, adds WAL barriers and
    /// anchor seals to that.
    pub fn kernels(self) -> &'static [usize] {
        match self {
            Mix::Read => &[canary::CPU, canary::WIRE],
            Mix::Mixed | Mix::Batch => &[canary::CPU, canary::WIRE, canary::SYNC],
        }
    }

    /// (tenant index, op) of lane a and lane b.
    pub fn lanes(self) -> [(usize, LaneOp); 2] {
        match self {
            Mix::Read => [(0, LaneOp::Read), (1, LaneOp::Read)],
            Mix::Mixed => [(0, LaneOp::Write), (0, LaneOp::Read)],
            Mix::Batch => [(0, LaneOp::Batch), (1, LaneOp::Batch)],
        }
    }
}

/// A served system ready for its first timed op.
pub struct Served {
    // Field order is drop order: sessions, then the child, then the dir.
    pub ledgers: [Arc<Ledger>; 2],
    pub child: ServerChild,
    pub dir: RunDir,
}

/// Writes every one of the first `lines` lines once, in address order.
fn prefill(client: &mut ServeClient, ledger: &Ledger, lines: u64) -> Result<(), String> {
    let addrs: Vec<u64> = (0..lines).collect();
    for chunk in addrs.chunks(PREFILL_BATCH) {
        let mut versions = Vec::with_capacity(chunk.len());
        let items: Vec<(u64, [u8; 64])> = chunk
            .iter()
            .map(|addr| {
                let (v, bytes) = ledger.begin_write(*addr);
                versions.push((*addr, v));
                (*addr, bytes)
            })
            .collect();
        client
            .write_batch(items, 10_000)
            .map_err(|e| format!("prefill batch at line {}: {e}", chunk[0]))?;
        for (addr, v) in versions {
            ledger.ack_write(addr, v);
        }
    }
    Ok(())
}

/// Fresh data dir, child, both tenants `Full`, then the first `lines`
/// lines of each tenant written once (both tenants in parallel).
pub fn bring_up(label: &str, lines: u64) -> Result<Served, String> {
    let dir = RunDir::create(label).map_err(|e| format!("scratch dir: {e}"))?;
    let child = ServerChild::spawn(dir.path()).map_err(|e| e.to_string())?;
    let ledgers = [
        Arc::new(Ledger::new(TENANT_LINES)),
        Arc::new(Ledger::new(TENANT_LINES)),
    ];
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = TENANTS
            .iter()
            .zip(&ledgers)
            .map(|(tenant, ledger)| {
                let child = &child;
                s.spawn(move || {
                    let (mut client, _) = child.connect_full(tenant).map_err(|e| e.to_string())?;
                    prefill(&mut client, ledger, lines)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("prefill thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        r?;
    }
    Ok(Served {
        ledgers,
        child,
        dir,
    })
}

#[derive(Default)]
struct LaneOutcome {
    /// Round-trip µs of every acknowledged op.
    samples: Samples,
    report: Report,
}

/// One connection's closed loop for `seconds`.
struct Lane<'a> {
    index: usize,
    op: LaneOp,
    client: ServeClient,
    ledger: &'a Ledger,
    law: &'a AddrLaw,
    rng: SplitMix64,
    out: LaneOutcome,
}

impl Lane<'_> {
    fn drive(&mut self, seconds: f64) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            self.one_op();
        }
    }

    fn one_op(&mut self) {
        let lane = self.index;
        let (ledger, out) = (self.ledger, &mut self.out);
        match self.op {
            LaneOp::Read => {
                let addr = self.law.draw(&mut self.rng);
                let floor = ledger.floor(addr);
                let t = Instant::now();
                let reply = self.client.read(addr, 0);
                let us = t.elapsed().as_secs_f64() * 1e6;
                match reply {
                    Ok((data, _)) => {
                        out.samples.push(us);
                        out.report.check(ledger.check_read(addr, floor, &data), || {
                            format!("lane {lane}: read of line {addr} does not match the ledger")
                        });
                    }
                    Err(e) => out
                        .report
                        .check(false, || format!("lane {lane}: read {addr}: {e}")),
                }
            }
            LaneOp::Write => {
                let addr = self.law.draw(&mut self.rng);
                let (v, bytes) = ledger.begin_write(addr);
                let t = Instant::now();
                let reply = self.client.write(addr, bytes, 0);
                let us = t.elapsed().as_secs_f64() * 1e6;
                match reply {
                    Ok(()) => {
                        ledger.ack_write(addr, v);
                        out.samples.push(us);
                        out.report.check(true, String::new);
                    }
                    Err(e) => out
                        .report
                        .check(false, || format!("lane {lane}: write {addr}: {e}")),
                }
            }
            LaneOp::Batch => {
                let mut versions = Vec::with_capacity(BATCH_LINES);
                let items: Vec<(u64, [u8; 64])> = (0..BATCH_LINES)
                    .map(|_| {
                        let addr = self.law.draw(&mut self.rng);
                        let (v, bytes) = ledger.begin_write(addr);
                        versions.push((addr, v));
                        (addr, bytes)
                    })
                    .collect();
                let t = Instant::now();
                let reply = self.client.write_batch(items, 0);
                let us = t.elapsed().as_secs_f64() * 1e6;
                match reply {
                    Ok(n) if n as usize == BATCH_LINES => {
                        for (addr, v) in versions {
                            ledger.ack_write(addr, v);
                        }
                        out.samples.push(us);
                        out.report.check(true, String::new);
                    }
                    Ok(n) => out.report.check(false, || {
                        format!("lane {lane}: batch acknowledged {n} of {BATCH_LINES} lines")
                    }),
                    Err(e) => out
                        .report
                        .check(false, || format!("lane {lane}: batch: {e}")),
                }
            }
        }
    }
}

/// Reads back every line of `tenant` with an acknowledged write and
/// checks it: a lost acknowledged write is a failed op.
pub fn audit(served: &Served, tenant: usize, report: &mut Report) -> Result<(), String> {
    audit_lines(
        served,
        tenant,
        &served.ledgers[tenant].acked_lines(),
        report,
    )
}

/// [`audit`] of the given lines only.
pub fn audit_lines(
    served: &Served,
    tenant: usize,
    lines: &[u64],
    report: &mut Report,
) -> Result<(), String> {
    let ledger = &served.ledgers[tenant];
    let (mut client, _) = served
        .child
        .connect_full(&TENANTS[tenant])
        .map_err(|e| e.to_string())?;
    for addr in lines.iter().copied() {
        let floor = ledger.floor(addr);
        match client.read(addr, 0) {
            Ok((data, _)) => report.check(ledger.check_read(addr, floor, &data), || {
                format!(
                    "audit: tenant {} line {addr} lost its acknowledged write",
                    TENANTS[tenant].name
                )
            }),
            Err(e) => report.check(false, || format!("audit read {addr}: {e}")),
        }
    }
    Ok(())
}

fn p50_p99(v: &mut [f64]) -> (f64, f64) {
    v.sort_unstable_by(f64::total_cmp);
    (stats::percentile(v, 0.5), stats::percentile(v, 0.99))
}

/// What the served measurement adds to the per-layer view.
#[derive(Default)]
pub struct ServedExtras {
    pub p99_us: [f64; 2],
    pub ops_per_s: f64,
    pub rejects: f64,
    pub rss_mb: f64,
}

/// One untraced run. The served system is handed back still up: the
/// traced run goes on to probe the same child.
pub fn run(
    mix: Mix,
    seed: u64,
    budget: &Budget,
    canary: &mut Canary,
) -> Result<(Report, ServedExtras, Served), String> {
    let lines = budget.scaled(TENANT_LINES as usize) as u64;
    let mut report = Report::default();
    let served = budget.set_up(canary, &mut report, || bring_up("serve", lines))?;

    let law = AddrLaw::new(seed, lines);
    let lanes = mix.lanes();
    let mut connected = Vec::new();
    for (index, (tenant, op)) in lanes.iter().enumerate() {
        let (client, _) = served
            .child
            .connect_full(&TENANTS[*tenant])
            .map_err(|e| e.to_string())?;
        connected.push(Lane {
            index,
            op: *op,
            client,
            ledger: &served.ledgers[*tenant],
            law: &law,
            rng: lane_rng(seed, index as u64),
            out: LaneOutcome::default(),
        });
    }
    let [mut lane_a, mut lane_b]: [Lane; 2] =
        connected.try_into().map_err(|_| "two lanes".to_string())?;

    // Slices of: canary reading, then the lanes. Where the lanes are
    // independent (one tenant each) they take turns, so that only one
    // request is in flight and the canary reads the host alone;
    // `serve_mixed` is about two connections on one tenant, so there
    // they run together.
    let slices = budget.slices();
    let slice_s = budget.seconds / slices as f64;
    let mut timeline = Timeline::default();
    let measured = Instant::now();
    for _ in 0..slices {
        timeline.push(canary.sample());
        lane_a.out.samples.begin_slice();
        lane_b.out.samples.begin_slice();
        if mix == Mix::Mixed {
            std::thread::scope(|s| {
                s.spawn(|| lane_a.drive(slice_s));
                s.spawn(|| lane_b.drive(slice_s));
            });
        } else {
            lane_a.drive(slice_s / 2.0);
            lane_b.drive(slice_s / 2.0);
        }
    }
    let elapsed = measured.elapsed().as_secs_f64();
    let (a, b) = (lane_a.out, lane_b.out);

    if a.samples.values.is_empty() || b.samples.values.is_empty() {
        return Err(format!(
            "a lane completed no operation: {:?} {:?}",
            a.report.failures, b.report.failures
        ));
    }
    let ops = (a.samples.values.len() + b.samples.values.len()) as f64;
    let mut raw = [(0.0, 0.0); 2];
    for (i, (name, lane)) in [("lane_a_p50_us", &a), ("lane_b_p50_us", &b)]
        .into_iter()
        .enumerate()
    {
        raw[i] = p50_p99(&mut lane.samples.values.clone());
        report.raw.push((name, raw[i].0));
        let mut scaled = lane.samples.scaled(&timeline, mix.kernels());
        report.set(&END_TO_END, name, stats::median(&mut scaled), scaled.len());
    }
    let [(_, a99), (_, b99)] = raw;
    report.merge(a.report);
    report.merge(b.report);

    // Durability audit of whatever the lanes wrote, then the server's
    // own view of what it refused.
    let mut rejects = 0u64;
    for (index, tenant) in TENANTS.iter().enumerate() {
        if lanes
            .iter()
            .any(|(t, op)| *t == index && *op != LaneOp::Read)
        {
            audit(&served, index, &mut report)?;
        }
        let (mut client, _) = served
            .child
            .connect_full(tenant)
            .map_err(|e| e.to_string())?;
        let s = client.stats().map_err(|e| format!("stats: {e}"))?;
        rejects += s.rejected_overload + s.rejected_circuit + s.rejected_deadline;
    }
    let extras = ServedExtras {
        p99_us: [a99, b99],
        ops_per_s: ops / elapsed,
        rejects: rejects as f64,
        rss_mb: served.child.rss_mb().unwrap_or(0.0),
    };
    report.notes.push(format!(
        "raw, never gated: lane a p99 {a99:.1} us, lane b p99 {b99:.1} us, \
         {:.0} ops/s closed-loop, {rejects} server-side rejects, child peak RSS {:.1} MiB",
        extras.ops_per_s, extras.rss_mb
    ));
    if rejects > 0 {
        report.fail(|| {
            format!("the server rejected {rejects} requests although the quota was lifted")
        });
    }
    Ok((report, extras, served))
}
