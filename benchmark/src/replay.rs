//! `replay_spec`: the host cost of the paper's Fig. 10/11 experiment.
//! In-process, `MemBackend`, `AnubisConfig::paper()`; `anubis-server`
//! and `FileBackend` do no work here.
//!
//! Two lanes (lane a = AGIT-Plus, lane b = ASIT), each a direct
//! `read`/`write` loop over the measured regions of the three traces
//! the overhead experiment of [`crate::simpass`] replays at full scale,
//! timed in chunks of 2 000 calls. The lanes take turns within each
//! slice of `--seconds`. Reads are buffered and checked against the
//! ledger after the chunk's clock has stopped.

use std::time::{Duration, Instant};

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_nvm::Block;
use anubis_workloads::{OpKind, Trace};

use crate::canary::{self, Canary, Samples, Timeline};
use crate::metrics::{Report, END_TO_END};
use crate::simpass::overhead_input;
use crate::stats;
use crate::stream::{block_of, holds_version_in, SparseLedger};
use crate::Budget;

pub const CHUNK_OPS: usize = 2_000;

/// One controller on one trace, with the ledger of what it holds.
pub struct Replayer<C> {
    pub ctrl: C,
    ledger: SparseLedger,
}

enum Prepared {
    Write(Block),
    /// A read and the version the line holds when it is issued.
    Read(u32),
}

impl<C: MemoryController> Replayer<C> {
    pub fn new(ctrl: C) -> Self {
        Replayer {
            ctrl,
            ledger: SparseLedger::default(),
        }
    }

    /// Issues `ops` back to back and returns the host ns they took.
    /// Payloads and expected versions are worked out before the clock
    /// starts, replies are checked after it has stopped.
    pub fn run_chunk(
        &mut self,
        ops: &[anubis_workloads::MemOp],
        report: &mut Report,
    ) -> Result<u64, String> {
        let prepared: Vec<Prepared> = ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Write => {
                    Prepared::Write(block_of(&self.ledger.next_write(op.addr.index())))
                }
                OpKind::Read => Prepared::Read(self.ledger.version(op.addr.index())),
            })
            .collect();
        let mut replies: Vec<Block> = Vec::with_capacity(ops.len());
        let t = Instant::now();
        for (op, p) in ops.iter().zip(&prepared) {
            let addr = DataAddr::new(op.addr.index());
            match p {
                Prepared::Write(data) => self
                    .ctrl
                    .write(addr, *data)
                    .map_err(|e| format!("write {}: {e}", op.addr.index()))?,
                Prepared::Read(_) => replies.push(
                    self.ctrl
                        .read(addr)
                        .map_err(|e| format!("read {}: {e}", op.addr.index()))?,
                ),
            }
        }
        let ns = t.elapsed().as_nanos() as u64;
        let mut replies = replies.iter();
        for (op, p) in ops.iter().zip(&prepared) {
            if let Prepared::Read(version) = p {
                let got = replies.next().expect("one reply per read");
                let a = op.addr.index();
                report.check(
                    holds_version_in(a, got.as_bytes(), *version, *version),
                    || format!("in-process read of line {a} is not version {version} of it"),
                );
            }
        }
        Ok(ns)
    }
}

/// Controller calls are arithmetic (Speck, hashing) and memory latency
/// (metadata in a sparse map over 16 GiB).
const KERNELS: [usize; 2] = [canary::CPU, canary::MEM];

/// One scheme's controllers (one per trace), where the lane stands in
/// its endless cycle over the measured regions, and what it measured.
struct Lane<C> {
    replayers: Vec<Replayer<C>>,
    /// (trace, chunk within its measured region) to run next.
    next: (usize, usize),
    /// Per trace: µs per call of every timed chunk.
    chunks: Vec<Samples>,
    report: Report,
}

impl<C: MemoryController> Lane<C> {
    /// Controller construction and the warm-up prefix of every trace.
    fn warmed(traces: &[Trace], warmup: usize, new_ctrl: impl Fn() -> C) -> Result<Self, String> {
        let mut lane = Lane {
            replayers: Vec::new(),
            next: (0, 0),
            chunks: traces.iter().map(|_| Samples::default()).collect(),
            report: Report::default(),
        };
        for trace in traces {
            let mut r = Replayer::new(new_ctrl());
            for chunk in trace.ops()[..warmup.min(trace.len())].chunks(CHUNK_OPS) {
                r.run_chunk(chunk, &mut lane.report)?;
            }
            lane.replayers.push(r);
        }
        if lane.report.failed > 0 {
            return Err(format!("warm-up reads failed: {:?}", lane.report.failures));
        }
        lane.report = Report::default(); // warm-up reads are not measured ops
        Ok(lane)
    }

    /// Starts a slice, then runs chunks for `seconds`.
    fn drive(&mut self, traces: &[Trace], warmup: usize, seconds: f64) -> Result<(), String> {
        for c in &mut self.chunks {
            c.begin_slice();
        }
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let (trace, chunk) = self.next;
            let measured = &traces[trace].ops()[warmup.min(traces[trace].len())..];
            let Some(ops) = measured.chunks(CHUNK_OPS).nth(chunk) else {
                self.next = ((trace + 1) % traces.len(), 0);
                continue;
            };
            let ns = self.replayers[trace].run_chunk(ops, &mut self.report)?;
            self.chunks[trace].push(ns as f64 / ops.len() as f64 / 1e3);
            self.next.1 += 1;
        }
        Ok(())
    }

    /// Mean over the traces of each trace's chunk median, in µs per
    /// call. The traces cost up to twice as much per call as each other,
    /// so one median over all chunks would move with where in the cycle
    /// the clock ran out.
    fn us_per_call(&self, scale: Option<&Timeline>) -> f64 {
        let per_trace: Vec<f64> = self
            .chunks
            .iter()
            .filter(|c| !c.values.is_empty())
            .map(|c| match scale {
                Some(timeline) => stats::median(&mut c.scaled(timeline, &KERNELS)),
                None => stats::median(&mut c.values.clone()),
            })
            .collect();
        per_trace.iter().sum::<f64>() / per_trace.len() as f64
    }

    fn chunk_count(&self) -> usize {
        self.chunks.iter().map(|c| c.values.len()).sum()
    }
}

struct Setup {
    traces: Vec<Trace>,
    warmup: usize,
    lane_a: Lane<BonsaiController>,
    lane_b: Lane<SgxController>,
}

/// Trace generation, controller construction and the warm-up prefix.
fn setup(seed: u64, budget: &Budget) -> Result<Setup, String> {
    let config = AnubisConfig::paper();
    let input = overhead_input(seed, budget.div);
    let (traces, warmup) = (input.traces, input.warmup);
    let lane_a = Lane::warmed(&traces, warmup, || {
        BonsaiController::new(BonsaiScheme::AgitPlus, &config)
    })?;
    let lane_b = Lane::warmed(&traces, warmup, || {
        SgxController::new(SgxScheme::Asit, &config)
    })?;
    Ok(Setup {
        traces,
        warmup,
        lane_a,
        lane_b,
    })
}

pub fn run(seed: u64, budget: &Budget, canary: &mut Canary) -> Result<Report, String> {
    let mut report = Report::default();
    let Setup {
        traces,
        warmup,
        lane_a: mut a,
        lane_b: mut b,
    } = budget.set_up(canary, &mut report, || setup(seed, budget))?;

    // Slices of: canary reading, lane a, lane b. One lane at a time, on
    // this thread, so neither lane's cache traffic lands in the other's
    // chunks and the canary reads the host alone.
    let slices = budget.slices();
    let slice_s = budget.seconds / slices as f64;
    let mut timeline = Timeline::default();
    for _ in 0..slices {
        timeline.push(canary.sample());
        a.drive(&traces, warmup, slice_s / 2.0)?;
        b.drive(&traces, warmup, slice_s / 2.0)?;
    }

    let (scaled_a, scaled_b) = (
        a.us_per_call(Some(&timeline)),
        b.us_per_call(Some(&timeline)),
    );
    report.set(&END_TO_END, "lane_a_p50_us", scaled_a, a.chunk_count());
    report.set(&END_TO_END, "lane_b_p50_us", scaled_b, b.chunk_count());
    report.raw.push(("lane_a_p50_us", a.us_per_call(None)));
    report.raw.push(("lane_b_p50_us", b.us_per_call(None)));
    report.notes.push(format!(
        "host pass: {} + {} chunks of {CHUNK_OPS} controller calls (lane a AGIT-Plus, lane b ASIT), paper config",
        a.chunk_count(),
        b.chunk_count()
    ));
    report.merge(a.report);
    report.merge(b.report);
    Ok(report)
}
