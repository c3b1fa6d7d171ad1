//! The serve campaign: the server's tenants, driven in process on one
//! thread through their execute / durable seam, killed at a seeded event,
//! restarted over copies of their images and audited exactly.
//!
//! Per point:
//!
//! 1. **Boot.** Open the tenants (bonsai / sgx, alternating) as the
//!    server boots them — [`Tenant::open`], boot ladder included — over a
//!    fresh data directory, and join their ladders.
//! 2. **Schedule.** Play the seed's events up to the point's kill index.
//!    An event begins the next scripted write of one tenant
//!    ([`Tenant::begin`]; at most two outstanding per tenant) or finishes
//!    its oldest outstanding one ([`Tenant::finish`]). Finishing the
//!    first of two leads the group commit that covers both, so shared
//!    frames are part of the schedule.
//! 3. **Kill.** Copy every tenant's image and anchor aside. Between two
//!    events nothing is appending, so the copies are what a kill there
//!    leaves. Every executed write is known by its ticket: it is
//!    **durable** when the ticket is at most the tenant's durable epoch,
//!    whether or not it was answered.
//! 4. **Restart.** Open the copies in a fresh directory. Time-to-healthy
//!    runs from the first open until every ladder is joined and every
//!    tenant is `Full`.
//! 5. **Audit.** Read every line of every tenant through the served read
//!    path against the exact [`Acked`] model: the last payload that was
//!    durable or answered, in execution order, or zeros. A durable write
//!    that does not read back, answered or not, and a write that was not
//!    durable yet but shows, both fail the campaign. Nothing is tolerated
//!    as in flight.
//!
//! Admission is lifted out of the way as the ledger does and one thread
//! plays every event, so apart from time-to-healthy the report is a pure
//! function of the seed. What the campaign does not reach is covered
//! elsewhere: a kill inside `sync_data` by the drill's real SIGKILL and
//! the torn-frame tests, the wire and its connection faults by
//! `tests/serve_robustness.rs`, the frame-layer tests of
//! `anubis_server::protocol` and the ledger's served workloads.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use anubis::telemetry::{percentile_of_sorted, Telemetry};
use anubis::Family;
use anubis_nvm::{copy_image, Block};
use anubis_server::{Request, Response, ServeConfig, ServeMode, Tenant, TenantSpec, ThreadReg};

use crate::campaign::{io_ctx, op_payload, Acked, HarnessError, ReadBack, XorShift64};

/// Campaign geometry.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Seed for the scripts, the schedule and the kill indices.
    pub seed: u64,
    /// Tenants, bonsai and sgx alternating.
    pub tenants: usize,
    /// Data lines per tenant address space; the audit reads all of them.
    pub lines: u64,
    /// Writes per tenant script.
    pub script_len: u64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            seed: 0xC4A0_5EED,
            tenants: 4,
            lines: 48,
            script_len: 24,
        }
    }
}

/// A campaign failure; every variant names the tenant it concerns.
#[derive(Debug)]
pub enum ServeCampaignError {
    /// Filesystem failure, with operation and path, or an image that did
    /// not open.
    Harness(HarnessError),
    /// After the restart a line read back something other than what the
    /// model owes: a durable or answered write lost, or a write that was
    /// not durable yet showing.
    AckedWriteLost {
        /// The tenant.
        tenant: String,
        /// The data-line address.
        addr: u64,
        /// First word of the payload the model owes (zero: no write).
        want: u64,
        /// First word of what was read back.
        got: u64,
    },
    /// A tenant was not in full service once its ladder was joined.
    NotHealthy {
        /// The tenant.
        tenant: String,
        /// Its last ladder outcome, as its stats render it.
        outcome: String,
    },
    /// A typed refusal, or a reply of the wrong kind, where the schedule
    /// or the audit needed service: nothing is retried.
    Verify {
        /// The tenant.
        tenant: String,
        /// What was asked and what came back.
        detail: String,
    },
    /// A campaign point failed; its scratch directory is kept.
    Point {
        /// Index of the point in campaign order.
        index: u64,
        /// Events played before the kill.
        kill_at: u64,
        /// Scratch directory preserved for post-mortem: `live` holds the
        /// images as the kill left them.
        dir: PathBuf,
        /// The underlying failure.
        source: Box<ServeCampaignError>,
    },
}

impl std::fmt::Display for ServeCampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeCampaignError::Harness(e) => write!(f, "{e}"),
            ServeCampaignError::AckedWriteLost {
                tenant,
                addr,
                want,
                got,
            } => write!(
                f,
                "WRITE LOST OR NOT-DURABLE WRITE VISIBLE: tenant {tenant} line {addr} \
                 want {want:#018x} got {got:#018x}"
            ),
            ServeCampaignError::NotHealthy { tenant, outcome } => write!(
                f,
                "tenant {tenant} not back to full service (last outcome {outcome:?})"
            ),
            ServeCampaignError::Verify { tenant, detail } => {
                write!(f, "tenant {tenant} refused service: {detail}")
            }
            ServeCampaignError::Point {
                index,
                kill_at,
                dir,
                source,
            } => write!(
                f,
                "point {index} (kill after {kill_at} events, artifacts in {}): {source}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for ServeCampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeCampaignError::Harness(e) => Some(e),
            ServeCampaignError::Point { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl<E: Into<HarnessError>> From<E> for ServeCampaignError {
    fn from(e: E) -> Self {
        ServeCampaignError::Harness(e.into())
    }
}

/// One tenant of one point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantOutcome {
    /// The tenant's durable epoch at the kill.
    pub durable_epoch: u64,
    /// Writes answered before the kill.
    pub acked: u64,
    /// Writes executed before the kill and durable at it, answered or
    /// not.
    pub durable: u64,
    /// Writes executed before the kill and not durable at it.
    pub not_durable: u64,
    /// Lines read back as owed after the restart.
    pub verified_lines: u64,
}

/// One kill point's outcome.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// Events played before the kill.
    pub kill_at: u64,
    /// Per tenant, in roster order.
    pub tenants: Vec<TenantOutcome>,
    /// Microseconds from the first open of the restart until every
    /// tenant served in full mode.
    pub time_to_healthy_us: u64,
}

/// Whole-campaign report.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Events in the seed's schedule.
    pub events: u64,
    /// Writes answered before the kills, over every point and tenant.
    pub acked_total: u64,
    /// Writes durable at the kills.
    pub durable_total: u64,
    /// Writes executed and not durable at the kills.
    pub not_durable_total: u64,
    /// Lines read back as owed after the restarts.
    pub verified_total: u64,
    /// Median time-to-healthy across points, microseconds.
    pub tth_p50_us: u64,
    /// 95th-percentile time-to-healthy across points, microseconds.
    pub tth_p95_us: u64,
    /// Kill indices exercised, smallest and largest.
    pub kill_range: (u64, u64),
    /// Per-point detail, in campaign order.
    pub outcomes: Vec<PointOutcome>,
}

/// One event of the schedule: `(tenant, begins)` — `true` begins the
/// tenant's next scripted write, `false` finishes its oldest outstanding
/// one.
type Event = (usize, bool);

fn family(tenant: usize) -> Family {
    if tenant.is_multiple_of(2) {
        Family::BonsaiAgitPlus
    } else {
        Family::SgxAsit
    }
}

/// A tenant roster over `dir`, with admission lifted as the ledger lifts
/// it: no wall-clock admission decision lands in the schedule.
fn config(spec: &ServeSpec, dir: &Path) -> ServeConfig {
    ServeConfig {
        data_dir: dir.to_path_buf(),
        tenants: (0..spec.tenants)
            .map(|t| TenantSpec::new(&format!("tenant-{t}"), &format!("token-{t}"), family(t)))
            .collect(),
        ops_per_sec: 1e8,
        burst: 1_000_000,
        ..ServeConfig::default()
    }
}

/// The lines tenant `t` writes, in order. A write's payload is the
/// [`op_payload`] of its campaign-wide index, so no two writes of a
/// campaign carry the same one.
fn script(spec: &ServeSpec, t: usize) -> Vec<u64> {
    let mut rng = XorShift64::for_family(spec.seed ^ t as u64, family(t));
    (0..spec.script_len)
        .map(|_| rng.next_star() % spec.lines.max(1))
        .collect()
}

/// The seed's schedule, then `points` kill indices in `1..=events` drawn
/// from the same generator — or, `sweep`, every one of them.
fn plan(spec: &ServeSpec, points: u64, sweep: bool) -> (Vec<Event>, Vec<u64>) {
    let mut rng = XorShift64::new(spec.seed);
    let (mut begun, mut open) = (vec![0u64; spec.tenants], vec![0u8; spec.tenants]);
    let mut events = Vec::new();
    loop {
        let live: Vec<usize> = (0..spec.tenants)
            .filter(|&t| begun[t] < spec.script_len || open[t] > 0)
            .collect();
        if live.is_empty() {
            break;
        }
        let t = live[(rng.next_star() % live.len() as u64) as usize];
        let begins = open[t] == 0
            || (open[t] < 2 && begun[t] < spec.script_len && rng.next_star().is_multiple_of(2));
        if begins {
            begun[t] += 1;
            open[t] += 1;
        } else {
            open[t] -= 1;
        }
        events.push((t, begins));
    }
    let n = events.len() as u64;
    let kills = if sweep {
        (1..=n).collect()
    } else {
        (0..points)
            .map(|_| 1 + rng.next_star() % n.max(1))
            .collect()
    };
    (events, kills)
}

/// The tenants of one boot over one data directory.
struct Fleet {
    cfg: ServeConfig,
    threads: ThreadReg,
    tenants: Vec<Arc<Tenant>>,
}

impl Fleet {
    /// Opens every tenant over `dir` as the server boots them and joins
    /// their ladders. Returns the fleet and the microseconds from the
    /// first open until every tenant was `Full`.
    fn boot(spec: &ServeSpec, dir: &Path) -> Result<(Fleet, u64), ServeCampaignError> {
        fs::create_dir_all(dir).map_err(io_ctx("create data dir", dir))?;
        let (cfg, threads) = (config(spec, dir), ThreadReg::default());
        let started = Instant::now();
        let tenants = (cfg.tenants.iter())
            .map(|t| Tenant::open(t, &cfg, Telemetry::off(), &threads))
            .collect::<Result<Vec<_>, _>>()?;
        let ladders = std::mem::take(&mut *threads.lock().unwrap_or_else(PoisonError::into_inner));
        for ladder in ladders {
            // A ladder that panicked leaves its tenant short of `Full`.
            let _ = ladder.join();
        }
        let fleet = Fleet {
            cfg,
            threads,
            tenants,
        };
        for tenant in &fleet.tenants {
            if tenant.mode() != ServeMode::Full {
                let outcome = match fleet.call(tenant, &Request::Stats) {
                    Response::StatsOk(stats) => stats.last_outcome,
                    other => format!("{other:?}"),
                };
                let tenant = tenant.name().to_string();
                return Err(ServeCampaignError::NotHealthy { tenant, outcome });
            }
        }
        Ok((fleet, started.elapsed().as_micros() as u64))
    }

    /// One request, executed and answered as a connection serves it.
    fn call(&self, tenant: &Arc<Tenant>, req: &Request) -> Response {
        tenant.finish(tenant.begin(req, Instant::now(), &self.cfg, &self.threads))
    }
}

fn refused(tenant: &Tenant, detail: String) -> ServeCampaignError {
    let tenant = tenant.name().to_string();
    ServeCampaignError::Verify { tenant, detail }
}

/// One executed write, as the audit knows it.
#[derive(Clone, Copy, Debug)]
struct Write {
    op: u64,
    line: u64,
    ticket: u64,
    answered: bool,
}

/// One tenant at the kill: its durable epoch, and every write it
/// executed, in execution order.
#[derive(Debug)]
struct AtKill {
    durable_epoch: u64,
    writes: Vec<Write>,
}

impl AtKill {
    /// What the tenant owes after the kill when everything up to `epoch`
    /// is durable: every write answered or covered by it, in execution
    /// order, over a fresh address space.
    fn model(&self, epoch: u64, lines: u64) -> Acked {
        let mut model = Acked::fresh(lines);
        for w in (self.writes.iter()).filter(|w| w.answered || w.ticket <= epoch) {
            model.ack(w.op, w.line, op_payload(w.op, w.line));
        }
        model
    }

    fn outcome(&self, verified_lines: u64) -> TenantOutcome {
        let durable = (self.writes.iter())
            .filter(|w| w.ticket <= self.durable_epoch)
            .count() as u64;
        TenantOutcome {
            durable_epoch: self.durable_epoch,
            acked: self.writes.iter().filter(|w| w.answered).count() as u64,
            durable,
            not_durable: self.writes.len() as u64 - durable,
            verified_lines,
        }
    }
}

/// Boots the tenants over `live`, plays `events` on this thread and
/// copies every image and anchor into `dead`: what a kill after the last
/// event leaves.
fn play(
    spec: &ServeSpec,
    events: &[Event],
    live: &Path,
    dead: &Path,
) -> Result<Vec<AtKill>, ServeCampaignError> {
    let (fleet, _) = Fleet::boot(spec, live)?;
    let scripts: Vec<Vec<u64>> = (0..spec.tenants).map(|t| script(spec, t)).collect();
    let mut executed: Vec<Vec<Write>> = vec![Vec::new(); spec.tenants];
    let mut outstanding: Vec<VecDeque<_>> = (0..spec.tenants).map(|_| VecDeque::new()).collect();
    for &(t, begins) in events {
        let (tenant, writes) = (&fleet.tenants[t], &mut executed[t]);
        if begins {
            let k = writes.len();
            let (op, line) = (t as u64 * spec.script_len + k as u64, scripts[t][k]);
            let data = *op_payload(op, line).as_bytes();
            let req = Request::Write {
                addr: line,
                deadline_ms: 0,
                data,
            };
            let executed = tenant.begin(&req, Instant::now(), &fleet.cfg, &fleet.threads);
            let Some(ticket) = executed.ticket() else {
                let reply = tenant.finish(executed);
                return Err(refused(tenant, format!("write {op} answered {reply:?}")));
            };
            writes.push(Write {
                op,
                line,
                ticket,
                answered: false,
            });
            outstanding[t].push_back((k, executed));
        } else {
            let (k, executed) =
                (outstanding[t].pop_front()).expect("the plan finishes what it began");
            match tenant.finish(executed) {
                Response::WriteOk => writes[k].answered = true,
                reply => {
                    let op = writes[k].op;
                    return Err(refused(tenant, format!("write {op} answered {reply:?}")));
                }
            }
        }
    }
    fs::create_dir_all(dead).map_err(io_ctx("create kill dir", dead))?;
    let dead_cfg = config(spec, dead);
    let kill = |(tenant, writes): (&Arc<Tenant>, Vec<Write>)| {
        let name = tenant.name();
        let (from, to) = (fleet.cfg.image_path(name), dead_cfg.image_path(name));
        copy_image(&from, &to).map_err(io_ctx("copy a killed image to", &to))?;
        let epochs = tenant.epochs();
        let (_, durable_epoch) =
            epochs.ok_or_else(|| refused(tenant, "no durable epoch".into()))?;
        Ok(AtKill {
            durable_epoch,
            writes,
        })
    };
    fleet.tenants.iter().zip(executed).map(kill).collect()
}

/// The exact model of every tenant at its kill.
fn exact_models(spec: &ServeSpec, at_kill: &[AtKill]) -> Vec<Acked> {
    (at_kill.iter())
        .map(|t| t.model(t.durable_epoch, spec.lines))
        .collect()
}

/// Boots the tenants over the copies in `dead` and audits every line of
/// each against its model. Returns the time to healthy and the lines
/// verified per tenant.
fn restart(
    spec: &ServeSpec,
    dead: &Path,
    models: &[Acked],
) -> Result<(u64, Vec<u64>), ServeCampaignError> {
    let (fleet, time_to_healthy_us) = Fleet::boot(spec, dead)?;
    let mut verified = Vec::with_capacity(models.len());
    for (tenant, model) in fleet.tenants.iter().zip(models) {
        let read = |_: &mut (), addr: u64| {
            let req = Request::Read {
                addr,
                deadline_ms: 0,
            };
            match fleet.call(tenant, &req) {
                Response::ReadOk {
                    data,
                    mode: ServeMode::Full,
                } => Ok(Block::from_bytes(data)),
                reply => Err(format!("read of line {addr} answered {reply:?}")),
            }
        };
        let mut lines = 0;
        for found in model.audit(&mut (), read, |_, _, _| false) {
            match found.readback {
                ReadBack::Matched => lines += 1,
                ReadBack::Failed(detail) => return Err(refused(tenant, detail)),
                ReadBack::Wrong { got } => {
                    return Err(ServeCampaignError::AckedWriteLost {
                        tenant: tenant.name().to_string(),
                        addr: found.addr,
                        want: found.want.word(0),
                        got: got.word(0),
                    })
                }
                ReadBack::InFlight | ReadBack::Excused => {
                    unreachable!("the exact model has nothing in flight and excuses nothing")
                }
            }
        }
        verified.push(lines);
    }
    Ok((time_to_healthy_us, verified))
}

/// Runs one kill point; see the module docs for the sequence.
fn run_point(
    spec: &ServeSpec,
    events: &[Event],
    dir: &Path,
    kill_at: u64,
) -> Result<PointOutcome, ServeCampaignError> {
    let (live, dead) = (dir.join("live"), dir.join("dead"));
    let at_kill = play(spec, &events[..kill_at as usize], &live, &dead)?;
    let (time_to_healthy_us, verified) = restart(spec, &dead, &exact_models(spec, &at_kill))?;
    Ok(PointOutcome {
        kill_at,
        tenants: at_kill
            .iter()
            .zip(verified)
            .map(|(t, v)| t.outcome(v))
            .collect(),
        time_to_healthy_us,
    })
}

/// Runs `points` kill points of the seed's schedule (or, `sweep`, one
/// at every event index).
///
/// # Errors
///
/// The first point's failure, as [`ServeCampaignError::Point`]; a clean
/// return means every durable or answered write read back, no write that
/// was not durable showed, and every tenant was back in full service, at
/// every point.
pub fn run_campaign(
    spec: &ServeSpec,
    dir: &Path,
    points: u64,
    sweep: bool,
) -> Result<ServeReport, ServeCampaignError> {
    let (events, kills) = plan(spec, points, sweep);
    let mut outcomes = Vec::with_capacity(kills.len());
    for (index, &kill_at) in (0..).zip(&kills) {
        let pdir = dir.join(format!("point-{index}"));
        let _ = fs::remove_dir_all(&pdir);
        match run_point(spec, &events, &pdir, kill_at) {
            Ok(out) => outcomes.push(out),
            Err(source) => {
                return Err(ServeCampaignError::Point {
                    index,
                    kill_at,
                    dir: pdir,
                    source: Box::new(source),
                })
            }
        }
        let _ = fs::remove_dir_all(&pdir);
    }
    let total = |field: fn(&TenantOutcome) -> u64| -> u64 {
        outcomes.iter().flat_map(|o| &o.tenants).map(field).sum()
    };
    let mut tth: Vec<u64> = outcomes.iter().map(|o| o.time_to_healthy_us).collect();
    tth.sort_unstable();
    Ok(ServeReport {
        events: events.len() as u64,
        acked_total: total(|t| t.acked),
        durable_total: total(|t| t.durable),
        not_durable_total: total(|t| t.not_durable),
        verified_total: total(|t| t.verified_lines),
        tth_p50_us: percentile_of_sorted(&tth, 0.50),
        tth_p95_us: percentile_of_sorted(&tth, 0.95),
        kill_range: (
            kills.iter().copied().min().unwrap_or(0),
            kills.iter().copied().max().unwrap_or(0),
        ),
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Judged;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anubis-serve-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn is_lost(audit: Result<(u64, Vec<u64>), ServeCampaignError>) -> bool {
        matches!(audit, Err(ServeCampaignError::AckedWriteLost { .. }))
    }

    /// The capture taken before the frame that made a write durable,
    /// audited against the model of the kill after it, has lost that
    /// write — and the capture at the kill itself has not.
    #[test]
    fn a_capture_taken_one_frame_early_loses_a_durable_write() {
        let spec = ServeSpec::default();
        let (events, _) = plan(&spec, 0, false);
        // The schedule's first finish leads the first frame that holds a
        // write of its tenant.
        let kill = 1 + events
            .iter()
            .position(|&(_, begins)| !begins)
            .expect("a finish");
        let dir = scratch("early");
        let at_kill = play(&spec, &events[..kill], &dir.join("live"), &dir.join("dead"))
            .expect("play to the kill");
        let early = dir.join("early");
        let before = play(&spec, &events[..kill - 1], &dir.join("live-early"), &early)
            .expect("play to one event before");
        let models = exact_models(&spec, &at_kill);
        let t = events[kill - 1].0;
        let durable = |at: &AtKill| at.outcome(0).durable;
        assert_eq!(durable(&before[t]), 0);
        assert!(durable(&at_kill[t]) > 0, "the finish made a write durable");

        let at_the_kill = restart(&spec, &dir.join("dead"), &models);
        assert!(at_the_kill.is_ok(), "{at_the_kill:?}");
        let one_early = restart(&spec, &early, &models);
        assert!(is_lost(one_early), "the early capture must lose the write");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A write executed and not durable at the kill, folded into the
    /// model as if it were durable, is reported lost: the audit does not
    /// pass a write the image cannot hold.
    #[test]
    fn a_not_durable_write_folded_in_as_durable_is_reported_lost() {
        let spec = ServeSpec::default();
        let (events, _) = plan(&spec, 0, false);
        // The first event begins a write that nothing has finished.
        let (t, begins) = events[0];
        assert!(begins);
        let dir = scratch("folded");
        let at_kill = play(&spec, &events[..1], &dir.join("live"), &dir.join("dead"))
            .expect("play one event");
        let at = &at_kill[t];
        assert_eq!((at.outcome(0).durable, at.outcome(0).not_durable), (0, 1));

        let mut models = exact_models(&spec, &at_kill);
        models[t] = at.model(at.durable_epoch + 1, spec.lines);
        let folded = restart(&spec, &dir.join("dead"), &models);
        assert!(
            matches!(&folded, Err(ServeCampaignError::AckedWriteLost { tenant, .. })
                if *tenant == format!("tenant-{t}")),
            "{folded:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// At the schedule's first kill index where a tenant has finished the
    /// first of two outstanding writes, the second is durable — the
    /// frame the first led covers it — and unanswered. The model owes it
    /// and the restart reads it back.
    #[test]
    fn a_durable_write_nobody_answered_reads_back_after_the_kill() {
        let spec = ServeSpec::default();
        let (events, _) = plan(&spec, 0, false);
        let mut open = vec![0u8; spec.tenants];
        let kill = 1
            + (events.iter())
                .position(|&(t, begins)| {
                    let led_a_shared_frame = !begins && open[t] == 2;
                    open[t] = if begins { open[t] + 1 } else { open[t] - 1 };
                    led_a_shared_frame
                })
                .expect("a finish with two outstanding");
        assert_eq!(kill, 6, "the pinned schedule point");
        let t = events[kill - 1].0;

        let dir = scratch("unanswered");
        let at_kill = play(&spec, &events[..kill], &dir.join("live"), &dir.join("dead"))
            .expect("play to the kill");
        let at = &at_kill[t];
        let unanswered: Vec<&Write> = (at.writes.iter())
            .filter(|w| !w.answered && w.ticket <= at.durable_epoch)
            .collect();
        assert_eq!(unanswered.len(), 1, "{at:?}");
        let w = unanswered[0];
        let models = exact_models(&spec, &at_kill);
        assert_eq!(
            models[t].judge(w.line, op_payload(w.op, w.line)),
            Some(Judged::Matched),
            "the model owes the unanswered durable write"
        );
        let (_, verified) = restart(&spec, &dir.join("dead"), &models).expect("the audit passes");
        assert_eq!(verified, vec![spec.lines; spec.tenants]);
        let _ = fs::remove_dir_all(&dir);
    }
}
