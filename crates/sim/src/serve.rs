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
//!    durable yet but shows, both fail the campaign as a
//!    [`CampaignError::Breach`] (`SilentStale`, naming the tenant and the
//!    owed op). Nothing is tolerated as in flight. A tenant short of full
//!    service, or a refusal where service was needed, is
//!    [`CampaignError::Short`].
//!
//! A failing point keeps its directory, `point-<i>`: `live` holds the
//! images as the kill left them, `dead` the copies the restart opened.
//!
//! Admission is lifted out of the way as the ledger does and one thread
//! plays every event, so apart from time-to-healthy the report is a pure
//! function of the seed. [`crate::adversary`] plays its own fleet
//! ([`ServeSpec::adversary`]) the same way and mutates the dead images
//! before it restarts them. What the campaign does not reach is covered
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

use crate::campaign::{
    io_ctx, op_payload, run_points, Acked, Breach, CampaignError, ReadBack, XorShift64,
};

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

impl ServeSpec {
    /// The fleet [`crate::adversary`] kills, the one
    /// `BENCH_adversary.json` was recorded with: a bonsai and an sgx
    /// tenant, long enough that both checkpoint well before the kill.
    pub fn adversary() -> Self {
        ServeSpec {
            seed: 0xAD7E_5A21,
            tenants: 2,
            lines: 220,
            script_len: 3_170,
        }
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
    /// Per-point detail, in campaign order.
    pub outcomes: Vec<PointOutcome>,
}

/// One event of the schedule: `(tenant, begins)` — `true` begins the
/// tenant's next scripted write, `false` finishes its oldest outstanding
/// one.
pub(crate) type Event = (usize, bool);

/// Tenant `tenant`'s family: bonsai and sgx alternate.
pub(crate) fn family(tenant: usize) -> Family {
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

/// Tenant `tenant`'s image in the data directory `dir`.
pub(crate) fn image_path(spec: &ServeSpec, dir: &Path, tenant: usize) -> PathBuf {
    config(spec, dir).image_path(&format!("tenant-{tenant}"))
}

/// The seed's schedule, and the generator, which goes on to draw the
/// kill points.
pub(crate) fn schedule(spec: &ServeSpec) -> (Vec<Event>, XorShift64) {
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
    (events, rng)
}

/// The seed's schedule, then `points` kill indices in `1..=events` drawn
/// from the same generator — or, `sweep`, every one of them.
fn plan(spec: &ServeSpec, points: u64, sweep: bool) -> (Vec<Event>, Vec<u64>) {
    let (events, mut rng) = schedule(spec);
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
    fn boot(spec: &ServeSpec, dir: &Path) -> Result<(Fleet, u64), CampaignError> {
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
                let (at, want) = (tenant.name().to_string(), "full service");
                let got = format!("last outcome {outcome:?}");
                return Err(CampaignError::Short { at, want, got });
            }
        }
        Ok((fleet, started.elapsed().as_micros() as u64))
    }

    /// One request, executed and answered as a connection serves it.
    fn call(&self, tenant: &Arc<Tenant>, req: &Request) -> Response {
        tenant.finish(tenant.begin(req, Instant::now(), &self.cfg, &self.threads))
    }
}

/// A typed refusal, or a reply of the wrong kind, where the schedule or
/// the audit needed service: nothing is retried.
fn refused(tenant: &Tenant, got: String) -> CampaignError {
    let (at, want) = (tenant.name().to_string(), "service");
    CampaignError::Short { at, want, got }
}

/// One executed write, as the audit knows it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Write {
    op: u64,
    line: u64,
    /// The epoch of the frame that makes it durable.
    pub(crate) ticket: u64,
    answered: bool,
}

/// One tenant at the kill: its durable epoch, and every write it
/// executed, in execution order.
#[derive(Debug)]
pub(crate) struct AtKill {
    pub(crate) durable_epoch: u64,
    pub(crate) writes: Vec<Write>,
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

    pub(crate) fn outcome(&self, verified_lines: u64) -> TenantOutcome {
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

/// Copies every tenant's image and anchor from the data directory `from`
/// into `to`: between two events, what a kill there leaves.
pub(crate) fn copy_fleet(spec: &ServeSpec, from: &Path, to: &Path) -> Result<(), CampaignError> {
    fs::create_dir_all(to).map_err(io_ctx("create kill dir", to))?;
    for t in 0..spec.tenants {
        let (from, to) = (image_path(spec, from, t), image_path(spec, to, t));
        copy_image(&from, &to).map_err(io_ctx("copy a killed image to", &to))?;
    }
    Ok(())
}

/// Boots the tenants over `live`, plays `events` on this thread and
/// copies every image and anchor into `dead`: what a kill after the last
/// event leaves. With `capture = Some((at, dir))` the fleet is also
/// copied into `dir` after the first `at` events.
pub(crate) fn play(
    spec: &ServeSpec,
    events: &[Event],
    live: &Path,
    dead: &Path,
    capture: Option<(usize, &Path)>,
) -> Result<Vec<AtKill>, CampaignError> {
    let (fleet, _) = Fleet::boot(spec, live)?;
    let scripts: Vec<Vec<u64>> = (0..spec.tenants).map(|t| script(spec, t)).collect();
    let mut executed: Vec<Vec<Write>> = vec![Vec::new(); spec.tenants];
    let mut outstanding: Vec<VecDeque<_>> = (0..spec.tenants).map(|_| VecDeque::new()).collect();
    for (i, &(t, begins)) in events.iter().enumerate() {
        if let Some((_, dir)) = capture.filter(|&(at, _)| at == i) {
            copy_fleet(spec, live, dir)?;
        }
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
    copy_fleet(spec, live, dead)?;
    let kill = |(tenant, writes): (&Arc<Tenant>, Vec<Write>)| {
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
pub(crate) fn exact_models(spec: &ServeSpec, at_kill: &[AtKill]) -> Vec<Acked> {
    (at_kill.iter())
        .map(|t| t.model(t.durable_epoch, spec.lines))
        .collect()
}

/// Boots the tenants over the copies in `dead` and audits every line of
/// each against its model. Returns the time to healthy and the lines
/// verified per tenant.
pub(crate) fn restart(
    spec: &ServeSpec,
    dead: &Path,
    models: &[Acked],
) -> Result<(u64, Vec<u64>), CampaignError> {
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
                    let (addr, owed, got) = (found.addr, found.op_index, got.word(0));
                    return Err(CampaignError::Breach {
                        at: tenant.name().to_string(),
                        breach: Breach::SilentStale { addr, owed, got },
                    });
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
) -> Result<PointOutcome, CampaignError> {
    let (live, dead) = (dir.join("live"), dir.join("dead"));
    let at_kill = play(spec, &events[..kill_at as usize], &live, &dead, None)?;
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
/// at every event index), point `i` in `dir/point-<i>`; a failing
/// point's `live` holds the images as the kill left them.
///
/// # Errors
///
/// The first point's failure, as [`CampaignError::Point`]; a clean
/// return means every durable or answered write read back, no write that
/// was not durable showed, and every tenant was back in full service, at
/// every point.
pub fn run_campaign(
    spec: &ServeSpec,
    dir: &Path,
    points: u64,
    sweep: bool,
) -> Result<ServeReport, CampaignError> {
    let (events, kills) = plan(spec, points, sweep);
    let points = (0..).zip(kills).map(|(i, kill_at)| {
        let label = format!("point {i}, kill after {kill_at} events");
        (format!("point-{i}"), label, kill_at)
    });
    let outcomes = run_points(dir, points, |kill_at, pdir| {
        run_point(spec, &events, pdir, kill_at)
    })?;
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
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Judged;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anubis-serve-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn is_lost(audit: Result<(u64, Vec<u64>), CampaignError>) -> bool {
        matches!(
            audit,
            Err(CampaignError::Breach {
                breach: Breach::SilentStale { .. },
                ..
            })
        )
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
        let at_kill = play(
            &spec,
            &events[..kill],
            &dir.join("live"),
            &dir.join("dead"),
            None,
        )
        .expect("play to the kill");
        let early = dir.join("early");
        let before = play(
            &spec,
            &events[..kill - 1],
            &dir.join("live-early"),
            &early,
            None,
        )
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
        let at_kill = play(
            &spec,
            &events[..1],
            &dir.join("live"),
            &dir.join("dead"),
            None,
        )
        .expect("play one event");
        let at = &at_kill[t];
        assert_eq!((at.outcome(0).durable, at.outcome(0).not_durable), (0, 1));

        let mut models = exact_models(&spec, &at_kill);
        models[t] = at.model(at.durable_epoch + 1, spec.lines);
        let folded = restart(&spec, &dir.join("dead"), &models);
        assert!(
            matches!(&folded, Err(CampaignError::Breach { at, breach: Breach::SilentStale { .. } })
                if *at == format!("tenant-{t}")),
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
        let at_kill = play(
            &spec,
            &events[..kill],
            &dir.join("live"),
            &dir.join("dead"),
            None,
        )
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
