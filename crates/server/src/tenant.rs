//! Per-tenant serving state: a persistence domain (controller over a
//! [`FileBackend`] image), the serving-mode state machine, admission
//! control, the circuit breaker, and the degraded-mode read path.
//!
//! # Serving-mode state machine
//!
//! ```text
//!            boot (reopen + ladder)        integrity fault
//!   ReadOnly ◄──────────────────── Full ◄──────────────── Full
//!      │ ladder done: Outcome         │                      │
//!      ▼                              ▼                      ▼
//!    Full                      (writes rejected        ReadOnly + ladder
//!                               as Degraded while       in background
//!                               ReadOnly; reads served
//!                               from last verified state)
//! ```
//!
//! `Unavailable` is the terminal rung: the ladder itself failed
//! structurally. An explicit `Recover` request can re-enter the ladder.
//!
//! The recovery ladder runs on a **background thread that owns the
//! controller** (taken out of the tenant), so reads keep flowing from
//! the last verified state while rung 1–4 of the supervisor work the
//! domain. Re-entry into full service happens only on a structured
//! [`anubis::RecoveryOutcome`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemError, MemoryController,
    RecoveryError, SgxController, SgxScheme, Supervisor,
};
use anubis_nvm::{Block, FileBackend, NvmError};
use anubis_telemetry::Telemetry;

use crate::admission::{InflightGate, TokenBucket};
use crate::breaker::Breaker;
use crate::config::{ServeConfig, TenantFamily, TenantSpec};
use crate::protocol::{Inject, Request, Response, ServeError, ServeMode, TenantStats};

/// Registry of in-flight recovery threads, joined at server shutdown.
pub(crate) type ThreadReg = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// Either controller family behind one dispatch surface.
pub(crate) enum Ctrl {
    /// Bonsai-style tree under AGIT+.
    Bonsai(Box<BonsaiController<FileBackend>>),
    /// SGX-style tree under ASIT.
    Sgx(Box<SgxController<FileBackend>>),
}

impl Ctrl {
    fn read(&mut self, addr: DataAddr) -> Result<Block, MemError> {
        match self {
            Ctrl::Bonsai(c) => c.read(addr),
            Ctrl::Sgx(c) => c.read(addr),
        }
    }

    fn write(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError> {
        match self {
            Ctrl::Bonsai(c) => c.write(addr, data),
            Ctrl::Sgx(c) => c.write(addr, data),
        }
    }

    fn write_batch(&mut self, items: &[(DataAddr, Block)]) -> Result<(), MemError> {
        match self {
            Ctrl::Bonsai(c) => c.write_batch(items),
            Ctrl::Sgx(c) => c.write_batch(items),
        }
    }

    fn shutdown_flush(&mut self) -> Result<(), MemError> {
        match self {
            Ctrl::Bonsai(c) => c.shutdown_flush(),
            Ctrl::Sgx(c) => c.shutdown_flush(),
        }
    }

    fn crash(&mut self) {
        match self {
            Ctrl::Bonsai(c) => c.crash(),
            Ctrl::Sgx(c) => c.crash(),
        }
    }

    fn supervised_recover(
        &mut self,
        sup: &Supervisor,
        hint: Option<&RecoveryError>,
    ) -> Result<anubis::SupervisedRecovery, RecoveryError> {
        match (self, hint) {
            (Ctrl::Bonsai(c), Some(e)) => sup.repair_then_recover(c.as_mut(), e),
            (Ctrl::Bonsai(c), None) => sup.recover(c.as_mut()),
            (Ctrl::Sgx(c), Some(e)) => sup.repair_then_recover(c.as_mut(), e),
            (Ctrl::Sgx(c), None) => sup.recover(c.as_mut()),
        }
    }

    fn quarantined_blocks(&self) -> u64 {
        match self {
            Ctrl::Bonsai(c) => c.domain().device().quarantine_table().len() as u64,
            Ctrl::Sgx(c) => c.domain().device().quarantine_table().len() as u64,
        }
    }

    /// Flips a *pair* of bits in the same word of the stored ciphertext:
    /// a single flip is silently repaired by the device ECC model, so a
    /// detectable corruption needs two bits in one word.
    fn tamper_data_line(&mut self, addr: u64, bit: usize) -> Result<(), ServeError> {
        let line = DataAddr::new(addr);
        match self {
            Ctrl::Bonsai(c) => {
                let dev = c.layout().data_addr(line);
                c.domain_mut().device_mut().tamper_flip_bit(dev, bit);
                c.domain_mut().device_mut().tamper_flip_bit(dev, bit ^ 1);
            }
            Ctrl::Sgx(c) => {
                let dev = c.layout().data_addr(line);
                c.domain_mut().device_mut().tamper_flip_bit(dev, bit);
                c.domain_mut().device_mut().tamper_flip_bit(dev, bit ^ 1);
            }
        }
        Ok(())
    }

    fn publish_telemetry(&self) {
        match self {
            Ctrl::Bonsai(c) => MemoryController::publish_telemetry(c.as_ref()),
            Ctrl::Sgx(c) => MemoryController::publish_telemetry(c.as_ref()),
        }
    }
}

/// How a controller-op failure is handled.
enum FailClass {
    /// Worth retrying with backoff (device-level hiccup or an injected
    /// synthetic fault).
    Transient,
    /// Detected corruption: the tenant must enter the recovery ladder.
    Corruption,
    /// The request itself is invalid (e.g. address out of range).
    BadRequest,
}

fn classify(e: &MemError) -> FailClass {
    match e {
        MemError::OutOfRange { .. } => FailClass::BadRequest,
        MemError::Crypto(_) | MemError::Integrity { .. } => FailClass::Corruption,
        // Power-related device errors mean the domain lost state and
        // must run the ladder; other device errors get a retry.
        MemError::Nvm(NvmError::PowerLost) | MemError::Nvm(NvmError::PoweredOff) => {
            FailClass::Corruption
        }
        _ => FailClass::Transient,
    }
}

/// Mutable tenant state, all behind one mutex. The controller leaves
/// (`ctrl: None`) while a recovery ladder owns it.
struct Core {
    ctrl: Option<Ctrl>,
    mode: ServeMode,
    /// Last verified payload per data line — the degraded-mode read
    /// source while the ladder owns the controller.
    verified: BTreeMap<u64, Block>,
    breaker: Breaker,
    bucket: TokenBucket,
    /// Injected synthetic transient failures remaining (chaos hook).
    force_transient: u32,
    /// Injected per-request stall in ms (chaos hook).
    stall_ms: u32,
    /// Injected delay before the next ladder starts (chaos hook).
    recovery_stall_ms: u32,
    unavailable_reason: String,
    stats: Counters,
}

#[derive(Default)]
struct Counters {
    reads_total: u64,
    writes_acked_total: u64,
    rejected_overload: u64,
    rejected_circuit: u64,
    rejected_deadline: u64,
    degraded_writes: u64,
    degraded_reads: u64,
    recoveries: u64,
    retries_total: u64,
    last_outcome: String,
}

/// One tenant: identity, admission gate, and the locked `Core`.
pub struct Tenant {
    name: String,
    token_hash: u64,
    family: TenantFamily,
    gate: InflightGate,
    core: Mutex<Core>,
    tel: Telemetry,
}

fn lock_core<'a>(m: &'a Mutex<Core>) -> MutexGuard<'a, Core> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn block_from_bytes(b: &[u8; 64]) -> Block {
    let mut blk = Block::filled(0);
    blk.as_bytes_mut().copy_from_slice(b);
    blk
}

fn injected_fault() -> MemError {
    MemError::Nvm(NvmError::Backend {
        reason: "injected transient fault".to_string(),
    })
}

impl Tenant {
    /// Opens (or creates) the tenant's device image under the config's
    /// data dir and immediately enters the boot recovery ladder: the
    /// tenant starts in [`ServeMode::ReadOnly`] and transitions to full
    /// service only on a structured outcome.
    ///
    /// # Errors
    ///
    /// Propagates image-open failures ([`NvmError`]).
    pub(crate) fn open(
        spec: &TenantSpec,
        cfg: &ServeConfig,
        tel: Telemetry,
        threads: &ThreadReg,
    ) -> Result<Arc<Tenant>, NvmError> {
        let image = cfg.image_path(&spec.name);
        // Every tenant image is opened under its freshness anchor: a
        // rolled-back or unverifiable image surfaces a refusal hint that
        // the boot ladder turns into `ServeMode::Unavailable` — stale
        // state is never silently served.
        let policy = if cfg.anchor_override {
            anubis_nvm::AnchorPolicy::Override
        } else {
            anubis_nvm::AnchorPolicy::Strict
        };
        let mem = &cfg.mem_config;
        let backend = FileBackend::open_with_anchor(&image, mem.key.0, policy)?;
        let (ctrl, hint) = open_family(spec.family, mem, backend);
        let tenant = Arc::new(Tenant {
            name: spec.name.clone(),
            token_hash: spec.token_hash,
            family: spec.family,
            gate: InflightGate::new(cfg.max_inflight),
            core: Mutex::new(Core {
                ctrl: Some(ctrl),
                mode: ServeMode::ReadOnly,
                verified: BTreeMap::new(),
                breaker: Breaker::new(
                    cfg.breaker_threshold,
                    Duration::from_millis(u64::from(cfg.breaker_cooldown_ms)),
                ),
                bucket: TokenBucket::new(cfg.ops_per_sec, cfg.burst),
                force_transient: 0,
                stall_ms: 0,
                recovery_stall_ms: 0,
                unavailable_reason: String::new(),
                stats: Counters::default(),
            }),
            tel,
        });
        {
            let mut core = lock_core(&tenant.core);
            // Boot ladder: reopen restored registers; recovery restores
            // verified state (with the corrupt-image hint feeding rung 3).
            tenant.spawn_recovery(&mut core, hint, false, threads);
        }
        Ok(tenant)
    }

    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Controller family backing the tenant.
    pub fn family(&self) -> TenantFamily {
        self.family
    }

    /// Validates a handshake token hash.
    pub(crate) fn authenticate(&self, token: u64) -> bool {
        token == self.token_hash
    }

    /// Current serving mode (for handshakes and health checks).
    pub fn mode(&self) -> ServeMode {
        lock_core(&self.core).mode
    }

    fn set_mode(core: &mut Core, tel: &Telemetry, tenant: &str, mode: ServeMode) {
        core.mode = mode;
        tel.gauge_set("serve_mode", tenant, f64::from(mode.code()));
    }

    /// Takes the controller out of the core and runs the supervisor
    /// ladder on a background thread; the tenant serves reads from the
    /// last verified state meanwhile. `crash_first` distinguishes the
    /// in-process fault path (volatile state must be dropped) from the
    /// boot path (the process restart already dropped it).
    fn spawn_recovery(
        self: &Arc<Self>,
        core: &mut Core,
        hint: Option<RecoveryError>,
        crash_first: bool,
        threads: &ThreadReg,
    ) {
        let Some(mut ctrl) = core.ctrl.take() else {
            return; // A ladder is already running.
        };
        Self::set_mode(core, &self.tel, &self.name, ServeMode::ReadOnly);
        let stall = Duration::from_millis(u64::from(core.recovery_stall_ms));
        core.recovery_stall_ms = 0;
        let tenant = Arc::clone(self);
        let handle = std::thread::spawn(move || {
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
            if crash_first {
                ctrl.crash();
            }
            let sup = Supervisor::new();
            let result = ctrl.supervised_recover(&sup, hint.as_ref());
            ctrl.publish_telemetry();
            let mut core = lock_core(&tenant.core);
            core.ctrl = Some(ctrl);
            core.stats.recoveries += 1;
            match result {
                Ok(out) => {
                    core.stats.last_outcome = out.outcome.to_string();
                    core.breaker.record_ok();
                    tenant.tel.incr("serve_recoveries_total", &tenant.name, 1);
                    Tenant::set_mode(&mut core, &tenant.tel, &tenant.name, ServeMode::Full);
                }
                Err(e) => {
                    core.stats.last_outcome = format!("failed: {e}");
                    core.unavailable_reason = e.to_string();
                    core.breaker.record_fault(Instant::now());
                    tenant
                        .tel
                        .incr("serve_recovery_failures_total", &tenant.name, 1);
                    Tenant::set_mode(&mut core, &tenant.tel, &tenant.name, ServeMode::Unavailable);
                }
            }
        });
        match threads.lock() {
            Ok(mut v) => v.push(handle),
            Err(poisoned) => poisoned.into_inner().push(handle),
        }
    }

    /// Serves one already-authenticated request.
    pub(crate) fn handle(
        self: &Arc<Self>,
        req: &Request,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Response {
        self.tel.incr("serve_requests_total", &self.name, 1);
        let resp = self.dispatch(req, received, cfg, threads);
        if let Response::Err(e) = &resp {
            self.tel.incr("serve_rejects_total", e.kind(), 1);
        }
        resp
    }

    fn dispatch(
        self: &Arc<Self>,
        req: &Request,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Response {
        match req {
            Request::Read { addr, deadline_ms } => {
                self.op_read(*addr, *deadline_ms, received, cfg, threads)
            }
            Request::Write {
                addr,
                deadline_ms,
                data,
            } => {
                let items = [(DataAddr::new(*addr), block_from_bytes(data))];
                match self.op_write(&items, *deadline_ms, received, cfg, threads) {
                    Ok(_) => Response::WriteOk,
                    Err(e) => Response::Err(e),
                }
            }
            Request::WriteBatch { deadline_ms, items } => {
                let converted: Vec<(DataAddr, Block)> = items
                    .iter()
                    .map(|(a, d)| (DataAddr::new(*a), block_from_bytes(d)))
                    .collect();
                match self.op_write(&converted, *deadline_ms, received, cfg, threads) {
                    Ok(n) => Response::BatchOk { written: n },
                    Err(e) => Response::Err(e),
                }
            }
            Request::Flush => self.op_flush(),
            Request::Recover => self.op_recover(threads),
            Request::Stats => Response::StatsOk(self.stats_snapshot()),
            Request::Inject(inj) => self.op_inject(inj, cfg),
            Request::Hello { .. } => Response::Err(ServeError::BadRequest {
                detail: "duplicate handshake".to_string(),
            }),
        }
    }

    /// Common admission steps: in-flight gate (done by caller), ops/s
    /// bucket, circuit breaker, deadline. Returns the locked core.
    fn admit<'a>(
        &'a self,
        deadline: Duration,
        received: Instant,
    ) -> Result<MutexGuard<'a, Core>, ServeError> {
        let mut core = lock_core(&self.core);
        let now = Instant::now();
        if !core.bucket.try_take(now) {
            core.stats.rejected_overload += 1;
            let retry_after_ms = core.bucket.retry_after_ms();
            return Err(ServeError::Overloaded { retry_after_ms });
        }
        if let Err(retry_after_ms) = core.breaker.check(now) {
            core.stats.rejected_circuit += 1;
            return Err(ServeError::CircuitOpen { retry_after_ms });
        }
        // Injected stall: simulates a slow domain while holding the
        // tenant lock, so queued requests see real deadline pressure.
        if core.stall_ms > 0 {
            let ms = core.stall_ms;
            std::thread::sleep(Duration::from_millis(u64::from(ms)));
        }
        if received.elapsed() >= deadline {
            core.stats.rejected_deadline += 1;
            return Err(ServeError::DeadlineExceeded {
                budget_ms: deadline.as_millis().min(u128::from(u32::MAX)) as u32,
            });
        }
        Ok(core)
    }

    fn op_read(
        self: &Arc<Self>,
        addr: u64,
        deadline_ms: u32,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Response {
        let Some(_permit) = self.gate.acquire() else {
            let mut core = lock_core(&self.core);
            core.stats.rejected_overload += 1;
            return Response::Err(ServeError::Overloaded { retry_after_ms: 1 });
        };
        let deadline = cfg.effective_deadline(deadline_ms);
        let mut core = match self.admit(deadline, received) {
            Ok(c) => c,
            Err(e) => return Response::Err(e),
        };
        match core.mode {
            ServeMode::Unavailable => {
                return Response::Err(ServeError::Unavailable {
                    detail: core.unavailable_reason.clone(),
                })
            }
            ServeMode::ReadOnly => {
                // Degraded path: serve the last verified payload.
                let hit = core.verified.get(&addr).copied();
                return match hit {
                    Some(b) => {
                        core.stats.reads_total += 1;
                        core.stats.degraded_reads += 1;
                        Response::ReadOk {
                            data: *b.as_bytes(),
                            mode: ServeMode::ReadOnly,
                        }
                    }
                    None => Response::Err(ServeError::Degraded {
                        mode: ServeMode::ReadOnly,
                    }),
                };
            }
            ServeMode::Full => {}
        }
        let core = &mut *core;
        let mut attempt = 0u32;
        loop {
            let result = if core.force_transient > 0 {
                core.force_transient -= 1;
                Err(injected_fault())
            } else {
                match core.ctrl.as_mut() {
                    Some(ctrl) => ctrl.read(DataAddr::new(addr)),
                    None => {
                        return Response::Err(ServeError::Degraded {
                            mode: ServeMode::ReadOnly,
                        })
                    }
                }
            };
            match result {
                Ok(block) => {
                    core.verified.insert(addr, block);
                    core.stats.reads_total += 1;
                    core.breaker.record_ok();
                    return Response::ReadOk {
                        data: *block.as_bytes(),
                        mode: ServeMode::Full,
                    };
                }
                Err(e) => match classify(&e) {
                    FailClass::BadRequest => {
                        return Response::Err(ServeError::BadRequest {
                            detail: e.to_string(),
                        })
                    }
                    FailClass::Transient => {
                        match self.backoff_or_fail(core, &mut attempt, deadline, received, cfg, &e)
                        {
                            Ok(()) => continue,
                            Err(err) => return Response::Err(err),
                        }
                    }
                    FailClass::Corruption => {
                        return self.fault_to_recovery(core, threads, &e, addr);
                    }
                },
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn backoff_or_fail(
        &self,
        core: &mut Core,
        attempt: &mut u32,
        deadline: Duration,
        received: Instant,
        cfg: &ServeConfig,
        e: &MemError,
    ) -> Result<(), ServeError> {
        if *attempt >= cfg.retry_budget {
            core.breaker.record_fault(Instant::now());
            return Err(ServeError::Internal {
                detail: format!("retry budget exhausted: {e}"),
            });
        }
        let backoff = Duration::from_millis(u64::from(cfg.retry_backoff_ms) << *attempt);
        *attempt += 1;
        core.stats.retries_total += 1;
        self.tel.incr("serve_retries_total", &self.name, 1);
        if received.elapsed() + backoff >= deadline {
            core.stats.rejected_deadline += 1;
            return Err(ServeError::DeadlineExceeded {
                budget_ms: deadline.as_millis().min(u128::from(u32::MAX)) as u32,
            });
        }
        std::thread::sleep(backoff);
        Ok(())
    }

    /// An op hit detected corruption: count the fault, enter the ladder,
    /// answer with the typed integrity error (the *first* caller learns
    /// what happened; subsequent callers see `Degraded`).
    fn fault_to_recovery(
        self: &Arc<Self>,
        core: &mut Core,
        threads: &ThreadReg,
        e: &MemError,
        _addr: u64,
    ) -> Response {
        core.breaker.record_fault(Instant::now());
        self.tel.incr("serve_integrity_faults_total", &self.name, 1);
        self.spawn_recovery(core, None, true, threads);
        Response::Err(ServeError::Integrity {
            detail: e.to_string(),
        })
    }

    fn op_write(
        self: &Arc<Self>,
        items: &[(DataAddr, Block)],
        deadline_ms: u32,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Result<u32, ServeError> {
        let Some(_permit) = self.gate.acquire() else {
            let mut core = lock_core(&self.core);
            core.stats.rejected_overload += 1;
            return Err(ServeError::Overloaded { retry_after_ms: 1 });
        };
        let deadline = cfg.effective_deadline(deadline_ms);
        let mut core = self.admit(deadline, received)?;
        match core.mode {
            ServeMode::Unavailable => {
                return Err(ServeError::Unavailable {
                    detail: core.unavailable_reason.clone(),
                })
            }
            ServeMode::ReadOnly => {
                core.stats.degraded_writes += 1;
                self.tel.incr("serve_degraded_writes_total", &self.name, 1);
                return Err(ServeError::Degraded {
                    mode: ServeMode::ReadOnly,
                });
            }
            ServeMode::Full => {}
        }
        let core = &mut *core;
        let mut attempt = 0u32;
        loop {
            let result = if core.force_transient > 0 {
                core.force_transient -= 1;
                Err(injected_fault())
            } else {
                match core.ctrl.as_mut() {
                    Some(ctrl) if items.len() == 1 => ctrl.write(items[0].0, items[0].1),
                    Some(ctrl) => ctrl.write_batch(items),
                    None => {
                        return Err(ServeError::Degraded {
                            mode: ServeMode::ReadOnly,
                        })
                    }
                }
            };
            match result {
                Ok(()) => {
                    for (a, b) in items {
                        core.verified.insert(a.index(), *b);
                    }
                    core.stats.writes_acked_total += items.len() as u64;
                    core.breaker.record_ok();
                    self.tel
                        .incr("serve_writes_acked_total", &self.name, items.len() as u64);
                    return Ok(items.len() as u32);
                }
                Err(e) => match classify(&e) {
                    FailClass::BadRequest => {
                        return Err(ServeError::BadRequest {
                            detail: e.to_string(),
                        })
                    }
                    FailClass::Transient => {
                        self.backoff_or_fail(core, &mut attempt, deadline, received, cfg, &e)?
                    }
                    FailClass::Corruption => {
                        core.breaker.record_fault(Instant::now());
                        self.tel.incr("serve_integrity_faults_total", &self.name, 1);
                        self.spawn_recovery(core, None, true, threads);
                        return Err(ServeError::Integrity {
                            detail: e.to_string(),
                        });
                    }
                },
            }
        }
    }

    fn op_flush(self: &Arc<Self>) -> Response {
        let mut core = lock_core(&self.core);
        match core.mode {
            ServeMode::Full => {}
            mode => return Response::Err(ServeError::Degraded { mode }),
        }
        match core.ctrl.as_mut() {
            Some(ctrl) => match ctrl.shutdown_flush() {
                Ok(()) => Response::FlushOk,
                Err(e) => Response::Err(ServeError::Internal {
                    detail: e.to_string(),
                }),
            },
            None => Response::Err(ServeError::Degraded {
                mode: ServeMode::ReadOnly,
            }),
        }
    }

    fn op_recover(self: &Arc<Self>, threads: &ThreadReg) -> Response {
        let mut core = lock_core(&self.core);
        if core.ctrl.is_none() {
            return Response::RecoverOk {
                outcome: "already recovering".to_string(),
            };
        }
        self.spawn_recovery(&mut core, None, true, threads);
        Response::RecoverOk {
            outcome: "started".to_string(),
        }
    }

    fn op_inject(self: &Arc<Self>, inj: &Inject, cfg: &ServeConfig) -> Response {
        if !cfg.chaos {
            return Response::Err(ServeError::BadRequest {
                detail: "chaos injection disabled (set ANUBIS_SERVE_CHAOS=1)".to_string(),
            });
        }
        let mut core = lock_core(&self.core);
        match inj {
            Inject::CorruptLine { addr, bit } => match core.ctrl.as_mut() {
                Some(ctrl) => match ctrl.tamper_data_line(*addr, *bit as usize) {
                    Ok(()) => Response::InjectOk,
                    Err(e) => Response::Err(e),
                },
                None => Response::Err(ServeError::Degraded {
                    mode: ServeMode::ReadOnly,
                }),
            },
            Inject::TransientFaults { count } => {
                core.force_transient = *count;
                Response::InjectOk
            }
            Inject::Stall { ms } => {
                core.stall_ms = *ms;
                Response::InjectOk
            }
            Inject::RecoveryStall { ms } => {
                core.recovery_stall_ms = *ms;
                Response::InjectOk
            }
        }
    }

    /// Orderly-shutdown hook: drains dirty metadata when the tenant is
    /// in full service (a recovering or failed tenant is left as-is for
    /// the next boot ladder).
    pub(crate) fn orderly_flush(&self) {
        let mut core = lock_core(&self.core);
        if core.mode == ServeMode::Full {
            if let Some(ctrl) = core.ctrl.as_mut() {
                let _ = ctrl.shutdown_flush();
            }
        }
    }

    fn stats_snapshot(&self) -> TenantStats {
        let core = lock_core(&self.core);
        TenantStats {
            mode: core.mode.code(),
            inflight: u64::from(self.gate.in_flight()),
            reads_total: core.stats.reads_total,
            writes_acked_total: core.stats.writes_acked_total,
            rejected_overload: core.stats.rejected_overload,
            rejected_circuit: core.stats.rejected_circuit,
            rejected_deadline: core.stats.rejected_deadline,
            degraded_writes: core.stats.degraded_writes,
            degraded_reads: core.stats.degraded_reads,
            recoveries: core.stats.recoveries,
            retries_total: core.stats.retries_total,
            breaker_trips: core.breaker_trips(),
            quarantined_blocks: core.ctrl.as_ref().map_or(0, |c| c.quarantined_blocks()),
            last_outcome: core.stats.last_outcome.clone(),
        }
    }
}

impl Core {
    fn breaker_trips(&self) -> u64 {
        self.breaker.trips()
    }
}

fn open_family(
    family: TenantFamily,
    mem: &AnubisConfig,
    backend: FileBackend,
) -> (Ctrl, Option<RecoveryError>) {
    match family {
        TenantFamily::BonsaiAgitPlus => {
            let (c, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, mem, backend);
            (Ctrl::Bonsai(Box::new(c)), hint)
        }
        TenantFamily::SgxAsit => {
            let (c, hint) = SgxController::reopen(SgxScheme::Asit, mem, backend);
            (Ctrl::Sgx(Box::new(c)), hint)
        }
    }
}
