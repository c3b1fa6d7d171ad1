//! Per-tenant serving state: a persistence domain (controller over a
//! [`FileBackend`] image), the serving-mode state machine, admission
//! control, the circuit breaker, and the degraded-mode read path.
//!
//! # Serving-mode state machine
//!
//! ```text
//!            boot (reopen + resume)        integrity fault
//!   ReadOnly ◄──────────────────── Full ◄──────────────── Full
//!      │ ladder done: Outcome         │                      │
//!      ▼                              ▼                      ▼
//!    Full                      (writes rejected        ReadOnly + recover
//!                               as Degraded while       (the full ladder)
//!                               ReadOnly; reads served  in background
//!                               from last verified state)
//! ```
//!
//! `Unavailable` is the terminal rung: the ladder itself failed
//! structurally. An explicit `Recover` request can re-enter the ladder.
//!
//! The recovery ladder runs on a **background thread that owns the
//! controller** (taken out of the tenant), so reads keep flowing from
//! the last verified state while the supervisor works the domain.
//! Re-entry into full service happens only on a structured
//! [`anubis::RecoveryOutcome`].
//!
//! The two arrows into the ladder are not the same ladder. **Boot** is
//! [`supervisor::resume`]: the paper's recovery (`fast`, O(metadata
//! cache)), and `targeted` and the O(memory) `scrub` only when reopen
//! raised a hint or `fast` failed. An **integrity fault** while serving
//! (or a `Recover` request) is [`supervisor::recover`], the whole
//! ladder. A data line damaged at rest is therefore found by its first
//! read, not by the boot: that read fails typed — every read verifies
//! MAC and tree, so the payload is never served — and takes the fault
//! arrow, which repairs or quarantines the line and counts it.
//!
//! # Execute / durable
//!
//! A data operation is served in two steps (`DESIGN.md` §10, "execute /
//! durable"). It **executes** under `Mutex<Core>` — admission, the
//! controller's `*_deferred` call, a *ticket*: the backend epoch whose
//! durability covers it — and the lock is released. It is **durable**
//! once the backend's [`Durability`] reaches the ticket, and only then
//! is it answered. Whoever finds no barrier running becomes the *leader*:
//! it re-takes the lock just long enough to cut everything executed so
//! far into one frame, commits that frame — `write` + `sync_data` +
//! anchor seal — with the lock released, publishes the epoch and wakes
//! the rest. A read waits only if the line it read has a write that is
//! executed but not durable yet, and then for that write's ticket only.
//!
//! How far the log is durable, why it stopped and who leads are kept
//! once, by the backend, behind the `Durability` handle the tenant took
//! from it when it opened — so a fused barrier under the lock (`Flush`,
//! the recovery hand-off, compaction) moves the waiters like a leader's
//! does, with nothing to tell them.
//!
//! Lock order: `Mutex<Core>` → durability → (inside the backend) log
//! file. The durability lock is never held across I/O nor while taking
//! the core lock, and nothing below holds a lock across a call back up.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anubis::{supervisor, DataAddr, MemError, RecoveryError};
use anubis_nvm::{Block, Durability, FileBackend, NvmBackend, NvmError};
use anubis_telemetry::Telemetry;

use crate::admission::{InflightGate, InflightPermit, TokenBucket};
use crate::breaker::Breaker;
use crate::config::{ServeConfig, TenantFamily, TenantSpec};
use crate::protocol::{Request, Response, ServeError, ServeMode, TenantStats};

/// Registry of in-flight recovery threads, joined at server shutdown.
pub type ThreadReg = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// A tenant's controller: either family, reopened over its image.
type Ctrl<B> = anubis::Reopened<B>;

/// The fault hooks of [`Tenant::inject`], for in-process tests: none of
/// them is reachable from the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip a bit pair in the tenant's stored ciphertext for data line
    /// `addr` (two flips in one word defeat the ECC model) — the next
    /// touch of that line fails verification and drives the tenant into
    /// the recovery ladder.
    CorruptLine {
        /// Data-line address to corrupt.
        addr: u64,
        /// Bit index within the 64-byte block (its partner `bit ^ 1` is
        /// flipped too).
        bit: u32,
    },
    /// Make the next `count` controller ops fail with a synthetic device
    /// error: each fails its one request as [`ServeError::Internal`] and
    /// counts against the circuit breaker.
    TransientFaults {
        /// Number of ops to fail.
        count: u32,
    },
    /// Stall every subsequent request by `ms` while holding the tenant
    /// lock (exercises deadlines and admission control).
    Stall {
        /// Per-request delay in milliseconds.
        ms: u32,
    },
    /// Delay the *next* recovery ladder by `ms` before it starts, holding
    /// the tenant in read-only mode long enough to observe degraded
    /// serving.
    RecoveryStall {
        /// Pre-ladder delay in milliseconds.
        ms: u32,
    },
}

/// Scalar or batch, as the request was.
fn write_deferred<B: NvmBackend>(
    ctrl: &mut Ctrl<B>,
    items: &[(DataAddr, Block)],
) -> Result<(), MemError> {
    match items {
        [(addr, data)] => ctrl.write_deferred(*addr, *data),
        _ => ctrl.write_batch_deferred(items),
    }
}

/// Flips a *pair* of bits in the same word of the stored ciphertext: a
/// single flip is silently repaired by the device ECC model, so a
/// detectable corruption needs two bits in one word.
fn tamper_data_line<B: NvmBackend>(ctrl: &mut Ctrl<B>, addr: u64, bit: usize) {
    let dev = ctrl.data_block(DataAddr::new(addr));
    ctrl.domain_mut().device_mut().tamper_flip_bit(dev, bit);
    ctrl.domain_mut().device_mut().tamper_flip_bit(dev, bit ^ 1);
}

/// How a controller-op failure is handled.
enum FailClass {
    /// Detected corruption: the tenant must enter the recovery ladder.
    Corruption,
    /// The request itself is invalid (e.g. address out of range).
    BadRequest,
    /// Anything else (an injected synthetic fault): answered `Internal`
    /// and recorded by the breaker. The controller op is deterministic,
    /// so running it again would fail the same way.
    Other,
}

fn classify(e: &MemError) -> FailClass {
    match e {
        MemError::OutOfRange { .. } => FailClass::BadRequest,
        MemError::Crypto(_) | MemError::Integrity { .. } => FailClass::Corruption,
        // Power-related device errors, and a controller whose volatile
        // state is gone, mean the domain must run the ladder.
        MemError::Nvm(NvmError::PowerLost)
        | MemError::Nvm(NvmError::PoweredOff)
        | MemError::RecoveryPending => FailClass::Corruption,
        _ => FailClass::Other,
    }
}

/// Lines the degraded-mode read table holds: one constant, so a tenant's
/// footprint does not grow with the lines it has ever served.
pub const VERIFIED_SLOTS: usize = 4096;

/// Last *durable* payload per data line — the degraded-mode read source
/// while the ladder owns the controller. Direct-mapped by line address:
/// a colliding line evicts, and a miss in the degraded window is the
/// typed `Degraded` it always was. Each payload is held with the
/// sequence number of the write that produced it, because writes of one
/// line get here in the order their threads wake up: an older one never
/// replaces a newer one.
struct Verified {
    slots: Vec<Option<(u64, u64, Block)>>,
}

impl Verified {
    fn new() -> Self {
        Verified {
            slots: vec![None; VERIFIED_SLOTS],
        }
    }

    fn insert(&mut self, line: u64, seq: u64, block: Block) {
        let slot = &mut self.slots[line as usize % VERIFIED_SLOTS];
        if !matches!(slot, Some((held, newest, _)) if *held == line && *newest > seq) {
            *slot = Some((line, seq, block));
        }
    }

    fn get(&self, line: u64) -> Option<Block> {
        match self.slots[line as usize % VERIFIED_SLOTS] {
            Some((held, _, block)) if held == line => Some(block),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Mutable tenant state, all behind one mutex. The controller leaves
/// (`ctrl: None`) while a recovery ladder owns it.
struct Core<B: NvmBackend> {
    ctrl: Option<Ctrl<B>>,
    mode: ServeMode,
    verified: Verified,
    /// Data lines whose last executed write is not known durable yet:
    /// that write's ticket, sequence number and payload. A read of such
    /// a line waits for the ticket; the entry leaves with the first
    /// answer to a write of the line that finds the ticket durable.
    unsynced: HashMap<u64, Unsynced>,
    /// Writes executed so far: orders the payloads of one line.
    write_seq: u64,
    /// Write requests executed since the last cut — what the next group
    /// commit covers (`serve_barrier_ops_total`).
    uncut_ops: u64,
    breaker: Breaker,
    bucket: TokenBucket,
    /// [`Inject::TransientFaults`] remaining, one request each.
    force_transient: u32,
    /// [`Inject::Stall`], in ms.
    stall_ms: u32,
    /// [`Inject::RecoveryStall`], in ms: spent before the next ladder.
    recovery_stall_ms: u32,
    unavailable_reason: String,
    stats: Counters,
}

#[derive(Clone, Copy)]
struct Unsynced {
    ticket: u64,
    seq: u64,
    block: Block,
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
    last_outcome: String,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The locked `Core`, timing how long it is held when telemetry listens.
struct Held<'a, B: NvmBackend> {
    core: MutexGuard<'a, Core<B>>,
    since: Option<Instant>,
    tenant: &'a Tenant<B>,
}

fn observe_us(tel: &Telemetry, name: &'static str, tenant: &str, since: Instant) {
    tel.observe(name, tenant, since.elapsed().as_secs_f64() * 1e6);
}

/// Runs one phase of a tenant's boot — `open` (the image: read, WAL
/// walk, replay, anchor), `reopen` (the controller over it) or `ladder`
/// (the supervisor, up to `Full`) — and accounts for it in
/// `serve_boot_us{<tenant>/<phase>}`. Clocks are read only when
/// telemetry listens.
fn boot_phase<T>(tel: &Telemetry, tenant: &str, phase: &str, work: impl FnOnce() -> T) -> T {
    let asked = tel.enabled().then(Instant::now);
    let done = work();
    if let Some(asked) = asked {
        observe_us(tel, "serve_boot_us", &format!("{tenant}/{phase}"), asked);
    }
    done
}

/// Why a ladder starts, which is what decides how much of it runs.
enum Entry {
    /// Boot over a reopened image, with whatever hint reopen raised:
    /// [`supervisor::resume`] — `fast`, and the rest only on evidence.
    Boot(Option<RecoveryError>),
    /// A serve-time integrity fault or an explicit `Recover`: evidence
    /// already. Volatile state is dropped (the restart that would have
    /// dropped it did not happen) and [`supervisor::recover`] runs the
    /// whole ladder, scrub included.
    Fault,
}

impl<B: NvmBackend> Deref for Held<'_, B> {
    type Target = Core<B>;
    fn deref(&self) -> &Core<B> {
        &self.core
    }
}

impl<B: NvmBackend> DerefMut for Held<'_, B> {
    fn deref_mut(&mut self) -> &mut Core<B> {
        &mut self.core
    }
}

impl<B: NvmBackend> Drop for Held<'_, B> {
    fn drop(&mut self) {
        if let Some(since) = self.since {
            let tenant = self.tenant;
            observe_us(&tenant.tel, "serve_lock_hold_us", &tenant.name, since);
        }
    }
}

/// One tenant: identity, admission gate, the locked `Core` and, beside
/// it, the backend's durability handle that requests wait on.
pub struct Tenant<B: NvmBackend = FileBackend> {
    name: String,
    token_hash: u64,
    family: TenantFamily,
    gate: InflightGate,
    /// Requests the gate bounced, counted without the lock: a bounce
    /// never waits for it.
    gate_bounces: AtomicU64,
    core: Mutex<Core<B>>,
    durability: Durability,
    tel: Telemetry,
}

/// A request that has executed and may still have to wait for its
/// barrier: what [`Tenant::begin`] hands to [`Tenant::finish`]. Holds
/// the in-flight permit, so the gate counts waiting requests too.
#[doc(hidden)]
pub struct Executed {
    _permit: Option<InflightPermit>,
    state: Awaiting,
}

enum Awaiting {
    /// Answered at execution: nothing it shows depends on a barrier.
    Nothing(Response),
    /// A read that observed a write not durable yet.
    Read { ticket: u64, data: [u8; 64] },
    /// A write (scalar or batch) executed under `ticket`.
    Write {
        ticket: u64,
        seq: u64,
        items: Vec<(DataAddr, Block)>,
        batch: bool,
    },
}

impl Executed {
    fn answered(resp: Response) -> Self {
        Executed {
            _permit: None,
            state: Awaiting::Nothing(resp),
        }
    }

    /// The backend epoch this request waits for, if it waits at all.
    pub fn ticket(&self) -> Option<u64> {
        match self.state {
            Awaiting::Nothing(_) => None,
            Awaiting::Read { ticket, .. } | Awaiting::Write { ticket, .. } => Some(ticket),
        }
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

fn degraded() -> ServeError {
    ServeError::Degraded {
        mode: ServeMode::ReadOnly,
    }
}

impl Tenant {
    /// Opens (or creates) the tenant's device image under the config's
    /// data dir and immediately enters the boot recovery ladder: the
    /// tenant starts in [`ServeMode::ReadOnly`] and transitions to full
    /// service only on a structured outcome. Public for in-process
    /// harnesses that boot tenants as the server does; the boot ladder's
    /// thread is registered in `threads`, for the caller to join.
    ///
    /// # Errors
    ///
    /// Propagates image-open failures ([`NvmError`]).
    #[doc(hidden)]
    pub fn open(
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
        let backend = boot_phase(&tel, &spec.name, "open", || {
            FileBackend::open_with_anchor(&image, cfg.mem_config.key.0, policy)
        })?;
        Ok(Tenant::over(spec, cfg, tel, backend, threads))
    }
}

impl<B: NvmBackend + 'static> Tenant<B> {
    /// A tenant over an already opened backend, entering the boot ladder
    /// as [`Tenant::open`] does. Public for in-process harnesses that
    /// serve over a backend of their own (a gated durable half).
    #[doc(hidden)]
    pub fn over(
        spec: &TenantSpec,
        cfg: &ServeConfig,
        tel: Telemetry,
        backend: B,
        threads: &ThreadReg,
    ) -> Arc<Self> {
        let durability = backend.durability();
        let (ctrl, hint) = boot_phase(&tel, &spec.name, "reopen", || {
            spec.family.reopen(&cfg.mem_config, backend)
        });
        let tenant = Arc::new(Tenant {
            name: spec.name.clone(),
            token_hash: spec.token_hash,
            family: spec.family,
            gate: InflightGate::new(cfg.max_inflight),
            gate_bounces: AtomicU64::new(0),
            core: Mutex::new(Core {
                ctrl: Some(ctrl),
                mode: ServeMode::ReadOnly,
                verified: Verified::new(),
                unsynced: HashMap::new(),
                write_seq: 0,
                uncut_ops: 0,
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
            durability,
            tel,
        });
        {
            let mut core = tenant.lock();
            // Boot ladder: reopen restored registers; recovery restores
            // verified state (with the corrupt-image hint feeding
            // targeted repair).
            tenant.spawn_recovery(&mut core, Entry::Boot(hint), threads);
        }
        tenant
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
        self.lock().mode
    }

    /// Lines the degraded-mode read table currently holds; at most
    /// [`VERIFIED_SLOTS`] however many were served.
    #[doc(hidden)]
    pub fn verified_lines(&self) -> usize {
        self.lock().verified.len()
    }

    /// The backend's (cut epoch, durable epoch) — frames taken vs frames
    /// known to have landed — or `None` while a ladder owns it.
    #[doc(hidden)]
    pub fn epochs(&self) -> Option<(u64, u64)> {
        let core = self.lock();
        let cut = core.ctrl.as_ref()?.domain().device().backend().epoch();
        Some((cut, self.durability.reached().ok()?))
    }

    /// Takes the core lock. Clocks are read only when telemetry listens.
    fn lock(&self) -> Held<'_, B> {
        let asked = self.tel.enabled().then(Instant::now);
        let core = relock(&self.core);
        let since = asked.map(|asked| {
            observe_us(&self.tel, "serve_lock_wait_us", &self.name, asked);
            Instant::now()
        });
        Held {
            core,
            since,
            tenant: self,
        }
    }

    fn set_mode(core: &mut Core<B>, tel: &Telemetry, tenant: &str, mode: ServeMode) {
        core.mode = mode;
        tel.gauge_set("serve_mode", tenant, f64::from(mode.code()));
    }

    // ------------------------------------------------------------------
    // Group commit
    // ------------------------------------------------------------------

    /// One group commit. The cut is taken under the core lock — so the
    /// frame holds whole operations, in execution order — and committed
    /// with the lock released. The outcome reaches the waiters through
    /// the backend's [`Durability`], which is why nothing is returned.
    fn lead(&self) {
        let (cut, ops) = {
            let mut core = self.lock();
            let ops = std::mem::take(&mut core.uncut_ops);
            // No controller: the ladder has it, and `spawn_recovery` made
            // everything executed durable before handing it over. Nothing
            // buffered: a fused barrier under this lock carried it.
            let cut = core
                .ctrl
                .as_mut()
                .and_then(|c| c.domain_mut().device_mut().backend_mut().cut());
            let Some(cut) = cut else {
                return;
            };
            (cut, ops)
        };
        let wants_settle = cut.wants_settle();
        let committed = cut.commit();
        self.tel.incr("serve_barriers_total", &self.name, 1);
        self.tel.incr("serve_barrier_ops_total", &self.name, ops);
        if committed.is_ok() && wants_settle {
            // Compaction needs both halves of the backend at rest, so it
            // runs under the core lock (one of the listed exceptions,
            // DESIGN §10) — after the frame's own tickets have been let
            // go, and behind a frame of whatever executed meanwhile. A
            // failure breaks the log, which is how the tickets hear.
            let mut core = self.lock();
            if let Some(ctrl) = core.ctrl.as_mut() {
                let _ = ctrl.domain_mut().device_mut().backend_mut().settle();
                core.uncut_ops = 0;
            }
        }
    }

    /// Blocks until `ticket` is durable, leading a group commit if
    /// nobody else is. `Err` carries why the barrier covering the
    /// ticket failed; the operation is not re-executed.
    fn await_durable(&self, ticket: u64) -> Result<(), String> {
        let asked = self.tel.enabled().then(Instant::now);
        let mut led = false;
        let verdict = loop {
            match self.durability.await_or_lead(ticket) {
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.to_string()),
                // A cut takes everything executed before it, this
                // ticket's operation included, so one turn as leader
                // settles it — unless the backend has stopped cutting
                // (a platform that died flushes nothing more).
                Ok(Some(_)) if led => break Err(format!("no frame was cut for ticket {ticket}")),
                Ok(Some(_lead)) => {
                    led = true;
                    self.lead();
                }
            }
        };
        if let Some(asked) = asked {
            observe_us(&self.tel, "serve_durable_wait_us", &self.name, asked);
        }
        verdict
    }

    // ------------------------------------------------------------------
    // Recovery hand-off
    // ------------------------------------------------------------------

    /// Takes the controller out of the core and runs the supervisor
    /// ladder on a background thread; the tenant serves reads from the
    /// last verified state meanwhile. `entry` tells the boot path (the
    /// paper's recovery; the scrub only on evidence) from the in-process
    /// fault path (the full ladder).
    ///
    /// Operations that executed and still wait for their barrier must
    /// not be left pointing into a controller this thread no longer
    /// has: one fused barrier here, under the lock, makes everything
    /// executed so far durable — or fails it, typed — before the
    /// hand-off. (It queues behind a leader's frame in flight; the fault
    /// path may wait for one barrier under the lock.)
    fn spawn_recovery(self: &Arc<Self>, core: &mut Core<B>, entry: Entry, threads: &ThreadReg) {
        let Some(mut ctrl) = core.ctrl.take() else {
            return; // A ladder is already running.
        };
        let _ = ctrl.barrier(); // the tickets hear of it from the backend
        core.uncut_ops = 0;
        Self::set_mode(core, &self.tel, &self.name, ServeMode::ReadOnly);
        let stall = Duration::from_millis(u64::from(core.recovery_stall_ms));
        core.recovery_stall_ms = 0;
        let tenant = Arc::clone(self);
        let handle = std::thread::spawn(move || {
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
            let result = match entry {
                Entry::Boot(hint) => boot_phase(&tenant.tel, &tenant.name, "ladder", || {
                    supervisor::resume(ctrl.as_mut(), hint.as_ref())
                }),
                Entry::Fault => {
                    ctrl.crash();
                    supervisor::recover(ctrl.as_mut())
                }
            };
            ctrl.publish_telemetry();
            let mut core = relock(&tenant.core);
            core.ctrl = Some(ctrl);
            core.stats.recoveries += 1;
            match result {
                Ok(out) => {
                    core.stats.last_outcome = out.outcome.to_string();
                    core.breaker.record_ok();
                    tenant.tel.incr("serve_recoveries_total", &tenant.name, 1);
                    Self::set_mode(&mut core, &tenant.tel, &tenant.name, ServeMode::Full);
                }
                Err(e) => {
                    core.stats.last_outcome = format!("failed: {e}");
                    core.unavailable_reason = e.to_string();
                    core.breaker.record_fault(Instant::now());
                    tenant
                        .tel
                        .incr("serve_recovery_failures_total", &tenant.name, 1);
                    Self::set_mode(&mut core, &tenant.tel, &tenant.name, ServeMode::Unavailable);
                }
            }
        });
        relock(threads).push(handle);
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// Serves one already-authenticated request: executes it, then waits
    /// for whatever barrier its reply depends on.
    pub(crate) fn handle(
        self: &Arc<Self>,
        req: &Request,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Response {
        let executed = self.begin(req, received, cfg, threads);
        self.finish(executed)
    }

    /// The execute step of [`Tenant::handle`]: admission and the
    /// controller call, under the tenant lock; returns with the lock
    /// released and nothing answered yet.
    #[doc(hidden)]
    pub fn begin(
        self: &Arc<Self>,
        req: &Request,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Executed {
        self.tel.incr("serve_requests_total", &self.name, 1);
        match req {
            Request::Read { addr, deadline_ms } => {
                self.exec_read(*addr, *deadline_ms, received, cfg, threads)
            }
            Request::Write {
                addr,
                deadline_ms,
                data,
            } => {
                let items = vec![(DataAddr::new(*addr), block_from_bytes(data))];
                self.exec_write(items, false, *deadline_ms, received, cfg, threads)
            }
            Request::WriteBatch { deadline_ms, items } => {
                let items = items
                    .iter()
                    .map(|(a, d)| (DataAddr::new(*a), block_from_bytes(d)))
                    .collect();
                self.exec_write(items, true, *deadline_ms, received, cfg, threads)
            }
            Request::Flush => Executed::answered(self.op_flush()),
            Request::Recover => Executed::answered(self.op_recover(threads)),
            Request::Stats => Executed::answered(Response::StatsOk(self.stats_snapshot())),
            Request::Hello { .. } => Executed::answered(Response::Err(ServeError::BadRequest {
                detail: "duplicate handshake".to_string(),
            })),
        }
    }

    /// The durable step of [`Tenant::handle`]: blocks until the barrier
    /// the request depends on has landed (leading it if need be) and
    /// builds the reply. A write is counted, remembered for degraded
    /// reads and credited to the breaker only here — once it is durable.
    #[doc(hidden)]
    pub fn finish(&self, executed: Executed) -> Response {
        let resp = match executed.state {
            Awaiting::Nothing(resp) => resp,
            Awaiting::Read { ticket, data } => match self.await_durable(ticket) {
                Ok(()) => Response::ReadOk {
                    data,
                    mode: ServeMode::Full,
                },
                Err(why) => Response::Err(ServeError::Internal {
                    detail: format!("the write this read observed is not durable: {why}"),
                }),
            },
            Awaiting::Write {
                ticket,
                seq,
                items,
                batch,
            } => {
                let durable = self.await_durable(ticket);
                let mut core = self.lock();
                match durable {
                    Ok(()) => {
                        for (addr, block) in &items {
                            let line = addr.index();
                            match core.unsynced.get(&line).copied() {
                                // The line's last write rode this frame
                                // or an earlier one: durable as well,
                                // and what a reader may have been shown.
                                Some(last) if last.ticket <= ticket => {
                                    core.verified.insert(line, last.seq, last.block);
                                    core.unsynced.remove(&line);
                                }
                                // A later write is still on its way.
                                Some(_) => core.verified.insert(line, seq, *block),
                                // A later write has answered already.
                                None => {}
                            }
                        }
                        let written = items.len() as u32;
                        core.stats.writes_acked_total += u64::from(written);
                        core.breaker.record_ok();
                        self.tel
                            .incr("serve_writes_acked_total", &self.name, u64::from(written));
                        if batch {
                            Response::BatchOk { written }
                        } else {
                            Response::WriteOk
                        }
                    }
                    Err(why) => {
                        core.breaker.record_fault(Instant::now());
                        Response::Err(ServeError::Internal {
                            detail: format!("durability barrier failed: {why}"),
                        })
                    }
                }
            }
        };
        if let Response::Err(e) = &resp {
            self.tel.incr("serve_rejects_total", e.kind(), 1);
        }
        resp
    }

    /// Common admission steps: in-flight gate (done by caller), ops/s
    /// bucket, circuit breaker, deadline. Returns the locked core.
    fn admit(&self, deadline: Duration, received: Instant) -> Result<Held<'_, B>, ServeError> {
        let mut core = self.lock();
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
        match core.mode {
            ServeMode::Unavailable => Err(ServeError::Unavailable {
                detail: core.unavailable_reason.clone(),
            }),
            _ => Ok(core),
        }
    }

    /// The gate's permit, or the typed overload.
    fn permit(&self) -> Result<InflightPermit, ServeError> {
        self.gate.acquire().ok_or_else(|| {
            self.gate_bounces.fetch_add(1, Ordering::Relaxed);
            ServeError::Overloaded { retry_after_ms: 1 }
        })
    }

    fn exec_read(
        self: &Arc<Self>,
        addr: u64,
        deadline_ms: u32,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Executed {
        let permit = match self.permit() {
            Ok(permit) => permit,
            Err(e) => return Executed::answered(Response::Err(e)),
        };
        let deadline = cfg.effective_deadline(deadline_ms);
        let state = self.read_line(addr, deadline, received, threads);
        Executed {
            _permit: Some(permit),
            state,
        }
    }

    fn read_line(
        self: &Arc<Self>,
        addr: u64,
        deadline: Duration,
        received: Instant,
        threads: &ThreadReg,
    ) -> Awaiting {
        let mut core = match self.admit(deadline, received) {
            Ok(core) => core,
            Err(e) => return Awaiting::Nothing(Response::Err(e)),
        };
        if core.mode == ServeMode::ReadOnly {
            // Degraded path: serve the last verified payload.
            return Awaiting::Nothing(match core.verified.get(addr) {
                Some(b) => {
                    core.stats.reads_total += 1;
                    core.stats.degraded_reads += 1;
                    Response::ReadOk {
                        data: *b.as_bytes(),
                        mode: ServeMode::ReadOnly,
                    }
                }
                None => Response::Err(degraded()),
            });
        }
        let result = if core.force_transient > 0 {
            core.force_transient -= 1;
            Err(injected_fault())
        } else {
            match core.ctrl.as_mut() {
                Some(ctrl) => ctrl.read_deferred(DataAddr::new(addr)),
                None => return Awaiting::Nothing(Response::Err(degraded())),
            }
        };
        match result {
            Ok(block) => {
                core.stats.reads_total += 1;
                core.breaker.record_ok();
                // The read's own metadata records ride the next frame and
                // nobody waits for them; what it must not run ahead of is
                // a write it observed.
                let observed = core.unsynced.get(&addr).map(|last| last.ticket);
                match observed.filter(|&ticket| !self.durability.covers(ticket)) {
                    Some(ticket) => Awaiting::Read {
                        ticket,
                        data: *block.as_bytes(),
                    },
                    None => {
                        let seq = core.write_seq;
                        core.verified.insert(addr, seq, block);
                        Awaiting::Nothing(Response::ReadOk {
                            data: *block.as_bytes(),
                            mode: ServeMode::Full,
                        })
                    }
                }
            }
            Err(e) => Awaiting::Nothing(Response::Err(self.failed(&mut core, threads, &e))),
        }
    }

    /// The typed answer to a controller op that failed, with what the
    /// failure sets in motion: corruption enters the ladder, anything but
    /// a bad request is recorded by the breaker.
    fn failed(
        self: &Arc<Self>,
        core: &mut Core<B>,
        threads: &ThreadReg,
        e: &MemError,
    ) -> ServeError {
        match classify(e) {
            FailClass::BadRequest => ServeError::BadRequest {
                detail: e.to_string(),
            },
            FailClass::Corruption => self.fault_to_recovery(core, threads, e),
            FailClass::Other => {
                core.breaker.record_fault(Instant::now());
                ServeError::Internal {
                    detail: e.to_string(),
                }
            }
        }
    }

    /// An op hit detected corruption: count the fault, enter the ladder,
    /// answer with the typed integrity error (the *first* caller learns
    /// what happened; subsequent callers see `Degraded`).
    fn fault_to_recovery(
        self: &Arc<Self>,
        core: &mut Core<B>,
        threads: &ThreadReg,
        e: &MemError,
    ) -> ServeError {
        core.breaker.record_fault(Instant::now());
        self.tel.incr("serve_integrity_faults_total", &self.name, 1);
        self.spawn_recovery(core, Entry::Fault, threads);
        ServeError::Integrity {
            detail: e.to_string(),
        }
    }

    fn exec_write(
        self: &Arc<Self>,
        items: Vec<(DataAddr, Block)>,
        batch: bool,
        deadline_ms: u32,
        received: Instant,
        cfg: &ServeConfig,
        threads: &ThreadReg,
    ) -> Executed {
        let permit = match self.permit() {
            Ok(permit) => permit,
            Err(e) => return Executed::answered(Response::Err(e)),
        };
        let deadline = cfg.effective_deadline(deadline_ms);
        let state = match self.write_lines(&items, deadline, received, threads) {
            Ok((ticket, seq)) => Awaiting::Write {
                ticket,
                seq,
                items,
                batch,
            },
            Err(e) => Awaiting::Nothing(Response::Err(e)),
        };
        Executed {
            _permit: Some(permit),
            state,
        }
    }

    /// Executes a write under the lock; returns its ticket and sequence
    /// number.
    fn write_lines(
        self: &Arc<Self>,
        items: &[(DataAddr, Block)],
        deadline: Duration,
        received: Instant,
        threads: &ThreadReg,
    ) -> Result<(u64, u64), ServeError> {
        let mut core = self.admit(deadline, received)?;
        if core.mode == ServeMode::ReadOnly {
            core.stats.degraded_writes += 1;
            self.tel.incr("serve_degraded_writes_total", &self.name, 1);
            return Err(degraded());
        }
        let result = if core.force_transient > 0 {
            core.force_transient -= 1;
            Err(injected_fault())
        } else {
            match core.ctrl.as_mut() {
                Some(ctrl) => {
                    write_deferred(ctrl, items).map(|()| ctrl.domain().device().backend().ticket())
                }
                None => return Err(degraded()),
            }
        };
        match result {
            Ok(ticket) => {
                core.write_seq += 1;
                let seq = core.write_seq;
                for &(addr, block) in items {
                    let last = Unsynced { ticket, seq, block };
                    core.unsynced.insert(addr.index(), last);
                }
                core.uncut_ops += 1;
                Ok((ticket, seq))
            }
            Err(e) => Err(self.failed(&mut core, threads, &e)),
        }
    }

    /// `Flush` is fused on purpose: it asks for everything — dirty
    /// metadata, the WPQ — to be on the medium when it returns, and runs
    /// its barriers under the lock (they queue behind a leader's frame
    /// in flight). Whatever executed operations it carried along learn
    /// of it from the backend like everyone else.
    fn op_flush(self: &Arc<Self>) -> Response {
        let mut core = self.lock();
        match core.mode {
            ServeMode::Full => {}
            mode => return Response::Err(ServeError::Degraded { mode }),
        }
        let Some(ctrl) = core.ctrl.as_mut() else {
            return Response::Err(degraded());
        };
        let flushed = ctrl.shutdown_flush();
        core.uncut_ops = 0;
        match flushed {
            Ok(()) => Response::FlushOk,
            Err(e) => Response::Err(ServeError::Internal {
                detail: e.to_string(),
            }),
        }
    }

    fn op_recover(self: &Arc<Self>, threads: &ThreadReg) -> Response {
        let mut core = self.lock();
        if core.ctrl.is_none() {
            return Response::RecoverOk {
                outcome: "already recovering".to_string(),
            };
        }
        self.spawn_recovery(&mut core, Entry::Fault, threads);
        Response::RecoverOk {
            outcome: "started".to_string(),
        }
    }

    /// Arms one of the fault hooks. It is reachable only in process:
    /// the wire has no opcode for it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Degraded`] for [`Inject::CorruptLine`] while a
    /// ladder has the controller.
    #[doc(hidden)]
    pub fn inject(&self, inj: Inject) -> Result<(), ServeError> {
        let mut core = self.lock();
        match inj {
            Inject::CorruptLine { addr, bit } => {
                let ctrl = core.ctrl.as_mut().ok_or_else(degraded)?;
                tamper_data_line(ctrl, addr, bit as usize);
            }
            Inject::TransientFaults { count } => core.force_transient = count,
            Inject::Stall { ms } => core.stall_ms = ms,
            Inject::RecoveryStall { ms } => core.recovery_stall_ms = ms,
        }
        Ok(())
    }

    /// Orderly-shutdown hook: drains dirty metadata when the tenant is
    /// in full service (a recovering or failed tenant is left as-is for
    /// the next boot ladder). A flush that fails leaves the image as a
    /// crash would, which the next boot recovers; it is reported, not
    /// hidden.
    pub(crate) fn orderly_flush(&self) {
        let mut core = self.lock();
        if core.mode == ServeMode::Full {
            if let Some(ctrl) = core.ctrl.as_mut() {
                if let Err(e) = ctrl.shutdown_flush() {
                    eprintln!(
                        "anubis-serve: tenant {}: shutdown flush failed: {e}",
                        self.name
                    );
                    self.tel.incr("serve_flush_failures_total", &self.name, 1);
                }
            }
        }
    }

    fn stats_snapshot(&self) -> TenantStats {
        let core = self.lock();
        TenantStats {
            mode: core.mode.code(),
            inflight: u64::from(self.gate.in_flight()),
            reads_total: core.stats.reads_total,
            writes_acked_total: core.stats.writes_acked_total,
            rejected_overload: core.stats.rejected_overload
                + self.gate_bounces.load(Ordering::Relaxed),
            rejected_circuit: core.stats.rejected_circuit,
            rejected_deadline: core.stats.rejected_deadline,
            degraded_writes: core.stats.degraded_writes,
            degraded_reads: core.stats.degraded_reads,
            recoveries: core.stats.recoveries,
            breaker_trips: core.breaker.trips(),
            quarantined_blocks: core
                .ctrl
                .as_ref()
                .map_or(0, |c| c.domain().device().quarantine_table().len() as u64),
            last_outcome: core.stats.last_outcome.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join_ladders(threads: &ThreadReg) {
        for ladder in std::mem::take(&mut *relock(threads)) {
            ladder.join().expect("ladder thread");
        }
    }

    #[test]
    fn a_boot_accounts_for_its_three_phases_and_a_fault_ladder_is_not_a_boot() {
        let data_dir =
            std::env::temp_dir().join(format!("anubis-tenant-boot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir).expect("data dir");
        let cfg = ServeConfig {
            data_dir: data_dir.clone(),
            tenants: crate::config::parse_tenants("alpha:tok:sgx").expect("tenant spec"),
            ..ServeConfig::default()
        };
        let (reg, tel) = Telemetry::private();
        let threads = ThreadReg::default();
        let phases = || {
            let snap = reg.snapshot();
            let boot = snap.histograms.get("serve_boot_us");
            boot.map_or_else(Vec::new, |labels| {
                labels.iter().map(|(l, h)| (l.clone(), h.count)).collect()
            })
        };

        let tenant = Tenant::open(&cfg.tenants[0], &cfg, tel, &threads).expect("open");
        join_ladders(&threads);
        assert_eq!(tenant.mode(), ServeMode::Full);
        let booted = [
            ("alpha/ladder".to_string(), 1),
            ("alpha/open".to_string(), 1),
            ("alpha/reopen".to_string(), 1),
        ];
        assert_eq!(phases(), booted);

        tenant.op_recover(&threads);
        join_ladders(&threads);
        assert_eq!(tenant.stats_snapshot().recoveries, 2);
        assert_eq!(
            phases(),
            booted,
            "a Recover request runs a ladder, not a boot"
        );
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    #[test]
    fn the_verified_table_stops_growing_at_its_bound() {
        let mut table = Verified::new();
        assert_eq!(table.len(), 0);
        for line in 0..3 * VERIFIED_SLOTS as u64 {
            table.insert(line, line, Block::filled(line as u8));
            assert!(table.len() <= VERIFIED_SLOTS);
        }
        assert_eq!(table.len(), VERIFIED_SLOTS);
        // The latest line of each slot is the one it answers for.
        let last = 3 * VERIFIED_SLOTS as u64 - 1;
        assert_eq!(table.get(last), Some(Block::filled(last as u8)));
        assert_eq!(table.get(last - VERIFIED_SLOTS as u64), None);
    }

    #[test]
    fn an_older_write_never_replaces_a_newer_one_of_the_same_line() {
        let mut table = Verified::new();
        table.insert(5, 8, Block::filled(0xBB));
        table.insert(5, 7, Block::filled(0xAA)); // answered later, executed earlier
        assert_eq!(table.get(5), Some(Block::filled(0xBB)));
        table.insert(5, 8, Block::filled(0xCC)); // a read of the settled line
        assert_eq!(table.get(5), Some(Block::filled(0xCC)));
        // Another line's sequence numbers have no say over the slot.
        let other = 5 + VERIFIED_SLOTS as u64;
        table.insert(other, 1, Block::filled(0xDD));
        assert_eq!(
            (table.get(5), table.get(other)),
            (None, Some(Block::filled(0xDD)))
        );
    }
}
