//! The execute / durable split of the served path, driven in-process
//! over a backend whose durable half is gated: a commit parks on a
//! channel until the test lets it through (or fails it), so every
//! interleaving below is forced, not sampled.
//!
//! What is pinned (DESIGN.md §10, "execute / durable"):
//!
//! * operations that execute while a barrier is in flight share the next
//!   one — five writes, two barriers;
//! * a ticket is answered when its own frame has landed, in epoch order;
//! * a failed barrier fails every ticket it covered with the typed
//!   error, none it did not cover, and nothing is re-executed;
//! * a read that observed a write not durable yet waits for exactly that
//!   write's barrier; a read of a settled line never waits;
//! * the degraded-read table takes the newest durable payload of a line,
//!   whichever of the line's writes is answered first.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anubis::telemetry::Telemetry;
use anubis_nvm::{Block, Cut, Durability, MemBackend, NvmBackend, NvmError};
use anubis_server::{
    Inject, Request, Response, ServeConfig, ServeError, ServeMode, Tenant, TenantFamily,
    TenantSpec, ThreadReg,
};

/// The durable half: counts the frames that reach it, and while
/// `closed` parks each one until the test sends its verdict.
#[derive(Debug)]
struct Gate {
    closed: AtomicBool,
    commits: AtomicU64,
    /// Announces "the commit of this epoch is parked".
    parked: Mutex<Sender<u64>>,
    verdicts: Mutex<Receiver<Result<(), &'static str>>>,
    durability: Durability,
}

impl Gate {
    /// What a `FileBackend` does with the file, in the frame's turn.
    fn write(&self, epoch: u64) -> Result<(), NvmError> {
        self.commits.fetch_add(1, Ordering::SeqCst);
        if !self.closed.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.parked.lock().unwrap().send(epoch).unwrap();
        let verdict = self.verdicts.lock().unwrap().recv().unwrap();
        verdict.map_err(|why| NvmError::Backend {
            reason: why.to_string(),
        })
    }
}

/// A volatile block map whose barriers go through the [`Gate`]: the
/// in-memory half of a durable backend, with nothing behind it.
#[derive(Debug)]
struct GatedBackend {
    blocks: MemBackend,
    epoch: u64,
    buffered: bool,
    gate: Arc<Gate>,
}

impl NvmBackend for GatedBackend {
    fn load(&self, phys: u64) -> Option<Block> {
        self.blocks.load(phys)
    }
    fn store(&mut self, phys: u64, block: Block) {
        self.buffered = true;
        self.blocks.store(phys, block);
    }
    fn store_counted(&mut self, phys: u64, block: Block) -> u64 {
        self.buffered = true;
        self.blocks.store_counted(phys, block)
    }
    fn writes_to(&self, phys: u64) -> u64 {
        self.blocks.writes_to(phys)
    }
    fn touched(&self) -> usize {
        self.blocks.touched()
    }
    fn entries(&self) -> Vec<(u64, Block)> {
        self.blocks.entries()
    }
    fn store_reg(&mut self, idx: u8, block: Block) {
        self.buffered = true;
        self.blocks.store_reg(idx, block);
    }
    fn reg(&self, idx: u8) -> Option<Block> {
        self.blocks.reg(idx)
    }
    fn regs(&self) -> Vec<(u8, Block)> {
        self.blocks.regs()
    }
    fn journal(&mut self, _phys: u64, _block: Block) {
        self.buffered = true;
    }
    fn cut(&mut self) -> Option<Cut> {
        if !std::mem::take(&mut self.buffered) {
            return None;
        }
        self.epoch += 1;
        let (gate, epoch) = (Arc::clone(&self.gate), self.epoch);
        let durability = gate.durability.clone();
        Some(Cut::new(epoch, false, durability, move || {
            gate.write(epoch)
        }))
    }
    fn epoch(&self) -> u64 {
        self.epoch
    }
    fn ticket(&self) -> u64 {
        self.epoch + u64::from(self.buffered)
    }
    fn durability(&self) -> Durability {
        self.gate.durability.clone()
    }
}

/// A bonsai tenant in full service over a gated backend, the gate's
/// remote control, and what is needed to talk to the tenant.
struct Rig {
    tenant: Arc<Tenant<GatedBackend>>,
    gate: Arc<Gate>,
    parked: Receiver<u64>,
    verdicts: Sender<Result<(), &'static str>>,
    cfg: ServeConfig,
    threads: ThreadReg,
}

const SETTLED_LINE: u64 = 9;

impl Rig {
    fn new() -> Rig {
        let (parked_tx, parked) = channel();
        let (verdicts, verdicts_rx) = channel();
        let gate = Arc::new(Gate {
            closed: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            parked: Mutex::new(parked_tx),
            verdicts: Mutex::new(verdicts_rx),
            durability: Durability::at(0),
        });
        let backend = GatedBackend {
            blocks: MemBackend::new(),
            epoch: 0,
            buffered: false,
            gate: Arc::clone(&gate),
        };
        let cfg = ServeConfig {
            // The failures below are the subject, not load to be shed.
            breaker_threshold: 1_000,
            ..ServeConfig::default()
        };
        let threads: ThreadReg = Arc::new(Mutex::new(Vec::new()));
        let spec = TenantSpec::new("gated", "tok", TenantFamily::BonsaiAgitPlus);
        let tenant = Tenant::over(&spec, &cfg, Telemetry::off(), backend, &threads);
        let rig = Rig {
            tenant,
            gate,
            parked,
            verdicts,
            cfg,
            threads,
        };
        let booted = Instant::now();
        while rig.tenant.mode() != ServeMode::Full {
            assert!(booted.elapsed() < Duration::from_secs(10), "boot ladder");
            std::thread::yield_now();
        }
        // One line written and durable before the gate closes.
        assert_eq!(rig.call(&write(SETTLED_LINE)), Response::WriteOk);
        rig.gate.closed.store(true, Ordering::SeqCst);
        rig
    }

    fn begin(&self, req: &Request) -> anubis_server::Executed {
        self.tenant
            .begin(req, Instant::now(), &self.cfg, &self.threads)
    }

    /// Execute and wait in one go (the gate must let it through).
    fn call(&self, req: &Request) -> Response {
        self.tenant.finish(self.begin(req))
    }

    /// Finishes `executed` on its own thread; `done` hears `tag` and the
    /// reply once the tenant has answered.
    fn finish_on_a_thread(
        &self,
        tag: u64,
        executed: anubis_server::Executed,
        done: &Sender<(u64, Response)>,
    ) -> std::thread::JoinHandle<()> {
        let (tenant, done) = (Arc::clone(&self.tenant), done.clone());
        std::thread::spawn(move || {
            let reply = tenant.finish(executed);
            done.send((tag, reply)).unwrap();
        })
    }

    fn writes_acked(&self) -> u64 {
        match self.call(&Request::Stats) {
            Response::StatsOk(stats) => stats.writes_acked_total,
            other => panic!("stats: {other:?}"),
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        for ladder in self.threads.lock().unwrap().drain(..) {
            ladder.join().unwrap();
        }
    }
}

fn payload(line: u64) -> [u8; 64] {
    [0x40 + line as u8; 64]
}

fn write(line: u64) -> Request {
    Request::Write {
        addr: line,
        deadline_ms: 0,
        data: payload(line),
    }
}

fn read(line: u64) -> Request {
    Request::Read {
        addr: line,
        deadline_ms: 0,
    }
}

/// Nobody may have been answered yet: the frame they wait for is parked.
fn assert_none_done(done: &Receiver<(u64, Response)>, why: &str) {
    if let Ok((tag, reply)) = done.recv_timeout(Duration::from_millis(50)) {
        panic!("request {tag} was answered ({reply:?}) {why}");
    }
}

/// Write 1 parked in its barrier, writes 2–5 and a read of line 3
/// executed behind it.
struct Parked {
    /// Epoch of the parked frame (write 1's).
    epoch: u64,
    /// `(tag, reply)` of each request as the tenant answers it: the
    /// writes under their line numbers, the read under 33.
    done: Receiver<(u64, Response)>,
    finishers: Vec<std::thread::JoinHandle<()>>,
}

fn five_writes_behind_a_parked_leader(rig: &Rig) -> Parked {
    let (done_tx, done) = channel();
    let first = rig.begin(&write(1));
    let epoch = first.ticket().expect("a write waits for its frame");
    let mut finishers = vec![rig.finish_on_a_thread(1, first, &done_tx)];
    assert_eq!(
        rig.parked.recv().unwrap(),
        epoch,
        "op 1 leads its own frame"
    );

    // Four more writes execute while the leader is parked — on this
    // thread, so "executed" is a fact and not a race — and all of them
    // leave with the ticket of the next frame.
    let behind: Vec<_> = (2..=5u64).map(|line| rig.begin(&write(line))).collect();
    for executed in &behind {
        assert_eq!(executed.ticket(), Some(epoch + 1));
    }

    // A read of a settled line needs no barrier: answered at execution,
    // while the leader is still parked.
    let settled = rig.begin(&read(SETTLED_LINE));
    assert_eq!(settled.ticket(), None);
    assert_eq!(
        rig.tenant.finish(settled),
        Response::ReadOk {
            data: payload(SETTLED_LINE),
            mode: ServeMode::Full
        }
    );
    // A read of a line whose write is executed but not durable sees the
    // new value and must wait for that write's frame, and only for it.
    let unsynced = rig.begin(&read(3));
    assert_eq!(unsynced.ticket(), Some(epoch + 1));

    for (tag, executed) in (2u64..).zip(behind) {
        finishers.push(rig.finish_on_a_thread(tag, executed, &done_tx));
    }
    finishers.push(rig.finish_on_a_thread(33, unsynced, &done_tx));
    assert_none_done(&done, "while the first frame was parked");
    Parked {
        epoch,
        done,
        finishers,
    }
}

#[test]
fn ops_executed_behind_a_parked_leader_share_the_next_barrier() {
    let rig = Rig::new();
    let commits = rig.gate.commits.load(Ordering::SeqCst);
    let acked = rig.writes_acked();
    let Parked {
        epoch,
        done,
        finishers,
    } = five_writes_behind_a_parked_leader(&rig);

    // Frame 1 lands: op 1 — and only op 1 — is answered.
    rig.verdicts.send(Ok(())).unwrap();
    assert_eq!(done.recv().unwrap(), (1, Response::WriteOk));
    assert_eq!(
        rig.parked.recv().unwrap(),
        epoch + 1,
        "one of the waiters leads the frame that holds all four"
    );
    assert_none_done(&done, "while the second frame was parked");
    assert_eq!(rig.writes_acked(), acked + 1, "acked means durable");

    // Frame 2 lands: everything behind it is answered.
    rig.verdicts.send(Ok(())).unwrap();
    let mut rest: Vec<_> = (0..5).map(|_| done.recv().unwrap()).collect();
    rest.sort_by_key(|(tag, _)| *tag);
    let read_back = rest.pop().unwrap();
    assert_eq!(
        read_back,
        (
            33,
            Response::ReadOk {
                data: payload(3),
                mode: ServeMode::Full
            }
        )
    );
    assert_eq!(
        rest,
        (2..=5).map(|t| (t, Response::WriteOk)).collect::<Vec<_>>()
    );
    for f in finishers {
        f.join().unwrap();
    }
    assert_eq!(
        rig.gate.commits.load(Ordering::SeqCst) - commits,
        2,
        "five writes, two barriers"
    );
    assert_eq!(rig.writes_acked(), acked + 5);
    assert_eq!(rig.tenant.epochs(), Some((epoch + 1, epoch + 1)));
}

#[test]
fn a_failed_barrier_fails_the_tickets_it_covered_and_no_others() {
    let rig = Rig::new();
    let acked = rig.writes_acked();
    let Parked {
        epoch,
        done,
        finishers,
    } = five_writes_behind_a_parked_leader(&rig);

    rig.verdicts.send(Ok(())).unwrap();
    assert_eq!(done.recv().unwrap(), (1, Response::WriteOk));
    assert_eq!(rig.parked.recv().unwrap(), epoch + 1);
    // The medium fails under the frame that holds ops 2–5.
    rig.verdicts.send(Err("medium gone")).unwrap();
    for _ in 0..5 {
        let (tag, reply) = done.recv().unwrap();
        match reply {
            Response::Err(ServeError::Internal { detail }) => {
                assert!(detail.contains("medium gone"), "request {tag}: {detail}")
            }
            other => panic!("request {tag} must fail typed, got {other:?}"),
        }
    }
    for f in finishers {
        f.join().unwrap();
    }
    assert_eq!(rig.writes_acked(), acked + 1, "only op 1 was ever durable");
    assert_eq!(
        rig.tenant.epochs(),
        None,
        "the backend reports the failure, not an epoch"
    );

    // The failure is permanent and nothing was retried: a later write
    // executes, is refused its barrier without a commit being attempted,
    // and a line that was settled before still reads.
    let commits = rig.gate.commits.load(Ordering::SeqCst);
    match rig.call(&write(7)) {
        Response::Err(ServeError::Internal { detail }) => {
            assert!(detail.contains("medium gone"), "{detail}")
        }
        other => panic!("a write after a failed barrier must fail typed, got {other:?}"),
    }
    assert_eq!(rig.gate.commits.load(Ordering::SeqCst), commits);
    assert_eq!(
        rig.call(&read(SETTLED_LINE)),
        Response::ReadOk {
            data: payload(SETTLED_LINE),
            mode: ServeMode::Full
        }
    );
}

#[test]
fn a_degraded_read_never_steps_back_behind_a_write_that_shared_the_frame() {
    let rig = Rig::new();
    rig.gate.closed.store(false, Ordering::SeqCst);
    // Two writes of one line execute back to back and share a frame.
    let (older, newer) = ([0xA1; 64], [0xB2; 64]);
    let [first, second] = [older, newer].map(|data| {
        rig.begin(&Request::Write {
            addr: 3,
            deadline_ms: 0,
            data,
        })
    });
    assert_eq!(first.ticket(), second.ticket());
    // The older one is answered first; the frame it led holds both, so
    // a reader may have been shown the newer payload already.
    assert_eq!(rig.tenant.finish(first), Response::WriteOk);
    // The tenant degrades before the newer write's thread gets to run.
    let stall = Inject::RecoveryStall { ms: 300 };
    assert_eq!(rig.tenant.inject(stall), Ok(()));
    assert!(matches!(
        rig.call(&Request::Recover),
        Response::RecoverOk { .. }
    ));
    assert_eq!(
        rig.call(&read(3)),
        Response::ReadOk {
            data: newer,
            mode: ServeMode::ReadOnly
        }
    );
    // Its ticket resolves although the ladder has the controller.
    assert_eq!(rig.tenant.finish(second), Response::WriteOk);
}
