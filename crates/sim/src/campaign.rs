//! The campaign kernel: what the crash / restart harnesses share.
//!
//! [`crate::fault`], [`crate::drill`], [`crate::adversary`] and
//! [`crate::serve`] each plan faults of their own and turn what they
//! find into verdicts of their own. Four things they all do the same way
//! live here, once:
//!
//! * **the script driver** — [`drive`] plays a [`ScriptOp`] script on a
//!   controller and says how the run stopped ([`Stop`]);
//!   [`drive_anchored`] plays one over a fresh anchored image, where a
//!   copy of the image and its anchor between two ops is what a kill
//!   there leaves;
//! * **the oracle** — [`Acked`], the reference model of the Triad-NVM
//!   rule *acknowledged ⇒ durable and verifiable after any crash*: the
//!   last acknowledged payload per address (plus, for an in-process
//!   power cut, at most one write in flight), and the one audit that
//!   holds a recovered system to it;
//! * **the restart verdict** — [`judge`] restarts a dead image as the
//!   server would and audits it into a [`Verdict`], or a [`Breach`];
//! * **the victim** — [`Victim`], a child process that is polled,
//!   SIGKILLed and reaped on every path, and [`ScriptChild`], the one
//!   child, which serves a script over an anchored file-backed image.
//!
//! The restart campaigns ([`crate::drill`], [`crate::adversary`],
//! [`crate::serve`]) also share one finding, [`CampaignError`], and one
//! point loop, [`run_points`]. The kernel classifies and reports; what a
//! finding *means* — a panic with the plan label, a verdict below a
//! mutation's floor, a drill point short of full recovery — stays with
//! the harness that asked (`DESIGN.md`, "Campaign kernel").

mod oracle;
mod restart;
mod victim;

use std::convert::Infallible;
use std::fs;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use anubis::{AnubisConfig, DataAddr, Family, MemError, MemoryController, RecoveryError};
use anubis_nvm::{
    anchor_path_for, home_path_for, AnchorPolicy, Block, FaultKind, NvmBackend, NvmError,
};

use crate::engine::payload;

pub use oracle::{Acked, Finding, Judged, ReadBack};
pub use restart::{judge, restart, Breach, Verdict};
pub use victim::{child_main, Fate, ScriptChild, Victim};

/// One step of a scripted workload: `(is_write, data-line address)`.
///
/// Write payloads are derived from the op's position in the script via
/// [`op_payload`], so re-running the same script is fully deterministic
/// and overwrites are visible (the same address carries different data at
/// different script positions).
pub type ScriptOp = (bool, u64);

/// Deterministic payload for the write at script position `op_index`
/// targeting `addr`. Distinct per (position, address) pair.
pub fn op_payload(op_index: u64, addr: u64) -> Block {
    payload(op_index * 1009 + addr)
}

/// The campaign digests' checksum, re-exported where the pins import it.
pub use anubis_nvm::{fnv1a64, FNV1A64_EMPTY};

/// xorshift64\* — deterministic, dependency-free randomness for scripts,
/// schedules, kill points and mutation draws.
#[derive(Clone, Debug)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// A generator over `seed` (zero, the one fixed point, becomes 1).
    pub fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    /// The generator of one family's kill points and mutations: the
    /// campaign seed decorrelated by the family's [`Family::name`].
    pub fn for_family(seed: u64, family: Family) -> Self {
        XorShift64::new((seed ^ fnv1a64(FNV1A64_EMPTY, family.name().as_bytes())) | 1)
    }

    /// Steps the state and returns it.
    fn next_raw(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Steps the state and returns its xorshift64\* scramble.
    pub fn next_star(&mut self) -> u64 {
        self.next_raw().wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The deterministic restart-drill workload: `len` operations over
/// `lines` data lines, roughly 70 % writes, fully determined by `seed`.
/// Payloads come from [`op_payload`], keyed by script position, so
/// overwrites of the same address are distinguishable.
pub fn drill_script(len: usize, lines: u64, seed: u64) -> Vec<ScriptOp> {
    let mut rng = XorShift64::new(seed | 1);
    (0..len)
        .map(|_| {
            let is_write = rng.next_star() % 10 < 7;
            let addr = rng.next_star() % lines.max(1);
            (is_write, addr)
        })
        .collect()
}

/// The script of a drive: `script_len` ops over `lines` data lines,
/// drawn from `seed` ([`drill_script`]); the seed also draws the kill
/// points.
#[derive(Clone, Copy, Debug)]
pub struct ScriptSpec {
    /// Script length in operations (reads and writes).
    pub script_len: usize,
    /// Data-line address range the script touches.
    pub lines: u64,
    /// Seed for the script, the kill points and the mutation draws.
    pub seed: u64,
}

impl ScriptSpec {
    /// The drill's spec, the one `BENCH_drill.json` was recorded with.
    pub fn drill() -> Self {
        ScriptSpec {
            script_len: 1_200,
            lines: 300,
            seed: 0xA17B_05E7,
        }
    }

    /// The adversary's spec, the one `BENCH_adversary.json` was recorded
    /// with.
    pub fn adversary() -> Self {
        ScriptSpec {
            script_len: 4_500,
            lines: 220,
            seed: 0xAD7E_5A21,
        }
    }

    /// The script this spec draws.
    pub fn script(&self) -> Vec<ScriptOp> {
        drill_script(self.script_len, self.lines, self.seed)
    }
}

/// A failure of the harness machinery itself — filesystem, process
/// control, the script child, a spec it cannot run — as opposed to a
/// finding about the system under test.
#[derive(Debug)]
pub enum HarnessError {
    /// Filesystem or process-control failure, annotated with the
    /// operation that failed and the path involved.
    Io {
        /// What the harness was doing (e.g. `"spawn child"`).
        op: &'static str,
        /// The file or executable the operation targeted.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The child process was handed a malformed command line.
    BadChildArg {
        /// Which argument was missing or unparseable.
        what: &'static str,
    },
    /// The device image failed to open or replay.
    Nvm(NvmError),
    /// The script child exited with a failure before its kill: its serve
    /// loop hit an unexpected error.
    Child {
        /// Its exit code; `None` when it died on a signal.
        code: Option<i32>,
    },
    /// The child made no progress within the harness's timeout.
    Hung,
    /// Post-restart recovery failed outright.
    Recovery(RecoveryError),
    /// An unexpected controller error while a script was served — by
    /// the script child or an in-process drive — with its position.
    Serve {
        /// Script index of the failing operation.
        op_index: u64,
        /// The controller error.
        err: MemError,
    },
    /// The spec asks for what cannot be run: an empty kill window, a
    /// mutation with nothing in the image to apply it to.
    Spec {
        /// What cannot be run, and why.
        what: String,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io { op, path, source } => {
                write!(f, "harness I/O error: {op} {}: {source}", path.display())
            }
            HarnessError::BadChildArg { what } => write!(f, "child: bad argument: {what}"),
            HarnessError::Nvm(e) => write!(f, "device image error: {e}"),
            HarnessError::Child { code: Some(c) } => {
                write!(f, "child failed before kill (exit code {c})")
            }
            HarnessError::Child { code: None } => {
                write!(f, "child died on an unexpected signal before kill")
            }
            HarnessError::Hung => write!(f, "child made no progress before timeout"),
            HarnessError::Recovery(e) => write!(f, "post-restart recovery failed: {e}"),
            HarnessError::Serve { op_index, err } => {
                write!(f, "script serve loop failed at op {op_index}: {err}")
            }
            HarnessError::Spec { what } => write!(f, "bad campaign spec: {what}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<NvmError> for HarnessError {
    fn from(e: NvmError) -> Self {
        HarnessError::Nvm(e)
    }
}

impl From<RecoveryError> for HarnessError {
    fn from(e: RecoveryError) -> Self {
        HarnessError::Recovery(e)
    }
}

/// What stops a restart campaign: a finding about the system under test,
/// or a failure of the harness. Each campaign decides which verdict it
/// requires of a restart; the kernel only names what fell short.
#[derive(Debug)]
pub enum CampaignError {
    /// The harness itself failed: infrastructure, not a finding.
    Harness(HarnessError),
    /// A restart served stale with nothing typed, or panicked.
    Breach {
        /// What was restarted: the mutation, the tenant.
        at: String,
        /// What it did.
        breach: Breach,
    },
    /// A restart ended in a typed outcome below what the campaign
    /// requires of it.
    Short {
        /// What was restarted.
        at: String,
        /// The outcome required.
        want: &'static str,
        /// The outcome reached, rendered.
        got: String,
    },
    /// A point of the campaign failed; its scratch directory is kept.
    Point {
        /// The point, as the campaign names it.
        point: String,
        /// Scratch directory preserved for post-mortem.
        dir: PathBuf,
        /// The underlying failure.
        source: Box<CampaignError>,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Harness(e) => write!(f, "{e}"),
            CampaignError::Breach { at, breach } => write!(f, "{at}: {breach}"),
            CampaignError::Short { at, want, got } => write!(f, "{at} requires {want}, got {got}"),
            CampaignError::Point { point, dir, source } => {
                write!(f, "{point} (artifacts in {}): {source}", dir.display())
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Harness(e) => Some(e),
            CampaignError::Point { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl<E: Into<HarnessError>> From<E> for CampaignError {
    fn from(e: E) -> Self {
        CampaignError::Harness(e.into())
    }
}

/// Runs a campaign's points in order. `points` yields `(name, label,
/// point)`: point `p` runs as `run(p, dir/name)` in that directory,
/// cleared and created first, and removed once the point passes. The
/// first failure stops the campaign as [`CampaignError::Point`] named
/// `label`, with the directory kept for post-mortem. Returns what each
/// point returned, in order.
///
/// # Errors
///
/// The first failing point, wrapped.
pub fn run_points<P, T>(
    dir: &Path,
    points: impl IntoIterator<Item = (String, String, P)>,
    mut run: impl FnMut(P, &Path) -> Result<T, CampaignError>,
) -> Result<Vec<T>, CampaignError> {
    let mut outcomes = Vec::new();
    for (name, label, point) in points {
        let pdir = dir.join(name);
        let _ = fs::remove_dir_all(&pdir);
        let created = fs::create_dir_all(&pdir).map_err(io_ctx("create scratch dir", &pdir));
        match created
            .map_err(CampaignError::from)
            .and_then(|()| run(point, &pdir))
        {
            Ok(out) => outcomes.push(out),
            Err(source) => {
                return Err(CampaignError::Point {
                    point: label,
                    dir: pdir,
                    source: Box::new(source),
                })
            }
        }
        let _ = fs::remove_dir_all(&pdir);
    }
    Ok(outcomes)
}

/// Builds a [`HarnessError::Io`] mapper that stamps `op` and `path` onto
/// a raw I/O error. There is deliberately no blanket
/// `From<std::io::Error>`: every call site must say what it was doing
/// and to which file.
pub fn io_ctx<'a>(
    op: &'static str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> HarnessError + 'a {
    move |source| HarnessError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// What one completed script op did, as [`drive`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Done {
    /// A write was acknowledged; this is the payload it carried.
    Wrote(Block),
    /// A read returned this.
    Read(Block),
}

/// How a [`drive`] run stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum Stop {
    /// Every op of the script completed.
    Completed,
    /// Power was lost inside op `op_index`; nothing after it ran.
    PowerLost {
        /// Script index of the interrupted op.
        op_index: u64,
        /// The `(addr, payload)` it was writing — unacknowledged, and
        /// possibly on the medium all the same; `None` for a read.
        attempted: Option<(u64, Block)>,
        /// The power-loss error as the controller reported it.
        err: MemError,
    },
    /// Op `op_index` failed with any other error (detected corruption,
    /// or something the caller did not expect); nothing after it ran.
    Failed {
        /// Script index of the failing op.
        op_index: u64,
        /// The controller error.
        err: MemError,
    },
}

/// Plays `script` on `ctrl`: position `i` writes [`op_payload`]`(i,
/// addr)` or reads `addr`, and every op that completes is handed to
/// `done(i, addr, ..)`. Stops at the first controller error and says
/// which kind it was; an `Err` from `done` aborts the run as it is.
///
/// # Errors
///
/// Only what `done` returns.
pub fn drive<C: MemoryController + ?Sized, E>(
    ctrl: &mut C,
    script: &[ScriptOp],
    mut done: impl FnMut(u64, u64, Done) -> Result<(), E>,
) -> Result<Stop, E> {
    for (i, &(is_write, addr)) in script.iter().enumerate() {
        let data = op_payload(i as u64, addr);
        let op_index = i as u64;
        let result = if is_write {
            ctrl.write(DataAddr::new(addr), data)
                .map(|()| Done::Wrote(data))
        } else {
            ctrl.read(DataAddr::new(addr)).map(Done::Read)
        };
        match result {
            Ok(what) => done(op_index, addr, what)?,
            Err(err) if err.is_power_loss() => {
                return Ok(Stop::PowerLost {
                    op_index,
                    attempted: is_write.then_some((addr, data)),
                    err,
                })
            }
            Err(err) => return Ok(Stop::Failed { op_index, err }),
        }
    }
    Ok(Stop::Completed)
}

/// [`drive`] for the in-process fault campaigns: builds the [`Acked`]
/// model as writes are acknowledged and holds every *live* read to it.
/// The write a power loss interrupted is owed when the domain's power
/// cut fired — it fires only once its group is past `DONE_BIT`, so the
/// group is redone at power-up — and in flight when a torn write took
/// its group.
///
/// # Panics
///
/// With `label` in the message: a live read of an acknowledged address
/// that returns anything but its acknowledged payload, or an op that
/// fails with an error that is neither a power loss nor — when `lenient`,
/// i.e. under a fault class that only owes detection — a typed
/// corruption error.
pub fn drive_checked<C: MemoryController + ?Sized>(
    ctrl: &mut C,
    script: &[ScriptOp],
    lenient: bool,
    label: &str,
) -> (Acked, Stop) {
    let mut model = Acked::default();
    let Ok(stop) = drive(ctrl, script, |i, addr, what| {
        match what {
            Done::Wrote(data) => model.ack(i, addr, data),
            Done::Read(got) => assert!(
                model.judge(addr, got) != Some(Judged::Other),
                "[{label}] op {i}: live read of acknowledged addr {addr} returned wrong data"
            ),
        }
        Ok::<(), Infallible>(())
    });
    match &stop {
        Stop::PowerLost {
            op_index,
            attempted: Some((addr, data)),
            ..
        } => match ctrl.domain().fault_fired() {
            Some(FaultKind::PowerCut) => model.ack(*op_index, *addr, *data),
            _ => model.attempt(*addr, *data),
        },
        Stop::Failed { op_index, err } if !(lenient && err.is_detected_corruption()) => {
            let kind = if script[*op_index as usize].0 {
                "write"
            } else {
                "read"
            };
            panic!("[{label}] op {op_index}: unexpected {kind} error: {err}")
        }
        _ => {}
    }
    (model, stop)
}

/// Removes an image — its log, its home area and its anchor — where they
/// exist: the three are what a restart opens, so none may outlive the
/// others.
pub fn remove_image(image: &Path) {
    for stale in [image, &home_path_for(image), &anchor_path_for(image)] {
        let _ = fs::remove_file(stale);
    }
}

/// The one way the in-process campaigns make a dead image: drives
/// `script` over a fresh anchored image at `image` and builds the exact
/// model as writes are acknowledged. After every op, `after(model, acks,
/// (before, sealed))` sees that model, the writes acknowledged so far and
/// the epochs the backend had sealed before the op and has sealed after
/// it; the image and its anchor are then exactly what a kill there
/// leaves. The drive stops where `after` breaks, or at the end of the
/// script, and returns the model of that point.
///
/// # Errors
///
/// Whatever `after` returns; [`HarnessError`] when the image does not
/// open, a barrier breaks or a script op fails.
pub fn drive_anchored<E: From<HarnessError>>(
    family: Family,
    script: &[ScriptOp],
    image: &Path,
    mut after: impl FnMut(&Acked, u64, (u64, u64)) -> Result<ControlFlow<()>, E>,
) -> Result<Acked, E> {
    remove_image(image);
    let config = AnubisConfig::small_test();
    let (mut ctrl, _) = restart(family, &config, image, AnchorPolicy::Strict)?;
    let durability = ctrl.domain().device().backend().durability();
    let reached = || (durability.reached()).map_err(|e| E::from(HarnessError::from(e)));
    let (mut model, mut acks, mut before) = (Acked::default(), 0, reached()?);
    // `Err(None)`: `after` stopped the drive.
    let stop = drive(ctrl.as_mut(), script, |i, addr, done| {
        if let Done::Wrote(data) = done {
            model.ack(i, addr, data);
            acks += 1;
        }
        let sealed = reached().map_err(Some)?;
        let flow = after(&model, acks, (before, sealed)).map_err(Some)?;
        before = sealed;
        match flow {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(()) => Err(None),
        }
    });
    match stop {
        Ok(Stop::Completed) | Err(None) => Ok(model),
        Ok(Stop::PowerLost { op_index, err, .. } | Stop::Failed { op_index, err }) => {
            Err(HarnessError::Serve { op_index, err }.into())
        }
        Err(Some(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests;
