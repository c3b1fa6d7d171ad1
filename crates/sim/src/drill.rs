//! Kill −9 restart drills against the file-backed NVM device.
//!
//! The fault campaigns in [`crate::fault`] crash a controller *in
//! process*: the device image survives because it lives in the same
//! address space. This module removes that safety net. A **child
//! process** serves a deterministic script against a
//! [`anubis_nvm::FileBackend`] image and appends a checksummed,
//! fsynced *ack record* after every acknowledged write. The **parent**
//! SIGKILLs the child at a randomized point, then — in its own address
//! space, exactly like a machine restart — reopens the image, runs the
//! recovery supervisor, and verifies that every acknowledged write reads
//! back its last acknowledged payload.
//!
//! The contract under test is the durability side of the Anubis
//! recovery story: an acknowledged write (one whose commit group reached
//! the write-ahead log *and* was flushed by the backend barrier) must
//! survive an arbitrary process death, while an unacknowledged tail may
//! vanish — but must never surface as silently wrong data.
//!
//! Tolerance window: the child logs the ack *after* the controller
//! acknowledges, so a kill can land between the durable barrier and the
//! ack append. At most **one** write (the first scripted write past the
//! highest logged ack) may therefore be durable-but-unlogged; its
//! address may read either its old acknowledged payload or the in-flight
//! one. Everything else must match the ack log exactly.
//!
//! Verification re-runs at several recovery lane counts and demands a
//! bit-identical post-recovery device fingerprint at every count — the
//! determinism contract of [`anubis::parallel`], now checked across a
//! real process restart.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemError, MemoryController,
    RecoveryError, SgxController, SgxScheme, Supervised, SupervisedRecovery, Supervisor,
};
use anubis_nvm::{Block, FileBackend, NvmBackend, NvmError};

use crate::fault::{op_payload, ScriptOp};

/// Bytes per ack record: op index, address, FNV-1a checksum of the two.
const ACK_RECORD_BYTES: usize = 24;

/// How long the parent waits for the child before declaring it hung.
const CHILD_TIMEOUT: Duration = Duration::from_secs(300);

/// The controller families the drill exercises — the paper's two
/// recoverable schemes, one per tree style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillFamily {
    /// Bonsai-style Merkle tree under AGIT+ (Anubis general-purpose).
    BonsaiAgitPlus,
    /// SGX-style counter tree under ASIT (Anubis secure-metadata).
    SgxAsit,
}

impl DrillFamily {
    /// Stable identifier used on the child command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            DrillFamily::BonsaiAgitPlus => "bonsai-agit-plus",
            DrillFamily::SgxAsit => "sgx-asit",
        }
    }

    /// Parses the identifier produced by [`DrillFamily::name`].
    pub fn parse(s: &str) -> Option<DrillFamily> {
        match s {
            "bonsai-agit-plus" => Some(DrillFamily::BonsaiAgitPlus),
            "sgx-asit" => Some(DrillFamily::SgxAsit),
            _ => None,
        }
    }

    /// Both drilled families.
    pub fn all() -> [DrillFamily; 2] {
        [DrillFamily::BonsaiAgitPlus, DrillFamily::SgxAsit]
    }
}

/// Everything a drill campaign needs besides the family.
#[derive(Debug, Clone)]
pub struct DrillSpec {
    /// Script length in operations (reads and writes).
    pub script_len: usize,
    /// Data-line address range the script touches.
    pub lines: u64,
    /// Seed for the script and for the kill-point sequence.
    pub seed: u64,
    /// Recovery lane counts verified per kill point; fingerprints must
    /// agree across all of them.
    pub lanes: Vec<usize>,
}

impl Default for DrillSpec {
    fn default() -> Self {
        DrillSpec {
            script_len: 1_200,
            lines: 300,
            seed: 0xA17B_05E7,
            lanes: vec![1, 2, 8],
        }
    }
}

/// A drill failure. Every variant is a campaign-stopping finding (or an
/// environmental error the caller should surface), never a panic.
#[derive(Debug)]
pub enum DrillError {
    /// Filesystem or process-control failure in the harness itself,
    /// annotated with the operation that failed and the path involved.
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
    /// The child process exited with a failure *before* being killed —
    /// the serve loop hit an unexpected controller error.
    Child {
        /// Exit code, if the child exited (rather than died on signal).
        code: Option<i32>,
    },
    /// The child made no progress within `CHILD_TIMEOUT`.
    Hung,
    /// Post-restart recovery failed outright.
    Recovery(RecoveryError),
    /// An acknowledged write did not read back after recovery.
    AckedWriteLost {
        /// The data-line address that lost its payload.
        addr: u64,
        /// The script index of the last acknowledged write to it.
        op_index: u64,
        /// Lane count of the verification run that caught it.
        lanes: usize,
    },
    /// A read of an acknowledged address errored after recovery.
    AckedReadFailed {
        /// The data-line address whose read failed.
        addr: u64,
        /// The controller error.
        err: MemError,
    },
    /// Two lane counts produced different post-recovery device images.
    FingerprintMismatch {
        /// Fingerprint at one lane count.
        got: u64,
        /// Fingerprint at the reference (first) lane count.
        want: u64,
        /// The lane count that diverged.
        lanes: usize,
    },
    /// An unexpected controller error inside the child serve loop,
    /// reported with its script position.
    Serve {
        /// Script index of the failing operation.
        op_index: u64,
        /// The controller error.
        err: MemError,
    },
    /// A campaign point failed; wraps the underlying error with enough
    /// context to reproduce it (the point's scratch dir is kept).
    Point {
        /// Index of the failing point in campaign order.
        index: u64,
        /// The point's kill threshold (acks).
        kill_after: u64,
        /// Scratch directory preserved for post-mortem.
        dir: PathBuf,
        /// The underlying failure.
        source: Box<DrillError>,
    },
}

impl std::fmt::Display for DrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrillError::Io { op, path, source } => write!(
                f,
                "drill harness I/O error: {op} {}: {source}",
                path.display()
            ),
            DrillError::BadChildArg { what } => {
                write!(f, "drill child: bad argument: {what}")
            }
            DrillError::Nvm(e) => write!(f, "device image error: {e}"),
            DrillError::Child { code: Some(c) } => {
                write!(f, "child failed before kill (exit code {c})")
            }
            DrillError::Child { code: None } => {
                write!(f, "child died on an unexpected signal before kill")
            }
            DrillError::Hung => write!(f, "child made no progress before timeout"),
            DrillError::Recovery(e) => write!(f, "post-restart recovery failed: {e}"),
            DrillError::AckedWriteLost {
                addr,
                op_index,
                lanes,
            } => write!(
                f,
                "acknowledged write lost: addr {addr} (op {op_index}) at {lanes} lanes"
            ),
            DrillError::AckedReadFailed { addr, err } => {
                write!(
                    f,
                    "post-recovery read of acknowledged addr {addr} failed: {err}"
                )
            }
            DrillError::FingerprintMismatch { got, want, lanes } => write!(
                f,
                "post-recovery fingerprint {got:#018x} at {lanes} lanes differs from {want:#018x}"
            ),
            DrillError::Serve { op_index, err } => {
                write!(f, "child serve loop failed at op {op_index}: {err}")
            }
            DrillError::Point {
                index,
                kill_after,
                dir,
                source,
            } => write!(
                f,
                "point {index} (kill after {kill_after} acks, artifacts in {}): {source}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for DrillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrillError::Io { source, .. } => Some(source),
            DrillError::Point { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Builds a [`DrillError::Io`] mapper that stamps `op` and `path` onto a
/// raw I/O error. There is deliberately no blanket `From<std::io::Error>`:
/// every call site must say what it was doing and to which file.
fn io_ctx<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> DrillError + 'a {
    move |source| DrillError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

impl From<NvmError> for DrillError {
    fn from(e: NvmError) -> Self {
        DrillError::Nvm(e)
    }
}

impl From<RecoveryError> for DrillError {
    fn from(e: RecoveryError) -> Self {
        DrillError::Recovery(e)
    }
}

/// FNV-1a over arbitrary bytes (same constants as the NVM crate's WAL
/// checksums; duplicated here because the drill is an external observer
/// of the image, not part of it).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Simple xorshift64* step — deterministic, dependency-free randomness
/// for scripts and kill points.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The deterministic drill workload: `len` operations over `lines` data
/// lines, roughly 70 % writes, fully determined by `seed`. Payloads come
/// from [`op_payload`], keyed by script position, so overwrites of the
/// same address are distinguishable.
pub fn drill_script(len: usize, lines: u64, seed: u64) -> Vec<ScriptOp> {
    let mut rng = seed | 1;
    (0..len)
        .map(|_| {
            let is_write = xorshift(&mut rng) % 10 < 7;
            let addr = xorshift(&mut rng) % lines.max(1);
            (is_write, addr)
        })
        .collect()
}

/// Append-only, fsync-per-record acknowledgement log the child maintains.
///
/// Each record is `[op_index u64 LE][addr u64 LE][fnv1a64 of the first
/// 16 bytes]`. `sync_data` after every append makes the log a durable
/// lower bound on what the device image must contain: a record is only
/// readable if the write it describes was already acknowledged (and the
/// acknowledgement barrier precedes the append in program order).
pub struct AckWriter {
    file: File,
}

impl AckWriter {
    /// Creates (truncating) the ack log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn create(path: &Path) -> std::io::Result<AckWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(AckWriter { file })
    }

    /// Appends and fsyncs one acknowledgement record.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn append(&mut self, op_index: u64, addr: u64) -> std::io::Result<()> {
        let mut rec = [0u8; ACK_RECORD_BYTES];
        rec[..8].copy_from_slice(&op_index.to_le_bytes());
        rec[8..16].copy_from_slice(&addr.to_le_bytes());
        let crc = fnv1a64(&rec[..16]);
        rec[16..].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }
}

/// Parses an ack log, dropping a torn tail record (short or failing its
/// checksum — both only possible for the final append in flight when the
/// child died).
///
/// # Errors
///
/// Propagates read failures; a missing file parses as an empty log (the
/// child may have been killed before creating it).
pub fn read_ack_log(path: &Path) -> std::io::Result<Vec<(u64, u64)>> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    let mut out = Vec::new();
    for rec in raw.chunks(ACK_RECORD_BYTES) {
        if rec.len() < ACK_RECORD_BYTES {
            break;
        }
        let crc = u64::from_le_bytes(rec[16..24].try_into().expect("sliced to 8 bytes"));
        if crc != fnv1a64(&rec[..16]) {
            break;
        }
        let idx = u64::from_le_bytes(rec[..8].try_into().expect("sliced to 8 bytes"));
        let addr = u64::from_le_bytes(rec[8..16].try_into().expect("sliced to 8 bytes"));
        out.push((idx, addr));
    }
    Ok(out)
}

/// Reopens a family's controller over `backend` and runs supervised
/// recovery: straight up the ladder normally, entering at rung 3 via
/// [`Supervisor::repair_then_recover`] when reopen surfaced a typed
/// corruption hint (e.g. an unparseable persisted quarantine table).
fn recover_reopened<C: Supervised>(
    ctrl: &mut C,
    hint: Option<&RecoveryError>,
    lanes: usize,
) -> Result<SupervisedRecovery, RecoveryError> {
    let sup = Supervisor::new().with_lanes(lanes);
    match hint {
        Some(err) => sup.repair_then_recover(ctrl, err),
        None => sup.recover(ctrl),
    }
}

/// A stable fingerprint of the persistent device state: every touched
/// block and every register mirror, hashed in address order. Two
/// recoveries that leave different fingerprints observably diverged.
pub fn device_fingerprint<C: MemoryController>(ctrl: &C) -> u64 {
    let backend = ctrl.domain().device().backend();
    let mut entries = backend.entries();
    entries.sort_by_key(|&(a, _)| a);
    let mut regs = backend.regs();
    regs.sort_by_key(|&(i, _)| i);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (addr, block) in &entries {
        mix(&addr.to_le_bytes());
        mix(block.as_bytes());
    }
    mix(b"|regs|");
    for (idx, block) in &regs {
        mix(&[*idx]);
        mix(block.as_bytes());
    }
    h
}

/// The serve loop: recover whatever state the image holds, then play the
/// script, appending an ack record after each acknowledged write.
fn serve<C: Supervised>(
    mut ctrl: C,
    hint: Option<RecoveryError>,
    ack: &Path,
    script: &[ScriptOp],
) -> Result<(), DrillError> {
    recover_reopened(&mut ctrl, hint.as_ref(), 1)?;
    let mut log = AckWriter::create(ack).map_err(io_ctx("create ack log", ack))?;
    for (i, &(is_write, addr)) in script.iter().enumerate() {
        if is_write {
            ctrl.write(DataAddr::new(addr), op_payload(i as u64, addr))
                .map_err(|err| DrillError::Serve {
                    op_index: i as u64,
                    err,
                })?;
            log.append(i as u64, addr)
                .map_err(io_ctx("append ack record to", ack))?;
        } else {
            ctrl.read(DataAddr::new(addr))
                .map_err(|err| DrillError::Serve {
                    op_index: i as u64,
                    err,
                })?;
        }
    }
    Ok(())
}

/// Child-process entry point. `args` is the tail of the command line
/// after the `--child` marker: `family image ack script_len lines seed`.
///
/// # Errors
///
/// Any [`DrillError`] from opening the image, recovering, or serving;
/// [`DrillError::BadChildArg`] for a malformed command line.
pub fn child_main(args: &[String]) -> Result<(), DrillError> {
    let bad = |what: &'static str| DrillError::BadChildArg { what };
    let family = args
        .first()
        .and_then(|s| DrillFamily::parse(s))
        .ok_or_else(|| bad("family"))?;
    let image = PathBuf::from(args.get(1).ok_or_else(|| bad("image path"))?);
    let ack = PathBuf::from(args.get(2).ok_or_else(|| bad("ack path"))?);
    let script_len: usize = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("script len"))?;
    let lines: u64 = args
        .get(4)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("lines"))?;
    let seed: u64 = args
        .get(5)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("seed"))?;
    let script = drill_script(script_len, lines, seed);
    let config = AnubisConfig::small_test();
    let backend = FileBackend::open(&image)?;
    match family {
        DrillFamily::BonsaiAgitPlus => {
            let (ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &config, backend);
            serve(ctrl, hint, &ack, &script)
        }
        DrillFamily::SgxAsit => {
            let (ctrl, hint) = SgxController::reopen(SgxScheme::Asit, &config, backend);
            serve(ctrl, hint, &ack, &script)
        }
    }
}

/// What one kill point established.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Ack-count threshold at which the parent pulled the trigger.
    pub kill_after_acks: u64,
    /// Acknowledged writes found in the (possibly torn) ack log.
    pub acked: u64,
    /// Whether the child finished the whole script before the kill
    /// threshold was reached (the kill then exercised a clean image).
    pub completed: bool,
    /// Distinct acknowledged addresses verified post-recovery.
    pub verified_addrs: u64,
    /// Whether the single durable-but-unlogged in-flight write was
    /// observed (kill landed between barrier and ack append).
    pub inflight_observed: bool,
    /// The supervised outcome at the first lane count, rendered.
    pub outcome: String,
    /// The (lane-invariant) post-recovery device fingerprint.
    pub fingerprint: u64,
}

/// Verifies one reopened controller against the ack log.
fn verify_reopened<C: Supervised>(
    mut ctrl: C,
    hint: Option<RecoveryError>,
    lanes: usize,
    expected: &BTreeMap<u64, (u64, Block)>,
    inflight: Option<(u64, u64)>,
) -> Result<(u64, String, bool), DrillError> {
    let sup = recover_reopened(&mut ctrl, hint.as_ref(), lanes)?;
    let fingerprint = device_fingerprint(&ctrl);
    let mut inflight_observed = false;
    for (&addr, &(op_index, want)) in expected {
        let got = ctrl
            .read(DataAddr::new(addr))
            .map_err(|err| DrillError::AckedReadFailed { addr, err })?;
        if got == want {
            continue;
        }
        // The one tolerated divergence: the first scripted write past the
        // highest ack may be durable without a log record.
        if let Some((j, aj)) = inflight {
            if aj == addr && got == op_payload(j, aj) {
                inflight_observed = true;
                continue;
            }
        }
        return Err(DrillError::AckedWriteLost {
            addr,
            op_index,
            lanes,
        });
    }
    Ok((fingerprint, sup.outcome.to_string(), inflight_observed))
}

/// Runs recovery + verification over a copy of the image for one family
/// at one lane count.
fn verify_image(
    family: DrillFamily,
    image: &Path,
    lanes: usize,
    expected: &BTreeMap<u64, (u64, Block)>,
    inflight: Option<(u64, u64)>,
) -> Result<(u64, String, bool), DrillError> {
    let config = AnubisConfig::small_test();
    let backend = FileBackend::open(image)?;
    match family {
        DrillFamily::BonsaiAgitPlus => {
            let (ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &config, backend);
            verify_reopened(ctrl, hint, lanes, expected, inflight)
        }
        DrillFamily::SgxAsit => {
            let (ctrl, hint) = SgxController::reopen(SgxScheme::Asit, &config, backend);
            verify_reopened(ctrl, hint, lanes, expected, inflight)
        }
    }
}

/// The last acknowledged `(op index, payload)` per address.
pub type AckExpectations = BTreeMap<u64, (u64, Block)>;

/// Derives the per-address expectation and the in-flight tolerance from
/// a parsed ack log and the script that produced it.
///
/// Returns `(expected, inflight)`: the last acknowledged `(op index,
/// payload)` per address, and the first scripted-but-unacked write (if
/// any) whose durability the kill left ambiguous.
pub fn ack_expectations(
    acked: &[(u64, u64)],
    script: &[ScriptOp],
) -> (AckExpectations, Option<(u64, u64)>) {
    let mut expected = BTreeMap::new();
    for &(idx, addr) in acked {
        expected.insert(addr, (idx, op_payload(idx, addr)));
    }
    let next = acked.last().map_or(0, |&(idx, _)| idx as usize + 1);
    let inflight = script
        .iter()
        .enumerate()
        .skip(next)
        .find(|(_, op)| op.0)
        .map(|(j, op)| (j as u64, op.1));
    (expected, inflight)
}

/// Verifies every configured lane count over copies of a dead image and
/// demands fingerprint agreement. Shared by the process drill and the
/// in-process restart tests.
///
/// # Errors
///
/// Any verification failure ([`DrillError::AckedWriteLost`],
/// [`DrillError::FingerprintMismatch`], recovery or read errors).
pub fn verify_dead_image(
    family: DrillFamily,
    image: &Path,
    lanes: &[usize],
    acked: &[(u64, u64)],
    script: &[ScriptOp],
) -> Result<(u64, String, bool), DrillError> {
    let (expected, inflight) = ack_expectations(acked, script);
    let mut reference: Option<(u64, String, bool)> = None;
    for &l in lanes {
        let copy = image.with_extension(format!("lane{l}.wal"));
        fs::copy(image, &copy).map_err(io_ctx("copy image to", &copy))?;
        let result = verify_image(family, &copy, l, &expected, inflight);
        let _ = fs::remove_file(&copy);
        let (fp, outcome, observed) = result?;
        match reference {
            None => reference = Some((fp, outcome, observed)),
            Some((want, _, _)) if fp != want => {
                return Err(DrillError::FingerprintMismatch {
                    got: fp,
                    want,
                    lanes: l,
                });
            }
            Some(r) => reference = Some(r),
        }
    }
    Ok(reference.unwrap_or((0, String::from("no lanes configured"), false)))
}

/// Runs one kill point: spawn the child over a fresh image, SIGKILL it
/// once `kill_after_acks` acknowledgements are durable, then verify the
/// dead image at every configured lane count.
///
/// `exe` is the drill binary itself; the child is spawned as
/// `exe --child <family> <image> <ack> <script_len> <lines> <seed>`.
///
/// # Errors
///
/// Any [`DrillError`]; every contract violation is typed, never a panic.
pub fn run_point(
    exe: &Path,
    family: DrillFamily,
    spec: &DrillSpec,
    dir: &Path,
    kill_after_acks: u64,
) -> Result<PointOutcome, DrillError> {
    fs::create_dir_all(dir).map_err(io_ctx("create scratch dir", dir))?;
    let image = dir.join("image.wal");
    let ack = dir.join("acks.bin");
    for stale in [&image, &ack] {
        let _ = fs::remove_file(stale);
    }
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(family.name())
        .arg(&image)
        .arg(&ack)
        .arg(spec.script_len.to_string())
        .arg(spec.lines.to_string())
        .arg(spec.seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(io_ctx("spawn child", exe))?;

    let started = Instant::now();
    let threshold = kill_after_acks.saturating_mul(ACK_RECORD_BYTES as u64);
    let mut completed = false;
    loop {
        if let Some(status) = child.try_wait().map_err(io_ctx("poll child", exe))? {
            if !status.success() {
                return Err(DrillError::Child {
                    code: status.code(),
                });
            }
            completed = true;
            break;
        }
        let acked_bytes = fs::metadata(&ack).map(|m| m.len()).unwrap_or(0);
        if acked_bytes >= threshold {
            child.kill().map_err(io_ctx("kill child", exe))?;
            child.wait().map_err(io_ctx("wait for child", exe))?;
            break;
        }
        if started.elapsed() > CHILD_TIMEOUT {
            child.kill().map_err(io_ctx("kill child", exe))?;
            child.wait().map_err(io_ctx("wait for child", exe))?;
            return Err(DrillError::Hung);
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    let acked = read_ack_log(&ack).map_err(io_ctx("read ack log", &ack))?;
    let script = drill_script(spec.script_len, spec.lines, spec.seed);
    let (fingerprint, outcome, inflight_observed) =
        verify_dead_image(family, &image, &spec.lanes, &acked, &script)?;
    let verified_addrs = acked
        .iter()
        .map(|&(_, a)| a)
        .collect::<std::collections::BTreeSet<_>>();
    Ok(PointOutcome {
        kill_after_acks,
        acked: acked.len() as u64,
        completed,
        verified_addrs: verified_addrs.len() as u64,
        inflight_observed,
        outcome,
        fingerprint,
    })
}

/// Aggregate results of one family's campaign.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// The drilled family.
    pub family: DrillFamily,
    /// Kill points executed.
    pub points: u64,
    /// Points where the child outran the kill threshold and exited
    /// cleanly (the restart then exercised a quiescent image).
    pub completed_runs: u64,
    /// Total acknowledged writes verified across all points and lanes.
    pub acked_total: u64,
    /// Points where the durable-but-unlogged in-flight write surfaced.
    pub inflight_observed: u64,
    /// Smallest and largest kill thresholds drawn.
    pub kill_range: (u64, u64),
    /// Per-point outcomes (in execution order).
    pub outcomes: Vec<PointOutcome>,
}

/// Runs a family's full campaign: `points` randomized kill thresholds
/// (or, when `sweep` is set, one point per possible ack count — the
/// exhaustive nightly mode).
///
/// # Errors
///
/// Stops at the first [`DrillError`]; a completed campaign means zero
/// acknowledged-write loss at every point and lane count.
pub fn run_campaign(
    exe: &Path,
    family: DrillFamily,
    spec: &DrillSpec,
    dir: &Path,
    points: u64,
    sweep: bool,
) -> Result<FamilyReport, DrillError> {
    let script = drill_script(spec.script_len, spec.lines, spec.seed);
    let max_acks = script.iter().filter(|op| op.0).count() as u64;
    let planned: Vec<u64> = if sweep {
        (1..=max_acks).collect()
    } else {
        let mut rng = (spec.seed ^ fnv1a64(family.name().as_bytes())) | 1;
        (0..points)
            .map(|_| 1 + xorshift(&mut rng) % max_acks)
            .collect()
    };
    let mut report = FamilyReport {
        family,
        points: 0,
        completed_runs: 0,
        acked_total: 0,
        inflight_observed: 0,
        kill_range: (u64::MAX, 0),
        outcomes: Vec::with_capacity(planned.len()),
    };
    for (i, &kill_after) in planned.iter().enumerate() {
        let pdir = dir.join(format!("{}-p{i}", family.name()));
        let out = match run_point(exe, family, spec, &pdir, kill_after) {
            Ok(out) => {
                let _ = fs::remove_dir_all(&pdir);
                out
            }
            // Keep the point's image and ack log for post-mortem.
            Err(source) => {
                return Err(DrillError::Point {
                    index: i as u64,
                    kill_after,
                    dir: pdir,
                    source: Box::new(source),
                })
            }
        };
        report.points += 1;
        report.completed_runs += u64::from(out.completed);
        report.acked_total += out.acked;
        report.inflight_observed += u64::from(out.inflight_observed);
        report.kill_range.0 = report.kill_range.0.min(kill_after);
        report.kill_range.1 = report.kill_range.1.max(kill_after);
        report.outcomes.push(out);
    }
    if report.points == 0 {
        report.kill_range = (0, 0);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCH_drill.json` is reproducible from its seed only
    /// while the script and the kill-point draw stay what they were.
    #[test]
    fn committed_seed_produces_the_recorded_script_and_kill_points() {
        let spec = DrillSpec::default();
        let script = drill_script(1_200, 300, 0xA17B_05E7);
        assert_eq!(
            script[..6],
            [
                (false, 284),
                (true, 257),
                (true, 64),
                (false, 77),
                (true, 210),
                (true, 139)
            ]
        );
        let max_acks = script.iter().filter(|op| op.0).count() as u64;
        assert_eq!(max_acks, 840);
        let mut bytes = Vec::new();
        for &(is_write, addr) in &script {
            bytes.push(u8::from(is_write));
            bytes.extend_from_slice(&addr.to_le_bytes());
        }
        assert_eq!(fnv1a64(&bytes), 0x738d_ad14_aca6_1818);

        let planned = |family: DrillFamily| -> Vec<u64> {
            let mut rng = (spec.seed ^ fnv1a64(family.name().as_bytes())) | 1;
            (0..13).map(|_| 1 + xorshift(&mut rng) % max_acks).collect()
        };
        assert_eq!(
            planned(DrillFamily::BonsaiAgitPlus),
            [605, 548, 674, 425, 260, 801, 403, 360, 703, 518, 160, 761, 523]
        );
        assert_eq!(
            planned(DrillFamily::SgxAsit),
            [13, 266, 175, 435, 820, 33, 3, 740, 760, 157, 610, 391, 68]
        );
    }
}
