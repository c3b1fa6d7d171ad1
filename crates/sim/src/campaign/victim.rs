//! The victim process, the script child, and the ack log between them.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

use anubis::{supervisor, AnubisConfig, Family, Reopened, SupervisedRecovery};
use anubis_nvm::{AnchorPolicy, FileBackend};

use super::{
    drill_script, drive, fnv1a64, io_ctx, Done, HarnessError, ScriptOp, Stop, FNV1A64_EMPTY,
};

/// Pause between two looks at a live victim: far below the time between
/// two fsynced acknowledgements, so a kill lands close to its threshold.
const POLL: Duration = Duration::from_micros(200);

/// How long a script child may run before it is declared hung.
const SCRIPT_CHILD_TIMEOUT: Duration = Duration::from_secs(300);

/// A spawned child process the harness means to kill. However the
/// harness leaves — a verdict, an error through `?`, a panic — the child
/// is SIGKILLed **and waited for** when this drops: no zombie, and no
/// stray process still writing into a scratch directory the harness has
/// just kept for post-mortem.
#[derive(Debug)]
pub struct Victim {
    child: Child,
    exe: PathBuf,
}

/// How [`Victim::kill_when`] left the child. The kernel reports; what an
/// early exit or a timeout *means* is the caller's call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// SIGKILLed because the caller's predicate said so.
    Killed,
    /// It exited on its own first.
    Exited(ExitStatus),
    /// SIGKILLed because the timeout passed before the predicate held.
    Hung,
}

impl Victim {
    /// Spawns a prepared command (its stdin is closed; stdout and stderr
    /// are the caller's to set).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] naming the executable.
    pub fn spawn(cmd: &mut Command) -> Result<Victim, HarnessError> {
        let exe = PathBuf::from(cmd.get_program());
        let child = cmd
            .stdin(Stdio::null())
            .spawn()
            .map_err(io_ctx("spawn child", &exe))?;
        Ok(Victim { child, exe })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls until `due()` holds and SIGKILLs the child there — or
    /// reports that it exited first, or kills it anyway once `timeout`
    /// has passed. The child is dead and reaped when this returns `Ok`.
    ///
    /// # Errors
    ///
    /// Whatever `due` returns, or [`HarnessError::Io`] from process
    /// control; the child is then reaped when the victim drops.
    pub fn kill_when(
        &mut self,
        timeout: Duration,
        mut due: impl FnMut() -> Result<bool, HarnessError>,
    ) -> Result<Fate, HarnessError> {
        let started = Instant::now();
        loop {
            let polled = self.child.try_wait();
            if let Some(status) = polled.map_err(io_ctx("poll child", &self.exe))? {
                return Ok(Fate::Exited(status));
            }
            let fate = if due()? {
                Fate::Killed
            } else if started.elapsed() > timeout {
                Fate::Hung
            } else {
                std::thread::sleep(POLL);
                continue;
            };
            self.child.kill().map_err(io_ctx("kill child", &self.exe))?;
            self.child
                .wait()
                .map_err(io_ctx("wait for child", &self.exe))?;
            return Ok(fate);
        }
    }
}

impl Drop for Victim {
    fn drop(&mut self) {
        // Both are no-ops on a child that was already reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Bytes per ack record: op index, address, FNV-1a checksum of the two.
const ACK_RECORD_BYTES: usize = 24;

/// Append-only, fsync-per-record acknowledgement log the script child
/// maintains.
///
/// Each record is `[op_index u64 LE][addr u64 LE][fnv1a64 of the first
/// 16 bytes]`. `sync_data` after every append makes the log a durable
/// lower bound on what the device image must contain: a record is only
/// readable if the write it describes was already acknowledged (and the
/// acknowledgement barrier precedes the append in program order).
pub(super) struct AckWriter {
    file: File,
}

impl AckWriter {
    /// Creates (truncating) the ack log at `path`.
    pub(super) fn create(path: &Path) -> std::io::Result<AckWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(AckWriter { file })
    }

    /// Appends and fsyncs one acknowledgement record.
    pub(super) fn append(&mut self, op_index: u64, addr: u64) -> std::io::Result<()> {
        let mut rec = [0u8; ACK_RECORD_BYTES];
        rec[..8].copy_from_slice(&op_index.to_le_bytes());
        rec[8..16].copy_from_slice(&addr.to_le_bytes());
        let crc = fnv1a64(FNV1A64_EMPTY, &rec[..16]);
        rec[16..].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }
}

/// Parses an ack log into `(op index, addr)` pairs, dropping a torn tail
/// record (short or failing its checksum — both only possible for the
/// final append in flight when the child died). A missing file parses as
/// an empty log: the child may have been killed before creating it.
pub(super) fn read_ack_log(path: &Path) -> std::io::Result<Vec<(u64, u64)>> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    let word = |rec: &[u8], at: usize| {
        u64::from_le_bytes(rec[at..at + 8].try_into().expect("sliced to 8 bytes"))
    };
    Ok(raw
        .chunks_exact(ACK_RECORD_BYTES)
        .take_while(|rec| word(rec, 16) == fnv1a64(FNV1A64_EMPTY, &rec[..16]))
        .map(|rec| (word(rec, 0), word(rec, 8)))
        .collect())
}

/// Opens `image` — under its freshness anchor when a policy is given —
/// reopens `family`'s controller over it and runs supervised recovery:
/// what a restarted machine does, whoever restarts it. That is
/// [`supervisor::resume`]: rung 1, and the rest of the ladder with its
/// scrub only when reopen raised a hint or rung 1 failed — so a
/// campaign's audit is the first reader of every line it checks, and a
/// line damaged at rest must fail that read typed.
///
/// # Errors
///
/// [`HarnessError::Nvm`] when the image does not open,
/// [`HarnessError::Recovery`] when the supervisor refuses or fails.
pub fn restart(
    family: Family,
    config: &AnubisConfig,
    image: &Path,
    anchor: Option<AnchorPolicy>,
) -> Result<(Reopened<FileBackend>, SupervisedRecovery), HarnessError> {
    let backend = match anchor {
        Some(policy) => FileBackend::open_with_anchor(image, config.key.0, policy)?,
        None => FileBackend::open(image)?,
    };
    let (mut ctrl, hint) = family.reopen(config, backend);
    let recovery = supervisor::resume(ctrl.as_mut(), hint.as_ref())?;
    Ok((ctrl, recovery))
}

/// The script child's command line, as a value: `--child <family>
/// <image> <ack> <script_len> <lines> <seed>`. The harness fills it in
/// and [`ScriptChild::run_killed`] spawns it; the re-executed binary
/// hands the same words to [`child_main`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptChild {
    /// Controller family to serve with.
    pub family: Family,
    /// Device image path (created if absent).
    pub image: PathBuf,
    /// Ack log path (truncated).
    pub ack: PathBuf,
    /// Script length in operations.
    pub script_len: usize,
    /// Data-line address range of the script.
    pub lines: u64,
    /// Script seed.
    pub seed: u64,
}

fn arg<T: FromStr>(args: &[String], at: usize, what: &'static str) -> Result<T, HarnessError> {
    args.get(at)
        .and_then(|s| s.parse().ok())
        .ok_or(HarnessError::BadChildArg { what })
}

impl ScriptChild {
    pub(super) fn command(&self, exe: &Path) -> Command {
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .arg(self.family.name())
            .args([&self.image, &self.ack])
            .args([self.script_len.to_string(), self.lines.to_string()])
            .arg(self.seed.to_string())
            .stdout(Stdio::null());
        cmd
    }

    /// Parses the words after `--child`.
    pub(super) fn parse(args: &[String]) -> Result<ScriptChild, HarnessError> {
        let family = args.first().and_then(|s| Family::parse(s));
        Ok(ScriptChild {
            family: family.ok_or(HarnessError::BadChildArg { what: "family" })?,
            image: arg(args, 1, "image path")?,
            ack: arg(args, 2, "ack path")?,
            script_len: arg(args, 3, "script len")?,
            lines: arg(args, 4, "lines")?,
            seed: arg(args, 5, "seed")?,
        })
    }

    /// The script the child serves.
    pub fn script(&self) -> Vec<ScriptOp> {
        drill_script(self.script_len, self.lines, self.seed)
    }

    /// Spawns `exe --child …` and SIGKILLs it once `kill_after` ack
    /// records are durable. Returns whether the child instead finished
    /// the whole script first (a clean exit — a pass or a failure, as
    /// the caller sees it) and the acknowledgements its log holds.
    ///
    /// Stale artifacts are the caller's to clear first: it knows which
    /// files its campaign leaves beside the image.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Child`] when the child exits with a failure,
    /// [`HarnessError::Hung`] after 300 s without reaching the
    /// threshold, [`HarnessError::Io`] from process control or the log.
    pub fn run_killed(
        &self,
        exe: &Path,
        kill_after: u64,
    ) -> Result<(bool, Vec<(u64, u64)>), HarnessError> {
        let mut victim = Victim::spawn(&mut self.command(exe))?;
        let threshold = kill_after.saturating_mul(ACK_RECORD_BYTES as u64);
        let fate = victim.kill_when(SCRIPT_CHILD_TIMEOUT, || match fs::metadata(&self.ack) {
            Ok(meta) => Ok(meta.len() >= threshold),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(threshold == 0),
            Err(e) => Err(io_ctx("poll ack log", &self.ack)(e)),
        })?;
        let completed = match fate {
            Fate::Killed => false,
            Fate::Exited(status) if status.success() => true,
            Fate::Exited(status) => {
                return Err(HarnessError::Child {
                    code: status.code(),
                })
            }
            Fate::Hung => return Err(HarnessError::Hung),
        };
        let acked = read_ack_log(&self.ack).map_err(io_ctx("read ack log", &self.ack))?;
        Ok((completed, acked))
    }
}

/// Entry point of the re-executed binary's `--child` mode; `args` are
/// the words after the marker (see [`ScriptChild`]). Recovers whatever
/// state the image holds (unanchored), then plays the script, appending
/// an fsynced ack record after each acknowledged write — until it
/// finishes or, as intended, is killed.
///
/// # Errors
///
/// [`HarnessError::BadChildArg`] for a malformed command line, and any
/// failure to open, recover or serve ([`HarnessError::Serve`] carries
/// the script position).
pub fn child_main(args: &[String]) -> Result<(), HarnessError> {
    let job = ScriptChild::parse(args)?;
    let config = AnubisConfig::small_test();
    let (mut ctrl, _) = restart(job.family, &config, &job.image, None)?;
    let mut log = AckWriter::create(&job.ack).map_err(io_ctx("create ack log", &job.ack))?;
    let stop = drive(ctrl.as_mut(), &job.script(), |i, addr, what| match what {
        Done::Wrote(_) => log
            .append(i, addr)
            .map_err(io_ctx("append ack record to", &job.ack)),
        Done::Read(_) => Ok(()),
    })?;
    match stop {
        Stop::Completed => Ok(()),
        Stop::PowerLost { op_index, err, .. } | Stop::Failed { op_index, err } => {
            Err(HarnessError::Serve { op_index, err })
        }
    }
}
