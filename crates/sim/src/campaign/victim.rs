//! The victim process, and the script child that is the drill's.

use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

use anubis::{AnubisConfig, Family};
use anubis_nvm::{anchor_path_for, AnchorPolicy, FreshnessAnchor};

use super::{drill_script, drive, io_ctx, restart, HarnessError, ScriptOp, Stop};

/// Pause between two looks at a live victim: far below the time between
/// two sealed epochs, so a kill lands close to its threshold.
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

/// The script child's command line, as a value: `--child <family>
/// <image> <script_len> <lines> <seed>`. The harness fills it in and
/// [`ScriptChild::run_killed`] spawns it; the re-executed binary hands the
/// same words to [`child_main`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptChild {
    /// Controller family to serve with.
    pub family: Family,
    /// Device image path (created, with its anchor, if absent).
    pub image: PathBuf,
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
            .arg(&self.image)
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
            script_len: arg(args, 2, "script len")?,
            lines: arg(args, 3, "lines")?,
            seed: arg(args, 4, "seed")?,
        })
    }

    /// The script the child serves.
    pub fn script(&self) -> Vec<ScriptOp> {
        drill_script(self.script_len, self.lines, self.seed)
    }

    /// Spawns `exe --child …` and SIGKILLs it once its anchor reads a
    /// sealed epoch of at least `kill_at`. Returns whether the child
    /// instead finished the whole script first (a clean exit — a pass or
    /// a failure, as the caller sees it).
    ///
    /// Stale images are the caller's to clear first.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Child`] when the child exits with a failure,
    /// [`HarnessError::Hung`] after 300 s without reaching the
    /// threshold, [`HarnessError::Io`] from process control.
    pub fn run_killed(&self, exe: &Path, kill_at: u64) -> Result<bool, HarnessError> {
        let mut victim = Victim::spawn(&mut self.command(exe))?;
        let anchor = anchor_path_for(&self.image);
        let key = AnubisConfig::small_test().key.0;
        // While the child bootstraps the anchor a read finds it missing
        // or torn: not yet.
        let fate = victim.kill_when(SCRIPT_CHILD_TIMEOUT, || {
            let sealed = FreshnessAnchor::probe(&anchor, key);
            Ok(matches!(sealed, Ok(Some(epoch)) if epoch >= kill_at))
        })?;
        match fate {
            Fate::Killed => Ok(false),
            Fate::Exited(status) if status.success() => Ok(true),
            Fate::Exited(status) => Err(HarnessError::Child {
                code: status.code(),
            }),
            Fate::Hung => Err(HarnessError::Hung),
        }
    }
}

/// Entry point of the re-executed binary's `--child` mode; `args` are
/// the words after the marker (see [`ScriptChild`]). Opens the image under
/// its anchor as the server does, recovers whatever state it holds, then
/// plays the script — until it finishes or, as intended, is killed.
///
/// # Errors
///
/// [`HarnessError::BadChildArg`] for a malformed command line, and any
/// failure to open, recover or serve ([`HarnessError::Serve`] carries
/// the script position).
pub fn child_main(args: &[String]) -> Result<(), HarnessError> {
    let job = ScriptChild::parse(args)?;
    let config = AnubisConfig::small_test();
    let (mut ctrl, _) = restart(job.family, &config, &job.image, AnchorPolicy::Strict)?;
    let Ok(stop) = drive(ctrl.as_mut(), &job.script(), |_, _, _| {
        Ok::<(), Infallible>(())
    });
    match stop {
        Stop::Completed => Ok(()),
        Stop::PowerLost { op_index, err, .. } | Stop::Failed { op_index, err } => {
            Err(HarnessError::Serve { op_index, err })
        }
    }
}
