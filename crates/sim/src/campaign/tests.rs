//! Behaviour of the kernel on its own: the oracle's five outcomes, the
//! driver's stop reasons, the victim's fates, the script child's image.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, Family};
use anubis_nvm::{anchor_path_for, AnchorPolicy, Block, FaultPlan, Freshness, FreshnessAnchor};

use super::*;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anubis-kernel-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// What the audited system answers for one address.
type Answer = Result<Block, &'static str>;

/// Audits `model` against a system that answers from `answers`, with
/// `excused` the one address the caller vouches for.
fn audit(
    model: &Acked,
    answers: &[(u64, Answer)],
    excused: Option<u64>,
) -> Vec<Finding<&'static str>> {
    model
        .audit(
            &mut (),
            |(), addr| {
                let (_, answer) = answers.iter().find(|(a, _)| *a == addr).expect("answer");
                *answer
            },
            |(), addr, _| excused == Some(addr),
        )
        .collect()
}

#[test]
fn audit_classifies_every_acknowledged_address() {
    let (old, new, flying, other) = (
        Block::filled(1),
        Block::filled(2),
        Block::filled(3),
        Block::filled(9),
    );
    let mut model = Acked::default();
    model.ack(0, 10, old);
    model.ack(4, 10, new); // an overwrite: only the last payload is owed
    model.ack(1, 20, old);
    model.ack(2, 30, old);
    model.ack(3, 40, old);
    model.ack(5, 50, old);
    model.attempt(20, flying);
    assert_eq!((model.len(), model.inflight_addr()), (5, Some(20)));

    let table: [(u64, Answer, ReadBack<&'static str>); 5] = [
        (10, Ok(new), ReadBack::Matched),
        (20, Ok(flying), ReadBack::InFlight),
        (30, Ok(other), ReadBack::Wrong { got: other }),
        (40, Err("integrity"), ReadBack::Failed("integrity")),
        (50, Ok(other), ReadBack::Excused),
    ];
    let answers: Vec<(u64, Answer)> = table.iter().map(|(a, ans, _)| (*a, *ans)).collect();
    let findings = audit(&model, &answers, Some(50));
    assert_eq!(findings.len(), table.len());
    for (found, (addr, _, want)) in findings.iter().zip(&table) {
        assert_eq!((found.addr, &found.readback), (*addr, want));
    }
    assert_eq!(
        (findings[0].op_index, findings[0].want),
        (4, new),
        "a finding names the last acknowledged write"
    );
    let inflight = findings
        .iter()
        .filter(|f| f.readback == ReadBack::InFlight)
        .count();
    assert_eq!(inflight, 1);

    // The overwritten payload is as wrong as any other value, and the
    // in-flight payload is tolerated only on the address it targeted.
    let stale = audit(
        &model,
        &[
            (10, Ok(old)),
            (20, Ok(old)),
            (30, Ok(flying)),
            (40, Ok(old)),
            (50, Ok(old)),
        ],
        None,
    );
    assert_eq!(stale[0].readback, ReadBack::Wrong { got: old });
    assert_eq!(stale[2].readback, ReadBack::Wrong { got: flying });

    // The excuse hook is asked about the address it names and no other:
    // the same wrong value on 30 stays wrong while 50 is excused, and an
    // excuse for an address that reads right changes nothing.
    let excusing_a_good_one = audit(&model, &answers, Some(10));
    assert_eq!(excusing_a_good_one[0].readback, ReadBack::Matched);
    assert_eq!(
        excusing_a_good_one[4].readback,
        ReadBack::Wrong { got: other }
    );
}

#[test]
fn audit_of_an_empty_model_reads_nothing() {
    let mut model = Acked::default();
    assert!(model.is_empty());
    assert_eq!(audit(&model, &[], None), []);
    assert_eq!(model.judge(7, Block::zeroed()), None);

    // A write in flight to an address nothing was ever acknowledged at
    // owes nothing: the address is not audited at all.
    model.attempt(7, Block::filled(1));
    assert_eq!(audit(&model, &[], None), []);
    model.ack(0, 8, Block::filled(2));
    assert_eq!(
        model.inflight_addr(),
        None,
        "an ack settles the write in flight"
    );
}

#[test]
fn a_fresh_model_owes_zeros_on_every_line_until_an_ack() {
    let mut model = Acked::fresh(3);
    model.ack(7, 1, Block::filled(1));
    let (zero, one, stray) = (Block::zeroed(), Block::filled(1), Block::filled(9));
    let findings = audit(&model, &[(0, Ok(zero)), (1, Ok(one)), (2, Ok(stray))], None);
    let got: Vec<_> = findings.iter().map(|f| (f.addr, f.op_index)).collect();
    assert_eq!(
        got,
        [(0, u64::MAX), (1, 7), (2, u64::MAX)],
        "every line read"
    );
    assert_eq!(findings[0].readback, ReadBack::Matched);
    assert_eq!(findings[1].readback, ReadBack::Matched);
    // A write nobody acknowledged shows on a line that owes zeros.
    assert_eq!(findings[2].readback, ReadBack::Wrong { got: stray });
}

#[test]
fn audit_is_lazy() {
    let mut model = Acked::default();
    for addr in 0..4 {
        model.ack(addr, addr, Block::filled(1));
    }
    let mut reads = 0u32;
    let first_wrong = model
        .audit(
            &mut reads,
            |reads, _| {
                *reads += 1;
                Ok::<_, ()>(Block::filled(2))
            },
            |_, _, _| false,
        )
        .find(|f| matches!(f.readback, ReadBack::Wrong { .. }))
        .map(|f| f.addr);
    assert_eq!((first_wrong, reads), (Some(0), 1));
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

#[test]
fn drive_stops_at_the_first_power_loss_and_reports_the_attempted_write() {
    let script = drill_script(40, 64, 0xD21);
    let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &AnubisConfig::small_test());
    let mut dry = make();
    let mut completed = Vec::new();
    let stop = drive(&mut dry, &script, |i, addr, what| {
        completed.push((i, addr, what));
        Ok::<(), ()>(())
    });
    assert_eq!(stop, Ok(Stop::Completed));
    assert_eq!(completed.len(), script.len());
    for (&(i, addr, what), &(is_write, want_addr)) in completed.iter().zip(&script) {
        assert_eq!(addr, want_addr);
        assert_eq!(is_write, what == Done::Wrote(op_payload(i, addr)));
    }

    // Cut power half-way through the device writes of the same script.
    let mut ctrl = make();
    ctrl.domain_mut().arm_fault(FaultPlan::power_cut_after(
        dry.domain().persist_writes() / 2,
    ));
    let mut seen = 0u64;
    let stop = drive(&mut ctrl, &script, |i, _, _| {
        assert_eq!(i, seen, "ops are reported in order, each once");
        seen += 1;
        Ok::<(), ()>(())
    });
    let Ok(Stop::PowerLost {
        op_index,
        attempted,
        err,
    }) = stop
    else {
        panic!("expected a power loss, got {stop:?}");
    };
    assert!(err.is_power_loss());
    assert_eq!(op_index, seen, "nothing ran past the interrupted op");
    let (is_write, addr) = script[op_index as usize];
    assert_eq!(
        attempted,
        is_write.then_some((addr, op_payload(op_index, addr)))
    );

    // An error from the callback aborts the run as it is.
    let aborted = drive(
        &mut make(),
        &script,
        |i, _, _| if i == 3 { Err(i) } else { Ok(()) },
    );
    assert_eq!(aborted, Err(3));
}

// ---------------------------------------------------------------------
// Point loop
// ---------------------------------------------------------------------

/// Points run in order, each in a directory of its own, cleared first. A
/// point that passes leaves nothing; the first that fails keeps its
/// directory, and nothing runs after it.
#[test]
fn run_points_keeps_the_failing_points_artifacts_and_runs_nothing_after_it() {
    let dir = scratch("points");
    let stale = dir.join("p1").join("stale");
    fs::create_dir_all(dir.join("p1")).expect("pre-seed p1");
    fs::write(&stale, b"left by an earlier run").expect("stale file");
    let points = (0..3u64).map(|i| (format!("p{i}"), format!("point {i}"), i));
    let mut ran = Vec::new();
    let err = run_points(&dir, points, |i, pdir| {
        ran.push(i);
        let empty = fs::read_dir(pdir).expect("created").next().is_none();
        assert!(empty, "point {i} starts in an empty directory");
        let evidence = pdir.join("evidence");
        fs::write(&evidence, b"dead image").map_err(io_ctx("write", &evidence))?;
        if i != 1 {
            return Ok(i);
        }
        let breach = Breach::SilentStale {
            addr: 7,
            owed: 3,
            got: 0,
        };
        let at = "restart".to_string();
        Err(CampaignError::Breach { at, breach })
    })
    .expect_err("point 1 fails");

    assert_eq!(ran, [0, 1], "the third point never runs");
    assert!(!dir.join("p0").exists(), "a passing point leaves nothing");
    assert!(!stale.exists(), "a point's directory is cleared first");
    let kept = dir.join("p1");
    let evidence = fs::read(kept.join("evidence")).expect("the failing point's file");
    assert_eq!(evidence, b"dead image");
    assert!(!dir.join("p2").exists());
    let CampaignError::Point { point, dir: at, .. } = &err else {
        panic!("expected a failed point, got {err:?}");
    };
    assert_eq!((point.as_str(), at), ("point 1", &kept));
    let shown = err.to_string();
    for names in ["point 1", &kept.display().to_string(), "SILENT STALE SERVE"] {
        assert!(shown.contains(names), "{shown}");
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Victim and script child
// ---------------------------------------------------------------------

/// `sh -c <body>` with `$0` set to `arg`.
fn sh(body: &str, arg: &Path) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c").arg(body).arg(arg);
    cmd
}

/// The trivial victim: appends 24-byte records to `$0` for ever.
const APPEND_FOREVER: &str = "while :; do printf '%024d' 0 >> \"$0\"; done";

fn alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[test]
fn victim_is_killed_at_the_threshold() {
    let dir = scratch("killed");
    let log = dir.join("log.bin");
    let mut victim = Victim::spawn(&mut sh(APPEND_FOREVER, &log)).expect("spawn");
    let pid = victim.pid();
    let reached = || Ok(fs::metadata(&log).map(|m| m.len()).unwrap_or(0) >= 5 * 24);
    let fate = victim.kill_when(Duration::from_secs(60), reached);
    assert_eq!(fate.expect("kill"), Fate::Killed);
    assert!(!alive(pid), "killed and reaped");
    let len = fs::metadata(&log).expect("log").len();
    assert!(len >= 5 * 24);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        fs::metadata(&log).expect("log").len(),
        len,
        "nobody writes any more"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn victim_that_leaves_first_is_reported_with_its_status() {
    let dir = scratch("exited");
    let mut victim = Victim::spawn(&mut sh("exit 3", &dir)).expect("spawn");
    let fate = victim.kill_when(Duration::from_secs(60), || Ok(false));
    let Ok(Fate::Exited(status)) = fate else {
        panic!("expected an exit, got {fate:?}");
    };
    assert_eq!(status.code(), Some(3));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn victim_that_never_gets_there_is_killed_as_hung() {
    let dir = scratch("hung");
    let mut victim = Victim::spawn(&mut sh("sleep 60", &dir)).expect("spawn");
    let pid = victim.pid();
    let fate = victim.kill_when(Duration::from_millis(30), || Ok(false));
    assert_eq!(fate.expect("kill"), Fate::Hung);
    assert!(!alive(pid), "killed and reaped");
    let _ = fs::remove_dir_all(&dir);
}

/// A point that fails after its child was spawned — here the predicate
/// itself errors — must not leave the child behind, running or zombie,
/// writing into the scratch directory the harness keeps for post-mortem.
#[test]
fn victim_is_reaped_when_the_point_fails_after_spawn() {
    let dir = scratch("reaped");
    let log = dir.join("log.bin");
    let point = || -> Result<Fate, (u32, HarnessError)> {
        let mut victim = Victim::spawn(&mut sh(APPEND_FOREVER, &log)).expect("spawn");
        let pid = victim.pid();
        assert!(alive(pid));
        victim
            .kill_when(Duration::from_secs(60), || Err(HarnessError::Hung))
            .map_err(|e| (pid, e))
    };
    let (pid, err) = point().expect_err("the predicate failed the point");
    assert!(matches!(err, HarnessError::Hung));
    assert!(!alive(pid), "no process {pid} once the victim has dropped");
    assert!(dir.is_dir(), "the scratch dir is the harness's to keep");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn script_child_command_line_round_trips() {
    let child = ScriptChild {
        family: Family::SgxAsit,
        image: PathBuf::from("/tmp/some dir/image.wal"),
        script_len: 1_200,
        lines: 300,
        seed: 0xA17B_05E7,
    };
    let cmd = child.command(Path::new("/bin/campaign"));
    let words: Vec<String> = cmd
        .get_args()
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    assert_eq!(words[0], "--child");
    assert_eq!(words.len(), 6);
    assert_eq!(ScriptChild::parse(&words[1..]).expect("parse"), child);
    for cut in 0..5 {
        let err = ScriptChild::parse(&words[1..1 + cut]).expect_err("a word is missing");
        assert!(matches!(err, HarnessError::BadChildArg { .. }), "{err}");
    }
    let mut bad = words[1..].to_vec();
    bad[0] = "martian".into();
    assert!(ScriptChild::parse(&bad).is_err());
}

/// The child's own loop, in process: it serves the whole script over an
/// anchored image, seals every frame, and the image it leaves restarts
/// to full recovery against every write it served.
#[test]
fn script_child_serves_the_script_over_an_anchored_image() {
    let dir = scratch("child");
    let child = ScriptChild {
        family: Family::BonsaiAgitPlus,
        image: dir.join("image.wal"),
        script_len: 60,
        lines: 40,
        seed: 0xC41D,
    };
    let cmd = child.command(Path::new("unused"));
    let words: Vec<String> = cmd
        .get_args()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    child_main(&words).expect("child serves the script");

    let key = AnubisConfig::small_test().key.0;
    let sealed = FreshnessAnchor::probe(&anchor_path_for(&child.image), key);
    let mut model = Acked::fresh(child.lines);
    for (i, &(is_write, addr)) in (0..).zip(&child.script()) {
        if is_write {
            model.ack(i, addr, op_payload(i, addr));
        }
    }
    let mut opened = None;
    let verdict = judge(child.family, &child.image, AnchorPolicy::Strict, |fresh| {
        opened = Some(fresh);
        model
    });
    assert!(matches!(verdict, Ok(Verdict::FullRecovery)), "{verdict:?}");
    let Some(Freshness::Fresh { epoch }) = opened else {
        panic!("the anchored open reported {opened:?}");
    };
    assert_eq!(sealed, Ok(Some(epoch)), "every frame sealed");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Small things
// ---------------------------------------------------------------------

#[test]
fn one_generator_two_outputs() {
    let mut raw = XorShift64::new(0);
    let mut star = XorShift64::new(1);
    for _ in 0..4 {
        assert_eq!(
            raw.next_raw().wrapping_mul(0x2545_F491_4F6C_DD1D),
            star.next_star()
        );
    }
}
