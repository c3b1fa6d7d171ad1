//! Repeated restarts of one durable image, booted the way a server boots
//! a tenant: an anchored strict open, `Family::reopen` and
//! `supervisor::resume`. After a prefill of distinct lines the process is
//! killed, booted, killed again after k ∈ {0, 1, 50} more writes, and
//! booted once more. Every boot must come back `Recovered` without an
//! escalation — nothing in an honest kill is evidence of damage — and
//! every acknowledged line must read back exactly.
//!
//! A kill here is dropping the controller: every acknowledged operation
//! (and `resume` itself) ends in a synced barrier, so the image on disk at
//! that instant is what a SIGKILL would leave. k = 0 is the case a
//! one-kill-per-point campaign never samples: the second kill lands on an
//! image whose only writes since the first are the boot's own recovery
//! writes.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use anubis::{supervisor, AnubisConfig, DataAddr, Family, RecoveryOutcome, Reopened};
use anubis_nvm::{AnchorPolicy, Block, FileBackend};
use anubis_sim::fault::op_payload;

/// Distinct lines the prefill writes, one `write` each.
const LINES: u64 = 2_000;

/// Writes between the two boots.
const BETWEEN: [u64; 3] = [0, 1, 50];

fn config() -> AnubisConfig {
    AnubisConfig::small_test()
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("anubis-restart-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The line the prefill's `i`-th write targets: spread over many counter
/// blocks, so the boot's recovery has a full metadata cache to restore.
fn line(i: u64) -> u64 {
    i * 5
}

/// Boots `image` as a server boots a tenant and demands a clean boot.
fn boot(family: Family, image: &Path, label: &str) -> Reopened<FileBackend> {
    let backend = FileBackend::open_with_anchor(image, config().key.0, AnchorPolicy::Strict)
        .unwrap_or_else(|e| panic!("{} {label}: open: {e}", family.name()));
    let (mut ctrl, hint) = family.reopen(&config(), backend);
    let sup = supervisor::resume(ctrl.as_mut(), hint.as_ref())
        .unwrap_or_else(|e| panic!("{} {label}: boot: {e}", family.name()));
    assert_eq!(
        (sup.outcome, sup.escalations),
        (RecoveryOutcome::Recovered, 0),
        "{} {label}: an honest kill must boot clean (quarantined {}, lost {})",
        family.name(),
        sup.quarantined_lines,
        sup.lost_lines
    );
    ctrl
}

/// Writes `data` to `addr` and records it as acknowledged.
fn write(
    ctrl: &mut Reopened<FileBackend>,
    model: &mut BTreeMap<u64, Block>,
    addr: u64,
    data: Block,
) {
    ctrl.write(DataAddr::new(addr), data)
        .unwrap_or_else(|e| panic!("write {addr}: {e}"));
    model.insert(addr, data);
}

fn kill_boot_kill_boot(family: Family) {
    let dir = scratch(family.name());
    let prefilled = dir.join("prefilled.wal");
    let mut acked = BTreeMap::new();
    let mut ctrl = boot(family, &prefilled, "first boot");
    for i in 0..LINES {
        write(&mut ctrl, &mut acked, line(i), op_payload(i, line(i)));
    }
    drop(ctrl);

    for k in BETWEEN {
        let image = dir.join(format!("k{k}.wal"));
        anubis_nvm::copy_image(&prefilled, &image).expect("copy image");
        let mut model = acked.clone();
        let mut ctrl = boot(family, &image, &format!("k={k} boot 1"));
        for j in 0..k {
            let addr = line(j * 37 % LINES);
            write(&mut ctrl, &mut model, addr, op_payload(LINES + j, addr));
        }
        drop(ctrl);
        let mut ctrl = boot(family, &image, &format!("k={k} boot 2"));
        let wrong: Vec<u64> = model
            .iter()
            .filter(|&(&addr, expect)| ctrl.read(DataAddr::new(addr)).ok() != Some(*expect))
            .map(|(&addr, _)| addr)
            .collect();
        assert!(
            wrong.is_empty(),
            "{} k={k}: {} acknowledged lines read back wrong, first {:?}",
            family.name(),
            wrong.len(),
            wrong.first()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_family_boots_clean_after_repeated_kills() {
    for family in Family::all() {
        kill_boot_kill_boot(family);
    }
}
