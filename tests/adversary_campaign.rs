//! `bench_campaign adversary`'s first base run, pinned in tier 1.
//!
//! The dead image of a base run is made in process: the script is served
//! against the anchored device and stopped at a seeded ack count, with an
//! earlier image captured on the way. Its durable artifacts are then
//! mutated (bit flips, truncations, WAL splices / reorders, rollback to
//! the captured image, cross-domain swaps, anchor attacks, a flipped bit
//! in a home slot and a home area rolled back to the capture's) and each
//! mutation is restarted and judged. Every WAL splice must be refused —
//! the one-epoch replay splice (`replay-splice-slack-1`) inside the
//! anchor's heal window included, since WAL frames carry a keyed, chained
//! tag the adversary cannot compute (DESIGN.md §14.1;
//! `tests/replay_splice.rs` sweeps every such splice). `run_campaign`
//! fails on any silent stale serve, any panic in the recovery path, and
//! any mutation class that missed its required verdict — e.g. a rollback
//! not refused as rollback (DESIGN.md §14). Each restart is
//! `supervisor::resume`: refusals come from reopen and rung 1, and a
//! surviving image is audited line by line.
//!
//! Nothing in it moves with timing, so two runs give the same verdicts,
//! and the 27 of each family are pinned here. Re-taken when the image
//! gained a home area (WAL format 5): two mutations aimed at it joined
//! the plan (`home-bit-flip`, `home-rollback`: never a silent stale
//! serve; the home area's digest in the log refuses both unless the
//! flipped slot is one the log redoes), and the script grew from 900 ops
//! to 4 500, the capture margin from 35 acks to 1 200 and the smallest
//! kill from 45 to 1 300, so that every base image has checkpointed and
//! its capture lies a checkpoint behind it. The first 25 verdicts are the
//! ones pinned before. Re-taken again when the home digest moved from the
//! open to the recovery ladder, checked before any rung past `fast`: an
//! open reads no home slot, so a home area that does not match its log
//! is refused by the ladder when `fast` fails over it (bonsai's
//! `home-bit-flip` and `home-rollback`, whose reasons moved), and
//! otherwise found by the audit's first read of a rolled-back line,
//! typed (sgx's `home-rollback`: degraded, no stale line — a served
//! tenant takes such a read to `recover`, which refuses; pinned in
//! `tests/anchor_refusal.rs`).

use std::fs;
use std::path::Path;

use anubis::Family;
use anubis_sim::adversary::{run_campaign, MutationOutcome};
use anubis_sim::campaign::{fnv1a64, ScriptSpec, Verdict, FNV1A64_EMPTY};

/// One point as the pin sees it: label, verdict, reason (the refusal's,
/// or the degraded outcome), damage. The scratch directory a reason
/// names is cut out.
fn point(o: &MutationOutcome, dir: &Path) -> (String, &'static str, String, u64) {
    let (reason, damage) = match &o.verdict {
        Verdict::FullRecovery => (String::new(), 0),
        Verdict::Degraded { damage, outcome } => (outcome.clone(), *damage),
        Verdict::Refused { reason, .. } => (reason.clone(), 0),
    };
    let reason = reason.replace(&*dir.to_string_lossy(), "<dir>");
    (o.label.clone(), o.verdict.name(), reason, damage)
}

/// Runs base run 0 of `family` twice and demands the same outcome at
/// every point, the verdicts `want` and the digest `fnv` over them.
fn base_run_is_replayable(family: Family, want: [&str; 27], fnv: u64) {
    let dir = std::env::temp_dir().join(format!(
        "anubis-adversary-pin-{}-{}",
        std::process::id(),
        family.name()
    ));
    let run = || {
        let report = run_campaign(family, &ScriptSpec::adversary(), &dir, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        (report.outcomes.iter())
            .map(|o| point(o, &dir))
            .collect::<Vec<_>>()
    };
    let (first, second) = (run(), run());
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(first, second, "{}: two runs of one seed", family.name());
    let verdicts: Vec<&str> = first.iter().map(|p| p.1).collect();
    assert_eq!(verdicts, want, "{}", family.name());
    let mut h = FNV1A64_EMPTY;
    for (label, verdict, reason, damage) in &first {
        for field in [label.as_bytes(), verdict.as_bytes(), reason.as_bytes()] {
            h = fnv1a64(fnv1a64(h, field), b"|");
        }
        h = fnv1a64(h, &damage.to_le_bytes());
    }
    assert_eq!(h, fnv, "{}: digest {h:#018x}", family.name());
}

const R: &str = "refused";
const F: &str = "full-recovery";
const D: &str = "degraded";

#[test]
fn the_first_base_run_is_replayable_bonsai_agit_plus() {
    base_run_is_replayable(
        Family::BonsaiAgitPlus,
        [
            F, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, F, R, R, F, R, R,
        ],
        0x92fc_ca30_eecf_b562,
    );
}

#[test]
fn the_first_base_run_is_replayable_sgx_asit() {
    base_run_is_replayable(
        Family::SgxAsit,
        [
            F, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, F, R, R, F, F, D,
        ],
        0x496b_6ac7_dae5_b6c9,
    );
}
