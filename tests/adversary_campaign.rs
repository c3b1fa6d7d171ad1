//! `bench_campaign adversary`'s first kill point, pinned in tier 1.
//!
//! The dead images are the serve campaign's: a bonsai (AGIT-Plus) and an
//! sgx (ASIT) tenant of the server's own boot play one seeded schedule of
//! writes through `Tenant::begin` / `Tenant::finish`, so two writes share
//! a group commit, and are killed between two events where both have
//! answered enough writes to have checkpointed; the same play copies the
//! fleet aside a margin of acks earlier as the capture. The kill point is
//! first an ordinary serve point — a served restart of both tenants,
//! audited line by line — and then each tenant's dead image and anchor
//! are mutated (bit flips, truncations, WAL splices / reorders, rollback
//! to the capture, cross-domain swaps, anchor attacks, a flipped bit in a
//! home slot and a home area rolled back to the capture's), each on a
//! fresh copy, and each mutation is restarted and judged against that
//! tenant's exact model of what was durable or answered. Every WAL splice
//! must be refused — the one-epoch replay splice (`replay-splice-slack-1`)
//! inside the anchor's heal window included, since WAL frames carry a
//! keyed, chained tag the adversary cannot compute (DESIGN.md §14.1;
//! `tests/replay_splice.rs` sweeps every such splice). `run_campaign`
//! fails on any silent stale serve, any panic in the recovery path, and
//! any mutation class that missed its required verdict — e.g. a rollback
//! not refused as rollback (DESIGN.md §14). Each restart is
//! `supervisor::resume`: refusals come from reopen and rung 1, and a
//! surviving image is audited line by line.
//!
//! Nothing in it moves with timing, so two runs give the same verdicts,
//! and the 27 of each tenant are pinned here, with the two shapes that
//! make the served images worth mutating: a durable frame shared by two
//! writes, and a home area that holds slots. Re-taken when the adversary
//! stopped driving a script of its own, one write per frame, and took the
//! serve campaign's dead images instead: the kill and the mutation draws
//! moved, and bonsai's `home-bit-flip` now lands on a slot the log redoes
//! (full recovery). Every other verdict is the one pinned before; sgx's
//! `home-rollback` is still degraded with no stale line — a served tenant
//! takes such a read to `recover`, which refuses (pinned in
//! `tests/anchor_refusal.rs`).

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use anubis::Family;
use anubis_sim::adversary::{run_campaign, FamilyAdvReport, MutationOutcome};
use anubis_sim::campaign::{fnv1a64, Verdict, FNV1A64_EMPTY};
use anubis_sim::serve::ServeSpec;

/// One point as the pin sees it: label, verdict, reason (the refusal's,
/// or the degraded outcome), damage. The scratch directory a reason
/// names is cut out.
type Point = (String, &'static str, String, u64);

/// One run of the campaign: its reports, and every tenant's points.
type Run = (Vec<FamilyAdvReport>, Vec<Vec<Point>>);

fn point(o: &MutationOutcome, dir: &Path) -> Point {
    let (reason, damage) = match &o.verdict {
        Verdict::FullRecovery => (String::new(), 0),
        Verdict::Degraded { damage, outcome } => (outcome.clone(), *damage),
        Verdict::Refused { reason, .. } => (reason.clone(), 0),
    };
    let reason = reason.replace(&*dir.to_string_lossy(), "<dir>");
    (o.label.clone(), o.verdict.name(), reason, damage)
}

/// The first kill point, run twice (once for both tests of this file):
/// each run's reports, with every tenant's points as the pin sees them.
fn twice() -> &'static [Run; 2] {
    static RUNS: OnceLock<[Run; 2]> = OnceLock::new();
    RUNS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("anubis-adversary-pin-{}", std::process::id()));
        let run = || {
            let reports = run_campaign(&ServeSpec::adversary(), &dir, 1)
                .unwrap_or_else(|e| panic!("kill point 0: {e}"));
            let points = (reports.iter())
                .map(|r| r.outcomes.iter().map(|o| point(o, &dir)).collect())
                .collect();
            (reports, points)
        };
        let runs = [run(), run()];
        let _ = fs::remove_dir_all(&dir);
        runs
    })
}

/// Demands the same outcome of `family`'s tenant at every point of both
/// runs, the verdicts `want`, the digest `fnv` over them, a durable frame
/// shared by two writes and a home area that holds slots.
fn first_kill_point_is_replayable(family: Family, want: [&str; 27], fnv: u64) {
    let [(reports, first), (_, second)] = twice();
    let t = (reports.iter())
        .position(|r| r.family == family)
        .expect("a tenant of the family");
    let name = family.name();
    assert_eq!(first[t], second[t], "{name}: two runs of one seed");
    let verdicts: Vec<&str> = first[t].iter().map(|p| p.1).collect();
    assert_eq!(verdicts, want, "{name}");
    let mut h = FNV1A64_EMPTY;
    for (label, verdict, reason, damage) in &first[t] {
        for field in [label.as_bytes(), verdict.as_bytes(), reason.as_bytes()] {
            h = fnv1a64(fnv1a64(h, field), b"|");
        }
        h = fnv1a64(h, &damage.to_le_bytes());
    }
    assert_eq!(h, fnv, "{name}: digest {h:#018x}");
    let kill = reports[t].kills[0];
    println!("{name}: {kill:?} at the kill");
    assert!(kill.shared_frames > 0, "{name}: no frame holds two writes");
    assert!(kill.home_slots > 0, "{name}: the image never checkpointed");
}

const R: &str = "refused";
const F: &str = "full-recovery";
const D: &str = "degraded";

#[test]
fn the_first_base_run_is_replayable_bonsai_agit_plus() {
    first_kill_point_is_replayable(
        Family::BonsaiAgitPlus,
        [
            F, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, F, R, R, F, F, R,
        ],
        0xba25_16ee_2e8f_0599,
    );
}

#[test]
fn the_first_base_run_is_replayable_sgx_asit() {
    first_kill_point_is_replayable(
        Family::SgxAsit,
        [
            F, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, R, F, R, R, F, F, D,
        ],
        0xc5a5_fb9b_802b_27d7,
    );
}
