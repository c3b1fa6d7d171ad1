//! `bench_campaign serve`'s first point, pinned in tier 1.
//!
//! Four tenants of the server's own boot (bonsai / sgx, alternating)
//! play the seed's schedule of writes on one thread through
//! `Tenant::begin` / `Tenant::finish`, sharing group-commit frames, and
//! are killed at a drawn event index: every image and anchor is copied
//! aside while nothing appends. The copies are restarted as the server
//! boots them, and every line of every tenant is read back through the
//! served path against the exact model — the last write that was durable
//! at the kill (its ticket at most the tenant's durable epoch) or
//! answered, or zeros. A durable write must read back answered or not,
//! and a write that was not durable yet must not show (DESIGN.md §12.5).
//!
//! Nothing in it moves with timing, so two runs give the same point, and
//! its per-tenant durable epochs and counts are pinned here.

use std::fs;

use anubis_sim::campaign::{fnv1a64, FNV1A64_EMPTY};
use anubis_sim::serve::{run_campaign, PointOutcome, ServeSpec, TenantOutcome};

/// Runs point 0 of the default campaign into a directory of its own.
fn point_zero(run: &str) -> PointOutcome {
    let dir = std::env::temp_dir().join(format!("anubis-serve-pin-{}-{run}", std::process::id()));
    let report = run_campaign(&ServeSpec::default(), &dir, 1, false)
        .unwrap_or_else(|e| panic!("point 0: {e}"));
    let _ = fs::remove_dir_all(&dir);
    report.outcomes.into_iter().next().expect("one point")
}

#[test]
fn the_first_point_is_replayable() {
    let (first, second) = (point_zero("a"), point_zero("b"));
    assert_eq!(
        (first.kill_at, &first.tenants),
        (second.kill_at, &second.tenants),
        "two runs of one seed"
    );
    let pinned = |durable_epoch, acked, durable, not_durable| TenantOutcome {
        durable_epoch,
        acked,
        durable,
        not_durable,
        verified_lines: 48,
    };
    assert_eq!(first.kill_at, 32);
    assert_eq!(
        first.tenants,
        [
            pinned(1, 2, 2, 1),
            pinned(3, 4, 4, 1),
            pinned(3, 4, 4, 0),
            pinned(4, 5, 5, 0),
        ]
    );
    let mut h = fnv1a64(FNV1A64_EMPTY, &first.kill_at.to_le_bytes());
    for t in &first.tenants {
        for field in [
            t.durable_epoch,
            t.acked,
            t.durable,
            t.not_durable,
            t.verified_lines,
        ] {
            h = fnv1a64(h, &field.to_le_bytes());
        }
    }
    assert_eq!(h, 0xc0ab_04aa_586a_e080, "digest {h:#018x}");
}
