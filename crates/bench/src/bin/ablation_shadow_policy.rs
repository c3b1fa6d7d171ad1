//! Ablation: AGIT-Read (shadow on every metadata-cache fill) vs
//! AGIT-Plus (shadow on first modification) across the read/write
//! spectrum — locating the crossover the paper's MCF/LBM discussion
//! implies (§6.1).

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, MemoryController};
use anubis_bench::{banner, scale_from_args};
use anubis_sim::{run_trace, Table, TimingModel};
use anubis_workloads::{TraceGenerator, WorkloadSpec};

fn main() {
    let telemetry = anubis_bench::telemetry::start();
    let scale = scale_from_args();
    banner(
        "Ablation: shadow-update policy",
        "AGIT-Read vs AGIT-Plus overhead as the read fraction sweeps 10%..95%",
        scale,
    );
    let config = AnubisConfig::paper();
    let model = TimingModel::paper();

    let mut table = Table::new(vec![
        "read %".into(),
        "agit-read".into(),
        "agit-plus".into(),
        "read shadow wr".into(),
        "plus shadow wr".into(),
    ]);
    for read_pct in [10u32, 25, 50, 75, 90, 95] {
        let spec = WorkloadSpec::new("sweep")
            .read_fraction(read_pct as f64 / 100.0)
            .footprint_bytes(256 << 20)
            .zipf(0.7)
            .sequential(0.3)
            .gap_ns(80.0);
        let trace =
            TraceGenerator::new(spec, config.capacity_bytes).generate(scale.ops, scale.seed);
        let mut wb = BonsaiController::new(BonsaiScheme::WriteBack, &config);
        let base = run_trace(&mut wb, &trace, &model).expect("baseline");

        let mut row = vec![read_pct.to_string()];
        let mut shadow_writes = Vec::new();
        for scheme in [BonsaiScheme::AgitRead, BonsaiScheme::AgitPlus] {
            let mut ctrl = BonsaiController::new(scheme, &config);
            let r = run_trace(&mut ctrl, &trace, &model).expect("replay");
            row.push(format!("{:.3}", r.normalized_to(&base)));
            let stats = ctrl.domain().device().stats();
            shadow_writes.push(stats.writes_in("sct") + stats.writes_in("smt"));
        }
        row.push(shadow_writes[0].to_string());
        row.push(shadow_writes[1].to_string());
        table.row(row);
    }
    println!("{table}");
    println!(
        "expected shape: AGIT-Read's fill-triggered shadowing grows with read\n\
         intensity while AGIT-Plus stays flat — the paper's MCF observation,\n\
         generalized into a crossover curve."
    );
    anubis_bench::telemetry::finish(
        &telemetry,
        std::path::Path::new("."),
        "ablation_shadow_policy",
    );
}
