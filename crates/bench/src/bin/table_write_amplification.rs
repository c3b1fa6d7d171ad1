//! Beyond-paper table: NVM write amplification (§6.2 discussion).
//!
//! The paper argues strict persistence "causes at least an additional ten
//! writes per memory write operation, which can significantly reduce the
//! lifetime of NVMs", while ASIT "only incurs one extra write operation
//! per memory write". This table measures writes-per-data-write for every
//! scheme, plus the worst single-block wear the device saw.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, MemoryController, SgxController, SgxScheme,
};
use anubis_bench::{banner, scale_from_args};
use anubis_sim::{run_trace, Table, TimingModel};
use anubis_workloads::{spec2006, TraceGenerator};

fn main() {
    let telemetry = anubis_bench::telemetry::start();
    let scale = scale_from_args();
    banner(
        "Write amplification (paper §6.2 claims)",
        "NVM writes per data write and worst-block wear, libquantum trace",
        scale,
    );
    let config = AnubisConfig::paper();
    let model = TimingModel::paper();
    let trace = TraceGenerator::new(spec2006::libquantum(), config.capacity_bytes)
        .generate(scale.ops, scale.seed);

    let mut table = Table::new(vec![
        "scheme".into(),
        "writes/data-write".into(),
        "max wear (1 block)".into(),
        "shadow writes".into(),
    ]);
    for scheme in BonsaiScheme::all_with_extras() {
        let mut c = BonsaiController::new(scheme, &config);
        let r = run_trace(&mut c, &trace, &model).expect("replay");
        let stats = c.domain().device().stats();
        let shadow = stats.writes_in("sct") + stats.writes_in("smt");
        table.row(vec![
            r.scheme.to_string(),
            format!("{:.2}", r.writes_per_data_write),
            stats.max_writes_to_one_block().to_string(),
            shadow.to_string(),
        ]);
    }
    for scheme in SgxScheme::all_with_extras() {
        let mut c = SgxController::new(scheme, &config);
        let r = run_trace(&mut c, &trace, &model).expect("replay");
        let stats = c.domain().device().stats();
        let shadow = stats.writes_in("st");
        table.row(vec![
            r.scheme.to_string(),
            format!("{:.2}", r.writes_per_data_write),
            stats.max_writes_to_one_block().to_string(),
            shadow.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: strict-persist ≈ tree-depth writes per write (paper: 10+);\n\
         ASIT ≈ baseline + 1 (the Shadow Table write); AGIT variants between\n\
         Osiris and AGIT-Read depending on shadow-update policy."
    );
    anubis_bench::telemetry::finish(
        &telemetry,
        std::path::Path::new("."),
        "table_write_amplification",
    );
}
