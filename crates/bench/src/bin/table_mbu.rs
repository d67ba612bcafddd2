//! The multi-bit-upset table (beyond the paper): wrong-answer rate of the
//! five FIR variants under the generalized fault models — per MBU cluster
//! size (geometry-aware adjacent-bit pairs and 2×2 tiles) and per number of
//! upsets accumulated between two configuration scrubs.
//!
//! The paper's campaign flips one configuration bit per experiment; this
//! table answers the two questions that model cannot: *how fast does TMR
//! degrade as one strike grows into a cluster?* and *how many accumulated
//! upsets per scrub interval does each voter partitioning survive?* (cf.
//! Hoque et al. 2018 on the scrub-interval/partitioning trade-off).
//!
//! Every model runs as one [`Sweep`](tmr_fpga::Sweep) over the **same shared
//! artifact cache**: the five implementations, golden traces and device are
//! computed once, only the campaigns differ per model.
//!
//! ```text
//! TMR_FAULTS=2000 cargo run --release -p tmr-bench --bin table_mbu
//! ```
//!
//! Environment knobs as for `table3` (`TMR_FAULTS`, `TMR_CYCLES`, `TMR_CI`,
//! `TMR_CACHE_DIR`); `--json` emits one machine-readable document (shared
//! serializer in `tmr_bench::report`) instead of markdown.

use tmr_analyze::Json;
use tmr_arch::MbuPattern;
use tmr_bench::report::{
    campaign_json, device_json, emit_stderr, flush_trace, markdown_table, sim_json,
};
use tmr_bench::{campaign_from_env, cycles_from_env, faults_from_env, json_requested, paper_sweep};
use tmr_faultsim::{FaultModel, SimStats};
use tmr_fpga::{ArtifactCache, SweepReport};

/// The cluster-size axis: every geometric MBU pattern, smallest first.
fn mbu_models() -> Vec<FaultModel> {
    MbuPattern::ALL
        .into_iter()
        .map(|pattern| FaultModel::Mbu { pattern })
        .collect()
}

/// The scrub-interval axis: upsets accumulating between two scrubs.
fn accumulate_models() -> Vec<FaultModel> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|upsets_per_scrub| FaultModel::Accumulate { upsets_per_scrub })
        .collect()
}

/// Runs one sweep per model against the shared cache and pairs each with its
/// label.
fn run_axis(
    models: &[FaultModel],
    cache: &std::sync::Arc<ArtifactCache>,
) -> Vec<(String, SweepReport)> {
    models
        .iter()
        .map(|model| {
            let start = std::time::Instant::now();
            let report = paper_sweep(1)
                .cache(cache.clone())
                .campaign(campaign_from_env().fault_model(*model))
                .run()
                .expect("the paper variants implement on the auto-sized device");
            emit_stderr(&format!("{model}: swept"), Some(start.elapsed()), &report);
            (model.label(), report)
        })
        .collect()
}

/// One markdown table: designs as rows, one wrong-answer-% column per model.
fn axis_table(title: &str, axis: &str, reports: &[(String, SweepReport)]) -> String {
    let mut headers: Vec<&str> = vec!["Design"];
    for (label, _) in reports {
        headers.push(label);
    }
    let first = &reports[0].1;
    let rows: Vec<Vec<String>> = first
        .variants
        .iter()
        .enumerate()
        .map(|(index, variant)| {
            let mut row = vec![variant.name.clone()];
            for (_, report) in reports {
                let campaign = report.variants[index]
                    .campaign
                    .as_ref()
                    .expect("every sweep ran a campaign");
                row.push(format!("{:.2}", campaign.wrong_answer_percent()));
            }
            row
        })
        .collect();
    format!(
        "## {title}\n(wrong answer [%] per {axis})\n\n{}",
        markdown_table(&headers, &rows)
    )
}

/// The JSON section of one axis: per model label, per-design campaign
/// results.
fn axis_json(reports: &[(String, SweepReport)]) -> Json {
    Json::array(reports.iter().map(|(label, report)| {
        Json::object([
            ("model", Json::str(label)),
            (
                "designs",
                Json::array(
                    report
                        .campaigns()
                        .map(|(name, result)| campaign_json(name, result)),
                ),
            ),
        ])
    }))
}

fn main() {
    let faults = faults_from_env();
    let cycles = cycles_from_env();
    let json = json_requested();

    let cache = ArtifactCache::shared();
    let mbu = run_axis(&mbu_models(), &cache);
    let accumulated = run_axis(&accumulate_models(), &cache);
    let stats = cache.stats();
    eprintln!("  shared artifact cache over both axes: {stats}");
    flush_trace();

    if json {
        // Merge the simulator counters over both axes' sweeps — one `perf`
        // object for the whole document, mirroring the sweep serializers.
        let mut sim = SimStats::default();
        for (_, report) in mbu.iter().chain(accumulated.iter()) {
            sim.merge(&report.sim_stats());
        }
        let document = Json::object([
            ("table", Json::str("table_mbu")),
            ("faults", Json::from(faults)),
            ("cycles", Json::from(cycles)),
            ("device", device_json(&mbu[0].1)),
            (
                "perf",
                Json::object([
                    (
                        "cache",
                        Json::object([
                            ("hits", Json::from(stats.hits as usize)),
                            ("misses", Json::from(stats.misses as usize)),
                            ("entries", Json::from(stats.entries)),
                        ]),
                    ),
                    ("sim", sim_json(&sim)),
                ]),
            ),
            ("mbu", axis_json(&mbu)),
            ("accumulate", axis_json(&accumulated)),
        ]);
        println!("{document}");
        return;
    }

    println!("# Multi-bit upsets and scrub intervals — beyond the paper's Table 3");
    println!(
        "({} faults per design and model, {} stimulus cycles per fault, device {}x{})\n",
        faults,
        cycles,
        mbu[0].1.device.cols(),
        mbu[0].1.device.rows()
    );
    println!(
        "{}",
        axis_table(
            "Wrong-answer rate vs. MBU cluster size",
            "cluster shape",
            &mbu
        )
    );
    println!(
        "{}",
        axis_table(
            "Wrong-answer rate vs. accumulated upsets per scrub",
            "upsets accumulated between two configuration scrubs",
            &accumulated
        )
    );
}
