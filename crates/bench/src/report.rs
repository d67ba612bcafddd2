//! Shared rendering glue for the table binaries: markdown tables and the
//! dependency-free JSON serialization of sweep results.
//!
//! `table3`, `table4` and `table_critical` all consume a
//! [`SweepReport`] and emit either markdown or a `--json` document; the
//! near-identical serializers they used to carry individually live here
//! once.

use tmr_analyze::Json;
use tmr_faultsim::{CampaignResult, SimStats};
use tmr_fpga::SweepReport;

/// Formats a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Serializes one campaign result to the shared JSON form used by the
/// `--json` mode of the table binaries.
pub fn campaign_json(name: &str, result: &CampaignResult) -> Json {
    let classification = Json::object(
        result
            .error_classification()
            .iter()
            .map(|(class, &count)| (class.label(), Json::from(count))),
    );
    Json::object([
        ("design", Json::str(name)),
        ("fault_list_size", Json::from(result.fault_list_size)),
        ("injected", Json::from(result.injected())),
        ("simulated", Json::from(result.simulated)),
        ("wrong_answers", Json::from(result.wrong_answers())),
        (
            "wrong_answer_percent",
            Json::from(result.wrong_answer_percent()),
        ),
        (
            "cross_domain_error_fraction",
            Json::from(result.cross_domain_error_fraction()),
        ),
        ("error_classification", classification),
    ])
}

/// The `device` field shared by every sweep document (`"28x28"`).
pub fn device_json(report: &SweepReport) -> Json {
    Json::str(format!("{}x{}", report.device.cols(), report.device.rows()))
}

/// The `cache` field of a sweep document: artifact-cache effectiveness
/// counters, so JSON consumers (and the CI bench log) can verify reuse.
pub fn cache_json(report: &SweepReport) -> Json {
    let stages = Json::object(report.stage_cache.iter().map(|&(stage, stats)| {
        (
            stage,
            Json::object([
                ("hits", Json::from(stats.hits as usize)),
                ("misses", Json::from(stats.misses as usize)),
            ]),
        )
    }));
    Json::object([
        ("hits", Json::from(report.cache.hits as usize)),
        ("misses", Json::from(report.cache.misses as usize)),
        ("entries", Json::from(report.cache.entries)),
        ("stages", stages),
    ])
}

/// The `sim` half of the `perf` object: the compiled engine's observability
/// counters (instructions evaluated vs skipped, words, lane retirement and
/// cone-dedup rates), so JSON consumers can verify the fast paths ran.
pub fn sim_json(stats: &SimStats) -> Json {
    Json::object([
        ("ops_evaluated", Json::from(stats.ops_evaluated as usize)),
        ("ops_skipped", Json::from(stats.ops_skipped as usize)),
        ("op_skip_rate", Json::from(stats.op_skip_rate())),
        ("words", Json::from(stats.words as usize)),
        (
            "words_full_eval",
            Json::from(stats.words_full_eval as usize),
        ),
        (
            "lanes_simulated",
            Json::from(stats.lanes_simulated as usize),
        ),
        (
            "lanes_retired_early",
            Json::from(stats.lanes_retired_early as usize),
        ),
        (
            "cone_dedup_hits",
            Json::from(stats.cone_dedup_hits as usize),
        ),
        ("cone_grouped", Json::from(stats.cone_grouped as usize)),
        ("cone_dedup_rate", Json::from(stats.cone_dedup_rate())),
    ])
}

/// The `perf` object of a sweep document: artifact-cache counters and the
/// merged simulator statistics under one structured roof.
pub fn perf_json(report: &SweepReport) -> Json {
    Json::object([
        ("cache", cache_json(report)),
        ("sim", sim_json(&report.sim_stats())),
    ])
}

/// Builds the complete `--json` document of a campaign table (`table3`,
/// `table4`): table name, any extra scalar fields, the shared device/perf
/// fields and one [`campaign_json`] entry per swept design.
pub fn sweep_campaign_document(
    table: &str,
    report: &SweepReport,
    extras: Vec<(&str, Json)>,
) -> Json {
    let mut fields = vec![("table", Json::str(table))];
    fields.extend(extras);
    fields.push(("device", device_json(report)));
    fields.push(("perf", perf_json(report)));
    fields.push((
        "designs",
        Json::array(
            report
                .campaigns()
                .map(|(name, result)| campaign_json(name, result)),
        ),
    ));
    Json::object(fields)
}

/// Builds the complete `--json` document of the static-criticality table:
/// one `CriticalityReport` JSON entry per swept design plus the shared
/// device/perf fields.
pub fn sweep_criticality_document(table: &str, report: &SweepReport) -> Json {
    Json::object([
        ("table", Json::str(table)),
        ("device", device_json(report)),
        ("perf", perf_json(report)),
        (
            "designs",
            Json::array(
                report
                    .variants
                    .iter()
                    .filter_map(|variant| Some(variant.analysis.as_ref()?.report().to_json())),
            ),
        ),
    ])
}

/// Performance lines for the table binaries' stderr and the CI bench log:
/// sweep cache effectiveness (including the `compiled` simulator stage, so
/// logs show when campaigns were served a cached compilation), the disk
/// store hit/miss counters when a store is attached (`TMR_CACHE_DIR` or an
/// explicit [`tmr_fpga::Store`]) and, when any campaign ran on the compiled
/// engine, its merged [`SimStats`] block.
pub fn perf_summary(report: &SweepReport) -> String {
    let compiled = match report.stage_stats("compiled") {
        Some(stats) => format!(
            "; compiled stage: {} hits / {} misses",
            stats.hits, stats.misses
        ),
        None => String::new(),
    };
    let disk = match &report.disk {
        Some(stats) => format!("; disk store: {stats}"),
        None => String::new(),
    };
    let sim = report.sim_stats();
    let sim_line = if sim.lanes_simulated > 0 {
        format!("\nsim stats: {sim}")
    } else {
        String::new()
    };
    let route = report.route_stats();
    let route_line = if route.routed > 0 {
        format!(
            "\nroute: {} variant(s), {} iterations, {} nodes expanded, \
             {:.1} ms routing summed over variants (not wall time)",
            route.routed,
            route.iterations,
            route.nodes_expanded,
            route.elapsed.as_secs_f64() * 1e3
        )
    } else {
        String::new()
    };
    format!(
        "sweep artifact cache: {}{compiled}{disk}{route_line}{sim_line}",
        report.cache
    )
}

/// The shared stderr perf report of the table binaries: one line (indented
/// under the table output) with an optional `label`/`elapsed` prefix and the
/// [`perf_summary`] of the sweep. All four binaries report through this one
/// helper, so the stderr format changes in exactly one place.
pub fn emit_stderr(label: &str, elapsed: Option<std::time::Duration>, report: &SweepReport) {
    match elapsed {
        Some(elapsed) => eprintln!(
            "  {label} in {:.1} s; {}",
            elapsed.as_secs_f64(),
            perf_summary(report)
        ),
        None => eprintln!("  {}", perf_summary(report)),
    }
}

/// Flushes pending trace records to the sink configured via `TMR_TRACE`
/// (a no-op returning `None` when tracing is off) and reports the file
/// written, if any. The table binaries call this once after their sweeps.
pub fn flush_trace() {
    if let Some(path) = tmr_trace::flush() {
        eprintln!("  trace written to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_has_header_separator_and_rows() {
        let table = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(table.contains("| a | b |"));
        assert!(table.contains("|---|---|"));
        assert!(table.contains("| 1 | 2 |"));
    }

    #[test]
    fn campaign_json_includes_the_table_columns() {
        use tmr_faultsim::FaultOutcome;
        let result = CampaignResult {
            design: "demo".to_string(),
            fault_list_size: 10,
            simulated: 2,
            outcomes: vec![FaultOutcome {
                bit: 3,
                bits: vec![3],
                class: tmr_faultsim::FaultClass::Bridge,
                wrong_answer: true,
                first_error_cycle: Some(1),
                crosses_domains: true,
            }],
            stats: tmr_faultsim::SimStats::default(),
        };
        let json = campaign_json("demo", &result).render();
        assert!(json.contains(r#""design":"demo""#));
        assert!(json.contains(r#""injected":1"#));
        assert!(json.contains(r#""simulated":2"#));
        assert!(json.contains(r#""wrong_answers":1"#));
        assert!(json.contains(r#""Bridge":1"#));
    }
}
