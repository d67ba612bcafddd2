//! Regenerates Table 4 of the paper: classification of the injected upsets
//! that caused an error in each design, using the effect taxonomy
//! (LUT / MUX / Initialization / Open / Bridge / Input-Antenna / Conflict /
//! Others) — one [`Sweep`](tmr_fpga::Sweep) call over the staged pipeline.
//!
//! Fault count, stimulus length, early stopping and the disk artifact store
//! are controlled by `TMR_FAULTS`, `TMR_CYCLES`, `TMR_CI` and
//! `TMR_CACHE_DIR`, as for `table3`.
//!
//! ```text
//! cargo run --release -p tmr-bench --bin table4
//! ```
//!
//! With `--json` the per-design error classifications are emitted as a single
//! JSON document (shared serializer in `tmr_bench::report`) instead of
//! markdown.

use tmr_analyze::Json;
use tmr_bench::report::{emit_stderr, flush_trace, markdown_table, sweep_campaign_document};
use tmr_bench::{campaign_from_env, cycles_from_env, faults_from_env, json_requested, paper_sweep};
use tmr_faultsim::FaultClass;

fn main() {
    let faults = faults_from_env();
    let cycles = cycles_from_env();
    let json = json_requested();

    let report = paper_sweep(1)
        .campaign(campaign_from_env())
        .run()
        .expect("the paper variants implement on the auto-sized device");
    emit_stderr("", None, &report);
    flush_trace();

    if json {
        let document = sweep_campaign_document(
            "table4",
            &report,
            vec![
                ("faults", Json::from(faults)),
                ("cycles", Json::from(cycles)),
            ],
        );
        println!("{document}");
        return;
    }

    println!("# Table 4 — Effects induced by the injected upsets that caused an error");
    println!("({faults} faults per design, {cycles} stimulus cycles per fault)\n");

    let mut headers: Vec<String> = vec!["Effect".to_string()];
    let mut columns = Vec::new();
    for (name, result) in report.campaigns() {
        headers.push(format!("{name} [#]"));
        headers.push(format!("{name} [%]"));
        columns.push(result.error_classification());
    }

    let mut rows = Vec::new();
    let totals: Vec<usize> = columns.iter().map(|c| c.values().sum()).collect();
    for class in FaultClass::ALL {
        let mut row = vec![class.label().to_string()];
        for (column, &total) in columns.iter().zip(totals.iter()) {
            let count = column.get(&class).copied().unwrap_or(0);
            let percent = if total > 0 {
                100.0 * count as f64 / total as f64
            } else {
                0.0
            };
            row.push(count.to_string());
            row.push(format!("{percent:.0}"));
        }
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string()];
    for &total in &totals {
        total_row.push(total.to_string());
        total_row.push(String::new());
    }
    rows.push(total_row);

    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", markdown_table(&header_refs, &rows));

    println!(
        "Paper reference (error-causing upsets, selected rows): the general routing\n\
         dominates every column (Open 25–40 %, Bridge 8–20 %, Conflict up to 25 %),\n\
         LUT upsets never defeat any TMR variant, and MUX/Initialization stay below 8 %."
    );
}
