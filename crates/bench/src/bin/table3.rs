//! Regenerates Table 3 of the paper: the fault-injection campaign results
//! (injected faults, wrong answers, wrong-answer percentage) for the five FIR
//! variants — one [`Sweep`](tmr_fpga::Sweep) call over the staged pipeline.
//!
//! The number of injected faults per design is controlled by the `TMR_FAULTS`
//! environment variable (default 4000) and the stimulus length by
//! `TMR_CYCLES` (default 24). Setting `TMR_CI` (e.g. `0.005`) stops each
//! campaign early once the wrong-answer rate's 95 % confidence half-width is
//! below that bound. `TMR_CACHE_DIR=dir` attaches a disk artifact store: a
//! re-run over the same directory serves every implementation and campaign
//! from disk (the stderr perf line shows the disk hit/miss counters, and a
//! warm run ends it with `(0 writes)`).
//!
//! ```text
//! TMR_FAULTS=4000 cargo run --release -p tmr-bench --bin table3
//! ```
//!
//! With `--json` the campaign results are emitted as a single JSON document
//! (shared serializer in `tmr_bench::report`) instead of markdown; either
//! way the artifact-cache counters are reported, documenting the work the
//! sweep reused across variants.

use tmr_analyze::Json;
use tmr_bench::report::{emit_stderr, flush_trace, markdown_table, sweep_campaign_document};
use tmr_bench::{campaign_from_env, cycles_from_env, faults_from_env, json_requested, paper_sweep};

fn main() {
    let faults = faults_from_env();
    let cycles = cycles_from_env();
    let json = json_requested();
    let start = std::time::Instant::now();

    // One sweep call: implement all five variants (shared artifacts) and run
    // the campaign on each.
    let report = paper_sweep(1)
        .campaign(campaign_from_env())
        .run()
        .expect("the paper variants implement on the auto-sized device");
    emit_stderr("sweep done", Some(start.elapsed()), &report);
    flush_trace();

    if json {
        let document = sweep_campaign_document(
            "table3",
            &report,
            vec![
                ("faults", Json::from(faults)),
                ("cycles", Json::from(cycles)),
            ],
        );
        println!("{document}");
        return;
    }

    println!("# Table 3 — Fault injection campaign results");
    println!(
        "({} faults per design, {} stimulus cycles per fault, device {}x{})\n",
        faults,
        cycles,
        report.device.cols(),
        report.device.rows()
    );

    let rows: Vec<Vec<String>> = report
        .campaigns()
        .map(|(name, result)| {
            vec![
                name.to_string(),
                result.fault_list_size.to_string(),
                result.injected().to_string(),
                result.wrong_answers().to_string(),
                format!("{:.2}", result.wrong_answer_percent()),
                format!("{:.0} %", 100.0 * result.cross_domain_error_fraction()),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "Design",
                "Fault list size",
                "Injected faults [#]",
                "Wrong answer [#]",
                "Wrong answer [%]",
                "cross-domain among errors",
            ],
            &rows
        )
    );

    println!("Paper (hardware fault injection on the XC2S200E) for comparison:");
    println!(
        "{}",
        markdown_table(
            &[
                "Design",
                "Injected faults [#]",
                "Wrong answer [#]",
                "Wrong answer [%]"
            ],
            &[
                vec![
                    "standard".into(),
                    "5,100".into(),
                    "4,952".into(),
                    "97.10".into()
                ],
                vec![
                    "tmr_p1".into(),
                    "17,515".into(),
                    "706".into(),
                    "4.03".into()
                ],
                vec![
                    "tmr_p2".into(),
                    "19,401".into(),
                    "190".into(),
                    "0.98".into()
                ],
                vec![
                    "tmr_p3".into(),
                    "18,501".into(),
                    "289".into(),
                    "1.56".into()
                ],
                vec![
                    "tmr_p3_nv".into(),
                    "18,000".into(),
                    "2,268".into(),
                    "12.60".into()
                ],
            ]
        )
    );
}
