//! Sweeps the voter-partition strategies of the paper over the 11-tap FIR
//! filter at the word level, reporting voter cost and cross-domain exposure —
//! the design-space trade-off of Section 2 of the paper — and then runs a
//! compiled-backend fault campaign on every variant of the small filter,
//! printing per-variant faults/sec so the example doubles as a quick perf
//! smoke for the event-driven simulator.
//!
//! ```text
//! cargo run --release --example partition_sweep
//! ```

use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::faultsim::CampaignBuilder;
use tmr_fpga::flow::FlowBuilder;
use tmr_fpga::tmr::{apply_tmr, partition_report, TmrConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = FirFilter::paper_filter().to_design();
    println!("base design: {base}\n");
    println!(
        "{:<10} {:>14} {:>12} {:>16} {:>20} {:>22}",
        "variant",
        "fabric voters",
        "partitions",
        "max partition",
        "mean partition",
        "cross-domain pairs"
    );
    for config in TmrConfig::paper_presets() {
        let tmr = apply_tmr(&base, &config)?;
        let report = partition_report(&tmr);
        println!(
            "{:<10} {:>14} {:>12} {:>16} {:>20.1} {:>22}",
            config.label,
            tmr.stats().voters,
            report.partition_count(),
            report.max_partition_nodes(),
            report.mean_partition_nodes(),
            report.total_cross_domain_pairs()
        );
    }
    println!(
        "\nThe paper's trade-off in numbers: the maximum partition (p1) buys small\n\
         partitions at the price of many voters (and the cross-domain wiring they\n\
         imply), while the minimum partition (p3/p3_nv) concentrates the whole\n\
         datapath into a few huge partitions whose internal bridges defeat TMR."
    );

    // Perf smoke: inject the same fault list into every variant of the small
    // filter on the compiled backend (the default — set TMR_SIM=interp to
    // A/B the interpreter) and report the
    // end-to-end campaign rate plus the engine's observability counters.
    let small = FirFilter::small_filter().to_design();
    // 24x24 = 1152 LUT sites: tmr_p1, the largest variant, needs 957.
    let device = Device::small(24, 24);
    let campaign = CampaignBuilder::new().faults(600).cycles(12);
    println!(
        "\ncompiled-backend campaign smoke (600 faults, 12 cycles):\n\
         {:<10} {:>10} {:>12} {:>12} {:>14}",
        "variant", "simulated", "wrong [%]", "time [ms]", "faults/sec"
    );
    for config in TmrConfig::paper_presets() {
        let label = config.label.clone();
        let flow = FlowBuilder::new(&device, &small).tmr(config).build();
        // Route outside the timed region: the smoke measures the simulator,
        // not the place-and-route front end.
        flow.routed()?;
        let start = std::time::Instant::now();
        let result = flow.campaign(&campaign)?;
        let elapsed = start.elapsed();
        println!(
            "{:<10} {:>10} {:>12.2} {:>12.2} {:>14.0}",
            label,
            result.simulated,
            result.wrong_answer_percent(),
            1e3 * elapsed.as_secs_f64(),
            result.injected() as f64 / elapsed.as_secs_f64()
        );
        println!("           sim: {}", result.stats);
    }
    Ok(())
}
