//! Runs a reduced fault-injection campaign (the Table 3 / Table 4 experiment)
//! on a 5-tap FIR filter as **one sweep**: all four TMR voter-partitioning
//! variants against the unprotected design, with shared pipeline artifacts,
//! plus a streaming early-stopped session on the most vulnerable variant.
//!
//! ```text
//! cargo run --release --example fault_campaign
//! ```

use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::faultsim::{CampaignBuilder, EarlyStop, FaultClass};
use tmr_fpga::flow::{FlowBuilder, Sweep};

fn main() -> Result<(), tmr_fpga::Error> {
    let base = FirFilter::small_filter().to_design();
    // 24x24 = 1152 LUT sites: tmr_p1, the largest variant, needs 957.
    let device = Device::small(24, 24);
    let campaign = CampaignBuilder::new().faults(1500).cycles(16);

    // One sweep call covers all five variants; every flow shares the cache.
    // The static analysis rides along so a `TMR_TRACE` run of this example
    // exercises every pipeline stage.
    let sweep = Sweep::paper(&base)
        .on_device(&device)
        .analyze(true)
        .campaign(campaign.clone());
    let report = sweep.run()?;

    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>16}",
        "design", "injected", "wrong [#]", "wrong [%]", "cross-domain"
    );
    for (name, result) in report.campaigns() {
        println!(
            "{:<10} {:>10} {:>12} {:>14.2} {:>15.0}%",
            name,
            result.injected(),
            result.wrong_answers(),
            result.wrong_answer_percent(),
            100.0 * result.cross_domain_error_fraction()
        );
        let classification = result.error_classification();
        if !classification.is_empty() {
            print!("           effects: ");
            for class in FaultClass::ALL {
                if let Some(count) = classification.get(&class) {
                    print!("{}={count} ", class.label());
                }
            }
            println!();
        }
    }
    println!("artifact cache: {}", report.cache);

    // Streaming variant: a session over the unprotected design that stops as
    // soon as the wrong-answer rate is pinned down to ±5 %. Its outcomes are
    // the exact prefix of the batch campaign above. Sharing the sweep's
    // cache makes the routed artifact and golden trace free.
    let flow = FlowBuilder::new(&device, &base)
        .cache(sweep.cache_handle().clone())
        .build();
    let routed = flow.routed()?;
    let streaming = campaign
        .clone()
        .batch_size(100)
        .early_stop(EarlyStop::at_half_width(0.05));
    let mut session = flow.campaign_session(&routed, &streaming)?;
    while let Some(batch) = session.next_batch() {
        let injected = batch.len();
        let progress = session.progress();
        eprintln!(
            "  streamed {injected} faults ({} of {} total, rate {:.1} % ± {:.1} %)",
            progress.injected,
            progress.planned,
            100.0 * progress.wrong_answer_rate,
            100.0 * session.ci_half_width()
        );
    }
    let stopped_early = session.stopped_early();
    let streamed = session.into_result();
    println!(
        "early-stopped session: {} of {} faults injected (stopped early: {stopped_early}), \
         wrong-answer rate {:.2} %",
        streamed.injected(),
        campaign.options().faults(),
        streamed.wrong_answer_percent()
    );

    // With TMR_TRACE=human|chrome set, write out everything recorded
    // above; a no-op (returning `None`) when tracing is off.
    if let Some(path) = tmr_fpga::trace::flush() {
        eprintln!("trace written to {}", path.display());
    }
    Ok(())
}
