//! # tmr-bench
//!
//! The harness reproducing the tables and figures of the DATE 2005 paper.
//! The `src/bin` targets regenerate the paper's tables (`table1`–`table4`,
//! `table_critical`, `figures`) plus the beyond-the-paper multi-bit-upset /
//! scrub-interval table (`table_mbu`); the campaign daemon (`tmr-campaignd`),
//! its client (`tmr-submit`) and the differential fuzzer (`tmr-fuzz`) live
//! here too. Performance is measured by the separate `perfbench` package.
//!
//! The table binaries are thin views over one [`Sweep`] of the five paper
//! FIR variants: [`paper_sweep`] builds it (device auto-sizing included, and
//! the disk store named by `TMR_CACHE_DIR` attached) and
//! [`campaign_from_env`] wires the environment knobs (`TMR_FAULTS`,
//! `TMR_CYCLES`, `TMR_CI`) into a [`CampaignBuilder`]. Rendering glue shared
//! by the binaries lives in [`report`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use tmr_core::paper_variants;
use tmr_designs::FirFilter;
use tmr_faultsim::{CampaignBuilder, EarlyStop};
use tmr_fpga::Sweep;
use tmr_netlist::Netlist;
use tmr_store::Store;
use tmr_synth::{lower, optimize, techmap, Design};

pub mod report;

pub use report::{campaign_json, markdown_table};

/// The five FIR filter designs evaluated in the paper, in Table 3 order:
/// `standard`, `tmr_p1`, `tmr_p2`, `tmr_p3`, `tmr_p3_nv`.
pub fn fir_variants() -> Vec<(String, Design)> {
    let base = FirFilter::paper_filter().to_design();
    paper_variants(&base).expect("the FIR filter is an unprotected design")
}

/// Synthesises a word-level design to a mapped netlist (panicking on error —
/// the harness only feeds it designs produced by this workspace).
pub fn synthesize(design: &Design) -> Netlist {
    techmap(&optimize(&lower(design).expect("lowering"))).expect("mapping")
}

/// The sweep behind every table binary: the paper's 11-tap FIR through the
/// five variants on an auto-sized XC2S200E-like device. Attach a campaign
/// with [`Sweep::campaign`] (Tables 3/4) or enable the static analysis with
/// [`Sweep::analyze`] (`table_critical`), then call [`Sweep::run`] once.
///
/// `TMR_CACHE_DIR=dir` backs the sweep with the disk store at `dir`
/// ([`Store::from_env`]): a re-run over the same directory serves every
/// implementation and campaign from disk. Flows and sweeps never read the
/// variable themselves; unset, the sweep is memory-only.
pub fn paper_sweep(seed: u64) -> Sweep {
    let sweep = Sweep::paper(&FirFilter::paper_filter().to_design()).seed(seed);
    match Store::from_env() {
        Some(store) => sweep.store(store),
        None => sweep,
    }
}

/// The campaign configuration of the table binaries, from the environment:
/// `TMR_FAULTS` faults per design, `TMR_CYCLES` stimulus cycles per fault
/// and — when `TMR_CI` is set — statistical early stop at that
/// wrong-answer-rate confidence half-width (e.g. `TMR_CI=0.005` stops once
/// the 95 % interval is within ±0.5 %).
pub fn campaign_from_env() -> CampaignBuilder {
    let campaign = CampaignBuilder::new()
        .faults(faults_from_env())
        .cycles(cycles_from_env());
    match ci_from_env() {
        Some(half_width) => campaign.early_stop(EarlyStop::at_half_width(half_width)),
        None => campaign,
    }
}

/// Number of faults per campaign, configurable through the `TMR_FAULTS`
/// environment variable (default 4000 — roughly the same sampling ratio as
/// the paper's "10 % of the configuration memory bits related to the DUT").
pub fn faults_from_env() -> usize {
    std::env::var("TMR_FAULTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000)
}

/// Number of stimulus cycles per fault, configurable through `TMR_CYCLES`
/// (default 24: enough for a sample to traverse the 11-tap filter and reach
/// the output).
pub fn cycles_from_env() -> usize {
    std::env::var("TMR_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Early-stop confidence half-width from `TMR_CI` (a rate in `[0, 1]`, e.g.
/// `0.01` = ±1 %); unset disables early stopping.
pub fn ci_from_env() -> Option<f64> {
    std::env::var("TMR_CI").ok().and_then(|v| v.parse().ok())
}

/// Returns `true` if `--json` was passed on the command line: the table
/// binaries then emit a machine-readable document (rendered with the
/// dependency-free serializer shared with `tmr-analyze`'s
/// `CriticalityReport`) instead of markdown.
pub fn json_requested() -> bool {
    std::env::args().any(|arg| arg == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_arch::DeviceParams;
    use tmr_fpga::flow::device_for;

    #[test]
    fn fir_variants_are_the_five_paper_designs() {
        let names: Vec<String> = fir_variants().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["standard", "tmr_p1", "tmr_p2", "tmr_p3", "tmr_p3_nv"]
        );
    }

    #[test]
    fn device_scales_until_designs_fit() {
        // A netlist bigger than the XC2S200E forces the grid to grow.
        let variants = fir_variants();
        let tmr_p1 = synthesize(&variants[1].1);
        let device = device_for(DeviceParams::xc2s200e_like(), &[&tmr_p1], 0.50);
        let capacity = device.lut_sites().len();
        let stats = tmr_p1.stats();
        assert!((stats.luts + stats.constants) as f64 / capacity as f64 <= 0.50);
    }

    #[test]
    fn env_campaign_uses_the_documented_defaults() {
        // The defaults apply when the environment variables are unset (the
        // test runner does not set them).
        let campaign = campaign_from_env();
        assert_eq!(campaign.options().faults(), faults_from_env());
        assert_eq!(campaign.options().cycles(), cycles_from_env());
    }
}
