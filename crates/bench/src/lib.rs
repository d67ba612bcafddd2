//! # tmr-bench
//!
//! The benchmark harness reproducing the tables and figures of the DATE 2005
//! paper. The `src/bin` targets regenerate the paper's tables
//! (`table1`–`table4`, `table_critical`, `figures`) plus the beyond-the-paper
//! multi-bit-upset / scrub-interval table (`table_mbu`); the Criterion
//! benches under `benches/` measure the performance of the individual flow
//! stages on reduced designs.
//!
//! The table binaries are thin views over one [`Sweep`] of the five paper
//! FIR variants: [`paper_sweep`] builds it (device auto-sizing included) and
//! [`campaign_from_env`] wires the environment knobs (`TMR_FAULTS`,
//! `TMR_CYCLES`, `TMR_SHARDS`, `TMR_CI`) into a
//! [`CampaignBuilder`]. Rendering glue shared by the binaries lives in
//! [`report`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use tmr_arch::{Device, DeviceParams};
use tmr_core::paper_variants;
use tmr_designs::FirFilter;
use tmr_faultsim::{CampaignBuilder, EarlyStop};
use tmr_fpga::flow::device_for;
use tmr_fpga::Sweep;
use tmr_netlist::Netlist;
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

/// Chooses the evaluation device: the XC2S200E-like fabric if every netlist
/// fits at reasonable utilisation, otherwise the same architecture scaled up
/// to the smallest square grid that keeps LUT and FF utilisation below 50 %
/// (our mapping has no carry chains, so designs are larger than Xilinx ISE's).
pub fn paper_device(netlists: &[&Netlist]) -> Device {
    device_for(DeviceParams::xc2s200e_like(), netlists, 0.50)
}

/// The sweep behind every table binary: the paper's 11-tap FIR through the
/// five variants on an auto-sized XC2S200E-like device. Attach a campaign
/// with [`Sweep::campaign`] (Tables 3/4) or enable the static analysis with
/// [`Sweep::analyze`] (`table_critical`), then call [`Sweep::run`] once.
///
/// `TMR_BASE=small` swaps in the reduced 5-tap filter *and* the small
/// evaluation fabric the examples use (same five variants, same code paths,
/// implementation minutes → seconds) for smoke runs — the reduced design is
/// placed on the `Device::small` architecture, whose richer input-pin
/// candidates are what its TMR variants route on.
pub fn paper_sweep(seed: u64) -> Sweep {
    let sweep = if small_base_from_env() {
        // 24x24 = 1152 LUT sites: tmr_p1, the largest small variant, needs 957.
        Sweep::paper(&FirFilter::small_filter().to_design())
            .auto_device(DeviceParams::small(24, 24), 0.90)
    } else {
        Sweep::paper(&FirFilter::paper_filter().to_design())
    };
    sweep.seed(seed)
}

/// Returns `true` when `TMR_BASE=small` asks the table binaries for the
/// reduced 5-tap base filter instead of the paper's 11-tap one.
pub fn small_base_from_env() -> bool {
    std::env::var("TMR_BASE").is_ok_and(|v| v == "small")
}

/// The campaign configuration of the table binaries, from the environment:
/// `TMR_FAULTS` faults per design, `TMR_CYCLES` stimulus cycles per fault,
/// `TMR_SHARDS` worker shards and — when `TMR_CI` is set — statistical
/// early stop at that wrong-answer-rate confidence half-width (e.g.
/// `TMR_CI=0.005` stops once the 95 % interval is within ±0.5 %).
pub fn campaign_from_env() -> CampaignBuilder {
    let mut campaign = CampaignBuilder::new()
        .faults(faults_from_env())
        .cycles(cycles_from_env());
    if let Some(shards) = shards_from_env() {
        campaign = campaign.shards(shards);
    }
    if let Some(half_width) = ci_from_env() {
        campaign = campaign.early_stop(EarlyStop::at_half_width(half_width));
    }
    campaign
}

/// Explicit shard count for campaigns, configurable through the `TMR_SHARDS`
/// environment variable (default: one shard per CPU core).
pub fn shards_from_env() -> Option<usize> {
    std::env::var("TMR_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
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
        let device = paper_device(&[&tmr_p1]);
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
