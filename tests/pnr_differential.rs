//! Differential tests of the annealing placer's incremental cost.
//!
//! The placer maintains each net's bounding-box wirelength incrementally;
//! the maintained total must equal the from-scratch recompute
//! (`placement_wirelength`) on the final placement of every paper variant
//! and of generated designs (a `debug_assertions` check inside the placer
//! verifies it per move).

use proptest::prelude::*;
use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::{device_for, Sweep};
use tmr_fpga::pnr::{place, placement_wirelength, PlacerOptions};
use tmr_fpga::synth::{lower, optimize, techmap};

#[test]
fn incremental_placement_cost_matches_full_recompute() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (device, flows) = Sweep::paper(&base)
        .on_device(&device)
        .flows()
        .expect("the paper variants implement on the 24x24 device");
    for (name, flow) in flows {
        let netlist = flow.synthesized().expect("synthesis succeeds");
        let placement = flow.placed().expect("placement succeeds");
        let maintained = placement.wirelength();
        let recomputed = placement_wirelength(&device, &netlist, &placement);
        assert_eq!(
            maintained, recomputed,
            "variant {name}: incremental wirelength diverged from the full recompute"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same contract over the fuzz generator's design space and, through
    /// `arch_for_seed`'s rotation inside `device_for`, over lean channel
    /// configurations.
    #[test]
    fn generated_designs_keep_the_incremental_placement_cost(seed in 0u64..512) {
        let config = tmr_fpga::designs::GeneratorConfig::sampled(seed);
        let design = tmr_fpga::designs::generate(seed, &config);
        let params = tmr_fpga::fuzz::arch_for_seed(seed);
        let netlist = techmap(&optimize(&lower(&design).expect("lowering"))).expect("mapping");
        let device = device_for(params, &[&netlist], 0.5);
        let placement =
            place(&device, &netlist, &PlacerOptions { seed }).expect("generated design places");
        prop_assert_eq!(
            placement.wirelength(),
            placement_wirelength(&device, &netlist, &placement)
        );
    }
}
