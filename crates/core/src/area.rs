//! Area and performance estimation of mapped netlists (Table 2 columns).
//!
//! Estimates are computed from the technology-mapped netlist (LUT4 + DFF +
//! IOB cells) using the slice organisation of the `tmr-arch` device model
//! (two LUTs and two flip-flops per slice) and a unit-delay timing model.
//! Absolute numbers differ from the Xilinx ISE figures of the paper — our
//! fabric has no carry chains — but the relative ordering between TMR
//! variants is preserved, which is what Table 2 is used for.

use tmr_netlist::Netlist;

/// Per-LUT delay (logic + local routing) of the timing model, in nanoseconds.
const LUT_DELAY_NS: f64 = 1.1;
/// Fixed clock overhead (clock-to-out + setup + global routing), in nanoseconds.
const CLOCK_OVERHEAD_NS: f64 = 2.5;

/// Estimated FPGA resources and performance of a mapped netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimate {
    /// Number of 4-input LUTs (constant generators included).
    pub luts: usize,
    /// Number of flip-flops.
    pub flip_flops: usize,
    /// Number of I/O buffers (bonded IOBs).
    pub io_buffers: usize,
    /// Estimated slice count (2 LUTs + 2 FFs per slice).
    pub slices: usize,
    /// Combinational logic depth in LUT levels.
    pub logic_depth: usize,
    /// Estimated maximum clock frequency in MHz.
    pub fmax_mhz: f64,
}

/// Estimates the resources and performance of a technology-mapped netlist.
///
/// # Panics
///
/// Panics if the netlist contains a combinational loop (mapped designs
/// produced by the `tmr-synth` flow never do).
pub fn estimate_resources(netlist: &Netlist) -> ResourceEstimate {
    let stats = netlist.stats();
    let luts = stats.luts + stats.constants;
    let flip_flops = stats.flip_flops;
    let slices = usize::max(luts.div_ceil(2), flip_flops.div_ceil(2));
    let logic_depth = netlist.logic_depth().expect("mapped netlists are acyclic");
    let critical_path = CLOCK_OVERHEAD_NS + logic_depth as f64 * LUT_DELAY_NS;
    let fmax_mhz = 1000.0 / critical_path;
    ResourceEstimate {
        luts,
        flip_flops,
        io_buffers: stats.io_buffers,
        slices,
        logic_depth,
        fmax_mhz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_netlist::CellKind;

    fn two_level_netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_cell("l1", CellKind::Lut { k: 2, init: 0b1000 }, vec![a, b], x)
            .unwrap();
        nl.add_cell("l2", CellKind::Lut { k: 2, init: 0b0110 }, vec![x, b], y)
            .unwrap();
        nl.add_cell("ff", CellKind::Dff { init: false }, vec![y], q)
            .unwrap();
        nl.add_output("q", q);
        nl
    }

    #[test]
    fn counts_and_depth() {
        let estimate = estimate_resources(&two_level_netlist());
        assert_eq!(estimate.luts, 2);
        assert_eq!(estimate.flip_flops, 1);
        assert_eq!(estimate.slices, 1);
        assert_eq!(estimate.logic_depth, 2);
        assert!(estimate.fmax_mhz > 0.0);
    }

    #[test]
    fn deeper_logic_is_slower() {
        let shallow = estimate_resources(&two_level_netlist());
        // Chain four more LUTs.
        let mut nl = two_level_netlist();
        let mut prev = nl
            .find_port("a", tmr_netlist::PortDir::Input)
            .unwrap()
            .1
            .net;
        for i in 0..4 {
            let next = nl.add_net(format!("c{i}"));
            nl.add_cell(
                format!("chain{i}"),
                CellKind::Lut { k: 1, init: 0b01 },
                vec![prev],
                next,
            )
            .unwrap();
            prev = next;
        }
        nl.add_output("deep", prev);
        let deep = estimate_resources(&nl);
        assert!(deep.logic_depth > shallow.logic_depth);
        assert!(deep.fmax_mhz < shallow.fmax_mhz);
    }

    #[test]
    fn slices_are_limited_by_flip_flops_too() {
        let mut nl = Netlist::new("ffheavy");
        let a = nl.add_input("a");
        let mut prev = a;
        for i in 0..8 {
            let q = nl.add_net(format!("q{i}"));
            nl.add_cell(
                format!("ff{i}"),
                CellKind::Dff { init: false },
                vec![prev],
                q,
            )
            .unwrap();
            prev = q;
        }
        nl.add_output("y", prev);
        let estimate = estimate_resources(&nl);
        assert_eq!(estimate.flip_flops, 8);
        assert_eq!(estimate.slices, 4);
    }
}
