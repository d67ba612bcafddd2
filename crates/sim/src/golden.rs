//! The reusable golden reference of a fault-injection campaign.
//!
//! Every fault experiment replays the same stimulus and compares against the
//! same fault-free trace through the same pad-voting output grouping. Those
//! three values are a pure function of `(netlist, cycles, seed)` — this
//! module bundles them into one immutable, `Arc`-shareable artifact so that
//! campaign engines, streaming sessions and the facade's artifact cache can
//! compute them once and reuse them across campaigns over the same design.

use crate::{FaultOverlay, OutputGroups, SimError, SimTrace, Simulator, Stimulus};
use tmr_netlist::Netlist;

/// A precomputed golden (fault-free) reference run: the stimulus, the trace
/// it produces on the unfaulted design, and the output grouping used to
/// compare faulty traces against it.
///
/// The type is immutable after construction and therefore `Sync`; campaign
/// engines accept it behind an `Arc` to skip recomputing the golden
/// simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    stimulus: Stimulus,
    trace: SimTrace,
    groups: OutputGroups,
    /// The seed [`GoldenRun::compute`] derived the stimulus from, recorded
    /// so campaign engines can verify an injected golden run matches their
    /// options.
    stimulus_seed: u64,
}

impl GoldenRun {
    /// Simulates the fault-free design for `cycles` cycles of the
    /// deterministic pseudo-random stimulus derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist cannot be levelized
    /// (combinational loop).
    pub fn compute(netlist: &Netlist, cycles: usize, seed: u64) -> Result<Self, SimError> {
        let simulator = Simulator::new(netlist)?;
        let stimulus = Stimulus::random(netlist, cycles, seed);
        let trace = simulator.run_stimulus(&stimulus, &FaultOverlay::none());
        let groups = OutputGroups::new(netlist);
        Ok(Self {
            stimulus,
            trace,
            groups,
            stimulus_seed: seed,
        })
    }

    /// Reassembles the run [`GoldenRun::compute`] made from stimulus `seed`
    /// — the codec in `tmr-store` uses this so a decoded golden run is
    /// indistinguishable from the call that produced it.
    pub fn from_parts(
        stimulus: Stimulus,
        trace: SimTrace,
        groups: OutputGroups,
        stimulus_seed: u64,
    ) -> Self {
        Self {
            stimulus,
            trace,
            groups,
            stimulus_seed,
        }
    }

    /// The replayable input stimulus.
    pub fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// The fault-free output trace.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// The pad-voting output grouping.
    pub fn groups(&self) -> &OutputGroups {
        &self.groups
    }

    /// Number of stimulus cycles.
    pub fn cycles(&self) -> usize {
        self.stimulus.cycles()
    }

    /// The seed the stimulus was derived from.
    pub fn stimulus_seed(&self) -> u64 {
        self.stimulus_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_netlist::CellKind;

    #[test]
    fn golden_run_is_deterministic_and_replayable() {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_cell("u", CellKind::Lut { k: 2, init: 0b1000 }, vec![a, b], y)
            .unwrap();
        nl.add_output("y", y);

        let golden = GoldenRun::compute(&nl, 8, 3).unwrap();
        assert_eq!(golden.cycles(), 8);
        assert_eq!(golden, GoldenRun::compute(&nl, 8, 3).unwrap());
        // Replaying the stimulus reproduces the stored trace exactly.
        let simulator = Simulator::new(&nl).unwrap();
        let replay = simulator.run_stimulus(golden.stimulus(), &FaultOverlay::none());
        assert_eq!(&replay, golden.trace());
    }
}
