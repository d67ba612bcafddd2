//! Campaign pruning: restricting the dynamic campaign to the statically
//! observable bits.

use crate::StaticAnalysis;
use tmr_faultsim::CampaignBuilder;

/// Extension trait wiring a [`StaticAnalysis`] into a
/// [`tmr_faultsim::CampaignBuilder`].
///
/// `tmr-faultsim` cannot depend on `tmr-analyze` (the analyzer is built on
/// top of it), so the pruning entry point lives here: `prune_with` hands the
/// analyzer's observable set to [`CampaignBuilder::restrict_to`] and its
/// single-domain tags to [`CampaignBuilder::maskable_domains`].
pub trait PruneWith {
    /// Restricts simulation to the statically-possibly-observable bits of
    /// `analysis`.
    ///
    /// The sampled fault population is unchanged — the same faults are
    /// drawn, classified and recorded — but only faults the static analysis
    /// cannot rule out are simulated. Under a multi-bit fault model
    /// ([`tmr_faultsim::FaultModel`]) a fault is pruned only when *every*
    /// behaviour-changing bit of its cluster is non-observable **and**
    /// confined to one common redundant domain (the analyzer's
    /// [`StaticAnalysis::maskable_domains`] tags); a cluster whose bits
    /// span two domains — individually maskable, jointly TMR-defeating — is
    /// always simulated, as is any cluster containing an unclassifiable
    /// bit. For a sound analysis the pruned campaign's outcomes are
    /// therefore *identical* to the unpruned ones (the skipped simulations
    /// would all have reported no mismatch), which the integration tests
    /// assert on the paper designs under every fault model.
    #[must_use]
    fn prune_with(self, analysis: &StaticAnalysis) -> Self;
}

impl PruneWith for CampaignBuilder {
    fn prune_with(self, analysis: &StaticAnalysis) -> Self {
        self.restrict_to(analysis.observable_bits().iter().copied())
            .maskable_domains(analysis.maskable_domains())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_arch::Device;
    use tmr_core::{apply_tmr, TmrConfig};
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap};

    #[test]
    fn pruned_campaign_matches_unpruned_outcomes_and_simulates_less() {
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let netlist = techmap(&optimize(&lower(&design).unwrap())).unwrap();
        let routed = place_and_route(&device, &netlist, 5).unwrap();

        let analysis = StaticAnalysis::run(&device, &routed);
        assert!(analysis.voted_tmr());

        let campaign = CampaignBuilder::new().faults(600).cycles(10).sequential();
        let unpruned = campaign.clone().run(&device, &routed).unwrap();
        let pruned = campaign
            .prune_with(&analysis)
            .run(&device, &routed)
            .unwrap();

        // Same sampled bits, same classifications, same observed failures.
        assert_eq!(pruned.outcomes, unpruned.outcomes);
        assert!(
            pruned.simulated < unpruned.simulated,
            "pruning must skip simulations ({} vs {})",
            pruned.simulated,
            unpruned.simulated
        );
        assert!(pruned.simulated <= analysis.observable_bits().len());
    }
}
