//! The whole-bitstream static criticality analysis.

use crate::verdict::domain_bit;
use crate::{CriticalityReport, Verdict};
use std::collections::BTreeMap;
use tmr_arch::Device;
use tmr_faultsim::{classify_touch, FaultClass, Touch};
use tmr_netlist::{Domain, Netlist};
use tmr_pnr::RoutedDesign;
use tmr_sim::OutputGroups;

/// The result of statically analyzing every configuration bit of a routed
/// design.
///
/// [`StaticAnalysis::run`] covers the complete configuration space — not a
/// random sample. It classifies the design-related bits with
/// `tmr-faultsim`'s rules ([`classify_touch`]) used *purely structurally*:
/// no fault overlay is built or simulated, only the TMR domains of what the
/// flip touches (a cell, the sinks below an opened PIP, shorted or victim
/// nets) are inspected, and it keeps the bits whose flip affects some
/// domain; every other bit is benign. This gives exhaustive coverage of the
/// domain-crossing bits (the paper's voter-defeating upsets) at a few tens
/// of nanoseconds per bit, where the dynamic campaign pays a full
/// multi-cycle simulation per sampled bit.
///
/// # Soundness preconditions
///
/// A fault confined to one *redundant* domain is only guaranteed maskable
/// when the design is structurally a voted TMR circuit. `run` checks two
/// conditions and records the conjunction as [`StaticAnalysis::voted_tmr`]:
///
/// 1. **pad-voted outputs** — every word-level output bit is a triple whose
///    members carry all three redundant domains (the paper's "voters in the
///    output logic block"), and
/// 2. **voter-confined merging** — every cell that reads a net of a redundant
///    domain different from its own output's domain is tagged
///    [`Domain::Voter`] (majority voters are the only cross-domain readers
///    the TMR transformation produces).
///
/// When either check fails the analysis degrades conservatively: single-
/// domain faults are treated as observable, so pruning never skips a
/// simulation it cannot justify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticAnalysis {
    design: String,
    bit_count: usize,
    /// The bits whose flip affects some domain, in bit order.
    touched: Vec<Touched>,
    design_related: usize,
    voted_tmr: bool,
    observable: Vec<usize>,
}

/// One bit whose flip affects some domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Touched {
    bit: u32,
    /// The *exact* affected-domain set as a non-zero [`domain_bit`] mask,
    /// which cluster merging reads: a `SingleDomain` verdict is lossy.
    mask: u8,
    class: FaultClass,
}

impl Touched {
    fn verdict(&self) -> Verdict {
        Verdict::from_domain_mask(self.mask, self.class)
    }
}

impl StaticAnalysis {
    /// Analyzes every configuration bit of `routed` on `device`.
    ///
    /// The per-run tables are built once: each net's domain, each cell's
    /// domain with its output's, and each routing-tree node's mask of the
    /// domains the sinks below it read. The pass over the bits then reads
    /// [`classify_touch`] and those arrays only, allocating and hashing
    /// nothing per bit. Each bit's domain mask is exactly the set
    /// [`tmr_faultsim::BitEffect::affected_domains`] derives from
    /// [`tmr_faultsim::classify_bit`]'s overlay.
    ///
    /// Only the design-related bits are classified, and only those whose
    /// mask is non-empty are kept: every other bit is benign.
    pub fn run(device: &Device, routed: &RoutedDesign) -> Self {
        let mut trace_span = tmr_trace::span("analyze.static");
        let netlist = routed.netlist();
        let voted_tmr = outputs_fully_voted(netlist) && merging_confined_to_voters(netlist);
        let bit_count = device.config_layout().bit_count();
        trace_span.attr("design", netlist.name());
        trace_span.attr("bits", bit_count);

        let tables = DomainTables::new(device, routed);
        let related = routed.design_related_bits(device);
        let mut touched = Vec::new();
        // Only design-related bits touch anything, so this never regrows.
        let mut observable = Vec::with_capacity(related.len());
        for &bit in related {
            let (class, touch) = classify_touch(device, routed, bit as usize);
            let mask = tables.mask(device, touch);
            if mask == 0 {
                continue;
            }
            let record = Touched { bit, mask, class };
            if record.verdict().possibly_observable(voted_tmr) {
                observable.push(bit as usize);
            }
            touched.push(record);
        }
        trace_span.attr("observable", observable.len());
        trace_span.attr("design_related", related.len());

        Self {
            design: netlist.name().to_string(),
            bit_count,
            touched,
            design_related: related.len(),
            voted_tmr,
            observable,
        }
    }

    /// Name of the analyzed design.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Number of analyzed configuration bits (the whole configuration space).
    pub fn bit_count(&self) -> usize {
        self.bit_count
    }

    /// Number of design-related bits (the dynamic campaign's fault list).
    pub fn design_related(&self) -> usize {
        self.design_related
    }

    /// Whether the design satisfied the structural TMR preconditions (see the
    /// type-level documentation); only then are single-redundant-domain
    /// faults excluded from the observable set.
    pub fn voted_tmr(&self) -> bool {
        self.voted_tmr
    }

    /// The record of `bit` if its flip affects some domain; panics if `bit`
    /// is outside the configuration space.
    fn record(&self, bit: usize) -> Option<&Touched> {
        assert!(
            bit < self.bit_count,
            "bit {bit} is outside the configuration space"
        );
        let found = self.touched.binary_search_by_key(&bit, |t| t.bit as usize);
        found.ok().map(|index| &self.touched[index])
    }

    /// The verdict of one configuration bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the configuration space.
    pub fn verdict(&self, bit: usize) -> Verdict {
        self.record(bit).map_or(Verdict::Benign, Touched::verdict)
    }

    /// The merged verdict of a multi-bit fault (an MBU cluster, or the
    /// upsets accumulated over one scrub interval): the per-bit *exact*
    /// affected-domain sets are unioned and re-judged, so two bits each
    /// confined to a *different* single redundant domain correctly merge
    /// into [`Verdict::DomainCrossing`] — the accumulation failure mode a
    /// per-bit view cannot see. The union works on the recorded domain sets,
    /// not the per-bit verdicts (a `SingleDomain(Voter)` verdict may hide a
    /// co-affected redundant domain behind its least-protected-wins
    /// precedence). The effect class of the merged verdict is the class of
    /// the first non-benign component.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or any bit is outside the configuration
    /// space.
    pub fn verdict_for_fault(&self, bits: &[usize]) -> Verdict {
        assert!(!bits.is_empty(), "a fault flips at least one bit");
        let mut mask = 0u8;
        let mut class: Option<FaultClass> = None;
        for &bit in bits {
            if let Some(record) = self.record(bit) {
                mask |= record.mask;
                class.get_or_insert(record.class);
            }
        }
        class.map_or(Verdict::Benign, |class| {
            Verdict::from_domain_mask(mask, class)
        })
    }

    /// Whether a multi-bit fault could be observable at the voted outputs —
    /// [`Verdict::possibly_observable`] of [`StaticAnalysis::verdict_for_fault`]
    /// under this design's structural preconditions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or any bit is outside the configuration
    /// space.
    pub fn fault_possibly_observable(&self, bits: &[usize]) -> bool {
        self.verdict_for_fault(bits)
            .possibly_observable(self.voted_tmr)
    }

    /// The single-domain tags justifying multi-bit campaign pruning: every
    /// statically *non-observable* bit that is confined to exactly one
    /// redundant domain, with that domain, in bit order. Empty unless the
    /// design satisfies the structural TMR preconditions
    /// ([`StaticAnalysis::voted_tmr`]) — without them nothing is maskable
    /// and nothing may be pruned.
    ///
    /// Handed to [`tmr_faultsim::CampaignBuilder::maskable_domains`] by
    /// [`crate::PruneWith::prune_with`]: the campaign skips a
    /// multi-bit fault only when every behaviour-changing bit carries one
    /// common tag, and degrades conservatively (simulates) for any bit
    /// missing here.
    pub fn maskable_domains(&self) -> impl Iterator<Item = (usize, Domain)> + '_ {
        self.touched
            .iter()
            .filter_map(move |record| match record.verdict() {
                Verdict::SingleDomain(domain) if self.voted_tmr && domain.is_redundant() => {
                    Some((record.bit as usize, domain))
                }
                _ => None,
            })
    }

    /// The sorted list of statically-possibly-observable bits — the
    /// simulation allow-list handed to
    /// [`tmr_faultsim::CampaignBuilder::restrict_to`] (see
    /// [`crate::PruneWith`]).
    pub fn observable_bits(&self) -> &[usize] {
        &self.observable
    }

    /// Aggregates the verdicts into a [`CriticalityReport`].
    pub fn report(&self) -> CriticalityReport {
        let mut single_domain: BTreeMap<Domain, usize> = BTreeMap::new();
        let mut crossing: BTreeMap<(Domain, Domain), BTreeMap<FaultClass, usize>> = BTreeMap::new();
        let mut defeating_bits = Vec::new();
        for record in &self.touched {
            match record.verdict() {
                Verdict::Benign => unreachable!("a recorded bit affects some domain"),
                Verdict::SingleDomain(domain) => {
                    *single_domain.entry(domain).or_insert(0) += 1;
                }
                Verdict::DomainCrossing { domains, class } => {
                    *crossing
                        .entry(domains)
                        .or_default()
                        .entry(class)
                        .or_insert(0) += 1;
                    defeating_bits.push(record.bit as usize);
                }
            }
        }
        CriticalityReport {
            design: self.design.clone(),
            total_bits: self.bit_count,
            design_related: self.design_related,
            observable: self.observable.len(),
            voted_tmr: self.voted_tmr,
            benign: self.bit_count - self.touched.len(),
            single_domain,
            crossing,
            defeating_bits,
        }
    }
}

/// The per-run tables that turn what a flip touches ([`Touch`]) into its
/// exact affected-domain mask.
struct DomainTables {
    /// The domain bit of each net.
    net: Vec<u8>,
    /// Each cell's own domain with its output net's: an upset inside a
    /// voter LUT is never mistaken for a plain redundant-domain fault.
    cell: Vec<u8>,
    /// Each routing node's mask of the domains the tree sinks at or below it
    /// read: what opening the PIP that enters the node disconnects.
    below: Vec<u8>,
}

impl DomainTables {
    fn new(device: &Device, routed: &RoutedDesign) -> Self {
        let netlist = routed.netlist();
        let net: Vec<u8> = netlist
            .nets()
            .map(|(_, net)| domain_bit(net.domain))
            .collect();
        let cell = netlist
            .cells()
            .map(|(_, cell)| domain_bit(cell.domain) | net[cell.output.index()])
            .collect();

        // Each non-source tree node is entered by exactly one tree PIP, and
        // trees share no node: one parent table serves every tree.
        const NO_PARENT: u32 = u32::MAX;
        let mut parent = vec![NO_PARENT; device.node_count()];
        for (_, tree) in routed.routes() {
            for &pip in &tree.pips {
                let (src, dst) = device.pip_endpoints(pip);
                parent[dst.index()] = src.index() as u32;
            }
        }
        // Carry each sink's domain up its path. A node that already holds
        // the bit got it from a walk that reached the source, so the walk
        // stops there.
        let mut below = vec![0u8; device.node_count()];
        for (_, tree) in routed.routes() {
            for &(sink, cell, pin) in &tree.sinks {
                let bit = net[netlist.cell(cell).inputs[pin].index()];
                let mut node = sink.index();
                while below[node] & bit == 0 {
                    below[node] |= bit;
                    match parent[node] {
                        NO_PARENT => break,
                        up => node = up as usize,
                    }
                }
            }
        }
        Self { net, cell, below }
    }

    /// The affected-domain mask of one flip.
    fn mask(&self, device: &Device, touch: Touch) -> u8 {
        match touch {
            Touch::Nothing => 0,
            Touch::Lut { cell, .. } | Touch::FfInit { cell, .. } => self.cell[cell.index()],
            Touch::Open { pip, .. } => self.below[device.pip_endpoints(pip).1.index()],
            Touch::Short { a, b } => self.net[a.index()] | self.net[b.index()],
            Touch::Antenna { victim } => self.net[victim.index()],
        }
    }
}

/// Checks that every word-level output bit is a pad-voted triple covering all
/// three redundant domains.
fn outputs_fully_voted(netlist: &Netlist) -> bool {
    let port_domains: Vec<Domain> = netlist
        .output_ports()
        .map(|(_, port)| netlist.net(port.net).domain)
        .collect();
    if port_domains.is_empty() {
        return false;
    }
    let groups = OutputGroups::new(netlist);
    let fully_voted = groups.groups().all(|(_, _, members)| {
        members.len() == 3
            && members
                .iter()
                .filter_map(|&member| port_domains[member].redundant_index())
                .fold([false; 3], |mut seen, index| {
                    seen[index] = true;
                    seen
                })
                .iter()
                .all(|&s| s)
    });
    fully_voted
}

/// Checks that every cross-domain reader of a redundant-domain net is a
/// majority voter.
fn merging_confined_to_voters(netlist: &Netlist) -> bool {
    netlist.cells().all(|(_, cell)| {
        let output_domain = netlist.net(cell.output).domain;
        cell.inputs.iter().all(|&input| {
            let domain = netlist.net(input).domain;
            !domain.is_redundant() || domain == output_domain || cell.domain == Domain::Voter
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_arch::DeviceParams;
    use tmr_core::{apply_tmr, TmrConfig};
    use tmr_designs::counter;
    use tmr_faultsim::classify_bit;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap, Design};

    fn implement(design: &Design, device: &Device, seed: u64) -> RoutedDesign {
        let netlist = techmap(&optimize(&lower(design).unwrap())).unwrap();
        place_and_route(device, &netlist, seed).unwrap()
    }

    #[test]
    fn tmr_counter_satisfies_the_structural_preconditions() {
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let routed = implement(&design, &device, 5);
        let analysis = StaticAnalysis::run(&device, &routed);
        assert!(analysis.voted_tmr());
        assert_eq!(analysis.bit_count(), device.config_layout().bit_count());
        assert!(analysis.design_related() > 0);
        assert!(analysis.design_related() < analysis.bit_count());
        // The observable set is a strict subset of the design-related bits:
        // single-redundant-domain faults are voted out.
        assert!(analysis.observable_bits().len() < analysis.design_related());
        assert!(!analysis.report().defeating_bits.is_empty());
        assert!(analysis.design().contains("counter"));
    }

    /// Every bit's verdict is the one classifying it gives, and exactly the
    /// bits whose flip affects some domain are recorded, with their exact
    /// domain mask and class.
    #[test]
    fn records_hold_exactly_the_bits_classifying_finds_affecting_a_domain() {
        let lean = DeviceParams {
            tracks: 8,
            out_pin_candidates: 4,
            in_pin_candidates: 2,
            sb_same_tile: 2,
            sb_neighbor: 2,
            ..DeviceParams::small(8, 8)
        };
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        for params in [DeviceParams::small(8, 8), lean] {
            let device = Device::new(params);
            let routed = implement(&design, &device, 5);
            let analysis = StaticAnalysis::run(&device, &routed);
            let tables = DomainTables::new(&device, &routed);
            let mut records = analysis.touched.iter();
            for bit in 0..analysis.bit_count() {
                let (class, touch) = classify_touch(&device, &routed, bit);
                let mask = tables.mask(&device, touch);
                let verdict = Verdict::from_domain_mask(mask, class);
                assert_eq!(analysis.verdict(bit), verdict, "bit {bit}");
                if mask != 0 {
                    let expected = Touched {
                        bit: bit as u32,
                        mask,
                        class,
                    };
                    assert_eq!(records.next(), Some(&expected), "bit {bit}");
                }
            }
            assert_eq!(records.next(), None, "every record is a classified bit");
            assert!(!analysis.touched.is_empty(), "{params:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn the_verdict_of_a_bit_past_the_configuration_space_panics() {
        let device = Device::small(5, 5);
        let analysis = StaticAnalysis::run(&device, &implement(&counter(4), &device, 5));
        analysis.verdict(analysis.bit_count());
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn the_verdict_of_a_fault_past_the_configuration_space_panics() {
        let device = Device::small(5, 5);
        let analysis = StaticAnalysis::run(&device, &implement(&counter(4), &device, 5));
        analysis.verdict_for_fault(&[analysis.bit_count()]);
    }

    #[test]
    fn unprotected_counter_is_not_a_voted_tmr_design() {
        let device = Device::small(5, 5);
        let routed = implement(&counter(4), &device, 5);
        let analysis = StaticAnalysis::run(&device, &routed);
        assert!(!analysis.voted_tmr());
        // Without the preconditions every non-benign bit stays observable and
        // no bit crosses domains (there is only one domain).
        assert!(analysis.report().defeating_bits.is_empty());
        for &bit in analysis.observable_bits() {
            assert_ne!(analysis.verdict(bit), Verdict::Benign);
        }
    }

    #[test]
    fn cluster_verdicts_merge_accumulated_single_domains_into_crossings() {
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let routed = implement(&design, &device, 5);
        let analysis = StaticAnalysis::run(&device, &routed);
        assert!(analysis.voted_tmr());

        let tags: Vec<(usize, Domain)> = analysis.maskable_domains().collect();
        assert!(!tags.is_empty(), "a voted TMR design has maskable bits");
        for &(bit, domain) in &tags {
            assert_eq!(analysis.verdict(bit), Verdict::SingleDomain(domain));
            assert!(domain.is_redundant());
            assert!(!analysis.fault_possibly_observable(&[bit]));
        }

        // Two individually maskable bits of *different* domains merge into a
        // TMR-defeating crossing: the accumulation failure mode.
        let tr0 = tags.iter().find(|(_, d)| *d == Domain::Tr0).unwrap().0;
        let tr1 = tags.iter().find(|(_, d)| *d == Domain::Tr1).unwrap().0;
        let merged = analysis.verdict_for_fault(&[tr0, tr1]);
        assert!(merged.may_defeat_tmr(), "got {merged}");
        assert!(analysis.fault_possibly_observable(&[tr0, tr1]));

        // Two maskable bits of the *same* domain stay maskable together.
        let same: Vec<usize> = tags
            .iter()
            .filter(|(_, d)| *d == Domain::Tr2)
            .take(2)
            .map(|&(bit, _)| bit)
            .collect();
        assert_eq!(same.len(), 2);
        assert_eq!(
            analysis.verdict_for_fault(&same),
            Verdict::SingleDomain(Domain::Tr2)
        );
        assert!(!analysis.fault_possibly_observable(&same));

        // Benign bits never change a merged verdict.
        let benign = (0..analysis.bit_count())
            .find(|&bit| analysis.verdict(bit) == Verdict::Benign)
            .unwrap();
        assert_eq!(
            analysis.verdict_for_fault(&[benign, tr0]),
            analysis.verdict_for_fault(&[tr0])
        );
        assert_eq!(analysis.verdict_for_fault(&[benign]), Verdict::Benign);

        // Singleton merges reproduce the per-bit verdict exactly: the stored
        // domain masks are the exact affected sets, not a verdict round-trip.
        for bit in (0..analysis.bit_count()).step_by(197) {
            assert_eq!(analysis.verdict_for_fault(&[bit]), analysis.verdict(bit));
        }

        // A SingleDomain(Voter) verdict can hide a co-affected redundant
        // domain behind its least-protected-wins precedence; the merge must
        // see through it: such a bit clustered with a *different* redundant
        // domain is TMR-defeating.
        let hiding = (0..analysis.bit_count()).find_map(|bit| {
            if analysis.verdict(bit) != Verdict::SingleDomain(Domain::Voter) {
                return None;
            }
            let affected = classify_bit(&device, &routed, bit).affected_domains(&routed);
            let hidden = affected.iter().copied().find(|d| d.is_redundant())?;
            Some((bit, hidden))
        });
        if let Some((bit, hidden)) = hiding {
            let other = tags
                .iter()
                .find(|(_, domain)| *domain != hidden)
                .map(|&(tagged, _)| tagged)
                .expect("three redundant domains are tagged");
            assert!(
                analysis.verdict_for_fault(&[bit, other]).may_defeat_tmr(),
                "the hidden redundant domain of bit {bit} must surface in the merge"
            );
        }
    }

    #[test]
    fn unprotected_designs_have_no_maskable_tags() {
        let device = Device::small(5, 5);
        let routed = implement(&counter(4), &device, 5);
        let analysis = StaticAnalysis::run(&device, &routed);
        assert!(!analysis.voted_tmr());
        assert_eq!(analysis.maskable_domains().count(), 0);
    }

    #[test]
    fn defeating_bits_are_exactly_the_domain_crossing_verdicts() {
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p3()).unwrap();
        let routed = implement(&design, &device, 5);
        let analysis = StaticAnalysis::run(&device, &routed);
        let report = analysis.report();
        for &bit in &report.defeating_bits {
            assert!(analysis.verdict(bit).may_defeat_tmr());
            assert!(
                analysis.observable_bits().binary_search(&bit).is_ok(),
                "critical bits are always observable"
            );
        }
        assert_eq!(
            report.benign
                + report.single_domain.values().sum::<usize>()
                + report.defeating_bits.len(),
            report.total_bits
        );
    }
}
