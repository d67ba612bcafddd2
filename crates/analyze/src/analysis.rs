//! The whole-bitstream static criticality analysis.

use crate::verdict::domain_bit;
use crate::{CriticalityReport, Verdict};
use std::collections::BTreeMap;
use tmr_arch::{BitCategory, Device};
use tmr_faultsim::{classify_touch, FaultClass, Touch};
use tmr_netlist::{Domain, Netlist};
use tmr_pnr::RoutedDesign;
use tmr_sim::OutputGroups;

/// The result of statically analyzing every configuration bit of a routed
/// design.
///
/// [`StaticAnalysis::run`] walks the complete configuration space — not a
/// random sample — and classifies each bit with `tmr-faultsim`'s
/// classification rules ([`classify_touch`]) used *purely structurally*:
/// no fault overlay is built or simulated, only the TMR domains of what the
/// flip touches (a cell, the sinks below an opened PIP, shorted or victim
/// nets) are inspected. This gives exhaustive coverage of the
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
    verdicts: Vec<Verdict>,
    classes: Vec<FaultClass>,
    /// The *exact* affected-domain set of each bit, as a [`domain_bit`]
    /// mask — verdicts are lossy (`SingleDomain` keeps only the least
    /// protected domain), so cluster merging works on these instead.
    domain_masks: Vec<u8>,
    design_related: usize,
    voted_tmr: bool,
    observable: Vec<usize>,
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
    /// Only the design-related bits are classified. Any other bit touches
    /// nothing, so it is benign, and its class follows from its category
    /// alone: a LUT bit's is `Lut`, a flip-flop bit's `Initialization`, a
    /// CLB-customization bit's `Mux` and a general-routing bit's `Others`.
    pub fn run(device: &Device, routed: &RoutedDesign) -> Self {
        let mut trace_span = tmr_trace::span("analyze.static");
        let netlist = routed.netlist();
        let voted_tmr = outputs_fully_voted(netlist) && merging_confined_to_voters(netlist);
        let layout = device.config_layout();
        let bit_count = layout.bit_count();
        trace_span.attr("design", netlist.name());
        trace_span.attr("bits", bit_count);

        let tables = DomainTables::new(device, routed);
        let related = routed.design_related_bits(device);
        let design_related = related.len();
        // Every bit starts untouched; the design-related ones are then
        // classified.
        let mut classes: Vec<FaultClass> = (0..bit_count)
            .map(|bit| untouched_class(layout.category_at(bit)))
            .collect();
        let mut verdicts = vec![Verdict::Benign; bit_count];
        let mut domain_masks = vec![0; bit_count];
        // Only design-related bits touch anything, so this never regrows.
        let mut observable = Vec::with_capacity(design_related);
        for &bit in related {
            let bit = bit as usize;
            let (class, touch) = classify_touch(device, routed, bit);
            let mask = tables.mask(device, touch);
            let verdict = Verdict::from_domain_mask(mask, class);
            if verdict.possibly_observable(voted_tmr) {
                observable.push(bit);
            }
            verdicts[bit] = verdict;
            classes[bit] = class;
            domain_masks[bit] = mask;
        }
        trace_span.attr("observable", observable.len());
        trace_span.attr("design_related", design_related);

        Self {
            design: netlist.name().to_string(),
            verdicts,
            classes,
            domain_masks,
            design_related,
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
        self.verdicts.len()
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

    /// The verdict of one configuration bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the configuration space.
    pub fn verdict(&self, bit: usize) -> Verdict {
        self.verdicts[bit]
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
            if self.verdicts[bit] != Verdict::Benign && class.is_none() {
                class = Some(self.classes[bit]);
            }
            mask |= self.domain_masks[bit];
        }
        Verdict::from_domain_mask(mask, class.unwrap_or(self.classes[bits[0]]))
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
    /// redundant domain, with that domain. Empty unless the design satisfies
    /// the structural TMR preconditions ([`StaticAnalysis::voted_tmr`]) —
    /// without them nothing is maskable and nothing may be pruned.
    ///
    /// Handed to [`tmr_faultsim::CampaignBuilder::maskable_domains`] by
    /// [`crate::PruneWith::prune_with`]: the campaign skips a
    /// multi-bit fault only when every behaviour-changing bit carries one
    /// common tag, and degrades conservatively (simulates) for any bit
    /// missing here.
    pub fn maskable_domains(&self) -> impl Iterator<Item = (usize, Domain)> + '_ {
        self.verdicts
            .iter()
            .enumerate()
            .filter_map(move |(bit, verdict)| match *verdict {
                Verdict::SingleDomain(domain) if self.voted_tmr && domain.is_redundant() => {
                    Some((bit, domain))
                }
                _ => None,
            })
    }

    /// All verdicts, indexed by bit.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The sorted list of statically-possibly-observable bits — the
    /// simulation allow-list handed to
    /// [`tmr_faultsim::CampaignBuilder::restrict_to`] (see
    /// [`crate::PruneWith`]).
    pub fn observable_bits(&self) -> &[usize] {
        &self.observable
    }

    /// Aggregates the verdict map into a [`CriticalityReport`].
    pub fn report(&self) -> CriticalityReport {
        let mut benign = 0;
        let mut single_domain: BTreeMap<Domain, usize> = BTreeMap::new();
        let mut crossing: BTreeMap<(Domain, Domain), BTreeMap<FaultClass, usize>> = BTreeMap::new();
        let mut defeating_bits = Vec::new();
        for (bit, verdict) in self.verdicts.iter().enumerate() {
            match *verdict {
                Verdict::Benign => benign += 1,
                Verdict::SingleDomain(domain) => {
                    *single_domain.entry(domain).or_insert(0) += 1;
                }
                Verdict::DomainCrossing { domains, class } => {
                    *crossing
                        .entry(domains)
                        .or_default()
                        .entry(class)
                        .or_insert(0) += 1;
                    defeating_bits.push(bit);
                }
            }
        }
        CriticalityReport {
            design: self.design.clone(),
            total_bits: self.verdicts.len(),
            design_related: self.design_related,
            observable: self.observable.len(),
            voted_tmr: self.voted_tmr,
            benign,
            single_domain,
            crossing,
            defeating_bits,
        }
    }
}

/// The class [`classify_touch`] gives a bit that is not design-related: the
/// bit touches nothing, so its category alone fixes its class.
fn untouched_class(category: BitCategory) -> FaultClass {
    match category {
        BitCategory::LutContents => FaultClass::Lut,
        BitCategory::FlipFlop => FaultClass::Initialization,
        BitCategory::ClbCustomization => FaultClass::Mux,
        BitCategory::GeneralRouting => FaultClass::Others,
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

    /// Every bit, design-related or not, gets the class, domain mask and
    /// verdict that classifying it gives.
    #[test]
    fn bits_outside_the_design_get_the_classification_they_would_get() {
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let routed = implement(&design, &device, 5);
        let analysis = StaticAnalysis::run(&device, &routed);
        let tables = DomainTables::new(&device, &routed);
        let mut touched = 0;
        for bit in 0..analysis.bit_count() {
            let (class, touch) = classify_touch(&device, &routed, bit);
            let mask = tables.mask(&device, touch);
            assert_eq!(
                (
                    analysis.classes[bit],
                    analysis.domain_masks[bit],
                    analysis.verdict(bit)
                ),
                (class, mask, Verdict::from_domain_mask(mask, class)),
                "bit {bit}"
            );
            touched += usize::from(touch != Touch::Nothing);
        }
        assert!(touched > 0 && touched <= analysis.design_related());
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
