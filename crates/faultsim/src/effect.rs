//! Translation of a flipped configuration bit into its fault class and its
//! structural effect on the routed design.

use std::collections::BTreeSet;
use std::fmt;
use tmr_arch::{BitCategory, ConfigResource, Device, NodeId, PipId, RouteNode};
use tmr_netlist::{CellId, CellKind, Domain, NetId};
use tmr_pnr::RoutedDesign;
use tmr_sim::{FaultOverlay, SinkRef};

/// The effect taxonomy of Tables 1 and 4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// Upset in a LUT truth-table bit (modification of the combinational logic).
    Lut,
    /// Upset in the CLB customization multiplexers (intra-CLB routing).
    Mux,
    /// Upset in the CLB flip-flop initialisation/configuration bits.
    Initialization,
    /// A used programmable interconnect point opened (general routing).
    Open,
    /// A new PIP bridging two used routing nodes (general routing).
    Bridge,
    /// A new PIP driving a used node from an unused, floating source.
    InputAntenna,
    /// A new PIP creating a second driver on a used site input pin.
    Conflict,
    /// Any other configuration change (unused resources, same-net PIPs, …).
    Others,
}

impl FaultClass {
    /// All classes in the row order of Table 4.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Lut,
        FaultClass::Mux,
        FaultClass::Initialization,
        FaultClass::Open,
        FaultClass::Bridge,
        FaultClass::InputAntenna,
        FaultClass::Conflict,
        FaultClass::Others,
    ];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Lut => "LUT",
            FaultClass::Mux => "MUX",
            FaultClass::Initialization => "Initialization",
            FaultClass::Open => "Open",
            FaultClass::Bridge => "Bridge",
            FaultClass::InputAntenna => "Input-Antenna",
            FaultClass::Conflict => "Conflict",
            FaultClass::Others => "Others",
        }
    }

    /// Returns `true` for the general-routing effects (the lower half of
    /// Table 4).
    pub fn is_general_routing(self) -> bool {
        matches!(
            self,
            FaultClass::Open | FaultClass::Bridge | FaultClass::InputAntenna | FaultClass::Conflict
        )
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The analysed effect of flipping one configuration bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitEffect {
    /// The flipped bit.
    pub bit: usize,
    /// Its classification.
    pub class: FaultClass,
    /// The netlist-level overlay to simulate (empty when the flip cannot
    /// change the configured circuit's behaviour).
    pub overlay: FaultOverlay,
    /// Whether the fault couples two *distinct* redundant TMR domains — the
    /// mechanism the paper identifies as able to defeat TMR.
    pub crosses_domains: bool,
}

impl BitEffect {
    /// The set of TMR domains whose signal copies this fault can corrupt,
    /// derived purely from the structural overlay — no simulation.
    ///
    /// The corruption entry points are the nets named by the overlay: a LUT or
    /// FF override corrupts the cell's output net (and is attributed to the
    /// cell's own domain too, so an upset inside a voter LUT is never mistaken
    /// for a plain redundant-domain fault), an open corrupts the opened net as
    /// seen by the disconnected sink, and bridges/antennas corrupt the shorted
    /// or victim nets. Readers in *other* domains are not listed here: the
    /// static analyzer separately verifies that cross-domain readers are
    /// majority voters (see `tmr-analyze`), which is what makes this set a
    /// sound basis for criticality verdicts.
    ///
    /// An empty set means the flip cannot change the configured circuit's
    /// behaviour.
    pub fn affected_domains(&self, routed: &RoutedDesign) -> BTreeSet<Domain> {
        let netlist = routed.netlist();
        let mut domains = BTreeSet::new();
        for &(cell, _) in &self.overlay.lut_overrides {
            let cell = netlist.cell(cell);
            domains.insert(cell.domain);
            domains.insert(routed.net_domain(cell.output));
        }
        for &(cell, _) in &self.overlay.ff_init_overrides {
            let cell = netlist.cell(cell);
            domains.insert(cell.domain);
            domains.insert(routed.net_domain(cell.output));
        }
        for &sink in &self.overlay.opened_sinks {
            match sink {
                SinkRef::CellPin { cell, pin } => {
                    let net = netlist.cell(cell).inputs[pin];
                    domains.insert(routed.net_domain(net));
                }
                SinkRef::OutputPort(port) => {
                    domains.insert(routed.net_domain(netlist.port(port).net));
                }
            }
        }
        for &(a, b) in &self.overlay.shorted_nets {
            domains.insert(routed.net_domain(a));
            domains.insert(routed.net_domain(b));
        }
        for &net in &self.overlay.corrupted_nets {
            domains.insert(routed.net_domain(net));
        }
        domains
    }
}

/// The analysed effect of one multi-bit fault: the union of the structural
/// effects of its component bit flips, each derived against the pristine
/// configuration (see [`classify_fault`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEffect {
    bits: Vec<usize>,
    class: FaultClass,
    /// The merged overlay for multi-bit faults; `None` for single-bit faults,
    /// whose overlay is the lone component's (no clone on the hot path).
    merged_overlay: Option<FaultOverlay>,
    crosses_domains: bool,
    effects: Vec<BitEffect>,
}

impl FaultEffect {
    /// The flipped bits, in ascending order.
    pub fn bits(&self) -> &[usize] {
        &self.bits
    }

    /// The dominant classification: the class of the lowest flipped bit with
    /// a non-empty structural effect (the lowest bit overall when none has
    /// one).
    pub fn class(&self) -> FaultClass {
        self.class
    }

    /// The merged netlist-level overlay to simulate (empty when no component
    /// flip can change the configured circuit's behaviour).
    pub fn overlay(&self) -> &FaultOverlay {
        self.merged_overlay
            .as_ref()
            .unwrap_or_else(|| &self.effects[0].overlay)
    }

    /// Whether the fault couples two *distinct* redundant TMR domains —
    /// through a single component flip, or because the component flips
    /// together corrupt copies in two different domains (the accumulation
    /// failure mode single-bit campaigns cannot see).
    pub fn crosses_domains(&self) -> bool {
        self.crosses_domains
    }

    /// The per-bit component effects, in [`FaultEffect::bits`] order.
    pub fn effects(&self) -> &[BitEffect] {
        &self.effects
    }

    /// The component bits whose individual flip has a non-empty structural
    /// effect — the bits that matter for observability and pruning.
    pub fn active_bits(&self) -> impl Iterator<Item = usize> + '_ {
        self.effects
            .iter()
            .filter(|effect| !effect.overlay.is_empty())
            .map(|effect| effect.bit)
    }

    /// The union of the component flips' affected TMR domains (see
    /// [`BitEffect::affected_domains`]).
    pub fn affected_domains(&self, routed: &RoutedDesign) -> BTreeSet<Domain> {
        self.effects
            .iter()
            .flat_map(|effect| effect.affected_domains(routed))
            .collect()
    }

    /// Consumes the effect, returning the flipped bits (for outcome
    /// construction without a clone).
    pub fn into_bits(self) -> Vec<usize> {
        self.bits
    }
}

/// Classifies a multi-bit fault — any sorted set of distinct configuration
/// bits flipped together (a geometric MBU cluster, or the upsets accumulated
/// over one scrub interval) — and derives its merged structural effect.
///
/// Every component bit is classified with [`classify_bit`] against the
/// *pristine* configuration and the per-bit overlays are unioned, with two
/// refinements that make the union cumulative where components interact:
///
/// * several truth-table flips of the same LUT are combined into one
///   override carrying all flipped entries (the simulator keeps one override
///   per cell);
/// * several opens on the same routed net walk the route tree once with
///   *all* removed PIPs absent, so sinks only reachable through the
///   combination are correctly disconnected.
///
/// Other cross-bit interactions (e.g. a bridge onto a net another component
/// opened) are approximated by the plain union of their effects.
///
/// For a single-bit fault the result is exactly [`classify_bit`]'s.
///
/// # Panics
///
/// Panics if `bits` is empty or any bit is outside the device's
/// configuration space.
pub fn classify_fault(device: &Device, routed: &RoutedDesign, bits: &[usize]) -> FaultEffect {
    assert!(!bits.is_empty(), "a fault flips at least one bit");
    let effects: Vec<BitEffect> = bits
        .iter()
        .map(|&bit| classify_bit(device, routed, bit))
        .collect();
    if let [effect] = effects.as_slice() {
        return FaultEffect {
            bits: bits.to_vec(),
            class: effect.class,
            merged_overlay: None,
            crosses_domains: effect.crosses_domains,
            effects,
        };
    }

    let class = effects
        .iter()
        .find(|effect| !effect.overlay.is_empty())
        .unwrap_or(&effects[0])
        .class;
    let overlay = merge_overlays(device, routed, bits, &effects);
    let union = effects
        .iter()
        .flat_map(|effect| effect.affected_domains(routed))
        .filter(|domain| domain.is_redundant())
        .collect::<BTreeSet<Domain>>();
    let crosses_domains = effects.iter().any(|effect| effect.crosses_domains) || union.len() >= 2;
    FaultEffect {
        bits: bits.to_vec(),
        class,
        merged_overlay: Some(overlay),
        crosses_domains,
        effects,
    }
}

/// Unions the component overlays of a multi-bit fault, combining same-LUT
/// truth-table flips and recomputing same-net opens cumulatively.
fn merge_overlays(
    device: &Device,
    routed: &RoutedDesign,
    bits: &[usize],
    effects: &[BitEffect],
) -> FaultOverlay {
    let netlist = routed.netlist();
    let mut merged = FaultOverlay::none();

    // Opens: group the removed PIPs by net and re-derive the disconnected
    // sinks with the whole group absent.
    let mut removed_by_net: Vec<(NetId, Vec<PipId>)> = Vec::new();
    for &bit in bits {
        if let (_, Touch::Open { net, pip }) = classify_touch(device, routed, bit) {
            match removed_by_net.iter_mut().find(|(n, _)| *n == net) {
                Some((_, pips)) => pips.push(pip),
                None => removed_by_net.push((net, vec![pip])),
            }
        }
    }
    for (net, removed) in &removed_by_net {
        merged
            .opened_sinks
            .extend(open_overlay(device, routed, *net, removed).opened_sinks);
    }

    for effect in effects {
        for &(cell, value) in &effect.overlay.lut_overrides {
            match merged.lut_overrides.iter_mut().find(|(c, _)| *c == cell) {
                Some(existing) => {
                    // Each component override is `init ^ mask` for a distinct
                    // single-entry mask; the cumulative truth table carries
                    // every flipped entry.
                    if let CellKind::Lut { init, .. } = netlist.cell(cell).kind {
                        existing.1 ^= value ^ init;
                    }
                }
                None => merged.lut_overrides.push((cell, value)),
            }
        }
        for &(cell, value) in &effect.overlay.ff_init_overrides {
            if !merged.ff_init_overrides.contains(&(cell, value)) {
                merged.ff_init_overrides.push((cell, value));
            }
        }
        for &pair in &effect.overlay.shorted_nets {
            if !merged.shorted_nets.contains(&pair) {
                merged.shorted_nets.push(pair);
            }
        }
        for &net in &effect.overlay.corrupted_nets {
            if !merged.corrupted_nets.contains(&net) {
                merged.corrupted_nets.push(net);
            }
        }
    }
    merged
}

/// What flipping one configuration bit touches in the configured circuit,
/// as decided by [`classify_touch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// Nothing the configured circuit uses: an unused resource, an
    /// unexercised LUT entry, a same-net PIP, or a new PIP whose destination
    /// no net uses.
    Nothing,
    /// The truth table of a placed LUT cell changes.
    Lut {
        /// The LUT cell.
        cell: CellId,
        /// Its truth table with the flipped entry.
        init: u64,
    },
    /// The power-up value of a placed flip-flop inverts.
    FfInit {
        /// The flip-flop cell.
        cell: CellId,
        /// Its inverted power-up value.
        init: bool,
    },
    /// A used PIP opens: the sinks of `net` downstream of it lose their
    /// driver.
    Open {
        /// The net whose tree enables the PIP.
        net: NetId,
        /// The opened PIP.
        pip: PipId,
    },
    /// A new PIP shorts two distinct used nets (a bridge or a conflict).
    Short {
        /// The net on the PIP's source node.
        a: NetId,
        /// The net on the PIP's destination node.
        b: NetId,
    },
    /// A new PIP drives a used net from a floating, unused source.
    Antenna {
        /// The net on the PIP's destination node.
        victim: NetId,
    },
}

/// Classifies a configuration bit flip and decides what it touches — the
/// one place the classification rules live, without allocating or hashing.
///
/// [`classify_bit`] builds the simulator's [`FaultOverlay`] from this
/// decision; the static analyzer (`tmr-analyze`) reads it directly for
/// every bit of the configuration memory.
///
/// # Panics
///
/// Panics if `bit` is outside the device's configuration space.
#[inline]
pub fn classify_touch(device: &Device, routed: &RoutedDesign, bit: usize) -> (FaultClass, Touch) {
    let resource = device
        .config_layout()
        .resource_at(bit)
        .expect("bit must be inside the configuration space");
    match resource {
        ConfigResource::LutBit { site, bit: lut_bit } => {
            let mut touch = Touch::Nothing;
            if let Some(cell) = routed.placement().cell_at(site) {
                if let CellKind::Lut { k, init } = routed.netlist().cell(cell).kind {
                    // Unused LUT pins are tied low, so only entries whose
                    // unused-pin bits are zero are ever exercised.
                    let used_mask = (1u8 << k) - 1;
                    if lut_bit & !used_mask == 0 {
                        touch = Touch::Lut {
                            cell,
                            init: init ^ (1 << lut_bit),
                        };
                    }
                }
                // Constant generators (GND/VCC placed on LUT sites) are left
                // unmodelled: their truth-table flips are rare and, in TMR
                // designs, confined to a single domain, so they are treated as
                // functionally silent LUT upsets.
            }
            (FaultClass::Lut, touch)
        }
        ConfigResource::FfInit { site } => {
            let mut touch = Touch::Nothing;
            if let Some(cell) = routed.placement().cell_at(site) {
                if let CellKind::Dff { init } = routed.netlist().cell(cell).kind {
                    touch = Touch::FfInit { cell, init: !init };
                }
            }
            (FaultClass::Initialization, touch)
        }
        ConfigResource::Pip(pip) => classify_pip_touch(device, routed, bit, pip),
    }
}

#[inline]
fn classify_pip_touch(
    device: &Device,
    routed: &RoutedDesign,
    bit: usize,
    pip_id: PipId,
) -> (FaultClass, Touch) {
    let (src, dst) = device.pip_endpoints(pip_id);
    // The bit's category is its PIP's: general routing or CLB customization.
    let general_routing = device.config_layout().category_at(bit) == BitCategory::GeneralRouting;
    let class_for = |routing_class: FaultClass| {
        if general_routing {
            routing_class
        } else {
            FaultClass::Mux
        }
    };

    if routed.bitstream().get(bit) {
        // A used PIP opens: the sinks downstream of it lose their driver.
        // Routed trees share no node, so the PIP's destination names its net.
        let net = routed
            .net_of_node(dst)
            .expect("a set PIP bit belongs to a routed net");
        return (
            class_for(FaultClass::Open),
            Touch::Open { net, pip: pip_id },
        );
    }

    // A new PIP is enabled: a connection from `src` onto `dst` appears.
    match (routed.net_of_node(src), routed.net_of_node(dst)) {
        (Some(a), Some(b)) if a == b => (class_for(FaultClass::Others), Touch::Nothing),
        (Some(a), Some(b)) => {
            let class = if matches!(device.node(dst), RouteNode::InPin { .. }) {
                FaultClass::Conflict
            } else {
                FaultClass::Bridge
            };
            (class_for(class), Touch::Short { a, b })
        }
        (None, Some(victim)) => (
            class_for(FaultClass::InputAntenna),
            Touch::Antenna { victim },
        ),
        (Some(_), None) => (class_for(FaultClass::Bridge), Touch::Nothing),
        (None, None) => (class_for(FaultClass::Others), Touch::Nothing),
    }
}

/// Classifies a configuration bit flip and derives its structural effect:
/// the overlay of [`classify_touch`]'s decision.
///
/// # Panics
///
/// Panics if `bit` is outside the device's configuration space.
pub fn classify_bit(device: &Device, routed: &RoutedDesign, bit: usize) -> BitEffect {
    let (class, touch) = classify_touch(device, routed, bit);
    let overlay = match touch {
        Touch::Nothing => FaultOverlay::none(),
        Touch::Lut { cell, init } => FaultOverlay {
            lut_overrides: vec![(cell, init)],
            ..FaultOverlay::none()
        },
        Touch::FfInit { cell, init } => FaultOverlay {
            ff_init_overrides: vec![(cell, init)],
            ..FaultOverlay::none()
        },
        Touch::Open { net, pip } => open_overlay(device, routed, net, &[pip]),
        Touch::Short { a, b } => FaultOverlay {
            shorted_nets: vec![(a, b)],
            ..FaultOverlay::none()
        },
        Touch::Antenna { victim } => FaultOverlay {
            corrupted_nets: vec![victim],
            ..FaultOverlay::none()
        },
    };
    let crosses_domains = matches!(touch, Touch::Short { a, b }
        if routed.net_domain(a).crosses(routed.net_domain(b)));
    BitEffect {
        bit,
        class,
        overlay,
        crosses_domains,
    }
}

/// Builds the overlay of an *Open*: every sink of `net` whose path from the
/// source runs through a PIP of `removed_pips` reads `X` (a single-bit open
/// removes one PIP; accumulated faults can remove several from the same
/// tree). The opened sinks keep the tree's sink order.
fn open_overlay(
    device: &Device,
    routed: &RoutedDesign,
    net: NetId,
    removed_pips: &[PipId],
) -> FaultOverlay {
    let tree = routed.route_of(net).expect("routed net has a tree");
    // Each non-source tree node is entered by exactly one tree PIP: index
    // them by destination and walk every sink back towards the source.
    let mut entering: Vec<(NodeId, PipId)> = tree
        .pips
        .iter()
        .map(|&pip| (device.pip_endpoints(pip).1, pip))
        .collect();
    entering.sort_unstable();
    let opened_sinks = tree
        .sinks
        .iter()
        .filter(|&&(sink, _, _)| {
            let mut node = sink;
            while let Ok(at) = entering.binary_search_by_key(&node, |&(dst, _)| dst) {
                let pip = entering[at].1;
                if removed_pips.contains(&pip) {
                    return true;
                }
                node = device.pip_endpoints(pip).0;
            }
            // A walk that stops short of the source never reached the sink.
            node != tree.source
        })
        .map(|&(_, cell, pin)| SinkRef::CellPin { cell, pin })
        .collect();
    FaultOverlay {
        opened_sinks,
        ..FaultOverlay::none()
    }
}

/// Convenience: returns `true` for the PIP categories counted as CLB
/// customization by the classifier (exposed for tests and reports).
#[cfg(test)]
pub(crate) fn is_clb_mux_category(category: tmr_arch::PipCategory) -> bool {
    !category.is_general_routing()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tmr_arch::Device;
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap};

    fn routed_counter() -> (Device, RoutedDesign) {
        let device = Device::small(5, 5);
        let netlist = techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap();
        let routed = place_and_route(&device, &netlist, 5).unwrap();
        (device, routed)
    }

    fn routed_tmr_counter() -> (Device, RoutedDesign) {
        use tmr_core::{apply_tmr, TmrConfig};
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let netlist = techmap(&optimize(&lower(&design).unwrap())).unwrap();
        let routed = place_and_route(&device, &netlist, 5).unwrap();
        (device, routed)
    }

    #[test]
    fn set_routing_bits_classify_as_open_and_disconnect_sinks() {
        let (device, routed) = routed_counter();
        let layout = device.config_layout();
        let mut found_open = false;
        for bit in routed.bitstream().iter_ones() {
            if let Some(ConfigResource::Pip(pip)) = layout.resource_at(bit) {
                let effect = classify_bit(&device, &routed, bit);
                if device.pip(pip).category.is_general_routing() {
                    assert_eq!(effect.class, FaultClass::Open);
                } else {
                    assert_eq!(effect.class, FaultClass::Mux);
                }
                found_open = true;
            }
        }
        assert!(found_open, "the routed design must use at least one PIP");
    }

    #[test]
    fn every_class_has_a_stable_label() {
        for class in FaultClass::ALL {
            assert!(!class.label().is_empty());
        }
        assert!(FaultClass::Open.is_general_routing());
        assert!(!FaultClass::Lut.is_general_routing());
    }

    #[test]
    fn lut_bit_flip_produces_an_override_only_for_exercised_entries() {
        let (device, routed) = routed_counter();
        let layout = device.config_layout();
        let mut exercised = 0;
        let mut ignored = 0;
        for bit in 0..layout.bit_count() {
            if let Some(ConfigResource::LutBit { site, bit: lut_bit }) = layout.resource_at(bit) {
                if let Some(cell) = routed.placement().cell_at(site) {
                    if let CellKind::Lut { k, .. } = routed.netlist().cell(cell).kind {
                        let effect = classify_bit(&device, &routed, bit);
                        assert_eq!(effect.class, FaultClass::Lut);
                        if lut_bit & !((1u8 << k) - 1) == 0 {
                            assert!(!effect.overlay.is_empty());
                            exercised += 1;
                        } else {
                            assert!(effect.overlay.is_empty());
                            ignored += 1;
                        }
                    }
                }
            }
        }
        assert!(exercised > 0);
        assert!(ignored > 0, "some LUTs have fewer than 4 used inputs");
    }

    #[test]
    fn new_pip_classification_covers_bridge_antenna_conflict() {
        let (device, routed) = routed_counter();
        let layout = device.config_layout();
        let mut classes_seen: std::collections::BTreeMap<FaultClass, usize> =
            std::collections::BTreeMap::new();
        for bit in 0..layout.bit_count() {
            if let Some(ConfigResource::Pip(pip)) = layout.resource_at(bit) {
                if routed.bitstream().get(bit) {
                    continue;
                }
                if !device.pip(pip).category.is_general_routing() {
                    continue;
                }
                let effect = classify_bit(&device, &routed, bit);
                *classes_seen.entry(effect.class).or_insert(0) += 1;
            }
        }
        // Even a small design must expose bridge and antenna candidates; a
        // conflict needs an unset PIP onto a used pin, which the architecture
        // provides through the extra input-pin candidates.
        assert!(
            classes_seen.contains_key(&FaultClass::Bridge),
            "{classes_seen:?}"
        );
        assert!(
            classes_seen.contains_key(&FaultClass::InputAntenna),
            "{classes_seen:?}"
        );
        assert!(
            classes_seen.contains_key(&FaultClass::Others),
            "{classes_seen:?}"
        );
    }

    #[test]
    fn clb_mux_pips_classify_as_mux() {
        use tmr_arch::PipCategory;
        assert!(is_clb_mux_category(PipCategory::InputMux));
        assert!(!is_clb_mux_category(PipCategory::Switchbox));
        assert!(!is_clb_mux_category(PipCategory::LongInput));
    }

    /// Golden census over the whole configuration space of the routed
    /// 4-bit counter: every one of the eight `FaultClass` variants appears,
    /// and each class obeys its defining structural invariant.
    #[test]
    fn classify_bit_covers_all_eight_classes_with_their_invariants() {
        let (device, routed) = routed_counter();
        let layout = device.config_layout();
        let mut seen: std::collections::BTreeMap<FaultClass, usize> =
            std::collections::BTreeMap::new();
        for bit in 0..layout.bit_count() {
            let effect = classify_bit(&device, &routed, bit);
            assert_eq!(effect.bit, bit);
            *seen.entry(effect.class).or_insert(0) += 1;
            match effect.class {
                FaultClass::Lut => {
                    // Only the truth table may change.
                    assert!(effect.overlay.shorted_nets.is_empty());
                    assert!(effect.overlay.opened_sinks.is_empty());
                    assert!(effect.overlay.corrupted_nets.is_empty());
                    assert!(effect.overlay.ff_init_overrides.is_empty());
                }
                FaultClass::Initialization => {
                    // Only a flip-flop power-up value may change, and it must
                    // be inverted, not copied.
                    assert!(effect.overlay.lut_overrides.is_empty());
                    assert!(effect.overlay.shorted_nets.is_empty());
                    for &(cell, init) in &effect.overlay.ff_init_overrides {
                        match routed.netlist().cell(cell).kind {
                            CellKind::Dff { init: original } => assert_eq!(init, !original),
                            _ => panic!("FF init override must target a flip-flop"),
                        }
                    }
                }
                FaultClass::Open => {
                    // A set general-routing PIP opened: sinks may float, but
                    // nothing is shorted or corrupted.
                    assert!(routed.bitstream().get(bit), "opens come from set bits");
                    assert!(effect.overlay.shorted_nets.is_empty());
                    assert!(effect.overlay.corrupted_nets.is_empty());
                }
                FaultClass::Bridge | FaultClass::Conflict => {
                    // A new PIP couples two used, distinct nets (when both
                    // endpoints are routed; a bridge candidate with an unused
                    // destination has an empty overlay).
                    assert!(!routed.bitstream().get(bit));
                    for &(a, b) in &effect.overlay.shorted_nets {
                        assert_ne!(a, b);
                    }
                }
                FaultClass::InputAntenna => {
                    // A floating aggressor corrupts exactly one victim net.
                    assert!(!routed.bitstream().get(bit));
                    assert_eq!(effect.overlay.corrupted_nets.len(), 1);
                    assert!(effect.overlay.shorted_nets.is_empty());
                }
                FaultClass::Mux | FaultClass::Others => {}
            }
            // The unprotected counter has one domain, so nothing can cross.
            assert!(!effect.crosses_domains);
            assert!(effect.affected_domains(&routed).len() <= 1);
        }
        for class in FaultClass::ALL {
            assert!(
                seen.get(&class).copied().unwrap_or(0) > 0,
                "class {class} must appear in the census: {seen:?}"
            );
        }
    }

    /// `classify_fault` of a singleton is exactly `classify_bit`, and the
    /// multi-bit merge obeys its cumulative refinements: two truth-table
    /// flips of one LUT combine into a single override carrying both flipped
    /// entries, and every component effect appears in the union.
    #[test]
    fn classify_fault_merges_component_effects_cumulatively() {
        let (device, routed) = routed_counter();
        let layout = device.config_layout();

        // Singleton faults reproduce classify_bit verbatim (borrowing the
        // component overlay, not cloning it).
        for bit in (0..layout.bit_count()).step_by(37) {
            let single = classify_bit(&device, &routed, bit);
            let fault = classify_fault(&device, &routed, &[bit]);
            assert_eq!(fault.bits(), &[bit]);
            assert_eq!(fault.class(), single.class);
            assert_eq!(fault.overlay(), &single.overlay);
            assert_eq!(fault.crosses_domains(), single.crosses_domains);
            assert_eq!(fault.effects(), &[single]);
        }

        // Two exercised truth-table bits of the same placed LUT: the merged
        // overlay holds ONE override with both entries flipped (the
        // simulator keeps one override per cell, so keeping two would drop
        // one of the flips).
        let (site, cell, init) = device
            .lut_sites()
            .iter()
            .find_map(|&site| {
                let cell = routed.placement().cell_at(site)?;
                match routed.netlist().cell(cell).kind {
                    CellKind::Lut { init, .. } => Some((site, cell, init)),
                    _ => None,
                }
            })
            .expect("the counter uses LUTs");
        let bit_of = |lut_bit: u8| {
            layout
                .bit_of(&tmr_arch::ConfigResource::LutBit { site, bit: lut_bit })
                .expect("LUT sites own 16 truth-table bits")
        };
        // Entries 0 and 1 are exercised for every LUT arity k >= 1.
        let (a, b) = (bit_of(0), bit_of(1));
        let fault = classify_fault(&device, &routed, &[a.min(b), a.max(b)]);
        assert_eq!(fault.class(), FaultClass::Lut);
        assert_eq!(
            fault.overlay().lut_overrides,
            vec![(cell, init ^ 0b01 ^ 0b10)],
            "both entries must flip in one cumulative override"
        );
        assert_eq!(fault.effects().len(), 2);

        // Removing every PIP of a routed net at once disconnects all of the
        // net's sinks — at least as many as any single open.
        let (net, tree) = routed
            .netlist()
            .nets()
            .find_map(|(id, _)| Some((id, routed.route_of(id)?)))
            .expect("a routed design has routed nets");
        let open_bits: Vec<usize> = tree.pips.iter().map(|&pip| layout.pip_bit(pip)).collect();
        let mut sorted = open_bits.clone();
        sorted.sort_unstable();
        let fault = classify_fault(&device, &routed, &sorted);
        assert_eq!(
            fault.overlay().opened_sinks.len(),
            tree.sinks.len(),
            "removing the whole tree of {net:?} must open every sink"
        );
    }

    /// On a TMR design the affected-domain sets drive the static verdicts:
    /// dynamic `crosses_domains` must coincide with two distinct redundant
    /// domains in the structural set.
    #[test]
    fn affected_domains_match_the_crossing_flag_on_a_tmr_design() {
        let (device, routed) = routed_tmr_counter();
        let layout = device.config_layout();
        let mut crossing = 0;
        for bit in 0..layout.bit_count() {
            let effect = classify_bit(&device, &routed, bit);
            let domains = effect.affected_domains(&routed);
            let redundant = domains.iter().filter(|d| d.is_redundant()).count();
            if effect.crosses_domains {
                crossing += 1;
                assert!(
                    redundant >= 2,
                    "bit {bit}: dynamic crossing must show two redundant domains, got {domains:?}"
                );
            }
            if effect.overlay.is_empty() {
                assert!(
                    domains.is_empty(),
                    "bit {bit}: empty overlays affect nothing"
                );
            }
        }
        assert!(crossing > 0, "a routed TMR design has crossing candidates");
    }

    /// The fixpoint that derived opened sinks before opens walked the tree:
    /// re-walk the tree without the removed PIPs until no remaining PIP
    /// extends the reachable set. The reference [`open_overlay`] must
    /// reproduce exactly, in sink order.
    fn fixpoint_opened_sinks(
        device: &Device,
        routed: &RoutedDesign,
        net: NetId,
        removed_pips: &[PipId],
    ) -> Vec<SinkRef> {
        use std::collections::HashSet;
        let tree = routed.route_of(net).expect("routed net has a tree");
        let mut reachable: HashSet<NodeId> = HashSet::new();
        reachable.insert(tree.source);
        let mut remaining: Vec<PipId> = tree
            .pips
            .iter()
            .copied()
            .filter(|p| !removed_pips.contains(p))
            .collect();
        let mut progress = true;
        while progress {
            progress = false;
            remaining.retain(|&pip_id| {
                let pip = device.pip(pip_id);
                if reachable.contains(&pip.src) {
                    reachable.insert(pip.dst);
                    progress = true;
                    false
                } else {
                    true
                }
            });
        }
        tree.sinks
            .iter()
            .filter(|(node, _, _)| !reachable.contains(node))
            .map(|&(_, cell, pin)| SinkRef::CellPin { cell, pin })
            .collect()
    }

    /// The routed TMR counter and its routed nets in `NetId` order, built
    /// once for every property case.
    fn tmr_fixture() -> &'static (Device, RoutedDesign, Vec<NetId>) {
        static FIXTURE: std::sync::OnceLock<(Device, RoutedDesign, Vec<NetId>)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (device, routed) = routed_tmr_counter();
            let mut nets: Vec<NetId> = routed
                .routes()
                .filter(|(_, tree)| !tree.pips.is_empty())
                .map(|(net, _)| net)
                .collect();
            nets.sort_unstable();
            (device, routed, nets)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Opening 1-4 set PIPs of one net at once disconnects exactly the
        /// sinks the fixpoint reference disconnects, in the same order.
        #[test]
        fn tree_walk_opens_match_the_fixpoint_reference(
            pick in 0usize..1 << 20,
            picks in prop::collection::vec(0usize..1 << 20, 1..5),
        ) {
            let (device, routed, nets) = tmr_fixture();
            let net = nets[pick % nets.len()];
            let tree = routed.route_of(net).expect("picked among routed nets");
            let mut removed: Vec<PipId> =
                picks.iter().map(|&at| tree.pips[at % tree.pips.len()]).collect();
            removed.sort_unstable();
            removed.dedup();
            let layout = device.config_layout();
            let mut bits: Vec<usize> = removed.iter().map(|&pip| layout.pip_bit(pip)).collect();
            bits.sort_unstable();
            for &bit in &bits {
                prop_assert!(routed.bitstream().get(bit), "tree PIPs are set bits");
            }
            let fault = classify_fault(device, routed, &bits);
            prop_assert_eq!(
                &fault.overlay().opened_sinks,
                &fixpoint_opened_sinks(device, routed, net, &removed)
            );
        }
    }
}
