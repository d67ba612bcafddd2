//! [`Persist`] implementations for the pipeline artifacts the store holds:
//! netlists, placed-and-routed designs, golden runs and campaign results.
//!
//! Every encoding is canonical — collections that live in hash maps in
//! memory (routing trees) are serialized in net-index order, so the same
//! artifact always produces the same bytes regardless of hash-map iteration
//! order. Enum variants are encoded as their position in a fixed table
//! (`FaultClass::ALL`, the `CellKind` list below); adding a variant mid-table
//! is a format break and must bump [`crate::FORMAT_VERSION`].

use crate::codec::{ByteReader, ByteWriter, CodecError, Persist};
use std::collections::HashMap;
use tmr_arch::{Bitstream, NodeId, PipId, SiteId};
use tmr_faultsim::{CampaignResult, FaultClass, FaultOutcome};
use tmr_netlist::{
    Cell, CellId, CellKind, Domain, Net, NetDriver, NetId, NetSink, Netlist, Port, PortDir, PortId,
};
use tmr_pnr::{Placement, RouteTree, RoutedDesign};
use tmr_sim::{GoldenRun, OutputGroups, SimStats, SimTrace, Stimulus, Trit};

// ---------------------------------------------------------------------------
// Dense ids
// ---------------------------------------------------------------------------

macro_rules! persist_id {
    ($($id:ty),*) => {$(
        impl Persist for $id {
            fn encode(&self, w: &mut ByteWriter) {
                w.u32(self.index() as u32);
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(<$id>::from_index(r.u32()? as usize))
            }
        }
    )*};
}

persist_id!(NodeId, PipId, SiteId, CellId, NetId, PortId);

// ---------------------------------------------------------------------------
// Netlist
// ---------------------------------------------------------------------------

impl Persist for Trit {
    fn encode(&self, w: &mut ByteWriter) {
        w.u8(match self {
            Trit::Zero => 0,
            Trit::One => 1,
            Trit::X => 2,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(Trit::Zero),
            1 => Ok(Trit::One),
            2 => Ok(Trit::X),
            _ => Err(CodecError::Invalid { at, what: "trit" }),
        }
    }
}

impl Persist for Domain {
    fn encode(&self, w: &mut ByteWriter) {
        w.u8(match self {
            Domain::None => 0,
            Domain::Tr0 => 1,
            Domain::Tr1 => 2,
            Domain::Tr2 => 3,
            Domain::Voter => 4,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(Domain::None),
            1 => Ok(Domain::Tr0),
            2 => Ok(Domain::Tr1),
            3 => Ok(Domain::Tr2),
            4 => Ok(Domain::Voter),
            _ => Err(CodecError::Invalid { at, what: "domain" }),
        }
    }
}

impl Persist for PortDir {
    fn encode(&self, w: &mut ByteWriter) {
        w.u8(match self {
            PortDir::Input => 0,
            PortDir::Output => 1,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(PortDir::Input),
            1 => Ok(PortDir::Output),
            _ => Err(CodecError::Invalid {
                at,
                what: "port dir",
            }),
        }
    }
}

impl Persist for CellKind {
    fn encode(&self, w: &mut ByteWriter) {
        match *self {
            CellKind::Buf => w.u8(0),
            CellKind::Not => w.u8(1),
            CellKind::And2 => w.u8(2),
            CellKind::Or2 => w.u8(3),
            CellKind::Xor2 => w.u8(4),
            CellKind::Nand2 => w.u8(5),
            CellKind::Nor2 => w.u8(6),
            CellKind::Xnor2 => w.u8(7),
            CellKind::Mux2 => w.u8(8),
            CellKind::Maj3 => w.u8(9),
            CellKind::Gnd => w.u8(10),
            CellKind::Vcc => w.u8(11),
            CellKind::Lut { k, init } => {
                w.u8(12);
                w.u8(k);
                w.u64(init);
            }
            CellKind::Dff { init } => {
                w.u8(13);
                w.bool(init);
            }
            CellKind::Ibuf => w.u8(14),
            CellKind::Obuf => w.u8(15),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => CellKind::Buf,
            1 => CellKind::Not,
            2 => CellKind::And2,
            3 => CellKind::Or2,
            4 => CellKind::Xor2,
            5 => CellKind::Nand2,
            6 => CellKind::Nor2,
            7 => CellKind::Xnor2,
            8 => CellKind::Mux2,
            9 => CellKind::Maj3,
            10 => CellKind::Gnd,
            11 => CellKind::Vcc,
            12 => CellKind::Lut {
                k: r.u8()?,
                init: r.u64()?,
            },
            13 => CellKind::Dff { init: r.bool()? },
            14 => CellKind::Ibuf,
            15 => CellKind::Obuf,
            _ => {
                return Err(CodecError::Invalid {
                    at,
                    what: "cell kind",
                })
            }
        })
    }
}

impl Persist for NetDriver {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            NetDriver::Cell(cell) => {
                w.u8(0);
                cell.encode(w);
            }
            NetDriver::Input(port) => {
                w.u8(1);
                port.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(NetDriver::Cell(CellId::decode(r)?)),
            1 => Ok(NetDriver::Input(PortId::decode(r)?)),
            _ => Err(CodecError::Invalid {
                at,
                what: "net driver",
            }),
        }
    }
}

impl Persist for NetSink {
    fn encode(&self, w: &mut ByteWriter) {
        match *self {
            NetSink::CellPin { cell, pin } => {
                w.u8(0);
                cell.encode(w);
                w.usize(pin);
            }
            NetSink::Output(port) => {
                w.u8(1);
                port.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(NetSink::CellPin {
                cell: CellId::decode(r)?,
                pin: r.usize()?,
            }),
            1 => Ok(NetSink::Output(PortId::decode(r)?)),
            _ => Err(CodecError::Invalid {
                at,
                what: "net sink",
            }),
        }
    }
}

impl Persist for Cell {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.name);
        self.kind.encode(w);
        self.domain.encode(w);
        self.inputs.encode(w);
        self.output.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Cell {
            name: r.str()?,
            kind: CellKind::decode(r)?,
            domain: Domain::decode(r)?,
            inputs: Vec::decode(r)?,
            output: NetId::decode(r)?,
        })
    }
}

impl Persist for Net {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.name);
        self.domain.encode(w);
        self.driver.encode(w);
        self.sinks.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Net {
            name: r.str()?,
            domain: Domain::decode(r)?,
            driver: Option::decode(r)?,
            sinks: Vec::decode(r)?,
        })
    }
}

impl Persist for Port {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.name);
        self.dir.encode(w);
        self.net.encode(w);
        self.domain.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Port {
            name: r.str()?,
            dir: PortDir::decode(r)?,
            net: NetId::decode(r)?,
            domain: Domain::decode(r)?,
        })
    }
}

impl Persist for Netlist {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(self.name());
        w.usize(self.cell_count());
        for (_, cell) in self.cells() {
            cell.encode(w);
        }
        w.usize(self.net_count());
        for (_, net) in self.nets() {
            net.encode(w);
        }
        let ports: Vec<&Port> = self.ports().map(|(_, p)| p).collect();
        w.usize(ports.len());
        for port in ports {
            port.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let name = r.str()?;
        let cells = Vec::<Cell>::decode(r)?;
        let nets = Vec::<Net>::decode(r)?;
        let ports = Vec::<Port>::decode(r)?;
        let net_count = nets.len();
        let in_range = cells.iter().all(|c| {
            c.output.index() < net_count && c.inputs.iter().all(|n| n.index() < net_count)
        }) && ports.iter().all(|p| p.net.index() < net_count);
        if !in_range {
            return Err(CodecError::Invalid {
                at: r.position(),
                what: "netlist id range",
            });
        }
        Ok(Netlist::from_parts(name, cells, nets, ports))
    }
}

// ---------------------------------------------------------------------------
// Placed-and-routed design
// ---------------------------------------------------------------------------

impl Persist for Bitstream {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        w.usize(self.words().len());
        for &word in self.words() {
            w.u64(word);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        let len = r.usize()?;
        let words = Vec::<u64>::decode(r)?;
        // `Bitstream::from_words` asserts these invariants; check them here so
        // corrupt payloads surface as decode errors instead of panics.
        let consistent = words.len() == len.div_ceil(64)
            && (len % 64 == 0 || words.last().is_none_or(|&last| last >> (len % 64) == 0));
        if !consistent {
            return Err(CodecError::Invalid {
                at,
                what: "bitstream",
            });
        }
        Ok(Bitstream::from_words(words, len))
    }
}

impl Persist for Placement {
    fn encode(&self, w: &mut ByteWriter) {
        let sites: Vec<SiteId> = self.iter().map(|(_, site)| site).collect();
        sites.encode(w);
        w.u64(self.wirelength());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let sites = Vec::<SiteId>::decode(r)?;
        let wirelength = r.u64()?;
        Ok(Placement::from_parts(sites, wirelength))
    }
}

impl Persist for RouteTree {
    fn encode(&self, w: &mut ByteWriter) {
        self.source.encode(w);
        self.nodes.encode(w);
        self.pips.encode(w);
        self.sinks.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(RouteTree {
            source: NodeId::decode(r)?,
            nodes: Vec::decode(r)?,
            pips: Vec::decode(r)?,
            sinks: Vec::decode(r)?,
        })
    }
}

impl Persist for RoutedDesign {
    fn encode(&self, w: &mut ByteWriter) {
        self.netlist().encode(w);
        self.placement().encode(w);
        // Routes live in a hash map; serialize in net-index order so the
        // encoding is canonical.
        let mut routes: Vec<(NetId, &RouteTree)> = self.routes().collect();
        routes.sort_unstable_by_key(|(net, _)| net.index());
        w.usize(routes.len());
        for (net, tree) in routes {
            net.encode(w);
            tree.encode(w);
        }
        self.bitstream().encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let netlist = Netlist::decode(r)?;
        let placement = Placement::decode(r)?;
        let routes: HashMap<NetId, RouteTree> =
            Vec::<(NetId, RouteTree)>::decode(r)?.into_iter().collect();
        let bitstream = Bitstream::decode(r)?;
        Ok(RoutedDesign::from_parts(
            netlist, placement, routes, bitstream,
        ))
    }
}

// ---------------------------------------------------------------------------
// Simulation artifacts
// ---------------------------------------------------------------------------

impl Persist for Stimulus {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.vectors().len());
        for vector in self.vectors() {
            vector.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Stimulus::from_vectors(Vec::decode(r)?))
    }
}

impl Persist for SimTrace {
    fn encode(&self, w: &mut ByteWriter) {
        self.outputs.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SimTrace {
            outputs: Vec::decode(r)?,
        })
    }
}

impl Persist for OutputGroups {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for (base, bit, members) in self.groups() {
            w.str(base);
            w.u32(bit);
            w.usize(members.len());
            for &member in members {
                w.usize(member);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(OutputGroups::from_groups(Vec::decode(r)?))
    }
}

impl Persist for GoldenRun {
    fn encode(&self, w: &mut ByteWriter) {
        self.stimulus().encode(w);
        self.trace().encode(w);
        self.groups().encode(w);
        // Encoded as an `Option` that is always `Some`: the layout of a
        // format that also held seedless runs.
        Some(self.stimulus_seed()).encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let (stimulus, trace, groups) = (
            Stimulus::decode(r)?,
            SimTrace::decode(r)?,
            OutputGroups::decode(r)?,
        );
        let at = r.position();
        let seed = Option::decode(r)?.ok_or(CodecError::Invalid {
            at,
            what: "golden run seed",
        })?;
        Ok(GoldenRun::from_parts(stimulus, trace, groups, seed))
    }
}

// ---------------------------------------------------------------------------
// Campaign results
// ---------------------------------------------------------------------------

impl Persist for SimStats {
    fn encode(&self, w: &mut ByteWriter) {
        for value in [
            self.ops_evaluated,
            self.ops_skipped,
            self.words,
            self.words_full_eval,
            self.lanes_simulated,
            self.lanes_retired_early,
            self.cone_dedup_hits,
            self.cone_grouped,
        ] {
            w.u64(value);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SimStats {
            ops_evaluated: r.u64()?,
            ops_skipped: r.u64()?,
            words: r.u64()?,
            words_full_eval: r.u64()?,
            lanes_simulated: r.u64()?,
            lanes_retired_early: r.u64()?,
            cone_dedup_hits: r.u64()?,
            cone_grouped: r.u64()?,
        })
    }
}

impl Persist for FaultClass {
    fn encode(&self, w: &mut ByteWriter) {
        let tag = FaultClass::ALL
            .iter()
            .position(|class| class == self)
            .expect("FaultClass::ALL covers every variant");
        w.u8(tag as u8);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        let tag = r.u8()? as usize;
        FaultClass::ALL
            .get(tag)
            .copied()
            .ok_or(CodecError::Invalid {
                at,
                what: "fault class",
            })
    }
}

impl Persist for FaultOutcome {
    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.bit);
        self.bits.encode(w);
        self.class.encode(w);
        w.bool(self.wrong_answer);
        self.first_error_cycle.encode(w);
        w.bool(self.crosses_domains);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(FaultOutcome {
            bit: r.usize()?,
            bits: Vec::decode(r)?,
            class: FaultClass::decode(r)?,
            wrong_answer: r.bool()?,
            first_error_cycle: Option::decode(r)?,
            crosses_domains: r.bool()?,
        })
    }
}

impl Persist for CampaignResult {
    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.design);
        w.usize(self.fault_list_size);
        w.usize(self.simulated);
        self.outcomes.encode(w);
        self.stats.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(CampaignResult {
            design: r.str()?,
            fault_list_size: r.usize()?,
            simulated: r.usize()?,
            outcomes: Vec::decode(r)?,
            stats: SimStats::decode(r)?,
        })
    }
}

/// The persisted prefix of a paused or interrupted campaign: everything a
/// [`tmr_faultsim::CampaignSession`] needs to resume exactly where it left
/// off. Because sessions produce outcomes deterministically in fault-list
/// order (the exact-prefix guarantee), persisting at batch boundaries makes a
/// crash-resumed campaign byte-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignPrefix {
    /// Outcomes of the injections completed so far, in injection order.
    pub outcomes: Vec<FaultOutcome>,
    /// Faults actually simulated so far (the non-skipped subset).
    pub simulated: usize,
    /// Simulator counters accumulated so far.
    pub stats: SimStats,
}

impl Persist for CampaignPrefix {
    fn encode(&self, w: &mut ByteWriter) {
        self.outcomes.encode(w);
        w.usize(self.simulated);
        self.stats.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(CampaignPrefix {
            outcomes: Vec::decode(r)?,
            simulated: r.usize()?,
            stats: SimStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_arch::Device;
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap};

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.to_bytes();
        let decoded = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(&decoded, value);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    fn small_netlist() -> Netlist {
        techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap()
    }

    #[test]
    fn netlist_round_trips() {
        let netlist = small_netlist();
        // Netlist has no PartialEq; canonical bytes are the equality proxy.
        let bytes = netlist.to_bytes();
        let decoded = Netlist::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.to_bytes(), bytes);
        decoded.validate().expect("decoded netlist is consistent");
        assert_eq!(decoded.name(), netlist.name());
        assert_eq!(decoded.cell_count(), netlist.cell_count());
        for ((_, a), (_, b)) in decoded.cells().zip(netlist.cells()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn routed_design_round_trips_canonically() {
        let device = Device::small(5, 5);
        let netlist = small_netlist();
        let routed = place_and_route(&device, &netlist, 7).unwrap();
        let bytes = routed.to_bytes();
        let decoded = RoutedDesign::from_bytes(&bytes).unwrap();
        // RoutedDesign has no PartialEq; compare the observable pieces.
        assert_eq!(decoded.bitstream(), routed.bitstream());
        assert_eq!(decoded.routes().count(), routed.routes().count());
        for (net, tree) in routed.routes() {
            assert_eq!(decoded.route_of(net), Some(tree));
            for &node in &tree.nodes {
                assert_eq!(decoded.net_of_node(node), Some(net));
            }
        }
        assert_eq!(
            decoded.placement().iter().collect::<Vec<_>>(),
            routed.placement().iter().collect::<Vec<_>>()
        );
        // Hash-map iteration order must not leak into the bytes.
        assert_eq!(decoded.to_bytes(), bytes);
        // The fault-list population derived from the decoded design matches.
        assert_eq!(
            decoded.design_related_bits(&device),
            routed.design_related_bits(&device)
        );
    }

    #[test]
    fn golden_run_round_trips_with_seed() {
        let netlist = small_netlist();
        let golden = GoldenRun::compute(&netlist, 8, 3).unwrap();
        round_trip(&golden);
        let decoded = GoldenRun::from_bytes(&golden.to_bytes()).unwrap();
        assert_eq!(decoded.stimulus_seed(), 3);
        // The trailing `Some(seed)` (tag byte, then 8 bytes) turned into a
        // `None` is rejected.
        let mut seedless = golden.to_bytes();
        seedless.truncate(seedless.len() - 8);
        *seedless.last_mut().unwrap() = 0;
        assert!(GoldenRun::from_bytes(&seedless).is_err());
    }

    #[test]
    fn campaign_result_round_trips() {
        let result = CampaignResult {
            design: "demo".to_string(),
            fault_list_size: 100,
            simulated: 42,
            outcomes: vec![
                FaultOutcome {
                    bit: 3,
                    bits: vec![3],
                    class: FaultClass::Open,
                    wrong_answer: true,
                    first_error_cycle: Some(2),
                    crosses_domains: false,
                },
                FaultOutcome {
                    bit: 9,
                    bits: vec![9, 10],
                    class: FaultClass::Bridge,
                    wrong_answer: false,
                    first_error_cycle: None,
                    crosses_domains: true,
                },
            ],
            stats: SimStats {
                ops_evaluated: 7,
                ops_skipped: 11,
                words: 1,
                words_full_eval: 1,
                lanes_simulated: 2,
                lanes_retired_early: 3,
                cone_dedup_hits: 4,
                cone_grouped: 5,
            },
        };
        round_trip(&result);
        // Stats round-trip too, every counter with a distinct value, even
        // though CampaignResult equality skips them.
        let decoded = CampaignResult::from_bytes(&result.to_bytes()).unwrap();
        assert_eq!(decoded.stats, result.stats);
    }

    #[test]
    fn campaign_prefix_round_trips() {
        let prefix = CampaignPrefix {
            outcomes: vec![FaultOutcome {
                bit: 1,
                bits: vec![1],
                class: FaultClass::Lut,
                wrong_answer: false,
                first_error_cycle: None,
                crosses_domains: false,
            }],
            simulated: 1,
            stats: SimStats::default(),
        };
        round_trip(&prefix);
    }

    #[test]
    fn every_fault_class_round_trips() {
        for class in FaultClass::ALL {
            round_trip(&class);
        }
        assert!(FaultClass::from_bytes(&[8]).is_err());
    }

    #[test]
    fn corrupt_bitstream_fails_instead_of_panicking() {
        let bits = Bitstream::zeros(70);
        let mut bytes = bits.to_bytes();
        // Corrupt the bit length so it no longer matches the word count.
        bytes[0] = 0xff;
        assert!(Bitstream::from_bytes(&bytes).is_err());
    }
}
