//! The Fault List Manager: enumerating and sampling design-related bits.

use crate::FaultModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmr_arch::Device;
use tmr_pnr::RoutedDesign;

/// The list of configuration bits eligible for fault injection.
///
/// Following the paper, "the Fault List Manager … is able to identify the
/// configuration memory bits that are actually programmed to implement the
/// DUT and generate the bit-flips only for them": a bit is eligible when its
/// resource is related to the routed design — a PIP touching a routing node
/// used by some net, a truth-table bit of a used LUT, or the configuration
/// bit of a used flip-flop.
///
/// It borrows the routed design's cached scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultList<'a> {
    bits: &'a [u32],
}

impl<'a> FaultList<'a> {
    /// The fault list of a routed design: the design-related-bit scan
    /// cached on [`RoutedDesign::design_related_bits`] — repeated campaigns
    /// on the same routed design pay the configuration-memory scan once.
    pub fn build(device: &Device, routed: &'a RoutedDesign) -> Self {
        Self {
            bits: routed.design_related_bits(device),
        }
    }

    /// All eligible bit indices, in configuration-memory order.
    pub fn bits(&self) -> &'a [u32] {
        self.bits
    }

    /// Number of eligible bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if no bit is eligible (empty design).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Draws `count` distinct bits uniformly at random, reproducibly for a
    /// given seed, in configuration-memory order; a `count` at or past the
    /// list size returns the whole list. The paper injected roughly 10 % of
    /// the configuration memory, selected randomly from the fault list.
    pub fn sample(&self, count: usize, seed: u64) -> Vec<usize> {
        let len = self.bits.len();
        if count >= len {
            return self.bits.iter().map(|&bit| bit as usize).collect();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Floyd's algorithm draws `count` distinct indices with `count` RNG
        // calls; shuffling the whole fault list (hundreds of thousands of
        // bits on real devices) to keep a few hundred would dominate the
        // campaign setup time.
        let mut chosen = std::collections::HashSet::with_capacity(count);
        for limit in len - count..len {
            let pick = rng.gen_range(0..=limit);
            if !chosen.insert(pick) {
                chosen.insert(limit);
            }
        }
        let mut bits: Vec<usize> = chosen
            .into_iter()
            .map(|index| self.bits[index] as usize)
            .collect();
        bits.sort_unstable();
        bits
    }

    /// Draws `count` faults under a [`FaultModel`], reproducibly for a given
    /// seed. Each fault is the sorted, distinct, in-bounds set of
    /// configuration bits one experiment flips:
    ///
    /// * [`FaultModel::SingleBit`] — the bits of [`FaultList::sample`], one
    ///   per fault;
    /// * [`FaultModel::Mbu`] — the *same* sampled bits as anchors, each
    ///   expanded into its geometric cluster through the device's
    ///   [`tmr_arch::BitGeometry`] (cluster bits outside the design's fault
    ///   list are included: a strike does not respect the design boundary);
    /// * [`FaultModel::Accumulate`] — `count · upsets_per_scrub` bits are
    ///   sampled and dealt round-robin into `count` scrub intervals, so each
    ///   interval accumulates upsets spread uniformly over the configuration
    ///   memory rather than a contiguous ascending run. When the fault list
    ///   is exhausted before filling `count` intervals, every sampled bit is
    ///   still injected: the leftover bits form one final partial interval.
    ///
    /// The 1-bit degenerate models (`Mbu { Single }`,
    /// `Accumulate { upsets_per_scrub: 1 }`) produce exactly the
    /// [`FaultModel::SingleBit`] fault sequence, and every model orders its
    /// faults by ascending anchor (lowest) bit.
    pub fn sample_faults(
        &self,
        device: &Device,
        model: &FaultModel,
        count: usize,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        match *model {
            FaultModel::SingleBit => self
                .sample(count, seed)
                .into_iter()
                .map(|bit| vec![bit])
                .collect(),
            FaultModel::Mbu { pattern } => {
                let geometry = device.config_layout().geometry();
                self.sample(count, seed)
                    .into_iter()
                    .map(|anchor| geometry.cluster(anchor, pattern))
                    .collect()
            }
            FaultModel::Accumulate { upsets_per_scrub } => {
                let per_scrub = upsets_per_scrub.max(1);
                let picked = self.sample(count.saturating_mul(per_scrub), seed);
                let intervals = picked.len() / per_scrub;
                let mut faults: Vec<Vec<usize>> = (0..intervals)
                    .map(|interval| {
                        let mut bits: Vec<usize> = (0..per_scrub)
                            .map(|upset| picked[interval + upset * intervals])
                            .collect();
                        bits.sort_unstable();
                        bits
                    })
                    .collect();
                // An exhausted fault list can leave fewer bits than one full
                // interval; accumulate them as a final partial interval
                // instead of silently dropping sampled bits. The remainder
                // holds the largest sampled indices, so ascending-anchor
                // fault order is preserved.
                let remainder = &picked[intervals * per_scrub..];
                if !remainder.is_empty() {
                    faults.push(remainder.to_vec());
                }
                faults
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap};

    fn routed_counter() -> (Device, RoutedDesign) {
        let device = Device::small(5, 5);
        let netlist = techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap();
        let routed = place_and_route(&device, &netlist, 5).unwrap();
        (device, routed)
    }

    #[test]
    fn fault_list_contains_all_programmed_bits() {
        let (device, routed) = routed_counter();
        let list = FaultList::build(&device, &routed);
        assert!(!list.is_empty());
        // Every bit that is set in the bitstream belongs to a design resource,
        // so it must be in the fault list.
        for bit in routed.bitstream().iter_ones() {
            assert!(
                list.bits().contains(&(bit as u32)),
                "programmed bit {bit} missing"
            );
        }
        // The list is larger than the programmed bits: it also contains the
        // zero bits of resources adjacent to the design (candidate bridges).
        assert!(list.len() > routed.bitstream().count_ones());
        // But much smaller than the whole device.
        assert!(list.len() < device.config_layout().bit_count());
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let (device, routed) = routed_counter();
        let list = FaultList::build(&device, &routed);
        let a = list.sample(100, 3);
        let b = list.sample(100, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100.min(list.len()));
        let all = list.sample(usize::MAX, 3);
        let bits: Vec<usize> = list.bits().iter().map(|&bit| bit as usize).collect();
        assert_eq!(all, bits, "a count past the list returns the whole list");
        // Distinct bits.
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn degenerate_models_sample_the_single_bit_sequence() {
        use tmr_arch::MbuPattern;
        let (device, routed) = routed_counter();
        let list = FaultList::build(&device, &routed);
        let single = list.sample_faults(&device, &FaultModel::SingleBit, 80, 7);
        assert_eq!(single.len(), 80.min(list.len()));
        assert_eq!(
            single,
            list.sample_faults(
                &device,
                &FaultModel::Mbu {
                    pattern: MbuPattern::Single
                },
                80,
                7
            )
        );
        assert_eq!(
            single,
            list.sample_faults(
                &device,
                &FaultModel::Accumulate {
                    upsets_per_scrub: 1
                },
                80,
                7
            )
        );
        let flat: Vec<usize> = single.iter().map(|fault| fault[0]).collect();
        assert_eq!(flat, list.sample(80, 7));
    }

    #[test]
    fn mbu_faults_are_anchored_clusters() {
        use tmr_arch::MbuPattern;
        let (device, routed) = routed_counter();
        let list = FaultList::build(&device, &routed);
        let geometry = device.config_layout().geometry();
        let model = FaultModel::Mbu {
            pattern: MbuPattern::Tile2x2,
        };
        let faults = list.sample_faults(&device, &model, 60, 3);
        let anchors = list.sample(60, 3);
        assert_eq!(faults.len(), anchors.len());
        for (fault, &anchor) in faults.iter().zip(&anchors) {
            assert_eq!(fault, &geometry.cluster(anchor, MbuPattern::Tile2x2));
            assert_eq!(fault[0], anchor);
        }
    }

    #[test]
    fn accumulate_deals_distinct_bits_into_intervals() {
        let (device, routed) = routed_counter();
        let list = FaultList::build(&device, &routed);
        let model = FaultModel::Accumulate {
            upsets_per_scrub: 4,
        };
        let faults = list.sample_faults(&device, &model, 30, 11);
        assert_eq!(faults.len(), 30);
        let mut seen = std::collections::BTreeSet::new();
        for fault in &faults {
            assert_eq!(fault.len(), 4);
            assert!(fault.windows(2).all(|pair| pair[0] < pair[1]));
            for &bit in fault {
                assert!(seen.insert(bit), "intervals draw disjoint bits");
                assert!(list.bits().binary_search(&(bit as u32)).is_ok());
            }
        }
        // Anchors ascend: the merged result order is the fault-list order.
        assert!(faults.windows(2).all(|pair| pair[0][0] < pair[1][0]));
        // Determinism per seed.
        assert_eq!(faults, list.sample_faults(&device, &model, 30, 11));
        assert_ne!(faults, list.sample_faults(&device, &model, 30, 12));
    }

    #[test]
    fn accumulate_exhaustion_forms_a_partial_final_interval() {
        let (device, routed) = routed_counter();
        let full = FaultList::build(&device, &routed);
        // A 10-bit fault list with 4 upsets per scrub: asking for 3 intervals
        // samples all 10 bits — 2 full intervals plus a 2-bit partial one,
        // never dropping sampled bits.
        let ten: Vec<u32> = full.bits().iter().copied().take(10).collect();
        let list = FaultList { bits: &ten };
        let model = FaultModel::Accumulate {
            upsets_per_scrub: 4,
        };
        let faults = list.sample_faults(&device, &model, 3, 7);
        assert_eq!(
            faults.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let mut injected: Vec<u32> = faults.iter().flatten().map(|&bit| bit as u32).collect();
        injected.sort_unstable();
        assert_eq!(injected, ten, "every sampled bit is injected exactly once");
        assert!(faults.windows(2).all(|pair| pair[0][0] < pair[1][0]));
        // Fewer eligible bits than one interval: everything accumulates into
        // a single experiment.
        let tiny = FaultList { bits: &ten[..3] };
        let faults = tiny.sample_faults(&device, &model, 5, 7);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].len(), 3);
    }
}
