//! The Fault Injection Manager: campaign options, outcomes and result tables.

use crate::{classify_fault, FaultClass, FaultEffect, FaultModel};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tmr_arch::Device;
use tmr_netlist::Domain;
use tmr_pnr::RoutedDesign;
use tmr_sim::{CompiledNetlist, GoldenRun, PackedGolden, SimStats, Simulator, MAX_LANES};

/// Options of a fault-injection campaign.
///
/// Set through [`CampaignBuilder`](crate::CampaignBuilder) and read back
/// with [`CampaignBuilder::options`](crate::CampaignBuilder::options); the
/// fields are not public, so options can evolve without breaking every
/// construction site.
///
/// ```
/// use tmr_faultsim::CampaignBuilder;
///
/// let campaign = CampaignBuilder::new().faults(500).cycles(12);
/// assert_eq!(campaign.options().faults(), 500);
/// assert_eq!(campaign.options().cycles(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Number of faults to inject (drawn randomly from the fault list; the
    /// paper injected roughly 10 % of the configuration memory).
    pub(crate) faults: usize,
    /// Number of clock cycles of stimulus applied per fault.
    pub(crate) cycles: usize,
    /// Seed of the pseudo-random input stimulus.
    pub(crate) stimulus_seed: u64,
    /// Seed of the fault-sampling shuffle.
    pub(crate) sampling_seed: u64,
    /// How one fault perturbs the configuration memory; see
    /// [`CampaignOptions::fault_model`].
    pub(crate) model: FaultModel,
    /// Sorted allow-list of bits whose behaviour is actually simulated; see
    /// [`CampaignOptions::simulate_only`].
    pub(crate) simulate_only: Option<Arc<[usize]>>,
    /// Sorted `(bit, domain)` tags for statically non-observable bits; see
    /// [`CampaignOptions::maskable_domains`].
    pub(crate) maskable: Option<Arc<[(usize, Domain)]>>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            faults: 2000,
            cycles: 24,
            stimulus_seed: 20050307, // DATE 2005 conference date
            sampling_seed: 1,
            model: FaultModel::SingleBit,
            simulate_only: None,
            maskable: None,
        }
    }
}

impl CampaignOptions {
    /// Number of faults to inject.
    pub fn faults(&self) -> usize {
        self.faults
    }

    /// Number of clock cycles of stimulus applied per fault.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Seed of the pseudo-random input stimulus.
    pub fn stimulus_seed(&self) -> u64 {
        self.stimulus_seed
    }

    /// Seed of the fault-sampling shuffle.
    pub fn sampling_seed(&self) -> u64 {
        self.sampling_seed
    }

    /// The fault model: what one injected fault of the campaign is — a
    /// single-bit upset (the default), a geometric multi-bit cluster, or the
    /// upsets accumulated over one scrub interval. See [`FaultModel`].
    pub fn fault_model(&self) -> &FaultModel {
        &self.model
    }

    /// When set, only sampled bits contained in this sorted list are actually
    /// simulated; the remaining sampled bits are still classified and
    /// recorded (with `wrong_answer == false`), but their simulation is
    /// skipped.
    ///
    /// This is the campaign-pruning hook of the static criticality analyzer
    /// (`tmr-analyze`): the list holds the statically-possibly-observable
    /// bits, so the sampled population — and therefore every outcome of a
    /// sound pruning — is unchanged while the expensive simulations shrink to
    /// the bits that can matter. [`CampaignResult::simulated`] counts the
    /// simulations actually run.
    pub fn simulate_only(&self) -> Option<&[usize]> {
        self.simulate_only.as_deref()
    }

    /// The `(bit, domain)` tags justifying multi-bit pruning: every listed
    /// bit is statically guaranteed to corrupt signal copies of *only* that
    /// single redundant TMR domain.
    ///
    /// A multi-bit fault outside [`CampaignOptions::simulate_only`] is only
    /// skipped when **all** of its behaviour-changing bits carry tags of one
    /// common domain — corrupting one domain several times is still voted
    /// out, while two individually maskable bits of *different* domains can
    /// defeat TMR together and therefore must be simulated. Bits without a
    /// tag are unclassifiable to the pruner and conservatively keep their
    /// fault simulated.
    pub fn maskable_domains(&self) -> Option<&[(usize, Domain)]> {
        self.maskable.as_deref()
    }
}

/// The outcome of one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The anchor configuration bit: the lowest bit the fault flipped (for
    /// the single-bit model, *the* flipped bit).
    pub bit: usize,
    /// Every flipped configuration bit, in ascending order — one entry under
    /// [`FaultModel::SingleBit`], the cluster of an [`FaultModel::Mbu`]
    /// strike, or the upsets of one [`FaultModel::Accumulate`] scrub
    /// interval.
    pub bits: Vec<usize>,
    /// Its classification (Table 4 taxonomy; for multi-bit faults the
    /// dominant component class, see
    /// [`FaultEffect`](crate::FaultEffect)).
    pub class: FaultClass,
    /// Whether the DUT output diverged from the golden device.
    pub wrong_answer: bool,
    /// First cycle at which the outputs diverged, if they did.
    pub first_error_cycle: Option<usize>,
    /// Whether the fault coupled two distinct TMR domains.
    pub crosses_domains: bool,
}

/// The aggregated result of a fault-injection campaign (one row of Table 3
/// plus one column of Table 4).
///
/// Equality compares the campaign *outcomes* — design, fault list, simulated
/// count and per-fault verdicts — and deliberately ignores
/// [`CampaignResult::stats`]: backends with different evaluation strategies
/// (event-driven, always-full, interpreting) produce bit-identical results
/// with very different counters, and the differential harness relies on
/// comparing them directly.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Name of the design under test.
    pub design: String,
    /// Size of the full fault list (all design-related bits).
    pub fault_list_size: usize,
    /// Number of faults whose behaviour was actually simulated. Without
    /// pruning this counts the sampled bits with a non-empty structural
    /// overlay; with [`CampaignOptions::simulate_only`] it shrinks further to
    /// the statically-possibly-observable bits.
    pub simulated: usize,
    /// Per-fault outcomes, in injection order.
    pub outcomes: Vec<FaultOutcome>,
    /// Observability counters of the compiled engine (all zero on the
    /// interpreter backend). Excluded from equality; shard-merge-order
    /// independent.
    pub stats: SimStats,
}

impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.design == other.design
            && self.fault_list_size == other.fault_list_size
            && self.simulated == other.simulated
            && self.outcomes == other.outcomes
    }
}

impl Eq for CampaignResult {}

impl CampaignResult {
    /// Number of injected faults.
    pub fn injected(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of faults that produced a wrong answer.
    pub fn wrong_answers(&self) -> usize {
        self.outcomes.iter().filter(|o| o.wrong_answer).count()
    }

    /// Percentage of injected faults that produced a wrong answer — the
    /// "Wrong Answer [%]" column of Table 3.
    pub fn wrong_answer_percent(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        100.0 * self.wrong_answers() as f64 / self.injected() as f64
    }

    /// Classification of the faults that produced a wrong answer, in the row
    /// order of Table 4.
    pub fn error_classification(&self) -> BTreeMap<FaultClass, usize> {
        let mut counts = BTreeMap::new();
        for outcome in self.outcomes.iter().filter(|o| o.wrong_answer) {
            *counts.entry(outcome.class).or_insert(0) += 1;
        }
        counts
    }

    /// Classification of every injected fault (whether or not it caused an
    /// error).
    pub fn injection_classification(&self) -> BTreeMap<FaultClass, usize> {
        let mut counts = BTreeMap::new();
        for outcome in &self.outcomes {
            *counts.entry(outcome.class).or_insert(0) += 1;
        }
        counts
    }

    /// Among the error-causing faults, the fraction that coupled two distinct
    /// TMR domains — the mechanism the paper identifies as the residual
    /// weakness of TMR on SRAM-based FPGAs.
    pub fn cross_domain_error_fraction(&self) -> f64 {
        let errors: Vec<&FaultOutcome> = self.outcomes.iter().filter(|o| o.wrong_answer).collect();
        if errors.is_empty() {
            return 0.0;
        }
        errors.iter().filter(|o| o.crosses_domains).count() as f64 / errors.len() as f64
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} injected, {} wrong answers ({:.2} %)",
            self.design,
            self.injected(),
            self.wrong_answers(),
            self.wrong_answer_percent()
        )
    }
}

/// The evaluation engine a session's shards share.
pub(crate) enum Backend<'a> {
    /// The cell-by-cell interpreting oracle.
    Interpreter(Simulator<'a>),
    /// The compiled instruction stream and its packed golden reference.
    Compiled {
        compiled: Arc<CompiledNetlist>,
        packed: PackedGolden,
    },
}

/// The immutable state every shard of a session reads: the design under
/// test, the shared golden reference (stimulus, fault-free trace and output
/// voting), the evaluation engine and the static restriction.
pub(crate) struct ShardContext<'a> {
    pub device: &'a Device,
    pub routed: &'a RoutedDesign,
    pub golden: Arc<GoldenRun>,
    pub backend: Backend<'a>,
    /// Sorted allow-list of [`CampaignOptions::simulate_only`]: sampled bits
    /// outside it are classified but not simulated.
    pub simulate_only: Option<Arc<[usize]>>,
    /// Sorted single-domain tags of [`CampaignOptions::maskable_domains`]:
    /// the justification needed to skip a *multi-bit* fault.
    pub maskable: Option<Arc<[(usize, Domain)]>>,
}

impl ShardContext<'_> {
    /// Whether the static restriction allows skipping this fault's
    /// simulation (the caller has already ruled out empty merged overlays).
    ///
    /// * single active bit — skip iff the bit is outside the allow-list
    ///   (its contract: the list contains every possibly-observable bit);
    ///   cumulative same-net opens contributed by individually silent
    ///   cluster mates stay on the same net, hence in the same domain, so
    ///   the single bit's verdict still covers the merged effect;
    /// * several active bits — skip only when every one is outside the
    ///   allow-list **and** tagged maskable with one common redundant
    ///   domain: each component alone is voted out, and together they still
    ///   corrupt only that domain's copies. Any unclassifiable bit (no tag)
    ///   degrades conservatively to simulation;
    /// * joint effects — when the merged overlay opens a sink that no
    ///   component opens alone (several same-net PIPs removed together), the
    ///   per-bit verdicts do not cover the fault's behaviour: simulate,
    ///   whatever the tags say. In particular a cluster with *no* active bit
    ///   but a non-empty merged overlay is never skipped.
    fn statically_skippable(&self, effect: &FaultEffect) -> bool {
        let Some(allowed) = self.simulate_only.as_deref() else {
            return false;
        };
        let covered = effect.overlay().opened_sinks.iter().all(|sink| {
            effect
                .effects()
                .iter()
                .any(|component| component.overlay.opened_sinks.contains(sink))
        });
        if !covered {
            return false;
        }
        let mut active = effect.active_bits();
        let Some(first) = active.next() else {
            return false;
        };
        let rest: Vec<usize> = active.collect();
        if allowed.binary_search(&first).is_ok() {
            return false;
        }
        if rest.is_empty() {
            return true;
        }
        let Some(maskable) = self.maskable.as_deref() else {
            return false;
        };
        let domain_of = |bit: usize| {
            maskable
                .binary_search_by_key(&bit, |&(tagged, _)| tagged)
                .ok()
                .map(|index| maskable[index].1)
        };
        let Some(common) = domain_of(first) else {
            return false;
        };
        rest.iter()
            .all(|&bit| allowed.binary_search(&bit).is_err() && domain_of(bit) == Some(common))
    }
}

/// Injects the faults of one shard (any contiguous slice of the sampled fault
/// list) and returns their outcomes, in slice order, plus the number of
/// faults whose behaviour was actually simulated and the engine's
/// observability counters.
///
/// This is the single per-fault code path of every campaign: for a given
/// `(fault bits, golden run)` pair the outcome is a pure function, which is what makes sharded and early-stopped
/// campaigns bit-identical to sequential full-length ones on the faults they
/// simulate. On the compiled backend the simulable faults are additionally
/// batched into packed word batches of up to [`MAX_LANES`] lanes — bridging
/// faults separately from the rest, so only bridged words pay the
/// multi-pass settling loop, and both streams grouped by their fan-out-cone
/// fingerprint so lanes sharing a word share cones — and their per-lane
/// results are written back into fault-list order, which keeps the merged
/// outcomes byte-identical to the interpreter's: grouping changes which
/// faults share a word, never any per-lane outcome.
pub(crate) fn run_shard(
    ctx: &ShardContext<'_>,
    faults: &[Vec<usize>],
) -> (Vec<FaultOutcome>, usize, SimStats) {
    let effects: Vec<FaultEffect> = faults
        .iter()
        .map(|bits| classify_fault(ctx.device, ctx.routed, bits))
        .collect();
    let mut results: Vec<(bool, Option<usize>)> = vec![(false, None); faults.len()];
    let mut simulated = 0;
    let mut stats = SimStats::default();

    match &ctx.backend {
        Backend::Interpreter(simulator) => {
            for (effect, result) in effects.iter().zip(results.iter_mut()) {
                if effect.overlay().is_empty() || ctx.statically_skippable(effect) {
                    continue;
                }
                simulated += 1;
                let trace = simulator.run_stimulus(ctx.golden.stimulus(), effect.overlay());
                if let Some(cycle) = ctx
                    .golden
                    .groups()
                    .first_voted_mismatch(ctx.golden.trace(), &trace)
                {
                    *result = (true, Some(cycle));
                }
            }
        }
        Backend::Compiled { compiled, packed } => {
            // Split the simulable faults into two lane streams: words
            // without bridged nets run incrementally over the fan-out cone,
            // words with bridges take the full multi-pass evaluation.
            let mut clean: Vec<usize> = Vec::new();
            let mut bridged: Vec<usize> = Vec::new();
            for (index, effect) in effects.iter().enumerate() {
                if effect.overlay().is_empty() || ctx.statically_skippable(effect) {
                    continue;
                }
                if effect.overlay().shorted_nets.is_empty() {
                    clean.push(index);
                } else {
                    bridged.push(index);
                }
            }
            simulated = clean.len() + bridged.len();
            // Deal each stream's faults into words by cone fingerprint, so
            // the lanes of one word share their fan-out cone and the union
            // cone each word touches stays small. The sort is keyed
            // `(fingerprint, fault index)` — a stable regrouping — and the
            // per-lane results go back through the carried indices, so the
            // outcome vector stays in fault-list order.
            let group_by_cone = |indices: &[usize], stats: &mut SimStats| -> Vec<usize> {
                let mut keyed: Vec<(u128, usize)> = indices
                    .iter()
                    .map(|&index| (compiled.cone_key(effects[index].overlay()), index))
                    .collect();
                keyed.sort_unstable();
                stats.cone_grouped += keyed.len() as u64;
                stats.cone_dedup_hits += keyed
                    .windows(2)
                    .filter(|pair| pair[0].0 == pair[1].0)
                    .count() as u64;
                keyed.into_iter().map(|(_, index)| index).collect()
            };
            let grouped = group_by_cone(&clean, &mut stats);
            let grouped_bridged = group_by_cone(&bridged, &mut stats);
            for stream in [&grouped, &grouped_bridged] {
                for word in stream.chunks(MAX_LANES) {
                    let overlays: Vec<&tmr_sim::FaultOverlay> =
                        word.iter().map(|&index| effects[index].overlay()).collect();
                    let mismatches = compiled.run_lanes(packed, &overlays, &mut stats);
                    for (&index, mismatch) in word.iter().zip(mismatches) {
                        results[index] = (mismatch.is_some(), mismatch);
                    }
                }
            }
        }
    }

    let outcomes = faults
        .iter()
        .zip(effects)
        .zip(results)
        .map(
            |((bits, effect), (wrong_answer, first_error_cycle))| FaultOutcome {
                bit: bits[0],
                class: effect.class(),
                wrong_answer,
                first_error_cycle,
                crosses_domains: effect.crosses_domains(),
                bits: effect.into_bits(),
            },
        )
        .collect();
    (outcomes, simulated, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignBuilder, SimBackend};
    use tmr_core::{apply_tmr, TmrConfig};
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap, Design};

    fn implement(design: &Design, device: &Device, seed: u64) -> RoutedDesign {
        let netlist = techmap(&optimize(&lower(design).unwrap())).unwrap();
        place_and_route(device, &netlist, seed).unwrap()
    }

    #[test]
    fn unprotected_design_is_vulnerable() {
        let device = Device::small(5, 5);
        let routed = implement(&counter(4), &device, 5);
        let result = CampaignBuilder::new()
            .faults(400)
            .cycles(12)
            .sequential()
            .run(&device, &routed)
            .unwrap();
        assert_eq!(result.injected(), 400.min(result.fault_list_size));
        assert!(
            result.wrong_answer_percent() > 10.0,
            "an unprotected design must show a substantial error rate, got {:.2}%",
            result.wrong_answer_percent()
        );
        // Classifications of error-causing faults must be dominated by routing.
        let errors = result.error_classification();
        let routing_errors: usize = errors
            .iter()
            .filter(|(class, _)| class.is_general_routing())
            .map(|(_, n)| n)
            .sum();
        assert!(routing_errors > 0);
        assert!(result.to_string().contains("injected"));
    }

    #[test]
    fn tmr_reduces_the_error_rate() {
        let device = Device::small(8, 8);
        let base = counter(4);
        let plain = implement(&base, &device, 5);
        let tmr_design = apply_tmr(&base, &TmrConfig::paper_p2()).unwrap();
        let tmr = implement(&tmr_design, &device, 5);

        let campaign = CampaignBuilder::new().faults(500).cycles(12).sequential();
        let plain_result = campaign.clone().run(&device, &plain).unwrap();
        let tmr_result = campaign.run(&device, &tmr).unwrap();
        assert!(
            tmr_result.wrong_answer_percent() < plain_result.wrong_answer_percent() / 2.0,
            "TMR ({:.2}%) must be substantially more robust than the plain design ({:.2}%)",
            tmr_result.wrong_answer_percent(),
            plain_result.wrong_answer_percent()
        );
    }

    #[test]
    fn lut_upsets_never_defeat_tmr() {
        let device = Device::small(8, 8);
        let tmr_design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let tmr = implement(&tmr_design, &device, 5);
        let result = CampaignBuilder::new()
            .faults(800)
            .cycles(12)
            .sequential()
            .run(&device, &tmr)
            .unwrap();
        let errors = result.error_classification();
        assert_eq!(
            errors.get(&FaultClass::Lut).copied().unwrap_or(0),
            0,
            "a single-domain LUT upset must always be voted out: {errors:?}"
        );
    }

    #[test]
    fn campaigns_are_reproducible() {
        let device = Device::small(5, 5);
        let routed = implement(&counter(4), &device, 5);
        let campaign = CampaignBuilder::new().faults(100).cycles(8).sequential();
        let a = campaign.clone().run(&device, &routed).unwrap();
        let b = campaign.run(&device, &routed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn interpreter_backend_matches_the_compiled_default() {
        let device = Device::small(5, 5);
        let routed = implement(&counter(4), &device, 5);
        let campaign = CampaignBuilder::new().faults(60).cycles(6).sequential();
        let compiled = campaign
            .clone()
            .backend(SimBackend::Compiled)
            .run(&device, &routed)
            .unwrap();
        let interpreted = campaign
            .backend(SimBackend::Interpreter)
            .run(&device, &routed)
            .unwrap();
        assert_eq!(compiled, interpreted);
    }
}
