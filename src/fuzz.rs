//! Differential fuzzing of the whole flow.
//!
//! Per seed, [`run_seed`] drives generator → TMR transform → auto-sized
//! device → place/route → fault-injection campaigns, and cross-checks the
//! three independent oracles the workspace already maintains:
//!
//! | oracle | checked against | failure variant |
//! |---|---|---|
//! | compiled engine | interpreting simulator, byte-equality of [`CampaignResult`] | [`OracleFailure::CompiledDivergence`] |
//! | static `tmr-analyze` verdicts | dynamic campaign outcomes (wrong answers must be statically observable, dynamic domain crossings must be statically crossing) and pruning transparency | [`OracleFailure::StaticUnsound`] / [`OracleFailure::PruneDivergence`] |
//! | sharded campaign merge | the sequential run, byte-equality | [`OracleFailure::ShardMergeDivergence`] |
//!
//! Any stage failure — including a routability failure of the auto-sized
//! device, which the sizing policy must prevent for every valid generated
//! design — is itself a finding ([`OracleFailure::Flow`]).
//!
//! Failures are minimized with [`shrink_case`] (delta-debugging the
//! word-level design while the same failure kind reproduces) and stored as
//! self-contained [`RegressionCase`] text files under
//! `tests/fuzz_regressions/`, which `tests/fuzz_flow.rs` replays forever
//! after.

use crate::flow::{device_for, synthesize, FlowBuilder};
use crate::{ArtifactCache, Error};
use std::fmt;
use std::sync::Arc;
use tmr_analyze::{PruneWith, StaticAnalysis, Verdict};
use tmr_arch::{Device, DeviceParams, MbuPattern};
use tmr_core::TmrConfig;
use tmr_designs::spec::{shrink, DesignSpec};
use tmr_designs::{generate, GeneratorConfig, SpecError};
use tmr_faultsim::{CampaignBuilder, CampaignResult, FaultModel, SimBackend};
use tmr_synth::Design;

/// Budget and coverage knobs of one fuzzing check.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Faults sampled per campaign.
    pub faults: usize,
    /// Simulated cycles per fault.
    pub cycles: usize,
    /// Worker shards of the sharded run checked against the sequential one.
    pub shards: usize,
    /// Maximum LUT/FF utilisation target handed to the device auto-sizer.
    pub max_utilisation: f64,
    /// Base architecture handed to the device auto-sizer. The auto-sizer
    /// owns routability: whatever lean preset lands here, every valid
    /// generated design must implement without a routing failure.
    pub params: DeviceParams,
}

impl Default for FuzzOptions {
    /// A budget tuned so one seed (route + 3 fault models × 5 campaigns)
    /// completes in well under a second on the generator's default sizes.
    fn default() -> Self {
        Self {
            faults: 120,
            cycles: 8,
            shards: 4,
            max_utilisation: 0.5,
            params: DeviceParams::small(6, 6),
        }
    }
}

/// The base architecture a seed is fuzzed on: seeds rotate through the
/// well-provisioned `small` preset and three progressively leaner channel /
/// pin configurations, so any contiguous range of four seeds also exercises
/// the auto-sizer's routability compensation ([`crate::flow::device_for`]
/// must derive the missing headroom from the netlists).
pub fn arch_for_seed(seed: u64) -> DeviceParams {
    let mut params = DeviceParams::small(6, 6);
    match seed % 4 {
        0 => {}
        1 => {
            params.tracks = 16;
            params.out_pin_candidates = 6;
            params.in_pin_candidates = 4;
        }
        2 => {
            params.tracks = 12;
            params.out_pin_candidates = 4;
            params.in_pin_candidates = 3;
            params.sb_neighbor = 2;
        }
        _ => {
            params.tracks = 8;
            params.out_pin_candidates = 4;
            params.in_pin_candidates = 2;
            params.sb_same_tile = 2;
            params.sb_neighbor = 2;
        }
    }
    params
}

/// The three fault-model families every seed is checked under.
pub fn fault_models() -> [FaultModel; 3] {
    [
        FaultModel::SingleBit,
        FaultModel::Mbu {
            pattern: MbuPattern::Tile2x2,
        },
        FaultModel::Accumulate {
            upsets_per_scrub: 2,
        },
    ]
}

/// The TMR variant a seed is fuzzed under: seeds rotate through the
/// unprotected design and the four paper presets, so any contiguous range of
/// five seeds covers every variant.
pub fn variant_for_seed(seed: u64) -> (String, Option<TmrConfig>) {
    match seed % 5 {
        0 => ("standard".to_string(), None),
        1 => ("p1".to_string(), Some(TmrConfig::paper_p1())),
        2 => ("p2".to_string(), Some(TmrConfig::paper_p2())),
        3 => ("p3".to_string(), Some(TmrConfig::paper_p3())),
        _ => ("p3_nv".to_string(), Some(TmrConfig::paper_p3_nv())),
    }
}

/// Resolves a variant name (`standard`, `p1`, `p2`, `p3`, `p3_nv`) to its
/// TMR configuration.
pub fn variant_config(name: &str) -> Option<Option<TmrConfig>> {
    match name {
        "standard" => Some(None),
        "p1" => Some(Some(TmrConfig::paper_p1())),
        "p2" => Some(Some(TmrConfig::paper_p2())),
        "p3" => Some(Some(TmrConfig::paper_p3())),
        "p3_nv" => Some(Some(TmrConfig::paper_p3_nv())),
        _ => None,
    }
}

/// One oracle violation (or stage failure) found by the fuzzer.
#[derive(Debug, Clone)]
pub enum OracleFailure {
    /// A pipeline stage failed outright — synthesis, placement, routing
    /// (the auto-sizing contract makes routability failures findings, not
    /// infrastructure noise) or simulator compilation.
    Flow(String),
    /// The compiled engine diverged from the interpreting oracle.
    CompiledDivergence {
        /// The fault model under which the backends diverged.
        model: FaultModel,
        /// First differing outcome / aggregate diff.
        detail: String,
    },
    /// The sharded campaign merge diverged from the sequential run.
    ShardMergeDivergence {
        /// The fault model under which the merge diverged.
        model: FaultModel,
        /// Shard count of the diverging run.
        shards: usize,
        /// First differing outcome / aggregate diff.
        detail: String,
    },
    /// A dynamic outcome contradicted the static analysis: a wrong answer
    /// from a statically-unobservable fault, or a dynamic domain crossing
    /// on a bit the analyzer did not flag as crossing.
    StaticUnsound {
        /// The fault model of the contradicting campaign.
        model: FaultModel,
        /// The contradiction.
        detail: String,
    },
    /// Statically pruned campaign outcomes differ from the unpruned run.
    PruneDivergence {
        /// The fault model under which pruning changed outcomes.
        model: FaultModel,
        /// First differing outcome / aggregate diff.
        detail: String,
    },
}

impl OracleFailure {
    /// A stable machine-readable tag of the failure kind — the invariant a
    /// shrink preserves and a regression case records.
    pub fn kind(&self) -> &'static str {
        match self {
            OracleFailure::Flow(_) => "flow",
            OracleFailure::CompiledDivergence { .. } => "compiled-divergence",
            OracleFailure::ShardMergeDivergence { .. } => "shard-merge-divergence",
            OracleFailure::StaticUnsound { .. } => "static-unsound",
            OracleFailure::PruneDivergence { .. } => "prune-divergence",
        }
    }
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFailure::Flow(detail) => write!(f, "flow failure: {detail}"),
            OracleFailure::CompiledDivergence { model, detail } => write!(
                f,
                "compiled engine diverged from interpreter under {model}: {detail}"
            ),
            OracleFailure::ShardMergeDivergence {
                model,
                shards,
                detail,
            } => write!(
                f,
                "sharded ({shards}) merge diverged from sequential under {model}: {detail}"
            ),
            OracleFailure::StaticUnsound { model, detail } => {
                write!(f, "static analysis unsound under {model}: {detail}")
            }
            OracleFailure::PruneDivergence { model, detail } => {
                write!(f, "pruned campaign diverged under {model}: {detail}")
            }
        }
    }
}

/// The outcome of fuzzing one seed.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The fuzzed seed.
    pub seed: u64,
    /// The sampled generator configuration.
    pub config: GeneratorConfig,
    /// The TMR variant fuzzed under (`standard`, `p1`, …).
    pub variant: String,
    /// Mapped LUT count of the implemented netlist (0 when the flow failed
    /// before synthesis).
    pub luts: usize,
    /// Grid of the auto-sized device.
    pub grid: (u16, u16),
    /// Every oracle violation found (empty = the seed passed).
    pub failures: Vec<OracleFailure>,
}

impl SeedReport {
    /// `true` when every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for SeedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {:>5} variant {:<8} {:>4} luts on {}x{}: ",
            self.seed, self.variant, self.luts, self.grid.0, self.grid.1
        )?;
        if self.passed() {
            write!(f, "ok")
        } else {
            write!(
                f,
                "{} FAILURE(S): {}",
                self.failures.len(),
                self.failures[0]
            )
        }
    }
}

/// Fuzzes one seed: generates the design (knobs sampled from the same
/// seed), implements it under [`variant_for_seed`] on the
/// [`arch_for_seed`] base architecture (overriding `options.params`), and
/// checks every oracle under all three fault models. The placement and
/// sampling seeds are tied to the fuzz seed, so each seed also explores a
/// different PnR and fault sample point.
pub fn run_seed(seed: u64, options: &FuzzOptions) -> SeedReport {
    let config = GeneratorConfig::sampled(seed);
    let design = generate(seed, &config);
    let (variant, tmr) = variant_for_seed(seed);
    let mut options = options.clone();
    options.params = arch_for_seed(seed);
    let mut report = SeedReport {
        seed,
        config,
        variant,
        luts: 0,
        grid: (0, 0),
        failures: Vec::new(),
    };
    let failures = check_design(
        &design,
        tmr.as_ref(),
        seed,
        seed,
        &options,
        Some(&mut report),
    );
    report.failures = failures;
    report
}

/// Implements `design` under `tmr` on an auto-sized device and runs every
/// oracle under all three fault models. Returns every violation found
/// (empty when the design passes). `pnr_seed` seeds placement and
/// `sampling_seed` the fault sampler, so reruns are exact.
pub fn check_design(
    design: &Design,
    tmr: Option<&TmrConfig>,
    pnr_seed: u64,
    sampling_seed: u64,
    options: &FuzzOptions,
    report: Option<&mut SeedReport>,
) -> Vec<OracleFailure> {
    let mut failures = Vec::new();

    let implemented = implement(design, tmr, pnr_seed, options);
    let (device, routed, analysis) = match implemented {
        Ok(parts) => parts,
        Err(error) => {
            failures.push(OracleFailure::Flow(error.to_string()));
            return failures;
        }
    };
    if let Some(report) = report {
        report.luts = routed.netlist().stats().luts;
        report.grid = (device.cols(), device.rows());
    }

    for model in fault_models() {
        let base = CampaignBuilder::new()
            .faults(options.faults)
            .cycles(options.cycles)
            .fault_model(model)
            .sampling_seed(sampling_seed)
            .sequential();
        let run = |builder: CampaignBuilder| -> Result<CampaignResult, Error> {
            Ok(builder.run(&device, routed.design())?)
        };

        let oracle = match run(base.clone().backend(SimBackend::Interpreter)) {
            Ok(result) => result,
            Err(error) => {
                failures.push(OracleFailure::Flow(error.to_string()));
                continue;
            }
        };

        // Oracle 1: the compiled engine is byte-identical to the interpreter.
        match run(base.clone().backend(SimBackend::Compiled)) {
            Ok(result) => {
                if result != oracle {
                    failures.push(OracleFailure::CompiledDivergence {
                        model,
                        detail: diff_results(&result, &oracle),
                    });
                }
            }
            Err(error) => failures.push(OracleFailure::Flow(error.to_string())),
        }

        // Oracle 3: the sharded merge is byte-identical to the sequential
        // run (compiled backend, where batching interacts with sharding).
        match run(base
            .clone()
            .backend(SimBackend::Compiled)
            .shards(options.shards))
        {
            Ok(result) => {
                if result != oracle {
                    failures.push(OracleFailure::ShardMergeDivergence {
                        model,
                        shards: options.shards,
                        detail: diff_results(&result, &oracle),
                    });
                }
            }
            Err(error) => failures.push(OracleFailure::Flow(error.to_string())),
        }

        // Oracle 2a: every dynamic wrong answer comes from a fault the
        // static analysis keeps observable.
        for outcome in oracle.outcomes.iter().filter(|o| o.wrong_answer) {
            if !analysis.fault_possibly_observable(&outcome.bits) {
                failures.push(OracleFailure::StaticUnsound {
                    model,
                    detail: format!(
                        "bits {:?} caused a wrong answer but are statically {}",
                        outcome.bits,
                        analysis.verdict_for_fault(&outcome.bits)
                    ),
                });
            }
        }

        // Oracle 2b: dynamic domain crossings are statically crossing —
        // for every model, judging multi-bit clusters as a whole.
        for outcome in oracle.outcomes.iter().filter(|o| o.crosses_domains) {
            let verdict = analysis.verdict_for_fault(&outcome.bits);
            if !matches!(verdict, Verdict::DomainCrossing { .. }) {
                failures.push(OracleFailure::StaticUnsound {
                    model,
                    detail: format!(
                        "bits {:?} cross domains dynamically but are {verdict} statically",
                        outcome.bits
                    ),
                });
            }
        }

        // Oracle 2c: pruning with the static analysis never changes any
        // outcome and never simulates more.
        match run(base
            .clone()
            .prune_with(&analysis)
            .backend(SimBackend::Interpreter))
        {
            Ok(pruned) => {
                if pruned.outcomes != oracle.outcomes {
                    failures.push(OracleFailure::PruneDivergence {
                        model,
                        detail: diff_results(&pruned, &oracle),
                    });
                } else if pruned.simulated > oracle.simulated {
                    failures.push(OracleFailure::PruneDivergence {
                        model,
                        detail: format!(
                            "pruned run simulated more faults ({} vs {})",
                            pruned.simulated, oracle.simulated
                        ),
                    });
                }
            }
            Err(error) => failures.push(OracleFailure::Flow(error.to_string())),
        }
    }

    failures
}

/// Synthesizes, auto-sizes, places, routes and statically analyzes one
/// design variant.
fn implement(
    design: &Design,
    tmr: Option<&TmrConfig>,
    pnr_seed: u64,
    options: &FuzzOptions,
) -> Result<(Device, Arc<crate::flow::Routed>, Arc<StaticAnalysis>), Error> {
    // Synthesis needs no device: size the device from the netlist, then
    // build the flow over the same cache, where its synthesis is a lookup.
    let cache = ArtifactCache::shared();
    let netlist = synthesize(&cache, None, design, tmr)?;
    let device = device_for(options.params, &[&netlist], options.max_utilisation);

    let mut builder = FlowBuilder::new(&device, design)
        .seed(pnr_seed)
        .cache(cache);
    if let Some(tmr) = tmr {
        builder = builder.tmr(tmr.clone());
    }
    let flow = builder.build();
    let routed = flow.routed()?;
    let analyzed = flow.analyzed()?;
    let analysis = Arc::new(analyzed.analysis().clone());
    Ok((device, routed, analysis))
}

/// Summarizes the first difference between two campaign results.
fn diff_results(got: &CampaignResult, expected: &CampaignResult) -> String {
    if got.fault_list_size != expected.fault_list_size {
        return format!(
            "fault list size {} vs {}",
            got.fault_list_size, expected.fault_list_size
        );
    }
    if got.simulated != expected.simulated {
        return format!("simulated {} vs {}", got.simulated, expected.simulated);
    }
    if got.outcomes.len() != expected.outcomes.len() {
        return format!(
            "outcome count {} vs {}",
            got.outcomes.len(),
            expected.outcomes.len()
        );
    }
    for (index, (a, b)) in got
        .outcomes
        .iter()
        .zip(expected.outcomes.iter())
        .enumerate()
    {
        if a != b {
            return format!("outcome {index}: got {a:?}, expected {b:?}");
        }
    }
    "results compare unequal but no field differs (equality contract drift)".to_string()
}

/// A self-contained, replayable fuzzing failure: everything needed to rerun
/// the oracles on the exact design, variant and seeds, in a line-oriented
/// text form (see `tests/fuzz_regressions/`).
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionCase {
    /// Free-form provenance notes (emitted as `#` comments).
    pub comment: Vec<String>,
    /// Variant name (`standard`, `p1`, `p2`, `p3`, `p3_nv`).
    pub variant: String,
    /// The failure kind ([`OracleFailure::kind`]) this case reproduced when
    /// it was recorded — the invariant shrinking preserved.
    pub kind: String,
    /// Faults per campaign.
    pub faults: usize,
    /// Cycles per fault.
    pub cycles: usize,
    /// Shards of the sharded-merge oracle.
    pub shards: usize,
    /// Placement seed.
    pub pnr_seed: u64,
    /// Fault-sampling seed.
    pub sampling_seed: u64,
    /// Base architecture handed to the auto-sizer when the failure was
    /// recorded (lean presets reproduce auto-sizing failures).
    pub params: DeviceParams,
    /// The (shrunken) word-level design.
    pub spec: DesignSpec,
}

impl RegressionCase {
    /// Builds the case capturing one failing seed.
    pub fn from_seed(seed: u64, failure_kind: &str, options: &FuzzOptions) -> Self {
        let config = GeneratorConfig::sampled(seed);
        let design = generate(seed, &config);
        let (variant, _) = variant_for_seed(seed);
        Self {
            comment: vec![format!("found by tmr-fuzz seed {seed} ({})", failure_kind)],
            variant,
            kind: failure_kind.to_string(),
            faults: options.faults,
            cycles: options.cycles,
            shards: options.shards,
            pnr_seed: seed,
            sampling_seed: seed,
            params: arch_for_seed(seed),
            spec: DesignSpec::from_design(&design)
                .expect("generated designs have unique signal names"),
        }
    }

    /// The fuzzing budget this case replays under.
    pub fn options(&self) -> FuzzOptions {
        FuzzOptions {
            faults: self.faults,
            cycles: self.cycles,
            shards: self.shards,
            params: self.params,
            ..FuzzOptions::default()
        }
    }

    /// Replays the case: rebuilds the design and runs every oracle.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the design cannot be rebuilt or the
    /// variant name is unknown.
    pub fn check(&self) -> Result<Vec<OracleFailure>, SpecError> {
        let design = self.spec.to_design()?;
        let tmr = variant_config(&self.variant)
            .ok_or_else(|| SpecError::Unsupported(format!("unknown variant `{}`", self.variant)))?;
        Ok(check_design(
            &design,
            tmr.as_ref(),
            self.pnr_seed,
            self.sampling_seed,
            &self.options(),
            None,
        ))
    }

    /// Parses the text form.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] with the offending line.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut comment = Vec::new();
        let mut variant = String::from("standard");
        let mut kind = String::from("flow");
        let mut faults = 120usize;
        let mut cycles = 8usize;
        let mut shards = 4usize;
        let mut pnr_seed = 1u64;
        let mut sampling_seed = 1u64;
        let mut params = DeviceParams::small(6, 6);
        let mut spec_start = None;
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let trimmed = raw.trim();
            let error = |message: &str| SpecError::Parse {
                line,
                message: message.to_string(),
            };
            if trimmed.starts_with("design ") {
                spec_start = Some(index);
                break;
            }
            if trimmed.is_empty() {
                continue;
            }
            if let Some(note) = trimmed.strip_prefix('#') {
                comment.push(note.trim().to_string());
                continue;
            }
            let (key, value) = trimmed
                .split_once(' ')
                .ok_or_else(|| error("expected `key value`"))?;
            match key {
                "variant" => variant = value.trim().to_string(),
                "kind" => kind = value.trim().to_string(),
                "faults" => faults = value.trim().parse().map_err(|_| error("bad faults"))?,
                "cycles" => cycles = value.trim().parse().map_err(|_| error("bad cycles"))?,
                "shards" => shards = value.trim().parse().map_err(|_| error("bad shards"))?,
                "pnr_seed" => pnr_seed = value.trim().parse().map_err(|_| error("bad pnr_seed"))?,
                "sampling_seed" => {
                    sampling_seed = value
                        .trim()
                        .parse()
                        .map_err(|_| error("bad sampling_seed"))?
                }
                "arch" => {
                    let fields: Vec<u32> = value
                        .split_whitespace()
                        .map(|f| f.parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| error("bad arch field"))?;
                    let [cols, rows, slices, tracks, out, inp, sb_same, sb_neighbor, iobs, frame] =
                        fields.as_slice()
                    else {
                        return Err(error("arch needs 10 fields"));
                    };
                    params = DeviceParams {
                        cols: *cols as u16,
                        rows: *rows as u16,
                        slices_per_tile: *slices as u8,
                        tracks: *tracks as u16,
                        out_pin_candidates: *out as u16,
                        in_pin_candidates: *inp as u16,
                        sb_same_tile: *sb_same as u16,
                        sb_neighbor: *sb_neighbor as u16,
                        iobs_per_perimeter_tile: *iobs as u8,
                        frame_bits: *frame,
                    };
                }
                _ => return Err(error("unknown header key")),
            }
        }
        let start = spec_start.ok_or(SpecError::Parse {
            line: text.lines().count(),
            message: "missing `design` section".to_string(),
        })?;
        let spec_text: String = text.lines().skip(start).collect::<Vec<_>>().join("\n");
        Ok(Self {
            comment,
            variant,
            kind,
            faults,
            cycles,
            shards,
            pnr_seed,
            sampling_seed,
            params,
            spec: DesignSpec::parse(&spec_text)?,
        })
    }
}

impl fmt::Display for RegressionCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for note in &self.comment {
            writeln!(f, "# {note}")?;
        }
        writeln!(f, "variant {}", self.variant)?;
        writeln!(f, "kind {}", self.kind)?;
        writeln!(f, "faults {}", self.faults)?;
        writeln!(f, "cycles {}", self.cycles)?;
        writeln!(f, "shards {}", self.shards)?;
        writeln!(f, "pnr_seed {}", self.pnr_seed)?;
        writeln!(f, "sampling_seed {}", self.sampling_seed)?;
        let p = &self.params;
        writeln!(
            f,
            "arch {} {} {} {} {} {} {} {} {} {}",
            p.cols,
            p.rows,
            p.slices_per_tile,
            p.tracks,
            p.out_pin_candidates,
            p.in_pin_candidates,
            p.sb_same_tile,
            p.sb_neighbor,
            p.iobs_per_perimeter_tile,
            p.frame_bits
        )?;
        writeln!(f)?;
        write!(f, "{}", self.spec)
    }
}

/// Delta-debugs a failing case down to a minimal design that still fails
/// with the same [`OracleFailure::kind`]. Every candidate re-runs the full
/// flow and all oracles, so shrinking a case costs one flow per attempted
/// reduction; the returned case carries the shrunken design and the same
/// replay parameters.
pub fn shrink_case(case: &RegressionCase) -> RegressionCase {
    let target = case.kind.clone();
    let tmr = variant_config(&case.variant).flatten();
    let options = case.options();
    let reproduces = |spec: &DesignSpec| -> bool {
        let Ok(design) = spec.to_design() else {
            return false;
        };
        check_design(
            &design,
            tmr.as_ref(),
            case.pnr_seed,
            case.sampling_seed,
            &options,
            None,
        )
        .iter()
        .any(|failure| failure.kind() == target)
    };
    let spec = shrink(&case.spec, reproduces);
    let mut shrunk = case.clone();
    shrunk.comment.push(format!(
        "shrunk from {} to {} rows",
        case.spec.rows.len(),
        spec.rows.len()
    ));
    shrunk.spec = spec;
    shrunk
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_case_text_round_trips() {
        let options = FuzzOptions::default();
        let case = RegressionCase::from_seed(3, "compiled-divergence", &options);
        let text = case.to_string();
        let parsed = RegressionCase::parse(&text).expect("case parses");
        assert_eq!(case, parsed);
    }

    #[test]
    fn variant_rotation_covers_all_presets() {
        let names: Vec<String> = (0..5).map(|s| variant_for_seed(s).0).collect();
        assert_eq!(names, ["standard", "p1", "p2", "p3", "p3_nv"]);
        for name in names {
            assert!(variant_config(&name).is_some());
        }
        assert!(variant_config("bogus").is_none());
    }
}
