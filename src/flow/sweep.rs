//! Device auto-sizing and configuration [`Sweep`]s over design variants.

use super::builder::{Flow, FlowBuilder};
use super::{device, synthesize, Analyzed, Routed};
use crate::Error;
use std::sync::Arc;
use tmr_arch::{Device, DeviceParams};
use tmr_core::pipeline::{ArtifactCache, CacheStats};
use tmr_core::{estimate_resources, par_map, ResourceEstimate, TmrConfig};
use tmr_faultsim::{CampaignBuilder, CampaignResult};
use tmr_netlist::Netlist;
use tmr_pnr::BitReport;
use tmr_store::{DiskStats, Store};
use tmr_synth::Design;

/// Chooses an evaluation device for a set of netlists and builds it: the
/// device of [`device_params_for`].
pub fn device_for(params: DeviceParams, netlists: &[&Netlist], max_utilisation: f64) -> Device {
    Device::new(device_params_for(params, netlists, max_utilisation))
}

/// Sizes an evaluation device for a set of netlists without building it:
/// the given architecture parameters if every netlist fits below
/// `max_utilisation` LUT/FF utilisation (and has enough IOBs), otherwise the
/// same architecture scaled up, four columns and rows at a time, to the
/// smallest grid that does. Callers that keep built devices by their
/// parameters look the device up under the result before building it.
///
/// Grid *capacity* alone does not make a device usable: the channel width,
/// pin candidates and switch-box connectivity of the preset must also cover
/// the netlists' routing demand, or place-and-route fails on a grid the
/// utilisation check accepted. Those constants are calibrated per design
/// family (the paper presets for the FIR case study), so this function
/// derives floors for them from the netlists themselves — pin traffic of a
/// utilised tile, the widest net fanout — and raises any preset value below
/// its floor. Presets already above the floors (all named `DeviceParams`
/// constructors) are returned bit-identical.
pub fn device_params_for(
    mut params: DeviceParams,
    netlists: &[&Netlist],
    max_utilisation: f64,
) -> DeviceParams {
    let max_luts = netlists
        .iter()
        .map(|n| {
            let s = n.stats();
            s.luts + s.constants
        })
        .max()
        .unwrap_or(0);
    let max_ffs = netlists
        .iter()
        .map(|n| n.stats().flip_flops)
        .max()
        .unwrap_or(0);
    let max_iobs = netlists
        .iter()
        .map(|n| n.stats().io_buffers)
        .max()
        .unwrap_or(0);
    let max_fanout = netlists
        .iter()
        .flat_map(|n| n.nets().map(|(_, net)| net.sinks.len()))
        .max()
        .unwrap_or(0);

    // Routability floors. A tile's channel carries the pin traffic of its
    // own sites — every LUT input/output and FF data pin enters or leaves
    // on a track — plus through traffic, which grows with the widest net's
    // fanout (a high-fanout net crosses many channels on its way to its
    // sinks). Pin candidates and switch-box hops below 3 leave the
    // PathFinder negotiation too few alternatives to resolve congestion on
    // any grid size, so they get absolute floors.
    let pin_traffic = params.luts_per_tile() * 6 + params.ffs_per_tile() * 2;
    let tracks_floor = pin_traffic
        .max(max_fanout.div_ceil(2))
        .min(u16::MAX as usize) as u16;
    params.tracks = params.tracks.max(tracks_floor);
    params.out_pin_candidates = params.out_pin_candidates.max(6).min(params.tracks);
    params.in_pin_candidates = params.in_pin_candidates.max(4).min(params.tracks);
    params.sb_same_tile = params.sb_same_tile.max(3);
    params.sb_neighbor = params.sb_neighbor.max(3);

    let fits = |params: &DeviceParams| {
        let tiles = usize::from(params.cols) * usize::from(params.rows);
        let luts = tiles * params.luts_per_tile();
        let ffs = tiles * params.ffs_per_tile();
        let perimeter = 2 * (usize::from(params.cols) + usize::from(params.rows)) - 4;
        let iobs = perimeter * usize::from(params.iobs_per_perimeter_tile);
        (max_luts as f64) < luts as f64 * max_utilisation
            && (max_ffs as f64) < ffs as f64 * max_utilisation
            && max_iobs <= iobs
    };

    while !fits(&params) {
        params.cols += 4;
        params.rows += 4;
    }
    params
}

/// A configuration sweep: many [`Flow`]s over the variants of one base
/// design, sharing a device and an artifact cache.
///
/// ```no_run
/// use tmr_fpga::designs::FirFilter;
/// use tmr_fpga::faultsim::CampaignBuilder;
/// use tmr_fpga::flow::Sweep;
///
/// let base = FirFilter::paper_filter().to_design();
/// let report = Sweep::paper(&base)
///     .campaign(CampaignBuilder::new().faults(4000).cycles(24))
///     .run()
///     .unwrap();
/// for variant in &report.variants {
///     let campaign = variant.campaign.as_ref().unwrap();
///     println!("{}: {:.2} % wrong answers", variant.name, campaign.wrong_answer_percent());
/// }
/// println!("cache: {}", report.cache);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    base: Design,
    variants: Vec<(String, Option<TmrConfig>)>,
    /// The fixed device of [`Sweep::on_device`]; `None` auto-sizes.
    device: Option<Device>,
    seed: u64,
    campaign: Option<CampaignBuilder>,
    analyze: bool,
    cache: Arc<ArtifactCache>,
    store: Option<Arc<Store>>,
}

impl Sweep {
    /// Starts an empty sweep over `base` with an auto-sized XC2S200E-like
    /// device at 50 % maximum utilisation (our mapping has no carry chains,
    /// so designs are larger than the vendor tools'), seed 1, no campaign
    /// and no static analysis.
    pub fn new(base: &Design) -> Self {
        Self {
            base: base.clone(),
            variants: Vec::new(),
            device: None,
            seed: 1,
            campaign: None,
            analyze: false,
            cache: ArtifactCache::shared(),
            store: None,
        }
    }

    /// The paper's five-variant sweep, in Table 3 order: `standard` plus the
    /// four TMR presets (`tmr_p1`, `tmr_p2`, `tmr_p3`, `tmr_p3_nv`).
    pub fn paper(base: &Design) -> Self {
        let mut sweep = Self::new(base).variant("standard", None);
        for config in TmrConfig::paper_presets() {
            let name = format!("tmr_{}", config.label);
            sweep = sweep.variant(&name, Some(config));
        }
        sweep
    }

    /// Appends a named variant (`None` = the unprotected base design).
    #[must_use]
    pub fn variant(mut self, name: &str, config: Option<TmrConfig>) -> Self {
        self.variants.push((name.to_string(), config));
        self
    }

    /// Implements every variant on this fixed device instead of auto-sizing.
    #[must_use]
    pub fn on_device(mut self, device: &Device) -> Self {
        self.device = Some(device.clone());
        self
    }

    /// Placement seed shared by every variant (default 1).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs this fault-injection campaign on every variant.
    #[must_use]
    pub fn campaign(mut self, campaign: CampaignBuilder) -> Self {
        self.campaign = Some(campaign);
        self
    }

    /// Also runs the static criticality analysis on every variant.
    #[must_use]
    pub fn analyze(mut self, analyze: bool) -> Self {
        self.analyze = analyze;
        self
    }

    /// Shares an [`ArtifactCache`] with other sweeps/flows (default: a fresh
    /// cache per sweep). Repeated runs against a shared cache reuse every
    /// artifact, the auto-sized device included.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The cache backing this sweep.
    pub fn cache_handle(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Shares one already-open disk [`Store`] across every flow of the
    /// sweep (and with other sweeps holding the same handle); default:
    /// memory only.
    #[must_use]
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Synthesizes every variant (filling the cache), resolves the device,
    /// and returns the per-variant flows without implementing them. An
    /// auto-sized device comes from the cache's `device` stage, so sweeps
    /// sharing a cache share it.
    ///
    /// # Errors
    ///
    /// Propagates transformation and synthesis errors.
    pub fn flows(&self) -> Result<(Device, Vec<(String, Flow)>), Error> {
        // Synthesis is device-independent: run it first for every variant so
        // auto-sizing can see the netlists. The per-variant flows below then
        // hit the cache for their transformation and synthesis stages. Every
        // variant shares the one store, so its counters aggregate.
        let store = self.store.as_deref();
        let netlists = self
            .variants
            .iter()
            .map(|(_, config)| synthesize(&self.cache, store, &self.base, config.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;

        let device = match &self.device {
            Some(device) => device.clone(),
            None => {
                let netlists: Vec<&Netlist> = netlists.iter().map(|n| &**n).collect();
                let params = device_params_for(DeviceParams::xc2s200e_like(), &netlists, 0.50);
                device(&self.cache, params)
            }
        };

        let flows = self
            .variants
            .iter()
            .map(|(name, config)| {
                let mut builder = FlowBuilder::new(&device, &self.base).seed(self.seed);
                if let Some(config) = config {
                    builder = builder.tmr(config.clone());
                }
                if let Some(store) = &self.store {
                    builder = builder.store(store.clone());
                }
                (name.clone(), builder.cache(self.cache.clone()).build())
            })
            .collect();
        Ok((device, flows))
    }

    /// Runs the sweep: implements every variant, runs the configured
    /// campaign and analysis on each, and reports.
    ///
    /// The variants are implemented as [`par_map`] items (each variant's
    /// place-and-route is independent of the others') and come back in
    /// variant order, so the report (and any error) is identical to a
    /// sequential run. A variant's campaign shards run inline on its worker.
    ///
    /// # Errors
    ///
    /// Propagates any stage error of any variant; when several variants
    /// fail, the error of the earliest one in sweep order is returned.
    pub fn run(&self) -> Result<SweepReport, Error> {
        let (device, flows) = self.flows()?;
        let trace_parent = tmr_trace::current_span();
        let campaign = self.campaign.as_ref();
        let results = par_map(flows, |(name, flow)| {
            let _task = tmr_trace::enabled()
                .then(|| tmr_trace::task(format!("variant-{name}"), trace_parent));
            implement_variant(name, &flow, &device, campaign, self.analyze)
        });
        let mut variants = Vec::with_capacity(results.len());
        for result in results {
            variants.push(result?);
        }
        Ok(SweepReport {
            device,
            variants,
            cache: self.cache.stats(),
            stage_cache: self.cache.stage_stats(),
            disk: self.store.as_ref().map(|store| store.stats()),
        })
    }
}

/// Implements one sweep variant end to end: route, resource estimate, bit
/// report, plus the optional campaign and static analysis. Runs as one
/// [`par_map`] item of [`Sweep::run`]; every stage memoizes into the sweep's
/// shared (thread-safe) caches.
fn implement_variant(
    name: String,
    flow: &Flow,
    device: &Device,
    campaign: Option<&CampaignBuilder>,
    analyze: bool,
) -> Result<VariantReport, Error> {
    let routed = flow.routed()?;
    let resources = estimate_resources(routed.netlist());
    let bits = routed.design().bit_report(device);
    let campaign = match campaign {
        Some(campaign) => Some(flow.campaign(campaign)?),
        None => None,
    };
    let analysis = if analyze {
        Some(flow.analyzed()?)
    } else {
        None
    };
    Ok(VariantReport {
        name,
        config: flow.tmr_config().cloned(),
        routed,
        resources,
        bits,
        campaign,
        analysis,
    })
}

/// Aggregate routing-negotiation statistics of one sweep run (see
/// [`SweepReport::route_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Variants whose routing ran in this process (and thus carry
    /// telemetry).
    pub routed: usize,
    /// PathFinder negotiation iterations summed over those variants.
    pub iterations: usize,
    /// A* queue pops summed over those variants.
    pub nodes_expanded: u64,
    /// Routing time summed over those variants. [`Sweep::run`] routes
    /// variants concurrently, so this per-variant sum can exceed the
    /// sweep's wall time; it is not a wall-clock figure.
    pub elapsed: std::time::Duration,
}

/// One fully implemented sweep variant plus its reports.
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// Variant name (`standard`, `tmr_p1`, …).
    pub name: String,
    /// The TMR configuration (`None` for the unprotected variant).
    pub config: Option<TmrConfig>,
    /// The routed implementation.
    pub routed: Arc<Routed>,
    /// Area / timing estimate (Table 2 left columns).
    pub resources: ResourceEstimate,
    /// Design-related configuration bit counts (Table 2 right columns).
    pub bits: BitReport,
    /// The campaign result, when the sweep configured one (Tables 3/4).
    pub campaign: Option<Arc<CampaignResult>>,
    /// The static criticality analysis, when the sweep enabled it.
    pub analysis: Option<Arc<Analyzed>>,
}

/// The output of [`Sweep::run`]: the shared device, every variant's
/// artifacts and the cache-effectiveness counters.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The device every variant was implemented on.
    pub device: Device,
    /// Per-variant implementations and results, in sweep order.
    pub variants: Vec<VariantReport>,
    /// Artifact-cache counters at the end of the run (hits > 0 whenever the
    /// sweep shared work across variants or runs).
    pub cache: CacheStats,
    /// Per-stage cache counters (`tmr`, `synth`, `compiled`, `campaign`, …),
    /// sorted by stage name — the table binaries log these so reuse of the
    /// compiled-simulator stage is visible in every run.
    pub stage_cache: Vec<(&'static str, CacheStats)>,
    /// Disk-store counters, when the sweep ran over the store of
    /// [`Sweep::store`]; `None` for memory-only sweeps.
    pub disk: Option<DiskStats>,
}

impl SweepReport {
    /// Looks a variant up by name.
    pub fn variant(&self, name: &str) -> Option<&VariantReport> {
        self.variants.iter().find(|v| v.name == name)
    }

    /// Iterates over the variants that ran a campaign.
    pub fn campaigns(&self) -> impl Iterator<Item = (&str, &CampaignResult)> {
        self.variants
            .iter()
            .filter_map(|v| Some((v.name.as_str(), v.campaign.as_deref()?)))
    }

    /// The cache counters of one stage (`"compiled"`, `"synth"`, …).
    pub fn stage_stats(&self, stage: &str) -> Option<CacheStats> {
        self.stage_cache
            .iter()
            .find(|(name, _)| *name == stage)
            .map(|&(_, stats)| stats)
    }

    /// The routing-negotiation counters summed over every variant this
    /// process actually routed (variants served from the disk store carry no
    /// telemetry and contribute nothing — their `routed` count stays 0).
    pub fn route_stats(&self) -> RouteStats {
        let mut stats = RouteStats::default();
        for variant in &self.variants {
            let Some(telemetry) = variant.routed.route_telemetry() else {
                continue;
            };
            stats.routed += 1;
            stats.iterations += telemetry.iteration_count();
            stats.nodes_expanded += telemetry.total_nodes_expanded();
            stats.elapsed += telemetry.total_elapsed();
        }
        stats
    }

    /// The simulator observability counters merged over every campaign of
    /// the sweep (all zero when no variant ran a campaign, or on the
    /// interpreter backend). Campaign results served from the artifact cache
    /// contribute the counters recorded when they were first computed.
    pub fn sim_stats(&self) -> tmr_faultsim::SimStats {
        let mut stats = tmr_faultsim::SimStats::default();
        for (_, campaign) in self.campaigns() {
            stats.merge(&campaign.stats);
        }
        stats
    }
}
