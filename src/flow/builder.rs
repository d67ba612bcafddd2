//! [`FlowBuilder`] and the lazily evaluated, memoized [`Flow`].

use super::stages::{stage_compiled, stage_protected, stage_synthesized};
use super::{Analyzed, Compiled, Placed, Routed, Synthesized};
use crate::Error;
use std::sync::Arc;
use tmr_analyze::StaticAnalysis;
use tmr_arch::Device;
use tmr_core::pipeline::{fingerprint, ArtifactCache, CacheKey, Fingerprint};
use tmr_core::TmrConfig;
use tmr_faultsim::{CampaignBuilder, CampaignResult, CampaignSession, SimBackend};
use tmr_pnr::{place, route_with_telemetry, PlacerOptions, RoutedDesign, RouterOptions};
use tmr_sim::GoldenRun;
use tmr_store::{PersistentCache, Store};
use tmr_synth::Design;

/// Builder for a single staged implementation [`Flow`].
///
/// ```
/// use tmr_fpga::arch::Device;
/// use tmr_fpga::flow::FlowBuilder;
/// use tmr_fpga::tmr::TmrConfig;
///
/// let device = Device::small(8, 8);
/// let design = tmr_fpga::designs::counter(4);
/// let flow = FlowBuilder::new(&device, &design)
///     .tmr(TmrConfig::paper_p2())
///     .seed(1)
///     .build();
/// let routed = flow.routed().unwrap();
/// assert!(routed.bitstream().count_ones() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    device: Device,
    design: Design,
    tmr: Option<TmrConfig>,
    seed: u64,
    shards: Option<usize>,
    cache: Option<Arc<ArtifactCache>>,
    store: Option<Arc<Store>>,
}

impl FlowBuilder {
    /// Starts a flow of `design` onto `device` (both captured by clone).
    pub fn new(device: &Device, design: &Design) -> Self {
        Self {
            device: device.clone(),
            design: design.clone(),
            tmr: None,
            seed: 1,
            shards: None,
            cache: None,
            store: None,
        }
    }

    /// Protects the design with TMR before synthesis.
    #[must_use]
    pub fn tmr(mut self, config: TmrConfig) -> Self {
        self.tmr = Some(config);
        self
    }

    /// Placement seed (default 1).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker-shard count for campaigns run through this flow (default: one
    /// per CPU core). Results are bit-identical for any shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Shares an [`ArtifactCache`] with other flows (default: a fresh
    /// private cache). A sweep passes one cache to all of its flows.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Backs the flow's cache with an open disk [`Store`], so stage
    /// artifacts survive the process and warm-start later runs (default:
    /// the store named by the `TMR_CACHE_DIR` environment variable, if
    /// any). A sweep passes one store to all of its flows so the disk
    /// counters aggregate.
    #[must_use]
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Flow {
        let identity = fingerprint(&[&self.design, &self.tmr]);
        let device_fp = fingerprint(&[self.device.params()]);
        let disk = self.store.or_else(Store::from_env);
        Flow {
            device: Arc::new(self.device),
            design: self.design,
            tmr: self.tmr,
            seed: self.seed,
            shards: self.shards,
            cache: PersistentCache::new(self.cache.unwrap_or_default(), disk),
            identity,
            device_fp,
        }
    }
}

/// A lazily evaluated, memoized implementation flow over one design and one
/// device.
///
/// Every stage accessor computes its artifact on first use and caches it in
/// the flow's [`ArtifactCache`] under a content fingerprint of the stage
/// inputs; repeated calls — from this flow or any flow sharing the cache
/// with identical inputs — return the same `Arc` without recomputing.
#[derive(Debug, Clone)]
pub struct Flow {
    device: Arc<Device>,
    design: Design,
    tmr: Option<TmrConfig>,
    seed: u64,
    shards: Option<usize>,
    cache: PersistentCache,
    /// Fingerprint of `(design, tmr config)`: since every stage is a
    /// deterministic function, downstream keys derive from this instead of
    /// hashing the (much larger) intermediate artifacts.
    identity: u64,
    device_fp: u64,
}

impl Flow {
    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The word-level input design (before TMR).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The TMR configuration, if the flow protects the design.
    pub fn tmr_config(&self) -> Option<&TmrConfig> {
        self.tmr.as_ref()
    }

    /// The in-memory artifact cache backing this flow.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        self.cache.mem()
    }

    /// The disk store behind the cache, when one is attached (via
    /// [`FlowBuilder::store`] or `TMR_CACHE_DIR`).
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.cache.disk()
    }

    /// The design entering synthesis: the TMR-transformed design when a
    /// config is set, the input design otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`TmrError`](tmr_core::TmrError) from the transformation.
    pub fn protected(&self) -> Result<Arc<Design>, Error> {
        stage_protected(&self.cache, self.identity, &self.design, self.tmr.as_ref())
    }

    /// Stage 1, [`Synthesized`]: lowering → dead-logic elimination → LUT
    /// mapping + I/O insertion. Persisted to disk when a store is attached;
    /// a warm disk skips the TMR transformation too.
    ///
    /// # Errors
    ///
    /// Propagates transformation, lowering and mapping errors.
    pub fn synthesized(&self) -> Result<Arc<Synthesized>, Error> {
        stage_synthesized(&self.cache, self.identity, || self.protected())
    }

    /// Stage 2, [`Placed`]: seeded simulated-annealing placement.
    /// Memory-only — a warm disk serves [`routed`](Self::routed) directly
    /// and never needs the placement.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors and placement failures (device too
    /// small, unplaceable cells).
    pub fn placed(&self) -> Result<Arc<Placed>, Error> {
        let fp = self.implementation_fp();
        self.cache
            .mem()
            .get_or_try_insert(CacheKey::new("place", fp), || {
                let synthesized = self.synthesized()?;
                let placement = place(
                    &self.device,
                    synthesized.netlist(),
                    &PlacerOptions {
                        seed: self.seed,
                        ..PlacerOptions::default()
                    },
                )?;
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("cells", placement.iter().count());
                    tmr_trace::attr_current("wirelength", placement.wirelength());
                }
                Ok::<_, Error>(Placed {
                    placement,
                    fingerprint: fp,
                })
            })
    }

    /// Stage 3, [`Routed`]: negotiated-congestion routing plus bitstream
    /// generation. Persisted to disk as the full [`RoutedDesign`]; a warm
    /// disk serves it without synthesizing, placing or routing anything.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors and routing failures (unroutable
    /// congestion, unreachable sinks).
    pub fn routed(&self) -> Result<Arc<Routed>, Error> {
        let fp = self.implementation_fp();
        self.cache.get_or_try_insert_persisted(
            CacheKey::new("route", fp),
            |design: RoutedDesign| {
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("config_bits", design.bitstream().len());
                    tmr_trace::attr_current("bits_set", design.bitstream().count_ones());
                }
                Ok(Routed {
                    design,
                    fingerprint: fp,
                    telemetry: None,
                })
            },
            || {
                let synthesized = self.synthesized()?;
                let placed = self.placed()?;
                let (routes, telemetry) = route_with_telemetry(
                    &self.device,
                    synthesized.netlist(),
                    placed.placement(),
                    &RouterOptions::default(),
                );
                let routes = routes?;
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("route_iterations", telemetry.iteration_count());
                    tmr_trace::attr_current(
                        "route_nodes_expanded",
                        telemetry.total_nodes_expanded() as usize,
                    );
                }
                let design = RoutedDesign::assemble(
                    &self.device,
                    synthesized.netlist(),
                    placed.placement().clone(),
                    routes,
                );
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("config_bits", design.bitstream().len());
                    tmr_trace::attr_current("bits_set", design.bitstream().count_ones());
                }
                let artifact = Routed {
                    design: design.clone(),
                    fingerprint: fp,
                    telemetry: Some(telemetry),
                };
                Ok::<_, Error>((artifact, design))
            },
        )
    }

    /// The [`Compiled`] simulator stage: the synthesized netlist levelized
    /// into the flat 64-lane bit-parallel instruction stream campaigns
    /// evaluate on. Cached per design identity (compilation is
    /// placement-independent) and injected into every campaign this flow
    /// runs, so repeated campaigns — including different fault models —
    /// levelize exactly once.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors; flow netlists are always compilable.
    pub fn compiled(&self) -> Result<Arc<Compiled>, Error> {
        stage_compiled(&self.cache, self.identity, || self.synthesized())
    }

    /// Stage 4, [`Analyzed`]: exhaustive static criticality classification
    /// of every configuration bit (no simulation).
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors; the analysis itself is infallible.
    pub fn analyzed(&self) -> Result<Arc<Analyzed>, Error> {
        let fp = self.implementation_fp();
        self.cache
            .mem()
            .get_or_try_insert(CacheKey::new("analyze", fp), || {
                let routed = self.routed()?;
                let analysis = StaticAnalysis::run(&self.device, routed.design());
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("bits", analysis.bit_count());
                }
                Ok::<_, Error>(Analyzed {
                    analysis,
                    fingerprint: fp,
                })
            })
    }

    /// The golden (fault-free) reference run for campaigns of `cycles`
    /// cycles under stimulus `seed` — cached per netlist (persisted to disk
    /// when a store is attached), shared by every campaign and session over
    /// this design, on any device.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors; flow netlists are always simulable.
    pub fn golden(&self, cycles: usize, stimulus_seed: u64) -> Result<Arc<GoldenRun>, Error> {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.identity)
            .write_u64(cycles as u64)
            .write_u64(stimulus_seed);
        self.cache
            .get_or_try_insert_self(CacheKey::new("golden", fp.finish()), || {
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("cycles", cycles);
                }
                let synthesized = self.synthesized()?;
                GoldenRun::compute(synthesized.netlist(), cycles, stimulus_seed)
                    .map_err(Error::from)
            })
    }

    /// Runs (or returns the cached result of) a fault-injection campaign
    /// over the routed design: a drain of
    /// [`campaign_session`](Self::campaign_session), memoized under the
    /// campaign configuration.
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors; flow netlists are always simulable.
    pub fn campaign(&self, campaign: &CampaignBuilder) -> Result<Arc<CampaignResult>, Error> {
        let fp = self.campaign_fingerprint(campaign);
        self.cache
            .get_or_try_insert_self(CacheKey::new("campaign", fp), || {
                let routed = self.routed()?;
                let result = self.campaign_session(&routed, campaign)?.run();
                if tmr_trace::enabled() {
                    tmr_trace::attr_current("injected", result.injected());
                    tmr_trace::attr_current("wrong_answers", result.wrong_answers());
                }
                Ok(result)
            })
    }

    /// The cache fingerprint of [`campaign`](Self::campaign) for this
    /// configuration — the key the result is memoized and persisted under.
    ///
    /// The fingerprint covers exactly what can change the outcomes: the
    /// implemented design (identity × device × seed) plus the campaign
    /// options (fault count, seeds, the fault model — single-bit, MBU
    /// cluster shape or upsets per scrub — and any static restriction),
    /// batch size and early-stop rule (an early stop lands on a batch
    /// boundary). Shard count, the simulation backend and any attached
    /// golden run or compiled netlist are deliberately absent — they never
    /// change results, only how (fast) they are computed.
    ///
    /// The campaign daemon (`tmr-serve`) keys its resumable outcome
    /// prefixes under the same fingerprint (stage `campaign.partial`).
    pub fn campaign_fingerprint(&self, campaign: &CampaignBuilder) -> u64 {
        fingerprint(&[
            &self.identity,
            &self.device_fp,
            &self.seed,
            campaign.options(),
            &campaign.batch_size_hint(),
            &campaign.early_stop_rule(),
        ])
    }

    /// Builds a streaming [`CampaignSession`] over the routed design for
    /// incremental outcome batches, progress reporting and early stop. The
    /// golden run and, on the compiled backend, the compiled simulator come
    /// from the shared cache; the flow's shard override applies. The caller
    /// keeps the [`Routed`] artifact alive for the session's lifetime:
    ///
    /// ```no_run
    /// # use tmr_fpga::flow::FlowBuilder;
    /// # use tmr_fpga::faultsim::CampaignBuilder;
    /// # let flow: tmr_fpga::flow::Flow = unimplemented!();
    /// let routed = flow.routed()?;
    /// let mut session = flow.campaign_session(&routed, &CampaignBuilder::new())?;
    /// while let Some(batch) = session.next_batch() {
    ///     eprintln!("+{} faults", batch.len());
    /// }
    /// println!("{}", session.into_result());
    /// # Ok::<(), tmr_fpga::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates earlier-stage errors; flow netlists are always simulable.
    pub fn campaign_session<'f>(
        &'f self,
        routed: &'f Routed,
        campaign: &CampaignBuilder,
    ) -> Result<CampaignSession<'f>, Error> {
        let options = campaign.options();
        let golden = self.golden(options.cycles(), options.stimulus_seed())?;
        let mut configured = campaign.clone().golden(golden);
        // Interpreter runs must neither pay the compilation nor distort the
        // `compiled` stage cache counters.
        if campaign.sim_backend() == SimBackend::Compiled {
            configured = configured.compiled(self.compiled()?.netlist().clone());
        }
        if let Some(shards) = self.shards {
            configured = configured.shards(shards);
        }
        Ok(configured.session(&self.device, routed.design())?)
    }

    /// Fingerprint of the implemented design: identity × device × seed.
    fn implementation_fp(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.identity)
            .write_u64(self.device_fp)
            .write_u64(self.seed);
        fp.finish()
    }
}
