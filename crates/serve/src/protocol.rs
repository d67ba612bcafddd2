//! The NDJSON wire protocol of the campaign service: requests, job
//! specifications and streamed events.
//!
//! Every request and every event is one JSON object per line. Requests are
//! tagged by a `"cmd"` field, events by an `"event"` field; unknown fields
//! are ignored so the protocol can grow. The shared dependency-free JSON
//! module of `tmr-core` ([`tmr_core::json`]) does all parsing and
//! serialization, and its [`validate`](tmr_core::json::validate) function is
//! what `tmr-submit --validate` checks received lines with.

use tmr_core::json::Json;
use tmr_core::TmrConfig;
use tmr_fpga::arch::{Device, DeviceParams, MbuPattern};
use tmr_fpga::faultsim::{CampaignBuilder, EarlyStop, FaultModel};
use tmr_fpga::synth::{Design, MAX_WIDTH};

/// Most stimulus cycles a job may run: far above every workload of the
/// repository, far below what would exhaust memory in the stimulus and
/// golden-trace buffers.
pub const MAX_CYCLES: usize = 4096;

/// Most taps a `moving_sum` design may have.
pub const MAX_MOVING_SUM_TAPS: usize = 64;

/// Most tiles (`cols × rows`) an explicit device may have: a 64 × 64 grid.
pub const MAX_DEVICE_TILES: u32 = 64 * 64;

/// A job specification: which design variant to implement and what campaign
/// to bombard it with. All fields beyond `design` have service defaults, so
/// `{"cmd":"submit","spec":{"design":"counter:4"}}` is a complete request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Design registry entry: `fir`, `fir:paper`, `counter:<width>`,
    /// `accumulator:<width>` or `moving_sum:<taps>,<in_width>,<sum_width>`.
    pub design: String,
    /// TMR variant: `standard` (unprotected), `p1`, `p2`, `p3` or `p3_nv`.
    pub variant: String,
    /// Fault budget: how many faults the campaign injects (before any early
    /// stop).
    pub faults: usize,
    /// Clock cycles of stimulus per fault.
    pub cycles: usize,
    /// Fault model: `single`, `mbu:2-in-frame`, `mbu:2-across-frames`,
    /// `mbu:2x2` or `accumulate:<upsets-per-scrub>`.
    pub model: String,
    /// Faults per scheduling turn: the job yields its worker to other jobs
    /// at every multiple of this many faults, and its resumable prefix is
    /// persisted at the same boundaries.
    pub batch: usize,
    /// Placement seed.
    pub seed: u64,
    /// Stimulus seed (`None` = the campaign default).
    pub stimulus_seed: Option<u64>,
    /// Fault-sampling seed (`None` = the campaign default).
    pub sampling_seed: Option<u64>,
    /// Early-stop rule: halt once the 95 % Agresti–Coull confidence
    /// interval of the wrong-answer rate is within ± this half-width.
    pub ci: Option<f64>,
    /// Device grid `(cols, rows)`; `None` auto-sizes an XC2S200E-like
    /// architecture to the synthesized netlist.
    pub device: Option<(u16, u16)>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            design: String::new(),
            variant: "standard".to_string(),
            faults: 200,
            cycles: 8,
            model: "single".to_string(),
            batch: 64,
            seed: 1,
            stimulus_seed: None,
            sampling_seed: None,
            ci: None,
            device: None,
        }
    }
}

impl JobSpec {
    /// A spec for `design` with every other field at its default.
    pub fn new(design: impl Into<String>) -> Self {
        Self {
            design: design.into(),
            ..Self::default()
        }
    }

    /// Parses a spec from its JSON object form. Missing fields take their
    /// defaults; the mandatory `design` field and all present fields must be
    /// well-formed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let mut spec = Self::new(
            json.get("design")
                .and_then(Json::as_str)
                .ok_or("spec.design: required string")?,
        );
        if let Some(value) = json.get("variant") {
            spec.variant = value
                .as_str()
                .ok_or("spec.variant: expected string")?
                .to_string();
        }
        if let Some(value) = json.get("faults") {
            spec.faults = value.as_u64().ok_or("spec.faults: expected integer")? as usize;
        }
        if let Some(value) = json.get("cycles") {
            spec.cycles = value.as_u64().ok_or("spec.cycles: expected integer")? as usize;
        }
        if let Some(value) = json.get("model") {
            spec.model = value
                .as_str()
                .ok_or("spec.model: expected string")?
                .to_string();
        }
        if let Some(value) = json.get("batch") {
            spec.batch = (value.as_u64().ok_or("spec.batch: expected integer")? as usize).max(1);
        }
        if let Some(value) = json.get("seed") {
            spec.seed = value.as_u64().ok_or("spec.seed: expected integer")?;
        }
        if let Some(value) = json.get("stimulus_seed") {
            spec.stimulus_seed = Some(
                value
                    .as_u64()
                    .ok_or("spec.stimulus_seed: expected integer")?,
            );
        }
        if let Some(value) = json.get("sampling_seed") {
            spec.sampling_seed = Some(
                value
                    .as_u64()
                    .ok_or("spec.sampling_seed: expected integer")?,
            );
        }
        if let Some(value) = json.get("ci") {
            spec.ci = Some(value.as_f64().ok_or("spec.ci: expected number")?);
        }
        if let Some(value) = json.get("device") {
            let side = |name: &str| {
                let side = value
                    .get(name)
                    .and_then(Json::as_u64)
                    .ok_or(format!("spec.device.{name}: expected integer"))?;
                u16::try_from(side)
                    .map_err(|_| format!("spec.device.{name}: must be at most 65535"))
            };
            spec.device = Some((side("cols")?, side("rows")?));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec to its JSON object form (defaults included, so a
    /// round-trip is field-exact).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("design", Json::str(&self.design)),
            ("variant", Json::str(&self.variant)),
            ("faults", Json::from(self.faults)),
            ("cycles", Json::from(self.cycles)),
            ("model", Json::str(&self.model)),
            ("batch", Json::from(self.batch)),
            ("seed", Json::from(self.seed)),
        ];
        if let Some(seed) = self.stimulus_seed {
            pairs.push(("stimulus_seed", Json::from(seed)));
        }
        if let Some(seed) = self.sampling_seed {
            pairs.push(("sampling_seed", Json::from(seed)));
        }
        if let Some(ci) = self.ci {
            pairs.push(("ci", Json::from(ci)));
        }
        if let Some((cols, rows)) = self.device {
            pairs.push((
                "device",
                Json::object([
                    ("cols", Json::from(u64::from(cols))),
                    ("rows", Json::from(u64::from(rows))),
                ]),
            ));
        }
        Json::object(pairs)
    }

    /// Checks that the design, variant and model fields resolve, that the
    /// cycle count and device stay within [`MAX_CYCLES`] and
    /// [`MAX_DEVICE_TILES`], and that a pinned device has at least one
    /// column and one row. The size limits are checked before the design is
    /// built, so an oversized spec is rejected without allocating it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_CYCLES).contains(&self.cycles) {
            return Err(format!("spec.cycles: must be in 1..={MAX_CYCLES}"));
        }
        if let Some((cols, rows)) = self.device {
            if cols == 0 || rows == 0 {
                return Err(format!("spec.device: {cols}x{rows} has no tiles"));
            }
            if u32::from(cols) * u32::from(rows) > MAX_DEVICE_TILES {
                return Err(format!(
                    "spec.device: {cols}x{rows} exceeds {MAX_DEVICE_TILES} tiles"
                ));
            }
        }
        self.design_instance()?;
        self.tmr_config()?;
        self.fault_model()?;
        if self.faults == 0 {
            return Err("spec.faults: must be at least 1".to_string());
        }
        Ok(())
    }

    /// Instantiates the design named by `design` from the registry.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known designs on an unknown name, and
    /// one naming the parameter when a width is outside `1..=32` or a
    /// moving sum has fewer than 2 taps (the design constructors would
    /// panic on either) or more than [`MAX_MOVING_SUM_TAPS`].
    pub fn design_instance(&self) -> Result<Design, String> {
        let (head, args) = match self.design.split_once(':') {
            Some((head, args)) => (head, Some(args)),
            None => (self.design.as_str(), None),
        };
        let in_range = |what: &str, width: u8| {
            if (1..=MAX_WIDTH).contains(&width) {
                Ok(width)
            } else {
                Err(format!(
                    "spec.design: {head} {what} {width} is outside 1..={MAX_WIDTH}"
                ))
            }
        };
        let width = |args: Option<&str>| -> Result<u8, String> {
            let width = args
                .ok_or_else(|| format!("spec.design: {head} needs a width, e.g. {head}:4"))?
                .parse::<u8>()
                .map_err(|_| format!("spec.design: bad {head} width"))?;
            in_range("width", width)
        };
        match head {
            "fir" => match args {
                None => Ok(tmr_fpga::designs::FirFilter::small_filter().to_design()),
                Some("paper") => Ok(tmr_fpga::designs::FirFilter::paper_filter().to_design()),
                Some(other) => Err(format!("spec.design: unknown fir variant {other:?}")),
            },
            "counter" => Ok(tmr_fpga::designs::counter(width(args)?)),
            "accumulator" => Ok(tmr_fpga::designs::accumulator(width(args)?)),
            "moving_sum" => {
                let args = args.ok_or("spec.design: moving_sum needs taps,in_width,sum_width")?;
                let parts: Vec<&str> = args.split(',').collect();
                let [taps, input, sum] = parts.as_slice() else {
                    return Err("spec.design: moving_sum needs taps,in_width,sum_width".to_string());
                };
                let taps = taps
                    .parse::<usize>()
                    .map_err(|_| "spec.design: bad moving_sum taps")?;
                if !(2..=MAX_MOVING_SUM_TAPS).contains(&taps) {
                    return Err(format!(
                        "spec.design: moving_sum taps must be in 2..={MAX_MOVING_SUM_TAPS}"
                    ));
                }
                let input = input
                    .parse::<u8>()
                    .map_err(|_| "spec.design: bad moving_sum input width")?;
                let sum = sum
                    .parse::<u8>()
                    .map_err(|_| "spec.design: bad moving_sum sum width")?;
                Ok(tmr_fpga::designs::moving_sum(
                    taps,
                    in_range("input width", input)?,
                    in_range("sum width", sum)?,
                ))
            }
            other => Err(format!(
                "spec.design: unknown design {other:?} (known: fir, fir:paper, counter:<w>, \
                 accumulator:<w>, moving_sum:<taps>,<in>,<sum>)"
            )),
        }
    }

    /// Resolves the TMR variant (`None` = the unprotected design).
    ///
    /// # Errors
    ///
    /// Returns a message listing the known variants on an unknown name.
    pub fn tmr_config(&self) -> Result<Option<TmrConfig>, String> {
        match self.variant.as_str() {
            "standard" => Ok(None),
            "p1" => Ok(Some(TmrConfig::paper_p1())),
            "p2" => Ok(Some(TmrConfig::paper_p2())),
            "p3" => Ok(Some(TmrConfig::paper_p3())),
            "p3_nv" => Ok(Some(TmrConfig::paper_p3_nv())),
            other => Err(format!(
                "spec.variant: unknown variant {other:?} (known: standard, p1, p2, p3, p3_nv)"
            )),
        }
    }

    /// Resolves the fault model string.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known models on an unknown name.
    pub fn fault_model(&self) -> Result<FaultModel, String> {
        match self.model.split_once(':') {
            None if self.model == "single" => Ok(FaultModel::SingleBit),
            Some(("mbu", pattern)) => {
                let pattern = match pattern {
                    "1" => MbuPattern::Single,
                    "2-in-frame" => MbuPattern::PairInFrame,
                    "2-across-frames" => MbuPattern::PairAcrossFrames,
                    "2x2" => MbuPattern::Tile2x2,
                    other => {
                        return Err(format!(
                            "spec.model: unknown MBU pattern {other:?} (known: 1, 2-in-frame, \
                             2-across-frames, 2x2)"
                        ))
                    }
                };
                Ok(FaultModel::Mbu { pattern })
            }
            Some(("accumulate", upsets)) => {
                let upsets_per_scrub = upsets
                    .parse::<usize>()
                    .map_err(|_| "spec.model: bad accumulate upset count")?;
                Ok(FaultModel::Accumulate { upsets_per_scrub })
            }
            _ => Err(format!(
                "spec.model: unknown model {:?} (known: single, mbu:<pattern>, accumulate:<k>)",
                self.model
            )),
        }
    }

    /// The parameters of the explicit device, when the spec pins one: the
    /// [`DeviceParams::small`] architecture at the pinned grid size.
    pub fn device_params(&self) -> Option<DeviceParams> {
        self.device
            .map(|(cols, rows)| DeviceParams::small(cols, rows))
    }

    /// The explicit device, when the spec pins one, freshly built. A
    /// [`CampaignService`](crate::CampaignService) instead takes its devices
    /// from the `device` stage of its shared cache.
    pub fn device_instance(&self) -> Option<Device> {
        self.device_params().map(Device::new)
    }

    /// Builds the campaign configuration of this spec (batch size included,
    /// so the campaign fingerprint — and with it the store key of the
    /// result and the resumable prefix — is fully determined).
    ///
    /// # Errors
    ///
    /// Propagates fault-model resolution errors.
    pub fn campaign(&self) -> Result<CampaignBuilder, String> {
        let mut campaign = CampaignBuilder::new()
            .faults(self.faults)
            .cycles(self.cycles)
            .fault_model(self.fault_model()?)
            .batch_size(self.batch);
        if let Some(seed) = self.stimulus_seed {
            campaign = campaign.stimulus_seed(seed);
        }
        if let Some(seed) = self.sampling_seed {
            campaign = campaign.sampling_seed(seed);
        }
        if let Some(ci) = self.ci {
            campaign = campaign.early_stop(EarlyStop::at_half_width(ci));
        }
        Ok(campaign)
    }
}

/// A client request: one NDJSON line, tagged by `"cmd"`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job. The client may pick the id; the daemon assigns one
    /// otherwise.
    Submit {
        /// Client-chosen job id.
        id: Option<String>,
        /// What to run.
        spec: JobSpec,
    },
    /// Park a queued/running job after its current batch.
    Pause {
        /// The job to pause.
        id: String,
    },
    /// Re-queue a paused job; it continues from its persisted prefix.
    Resume {
        /// The job to resume.
        id: String,
    },
    /// Report the state of every job of this service.
    Status,
    /// Stop the daemon: running batches finish, prefixes are persisted, the
    /// process exits. Interrupted jobs resume on the next daemon start.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let json = tmr_core::json::parse(line)?;
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request: missing \"cmd\" field")?;
        match cmd {
            "submit" => {
                let id = json
                    .get("id")
                    .map(|id| {
                        id.as_str()
                            .map(str::to_string)
                            .ok_or("request.id: expected string")
                    })
                    .transpose()?;
                let spec = json.get("spec").ok_or("submit: missing \"spec\" object")?;
                Ok(Request::Submit {
                    id,
                    spec: JobSpec::from_json(spec)?,
                })
            }
            "pause" | "resume" => {
                let id = json
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("request: missing \"id\" field")?
                    .to_string();
                Ok(if cmd == "pause" {
                    Request::Pause { id }
                } else {
                    Request::Resume { id }
                })
            }
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("request: unknown cmd {other:?}")),
        }
    }

    /// Serializes the request to its one-line JSON form.
    pub fn render(&self) -> String {
        let json = match self {
            Request::Submit { id, spec } => {
                let mut pairs = vec![("cmd", Json::str("submit"))];
                if let Some(id) = id {
                    pairs.push(("id", Json::str(id)));
                }
                pairs.push(("spec", spec.to_json()));
                Json::object(pairs)
            }
            Request::Pause { id } => {
                Json::object([("cmd", Json::str("pause")), ("id", Json::str(id))])
            }
            Request::Resume { id } => {
                Json::object([("cmd", Json::str("resume")), ("id", Json::str(id))])
            }
            Request::Status => Json::object([("cmd", Json::str("status"))]),
            Request::Shutdown => Json::object([("cmd", Json::str("shutdown"))]),
        };
        json.render()
    }
}

/// Where a completed result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// Freshly simulated (possibly after resuming a persisted prefix).
    Run,
    /// Served from the in-process result table — zero simulations.
    Memory,
    /// Served from the disk store — zero simulations.
    Store,
}

impl ResultSource {
    fn as_str(self) -> &'static str {
        match self {
            ResultSource::Run => "run",
            ResultSource::Memory => "memory",
            ResultSource::Store => "store",
        }
    }
}

/// One job's row in a [`Event::Status`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: String,
    /// Lifecycle state (`queued`, `running`, `paused`, `done`, `failed`).
    pub state: String,
    /// Faults injected so far.
    pub injected: usize,
    /// The fault budget.
    pub planned: usize,
    /// Wrong answers so far.
    pub wrong_answers: usize,
    /// Scheduling turns taken so far.
    pub batches: usize,
}

/// A streamed daemon event: one NDJSON line, tagged by `"event"`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The submit parsed and validated; the job is queued.
    Accepted {
        /// The job id (daemon-assigned when the submit had none).
        id: String,
    },
    /// A worker picked the job up for its first turn.
    Started {
        /// The job id.
        id: String,
        /// The campaign fingerprint — the store key of the result and of
        /// the resumable prefix.
        fingerprint: u64,
        /// The fault budget.
        planned: usize,
        /// Prefix length recovered from the store (0 = fresh start).
        resumed: usize,
    },
    /// One scheduling turn (one batch) finished.
    Progress {
        /// The job id.
        id: String,
        /// Faults injected so far.
        injected: usize,
        /// The fault budget.
        planned: usize,
        /// Wrong answers so far.
        wrong_answers: usize,
        /// Simulations actually run so far.
        simulated: usize,
        /// Agresti–Coull 95 % CI half-width of the wrong-answer rate.
        ci: f64,
        /// Scheduling turns taken so far.
        batches: usize,
    },
    /// The job was paused and parked.
    Paused {
        /// The job id.
        id: String,
        /// Faults injected when it parked.
        injected: usize,
    },
    /// The job finished.
    Result {
        /// The job id.
        id: String,
        /// The design name of the simulated netlist.
        design: String,
        /// Faults injected.
        injected: usize,
        /// Wrong answers observed.
        wrong_answers: usize,
        /// Wrong answers as a percentage of injections.
        rate_percent: f64,
        /// Simulations actually run.
        simulated: usize,
        /// Whether the early-stop rule fired before the budget.
        stopped_early: bool,
        /// Where the result came from.
        served_from: ResultSource,
        /// Scheduling turns this service spent on the job (0 when served
        /// from memory or store).
        batches: usize,
    },
    /// The job (or a request) failed.
    Error {
        /// The job id, when the error belongs to one.
        id: Option<String>,
        /// What went wrong.
        message: String,
    },
    /// A [`Request::Status`] report.
    Status {
        /// Every job of the service, in submission order.
        jobs: Vec<JobStatus>,
    },
    /// The daemon is shutting down.
    Shutdown,
}

impl Event {
    /// The job this event belongs to (`None` for service-level events).
    pub fn job_id(&self) -> Option<&str> {
        match self {
            Event::Accepted { id }
            | Event::Started { id, .. }
            | Event::Progress { id, .. }
            | Event::Paused { id, .. }
            | Event::Result { id, .. } => Some(id),
            Event::Error { id, .. } => id.as_deref(),
            Event::Status { .. } | Event::Shutdown => None,
        }
    }

    /// Serializes the event to its one-line JSON form.
    pub fn render(&self) -> String {
        let json = match self {
            Event::Accepted { id } => {
                Json::object([("event", Json::str("accepted")), ("id", Json::str(id))])
            }
            Event::Started {
                id,
                fingerprint,
                planned,
                resumed,
            } => Json::object([
                ("event", Json::str("started")),
                ("id", Json::str(id)),
                ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
                ("planned", Json::from(*planned)),
                ("resumed", Json::from(*resumed)),
            ]),
            Event::Progress {
                id,
                injected,
                planned,
                wrong_answers,
                simulated,
                ci,
                batches,
            } => Json::object([
                ("event", Json::str("progress")),
                ("id", Json::str(id)),
                ("injected", Json::from(*injected)),
                ("planned", Json::from(*planned)),
                ("wrong_answers", Json::from(*wrong_answers)),
                ("simulated", Json::from(*simulated)),
                ("ci", Json::from(*ci)),
                ("batches", Json::from(*batches)),
            ]),
            Event::Paused { id, injected } => Json::object([
                ("event", Json::str("paused")),
                ("id", Json::str(id)),
                ("injected", Json::from(*injected)),
            ]),
            Event::Result {
                id,
                design,
                injected,
                wrong_answers,
                rate_percent,
                simulated,
                stopped_early,
                served_from,
                batches,
            } => Json::object([
                ("event", Json::str("result")),
                ("id", Json::str(id)),
                ("design", Json::str(design)),
                ("injected", Json::from(*injected)),
                ("wrong_answers", Json::from(*wrong_answers)),
                ("rate_percent", Json::from(*rate_percent)),
                ("simulated", Json::from(*simulated)),
                ("stopped_early", Json::from(*stopped_early)),
                ("served_from", Json::str(served_from.as_str())),
                ("batches", Json::from(*batches)),
            ]),
            Event::Error { id, message } => Json::object([
                ("event", Json::str("error")),
                ("id", id.as_deref().map(Json::str).unwrap_or(Json::Null)),
                ("message", Json::str(message)),
            ]),
            Event::Status { jobs } => Json::object([
                ("event", Json::str("status")),
                (
                    "jobs",
                    Json::array(jobs.iter().map(|job| {
                        Json::object([
                            ("id", Json::str(&job.id)),
                            ("state", Json::str(&job.state)),
                            ("injected", Json::from(job.injected)),
                            ("planned", Json::from(job.planned)),
                            ("wrong_answers", Json::from(job.wrong_answers)),
                            ("batches", Json::from(job.batches)),
                        ])
                    })),
                ),
            ]),
            Event::Shutdown => Json::object([("event", Json::str("shutdown"))]),
        };
        json.render()
    }

    /// Parses one event line (the client half of the protocol).
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let json = tmr_core::json::parse(line)?;
        let tag = json
            .get("event")
            .and_then(Json::as_str)
            .ok_or("event: missing \"event\" field")?;
        let id = |field: &str| -> Result<String, String> {
            json.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event: missing {field:?} field"))
        };
        let num = |field: &str| -> Result<usize, String> {
            json.get(field)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("event: missing {field:?} field"))
        };
        let float = |field: &str| -> Result<f64, String> {
            json.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event: missing {field:?} field"))
        };
        match tag {
            "accepted" => Ok(Event::Accepted { id: id("id")? }),
            "started" => Ok(Event::Started {
                id: id("id")?,
                fingerprint: u64::from_str_radix(&id("fingerprint")?, 16)
                    .map_err(|_| "event.fingerprint: expected hex")?,
                planned: num("planned")?,
                resumed: num("resumed")?,
            }),
            "progress" => Ok(Event::Progress {
                id: id("id")?,
                injected: num("injected")?,
                planned: num("planned")?,
                wrong_answers: num("wrong_answers")?,
                simulated: num("simulated")?,
                ci: float("ci")?,
                batches: num("batches")?,
            }),
            "paused" => Ok(Event::Paused {
                id: id("id")?,
                injected: num("injected")?,
            }),
            "result" => Ok(Event::Result {
                id: id("id")?,
                design: id("design")?,
                injected: num("injected")?,
                wrong_answers: num("wrong_answers")?,
                rate_percent: float("rate_percent")?,
                simulated: num("simulated")?,
                stopped_early: json
                    .get("stopped_early")
                    .and_then(Json::as_bool)
                    .ok_or("event: missing \"stopped_early\" field")?,
                served_from: match id("served_from")?.as_str() {
                    "run" => ResultSource::Run,
                    "memory" => ResultSource::Memory,
                    "store" => ResultSource::Store,
                    other => return Err(format!("event.served_from: unknown source {other:?}")),
                },
                batches: num("batches")?,
            }),
            "error" => Ok(Event::Error {
                id: json.get("id").and_then(Json::as_str).map(str::to_string),
                message: id("message")?,
            }),
            "status" => {
                let jobs = json
                    .get("jobs")
                    .and_then(Json::as_array)
                    .ok_or("event: missing \"jobs\" array")?;
                let jobs = jobs
                    .iter()
                    .map(|job| {
                        Ok(JobStatus {
                            id: job
                                .get("id")
                                .and_then(Json::as_str)
                                .ok_or("status job: missing id")?
                                .to_string(),
                            state: job
                                .get("state")
                                .and_then(Json::as_str)
                                .ok_or("status job: missing state")?
                                .to_string(),
                            injected: job.get("injected").and_then(Json::as_u64).unwrap_or(0)
                                as usize,
                            planned: job.get("planned").and_then(Json::as_u64).unwrap_or(0)
                                as usize,
                            wrong_answers: job
                                .get("wrong_answers")
                                .and_then(Json::as_u64)
                                .unwrap_or(0) as usize,
                            batches: job.get("batches").and_then(Json::as_u64).unwrap_or(0)
                                as usize,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::Status { jobs })
            }
            "shutdown" => Ok(Event::Shutdown),
            other => Err(format!("event: unknown event {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Submit {
                id: Some("job-1".to_string()),
                spec: JobSpec {
                    design: "counter:4".to_string(),
                    variant: "p2".to_string(),
                    faults: 120,
                    cycles: 8,
                    model: "mbu:2x2".to_string(),
                    batch: 32,
                    seed: 3,
                    stimulus_seed: Some(11),
                    sampling_seed: Some(5),
                    ci: Some(0.02),
                    device: Some((8, 8)),
                },
            },
            Request::Submit {
                id: None,
                spec: JobSpec::new("fir"),
            },
            Request::Pause {
                id: "a".to_string(),
            },
            Request::Resume {
                id: "a".to_string(),
            },
            Request::Status,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.render();
            tmr_core::json::validate(&line).unwrap();
            assert_eq!(Request::parse(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Accepted {
                id: "j".to_string(),
            },
            Event::Started {
                id: "j".to_string(),
                fingerprint: 0xdead_beef,
                planned: 200,
                resumed: 64,
            },
            Event::Progress {
                id: "j".to_string(),
                injected: 64,
                planned: 200,
                wrong_answers: 3,
                simulated: 40,
                ci: 0.25,
                batches: 1,
            },
            Event::Paused {
                id: "j".to_string(),
                injected: 64,
            },
            Event::Result {
                id: "j".to_string(),
                design: "counter4_tmr".to_string(),
                injected: 200,
                wrong_answers: 3,
                rate_percent: 1.5,
                simulated: 129,
                stopped_early: false,
                served_from: ResultSource::Store,
                batches: 4,
            },
            Event::Error {
                id: None,
                message: "bad request".to_string(),
            },
            Event::Status {
                jobs: vec![JobStatus {
                    id: "j".to_string(),
                    state: "running".to_string(),
                    injected: 64,
                    planned: 200,
                    wrong_answers: 3,
                    batches: 1,
                }],
            },
            Event::Shutdown,
        ];
        for event in events {
            let line = event.render();
            tmr_core::json::validate(&line).unwrap();
            assert_eq!(Event::parse(&line).unwrap(), event, "{line}");
        }
    }

    #[test]
    fn defaults_fill_missing_spec_fields() {
        let spec = JobSpec::from_json(&tmr_core::json::parse(r#"{"design":"counter:4"}"#).unwrap())
            .unwrap();
        assert_eq!(spec, JobSpec::new("counter:4"));
        assert_eq!(spec.variant, "standard");
        assert_eq!(spec.faults, 200);
        assert!(spec.ci.is_none());
    }

    #[test]
    fn bad_specs_are_rejected_with_field_names() {
        let parse = |line: &str| JobSpec::from_json(&tmr_core::json::parse(line).unwrap());
        assert!(parse("{}").unwrap_err().contains("design"));
        assert!(parse(r#"{"design":"warp_core"}"#)
            .unwrap_err()
            .contains("unknown design"));
        assert!(parse(r#"{"design":"counter:4","variant":"p9"}"#)
            .unwrap_err()
            .contains("unknown variant"));
        assert!(parse(r#"{"design":"counter:4","model":"mbu:9x9"}"#)
            .unwrap_err()
            .contains("MBU pattern"));
        assert!(parse(r#"{"design":"counter:4","faults":0}"#)
            .unwrap_err()
            .contains("faults"));
        // Parameters the design constructors would panic on.
        for design in [
            "counter:0",
            "counter:33",
            "accumulator:0",
            "accumulator:33",
            "moving_sum:1,4,6",
            "moving_sum:3,0,6",
            "moving_sum:3,4,33",
            "moving_sum:1000000000,4,6",
        ] {
            let line = format!(r#"{{"design":"{design}"}}"#);
            assert!(
                parse(&line).unwrap_err().contains("spec.design"),
                "{design}"
            );
        }
        for (field, device) in [
            ("device.cols", r#"{"cols":65537,"rows":8}"#),
            ("device.rows", r#"{"cols":8,"rows":65536}"#),
            ("device:", r#"{"cols":65535,"rows":65535}"#),
            ("device:", r#"{"cols":0,"rows":8}"#),
            ("device:", r#"{"cols":8,"rows":0}"#),
            ("device:", r#"{"cols":0,"rows":0}"#),
        ] {
            let line = format!(r#"{{"design":"counter:4","device":{device}}}"#);
            let error = parse(&line).unwrap_err();
            assert!(error.contains(&format!("spec.{field}")), "{error}");
        }
        // Sizes that would exhaust memory are refused before anything is
        // built.
        assert!(parse(r#"{"design":"counter:4","cycles":1000000000000}"#)
            .unwrap_err()
            .contains("spec.cycles"));
        assert!(parse(r#"{"design":"counter:4","cycles":0}"#)
            .unwrap_err()
            .contains("spec.cycles"));
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"cmd":"warp"}"#).is_err());
    }

    #[test]
    fn specs_resolve_registry_entries() {
        assert_eq!(
            JobSpec::new("counter:4").design_instance().unwrap().name(),
            tmr_fpga::designs::counter(4).name()
        );
        assert!(JobSpec::new("moving_sum:3,4,6").design_instance().is_ok());
        assert!(JobSpec::new("fir:paper").design_instance().is_ok());
        let mut spec = JobSpec::new("counter:4");
        spec.model = "accumulate:3".to_string();
        assert_eq!(
            spec.fault_model().unwrap(),
            FaultModel::Accumulate {
                upsets_per_scrub: 3
            }
        );
        spec.variant = "p3_nv".to_string();
        assert_eq!(spec.tmr_config().unwrap().unwrap().label, "p3_nv");
    }
}
