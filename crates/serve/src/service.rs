//! The campaign service: a job table, a shared worker pool and the
//! store-backed resume/dedup logic.
//!
//! ## Scheduling
//!
//! Jobs take *turns*: a worker pops the next job off a FIFO run queue, runs
//! exactly **one batch** of its campaign (the spec's `batch` size), persists
//! the accumulated outcome prefix, emits a progress event and requeues the
//! job. With more jobs than workers this round-robins fairly — every queued
//! job advances by one batch per cycle — and concurrent jobs make
//! interleaved progress by construction.
//!
//! ## Resumability
//!
//! A turn rebuilds the job's
//! [`CampaignSession`](tmr_fpga::faultsim::CampaignSession) and seeds it
//! with the persisted prefix via `with_prefix`. The flow's artifacts
//! (netlist, placement, routes, golden run, compiled simulator) are
//! memoized, so only the first turn computes them, but every turn still
//! rebuilds the flow itself (the design instance and its fingerprints),
//! samples the fault list again and packs the golden run again. Devices are
//! artifacts too: the [`device`] stage of the service's cache builds each
//! distinct device once and hands every later turn a shared handle.
//! Because session outcomes are bit-identical to the matching prefix of an
//! uninterrupted run (the exact-prefix guarantee), a job interrupted by a
//! crash or shutdown and resumed in a fresh process produces a
//! **byte-identical** [`CampaignResult`]. Prefixes live in the store under
//! stage `campaign.partial`, keyed by the same campaign fingerprint as the
//! final result; completed results live under stage `campaign`, in the
//! service's memory cache and in the store, so a re-submitted job — or a
//! [`Flow::campaign`](tmr_fpga::flow::Flow) call over the same
//! configuration — is served without a single simulation.

use crate::protocol::{Event, JobSpec, JobStatus, ResultSource};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use tmr_core::pipeline::{ArtifactCache, CacheKey};
use tmr_fpga::arch::DeviceParams;
use tmr_fpga::faultsim::CampaignResult;
use tmr_fpga::flow::{device, device_params_for, synthesize, Flow, FlowBuilder};
use tmr_fpga::store::CampaignPrefix;
use tmr_fpga::Store;

/// Identifies one submitted job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobId(pub String);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker turn.
    Queued,
    /// A worker is running one of its batches right now.
    Running,
    /// Parked by [`CampaignService::pause`]; resume to continue.
    Paused,
    /// Finished; the result was emitted and stored.
    Done,
    /// Failed; the error was emitted.
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Configuration of a [`CampaignService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads (0 = default of 2).
    pub workers: usize,
    /// The disk store backing resumable prefixes, result dedup and the
    /// persisted flow stages (`synth`, `route`, `campaign`). `None` =
    /// memory-only, whatever the environment holds: jobs still interleave
    /// and pause/resume, but nothing survives the process.
    pub store: Option<Arc<Store>>,
}

struct Job {
    id: String,
    spec: JobSpec,
    state: JobState,
    pause_requested: bool,
    batches: usize,
    injected: usize,
    planned: usize,
    wrong_answers: usize,
    /// In-memory copy of the persisted prefix (the only copy when no store
    /// is attached).
    prefix: Option<CampaignPrefix>,
    started_emitted: bool,
}

#[derive(Default)]
struct State {
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
    active: usize,
    shutdown: bool,
}

struct Inner {
    /// Every artifact of every job's flow, finished campaign results
    /// included (stage `campaign`).
    mem: Arc<ArtifactCache>,
    store: Option<Arc<Store>>,
    events: Mutex<Sender<Event>>,
    state: Mutex<State>,
    wake: Condvar,
    idle: Condvar,
}

/// The in-process campaign service driving a pool of worker threads. The
/// daemon binaries wrap it in the NDJSON protocol; tests and embedders use
/// it directly.
pub struct CampaignService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

enum Turn {
    Requeue,
    Finished(JobState),
}

impl CampaignService {
    /// Starts the worker pool and returns the service plus the stream of
    /// [`Event`]s it emits.
    pub fn new(config: ServiceConfig) -> (Self, Receiver<Event>) {
        let (sender, receiver) = mpsc::channel();
        let inner = Arc::new(Inner {
            mem: ArtifactCache::shared(),
            store: config.store,
            events: Mutex::new(sender),
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = if config.workers == 0 {
            2
        } else {
            config.workers
        };
        let workers = (0..workers)
            .map(|n| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tmr-serve-worker-{n}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a worker thread")
            })
            .collect();
        (Self { inner, workers }, receiver)
    }

    /// The disk store backing the service, if one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.inner.store.as_ref()
    }

    /// Validates and enqueues a job. Emits [`Event::Accepted`] on success
    /// and [`Event::Error`] on failure.
    ///
    /// # Errors
    ///
    /// Returns the validation or duplicate-id message (also emitted).
    pub fn submit(&self, id: Option<String>, spec: JobSpec) -> Result<JobId, String> {
        let result = self.try_submit(id.clone(), spec);
        if let Err(message) = &result {
            self.inner.emit(Event::Error {
                id,
                message: message.clone(),
            });
        }
        result
    }

    fn try_submit(&self, id: Option<String>, spec: JobSpec) -> Result<JobId, String> {
        spec.validate()?;
        let mut state = self.inner.state.lock().unwrap();
        if state.shutdown {
            return Err("service is shutting down".to_string());
        }
        let id = id.unwrap_or_else(|| format!("job-{}", state.jobs.len() + 1));
        if state.jobs.iter().any(|job| job.id == id) {
            return Err(format!("duplicate job id {id:?}"));
        }
        let planned = spec.faults;
        state.jobs.push(Job {
            id: id.clone(),
            spec,
            state: JobState::Queued,
            pause_requested: false,
            batches: 0,
            injected: 0,
            planned,
            wrong_answers: 0,
            prefix: None,
            started_emitted: false,
        });
        let index = state.jobs.len() - 1;
        // Emitted before the job is queued, so no worker can emit its
        // `started` or `result` first.
        self.inner.emit(Event::Accepted { id: id.clone() });
        state.queue.push_back(index);
        drop(state);
        self.inner.wake.notify_one();
        Ok(JobId(id))
    }

    /// Parks a queued or running job after its current batch (its prefix
    /// stays persisted). Emits [`Event::Paused`] once parked.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and terminal jobs.
    pub fn pause(&self, id: &str) -> Result<(), String> {
        let mut state = self.inner.state.lock().unwrap();
        let index = find_job(&state.jobs, id)?;
        match state.jobs[index].state {
            JobState::Queued => {
                state.queue.retain(|&queued| queued != index);
                let job = &mut state.jobs[index];
                job.state = JobState::Paused;
                let event = Event::Paused {
                    id: job.id.clone(),
                    injected: job.injected,
                };
                drop(state);
                self.inner.idle.notify_all();
                self.inner.emit(event);
                Ok(())
            }
            JobState::Running => {
                state.jobs[index].pause_requested = true;
                Ok(())
            }
            JobState::Paused => Ok(()),
            JobState::Done | JobState::Failed => Err(format!("job {id:?} already finished")),
        }
    }

    /// Re-queues a paused job; its next turn continues from the persisted
    /// prefix.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and finished jobs.
    pub fn resume(&self, id: &str) -> Result<(), String> {
        let mut state = self.inner.state.lock().unwrap();
        let index = find_job(&state.jobs, id)?;
        let job = &mut state.jobs[index];
        match job.state {
            JobState::Paused => {
                job.state = JobState::Queued;
                job.pause_requested = false;
                state.queue.push_back(index);
                drop(state);
                self.inner.wake.notify_one();
                Ok(())
            }
            JobState::Queued | JobState::Running => Ok(()),
            JobState::Done | JobState::Failed => Err(format!("job {id:?} already finished")),
        }
    }

    /// A snapshot of every job, in submission order.
    pub fn status(&self) -> Vec<JobStatus> {
        let state = self.inner.state.lock().unwrap();
        state
            .jobs
            .iter()
            .map(|job| JobStatus {
                id: job.id.clone(),
                state: job.state.as_str().to_string(),
                injected: job.injected,
                planned: job.planned,
                wrong_answers: job.wrong_answers,
                batches: job.batches,
            })
            .collect()
    }

    /// Blocks until no job is queued or running (all are done, failed or
    /// paused).
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock().unwrap();
        while !(state.queue.is_empty() && state.active == 0) {
            state = self.inner.idle.wait(state).unwrap();
        }
    }

    /// Stops the workers after their current turns and joins them. Unfinished
    /// jobs keep their persisted prefixes and resume byte-identically when
    /// re-submitted to a new service over the same store.
    pub fn shutdown(self) {
        // Drop runs the actual shutdown.
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Inner {
    fn emit(&self, event: Event) {
        // A dropped receiver just means nobody is listening any more.
        let _ = self.events.lock().unwrap().send(event);
    }
}

fn find_job(jobs: &[Job], id: &str) -> Result<usize, String> {
    jobs.iter()
        .position(|job| job.id == id)
        .ok_or_else(|| format!("unknown job id {id:?}"))
}

fn worker_loop(inner: &Inner) {
    loop {
        let index = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(index) = state.queue.pop_front() {
                    state.jobs[index].state = JobState::Running;
                    state.active += 1;
                    break index;
                }
                state = inner.wake.wait(state).unwrap();
            }
        };
        let turn = run_turn(inner, index);
        let mut state = inner.state.lock().unwrap();
        state.active -= 1;
        let job = &mut state.jobs[index];
        let mut paused_event = None;
        match turn {
            Ok(Turn::Requeue) => {
                if job.pause_requested {
                    job.state = JobState::Paused;
                    paused_event = Some(Event::Paused {
                        id: job.id.clone(),
                        injected: job.injected,
                    });
                } else {
                    job.state = JobState::Queued;
                    state.queue.push_back(index);
                    inner.wake.notify_one();
                }
            }
            Ok(Turn::Finished(final_state)) => job.state = final_state,
            Err(message) => {
                let id = job.id.clone();
                job.state = JobState::Failed;
                drop(state);
                inner.emit(Event::Error {
                    id: Some(id),
                    message,
                });
                inner.idle.notify_all();
                continue;
            }
        }
        drop(state);
        if let Some(event) = paused_event {
            inner.emit(event);
        }
        inner.idle.notify_all();
    }
}

/// One scheduling turn of one job: rebuild the flow (memoized), probe the
/// stores, run one batch, persist the prefix.
fn run_turn(inner: &Inner, index: usize) -> Result<Turn, String> {
    let (id, spec, prefix, batches) = {
        let state = inner.state.lock().unwrap();
        let job = &state.jobs[index];
        (
            job.id.clone(),
            job.spec.clone(),
            job.prefix.clone(),
            job.batches,
        )
    };
    let _job_span = tmr_trace::span("serve.job");
    tmr_trace::attr_current("id", id.as_str());
    tmr_trace::attr_current("turn", batches);

    let flow = build_flow(inner, &spec).map_err(|err| describe(&err))?;
    let campaign = spec.campaign()?;
    let fingerprint = flow.campaign_fingerprint(&campaign);
    let result_key = CacheKey::new("campaign", fingerprint);
    let prefix_key = CacheKey::new("campaign.partial", fingerprint);

    // First turn: a finished result in memory or in the store answers the
    // whole job with zero simulations. A stored one is kept in memory too.
    if batches == 0 && prefix.is_none() {
        let hit = match inner.mem.get::<CampaignResult>(result_key) {
            Some(result) => Some((result, ResultSource::Memory)),
            None => inner.store.as_ref().and_then(|store| {
                let stored = inner
                    .mem
                    .get_or_try_insert(result_key, || store.load_as(result_key).ok_or(()));
                stored.ok().map(|result| (result, ResultSource::Store))
            }),
        };
        if let Some((result, source)) = hit {
            emit_started(inner, index, &id, fingerprint, spec.faults, 0);
            finish(inner, index, &id, &result, source, 0, false);
            return Ok(Turn::Finished(JobState::Done));
        }
    }

    // Recover the prefix: the job table keeps the freshest copy; the store
    // covers resumption across processes.
    let prefix = prefix.or_else(|| {
        inner
            .store
            .as_ref()
            .and_then(|store| store.load_as::<CampaignPrefix>(prefix_key))
    });
    let resumed = prefix.as_ref().map_or(0, |p| p.outcomes.len());
    emit_started(inner, index, &id, fingerprint, spec.faults, resumed);

    let routed = flow.routed().map_err(|err| describe(&err))?;
    let mut session = flow
        .campaign_session(&routed, &campaign)
        .map_err(|err| describe(&err))?;
    if let Some(prefix) = prefix {
        session = session.with_prefix(prefix.outcomes, prefix.simulated, prefix.stats);
    }

    let batch = {
        let _batch_span = tmr_trace::span("serve.batch");
        tmr_trace::attr_current("id", id.as_str());
        let batch = session.next_batch().map(<[_]>::len);
        tmr_trace::attr_current("faults", batch.unwrap_or(0));
        batch
    };
    let progress = session.progress();
    let ci = session.ci_half_width();
    let stopped_early = session.stopped_early();
    let done = batch.is_none() || progress.injected >= progress.planned;
    let turns = batches + 1;

    {
        let mut state = inner.state.lock().unwrap();
        let job = &mut state.jobs[index];
        job.batches = turns;
        job.injected = progress.injected;
        job.planned = progress.planned;
        job.wrong_answers = progress.wrong_answers;
    }

    if done {
        let result = session.into_result();
        if let Some(store) = &inner.store {
            store.save_value(result_key, &result);
            store.remove(prefix_key);
        }
        let result = inner
            .mem
            .get_or_try_insert(result_key, || Ok::<_, Infallible>(result))
            .unwrap_or_else(|never| match never {});
        finish(
            inner,
            index,
            &id,
            &result,
            ResultSource::Run,
            turns,
            stopped_early,
        );
        return Ok(Turn::Finished(JobState::Done));
    }

    // Persist the prefix at the batch boundary: the exact-prefix guarantee
    // makes any later resume byte-identical.
    let so_far = session.into_result();
    let prefix = CampaignPrefix {
        outcomes: so_far.outcomes,
        simulated: so_far.simulated,
        stats: so_far.stats,
    };
    if let Some(store) = &inner.store {
        store.save_value(prefix_key, &prefix);
    }
    {
        let mut state = inner.state.lock().unwrap();
        state.jobs[index].prefix = Some(prefix);
    }
    inner.emit(Event::Progress {
        id,
        injected: progress.injected,
        planned: progress.planned,
        wrong_answers: progress.wrong_answers,
        simulated: progress.simulated,
        ci,
        batches: turns,
    });
    Ok(Turn::Requeue)
}

fn emit_started(
    inner: &Inner,
    index: usize,
    id: &str,
    fingerprint: u64,
    planned: usize,
    resumed: usize,
) {
    let first = {
        let mut state = inner.state.lock().unwrap();
        let job = &mut state.jobs[index];
        !std::mem::replace(&mut job.started_emitted, true)
    };
    if first {
        inner.emit(Event::Started {
            id: id.to_string(),
            fingerprint,
            planned,
            resumed,
        });
    }
}

fn finish(
    inner: &Inner,
    index: usize,
    id: &str,
    result: &CampaignResult,
    served_from: ResultSource,
    batches: usize,
    stopped_early: bool,
) {
    {
        let mut state = inner.state.lock().unwrap();
        let job = &mut state.jobs[index];
        job.injected = result.injected();
        job.planned = result.injected();
        job.wrong_answers = result.wrong_answers();
        job.batches = batches;
    }
    inner.emit(Event::Result {
        id: id.to_string(),
        design: result.design.clone(),
        injected: result.injected(),
        wrong_answers: result.wrong_answers(),
        rate_percent: result.wrong_answer_percent(),
        simulated: result.simulated,
        stopped_early,
        served_from,
        batches,
    });
}

/// An error's message followed by its `source()` chain, e.g.
/// `place-and-route failed: design needs 40 LUT sites but the device
/// provides only 2`.
fn describe(error: &dyn std::error::Error) -> String {
    let mut message = error.to_string();
    let mut source = error.source();
    while let Some(cause) = source {
        message.push_str(": ");
        message.push_str(&cause.to_string());
        source = cause.source();
    }
    message
}

/// Builds the job's flow: shared memory cache, shared store, single-shard
/// batches (fairness comes from turn scheduling, not intra-batch threads).
/// Auto-sizes the device from the synthesized netlist when the spec pins
/// none; the flow then finds that netlist in the cache.
fn build_flow(inner: &Inner, spec: &JobSpec) -> Result<Flow, tmr_fpga::Error> {
    let design = spec
        .design_instance()
        .expect("spec validated at submission");
    let tmr = spec.tmr_config().expect("spec validated at submission");
    let params = match spec.device_params() {
        Some(params) => params,
        None => {
            let store = inner.store.as_deref();
            let netlist = synthesize(&inner.mem, store, &design, tmr.as_ref())?;
            device_params_for(DeviceParams::xc2s200e_like(), &[&netlist], 0.50)
        }
    };
    let mut builder = FlowBuilder::new(&device(&inner.mem, params), &design)
        .seed(spec.seed)
        .shards(1)
        .cache(inner.mem.clone());
    if let Some(config) = tmr {
        builder = builder.tmr(config);
    }
    if let Some(store) = &inner.store {
        builder = builder.store(store.clone());
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_job(variant: &str, faults: usize, device: Option<(u16, u16)>) -> JobSpec {
        let mut spec = JobSpec::new("counter:4");
        spec.variant = variant.to_string();
        spec.faults = faults;
        spec.batch = 32;
        spec.device = device;
        spec
    }

    /// Every turn takes its device from the `device` stage: each distinct
    /// parameter set misses once, every other lookup hits.
    #[test]
    fn each_device_is_built_once_per_service() {
        let (service, events) = CampaignService::new(ServiceConfig {
            workers: 1,
            store: None,
        });
        let pinned = [
            service.submit(None, counter_job("p2", 96, Some((8, 8)))),
            service.submit(None, counter_job("p3", 96, Some((8, 8)))),
        ];
        let auto = service.submit(None, counter_job("standard", 64, None));
        service.wait_idle();
        let results = events
            .try_iter()
            .filter(|event| matches!(event, Event::Result { .. }))
            .count();
        assert_eq!(results, 3, "every job finishes");

        let turns = |id: &Result<JobId, String>| {
            let id = &id.as_ref().unwrap().0;
            let status = service.status().into_iter().find(|job| &job.id == id);
            status.unwrap().batches as u64
        };
        assert!(pinned.iter().all(|id| turns(id) == 3), "multi-turn jobs");
        // Every turn looks one device up.
        let lookups = pinned.iter().map(turns).sum::<u64>() + turns(&auto);
        let stats = service.inner.mem.stage_stats();
        let (_, device) = stats.iter().find(|(stage, _)| *stage == "device").unwrap();
        assert!(device.entries >= 2, "the 8x8 grid and the auto-sized one");
        assert_eq!(device.misses, device.entries as u64);
        assert_eq!(device.hits + device.misses, lookups);
        service.shutdown();
    }

    /// A job's `accepted` event precedes everything a worker emits for it,
    /// even when an idle worker answers the job from memory at once.
    #[test]
    fn accepted_is_each_jobs_first_event() {
        let (service, events) = CampaignService::new(ServiceConfig {
            workers: 2,
            store: None,
        });
        for _ in 0..32 {
            service
                .submit(None, counter_job("p2", 32, Some((8, 8))))
                .unwrap();
            service.wait_idle();
        }
        let mut seen = std::collections::HashSet::new();
        for event in events.try_iter() {
            let id = event.job_id().unwrap().to_string();
            if seen.insert(id) {
                assert!(matches!(event, Event::Accepted { .. }), "{event:?}");
            }
        }
        assert_eq!(seen.len(), 32);
        service.shutdown();
    }

    #[test]
    fn job_errors_name_their_cause() {
        let (service, events) = CampaignService::new(ServiceConfig {
            workers: 1,
            store: None,
        });
        service
            .submit(None, counter_job("p2", 32, Some((1, 1))))
            .unwrap();
        service.wait_idle();
        let message = events
            .try_iter()
            .find_map(|event| match event {
                Event::Error { message, .. } => Some(message),
                _ => None,
            })
            .expect("the job fails");
        assert!(
            message.starts_with("place-and-route failed: design needs ")
                && message.contains(" sites but the device provides only "),
            "{message}"
        );
        service.shutdown();
    }
}
