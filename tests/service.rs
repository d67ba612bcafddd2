//! Campaign service integration: jobs run to completion and match the
//! library flow (on a pinned or an auto-sized device), interrupted jobs
//! resume **byte-identically** under every fault model, identical
//! re-submissions are served from the store with zero simulations, and two
//! jobs interleave over one worker.

use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmr_fpga::arch::DeviceParams;
use tmr_fpga::faultsim::CampaignResult;
use tmr_fpga::flow::{device_for, synthesize, Flow, FlowBuilder};
use tmr_fpga::store::{CampaignPrefix, Persist};
use tmr_fpga::tmr::pipeline::CacheKey;
use tmr_fpga::{ArtifactCache, Store};
use tmr_serve::{CampaignService, Event, JobSpec, ResultSource, ServiceConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmr-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small five-batch job: counter(4) with TMR partition P2 on an 8x8
/// device, under the given fault model.
fn spec(model: &str) -> JobSpec {
    let mut spec = JobSpec::new("counter:4");
    spec.variant = "p2".to_string();
    spec.model = model.to_string();
    spec.faults = 160;
    spec.cycles = 8;
    spec.batch = 32;
    spec.device = Some((8, 8));
    spec
}

/// The job's library flow on its pinned device, with the requested shard
/// count.
fn library_flow(spec: &JobSpec, shards: usize) -> Flow {
    let design = spec.design_instance().unwrap();
    let device = spec.device_instance().unwrap();
    let mut builder = FlowBuilder::new(&device, &design)
        .seed(spec.seed)
        .shards(shards);
    if let Some(tmr) = spec.tmr_config().unwrap() {
        builder = builder.tmr(tmr);
    }
    builder.build()
}

/// The reference result: the same campaign through the library flow, with
/// the requested shard count (outcomes are shard-count independent).
fn reference(spec: &JobSpec, shards: usize) -> CampaignResult {
    let flow = library_flow(spec, shards);
    (*flow.campaign(&spec.campaign().unwrap()).unwrap()).clone()
}

/// Runs the first batch of the job's campaign and persists its outcomes
/// under `campaign.partial`, as a worker's turn does, leaving the store as
/// a crash after that turn would. Returns the campaign fingerprint.
fn persist_first_batch(store: &Store, spec: &JobSpec) -> u64 {
    let flow = library_flow(spec, 1);
    let campaign = spec.campaign().unwrap();
    let fingerprint = flow.campaign_fingerprint(&campaign);
    let routed = flow.routed().unwrap();
    let mut session = flow.campaign_session(&routed, &campaign).unwrap();
    assert_eq!(session.next_batch().map(<[_]>::len), Some(spec.batch));
    let so_far = session.into_result();
    let prefix = CampaignPrefix {
        outcomes: so_far.outcomes,
        simulated: so_far.simulated,
        stats: so_far.stats,
    };
    store.save_value(CacheKey::new("campaign.partial", fingerprint), &prefix);
    fingerprint
}

fn recv(events: &Receiver<Event>) -> Event {
    events
        .recv_timeout(Duration::from_secs(120))
        .expect("the service emits the next event")
}

/// Drains events until the given job's terminal one, returning its
/// fingerprint (from `started`), progress count and the result event.
fn drain_job(events: &Receiver<Event>, id: &str) -> (u64, usize, Event) {
    let mut fingerprint = 0;
    let mut progress = 0;
    loop {
        match recv(events) {
            Event::Started {
                id: event_id,
                fingerprint: fp,
                ..
            } if event_id == id => fingerprint = fp,
            Event::Progress { id: event_id, .. } if event_id == id => progress += 1,
            event @ Event::Result { .. } if event.job_id() == Some(id) => {
                return (fingerprint, progress, event)
            }
            Event::Error {
                id: event_id,
                message,
            } if event_id.as_deref() == Some(id) => {
                panic!("job {id} failed: {message}")
            }
            _ => {}
        }
    }
}

#[test]
fn service_campaign_matches_the_library_flow() {
    let spec = spec("single");
    let (service, events) = CampaignService::new(ServiceConfig::default());
    let id = service
        .submit(Some("direct".to_string()), spec.clone())
        .unwrap();
    let (_, progress, result) = drain_job(&events, &id.0);
    assert!(progress >= 4, "160 faults in batches of 32 report progress");
    let expected = reference(&spec, 1);
    match result {
        Event::Result {
            injected,
            wrong_answers,
            served_from,
            ..
        } => {
            assert_eq!(injected, expected.injected());
            assert_eq!(wrong_answers, expected.wrong_answers());
            assert_eq!(served_from, ResultSource::Run);
        }
        other => panic!("expected a result event, got {other:?}"),
    }
    service.shutdown();
}

/// A job interrupted after its first batch (its prefix persisted, its
/// process gone) finishes in a **new** service over the same store: the
/// stored result must be byte-identical to an uninterrupted run — for every
/// fault model, and equal to a multi-shard flow run as well. The prefix is
/// written directly, so no worker has to be caught mid-campaign;
/// `interruption_points` covers pausing a running job.
#[test]
fn interrupted_jobs_resume_byte_identically_for_every_fault_model() {
    for model in ["single", "mbu:2-in-frame", "accumulate:3"] {
        let dir = temp_dir(&format!("resume-{}", model.replace(':', "-")));
        let spec = spec(model);
        let store = Arc::new(Store::open(&dir).unwrap());
        let fingerprint = persist_first_batch(&store, &spec);

        // A fresh process: new service, new memory cache, same store.
        let (service, events) = CampaignService::new(ServiceConfig {
            workers: 1,
            store: Some(store.clone()),
        });
        service
            .submit(Some("victim".to_string()), spec.clone())
            .unwrap();
        loop {
            match recv(&events) {
                Event::Started {
                    fingerprint: started,
                    resumed,
                    ..
                } => {
                    assert_eq!(started, fingerprint, "model {model}");
                    assert_eq!(resumed, spec.batch, "model {model}: resumes the prefix");
                    break;
                }
                Event::Error { message, .. } => panic!("job failed: {message}"),
                _ => {}
            }
        }
        drain_job(&events, "victim");
        let resumed: CampaignResult = store
            .load_as(CacheKey::new("campaign", fingerprint))
            .expect("the finished campaign is stored");
        assert!(
            store
                .load_as::<CampaignPrefix>(CacheKey::new("campaign.partial", fingerprint))
                .is_none(),
            "the partial prefix is removed once the job completes"
        );

        let uninterrupted = reference(&spec, 1);
        assert_eq!(resumed, uninterrupted, "model {model}");
        assert_eq!(
            resumed.to_bytes(),
            uninterrupted.to_bytes(),
            "model {model}: byte-identical after resumption"
        );
        assert_eq!(resumed, reference(&spec, 3), "model {model}: shard count");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Re-submitting an identical job performs zero simulations: in-process it
/// is served from memory, across services from the store — with no
/// progress events and `batches: 0`.
#[test]
fn identical_resubmission_is_served_without_simulation() {
    let dir = temp_dir("dedup");
    let spec = spec("single");
    let store = Arc::new(Store::open(&dir).unwrap());
    let (service, events) = CampaignService::new(ServiceConfig {
        workers: 1,
        store: Some(store),
    });
    service
        .submit(Some("first".to_string()), spec.clone())
        .unwrap();
    let (_, _, first) = drain_job(&events, "first");
    service
        .submit(Some("again".to_string()), spec.clone())
        .unwrap();
    let (_, progress, again) = drain_job(&events, "again");
    assert_eq!(progress, 0, "a deduplicated job never reports progress");
    match (&first, &again) {
        (
            Event::Result {
                injected: a,
                wrong_answers: b,
                ..
            },
            Event::Result {
                injected: x,
                wrong_answers: y,
                served_from,
                batches,
                ..
            },
        ) => {
            assert_eq!((a, b), (x, y));
            assert_eq!(*served_from, ResultSource::Memory);
            assert_eq!(*batches, 0);
        }
        other => panic!("expected two result events, got {other:?}"),
    }
    service.shutdown();

    // A new service over the same store: served from disk, still no work.
    let store = Arc::new(Store::open(&dir).unwrap());
    let (service, events) = CampaignService::new(ServiceConfig {
        workers: 1,
        store: Some(store.clone()),
    });
    service.submit(Some("cross".to_string()), spec).unwrap();
    let (_, progress, cross) = drain_job(&events, "cross");
    assert_eq!(progress, 0);
    match cross {
        Event::Result {
            served_from,
            batches,
            ..
        } => {
            assert_eq!(served_from, ResultSource::Store);
            assert_eq!(batches, 0);
        }
        other => panic!("expected a result event, got {other:?}"),
    }
    assert!(store.stats().hits > 0, "the dedup probe hit the store");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two concurrent jobs over `workers` workers: the progress events in
/// arrival order, and which jobs finished.
fn run_two_jobs(workers: usize) -> (Vec<String>, Vec<String>) {
    let mut left = spec("single");
    left.variant = "p2".to_string();
    let mut right = spec("single");
    right.variant = "p3".to_string();

    let (service, events) = CampaignService::new(ServiceConfig {
        workers,
        store: None,
    });
    service.submit(Some("left".to_string()), left).unwrap();
    service.submit(Some("right".to_string()), right).unwrap();

    let mut order = Vec::new();
    let mut finished = Vec::new();
    while finished.len() < 2 {
        match recv(&events) {
            Event::Progress { id, .. } => order.push(id),
            Event::Result { id, .. } => finished.push(id),
            Event::Error { message, .. } => panic!("job failed: {message}"),
            _ => {}
        }
    }
    service.shutdown();
    finished.sort();
    (order, finished)
}

/// On one worker the FIFO run queue alternates the turns of two concurrent
/// jobs, so each reports a batch before the other finishes. On two workers
/// the order is the scheduler's to pick (one job may run all its turns
/// first); both still report every batch and finish.
#[test]
fn concurrent_jobs_interleave_their_progress() {
    let batches = spec("single").faults / spec("single").batch;
    for workers in [1, 2] {
        let (order, finished) = run_two_jobs(workers);
        assert_eq!(finished, ["left", "right"], "{workers} workers");
        for id in ["left", "right"] {
            // The last batch finishes the job instead of reporting progress.
            let reported = order.iter().filter(|event| *event == id).count();
            assert_eq!(
                reported,
                batches - 1,
                "{id} on {workers} workers: {order:?}"
            );
        }
        if workers == 1 {
            let first = |id| order.iter().position(|event| event == id).unwrap();
            let last = |id| order.iter().rposition(|event| event == id).unwrap();
            assert!(
                first("left") < last("right") && first("right") < last("left"),
                "progress interleaves: {order:?}"
            );
        }
    }
}

/// A job without a pinned device runs on the device the library's
/// auto-sizer picks: `device_for` over the XC2S200E-like preset at 50 %
/// utilisation, sized from the job's synthesized netlist.
#[test]
fn auto_sized_jobs_match_the_library_flow() {
    let dir = temp_dir("auto");
    let mut spec = spec("single");
    spec.device = None;
    spec.faults = 64;
    let store = Arc::new(Store::open(&dir).unwrap());
    let (service, events) = CampaignService::new(ServiceConfig {
        workers: 1,
        store: Some(store.clone()),
    });
    service
        .submit(Some("auto".to_string()), spec.clone())
        .unwrap();
    let (fingerprint, _, _) = drain_job(&events, "auto");
    service.shutdown();
    let served: CampaignResult = store
        .load_as(CacheKey::new("campaign", fingerprint))
        .expect("the finished campaign is stored");

    let design = spec.design_instance().unwrap();
    let tmr = spec.tmr_config().unwrap().unwrap();
    let netlist = synthesize(&ArtifactCache::new(), None, &design, Some(&tmr)).unwrap();
    let device = device_for(DeviceParams::xc2s200e_like(), &[&netlist], 0.50);
    let expected = FlowBuilder::new(&device, &design)
        .seed(spec.seed)
        .shards(1)
        .tmr(tmr)
        .build()
        .campaign(&spec.campaign().unwrap())
        .unwrap();
    assert_eq!(served.to_bytes(), expected.to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

mod interruption_points {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Resuming is byte-identical no matter *which* batch boundary the
        /// interruption hits. The worker starts the job's next batch as
        /// soon as it reports one, so a pause usually parks the job one
        /// batch after the progress event it answers. The job has ten
        /// batches, so even the latest pause lands well before the last;
        /// a run whose pause still comes too late (the job finished) is
        /// repeated until the pause parks the job.
        #[test]
        fn any_interruption_point_resumes_byte_identically(batches_before_pause in 0usize..4) {
            let dir = temp_dir(&format!("point-{batches_before_pause}"));
            let mut spec = spec("single");
            spec.faults = 10 * spec.batch;

            let mut attempts = 0;
            loop {
                attempts += 1;
                prop_assert!(attempts <= 20, "no pause landed before the job finished");
                let _ = std::fs::remove_dir_all(&dir);
                let store = Arc::new(Store::open(&dir).unwrap());
                let (service, events) = CampaignService::new(ServiceConfig {
                    workers: 1,
                    store: Some(store),
                });
                service.submit(Some("victim".to_string()), spec.clone()).unwrap();
                let mut seen = 0;
                while seen <= batches_before_pause {
                    match recv(&events) {
                        Event::Progress { .. } => seen += 1,
                        Event::Result { .. } => panic!("every batch but the last reports progress"),
                        _ => {}
                    }
                }
                let parked = service.pause("victim").is_ok() && {
                    let deadline = Instant::now() + Duration::from_secs(120);
                    while service.status()[0].state == "running" {
                        prop_assert!(Instant::now() < deadline, "pause parks the job");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    service.status()[0].state == "paused"
                };
                drop(service);
                if parked {
                    break;
                }
            }

            let store = Arc::new(Store::open(&dir).unwrap());
            let (service, events) = CampaignService::new(ServiceConfig {
                workers: 1,
                store: Some(store.clone()),
            });
            service.submit(Some("victim".to_string()), spec.clone()).unwrap();
            let (fingerprint, _, _) = drain_job(&events, "victim");
            let resumed: CampaignResult = store
                .load_as(CacheKey::new("campaign", fingerprint))
                .expect("the finished campaign is stored");
            let uninterrupted = reference(&spec, 1);
            prop_assert_eq!(&resumed, &uninterrupted);
            prop_assert_eq!(resumed.to_bytes(), uninterrupted.to_bytes());
            service.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
