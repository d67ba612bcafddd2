//! NDJSON transport loops wrapping [`CampaignService`]: a stdin/stdout mode
//! for pipelines and tests, and a Unix-domain-socket mode for the
//! `tmr-campaignd` daemon.
//!
//! One request or event per line, JSON-encoded (see [`crate::protocol`]).
//! In socket mode each connection sees only the events of the jobs it
//! submitted, plus its own status/error/shutdown replies; the daemon
//! pre-assigns `conn<N>-job<M>` ids when the client does not pick one, so
//! routing is established *before* the job can emit anything.

use crate::protocol::{Event, JobSpec, Request};
use crate::service::{CampaignService, ServiceConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Serves requests from stdin, events to stdout, until a `shutdown` request
/// or end of input. On end of input the service first drains every queued
/// job (so piping a batch of submits runs them all to completion); an
/// explicit `shutdown` stops after the in-flight batches, leaving resumable
/// prefixes in the store.
pub fn serve_stdio(config: ServiceConfig) {
    let (service, events) = CampaignService::new(config);
    let (out_tx, out_rx) = mpsc::channel::<Event>();
    let forward_tx = out_tx.clone();
    let forwarder = std::thread::spawn(move || {
        for event in events {
            if forward_tx.send(event).is_err() {
                break;
            }
        }
    });
    let writer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        for event in out_rx {
            let mut handle = stdout.lock();
            let _ = writeln!(handle, "{}", event.render());
            let _ = handle.flush();
        }
    });

    let stdin = std::io::stdin();
    let mut shutdown_requested = false;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        shutdown_requested = handle_request(line, &service, &out_tx, |id, spec| {
            // Success and failure both surface as events.
            let _ = service.submit(id, spec);
        });
        if shutdown_requested {
            break;
        }
    }
    if !shutdown_requested {
        service.wait_idle();
    }
    service.shutdown();
    let _ = forwarder.join();
    let _ = out_tx.send(Event::Shutdown);
    drop(out_tx);
    let _ = writer.join();
}

/// Handles one request line for either transport: a submit goes to the
/// transport's `submit`, and the replies to pause, resume, status and an
/// unparseable line go to `replies`. Returns `true` on a `shutdown` request,
/// which the caller carries out.
fn handle_request(
    line: &str,
    service: &CampaignService,
    replies: &Sender<Event>,
    mut submit: impl FnMut(Option<String>, JobSpec),
) -> bool {
    let reply = match Request::parse(line) {
        Ok(Request::Submit { id, spec }) => {
            submit(id, spec);
            None
        }
        Ok(Request::Pause { id }) => service.pause(&id).err().map(|message| Event::Error {
            id: Some(id),
            message,
        }),
        Ok(Request::Resume { id }) => service.resume(&id).err().map(|message| Event::Error {
            id: Some(id),
            message,
        }),
        Ok(Request::Status) => Some(Event::Status {
            jobs: service.status(),
        }),
        Ok(Request::Shutdown) => return true,
        Err(message) => Some(Event::Error { id: None, message }),
    };
    if let Some(event) = reply {
        let _ = replies.send(event);
    }
    false
}

/// Binds `path` (replacing any stale socket file) and serves connections
/// until one of them requests `shutdown`. Each connection gets its own
/// reader thread; events are routed back over the connection that submitted
/// the job.
///
/// # Errors
///
/// Returns the I/O error if the socket cannot be bound.
pub fn serve_unix(path: &Path, config: ServiceConfig) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;

    let (service, events) = CampaignService::new(config);
    let service = Arc::new(service);
    let shutdown = Arc::new(AtomicBool::new(false));
    let routes: Arc<Mutex<HashMap<String, Sender<Event>>>> = Arc::new(Mutex::new(HashMap::new()));
    let writers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    // Router: each job's events go to the connection that submitted it; a
    // terminal event (result or error) retires the route.
    let router = {
        let routes = routes.clone();
        std::thread::spawn(move || {
            for event in events {
                let Some(id) = event.job_id().map(str::to_string) else {
                    continue;
                };
                let terminal = matches!(event, Event::Result { .. } | Event::Error { .. });
                let mut routes = routes.lock().unwrap();
                if let Some(sender) = routes.get(&id) {
                    let _ = sender.send(event);
                }
                if terminal {
                    routes.remove(&id);
                }
            }
        })
    };

    let mut connections = Vec::new();
    let conn_counter = AtomicUsize::new(0);
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = conn_counter.fetch_add(1, Ordering::SeqCst) + 1;
                let service = service.clone();
                let routes = routes.clone();
                let writers = writers.clone();
                let shutdown = shutdown.clone();
                connections.push(std::thread::spawn(move || {
                    handle_connection(stream, conn, &service, &routes, &writers, &shutdown);
                }));
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }

    // Shut down: reader threads exit via their read timeouts; dropping the
    // routes releases the writer threads, which drain any queued events
    // before closing their streams; dropping the service parks the workers
    // after their in-flight batches (prefixes stay persisted).
    for connection in connections {
        let _ = connection.join();
    }
    routes.lock().unwrap().clear();
    for writer in std::mem::take(&mut *writers.lock().unwrap()) {
        let _ = writer.join();
    }
    drop(service);
    let _ = router.join();
    drop(listener);
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn handle_connection(
    stream: UnixStream,
    conn: usize,
    service: &CampaignService,
    routes: &Mutex<HashMap<String, Sender<Event>>>,
    writers: &Mutex<Vec<JoinHandle<()>>>,
    shutdown: &AtomicBool,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Poll the shutdown flag between reads instead of blocking forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));

    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let writer = std::thread::spawn(move || {
        let mut stream = write_half;
        for event in event_rx {
            if writeln!(stream, "{}", event.render()).is_err() {
                break;
            }
            let _ = stream.flush();
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
    });
    writers.lock().unwrap().push(writer);

    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    let mut submitted = 0usize;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let request = line.trim().to_string();
                line.clear();
                if request.is_empty() {
                    continue;
                }
                let shutdown_requested =
                    handle_request(&request, service, &event_tx, |id, spec| {
                        submitted += 1;
                        let id = id.unwrap_or_else(|| format!("conn{conn}-job{submitted}"));
                        // Register the route first so no event can be missed;
                        // never steal an id already routed elsewhere.
                        match routes.lock().unwrap().entry(id.clone()) {
                            Entry::Occupied(_) => {
                                let _ = event_tx.send(Event::Error {
                                    id: Some(id),
                                    message: "duplicate job id".to_string(),
                                });
                                return;
                            }
                            Entry::Vacant(route) => {
                                route.insert(event_tx.clone());
                            }
                        }
                        // A rejected submit emits an error event, which the
                        // router forwards here and retires.
                        let _ = service.submit(Some(id), spec);
                    });
                if shutdown_requested {
                    let _ = event_tx.send(Event::Shutdown);
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}
