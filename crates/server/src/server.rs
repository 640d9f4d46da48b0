//! The resident campaign service.
//!
//! One [`CampaignServer`] owns the loaded database, the shared evaluation
//! cache and a single runner thread. Sessions (stdio or Unix-socket
//! connections) parse request frames, queue jobs, and stream the runner's
//! events back to their own client. Because every job runs against the
//! same [`SharedEvalCache`], job N+1 warm-starts from job N — including
//! across clients.
//!
//! Event ordering per job is guaranteed: `job_submitted` is written before
//! the job enters the queue (under the queue lock), `job_started` when the
//! runner picks it up, one `shard_result` per completed shard (from worker
//! threads, serialized by the sink's writer lock), then `job_done`.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use codesign_core::CodesignSpace;
use codesign_engine::{Campaign, CancelToken, ShardObserver, ShardedDriver, SharedEvalCache};
use codesign_nasbench::NasbenchDatabase;
use codesign_telemetry::{span, Counter, Gauge, Histogram};

use crate::job::JobSpec;
use crate::protocol::{Event, ProtocolError, Request};

static ACTIVE_JOBS: Gauge = Gauge::new("server.active_jobs");
static CONNECTED_CLIENTS: Gauge = Gauge::new("server.connected_clients");
static QUEUE_DEPTH: Histogram = Histogram::new("server.queue_depth");
static JOBS_DONE: Counter = Counter::new("server.jobs_done");

/// Server tunables; everything else (database, cache) is passed to
/// [`CampaignServer::start`] already constructed.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per job's [`ShardedDriver`].
    pub workers: usize,
    /// Bound on jobs waiting behind the running one; submits beyond it are
    /// rejected with a typed `queue_full` error rather than buffered
    /// without limit.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            queue_capacity: 16,
        }
    }
}

/// Where a session's events go: one line-buffered writer shared by the
/// session thread and the runner's shard observer. A write failure (client
/// hung up mid-stream) trips `broken`, and the observer reacts by
/// cancelling the job — no point computing shards nobody will read.
#[derive(Clone)]
pub struct EventSink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    broken: Arc<AtomicBool>,
}

impl EventSink {
    /// Wraps a writer. The sink flushes after every event so clients see
    /// lines as they happen, not when a buffer fills.
    #[must_use]
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        EventSink {
            writer: Arc::new(Mutex::new(writer)),
            broken: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Writes one event line, newline included, in one `write_all`, so a
    /// socket reader wakes once per event. Returns `false` (and marks the
    /// sink broken) if the client is gone.
    pub fn emit(&self, event: &Event) -> bool {
        if self.broken.load(Ordering::Relaxed) {
            return false;
        }
        let mut line = event.to_line();
        line.push('\n');
        let mut writer = self.writer.lock().expect("event sink poisoned");
        let result = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush());
        drop(writer);
        if result.is_err() {
            self.broken.store(true, Ordering::Relaxed);
        }
        result.is_ok()
    }

    /// Whether a previous emit failed.
    #[must_use]
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("broken", &self.is_broken())
            .finish_non_exhaustive()
    }
}

/// A submitted job's handle: lets the submitting session wait for
/// completion (sessions drain their jobs before closing on EOF).
#[derive(Debug, Clone)]
pub struct JobTicket {
    /// Server-assigned job id, echoed in every event about this job.
    pub id: u64,
    done: Arc<(Mutex<bool>, Condvar)>,
}

impl JobTicket {
    /// Blocks until the runner finished (or abandoned) the job.
    pub fn wait(&self) {
        let (flag, cv) = &*self.done;
        let mut done = flag.lock().expect("ticket poisoned");
        while !*done {
            done = cv.wait(done).expect("ticket poisoned");
        }
    }
}

struct QueuedJob {
    id: u64,
    campaign: Campaign,
    sink: EventSink,
    cancel: CancelToken,
    done: Arc<(Mutex<bool>, Condvar)>,
}

impl QueuedJob {
    fn mark_done(&self) {
        let (flag, cv) = &*self.done;
        *flag.lock().expect("ticket poisoned") = true;
        cv.notify_all();
    }
}

/// Shared server state: sessions and the runner thread both hold an `Arc`.
pub struct ServerInner {
    space: CodesignSpace,
    db: Arc<NasbenchDatabase>,
    cache: Arc<SharedEvalCache>,
    config: ServerConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    next_job_id: AtomicU64,
    running_cancel: Mutex<Option<CancelToken>>,
}

impl std::fmt::Debug for ServerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerInner")
            .field("config", &self.config)
            .field("queued", &self.queue.lock().expect("queue poisoned").len())
            .field("shutting_down", &self.shutting_down.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServerInner {
    /// Resolves the job's auto-ranged normalizations against the server's
    /// database — the engine call the one-shot CLI makes — then validates
    /// capacity and enqueues the job. Emits `job_submitted` into the
    /// session's sink *before* the runner can see the job, so it always
    /// precedes `job_started`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidJob`] when an auto norm's probe range is
    /// degenerate, [`ProtocolError::ShuttingDown`] after shutdown began,
    /// [`ProtocolError::QueueFull`] at capacity.
    pub fn submit(&self, spec: JobSpec, sink: &EventSink) -> Result<JobTicket, ProtocolError> {
        let campaign = spec
            .to_campaign(self.space.clone())
            .with_auto_norms(&self.db)
            .map_err(|e| ProtocolError::InvalidJob(e.to_string()))?;
        let mut queue = self.queue.lock().expect("queue poisoned");
        if self.shutting_down.load(Ordering::Relaxed) {
            return Err(ProtocolError::ShuttingDown);
        }
        if queue.len() >= self.config.queue_capacity {
            return Err(ProtocolError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let ticket = JobTicket {
            id,
            done: Arc::new((Mutex::new(false), Condvar::new())),
        };
        sink.emit(&Event::JobSubmitted {
            job: id,
            shards: spec.shard_count(),
            queue_depth: queue.len(),
        });
        queue.push_back(QueuedJob {
            id,
            campaign,
            sink: sink.clone(),
            cancel: CancelToken::new(),
            done: Arc::clone(&ticket.done),
        });
        QUEUE_DEPTH.record(queue.len() as u64);
        drop(queue);
        self.queue_cv.notify_one();
        Ok(ticket)
    }

    /// Lets the runner exit once the queue drains. Queued jobs still run.
    pub fn request_stop(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }

    /// Hard shutdown: stop accepting, cancel the running job at its next
    /// shard boundary, and fail every queued job with a typed
    /// `shutting_down` error event.
    pub fn abort(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        if let Some(cancel) = &*self.running_cancel.lock().expect("cancel poisoned") {
            cancel.cancel();
        }
        let abandoned: Vec<QueuedJob> = {
            let mut queue = self.queue.lock().expect("queue poisoned");
            queue.drain(..).collect()
        };
        for job in abandoned {
            job.sink.emit(&Event::from_error(
                Some(job.id),
                &ProtocolError::ShuttingDown,
            ));
            job.mark_done();
        }
        self.queue_cv.notify_all();
    }

    /// Whether shutdown (graceful or hard) has begun.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// One request frame → zero or more event frames. Malformed input
    /// produces an `error` event, never a dead session.
    ///
    /// Returns the submitted job's ticket (if any) and whether the session
    /// should close (a `shutdown` frame).
    pub fn handle_line(&self, line: &str, sink: &EventSink) -> (Option<JobTicket>, bool) {
        if line.trim().is_empty() {
            return (None, false);
        }
        match Request::parse_line(line) {
            Ok(Request::Ping) => {
                sink.emit(&Event::Pong);
                (None, false)
            }
            Ok(Request::Shutdown) => {
                self.abort();
                (None, true)
            }
            Ok(Request::Submit(spec)) => match self.submit(spec, sink) {
                Ok(ticket) => (Some(ticket), false),
                Err(error) => {
                    sink.emit(&Event::from_error(None, &error));
                    (None, false)
                }
            },
            Err(error) => {
                sink.emit(&Event::from_error(None, &error));
                (None, false)
            }
        }
    }

    /// Runs one session to EOF: parse frames, queue jobs, and on EOF wait
    /// for this session's jobs so the client can simply read until its
    /// stream closes.
    ///
    /// Returns `true` if the session asked the server to shut down.
    pub fn serve_session(&self, reader: &mut dyn BufRead, sink: &EventSink) -> bool {
        let _session = span("server.session", "server");
        CONNECTED_CLIENTS.add(1);
        let mut tickets: Vec<JobTicket> = Vec::new();
        let mut asked_shutdown = false;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let (ticket, close) = self.handle_line(&line, sink);
            tickets.extend(ticket);
            if close {
                asked_shutdown = true;
                break;
            }
        }
        for ticket in &tickets {
            ticket.wait();
        }
        CONNECTED_CLIENTS.add(-1);
        asked_shutdown
    }

    /// The runner thread body: pop, run, stream, repeat.
    fn run_jobs(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.shutting_down.load(Ordering::Relaxed) {
                        break None;
                    }
                    queue = self.queue_cv.wait(queue).expect("queue poisoned");
                }
            };
            let Some(job) = job else { break };
            // abort() may have fired between the drain and this pop; honor
            // it rather than starting a cancelled job.
            if job.cancel.is_cancelled() {
                job.sink.emit(&Event::from_error(
                    Some(job.id),
                    &ProtocolError::ShuttingDown,
                ));
                job.mark_done();
                continue;
            }
            self.run_one(&job);
            job.mark_done();
        }
    }

    fn run_one(&self, job: &QueuedJob) {
        let _job_span = span("server.job", "server");
        ACTIVE_JOBS.add(1);
        *self.running_cancel.lock().expect("cancel poisoned") = Some(job.cancel.clone());

        job.sink.emit(&Event::JobStarted { job: job.id });
        let observer: ShardObserver = {
            let sink = job.sink.clone();
            let cancel = job.cancel.clone();
            let id = job.id;
            Arc::new(move |shard| {
                if !sink.emit(&Event::ShardResult {
                    job: id,
                    shard: shard.to_json(),
                }) {
                    cancel.cancel();
                }
            })
        };
        let report = ShardedDriver::new(self.config.workers)
            .with_cache(Arc::clone(&self.cache))
            .with_cancel_token(job.cancel.clone())
            .with_shard_observer(observer)
            .run(&job.campaign, &self.db);

        let warm: u64 = report.shards.iter().map(|s| s.cache_warm_hits).sum();
        let cold: u64 = report.shards.iter().map(|s| s.cache_cold_hits).sum();
        let misses: u64 = report.shards.iter().map(|s| s.cache_misses).sum();
        let hits = warm + cold;
        let lookups = hits + misses;
        job.sink.emit(&Event::JobDone {
            job: job.id,
            shards: report.shards.len(),
            cache_hits: hits,
            cache_warm_hits: warm,
            cache_misses: misses,
            hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            wall_us: report.wall_us,
            cancelled: report.cancelled,
        });

        *self.running_cancel.lock().expect("cancel poisoned") = None;
        ACTIVE_JOBS.add(-1);
        JOBS_DONE.add(1);
    }
}

/// The resident service: shared state plus the runner thread.
#[derive(Debug)]
pub struct CampaignServer {
    inner: Arc<ServerInner>,
    runner: Option<thread::JoinHandle<()>>,
}

impl CampaignServer {
    /// Boots the service: state is shared, the runner thread starts
    /// waiting for jobs. `cache` may arrive pre-warmed from disk.
    #[must_use]
    pub fn start(
        space: CodesignSpace,
        db: Arc<NasbenchDatabase>,
        cache: Arc<SharedEvalCache>,
        config: ServerConfig,
    ) -> Self {
        let inner = Arc::new(ServerInner {
            space,
            db,
            cache,
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            next_job_id: AtomicU64::new(1),
            running_cancel: Mutex::new(None),
        });
        let runner = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("campaign-runner".into())
                .spawn(move || inner.run_jobs())
                .expect("spawn runner")
        };
        CampaignServer {
            inner,
            runner: Some(runner),
        }
    }

    /// The shared state, for sessions and shutdown watchers.
    #[must_use]
    pub fn inner(&self) -> Arc<ServerInner> {
        Arc::clone(&self.inner)
    }

    /// Serves one stdio session (stdin frames in, stdout events out), then
    /// drains the queue and stops the runner. This is `campaign serve
    /// --stdio`: one client, the pipe is the session.
    pub fn serve_stdio(&self) {
        let stdin = std::io::stdin();
        let sink = EventSink::new(Box::new(std::io::stdout()));
        self.inner.serve_session(&mut stdin.lock(), &sink);
        self.inner.request_stop();
    }

    /// Serves a Unix-domain socket until shutdown: accept loop with a
    /// 100 ms poll so signal- or frame-initiated shutdown is honored
    /// promptly; one thread per connection. Session threads are detached —
    /// a hard shutdown exits the accept loop without waiting on clients
    /// that never hang up.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (stale socket files are removed first).
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;

        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        while !self.inner.is_shutting_down() && !crate::signals::shutdown_requested() {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let inner = Arc::clone(&self.inner);
                    let writer = stream.try_clone()?;
                    thread::Builder::new()
                        .name("campaign-session".into())
                        .spawn(move || {
                            let sink = EventSink::new(Box::new(writer));
                            let mut reader = std::io::BufReader::new(stream);
                            inner.serve_session(&mut reader, &sink);
                        })
                        .expect("spawn session");
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => return Err(e),
            }
        }
        self.inner.request_stop();
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Stops the runner once the queue drains and joins it. Queued jobs
    /// complete; call [`ServerInner::abort`] first for a hard stop.
    pub fn join(mut self) {
        self.inner.request_stop();
        if let Some(runner) = self.runner.take() {
            runner.join().expect("runner panicked");
        }
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        self.inner.request_stop();
        if let Some(runner) = self.runner.take() {
            let _ = runner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_nasbench::Json;

    /// A sink writing into shared memory, so tests can read the stream.
    fn memory_sink() -> (EventSink, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf poisoned").extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Arc::new(Mutex::new(Vec::new()));
        (EventSink::new(Box::new(Buf(Arc::clone(&shared)))), shared)
    }

    fn events_of(buffer: &Arc<Mutex<Vec<u8>>>) -> Vec<Event> {
        let bytes = buffer.lock().expect("buf poisoned").clone();
        String::from_utf8(bytes)
            .expect("utf8 stream")
            .lines()
            .map(|l| Event::parse_line(l).expect("well-formed event"))
            .collect()
    }

    fn tiny_server() -> CampaignServer {
        CampaignServer::start(
            CodesignSpace::with_max_vertices(3),
            Arc::new(NasbenchDatabase::exhaustive(3)),
            Arc::new(SharedEvalCache::new()),
            ServerConfig {
                workers: 2,
                queue_capacity: 2,
            },
        )
    }

    fn tiny_job() -> JobSpec {
        let doc =
            Json::parse(r#"{"scenarios":["0"],"strategies":["random"],"seeds":[0],"steps":30}"#)
                .expect("literal json");
        JobSpec::from_json(&doc).expect("valid job")
    }

    #[test]
    fn each_event_is_one_write_of_its_line_and_newline() {
        struct Writes(Arc<Mutex<Vec<Vec<u8>>>>);
        impl Write for Writes {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("writes poisoned").push(data.to_vec());
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let writes = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::new(Box::new(Writes(Arc::clone(&writes))));
        let events = [
            Event::Pong,
            Event::from_error(Some(3), &ProtocolError::QueueFull { capacity: 2 }),
            Event::Pong,
        ];
        for event in &events {
            assert!(sink.emit(event));
        }
        let want: Vec<Vec<u8>> = events
            .iter()
            .map(|e| format!("{}\n", e.to_line()).into_bytes())
            .collect();
        assert_eq!(*writes.lock().expect("writes poisoned"), want);
    }

    #[test]
    fn a_session_streams_submitted_started_shards_done_in_order() {
        let server = tiny_server();
        let (sink, buffer) = memory_sink();
        let line = Request::Submit(tiny_job()).to_line();
        let mut reader = std::io::Cursor::new(format!("{line}\n"));
        server.inner().serve_session(&mut reader, &sink);
        server.join();

        let events = events_of(&buffer);
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e {
                Event::JobSubmitted { .. } => "submitted",
                Event::JobStarted { .. } => "started",
                Event::ShardResult { .. } => "shard",
                Event::JobDone { .. } => "done",
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(kinds.first(), Some(&"submitted"));
        assert_eq!(kinds.get(1), Some(&"started"));
        assert_eq!(kinds.last(), Some(&"done"));
        assert_eq!(
            kinds.iter().filter(|k| **k == "shard").count(),
            1,
            "one scenario × one strategy × one seed"
        );
        let Event::JobDone {
            shards, cancelled, ..
        } = events.last().expect("nonempty")
        else {
            unreachable!()
        };
        assert_eq!(*shards, 1);
        assert!(!cancelled);
    }

    #[test]
    fn the_second_identical_job_runs_warm() {
        let server = tiny_server();
        let (sink, buffer) = memory_sink();
        let line = Request::Submit(tiny_job()).to_line();
        let mut reader = std::io::Cursor::new(format!("{line}\n{line}\n"));
        server.inner().serve_session(&mut reader, &sink);
        server.join();

        let events = events_of(&buffer);
        let done: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::JobDone { .. }))
            .collect();
        assert_eq!(done.len(), 2);
        let Event::JobDone { hit_rate, .. } = done[1] else {
            unreachable!()
        };
        assert!(
            *hit_rate >= 0.9,
            "second identical job should be >=90% cache hits, got {hit_rate}"
        );
    }

    #[test]
    fn malformed_frames_answer_with_errors_but_keep_the_session() {
        let server = tiny_server();
        let (sink, buffer) = memory_sink();
        let mut reader = std::io::Cursor::new("this is not json\n{\"v\":1,\"type\":\"ping\"}\n");
        server.inner().serve_session(&mut reader, &sink);
        server.join();

        let events = events_of(&buffer);
        assert!(matches!(&events[0], Event::Error { code, .. } if code == "malformed"));
        assert_eq!(events[1], Event::Pong, "session survived the bad frame");
    }

    #[test]
    fn submits_beyond_capacity_get_queue_full() {
        let server = tiny_server();
        let inner = server.inner();
        let (sink, _buffer) = memory_sink();
        // Stall the runner? No need: queue_capacity=2 bounds *waiting*
        // jobs; submit more than the runner can have started.
        let mut errors = 0;
        for _ in 0..8 {
            if let Err(ProtocolError::QueueFull { capacity }) = inner.submit(tiny_job(), &sink) {
                assert_eq!(capacity, 2);
                errors += 1;
            }
        }
        assert!(errors > 0, "eight instant submits must overflow capacity 2");
        server.join();
    }

    #[test]
    fn abort_fails_queued_jobs_with_shutting_down() {
        let server = tiny_server();
        let inner = server.inner();
        let (sink, buffer) = memory_sink();
        let tickets: Vec<JobTicket> = (0..2)
            .filter_map(|_| inner.submit(tiny_job(), &sink).ok())
            .collect();
        inner.abort();
        for ticket in &tickets {
            ticket.wait();
        }
        assert!(matches!(
            inner.submit(tiny_job(), &sink),
            Err(ProtocolError::ShuttingDown)
        ));
        server.join();
        let events = events_of(&buffer);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Error { code, .. } if code == "shutting_down")),
            "abandoned jobs must report shutting_down, got {events:?}"
        );
    }
}
