//! The campaign server: listener, handler pool, tenant-fair scheduler,
//! bounded worker pool, and graceful shutdown.
//!
//! Thread structure (all std):
//!
//! * **acceptor** (named `accept-<port>`) — blocks in `accept`; accepted
//!   sockets get their read/write timeouts set *before* they reach a
//!   handler, then go down an mpsc channel. [`ServerHandle::join`] sets
//!   the stop flag and wakes it with one loopback connection, which it
//!   drops unread.
//! * **handlers** (small fixed pool) — parse one request per
//!   connection, route it, write the response. A slow client costs one
//!   handler slot for at most the socket timeout; `/healthz` keeps
//!   answering on the remaining slots.
//! * **workers** (`LINVAR_SERVE_WORKERS`) — claim jobs round-robin
//!   across tenants and run them through the durable campaign driver,
//!   journaling every lifecycle transition.
//!
//! Shutdown (SIGTERM/ctrl-c via [`install_signal_handlers`], or
//! `POST /shutdown`, or [`ServerHandle::shutdown`]): admissions start
//! answering 503, every running campaign's cancel flag is raised so
//! in-flight *samples* finish and a final snapshot is written, workers
//! drain and exit, then the acceptor and handlers wind down.
//! Interrupted jobs stay journaled as `running`, which is precisely
//! what the next process's recovery scan re-queues — kill -9 and
//! graceful shutdown converge on the same restart path.
//!
//! Memory holds only live (queued and running) jobs: a terminal job is
//! journaled and dropped, and a lookup that misses memory reads its
//! record from the journal.

use crate::bits_hex;
use crate::config::ServeConfig;
use crate::fault::{crash_now, FaultArm, ServeFault};
use crate::http::{read_request, HttpError, Request, Response};
use crate::json::{parse_json, JsonGet};
use crate::store::{
    JobRecord, JobState, JobStore, RecoveryReport, MAX_JOB_RETRIES, MAX_JOB_SAMPLES,
};
use linvar_core::{CampaignConfig, CampaignVerdict, ModelRegistry};
use linvar_metrics::{Counter, Json, Phase};
use linvar_stats::RecoveryPolicy;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Handler-pool size. Small and fixed: handlers only parse/route/write,
/// the heavy lifting lives in the worker pool.
const N_HANDLERS: usize = 4;

/// `Retry-After` seconds advertised on shed (429) and draining (503)
/// responses.
const RETRY_AFTER_SECS: u64 = 1;

/// Samples between periodic snapshots while a job runs.
const JOB_CHECKPOINT_EVERY: usize = 8;

/// Pause after a failed `accept` (say, out of file descriptors), so the
/// acceptor does not spin on an error that persists.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long [`ServerHandle::join`]'s wake-up connection may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server-level error (startup and teardown).
#[derive(Debug)]
pub enum ServeError {
    /// Listener could not be created/bound.
    Bind(String),
    /// The job store failed (journal I/O).
    Store(linvar_stats::CheckpointError),
    /// A server thread could not be started.
    Spawn(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind: {e}"),
            ServeError::Store(e) => write!(f, "job store: {e}"),
            ServeError::Spawn(e) => write!(f, "spawn: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

struct Sched {
    /// Per-tenant FIFO of queued job ids.
    queues: BTreeMap<String, VecDeque<String>>,
    /// Tenant rotation order (first-seen order) and cursor.
    tenant_rr: Vec<String>,
    rr_next: usize,
    /// Total queued across tenants (the admission bound).
    queued: usize,
    /// Jobs currently being run by a worker.
    running: usize,
    /// The live (queued and running) jobs. A terminal job lives only in
    /// the journal, unless its terminal record failed to journal.
    jobs: BTreeMap<String, JobRecord>,
    /// Terminal jobs in the journal and not in `jobs`.
    terminal: usize,
    /// Cancel flag per running job.
    cancel_flags: BTreeMap<String, Arc<AtomicBool>>,
    /// Running jobs whose cancellation was requested.
    cancel_requested: BTreeSet<String>,
}

struct Shared {
    config: ServeConfig,
    registry: ModelRegistry,
    store: JobStore,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    /// Admissions closed; workers drain.
    shutdown: AtomicBool,
    /// Acceptor may exit (set after workers drained).
    accept_stop: AtomicBool,
    fault: Option<ServeFault>,
    fault_arm: FaultArm,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let sched = self.sched.lock().unwrap_or_else(|e| e.into_inner());
        // Raise every running campaign's cancel flag: in-flight samples
        // finish, a final snapshot is written, the worker comes back.
        // Deliberately NOT marked cancel_requested — these jobs stay
        // journaled as running, for the next process to resume.
        for flag in sched.cancel_flags.values() {
            flag.store(true, Ordering::SeqCst);
        }
        drop(sched);
        self.work_cv.notify_all();
    }

    fn fire(&self, which: ServeFault) -> bool {
        self.fault == Some(which) && self.fault_arm.fire()
    }
}

/// The server. Construct with [`Server::start`].
pub struct Server;

/// A running server: bound address plus the thread handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Recovery-scan report from startup.
    pub recovery: RecoveryReport,
}

impl Server {
    /// Opens the job store, runs the recovery scan, binds the
    /// listener, and spawns the acceptor/handler/worker threads.
    pub fn start(config: ServeConfig, registry: ModelRegistry) -> Result<ServerHandle, ServeError> {
        let store = JobStore::open(&config.jobs_dir).map_err(ServeError::Store)?;

        // Recovery scan: reap staging files, prevalidate checkpoints,
        // re-queue interrupted jobs.
        let (recovery, requeued) = store.recover(|rec| {
            registry
                .get(&rec.model)
                .map(|m| rec.campaign_fingerprint(m.model_fingerprint()))
        });
        if !recovery.requeued.is_empty() || recovery.tmp_reaped > 0 {
            eprintln!(
                "serve: recovery scan: requeued {} job(s) ({} interrupted mid-run), \
                 reaped {} staging file(s), deleted {} corrupt checkpoint(s), \
                 quarantined {} record(s)",
                recovery.requeued.len(),
                recovery.interrupted,
                recovery.tmp_reaped,
                recovery.corrupt_checkpoints,
                recovery.quarantined_records
            );
        }

        let mut sched = Sched {
            queues: BTreeMap::new(),
            tenant_rr: Vec::new(),
            rr_next: 0,
            queued: 0,
            running: 0,
            jobs: BTreeMap::new(),
            terminal: recovery.terminal,
            cancel_flags: BTreeMap::new(),
            cancel_requested: BTreeSet::new(),
        };
        // Terminal jobs from previous lives stay in the journal, where
        // lookups and idempotent resubmission find them; requeued jobs
        // enter the queues. Recovered work bypasses the admission bound:
        // it was admitted by a previous life.
        for rec in requeued {
            enqueue_locked(&mut sched, &rec);
            sched.jobs.insert(rec.id.clone(), rec);
        }

        let listener =
            TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(e.to_string()))?;

        let shared = Arc::new(Shared {
            fault: config.fault,
            fault_arm: FaultArm::new(),
            config,
            registry,
            store,
            sched: Mutex::new(sched),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
        });

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("accept-{}", addr.port()))
                .spawn(move || acceptor_loop(&shared, &listener, &conn_tx))
                .map_err(|e| ServeError::Spawn(e.to_string()))?
        };
        let handlers = (0..N_HANDLERS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&conn_rx);
                std::thread::spawn(move || handler_loop(&shared, &rx))
            })
            .collect();
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("job-{}", addr.port()))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| ServeError::Spawn(e.to_string()))
            })
            .collect::<Result<_, _>>()?;

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            handlers,
            workers,
            recovery,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been initiated (by any path).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is initiated (signal, `/shutdown`, or
    /// [`ServerHandle::shutdown`]), then drains: workers finish their
    /// in-flight samples and snapshot, the acceptor and handlers wind
    /// down. Returns once every thread has exited.
    pub fn join(mut self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            if signal_received() {
                self.shared.begin_shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Re-notify in case shutdown was set without begin_shutdown
        // having seen later-registered flags.
        self.shared.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        if !wake_acceptor(self.addr) {
            // The acceptor may stay blocked in `accept`, and the handlers
            // on its channel: leave them to process exit rather than hang.
            eprintln!("serve: could not wake the acceptor on {}", self.addr);
            return;
        }
        let _ = acceptor.join(); // dropping the acceptor drops conn_tx …
        for h in self.handlers.drain(..) {
            let _ = h.join(); // … which unblocks the handlers' recv.
        }
    }
}

/// Connects once to the acceptor's own address, so that its blocking
/// `accept` returns and it sees `accept_stop`. An unspecified bind address
/// is reached through the loopback address of its family.
fn wake_acceptor(mut addr: SocketAddr) -> bool {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok()
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener, conn_tx: &mpsc::Sender<TcpStream>) {
    loop {
        let accepted = listener.accept();
        // Once stopping, every connection, the wake-up one included, is
        // dropped before it reaches a handler or a metric.
        if shared.accept_stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _span = linvar_metrics::timer(Phase::ServeAccept);
                // Slow-client armor: timeouts are set before the
                // stream can reach a handler.
                let t = shared.config.io_timeout;
                let _ = stream.set_read_timeout(Some(t));
                let _ = stream.set_write_timeout(Some(t));
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn handler_loop(shared: &Shared, rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let next = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(mut stream) = next else { return };
        let _span = linvar_metrics::timer(Phase::ServeHandle);
        linvar_metrics::incr(Counter::ServeRequests);
        let response = match read_request(&mut stream) {
            Ok(req) => route(shared, &req),
            Err(HttpError::TooLarge) => {
                linvar_metrics::incr(Counter::ServeBadRequests);
                Response::error(413, "request exceeds the size cap")
            }
            Err(HttpError::Timeout) => {
                linvar_metrics::incr(Counter::ServeBadRequests);
                Response::error(408, "request timed out")
            }
            Err(HttpError::Malformed(m)) => {
                linvar_metrics::incr(Counter::ServeBadRequests);
                Response::error(400, &m)
            }
            Err(HttpError::Io(_)) => continue, // connection died; nothing to say
        };
        let _ = response.write_to(&mut stream);
        linvar_metrics::flush_local();
    }
}

// ---------------------------------------------------------------------------
// Routing and endpoint handlers.
// ---------------------------------------------------------------------------

fn route(shared: &Shared, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => healthz(shared),
        ("GET", ["models"]) => models(shared),
        ("POST", ["jobs"]) => submit(shared, &req.body),
        ("GET", ["jobs"]) => list_jobs(shared),
        ("GET", ["jobs", id]) => job_status(shared, id),
        ("GET", ["jobs", id, "result"]) => job_result(shared, id),
        ("POST", ["jobs", id, "cancel"]) => cancel_job(shared, id),
        ("POST", ["shutdown"]) => {
            shared.begin_shutdown();
            let mut j = Json::obj();
            j.set("ok", true).set("draining", true);
            Response::json(200, &j)
        }
        (_, ["healthz" | "models" | "jobs", ..]) | (_, ["shutdown"]) => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

fn healthz(shared: &Shared) -> Response {
    let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
    let mut j = Json::obj();
    j.set("ok", true)
        .set("queued", sched.queued as u64)
        .set("running", sched.running as u64)
        .set("jobs", (sched.jobs.len() + sched.terminal) as u64)
        .set("queue_cap", shared.config.queue_cap as u64)
        .set("draining", shared.shutdown.load(Ordering::SeqCst));
    Response::json(200, &j)
}

fn models(shared: &Shared) -> Response {
    let mut j = Json::obj();
    j.set("models", shared.registry.ids());
    Response::json(200, &j)
}

fn job_json(rec: &JobRecord) -> Json {
    let mut j = Json::obj();
    j.set("job", rec.id.as_str())
        .set("tenant", rec.tenant.as_str())
        .set("model", rec.model.as_str())
        .set("seed", rec.seed)
        .set("n", rec.n as u64)
        .set("state", rec.state.name());
    if let Some(b) = rec.budget {
        j.set("budget", b as u64);
    }
    if let Some(r) = &rec.result {
        j.set("result", r.as_str());
    }
    if let Some(e) = &rec.error {
        j.set("error", e.as_str());
    }
    j
}

/// Whether `id` has the shape of a job id: 16 lowercase hex digits. Only
/// such an id reaches the file system.
fn is_job_id(id: &str) -> bool {
    id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// The record of job `id`: the live one in `sched`, else the journaled
/// one (a terminal job's only copy).
fn find_job(shared: &Shared, sched: &Sched, id: &str) -> Option<JobRecord> {
    if let Some(rec) = sched.jobs.get(id) {
        return Some(rec.clone());
    }
    is_job_id(id).then(|| shared.store.load(id).ok())?
}

fn submit(shared: &Shared, body: &[u8]) -> Response {
    let bad = |msg: &str| {
        linvar_metrics::incr(Counter::ServeBadRequests);
        Response::error(400, msg)
    };
    let doc = match parse_json(body) {
        Ok(d) => d,
        Err(e) => return bad(&e.to_string()),
    };
    let Some(model_id) = doc.get_str("model") else {
        return bad("missing string field \"model\"");
    };
    let Some(n) = doc.get_u64("n").filter(|&v| v > 0) else {
        return bad("missing positive integer field \"n\"");
    };
    if n > MAX_JOB_SAMPLES as u64 {
        return bad(&format!(
            "field \"n\" exceeds the job limit of {MAX_JOB_SAMPLES} samples"
        ));
    }
    let n = n as usize;
    let seed = match doc.get("seed") {
        Some(Json::U64(s)) => *s,
        None => 0,
        Some(_) => return bad("field \"seed\" must be a non-negative integer"),
    };
    let tenant = doc.get_str("tenant").unwrap_or("default").to_string();
    let mut policy = RecoveryPolicy::default();
    if let Some(r) = doc.get_u64("max_retries") {
        if r > MAX_JOB_RETRIES as u64 {
            return bad(&format!(
                "field \"max_retries\" exceeds the job limit of {MAX_JOB_RETRIES}"
            ));
        }
        policy.max_retries = r as usize;
    }
    if let Some(fb) = doc.get_bool("allow_fallback") {
        policy.allow_fallback = fb;
    }
    // fail_fast is a per-sample-driver knob; campaigns ignore it, so
    // the API does not accept it.
    let budget = doc.get_u64("budget").map(|b| b as usize);

    let Some(model) = shared.registry.get(model_id) else {
        return bad(&format!("unknown model {model_id:?}"));
    };

    // Crash window 1: the submission was parsed and admitted but never
    // journaled. The client sees a dead connection and retries; the
    // restarted server has no trace — idempotent resubmission covers it.
    if shared.fire(ServeFault::CrashBeforeJournal) {
        crash_now("crash-before-journal");
    }

    let rec = JobRecord::new(
        &tenant,
        model_id,
        model.model_fingerprint(),
        seed,
        n,
        policy,
        budget,
    );

    let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = find_job(shared, &sched, &rec.id) {
        // Idempotent resubmission: same campaign fingerprint → the
        // existing job, whatever state it is in. Never double-run.
        linvar_metrics::incr(Counter::ServeDuplicateSubmits);
        let mut j = job_json(&existing);
        j.set("existing", true);
        return Response::json(200, &j);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining").with_retry_after(RETRY_AFTER_SECS);
    }
    if sched.queued >= shared.config.queue_cap {
        // Admission control: shed rather than grow without bound.
        linvar_metrics::incr(Counter::ServeShed429);
        return Response::error(429, "admission queue is full").with_retry_after(RETRY_AFTER_SECS);
    }
    // Journal before acknowledging: once the client hears "queued", the
    // job survives any crash.
    if let Err(e) = shared.store.save(&rec) {
        return Response::error(500, &format!("journal write failed: {e}"));
    }
    // Crash window 2: the record is durable but the client was never
    // told. Restart re-queues it from the journal; the client's retry
    // dedups onto it.
    if shared.fire(ServeFault::CrashAfterJournal) {
        crash_now("crash-after-journal");
    }
    linvar_metrics::incr(Counter::ServeJobsSubmitted);
    enqueue_locked(&mut sched, &rec);
    let mut j = job_json(&rec);
    j.set("existing", false);
    sched.jobs.insert(rec.id.clone(), rec);
    drop(sched);
    shared.work_cv.notify_one();
    Response::json(200, &j)
}

fn enqueue_locked(sched: &mut Sched, rec: &JobRecord) {
    if !sched.queues.contains_key(&rec.tenant) {
        sched.tenant_rr.push(rec.tenant.clone());
        sched.queues.insert(rec.tenant.clone(), VecDeque::new());
    }
    if let Some(q) = sched.queues.get_mut(&rec.tenant) {
        q.push_back(rec.id.clone());
        sched.queued += 1;
    }
}

/// Every job, by id: the live ones from memory, the rest from the
/// journal.
fn list_jobs(shared: &Shared) -> Response {
    let mut jobs = {
        let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
        sched.jobs.clone()
    };
    for rec in shared.store.list() {
        jobs.entry(rec.id.clone()).or_insert(rec);
    }
    let mut j = Json::obj();
    j.set("jobs", Json::Arr(jobs.values().map(job_json).collect()));
    Response::json(200, &j)
}

fn job_status(shared: &Shared, id: &str) -> Response {
    let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
    match find_job(shared, &sched, id) {
        Some(rec) => Response::json(200, &job_json(&rec)),
        None => Response::error(404, "no such job"),
    }
}

fn job_result(shared: &Shared, id: &str) -> Response {
    let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
    match find_job(shared, &sched, id) {
        None => Response::error(404, "no such job"),
        Some(rec) if rec.state.is_terminal() => Response::json(200, &job_json(&rec)),
        Some(rec) => {
            // Not finished: 202 with the current state so pollers can
            // distinguish "keep waiting" from "gone".
            Response::json(202, &job_json(&rec))
        }
    }
}

fn cancel_job(shared: &Shared, id: &str) -> Response {
    let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
    let Some(rec) = find_job(shared, &sched, id) else {
        return Response::error(404, "no such job");
    };
    match rec.state {
        JobState::Queued => {
            // Journal the terminal state, then take the job out of its
            // tenant queue and out of memory, before answering.
            let mut rec = rec;
            rec.state = JobState::Cancelled;
            if let Err(e) = shared.store.save(&rec) {
                return Response::error(500, &format!("journal write failed: {e}"));
            }
            if let Some(q) = sched.queues.get_mut(&rec.tenant) {
                if let Some(pos) = q.iter().position(|j| j == id) {
                    q.remove(pos);
                    sched.queued -= 1;
                }
            }
            sched.jobs.remove(id);
            sched.terminal += 1;
            linvar_metrics::incr(Counter::ServeJobsCancelled);
            Response::json(200, &job_json(&rec))
        }
        JobState::Running => {
            // Raise the campaign's cancel flag; the worker journals the
            // terminal state once in-flight samples finish.
            sched.cancel_requested.insert(id.to_string());
            if let Some(flag) = sched.cancel_flags.get(id) {
                flag.store(true, Ordering::SeqCst);
            }
            let mut j = job_json(&rec);
            j.set("cancelling", true);
            Response::json(202, &j)
        }
        _ => Response::error(409, &format!("job is already {}", rec.state.name())),
    }
}

// ---------------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(rec) = claim_locked(&mut sched) {
                    break Some(rec);
                }
                // No wake is lost: an enqueue changes the queues under
                // this lock, and `begin_shutdown` takes it after raising
                // its flag, before either notifies.
                sched = shared
                    .work_cv
                    .wait(sched)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(rec) = claimed else {
            linvar_metrics::flush_local();
            return;
        };
        run_job(shared, rec);
        linvar_metrics::flush_local();
    }
}

/// Fair claim: round-robin over tenants in first-seen order, FIFO
/// within a tenant. One chatty tenant cannot starve the rest — each
/// pass serves at most one job per tenant before moving on. A queued id
/// without a live record is dropped and the claim goes on: returning
/// `None` while work is queued would leave that work waiting for a wake
/// that may never come.
fn claim_locked(sched: &mut Sched) -> Option<JobRecord> {
    let nt = sched.tenant_rr.len();
    for k in 0..nt {
        let ti = (sched.rr_next + k) % nt;
        let tenant = sched.tenant_rr[ti].clone();
        while let Some(id) = sched.queues.get_mut(&tenant).and_then(VecDeque::pop_front) {
            sched.queued -= 1;
            let Some(rec) = sched.jobs.get(&id).cloned() else {
                continue;
            };
            sched.rr_next = (ti + 1) % nt;
            sched.running += 1;
            sched
                .cancel_flags
                .insert(id, Arc::new(AtomicBool::new(false)));
            return Some(rec);
        }
    }
    None
}

/// The deterministic result line — the byte-identity payload of the
/// service's crash-recovery guarantee. Mirrors the bench bins' `mc`
/// lines: statistics as raw f64 bit patterns, no timings.
fn result_line(rec: &JobRecord, run: &linvar_core::ModelRun) -> String {
    format!(
        "mc {} seed={} n={}: n={} mean={} std={} failures={}",
        rec.model,
        rec.seed,
        rec.n,
        run.summary.n,
        bits_hex(run.summary.mean),
        bits_hex(run.summary.std),
        run.failures
    )
}

fn run_job(shared: &Shared, mut rec: JobRecord) {
    let id = rec.id.clone();
    let finish = |rec: &mut JobRecord, to: JobState| {
        // In-memory map and journal move together under the lock: once
        // the terminal record is journaled, memory drops the job. If the
        // write fails, memory keeps the record so the result is not lost.
        rec.state = to;
        let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
        match shared.store.save(rec) {
            Ok(()) => {
                sched.jobs.remove(&rec.id);
                sched.terminal += 1;
            }
            Err(e) => {
                eprintln!("serve: journal write for job {} failed: {e}", rec.id);
                sched.jobs.insert(rec.id.clone(), rec.clone());
            }
        }
        sched.cancel_flags.remove(&rec.id);
        sched.cancel_requested.remove(&rec.id);
        sched.running -= 1;
    };

    // Stalled-worker fault: the job sits on a worker that has gone
    // quiet. The server must stay responsive throughout.
    if let Some(d) = shared.fault.and_then(ServeFault::stall_duration) {
        if shared.fault_arm.fire() {
            std::thread::sleep(d);
        }
    }

    // Queued → Running, journaled before any work happens.
    rec.state = JobState::Running;
    {
        let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = shared.store.save(&rec) {
            eprintln!("serve: journal write for job {id} failed: {e}");
        }
        sched.jobs.insert(id.clone(), rec.clone());
    }

    let Some(model) = shared.registry.get(&rec.model) else {
        rec.error = Some(format!("model {:?} is not registered", rec.model));
        linvar_metrics::incr(Counter::ServeJobsFailed);
        finish(&mut rec, JobState::Failed);
        return;
    };

    let cancel = {
        let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
        sched.cancel_flags.get(&id).cloned()
    }
    .unwrap_or_default();

    let ckpt = shared.store.checkpoint_path(&id);
    let mid_checkpoint_crash = shared.fire(ServeFault::CrashMidCheckpoint);
    let config = CampaignConfig {
        checkpoint: Some(ckpt.clone()),
        resume: ckpt.exists().then(|| ckpt.clone()),
        checkpoint_every: JOB_CHECKPOINT_EVERY,
        cancel: Some(Arc::clone(&cancel)),
        // The mid-checkpoint fault stops the campaign halfway (final
        // snapshot written) so the torn staging file below sits next to
        // real resumable state — the worst-case crash window.
        sample_budget: if mid_checkpoint_crash {
            Some((rec.n / 2).max(1))
        } else {
            rec.budget
        },
        ..CampaignConfig::default()
    };

    let inject_panic = shared.fire(ServeFault::WorkerPanic);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected worker panic");
        }
        model.run(
            rec.seed,
            rec.n,
            shared.config.job_threads,
            rec.policy,
            &config,
        )
    }));

    if mid_checkpoint_crash {
        // Crash window 3: inside save_checkpoint, after the staging
        // file was created but before the rename. The snapshot that the
        // rename would have replaced is intact; the staging file is
        // torn garbage the recovery scan must reap.
        let mut tmp = ckpt.as_os_str().to_owned();
        tmp.push(".tmp");
        let _ = std::fs::write(tmp, b"torn partial checkpoint write\x00garbage");
        crash_now("crash-mid-checkpoint");
    }

    match outcome {
        Err(_) => {
            // A panicking worker must not take the server or the job
            // down: the panic is contained, the job goes back to the
            // queue, and the next attempt (fault fires once) serves it.
            eprintln!("serve: worker panicked on job {id}; re-queuing");
            let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
            rec.state = JobState::Queued;
            if let Err(e) = shared.store.save(&rec) {
                eprintln!("serve: journal write for job {id} failed: {e}");
            }
            enqueue_locked(&mut sched, &rec);
            sched.jobs.insert(id.clone(), rec.clone());
            sched.cancel_flags.remove(&id);
            sched.running -= 1;
            drop(sched);
            shared.work_cv.notify_one();
        }
        Ok(Err(e)) => {
            rec.error = Some(e.to_string());
            linvar_metrics::incr(Counter::ServeJobsFailed);
            finish(&mut rec, JobState::Failed);
        }
        Ok(Ok(run)) => match run.verdict {
            CampaignVerdict::Complete => {
                rec.result = Some(result_line(&rec, &run));
                linvar_metrics::incr(Counter::ServeJobsCompleted);
                finish(&mut rec, JobState::Done);
            }
            CampaignVerdict::Truncated { .. } => {
                let cancelled = {
                    let sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
                    sched.cancel_requested.contains(&id)
                };
                if cancelled {
                    linvar_metrics::incr(Counter::ServeJobsCancelled);
                    finish(&mut rec, JobState::Cancelled);
                } else if shared.shutdown.load(Ordering::SeqCst) {
                    // Graceful-shutdown drain: the campaign snapshotted
                    // and stopped. Leave the job journaled as running —
                    // the next process's recovery scan resumes it from
                    // the checkpoint, byte-identically.
                    let mut sched = shared.sched.lock().unwrap_or_else(|e| e.into_inner());
                    sched.cancel_flags.remove(&id);
                    sched.running -= 1;
                } else {
                    // A genuine sample-budget truncation: partial
                    // statistics, checkpoint kept.
                    rec.result = Some(result_line(&rec, &run));
                    finish(&mut rec, JobState::Truncated);
                }
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Signal handling (SIGTERM / ctrl-c → graceful shutdown).
// ---------------------------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been received since
/// [`install_signal_handlers`].
pub fn signal_received() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod sig {
    use super::SIGNAL_SHUTDOWN;
    use std::sync::atomic::Ordering;

    // std links libc on unix; declaring the symbol directly keeps the
    // crate dependency-free. `signal()` with a flag-store handler is
    // the async-signal-safe minimum — no allocation, no locks.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_sig: i32) {
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_terminate as *const () as usize);
            signal(SIGTERM, on_terminate as *const () as usize);
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that flip the flag
/// [`signal_received`] polls; [`ServerHandle::join`] turns it into a
/// graceful shutdown. No-op off unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sig::install();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::request;

    #[test]
    fn memory_drops_terminal_jobs() {
        let dir =
            std::env::temp_dir().join(format!("linvar-serve-unit-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            jobs_dir: dir.clone(),
            ..ServeConfig::default()
        };
        let handle = Server::start(config, ModelRegistry::with_builtins()).unwrap();
        let addr = handle.addr().to_string();
        let timeout = Duration::from_secs(5);
        let ids: Vec<String> = (0..3u64)
            .map(|seed| {
                let mut body = Json::obj();
                body.set("model", "demo-fast")
                    .set("seed", seed)
                    .set("n", 8u64);
                let resp = request(&addr, "POST", "/jobs", Some(&body), timeout).unwrap();
                resp.body.get_str("job").unwrap().to_string()
            })
            .collect();
        // Cancel the last one while it is still queued, if it is.
        let _ = request(
            &addr,
            "POST",
            &format!("/jobs/{}/cancel", ids[2]),
            None,
            timeout,
        );
        for id in &ids {
            let path = format!("/jobs/{id}/result");
            while request(&addr, "GET", &path, None, timeout).unwrap().status != 200 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        {
            let sched = handle.shared.sched.lock().unwrap();
            let terminal: Vec<&JobRecord> = sched
                .jobs
                .values()
                .filter(|r| r.state.is_terminal())
                .collect();
            assert!(
                terminal.is_empty(),
                "terminal records in memory: {terminal:?}"
            );
            assert!(sched.jobs.is_empty());
            assert_eq!(sched.terminal, ids.len());
        }
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
