//! The concurrent authorization-query server.
//!
//! Plain `std::net` TCP plus a crossbeam worker pool — no async
//! runtime. Each connection gets a *reader* thread (framing, `hello`,
//! backpressure) and a *writer* thread (serialized replies); parsed
//! requests flow through one bounded job channel into a shared pool of
//! worker threads that evaluate them against the [`SharedFrontend`]
//! and the [`MaskCache`]. Replies to pipelined requests may arrive out
//! of order; the echoed `id` correlates them. Each statement request
//! builds one `RequestRecord`, timed once, that the journal and every
//! observability sink fold from one place.
//!
//! Backpressure is per connection and end-to-end: a reader admits at
//! most [`ServerConfig::max_inflight_per_conn`] unanswered requests
//! before it stops reading the socket, which surfaces to the client as
//! TCP backpressure rather than unbounded queueing in the server.
//!
//! Shutdown is graceful: in-flight requests complete and their replies
//! are flushed before the sockets close.

use crate::cache::{CachedMask, MaskCache};
use crate::journal::{self, Journal, JournalConfig, QueryOutcome, QueryRecord};
use crate::metrics_http::RouteFn;
use crate::wire::{self, codes, Request, RowsReply};
use motro_authz::lang::{parse_statement, Statement};
use motro_authz::rel::{execute_optimized_with, CanonicalPlan};
use motro_authz::views::compile;
use motro_authz::{Frontend, FrontendError, SharedFrontend};
use motro_mat::{MatStats, Materializer, WorkingSet};
use motro_obs::tracectx::{self, TraceContext};
use motro_obs::tracestore::{StoredTrace, TraceStore};
use motro_obs::ProfileNode;
use parking_lot::{Condvar, Mutex};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating requests (shared by all connections).
    pub workers: usize,
    /// Hard limit on one frame's length in bytes.
    pub max_line_bytes: usize,
    /// Unanswered requests a single connection may have in flight.
    pub max_inflight_per_conn: usize,
    /// Mask-cache capacity in entries; 0 disables the cache.
    pub cache_capacity: usize,
    /// Principals allowed to run `admin`/`member` requests; `None`
    /// leaves administration open (the paper's single-administrator
    /// model has no in-band authority, so openness is the faithful
    /// default — deployments pass a list).
    pub admins: Option<Vec<String>>,
    /// Durable audit journal; `None` disables journaling.
    pub journal: Option<JournalConfig>,
    /// Profile every retrieval and log the full span tree of any that
    /// runs at least this long; `None` disables the slow-query log
    /// (and its per-request profiling overhead).
    pub slow_query_ns: Option<u64>,
    /// Eagerly recompute masks that a targeted invalidation dropped
    /// (warm-on-write), on a background materializer thread. Only
    /// plans still in the working set are rewarmed.
    pub materialize: bool,
    /// How many recently retrieved `(user, plan)` pairs the
    /// materializer remembers as rewarm candidates; 0 disables the
    /// working set (and with it, rewarming).
    pub working_set: usize,
    /// Retained-trace ring capacity; 0 disables the whole tracing
    /// pipeline (no per-request trace contexts, no retention).
    pub trace_store: usize,
    /// Head-sampling probability (0.0–1.0) for trace contexts minted
    /// at the server edge. Client-minted contexts carry their own
    /// verdict. Tail retention force-keeps slow/errored/fallback/
    /// heavily-masked traces regardless.
    pub trace_sample: f64,
    /// Tail retention: force-keep a trace whose answer masked at least
    /// this fraction of its cells (masked cells + withheld rows over
    /// the full answer area). Values above 1.0 disable the condition.
    pub trace_mask_fraction: f64,
    /// Continuous profiling: profile every statement request, fold the
    /// finished span tree into the global collapsed-stack aggregate
    /// ([`motro_obs::prof::global`]), and switch on allocation counting
    /// (effective when the binary installs
    /// [`motro_obs::alloc::CountingAlloc`]). With insight on, it also
    /// serves the per-principal cost table summed from the insight
    /// rollups (`/debug/top`, `motro_user_cost_*`).
    pub prof: bool,
    /// Authorization analytics (on by default): fold every statement
    /// request's mask outcome and R2 split into the bounded
    /// [`motro_obs::insight`] rollups, diff `permitted_views` around
    /// every grant-mutating request into the policy-drift log, and
    /// evaluate the alert rules on window roll.
    pub insight: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_line_bytes: 64 * 1024,
            max_inflight_per_conn: 32,
            cache_capacity: 1024,
            admins: None,
            journal: None,
            slow_query_ns: None,
            materialize: true,
            working_set: 256,
            trace_store: 0,
            trace_sample: 0.0,
            trace_mask_fraction: 0.5,
            prof: false,
            insight: true,
        }
    }
}

/// One slow-query log entry (see [`ServerConfig::slow_query_ns`]).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The session principal.
    pub principal: String,
    /// The statement as received.
    pub stmt: String,
    /// The canonical plan, when the statement compiled.
    pub plan: Option<String>,
    /// Total request duration.
    pub duration_ns: u64,
    /// The request's trace id, when the tracing pipeline was on — the
    /// join key into the trace store, the journal, and exemplars.
    pub trace_id: Option<u128>,
    /// Allocation bytes attributed to the request (nonzero only when
    /// the binary installs a counting allocator and profiling is on).
    pub alloc_bytes: u64,
    /// The full per-stage profile tree.
    pub profile: motro_obs::ProfileNode,
}

/// How many slow queries the in-memory ring retains.
const SLOW_LOG_CAP: usize = 64;

/// One warm-on-write unit: recompute the mask for `(user, plan)`.
struct MatJob {
    user: String,
    plan: CanonicalPlan,
}

/// The eager-materialization subsystem: a background worker that
/// recomputes masks dropped by targeted invalidations, plus the
/// working set of recently retrieved plans it draws candidates from
/// (keyed by `(user, rendered plan)`).
struct MatState {
    materializer: Materializer<MatJob>,
    workset: Mutex<WorkingSet<(String, String), CanonicalPlan>>,
}

/// The tracing pipeline's shared state: the retained-trace ring plus
/// the sampling/retention policy.
pub(crate) struct TraceState {
    pub(crate) store: TraceStore,
    sample: f64,
    mask_fraction: f64,
}

/// Everything the workers and the introspection route table share.
pub(crate) struct Ctx {
    fe: SharedFrontend,
    pub(crate) cache: Arc<MaskCache>,
    admins: Option<Vec<String>>,
    journal: Option<Journal>,
    slow_query_ns: Option<u64>,
    /// The slow-query ring, oldest first.
    pub(crate) slow: Mutex<VecDeque<SlowQuery>>,
    mat: Option<MatState>,
    pub(crate) trace: Option<TraceState>,
    /// Continuous profiling (and, with insight, the cost table) on?
    pub(crate) prof: bool,
    /// Authorization analytics (insight rollups, drift, alerts) on?
    pub(crate) insight: bool,
}

/// The per-connection in-flight gate (a bounded semaphore).
struct Gate {
    count: Mutex<usize>,
    cv: Condvar,
    max: usize,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate {
            count: Mutex::new(0),
            cv: Condvar::new(),
            max: max.max(1),
        }
    }

    fn acquire(&self) {
        let mut n = self.count.lock();
        while *n >= self.max {
            self.cv.wait(&mut n);
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = self.count.lock();
        *n -= 1;
        self.cv.notify_one();
    }
}

/// One unit of work for the pool.
struct Job {
    request: Request,
    principal: String,
    reply: mpsc::Sender<String>,
    gate: Arc<Gate>,
    /// The trace context the client propagated on the frame, if any.
    trace: Option<TraceContext>,
    /// When the reader queued the job (None while observability is
    /// disabled), for the `server.queue_wait_ns` histogram.
    queued: Option<Instant>,
}

/// One statement request's outcome (`retrieve`, `query`, `profile`),
/// built once while it is evaluated and folded into every sink: the
/// journal at the end of the read-locked section, the rest by
/// [`fold`]. A frame whose statement is not a retrieval has no record:
/// nothing was evaluated, so no sink sees it.
#[derive(Default)]
struct RequestRecord {
    principal: String,
    stmt: String,
    /// The compiled plan, when the statement compiled; its relations
    /// key the insight rollups.
    plan: Option<CanonicalPlan>,
    /// The mask a row answer went through, fresh or cached: the
    /// granting views, full-access flag, R2 split, and permits.
    mask: Option<Arc<CachedMask>>,
    /// Did the mask come from the cache?
    cached: bool,
    rows_delivered: u64,
    rows_withheld: u64,
    cells_delivered: u64,
    cells_masked: u64,
    cells_withheld: u64,
    /// An aggregate answer's rendering.
    aggregate: Option<String>,
    /// The error code and message of a failed statement.
    error: Option<(&'static str, String)>,
    trace: Option<TraceContext>,
    /// From just after the queue wait until the reply is built, before
    /// encoding: the one number `server.request_ns`, its exemplar, the
    /// slow-log threshold, the trace store, and the rollups all read.
    duration_ns: u64,
    /// The span tree, when a profile session ran.
    profile: Option<ProfileNode>,
    /// The cache's `epoch_fallbacks` before the statement ran, when
    /// traced: tail retention keeps the trace if it moved.
    fallbacks_before: Option<u64>,
}

impl RequestRecord {
    /// Record a failure and build its error reply.
    fn fail(&mut self, id: u64, code: &'static str, message: String) -> Value {
        let reply = wire::error(Some(id), code, &message);
        self.error = Some((code, message));
        reply
    }

    /// Cells masking suppressed: nulled cells plus the cells of
    /// withheld rows.
    fn cells_suppressed(&self) -> u64 {
        self.cells_masked + self.cells_withheld
    }
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Option<crossbeam::channel::Sender<Job>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `fe`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        fe: SharedFrontend,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Pre-register the server's metrics so a scrape of a freshly
        // started (still idle) server already shows every series at
        // zero — dashboards and the CI scrape smoke rely on this.
        let _ = motro_obs::counter!("server.requests");
        let _ = motro_obs::counter!("server.connections.accepted");
        let _ = motro_obs::counter!("server.cache.hits");
        let _ = motro_obs::counter!("server.cache.misses");
        let _ = motro_obs::counter!("server.cache.epoch_evictions");
        let _ = motro_obs::counter!("server.cache.capacity_evictions");
        let _ = motro_obs::counter!("server.cache.targeted_invalidations");
        let _ = motro_obs::counter!("server.cache.full_invalidations");
        let _ = motro_obs::counter!("server.cache.entries_invalidated");
        let _ = motro_obs::counter!("server.cache.epoch_fallbacks");
        let _ = motro_obs::counter!("server.mat.queued");
        let _ = motro_obs::counter!("server.mat.refreshed");
        let _ = motro_obs::counter!("server.mat.dropped");
        let _ = motro_obs::counter!("server.slow_queries");
        let _ = motro_obs::gauge!("server.connections");
        let _ = motro_obs::histogram!("server.request_ns");
        let _ = motro_obs::histogram!("server.queue_wait_ns");
        if config.journal.is_some() {
            let _ = motro_obs::counter!("journal.records");
            let _ = motro_obs::counter!("journal.errors");
            let _ = motro_obs::counter!("journal.rotations");
        }
        if config.trace_store > 0 {
            let _ = motro_obs::counter!("server.traces.retained");
            let _ = motro_obs::counter!("server.traces.head_sampled");
            let _ = motro_obs::counter!("server.traces.forced");
        }
        if config.insight {
            let _ = motro_obs::counter!("insight.requests");
            let _ = motro_obs::counter!("insight.requests.cached");
            let _ = motro_obs::counter!("insight.requests.full_access");
            let _ = motro_obs::counter!("insight.errors");
            let _ = motro_obs::counter!("insight.rows.delivered");
            let _ = motro_obs::counter!("insight.rows.withheld");
            let _ = motro_obs::counter!("insight.cells.delivered");
            let _ = motro_obs::counter!("insight.cells.masked");
            let _ = motro_obs::counter!("insight.cells.withheld");
            let _ = motro_obs::counter!("insight.cells.suppressed");
            let _ = motro_obs::counter!("insight.cells.seen");
            let _ = motro_obs::counter!("insight.r2.clear");
            let _ = motro_obs::counter!("insight.r2.retain");
            let _ = motro_obs::counter!("insight.r2.modify");
            let _ = motro_obs::counter!("insight.r2.discard");
            let _ = motro_obs::counter!("insight.r2.clear_fallback");
            let _ = motro_obs::counter!("insight.drift.epochs");
            let _ = motro_obs::counter!("insight.drift.changes");
            let _ = motro_obs::counter!("insight.alerts.fired");
        }
        if config.prof {
            let _ = motro_obs::counter!("prof.folds");
            let _ = motro_obs::counter!("prof.alloc.bytes");
            let _ = motro_obs::counter!("prof.allocs");
            let _ = motro_obs::gauge!("prof.stage_paths");
            let _ = motro_obs::histogram!("prof.fold_ns");
            // Counting only takes effect when the binary installed the
            // wrapper; switching it on unconditionally keeps the knob
            // in one place.
            motro_obs::alloc::set_counting(true);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        // The front-end may arrive pre-populated (a loaded snapshot, a
        // programmatically built store): whatever touched-state those
        // setup mutations accumulated is meaningless to a cache that
        // starts empty, so drain it now. Otherwise the first real
        // mutation would drain the backlog merged into its own
        // touched-set and spuriously invalidate far beyond its scope.
        fe.with_write(|f| {
            let _ = f.take_touched();
        });
        let cache = Arc::new(MaskCache::new(config.cache_capacity));
        let mat = if config.materialize && config.cache_capacity > 0 && config.working_set > 0 {
            let mat_fe = fe.clone();
            let mat_cache = cache.clone();
            Some(MatState {
                workset: Mutex::new(WorkingSet::new(config.working_set)),
                materializer: Materializer::new(config.workers.max(1) * 8, move |job: MatJob| {
                    materialize_one(&mat_fe, &mat_cache, &job)
                }),
            })
        } else {
            None
        };
        let journal = match &config.journal {
            Some(jc) => {
                let state = fe.to_json().map_err(std::io::Error::other)?;
                Some(Journal::open(jc.clone(), &state, fe.auth_epoch())?)
            }
            None => None,
        };
        let trace = (config.trace_store > 0).then(|| TraceState {
            store: TraceStore::new(config.trace_store),
            sample: config.trace_sample,
            mask_fraction: config.trace_mask_fraction,
        });
        let ctx = Arc::new(Ctx {
            fe: fe.clone(),
            cache,
            admins: config.admins.clone(),
            journal,
            slow_query_ns: config.slow_query_ns,
            slow: Mutex::new(VecDeque::new()),
            mat,
            trace,
            prof: config.prof,
            insight: config.insight,
        });
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = crossbeam::channel::bounded::<Job>(
            config.workers.max(1) * config.max_inflight_per_conn.max(1),
        );

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = job_rx.clone();
                let ctx = ctx.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        motro_obs::histogram!("server.queue_wait_ns").record_since(job.queued);
                        motro_obs::counter!("server.requests").inc();
                        let reply = serve_request(&ctx, &job.principal, job.request, job.trace);
                        let _ = job.reply.send(reply.to_string());
                        job.gate.release();
                    }
                })
            })
            .collect();

        let acceptor = {
            let shutdown = shutdown.clone();
            let fe = fe.clone();
            let conns = conns.clone();
            let readers = readers.clone();
            let job_tx = job_tx.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let next_conn = AtomicU64::new(0);
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Replies are small frames; never trade latency for
                    // coalescing.
                    let _ = stream.set_nodelay(true);
                    let id = next_conn.fetch_add(1, Ordering::SeqCst);
                    if let Ok(clone) = stream.try_clone() {
                        conns.lock().insert(id, clone);
                    }
                    let fe = fe.clone();
                    let job_tx = job_tx.clone();
                    let shutdown = shutdown.clone();
                    let conns_done = conns.clone();
                    let config = config.clone();
                    let handle = std::thread::spawn(move || {
                        serve_connection(stream, fe, job_tx, shutdown, &config);
                        conns_done.lock().remove(&id);
                    });
                    readers.lock().push(handle);
                }
            })
        };

        Ok(Server {
            addr,
            shutdown,
            ctx,
            acceptor: Some(acceptor),
            workers,
            job_tx: Some(job_tx),
            conns,
            readers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared mask cache (counters readable for tests/benchmarks).
    pub fn cache(&self) -> &MaskCache {
        &self.ctx.cache
    }

    /// The materializer's counters, when warm-on-write is enabled.
    pub fn materializer_stats(&self) -> Option<MatStats> {
        self.ctx.mat.as_ref().map(|m| m.materializer.stats())
    }

    /// Block until every queued materialization has been processed.
    /// For tests and benchmarks that need a settled cache.
    pub fn drain_materializer(&self) {
        if let Some(m) = &self.ctx.mat {
            m.materializer.drain();
        }
    }

    /// The audit journal, when one is configured.
    pub fn journal(&self) -> Option<&Journal> {
        self.ctx.journal.as_ref()
    }

    /// The retained slow-query log entries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.ctx.slow.lock().iter().cloned().collect()
    }

    /// The retained-trace store, when the tracing pipeline is enabled.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.ctx.trace.as_ref().map(|t| &t.store)
    }

    /// The introspection route table ([`crate::debug`]) over this
    /// server's state, for [`crate::MetricsServer::bind`]: the same
    /// table the wire `debug` frame answers from.
    pub fn routes(&self) -> RouteFn {
        let ctx = self.ctx.clone();
        Arc::new(move |path: &str| crate::debug::route(&ctx, path))
    }

    /// Stop accepting, drain in-flight requests, flush replies, join
    /// every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor: it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Close every live connection; readers see EOF and exit after
        // their in-flight jobs are already queued.
        for (_, s) in self.conns.lock().iter() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = std::mem::take(&mut *self.readers.lock());
        for h in handles {
            let _ = h.join();
        }
        // All reader-held job senders are gone; dropping ours
        // disconnects the channel once drained, stopping the workers
        // after the last queued request is answered.
        self.job_tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for (_, s) in self.conns.lock().drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one framing read produced.
enum Frame {
    Line(String),
    TooLarge,
    Eof,
}

/// Read one `\n`-terminated line, enforcing the size limit without
/// buffering an oversized frame (the tail is discarded, the connection
/// survives).
fn read_frame(reader: &mut BufReader<TcpStream>, max: usize) -> std::io::Result<Frame> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() != Some(&b'\n') && n > max {
        // Oversized: skim to the end of the line, then report.
        let mut rest = Vec::new();
        loop {
            rest.clear();
            let m = reader.by_ref().take(4096).read_until(b'\n', &mut rest)?;
            if m == 0 || rest.last() == Some(&b'\n') {
                break;
            }
        }
        return Ok(Frame::TooLarge);
    }
    Ok(Frame::Line(String::from_utf8_lossy(&buf).trim().to_owned()))
}

/// The per-connection reader: framing, `hello`, dispatch, backpressure.
fn serve_connection(
    stream: TcpStream,
    fe: SharedFrontend,
    job_tx: crossbeam::channel::Sender<Job>,
    shutdown: Arc<AtomicBool>,
    config: &ServerConfig,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    motro_obs::gauge!("server.connections").inc();
    motro_obs::counter!("server.connections.accepted").inc();
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(write_half);
        for line in reply_rx {
            if out
                .write_all(line.as_bytes())
                .and_then(|_| out.write_all(b"\n"))
                .and_then(|_| out.flush())
                .is_err()
            {
                break;
            }
        }
    });

    let mut reader = BufReader::new(stream);
    let gate = Arc::new(Gate::new(config.max_inflight_per_conn));
    let mut principal: Option<String> = None;
    while let Ok(frame) = read_frame(&mut reader, config.max_line_bytes) {
        let line = match frame {
            Frame::Eof => break,
            Frame::TooLarge => {
                let e = wire::error(
                    None,
                    codes::FRAME_TOO_LARGE,
                    &format!("frame exceeds {} bytes", config.max_line_bytes),
                );
                if reply_tx.send(e.to_string()).is_err() {
                    break;
                }
                continue;
            }
            Frame::Line(l) => l,
        };
        if line.is_empty() {
            continue;
        }
        let (request, trace) = match wire::parse_frame(&line) {
            Ok(r) => r,
            Err(e) => {
                let reply = wire::error(e.id, e.code, &e.message);
                if reply_tx.send(reply.to_string()).is_err() {
                    break;
                }
                continue;
            }
        };
        let reply = match request {
            Request::Hello { principal: p } => {
                let epoch = fe.auth_epoch();
                principal = Some(p.clone());
                wire::welcome(&p, epoch)
            }
            req => {
                let Some(p) = principal.clone() else {
                    let reply = wire::error(
                        req.id(),
                        codes::UNAUTHENTICATED,
                        "say hello before issuing requests",
                    );
                    if reply_tx.send(reply.to_string()).is_err() {
                        break;
                    }
                    continue;
                };
                if shutdown.load(Ordering::SeqCst) {
                    wire::error(req.id(), codes::SHUTTING_DOWN, "server is shutting down")
                } else {
                    gate.acquire();
                    let job = Job {
                        request: req,
                        principal: p,
                        reply: reply_tx.clone(),
                        gate: gate.clone(),
                        trace,
                        queued: motro_obs::start(),
                    };
                    match job_tx.send(job) {
                        Ok(()) => continue,
                        Err(crossbeam::channel::SendError(job)) => {
                            job.gate.release();
                            wire::error(
                                job.request.id(),
                                codes::SHUTTING_DOWN,
                                "server is shutting down",
                            )
                        }
                    }
                }
            }
        };
        if reply_tx.send(reply.to_string()).is_err() {
            break;
        }
    }
    // Wait for our in-flight jobs so every accepted request is
    // answered before the writer channel closes.
    {
        let mut n = gate.count.lock();
        while *n > 0 {
            gate.cv.wait(&mut n);
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    motro_obs::gauge!("server.connections").dec();
}

fn error_code(e: &FrontendError) -> &'static str {
    match e {
        FrontendError::Parse(_) => codes::PARSE,
        _ => codes::EXEC,
    }
}

/// Evaluate one request, time it, and fold its record into every sink.
/// Statement requests (`retrieve`/`query`/`profile`) are traceable:
/// with the pipeline on each gets a trace context — the client's, or
/// one minted at the edge, since tail retention must see the profile
/// even when the head sampler says no — and a profile session whenever
/// a sink wants the span tree.
fn serve_request(
    ctx: &Ctx,
    principal: &str,
    request: Request,
    client_trace: Option<TraceContext>,
) -> Value {
    let started = Instant::now();
    let (label, id, stmt, aggregates) = match request {
        Request::Retrieve { id, stmt } => ("retrieve", id, stmt, false),
        Request::Query { id, stmt } => ("query", id, stmt, true),
        Request::Profile { id, stmt } => ("profile", id, stmt, true),
        other => {
            let reply = dispatch(ctx, principal, other);
            motro_obs::histogram!("server.request_ns").record_ns(elapsed_ns(started));
            return reply;
        }
    };
    let tctx = ctx
        .trace
        .as_ref()
        .map(|ts| client_trace.unwrap_or_else(|| tracectx::mint(ts.sample)));
    let is_profile = label == "profile";
    let session = (tctx.is_some() || ctx.slow_query_ns.is_some() || is_profile || ctx.prof)
        .then(|| motro_obs::profile::begin_traced(label, tctx));
    let fallbacks_before = tctx.map(|_| ctx.cache.stats().epoch_fallbacks);
    let (mut reply, record) = statement(ctx, principal, id, stmt, aggregates, tctx);
    let node = session.and_then(|s| s.finish());
    if let (true, Some(node)) = (is_profile, &node) {
        let tree = node.to_json().parse::<Value>().unwrap_or(Value::Null);
        reply = wire::profile(
            id,
            ctx.fe.auth_epoch(),
            tree,
            &node.render_text(),
            summarize_reply(&reply),
        );
    }
    let reply = wire::with_trace_id(reply, tctx.as_ref());
    let duration_ns = elapsed_ns(started);
    motro_obs::histogram!("server.request_ns").record_ns(duration_ns);
    if let Some(mut record) = record {
        record.duration_ns = duration_ns;
        record.profile = node;
        record.fallbacks_before = fallbacks_before;
        fold(ctx, record);
    }
    reply
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Fold one finished statement request into every sink but the journal
/// (already written under the read lock): the insight rollups (the
/// per-principal table), the profile aggregate, the slow log, and tail
/// retention with its exemplar.
fn fold(ctx: &Ctx, mut rec: RequestRecord) {
    if ctx.insight {
        let (views, full_access, r2) = match rec.mask.as_deref() {
            Some(m) => (&m.views[..], m.full_access, m.r2),
            None => (&[][..], false, [0; 5]),
        };
        motro_obs::insight::global().record(&motro_obs::insight::Event {
            principal: &rec.principal,
            views,
            relations: rec.plan.as_ref().map_or(&[][..], |p| &p.relations[..]),
            cached: rec.cached,
            full_access,
            denied: rec.error.as_ref().map(|(code, _)| *code),
            rows_delivered: rec.rows_delivered,
            rows_withheld: rec.rows_withheld,
            cells_delivered: rec.cells_delivered,
            cells_masked: rec.cells_masked,
            cells_withheld: rec.cells_withheld,
            r2,
            wall_ns: rec.duration_ns,
            alloc_bytes: rec.profile.as_ref().map_or(0, |n| n.alloc_bytes),
        });
    }
    let Some(node) = rec.profile.take() else {
        return;
    };
    if ctx.prof {
        motro_obs::prof::global().fold(&node);
    }
    if ctx.slow_query_ns.is_some_and(|t| rec.duration_ns >= t) {
        log_slow(ctx, &rec, &node);
    }
    if let (Some(ts), Some(tc)) = (&ctx.trace, rec.trace) {
        retain_trace(ctx, ts, tc, rec, node);
    }
}

/// Log a request that ran past the slow-query threshold with its full
/// span tree, and retain it in the in-memory ring.
fn log_slow(ctx: &Ctx, rec: &RequestRecord, node: &ProfileNode) {
    motro_obs::counter!("server.slow_queries").inc();
    let plan = rec.plan.as_ref().map(ToString::to_string);
    motro_obs::log::warn(
        "slow query",
        &[
            ("principal", rec.principal.clone()),
            ("stmt", rec.stmt.clone()),
            ("duration_ns", rec.duration_ns.to_string()),
            (
                "trace_id",
                rec.trace.map(|t| t.trace_id_hex()).unwrap_or_default(),
            ),
            ("plan", plan.clone().unwrap_or_default()),
            ("alloc_bytes", node.alloc_bytes.to_string()),
            ("profile", node.render_text()),
        ],
    );
    let mut ring = ctx.slow.lock();
    if ring.len() >= SLOW_LOG_CAP {
        ring.pop_front();
    }
    ring.push_back(SlowQuery {
        principal: rec.principal.clone(),
        stmt: rec.stmt.clone(),
        plan,
        duration_ns: rec.duration_ns,
        trace_id: rec.trace.map(|t| t.trace_id),
        alloc_bytes: node.alloc_bytes,
        profile: node.clone(),
    });
}

/// Tail retention: decide whether a finished traced request is worth
/// keeping, and if so store its span tree and emit a latency exemplar.
fn retain_trace(
    ctx: &Ctx,
    ts: &TraceState,
    tc: TraceContext,
    rec: RequestRecord,
    node: ProfileNode,
) {
    let mut reasons: Vec<String> = Vec::new();
    if tc.sampled {
        reasons.push("sampled".to_owned());
    }
    if ctx.slow_query_ns.is_some_and(|t| rec.duration_ns >= t) {
        reasons.push("slow".to_owned());
    }
    if rec.error.is_some() {
        reasons.push("error".to_owned());
    }
    // The fallback counter is process-global, so a concurrent request's
    // fallback can force-keep this trace too; that over-approximation
    // is acceptable for a backstop signal.
    if let Some(before) = rec.fallbacks_before {
        if ctx.cache.stats().epoch_fallbacks > before {
            reasons.push("epoch_fallback".to_owned());
        }
    }
    // The fraction of the answer area (cells, including rows withheld
    // whole) that masking suppressed.
    let area = rec.cells_delivered + rec.cells_suppressed();
    if area > 0 && rec.cells_suppressed() as f64 / area as f64 >= ts.mask_fraction {
        reasons.push("mask_fraction".to_owned());
    }
    if reasons.is_empty() {
        return;
    }
    if tc.sampled {
        motro_obs::counter!("server.traces.head_sampled").inc();
    }
    if reasons.iter().any(|r| r != "sampled") {
        motro_obs::counter!("server.traces.forced").inc();
    }
    motro_obs::counter!("server.traces.retained").inc();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    motro_obs::prom::record_exemplar("server.request_ns", rec.duration_ns, &tc.trace_id_hex());
    ts.store.insert(StoredTrace {
        trace_id: tc.trace_id,
        principal: rec.principal,
        stmt: rec.stmt,
        reasons,
        duration_ns: rec.duration_ns,
        unix_ms,
        root: node,
    });
}

/// A `profile` reply's outcome summary: the underlying reply minus its
/// bulk data (`rows`/`columns`/`snapshot`), so the span tree can be
/// correlated with what the request produced without resending it.
fn summarize_reply(reply: &Value) -> Value {
    match reply {
        Value::Object(m) => {
            let mut out = serde_json::Map::new();
            for (k, v) in m.iter() {
                if !matches!(k.as_str(), "rows" | "columns" | "snapshot") {
                    out.insert(k.clone(), v.clone());
                }
            }
            Value::Object(out)
        }
        other => other.clone(),
    }
}

/// Every principal's permitted views (group-inclusive), keyed by user:
/// the before/after halves of a policy-drift diff. Covers users with
/// direct grants *and* users that only inherit through memberships.
fn visibility_snapshot(
    f: &Frontend,
) -> std::collections::BTreeMap<String, std::collections::BTreeSet<String>> {
    let store = f.auth_store();
    let mut users: std::collections::BTreeSet<String> =
        store.users().iter().map(|u| u.to_string()).collect();
    users.extend(store.all_memberships().into_iter().map(|(u, _)| u));
    users
        .into_iter()
        .map(|u| {
            let views = store
                .permitted_views(&u)
                .iter()
                .map(|v| v.to_string())
                .collect();
            (u, views)
        })
        .collect()
}

/// Diff visibility around a mutation into the insight drift log. Runs
/// under the mutation's write lock, so the delta is exactly what the
/// statement changed. Records only when the auth epoch actually moved
/// (an errored or no-op mutation leaves no drift entry).
fn record_drift(
    f: &Frontend,
    epoch_before: u64,
    stmt: &str,
    before: std::collections::BTreeMap<String, std::collections::BTreeSet<String>>,
) {
    let epoch = f.auth_epoch();
    if epoch == epoch_before {
        return;
    }
    let after = visibility_snapshot(f);
    let empty = std::collections::BTreeSet::new();
    let users: std::collections::BTreeSet<&String> = before.keys().chain(after.keys()).collect();
    let mut changes = Vec::new();
    for user in users {
        let b = before.get(user).unwrap_or(&empty);
        let a = after.get(user).unwrap_or(&empty);
        for view in a.difference(b) {
            changes.push(motro_obs::insight::DriftChange {
                user: user.clone(),
                view: view.clone(),
                gained: true,
            });
        }
        for view in b.difference(a) {
            changes.push(motro_obs::insight::DriftChange {
                user: user.clone(),
                view: view.clone(),
                gained: false,
            });
        }
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    motro_obs::insight::global().record_drift(motro_obs::insight::EpochDelta {
        epoch,
        stmt: stmt.to_owned(),
        changes,
        unix_ms,
    });
}

/// Evaluate one non-statement request against the shared front-end.
fn dispatch(ctx: &Ctx, principal: &str, request: Request) -> Value {
    let fe = &ctx.fe;
    let admin_allowed = || {
        ctx.admins
            .as_deref()
            .is_none_or(|a| a.iter().any(|p| p == principal))
    };
    let denied = |id, what: &str| {
        wire::error(
            Some(id),
            codes::ADMIN_DENIED,
            &format!("{principal} may not {what}"),
        )
    };
    match request {
        Request::Hello { .. } => unreachable!("hello is handled by the reader"),
        Request::Retrieve { .. } | Request::Query { .. } | Request::Profile { .. } => {
            unreachable!("statement requests are served by serve_request")
        }
        Request::Ping { id } => wire::pong(id),
        // Introspection exposes every principal's statements, costs,
        // and grant changes, so it takes the administrative capability.
        Request::Debug { id, path } => {
            if !admin_allowed() {
                return denied(id, "read server introspection");
            }
            match crate::debug::route(ctx, &path) {
                Ok((content_type, body)) => {
                    wire::debug(id, fe.auth_epoch(), &path, content_type, body)
                }
                Err((code, message)) => wire::error(Some(id), code, &message),
            }
        }
        Request::Explain { id, stmt, user } => {
            let target = user.unwrap_or_else(|| principal.to_owned());
            if target != principal && !admin_allowed() {
                return denied(id, &format!("audit access for {target}"));
            }
            fe.with_read(|f| match f.explain_query(&target, &stmt) {
                Ok(audit) => wire::explain(id, f.auth_epoch(), &audit.render()),
                Err(e) => wire::error(Some(id), error_code(&e), &e.to_string()),
            })
        }
        Request::Admin { id, stmt } => {
            if !admin_allowed() {
                return denied(id, "administer the store");
            }
            // Explicit write closure so the journal record and the
            // cache invalidation land while the lock is still held: no
            // concurrent change can slip between the program's effect
            // and its journal entry, and no reader can observe the new
            // epoch while the cache still holds pre-mutation masks.
            let (result, epoch, removed) = fe.with_write(|f| {
                // Drift capture brackets the statement while the lock is
                // held: the before/after `permitted_views` diff is
                // exactly this mutation's effect, with no interleaving.
                let epoch_before = f.auth_epoch();
                let before = ctx.insight.then(|| visibility_snapshot(f));
                let result = f.execute_admin_program(&stmt);
                let touched = f.take_touched();
                if let Some(j) = &ctx.journal {
                    let outcome = match &result {
                        Ok(m) => Ok(m.clone()),
                        Err(e) => Err(e.to_string()),
                    };
                    j.append_admin(f.auth_epoch(), &stmt, &outcome, &touched, || {
                        f.to_json().ok()
                    });
                }
                let removed = ctx.cache.invalidate(&touched, f.auth_epoch());
                if let Some(before) = before {
                    record_drift(f, epoch_before, &stmt, before);
                }
                (result, f.auth_epoch(), removed)
            });
            rewarm(ctx, removed);
            match result {
                Ok(messages) => wire::ok(id, epoch, &messages),
                Err(e) => wire::error(Some(id), error_code(&e), &e.to_string()),
            }
        }
        Request::Update { id, stmt } => {
            // Updates change data, not grants, so the touched-set is
            // normally empty — masks never depend on data. Draining it
            // anyway keeps every mutation path on the same protocol.
            let (reply, removed) = fe.with_write(|f| {
                let result = f.execute_update(principal, &stmt);
                let touched = f.take_touched();
                if let Some(j) = &ctx.journal {
                    let outcome = result
                        .as_ref()
                        .map(Clone::clone)
                        .map_err(ToString::to_string);
                    j.append_update(f.auth_epoch(), principal, &stmt, &outcome, &touched, || {
                        f.to_json().ok()
                    });
                }
                let removed = ctx.cache.invalidate(&touched, f.auth_epoch());
                let reply = match result {
                    Ok(message) => wire::ok(id, f.auth_epoch(), &[message]),
                    Err(e) => wire::error(Some(id), error_code(&e), &e.to_string()),
                };
                (reply, removed)
            });
            rewarm(ctx, removed);
            reply
        }
        Request::Member {
            id,
            add,
            group,
            user,
        } => {
            if !admin_allowed() {
                return denied(id, "administer the store");
            }
            let (reply, removed) = fe.with_write(|f| {
                let epoch_before = f.auth_epoch();
                let before = ctx.insight.then(|| visibility_snapshot(f));
                let stmt = if add {
                    format!("member {user} {group}")
                } else {
                    format!("unmember {user} {group}")
                };
                let message = if add {
                    f.add_member(&group, &user);
                    format!("added {user} to {group}")
                } else if f.auth_store_mut().remove_member(&group, &user) {
                    format!("removed {user} from {group}")
                } else {
                    format!("{user} was not a member of {group}")
                };
                let touched = f.take_touched();
                if let Some(j) = &ctx.journal {
                    j.append_member(
                        f.auth_epoch(),
                        add,
                        &group,
                        &user,
                        &message,
                        &touched,
                        || f.to_json().ok(),
                    );
                }
                let removed = ctx.cache.invalidate(&touched, f.auth_epoch());
                if let Some(before) = before {
                    record_drift(f, epoch_before, &stmt, before);
                }
                (wire::ok(id, f.auth_epoch(), &[message]), removed)
            });
            rewarm(ctx, removed);
            reply
        }
        Request::Save { id } => match fe.to_json() {
            Ok(snapshot) => wire::state(id, fe.auth_epoch(), &snapshot),
            Err(e) => wire::error(Some(id), codes::EXEC, &e.to_string()),
        },
    }
}

/// Evaluate one statement request under a single read lock and journal
/// its record at the end of the locked section, so the record's epoch
/// is exactly the epoch the outcome was computed under. `aggregates`
/// admits aggregate retrievals (`query`/`profile`); any other
/// non-retrieval statement is a shape error with no record.
fn statement(
    ctx: &Ctx,
    principal: &str,
    id: u64,
    stmt: String,
    aggregates: bool,
    trace: Option<TraceContext>,
) -> (Value, Option<RequestRecord>) {
    ctx.fe.with_read(|f: &Frontend| {
        // The cache-aware path parses and compiles outside the
        // frontend, so it stages those phases itself — profile trees
        // cover the full pipeline either way.
        let parsed = {
            let _stage = motro_obs::profile::stage("parse");
            parse_statement(&stmt)
        };
        let mut rec = RequestRecord {
            principal: principal.to_owned(),
            stmt,
            trace,
            ..RequestRecord::default()
        };
        let reply = match parsed {
            Ok(Statement::Retrieve(query)) => {
                let compiled = {
                    let _stage = motro_obs::profile::stage("compile");
                    compile(&query, f.database().schema())
                };
                match compiled {
                    Ok(plan) => retrieve_rows(ctx, f, &mut rec, id, plan),
                    Err(e) => rec.fail(id, codes::PARSE, e.to_string()),
                }
            }
            Ok(Statement::RetrieveAggregate(_)) if aggregates => {
                match f.query(&rec.principal, &rec.stmt) {
                    Ok(out) => {
                        let rendered = out.render();
                        let reply = wire::aggregate(id, f.auth_epoch(), &rendered);
                        rec.aggregate = Some(rendered);
                        reply
                    }
                    Err(e) => rec.fail(id, error_code(&e), e.to_string()),
                }
            }
            Ok(_) => {
                let reply = wire::error(
                    Some(id),
                    codes::BAD_REQUEST,
                    "expected a row-level retrieve statement",
                );
                return (reply, None);
            }
            Err(e) => rec.fail(id, codes::PARSE, e.to_string()),
        };
        journal_query(ctx, f, &rec);
        (reply, Some(rec))
    })
}

/// Append one statement's outcome to the journal (no-op without one).
/// With `explain_digests` on, row outcomes also get an R2 case summary
/// and an EXPLAIN digest.
fn journal_query(ctx: &Ctx, f: &Frontend, rec: &RequestRecord) {
    let Some(j) = &ctx.journal else { return };
    let outcome = match (&rec.error, &rec.mask) {
        (Some((_, message)), _) => QueryOutcome::Error {
            message: message.clone(),
        },
        (None, Some(m)) => QueryOutcome::Rows {
            plan: rec
                .plan
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_default(),
            mask: m.mask.canonical_render(),
            permits: m.permits.clone(),
            delivered: rec.rows_delivered as usize,
            withheld: rec.rows_withheld as usize,
            full_access: m.full_access,
        },
        (None, None) => QueryOutcome::Aggregate {
            rendered: rec.aggregate.clone().unwrap_or_default(),
        },
    };
    let (r2, explain_fnv) =
        if j.config().explain_digests && matches!(outcome, QueryOutcome::Rows { .. }) {
            match f.explain_query(&rec.principal, &rec.stmt) {
                Ok(audit) => (
                    Some(journal::r2_counts(&audit)),
                    Some(format!("{:016x}", journal::fnv64(&audit.render()))),
                ),
                Err(_) => (None, None),
            }
        } else {
            (None, None)
        };
    j.append_query(
        &QueryRecord {
            principal: rec.principal.clone(),
            stmt: rec.stmt.clone(),
            outcome,
            epoch: f.auth_epoch(),
            cached: rec.cached,
            r2,
            explain_fnv,
            // The record's trace context joins the journal with the
            // trace store and the Prometheus exemplars on one id.
            trace_id: rec.trace.map(|c| c.trace_id_hex()),
        },
        || f.to_json().ok(),
    );
}

/// The materializer's worker body: recompute one `(user, plan)` mask
/// under a fresh read lock and re-insert it. The entry is byte-for-byte
/// what the miss path would cache — same mask, same rendered permits,
/// same provenance — so a later hit is indistinguishable from a cold
/// recompute. A mask computed against grants that changed again before
/// the insert lands is rejected by the cache's epoch watermark.
fn materialize_one(fe: &SharedFrontend, cache: &MaskCache, job: &MatJob) {
    fe.with_read(|f| {
        // The Section 6 extended-mask configuration bypasses the cache
        // entirely — nothing to precompute.
        if f.engine().config().extended_masks {
            return;
        }
        let epoch = f.auth_epoch();
        let Ok((mask, trace)) = f.engine().mask_for_plan(&job.user, &job.plan) else {
            return;
        };
        let permits = mask.describe();
        let full_access = mask.is_full();
        let deps = f
            .auth_store()
            .mask_dependencies(&job.user, &job.plan.relation_footprint());
        cache.insert(
            &job.user,
            &job.plan,
            epoch,
            deps,
            Arc::new(CachedMask::new(mask, &permits, full_access, trace.r2_tally)),
        );
        motro_obs::counter!("server.mat.refreshed").inc();
    });
}

/// Queue warm-on-write jobs for the entries a targeted invalidation
/// just dropped, bounded to plans still in the recently-seen working
/// set (a full flush returns no candidates by design). Runs *after*
/// the mutation's write lock is released, so materialization never
/// extends the admin critical section.
fn rewarm(ctx: &Ctx, removed: Vec<(String, String)>) {
    let Some(mat) = &ctx.mat else { return };
    if removed.is_empty() {
        return;
    }
    let workset = mat.workset.lock();
    for (user, rendered) in removed {
        let Some(plan) = workset.get(&(user.clone(), rendered)) else {
            continue;
        };
        let job = MatJob {
            user,
            plan: plan.clone(),
        };
        if mat.materializer.enqueue(job) {
            motro_obs::counter!("server.mat.queued").inc();
        } else {
            motro_obs::counter!("server.mat.dropped").inc();
        }
    }
}

/// The cached row-retrieval path: fill `rec` with the masked answer's
/// mask and counts and build its reply.
///
/// Soundness: the mask is a pure function of the user's grants and the
/// canonical plan. Administrative statements run under the write lock
/// and invalidate every cached entry whose dependency provenance they
/// touch *before* releasing it, so a hit can never pair a stale mask
/// with fresh grants; the store's epoch acts as a backstop for any
/// mutation that bypasses the touched-set protocol. The data side
/// (`execute_optimized` + `Mask::apply`) always runs live. Masks under
/// the Section 6 extended-mask configuration take a different apply
/// path, so that configuration bypasses the cache entirely.
fn retrieve_rows(
    ctx: &Ctx,
    f: &Frontend,
    rec: &mut RequestRecord,
    id: u64,
    plan: CanonicalPlan,
) -> Value {
    let cache = &*ctx.cache;
    let user = rec.principal.as_str();
    let epoch = f.auth_epoch();
    let bypass = f.engine().config().extended_masks;
    let hit = if bypass {
        None
    } else {
        // Remember the plan as a rewarm candidate whether this lookup
        // hits or misses: the working set is "what this user recently
        // asked", not "what currently missed".
        if let Some(mat) = &ctx.mat {
            mat.workset
                .lock()
                .note((user.to_owned(), MaskCache::render(&plan)), plan.clone());
        }
        cache.get(user, &plan, epoch)
    };
    rec.cached = hit.is_some();
    let answered = match hit {
        // The entry carries the original evaluation's provenance and
        // R2 split, so a hit lands in the same rollup as the miss that
        // built it.
        Some(entry) => execute_optimized_with(&plan, f.database(), &f.exec_config())
            .map(|answer| (entry.mask.apply(&answer), entry))
            .map_err(|e| e.to_string()),
        None => f
            .engine()
            .retrieve_plan(user, &plan)
            .map(|out| {
                let entry = Arc::new(CachedMask::new(
                    out.mask,
                    &out.permits,
                    out.full_access,
                    out.trace.r2_tally,
                ));
                if !bypass {
                    let deps = f
                        .auth_store()
                        .mask_dependencies(user, &plan.relation_footprint());
                    cache.insert(user, &plan, epoch, deps, entry.clone());
                }
                (out.masked, entry)
            })
            .map_err(|e| e.to_string()),
    };
    let ncols = plan.projection.len() as u64;
    rec.plan = Some(plan);
    let (masked, entry) = match answered {
        Ok(answer) => answer,
        Err(message) => return rec.fail(id, codes::EXEC, message),
    };
    rec.rows_delivered = masked.rows.len() as u64;
    rec.rows_withheld = masked.withheld as u64;
    rec.cells_masked = masked
        .rows
        .iter()
        .map(|r| r.iter().filter(|c| c.is_none()).count() as u64)
        .sum();
    rec.cells_delivered = rec.rows_delivered * ncols - rec.cells_masked;
    rec.cells_withheld = rec.rows_withheld * ncols;
    let reply = wire::rows(&RowsReply {
        id,
        epoch,
        cached: rec.cached,
        columns: masked.schema.display_headers(),
        withheld: masked.withheld,
        rows: masked.rows,
        full_access: entry.full_access,
        permits: entry.permits.clone(),
    });
    rec.mask = Some(entry);
    reply
}
