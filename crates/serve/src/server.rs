//! The daemon: accept loop, connection handlers, worker pool, and the
//! graceful drain handshake.
//!
//! Threading model (all scoped — no detached threads, so shutdown is a
//! join, not a prayer):
//!
//! ```text
//! acceptor ──spawns──► connection handler (one per client)
//!                        │ decode frame → admit / reject / answer
//!                        │ admitted jobs ──► BoundedQueue
//!                        ◄── per-submission mpsc ── worker pool (N)
//! ```
//!
//! A connection handler serves one submission at a time: it admits the
//! whole grid (all-or-nothing), streams each cell reply as workers
//! finish (completion order), then a `grid_done` tally. Workers reuse
//! the same resilient executor as the batch harness —
//! [`run_cells`] with panic isolation and watchdog — so a poisoned cell
//! becomes a `FAILED` record, never a dead daemon.
//!
//! Drain: the `drain` frame sets a flag; new submissions are refused
//! with a typed reject while in-flight cells finish. When the
//! outstanding count reaches zero the acceptor closes the queue (worker
//! pop sees `None`), raises the stop flag (handlers exit at their next
//! read-timeout poll), journals `drained`, and [`Server::run`] returns.

use crate::cache::ResultCache;
use crate::journal::{Journal, JournalEvent};
use crate::protocol::{Request, Response, StatusReply, WireCellRecord, PROTOCOL_VERSION};
use crate::wire::{write_frame, FrameReader, Poll};
use ccs_core::checkpoint::{cell_key, CheckpointRecord};
use ccs_core::grid::run_cells;
use ccs_core::{run_custom_cancellable, CcsError, CellSpec, Resilience};
use ccs_core::{Admission, BoundedQueue};
use ccs_obs::{ServeMetrics, ServeSnapshot, SERVE_FRAME_KINDS};
use ccs_trace::TraceStore;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a peer that failed a cache lookup stays circuit-broken
/// (skipped without connecting) before being probed again. Keeps a dead
/// peer from adding a connect timeout to every cache miss.
const PEER_DOWN_COOLDOWN: Duration = Duration::from_secs(2);

/// Everything a daemon needs to know at bind time.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (use port 0 to let the OS pick).
    pub addr: String,
    /// Worker threads evaluating cells.
    pub workers: usize,
    /// Admission-queue capacity (cells, not submissions).
    pub queue_capacity: usize,
    /// Result-cache capacity (finished cells).
    pub cache_capacity: usize,
    /// Trace-store LRU bound; `None` keeps every generated trace.
    pub trace_capacity: Option<usize>,
    /// Request-journal path; `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at startup instead of truncating it:
    /// finished cells become cache entries again (crash recovery).
    /// Ignored when `journal` is `None`.
    pub recover: bool,
    /// Sibling shard addresses consulted (local cache only, via
    /// `cache_lookup`) on a local cache miss before simulating. Empty
    /// disables peering.
    pub peers: Vec<String>,
    /// Connect/read deadline for one peer cache lookup.
    pub peer_timeout: Duration,
    /// How long a connection may sit on a *partial* frame before the
    /// daemon replies with a typed timeout and hangs up (slow-loris
    /// defense). Also the per-write deadline on replies, so a half-dead
    /// client cannot pin a handler in `write`. Idle connections with an
    /// empty buffer are unaffected.
    pub frame_timeout: Duration,
    /// Retry/watchdog policy for cell evaluation.
    pub resilience: Resilience,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 4096,
            trace_capacity: None,
            journal: None,
            recover: false,
            peers: Vec::new(),
            peer_timeout: Duration::from_millis(250),
            frame_timeout: Duration::from_secs(10),
            resilience: Resilience::default(),
        }
    }
}

/// A clonable handle that makes a running [`Server`] die *abruptly*:
/// pending queue entries are dropped, no `drained` marker is journaled,
/// in-flight grids never receive their `grid_done`. This is the chaos
/// harness's kill -9 equivalent for in-process shards — the journal is
/// left exactly as a crash would leave it, so recovery paths get
/// exercised against the real artifact.
#[derive(Clone)]
pub struct KillSwitch {
    flag: Arc<AtomicBool>,
}

impl KillSwitch {
    /// Trips the switch. Idempotent; takes effect at the acceptor's
    /// next poll (≤ ~20 ms).
    pub fn kill(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the switch has been tripped.
    pub fn is_killed(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One unit of worker work: a unique cell plus every submission index
/// that asked for it (within-submission dedup fans one evaluation back
/// out to all of them).
struct Job {
    spec: CellSpec,
    key: String,
    indices: Vec<usize>,
    reply: mpsc::Sender<(Vec<usize>, CheckpointRecord, bool)>,
}

/// State shared by the acceptor, every connection handler, and every
/// worker.
struct Shared {
    queue: BoundedQueue<Job>,
    cache: ResultCache,
    traces: TraceStore,
    metrics: ServeMetrics,
    journal: Option<Journal>,
    resilience: Resilience,
    workers: usize,
    /// Sibling shards consulted on a local cache miss (empty: no
    /// peering).
    peers: Vec<String>,
    /// Per-lookup connect/read deadline for peering.
    peer_timeout: Duration,
    /// Circuit breaker: peers that recently failed, with the instant
    /// their cooldown expires.
    peer_down: Mutex<HashMap<String, Instant>>,
    /// Partial-frame / reply-write deadline.
    frame_timeout: Duration,
    /// Cells admitted but not yet answered. The drain handshake waits
    /// on this reaching zero.
    outstanding: AtomicU64,
    /// Set by a `drain` frame: refuse new submissions.
    draining: AtomicBool,
    /// Set by the acceptor once drained: handlers exit at their next
    /// poll.
    stop: AtomicBool,
    /// Tripped by a [`KillSwitch`]: die abruptly, crash semantics.
    killed: Arc<AtomicBool>,
}

impl Shared {
    fn status(&self) -> StatusReply {
        let snap = self.metrics.snapshot();
        StatusReply {
            protocol: PROTOCOL_VERSION,
            draining: self.draining.load(Ordering::SeqCst),
            queue_depth: snap.queue_depth,
            queue_capacity: self.queue.capacity() as u64,
            workers: self.workers as u64,
            cache_len: self.cache.len() as u64,
            cache_capacity: self.cache.capacity() as u64,
            cache_hits: snap.cache_hits,
            cache_misses: snap.cache_misses,
            cells_admitted: snap.cells_admitted,
            cells_evaluated: snap.cells_evaluated,
            admission_rejects: snap.admission_rejects,
            protocol_errors: snap.protocol_errors,
            approx_answered: snap.approx_answered,
            recovered: snap.recovered,
            peer_hits: snap.peer_hits,
        }
    }

    /// Whether a peer is currently circuit-broken. Expired cooldowns
    /// are pruned on the way.
    fn peer_is_down(&self, peer: &str) -> bool {
        let mut down = self.peer_down.lock().unwrap_or_else(PoisonError::into_inner);
        match down.get(peer) {
            Some(&until) if Instant::now() < until => true,
            Some(_) => {
                down.remove(peer);
                false
            }
            None => false,
        }
    }

    fn mark_peer_down(&self, peer: &str) {
        self.peer_down
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(peer.to_string(), Instant::now() + PEER_DOWN_COOLDOWN);
    }
}

/// Renders a [`ServeSnapshot`] as the JSON body of a `metrics` reply.
pub fn render_metrics(snap: &ServeSnapshot) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"frames\":{");
    for (i, kind) in SERVE_FRAME_KINDS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{kind}\":{}", snap.frames[i]);
    }
    let _ = write!(
        out,
        "}},\"protocol_errors\":{},\"admission_rejects\":{},\"drain_rejects\":{},\
         \"cells_admitted\":{},\"cells_evaluated\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"cache_hit_rate\":{:.6},\"approx_answered\":{},\"peer_hits\":{},\"peer_misses\":{},\
         \"recovered\":{},\"queue_depth\":{},\"queue_depth_peak\":{},\"latency\":{{",
        snap.protocol_errors,
        snap.admission_rejects,
        snap.drain_rejects,
        snap.cells_admitted,
        snap.cells_evaluated,
        snap.cache_hits,
        snap.cache_misses,
        snap.cache_hit_rate(),
        snap.approx_answered,
        snap.peer_hits,
        snap.peer_misses,
        snap.recovered,
        snap.queue_depth,
        snap.queue_depth_peak,
    );
    for (i, kind) in SERVE_FRAME_KINDS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let p50 = snap.latency_quantile_ms(i, 0.5);
        let p99 = snap.latency_quantile_ms(i, 0.99);
        let _ = write!(
            out,
            "\"{kind}\":{{\"samples\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
            snap.latency_ms[i].samples(),
            p50.map_or("null".to_string(), |v| v.to_string()),
            p99.map_or("null".to_string(), |v| v.to_string()),
        );
    }
    out.push_str("}}");
    out
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServeConfig,
    killed: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listen socket (resolving port 0 to a concrete port).
    ///
    /// # Errors
    ///
    /// [`CcsError::Protocol`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, CcsError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| CcsError::Protocol {
            message: format!("bind {}: {e}", config.addr),
        })?;
        let local_addr = listener.local_addr().map_err(|e| CcsError::Protocol {
            message: format!("local_addr: {e}"),
        })?;
        Ok(Server {
            listener,
            local_addr,
            config,
            killed: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (concrete even when the config said port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can crash this daemon from another thread (chaos
    /// testing). Grab it before [`run`](Server::run) consumes `self`.
    pub fn kill_switch(&self) -> KillSwitch {
        KillSwitch {
            flag: Arc::clone(&self.killed),
        }
    }

    /// Serves until a `drain` frame completes: accepts connections,
    /// evaluates admitted cells, then drains and returns.
    ///
    /// # Errors
    ///
    /// [`CcsError::Checkpoint`] when the journal cannot be created;
    /// [`CcsError::Protocol`] when the listener breaks.
    pub fn run(self) -> Result<(), CcsError> {
        let Server {
            listener,
            local_addr,
            config,
            killed,
        } = self;
        let mut replayed: Vec<CheckpointRecord> = Vec::new();
        let journal = match &config.journal {
            Some(path) if config.recover => {
                let (journal, state) = Journal::recover(
                    path,
                    &local_addr.to_string(),
                    config.workers,
                    config.queue_capacity,
                )?;
                replayed = state.records;
                Some(journal)
            }
            Some(path) => Some(Journal::create(
                path,
                &local_addr.to_string(),
                config.workers,
                config.queue_capacity,
            )?),
            None => None,
        };
        let shared = Shared {
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            cache: ResultCache::new(config.cache_capacity),
            traces: match config.trace_capacity {
                Some(cap) => TraceStore::bounded(cap),
                None => TraceStore::new(),
            },
            metrics: ServeMetrics::new(),
            journal,
            resilience: config.resilience,
            workers: config.workers.max(1),
            peers: config.peers.clone(),
            peer_timeout: config.peer_timeout,
            peer_down: Mutex::new(HashMap::new()),
            frame_timeout: config.frame_timeout,
            outstanding: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            killed,
        };
        // Replayed results become cache entries before the first accept,
        // so the recovered shard answers its journaled cells as hits
        // from the very first submission (the put ignores non-"ok"
        // records, exactly like the live path).
        let mut recovered = 0u64;
        for record in &replayed {
            if record.status == "ok" {
                shared.cache.put(record);
                recovered += 1;
            }
        }
        if recovered > 0 {
            shared.metrics.record_recovered(recovered);
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| CcsError::Protocol {
                message: format!("set_nonblocking: {e}"),
            })?;

        std::thread::scope(|scope| {
            for _ in 0..shared.workers {
                scope.spawn(|| worker_loop(&shared));
            }
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let shared = &shared;
                        scope.spawn(move || handle_connection(shared, stream));
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::TimedOut =>
                    {
                        if shared.killed.load(Ordering::SeqCst) {
                            break;
                        }
                        if shared.draining.load(Ordering::SeqCst)
                            && shared.outstanding.load(Ordering::SeqCst) == 0
                        {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        // A broken listener is fatal; stop everything.
                        shared.draining.store(true, Ordering::SeqCst);
                        shared.queue.close();
                        shared.stop.store(true, Ordering::SeqCst);
                        panic!("accept failed: {e}");
                    }
                }
            }
            if shared.killed.load(Ordering::SeqCst) {
                // Crash semantics: drop the backlog on the floor, no
                // `drained` marker — the journal must look exactly as
                // kill -9 would leave it, mid-sentence. (Dropping the
                // queued jobs drops their reply senders, so handlers
                // unblock; the stop flag then suppresses `grid_done`.)
                shared.stop.store(true, Ordering::SeqCst);
                shared.queue.close_now();
            } else {
                // Drained: stop workers (pop → None) and handlers (next
                // read-timeout poll observes the stop flag).
                shared.queue.close();
                shared.stop.store(true, Ordering::SeqCst);
                if let Some(j) = &shared.journal {
                    j.append(JournalEvent::Drained { seq: 0 });
                }
            }
        });
        Ok(())
    }
}

/// One worker: pop a job, resolve it (cache or evaluation), fan the
/// record out to the submission that asked, and retire the cell.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // A racing submission may have filled the cache while this job
        // sat queued; reuse its result rather than re-simulating. This
        // second consultation counts as a hit so the daemon's hit tally
        // agrees with the number of `cached` records clients receive.
        let mut from_peer = false;
        let peered = match shared.cache.get(&job.key) {
            Some(record) => {
                shared.metrics.record_cache_hit();
                Some(record)
            }
            // A sibling shard may already hold this cell (it owned the
            // key before a failover re-placed it, or recovered it from
            // its journal). Results are deterministic, so a peer's
            // record is bit-identical to what a local evaluation would
            // produce — install it and answer as a cache hit.
            None => match peer_lookup(shared, &job.key) {
                Some(record) => {
                    shared.cache.put(&record);
                    shared.metrics.record_peer_hit();
                    from_peer = true;
                    Some(record)
                }
                None => None,
            },
        };
        let (record, cached) = match peered {
            Some(record) => (record, true),
            None => {
                let results = run_cells(
                    std::slice::from_ref(&job.spec),
                    1,
                    &shared.resilience,
                    |_, spec, cancel| {
                        let trace = ccs_core::fetch_cell_trace(&shared.traces, spec);
                        let policy_config =
                            spec.policy_config.unwrap_or_else(|| spec.policy.config());
                        run_custom_cancellable(
                            &spec.config,
                            &trace,
                            policy_config,
                            spec.policy,
                            &spec.options,
                            cancel,
                        )
                    },
                    |_, _| {},
                );
                let record = CheckpointRecord::from_result(&results[0]);
                shared.cache.put(&record);
                (record, false)
            }
        };
        if let Some(j) = &shared.journal {
            j.append(JournalEvent::CellDone {
                seq: 0,
                key: record.key.clone(),
                status: record.status.clone(),
                attempts: record.attempts as u64,
                cycles: record.cycles,
                cpi_bits: record.cpi_bits,
                digest: record.digest,
                error: record.error.clone(),
            });
        }
        // Account the evaluation before replying, so a client that sees
        // its grid finish also sees the daemon's counters agree. A
        // peer-answered cell already left the queue via
        // `record_peer_hit`, and counting it as evaluated would claim
        // work this shard never did.
        if !from_peer {
            shared.metrics.record_evaluated();
        }
        // The handler may have died with its client; a failed send must
        // not kill the worker (the cell is still journaled and cached).
        let _ = job.reply.send((job.indices, record, cached));
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Asks each configured peer shard (skipping circuit-broken ones) for
/// `key` from its *local* cache. First hit wins. Every socket operation
/// is bounded by `peer_timeout`, and a peer that fails transport-wise
/// is circuit-broken for [`PEER_DOWN_COOLDOWN`] so a dead shard cannot
/// tax every subsequent miss with a connect timeout.
fn peer_lookup(shared: &Shared, key: &str) -> Option<CheckpointRecord> {
    if shared.peers.is_empty() {
        return None;
    }
    for peer in &shared.peers {
        if shared.peer_is_down(peer) {
            continue;
        }
        match peer_lookup_one(peer, key, shared.peer_timeout) {
            Ok(Some(record)) => return Some(record),
            Ok(None) => {}
            Err(_) => shared.mark_peer_down(peer),
        }
    }
    shared.metrics.record_peer_miss();
    None
}

/// One bounded cache-lookup round trip against one peer.
fn peer_lookup_one(
    peer: &str,
    key: &str,
    timeout: Duration,
) -> Result<Option<CheckpointRecord>, CcsError> {
    use crate::protocol::ServeError;
    let addr: SocketAddr = peer.parse().map_err(|_| CcsError::Protocol {
        message: format!("peer address {peer:?} is not host:port"),
    })?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(ServeError::from)?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(timeout.min(Duration::from_millis(50)).max(Duration::from_millis(1))))
        .map_err(ServeError::from)?;
    stream.set_write_timeout(Some(timeout)).map_err(ServeError::from)?;
    let request = Request::CacheLookup {
        key: key.to_string(),
    };
    write_frame(&mut stream, &request.encode())?;
    let deadline = Instant::now() + timeout;
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(&mut stream) {
            Ok(Poll::Frame(payload)) => {
                return match Response::decode(&payload)? {
                    Response::Cell { record, .. } => Ok(Some(record.to_checkpoint())),
                    Response::NotFound { .. } => Ok(None),
                    other => Err(CcsError::Protocol {
                        message: format!("unexpected cache_lookup reply: {other:?}"),
                    }),
                };
            }
            Ok(Poll::Pending) => {
                if Instant::now() >= deadline {
                    return Err(CcsError::Timeout {
                        what: format!("cache_lookup reply from {peer}"),
                    });
                }
            }
            Ok(Poll::Closed) => {
                return Err(CcsError::Protocol {
                    message: format!("peer {peer} closed during cache_lookup"),
                })
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Tallies for a `grid_done` reply.
#[derive(Default)]
struct GridTally {
    ok: usize,
    failed: usize,
    timed_out: usize,
    cached: usize,
}

impl GridTally {
    fn add(&mut self, record: &WireCellRecord) {
        match record.status.as_str() {
            "ok" => self.ok += 1,
            "TIMEOUT" => self.timed_out += 1,
            _ => self.failed += 1,
        }
        if record.cached {
            self.cached += 1;
        }
    }
}

/// Serves one client connection until it closes, desynchronizes, or the
/// daemon stops.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    // The read timeout doubles as the stop-flag poll interval; the
    // FrameReader preserves partial frames across timeouts. The write
    // timeout bounds every reply, so a client that stops reading cannot
    // pin this handler (or the drain path) in `write`.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(shared.frame_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();
    // Slow-loris defense: the clock starts when a partial frame appears
    // and resets when the buffer empties. An idle connection (empty
    // buffer) may sit forever; a half-sent frame may not.
    let mut partial_since: Option<Instant> = None;
    loop {
        match reader.poll(&mut stream) {
            Ok(Poll::Frame(payload)) => {
                partial_since = None;
                if !handle_frame(shared, &mut stream, &payload) {
                    break;
                }
            }
            Ok(Poll::Pending) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                if reader.buffered() == 0 {
                    partial_since = None;
                } else {
                    let since = *partial_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= shared.frame_timeout {
                        shared.metrics.record_protocol_error();
                        let reply = Response::Error {
                            message: format!(
                                "timeout: partial frame stalled longer than {} ms",
                                shared.frame_timeout.as_millis()
                            ),
                        };
                        let _ = write_frame(&mut stream, &reply.encode());
                        break;
                    }
                }
            }
            Ok(Poll::Closed) => break,
            Err(err) => {
                // Framing is lost (bad magic, oversized prefix, hard IO
                // error): tell the peer what happened if the socket
                // still works, then hang up.
                shared.metrics.record_protocol_error();
                let reply = Response::Error {
                    message: err.to_string(),
                };
                let _ = write_frame(&mut stream, &reply.encode());
                break;
            }
        }
    }
}

/// Decodes and answers one frame. Returns `false` when the connection
/// should close.
fn handle_frame(shared: &Shared, stream: &mut TcpStream, payload: &str) -> bool {
    let started = Instant::now();
    let request = match Request::decode(payload) {
        Ok(req) => req,
        Err(err) => {
            // Framing survived; the payload did not. Answer the error
            // and keep the connection.
            shared.metrics.record_protocol_error();
            let reply = Response::Error {
                message: err.to_string(),
            };
            return write_frame(stream, &reply.encode()).is_ok();
        }
    };
    let kind = request.kind();
    shared.metrics.record_frame(kind);
    let keep = match request {
        Request::SubmitCell { id, cell, approx } => {
            handle_submission(shared, stream, id, vec![cell], false, approx)
        }
        Request::SubmitGrid { id, cells } => {
            handle_submission(shared, stream, id, cells, true, false)
        }
        Request::Status => {
            let reply = Response::Status(shared.status());
            write_frame(stream, &reply.encode()).is_ok()
        }
        Request::Metrics => {
            let reply = Response::Metrics {
                json: render_metrics(&shared.metrics.snapshot()),
            };
            write_frame(stream, &reply.encode()).is_ok()
        }
        Request::CacheLookup { key } => {
            // Answered from the *local* cache only — never queued, never
            // forwarded — so peering lookups cannot recurse or generate
            // work on the queried shard.
            let reply = match shared.cache.get(&key) {
                Some(record) => Response::Cell {
                    id: 0,
                    record: WireCellRecord::from_checkpoint(0, &record, true),
                },
                None => Response::NotFound { key },
            };
            write_frame(stream, &reply.encode()).is_ok()
        }
        Request::Drain => {
            let pending = shared.outstanding.load(Ordering::SeqCst);
            shared.draining.store(true, Ordering::SeqCst);
            if let Some(j) = &shared.journal {
                j.append(JournalEvent::DrainRequested { seq: 0, pending });
            }
            let reply = Response::Draining { pending };
            write_frame(stream, &reply.encode()).is_ok()
        }
    };
    shared
        .metrics
        .record_latency_ms(kind, crate::saturating_millis(started.elapsed()));
    keep
}

/// Admits and answers one submission (a single cell or a grid).
///
/// Reply sequence on admission: one `cell` frame per submitted index in
/// completion order (cache hits first), then — for grids — a
/// `grid_done` tally. On rejection: exactly one `busy` or `rejected`
/// frame and nothing else (admission is all-or-nothing, so the client
/// never untangles a half-answered grid).
///
/// With `approx` set the submission never reaches the queue: cached
/// cells are answered exactly (an envelope is never a downgrade from a
/// result already in hand), everything else gets an `approx` frame
/// carrying `ccs-predict`'s analytic envelope. Envelopes are never
/// cached — the cache holds only simulated results.
fn handle_submission(
    shared: &Shared,
    stream: &mut TcpStream,
    id: u64,
    cells: Vec<crate::protocol::WireCellSpec>,
    grid: bool,
    approx: bool,
) -> bool {
    if shared.draining.load(Ordering::SeqCst) {
        shared.metrics.record_drain_reject();
        if let Some(j) = &shared.journal {
            j.append(JournalEvent::RejectedEvent {
                seq: 0,
                id,
                reason: "draining".into(),
            });
        }
        let reply = Response::Rejected {
            reason: "draining".into(),
        };
        return write_frame(stream, &reply.encode()).is_ok();
    }

    // Resolve the wire cells to specs before touching any shared state;
    // an unparseable cell rejects the whole submission.
    let mut specs = Vec::with_capacity(cells.len());
    for (index, wire) in cells.iter().enumerate() {
        match wire.to_cell() {
            Ok(spec) => specs.push(spec),
            Err(err) => {
                shared.metrics.record_protocol_error();
                let reply = Response::Rejected {
                    reason: format!("cell {index}: {err}"),
                };
                return write_frame(stream, &reply.encode()).is_ok();
            }
        }
    }

    if approx {
        return handle_approx(shared, stream, id, &specs);
    }

    // Partition into cache hits (answered immediately) and unique-key
    // jobs (queued once per key, fanned out to every index).
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut hits: Vec<(usize, CheckpointRecord)> = Vec::new();
    let mut pending: HashMap<String, (CellSpec, Vec<usize>)> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for (index, spec) in specs.iter().enumerate() {
        let key = cell_key(spec);
        if let Some(record) = shared.cache.get(&key) {
            shared.metrics.record_cache_hit();
            hits.push((index, record));
            continue;
        }
        shared.metrics.record_cache_miss();
        match pending.get_mut(&key) {
            Some((_, indices)) => indices.push(index),
            None => {
                order.push(key.clone());
                pending.insert(key, (*spec, vec![index]));
            }
        }
    }
    let jobs: Vec<Job> = order
        .into_iter()
        .map(|key| {
            let (spec, indices) = pending.remove(&key).expect("ordered key is pending");
            Job {
                spec,
                key,
                indices,
                reply: reply_tx.clone(),
            }
        })
        .collect();
    drop(reply_tx);

    let job_count = jobs.len();
    // Publish the outstanding count *before* admission so the drain
    // handshake can never observe admitted-but-uncounted cells.
    shared
        .outstanding
        .fetch_add(job_count as u64, Ordering::SeqCst);
    // A worker may finish and journal a cell as soon as it is queued, so
    // the admission is journaled under the same journal lock as the
    // enqueue: the journal never shows a cell done before the submission
    // that asked for it.
    let admitted = JournalEvent::Admitted {
        seq: 0,
        id,
        cells: cells.len() as u64,
        cached: hits.len() as u64,
    };
    let admission = match &shared.journal {
        Some(j) => j.append_with(|| {
            let admission = shared.queue.admit(jobs);
            let event = matches!(admission, Admission::Admitted { .. }).then_some(admitted);
            (admission, event)
        }),
        None => shared.queue.admit(jobs),
    };
    match admission {
        Admission::Admitted { .. } => {}
        Admission::Busy { retry_after_hint } => {
            shared
                .outstanding
                .fetch_sub(job_count as u64, Ordering::SeqCst);
            shared.metrics.record_admission_reject();
            if let Some(j) = &shared.journal {
                j.append(JournalEvent::RejectedEvent {
                    seq: 0,
                    id,
                    reason: "busy".into(),
                });
            }
            let reply = Response::Busy {
                retry_after_ms: crate::saturating_millis(retry_after_hint),
            };
            return write_frame(stream, &reply.encode()).is_ok();
        }
    }
    shared.metrics.record_admitted(job_count as u64);

    // Stream the answers. A write failure means the client is gone; the
    // admitted jobs still run (workers ignore the dead channel), so the
    // daemon's accounting stays intact either way.
    let mut tally = GridTally::default();
    let mut write_ok = true;
    for (index, record) in &hits {
        let wire = WireCellRecord::from_checkpoint(*index, record, true);
        tally.add(&wire);
        if write_ok {
            let reply = Response::Cell {
                id,
                record: wire,
            };
            write_ok = write_frame(stream, &reply.encode()).is_ok();
        }
    }
    for _ in 0..job_count {
        let Ok((indices, record, cached)) = reply_rx.recv() else {
            // Workers died (queue closed mid-flight); nothing more
            // will arrive for this submission.
            break;
        };
        for index in indices {
            let wire = WireCellRecord::from_checkpoint(index, &record, cached);
            tally.add(&wire);
            if write_ok {
                let reply = Response::Cell {
                    id,
                    record: wire,
                };
                write_ok = write_frame(stream, &reply.encode()).is_ok();
            }
        }
    }
    // A killed shard must look *crashed*, not finished: suppressing
    // `grid_done` here means the client sees an incomplete grid and
    // fails the unanswered cells over to the next ring successor.
    if grid && write_ok && !shared.killed.load(Ordering::SeqCst) {
        let reply = Response::GridDone {
            id,
            cells: cells.len(),
            ok: tally.ok,
            failed: tally.failed,
            timed_out: tally.timed_out,
            cached: tally.cached,
        };
        write_ok = write_frame(stream, &reply.encode()).is_ok();
    }
    write_ok
}

/// Answers an approximate submission without touching the worker queue.
///
/// Cache hits still return the exact simulated record (marked
/// `cached`); misses return the analytic envelope and count toward
/// `approx_answered`. The client escalates by re-submitting without the
/// `approx` flag — the envelope never enters the result cache, so the
/// escalated run is a plain first-class evaluation.
fn handle_approx(
    shared: &Shared,
    stream: &mut TcpStream,
    id: u64,
    specs: &[CellSpec],
) -> bool {
    let mut write_ok = true;
    for (index, spec) in specs.iter().enumerate() {
        let key = cell_key(spec);
        let reply = match shared.cache.get(&key) {
            Some(record) => {
                shared.metrics.record_cache_hit();
                Response::Cell {
                    id,
                    record: WireCellRecord::from_checkpoint(index, &record, true),
                }
            }
            None => {
                shared.metrics.record_cache_miss();
                let trace = ccs_core::fetch_cell_trace(&shared.traces, spec);
                let mut p = ccs_predict::predict(&spec.config, &trace)
                    .with_cycle_budget(spec.options.cycle_budget);
                // The envelope is sound for any policy, but its
                // tightness tag is calibrated on the static ladder;
                // dynamic policies get the tag demoted one step.
                if spec.policy.is_dynamic() {
                    p = p.demoted();
                }
                shared.metrics.record_approx();
                if let Some(j) = &shared.journal {
                    j.append(JournalEvent::ApproxServed {
                        seq: 0,
                        key: key.clone(),
                    });
                }
                Response::Approx {
                    id,
                    key,
                    cycles_lo: p.cycles_lo,
                    cycles_hi: p.cycles_hi,
                    ipc_hi_bits: p.ipc_hi.to_bits(),
                    confidence: p.confidence.name().to_string(),
                }
            }
        };
        if write_ok {
            write_ok = write_frame(stream, &reply.encode()).is_ok();
        }
    }
    write_ok
}
