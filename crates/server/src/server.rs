//! The TCP server: accept loop, one run-to-completion thread per
//! connection, and the graceful-shutdown choreography.
//!
//! Threading model (no async runtime, exactly like the metrics exporter
//! in `dsf-telemetry` this is patterned on): one non-blocking accept
//! loop polling a stop flag, and **one thread per connection** that
//! reads, executes and answers its own requests. Each turn of a
//! connection takes every complete frame already in its receive buffer
//! (up to `batch_window`) as one *burst* and runs the burst in request
//! order:
//!
//! * structural commands (`Insert`, `Remove`) collect until the next
//!   other frame or the end of the burst, then go to the
//!   accumulator together, where the connection leads or follows its
//!   shards' group commits;
//! * every other frame (`Get`, `Scan`, `Count`, `Ping`, `Flush`,
//!   `Shutdown`) first commits the burst's earlier writes and then runs
//!   inline, so a read pipelined behind a write on the same connection
//!   sees that write.
//!
//! All of a burst's responses go out, in request order, with one flush.
//! While it commits, a connection reads nothing from its socket, so TCP
//! flow control extends the backpressure to the client.
//!
//! Graceful shutdown ([`Server::shutdown`], triggered by
//! [`Request::Shutdown`] or by the embedding process):
//!
//! 1. stop accepting; 2. every connection finishes the burst it is
//!    running — its commands committed and answered — and closes once it
//!    has no partial frame buffered; 3. with every connection joined the
//!    accumulator is empty, and the service flushes (commit windows
//!    close and fsync). Every acked command is therefore durable before
//!    the process exits — the shutdown+restart test pins exactly that.

use crate::accumulator::{Accumulator, Queued};
use crate::protocol::{self, ProtocolError, Request, Response};
use crate::service::KvService;
use crate::tel::ServerTel;
use dsf_core::Command;
use dsf_flight::request::{self, Phase, TraceCtx};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Most commands one batch (= one group commit) may carry, and most
    /// frames a connection takes into one burst.
    pub batch_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { batch_window: 64 }
    }
}

/// How long an idle connection waits between stop-flag polls.
const POLL: Duration = Duration::from_millis(20);
/// Patience for the rest of a frame once its first bytes arrived.
const FRAME_PATIENCE: Duration = Duration::from_secs(5);
/// Initial size of a connection's receive buffer; it doubles whenever
/// one frame needs more.
const RECV_BUF: usize = 8 << 10;

struct Inner {
    acc: Accumulator,
    tel: Arc<ServerTel>,
    batch_window: usize,
    /// Set once: stop accepting, wind down connections.
    stop: AtomicBool,
    /// Signals the embedding process that a client asked for shutdown.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Live connection threads: each accept joins the finished ones.
    conns: Mutex<Vec<JoinHandle<()>>>,
    conn_panicked: AtomicBool,
    next_client: AtomicU64,
}

impl Inner {
    fn request_shutdown(&self) {
        let mut flag = self.shutdown_requested.lock().expect("shutdown poisoned");
        *flag = true;
        self.shutdown_cv.notify_all();
    }

    /// Stops accepting and joins the accept loop and every connection.
    /// Connections commit and answer what they read, so once this returns
    /// nothing is queued.
    fn wind_down(&self, accept: Option<JoinHandle<()>>) -> Result<(), String> {
        self.stop.store(true, Ordering::Release);
        let mut result = Ok(());
        if let Some(h) = accept {
            if h.join().is_err() {
                result = Err("accept loop panicked".to_string());
            }
        }
        // Also runs from `Drop`, which must not panic: a poisoned list of
        // handles is still a list of handles.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in conns {
            self.join_conn(c);
        }
        if self.conn_panicked.load(Ordering::Relaxed) {
            result = Err("connection thread panicked".to_string());
        }
        result
    }

    fn join_conn(&self, conn: JoinHandle<()>) {
        if conn.join().is_err() {
            self.conn_panicked.store(true, Ordering::Relaxed);
        }
    }
}

/// A running `dsf serve` instance (embedded or behind the CLI).
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`), spawns the accept loop, and
    /// returns immediately.
    pub fn bind(
        service: Arc<dyn KvService>,
        cfg: ServerConfig,
        addr: &str,
    ) -> std::io::Result<Server> {
        let tel = ServerTel::new(service.shard_count());
        let acc = Accumulator::new(service, cfg.batch_window, Arc::clone(&tel));
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            acc,
            tel,
            batch_window: cfg.batch_window,
            stop: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            conn_panicked: AtomicBool::new(false),
            next_client: AtomicU64::new(0),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("dsf-accept".into())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn accept loop")
        };
        Ok(Server {
            inner,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client sends [`Request::Shutdown`] (the CLI's main
    /// loop). Returns immediately if one already arrived.
    pub fn wait_shutdown_request(&self) {
        let mut flag = self
            .inner
            .shutdown_requested
            .lock()
            .expect("shutdown poisoned");
        while !*flag {
            flag = self
                .inner
                .shutdown_cv
                .wait(flag)
                .expect("shutdown poisoned");
        }
    }

    /// Whether a client has requested shutdown.
    pub fn shutdown_requested(&self) -> bool {
        *self
            .inner
            .shutdown_requested
            .lock()
            .expect("shutdown poisoned")
    }

    /// Graceful shutdown: drain connections, then flush the service
    /// (commit windows close and fsync). Blocks until everything has
    /// wound down; no acked command is lost.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.inner.wind_down(self.accept.take())?;
        // Every applied command's frame is at least buffered; close the
        // windows so even Relaxed acks are durable before we return.
        self.inner.acc.service().flush()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort teardown for the non-graceful path (tests that
        // drop the server); the graceful path already took the handles.
        let _ = self.inner.wind_down(self.accept.take());
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.tel.connections.inc();
                let id = inner.next_client.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name(format!("dsf-conn-{id}"))
                    .spawn(move || serve_connection(&conn_inner, &stream, id));
                let mut conns = inner.conns.lock().expect("conns poisoned");
                // A finished thread keeps its stack mapped until joined.
                for done in conns.extract_if(.., |c| c.is_finished()) {
                    inner.join_conn(done);
                }
                // A failed spawn drops its connection; accepting goes on.
                if let Ok(handle) = spawned {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// A decoded request and its timeline (when tracing is on).
type Traced = (Request, Option<Arc<TraceCtx>>);
/// A response and the timeline it completes.
type Answered = (Response, Option<Arc<TraceCtx>>);

fn serve_connection(inner: &Inner, stream: &TcpStream, client: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut conn = Connection {
        inner,
        client,
        recv: RecvBuf::new(),
        out: BufWriter::new(stream),
        commands: inner.tel.client_commands(client),
    };
    loop {
        let burst = conn.read_burst(stream);
        if burst.is_empty() || !conn.run_burst(burst) {
            break;
        }
    }
    // The connection is gone: release its per-client exposition label
    // (its slot under MAX_CLIENT_LABELS frees for the next connection).
    inner.tel.retire_client(client);
}

struct Connection<'a> {
    inner: &'a Inner,
    client: u64,
    recv: RecvBuf,
    out: BufWriter<&'a TcpStream>,
    commands: Arc<dsf_telemetry::Counter>,
}

impl Connection<'_> {
    /// Blocks until the receive buffer holds at least one complete frame,
    /// and returns up to `batch_window` of them. A frame that cannot be
    /// read or decoded ends the burst as an `Err`. Empty on clean EOF, or
    /// when the server is stopping and no frame has started.
    fn read_burst(&mut self, stream: &TcpStream) -> Vec<Result<Traced, ProtocolError>> {
        let mut burst = Vec::new();
        loop {
            while burst.len() < self.inner.batch_window {
                let frame = match self.recv.next_frame() {
                    Ok(Some(body)) => Request::decode_traced(body),
                    Ok(None) => break,
                    Err(e) => Err(e),
                };
                let failed = frame.is_err();
                burst.push(frame.map(|(req, id)| {
                    let trace = open_trace(id, self.client, req.tag(), self.recv.arrived);
                    (req, trace)
                }));
                if failed {
                    return burst;
                }
            }
            if !burst.is_empty()
                || (self.recv.is_empty() && self.inner.stop.load(Ordering::Acquire))
            {
                return burst;
            }
            let err = match self.recv.fill(stream) {
                Ok(0) if self.recv.is_empty() => return burst,
                Ok(0) => self.recv.torn(),
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if self
                        .recv
                        .started
                        .is_none_or(|t| t.elapsed() <= FRAME_PATIENCE)
                    {
                        continue;
                    }
                    ProtocolError::Io(ErrorKind::TimedOut)
                }
                Err(e) => e.into(),
            };
            burst.push(Err(err));
            return burst;
        }
    }

    /// Runs one burst in request order and writes every response with one
    /// flush. Returns whether the connection stays open.
    fn run_burst(&mut self, burst: Vec<Result<Traced, ProtocolError>>) -> bool {
        let mut writes: Vec<Queued> = Vec::new();
        // Responses in request order; the queued `writes` come next.
        let mut answered = Vec::with_capacity(burst.len());
        let mut open = true;
        let mut shutdown = false;
        for item in burst {
            let (req, trace) = match item {
                Ok(traced) => traced,
                Err(err) => {
                    // Framing cannot recover from corrupt input: answer
                    // with the error (in order) and close.
                    self.inner.tel.protocol_errors.inc();
                    self.commit(&mut writes, &mut answered);
                    answered.push((Response::Error(format!("protocol error: {err}")), None));
                    open = false;
                    break;
                }
            };
            self.inner.tel.requests.inc();
            let (cmd, durability) = match req {
                Request::Insert {
                    key,
                    value,
                    durability,
                } => (Command::Insert(key, value), durability),
                Request::Remove { key, durability } => (Command::Remove(key), durability),
                req => {
                    self.commit(&mut writes, &mut answered);
                    shutdown = matches!(req, Request::Shutdown);
                    answered.push((self.run_inline(req, trace.as_deref()), trace));
                    if shutdown {
                        // Stop reading; the ack goes out below.
                        open = false;
                        break;
                    }
                    continue;
                }
            };
            writes.push(Queued {
                cmd,
                durability,
                trace,
            });
        }
        self.commit(&mut writes, &mut answered);
        let mut alive = true;
        for (rsp, trace) in answered {
            if matches!(rsp, Response::Applied { .. }) {
                self.commands.inc();
            }
            if protocol::write_response(&mut self.out, &rsp).is_err() {
                alive = false;
                break;
            }
            // The response is in the (buffered) socket: the timeline is
            // complete — stamp ack-write and publish it.
            if let Some(t) = trace {
                self.inner.tel.finish_trace(&t);
            }
        }
        alive = alive && self.out.flush().is_ok();
        if shutdown {
            self.inner.request_shutdown();
        }
        open && alive
    }

    /// Runs a request that is not a write, on this thread. Waiting behind
    /// the burst's earlier requests is its queue wait; the thread-local
    /// batch context captures any LockWait the backend's lock-fallback
    /// read path stamps (an optimistic hit stamps none).
    fn run_inline(&self, req: Request, trace: Option<&TraceCtx>) -> Response {
        if let Some(t) = trace {
            t.checkpoint(Phase::QueueWait);
        }
        request::batch_begin();
        let service = self.inner.acc.service();
        let rsp = match req {
            Request::Get { key } => Response::Value(service.get(key).map(String::from)),
            Request::Scan { start, limit } => Response::Entries(
                service
                    .scan(start, limit as usize)
                    .into_iter()
                    .map(|(k, v)| (k, String::from(v)))
                    .collect(),
            ),
            Request::Count => Response::Count(service.len()),
            Request::Ping => Response::Pong,
            Request::Flush => match service.flush() {
                Ok(()) => Response::Flushed,
                Err(e) => Response::Error(format!("flush failed: {e}")),
            },
            Request::Shutdown => Response::ShuttingDown,
            Request::Insert { .. } | Request::Remove { .. } => {
                unreachable!("writes go through the accumulator")
            }
        };
        let phases = request::batch_finish();
        if let Some(t) = trace {
            if let Some(bp) = &phases {
                t.add_batch(bp);
            }
            t.checkpoint(Phase::Execute);
        }
        rsp
    }

    /// Commits the queued `writes` and appends their responses to
    /// `answered`, in request order.
    fn commit(&self, writes: &mut Vec<Queued>, answered: &mut Vec<Answered>) {
        if writes.is_empty() {
            return;
        }
        let traces: Vec<_> = writes.iter().map(|w| w.trace.clone()).collect();
        let responses = self.inner.acc.commit(std::mem::take(writes));
        answered.extend(responses.into_iter().zip(traces));
    }
}

/// Opens a request's timeline at `arrived` (the stamp of the read that
/// brought its frame in); a client that sent no trace id gets a
/// server-assigned fallback id. `arrived == 0` means tracing was off
/// when the frame arrived — skip the timeline rather than mis-time its
/// first phase.
fn open_trace(wire_id: u64, client: u64, kind: u8, arrived: u64) -> Option<Arc<TraceCtx>> {
    if arrived == 0 {
        return None;
    }
    let id = if wire_id != 0 {
        wire_id
    } else {
        request::fallback_id()
    };
    let trace = TraceCtx::begin_at(id, client, kind, arrived)?;
    trace.checkpoint(Phase::WireDecode);
    Some(trace)
}

/// A connection's receive buffer: `buf[start..end]` has been read but
/// not yet parsed into frames.
struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// When the partial frame at `start` was first seen incomplete.
    started: Option<Instant>,
    /// Trace stamp of the last read (0 while tracing is off).
    arrived: u64,
}

impl RecvBuf {
    fn new() -> Self {
        RecvBuf {
            buf: vec![0; RECV_BUF],
            start: 0,
            end: 0,
            started: None,
            arrived: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The body length the buffered frame's header announces, once the
    /// header is in. An oversized one is refused before its body is read.
    fn frame_len(&self) -> Result<Option<usize>, ProtocolError> {
        match self.buf[self.start..self.end].first_chunk::<4>() {
            Some(header) => protocol::body_len(*header).map(Some),
            None => Ok(None),
        }
    }

    /// The body of the next complete frame, consuming it; `None` until
    /// the whole frame has arrived.
    fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtocolError> {
        match self.frame_len()? {
            Some(len) if self.end - self.start >= 4 + len => {
                self.started = None;
                let body = self.start + 4..self.start + 4 + len;
                self.start = body.end;
                Ok(Some(&self.buf[body]))
            }
            _ => {
                if !self.is_empty() {
                    self.started.get_or_insert_with(Instant::now);
                }
                Ok(None)
            }
        }
    }

    /// One `read` into the free tail of the buffer, after moving the
    /// unparsed bytes (less than one frame) to the front, and doubling the
    /// buffer when they fill it.
    fn fill(&mut self, mut stream: &TcpStream) -> std::io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        self.arrived = if dsf_flight::enabled() {
            dsf_flight::now_nanos()
        } else {
            0
        };
        Ok(n)
    }

    /// The error for a stream that ended inside the buffered frame.
    fn torn(&self) -> ProtocolError {
        let got = self.end - self.start;
        let len = self.frame_len().ok().flatten().unwrap_or(0);
        ProtocolError::Torn {
            needed: 4 + len - got,
            got,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use dsf_concurrent::ShardedFile;
    use dsf_core::DenseFileConfig;

    /// Connections opened and closed one after another leave no handles
    /// behind: the accept loop joins each finished one on a later accept.
    /// At most the accept thread and two connection threads run at once.
    #[test]
    fn finished_connections_are_joined_on_accept() {
        let file = ShardedFile::new(2, DenseFileConfig::control2(32, 8, 48)).expect("store");
        let server =
            Server::bind(Arc::new(file), ServerConfig::default(), "127.0.0.1:0").expect("bind");
        let ping = || {
            let mut c = Client::connect(server.local_addr()).expect("connect");
            assert!(matches!(c.call(&Request::Ping).unwrap(), Response::Pong));
        };
        for _ in 0..300 {
            ping();
        }
        // The last few threads may still be ending when the last accept
        // reaps; a few more accepts, spaced out, collect them.
        let live = || server.inner.conns.lock().unwrap().len();
        for _ in 0..50 {
            if live() <= 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            ping();
        }
        assert!(live() <= 4, "{} connection handles kept", live());
        server.shutdown().expect("clean shutdown");
    }
}
