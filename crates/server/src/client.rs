//! A blocking, pipelining client for the `dsf serve` wire protocol.
//!
//! [`Client::call`] is the simple request/response path. For throughput,
//! [`Client::send`] queues requests without waiting and [`Client::recv`]
//! takes responses in request order — keeping several requests in flight
//! is exactly what lets the server's accumulator form group commits, so
//! the benchmark clients (E18) drive a fixed pipeline depth.

use crate::protocol::{self, ProtocolError, Request, Response};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide connection counter seeding each client's trace-id block
/// ([`Client::send_traced`]): block `n` owns ids `n<<24 ..= (n<<24)+2^24-1`,
/// so concurrent in-process clients (the E18/E19 harnesses) never collide.
static NEXT_TRACE_BLOCK: AtomicU64 = AtomicU64::new(1);

/// A connection to a `dsf serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Requests sent but not yet answered.
    in_flight: usize,
    /// Next client-assigned trace id (see [`Client::send_traced`]).
    next_trace_id: u64,
}

impl Client {
    /// Connects (and disables Nagle, since frames are small and
    /// latency-sensitive).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            in_flight: 0,
            next_trace_id: NEXT_TRACE_BLOCK.fetch_add(1, Ordering::Relaxed) << 24,
        })
    }

    /// Queues one request. Bytes may sit in the local buffer until
    /// [`recv`](Self::recv), [`flush`](Self::flush), or the buffer fills.
    pub fn send(&mut self, req: &Request) -> Result<(), ProtocolError> {
        protocol::write_request(&mut self.writer, req)?;
        self.in_flight += 1;
        Ok(())
    }

    /// [`send`](Self::send) with a client-assigned trace id: the request
    /// carries the id in the protocol's trailing extension and the
    /// server's request timeline records it, so a client-measured
    /// latency can be joined to its server-side waterfall. Returns the
    /// id (always nonzero, unique within the process).
    ///
    /// Only use against servers that understand the extension — an old
    /// server rejects the frame as trailing garbage (by design: the
    /// extension is never silently misread).
    pub fn send_traced(&mut self, req: &Request) -> Result<u64, ProtocolError> {
        self.next_trace_id += 1;
        let id = self.next_trace_id;
        protocol::write_request_traced(&mut self.writer, req, id)?;
        self.in_flight += 1;
        Ok(id)
    }

    /// Pushes buffered request bytes onto the wire.
    pub fn flush(&mut self) -> Result<(), ProtocolError> {
        self.writer.flush().map_err(ProtocolError::from)
    }

    /// Takes the next response, in request order. Flushes first so the
    /// server has everything we queued.
    pub fn recv(&mut self) -> Result<Response, ProtocolError> {
        self.flush()?;
        match protocol::read_response(&mut self.reader)? {
            Some(rsp) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                Ok(rsp)
            }
            None => Err(ProtocolError::Io(std::io::ErrorKind::UnexpectedEof)),
        }
    }

    /// One request, one response (drains nothing else; callers mixing
    /// `call` with `send` must [`recv`](Self::recv) their backlog first).
    pub fn call(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        assert_eq!(
            self.in_flight, 0,
            "call() with {} pipelined responses outstanding",
            self.in_flight
        );
        self.send(req)?;
        self.recv()
    }

    /// Responses currently owed by the server.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}
