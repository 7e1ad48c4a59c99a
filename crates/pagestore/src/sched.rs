//! Background I/O scheduler: a bounded write queue serviced by worker
//! threads, wrapped as a [`PageBackend`] so a [`BufferPool`](crate::pool::BufferPool) (or a
//! `PhysicalImage` in `dsf-durable`) gains asynchronous writeback without
//! changing a line of caller code.
//!
//! The paper de-amortizes the *algorithmic* cost of a command; this module
//! de-amortizes the *I/O* cost around it. A synchronous pool pays every
//! dirty-page writeback on the command path — eviction and flush stall the
//! caller for the full device write. [`AsyncBackend::write_run`] instead
//! enqueues the run (one bounded copy) and returns; a small pool of worker
//! threads drains the queue in the background and the caller only ever
//! waits when it *must*: on a read of a page with writes still in flight
//! (reads drain first — they are pool misses, the rare case), on
//! backpressure when the queue is full, or on an explicit [`drain`] barrier
//! (the checkpoint/shutdown path).
//!
//! ## Ordering and durability contract
//!
//! * **Per-page write order is program order.** Requests complete out of
//!   order only when their page ranges are disjoint. Workers take requests
//!   strictly FIFO and a request whose range overlaps one still executing
//!   waits — combined with FIFO dispatch this means two overlapping writes
//!   can never swap, so the backend always converges to the bytes a
//!   synchronous pool would have written. (The equivalence proptest in
//!   this module checks exactly that.)
//! * **Completion is tracked per request epoch.** `drain` returns only
//!   after every previously accepted request has left the queue and the
//!   executing set; recovery invariants that held for the synchronous pool
//!   (e.g. "after `flush_all` + `drain` + backend `sync`, the image is on
//!   stable storage") keep holding with the barrier in place.
//! * **Errors are parked, not lost.** A failed write keeps its data and is
//!   re-queued by the next [`drain`] (or read barrier), which reports the
//!   first failure — transient-`EIO` callers retry the barrier exactly as
//!   they would retry a synchronous `flush_all`. A worker panic is sticky
//!   and surfaces as an error from the next barrier, never a hang.
//! * **Crash semantics are the synchronous ones.** [`into_inner_lossy`]
//!   discards queued-but-unwritten requests the way a crash discards dirty
//!   frames; the fault sweeps run the whole harness over
//!   `AsyncBackend<FaultBackend<_>>` with one worker so backend call order
//!   stays deterministic.
//!
//! [`drain`]: AsyncBackend::drain
//! [`into_inner_lossy`]: AsyncBackend::into_inner_lossy

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::pool::PageBackend;
use crate::tel::tel;

/// One queued write: `data` is a whole number of pages starting at
/// `first_page` (the same contract as [`PageBackend::write_run`]).
struct WriteReq {
    first_page: u64,
    pages: u64,
    data: Vec<u8>,
}

impl WriteReq {
    fn overlaps(&self, first: u64, pages: u64) -> bool {
        self.first_page < first + pages && first < self.first_page + self.pages
    }
}

struct State {
    queue: VecDeque<WriteReq>,
    /// Page ranges being written right now: `(first_page, pages)`.
    executing: Vec<(u64, u64)>,
    /// Failed requests parked with their error until a barrier re-queues
    /// them (transient-error retry) or `into_inner_lossy` discards them.
    failed: Vec<(WriteReq, io::Error)>,
    /// Sticky first-worker-panic message; reported by the next barrier.
    panicked: Option<String>,
    shutdown: bool,
}

impl State {
    /// Requests accepted and not yet completed (the queue-depth gauge).
    fn depth(&self) -> usize {
        self.queue.len() + self.executing.len()
    }

    fn refresh_gauge(&self) {
        tel().io_queue_depth.set(self.depth() as f64);
    }
}

struct Shared<B> {
    /// The inner backend. Workers hold this only for the duration of one
    /// `write_run`; read barriers take it directly after draining.
    backend: Mutex<B>,
    state: Mutex<State>,
    /// Workers wait here for work (or for an overlapping write to finish).
    work: Condvar,
    /// Submitters (backpressure) and barriers wait here for completions.
    done: Condvar,
}

impl<B> Shared<B> {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn backend(&self) -> MutexGuard<'_, B> {
        self.backend.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn worker_loop<B: PageBackend>(shared: &Shared<B>) {
    loop {
        let req = {
            let mut st = shared.state();
            loop {
                // Strict FIFO: only the front of the queue is eligible, and
                // only once no executing write overlaps its range. A later
                // request never leapfrogs an earlier overlapping one, so
                // per-page write order is program order.
                let front_clear = st
                    .queue
                    .front()
                    .map(|r| !st.executing.iter().any(|&(f, n)| r.overlaps(f, n)));
                match front_clear {
                    Some(true) => {
                        let req = st.queue.pop_front().expect("front checked");
                        st.executing.push((req.first_page, req.pages));
                        break req;
                    }
                    Some(false) => st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner()),
                    None if st.shutdown => return,
                    None => st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner()),
                }
            }
        };
        // Execute outside the state lock so disjoint writes overlap with
        // submissions; the unwind guard turns a backend panic into a sticky
        // error instead of a wedged queue.
        let result = catch_unwind(AssertUnwindSafe(|| {
            shared.backend().write_run(req.first_page, &req.data)
        }));
        let mut st = shared.state();
        if let Some(i) = st
            .executing
            .iter()
            .position(|&r| r == (req.first_page, req.pages))
        {
            st.executing.swap_remove(i);
        }
        match result {
            Ok(Ok(())) => {
                tel().writeback_pages.add(req.pages);
            }
            Ok(Err(e)) => st.failed.push((req, e)),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                st.panicked.get_or_insert(msg);
            }
        }
        st.refresh_gauge();
        // Completion can unblock an overlapping pop (work) as well as a
        // backpressured submitter or a barrier (done).
        shared.work.notify_all();
        shared.done.notify_all();
    }
}

/// A [`PageBackend`] decorator that makes `write_run` asynchronous: writes
/// enqueue to a bounded queue drained by background worker threads, reads
/// act as barriers. See the module docs for the full contract.
pub struct AsyncBackend<B: PageBackend + Send + 'static> {
    shared: Arc<Shared<B>>,
    workers: Vec<JoinHandle<()>>,
    queue_cap: usize,
    page_size: usize,
}

impl<B: PageBackend + Send + 'static> AsyncBackend<B> {
    /// Wraps `inner`, spawning `workers` threads behind a queue of at most
    /// `queue_cap` pending requests (submission blocks beyond that —
    /// backpressure, not unbounded memory).
    ///
    /// Use `workers = 1` when the order of *backend calls* must be
    /// deterministic (the fault sweeps); more workers only ever reorder
    /// disjoint-range writes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_cap` is zero.
    pub fn new(inner: B, workers: usize, queue_cap: usize) -> Self {
        assert!(workers > 0, "at least one I/O worker required");
        assert!(queue_cap > 0, "queue capacity must be non-zero");
        let page_size = inner.page_size();
        let shared = Arc::new(Shared {
            backend: Mutex::new(inner),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                executing: Vec::new(),
                failed: Vec::new(),
                panicked: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dsf-io-{i}"))
                    .spawn(move || worker_loop(&*shared))
                    .expect("spawn I/O worker")
            })
            .collect();
        AsyncBackend {
            shared,
            workers,
            queue_cap,
            page_size,
        }
    }

    /// Requests accepted and not yet completed (queued + executing).
    pub fn queue_depth(&self) -> usize {
        self.shared.state().depth()
    }

    /// Drains, then runs `f` with exclusive access to the inner backend —
    /// for backend-level operations that are not page I/O (an fsync, a
    /// fault plan, counter reads). The barrier guarantees `f` observes
    /// every write accepted before the call.
    pub fn with_inner<T>(&self, f: impl FnOnce(&mut B) -> T) -> io::Result<T> {
        self.drain()?;
        Ok(f(&mut *self.shared.backend()))
    }

    /// Barrier: blocks until every accepted write request has completed.
    ///
    /// Returns the first parked failure, re-queueing every failed request
    /// first so a subsequent `drain` retries them (transient-`EIO`
    /// semantics); a sticky worker panic is reported the same way but is
    /// not retried. `Ok(())` means everything accepted so far reached the
    /// inner backend.
    pub fn drain(&self) -> io::Result<()> {
        let mut st = self.shared.state();
        loop {
            if st.queue.is_empty() && st.executing.is_empty() {
                if let Some(msg) = st.panicked.take() {
                    return Err(io::Error::other(format!("I/O worker panicked: {msg}")));
                }
                if st.failed.is_empty() {
                    return Ok(());
                }
                let mut failed = std::mem::take(&mut st.failed);
                let (req, err) = failed.remove(0);
                st.queue.push_back(req);
                for (req, _) in failed {
                    st.queue.push_back(req);
                }
                st.refresh_gauge();
                drop(st);
                self.shared.work.notify_all();
                return Err(err);
            }
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn stop_workers(&mut self) {
        {
            let mut st = self.shared.state();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn unwrap_backend(mut self) -> B {
        self.stop_workers();
        let shared = Arc::clone(&self.shared);
        drop(self); // releases the struct's own Arc (Drop's stop is a no-op)
        match Arc::try_unwrap(shared) {
            Ok(sh) => sh.backend.into_inner().unwrap_or_else(|e| e.into_inner()),
            Err(_) => panic!("I/O workers joined but a shared handle survived"),
        }
    }

    /// Drains, shuts the workers down, and hands the inner backend back.
    /// Fails (leaving the scheduler shut down via drop) if the drain does.
    pub fn into_inner(self) -> io::Result<B> {
        self.drain()?;
        Ok(self.unwrap_backend())
    }

    /// Hands the inner backend back **without** writing queued requests —
    /// the "process died" teardown: accepted-but-unwritten data is
    /// discarded exactly like the dirty frames `into_backend_lossy`
    /// drops, so the crash sweeps compose.
    pub fn into_inner_lossy(self) -> B {
        {
            let mut st = self.shared.state();
            st.queue.clear();
            st.failed.clear();
            st.refresh_gauge();
        }
        self.unwrap_backend()
    }
}

impl<B: PageBackend + Send + 'static> Drop for AsyncBackend<B> {
    fn drop(&mut self) {
        // Queued requests are still written: shutdown lets workers drain
        // the queue before exiting (drop is the graceful path; use
        // into_inner_lossy to model a crash).
        self.stop_workers();
    }
}

impl<B: PageBackend + Send + 'static> PageBackend for AsyncBackend<B> {
    fn page_size(&self) -> usize {
        self.page_size
    }

    /// A read barrier: drains all pending writes (so the read can never
    /// see stale bytes), then reads straight through. Reads are pool
    /// misses — rare by design — so the barrier costs little in practice.
    fn read_run(&mut self, first_page: u64, buf: &mut [u8]) -> io::Result<()> {
        self.drain()?;
        self.shared.backend().read_run(first_page, buf)
    }

    /// Enqueues the write (one copy of `data`) and returns. Blocks only
    /// for backpressure: at most `queue_cap` requests may be pending.
    fn write_run(&mut self, first_page: u64, data: &[u8]) -> io::Result<()> {
        let pages = (data.len() / self.page_size) as u64;
        let mut st = self.shared.state();
        while st.queue.len() >= self.queue_cap {
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.queue.push_back(WriteReq {
            first_page,
            pages,
            data: data.to_vec(),
        });
        st.refresh_gauge();
        drop(st);
        self.shared.work.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BufferPool, MemBackend};
    use std::time::Duration;

    const PS: usize = 64;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PS]
    }

    #[test]
    fn writes_complete_in_background_and_drain_barriers() {
        let mut b = AsyncBackend::new(MemBackend::new(PS), 2, 16);
        for p in 0..8u64 {
            b.write_run(p, &page(p as u8)).unwrap();
        }
        b.drain().unwrap();
        assert_eq!(b.queue_depth(), 0);
        let inner = b.into_inner().unwrap();
        assert_eq!(inner.write_calls, 8);
        for p in 0..8u64 {
            assert_eq!(inner.page(p)[0], p as u8);
        }
    }

    #[test]
    fn overlapping_writes_apply_in_program_order() {
        // Hammer the same page with ascending values from the caller while
        // two workers race; the last submitted value must win.
        let mut b = AsyncBackend::new(MemBackend::new(PS), 2, 4);
        for round in 0..200u64 {
            b.write_run(3, &page((round % 251) as u8)).unwrap();
            b.write_run(4, &page((round % 13) as u8)).unwrap();
        }
        let inner = b.into_inner().unwrap();
        assert_eq!(inner.page(3)[0], 199);
        assert_eq!(inner.page(4)[0], (199 % 13) as u8);
    }

    #[test]
    fn reads_see_all_prior_writes() {
        let mut b = AsyncBackend::new(MemBackend::new(PS), 4, 32);
        for p in 0..16u64 {
            b.write_run(p, &page(0xA0 | (p as u8 & 0x0F))).unwrap();
        }
        let mut buf = vec![0u8; 16 * PS];
        b.read_run(0, &mut buf).unwrap();
        for p in 0..16usize {
            assert_eq!(buf[p * PS], 0xA0 | (p as u8 & 0x0F));
        }
    }

    #[test]
    fn shutdown_drains_the_queue() {
        // Dropping (or into_inner-ing) with a full queue must still write
        // everything: shutdown lets workers finish the backlog.
        let mut b = AsyncBackend::new(MemBackend::new(PS), 1, 64);
        for p in 0..64u64 {
            b.write_run(p, &page(7)).unwrap();
        }
        let inner = b.into_inner().unwrap();
        assert_eq!(inner.pages_written, 64);
    }

    /// A backend whose writes block until released — for backpressure and
    /// panic tests.
    struct GatedBackend {
        inner: MemBackend,
        gate: Arc<(Mutex<bool>, Condvar)>,
        panic_on: Option<u64>,
    }

    impl PageBackend for GatedBackend {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_run(&mut self, first_page: u64, buf: &mut [u8]) -> io::Result<()> {
            self.inner.read_run(first_page, buf)
        }
        fn write_run(&mut self, first_page: u64, data: &[u8]) -> io::Result<()> {
            if self.panic_on == Some(first_page) {
                panic!("injected backend panic at page {first_page}");
            }
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.write_run(first_page, data)
        }
    }

    fn gated() -> (GatedBackend, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        (
            GatedBackend {
                inner: MemBackend::new(PS),
                gate: Arc::clone(&gate),
                panic_on: None,
            },
            gate,
        )
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let (backend, gate) = gated();
        let cap = 4usize;
        let mut b = AsyncBackend::new(backend, 1, cap);
        // Observe depth through the shared state so the submitter can own
        // the backend while blocked.
        let shared = Arc::clone(&b.shared);
        // Fill the queue past capacity from a helper thread; it must block
        // rather than buffer without bound.
        let submitter = std::thread::spawn(move || {
            for p in 0..cap as u64 + 3 {
                b.write_run(p, &page(1)).unwrap();
            }
            b
        });
        std::thread::sleep(Duration::from_millis(50));
        {
            // cap queued + at most 1 executing; the rest are blocked in the
            // submitter.
            let depth = shared.state().depth();
            assert!(depth <= cap + 1, "queue grew past capacity: {depth}");
            assert!(!submitter.is_finished(), "submitter should be blocked");
        }
        open_gate(&gate);
        let b = submitter.join().unwrap();
        drop(shared); // release the observer handle so into_inner can unwrap
        let inner = b.into_inner().unwrap();
        assert_eq!(inner.inner.pages_written, cap as u64 + 3);
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        let (mut backend, gate) = gated();
        backend.panic_on = Some(5);
        open_gate(&gate);
        let mut b = AsyncBackend::new(backend, 1, 16);
        b.write_run(1, &page(1)).unwrap();
        b.write_run(5, &page(5)).unwrap(); // worker panics on this one
        b.write_run(2, &page(2)).unwrap(); // queued behind the panic
        let err = b.drain().expect_err("panic must surface");
        assert!(
            err.to_string().contains("injected backend panic"),
            "unexpected error: {err}"
        );
        // The panicked worker is gone, but teardown must not hang and the
        // backend comes back (page 5 lost, like any crashed write).
        let inner = b.into_inner_lossy();
        assert_eq!(inner.inner.page(1)[0], 1);
        assert_eq!(inner.inner.page(5)[0], 0);
    }

    #[test]
    fn failed_writes_are_retried_by_the_next_drain() {
        use crate::fault::FaultBackend;
        // EIO exactly once at the 1st backend call; the drain that observes
        // it re-queues, and the next drain succeeds.
        let mut faulty = FaultBackend::new(MemBackend::new(PS), 1);
        faulty.set_eio_at(vec![1]);
        let mut b = AsyncBackend::new(faulty, 1, 16);
        b.write_run(0, &page(9)).unwrap();
        b.write_run(1, &page(8)).unwrap();
        let err = b.drain().expect_err("EIO must surface from a drain");
        assert!(err.to_string().contains("EIO"), "unexpected error: {err}");
        b.drain().expect("retry after transient EIO must succeed");
        let mut fb = b.into_inner().unwrap();
        let mut buf = page(0);
        fb.read_run(0, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        fb.read_run(1, &mut buf).unwrap();
        assert_eq!(buf[0], 8);
    }

    #[test]
    fn pool_over_async_backend_equals_pool_over_sync_backend() {
        // Deterministic pseudo-random command stream through two pools —
        // one synchronous, one async — must leave identical backend bytes.
        let mut sync_pool = BufferPool::new(MemBackend::new(PS), 8);
        let mut async_pool = BufferPool::new(AsyncBackend::new(MemBackend::new(PS), 3, 8), 8);
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = x % 64;
            match x % 5 {
                0 => {
                    let a = sync_pool.get(p).unwrap().to_vec();
                    let b = async_pool.get(p).unwrap().to_vec();
                    assert_eq!(a, b, "read divergence at page {p} (step {i})");
                }
                4 if i % 97 == 0 => {
                    sync_pool.flush_all().unwrap();
                    async_pool.flush_all().unwrap();
                }
                _ => {
                    sync_pool.get_mut(p).unwrap()[(x % PS as u64) as usize] = (x % 251) as u8;
                    async_pool.get_mut(p).unwrap()[(x % PS as u64) as usize] = (x % 251) as u8;
                }
            }
        }
        let a = sync_pool.into_backend().unwrap();
        let b = async_pool.into_backend().unwrap().into_inner().unwrap();
        for p in 0..64u64 {
            assert_eq!(a.page(p), b.page(p), "final bytes diverged at page {p}");
        }
    }
}
