//! Pass-through `ObjectStore` wrappers that record every call crossing a
//! tier boundary.
//!
//! A [`Traced`] store forwards each trait method to the store it wraps
//! and, while tracing is armed, appends one [`Rec`] per call to a
//! preallocated buffer: the boundary it sits on, the client op that caused
//! the call, wall start and end, and the change of the wrapped store's
//! modelled `io_time()`. The accounting queries (`io_time`,
//! `io_counters`, `reset_io_accounting`) are forwarded without a record:
//! they are how the records are taken, not traffic.

use lamassu_storage::{Completion, IoCounters, ObjectStore, Result, SubmitQueue, SubmitTicket};
use std::io::{IoSlice, IoSliceMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Id of the client op in progress (0 outside measured ops).
pub static CURRENT_OP: AtomicU32 = AtomicU32::new(0);
/// Records are only taken while armed (the measured phase of a traced run).
pub static ARMED: AtomicBool = AtomicBool::new(false);

/// What a recorded call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// read_into / read_at / read_into_vectored / submit_read_vectored.
    Read,
    /// write_at / write_at_vectored / submit_write_vectored.
    Write,
    /// create / len / truncate / remove / rename / flush (retried by the
    /// resilience tier).
    Meta,
    /// exists / list (never retried).
    Query,
    /// poll_completions / wait_completions.
    Wait,
    /// sleep_virtual.
    Sleep,
    /// A client call into `FileSystem` (boundary 0, recorded by the driver).
    Client,
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub t0: u64,
    pub t1: u64,
    pub modelled: u64,
    pub op: u32,
    pub boundary: u8,
    /// Cluster member index on the storage boundary, 0 elsewhere.
    pub member: u8,
    pub kind: Kind,
    /// The call returned an error (for `Wait`: a drained completion did).
    pub err: bool,
}

/// The shared record buffer of one traced pass.
pub struct Tracer {
    base: Instant,
    recs: Mutex<Vec<Rec>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Tracer {
            base: Instant::now(),
            recs: Mutex::new(Vec::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn push(&self, rec: Rec) {
        let mut recs = self.recs.lock().expect("a recording thread panicked");
        if recs.len() < recs.capacity() {
            recs.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn take(&self) -> Vec<Rec> {
        std::mem::take(&mut *self.recs.lock().expect("a recording thread panicked"))
    }
}

/// A recording pass-through wrapper on one tier boundary.
pub struct Traced<S: ObjectStore + ?Sized> {
    inner: Arc<S>,
    boundary: u8,
    member: u8,
    tracer: Arc<Tracer>,
}

impl<S: ObjectStore + ?Sized> Traced<S> {
    pub fn new(inner: Arc<S>, boundary: u8, member: u8, tracer: Arc<Tracer>) -> Self {
        Traced {
            inner,
            boundary,
            member,
            tracer,
        }
    }

    fn begin(&self) -> Option<(u64, Duration)> {
        ARMED
            .load(Ordering::Relaxed)
            .then(|| (self.tracer.now(), self.inner.io_time()))
    }

    fn end(&self, start: Option<(u64, Duration)>, kind: Kind, err: bool) {
        if let Some((t0, io0)) = start {
            let t1 = self.tracer.now();
            let modelled = self.inner.io_time().saturating_sub(io0).as_nanos() as u64;
            self.tracer.push(Rec {
                t0,
                t1,
                modelled,
                op: CURRENT_OP.load(Ordering::Relaxed),
                boundary: self.boundary,
                member: self.member,
                kind,
                err,
            });
        }
    }

    fn call<T>(&self, kind: Kind, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let g = self.begin();
        let r = f();
        self.end(g, kind, r.is_err());
        r
    }
}

impl<S: ObjectStore + ?Sized> ObjectStore for Traced<S> {
    fn create(&self, name: &str) -> Result<()> {
        self.call(Kind::Meta, || self.inner.create(name))
    }

    fn exists(&self, name: &str) -> bool {
        let g = self.begin();
        let r = self.inner.exists(name);
        self.end(g, Kind::Query, false);
        r
    }

    fn read_into(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.call(Kind::Read, || self.inner.read_into(name, offset, buf))
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.call(Kind::Read, || self.inner.read_at(name, offset, len))
    }

    fn read_into_vectored(
        &self,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> Result<usize> {
        self.call(Kind::Read, || {
            self.inner.read_into_vectored(name, offset, bufs)
        })
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.call(Kind::Write, || self.inner.write_at(name, offset, data))
    }

    fn write_at_vectored(&self, name: &str, offset: u64, bufs: &[IoSlice<'_>]) -> Result<()> {
        self.call(Kind::Write, || {
            self.inner.write_at_vectored(name, offset, bufs)
        })
    }

    fn submit_read_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &mut [IoSliceMut<'_>],
    ) -> SubmitTicket {
        let g = self.begin();
        let t = self.inner.submit_read_vectored(q, name, offset, bufs);
        self.end(g, Kind::Read, false);
        t
    }

    fn submit_write_vectored(
        &self,
        q: &mut SubmitQueue,
        name: &str,
        offset: u64,
        bufs: &[IoSlice<'_>],
    ) -> SubmitTicket {
        let g = self.begin();
        let t = self.inner.submit_write_vectored(q, name, offset, bufs);
        self.end(g, Kind::Write, false);
        t
    }

    fn poll_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        let g = self.begin();
        let n0 = out.len();
        self.inner.poll_completions(q, out);
        let err = out[n0..].iter().any(|c| c.result.is_err());
        self.end(g, Kind::Wait, err);
    }

    fn wait_completions(&self, q: &mut SubmitQueue, out: &mut Vec<Completion>) {
        let g = self.begin();
        let n0 = out.len();
        self.inner.wait_completions(q, out);
        let err = out[n0..].iter().any(|c| c.result.is_err());
        self.end(g, Kind::Wait, err);
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.call(Kind::Meta, || self.inner.len(name))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.call(Kind::Meta, || self.inner.truncate(name, len))
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.call(Kind::Meta, || self.inner.remove(name))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.call(Kind::Meta, || self.inner.rename(from, to))
    }

    fn list(&self) -> Vec<String> {
        let g = self.begin();
        let r = self.inner.list();
        self.end(g, Kind::Query, false);
        r
    }

    fn flush(&self, name: &str) -> Result<()> {
        self.call(Kind::Meta, || self.inner.flush(name))
    }

    fn sleep_virtual(&self, d: Duration) {
        let g = self.begin();
        self.inner.sleep_virtual(d);
        self.end(g, Kind::Sleep, false);
    }

    fn io_time(&self) -> Duration {
        self.inner.io_time()
    }

    fn io_counters(&self) -> IoCounters {
        self.inner.io_counters()
    }

    fn reset_io_accounting(&self) {
        self.inner.reset_io_accounting();
    }
}
