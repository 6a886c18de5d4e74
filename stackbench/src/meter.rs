//! Timing client calls: wall time around each `FileSystem` call and, kept
//! apart, the modelled transport time charged during it (the change of
//! the top store's `io_time()`).

use crate::trace::{Kind, Rec, Tracer, CURRENT_OP};
use lamassu_core::FsError;
use lamassu_storage::ObjectStore;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a call counts towards the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A read: one sample, its bytes count as read.
    Read(u64),
    /// Part of the open write group (see [`Meter::begin_write`]).
    Write,
    /// Write-phase time that is not a sample of its own: the per-file
    /// fsync of `backup` and cache flushes.
    WriteTail,
    /// Namespace calls (create, open, close, remove): attempted, not timed.
    Other,
}

/// Per-op samples plus totals of one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub read_wall: Vec<u64>,
    pub read_modelled: Vec<u64>,
    pub write_wall: Vec<u64>,
    pub write_modelled: Vec<u64>,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub read_wall_total: u64,
    pub read_modelled_total: u64,
    pub write_wall_total: u64,
    pub write_modelled_total: u64,
    /// Wall time of every client call, whatever its class.
    pub client_wall_total: u64,
    pub attempted: u64,
    pub failed_error: u64,
    pub failed_wrong: u64,
    /// Failures the workload expects (the named stale-replica reads).
    pub failed_expected: u64,
    /// `(write bytes, write wall, read bytes, read wall)` totals at the end
    /// of each round.
    pub round_marks: Vec<(u64, u64, u64, u64)>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.failed_error + self.failed_wrong
    }

    /// Median over rounds of each round's (write, read) wall throughput in
    /// bytes per wall nanosecond. A median over rounds keeps a stall that
    /// hits a few rounds (a descheduled vCPU, a page-fault burst) out of
    /// the figure.
    pub fn round_rates(&self) -> (f64, f64) {
        let mut prev = (0, 0, 0, 0);
        let (mut w, mut r) = (Vec::new(), Vec::new());
        for &m in &self.round_marks {
            if m.1 > prev.1 {
                w.push((m.0 - prev.0) as f64 / (m.1 - prev.1) as f64);
            }
            if m.3 > prev.3 {
                r.push((m.2 - prev.2) as f64 / (m.3 - prev.3) as f64);
            }
            prev = m;
        }
        (median(w), median(r))
    }

    fn mark(&self) -> (u64, u64, u64, u64) {
        (
            self.write_bytes,
            self.write_wall_total,
            self.read_bytes,
            self.read_wall_total,
        )
    }

    /// Closes a round.
    pub fn end_round(&mut self) {
        let m = self.mark();
        self.round_marks.push(m);
    }

    /// Folds what happened since the last round closed (the final cache
    /// flush) into that round.
    pub fn extend_last_round(&mut self) {
        let m = self.mark();
        if let Some(last) = self.round_marks.last_mut() {
            *last = m;
        }
    }
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub struct Meter {
    top: Arc<dyn ObjectStore>,
    tracer: Option<Arc<Tracer>>,
    next_op: u32,
    group: Option<(u64, u64)>,
    last_read_bytes: u64,
    pub tally: Tally,
}

impl Meter {
    pub fn new(top: Arc<dyn ObjectStore>, tracer: Option<Arc<Tracer>>) -> Self {
        Meter {
            top,
            tracer,
            next_op: 0,
            group: None,
            last_read_bytes: 0,
            tally: Tally::default(),
        }
    }

    /// Runs one client call, timing it and counting it as attempted.
    pub fn call<T>(
        &mut self,
        class: Class,
        f: impl FnOnce() -> Result<T, FsError>,
    ) -> Result<T, FsError> {
        self.tally.attempted += 1;
        let r = self.timed(class, f);
        if r.is_err() {
            self.tally.failed_error += 1;
        }
        r
    }

    /// Runs a call into the stack that is not a client op (a cache flush):
    /// timed like one, but not counted as attempted.
    pub fn untallied<T, E>(
        &mut self,
        class: Class,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.timed(class, f)
    }

    fn timed<T, E>(&mut self, class: Class, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.next_op += 1;
        CURRENT_OP.store(self.next_op, Ordering::Relaxed);
        let m0 = self.top.io_time();
        let trace_t0 = self.tracer.as_ref().map(|t| t.now());
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed().as_nanos() as u64;
        let trace_t1 = self.tracer.as_ref().map(|t| t.now());
        let modelled = nanos(self.top.io_time().saturating_sub(m0));
        CURRENT_OP.store(0, Ordering::Relaxed);
        if let (Some(t), Some(a), Some(b)) = (&self.tracer, trace_t0, trace_t1) {
            t.push(Rec {
                t0: a,
                t1: b,
                modelled,
                op: self.next_op,
                boundary: 0,
                member: 0,
                kind: Kind::Client,
                err: r.is_err(),
            });
        }
        self.tally.client_wall_total += wall;
        if r.is_ok() {
            match class {
                Class::Read(bytes) => {
                    self.tally.read_wall.push(wall);
                    self.tally.read_modelled.push(modelled);
                    self.tally.read_bytes += bytes;
                    self.last_read_bytes = bytes;
                    self.tally.read_wall_total += wall;
                    self.tally.read_modelled_total += modelled;
                }
                Class::Write => {
                    let g = self.group.as_mut().expect("write outside a write group");
                    g.0 += wall;
                    g.1 += modelled;
                }
                Class::WriteTail => {
                    self.tally.write_wall_total += wall;
                    self.tally.write_modelled_total += modelled;
                }
                Class::Other => {}
            }
        }
        r
    }

    /// Opens a write group: every `Class::Write` call until
    /// [`Meter::end_write`] is one write sample.
    pub fn begin_write(&mut self) {
        assert!(self.group.is_none(), "nested write group");
        self.group = Some((0, 0));
    }

    /// Closes the write group; `bytes` user bytes were written in it.
    pub fn end_write(&mut self, bytes: u64) {
        let (wall, modelled) = self.group.take().expect("no open write group");
        self.tally.write_wall.push(wall);
        self.tally.write_modelled.push(modelled);
        self.tally.write_bytes += bytes;
        self.tally.write_wall_total += wall;
        self.tally.write_modelled_total += modelled;
    }

    /// Drops an open write group whose op failed (its time is not a sample).
    pub fn abandon_write(&mut self) {
        self.group = None;
    }

    /// Marks the last read, which returned, as failed: its bytes differ
    /// from the reference. Its sample leaves the metrics.
    pub fn wrong_bytes(&mut self) {
        self.tally.failed_wrong += 1;
        if let (Some(w), Some(m)) = (self.tally.read_wall.pop(), self.tally.read_modelled.pop()) {
            self.tally.read_wall_total -= w;
            self.tally.read_modelled_total -= m;
            self.tally.read_bytes -= self.last_read_bytes;
        }
    }

    /// Marks the last failure as one of the expected kind.
    pub fn expected_failure(&mut self) {
        self.tally.failed_expected += 1;
    }
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The `q`-quantile of `v` (nearest rank), in the unit of `v`.
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Mean of the slowest 1% of `v`, and never fewer than the 10 slowest: the
/// tail beyond p99. The modelled cost model is discrete, so a nearest-rank
/// p99 sits on a plateau of identical ops and does not move when the tail
/// does; the mean of the tail does.
pub fn tail_mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(|a, b| b.cmp(a));
    let k = v.len().div_ceil(100).max(10).min(v.len());
    s[..k].iter().sum::<u64>() as f64 / k as f64
}
