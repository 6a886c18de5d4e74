//! The three workloads and what they share.

use crate::meter::Meter;
use crate::stack::{Backends, Tiers};
use lamassu_cache::CacheConfig;
use lamassu_core::{FileSystem, LamassuFs, OpenFlags};
use std::io::IoSlice;

/// Tags that keep the generated streams of different purposes apart.
pub const TAG_BACKUP_BLOCK: u64 = 1;
pub const TAG_BACKUP_REWRITE: u64 = 2;
pub const TAG_OLTP_PAGE: u64 = 3;
pub const TAG_OLTP_ROUND: u64 = 4;
pub const TAG_OLTP_ZIPF: u64 = 5;
pub const TAG_CLUSTER_FILE: u64 = 6;
pub const TAG_CLUSTER_ROUND: u64 = 7;
pub const TAG_CLUSTER_WRITE: u64 = 8;
pub const TAG_FAULTS: u64 = 9;
pub const TAG_BACKUP_SIZES: u64 = 10;
pub const TAG_SIZES: u64 = 11;

/// Set-up and sequential I/O request size.
pub const CHUNK: usize = 1024 * 1024;

pub struct Ctx<'a> {
    pub tiers: &'a Tiers,
    pub backends: &'a Backends,
}

pub trait Workload {
    /// Cache geometry and mode of this workload's stack.
    fn cache_config(&self) -> CacheConfig;
    /// Whether the stack is the replicated cluster.
    fn cluster(&self) -> bool {
        false
    }
    /// Rounds every run completes, however slow the host; the modelled
    /// figures and the footprint are taken after exactly this many.
    fn epoch_rounds(&self) -> u64;
    /// Writes the initial data set (not measured as ops).
    fn setup(&mut self, fs: &LamassuFs) -> Result<(), String>;
    /// Called once between set-up and the first measured op.
    fn arm(&mut self, _ctx: &Ctx) {}
    /// One round of ops. In `oltp` and `cluster` every round issues the
    /// same number and kinds of ops whatever the seed.
    fn round(&mut self, r: u64, ctx: &Ctx, m: &mut Meter);
    /// User bytes the live files hold.
    fn live_bytes(&self) -> u64;
    /// Checks the post-dedup footprint (in blocks) against the reference.
    fn check_footprint(&self, _unique_blocks: u64) -> Result<(), String> {
        Ok(())
    }
    /// Maintenance before a restart (the cluster's scrub); returns a note.
    fn before_restart(&self, _ctx: &Ctx) -> String {
        String::new()
    }
    /// Releases the descriptors held on the mount that is about to go away.
    fn close_all(&mut self, _fs: &LamassuFs) {}
    /// Reads every live file on a fresh mount and compares it with the
    /// reference.
    fn verify_all(&self, fs: &LamassuFs) -> Result<(), String>;
}

/// Writes `data` to a new file in `CHUNK` requests and fsyncs it.
pub fn write_file(fs: &LamassuFs, path: &str, data: &[u8]) -> Result<(), String> {
    let fd = fs.create(path).map_err(|e| format!("create {path}: {e}"))?;
    for (i, c) in data.chunks(CHUNK).enumerate() {
        fs.write_vectored(fd, (i * CHUNK) as u64, &[IoSlice::new(c)])
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    fs.fsync(fd).map_err(|e| format!("fsync {path}: {e}"))?;
    fs.close(fd).map_err(|e| format!("close {path}: {e}"))
}

/// Reads `path` whole on `fs` and compares it, chunk by chunk, with what
/// `expect` generates for each offset.
pub fn verify_file(
    fs: &LamassuFs,
    path: &str,
    len: u64,
    mut expect: impl FnMut(u64, &mut [u8]),
) -> Result<(), String> {
    let fd = fs
        .open(path, OpenFlags::default())
        .map_err(|e| format!("restart: open {path}: {e}"))?;
    let size = fs
        .len(fd)
        .map_err(|e| format!("restart: len {path}: {e}"))?;
    if size != len {
        return Err(format!("restart: {path} is {size} bytes, expected {len}"));
    }
    let mut got = vec![0u8; CHUNK];
    let mut want = vec![0u8; CHUNK];
    let mut off = 0;
    while off < len {
        let n = CHUNK.min((len - off) as usize);
        let r = fs
            .read_into(fd, off, &mut got[..n])
            .map_err(|e| format!("restart: read {path}@{off}: {e}"))?;
        expect(off, &mut want[..n]);
        if r != n || got[..n] != want[..n] {
            return Err(format!(
                "restart: {path}@{off}: bytes differ from the reference"
            ));
        }
        off += n as u64;
    }
    fs.close(fd)
        .map_err(|e| format!("restart: close {path}: {e}"))
}
