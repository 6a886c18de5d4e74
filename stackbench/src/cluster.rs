//! `cluster`: ranged reads and overwrites on a replicated, faulty cluster.
//!
//! Set-up writes `FILES` files of seeded size (`FILE_BYTES` on average)
//! through the
//! write-through cache, the resilience tier and the router (4 members,
//! R = 2, 1 MiB units). After set-up every member refuses a seeded ~1% of
//! read operations. Each round runs exactly `READS` 128 KiB reads and
//! `WRITES` 128 KiB overwrites with fsync, in a seeded order, then one
//! stale-replica probe. An in-memory shadow of every file checks each read.
//!
//! The seeded faults are armed around reads only. A seeded write fault
//! degrades the write on one replica; when that replica is the chain
//! primary, a later read of the unit returns its stale bytes (the router
//! fault below), and whether that happens depends on the seed — which
//! would make the failed-op count move with the seed.
//!
//! The probe drives that router fault on purpose, with inputs that do not
//! depend on the seed: it writes a probe file, makes the chain primary of
//! its first unit miss exactly one data write (its second write, after the
//! phase-1 metadata write of the commit), and reads the file back. The
//! router still serves the read from that primary although it is a
//! `Resync` suspect for the object, so the read fails. The probe file is
//! then removed, so every round starts from the same state.

use crate::gen::{self, Rng};
use crate::meter::{Class, Meter};
use crate::workload::*;
use lamassu_cache::CacheConfig;
use lamassu_core::{Fd, FileSystem, FsError, LamassuFs, OpenFlags};

/// Files in the working set.
pub const FILES: usize = 8;
/// Bytes per file: seeded in `FILE_BYTES ± FILE_SPREAD`, in whole blocks
/// (the set is about 32 MiB).
pub const FILE_BYTES: usize = 4 * 1024 * 1024;
pub const FILE_SPREAD: usize = 64 * 1024;
/// Read and overwrite size (128 KiB).
pub const IO: usize = 128 * 1024;
pub const READS: usize = 40;
pub const WRITES: usize = 10;
/// Seeded transient fault rate of each member's reads.
pub const FAULT_RATE: f64 = 0.01;
/// Write-through cache capacity in blocks (1 MiB).
pub const CACHE_BLOCKS: usize = 256;
const PROBE: &str = "/probe/stale-replica";

pub struct Cluster {
    seed: u64,
    sizes: Vec<usize>,
    shadow: Vec<Vec<u8>>,
    fds: Vec<Fd>,
    buf: Vec<u8>,
    probe: [Vec<u8>; 2],
}

fn path(i: usize) -> String {
    format!("/vol/file-{i}.dat")
}

impl Cluster {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(gen::key(seed, TAG_SIZES, 0, 0));
        let spread = (2 * FILE_SPREAD / 4096) as u64 + 1;
        let sizes = (0..FILES)
            .map(|_| FILE_BYTES - FILE_SPREAD + rng.below(spread) as usize * 4096)
            .collect();
        let mut probe = [vec![0u8; IO], vec![0u8; IO]];
        // Seed-independent probe contents.
        gen::fill(&mut probe[0], 0x5eed_0001);
        gen::fill(&mut probe[1], 0x5eed_0002);
        Cluster {
            seed,
            sizes,
            shadow: Vec::new(),
            fds: Vec::new(),
            buf: vec![0; IO],
            probe,
        }
    }

    fn fault_seed(&self) -> u64 {
        gen::key(self.seed, TAG_FAULTS, 0, 0)
    }

    /// The stale-replica probe (see the module docs).
    fn probe(&mut self, ctx: &Ctx, m: &mut Meter) {
        let fs = &ctx.tiers.fs;
        let router = ctx.tiers.router.as_ref().expect("cluster stack");
        let Ok(fd) = m.call(Class::Other, || fs.create(PROBE)) else {
            return;
        };
        let chain = router.replica_ids(PROBE, 0);
        let primary = chain[0] as usize;
        for (i, data) in self.probe.iter().enumerate() {
            if i == 1 {
                // The primary accepts the commit's phase-1 metadata write,
                // then misses the data write and is back for phase 3.
                let f = &ctx.backends.faulty[primary];
                f.crash_after_writes(1);
                f.heal_after_refusals(0);
            }
            m.begin_write();
            let ok = m.call(Class::Write, || fs.write(fd, 0, data)).is_ok()
                && m.call(Class::Write, || fs.fsync(fd)).is_ok();
            if ok {
                m.end_write(IO as u64);
            } else {
                m.abandon_write();
            }
        }
        // Whatever happened, nothing stays armed for the seeded ops.
        ctx.backends.faulty[primary].disarm();
        let buf = &mut self.buf;
        match m.call(Class::Read(IO as u64), || fs.read_into(fd, 0, buf)) {
            Ok(n) => {
                if n != IO || self.buf != self.probe[1] {
                    m.wrong_bytes();
                    m.expected_failure();
                }
            }
            Err(FsError::IntegrityViolation { .. }) => m.expected_failure(),
            Err(_) => {}
        }
        let _ = m.call(Class::Other, || fs.close(fd));
        let _ = m.call(Class::Other, || fs.remove(PROBE));
    }
}

impl Workload for Cluster {
    fn cache_config(&self) -> CacheConfig {
        CacheConfig::write_through(CACHE_BLOCKS)
    }

    fn cluster(&self) -> bool {
        true
    }

    fn epoch_rounds(&self) -> u64 {
        168
    }

    fn setup(&mut self, fs: &LamassuFs) -> Result<(), String> {
        for i in 0..FILES {
            let mut data = vec![0u8; self.sizes[i]];
            for (b, block) in data.chunks_exact_mut(4096).enumerate() {
                gen::fill(
                    block,
                    gen::key(self.seed, TAG_CLUSTER_FILE, i as u64, b as u64),
                );
            }
            write_file(fs, &path(i), &data)?;
            self.shadow.push(data);
            self.fds.push(
                fs.open(&path(i), OpenFlags::default())
                    .map_err(|e| format!("open {}: {e}", path(i)))?,
            );
        }
        Ok(())
    }

    fn arm(&mut self, ctx: &Ctx) {
        ctx.backends.set_fault_rate(self.fault_seed(), FAULT_RATE);
    }

    fn round(&mut self, r: u64, ctx: &Ctx, m: &mut Meter) {
        let fs = &ctx.tiers.fs;
        let mut rng = Rng::new(gen::key(self.seed, TAG_CLUSTER_ROUND, r, 0));
        let mut ops: Vec<bool> = (0..READS + WRITES).map(|i| i < WRITES).collect();
        rng.shuffle(&mut ops);
        for (i, is_write) in ops.into_iter().enumerate() {
            let f = rng.below(FILES as u64) as usize;
            let slots = ((self.sizes[f] - IO) / 4096 + 1) as u64;
            let off = rng.below(slots) as usize * 4096;
            let fd = self.fds[f];
            if is_write {
                gen::fill(
                    &mut self.buf,
                    gen::key(self.seed, TAG_CLUSTER_WRITE, r, i as u64),
                );
                ctx.backends.set_fault_rate(self.fault_seed(), 0.0);
                m.begin_write();
                let buf = &self.buf;
                let ok = m
                    .call(Class::Write, || fs.write(fd, off as u64, buf))
                    .is_ok()
                    && m.call(Class::Write, || fs.fsync(fd)).is_ok();
                if ok {
                    m.end_write(IO as u64);
                    self.shadow[f][off..off + IO].copy_from_slice(&self.buf);
                } else {
                    m.abandon_write();
                }
                ctx.backends.set_fault_rate(self.fault_seed(), FAULT_RATE);
            } else {
                let buf = &mut self.buf;
                if let Ok(n) = m.call(Class::Read(IO as u64), || fs.read_into(fd, off as u64, buf))
                {
                    if n != IO || self.buf[..] != self.shadow[f][off..off + IO] {
                        m.wrong_bytes();
                    }
                }
            }
        }
        ctx.backends.set_fault_rate(self.fault_seed(), 0.0);
        self.probe(ctx, m);
        ctx.backends.set_fault_rate(self.fault_seed(), FAULT_RATE);
    }

    fn live_bytes(&self) -> u64 {
        self.sizes.iter().sum::<usize>() as u64
    }

    fn before_restart(&self, ctx: &Ctx) -> String {
        ctx.backends.set_fault_rate(self.fault_seed(), 0.0);
        let router = ctx.tiers.router.as_ref().expect("cluster stack");
        let report = router.scrub();
        format!(
            "scrub: {} objects, {} units, {} mismatches, {} repaired",
            report.objects, report.units, report.mismatches, report.repaired
        )
    }

    fn close_all(&mut self, fs: &LamassuFs) {
        for fd in self.fds.drain(..) {
            let _ = fs.close(fd);
        }
    }

    fn verify_all(&self, fs: &LamassuFs) -> Result<(), String> {
        for (i, data) in self.shadow.iter().enumerate() {
            verify_file(fs, &path(i), data.len() as u64, |off, out| {
                out.copy_from_slice(&data[off as usize..off as usize + out.len()])
            })?;
        }
        Ok(())
    }
}
