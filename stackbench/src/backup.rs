//! `backup`: incremental backup generations of a slowly changing data set.
//!
//! Set-up writes the live data set, a `DATASET_BLOCKS`-block base file,
//! and backs it up once as generation 0. Round `i` makes generation
//! `i + 1`: it rewrites a seeded ~10% of the base in place, as extents of
//! 16 to 48 blocks at seeded positions, one request each, and fsyncs it;
//! writes the new base as one new backup file, in sequential requests of
//! seeded size (64 to 192 KiB) with one fsync; restores generation `i` with
//! sequential reads of seeded size; and deletes the generation that falls
//! out of the `RETAIN`-generation window. Identical blocks of different
//! files converge to identical ciphertext, so the backend stores roughly
//! one base plus the rewritten extents the live generations still hold.

use crate::gen::{self, Rng};
use crate::meter::{Class, Meter};
use crate::workload::*;
use lamassu_cache::CacheConfig;
use lamassu_core::{FileSystem, LamassuFs, OpenFlags};
use lamassu_format::Geometry;
use std::collections::{HashSet, VecDeque};
use std::io::IoSlice;

const BLOCK: usize = 4096;
/// Blocks in one backup image (16 MiB).
pub const DATASET_BLOCKS: usize = 4096;
/// Sequential request sizes, in blocks: uniform in `[16, 48]` (64 to 192
/// KiB).
pub const REQUEST_BLOCKS: (u64, u64) = (16, 48);
/// In-place rewrites of the base: extents of `REQUEST_BLOCKS` blocks
/// separated by gaps uniform in `[0, 2 * MEAN_GAP]`, so that ~10% of the
/// base changes per generation.
pub const MEAN_GAP: u64 = 288;
/// Generations kept live.
pub const RETAIN: usize = 4;
/// Write-back cache capacity in blocks (2 MiB, 1/8 of one image).
pub const CACHE_BLOCKS: usize = 512;

pub struct Backup {
    seed: u64,
    /// Current version of every block: the generation that last rewrote it.
    versions: Vec<u32>,
    /// Live generations, oldest first, with the block versions they hold.
    live: VecDeque<(u64, Vec<u32>)>,
    buf: Vec<u8>,
    want: Vec<u8>,
}

const BASE: &str = "/data/base.img";

fn path(generation: u64) -> String {
    format!("/backup/gen-{generation:06}.img")
}

impl Backup {
    pub fn new(seed: u64) -> Self {
        Backup {
            seed,
            versions: vec![0; DATASET_BLOCKS],
            live: VecDeque::new(),
            buf: vec![0; REQUEST_BLOCKS.1 as usize * BLOCK],
            want: vec![0; REQUEST_BLOCKS.1 as usize * BLOCK],
        }
    }

    /// Splits the image into sequential requests of seeded size:
    /// `(first block, blocks)` pairs.
    fn requests(seed: u64, generation: u64, stream: u64) -> Vec<(usize, usize)> {
        let mut rng = Rng::new(gen::key(seed, TAG_BACKUP_SIZES, generation, stream));
        let mut out = Vec::new();
        let mut first = 0;
        while first < DATASET_BLOCKS {
            let (lo, hi) = REQUEST_BLOCKS;
            let n = ((lo + rng.below(hi - lo + 1)) as usize).min(DATASET_BLOCKS - first);
            out.push((first, n));
            first += n;
        }
        out
    }

    /// Generates blocks `[first, first + out.len() / BLOCK)` of an image
    /// whose blocks have the given versions.
    fn image(seed: u64, versions: &[u32], first: usize, out: &mut [u8]) {
        for (k, b) in out.chunks_exact_mut(BLOCK).enumerate() {
            let j = first + k;
            gen::fill(
                b,
                gen::key(seed, TAG_BACKUP_BLOCK, j as u64, versions[j] as u64),
            );
        }
    }
}

impl Workload for Backup {
    fn cache_config(&self) -> CacheConfig {
        CacheConfig::write_back(CACHE_BLOCKS)
    }

    fn epoch_rounds(&self) -> u64 {
        9
    }

    fn setup(&mut self, fs: &LamassuFs) -> Result<(), String> {
        let mut image = vec![0u8; DATASET_BLOCKS * BLOCK];
        Self::image(self.seed, &self.versions, 0, &mut image);
        write_file(fs, BASE, &image)?;
        write_file(fs, &path(0), &image)?;
        self.live.push_back((0, self.versions.clone()));
        Ok(())
    }

    fn round(&mut self, r: u64, ctx: &Ctx, m: &mut Meter) {
        let fs = &ctx.tiers.fs;
        let generation = r + 1;

        // Change the data set: rewrite seeded extents of the base in place.
        let mut rng = Rng::new(gen::key(self.seed, TAG_BACKUP_REWRITE, generation, 0));
        if let Ok(fd) = m.call(Class::Other, || fs.open(BASE, OpenFlags::default())) {
            let mut first = rng.below(2 * MEAN_GAP + 1) as usize;
            while first < DATASET_BLOCKS {
                let (lo, hi) = REQUEST_BLOCKS;
                let n = ((lo + rng.below(hi - lo + 1)) as usize).min(DATASET_BLOCKS - first);
                self.versions[first..first + n].fill(generation as u32);
                let buf = &mut self.buf[..n * BLOCK];
                Self::image(self.seed, &self.versions, first, buf);
                m.begin_write();
                let off = (first * BLOCK) as u64;
                let buf = &*buf;
                match m.call(Class::Write, || {
                    fs.write_vectored(fd, off, &[IoSlice::new(buf)])
                }) {
                    Ok(_) => m.end_write(buf.len() as u64),
                    Err(_) => m.abandon_write(),
                }
                first += n + rng.below(2 * MEAN_GAP + 1) as usize;
            }
            let _ = m.call(Class::WriteTail, || fs.fsync(fd));
            let _ = m.call(Class::Other, || fs.close(fd));
        }

        // Back up: the new base as a new file, sequentially, then one fsync.
        let p = path(generation);
        if let Ok(fd) = m.call(Class::Other, || fs.create(&p)) {
            for (first, n) in Self::requests(self.seed, generation, 0) {
                let buf = &mut self.buf[..n * BLOCK];
                Self::image(self.seed, &self.versions, first, buf);
                m.begin_write();
                let off = (first * BLOCK) as u64;
                let buf = &*buf;
                match m.call(Class::Write, || {
                    fs.write_vectored(fd, off, &[IoSlice::new(buf)])
                }) {
                    Ok(_) => m.end_write(buf.len() as u64),
                    Err(_) => m.abandon_write(),
                }
            }
            let _ = m.call(Class::WriteTail, || fs.fsync(fd));
            let _ = m.call(Class::Other, || fs.close(fd));
        }
        self.live.push_back((generation, self.versions.clone()));

        // Restore the previous generation and compare every byte.
        let (prev, versions) = self.live[self.live.len() - 2].clone();
        let p = path(prev);
        if let Ok(fd) = m.call(Class::Other, || fs.open(&p, OpenFlags::default())) {
            for (first, n) in Self::requests(self.seed, generation, 1) {
                let len = n * BLOCK;
                let off = (first * BLOCK) as u64;
                let buf = &mut self.buf[..len];
                if let Ok(got) = m.call(Class::Read(len as u64), || fs.read_into(fd, off, buf)) {
                    Self::image(self.seed, &versions, first, &mut self.want[..len]);
                    if got != len || self.buf[..len] != self.want[..len] {
                        m.wrong_bytes();
                    }
                }
            }
            let _ = m.call(Class::Other, || fs.close(fd));
        }

        if self.live.len() > RETAIN {
            let (old, _) = self.live.pop_front().expect("non-empty");
            let p = path(old);
            let _ = m.call(Class::Other, || fs.remove(&p));
        }
    }

    fn live_bytes(&self) -> u64 {
        ((self.live.len() + 1) * DATASET_BLOCKS * BLOCK) as u64
    }

    /// Convergence: the backend must hold at least every distinct plaintext
    /// block once, and at most that plus each file's metadata blocks.
    fn check_footprint(&self, unique_blocks: u64) -> Result<(), String> {
        let mut distinct: HashSet<(u32, u32)> = HashSet::new();
        let files = self.live.iter().map(|(_, v)| v).chain([&self.versions]);
        for versions in files {
            for (j, &v) in versions.iter().enumerate() {
                distinct.insert((j as u32, v));
            }
        }
        let g = Geometry::default();
        let meta_per_file = g.metadata_blocks_for_data_blocks(DATASET_BLOCKS as u64);
        let lo = distinct.len() as u64;
        let hi = lo + meta_per_file * (self.live.len() as u64 + 1);
        if unique_blocks < lo || unique_blocks > hi {
            return Err(format!(
                "backup footprint {unique_blocks} blocks outside the convergence bounds [{lo}, {hi}]"
            ));
        }
        Ok(())
    }

    fn verify_all(&self, fs: &LamassuFs) -> Result<(), String> {
        let len = (DATASET_BLOCKS * BLOCK) as u64;
        verify_file(fs, BASE, len, |off, out| {
            Self::image(self.seed, &self.versions, off as usize / BLOCK, out)
        })?;
        for (generation, versions) in &self.live {
            verify_file(fs, &path(*generation), len, |off, out| {
                Self::image(self.seed, versions, off as usize / BLOCK, out)
            })?;
        }
        Ok(())
    }
}
