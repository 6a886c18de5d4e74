//! `oltp`: a database file under a zipf-skewed mix of page reads and
//! small transactions.
//!
//! Set-up populates one database file of a seeded size (`PAGES` pages on
//! average). Each round runs exactly
//! `READS` single-page reads and `TXNS` transactions in a seeded order; a
//! transaction writes `TXN_PAGES` pages and fsyncs. Pages are drawn from a
//! zipf distribution whose hot set mostly fits the write-back cache. An
//! in-memory shadow of the file checks every read.

use crate::gen::{self, Rng, Zipf};
use crate::meter::{Class, Meter};
use crate::workload::*;
use lamassu_cache::CacheConfig;
use lamassu_core::{Fd, FileSystem, LamassuFs, OpenFlags};

const PAGE: usize = 4096;
/// Pages in the database file: seeded in `[PAGES - PAGES_SPREAD, PAGES +
/// PAGES_SPREAD]` (about 32 MiB).
pub const PAGES: u64 = 8192;
pub const PAGES_SPREAD: u64 = 64;
/// Zipf exponent of the page popularity.
pub const ZIPF_EXPONENT: f64 = 0.99;
pub const READS: usize = 70;
pub const TXNS: usize = 30;
pub const TXN_PAGES: usize = 4;
/// Write-back cache capacity in blocks (8 MiB, about a quarter of the file).
pub const CACHE_BLOCKS: usize = 2048;
const PATH: &str = "/db/main.db";

pub struct Oltp {
    seed: u64,
    pages: u64,
    shadow: Vec<u8>,
    zipf: Zipf,
    fd: Option<Fd>,
    page: Vec<u8>,
}

impl Oltp {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(gen::key(seed, TAG_OLTP_ZIPF, 0, 0));
        let pages = PAGES - PAGES_SPREAD + rng.below(2 * PAGES_SPREAD + 1);
        Oltp {
            seed,
            pages,
            shadow: Vec::new(),
            zipf: Zipf::new(pages, ZIPF_EXPONENT, &mut rng),
            fd: None,
            page: vec![0; PAGE],
        }
    }
}

impl Workload for Oltp {
    fn cache_config(&self) -> CacheConfig {
        CacheConfig::write_back(CACHE_BLOCKS)
    }

    fn epoch_rounds(&self) -> u64 {
        200
    }

    fn setup(&mut self, fs: &LamassuFs) -> Result<(), String> {
        let mut data = vec![0u8; self.pages as usize * PAGE];
        for (p, b) in data.chunks_exact_mut(PAGE).enumerate() {
            gen::fill(b, gen::key(self.seed, TAG_OLTP_PAGE, p as u64, 0));
        }
        write_file(fs, PATH, &data)?;
        self.shadow = data;
        self.fd = Some(
            fs.open(PATH, OpenFlags::default())
                .map_err(|e| format!("open {PATH}: {e}"))?,
        );
        Ok(())
    }

    fn round(&mut self, r: u64, ctx: &Ctx, m: &mut Meter) {
        let fs = &ctx.tiers.fs;
        let fd = self.fd.expect("set up");
        let mut rng = Rng::new(gen::key(self.seed, TAG_OLTP_ROUND, r, 0));
        let mut ops: Vec<bool> = (0..READS + TXNS).map(|i| i < TXNS).collect();
        rng.shuffle(&mut ops);
        for (i, is_txn) in ops.into_iter().enumerate() {
            if is_txn {
                m.begin_write();
                let mut ok = true;
                for k in 0..TXN_PAGES {
                    let p = self.zipf.sample(&mut rng) as usize;
                    let key = gen::key(
                        self.seed,
                        TAG_OLTP_PAGE,
                        p as u64,
                        (r << 16) | ((i * TXN_PAGES + k) as u64 + 1),
                    );
                    gen::fill(&mut self.page, key);
                    let page = &self.page;
                    if m.call(Class::Write, || fs.write(fd, (p * PAGE) as u64, page))
                        .is_ok()
                    {
                        self.shadow[p * PAGE..(p + 1) * PAGE].copy_from_slice(page);
                    } else {
                        ok = false;
                    }
                }
                if m.call(Class::Write, || fs.fsync(fd)).is_err() {
                    ok = false;
                }
                if ok {
                    m.end_write((TXN_PAGES * PAGE) as u64);
                } else {
                    m.abandon_write();
                }
            } else {
                let p = self.zipf.sample(&mut rng) as usize;
                let buf = &mut self.page;
                if let Ok(n) = m.call(Class::Read(PAGE as u64), || {
                    fs.read_into(fd, (p * PAGE) as u64, buf)
                }) {
                    if n != PAGE || self.page[..] != self.shadow[p * PAGE..(p + 1) * PAGE] {
                        m.wrong_bytes();
                    }
                }
            }
        }
    }

    fn live_bytes(&self) -> u64 {
        self.shadow.len() as u64
    }

    fn close_all(&mut self, fs: &LamassuFs) {
        if let Some(fd) = self.fd.take() {
            let _ = fs.close(fd);
        }
    }

    fn verify_all(&self, fs: &LamassuFs) -> Result<(), String> {
        verify_file(fs, PATH, self.shadow.len() as u64, |off, out| {
            out.copy_from_slice(&self.shadow[off as usize..off as usize + out.len()])
        })
    }
}
