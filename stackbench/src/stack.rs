//! Building the production LamassuFS stack, optionally with a recording
//! wrapper on every tier boundary.

use crate::trace::{Traced, Tracer};
use lamassu_cache::{CacheConfig, CachedStore};
use lamassu_core::{
    CryptoBackend, IntegrityMode, IoMode, LamassuConfig, LamassuFs, Profiler, SpanConfig,
    SpanPolicy,
};
use lamassu_dist::{DistConfig, Granularity, RoutedStore};
use lamassu_format::Geometry;
use lamassu_keymgr::ZoneKeys;
use lamassu_resilience::{
    BreakerConfig, BreakerSet, HedgeConfig, OpBudget, ResilientStore, RetryPolicy,
};
use lamassu_storage::{DedupStore, FaultyStore, ObjectStore, StorageProfile};
use std::sync::Arc;

/// Crypto worker-pool width of every mount: one, so every batch runs
/// inline on the client thread and wall figures measure one core's work:
/// on a 2-vCPU host, back-to-back runs of one seed spread over a third in
/// write throughput with width 2, and over 8% with width 1.
pub const CRYPTO_WORKERS: usize = 1;

/// Boundary ids, named after the tier a recorded call goes *into*.
pub const INTO_CACHE: u8 = 1;
pub const INTO_RESILIENCE: u8 = 2;
pub const INTO_ROUTER: u8 = 3;
pub const INTO_STORAGE: u8 = 4;

/// Cluster shape: members, replicas and placement unit.
pub const MEMBERS: usize = 4;
pub const REPLICAS: usize = 2;
pub const UNIT_BYTES: u64 = 1024 * 1024;

/// The modelled backends: they outlive a mount, so a restart remounts the
/// upper tiers over the same bytes.
pub struct Backends {
    pub dedup: Vec<Arc<DedupStore>>,
    /// Fault injectors over `dedup` (cluster only, same order).
    pub faulty: Vec<Arc<FaultyStore>>,
}

impl Backends {
    pub fn single() -> Self {
        Backends {
            dedup: vec![Arc::new(DedupStore::new(4096, StorageProfile::nfs_1gbe()))],
            faulty: Vec::new(),
        }
    }

    pub fn cluster() -> Self {
        let dedup: Vec<Arc<DedupStore>> = (0..MEMBERS)
            .map(|_| Arc::new(DedupStore::new(4096, StorageProfile::nfs_1gbe())))
            .collect();
        let faulty = dedup
            .iter()
            .map(|d| Arc::new(FaultyStore::new(d.clone() as Arc<dyn ObjectStore>)))
            .collect();
        Backends { dedup, faulty }
    }

    pub fn is_cluster(&self) -> bool {
        !self.faulty.is_empty()
    }

    /// Post-dedup bytes across every backend.
    pub fn stored_bytes(&self) -> (u64, u64) {
        let mut unique = 0;
        let mut total = 0;
        for d in &self.dedup {
            let r = d.run_dedup();
            unique += r.unique_blocks;
            total += r.total_blocks;
        }
        (unique, total)
    }

    /// Arms (or, with `rate == 0`, disarms) the seeded transient fault
    /// rate on every member.
    pub fn set_fault_rate(&self, seed: u64, rate: f64) {
        for (i, f) in self.faulty.iter().enumerate() {
            f.transient_fault_rate(crate::gen::mix(seed ^ i as u64), rate);
        }
    }
}

/// One mounted client over a set of backends.
pub struct Tiers {
    pub fs: LamassuFs,
    pub cache: Arc<CachedStore>,
    pub resilience: Option<Arc<ResilientStore>>,
    pub router: Option<Arc<RoutedStore>>,
    pub breakers: Option<Arc<BreakerSet>>,
    pub profiler: Arc<Profiler>,
}

/// The production data path: batched spans, async submission,
/// fixsliced kernels, pooled buffers, full integrity.
pub fn lamassu_config() -> LamassuConfig {
    LamassuConfig {
        geometry: Geometry::default(),
        integrity: IntegrityMode::Full,
        span: SpanConfig {
            policy: SpanPolicy::Batched,
            io: IoMode::Async,
            workers: CRYPTO_WORKERS,
            pool_blocks: None,
            crypto: CryptoBackend::Fixsliced,
            ..SpanConfig::default()
        },
    }
}

fn wrap(
    store: Arc<dyn ObjectStore>,
    boundary: u8,
    member: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<dyn ObjectStore> {
    match tracer {
        Some(t) => Arc::new(Traced::new(store, boundary, member as u8, t.clone())),
        None => store,
    }
}

/// Mounts LamassuFS → cache → (resilience → router →) backends.
pub fn mount(
    backends: &Backends,
    keys: ZoneKeys,
    cache_config: CacheConfig,
    tracer: Option<&Arc<Tracer>>,
) -> Tiers {
    let mut resilience = None;
    let mut router = None;
    let mut breakers = None;
    let below_cache: Arc<dyn ObjectStore> = if backends.is_cluster() {
        let members: Vec<Arc<dyn ObjectStore>> = backends
            .faulty
            .iter()
            .enumerate()
            .map(|(i, f)| wrap(f.clone(), INTO_STORAGE, i, tracer))
            .collect();
        let r = Arc::new(RoutedStore::new(
            members,
            DistConfig::new(REPLICAS).granularity(Granularity::BlockRange(UNIT_BYTES)),
        ));
        let b = Arc::new(BreakerSet::new(BreakerConfig::default()));
        r.set_health_gate(b.clone());
        let res = Arc::new(
            ResilientStore::new(
                wrap(r.clone(), INTO_ROUTER, 0, tracer),
                RetryPolicy::default(),
                OpBudget::default(),
            )
            .with_hedging(HedgeConfig::default()),
        );
        router = Some(r);
        breakers = Some(b);
        resilience = Some(res.clone());
        wrap(res, INTO_RESILIENCE, 0, tracer)
    } else {
        wrap(backends.dedup[0].clone(), INTO_STORAGE, 0, tracer)
    };
    let cache = Arc::new(CachedStore::new(below_cache, cache_config));
    let fs = LamassuFs::new(
        wrap(cache.clone(), INTO_CACHE, 0, tracer),
        keys,
        lamassu_config(),
    );
    let profiler = fs.profiler();
    cache.set_profiler(profiler.clone());
    if let Some(r) = &router {
        r.set_profiler(profiler.clone());
    }
    Tiers {
        fs,
        cache,
        resilience,
        router,
        breakers,
        profiler,
    }
}
