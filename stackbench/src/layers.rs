//! Per-layer figures of a traced pass and the checks that the layers'
//! counters reconcile with each other, measured from outside.

use crate::meter::Tally;
use crate::stack::{Backends, Tiers, INTO_CACHE, INTO_RESILIENCE, INTO_ROUTER, INTO_STORAGE};
use crate::trace::{Kind, Rec};
use lamassu_cache::CacheStats;
use lamassu_core::{Category, PoolStats};
use lamassu_dist::DistStats;
use lamassu_resilience::ResilienceStats;
use lamassu_storage::{FaultStats, IoCounters, ObjectStore};
use std::time::Duration;

/// Public counters of every tier at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub cache: CacheStats,
    pub res: ResilienceStats,
    pub dist: DistStats,
    /// Admissions the circuit breakers refused.
    pub breaker_rejections: u64,
    pub members: Vec<IoCounters>,
    pub faults: Vec<FaultStats>,
    /// `(wide_blocks, scalar_blocks, wide_derives, scalar_derives)`.
    pub crypto: (u64, u64, u64, u64),
    pub pool: PoolStats,
    pub top_io: Duration,
}

pub fn snap(tiers: &Tiers, backends: &Backends) -> Snap {
    Snap {
        cache: tiers.cache.stats(),
        res: tiers
            .resilience
            .as_ref()
            .map(|r| r.stats())
            .unwrap_or_default(),
        dist: tiers.router.as_ref().map(|r| r.stats()).unwrap_or_default(),
        breaker_rejections: tiers.breakers.as_ref().map_or(0, |b| b.stats().rejections),
        members: backends.dedup.iter().map(|d| d.io_counters()).collect(),
        faults: backends.faulty.iter().map(|f| f.fault_stats()).collect(),
        crypto: lamassu_crypto::stats::snapshot(),
        pool: tiers.fs.pool_stats(),
        top_io: tiers.cache.io_time(),
    }
}

/// Per-member `(read_ops, write_ops)` between two snapshots.
pub fn member_ops(a: &Snap, b: &Snap) -> Vec<(u64, u64)> {
    a.members
        .iter()
        .zip(&b.members)
        .map(|(x, y)| (y.read_ops - x.read_ops, y.write_ops - x.write_ops))
        .collect()
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

pub struct Input<'a> {
    pub recs: &'a [Rec],
    pub dropped: u64,
    pub cluster: bool,
    pub before: &'a Snap,
    pub after: &'a Snap,
    pub tiers: &'a Tiers,
    /// The traced pass.
    pub traced: &'a Tally,
    /// An untraced pass over the same rounds.
    pub untraced: &'a Tally,
    pub untraced_member_ops: &'a [(u64, u64)],
    /// `(unique, total)` backend blocks after the traced pass.
    pub footprint: (u64, u64),
    /// Seconds per key fetch.
    pub zone_fetch_s: f64,
}

pub struct Output {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub violations: Vec<String>,
}

/// Nested-span accounting: for each boundary level, the summed span of its
/// records and the part of it covered by the level below.
struct Spans {
    span: Vec<u64>,
    covered: Vec<u64>,
    orphans: u64,
    unattributed: u64,
}

fn spans(recs: &[Rec], levels: &[u8]) -> Spans {
    let level_of = |b: u8| levels.iter().position(|&l| l == b);
    let mut idx: Vec<usize> = (0..recs.len()).collect();
    idx.sort_unstable_by_key(|&i| (recs[i].op, recs[i].t0, recs[i].boundary));
    let mut s = Spans {
        span: vec![0; levels.len()],
        covered: vec![0; levels.len()],
        orphans: 0,
        unattributed: 0,
    };
    // The innermost open record at each level while walking one op's
    // records in start order.
    let mut open: Vec<Option<(u64, u64)>> = vec![None; levels.len()];
    let mut op = u32::MAX;
    for &i in &idx {
        let r = &recs[i];
        if r.op == 0 {
            s.unattributed += 1;
            continue;
        }
        if r.op != op {
            op = r.op;
            open.iter_mut().for_each(|o| *o = None);
        }
        let Some(l) = level_of(r.boundary) else {
            continue;
        };
        let d = r.t1.saturating_sub(r.t0);
        s.span[l] += d;
        if l > 0 {
            match open[l - 1] {
                Some((p0, p1)) if p0 <= r.t0 && r.t1 <= p1 => s.covered[l - 1] += d,
                _ => s.orphans += 1,
            }
        }
        open[l] = Some((r.t0, r.t1));
    }
    s
}

pub fn analyse(inp: &Input) -> Output {
    let levels: Vec<u8> = if inp.cluster {
        vec![0, INTO_CACHE, INTO_RESILIENCE, INTO_ROUTER, INTO_STORAGE]
    } else {
        vec![0, INTO_CACHE, INTO_STORAGE]
    };
    let below_cache = levels[2];
    let count = |b: u8, kinds: &[Kind]| {
        inp.recs
            .iter()
            .filter(|r| r.boundary == b && kinds.contains(&r.kind))
            .count() as u64
    };
    let count_all = |b: u8| inp.recs.iter().filter(|r| r.boundary == b).count() as u64;
    let data = [Kind::Read, Kind::Write];
    let attempts = [Kind::Read, Kind::Write, Kind::Meta];
    let (a, b) = (inp.before, inp.after);
    let mut v = Vec::new();

    let sp = spans(inp.recs, &levels);
    // Self times as shares of the client ops' wall time: they sum to 1
    // over the layers, and a layer absent from the stack reads 0.
    let self_share = |l: usize| ratio((sp.span[l] - sp.covered[l]) as f64, sp.span[0] as f64);
    let level_of = |b: u8| levels.iter().position(|&l| l == b);
    let client_wall: u64 = sp.span[0];
    let self_total: u64 = (0..levels.len()).map(|l| sp.span[l] - sp.covered[l]).sum();

    // Σ self equals the client wall exactly when every record nests inside
    // a record of the level above; an orphan's span is counted once more.
    let tolerance = client_wall / 1000;
    let mut violations = Vec::new();
    if self_total.abs_diff(client_wall) > tolerance {
        violations.push(format!(
            "layer self times sum to {self_total} ns, client ops took {client_wall} ns (tolerance {tolerance} ns)"
        ));
    }
    if sp.orphans > 0 {
        violations.push(format!(
            "{} records do not nest inside a call of the tier above",
            sp.orphans
        ));
    }
    if sp.unattributed > 0 {
        violations.push(format!("{} records outside any client op", sp.unattributed));
    }
    if inp.dropped > 0 {
        violations.push(format!(
            "{} records did not fit the trace buffer",
            inp.dropped
        ));
    }

    // Member ops: the wrappers' count against the members' own counters
    // (plus the faults the injectors refused before reaching them).
    let ops = member_ops(a, b);
    for (m, &(r, w)) in ops.iter().enumerate() {
        let calls = inp
            .recs
            .iter()
            .filter(|x| {
                x.boundary == INTO_STORAGE && x.member as usize == m && data.contains(&x.kind)
            })
            .count() as u64;
        let refused = match (a.faults.get(m), b.faults.get(m)) {
            (Some(x), Some(y)) => {
                (y.transient_faults - x.transient_faults)
                    + (y.write_crashes - x.write_crashes)
                    + (y.read_crashes - x.read_crashes)
                    + (y.refused_ops - x.refused_ops)
            }
            _ => 0,
        };
        if calls != r + w + refused {
            violations.push(format!(
                "member {m}: wrappers saw {calls} data calls, counters say {r} reads + {w} writes + {refused} refused"
            ));
        }
    }
    // The traced pass drove the backends exactly like the untraced one.
    if ops != inp.untraced_member_ops {
        violations.push(format!(
            "backend (reads, writes) per member: traced {ops:?}, untraced {:?}",
            inp.untraced_member_ops
        ));
    }

    let retries = b.res.retries - a.res.retries;
    let hedged = b.res.hedged_reads - a.res.hedged_reads;
    if inp.cluster {
        // Resilience attempts: every op it received, once, plus one per
        // retry and one per hedge.
        let above = count(INTO_RESILIENCE, &attempts);
        let below = count(INTO_ROUTER, &attempts);
        if below != above + retries + hedged {
            violations.push(format!(
                "router saw {below} calls, resilience received {above} + {retries} retries + {hedged} hedges"
            ));
        }
        // Every admission a breaker refused is a member the router skipped.
        let rejected = b.breaker_rejections - a.breaker_rejections;
        let skips = b.dist.breaker_skips - a.dist.breaker_skips;
        if rejected != skips {
            violations.push(format!(
                "breakers refused {rejected} admissions, router skipped {skips}"
            ));
        }
        let sleeps = count(INTO_ROUTER, &[Kind::Sleep]);
        if sleeps != retries {
            violations.push(format!("{sleeps} backoff sleeps for {retries} retries"));
        }
        // Reads forwarded by the cache against the reads the router saw,
        // net of hedges and of the retries that were not reads.
        let nonread_retries = count(INTO_ROUTER, &[Kind::Write, Kind::Meta])
            .checked_sub(count(INTO_RESILIENCE, &[Kind::Write, Kind::Meta]));
        let forwarded = count(INTO_RESILIENCE, &[Kind::Read]);
        let routed = count(INTO_ROUTER, &[Kind::Read]);
        match nonread_retries.and_then(|n| retries.checked_sub(n)) {
            Some(read_retries) if routed == forwarded + hedged + read_retries => {}
            _ => violations.push(format!(
                "cache forwarded {forwarded} reads, router saw {routed} ({hedged} hedges, {retries} retries)"
            )),
        }
    } else {
        let forwarded = count(INTO_STORAGE, &[Kind::Read]);
        let seen = ops[0].0;
        if forwarded != seen {
            violations.push(format!(
                "cache forwarded {forwarded} reads, the backend counted {seen}"
            ));
        }
    }

    let client_ops = count_all(0) as f64;
    let user_bytes = (inp.traced.read_bytes + inp.traced.write_bytes) as f64;
    let hist_s = |c: Category| inp.tiers.profiler.category_histogram(c).sum as f64 / 1e9;
    let pool_hits = (b.pool.hits - a.pool.hits) as f64;
    let pool_misses = (b.pool.misses - a.pool.misses) as f64;
    v.push(("core.self_wall_share", self_share(0), "ratio"));
    v.push(("core.encrypt_s", hist_s(Category::Encrypt), "s"));
    v.push(("core.decrypt_s", hist_s(Category::Decrypt), "s"));
    v.push(("core.kdf_s", hist_s(Category::GetCeKey), "s"));
    v.push(("core.plan_s", hist_s(Category::Plan), "s"));
    v.push((
        "core.store_calls_per_op",
        ratio(count_all(INTO_CACHE) as f64, client_ops),
        "calls/op",
    ));
    v.push((
        "core.in_flight_peak",
        inp.tiers.profiler.in_flight_peak() as f64,
        "count",
    ));
    v.push((
        "core.pool_miss_ratio",
        ratio(pool_misses, pool_hits + pool_misses),
        "ratio",
    ));

    let wide = (b.crypto.0 - a.crypto.0) as f64;
    let scalar = (b.crypto.1 - a.crypto.1) as f64;
    let wide_d = (b.crypto.2 - a.crypto.2) as f64;
    let scalar_d = (b.crypto.3 - a.crypto.3) as f64;
    v.push((
        "crypto.blocks_per_user_block",
        ratio(wide + scalar, user_bytes / 16.0),
        "ratio",
    ));
    v.push((
        "crypto.wide_block_share",
        ratio(wide, wide + scalar),
        "ratio",
    ));
    v.push((
        "crypto.wide_derive_share",
        ratio(wide_d, wide_d + scalar_d),
        "ratio",
    ));

    let hits = (b.cache.hits - a.cache.hits) as f64;
    let misses = (b.cache.misses - a.cache.misses) as f64;
    let writebacks = b.cache.dirty_writebacks - a.cache.dirty_writebacks;
    v.push(("cache.read_hit_ratio", ratio(hits, hits + misses), "ratio"));
    v.push((
        "cache.evictions",
        (b.cache.evictions - a.cache.evictions) as f64,
        "count",
    ));
    v.push(("cache.dirty_writebacks", writebacks as f64, "count"));
    v.push((
        "cache.prefetched",
        (b.cache.prefetched - a.cache.prefetched) as f64,
        "count",
    ));
    v.push((
        "cache.backend_writes_per_writeback",
        ratio(count(below_cache, &[Kind::Write]) as f64, writebacks as f64),
        "ratio",
    ));
    v.push(("cache.self_wall_share", self_share(1), "ratio"));

    let res_level = level_of(INTO_RESILIENCE);
    let router_level = level_of(INTO_ROUTER);
    v.push(("resilience.retries", retries as f64, "count"));
    v.push((
        "resilience.recoveries",
        (b.res.recoveries - a.res.recoveries) as f64,
        "count",
    ));
    v.push((
        "resilience.backoff_modelled_share",
        ratio(
            (b.res.backoff_virtual_ns - a.res.backoff_virtual_ns) as f64,
            (b.top_io - a.top_io).as_nanos() as f64,
        ),
        "ratio",
    ));
    v.push(("resilience.hedged_reads", hedged as f64, "count"));
    v.push((
        "resilience.hedge_win_ratio",
        ratio((b.res.hedge_wins - a.res.hedge_wins) as f64, hedged as f64),
        "ratio",
    ));
    v.push((
        "resilience.budget_exhausted",
        (b.res.budget_exhausted - a.res.budget_exhausted) as f64,
        "count",
    ));
    v.push((
        "resilience.self_wall_share",
        res_level.map_or(0.0, self_share),
        "ratio",
    ));

    let member_total: u64 = ops.iter().map(|(r, w)| r + w).sum();
    let busiest = ops.iter().map(|(r, w)| r + w).max().unwrap_or(0);
    v.push((
        "dist.read_failovers",
        (b.dist.read_failovers - a.dist.read_failovers) as f64,
        "count",
    ));
    v.push((
        "dist.degraded_writes",
        (b.dist.degraded_writes - a.dist.degraded_writes) as f64,
        "count",
    ));
    v.push((
        "dist.breaker_skips",
        (b.dist.breaker_skips - a.dist.breaker_skips) as f64,
        "count",
    ));
    v.push((
        "dist.suspects_pending",
        b.dist.suspects_pending as f64,
        "count",
    ));
    v.push((
        "dist.member_writes_per_write",
        if inp.cluster {
            ratio(
                count(INTO_STORAGE, &[Kind::Write]) as f64,
                count(INTO_ROUTER, &[Kind::Write]) as f64,
            )
        } else {
            0.0
        },
        "ratio",
    ));
    v.push((
        "dist.busiest_member_share",
        if inp.cluster {
            ratio(busiest as f64, member_total as f64)
        } else {
            0.0
        },
        "ratio",
    ));
    v.push((
        "dist.self_wall_share",
        router_level.map_or(0.0, self_share),
        "ratio",
    ));

    let sum = |f: fn(&IoCounters) -> u64| -> u64 {
        a.members
            .iter()
            .zip(&b.members)
            .map(|(x, y)| f(y) - f(x))
            .sum()
    };
    let faults: u64 = a
        .faults
        .iter()
        .zip(&b.faults)
        .map(|(x, y)| y.transient_faults - x.transient_faults)
        .sum();
    v.push(("storage.read_ops", sum(|c| c.read_ops) as f64, "count"));
    v.push(("storage.write_ops", sum(|c| c.write_ops) as f64, "count"));
    v.push((
        "storage.bytes_written_per_user_byte",
        ratio(
            sum(|c| c.bytes_written) as f64,
            inp.traced.write_bytes as f64,
        ),
        "ratio",
    ));
    v.push((
        "storage.bytes_read_per_user_byte",
        ratio(sum(|c| c.bytes_read) as f64, inp.traced.read_bytes as f64),
        "ratio",
    ));
    v.push((
        "storage.modelled_s",
        (b.top_io - a.top_io).as_secs_f64(),
        "s",
    ));
    v.push((
        "storage.dedup_unique_ratio",
        ratio(inp.footprint.0 as f64, inp.footprint.1 as f64),
        "ratio",
    ));
    v.push(("storage.transient_faults", faults as f64, "count"));
    v.push(("keymgr.zone_fetch_s", inp.zone_fetch_s, "s"));
    v.push((
        "telemetry.trace_overhead_ratio",
        ratio(
            inp.traced.client_wall_total as f64,
            inp.untraced.client_wall_total as f64,
        ),
        "ratio",
    ));
    Output {
        metrics: v,
        violations,
    }
}
