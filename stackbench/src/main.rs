//! One benchmark for the LamassuFS stack.
//!
//! ```text
//! stackbench --workload backup|oltp|cluster --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs untraced
//! for `--seconds`, runs the first epoch of rounds again untraced and then
//! traced, each on a fresh stack, with a recording wrapper on every tier
//! boundary in the traced pass, and prints the per-layer metrics of the
//! traced epoch. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads and what every metric means.

mod backup;
mod cluster;
mod gen;
mod layers;
mod meter;
mod oltp;
mod stack;
mod trace;
mod workload;

use lamassu_keymgr::KeyManager;
use meter::{median, quantile, tail_mean, Class, Meter, Tally};
use stack::{Backends, Tiers};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Ctx, Workload};

/// Set-ups per untraced run (the measured one, then more after the
/// restart check); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The benchmark's isolation zone on the key server.
const ZONE: u32 = 1;
/// Records preallocated for one traced pass (one epoch of rounds needs at
/// most about 200k).
const TRACE_CAPACITY: usize = 1 << 20;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "backup" => Some(Box::new(backup::Backup::new(seed))),
        "oltp" => Some(Box::new(oltp::Oltp::new(seed))),
        "cluster" => Some(Box::new(cluster::Cluster::new(seed))),
        _ => None,
    }
}

/// A set-up stack: backends, the client mounted over them, the workload.
struct Mounted {
    backends: Backends,
    tiers: Tiers,
    wl: Box<dyn Workload>,
    setup: Duration,
}

/// Key fetch, mount and prefill: everything up to the first measured op.
fn set_up(args: &Args, km: &KeyManager, tracer: Option<&Arc<Tracer>>) -> Result<Mounted, String> {
    let t0 = Instant::now();
    let keys = km
        .fetch_zone_keys(ZONE)
        .map_err(|e| format!("key fetch: {e}"))?;
    let mut wl = make(&args.workload, args.seed).expect("checked");
    let backends = if wl.cluster() {
        Backends::cluster()
    } else {
        Backends::single()
    };
    let tiers = stack::mount(&backends, keys, wl.cache_config(), tracer);
    wl.setup(&tiers.fs)?;
    Ok(Mounted {
        backends,
        tiers,
        wl,
        setup: t0.elapsed(),
    })
}

enum Until {
    /// At least the epoch, then whole rounds until the deadline.
    Deadline(Instant),
    /// Exactly this many rounds.
    Rounds(u64),
}

struct Measured {
    all: Tally,
    epoch_rounds: u64,
    /// The first `epoch_rounds()` rounds, final flush included.
    epoch: Tally,
    /// Every tier's counters at the end of the epoch.
    epoch_snap: layers::Snap,
    rounds: u64,
    /// `(unique, total)` backend blocks after the epoch.
    footprint: (u64, u64),
    /// User bytes of the live files after the epoch.
    live_bytes: u64,
    footprint_check: Result<(), String>,
}

/// Writes back whatever the cache still holds dirty: part of the measured
/// write phase.
fn flush(m: &mut Meter, tiers: &Tiers) -> Result<(), String> {
    m.untallied(Class::WriteTail, || tiers.cache.flush_all())
        .map_err(|e| format!("cache flush: {e}"))
}

fn measure(
    mt: &mut Mounted,
    until: Until,
    tracer: Option<Arc<Tracer>>,
) -> Result<Measured, String> {
    let ctx = Ctx {
        tiers: &mt.tiers,
        backends: &mt.backends,
    };
    mt.wl.arm(&ctx);
    let mut meter = Meter::new(mt.tiers.cache.clone(), tracer);
    let epoch_rounds = mt.wl.epoch_rounds();
    let mut epoch = None;
    let mut r = 0;
    loop {
        let done = match until {
            Until::Deadline(d) => r >= epoch_rounds && Instant::now() >= d,
            Until::Rounds(n) => r >= n,
        };
        if done {
            break;
        }
        mt.wl.round(r, &ctx, &mut meter);
        r += 1;
        if r == epoch_rounds {
            flush(&mut meter, &mt.tiers)?;
        }
        meter.tally.end_round();
        if r == epoch_rounds {
            let snap = layers::snap(&mt.tiers, &mt.backends);
            let footprint = mt.backends.stored_bytes();
            epoch = Some((
                meter.tally.clone(),
                snap,
                footprint,
                mt.wl.live_bytes(),
                mt.wl.check_footprint(footprint.0),
            ));
        }
    }
    if r != epoch_rounds {
        flush(&mut meter, &mt.tiers)?;
        meter.tally.extend_last_round();
    }
    let (epoch, epoch_snap, footprint, live_bytes, footprint_check) =
        epoch.ok_or("the run ended before its first epoch")?;
    Ok(Measured {
        all: meter.tally,
        epoch_rounds,
        epoch,
        epoch_snap,
        rounds: r,
        footprint,
        live_bytes,
        footprint_check,
    })
}

/// Drops the cache, fetches the keys again and mounts a fresh client over
/// the same backends; every file must read back equal to the reference.
fn restart_check(mt: Mounted, km: &KeyManager) -> Result<String, String> {
    let Mounted {
        backends,
        tiers,
        mut wl,
        ..
    } = mt;
    let note = wl.before_restart(&Ctx {
        tiers: &tiers,
        backends: &backends,
    });
    wl.close_all(&tiers.fs);
    tiers
        .cache
        .flush_all()
        .map_err(|e| format!("restart: flushing the old cache: {e}"))?;
    drop(tiers);
    let keys = km
        .fetch_zone_keys(ZONE)
        .map_err(|e| format!("key fetch: {e}"))?;
    let fresh = stack::mount(&backends, keys, wl.cache_config(), None);
    wl.verify_all(&fresh.fs)?;
    Ok(note)
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes per wall nanosecond to MiB/s.
fn per_ns_to_mib_s(rate: f64) -> f64 {
    rate * 1e9 / MIB
}

fn mib_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / MIB / (ns as f64 / 1e9)
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Checks the failure tally: every failed op must be one the workload
/// names (the stale-replica reads of `cluster`).
fn failures_ok(t: &Tally, problems: &mut Vec<String>) {
    if t.failed() != t.failed_expected {
        problems.push(format!(
            "{} ops failed ({} errors, {} wrong bytes), {} of them the known stale-replica reads",
            t.failed(),
            t.failed_error,
            t.failed_wrong,
            t.failed_expected
        ));
    }
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    let km = KeyManager::new();
    km.create_zone(ZONE).map_err(|e| e.to_string())?;
    let mut mt = set_up(args, &km, None)?;
    let mut setups = vec![mt.setup.as_secs_f64()];
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let m = measure(&mut mt, Until::Deadline(deadline), None)?;
    let mut problems = Vec::new();
    failures_ok(&m.all, &mut problems);
    if let Err(e) = &m.footprint_check {
        problems.push(e.clone());
    }
    let note = match restart_check(mt, &km) {
        Ok(note) => note,
        Err(e) => {
            problems.push(e);
            String::new()
        }
    };
    // The peak before the extra set-ups: one stack's set-up, measured
    // phase and restart, not the allocator history of several stacks.
    let peak_rss = peak_rss_mib();
    // More set-ups, for a steadier `setup_s`, once the workload is done.
    for _ in 1..SETUP_REPS {
        setups.push(set_up(args, &km, None)?.setup.as_secs_f64());
    }
    let (all, ep) = (&m.all, &m.epoch);
    let (write_rate, read_rate) = all.round_rates();
    eprintln!(
        "stackbench: {} seed {}: {} rounds ({} in the modelled epoch); {} ops, {} failed ({} errors, {} wrong bytes, {} stale-replica reads); {} reads, {} write ops; {}",
        args.workload,
        args.seed,
        m.rounds,
        m.epoch_rounds,
        all.attempted,
        all.failed(),
        all.failed_error,
        all.failed_wrong,
        all.failed_expected,
        all.read_wall.len(),
        all.write_wall.len(),
        note
    );
    for p in &problems {
        eprintln!("stackbench: check failed: {p}");
    }
    let metrics = vec![
        ("setup_s", median(setups), "s"),
        ("write_wall_mib_s", per_ns_to_mib_s(write_rate), "MiB/s"),
        ("read_wall_mib_s", per_ns_to_mib_s(read_rate), "MiB/s"),
        (
            "write_modelled_mib_s",
            mib_per_s(ep.write_bytes, ep.write_modelled_total),
            "MiB/s",
        ),
        (
            "read_modelled_mib_s",
            mib_per_s(ep.read_bytes, ep.read_modelled_total),
            "MiB/s",
        ),
        (
            "read_wall_p50_us",
            quantile(&all.read_wall, 0.5) as f64 / 1e3,
            "us",
        ),
        (
            "write_wall_p50_us",
            quantile(&all.write_wall, 0.5) as f64 / 1e3,
            "us",
        ),
        (
            "read_modelled_tail_us",
            tail_mean(&ep.read_modelled) / 1e3,
            "us",
        ),
        (
            "write_modelled_tail_us",
            tail_mean(&ep.write_modelled) / 1e3,
            "us",
        ),
        (
            "stored_per_user_byte",
            m.footprint.0 as f64 * 4096.0 / m.live_bytes as f64,
            "ratio",
        ),
        ("peak_rss_mib", peak_rss, "MiB"),
    ];
    Ok(Report {
        correct: problems.is_empty(),
        attempted: all.attempted,
        failed: all.failed(),
        metrics,
    })
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let km = KeyManager::new();
    km.create_zone(ZONE).map_err(|e| e.to_string())?;

    // Pass A: the untraced run of `--seconds`, with its restart check; its
    // first epoch is the baseline of the op-count check.
    let mut mt = set_up(args, &km, None)?;
    let before = layers::snap(&mt.tiers, &mt.backends);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let untraced = measure(&mut mt, Until::Deadline(deadline), None)?;
    let untraced_ops = layers::member_ops(&before, &untraced.epoch_snap);
    let mut problems = Vec::new();
    if let Err(e) = restart_check(mt, &km) {
        problems.push(e);
    }

    // Pass C: the epoch again, untraced, on a fresh stack: the baseline of
    // the overhead ratio, so that the two passes compared both run in a
    // process that has already run and dropped one stack.
    let mut mt = set_up(args, &km, None)?;
    let before = layers::snap(&mt.tiers, &mt.backends);
    let rerun = measure(&mut mt, Until::Rounds(untraced.epoch_rounds), None)?;
    let rerun_ops = layers::member_ops(&before, &rerun.epoch_snap);
    if rerun_ops != untraced_ops {
        problems.push(format!(
            "backend (reads, writes) per member: untraced epochs differ, {untraced_ops:?} and {rerun_ops:?}"
        ));
    }
    drop(mt);

    // Pass B: the epoch again, with a recording wrapper on every boundary.
    let tracer = Tracer::new(TRACE_CAPACITY);
    let mut mt = set_up(args, &km, Some(&tracer))?;
    // One fetch takes well under a microsecond: time batches of 200 so the
    // figure is not a few timer ticks, and keep the median batch.
    let fetch = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..200 {
                let _ = km.fetch_zone_keys(ZONE);
            }
            t.elapsed().as_secs_f64() / 200.0
        })
        .collect();
    let before = layers::snap(&mt.tiers, &mt.backends);
    mt.tiers.profiler.reset();
    trace::ARMED.store(true, Ordering::SeqCst);
    let traced = measure(
        &mut mt,
        Until::Rounds(untraced.epoch_rounds),
        Some(tracer.clone()),
    );
    trace::ARMED.store(false, Ordering::SeqCst);
    let traced = traced?;
    let after = traced.epoch_snap.clone();
    let recs = tracer.take();
    let out = layers::analyse(&layers::Input {
        recs: &recs,
        dropped: tracer.dropped(),
        cluster: mt.wl.cluster(),
        before: &before,
        after: &after,
        tiers: &mt.tiers,
        traced: &traced.all,
        untraced: &rerun.all,
        untraced_member_ops: &untraced_ops,
        footprint: traced.footprint,
        zone_fetch_s: median(fetch),
    });
    problems.extend(out.violations);
    failures_ok(&traced.all, &mut problems);
    if traced.all.attempted != untraced.epoch.attempted
        || traced.all.failed() != untraced.epoch.failed()
    {
        problems.push(format!(
            "traced pass: {} ops, {} failed; untraced epoch: {} ops, {} failed",
            traced.all.attempted,
            traced.all.failed(),
            untraced.epoch.attempted,
            untraced.epoch.failed()
        ));
    }
    if let Err(e) = write_trace(args, &recs) {
        eprintln!("stackbench: trace not written: {e}");
    }
    eprintln!(
        "stackbench: {} seed {} traced: {} rounds, {} records; {} ops, {} failed",
        args.workload,
        args.seed,
        traced.rounds,
        recs.len(),
        traced.all.attempted,
        traced.all.failed()
    );
    for p in &problems {
        eprintln!("stackbench: check failed: {p}");
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted: traced.all.attempted,
        failed: traced.all.failed(),
        metrics: out.metrics,
    })
}

/// Writes the records of the traced pass as CSV under `.bench_out/`.
fn write_trace(args: &Args, recs: &[trace::Rec]) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(
        ".bench_out/stackbench-{}-{}.trace.csv",
        args.workload, args.seed
    );
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op,boundary,member,kind,err,t0_ns,t1_ns,modelled_ns")?;
    for r in recs {
        writeln!(
            w,
            "{},{},{},{:?},{},{},{},{}",
            r.op, r.boundary, r.member, r.kind, r.err as u8, r.t0, r.t1, r.modelled
        )?;
    }
    w.flush()
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload backup|oltp|cluster --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if make(&args.workload, args.seed).is_none() {
        eprintln!("stackbench: unknown workload {}", args.workload);
        std::process::exit(2);
    }
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(report) => println!("{}", json(&report)),
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(1);
        }
    }
}
