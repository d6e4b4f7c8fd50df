//! Serving: stand a `Fleet` up from saved bundles, drive it open-loop at a
//! fixed tick rate from one generator thread, replay every feed through a
//! standalone monitor to check it, and probe the serving layers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pmu_detect::stream::{StreamConfig, StreamEvent, StreamingDetector};
use pmu_detect::{RestrictedBank, ScoringCache};
use pmu_model::ModelBundle;
use pmu_numerics::par;
use pmu_serve::{Engine, EngineConfig, FeedKey, Fleet, FleetConfig, ServeError};
use pmu_sim::PhasorSample;

use crate::checks;
use crate::trace::Tracer;
use crate::traffic::{Churn, Plan};
use crate::util::{mean, median, process_cpu_s, rss_kb, secs, thread_cpu_s, Ledger};

/// Extra sessions opened on the largest grid per set-up, for the
/// `session_open_us` median.
const EXTRA_OPENS: u64 = 32;

/// A fleet ready to serve a plan.
pub struct Served {
    pub fleet: Fleet,
    /// Fleet key of every plan feed.
    pub keys: Vec<FeedKey>,
    /// Bundle of every plan grid (kept for the replay and the probes).
    pub bundles: Vec<ModelBundle>,
}

/// Set-up timings over the repetitions.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub setup_s: Vec<f64>,
    pub load_s: Vec<f64>,
    /// `Fleet::open_feed` times on the plan's largest grid, µs.
    pub open_us: Vec<f64>,
}

/// Load every grid's bundle, register it, and open every plan feed;
/// `reps` times over, keeping the last fleet. Each repetition drops the
/// previous fleet first.
pub fn setup(
    paths: &[PathBuf],
    plan: &Plan,
    reps: usize,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Result<(Served, SetupTimes), String> {
    let largest = (0..plan.grids.len())
        .max_by_key(|&g| plan.grids[g].n)
        .expect("a grid");
    let mut times = SetupTimes::default();
    let mut last: Option<Served> = None;
    for _ in 0..reps {
        drop(last.take());
        let _sp = tracer.span("bench.setup");
        let mut timed = 0.0;
        let mut load = 0.0;
        let t = Instant::now();
        let mut fleet = Fleet::new(FleetConfig::default());
        timed += secs(t);
        let mut gids = Vec::new();
        let mut bundles = Vec::new();
        for (g, path) in paths.iter().enumerate() {
            let t = Instant::now();
            let bundle = tracer
                .time("model.ModelBundle::load", || ModelBundle::load(path))
                .map_err(|e| format!("load {}: {e}", path.display()))?;
            let dt = secs(t);
            load += dt;
            timed += dt;
            bundles.push(bundle.clone());
            let t = Instant::now();
            let gid = tracer
                .time("serve.Fleet::add_grid", || {
                    fleet.add_grid(&plan.grids[g].name, bundle, &EngineConfig::default())
                })
                .map_err(|e| e.to_string())?;
            timed += secs(t);
            gids.push(gid);
        }
        ledger.ops("setup_load", paths.len() as u64, 0);
        let mut keys = Vec::with_capacity(plan.feeds.len());
        for feed in &plan.feeds {
            let key = FeedKey {
                grid: gids[feed.grid],
                feed: feed.id,
            };
            let t = Instant::now();
            tracer
                .time("serve.Fleet::open_feed", || fleet.open_feed(key))
                .map_err(|e| e.to_string())?;
            let dt = secs(t);
            timed += dt;
            if feed.grid == largest {
                times.open_us.push(dt * 1e6);
            }
            keys.push(key);
        }
        ledger.ops("setup_open_feed", plan.feeds.len() as u64, 0);
        // More opens on the largest grid for the `session_open_us` median;
        // not part of set-up. Each is closed before the next opens.
        for i in 0..EXTRA_OPENS {
            let key = FeedKey {
                grid: gids[largest],
                feed: 1_000_000 + i,
            };
            let t = Instant::now();
            fleet.open_feed(key).map_err(|e| e.to_string())?;
            times.open_us.push(secs(t) * 1e6);
            fleet.close_feed(key);
        }
        ledger.ops("setup_open_feed", EXTRA_OPENS, 0);
        times.setup_s.push(timed);
        times.load_s.push(load);
        last = Some(Served {
            fleet,
            keys,
            bundles,
        });
    }
    Ok((last.expect("at least one repetition"), times))
}

/// What the open loop observed.
#[derive(Default)]
pub struct Run {
    /// Per sample: µs from its due time to the return of the `push_batch`
    /// that carried it.
    pub latency_us: Vec<f64>,
    /// Closed loop: every sample went in a `push_batch` of its own.
    pub sequential: bool,
    /// Per tick: µs the generator woke after the due time.
    pub late_us: Vec<f64>,
    /// Per tick: `push_batch` wall time, s.
    pub push_s: Vec<f64>,
    /// Per tick: process CPU, µs, from the tick's churn to the return of
    /// its last push. Unlike wall time, it does not grow while the
    /// hypervisor has the machine's CPUs.
    pub tick_cpu_us: Vec<f64>,
    /// Per tick: the shard each feed's sample went to.
    pub shard: Vec<Vec<u8>>,
    /// Process CPU over the run minus the generator's own work (taking
    /// each tick's batch, waiting for its due time, logging the results):
    /// the fleet's CPU, pool threads included.
    pub cpu_s: f64,
    pub pushed: u64,
    /// Per feed: `(tick, event)` of every accepted sample.
    pub log: Vec<Vec<(usize, StreamEvent)>>,
    /// Per pushed sample: whether a NaN was injected, and the outcome.
    pub outcomes: Vec<(bool, Result<(), ServeError>)>,
}

/// Sleep until `due`, waking early and yielding the last stretch so the
/// wake-up lands close to it.
fn wait_until(due: Instant) {
    let slack = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + slack {
        std::thread::sleep(due - now - slack);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Drive the plan through the fleet. Open loop: one batch per tick, due
/// every `period`. Closed loop (zero period): each sample pushed on its
/// own as soon as the previous push returned. The plan's churn runs at
/// the tick's due time before its pushes. Every batch stays under the
/// per-shard ingress budget, so shedding never comes from timing.
pub fn serve(
    s: &mut Served,
    plan: &Plan,
    period: Duration,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Result<Run, String> {
    let shards = s.fleet.shard_count();
    let mut cur_shard: Vec<usize> = s.keys.iter().map(|&k| s.fleet.home_shard(k)).collect();
    if plan.feeds.len() > s.fleet.queue_capacity() {
        return Err("a tick's batch exceeds the per-shard ingress budget".into());
    }
    let mut run = Run {
        log: vec![Vec::new(); plan.feeds.len()],
        sequential: period.is_zero(),
        ..Run::default()
    };
    let mut churn = plan.churn.iter().peekable();
    let mut churn_failed = 0u64;
    let mut churn_ops = 0u64;
    let cpu0 = process_cpu_s()?;
    // Generator CPU between the fleet calls, subtracted from the process's.
    let mut generator_cpu = 0.0;
    let mut mark = thread_cpu_s()?;
    let start = Instant::now() + period;
    let mut last_return = Instant::now();
    for t in 0..plan.ticks {
        let nan: Vec<bool> = (0..plan.feeds.len()).map(|f| plan.sample(f, t).1).collect();
        let pairs: Vec<(FeedKey, PhasorSample)> = (0..plan.feeds.len())
            .map(|f| (s.keys[f], plan.sample(f, t).0.clone()))
            .collect();
        // Open loop: due on the tick schedule. Closed loop (zero period):
        // due as soon as the previous push returned.
        let due = if period.is_zero() {
            last_return
        } else {
            start + period * t as u32
        };
        wait_until(due);
        run.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        generator_cpu += thread_cpu_s()? - mark;
        let tick_cpu0 = process_cpu_s()?;
        while let Some(&&(ct, f, op)) = churn.peek() {
            if ct != t {
                break;
            }
            churn.next();
            churn_ops += 1;
            let key = s.keys[f];
            let fleet = &s.fleet;
            let ok = match op {
                Churn::Reopen => tracer.time("serve.churn.reopen", || {
                    fleet.close_feed(key) && fleet.open_feed(key).is_ok()
                }),
                Churn::SnapshotRestore => tracer.time("serve.churn.snapshot_restore", || {
                    fleet.snapshot_feed(key).is_ok_and(|snap| {
                        fleet.close_feed(key) && fleet.restore_feed(&snap) == Ok(key)
                    })
                }),
                Churn::Migrate => tracer.time("serve.churn.migrate", || {
                    let to = (cur_shard[f] + 1) % shards;
                    fleet.migrate_feed(key, to).is_ok()
                }),
            };
            cur_shard[f] = match op {
                Churn::Migrate => (cur_shard[f] + 1) % shards,
                _ => fleet.home_shard(key),
            };
            churn_failed += u64::from(!ok);
        }
        // Open loop: one batch per tick. Closed loop: one sample per push,
        // each due when the previous push returned.
        let chunk = if run.sequential { 1 } else { pairs.len() };
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(pairs.len());
        let mut latency = Vec::with_capacity(pairs.len());
        let mut sample_due = due;
        for part in pairs.chunks(chunk) {
            let out = tracer.time("serve.Fleet::push_batch", || s.fleet.push_batch(part));
            let done = Instant::now();
            latency.extend(std::iter::repeat_n(
                (done - sample_due).as_secs_f64() * 1e6,
                part.len(),
            ));
            results.extend(out);
            sample_due = done;
        }
        run.tick_cpu_us.push((process_cpu_s()? - tick_cpu0) * 1e6);
        mark = thread_cpu_s()?;
        last_return = sample_due;
        run.push_s.push((last_return - t0).as_secs_f64());
        run.shard.push(cur_shard.iter().map(|&x| x as u8).collect());
        for (f, ((nan, r), lat)) in nan.iter().zip(results).zip(latency).enumerate() {
            run.latency_us.push(lat);
            run.pushed += 1;
            match r {
                Ok(ev) => {
                    run.log[f].push((t, ev));
                    run.outcomes.push((*nan, Ok(())));
                }
                Err(e) => run.outcomes.push((*nan, Err(e))),
            }
        }
    }
    generator_cpu += thread_cpu_s()? - mark;
    run.cpu_s = process_cpu_s()? - cpu0 - generator_cpu;
    let failed = run
        .outcomes
        .iter()
        .filter(|(nan, r)| match r {
            Ok(()) => *nan,
            Err(ServeError::BadSample(_)) => !*nan,
            Err(_) => true,
        })
        .count() as u64;
    ledger.ops("serve_push", run.pushed, failed);
    if churn_ops > 0 {
        ledger.ops("serve_churn", churn_ops, churn_failed);
    }
    Ok(run)
}

/// One feed's standalone replay.
pub struct Replayed {
    /// `(tick, event)` of every accepted sample.
    pub events: Vec<(usize, StreamEvent)>,
    /// `(tick, seconds)` of every monitor push.
    pub push: Vec<(usize, f64)>,
    /// Traced runs: total seconds of the ingest guard and of
    /// `detect_with_cache` (on a cache of its own) on the same samples.
    pub guard_s: f64,
    pub detect_s: f64,
}

/// Standalone replay of every feed: a fresh `StreamingDetector` per
/// session, restarted where the plan reopens the feed and carried across
/// restores and migrations, fed the accepted samples in order. Traced runs
/// also time the guard and a bare detection of each sample.
pub fn replay(
    plan: &Plan,
    bundles: &[ModelBundle],
    cfg: StreamConfig,
    traced: bool,
) -> Result<Vec<Replayed>, String> {
    let engines: Vec<Engine> = if traced {
        bundles
            .iter()
            .map(|b| Engine::from_bundle(b.clone(), EngineConfig::default()))
            .collect()
    } else {
        Vec::new()
    };
    let feeds: Vec<usize> = (0..plan.feeds.len()).collect();
    par::par_map(&feeds, |&f| {
        let grid = plan.feeds[f].grid;
        let detector = &bundles[grid].detector;
        let mut mon = StreamingDetector::new(detector.clone(), cfg);
        let mut cache = ScoringCache::new();
        let mut out = Replayed { events: Vec::new(), push: Vec::new(), guard_s: 0.0, detect_s: 0.0 };
        for t in 0..plan.ticks {
            if plan.reopens(f, t) {
                mon = StreamingDetector::new(detector.clone(), cfg);
                cache = ScoringCache::new();
            }
            let (sample, nan) = plan.sample(f, t);
            if nan {
                continue;
            }
            if traced {
                let t0 = Instant::now();
                let ok = engines[grid].validate_sample(sample).is_ok();
                out.guard_s += secs(t0);
                let t0 = Instant::now();
                let d = detector.detect_with_cache(sample, &cache);
                out.detect_s += secs(t0);
                let scorable =
                    !matches!(d, Err(ref e) if !matches!(e, pmu_detect::DetectError::InsufficientData { .. }));
                if !ok || !scorable {
                    return Err(format!("feed {f} tick {t}: accepted sample failed the probe"));
                }
            }
            let t0 = Instant::now();
            let ev = mon.push(sample).map_err(|e| format!("feed {f} tick {t}: {e}"))?;
            out.push.push((t, secs(t0)));
            out.events.push((t, ev));
        }
        Ok(out)
    })
    .into_iter()
    .collect()
}

/// Outage episodes: mean ticks from onset to the first `Raised`, and how
/// many episodes were raised and how many named the outaged line in a
/// raise or a relocalization before restoration. An episode that never
/// raises counts its whole outage (restoration minus onset) as its delay,
/// so a missed raise makes the mean worse, never better. A plan without
/// episodes is an error.
pub fn episodes(
    plan: &Plan,
    log: &[Vec<(usize, StreamEvent)>],
) -> Result<(f64, usize, usize), String> {
    if plan.episodes.is_empty() {
        return Err("the plan has no outage episodes".into());
    }
    let mut delays = Vec::new();
    let mut raised = 0;
    let mut localized = 0;
    for ep in &plan.episodes {
        let mut raised_at = None;
        let mut named = false;
        for (t, ev) in &log[ep.feed] {
            if *t < ep.onset || *t >= ep.restore {
                continue;
            }
            match ev {
                StreamEvent::Raised { lines, .. } => {
                    raised_at.get_or_insert(*t);
                    named |= lines.contains(&ep.branch);
                }
                StreamEvent::Relocalized { lines, .. } => named |= lines.contains(&ep.branch),
                _ => {}
            }
        }
        raised += usize::from(raised_at.is_some());
        delays.push((raised_at.unwrap_or(ep.restore) - ep.onset) as f64);
        localized += usize::from(named);
    }
    let outside = log
        .iter()
        .enumerate()
        .flat_map(|(f, events)| events.iter().map(move |(t, ev)| (f, *t, ev)))
        .filter(|(f, t, ev)| {
            matches!(ev, StreamEvent::Raised { .. })
                && !plan
                    .episodes
                    .iter()
                    .any(|ep| ep.feed == *f && *t >= ep.onset && *t < ep.restore)
        })
        .fold(vec![0usize; plan.grids.len()], |mut acc, (f, _, _)| {
            acc[plan.feeds[f].grid] += 1;
            acc
        });
    eprintln!("raises outside outage episodes, per grid: {outside:?}");
    Ok((mean(&delays), raised, localized))
}

/// Check the run: the replay equals the fleet feed by feed, and exactly
/// the injected NaN samples were rejected.
pub fn check_run(run: &Run, replayed: &[Replayed], ledger: &mut Ledger) {
    let replay: Vec<Vec<(usize, StreamEvent)>> =
        replayed.iter().map(|r| r.events.clone()).collect();
    ledger.check("fleet replay", checks::check_replay(&run.log, &replay));
    ledger.check("rejections", checks::check_rejections(&run.outcomes));
}

/// Per-layer readings of the serving path, from the traced replay and
/// from probes timed on the run's own grids. `shards` is the fleet's shard
/// count. Returns `(metric, value)` pairs.
pub fn probe_layers(
    bundles: &[ModelBundle],
    plan: &Plan,
    run: &Run,
    replayed: &[Replayed],
    shards: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let n = replayed.iter().map(|r| r.push.len()).sum::<usize>().max(1) as f64;
    let push: f64 = replayed
        .iter()
        .flat_map(|r| r.push.iter().map(|p| p.1))
        .sum();
    let detect: f64 = replayed.iter().map(|r| r.detect_s).sum();
    out.push((
        "serve.guard_us",
        replayed.iter().map(|r| r.guard_s).sum::<f64>() / n * 1e6,
    ));
    out.push(("detect.detect_us", detect / n * 1e6));
    out.push(("detect.vote_us", (push - detect) / n * 1e6));

    // push_batch minus the standalone pushes of its samples, along the
    // busiest shard of each tick; and how unevenly shards were loaded.
    let mut per_tick = vec![vec![0.0_f64; shards]; plan.ticks];
    for (f, r) in replayed.iter().enumerate() {
        for &(t, dt) in &r.push {
            per_tick[t][run.shard[t][f] as usize] += dt;
        }
    }
    let mut self_s = 0.0;
    let mut shard_total = vec![0.0_f64; shards];
    for (t, loads) in per_tick.iter().enumerate() {
        // Shards drain in parallel within one batch; one-sample pushes
        // run one after another.
        let busiest = if run.sequential {
            loads.iter().sum()
        } else {
            loads.iter().copied().fold(0.0, f64::max)
        };
        self_s += run.push_s[t] - busiest;
        for (k, v) in loads.iter().enumerate() {
            shard_total[k] += v;
        }
    }
    out.push((
        "serve.push_self_us",
        self_s / run.pushed.max(1) as f64 * 1e6,
    ));
    let avg = mean(&shard_total);
    out.push((
        "serve.shard_skew",
        if avg > 0.0 {
            shard_total.iter().copied().fold(0.0, f64::max) / avg
        } else {
            1.0
        },
    ));

    // Pool dispatch at full width, and one flight-recorder write.
    let items: Vec<usize> = (0..par::num_threads().max(2)).collect();
    let spawn: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(par::par_map(&items, |&x| x + 1));
            secs(t0)
        })
        .collect();
    out.push(("numerics.par_spawn_us", median(&spawn) * 1e6));
    let reps = 200_000u64;
    let t0 = Instant::now();
    for i in 0..reps {
        pmu_obs::record!(pmu_obs::RecKind::Metric, "bench.probe", i, 0);
    }
    out.push(("obs.record_ns", secs(t0) / reps as f64 * 1e9));

    // A dark-cluster bank build on the largest grid.
    let largest = (0..plan.grids.len())
        .max_by_key(|&g| plan.grids[g].n)
        .expect("a grid");
    let g = &plan.grids[largest];
    let observed = pmu_sim::missing::cluster_mask(g.n, &g.clustering, 0).observed();
    let subspaces = bundles[largest].detector.subspaces();
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(RestrictedBank::build(subspaces, &observed).map(|b| b.n_blocks()))
                .map_err(|e| e.to_string())
                .map(|_| secs(t0))
        })
        .collect::<Result<_, _>>()?;
    out.push(("detect.bank_build_ms", median(&builds) * 1e3));
    Ok(out)
}

/// Session lifecycle on the largest grid's live feeds, then the memory one
/// more session costs. Runs on the fleet right after serving.
pub fn probe_fleet(s: &Served, plan: &Plan) -> Result<Vec<(&'static str, f64)>, String> {
    let largest = (0..plan.grids.len())
        .max_by_key(|&g| plan.grids[g].n)
        .expect("a grid");
    let mut out = Vec::new();
    let (mut close, mut snap, mut restore, mut migrate) = (vec![], vec![], vec![], vec![]);
    for (f, feed) in plan.feeds.iter().enumerate() {
        if feed.grid != largest {
            continue;
        }
        let key = s.keys[f];
        let fleet = &s.fleet;
        let t0 = Instant::now();
        let sn = fleet.snapshot_feed(key).map_err(|e| e.to_string())?;
        snap.push(secs(t0));
        let t0 = Instant::now();
        let closed = fleet.close_feed(key);
        close.push(secs(t0));
        let t0 = Instant::now();
        let back = fleet.restore_feed(&sn).map_err(|e| e.to_string())?;
        restore.push(secs(t0));
        let to = (fleet.home_shard(key) + 1) % fleet.shard_count();
        let t0 = Instant::now();
        fleet.migrate_feed(key, to).map_err(|e| e.to_string())?;
        migrate.push(secs(t0));
        if !closed || back != key {
            return Err(format!("probe: lifecycle of feed {f} failed"));
        }
    }
    out.push(("serve.close_us", median(&close) * 1e6));
    out.push(("serve.snapshot_us", median(&snap) * 1e6));
    out.push(("serve.restore_us", median(&restore) * 1e6));
    out.push(("serve.migrate_us", median(&migrate) * 1e6));

    let extra = 16u64;
    let gid = s.keys[plan
        .feeds
        .iter()
        .position(|f| f.grid == largest)
        .expect("feed")]
    .grid;
    let before = rss_kb()?;
    for i in 0..extra {
        s.fleet
            .open_feed(FeedKey {
                grid: gid,
                feed: 2_000_000 + i,
            })
            .map_err(|e| e.to_string())?;
    }
    let after = rss_kb()?;
    for i in 0..extra {
        s.fleet.close_feed(FeedKey {
            grid: gid,
            feed: 2_000_000 + i,
        });
    }
    out.push(("serve.session_rss_kb", (after - before) / extra as f64));
    Ok(out)
}
