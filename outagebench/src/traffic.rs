//! Scripted serving traffic: which sample every feed sends at every tick,
//! which faults ride on it, and when sessions churn.
//!
//! A [`Plan`] is fixed, and every sample it sends is built, before serving
//! starts: the serving loop only clones prepared samples, and the fleet run
//! and the standalone replay that checks it see exactly the same inputs.
//! Faults are injected by the program's own
//! [`FaultSchedule`](pmu_sim::faults::FaultSchedule), one per feed; the
//! rates are the constants below, each with its origin.

use std::ops::Range;

use pmu_eval::figures::random_missing_count;
use pmu_grid::cluster::Clustering;
use pmu_numerics::hash::Fnv1a;
use pmu_sim::missing::cluster_mask;
use pmu_sim::{Dataset, FaultKind, FaultSchedule, FaultTag, InjectedSample, PhasorSample, PhasorWindow};

/// Length of the repeating fault script, in ticks. The script is the one
/// perfbench's chaos replay drives an outage session through
/// (`crates/bench/src/bin/perfbench.rs`, `chaos_replay`): of every 24
/// ticks, a PDC blackout on ticks 6..11, a one-tick NaN burst on tick 12
/// and a two-tick corruption burst at scale 5 on ticks 13..15.
pub const FAULT_CYCLE: usize = 24;
const BLACKOUT_TICKS: Range<usize> = 6..11;
const NAN_TICKS: Range<usize> = 12..13;
const CORRUPT_TICKS: Range<usize> = 13..15;
const CORRUPT_SCALE: f64 = 5.0;

/// One feed in this many (the feeds with index 1 modulo it) loses channels
/// at random every tick, each channel with probability
/// `random_missing_count(n) / n`: on average the number of nodes the
/// paper's random-missing experiments (Fig. 8/9) drop.
const DROP_FEED_EVERY: usize = 4;

/// One session lifecycle operation every this many ticks: the pace at which
/// `tests/chaos_serving.rs` (`reopened_keys_start_fresh_and_migrations_lose_nothing`)
/// moves a live session to another shard. The schedule is the same in
/// every run, so every run balances its shards the same way over time.
const CHURN_EVERY: usize = 10;

/// Serving traffic of one grid.
pub struct GridTraffic {
    pub name: String,
    pub n: usize,
    pub clustering: Clustering,
    /// Normal-operation samples the feeds cycle through.
    pub normal: PhasorWindow,
    /// Outage windows and the branch each one takes out.
    pub outages: Vec<(usize, PhasorWindow)>,
}

/// One feed: its grid, its id within the grid, and every sample it sends,
/// with the ground truth of the faults injected into it.
pub struct Feed {
    pub grid: usize,
    pub id: u64,
    pub sent: Vec<InjectedSample>,
}

/// One outage on one feed: onset at `onset`, restoration at `restore`.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    pub feed: usize,
    pub onset: usize,
    pub restore: usize,
    pub branch: usize,
}

/// A session lifecycle operation run between ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// Close the feed and open it again: the new session starts fresh.
    Reopen,
    /// Snapshot, close, and restore from the snapshot: state carries over.
    SnapshotRestore,
    /// Move the session to another shard: state carries over.
    Migrate,
}

/// The whole scripted run.
pub struct Plan {
    pub grids: Vec<GridTraffic>,
    pub feeds: Vec<Feed>,
    pub ticks: usize,
    pub episodes: Vec<Episode>,
    /// `(tick, feed, op)`, sorted by tick; run before the tick's push.
    pub churn: Vec<(usize, usize, Churn)>,
}

/// Deterministic 64-bit mix of the plan seed and a few integers.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

impl GridTraffic {
    /// Traffic from a dataset's held-out windows: its normal test window,
    /// and the test windows of `roster` outage scenarios spread evenly over
    /// its cases (every case when `roster` is `None`).
    pub fn from_dataset(data: &Dataset, clustering: Clustering, roster: Option<usize>) -> Self {
        let cases = data.cases.len();
        let k = roster.unwrap_or(cases).min(cases);
        let outages = (0..k)
            .map(|i| {
                let c = &data.cases[i * cases / k];
                (c.branch, c.test.clone())
            })
            .collect();
        GridTraffic {
            name: data.network.name.clone(),
            n: data.n_nodes(),
            clustering,
            normal: data.normal_test.clone(),
            outages,
        }
    }
}

impl Plan {
    /// The sample `feed` sends at `tick`, and whether it carries a NaN on
    /// an observed channel (the ingest guard must reject it).
    pub fn sample(&self, feed: usize, tick: usize) -> (&PhasorSample, bool) {
        let sent = &self.feeds[feed].sent[tick];
        let mask = sent.sample.mask();
        let nan = sent.tags.iter().any(|tag| match tag {
            FaultTag::NanInjected { nodes } => nodes.iter().any(|&i| !mask.is_missing(i)),
            _ => false,
        });
        (&sent.sample, nan)
    }

    /// Whether a session opened afresh for `feed` at `tick` (the replay
    /// restarts its monitor there).
    pub fn reopens(&self, feed: usize, tick: usize) -> bool {
        self.churn
            .iter()
            .any(|&(t, f, op)| t == tick && f == feed && op == Churn::Reopen)
    }
}

/// Layout of a serving run: feeds per grid, outage episode shape, and
/// whether PMU-network faults and session churn ride on the traffic.
pub struct Layout {
    pub feeds_per_grid: Vec<usize>,
    /// One feed in `outage_every` carries scripted outages.
    pub outage_every: usize,
    /// Ticks of one episode: normal, outage, then restoration.
    pub lead: usize,
    pub outage: usize,
    pub tail: usize,
    /// Faults on every feed (the script above) and churn between ticks.
    pub faults: bool,
}

/// The fault schedule of plan feed `feed`, the `grid`-th grid's, over
/// `ticks` ticks.
///
/// A blackout is a PDC fault: every feed of a grid darkens the same
/// cluster at the same ticks, and the clusters take their turns in a fixed
/// order, whatever the seed. The grids are separate PDC networks, so each
/// runs the script a third of a cycle after the previous one. NaN and
/// corruption bursts are faults of single devices, laid on the feeds that
/// carry outages (`bursts`), as the chaos replay lays them on its outage
/// session: each such feed runs that part of the script at its own phase
/// (shifted by `7 × feed` ticks), on a channel the seed draws away from
/// the reference bus and from any cluster dark at the time. The seed also
/// draws the drop masks.
fn fault_schedule(
    g: &GridTraffic,
    grid: usize,
    feed: usize,
    bursts: bool,
    ticks: usize,
    seed: u64,
) -> FaultSchedule {
    let n = g.n;
    let clusters = g.clustering.n_clusters();
    let grid_shift = grid * FAULT_CYCLE / 3;
    let feed_shift = (7 * feed) % FAULT_CYCLE;
    // The cycle a tick falls in, on this grid's blackout phase.
    let cycle = |tick: usize| (tick + FAULT_CYCLE - grid_shift) / FAULT_CYCLE;
    let dark = |k: usize| cluster_mask(n, &g.clustering, k % clusters).missing_nodes();
    let dark_at = |tick: usize| {
        let phase = (tick + FAULT_CYCLE - grid_shift) % FAULT_CYCLE;
        if BLACKOUT_TICKS.contains(&phase) {
            dark(cycle(tick))
        } else {
            Vec::new()
        }
    };
    let victim = |salt: u64, at: &Range<usize>| {
        let dark: Vec<usize> = at.clone().flat_map(dark_at).collect();
        let pool: Vec<usize> = (1..n).filter(|i| !dark.contains(i)).collect();
        pool[(mix(seed, &[salt, feed as u64, at.start as u64]) as usize) % pool.len()]
    };
    let shifted = |r: &Range<usize>, at: usize| at + r.start..at + r.end;
    let mut schedule = FaultSchedule::new(mix(seed, &[2, feed as u64]));
    if feed % DROP_FEED_EVERY == 1 {
        let p = random_missing_count(n) as f64 / n as f64;
        schedule = schedule.window(0, ticks, FaultKind::Drop { p });
    }
    for at in (0..ticks).step_by(FAULT_CYCLE) {
        let blackout = shifted(&BLACKOUT_TICKS, at + grid_shift);
        schedule = schedule.window(
            blackout.start,
            blackout.end,
            FaultKind::Blackout {
                nodes: dark(cycle(blackout.start)),
            },
        );
        if !bursts {
            continue;
        }
        let nan = shifted(&NAN_TICKS, at + feed_shift);
        let corrupt = shifted(&CORRUPT_TICKS, at + feed_shift);
        schedule = schedule
            .window(
                nan.start,
                nan.end,
                FaultKind::NanBurst {
                    nodes: vec![victim(3, &nan)],
                },
            )
            .window(
                corrupt.start,
                corrupt.end,
                FaultKind::Corrupt {
                    nodes: vec![victim(4, &corrupt)],
                    scale: CORRUPT_SCALE,
                },
            );
    }
    schedule
}

/// Build the plan for `ticks` ticks over `grids`, every sample included.
pub fn plan(grids: Vec<GridTraffic>, layout: &Layout, ticks: usize, seed: u64) -> Plan {
    let period = layout.lead + layout.outage + layout.tail;
    let mut feeds = Vec::new();
    let mut episodes = Vec::new();
    for (gi, g) in grids.iter().enumerate() {
        for j in 0..layout.feeds_per_grid[gi] {
            let feed = feeds.len();
            let np = g.normal.len();
            let stride = 1 + (mix(seed, &[4, feed as u64]) as usize) % np.saturating_sub(1).max(1);
            let carries_outages = j % layout.outage_every == 0 && !g.outages.is_empty();
            let offset = (feed * 7) % period;
            let mut clean = Vec::with_capacity(ticks);
            for t in 0..ticks {
                let phase = (t + period - offset) % period;
                let in_outage = carries_outages
                    && t >= offset
                    && phase >= layout.lead
                    && phase < layout.lead + layout.outage;
                if in_outage {
                    let episode = (t - offset) / period;
                    let carriers = layout.feeds_per_grid[gi].div_ceil(layout.outage_every);
                    let rotate = mix(seed, &[6, gi as u64]) as usize;
                    let slot =
                        (j / layout.outage_every + episode * carriers + rotate) % g.outages.len();
                    let window = &g.outages[slot].1;
                    clean.push(window.sample((phase - layout.lead) % window.len()));
                    if phase == layout.lead {
                        let restore = t + layout.outage;
                        if restore <= ticks {
                            episodes.push(Episode {
                                feed,
                                onset: t,
                                restore,
                                branch: g.outages[slot].0,
                            });
                        }
                    }
                } else {
                    clean.push(g.normal.sample((t * stride + feed * 13) % np));
                }
            }
            let schedule = if layout.faults {
                fault_schedule(g, gi, feed, carries_outages, ticks, seed)
            } else {
                FaultSchedule::new(0)
            };
            feeds.push(Feed {
                grid: gi,
                id: j as u64,
                sent: schedule.apply(&clean),
            });
        }
    }
    let mut churn = Vec::new();
    if layout.faults {
        let ops = [Churn::Reopen, Churn::SnapshotRestore, Churn::Migrate];
        for (i, t) in (CHURN_EVERY..ticks).step_by(CHURN_EVERY).enumerate() {
            // Each pass over the feeds shifts the operations by one, so
            // every feed meets every operation.
            let op = ops[(i + i / feeds.len()) % ops.len()];
            churn.push((t, (i * 5) % feeds.len(), op));
        }
    }
    Plan {
        grids,
        feeds,
        ticks,
        episodes,
        churn,
    }
}
