//! End-to-end and per-layer benchmark of `pmu-outage`.
//!
//! ```text
//! outagebench --workload offline|serve_steady|serve_faults \
//!             --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`. Per-phase operation counts, check
//! results and (traced) the layer table go to standard error. Exits
//! non-zero when an output check fails. See README.md.

mod checks;
mod model;
mod serving;
mod trace;
mod traffic;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use pmu_detect::stream::StreamConfig;
use pmu_model::ModelBundle;
use serde::Deserialize as _;

use model::{EvalBudget, ModelReport, Regime};
use trace::Tracer;
use traffic::{GridTraffic, Layout, Plan};
use util::{median, quantile, secs, Ledger, Metric};

/// End-to-end metrics, in report order.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("retrain_s", "s"),
    ("bundle_load_s", "s"),
    ("bundle_bytes", "bytes"),
    ("eval_samples_per_s", "samples/s"),
    ("lines_identified", "count"),
    ("push_p50_us", "us"),
    ("tick_cpu_p95_us", "us"),
    ("cpu_us_per_sample", "us"),
    ("detect_delay_ticks", "ticks"),
    ("events_localized", "count"),
    ("session_open_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in report order.
const PER_LAYER: [(&str, &str); 44] = [
    ("flow.solve_ac_ms", "ms"),
    ("flow.nr_solves", "count"),
    ("sim.generate_s", "s"),
    ("detect.learn_subspaces_s", "s"),
    ("detect.ellipses_s", "s"),
    ("detect.capabilities_s", "s"),
    ("detect.groups_s", "s"),
    ("detect.train_self_s", "s"),
    ("baseline.train_s", "s"),
    ("model.train_self_s", "s"),
    ("model.save_s", "s"),
    ("model.reused_bases", "count"),
    ("model.read_ms", "ms"),
    ("model.parse_s", "s"),
    ("model.verify_s", "s"),
    ("model.decode_s", "s"),
    ("detect.bank_build_ms", "ms"),
    ("detect.batch_us_per_sample", "us"),
    ("detect.bank_cache_miss", "count"),
    ("detect.node_cache_miss", "count"),
    ("detect.robust_cache_miss", "count"),
    ("detect.bad_data_excised", "count"),
    ("serve.guard_us", "us"),
    ("detect.detect_us", "us"),
    ("detect.stage1_us", "us"),
    ("detect.stage2_us", "us"),
    ("detect.stage3_us", "us"),
    ("detect.vote_us", "us"),
    ("serve.push_self_us", "us"),
    // The 95th- and 99th-percentile push latencies of the untraced pass.
    // On a virtual machine whose hypervisor takes its CPUs away now and
    // then, the slowest ticks are the ones it stalled (wall time far above
    // the tick's CPU time), so these readings vary too much between runs
    // to be gated; `tick_cpu_p95_us` is the gated tail.
    ("serve.push_p95_us", "us"),
    ("serve.push_p99_us", "us"),
    ("numerics.par_spawn_us", "us"),
    ("obs.record_ns", "ns"),
    ("serve.shard_skew", "ratio"),
    ("detect.shortlist_hits", "count"),
    ("detect.shortlist_fallbacks", "count"),
    ("serve.close_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.restore_us", "us"),
    ("serve.migrate_us", "us"),
    ("serve.session_rss_kb", "kB"),
    ("bench.late_us", "us"),
    ("bench.unaccounted_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Program counters a traced run reads, summed over the whole run.
const COUNTERS: [&str; 6] = [
    "detect.bank_cache_miss",
    "detect.node_cache_miss",
    "detect.robust_cache_miss",
    "detect.bad_data_excised",
    "detect.shortlist_hits",
    "detect.shortlist_fallbacks",
];

/// The three serving grids, smallest first.
const SERVE_GRIDS: [&str; 3] = ["ieee14", "ieee57", "ieee118"];
/// Feeds per serving grid.
const SERVE_FEEDS: [usize; 3] = [12, 8, 4];
/// Outage scenarios each serving grid's outage feeds cycle through.
const SERVE_ROSTER: usize = 8;
/// Serving tick rate: one batch every this many milliseconds (50 frames
/// per second, a standard PMU reporting rate).
const SERVE_PERIOD_MS: u64 = 20;
/// Serving lasts this many times `--seconds`, so that the 95th percentiles
/// have dozens of ticks beyond them (37 at `--seconds 10`).
const SERVE_SPAN: f64 = 1.5;
/// Offline backtest: feeds replaying held-out outages, and how many times
/// every outage is replayed (a few seconds of pushes in all).
const BACKTEST_FEEDS: usize = 6;
const BACKTEST_PASSES: usize = 3;
/// The backtest replays as fast as the fleet takes it: each tick is due
/// when the previous push returns.
const BACKTEST_PERIOD_MS: u64 = 0;
/// Held-out evaluation rounds per grid in the serving workloads' model
/// phase (the offline workload evaluates for `--seconds` instead).
const SERVE_EVAL_ROUNDS: usize = 5;
/// The offline evaluation scores every third held-out scenario, so that
/// `--seconds` holds many short rounds.
const OFFLINE_EVAL_STRIDE: usize = 3;
/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["offline", "serve_steady", "serve_faults"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for bundles, inside the working directory; removed
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One pass of a workload: its end-to-end readings and, when traced, its
/// layer readings and spans.
struct Pass {
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    tracer: Tracer,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("model-phase") {
        model_phase_child(&argv[1..])
    } else {
        run(&argv)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("outagebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let work = WorkDir::new()?;
    let mut ledger = Ledger::default();
    let untraced = run_pass(&args, &work.0, false, &mut ledger)?;
    let metrics: Vec<Metric> = if args.trace {
        pmu_obs::reset_metrics();
        pmu_obs::set_metrics_enabled(true);
        let traced = run_pass(&args, &work.0, true, &mut ledger)?;
        pmu_obs::set_metrics_enabled(false);
        let layers = layer_table(&args.workload, &untraced, &traced);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: lookup(&layers, name),
                unit,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: lookup(&untraced.e2e, name),
                unit,
            })
            .collect()
    };
    ledger.print();
    for m in &metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = ledger.check_failures.is_empty();
    let line = util::result_json(correct, ledger.attempted(), ledger.failed(), &metrics)?;
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn lookup(pairs: &[(&'static str, f64)], name: &str) -> f64 {
    pairs
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// One pass of a workload. Untraced passes repeat the long single-shot
/// timings (training, set-up) before and after serving and report their
/// medians; the traced pass runs each once.
fn run_pass(args: &Args, dir: &Path, traced: bool, ledger: &mut Ledger) -> Result<Pass, String> {
    let tracer = Tracer::new(traced);
    let counters0 = counters();
    let offline = args.workload == "offline";
    let mut train_times = Vec::new();
    let mut parity = None;
    // The offline grid and its held-out set, for the second half of the
    // evaluation.
    let mut offline_eval = None;
    // Training repeated after serving, for the median.
    let train_again = |ledger: &mut Ledger| -> Result<f64, String> {
        if offline {
            model::time_training("ieee118", model::MODEL_SEED, dir, ledger)
        } else {
            Ok(model_phase_in_child(dir, ChildMode::TrainOnly, false, ledger)?.train_s)
        }
    };
    let (mut rep, paths, plan, period) = if offline {
        let mut rep = ModelReport::default();
        let tr = model::train_grid("ieee118", model::MODEL_SEED, dir, &tracer, &mut rep, ledger)?;
        model::retrain(&tr, args.seed, &tracer, &mut rep, ledger)?;
        let set = model::eval_set(&tr, &Regime::ALL, OFFLINE_EVAL_STRIDE, args.seed);
        let first = model::evaluate(
            &tr,
            &set,
            EvalBudget::Seconds(args.seconds / 2.0),
            &tracer,
            &mut rep,
            ledger,
        );
        parity = Some(first);
        let plan = backtest_plan(&tr, args.seed);
        let paths = vec![tr.path.clone()];
        offline_eval = Some((tr, set));
        (
            rep,
            paths,
            plan,
            Duration::from_millis(BACKTEST_PERIOD_MS),
        )
    } else {
        let faults = args.workload == "serve_faults";
        let mode = if faults {
            ChildMode::Masked
        } else {
            ChildMode::Complete
        };
        let rep = model_phase_in_child(dir, mode, traced, ledger)?;
        let paths: Vec<PathBuf> = SERVE_GRIDS
            .iter()
            .map(|g| dir.join(format!("{g}.bundle.json")))
            .collect();
        (
            rep,
            paths,
            serve_plan(args, faults),
            Duration::from_millis(SERVE_PERIOD_MS),
        )
    };
    train_times.push(rep.train_s);
    let reps = if traced { 1 } else { SETUP_REPS - 1 };
    let (mut served, mut times) = serving::setup(&paths, &plan, reps, &tracer, ledger)?;
    if let (Some(first), Some((_, set))) = (parity, &offline_eval) {
        // Reload parity on the cheap regimes: the loaded bundle must detect
        // exactly as the trained one did.
        let keep: Vec<usize> = set
            .ranges
            .iter()
            .filter(|(r, _, _)| matches!(r, Regime::Complete | Regime::DarkCluster))
            .flat_map(|&(_, a, b)| a..b)
            .collect();
        let samples: Vec<pmu_sim::PhasorSample> =
            keep.iter().map(|&i| set.samples[i].clone()).collect();
        let again = served.bundles[0]
            .detector
            .detect_batch_with_cache(&samples, &pmu_detect::ScoringCache::new());
        let before: Vec<_> = keep.iter().map(|&i| first[i].clone()).collect();
        ledger.check("reload parity", checks::check_identical(&before, &again));
    }
    let counters1 = counters();
    if traced {
        pmu_obs::reset_metrics();
    }
    let run = serving::serve(&mut served, &plan, period, &tracer, ledger)?;
    let peak_rss_mb = util::peak_rss_mb()?;
    let stage_us: Vec<(&'static str, f64)> =
        ["detect.stage1_us", "detect.stage2_us", "detect.stage3_us"]
            .iter()
            .map(|&h| {
                // An empty histogram has no mean; NaN fails the traced run.
                let hist = pmu_obs::metrics::histogram(h);
                (h, if hist.count() == 0 { f64::NAN } else { hist.mean() })
            })
            .collect();
    let fleet_layers = if traced {
        serving::probe_fleet(&served, &plan)?
    } else {
        Vec::new()
    };
    // The sessions' caches are not needed past this point.
    let serving::Served { fleet, bundles, .. } = served;
    let shards = fleet.shard_count();
    drop(fleet);
    let replayed = serving::replay(&plan, &bundles, StreamConfig::default(), traced)?;
    ledger.ops(
        "replay_push",
        replayed.iter().map(|r| r.events.len() as u64).sum(),
        0,
    );
    serving::check_run(&run, &replayed, ledger);
    let (delay, raised, localized) = serving::episodes(&plan, &run.log)?;
    eprintln!(
        "{} episodes: {raised} raised, {localized} localized, mean delay {delay:.3} ticks",
        plan.episodes.len()
    );
    if let Some((tr, set)) = &offline_eval {
        // The second half of the evaluation, after set-up and backtest: a
        // shared machine changes speed over seconds to minutes, and two
        // halves apart see more of its states than one stretch does.
        let mut later = ModelReport::default();
        let budget = EvalBudget::Seconds(args.seconds / 2.0);
        model::evaluate(tr, set, budget, &tracer, &mut later, ledger);
        rep.eval_s += later.eval_s;
        rep.eval_samples += later.eval_samples;
    }
    if !traced {
        // The last repetitions, spread past the serving phase.
        let (_, more) = serving::setup(&paths, &plan, 1, &tracer, ledger)?;
        times.setup_s.extend(more.setup_s);
        times.load_s.extend(more.load_s);
        times.open_us.extend(more.open_us);
        train_times.push(train_again(ledger)?);
    }
    rep.train_s = median(&train_times);

    let e2e = vec![
        ("setup_s", median(&times.setup_s)),
        ("train_s", rep.train_s),
        ("retrain_s", rep.retrain_s),
        ("bundle_load_s", median(&times.load_s)),
        ("bundle_bytes", rep.bundle_bytes as f64),
        ("eval_samples_per_s", rep.eval_samples as f64 / rep.eval_s),
        ("lines_identified", rep.lines_identified as f64),
        ("push_p50_us", quantile(&run.latency_us, 0.5)),
        ("push_p95_us", quantile(&run.latency_us, 0.95)),
        ("push_p99_us", quantile(&run.latency_us, 0.99)),
        ("tick_cpu_p95_us", quantile(&run.tick_cpu_us, 0.95)),
        ("cpu_us_per_sample", run.cpu_s / run.pushed as f64 * 1e6),
        ("detect_delay_ticks", delay),
        ("events_localized", localized as f64),
        ("session_open_us", median(&times.open_us)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let mut layers = Vec::new();
    if traced {
        layers.append(&mut rep.layers);
        let counters2 = counters();
        for (i, name) in COUNTERS.iter().enumerate() {
            let child = lookup(&layers, name);
            let own = (counters1[i] - counters0[i]) + counters2[i];
            layers.retain(|(n, _)| n != name);
            layers.push((name, own as f64 + if child.is_nan() { 0.0 } else { child }));
        }
        layers.push((
            "detect.batch_us_per_sample",
            rep.eval_s / rep.eval_samples as f64 * 1e6,
        ));
        layers.extend(stage_us);
        layers.extend(bundle_file_layers(&paths)?);
        layers.extend(fleet_layers);
        layers.extend(serving::probe_layers(
            &bundles, &plan, &run, &replayed, shards,
        )?);
        layers.push(("bench.late_us", util::mean(&run.late_us)));
    }
    Ok(Pass {
        e2e,
        layers,
        tracer,
    })
}

fn counters() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|&c| pmu_obs::metrics::counter(c).get())
        .collect()
}

/// Read, parse, verify and decode each serving bundle file on its own.
fn bundle_file_layers(paths: &[PathBuf]) -> Result<Vec<(&'static str, f64)>, String> {
    let (mut read, mut parse, mut verify, mut decode) = (0.0, 0.0, 0.0, 0.0);
    for path in paths {
        let t = std::time::Instant::now();
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        read += secs(t);
        let t = std::time::Instant::now();
        let envelope: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        parse += secs(t);
        let payload = serde::obj_get(&envelope, "bundle").map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        let rendered = serde_json::to_string(payload).map_err(|e| e.to_string())?;
        std::hint::black_box(pmu_numerics::hash::fnv1a(rendered.as_bytes()));
        verify += secs(t);
        let t = std::time::Instant::now();
        std::hint::black_box(ModelBundle::from_value(payload).map_err(|e| e.to_string())?);
        decode += secs(t);
    }
    Ok(vec![
        ("model.read_ms", read * 1e3),
        ("model.parse_s", parse),
        ("model.verify_s", verify),
        ("model.decode_s", decode),
    ])
}

/// The offline backtest: every held-out outage of the trained grid,
/// replayed `BACKTEST_PASSES` times through a one-grid fleet as normal,
/// outage and restoration ticks (five each, the test window's length).
fn backtest_plan(tr: &model::Trained, seed: u64) -> Plan {
    let grid = GridTraffic::from_dataset(&tr.data, tr.bundle.detector.clustering().clone(), None);
    let len = tr.gen.test_len;
    let layout = Layout {
        feeds_per_grid: vec![BACKTEST_FEEDS],
        outage_every: 1,
        lead: len,
        outage: len,
        tail: len,
        faults: false,
    };
    let period = 3 * len;
    let ticks = period + BACKTEST_PASSES * tr.data.cases.len().div_ceil(BACKTEST_FEEDS) * period;
    traffic::plan(vec![grid], &layout, ticks, seed)
}

/// The serving plan for `--seconds` at the serving tick rate. The traffic
/// is the held-out test data of the served bundles' own datasets
/// (regenerated here, outside every timed phase); the seed lays it out
/// over feeds and ticks and draws the faults.
fn serve_plan(args: &Args, faults: bool) -> Plan {
    let grids = SERVE_GRIDS
        .iter()
        .map(|name| {
            let net = pmu_grid::cases::by_name(name)
                .expect("embedded case")
                .expect("embedded case parses");
            let gen = pmu_eval::EvalScale::Fast.gen_config(model::MODEL_SEED);
            let data = pmu_sim::generate_dataset(&net, &gen).expect("dataset generation");
            let k = pmu_detect::detector::default_config_for(&net)
                .n_clusters
                .min(net.n_buses());
            let clustering = pmu_grid::cluster::partition_clusters(&net, k)
                .expect("clustering of an embedded case");
            GridTraffic::from_dataset(&data, clustering, Some(SERVE_ROSTER))
        })
        .collect();
    let layout = Layout {
        feeds_per_grid: SERVE_FEEDS.to_vec(),
        outage_every: 4,
        lead: 10,
        outage: 12,
        tail: 10,
        faults,
    };
    let ticks = ((SERVE_SPAN * args.seconds * 1000.0) / SERVE_PERIOD_MS as f64)
        .round()
        .max(1.0) as usize;
    traffic::plan(grids, &layout, ticks, args.seed)
}

/// What a model-phase child runs.
#[derive(Clone, Copy)]
enum ChildMode {
    /// Train, retrain and evaluate under complete data.
    Complete,
    /// Train, retrain and evaluate under complete data and a dark cluster.
    Masked,
    /// Only generate, train and save again, for the `train_s` median.
    TrainOnly,
}

/// Run the serving workloads' model phase in a child process, so that the
/// serving process's peak memory is its own. The child trains into `dir`.
fn model_phase_in_child(
    dir: &Path,
    mode: ChildMode,
    traced: bool,
    ledger: &mut Ledger,
) -> Result<ModelReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mode = match mode {
        ChildMode::Complete => "complete",
        ChildMode::Masked => "masked",
        ChildMode::TrainOnly => "train-only",
    };
    let out = std::process::Command::new(exe)
        .arg("model-phase")
        .arg(dir)
        .arg(mode)
        .arg(if traced { "1" } else { "0" })
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("model phase: {e}"))?;
    if !out.status.success() {
        return Err(format!("model phase exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut rep = ModelReport::default();
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| {
            parts
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(f64::NAN)
        };
        match parts.first().copied() {
            Some("train_s") => rep.train_s = num(1),
            Some("retrain_s") => rep.retrain_s = num(1),
            Some("eval_samples") => rep.eval_samples = num(1) as u64,
            Some("eval_s") => rep.eval_s = num(1),
            Some("lines_identified") => rep.lines_identified = num(1) as u64,
            Some("bundle_bytes") => rep.bundle_bytes = num(1) as u64,
            Some("layer") => {
                let name = PER_LAYER
                    .iter()
                    .map(|(n, _)| *n)
                    .find(|n| Some(n) == parts.get(1))
                    .ok_or_else(|| format!("model phase reported unknown layer {line}"))?;
                rep.add_layer(name, num(2));
            }
            Some("ops") => ledger.ops(
                parts.get(1).copied().unwrap_or("?"),
                num(2) as u64,
                num(3) as u64,
            ),
            Some("checkfail") => ledger.check_failures.push(line[10..].to_string()),
            _ => {}
        }
    }
    Ok(rep)
}

/// Child entry point: `model-phase <dir> <complete|masked|train-only> <0|1>`.
/// Trains, retrains and evaluates the serving grids (or, `train-only`,
/// repeats their training) and prints one `key value` line per reading on
/// standard output.
fn model_phase_child(argv: &[String]) -> Result<ExitCode, String> {
    let [dir, mode, traced] = argv else {
        return Err("model-phase <dir> <complete|masked|train-only> <0|1>".into());
    };
    let dir = Path::new(dir);
    let traced = traced == "1";
    if traced {
        pmu_obs::set_metrics_enabled(true);
    }
    let tracer = Tracer::new(traced);
    let mut rep = ModelReport::default();
    let mut ledger = Ledger::default();
    let regimes: &[Regime] = match mode.as_str() {
        "complete" => &[Regime::Complete],
        "masked" => &[Regime::Complete, Regime::DarkCluster],
        "train-only" => &[],
        _ => return Err(format!("unknown model-phase mode {mode}")),
    };
    for name in SERVE_GRIDS {
        if regimes.is_empty() {
            rep.train_s += model::time_training(name, model::MODEL_SEED, dir, &mut ledger)?;
            continue;
        }
        let tr = model::train_grid(name, model::MODEL_SEED, dir, &tracer, &mut rep, &mut ledger)?;
        model::retrain(&tr, model::MODEL_SEED, &tracer, &mut rep, &mut ledger)?;
        let set = model::eval_set(&tr, regimes, 1, model::MODEL_SEED);
        model::evaluate(
            &tr,
            &set,
            EvalBudget::Rounds(SERVE_EVAL_ROUNDS),
            &tracer,
            &mut rep,
            &mut ledger,
        );
    }
    println!("train_s {:?}", rep.train_s);
    println!("retrain_s {:?}", rep.retrain_s);
    println!("eval_samples {}", rep.eval_samples);
    println!("eval_s {:?}", rep.eval_s);
    println!("lines_identified {}", rep.lines_identified);
    println!("bundle_bytes {}", rep.bundle_bytes);
    if traced {
        for (name, v) in &rep.layers {
            println!("layer {name} {v:?}");
        }
        for (name, v) in COUNTERS.iter().zip(counters()) {
            println!("layer {name} {v}");
        }
    }
    for p in &ledger.phases {
        println!("ops {} {} {}", p.name, p.attempted, p.failed);
    }
    for f in &ledger.check_failures {
        println!("checkfail {f}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Print the per-layer table of a traced run and return every per-layer
/// reading, with the unaccounted share and the tracing overhead.
fn layer_table(workload: &str, untraced: &Pass, traced: &Pass) -> Vec<(&'static str, f64)> {
    let mut layers = traced.layers.clone();
    let get = |name: &str| lookup(&layers, name);
    // The headline end-to-end path of the workload and the layers on it.
    let (headline, path): (&str, Vec<&str>) = if workload == "offline" {
        (
            "train_s",
            vec![
                "sim.generate_s",
                "detect.learn_subspaces_s",
                "detect.ellipses_s",
                "detect.capabilities_s",
                "detect.groups_s",
                "detect.train_self_s",
                "baseline.train_s",
                "model.train_self_s",
                "model.save_s",
            ],
        )
    } else {
        // CPU per pushed sample against the per-sample layers of the push
        // path; what is left is fleet and pool work.
        (
            "cpu_us_per_sample",
            vec!["serve.guard_us", "detect.detect_us", "detect.vote_us"],
        )
    };
    let e2e_untraced = lookup(&untraced.e2e, headline);
    let accounted: f64 = path.iter().map(|n| get(n)).sum();
    let unaccounted_pct = (e2e_untraced - accounted) / e2e_untraced * 100.0;
    let overhead_name = if workload == "offline" {
        "train_s"
    } else {
        "push_p50_us"
    };
    let u = lookup(&untraced.e2e, overhead_name);
    let t = lookup(&traced.e2e, overhead_name);
    let overhead_pct = (t - u) / u * 100.0;
    layers.push(("bench.unaccounted_pct", unaccounted_pct));
    layers.push(("bench.trace_overhead_pct", overhead_pct));
    layers.push(("serve.push_p95_us", lookup(&untraced.e2e, "push_p95_us")));
    layers.push(("serve.push_p99_us", lookup(&untraced.e2e, "push_p99_us")));

    eprintln!("--- spans of the traced pass ---");
    traced.tracer.print();
    eprintln!("--- per-layer readings ({workload}) ---");
    for (name, unit) in PER_LAYER {
        eprintln!("{name:<28} {:>16.6} {unit}", lookup(&layers, name));
    }
    eprintln!("--- {headline}: untraced {e2e_untraced:.6}, on-path layers {accounted:.6}, unaccounted {unaccounted_pct:.2}% ---");
    eprintln!("--- end-to-end, untraced vs traced ---");
    for (name, unit) in END_TO_END {
        let u = lookup(&untraced.e2e, name);
        let t = lookup(&traced.e2e, name);
        eprintln!(
            "{name:<24} {u:>16.6} {t:>16.6} {:>8.2}% {unit}",
            (t - u) / u * 100.0
        );
    }
    layers
}
