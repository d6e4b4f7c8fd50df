//! The model phase every workload runs: generate each grid's dataset,
//! train and save its bundle, retrain it incrementally after one
//! scenario's training window changes, and batch-score its held-out test
//! set under complete data and the paper's missing-data regimes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pmu_baseline::{MlrConfig, MlrDetector};
use pmu_detect::{DetectError, Detection, Detector, DetectorConfig, ScoringCache};
use pmu_eval::EvalScale;
use pmu_grid::Network;
use pmu_model::ModelBundle;
use pmu_sim::missing::{cluster_mask, outage_endpoints_mask, MissingPattern};
use pmu_sim::{generate_dataset, Dataset, GenConfig, Mask, PhasorSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks;
use crate::trace::Tracer;
use crate::util::{median, secs, Ledger};

/// Incremental rebuilds per grid, each after a different scenario changes.
const RETRAIN_REPS: usize = 9;

/// Seed of every workload's training datasets. The model is the same in
/// every run; `--seed` varies what it is asked to do: which scenarios
/// change, the missing-data masks, and the layout and faults of the
/// traffic.
pub const MODEL_SEED: u64 = 2017;

/// A missing-data regime of the held-out evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Every channel present.
    Complete,
    /// Both endpoints of the outaged line dark (Fig. 6, top row).
    EndpointsDark,
    /// The paper's random-missing count of channels (Fig. 8/9,
    /// `random_missing_count`) dropped at random, one mask per scenario.
    RandomDrops,
    /// One PDC cluster dark, one cluster per scenario.
    DarkCluster,
}

impl Regime {
    pub const ALL: [Regime; 4] = [
        Regime::Complete,
        Regime::EndpointsDark,
        Regime::RandomDrops,
        Regime::DarkCluster,
    ];
}

/// How long the held-out evaluation runs.
#[derive(Debug, Clone, Copy)]
pub enum EvalBudget {
    /// Whole rounds until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

/// One grid after training.
pub struct Trained {
    pub name: String,
    pub net: Network,
    pub data: Dataset,
    pub gen: GenConfig,
    pub det_cfg: DetectorConfig,
    pub mlr_cfg: MlrConfig,
    pub bundle: ModelBundle,
    pub path: PathBuf,
}

/// Held-out samples of one grid under every evaluated regime.
pub struct EvalSet {
    pub samples: Vec<PhasorSample>,
    /// Outaged branch of each sample (`None` for normal operation).
    pub truth: Vec<Option<usize>>,
    /// `(regime, start, end)` ranges into `samples`.
    pub ranges: Vec<(Regime, usize, usize)>,
}

/// What the model phase measured.
#[derive(Debug, Default)]
pub struct ModelReport {
    pub train_s: f64,
    pub retrain_s: f64,
    pub eval_samples: u64,
    pub eval_s: f64,
    pub lines_identified: u64,
    pub bundle_bytes: u64,
    /// Per-layer readings (traced runs only), summed over grids.
    pub layers: Vec<(&'static str, f64)>,
}

impl ModelReport {
    /// Keep the largest reading of `name` (for per-call costs, where the
    /// largest grid is the one that matters).
    pub fn max_layer(&mut self, name: &'static str, v: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x = x.max(v),
            None => self.layers.push((name, v)),
        }
    }

    pub fn add_layer(&mut self, name: &'static str, v: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x += v,
            None => self.layers.push((name, v)),
        }
    }
}

/// Generate, train and save one grid's bundle (`train_s` is the whole
/// sequence). Traced runs time each training stage on its own as well.
pub fn train_grid(
    name: &str,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    report: &mut ModelReport,
    ledger: &mut Ledger,
) -> Result<Trained, String> {
    let net = pmu_grid::cases::by_name(name)
        .ok_or_else(|| format!("unknown grid {name}"))?
        .map_err(|e| e.to_string())?;
    let gen = EvalScale::Fast.gen_config(seed);
    let det_cfg = pmu_detect::detector::default_config_for(&net);
    let mlr_cfg = MlrConfig::default();
    let path = dir.join(format!("{name}.bundle.json"));

    let nr_before = pmu_obs::counter!("flow.nr_solves").get();
    let started = Instant::now();
    let data = tracer
        .time("sim.generate_dataset", || generate_dataset(&net, &gen))
        .map_err(|e| format!("{name}: generate: {e}"))?;
    let bundle = tracer
        .time("model.ModelBundle::train", || {
            ModelBundle::train(&data, &gen, &det_cfg, &mlr_cfg)
        })
        .map_err(|e| format!("{name}: train: {e}"))?;
    tracer
        .time("model.ModelBundle::save", || bundle.save(&path))
        .map_err(|e| format!("{name}: save: {e}"))?;
    report.train_s += secs(started);
    ledger.ops("train", 3, 0);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    report.bundle_bytes += bytes;

    if tracer.enabled() {
        let solves: Vec<f64> = (0..10)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(pmu_flow::solve_ac(&net, &gen.ac));
                secs(t)
            })
            .collect();
        report.max_layer("flow.solve_ac_ms", median(&solves) * 1e3);
        report.add_layer("sim.generate_s", tracer.last("sim.generate_dataset"));
        report.add_layer(
            "flow.nr_solves",
            (pmu_obs::counter!("flow.nr_solves").get() - nr_before) as f64,
        );
        report.add_layer("model.save_s", tracer.last("model.ModelBundle::save"));
        train_stage_layers(&data, &net, &det_cfg, &mlr_cfg, tracer, report)?;
        let bundle_s = tracer.last("model.ModelBundle::train");
        let det_s = tracer.last("detect.Detector::train");
        let mlr_s = tracer.last("baseline.MlrDetector::train");
        report.add_layer("model.train_self_s", bundle_s - det_s - mlr_s);
    }
    Ok(Trained {
        name: name.to_string(),
        net,
        data,
        gen,
        det_cfg,
        mlr_cfg,
        bundle,
        path,
    })
}

/// Generate, train and save `name`'s bundle once more, into `dir`, and
/// return the seconds it took: a repetition of [`train_grid`]'s timed
/// sequence, for the median `train_s` reports.
pub fn time_training(
    name: &str,
    seed: u64,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<f64, String> {
    let net = pmu_grid::cases::by_name(name)
        .ok_or_else(|| format!("unknown grid {name}"))?
        .map_err(|e| e.to_string())?;
    let gen = EvalScale::Fast.gen_config(seed);
    let det_cfg = pmu_detect::detector::default_config_for(&net);
    let mlr_cfg = MlrConfig::default();
    let path = dir.join(format!("{name}.repeat.bundle.json"));
    let started = Instant::now();
    let data = generate_dataset(&net, &gen).map_err(|e| format!("{name}: generate: {e}"))?;
    let bundle = ModelBundle::train(&data, &gen, &det_cfg, &mlr_cfg)
        .map_err(|e| format!("{name}: train: {e}"))?;
    bundle
        .save(&path)
        .map_err(|e| format!("{name}: save: {e}"))?;
    let s = secs(started);
    ledger.ops("train", 3, 0);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Time the public training stages of the detector and the baseline one
/// by one (traced runs only).
fn train_stage_layers(
    data: &Dataset,
    net: &Network,
    cfg: &DetectorConfig,
    mlr_cfg: &MlrConfig,
    tracer: &Tracer,
    report: &mut ModelReport,
) -> Result<(), String> {
    use pmu_detect::{capability, groups, subspaces};
    let e = |e: DetectError| e.to_string();
    tracer
        .time("detect.learn_subspaces", || {
            subspaces::learn_subspaces(data, cfg)
        })
        .map_err(e)?;
    let ellipses = tracer
        .time("detect.fit_node_ellipses", || {
            capability::fit_node_ellipses(&data.normal_train, cfg)
        })
        .map_err(e)?;
    let caps = tracer
        .time("detect.learn_capabilities", || {
            capability::learn_capabilities(data, &ellipses, cfg)
        })
        .map_err(e)?;
    let clustering = pmu_grid::cluster::partition_clusters(net, cfg.n_clusters.min(net.n_buses()))
        .map_err(|e| e.to_string())?;
    let mut parts = vec![data.normal_train.matrix(cfg.kind)];
    parts.extend(data.cases.iter().map(|c| c.train.matrix(cfg.kind)));
    let concat = pmu_numerics::Matrix::hcat_all(&parts).map_err(|e| e.to_string())?;
    tracer
        .time("detect.build_groups", || {
            groups::build_groups(&clustering, &caps, &concat, cfg)
        })
        .map_err(e)?;
    tracer
        .time("detect.Detector::train", || Detector::train(data, cfg))
        .map_err(e)?;
    tracer.time("baseline.MlrDetector::train", || {
        MlrDetector::train(data, mlr_cfg)
    });

    let stages = [
        ("detect.learn_subspaces_s", "detect.learn_subspaces"),
        ("detect.ellipses_s", "detect.fit_node_ellipses"),
        ("detect.capabilities_s", "detect.learn_capabilities"),
        ("detect.groups_s", "detect.build_groups"),
    ];
    let mut staged = 0.0;
    for (metric, span) in stages {
        let s = tracer.last(span);
        staged += s;
        report.add_layer(metric, s);
    }
    report.add_layer(
        "detect.train_self_s",
        tracer.last("detect.Detector::train") - staged,
    );
    report.add_layer(
        "baseline.train_s",
        tracer.last("baseline.MlrDetector::train"),
    );
    Ok(())
}

/// `tr`'s dataset with scenario `ci`'s training window replaced by a fresh
/// simulation of the same outage.
fn with_changed_case(tr: &Trained, ci: usize, rng: &mut StdRng) -> Result<Dataset, String> {
    let mut changed = tr.data.clone();
    let out_net = tr
        .net
        .with_branch_outage(changed.cases[ci].branch)
        .map_err(|e| e.to_string())?;
    let g = &tr.gen;
    changed.cases[ci].train =
        pmu_sim::scenario::simulate_window(&out_net, g.train_len, &g.ou, &g.noise, &g.ac, rng)
            .map_err(|e| format!("{}: resimulate case {ci}: {e}", tr.name))?;
    Ok(changed)
}

/// Incremental rebuilds after one scenario's training window changes,
/// once for each of `RETRAIN_REPS` different scenarios drawn from `seed`
/// (`retrain_s` is the median: about one rebuild in five takes several
/// times longer than the rest, depending on which window changed). The first rebuild is checked: every other basis is
/// reused, and its detector detects exactly as a cold `Detector::train`
/// on the changed dataset does.
pub fn retrain(
    tr: &Trained,
    seed: u64,
    tracer: &Tracer,
    report: &mut ModelReport,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F2E);
    let n_cases = tr.data.cases.len();
    let first = rng.gen_range(0..n_cases);
    let mut times = Vec::with_capacity(RETRAIN_REPS);
    for rep in 0..RETRAIN_REPS {
        let ci = (first + rep * n_cases / RETRAIN_REPS) % n_cases;
        let changed = with_changed_case(tr, ci, &mut rng)?;
        let started = Instant::now();
        let (inc, stats) = tracer
            .time("model.ModelBundle::train_incremental", || {
                ModelBundle::train_incremental(
                    &changed,
                    &tr.gen,
                    &tr.det_cfg,
                    &tr.mlr_cfg,
                    &tr.bundle,
                )
            })
            .map_err(|e| format!("{}: incremental retrain: {e}", tr.name))?;
        times.push(secs(started));
        if rep > 0 {
            continue;
        }
        if tracer.enabled() {
            report.add_layer("model.reused_bases", stats.reused as f64);
        }
        let reuse = if stats.reused + 1 == stats.total {
            Ok(())
        } else {
            Err(format!(
                "{}: reused {} of {} bases",
                tr.name, stats.reused, stats.total
            ))
        };
        ledger.check(&format!("{} incremental reuse", tr.name), reuse);
        let cold = Detector::train(&changed, &tr.det_cfg).map_err(|e| e.to_string())?;
        let probe: Vec<PhasorSample> = changed
            .cases
            .iter()
            .flat_map(|c| (0..c.test.len()).map(move |t| c.test.sample(t)))
            .chain((0..changed.normal_test.len()).map(|t| changed.normal_test.sample(t)))
            .collect();
        let a = inc
            .detector
            .detect_batch_with_cache(&probe, &ScoringCache::new());
        let b = cold.detect_batch_with_cache(&probe, &ScoringCache::new());
        ledger.check(
            &format!("{} incremental equals cold", tr.name),
            checks::check_identical(&a, &b),
        );
    }
    report.retrain_s += median(&times);
    ledger.ops("retrain", RETRAIN_REPS as u64, 0);
    Ok(())
}

/// The held-out test set of `tr` under each regime in `regimes`: every
/// `stride`-th scenario (from a seed-drawn offset) and the normal window.
pub fn eval_set(tr: &Trained, regimes: &[Regime], stride: usize, seed: u64) -> EvalSet {
    let n = tr.net.n_buses();
    let clustering = tr.bundle.detector.clustering();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0E7A_15E7);
    let drop_k = pmu_eval::figures::random_missing_count(n);
    let mut set = EvalSet {
        samples: Vec::new(),
        truth: Vec::new(),
        ranges: Vec::new(),
    };
    let offset = rng.gen_range(0..stride);
    for &regime in regimes {
        let start = set.samples.len();
        let mask_for = |endpoints: Option<(usize, usize)>, rng: &mut StdRng| -> Mask {
            match regime {
                Regime::Complete => Mask::all_present(n),
                Regime::EndpointsDark => match endpoints {
                    Some(e) => outage_endpoints_mask(n, e),
                    None => Mask::all_present(n),
                },
                Regime::RandomDrops => MissingPattern::RandomK {
                    k: drop_k,
                    exclude: Vec::new(),
                }
                .draw(n, rng),
                Regime::DarkCluster => {
                    let c = rng.gen_range(0..clustering.n_clusters());
                    cluster_mask(n, clustering, c)
                }
            }
        };
        for case in tr.data.cases.iter().skip(offset).step_by(stride) {
            let mask = mask_for(Some(case.endpoints), &mut rng);
            for t in 0..case.test.len() {
                set.samples.push(case.test.sample(t).masked(&mask));
                set.truth.push(Some(case.branch));
            }
        }
        let normal = &tr.data.normal_test;
        for t in 0..normal.len() {
            let mask = mask_for(None, &mut rng);
            set.samples.push(normal.sample(t).masked(&mask));
            set.truth.push(None);
        }
        set.ranges.push((regime, start, set.samples.len()));
    }
    set
}

/// Outage samples whose detected lines contain the outaged line.
pub fn lines_identified(set: &EvalSet, out: &[Result<Detection, DetectError>]) -> u64 {
    set.truth
        .iter()
        .zip(out)
        .filter(|(truth, d)| match (truth, d) {
            (Some(b), Ok(d)) => d.outage && d.lines.contains(b),
            _ => false,
        })
        .count() as u64
}

/// Batch-score `set` for the budget, check the first round's outputs and
/// that every round reproduces it, and return the first round.
pub fn evaluate(
    tr: &Trained,
    set: &EvalSet,
    budget: EvalBudget,
    tracer: &Tracer,
    report: &mut ModelReport,
    ledger: &mut Ledger,
) -> Vec<Result<Detection, DetectError>> {
    let detector = &tr.bundle.detector;
    let mut first: Option<Vec<Result<Detection, DetectError>>> = None;
    // Each regime is timed on its own, on a fresh cache, and its median
    // round kept: the rounds are short enough for a slow spell of the
    // machine to spoil only some of them.
    let mut regime_s: Vec<Vec<f64>> = vec![Vec::new(); set.ranges.len()];
    let mut rounds = 0usize;
    let mut spent = 0.0;
    let mut stable = true;
    loop {
        let mut out = Vec::with_capacity(set.samples.len());
        for (i, &(_, a, b)) in set.ranges.iter().enumerate() {
            let cache = ScoringCache::new();
            let t = Instant::now();
            out.extend(tracer.time("detect.Detector::detect_batch_with_cache", || {
                detector.detect_batch_with_cache(&set.samples[a..b], &cache)
            }));
            let dt = secs(t);
            regime_s[i].push(dt);
            spent += dt;
        }
        rounds += 1;
        let failed = out.iter().filter(|r| r.is_err()).count() as u64;
        ledger.ops("eval_detect", out.len() as u64, failed);
        match &first {
            None => first = Some(out),
            Some(f) => stable &= f == &out,
        }
        let more = match budget {
            EvalBudget::Seconds(s) => spent * (rounds + 1) as f64 / rounds as f64 <= s,
            EvalBudget::Rounds(r) => rounds < r,
        };
        if !more {
            break;
        }
    }
    for (&(regime, a, b), times) in set.ranges.iter().zip(&regime_s) {
        let m = median(times);
        report.eval_s += m;
        eprintln!(
            "{} eval {regime:?}: {} samples, median round {m:.4} s of {rounds}",
            tr.name,
            b - a
        );
    }
    report.eval_samples += set.samples.len() as u64;
    let first = first.expect("at least one round");
    report.lines_identified += lines_identified(set, &first);
    ledger.check(
        &format!("{} eval rounds identical", tr.name),
        if stable {
            Ok(())
        } else {
            Err("a later round differs from the first".into())
        },
    );
    let ok: Vec<Detection> = first
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    let samples: Vec<PhasorSample> = first
        .iter()
        .zip(&set.samples)
        .filter(|(r, _)| r.is_ok())
        .map(|(_, s)| s.clone())
        .collect();
    ledger.check(
        &format!("{} verdicts", tr.name),
        checks::check_verdicts(&ok),
    );
    let residuals = checks::check_residuals(detector, &samples, &ok, tr.det_cfg.kind).map(|c| {
        eprintln!(
            "{}: {} residuals recomputed, largest relative difference {:.2e}",
            tr.name, c.compared, c.max_rel
        );
    });
    ledger.check(&format!("{} residuals", tr.name), residuals);
    first
}
