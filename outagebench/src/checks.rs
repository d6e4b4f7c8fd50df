//! Output checks built from the benchmark's own code.
//!
//! None of these compares against a stored copy of earlier output. The
//! residual check recomputes Eq. (9)'s least-squares residuals with its own
//! Householder QR; the verdict check tests a property every normal verdict
//! must have; the replay check compares the fleet's events against a
//! standalone monitor fed the same accepted samples; the rejection check
//! compares outcomes against the faults the workload injected.

use pmu_detect::stream::StreamEvent;
use pmu_detect::{DetectError, Detection, Detector};
use pmu_numerics::Matrix;
use pmu_serve::{BadSampleReason, ServeError};
use pmu_sim::PhasorSample;

/// Largest relative disagreement accepted between the program's residuals
/// and the benchmark's own. The two agree to a few ulps; a nudge of one
/// part in a million must fail.
pub const RESIDUAL_REL_TOL: f64 = 1e-9;

/// Eq. (9)'s dimension cap on a basis restricted to `m` observed channels.
pub fn dimension_cap(m: usize) -> usize {
    (m - (m / 3).max(2).min(m - 1)).max(1)
}

/// Least-squares residual of `x` on the columns of `basis` restricted to
/// `rows`, per residual dimension: `‖x − A a*‖² / (m − k)` with
/// `a* = argmin ‖x − A a‖` and `A = basis[rows, :]`. Solved by Householder
/// QR. `None` when the restriction loses rank or Eq. (9)'s cap would
/// truncate the basis (the program then scores a different subspace).
pub fn ls_residual(basis: &Matrix, rows: &[usize], x: &[f64]) -> Option<f64> {
    let m = rows.len();
    let k = basis.cols();
    if m < 2 || k == 0 || k > dimension_cap(m) || x.len() != m {
        return None;
    }
    // Column-major copy of the restricted basis.
    let mut a: Vec<Vec<f64>> = (0..k)
        .map(|c| rows.iter().map(|&r| basis[(r, c)]).collect())
        .collect();
    let mut y = x.to_vec();
    let scale = a.iter().map(|col| norm(col)).fold(0.0_f64, f64::max);
    for j in 0..k {
        let alpha = norm(&a[j][j..]);
        if alpha <= 1e-8 * scale {
            return None;
        }
        // Householder vector v = a_j[j..] + sign(a_jj)·alpha·e_1.
        let mut v = a[j][j..].to_vec();
        v[0] += if v[0] >= 0.0 { alpha } else { -alpha };
        let vv: f64 = v.iter().map(|t| t * t).sum();
        let reflect = |col: &mut [f64]| {
            let dot: f64 = v.iter().zip(col.iter()).map(|(p, q)| p * q).sum();
            let f = 2.0 * dot / vv;
            for (c, p) in col.iter_mut().zip(&v) {
                *c -= f * p;
            }
        };
        for col in a.iter_mut().skip(j) {
            reflect(&mut col[j..]);
        }
        reflect(&mut y[j..]);
    }
    let r2: f64 = y[k..].iter().map(|t| t * t).sum();
    Some(r2 / (m - k) as f64)
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|t| t * t).sum::<f64>().sqrt()
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// What the residual check covered.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResidualCoverage {
    /// Residuals recomputed and compared.
    pub compared: usize,
    /// Largest relative disagreement seen.
    pub max_rel: f64,
}

/// `normal_residual` and `best_case_residual` of every detection equal the
/// least-squares residuals on the sample's observed channels minus the
/// channels the bad-data screen excised, wherever the cap keeps the basis
/// whole and the restriction keeps its rank.
pub fn check_residuals(
    detector: &Detector,
    samples: &[PhasorSample],
    detections: &[Detection],
    kind: pmu_sim::MeasurementKind,
) -> Result<ResidualCoverage, String> {
    let subspaces = detector.subspaces();
    let mut cov = ResidualCoverage::default();
    for (i, (s, d)) in samples.iter().zip(detections).enumerate() {
        let observed: Vec<usize> = s
            .mask()
            .observed()
            .into_iter()
            .filter(|n| !d.suspect_nodes.contains(n))
            .collect();
        let x = s
            .values_for(&observed, kind)
            .ok_or("observed channel without a value")?;
        if let Some(r) = ls_residual(subspaces.normal.basis(), &observed, &x) {
            let e = rel_diff(r, d.normal_residual);
            cov.max_rel = cov.max_rel.max(e);
            cov.compared += 1;
            if e > RESIDUAL_REL_TOL {
                return Err(format!(
                    "sample {i}: normal_residual {} but least squares gives {r} (rel {e:.2e})",
                    d.normal_residual
                ));
            }
        }
        let cases: Option<Vec<f64>> = subspaces
            .per_case
            .iter()
            .map(|c| ls_residual(c.basis(), &observed, &x))
            .collect();
        if let Some(cases) = cases {
            let best = cases.into_iter().fold(f64::INFINITY, f64::min);
            let e = rel_diff(best, d.best_case_residual);
            cov.max_rel = cov.max_rel.max(e);
            cov.compared += 1;
            if e > RESIDUAL_REL_TOL {
                return Err(format!(
                    "sample {i}: best_case_residual {} but least squares gives {best} \
                     (rel {e:.2e})",
                    d.best_case_residual
                ));
            }
        }
    }
    Ok(cov)
}

/// No normal verdict has a residual above its threshold.
pub fn check_verdicts(detections: &[Detection]) -> Result<(), String> {
    for (i, d) in detections.iter().enumerate() {
        if !d.outage && d.normal_residual > d.threshold {
            return Err(format!(
                "sample {i}: normal verdict with residual {} above threshold {}",
                d.normal_residual, d.threshold
            ));
        }
        if !d.outage && !d.lines.is_empty() {
            return Err(format!(
                "sample {i}: normal verdict names lines {:?}",
                d.lines
            ));
        }
    }
    Ok(())
}

/// Two detection runs agree bit for bit (errors compare by value).
pub fn check_identical(
    a: &[Result<Detection, DetectError>],
    b: &[Result<Detection, DetectError>],
) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} detections against {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return Err(format!("sample {i}: {x:?} differs from {y:?}"));
        }
    }
    Ok(())
}

/// Each feed's fleet event sequence equals its standalone replay. Both are
/// `(tick, event)` per accepted sample, one list per feed.
pub fn check_replay(
    fleet: &[Vec<(usize, StreamEvent)>],
    replay: &[Vec<(usize, StreamEvent)>],
) -> Result<(), String> {
    if fleet.len() != replay.len() {
        return Err(format!(
            "{} fleet feeds against {} replays",
            fleet.len(),
            replay.len()
        ));
    }
    for (f, (a, b)) in fleet.iter().zip(replay).enumerate() {
        if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
            return Err(format!(
                "feed {f}: fleet gave {:?}, replay {:?}",
                a[i], b[i]
            ));
        }
        if a.len() != b.len() {
            return Err(format!(
                "feed {f}: {} fleet events against {} replayed",
                a.len(),
                b.len()
            ));
        }
    }
    Ok(())
}

/// Every injected NaN sample was rejected as `BadSample(NonFinite)` and no
/// other push failed.
pub fn check_rejections(outcomes: &[(bool, Result<(), ServeError>)]) -> Result<(), String> {
    for (i, (injected, outcome)) in outcomes.iter().enumerate() {
        match (injected, outcome) {
            (true, Err(ServeError::BadSample(BadSampleReason::NonFinite { .. }))) => {}
            (false, Ok(())) => {}
            (true, other) => {
                return Err(format!(
                    "push {i}: injected NaN sample gave {other:?}, not BadSample"
                ))
            }
            (false, Err(e)) => return Err(format!("push {i}: clean sample failed with {e}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each check must reject a deliberately perturbed output.
    use super::*;
    use pmu_detect::stream::{StreamConfig, StreamingDetector};
    use pmu_detect::ScoringCache;
    use pmu_sim::{generate_dataset, GenConfig, Mask};

    fn trained() -> (Detector, Vec<PhasorSample>) {
        let net = pmu_grid::cases::ieee14().expect("embedded case");
        let gen = GenConfig {
            train_len: 16,
            test_len: 5,
            seed: 7,
            ..GenConfig::default()
        };
        let data = generate_dataset(&net, &gen).expect("dataset");
        let det = Detector::train(&data, &pmu_detect::detector::default_config_for(&net))
            .expect("training");
        let mut samples = Vec::new();
        for case in &data.cases {
            for t in 0..case.test.len() {
                samples.push(case.test.sample(t));
                samples.push(
                    case.test
                        .sample(t)
                        .masked(&Mask::with_missing(14, &[case.endpoints.0])),
                );
            }
        }
        for t in 0..data.normal_test.len() {
            samples.push(data.normal_test.sample(t));
        }
        (det, samples)
    }

    fn detections(det: &Detector, samples: &[PhasorSample]) -> Vec<Detection> {
        det.detect_batch_with_cache(samples, &ScoringCache::new())
            .into_iter()
            .map(|r| r.expect("scorable"))
            .collect()
    }

    #[test]
    fn residual_check_rejects_a_nudge_of_one_in_a_million() {
        let (det, samples) = trained();
        let kind = pmu_detect::detector::default_config_for(
            &pmu_grid::cases::ieee14().expect("embedded case"),
        )
        .kind;
        let mut dets = detections(&det, &samples);
        let cov = check_residuals(&det, &samples, &dets, kind).expect("clean outputs pass");
        assert!(
            cov.compared > samples.len(),
            "both residuals compared: {cov:?}"
        );
        dets[3].normal_residual *= 1.0 + 1e-6;
        assert!(check_residuals(&det, &samples, &dets, kind).is_err());
        dets[3].normal_residual /= 1.0 + 1e-6;
        dets[5].best_case_residual *= 1.0 - 1e-6;
        assert!(check_residuals(&det, &samples, &dets, kind).is_err());
    }

    #[test]
    fn verdict_check_rejects_a_flipped_verdict() {
        let (det, samples) = trained();
        let mut dets = detections(&det, &samples);
        check_verdicts(&dets).expect("clean outputs pass");
        let i = dets
            .iter()
            .position(|d| d.outage && d.normal_residual > d.threshold)
            .expect("some outage verdict is over threshold");
        dets[i].outage = false;
        dets[i].lines.clear();
        assert!(check_verdicts(&dets).is_err());
    }

    #[test]
    fn replay_check_rejects_a_dropped_event() {
        let (det, samples) = trained();
        let mut mon = StreamingDetector::new(det.clone(), StreamConfig::default());
        let mut again = StreamingDetector::new(det, StreamConfig::default());
        let log: Vec<(usize, StreamEvent)> = samples
            .iter()
            .enumerate()
            .map(|(t, s)| (t, mon.push(s).expect("push")))
            .collect();
        let replay: Vec<(usize, StreamEvent)> = samples
            .iter()
            .enumerate()
            .map(|(t, s)| (t, again.push(s).expect("push")))
            .collect();
        check_replay(std::slice::from_ref(&log), std::slice::from_ref(&replay))
            .expect("identical streams pass");
        let raised = log
            .iter()
            .position(|(_, e)| matches!(e, StreamEvent::Raised { .. }))
            .expect("the outage stream raises");
        let mut dropped = log.clone();
        dropped.remove(raised);
        assert!(check_replay(&[dropped], std::slice::from_ref(&replay)).is_err());
        let mut silenced = log;
        silenced[raised].1 = StreamEvent::None;
        assert!(check_replay(&[silenced], &[replay]).is_err());
    }

    #[test]
    fn rejection_check_rejects_a_missing_rejection() {
        let nan = Err(ServeError::BadSample(BadSampleReason::NonFinite {
            node: 2,
        }));
        let ok = vec![(false, Ok(())), (true, nan.clone())];
        check_rejections(&ok).expect("expected outcomes pass");
        assert!(check_rejections(&[(false, Ok(())), (true, Ok(()))]).is_err());
        assert!(check_rejections(&[(false, nan)]).is_err());
    }

    #[test]
    fn ls_residual_matches_a_hand_computed_case() {
        // Basis e_0 in R^4, observed rows {0, 1, 2, 3}: residual is the
        // energy off the first axis over 3 dimensions.
        let basis = Matrix::from_fn(4, 1, |r, _| if r == 0 { 1.0 } else { 0.0 });
        let r = ls_residual(&basis, &[0, 1, 2, 3], &[5.0, 1.0, 2.0, 2.0]).expect("full rank");
        assert!((r - 3.0).abs() < 1e-15);
    }
}
