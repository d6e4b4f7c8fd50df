//! Process statistics, order statistics and result printing.

use std::time::Instant;

/// One `key: value kB` line of `/proc/self/status`, in kB.
fn status_kb(key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("/proc/self/status has no readable {key} line"))
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_kb("VmHWM:")? / 1024.0)
}

/// Current resident set size (VmRSS), in kB.
pub fn rss_kb() -> Result<f64, String> {
    status_kb("VmRSS:")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids of `clock_gettime`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Err(format!("clock_gettime({clock}) failed"));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time (user plus system) this process has used so far, all threads
/// included, also the ones that have exited; in seconds.
pub fn process_cpu_s() -> Result<f64, String> {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of a sample (NaN for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (NaN for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed in one named phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
}

/// Per-phase operation accounting plus the failures of output checks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub phases: Vec<Phase>,
    pub check_failures: Vec<String>,
}

impl Ledger {
    /// Count `attempted` operations of `phase`, `failed` of which failed.
    pub fn ops(&mut self, phase: &str, attempted: u64, failed: u64) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == phase) {
            p.attempted += attempted;
            p.failed += failed;
        } else {
            self.phases.push(Phase {
                name: phase.to_string(),
                attempted,
                failed,
            });
        }
    }

    /// Record the outcome of one output check.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => eprintln!("check {name}: ok"),
            Err(e) => {
                eprintln!("check {name}: FAILED: {e}");
                self.check_failures.push(format!("{name}: {e}"));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Print the per-phase table on stderr.
    pub fn print(&self) {
        eprintln!("{:<24} {:>10} {:>8}", "phase", "attempted", "failed");
        for p in &self.phases {
            eprintln!("{:<24} {:>10} {:>8}", p.name, p.attempted, p.failed);
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. A metric that is not a finite number is an error: the run
/// could not measure it, and no reading stands in for it.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} read {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
