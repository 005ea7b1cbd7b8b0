//! Order statistics and process probes (CPU time, peak resident memory)
//! read from `/proc/self`.

use std::time::Instant;

/// Linear-interpolated quantile of `values` (the method of NumPy's
/// default and of Python's `statistics.quantiles(..., method="inclusive")`).
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Process user + system CPU time in milliseconds, all threads included
/// (fields 14 and 15 of `/proc/self/stat`, in clock ticks of 10 ms).
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) * 10.0,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host wall-clock and process CPU time spent inside one measured span.
pub struct Span {
    wall: Instant,
    cpu_ms: f64,
}

impl Span {
    pub fn start() -> Span {
        Span {
            cpu_ms: process_cpu_ms(),
            wall: Instant::now(),
        }
    }

    /// `(host seconds, CPU milliseconds)` since [`Span::start`].
    pub fn stop(self) -> (f64, f64) {
        let secs = self.wall.elapsed().as_secs_f64();
        (secs, process_cpu_ms() - self.cpu_ms)
    }
}

/// Host time per call of `f`, in nanoseconds: `f` runs in batches until
/// at least `min_ms` of host time has been spent, and the median batch
/// is reported.
pub fn ns_per_call(min_ms: f64, calls_per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::new();
    let t0 = Instant::now();
    while batches.len() < 5 || t0.elapsed().as_secs_f64() * 1e3 < min_ms {
        let t = Instant::now();
        f();
        batches.push(t.elapsed().as_nanos() as f64 / calls_per_batch.max(1) as f64);
    }
    median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_probes_read_something_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(process_cpu_ms() >= 0.0);
        }
    }
}
