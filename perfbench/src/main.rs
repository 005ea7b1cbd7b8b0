//! The lib·erate benchmark: three seeded workloads driven through the
//! public API of `liberate`, every operation's output checked, and one
//! JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <learn|stream-saver|deploy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the same workload runs again with per-layer attribution
//! and the result carries the per-layer metrics instead. See README.md.

mod deploy;
mod inputs;
mod layers;
mod learn;
mod stats;
mod stream_saver;

use std::time::Instant;

use layers::Layers;
use stats::{median, quantile, Span};

/// A run keeps going past `--seconds` until this many operations have
/// completed, so that `op_ms_p90` always has ten samples beyond it.
const MIN_OPS: u64 = 100;

/// Set-up runs at least this many times per run, and more while the
/// set-ups so far took under [`SETUP_BUDGET_S`]; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_s_per_op", "s"),
    ("wire_mb_per_op", "MB"),
];

/// Operations, their host times and their checks for one measured phase.
#[derive(Default)]
pub struct Recorder {
    /// Host milliseconds per operation. Operations that complete together
    /// (a deployment wave's flows) each carry the whole unit's time.
    op_ms: Vec<f64>,
    /// Host seconds and process CPU milliseconds spent inside measured
    /// units; output checks run outside them.
    busy_s: f64,
    cpu_ms: f64,
    sim_s: f64,
    wire_bytes: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Recorder {
    /// Run one measured unit of work; returns its result and host ms.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let span = Span::start();
        let out = f();
        let (secs, cpu_ms) = span.stop();
        self.busy_s += secs;
        self.cpu_ms += cpu_ms;
        (out, secs * 1e3)
    }

    /// Account `n` operations that completed in a unit of `host_ms`,
    /// spending `sim_s` simulated seconds and `wire_bytes` in total.
    pub fn ops(&mut self, n: usize, host_ms: f64, sim_s: f64, wire_bytes: u64) {
        self.attempted += n as u64;
        self.op_ms.extend(std::iter::repeat_n(host_ms, n));
        self.sim_s += sim_s;
        self.wire_bytes += wire_bytes as f64;
    }

    /// `n` of the accounted operations failed (returned an error).
    pub fn fail(&mut self, n: usize, why: String) {
        self.failed += n as u64;
        if self.problems.len() < 20 {
            eprintln!("failed: {why}");
        }
    }

    /// An output check; a false one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            if self.problems.len() < 20 {
                eprintln!("check failed: {what}");
            }
            self.problems.push(what);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations per host second inside measured units.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.busy_s.max(1e-9)
    }
}

/// Run whole rounds until `seconds` of host time have passed and at
/// least [`MIN_OPS`] operations completed. `round` gets the share of the
/// run elapsed so far.
pub fn run_rounds(seconds: f64, rec: &mut Recorder, mut round: impl FnMut(&mut Recorder, f64)) {
    let t0 = Instant::now();
    loop {
        round(rec, t0.elapsed().as_secs_f64() / seconds);
        if t0.elapsed().as_secs_f64() >= seconds && rec.attempted >= MIN_OPS {
            break;
        }
    }
}

/// Set up repeatedly (see [`SETUP_MIN_REPEATS`]); returns the last state
/// and every set-up's host seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// What a workload hands back for reporting.
pub struct Outcome {
    pub rec: Recorder,
    pub setup_s: Vec<f64>,
    /// Per-layer attribution; present only for a traced run.
    pub layers: Option<Layers>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The git revision of the working directory, read from `.git` without
/// running git (which would search parent directories).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <learn|stream-saver|deploy> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# host: cores={} profile={profile} rev={} workload={} seed={} seconds={} trace={}",
        host_cores(),
        git_revision(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let out = match args.workload.as_str() {
        "learn" => learn::run(args.seed, args.seconds, args.trace),
        "stream-saver" => stream_saver::run(args.seed, args.seconds, args.trace),
        "deploy" => deploy::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let rec = &out.rec;
    let ops = rec.attempted.max(1) as f64;
    let metrics: Vec<(&str, f64, &str)> = match &out.layers {
        None => {
            let values = [
                median(&out.setup_s),
                rec.ops_per_s(),
                quantile(&rec.op_ms, 0.5),
                quantile(&rec.op_ms, 0.9),
                rec.cpu_ms / ops,
                stats::peak_rss_mb(),
                rec.sim_s / ops,
                rec.wire_bytes / 1e6 / ops,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
        Some(layers) => layers.report(),
    };
    for (name, value, unit) in &metrics {
        println!("# {name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.problems.is_empty(),
        rec.attempted,
        rec.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this binary prints must be the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        let names_in = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let end = json[start..].find(']').expect("list end") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or("").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let per_layer: Vec<String> = layers::PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .chain([layers::TRACED_OPS_PER_S.to_string()])
            .collect();
        assert_eq!(names_in("per_layer"), per_layer);
    }
}
