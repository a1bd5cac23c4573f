//! `vbench` — the suite's end-to-end and per-layer benchmark.
//!
//! ```text
//! vbench --workload <read-views|edit-churn|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets up (median of
//! several set-ups), measures a closed loop for the given seconds, checks
//! every answer against an oracle, and prints a human-readable report
//! followed by one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones ([`E2E`]); with
//! `--trace 1` the run is traced and the metrics are the per-layer ones
//! ([`layers::PER_LAYER`]). The exit code is 0 when every answer was
//! correct, 1 on any mismatch and 2 on bad arguments.

mod edit_churn;
mod gen;
mod layers;
mod read_views;
mod rng;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports: name, unit.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_s", "ops/s"),
    ("rss_peak_mib", "MiB"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
];

/// The latency percentiles gated as end-to-end metrics. The p99 is
/// printed with its sample count but not gated: on a shared host a few
/// descheduled milliseconds per second move it by tens of percent from
/// run to run, while the p90 stays within a few percent.
pub const GATED_PCTS: [f64; 2] = [50.0, 90.0];

/// Equal windows the measured phase is cut into; the end-to-end metrics
/// are medians over them.
pub const WINDOWS: usize = 5;

/// One completed operation: when it completed (seconds into the measured
/// phase), its latency, and which latency metrics it counts toward.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Completion time from the phase's start.
    pub at_s: f64,
    /// Latency in µs.
    pub us: f64,
    /// Counts toward `query_p*_us`.
    pub query: bool,
    /// Counts toward `op_p*_us`.
    pub op: bool,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were shed or dropped, or answered wrong.
    pub failed: u64,
    /// Correctness failures, including end-of-run oracle checks.
    pub mismatches: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Report lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness failure (the first few are kept verbatim).
    pub fn mismatch(&mut self, what: impl Into<String>) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what.into());
        } else if self.mismatches.len() == 20 {
            self.mismatches
                .push("… further mismatches elided".to_owned());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Reports `setup_s` as the median of the set-up times, and notes
    /// their range.
    pub fn setup(&mut self, times: &[f64]) {
        let median = stats::median(times);
        self.set("setup_s", median);
        let (lo, hi) = times
            .iter()
            .fold((f64::MAX, 0.0_f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        self.note(format!(
            "set-up: median {median:.6}s of {} (range {lo:.6}s to {hi:.6}s)",
            times.len()
        ));
    }

    /// Reports the measured phase `[0, seconds)` as the median over
    /// [`WINDOWS`] equal windows of each window's throughput (`ops_s`) and
    /// latency percentiles (`query_*` over samples flagged `query`,
    /// `op_*` over those flagged `op`), so a burst of interference on a
    /// shared host moves one window, not the result. A gated percentile a
    /// window cannot support is a failure; the whole phase's p99 is
    /// noted with its sample count when it is supported.
    pub fn windowed(&mut self, samples: &[Timed], seconds: f64, labels: [&str; 2]) {
        let len = seconds / WINDOWS as f64;
        let mut wins: Vec<Vec<Timed>> = vec![Vec::new(); WINDOWS];
        for s in samples {
            if let Some(w) = wins.get_mut((s.at_s / len) as usize) {
                w.push(*s);
            }
        }
        let rates: Vec<f64> = wins.iter().map(|w| w.len() as f64 / len).collect();
        self.set("ops_s", stats::median(&rates));
        for (prefix, label) in ["query", "op"].into_iter().zip(labels) {
            let pick = |t: &Timed| if prefix == "query" { t.query } else { t.op };
            let mut line = format!("{label}:");
            for pct in GATED_PCTS {
                let mut per_window = Vec::with_capacity(WINDOWS);
                for w in &wins {
                    let s =
                        stats::Sample::new(w.iter().filter(|t| pick(t)).map(|t| t.us).collect());
                    match s.percentile(pct) {
                        Ok(v) => per_window.push(v),
                        Err(e) => self.mismatch(format!("{label}: window {e}")),
                    }
                }
                let v = stats::median(&per_window);
                self.set(format!("{prefix}_p{pct}_us"), v);
                let _ = write!(line, " p{pct}={v:.1}us");
            }
            let all =
                stats::Sample::new(samples.iter().filter(|t| pick(t)).map(|t| t.us).collect());
            let _ = write!(
                line,
                " (median of {WINDOWS} windows of {len:.1}s); n={}",
                all.len()
            );
            match all.percentile(99.0) {
                Ok(v) => {
                    let _ = write!(line, " p99={v:.1}us");
                }
                Err(e) => {
                    let _ = write!(line, " ({e})");
                }
            }
            self.note(line);
        }
    }
}

/// A numeric field of `/proc/self/status` (0 when unreadable).
fn proc_status(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Machine-wide CPU time and its `steal` part (time the host ran
/// something else on this machine's CPUs), in clock ticks from
/// `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mib() -> f64 {
    proc_status("VmHWM") / 1024.0
}

/// A measured phase of fixed length, less any time excluded from it.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    start: Instant,
    length: Duration,
    excluded: Duration,
}

impl Clock {
    /// Starts a phase of `seconds` now.
    pub fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
            excluded: Duration::ZERO,
        }
    }

    /// Leaves `d` of wall time (work between measured stretches) out of
    /// the phase.
    pub fn exclude(&mut self, d: Duration) {
        self.excluded += d;
    }

    /// Whether the phase is over.
    pub fn done(&self) -> bool {
        self.start.elapsed().saturating_sub(self.excluded) >= self.length
    }

    /// Measured seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.start
            .elapsed()
            .saturating_sub(self.excluded)
            .as_secs_f64()
    }
}

/// Runs `once` `reps` times, dropping each result before the next run,
/// and returns the last result with each run's time in seconds.
pub fn repeat_setup<T>(reps: usize, mut once: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(once());
        times.push(t.elapsed().as_secs_f64());
    }
    let last = last.unwrap_or_else(|| unreachable!("reps.max(1) ≥ 1 runs"));
    (last, times)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
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
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line; `Err` names a metric the run failed to
/// produce.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let wanted: Vec<(String, &str)> = if trace {
        layers::PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    } else {
        E2E.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            // A layer this workload never calls did no work.
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.mismatches.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}");
            eprintln!(
                "usage: vbench --workload <read-views|edit-churn|serve-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cpu_before = cpu_times();
    let mut out = match args.workload.as_str() {
        "read-views" => read_views::run(&args),
        "edit-churn" => edit_churn::run(&args),
        "serve-mix" => serve_mix::run(&args),
        other => {
            eprintln!("vbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    out.set("rss_peak_mib", rss_peak_mib());
    let error_frac = stats::ratio(out.failed as f64, out.attempted as f64);
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.notes {
        println!("# {line}");
    }
    println!(
        "# error_frac: {error_frac:.6} ({} of {} ops)",
        out.failed, out.attempted
    );
    let (busy, steal) = cpu_times()
        .zip(cpu_before)
        .map_or((0, 0), |((t1, s1), (t0, s0))| {
            (t1.saturating_sub(t0), s1.saturating_sub(s0))
        });
    println!(
        "# interference: main thread preempted {} times; host steal {:.2}% of CPU time",
        proc_status("nonvoluntary_ctxt_switches"),
        stats::ratio(steal as f64, busy as f64) * 100.0
    );
    for m in &out.mismatches {
        println!("# MISMATCH {m}");
    }
    let units: BTreeMap<&str, &str> = E2E
        .iter()
        .chain(layers::PER_LAYER.iter())
        .copied()
        .collect();
    for (name, value) in &out.metrics {
        println!(
            "# {name:<34} {value:>14.4} {}",
            units.get(name.as_str()).copied().unwrap_or("")
        );
    }
    match result_json(&out, args.trace) {
        Ok(line) if out.mismatches.is_empty() => println!("{line}"),
        Ok(line) => {
            println!("{line}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("vbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_refuse() {
        let a = parse_args(&argv("--workload serve-mix --seed 7 --seconds 3 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload x --seed -1")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }

    #[test]
    fn benchmark_manifest_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside vbench/");
        // Each metric object reads `"name": "<n>", "unit": "<u>"`; the
        // workload objects carry no unit.
        let declared: Vec<(String, String)> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let object = chunk.split('}').next()?;
                let name = object.split('"').next()?;
                let unit = object.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_owned(), unit.to_owned()))
            })
            .collect();
        let ours: Vec<(String, String)> = E2E
            .iter()
            .chain(layers::PER_LAYER.iter())
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        for m in &ours {
            assert!(declared.contains(m), "{m:?} missing from BENCHMARK.json");
        }
        assert_eq!(
            declared.len(),
            ours.len(),
            "BENCHMARK.json declares extra metrics"
        );
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut out = Outcome::default();
        for (name, _) in E2E {
            out.set(name, 1.5);
        }
        out.attempted = 3;
        let line = result_json(&out, false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"ops_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}"));
        out.metrics.remove("op_p90_us");
        assert!(result_json(&out, false).is_err());
        // Per-layer metrics of layers a workload never calls read 0.
        assert!(result_json(&out, true)
            .expect("zeros")
            .contains("serve.route_us"));
    }
}
