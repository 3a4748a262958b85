//! End-to-end and per-layer benchmark of the hpcfail workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scenario_campaign --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Workloads (each runs in its own process; `--workload all` runs the
//! two one after another as child processes):
//!
//! * `scenario_campaign` — the bundled 1296-cell what-if campaign.
//! * `serve_mixed` — an open loop of hot (cached) and cold (recomputed)
//!   GETs plus reloads against an in-process `hpcfail serve`, a
//!   closed-loop capacity phase on the hot pool, and a fixed
//!   hit/miss/reload mix timed through the router without sockets.
//!
//! Inputs are a pure function of `--seed`. Every run checks its outputs
//! and exits non-zero on any mismatch. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Earlier lines name every figure with its unit and
//! sample count. See `perfbench/README.md` for the metric definitions.

mod campaign;
mod serve;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use span::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 2] = ["scenario_campaign", "serve_mixed"];

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// The workload figure that supplies each workload's generic end-to-end
/// throughput.
fn throughput_source(workload: &str) -> &'static str {
    match workload {
        "scenario_campaign" => "scenario.cells_per_s",
        _ => "serve.inproc_rps",
    }
}

/// Per-layer metrics, with units. A traced run of any workload reports
/// all of them; a layer that does no work on that workload reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("scenario.spec_parse_ms", "ms"),
    ("scenario.expand_ms", "ms"),
    ("scenario.cell_p50_ms", "ms"),
    ("scenario.cell_p99_ms", "ms"),
    ("scenario.cell_p50_ms.sys12", "ms"),
    ("scenario.cell_p50_ms.sys14", "ms"),
    ("scenario.cell_p50_ms.exascale_100k", "ms"),
    ("synth.build_system_ms", "ms"),
    ("core.tbf_analyze_ms", "ms"),
    ("checkpoint.young_ms", "ms"),
    ("checkpoint.hazard_ms", "ms"),
    ("sched.longest_uptime_ms", "ms"),
    ("scenario.journal_append_ms", "ms"),
    ("scenario.journal_bytes", "bytes"),
    ("scenario.render_ms", "ms"),
    ("exec.parallel_efficiency", "ratio"),
    ("serve.http_parse_us", "us"),
    ("serve.respond_hit_us", "us"),
    ("serve.net_overhead_ms", "ms"),
    ("serve.respond_miss_ms", "ms"),
    ("core.cold.tbf_ms", "ms"),
    ("core.cold.repair_ms", "ms"),
    ("core.cold.rates_ms", "ms"),
    ("core.cold.availability_ms", "ms"),
    ("core.cold.pernode_ms", "ms"),
    ("core.cold.findings_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cold_miss_ratio", "ratio"),
    ("records.store_open_ms", "ms"),
    ("serve.reload_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_hits", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("serve.hot_p99_ms", "ms"),
    ("serve.cold_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// One named figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes (0 when it is a single reading).
    pub samples: usize,
}

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// Workload-named figures (end-to-end inputs and context).
    pub figures: Vec<Metric>,
    /// Per-layer figures (traced run only).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Add a workload figure.
    pub fn figure(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.figures.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Add a per-layer figure; its unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1;
        self.layers.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record a failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Look up a workload figure.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.figures
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Worker count for the pools and the server: fixed, never above the
/// host's parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// A scratch directory inside the benchmark's own directory, removed
/// when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run `setup` [`SETUP_REPEATS`] times, keeping the last input; returns
/// it with the median setup time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous input first so setups do not stack in memory.
        drop(input.take());
        let t0 = Instant::now();
        input = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one setup ran");
    Ok((input, stats::median(&times).expect("setup times")))
}

fn run_workload(args: &Args) -> Result<(Report, f64), String> {
    let work = WorkDir::create(&args.workload).map_err(|e| format!("work dir: {e}"))?;
    let tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "scenario_campaign" => campaign::run(args.seconds, &work, &tracer),
        _ => serve::run(args.seed, args.seconds, &work, &tracer),
    };
    if tracer.enabled() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = out.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        std::fs::create_dir_all(&out)
            .and_then(|()| tracer.write_tsv(&path))
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    result
}

/// Print the report and the final result line; returns whether the run
/// was correct.
fn emit(args: &Args, report: &Report, setup_s: f64) -> bool {
    for m in &report.figures {
        println!(
            "figure {:<34} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &report.layers {
        println!(
            "layer  {:<34} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for what in &report.mismatches {
        println!("MISMATCH {what}");
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut missing = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = report
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            // A tail with too few samples beyond it has no value; it reads
            // 0 like a layer that did no work, and is named here.
            if !value.is_finite() {
                println!("NO VALUE layer {name}: too few samples");
            }
            metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => Some(setup_s),
                "peak_rss_mb" => peak_rss_mb(),
                _ => report.value(throughput_source(&args.workload)),
            };
            match value {
                Some(v) if v.is_finite() && v > 0.0 => metrics.push((name, v, unit)),
                _ => missing.push(name),
            }
        }
    }
    for name in &missing {
        println!("MISSING end-to-end metric {name}");
    }
    let correct = report.mismatches.is_empty() && missing.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    correct
}

/// `--workload all`: run every workload as a child process of this
/// binary, one after another, passing the other flags through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {workload} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Make peak RSS repeat. With one malloc arena per thread, which thread
/// happens to free the large trace buffers decides how much freed memory
/// stays resident; and glibc raises its mmap threshold after the first
/// large free, so later passes reuse heap whose top may or may not be
/// trimmed. Either moved peak RSS by 10-15% between identical runs. One
/// arena and a fixed threshold (every buffer over 256 KiB is mapped and
/// returned on free, as in a fresh one-pass CLI process) make it repeat.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_MMAP_THRESHOLD`.
    const M_MMAP_THRESHOLD: i32 = -3;
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called before
    // this process starts any thread, with documented parameters.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the analysis pools before any of them is created, so the worker
    // count is fixed rather than whatever the environment says.
    std::env::set_var(hpcfail_exec::THREADS_ENV, workers().to_string());
    if args.workload == "all" {
        return run_all(&args);
    }
    println!(
        "workload {} seed {} seconds {} trace {} workers {} host_parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match run_workload(&args) {
        Ok((report, setup_s)) => {
            if emit(&args, &report, setup_s) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(name: &str) -> usize {
        BENCHMARK_JSON
            .matches(&format!("\"name\": \"{name}\""))
            .count()
    }

    #[test]
    fn benchmark_json_declares_every_metric_once() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert_eq!(declared(name), 1, "{name} must be declared once");
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be declared with unit {unit}"
            );
        }
        for workload in WORKLOADS {
            assert_eq!(declared(workload), 1, "{workload}");
        }
        let names = BENCHMARK_JSON.matches("\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload serve_mixed --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.seed, 9);
        assert!(args.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds")).is_err());
    }
}
