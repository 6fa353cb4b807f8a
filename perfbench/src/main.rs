//! The benchmark of record: jobs served end to end, from request line to
//! response line, on four workloads, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|corpus|hot_wire|replan --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- report [--seed N] [--seconds S] [WORKLOAD…]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- gen-expected > perfbench/expected/corpus_pool.tsv
//! ```
//!
//! A run prints a human-readable report on standard error and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). See `perfbench/README.md`.

mod closed_loop;
mod hot_wire;
mod inputs;
mod oracle;
mod replan_run;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// Client threads or connections; the service also runs this many workers.
/// Matches the two cores the benchmark was sized on.
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

pub const WORKLOADS: [&str; 4] = ["table1", "corpus", "hot_wire", "replan"];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.queue.rejected", "count"),
    ("serve.wire.parse_us", "us"),
    ("serve.wire.format_us", "us"),
    ("core.cache_key_us", "us"),
    ("core.encode_ms", "ms"),
    ("core.encode.clauses", "count"),
    ("core.stage2_ms", "ms"),
    ("core.task_ms", "ms"),
    ("network.instance_ms", "ms"),
    ("network.rail_parse_us", "us"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.learnt_len_mean", "literals"),
    ("sat.solve_calls", "count"),
    ("sat.reuse_rate", "ratio"),
    ("lazy.rounds", "count"),
    ("lazy.clauses_added", "count"),
    ("sim.validate_ms", "ms"),
    ("sim.mismatches", "count"),
    ("replan.apply_us", "us"),
    ("replan.warm_tick_ms", "ms"),
    ("replan.cold_tick_ms", "ms"),
    ("replan.warm_hit_ratio", "ratio"),
    ("replan.conflicts_per_tick", "count"),
];

/// What one workload run measured and found.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed operations (the first few are printed).
    pub failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines for the report.
    pub report: Vec<String>,
}

impl RunResult {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// `failed / attempted` for the report.
    pub fn failed_share(&self) -> String {
        format!(
            "failed_share {}/{} = {:.4}",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        )
    }
}

/// Process high-water resident set, in MB. Runners read it after their
/// first measured pass: later passes start fresh worker threads, whose
/// new allocator arenas would make the mark grow with the pass count.
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

/// Runs `build` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's threads end before the next one starts.
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    eprintln!("set-up times {times:.4?} s");
    (last.expect("at least one set-up"), stats::median(&times))
}

/// The commit of the checkout, read from `.git` without leaving it;
/// `unknown` when the checkout is not a git repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} (got {:?})",
            out.workload
        ));
    }
    Ok(out)
}

fn run_workload(workload: &str, seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let oracle = oracle::Oracle::load();
    match workload {
        "table1" | "corpus" => closed_loop::run(workload, seed, seconds, tracer, &oracle),
        "hot_wire" => hot_wire::run(seed, seconds, tracer, &oracle),
        "replan" => replan_run::run(seed, seconds, tracer),
        _ => unreachable!("workload names are validated"),
    }
}

fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("perfbench/out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn run_once(args: &Args) -> ExitCode {
    let tracer = Tracer::new(args.trace);
    let result = run_workload(&args.workload, args.seed, args.seconds, &tracer);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let source = if args.trace {
        &result.layers
    } else {
        &result.e2e
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| metric_json(name, source.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let stamp = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"commit\": \"{}\", \"profile\": \"release\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit()
    );
    eprintln!("perfbench {{{stamp}}}");
    for line in &result.report {
        eprintln!("{line}");
    }
    for f in result.failures.iter().take(10) {
        eprintln!("FAILED: {f}");
    }
    let all: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .filter_map(|(n, u)| {
            result
                .e2e
                .get(n)
                .or_else(|| result.layers.get(n))
                .map(|v| metric_json(n, *v, u))
        })
        .collect();
    let dir = out_dir();
    let base = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(
        dir.join(format!("{base}.json")),
        format!(
            "{{{stamp}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            result.attempted,
            result.failed,
            all.join(", ")
        ),
    );
    if args.trace {
        let _ = std::fs::write(dir.join(format!("{base}.spans.jsonl")), tracer.to_jsonl());
        eprintln!("{}", trace::render_layer_table(&tracer.layer_table()));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0 && result.attempted > 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Untraced then traced run of each workload: the per-layer self-time
/// table and the tracing overhead (traced minus untraced `wall_s` and
/// `latency_p50_ms`; the open loop shows it in latency, not duration).
fn report(args: &[String]) -> ExitCode {
    let mut seed = 1;
    let mut seconds = 40.0;
    let mut workloads = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let parsed = match a.as_str() {
            "--seed" => it.next().and_then(|s| s.parse().ok()).map(|v| seed = v),
            "--seconds" => it
                .next()
                .and_then(|s| s.parse().ok())
                .filter(|v: &f64| *v > 0.0)
                .map(|v| seconds = v),
            w if WORKLOADS.contains(&w) => {
                workloads.push(w.to_string());
                Some(())
            }
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("report: bad argument {a:?}");
            return ExitCode::from(2);
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    for w in &workloads {
        let plain = run_workload(w, seed, seconds, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let traced = run_workload(w, seed, seconds, &tracer);
        let overhead = |m: &str| {
            let (a, b) = (plain.e2e[m], traced.e2e[m]);
            format!(
                "{m} {a:.4} untraced -> {b:.4} traced ({:+.1}%)",
                100.0 * (b - a) / a
            )
        };
        println!("== {w} (seed {seed}) ==");
        for line in &traced.report {
            println!("{line}");
        }
        println!("{}", trace::render_layer_table(&tracer.layer_table()));
        for (name, unit) in PER_LAYER {
            println!(
                "{name:<28} {:>16.4} {unit}",
                traced.layers.get(name).copied().unwrap_or(0.0)
            );
        }
        println!(
            "tracing overhead: {}; {}; failed {} untraced, {} traced\n",
            overhead("wall_s"),
            overhead("latency_p50_ms"),
            plain.failed,
            traced.failed
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench refuses to measure a debug build; run it with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => report(&args[1..]),
        Some("gen-expected") => oracle::gen_expected(),
        _ => match parse_args(&args) {
            Ok(a) => run_once(&a),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&a("--workload corpus --seed 9 --seconds 5 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("corpus", 9, true)
        );
        assert!(parse_args(&a("--workload nope --seed 1")).is_err());
        assert!(parse_args(&a("--workload corpus --trace 2")).is_err());
        assert!(parse_args(&a("--workload corpus --seconds 0")).is_err());
    }
}
