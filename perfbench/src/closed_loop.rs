//! `table1` and `corpus`: cold jobs through `Service::submit` /
//! `JobTicket::wait`, as a closed loop of [`CLIENTS`] clients. Each client
//! takes the next request line, parses it, submits it, waits, and formats
//! the response line; latency covers all four steps.
//!
//! One pass runs every job of the seeded input once on a fresh (cold)
//! service. A run makes whole passes until `--seconds` would be exceeded,
//! at least one; `wall_s` is the median pass makespan.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use etcs_core::{encode, minimize_borders, EncoderConfig, Instance};
use etcs_lazy::{
    generate_lazy_cancellable, optimize_lazy_cancellable, verify_lazy_cancellable, LazyConfig,
};
use etcs_network::{parse_scenario, Scenario};
use etcs_obs::Obs;
use etcs_sat::Interrupt;
use etcs_serve::wire::{parse_request_line, response_line};
use etcs_serve::{JobKind, JobOutcome, JobPayload, JobResponse, ServeConfig, Service};

use crate::inputs::{self, Job, RailCache};
use crate::oracle::{Finding, Oracle};
use crate::stats::{mean, median, Summary};
use crate::trace::Tracer;
use crate::{peak_rss_mb, timed_setup, RunResult, CLIENTS};

/// Sums over job payloads: search statistics, encoding size and the
/// worker time of cold solves.
#[derive(Debug, Default)]
pub struct PayloadSums {
    pub jobs: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub learnt_literals: u64,
    pub solve_calls: u64,
    pub reused_learnts: u64,
    pub clauses: u64,
    /// Worker time of the cold solves (`JobResponse.wall` of misses).
    pub task_s: f64,
    pub tasks: u64,
}

impl PayloadSums {
    pub fn add(&mut self, payload: &JobPayload, wall: Option<Duration>) {
        let s = &payload.search;
        self.jobs += 1;
        self.conflicts += s.conflicts;
        self.propagations += s.propagations;
        self.decisions += s.decisions;
        self.learnt_literals += s.learnt_literals;
        self.solve_calls += s.solve_calls;
        self.reused_learnts += s.reused_learnts;
        self.clauses += payload.stats.clauses as u64;
        if let Some(w) = wall {
            self.task_s += w.as_secs_f64();
            self.tasks += 1;
        }
    }

    pub fn write(&self, layers: &mut BTreeMap<&'static str, f64>) {
        let per_job = |x: u64| x as f64 / self.jobs.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        layers.insert("sat.conflicts", per_job(self.conflicts));
        layers.insert("sat.propagations", per_job(self.propagations));
        layers.insert("sat.decisions", per_job(self.decisions));
        layers.insert("sat.solve_calls", per_job(self.solve_calls));
        layers.insert(
            "sat.learnt_len_mean",
            ratio(self.learnt_literals, self.conflicts),
        );
        layers.insert("sat.reuse_rate", ratio(self.reused_learnts, self.conflicts));
        layers.insert("core.encode.clauses", per_job(self.clauses));
        if self.task_s > 0.0 {
            layers.insert("sat.props_per_s", self.propagations as f64 / self.task_s);
        }
        layers.insert("core.task_ms", 1e3 * self.task_s / self.tasks.max(1) as f64);
    }
}

/// Oracle findings summed over a run.
#[derive(Debug, Default)]
pub struct Checked {
    pub validated: u64,
    pub violations: u64,
    pub validate_ms: f64,
}

impl Checked {
    pub fn add(&mut self, f: &Finding) {
        self.validated += f.validated;
        self.violations += f.violations;
        self.validate_ms += f.validate_ms;
    }

    pub fn write(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert(
            "sim.validate_ms",
            self.validate_ms / self.validated.max(1) as f64,
        );
        layers.insert("sim.mismatches", self.violations as f64);
    }
}

struct Done {
    job: usize,
    latency_ms: f64,
    response: JobResponse,
}

fn pass(service: &Service, jobs: &[Job], tracer: &Tracer, pass_no: usize) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let config = service.config().encoder;
    let start = Instant::now();
    let dones = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let id = (pass_no * jobs.len() + i) as u64;
                        let t0 = Instant::now();
                        let root = tracer.open("serve.job", None, id);
                        let parsed = tracer.time("serve.wire.parse", root.as_ref(), id, || {
                            parse_request_line(&job.line, "job", false, None)
                        });
                        let response =
                            match parsed {
                                Ok(request) => {
                                    if tracer.is_on() {
                                        tracer.time("core.cache_key", root.as_ref(), id, || {
                                            black_box(request.cache_key(&config))
                                        });
                                    }
                                    tracer.time("serve.submit_wait", root.as_ref(), id, || {
                                        match service.submit(request) {
                                            Ok(ticket) => ticket.wait(),
                                            Err(rejected) => rejected,
                                        }
                                    })
                                }
                                Err(message) => JobResponse {
                                    id: job.id.clone(),
                                    outcome: JobOutcome::Invalid(message),
                                    cache_hit: false,
                                    wall: Duration::ZERO,
                                },
                            };
                        let line = tracer.time("serve.wire.format", root.as_ref(), id, || {
                            response_line(&response).0
                        });
                        black_box(line);
                        tracer.close(root);
                        out.push(Done {
                            job: i,
                            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (dones, start.elapsed().as_secs_f64())
}

/// The scenario a request line asks about (for the oracle).
pub fn scenario_of(line: &str) -> Scenario {
    parse_request_line(line, "job", false, None)
        .expect("generated lines parse")
        .scenario
}

/// The `.rail` text of a request line with an inline `rail:` scenario.
pub fn rail_text(line: &str) -> Option<String> {
    let v = etcs_obs::json::parse(line).ok()?;
    v.get("scenario")?
        .as_str()?
        .strip_prefix("rail:")
        .map(str::to_owned)
}

/// Counts of the lazy refinement loop, summed over lazy jobs.
#[derive(Debug, Default)]
struct LazySum {
    jobs: u64,
    rounds: u64,
    clauses_added: u64,
}

/// Traced runs only, after the measured passes: each distinct job once
/// more through the layers' own public entry points, each call in a span.
/// Generate is exactly `Instance::new` + `encode` + `minimize_borders`, so
/// its stage 2 is measured as the task runs it; lazy jobs run the lazy
/// task to read its refinement counts.
fn layer_pass(jobs: &[Job], tracer: &Tracer, base_id: u64) -> LazySum {
    let next = AtomicUsize::new(0);
    let sums: Vec<LazySum> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut sum = LazySum::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let id = base_id + i as u64;
                        let root = tracer.open("layers.job", None, id);
                        if let Some(text) = rail_text(&job.line) {
                            tracer.time("network.rail_parse", root.as_ref(), id, || {
                                black_box(parse_scenario(&text).expect("generated rail parses"))
                            });
                        }
                        let request = parse_request_line(&job.line, "job", false, None)
                            .expect("generated lines parse");
                        let config = request.effective_config(&EncoderConfig::default());
                        let inst = tracer.time("network.instance", root.as_ref(), id, || {
                            Instance::new(&request.scenario).expect("valid scenario")
                        });
                        match request.lazy {
                            Some(strategy) => {
                                let lazy = LazyConfig::with_strategy(strategy);
                                let (none, obs) = (Interrupt::none(), Obs::disabled());
                                let report = tracer.time("lazy.task", root.as_ref(), id, || {
                                    let sc = &request.scenario;
                                    match request.kind {
                                        JobKind::Verify => verify_lazy_cancellable(
                                            sc,
                                            &request.layout,
                                            &config,
                                            &lazy,
                                            &none,
                                            &obs,
                                        )
                                        .map(|r| r.1),
                                        JobKind::Generate => generate_lazy_cancellable(
                                            sc, &config, &lazy, &none, &obs,
                                        )
                                        .map(|r| r.1),
                                        _ => optimize_lazy_cancellable(
                                            sc, &config, &lazy, &none, &obs,
                                        )
                                        .map(|r| r.1),
                                    }
                                    .expect("lazy task completes")
                                });
                                sum.jobs += 1;
                                sum.rounds += report.rounds as u64;
                                sum.clauses_added += report.clauses_added as u64;
                            }
                            None => {
                                let mut enc = tracer.time("core.encode", root.as_ref(), id, || {
                                    encode(&inst, &config, &request.task_kind())
                                });
                                if request.kind == JobKind::Generate {
                                    tracer.time("core.stage2", root.as_ref(), id, || {
                                        black_box(minimize_borders(
                                            &mut enc,
                                            &inst,
                                            &[],
                                            &Obs::disabled(),
                                        ))
                                    });
                                }
                            }
                        }
                        tracer.close(root);
                    }
                    sum
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("layer worker"))
            .collect()
    });
    sums.into_iter().fold(LazySum::default(), |a, b| LazySum {
        jobs: a.jobs + b.jobs,
        rounds: a.rounds + b.rounds,
        clauses_added: a.clauses_added + b.clauses_added,
    })
}

pub fn run(workload: &str, seed: u64, seconds: f64, tracer: &Tracer, oracle: &Oracle) -> RunResult {
    let config = ServeConfig {
        workers: CLIENTS,
        ..ServeConfig::default()
    };
    // Set-up builds the request lines, checks that every line parses to a
    // valid instance (the oracle keeps the scenarios), and starts the
    // service.
    let ((jobs, scenarios, first), setup_s) = timed_setup(|| {
        let jobs = if workload == "table1" {
            inputs::table1_jobs(seed)
        } else {
            inputs::corpus_jobs(seed, &mut RailCache::default())
        };
        let scenarios: Vec<Scenario> = jobs.iter().map(|j| scenario_of(&j.line)).collect();
        for s in &scenarios {
            Instance::new(s).expect("workload inputs are valid scenarios");
        }
        (jobs, scenarios, Service::new(config.clone()))
    });
    let mut result = RunResult::default();
    let mut first = Some(first);
    let mut makespans = Vec::new();
    let mut dones = Vec::new();
    let (mut hits, mut misses, mut rejected) = (0u64, 0u64, 0u64);
    let run_start = Instant::now();
    loop {
        let service = first.take().unwrap_or_else(|| Service::new(config.clone()));
        let (d, makespan) = pass(&service, &jobs, tracer, makespans.len());
        let cache = service.cache_stats().unwrap_or_default();
        hits += cache.hits;
        misses += cache.misses;
        rejected += service.queue_stats().rejected;
        drop(service);
        if makespans.is_empty() {
            result.e2e.insert("peak_rss_mb", peak_rss_mb());
        }
        makespans.push(makespan);
        dones.extend(d);
        if run_start.elapsed().as_secs_f64() + makespan > seconds {
            break;
        }
    }

    let mut sat = PayloadSums::default();
    let mut checked = Checked::default();
    let mut notes = BTreeMap::new();
    let (mut queue_wait, mut exec) = (Vec::new(), Vec::new());
    for d in &dones {
        result.attempted += 1;
        let job = &jobs[d.job];
        queue_wait.push(d.latency_ms - d.response.wall.as_secs_f64() * 1e3);
        exec.push(d.response.wall.as_secs_f64() * 1e3);
        let JobOutcome::Done(payload) = &d.response.outcome else {
            result.fail(format!(
                "{}: status {}",
                job.id,
                d.response.outcome.status()
            ));
            continue;
        };
        sat.add(payload, (!d.response.cache_hit).then_some(d.response.wall));
        let finding = tracer.time("sim.validate", None, d.job as u64, || {
            oracle.check(&job.check, &scenarios[d.job], payload)
        });
        checked.add(&finding);
        if let Some(wrong) = finding.wrong {
            result.fail(format!("{}: {wrong}", job.id));
        }
        if let Some(note) = finding.note {
            notes.insert(job.id.clone(), note);
        }
    }

    let latencies: Vec<f64> = dones.iter().map(|d| d.latency_ms).collect();
    let summary = Summary::of(&latencies);
    let (tail_label, tail) = summary.tail(90);
    let wall_s = median(&makespans);
    result.e2e.insert("setup_s", setup_s);
    result.e2e.insert("wall_s", wall_s);
    result.e2e.insert(
        "ops_per_s",
        dones.len() as f64 / makespans.iter().sum::<f64>(),
    );
    result.e2e.insert("latency_p50_ms", summary.p50);
    result.e2e.insert("latency_tail_ms", tail);
    result.report.push(format!(
        "{workload}: {} pass(es) of {} jobs, closed loop, {CLIENTS} clients; makespans {:?} s",
        makespans.len(),
        jobs.len(),
        makespans
            .iter()
            .map(|m| (m * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    ));
    result.report.push(format!(
        "latency over {} jobs: {}; latency_tail_ms is the {tail_label}",
        summary.n,
        summary.describe()
    ));
    result.report.push(format!(
        "{}; {} plans re-validated by etcs-sim",
        result.failed_share(),
        checked.validated
    ));
    let mut slowest: Vec<&Done> = dones.iter().collect();
    slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    result.report.push(format!(
        "slowest: {}",
        slowest
            .iter()
            .take(5)
            .map(|d| format!("{} {:.0} ms", jobs[d.job].id, d.latency_ms))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if workload == "table1" {
        let matching = jobs
            .iter()
            .filter(|j| {
                !result
                    .failures
                    .iter()
                    .any(|f| f.starts_with(&format!("{}:", j.id)))
            })
            .filter(|j| !notes.contains_key(&j.id))
            .count();
        result.report.push(format!(
            "Table I rows matching expected/table1.tsv in every field, witness steps included: {matching}/{}",
            jobs.len()
        ));
    }
    for (id, note) in &notes {
        result.report.push(format!("note: {id}: {note}"));
    }

    let l = &mut result.layers;
    l.insert("serve.queue_wait_ms", mean(&queue_wait));
    l.insert("serve.exec_ms", mean(&exec));
    l.insert(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert("serve.queue.rejected", rejected as f64);
    l.insert("serve.wire.parse_us", tracer.mean_us("serve.wire.parse"));
    l.insert("serve.wire.format_us", tracer.mean_us("serve.wire.format"));
    l.insert("core.cache_key_us", tracer.mean_us("core.cache_key"));
    sat.write(l);
    checked.write(l);
    if tracer.is_on() {
        let lazy = layer_pass(&jobs, tracer, (makespans.len() * jobs.len()) as u64);
        let l = &mut result.layers;
        l.insert(
            "network.instance_ms",
            tracer.mean_us("network.instance") / 1e3,
        );
        l.insert(
            "network.rail_parse_us",
            tracer.mean_us("network.rail_parse"),
        );
        l.insert("core.encode_ms", tracer.mean_us("core.encode") / 1e3);
        l.insert("core.stage2_ms", tracer.mean_us("core.stage2") / 1e3);
        l.insert("lazy.rounds", lazy.rounds as f64 / lazy.jobs.max(1) as f64);
        l.insert(
            "lazy.clauses_added",
            lazy.clauses_added as f64 / lazy.jobs.max(1) as f64,
        );
    }
    result
}
