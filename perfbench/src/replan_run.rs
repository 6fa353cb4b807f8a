//! `replan`: `.delta` traces replayed as `served` session records
//! (open/delta/tick/close) through `ReplanManager`, the record handler of
//! `served` and of the shard's `replan` frame. One client replays the
//! sessions in order, as one `served` process handles its record stream;
//! a second client would measure the shared host's scheduler more than
//! the program. One pass replays every session once on a fresh manager,
//! and a run makes whole passes until `--seconds` would be exceeded, at
//! least one.
//!
//! Every tick is checked against a cold `optimize_incremental` solve of
//! the scenario the session should hold at that point, tracked
//! independently with `LiveScenario`.

use std::collections::BTreeMap;
use std::time::Instant;

use etcs_core::EncoderConfig;
use etcs_network::Scenario;
use etcs_obs::json::{self, Json};
use etcs_obs::Obs;
use etcs_replan::ReplanConfig;
use etcs_sat::Interrupt;
use etcs_serve::{execute, JobKind, JobOutcome, JobRequest, ReplanManager};

use crate::inputs::{replan_sessions, RailCache, Session};
use crate::stats::{mean, Summary};
use crate::trace::Tracer;
use crate::{peak_rss_mb, timed_setup, RunResult, CLIENTS};

struct Answer {
    session: usize,
    record: usize,
    ms: f64,
    response: String,
    failed: bool,
}

fn kind_of(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("record").and_then(Json::as_str).map(str::to_owned))
        .unwrap_or_default()
}

fn pass(sessions: &[Session], tracer: &Tracer, pass_no: usize) -> (Vec<Answer>, f64) {
    let start = Instant::now();
    let mut manager = ReplanManager::new(ReplanConfig::default(), Obs::disabled());
    let mut answers = Vec::new();
    for (si, session) in sessions.iter().enumerate() {
        let job = (pass_no * sessions.len() + si) as u64;
        let root = tracer.open("replan.session", None, job);
        for (ri, record) in session.records.iter().enumerate() {
            let t0 = Instant::now();
            let (response, failed) = manager.handle(&record.line, "replan");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if tracer.is_on() {
                let name = match kind_of(&response).as_str() {
                    "ticked" if response.contains("\"warm\": true") => "replan.tick.warm",
                    "ticked" => "replan.tick.cold",
                    "delta_ok" => "replan.apply",
                    "opened" => "replan.open",
                    "closed" => "replan.close",
                    _ => "replan.error",
                };
                tracer.record(name, root.as_ref(), job, t0);
            }
            answers.push(Answer {
                session: si,
                record: ri,
                ms,
                response,
                failed,
            });
        }
        tracer.close(root);
    }
    (answers, start.elapsed().as_secs_f64())
}

/// `(feasible, costs)` of a `ticked` response.
fn tick_answer(v: &Json) -> Option<(bool, Vec<u64>)> {
    let feasible = matches!(v.get("feasible")?, Json::Bool(true));
    let Json::Arr(costs) = v.get("costs")? else {
        return None;
    };
    let costs = costs
        .iter()
        .map(|c| c.as_f64().map(|x| x as u64))
        .collect::<Option<_>>()?;
    Some((feasible, costs))
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let (sessions, setup_s) = timed_setup(|| replan_sessions(seed, &mut RailCache::default()));
    let mut makespans = Vec::new();
    let mut answers = Vec::new();
    let mut peak_rss = 0.0;
    let run_start = Instant::now();
    loop {
        let (a, makespan) = pass(&sessions, tracer, makespans.len());
        if makespans.is_empty() {
            peak_rss = peak_rss_mb();
        }
        makespans.push(makespan);
        answers.extend(a);
        if run_start.elapsed().as_secs_f64() + makespan > seconds {
            break;
        }
    }

    // Cold references, one per distinct scenario a tick should plan for,
    // solved on [`CLIENTS`] threads.
    let config = EncoderConfig::default();
    let mut distinct: BTreeMap<u128, &Scenario> = BTreeMap::new();
    let mut tick_key: BTreeMap<(usize, usize), u128> = BTreeMap::new();
    for (si, session) in sessions.iter().enumerate() {
        for (ri, record) in session.records.iter().enumerate() {
            let Some(scenario) = &record.tick else {
                continue;
            };
            let key = JobRequest::new("cold", JobKind::OptimizeIncremental, scenario.clone())
                .cache_key(&config);
            tick_key.insert((si, ri), key);
            distinct.entry(key).or_insert(scenario);
        }
    }
    let distinct: Vec<(u128, &Scenario)> = distinct.into_iter().collect();
    let cold: BTreeMap<u128, (bool, Vec<u64>)> = std::thread::scope(|s| {
        let solvers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let distinct = &distinct;
                s.spawn(move || {
                    distinct
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|(key, scenario)| {
                            let request = JobRequest::new(
                                "cold",
                                JobKind::OptimizeIncremental,
                                (*scenario).clone(),
                            );
                            match execute(&request, &config, &Interrupt::none(), &Obs::disabled()) {
                                JobOutcome::Done(p) => (*key, (p.feasible, p.costs.clone())),
                                other => {
                                    panic!("cold reference did not complete: {}", other.status())
                                }
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        solvers
            .into_iter()
            .flat_map(|h| h.join().expect("cold reference solver"))
            .collect()
    });

    let mut result = RunResult::default();
    let (mut ticks, mut warm_ms, mut cold_ms, mut apply_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut conflicts, mut solver_calls) = (0u64, 0u64);
    for a in &answers {
        result.attempted += 1;
        let session = &sessions[a.session];
        let label = format!("{} record {}", session.id, a.record);
        if a.failed {
            result.fail(format!("{label}: {}", a.response));
            continue;
        }
        let Ok(v) = json::parse(&a.response) else {
            result.fail(format!("{label}: unparsable response"));
            continue;
        };
        match v.get("record").and_then(Json::as_str) {
            Some("delta_ok") => apply_us.push(a.ms * 1e3),
            Some("ticked") => {
                ticks.push(a.ms);
                let warm = matches!(v.get("warm"), Some(Json::Bool(true)));
                if warm { &mut warm_ms } else { &mut cold_ms }.push(a.ms);
                let count = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                conflicts += count("conflicts");
                solver_calls += count("solver_calls");
                let expected = &cold[&tick_key[&(a.session, a.record)]];
                match tick_answer(&v) {
                    Some(got) if &got == expected => {}
                    got => result.fail(format!(
                        "{label}: tick answered {got:?}, cold solve {expected:?}"
                    )),
                }
                if matches!(v.get("stale"), Some(Json::Bool(true))) {
                    result.fail(format!("{label}: stale tick"));
                }
            }
            _ => {}
        }
    }

    // Every time figure takes each record at its fastest over the run's
    // passes. A pass replays the same records on a fresh manager, so each
    // does the same work every time, and the shared host's contention only
    // ever adds to it; over six seeds the median pass moved with the host
    // far more than the per-record minimum did. A pass is one stream of
    // records, so its time is theirs summed.
    let mut fastest: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for a in &answers {
        let ms = fastest.entry((a.session, a.record)).or_insert(a.ms);
        *ms = ms.min(a.ms);
    }
    let wall_s = fastest.values().sum::<f64>() / 1e3;
    let tick_ms: Vec<f64> = tick_key.keys().map(|k| fastest[k]).collect();
    let summary = Summary::of(&tick_ms);
    let (tail_label, tail) = summary.tail(90);
    result.e2e.insert("setup_s", setup_s);
    result.e2e.insert("peak_rss_mb", peak_rss);
    result.e2e.insert("wall_s", wall_s);
    let ticks_per_s = tick_ms.len() as f64 / wall_s;
    result.e2e.insert("ops_per_s", ticks_per_s);
    result.e2e.insert("latency_p50_ms", summary.p50);
    result.e2e.insert("latency_tail_ms", tail);
    result.report.push(format!(
        "replan: {} pass(es) of {} sessions ({} records), one client; makespans {:?} s",
        makespans.len(),
        sessions.len(),
        sessions.iter().map(|s| s.records.len()).sum::<usize>(),
        makespans
            .iter()
            .map(|m| (m * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    ));
    result.report.push(format!(
        "fastest tick latency over {} ticks ({} warm, {} cold per pass): {}; latency_tail_ms is the {tail_label}",
        summary.n,
        warm_ms.len() / makespans.len(),
        cold_ms.len() / makespans.len(),
        summary.describe()
    ));
    result.report.push(format!(
        "{}; {} distinct cold references",
        result.failed_share(),
        cold.len()
    ));
    let n = ticks.len().max(1) as f64;
    let l = &mut result.layers;
    l.insert("replan.apply_us", mean(&apply_us));
    l.insert("replan.warm_tick_ms", mean(&warm_ms));
    l.insert("replan.cold_tick_ms", mean(&cold_ms));
    l.insert("replan.warm_hit_ratio", warm_ms.len() as f64 / n);
    l.insert("replan.conflicts_per_tick", conflicts as f64 / n);
    l.insert("sat.conflicts", conflicts as f64 / n);
    l.insert("sat.solve_calls", solver_calls as f64 / n);
    result
}
