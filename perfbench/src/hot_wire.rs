//! `hot_wire`: an open loop of `served`-format request lines over
//! [`WIRE_CONNECTIONS`] loopback connections to one in-process
//! `ShardServer` (the `served --listen` socket mode). Most requests repeat
//! a warm key set answered from the cache; one in [`WIRE_MISS_EVERY`] is a
//! unique cheap miss sent as an inline `rail:` scenario.
//!
//! Requests are sent at fixed rates ([`WIRE_RATES`]), each for an equal
//! share of `--seconds`. Latency counts from a request's due time, not from
//! when it was sent, so a stall delays every request queued behind it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use etcs_core::{encode, EncoderConfig, Instance};
use etcs_network::parse_scenario;
use etcs_obs::json;
use etcs_obs::Obs;
use etcs_serve::wire::{
    parse_request_line, response_line, JobDone, ShardClient, ShardServer, ShardServerConfig,
    WireError,
};
use etcs_serve::{JobOutcome, JobPayload, JobResponse, ServeConfig, Service};

use crate::closed_loop::{rail_text, scenario_of, Checked, PayloadSums};
use crate::inputs::{hot_wire_inputs, RailCache, WireInputs, WIRE_CONNECTIONS, WIRE_RATES};
use crate::oracle::Oracle;
use crate::stats::{mean, Summary};
use crate::trace::Tracer;
use crate::{peak_rss_mb, timed_setup, RunResult, CLIENTS};

/// The latency limit on each rate step's highest reportable percentile.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// A running shard with connected clients; dropping it stops the shard
/// and joins its threads.
struct Shard {
    server: Option<ShardServer>,
    clients: Vec<ShardClient>,
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.kill();
            let _ = server.wait();
        }
    }
}

struct Setup {
    shard: Shard,
    inputs: WireInputs,
    /// The warm-up answer of each warm job.
    warm: Vec<Result<JobDone, WireError>>,
}

/// Sends `lines[i]` for every `i` in `jobs`, spread over the clients.
fn send_all(clients: &mut [ShardClient], lines: &[&str]) -> Vec<Result<JobDone, WireError>> {
    let n = clients.len();
    let mut answers: Vec<(usize, Result<JobDone, WireError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    (c..lines.len())
                        .step_by(n)
                        .map(|i| (i, client.job(lines[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    answers.sort_by_key(|(i, _)| *i);
    answers.into_iter().map(|(_, a)| a).collect()
}

fn start(seed: u64, seconds: f64) -> Setup {
    let inputs = hot_wire_inputs(seed, seconds, &mut RailCache::default());
    let service = Service::new(ServeConfig {
        workers: CLIENTS,
        ..ServeConfig::default()
    });
    let server = ShardServer::spawn(
        "127.0.0.1:0",
        service,
        ShardServerConfig::default(),
        Obs::disabled(),
    )
    .expect("loopback bind");
    let addr = server.addr().to_string();
    let mut shard = Shard {
        server: Some(server),
        clients: (0..WIRE_CONNECTIONS)
            .map(|_| ShardClient::connect(&addr).expect("loopback connect"))
            .collect(),
    };
    let lines: Vec<&str> = inputs.jobs[..inputs.warm]
        .iter()
        .map(|j| j.line.as_str())
        .collect();
    let warm = send_all(&mut shard.clients, &lines);
    Setup {
        shard,
        inputs,
        warm,
    }
}

struct Sent {
    index: usize,
    latency_ms: f64,
    lag_ms: f64,
    service_ms: f64,
    /// The shard's answer; a hit's payload is dropped once digested, so
    /// the client's own memory does not grow with the request count.
    answer: Result<JobDone, WireError>,
    digest: Option<u128>,
}

fn open_loop(
    clients: &mut [ShardClient],
    inputs: &WireInputs,
    tracer: &Tracer,
) -> (Vec<Sent>, f64) {
    let n = clients.len();
    // A short lead so both senders are running before the first due time.
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for index in (c..inputs.schedule.len()).step_by(n) {
                        let r = inputs.schedule[index];
                        let due = t0 + Duration::from_micros(r.due_us);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let span = tracer.open("serve.wire.roundtrip", None, index as u64);
                        let answer = client.job(&inputs.jobs[r.job].line);
                        tracer.close(span);
                        let done = Instant::now();
                        let ms = |a: Instant, b: Instant| a.duration_since(b).as_secs_f64() * 1e3;
                        let mut answer = answer;
                        let digest = answer.as_mut().ok().and_then(|d| {
                            let digest = d.payload.as_ref().map(JobPayload::digest);
                            if !r.miss {
                                d.payload = None;
                            }
                            digest
                        });
                        out.push(Sent {
                            index,
                            latency_ms: ms(done, due),
                            lag_ms: ms(sent, due),
                            service_ms: ms(done, sent),
                            answer,
                            digest,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop sender"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    (sent, Instant::now().duration_since(t0).as_secs_f64())
}

/// Whether one rate step met the latency limit without a growing backlog:
/// its highest reportable percentile is within the limit, and its last
/// request went out no later than the limit after its due time.
fn step_ok(latencies: &[f64], last_lag_ms: f64) -> bool {
    Summary::of(latencies).tail(99).1 <= LATENCY_LIMIT_MS && last_lag_ms <= LATENCY_LIMIT_MS
}

fn wall_ms_of(response: &str) -> f64 {
    json::parse(response)
        .ok()
        .and_then(|v| v.get("wall_ms").and_then(json::Json::as_f64))
        .unwrap_or(0.0)
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, oracle: &Oracle) -> RunResult {
    let (mut setup, setup_s) = timed_setup(|| start(seed, seconds));
    let (sent, wall_s) = open_loop(&mut setup.shard.clients, &setup.inputs, tracer);
    let peak_rss = peak_rss_mb();
    let inputs = &setup.inputs;
    let mut result = RunResult::default();
    let mut sat = PayloadSums::default();
    let mut checked = Checked::default();

    // Warm answers: checked against the expectations, then every hit on
    // the same key must return a bit-identical payload.
    let mut warm_digest = vec![None; inputs.warm];
    for (i, answer) in setup.warm.iter().enumerate() {
        result.attempted += 1;
        let job = &inputs.jobs[i];
        match answer.as_ref().map(|d| d.payload.as_ref()) {
            Ok(Some(payload)) => {
                let finding = oracle.check(&job.check, &scenario_of(&job.line), payload);
                checked.add(&finding);
                match finding.wrong {
                    Some(wrong) => result.fail(format!("warm {}: {wrong}", job.id)),
                    None => warm_digest[i] = Some(payload.digest()),
                }
            }
            Ok(None) => result.fail(format!("warm {}: no payload", job.id)),
            Err(e) => result.fail(format!("warm {}: {e}", job.id)),
        }
    }

    let (mut hits, mut exec, mut queue_wait) = (0u64, Vec::new(), Vec::new());
    for s in &sent {
        result.attempted += 1;
        let r = inputs.schedule[s.index];
        let job = &inputs.jobs[r.job];
        let done = match &s.answer {
            Ok(done) if done.status == "done" => done,
            Ok(done) => {
                result.fail(format!("{}: status {}", job.id, done.status));
                continue;
            }
            Err(e) => {
                result.fail(format!("{}: {e}", job.id));
                continue;
            }
        };
        let wall = wall_ms_of(&done.response);
        exec.push(wall);
        queue_wait.push(s.service_ms - wall);
        hits += u64::from(done.cache_hit);
        if !r.miss {
            if s.digest.is_none() || warm_digest[r.job] != s.digest {
                result.fail(format!(
                    "{}: payload differs from its warm-up answer",
                    job.id
                ));
            }
        } else if let Some(payload) = &done.payload {
            if !done.cache_hit {
                sat.add(payload, Some(Duration::from_secs_f64(wall / 1e3)));
            }
            let finding = tracer.time("sim.validate", None, s.index as u64, || {
                oracle.check(&job.check, &scenario_of(&job.line), payload)
            });
            checked.add(&finding);
            if let Some(wrong) = finding.wrong {
                result.fail(format!("{}: {wrong}", job.id));
            }
        } else {
            result.fail(format!("{}: done without a payload", job.id));
        }
    }

    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let summary = Summary::of(&latencies);
    let (tail_label, tail) = summary.tail(99);
    let completed = sent
        .iter()
        .filter(|s| matches!(&s.answer, Ok(d) if d.status == "done"))
        .count();
    result.e2e.insert("setup_s", setup_s);
    result.e2e.insert("peak_rss_mb", peak_rss);
    result.e2e.insert("wall_s", wall_s);
    result.e2e.insert("ops_per_s", completed as f64 / wall_s);
    result.e2e.insert("latency_p50_ms", summary.p50);
    result.e2e.insert("latency_tail_ms", tail);
    result.report.push(format!(
        "hot_wire: open loop over {WIRE_CONNECTIONS} connections, {} requests ({} unique misses), {} warm keys",
        sent.len(),
        inputs.schedule.iter().filter(|r| r.miss).count(),
        inputs.warm
    ));
    result.report.push(format!(
        "latency from due time over {} requests: {}; latency_tail_ms is the {tail_label}",
        summary.n,
        summary.describe()
    ));
    let mut max_rate_ok = 0.0;
    for (step, rate) in WIRE_RATES.iter().enumerate() {
        let in_step: Vec<&Sent> = sent
            .iter()
            .filter(|s| inputs.schedule[s.index].step == step)
            .collect();
        let lat: Vec<f64> = in_step.iter().map(|s| s.latency_ms).collect();
        let last_lag = in_step.last().map_or(0.0, |s| s.lag_ms);
        let ok = step_ok(&lat, last_lag);
        if ok {
            max_rate_ok = *rate;
        }
        let sum = Summary::of(&lat);
        let (label, value) = sum.tail(99);
        result.report.push(format!(
            "  rate {rate:>6.1}/s: n {:>5}, p50 {:>8.3} ms, {label} {value:>8.3} ms, last lag {last_lag:>7.3} ms -> {}",
            sum.n,
            sum.p50,
            if ok { "ok" } else { "over limit" }
        ));
    }
    result.report.push(format!(
        "max_rate_ok_per_s {max_rate_ok} (limit {LATENCY_LIMIT_MS} ms on each step's highest reportable percentile); \
         generator lag mean {:.3} ms",
        mean(&sent.iter().map(|s| s.lag_ms).collect::<Vec<_>>())
    ));
    result.report.push(format!(
        "{}; {} plans re-validated by etcs-sim",
        result.failed_share(),
        checked.validated
    ));

    let l = &mut result.layers;
    l.insert("serve.queue_wait_ms", mean(&queue_wait));
    l.insert("serve.exec_ms", mean(&exec));
    l.insert(
        "serve.cache.hit_ratio",
        hits as f64 / sent.len().max(1) as f64,
    );
    l.insert(
        "serve.queue.rejected",
        sent.iter()
            .filter(|s| matches!(&s.answer, Ok(d) if d.status == "rejected"))
            .count() as f64,
    );
    sat.write(l);
    checked.write(l);
    if tracer.is_on() {
        layer_pass(inputs, &setup.warm, &sent, tracer);
        let l = &mut result.layers;
        for (metric, span, scale) in [
            ("serve.wire.parse_us", "serve.wire.parse", 1.0),
            ("serve.wire.format_us", "serve.wire.format", 1.0),
            ("core.cache_key_us", "core.cache_key", 1.0),
            ("network.rail_parse_us", "network.rail_parse", 1.0),
            ("network.instance_ms", "network.instance", 1e-3),
            ("core.encode_ms", "core.encode", 1e-3),
        ] {
            l.insert(metric, tracer.mean_us(span) * scale);
        }
    }
    result
}

/// Traced runs only, after the open loop: every request line once more
/// through the public calls the shard makes on it — request parsing (with
/// its `.rail` parse), the cache key, and response formatting — and, for
/// misses, the instance build and encoding, each in a span.
fn layer_pass(
    inputs: &WireInputs,
    warm: &[Result<JobDone, WireError>],
    sent: &[Sent],
    tracer: &Tracer,
) {
    let config = EncoderConfig::default();
    let base = sent.len() as u64;
    for s in sent {
        let r = inputs.schedule[s.index];
        let line = &inputs.jobs[r.job].line;
        let id = base + s.index as u64;
        let root = tracer.open("layers.request", None, id);
        let request = tracer
            .time("serve.wire.parse", root.as_ref(), id, || {
                parse_request_line(line, "job", false, None)
            })
            .expect("generated lines parse");
        if let Some(text) = rail_text(line) {
            tracer.time("network.rail_parse", root.as_ref(), id, || {
                black_box(parse_scenario(&text).expect("generated rail parses"))
            });
        }
        tracer.time("core.cache_key", root.as_ref(), id, || {
            black_box(request.cache_key(&config))
        });
        // A hit's payload equals its warm-up answer (checked above).
        let payload = match (&s.answer, warm.get(r.job)) {
            (Ok(d), _) if d.payload.is_some() => d.payload.as_ref(),
            (Ok(_), Some(Ok(w))) => w.payload.as_ref(),
            _ => None,
        };
        if let (Ok(done), Some(payload)) = (&s.answer, payload) {
            let response = JobResponse {
                id: request.id.clone(),
                outcome: JobOutcome::Done(Box::new(payload.clone())),
                cache_hit: done.cache_hit,
                wall: Duration::from_micros(1),
            };
            tracer.time("serve.wire.format", root.as_ref(), id, || {
                black_box(response_line(&response))
            });
        }
        if r.miss {
            let inst = tracer.time("network.instance", root.as_ref(), id, || {
                Instance::new(&request.scenario).expect("valid scenario")
            });
            tracer.time("core.encode", root.as_ref(), id, || {
                black_box(encode(&inst, &config, &request.task_kind()))
            });
        }
        tracer.close(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{table1_job, WireRequest};

    /// One request stalls the only connection for 300 ms; the requests
    /// due behind it must show the stall in their latency even though
    /// each one is answered quickly once sent.
    #[test]
    fn latency_counts_from_the_due_time_so_a_stall_inflates_later_requests() {
        let service = Service::new(ServeConfig::default());
        let server = ShardServer::spawn(
            "127.0.0.1:0",
            service,
            ShardServerConfig::default(),
            Obs::disabled(),
        )
        .expect("bind");
        let addr = server.addr().to_string();
        let mut shard = Shard {
            server: Some(server),
            clients: vec![ShardClient::connect(&addr).expect("connect")],
        };
        let quick = table1_job(0, 1);
        let stall = {
            let mut j = table1_job(0, 1);
            j.line = j
                .line
                .replace("\"generate\"", "\"generate\", \"deadline_ms\": 300")
                .replace("running_example", "simple_layout");
            j
        };
        // Warm the quick key so every later quick request is a cache hit.
        shard.clients[0].job(&quick.line).expect("warm");
        let mut schedule = vec![WireRequest {
            due_us: 0,
            job: 1,
            step: 0,
            miss: true,
        }];
        for i in 1..=10 {
            schedule.push(WireRequest {
                due_us: i * 10_000,
                job: 0,
                step: 0,
                miss: false,
            });
        }
        let inputs = WireInputs {
            jobs: vec![quick, stall],
            warm: 1,
            schedule,
        };
        let (sent, _) = open_loop(&mut shard.clients, &inputs, &Tracer::new(false));
        assert!(
            sent[0].service_ms >= 250.0,
            "the stall holds the connection"
        );
        for s in &sent[1..] {
            assert!(s.service_ms < 100.0, "each later request is fast once sent");
            assert!(s.lag_ms > 150.0, "but it was sent late");
            assert!(s.latency_ms >= s.lag_ms + s.service_ms - 1.0);
        }
        assert!(
            Summary::of(&sent[1..].iter().map(|s| s.latency_ms).collect::<Vec<_>>()).p50 > 150.0
        );
    }
}
