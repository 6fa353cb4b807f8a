//! Seeded inputs of every workload. The program under test only ever sees
//! what these functions produce: `served`-format request lines and session
//! records. The same seed always yields the same lines.

use etcs_corpus::{sample_specs, Family, InstanceSpec, SizeClass};
use etcs_network::{fixtures, write_scenario, Scenario, Seconds};
use etcs_obs::json::quote;
use etcs_replan::{parse_trace, write_trace, LiveScenario, ScenarioDelta, TraceOp};
use etcs_serve::JobKind;
use std::collections::BTreeMap;

/// splitmix64: a tiny deterministic stream for drawing inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One job as a client submits it: a `served` request line plus what the
/// oracle checks its answer against.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: String,
    pub line: String,
    pub check: Check,
}

/// Where a job's expected answer comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Row `(fixture index, kind index)` of the paper's Table I.
    Table1(usize, usize),
    /// An entry of the checked-in corpus pool expectations.
    Pool(PoolJob),
}

fn request_line(id: &str, kind: JobKind, scenario_spec: &str, extra: &str) -> String {
    format!(
        "{{\"id\": {}, \"kind\": {}, \"scenario\": {}{extra}}}",
        quote(id),
        quote(kind.name()),
        quote(scenario_spec)
    )
}

// ---------------------------------------------------------------------------
// table1
// ---------------------------------------------------------------------------

/// The four Table I fixtures, by their `fixture:` names.
pub const TABLE1_FIXTURES: [&str; 4] = [
    "running_example",
    "simple_layout",
    "complex_layout",
    "nordlandsbanen",
];

/// The three Table I tasks, in the paper's row order.
pub const TABLE1_KINDS: [JobKind; 3] = [JobKind::Verify, JobKind::Generate, JobKind::Optimize];

pub fn table1_job(fixture: usize, kind: usize) -> Job {
    let name = TABLE1_FIXTURES[fixture];
    let k = TABLE1_KINDS[kind];
    let id = format!("t1-{name}-{}", k.name());
    let layout = if k == JobKind::Verify {
        ", \"layout\": \"pure_ttd\""
    } else {
        ""
    };
    Job {
        line: request_line(&id, k, &format!("fixture:{name}"), layout),
        id,
        check: Check::Table1(fixture, kind),
    }
}

/// The 12 Table I jobs, longest first: the two Simple Layout proofs (most
/// of the work) start one per client, then the three Complex Layout jobs
/// (1–4 s); the seed orders the seven jobs under a second that finish the
/// run. The makespan therefore depends on how fast the proofs run, not on
/// the seed.
pub fn table1_jobs(seed: u64) -> Vec<Job> {
    let heavy = [(1, 1), (1, 0), (2, 1), (2, 0), (2, 2)];
    let mut light: Vec<(usize, usize)> = (0..4)
        .flat_map(|f| (0..3).map(move |k| (f, k)))
        .filter(|fk| !heavy.contains(fk))
        .collect();
    Rng::new(seed).shuffle(&mut light);
    heavy
        .into_iter()
        .chain(light)
        .map(|(f, k)| table1_job(f, k))
        .collect()
}

// ---------------------------------------------------------------------------
// The corpus pool
// ---------------------------------------------------------------------------

/// Seed of the instance stream the pool draws from.
pub const POOL_BASE_SEED: u64 = 0x00C0_FFEE;
/// Instances per family in each size class of the pool.
pub const POOL_SIZES: [(SizeClass, usize); 2] = [(SizeClass::Small, 56), (SizeClass::Medium, 4)];
/// Kinds a pool job can have.
pub const POOL_KINDS: [JobKind; 3] = [
    JobKind::Verify,
    JobKind::Generate,
    JobKind::OptimizeIncremental,
];

/// One job of the fixed corpus pool. Every pool job has a checked-in
/// expected answer in `expected/corpus_pool.tsv`; the corpus, hot_wire
/// and replan workloads draw only from the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolJob {
    pub family: Family,
    pub size: SizeClass,
    pub instance: usize,
    /// Index into [`POOL_KINDS`].
    pub kind: usize,
    pub lazy: bool,
}

impl PoolJob {
    /// Stable key of the expectations file.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.family.name(),
            self.size.name(),
            self.instance,
            self.job_kind().name(),
            if self.lazy { "lazy" } else { "eager" }
        )
    }

    pub fn job_kind(&self) -> JobKind {
        POOL_KINDS[self.kind]
    }

    pub fn spec(&self) -> InstanceSpec {
        pool_spec(self.family, self.size, self.instance)
    }

    /// The request line, with the instance sent inline as `rail:` text.
    pub fn job(&self, id: String, rail: &str) -> Job {
        let mut extra = String::new();
        if self.job_kind() == JobKind::Verify {
            extra.push_str(", \"layout\": \"pure_ttd\"");
        }
        if self.lazy {
            extra.push_str(", \"lazy\": \"all-violated\"");
        }
        Job {
            line: request_line(&id, self.job_kind(), &format!("rail:{rail}"), &extra),
            id,
            check: Check::Pool(*self),
        }
    }
}

pub fn pool_spec(family: Family, size: SizeClass, instance: usize) -> InstanceSpec {
    let (size_index, count) = POOL_SIZES
        .iter()
        .enumerate()
        .find(|(_, (s, _))| *s == size)
        .map(|(i, (_, n))| (i as u64, *n))
        .expect("size class is in the pool");
    sample_specs(family, size, count, POOL_BASE_SEED + size_index)[instance]
}

/// Every pool job: each Small instance with every kind, eager and lazy,
/// and the fixed Medium jobs of [`corpus_medium`].
pub fn pool() -> Vec<PoolJob> {
    let mut jobs = Vec::new();
    for family in Family::ALL {
        for instance in 0..POOL_SIZES[0].1 {
            for kind in 0..POOL_KINDS.len() {
                for lazy in [false, true] {
                    jobs.push(PoolJob {
                        family,
                        size: SizeClass::Small,
                        instance,
                        kind,
                        lazy,
                    });
                }
            }
        }
        jobs.extend(corpus_medium(family));
    }
    jobs
}

/// `.rail` text of pool instances, built once per instance.
#[derive(Debug, Default)]
pub struct RailCache(BTreeMap<(Family, SizeClass, usize), String>);

impl RailCache {
    pub fn get(&mut self, job: &PoolJob) -> &str {
        self.0
            .entry((job.family, job.size, job.instance))
            .or_insert_with(|| write_scenario(&job.spec().build()))
    }
}

// ---------------------------------------------------------------------------
// corpus
// ---------------------------------------------------------------------------

/// Small jobs per family in a corpus draw (grid_ladder's are fixed).
const CORPUS_SMALL: usize = 18;
/// grid_ladder's fixed Small jobs in a corpus draw.
const CORPUS_GRID_SMALL: usize = 8;

/// Kind and lazy flag of Small slot `j`: kinds rotate verify, generate,
/// optimize_incremental; a third of the slots are lazy.
fn corpus_small_slot(j: usize) -> (usize, bool) {
    (j % POOL_KINDS.len(), j % 9 < 3)
}

/// The fixed Medium part of every corpus draw: each Medium pool instance
/// once, instance `i` with kind `i % 3`, lazy for odd `i`.
fn corpus_medium(family: Family) -> impl Iterator<Item = PoolJob> {
    (0..POOL_SIZES[1].1).map(move |i| PoolJob {
        family,
        size: SizeClass::Medium,
        instance: i,
        kind: i % POOL_KINDS.len(),
        lazy: i % 2 == 1,
    })
}

/// A seeded draw of 100 distinct pool jobs over all five families, 37 of
/// them lazy.
///
/// grid_ladder solve times are heavy-tailed (its Medium jobs take
/// 0.3–23 s, its Small ones up to 0.5 s, every other family's at most
/// 0.5 s), so a seeded choice among them would move the makespan and the
/// tail by more than any bound. The 20 Medium jobs and grid_ladder's 8
/// Small jobs are therefore the same in every draw; the seed draws the
/// other families' 72 Small jobs and their order. With 72 of 100 jobs
/// drawn from the cheap families, the median lands in the dense middle of
/// their costs rather than in their sparse upper tail. The Medium jobs go
/// first, grid_ladder's longest first, in a fixed order: the large
/// encodings then overlap the same way in every run (which keeps the peak
/// resident set steady), and the run does not end on one long job with
/// one client idle.
pub fn corpus_draw(seed: u64) -> Vec<PoolJob> {
    let mut rng = Rng::new(seed ^ 0xC0_4B05);
    let mut draw: Vec<PoolJob> = corpus_medium(Family::GridLadder).collect();
    draw.reverse();
    draw.extend(Family::ALL[1..].iter().flat_map(|&f| corpus_medium(f)));
    let mut small = Vec::new();
    for family in Family::ALL {
        let grid = family == Family::GridLadder;
        let mut picks: Vec<Vec<usize>> = (0..POOL_KINDS.len())
            .map(|_| {
                let mut v: Vec<usize> = (0..POOL_SIZES[0].1).collect();
                if !grid {
                    rng.shuffle(&mut v);
                }
                v
            })
            .collect();
        let slots = if grid {
            CORPUS_GRID_SMALL
        } else {
            CORPUS_SMALL
        };
        for j in 0..slots {
            let (kind, lazy) = corpus_small_slot(j);
            small.push(PoolJob {
                family,
                size: SizeClass::Small,
                instance: picks[kind].pop().expect("pool has enough instances"),
                kind,
                lazy,
            });
        }
    }
    rng.shuffle(&mut small);
    draw.extend(small);
    draw
}

pub fn corpus_jobs(seed: u64, rails: &mut RailCache) -> Vec<Job> {
    corpus_draw(seed)
        .iter()
        .enumerate()
        .map(|(i, p)| p.job(format!("c{i}-{}", p.key()), rails.get(p)))
        .collect()
}

// ---------------------------------------------------------------------------
// hot_wire
// ---------------------------------------------------------------------------

/// Request rates of the open loop, in requests per second; each runs for
/// an equal share of the run.
pub const WIRE_RATES: [f64; 3] = [50.0, 100.0, 200.0];
/// One request in this many is a unique miss; the rest repeat warm keys.
pub const WIRE_MISS_EVERY: usize = 10;
/// Small pool instances whose jobs form the warm key set; misses use the
/// instances after them.
pub const WIRE_WARM_INSTANCES: usize = 6;
/// Client connections to the shard.
pub const WIRE_CONNECTIONS: usize = 2;

/// One scheduled request of the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Due time, microseconds after the start of the open loop.
    pub due_us: u64,
    /// Index into [`WireInputs::jobs`].
    pub job: usize,
    /// Rate step (index into [`WIRE_RATES`]).
    pub step: usize,
    pub miss: bool,
}

#[derive(Clone, Debug)]
pub struct WireInputs {
    /// Warm jobs first (`..warm`), then the unique misses in send order.
    pub jobs: Vec<Job>,
    pub warm: usize,
    pub schedule: Vec<WireRequest>,
}

/// The warm key set: the running example's three Table I jobs and, per
/// family, one job for each of the first [`WIRE_WARM_INSTANCES`] Small
/// instances (kind `i % 3`, lazy for `i >= 3`): 33 keys, far below the
/// service's cache capacity of 128. It is the same for every seed, so the
/// payload sizes behind the hits are too.
fn wire_warm(rails: &mut RailCache) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..3).map(|k| table1_job(0, k)).collect();
    for family in Family::ALL {
        for i in 0..WIRE_WARM_INSTANCES {
            let p = PoolJob {
                family,
                size: SizeClass::Small,
                instance: i,
                kind: i % POOL_KINDS.len(),
                lazy: i >= 3,
            };
            jobs.push(p.job(format!("w{}-{}", jobs.len(), p.key()), rails.get(&p)));
        }
    }
    jobs
}

/// Misses are eager Small `verify` and `generate` jobs on instances outside
/// the warm set, each with a plan the simulator can re-validate. They cost
/// 3–17 ms, except grid_ladder's (16–60 ms), which are left out: a handful
/// of them would set the p99 by themselves and move it with every draw.
fn wire_misses(rng: &mut Rng) -> Vec<PoolJob> {
    let mut misses: Vec<PoolJob> = pool()
        .into_iter()
        .filter(|p| {
            p.size == SizeClass::Small
                && p.family != Family::GridLadder
                && p.job_kind() != JobKind::OptimizeIncremental
                && !p.lazy
                && p.instance >= WIRE_WARM_INSTANCES
        })
        .collect();
    rng.shuffle(&mut misses);
    misses
}

pub fn hot_wire_inputs(seed: u64, seconds: f64, rails: &mut RailCache) -> WireInputs {
    let mut rng = Rng::new(seed ^ 0x407_3153);
    let mut misses = wire_misses(&mut rng);
    let mut jobs = wire_warm(rails);
    let warm = jobs.len();
    let step_us = seconds * 1e6 / WIRE_RATES.len() as f64;
    let mut schedule = Vec::new();
    let mut n = 0usize;
    for (step, rate) in WIRE_RATES.iter().enumerate() {
        let count = (rate * step_us / 1e6).round() as usize;
        for i in 0..count {
            let due_us = (step as f64 * step_us + i as f64 * 1e6 / rate) as u64;
            n += 1;
            let miss = n.is_multiple_of(WIRE_MISS_EVERY);
            let job = if miss {
                let p = misses
                    .pop()
                    .expect("the pool holds more unique misses than one run sends");
                jobs.push(p.job(format!("m{n}-{}", p.key()), rails.get(&p)));
                jobs.len() - 1
            } else {
                rng.below(warm)
            };
            schedule.push(WireRequest {
                due_us,
                job,
                step,
                miss,
            });
        }
    }
    WireInputs {
        jobs,
        warm,
        schedule,
    }
}

// ---------------------------------------------------------------------------
// replan
// ---------------------------------------------------------------------------

/// One session record and, for ticks, the scenario the session must be
/// planning for at that point (the oracle's cold reference input).
#[derive(Clone, Debug)]
pub struct Record {
    pub line: String,
    pub tick: Option<Scenario>,
}

#[derive(Clone, Debug)]
pub struct Session {
    pub id: String,
    pub records: Vec<Record>,
}

/// Churned sessions per corpus family, on the first Small pool instances
/// (fixed, so that instance hardness does not vary with the seed).
pub const CHURN_PER_FAMILY: usize = 8;
/// Ticks per churned session.
pub const CHURN_TICKS: usize = 8;
/// Close/reopen churn sessions over the running example.
pub const CHURN_RUNNING_EXAMPLE: usize = 2;

const RUNNING_EXAMPLE_TRACE: &str = include_str!("../../scenarios/replay/running_example.delta");
const GRID_LADDER_TRACE: &str = include_str!("../../scenarios/replay/corpus_grid_ladder.delta");

fn session(id: String, scenario_spec: &str, base: Scenario, ops: &[TraceOp]) -> Session {
    let record = |kind: &str, extra: String| Record {
        line: format!(
            "{{\"record\": {}, \"session\": {}{extra}}}",
            quote(kind),
            quote(&id)
        ),
        tick: None,
    };
    let mut live = LiveScenario::new(base).expect("session bases are valid scenarios");
    let mut records = vec![record(
        "open",
        format!(", \"scenario\": {}", quote(scenario_spec)),
    )];
    for op in ops {
        match op {
            TraceOp::Tick => records.push(Record {
                tick: Some(live.current().clone()),
                ..record("tick", String::new())
            }),
            TraceOp::Delta(delta) => {
                live.apply(delta)
                    .expect("inputs only carry deltas the scenario accepts");
                let text = write_trace(std::slice::from_ref(op));
                records.push(record("delta", format!(", \"delta\": {}", quote(&text))));
            }
        }
    }
    records.push(record("close", String::new()));
    Session { id, records }
}

/// Kinds of churn delta, one per tick after the first.
#[derive(Clone, Copy, Debug)]
enum Churn {
    /// Set a seeded train's arrival deadline three quarters of the way
    /// from its departure to the horizon.
    Deadline,
    /// Clear a seeded train's deadline.
    Free,
    /// Delay a seeded train by one time step.
    Delay,
    /// Close the closable track if it is open, else reopen it.
    Toggle,
}

/// The churn of every corpus session: the same kinds in the same order,
/// so every session has the same share of warm (deadline-only) and cold
/// (departure-moving) ticks whatever the seed.
const CORPUS_CHURN: [Churn; CHURN_TICKS - 1] = [
    Churn::Deadline,
    Churn::Deadline,
    Churn::Free,
    Churn::Delay,
    Churn::Deadline,
    Churn::Free,
    Churn::Deadline,
];

/// The churn of the running example sessions, over its closable track.
const RUNNING_EXAMPLE_CHURN: [Churn; CHURN_TICKS - 1] = [
    Churn::Toggle,
    Churn::Deadline,
    Churn::Toggle,
    Churn::Delay,
    Churn::Toggle,
    Churn::Free,
    Churn::Toggle,
];

/// A delta of kind `kind` the live scenario accepts, or `None` when a few
/// seeded tries are all rejected.
fn churn_delta(
    rng: &mut Rng,
    live: &LiveScenario,
    kind: Churn,
    track: &str,
) -> Option<ScenarioDelta> {
    for _ in 0..8 {
        let scenario = live.current();
        let runs = scenario.schedule.runs();
        let run = &runs[rng.below(runs.len())];
        let train = run.train.name.clone();
        let horizon = scenario.horizon.as_u64();
        let delta = match kind {
            Churn::Deadline => {
                let departure = run.departure.as_u64();
                ScenarioDelta::Deadline {
                    train,
                    arrival: Some(Seconds(departure + (horizon - departure) * 3 / 4)),
                }
            }
            Churn::Free => ScenarioDelta::Deadline {
                train,
                arrival: None,
            },
            Churn::Delay => ScenarioDelta::Delay {
                train,
                by: Seconds(scenario.r_t.as_u64()),
            },
            Churn::Toggle if live.closed().any(|t| t == track) => ScenarioDelta::Reopen {
                track: track.to_string(),
            },
            Churn::Toggle => ScenarioDelta::Close {
                track: track.to_string(),
            },
        };
        if live.clone().apply(&delta).is_ok() {
            return Some(delta);
        }
    }
    None
}

fn churn_ops(rng: &mut Rng, base: &Scenario, pattern: &[Churn], track: &str) -> Vec<TraceOp> {
    let mut live = LiveScenario::new(base.clone()).expect("valid base");
    let mut ops = vec![TraceOp::Tick];
    for &kind in pattern {
        if let Some(delta) = churn_delta(rng, &live, kind, track) {
            live.apply(&delta).expect("probed");
            ops.push(TraceOp::Delta(delta));
        }
        ops.push(TraceOp::Tick);
    }
    ops
}

/// Seed of grid_ladder's churn, which is the same for every `--seed`.
const GRID_CHURN_SEED: u64 = 0x0061_7D1A;

/// The shipped `.delta` traces plus deadline/delay churn over Small pool
/// instances and close/reopen churn over the running example. The seed
/// picks the train each churn delta touches, except on grid_ladder:
/// its re-solve times hang on which train gets a deadline (one session
/// took 0.3 s on one seed and 0.48 s on another) and its sessions are
/// two thirds of a pass, so a seeded choice there would move the pass
/// time by more than any bound. grid_ladder's churn is therefore the
/// same in every run, as in the `corpus` draw.
pub fn replan_sessions(seed: u64, rails: &mut RailCache) -> Vec<Session> {
    let mut seeded = Rng::new(seed ^ 0x004E_91A4);
    let mut grid_rng = Rng::new(GRID_CHURN_SEED);
    let mut sessions = Vec::new();
    let shipped = |text: &str| parse_trace(text).expect("shipped traces parse");
    sessions.push(session(
        "running_example.delta".into(),
        "fixture:running_example",
        fixtures::running_example(),
        &shipped(RUNNING_EXAMPLE_TRACE),
    ));
    let grid = InstanceSpec::new(Family::GridLadder, SizeClass::Small, 0);
    sessions.push(session(
        "corpus_grid_ladder.delta".into(),
        &format!("rail:{}", write_scenario(&grid.build())),
        grid.build(),
        &shipped(GRID_LADDER_TRACE),
    ));
    for family in Family::ALL {
        for instance in 0..CHURN_PER_FAMILY {
            let job = PoolJob {
                family,
                size: SizeClass::Small,
                instance,
                kind: 0,
                lazy: false,
            };
            let base = job.spec().build();
            let rng = if family == Family::GridLadder {
                &mut grid_rng
            } else {
                &mut seeded
            };
            let ops = churn_ops(rng, &base, &CORPUS_CHURN, "");
            let spec = format!("rail:{}", rails.get(&job));
            sessions.push(session(
                format!("churn-{}-{instance}", family.name()),
                &spec,
                base,
                &ops,
            ));
        }
    }
    for i in 0..CHURN_RUNNING_EXAMPLE {
        let base = fixtures::running_example();
        let ops = churn_ops(&mut seeded, &base, &RUNNING_EXAMPLE_CHURN, "Ca");
        sessions.push(session(
            format!("churn-running_example-{i}"),
            "fixture:running_example",
            base,
            &ops,
        ));
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(jobs: &[Job]) -> Vec<String> {
        jobs.iter().map(|j| j.line.clone()).collect()
    }

    #[test]
    fn a_seed_gives_the_same_inputs_every_time() {
        let mut rails = RailCache::default();
        assert_eq!(lines(&table1_jobs(7)), lines(&table1_jobs(7)));
        assert_eq!(corpus_draw(7), corpus_draw(7));
        assert_eq!(
            lines(&corpus_jobs(7, &mut rails)),
            lines(&corpus_jobs(7, &mut RailCache::default()))
        );
        let (a, b) = (
            hot_wire_inputs(7, 3.0, &mut rails),
            hot_wire_inputs(7, 3.0, &mut RailCache::default()),
        );
        assert_eq!(lines(&a.jobs), lines(&b.jobs));
        assert_eq!(a.schedule, b.schedule);
        let records = |s: Vec<Session>| -> Vec<String> {
            s.into_iter()
                .flat_map(|s| s.records.into_iter().map(|r| r.line))
                .collect()
        };
        assert_eq!(
            records(replan_sessions(7, &mut rails)),
            records(replan_sessions(7, &mut RailCache::default()))
        );
        assert_ne!(corpus_draw(7), corpus_draw(8), "the seed matters");
    }

    #[test]
    fn the_corpus_draw_is_distinct_and_has_a_fixed_mix() {
        let draw = corpus_draw(3);
        assert_eq!(draw.len(), 100);
        let mut keys: Vec<String> = draw.iter().map(PoolJob::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 100, "jobs are distinct");
        assert_eq!(draw.iter().filter(|p| p.lazy).count(), 37);
        assert_eq!(
            draw.iter().filter(|p| p.size == SizeClass::Medium).count(),
            20
        );
    }

    #[test]
    fn hot_wire_misses_are_unique_and_warm_keys_repeat() {
        let inputs = hot_wire_inputs(5, 10.0, &mut RailCache::default());
        let misses: Vec<usize> = inputs
            .schedule
            .iter()
            .filter(|r| r.miss)
            .map(|r| r.job)
            .collect();
        let mut unique = misses.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), misses.len());
        assert!(misses.iter().all(|&j| j >= inputs.warm));
        assert!(inputs
            .schedule
            .iter()
            .filter(|r| !r.miss)
            .all(|r| r.job < inputs.warm));
        assert!(inputs
            .schedule
            .windows(2)
            .all(|w| w[0].due_us <= w[1].due_us));
    }
}
