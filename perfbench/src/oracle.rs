//! The answer oracle. Expected verdicts, optima and section counts are
//! checked in (`expected/`): the Table I rows are copied from
//! EXPERIMENTS.md, the corpus pool was solved once and frozen. Every plan
//! a job returns is re-validated with the independent `etcs-sim`
//! validator. Nothing here trusts the answer under test.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use etcs_core::{EncoderConfig, Instance};
use etcs_network::{Scenario, VssLayout};
use etcs_obs::Obs;
use etcs_sat::Interrupt;
use etcs_serve::wire::parse_request_line;
use etcs_serve::{execute, JobKind, JobOutcome, JobPayload, JobRequest};

use crate::inputs::{self, Check, Job, RailCache, TABLE1_FIXTURES, TABLE1_KINDS};
use crate::CLIENTS;

const TABLE1_TSV: &str = include_str!("../expected/table1.tsv");
const POOL_TSV: &str = include_str!("../expected/corpus_pool.tsv");

/// One expected answer. `None` fields are not checked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub feasible: bool,
    pub costs: Option<Vec<u64>>,
    pub sections: Option<usize>,
    /// Completion steps of the plan. Checked only where they are a proven
    /// optimum (optimisation jobs); a generate or verify witness may take
    /// any number of steps that meets the deadlines.
    pub steps: Option<usize>,
}

fn opt<T: std::str::FromStr>(field: &str) -> Option<T> {
    (field != "-").then(|| field.parse().ok()).flatten()
}

fn costs_field(field: &str) -> Option<Vec<u64>> {
    (field != "-").then(|| {
        field
            .split(',')
            .map(|c| c.parse().expect("costs are integers"))
            .collect()
    })
}

/// Parses `key feasible costs sections steps` rows (tab separated, `#`
/// comments, `-` for "not applicable").
fn parse_tsv(text: &str) -> BTreeMap<String, Expected> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 5, "malformed expectation row {l:?}");
            (
                f[0].to_string(),
                Expected {
                    feasible: f[1] == "1",
                    costs: costs_field(f[2]),
                    sections: opt(f[3]),
                    steps: opt(f[4]),
                },
            )
        })
        .collect()
}

pub fn table1_key(fixture: usize, kind: usize) -> String {
    format!("{}/{}", TABLE1_FIXTURES[fixture], TABLE1_KINDS[kind].name())
}

/// Writes one expectation row.
pub fn tsv_row(key: &str, e: &Expected) -> String {
    let dash = |o: Option<String>| o.unwrap_or_else(|| "-".into());
    format!(
        "{key}\t{}\t{}\t{}\t{}",
        u8::from(e.feasible),
        dash(
            e.costs
                .as_ref()
                .map(|c| { c.iter().map(u64::to_string).collect::<Vec<_>>().join(",") })
        ),
        dash(e.sections.map(|s| s.to_string())),
        dash(e.steps.map(|s| s.to_string())),
    )
}

/// What checking one answer found.
#[derive(Clone, Debug, Default)]
pub struct Finding {
    /// Why the answer is wrong, if it is.
    pub wrong: Option<String>,
    /// A difference from the reference that is not an error (a witness
    /// plan of another length).
    pub note: Option<String>,
    /// Plans re-validated and the violations the validator found.
    pub validated: u64,
    pub violations: u64,
    pub validate_ms: f64,
}

#[derive(Debug)]
pub struct Oracle {
    table1: BTreeMap<String, Expected>,
    pool: BTreeMap<String, Expected>,
}

impl Oracle {
    pub fn load() -> Oracle {
        Oracle {
            table1: parse_tsv(TABLE1_TSV),
            pool: parse_tsv(POOL_TSV),
        }
    }

    pub fn expected(&self, check: &Check) -> Option<&Expected> {
        match check {
            Check::Table1(f, k) => self.table1.get(&table1_key(*f, *k)),
            Check::Pool(p) => self.pool.get(&p.key()),
        }
    }

    /// Checks a completed job's payload for the scenario it was asked about.
    pub fn check(&self, check: &Check, scenario: &Scenario, payload: &JobPayload) -> Finding {
        let mut finding = Finding::default();
        let Some(expected) = self.expected(check) else {
            finding.wrong = Some("no expected answer is recorded".into());
            return finding;
        };
        let actual = observe(scenario, payload, &mut finding);
        let mut wrong = Vec::new();
        if actual.feasible != expected.feasible {
            wrong.push(format!(
                "feasible {} != {}",
                actual.feasible, expected.feasible
            ));
        }
        if let (Some(e), Some(a)) = (&expected.costs, &actual.costs) {
            if e != a {
                wrong.push(format!("costs {a:?} != {e:?}"));
            }
        } else if expected.costs.is_some() != actual.costs.is_some() {
            wrong.push(format!("costs {:?} != {:?}", actual.costs, expected.costs));
        }
        if let Some(e) = expected.sections {
            if actual.sections != Some(e) {
                wrong.push(format!("sections {:?} != {e}", actual.sections));
            }
        }
        if let Some(e) = expected.steps {
            let optimum = matches!(
                payload.kind,
                JobKind::Optimize | JobKind::OptimizeIncremental
            );
            if actual.steps != Some(e) {
                let msg = format!("steps {:?} != {e}", actual.steps);
                if optimum {
                    wrong.push(msg);
                } else {
                    finding.note = Some(format!("witness {msg}"));
                }
            }
        }
        if finding.violations > 0 {
            wrong.push(format!("{} simulator violations", finding.violations));
        }
        if !wrong.is_empty() {
            finding.wrong = Some(wrong.join("; "));
        }
        finding
    }
}

/// Reads the answer's checkable facts off a payload, re-validating its
/// plan with the simulator on the way.
pub fn observe(scenario: &Scenario, payload: &JobPayload, finding: &mut Finding) -> Expected {
    let optimizing = matches!(
        payload.kind,
        JobKind::Optimize | JobKind::OptimizeIncremental
    );
    // Optimisation ignores arrival deadlines, so its plans are measured and
    // validated against the deadline-free scenario.
    let inst = if optimizing {
        Instance::new(&scenario.without_arrivals())
    } else {
        Instance::new(scenario)
    }
    .expect("the scenario was already solved");
    let sections;
    let mut steps = None;
    match &payload.plan {
        Some(plan) => {
            let start = Instant::now();
            let report = etcs_sim::validate(&inst, plan, !optimizing);
            finding.validate_ms += start.elapsed().as_secs_f64() * 1e3;
            finding.validated += 1;
            finding.violations += report.violations.len() as u64;
            sections = plan.section_count(&inst);
            steps = Some(plan.completion_steps(&inst));
        }
        None => sections = VssLayout::pure_ttd().section_count(&inst.net),
    }
    let costs = match payload.kind {
        JobKind::Generate | JobKind::Optimize | JobKind::OptimizeIncremental
            if payload.feasible =>
        {
            Some(payload.costs.clone())
        }
        _ => None,
    };
    if optimizing {
        steps = payload.costs.first().map(|&c| c as usize);
    }
    Expected {
        feasible: payload.feasible,
        costs,
        sections: (payload.kind != JobKind::Verify || !payload.feasible).then_some(sections),
        steps,
    }
}

/// Solves every pool job once and prints the expectations file.
pub fn gen_expected() -> std::process::ExitCode {
    let pool = inputs::pool();
    let mut rails = RailCache::default();
    let jobs: Vec<Job> = pool.iter().map(|p| p.job(p.key(), rails.get(p))).collect();
    let next = AtomicUsize::new(0);
    let rows: Vec<(usize, Expected)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let request: JobRequest = parse_request_line(&job.line, "job", false, None)
                            .expect("generated lines parse");
                        let t0 = Instant::now();
                        let outcome = execute(
                            &request,
                            &EncoderConfig::default(),
                            &Interrupt::none(),
                            &Obs::disabled(),
                        );
                        eprintln!(
                            "gen-expected: {} {:.1} ms",
                            job.id,
                            t0.elapsed().as_secs_f64() * 1e3
                        );
                        let JobOutcome::Done(payload) = outcome else {
                            panic!("{}: {}", job.id, outcome.status());
                        };
                        let Check::Pool(p) = job.check else {
                            unreachable!()
                        };
                        let mut finding = Finding::default();
                        let mut expected = observe(&request.scenario, &payload, &mut finding);
                        assert_eq!(finding.violations, 0, "{}: invalid plan", job.id);
                        // A verify or generate witness's length is not an
                        // optimum, so it is not recorded.
                        if p.job_kind() != JobKind::OptimizeIncremental {
                            expected.steps = None;
                        }
                        out.push((i, expected));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("solver thread"))
            .collect()
    });
    let by_index: BTreeMap<usize, Expected> = rows.into_iter().collect();
    println!("# Expected answers of every corpus pool job (perfbench/src/inputs.rs),");
    println!("# solved once and frozen; regenerate with `perfbench gen-expected`.");
    println!("# Columns as in table1.tsv. Lazy rows must equal their eager twins.");
    for (i, p) in pool.iter().enumerate() {
        let e = &by_index[&i];
        if p.lazy && p.size == etcs_corpus::SizeClass::Small {
            let eager = &by_index[&(i - 1)];
            assert_eq!(
                (e.feasible, &e.costs),
                (eager.feasible, &eager.costs),
                "{}: lazy and eager disagree",
                p.key()
            );
        }
        println!("{}", tsv_row(&p.key(), e));
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{table1_job, Check};
    use etcs_core::EncoderConfig;
    use etcs_obs::Obs;
    use etcs_sat::Interrupt;
    use etcs_serve::{execute, JobOutcome, JobRequest};

    fn running_example_generate() -> (Scenario, JobPayload) {
        let scenario = etcs_network::fixtures::running_example();
        let request = JobRequest::new("g", JobKind::Generate, scenario.clone());
        match execute(
            &request,
            &EncoderConfig::default(),
            &Interrupt::none(),
            &Obs::disabled(),
        ) {
            JobOutcome::Done(p) => (scenario, *p),
            other => panic!("running example generates: {other:?}"),
        }
    }

    #[test]
    fn every_table1_row_and_the_pool_have_expectations() {
        let oracle = Oracle::load();
        for f in 0..4 {
            for k in 0..3 {
                assert!(oracle.expected(&table1_job(f, k).check).is_some());
            }
        }
        assert_eq!(oracle.pool.len(), crate::inputs::pool().len());
    }

    #[test]
    fn the_oracle_accepts_a_true_answer_and_rejects_corrupted_ones() {
        let oracle = Oracle::load();
        let check = Check::Table1(0, 1);
        let (scenario, payload) = running_example_generate();
        let finding = oracle.check(&check, &scenario, &payload);
        assert!(finding.wrong.is_none(), "{:?}", finding.wrong);
        assert_eq!(finding.validated, 1);

        let mut costs = payload.clone();
        costs.costs[0] += 1;
        assert!(oracle.check(&check, &scenario, &costs).wrong.is_some());

        let mut verdict = payload.clone();
        verdict.feasible = false;
        verdict.plan = None;
        assert!(oracle.check(&check, &scenario, &verdict).wrong.is_some());

        // A plan that teleports: every train sits at its first position for
        // the whole horizon, which the simulator must refuse.
        let mut plan = payload.clone();
        let p = plan.plan.as_mut().expect("generate returns a plan");
        for train in &mut p.plans {
            let first = train.positions[0].clone();
            for step in &mut train.positions {
                *step = first.clone();
            }
        }
        let finding = oracle.check(&check, &scenario, &plan);
        assert!(
            finding.violations > 0,
            "the simulator rejects a frozen plan"
        );
        assert!(finding.wrong.is_some());
    }
}
