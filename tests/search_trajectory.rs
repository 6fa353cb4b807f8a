//! Golden search trajectories: the exact CDCL counters of fixed Table I
//! tasks.
//!
//! Clause storage, propagation and conflict analysis may be made faster,
//! but they must not change a single search decision. Each case pins the
//! `(conflicts, propagations, decisions, learnt_literals)` counters of one
//! task's `TaskReport.search`; any drift means the solver explores a
//! different tree and the change is not a pure speed-up.
//!
//! The running-example cases run in the default suite. The Table I cases
//! take seconds in release and minutes in debug, so they are ignored by
//! default; run them with
//!
//! ```text
//! cargo test --release --test search_trajectory -- --include-ignored
//! ```

use etcs::prelude::*;
use etcs::TaskReport;

/// `(conflicts, propagations, decisions, learnt_literals)`.
type Counters = (u64, u64, u64, u64);

fn counters(report: &TaskReport) -> Counters {
    let s = &report.search;
    (s.conflicts, s.propagations, s.decisions, s.learnt_literals)
}

fn config() -> EncoderConfig {
    EncoderConfig::default()
}

#[test]
fn running_example_verify_trajectory_is_pinned() {
    let scenario = fixtures::running_example();
    let (outcome, report) =
        verify(&scenario, &VssLayout::pure_ttd(), &config()).expect("well-formed");
    assert!(!outcome.is_feasible());
    assert_eq!(counters(&report), (348, 20150, 789, 4407));
}

#[test]
fn running_example_generate_trajectory_is_pinned() {
    let (outcome, report) = generate(&fixtures::running_example(), &config()).expect("well-formed");
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));
    assert_eq!(counters(&report), (433, 30629, 1931, 7664));
}

#[test]
fn running_example_optimize_trajectory_is_pinned() {
    let (outcome, report) = optimize(&fixtures::running_example(), &config()).expect("well-formed");
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));
    assert_eq!(counters(&report), (739, 62686, 2450, 13298));
}

#[test]
#[ignore = "Table I instance: seconds in release, minutes in debug"]
fn simple_layout_optimize_trajectory_is_pinned() {
    let (outcome, report) = optimize(&fixtures::simple_layout(), &config()).expect("well-formed");
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));
    assert_eq!(counters(&report), (19225, 1820100, 58930, 836634));
}

#[test]
#[ignore = "Table I instance: seconds in release, minutes in debug"]
fn complex_layout_verify_trajectory_is_pinned() {
    let scenario = fixtures::complex_layout();
    let (outcome, report) =
        verify(&scenario, &VssLayout::pure_ttd(), &config()).expect("well-formed");
    assert!(!outcome.is_feasible());
    assert_eq!(counters(&report), (18462, 3826338, 114530, 2325972));
}
