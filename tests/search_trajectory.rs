//! Golden search trajectories: the exact CDCL counters of fixed Table I
//! tasks.
//!
//! Clause storage, propagation and conflict analysis may be made faster,
//! but they must not change a single search decision. Each case pins the
//! `(conflicts, propagations, decisions, learnt_literals)` counters of one
//! task's `TaskReport.search`; any drift means the solver explores a
//! different tree and the change is not a pure speed-up. The pins move
//! only in a change that alters the search on purpose and records the old
//! and new counters in `CHANGES.md`; between such changes they guard every
//! pure speed-up.
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
    assert_eq!(counters(&report), (265, 14692, 654, 2597));
}

#[test]
fn running_example_generate_trajectory_is_pinned() {
    let (outcome, report) = generate(&fixtures::running_example(), &config()).expect("well-formed");
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));
    assert_eq!(counters(&report), (373, 28584, 1913, 4723));
}

#[test]
fn running_example_optimize_trajectory_is_pinned() {
    let (outcome, report) = optimize(&fixtures::running_example(), &config()).expect("well-formed");
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));
    assert_eq!(counters(&report), (794, 69059, 2653, 8270));
}

#[test]
#[ignore = "Table I instance: seconds in release, minutes in debug"]
fn simple_layout_optimize_trajectory_is_pinned() {
    let (outcome, report) = optimize(&fixtures::simple_layout(), &config()).expect("well-formed");
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));
    assert_eq!(counters(&report), (18006, 1752834, 66090, 398052));
}

#[test]
#[ignore = "Table I instance: seconds in release, minutes in debug"]
fn complex_layout_verify_trajectory_is_pinned() {
    let scenario = fixtures::complex_layout();
    let (outcome, report) =
        verify(&scenario, &VssLayout::pure_ttd(), &config()).expect("well-formed");
    assert!(!outcome.is_feasible());
    assert_eq!(counters(&report), (12282, 2715859, 96835, 899676));
}
