//! Cumulative search statistics.

use std::fmt;

/// Counters accumulated across all `solve` calls of a
/// [`Solver`](crate::Solver).
///
/// # Examples
///
/// ```
/// use etcs_sat::Solver;
/// let mut s = Solver::new();
/// let a = s.new_var();
/// s.add_clause([a.positive()]);
/// s.solve();
/// // A trivially satisfiable instance needs no conflicts.
/// assert_eq!(s.stats().conflicts, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals dequeued by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered (= learnt clauses, counting units).
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Total literals in learnt clauses (after minimisation).
    pub learnt_literals: u64,
    /// Literals removed from learnt clauses by minimisation: the first-UIP
    /// clauses had `learnt_literals + minimised_literals` literals.
    pub minimised_literals: u64,
    /// Learnt clauses removed by database reduction.
    pub deleted_clauses: u64,
    /// `solve` / `solve_with` invocations.
    pub solve_calls: u64,
    /// Learnt clauses still live at the start of each `solve` call after
    /// the first, summed over calls — the cross-call clause-retention
    /// counter of incremental solving (0 for a solver solved at most once;
    /// grows when assumption probes inherit earlier probes' lemmas).
    pub reused_learnts: u64,
}

impl Stats {
    /// Fraction of learnt clauses that were carried into a later solve call
    /// (`reused_learnts` per learnt clause, capped at 1.0 per call). A
    /// from-scratch loop that discards its solver between probes scores 0.
    pub fn learnt_reuse_rate(&self) -> f64 {
        if self.conflicts == 0 {
            0.0
        } else {
            self.reused_learnts as f64 / self.conflicts as f64
        }
    }
}

impl std::ops::AddAssign<&Stats> for Stats {
    fn add_assign(&mut self, rhs: &Stats) {
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.conflicts += rhs.conflicts;
        self.restarts += rhs.restarts;
        self.learnt_literals += rhs.learnt_literals;
        self.minimised_literals += rhs.minimised_literals;
        self.deleted_clauses += rhs.deleted_clauses;
        self.solve_calls += rhs.solve_calls;
        self.reused_learnts += rhs.reused_learnts;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnt_lits={} minimised_lits={} deleted={} solves={} reused_learnts={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_literals,
            self.minimised_literals,
            self.deleted_clauses,
            self.solve_calls,
            self.reused_learnts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = Stats::default();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.conflicts, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Stats::default();
        assert!(format!("{s}").contains("conflicts=0"));
        assert!(format!("{s}").contains("reused_learnts=0"));
    }

    #[test]
    fn add_assign_sums_fieldwise() {
        let mut a = Stats {
            conflicts: 3,
            solve_calls: 1,
            ..Stats::default()
        };
        let b = Stats {
            conflicts: 4,
            solve_calls: 2,
            minimised_literals: 6,
            reused_learnts: 5,
            ..Stats::default()
        };
        a += &b;
        assert_eq!(a.conflicts, 7);
        assert_eq!(a.minimised_literals, 6);
        assert_eq!(a.solve_calls, 3);
        assert_eq!(a.reused_learnts, 5);
    }

    #[test]
    fn reuse_rate_handles_zero_conflicts() {
        assert_eq!(Stats::default().learnt_reuse_rate(), 0.0);
        let s = Stats {
            conflicts: 4,
            reused_learnts: 2,
            ..Stats::default()
        };
        assert!((s.learnt_reuse_rate() - 0.5).abs() < 1e-12);
    }
}
