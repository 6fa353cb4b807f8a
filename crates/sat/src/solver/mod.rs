//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The engine implements the standard modern architecture: two-watched-literal
//! propagation with blocker literals, first-UIP conflict analysis with
//! recursive (memoised) learnt-clause minimisation, VSIDS decision heuristics
//! with phase saving, Glucose-style restarts driven by moving averages of the
//! learnt clauses' LBD, LBD-ordered learnt-clause database reduction paced by
//! conflicts, level-0 simplification, and incremental solving under
//! assumptions with unsat-core extraction.
//!
//! Minimisation follows Sörensson & Biere, "Minimizing Learned Clauses"
//! (SAT 2009); the restart policy follows Audemard & Simon, "Refining
//! Restarts Strategies for SAT and UNSAT" (CP 2012).
//!
//! This crate is the substrate standing in for Z3 in the ETCS Level 3
//! reproduction: the encodings in `etcs-core` are plain CNF plus linear
//! objectives, for which an exact CDCL + MaxSAT stack produces identical
//! answers.

mod heap;
pub mod parallel;
mod preprocess;

pub use parallel::{PortfolioConfig, PortfolioStats};
pub use preprocess::{PreprocessConfig, PreprocessStats};

use crate::clause::{ClauseDb, ClauseRef};
use crate::interrupt::Interrupt;
use crate::model::Model;
use crate::proof::ProofSink;
use crate::stats::Stats;
use crate::types::{LBool, Lit, Var};
use etcs_obs::Obs;
use heap::VarHeap;
use parallel::ShareState;

/// Tunable search parameters.
///
/// The defaults reproduce the solver's historical constants; the in-process
/// portfolio perturbs these per worker to diversify the race, and callers
/// needing tighter cancellation latency can shrink
/// [`SolverConfig::poll_interval`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverConfig {
    /// How many conflicts pass between [`Interrupt`] polls inside a restart
    /// (rounded up to a power of two; restart boundaries poll
    /// unconditionally). This bounds the latency of a cancellation landing
    /// mid-restart, and the portfolio flushes its learnt-clause exports at
    /// the same cadence.
    pub poll_interval: u64,
    /// VSIDS variable-activity decay factor (0 < decay ≤ 1; smaller decays
    /// focus harder on recent conflicts).
    pub var_decay: f64,
    /// Fewest conflicts between two restarts. Past it, the search restarts
    /// as soon as the recent learnt clauses' LBD average (fast moving
    /// average) exceeds the long-run one (slow moving average) by a quarter;
    /// `u64::MAX` never restarts.
    pub restart_min: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            poll_interval: 64,
            var_decay: 0.95,
            restart_min: 50,
        }
    }
}

impl SolverConfig {
    /// Bitmask implementing the poll cadence (`poll_interval` rounded up to
    /// a power of two, minus one).
    #[inline]
    fn poll_mask(&self) -> u64 {
        self.poll_interval.next_power_of_two().saturating_sub(1)
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula is unsatisfiable under the given assumptions.
    ///
    /// `core` is a subset of the assumption literals that is already
    /// inconsistent with the formula (empty when the formula itself is
    /// unsatisfiable without assumptions).
    Unsat {
        /// Failed subset of the assumptions.
        core: Vec<Lit>,
    },
    /// The conflict budget was exhausted before a verdict was reached.
    Unknown,
}

impl SatResult {
    /// `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat { .. })
    }

    /// The model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// Arbitrary other literal of the clause; if it is already true the
    /// clause is satisfied and the watch scan can skip loading the clause.
    blocker: Lit,
}

const CLAUSE_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;

/// Smoothing factors of the fast and slow moving averages of learnt-clause
/// LBD that drive restarts.
const LBD_EMA_FAST: f64 = 1.0 / 32.0;
const LBD_EMA_SLOW: f64 = 1.0 / 4096.0;
/// A restart fires once `fast * RESTART_MARGIN > slow`: the recent learnt
/// clauses are markedly worse than the long-run average.
const RESTART_MARGIN: f64 = 0.8;
/// Learnt clauses kept before the first database reduction; the limit then
/// grows by half at each reduction.
const FIRST_REDUCE_LIMIT: usize = 2000;

/// Per-variable marks of conflict analysis (`Solver::seen`). Between
/// conflicts every mark is `CLEAR`.
const CLEAR: u8 = 0;
/// Met on the conflict side during the first-UIP walk; afterwards, a
/// variable of the learnt clause.
const SOURCE: u8 = 1;
/// Minimisation memo: implied by clause literals and level-0 facts alone.
const REMOVABLE: u8 = 2;
/// Minimisation memo: depends on a decision outside the clause.
const FAILED: u8 = 3;

/// One bit per decision level, modulo 32: the levels of a learnt clause
/// as a cheap superset filter for minimisation.
#[inline]
fn abstract_level(level: u32) -> u32 {
    1 << (level & 31)
}

/// `true` iff `l` is assigned true. [`LBool::True`] and [`LBool::False`]
/// have discriminants 0 and 1, so a literal holds exactly when its
/// variable's value equals its sign bit; `Undef` (2) never does.
#[inline]
fn lit_is_true(assigns: &[LBool], l: Lit) -> bool {
    assigns[l.var().index()] as u32 == (l.code() & 1)
}

/// `true` iff `l` is assigned false (see [`lit_is_true`]).
#[inline]
fn lit_is_false(assigns: &[LBool], l: Lit) -> bool {
    assigns[l.var().index()] as u32 == (l.code() & 1) ^ 1
}

/// Adds `amount` to `v`'s VSIDS activity, rescaling every activity (and
/// the increment) once one exceeds [`RESCALE_LIMIT`].
fn bump_activity(activity: &mut [f64], var_inc: &mut f64, heap: &mut VarHeap, v: Var, amount: f64) {
    activity[v.index()] += amount;
    if activity[v.index()] > RESCALE_LIMIT {
        for a in activity.iter_mut() {
            *a *= 1e-100;
        }
        *var_inc *= 1e-100;
    }
    heap.update(v, activity);
}

/// A CDCL SAT solver over clauses built from [`Var`]s handed out by
/// [`Solver::new_var`].
///
/// # Examples
///
/// ```
/// use etcs_sat::{Solver, SatResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([!a.positive()]);
/// match s.solve() {
///     SatResult::Sat(model) => assert!(model.lit_is_true(b.positive())),
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// `watches[l.index()]` lists clauses that must be inspected when literal
    /// `l` becomes true (they watch `!l`).
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    heap: VarHeap,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    phase: Vec<bool>,
    /// Becomes false once level-0 unsatisfiability is established.
    ok: bool,
    /// Conflict-analysis marks per variable ([`CLEAR`], [`SOURCE`],
    /// [`REMOVABLE`], [`FAILED`]); all clear between conflicts.
    seen: Vec<u8>,
    /// The clause `analyze` learnt last (asserting literal first); kept as
    /// a field so its buffer is reused from conflict to conflict.
    learnt: Vec<Lit>,
    /// Depth-first stack of minimisation's walk over reason clauses:
    /// `(next literal index in the reason, implied literal)`.
    analyze_stack: Vec<(usize, Lit)>,
    /// Variables whose mark must be cleared when `analyze` returns.
    analyze_toclear: Vec<Lit>,
    /// Fast and slow moving averages of learnt-clause LBD (see
    /// [`LBD_EMA_FAST`]). They start at 0 and persist across calls.
    lbd_ema_fast: f64,
    lbd_ema_slow: f64,
    /// Per-decision-level marks for counting a learnt clause's LBD; all
    /// false between conflicts.
    level_seen: Vec<bool>,
    stats: Stats,
    /// Learnt-clause count that triggers the next database reduction.
    reduce_limit: usize,
    /// Trail length at the last level-0 simplification; the satisfied-clause
    /// scan is skipped while no new level-0 facts have been derived.
    last_simplify_trail: usize,
    /// Trail length up to which level-0 facts have been emitted to the proof
    /// as explicit unit lemmas. Satisfied-clause elimination may delete the
    /// clauses those facts were propagated from, so the facts must be pinned
    /// as lemmas first or later derivations stop being RUP for the checker.
    proof_units: usize,
    conflict_budget: Option<u64>,
    /// Cooperative cancellation token; [`Interrupt::none`] by default, in
    /// which case every poll is a single branch.
    interrupt: Interrupt,
    default_phase: bool,
    /// Tunable search parameters (restart minimum, decay, poll cadence).
    config: SolverConfig,
    /// When set (≥ 2 threads), `solve`/`solve_with` race diversified worker
    /// clones with clause sharing instead of searching single-threaded.
    portfolio: Option<PortfolioConfig>,
    /// Clause-sharing state while this solver participates in a portfolio
    /// race; `None` outside one, keeping all hooks single branches.
    share: Option<ShareState>,
    /// Cumulative clause-sharing counters across portfolio solves.
    portfolio_stats: PortfolioStats,
    /// Optional DRAT proof logger. `None` (the default) keeps all emission
    /// paths behind a single branch, so solving without a proof is free.
    proof: Option<Box<dyn ProofSink>>,
    /// Observability handle. Disabled by default, in which case every
    /// emission site is a single branch (see `etcs-obs`).
    obs: Obs,
    /// Variables removed by preprocessing (bounded variable elimination).
    /// They never re-enter search; models reassemble their values from
    /// `reconstruction`.
    eliminated: Vec<bool>,
    /// Variables the preprocessor must not eliminate because they outlive
    /// it (assumption/selector literals, variables of later clauses).
    frozen: Vec<bool>,
    /// Witness stack for eliminated variables: `(witness, clause)` entries
    /// walked in reverse by [`Solver::reconstructed_model`] — a stacked
    /// clause left unsatisfied flips its witness literal.
    reconstruction: Vec<(Lit, Vec<Lit>)>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: VarHeap::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: Vec::new(),
            ok: true,
            seen: Vec::new(),
            learnt: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            lbd_ema_fast: 0.0,
            lbd_ema_slow: 0.0,
            level_seen: Vec::new(),
            stats: Stats::default(),
            reduce_limit: FIRST_REDUCE_LIMIT,
            last_simplify_trail: 0,
            proof_units: 0,
            conflict_budget: None,
            interrupt: Interrupt::none(),
            default_phase: false,
            config: SolverConfig::default(),
            portfolio: None,
            share: None,
            portfolio_stats: PortfolioStats::default(),
            proof: None,
            obs: Obs::disabled(),
            eliminated: Vec::new(),
            frozen: Vec::new(),
            reconstruction: Vec::new(),
        }
    }

    /// Installs an observability handle: every later `solve`/`solve_with`
    /// call is wrapped in a `sat.solve` span (closing with the call's
    /// conflict/propagation/decision/restart/learnt-literal/
    /// minimised-literal/deleted-clause deltas and its verdict), restarts emit
    /// `sat.restart` events and learnt-database reductions `sat.reduce`
    /// events. Installing [`Obs::disabled`] (the initial state) turns all
    /// of that back into single branches.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Installs a DRAT proof sink. Must be called **before any clauses are
    /// added**: level-0 simplifications performed while loading are part of
    /// the certificate, and a sink installed later would miss them.
    ///
    /// With a sink installed, every learnt clause (and every clause produced
    /// by level-0 simplification) is emitted as an addition, and every
    /// discarded clause as a deletion, in the order the solver performs them.
    /// When the formula is refuted without assumptions the emitted proof ends
    /// with the empty clause.
    ///
    /// # Panics
    ///
    /// Panics if clauses have already been added.
    pub fn set_proof_sink(&mut self, sink: Box<dyn ProofSink>) {
        assert!(
            self.num_clauses() == 0 && self.trail.is_empty() && self.ok,
            "proof sink must be installed before any clauses are added"
        );
        self.proof = Some(sink);
    }

    /// Removes and returns the proof sink, disabling further logging.
    pub fn take_proof_sink(&mut self) -> Option<Box<dyn ProofSink>> {
        self.proof.take()
    }

    /// `true` while a proof sink is installed.
    pub fn is_proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add_clause(lits);
        }
    }

    #[inline]
    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.delete_clause(lits);
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phase.push(self.default_phase);
        self.seen.push(CLEAR);
        self.eliminated.push(false);
        self.frozen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Allocates `n` fresh variables and returns them in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (problem + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.num_problem() + self.db.num_learnt()
    }

    /// Number of live *learnt* clauses — the state an incremental caller
    /// carries from one `solve_with` call into the next.
    pub fn num_learnt_clauses(&self) -> usize {
        self.db.num_learnt()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Limits the next `solve` calls to roughly `budget` conflicts
    /// (`None` = unlimited). When exhausted, [`SatResult::Unknown`] is
    /// returned and the solver remains usable.
    ///
    /// The budget is counted per call, from that call's starting conflict
    /// count, so a fixed budget gives every call the same slice. After an
    /// `Unknown` return the trail is rolled back to level 0, no assumption
    /// sticks, and everything learnt during the aborted call stays — a
    /// later call (with a larger budget, or `None`) resumes from strictly
    /// more information. The portfolio racer in `etcs-core` leans on this
    /// to poll a cancellation flag between budget slices.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs a cooperative cancellation token, polled at restart
    /// boundaries and every few dozen conflicts. Once the token fires,
    /// `solve`/`solve_with` return [`SatResult::Unknown`] with the same
    /// guarantees as conflict-budget exhaustion: the trail is rolled back
    /// to level 0, no assumption sticks, learnt clauses are kept, and the
    /// solver remains usable. Probe the token afterwards to distinguish
    /// cancellation from an expired deadline (or from a plain budget
    /// `Unknown`). Install [`Interrupt::none`] to detach.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// The installed cancellation token ([`Interrupt::none`] by default).
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Replaces the tunable search parameters. Takes effect from the next
    /// `solve`/`solve_with` call; solver state (clauses, activities, phases)
    /// is untouched.
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
    }

    /// The current search parameters.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Enables (or, with `None`, disables) the in-process clause-sharing
    /// portfolio: subsequent `solve`/`solve_with` calls race
    /// [`PortfolioConfig::threads`] diversified worker clones of this solver
    /// on the same formula, exchanging small-LBD learnt clauses, with
    /// first-finisher-wins cancellation of the siblings. Verdicts (and
    /// unsat cores' validity) are identical to a single-threaded solve;
    /// only the witness model may differ.
    ///
    /// Ignored (single-threaded search) while `threads < 2` or while a
    /// proof sink is installed — imported clauses have no local derivation,
    /// so a portfolio solve cannot be DRAT-certified.
    pub fn set_portfolio(&mut self, portfolio: Option<PortfolioConfig>) {
        self.portfolio = portfolio;
    }

    /// The configured portfolio, if any.
    pub fn portfolio(&self) -> Option<&PortfolioConfig> {
        self.portfolio.as_ref()
    }

    /// Cumulative clause-sharing counters over every portfolio solve this
    /// solver ran (all zero while the portfolio never engaged).
    pub fn portfolio_stats(&self) -> &PortfolioStats {
        &self.portfolio_stats
    }

    /// Sets the phase a variable is first tried with (`false` by default,
    /// which suits sparse encodings such as the ETCS occupancy variables).
    pub fn set_default_phase(&mut self, phase: bool) {
        self.default_phase = phase;
    }

    /// Sets the saved phase of one variable (the value it is first decided
    /// to). Encoders use this to steer the search towards likely-satisfiable
    /// regions, e.g. "all VSS borders active".
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        self.phase[v.index()] = phase;
    }

    /// Adds `amount` to a variable's branching activity. Encoders use this
    /// to seed a domain-aware decision order (e.g. structural variables
    /// first, early time steps before late ones); VSIDS takes over as
    /// conflicts accumulate.
    pub fn boost_activity(&mut self, v: Var, amount: f64) {
        bump_activity(
            &mut self.activity,
            &mut self.var_inc,
            &mut self.heap,
            v,
            amount,
        );
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the formula is now unsatisfiable at level 0 (an
    /// empty clause arose); the solver stays in that state and further
    /// `solve` calls return `Unsat`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a literal references a variable that was not
    /// created by [`Solver::new_var`] on this solver.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            debug_assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} uses an unallocated variable"
            );
            debug_assert!(
                !self.eliminated[l.var().index()],
                "literal {l:?} uses a variable eliminated by preprocessing; \
                 freeze it before calling preprocess"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        let original = if self.proof.is_some() {
            Some(lits.clone())
        } else {
            None
        };
        // Tautology / level-0 simplification.
        let mut write = 0;
        for read in 0..lits.len() {
            let l = lits[read];
            if read + 1 < lits.len() && lits[read + 1] == !l {
                return true; // tautology: contains l and !l (adjacent after sort)
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    lits[write] = l;
                    write += 1;
                }
            }
        }
        lits.truncate(write);
        // Stripping level-0 falsified literals produced a stronger clause: it
        // is RUP (the dropped literals' negations are propagation-derivable),
        // so certify the stripped clause and retire the original — the
        // proof's active set must mirror the clause database.
        if let Some(orig) = original.filter(|o| o.len() != lits.len()) {
            self.proof_add(&lits);
            self.proof_delete(&orig);
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.proof_add(&[]);
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.db.push(&lits, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Convenience for adding many clauses; returns `false` if any addition
    /// made the formula level-0 unsatisfiable.
    pub fn add_clauses<I, C>(&mut self, clauses: I) -> bool
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Lit>,
    {
        let mut ok = true;
        for c in clauses {
            ok &= self.add_clause(c);
        }
        ok
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, the returned `core` is a subset of `assumptions` that is
    /// jointly inconsistent with the formula. The solver state (clauses,
    /// activities, learnt clauses) is preserved across calls, enabling
    /// incremental use by the MaxSAT layer and the incremental optimisation
    /// loop of `etcs-core`.
    ///
    /// # Assumption scope
    ///
    /// Assumptions are **per call**, in the MiniSat tradition: they are
    /// decided (in order) before any free branching, never asserted as
    /// clauses, and fully retracted before this method returns — the trail
    /// is rolled back to decision level 0 on every exit path. Consequently:
    ///
    /// * an assumption from a previous call never constrains the next
    ///   call's model (pass it again if you still want it),
    /// * a returned `core` only ever mentions literals from *this* call's
    ///   `assumptions` slice,
    /// * [`Solver::lit_value`] afterwards reports only facts fixed by the
    ///   formula itself, never a stale assumption,
    /// * clauses *learnt* while assumptions were active are consequences of
    ///   the formula alone (analysis stops at assumption decisions and
    ///   encodes them as clause literals), so keeping them for later calls
    ///   is sound — this is what makes selector-guarded deadline probing
    ///   cheap.
    ///
    /// The `assumption_literals_do_not_leak_across_calls` regression test
    /// in `tests/regression.rs` pins this contract.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.obs.is_enabled() {
            return self.solve_dispatch(assumptions);
        }
        let before = self.stats;
        let span = self
            .obs
            .span_with("sat.solve", &[("assumptions", assumptions.len().into())]);
        let result = self.solve_dispatch(assumptions);
        let verdict = match &result {
            SatResult::Sat(_) => "sat",
            SatResult::Unsat { .. } => "unsat",
            SatResult::Unknown => "unknown",
        };
        span.close_with(&[
            ("result", verdict.into()),
            (
                "conflicts",
                (self.stats.conflicts - before.conflicts).into(),
            ),
            (
                "propagations",
                (self.stats.propagations - before.propagations).into(),
            ),
            (
                "decisions",
                (self.stats.decisions - before.decisions).into(),
            ),
            ("restarts", (self.stats.restarts - before.restarts).into()),
            (
                "learnt_literals",
                (self.stats.learnt_literals - before.learnt_literals).into(),
            ),
            (
                "minimised_literals",
                (self.stats.minimised_literals - before.minimised_literals).into(),
            ),
            (
                "deleted_clauses",
                (self.stats.deleted_clauses - before.deleted_clauses).into(),
            ),
        ]);
        result
    }

    /// Routes a solve to the portfolio race when one is configured and
    /// eligible (≥ 2 threads, no proof sink), otherwise to the ordinary
    /// single-threaded search.
    fn solve_dispatch(&mut self, assumptions: &[Lit]) -> SatResult {
        match self.portfolio {
            Some(cfg) if cfg.threads >= 2 && self.proof.is_none() => {
                self.solve_portfolio(assumptions, cfg)
            }
            _ => self.solve_with_inner(assumptions),
        }
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        for &a in assumptions {
            debug_assert!(
                !self.eliminated[a.var().index()],
                "assumption {a:?} uses a variable eliminated by preprocessing; \
                 freeze it before calling preprocess"
            );
        }
        self.stats.solve_calls += 1;
        if self.stats.solve_calls > 1 {
            self.stats.reused_learnts += self.db.num_learnt() as u64;
        }
        if !self.ok {
            return SatResult::Unsat { core: Vec::new() };
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return SatResult::Unsat { core: Vec::new() };
        }
        let budget_start = self.stats.conflicts;
        loop {
            // Restart-boundary poll: catches tokens triggered before the
            // call as well as deadlines expiring between restarts.
            if self.interrupt.is_triggered() {
                self.cancel_until(0);
                return SatResult::Unknown;
            }
            match self.search(assumptions, budget_start) {
                SearchOutcome::Sat => {
                    let model = self.reconstructed_model();
                    self.cancel_until(0);
                    return SatResult::Sat(model);
                }
                SearchOutcome::Unsat(core) => {
                    self.cancel_until(0);
                    return SatResult::Unsat { core };
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.obs.event(
                        "sat.restart",
                        &[
                            ("conflicts", self.stats.conflicts.into()),
                            ("learnt", self.db.num_learnt().into()),
                        ],
                    );
                    self.cancel_until(0);
                    self.simplify_and_maybe_reduce();
                    if !self.ok {
                        return SatResult::Unsat { core: Vec::new() };
                    }
                    // Portfolio sync point: flush buffered exports and
                    // absorb siblings' learnt clauses at level 0.
                    if self.share.is_some() {
                        self.share_sync();
                        if !self.ok {
                            return SatResult::Unsat { core: Vec::new() };
                        }
                    }
                }
                SearchOutcome::BudgetExhausted | SearchOutcome::Interrupted => {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
            }
        }
    }

    /// Current value of a literal under the partial/level-0 assignment.
    ///
    /// After `solve` returned, the trail is rolled back to level 0, so this
    /// reports only facts fixed by the formula itself.
    pub fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// `true` once the formula is known unsatisfiable at level 0.
    pub fn is_conflicting(&self) -> bool {
        !self.ok
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (w0, w1) = {
            let lits = self.db.lits(cref);
            (lits[0], lits[1])
        };
        self.watches[(!w0).index()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).index()].push(Watcher { cref, blocker: w0 });
    }

    #[inline]
    fn enqueue(&mut self, p: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(p), LBool::Undef);
        let v = p.var().index();
        self.assigns[v] = LBool::from_bool(p.is_positive());
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.trail.push(p);
    }

    /// Unit propagation; returns the conflicting clause if a conflict arose.
    ///
    /// Every watcher refers to a live clause: each path that deletes
    /// clauses (`remove_satisfied`, `reduce_learnt`, the preprocessing
    /// passes) ends in `rebuild_watches` before the next propagation, or
    /// leaves the solver refuted, after which nothing propagates again.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if lit_is_true(&self.assigns, w.blocker) {
                    i += 1;
                    continue;
                }
                debug_assert!(
                    !self.db.is_deleted(w.cref),
                    "watcher of a deleted clause survived to propagation"
                );
                let lits = self.db.lits_mut(w.cref);
                // Ensure the falsified watched literal (!p) sits at slot 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if lit_is_true(&self.assigns, first) {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let cand = lits[k];
                    if !lit_is_false(&self.assigns, cand) {
                        lits.swap(1, k);
                        self.watches[(!cand).index()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No replacement: unit or conflicting.
                if lit_is_false(&self.assigns, first) {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(w.cref));
                i += 1;
            }
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var();
            self.phase[v.index()] = p.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reasons[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let activity = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, activity);
        if activity > RESCALE_LIMIT {
            self.db.scale_learnt_activities(1e-100);
            self.cla_inc *= 1e-100;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// First-UIP conflict analysis with recursive clause minimisation.
    ///
    /// Leaves the learnt clause in `self.learnt` (asserting literal first,
    /// a literal of the backtrack level second) and returns the backtrack
    /// level and the clause's literal-block distance.
    fn analyze(&mut self, conflict: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        // Slot 0 is the asserting literal, filled in once the UIP is found.
        learnt.push(Lit(0));
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let current_level = self.decision_level();

        loop {
            self.bump_clause(cref);
            for &q in self.db.lits(cref) {
                // Skip the implied literal itself when traversing its reason.
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] == CLEAR && self.levels[v.index()] > 0 {
                    self.seen[v.index()] = SOURCE;
                    let inc = self.var_inc;
                    bump_activity(
                        &mut self.activity,
                        &mut self.var_inc,
                        &mut self.heap,
                        v,
                        inc,
                    );
                    if self.levels[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next marked literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] != CLEAR {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = CLEAR;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            cref = self.reasons[lit.var().index()]
                .expect("non-decision literal on conflict side must have a reason");
        }
        learnt[0] = !p.expect("analysis always reaches the first UIP");

        // Minimisation: drop every literal implied by the rest of the clause
        // and level-0 facts. The tail's variables are still marked SOURCE;
        // the walk memoises its verdicts in the same marks.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt[1..]);
        let levels = learnt[1..].iter().fold(0, |acc, l| {
            acc | abstract_level(self.levels[l.var().index()])
        });
        let before = learnt.len();
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reasons[l.var().index()].is_none() || !self.lit_redundant(l, levels) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for l in &self.analyze_toclear {
            self.seen[l.var().index()] = CLEAR;
        }
        debug_assert!(
            self.seen.iter().all(|&m| m == CLEAR),
            "analysis left marks behind"
        );
        self.stats.minimised_literals += (before - kept) as u64;
        self.stats.learnt_literals += kept as u64;

        // Backtrack level = highest level among the non-asserting literals;
        // move the first literal of that level to slot 1 (second watch).
        let tail = &mut learnt[1..];
        let bt_level = tail
            .iter()
            .map(|l| self.levels[l.var().index()])
            .max()
            .unwrap_or(0);
        if let Some(pos) = tail
            .iter()
            .position(|l| self.levels[l.var().index()] == bt_level)
        {
            tail.swap(0, pos);
        }

        // LBD = number of distinct decision levels in the clause.
        if self.level_seen.len() <= current_level as usize {
            self.level_seen.resize(current_level as usize + 1, false);
        }
        let mut lbd = 0;
        for l in &learnt {
            let level = self.levels[l.var().index()] as usize;
            if !self.level_seen[level] {
                self.level_seen[level] = true;
                lbd += 1;
            }
        }
        for l in &learnt {
            self.level_seen[self.levels[l.var().index()] as usize] = false;
        }

        self.learnt = learnt;
        (bt_level, lbd)
    }

    /// `true` iff the learnt-clause literal `p`, which has a reason, is
    /// implied by the clause's other literals and level-0 facts: a
    /// depth-first walk over reason clauses in which a clause literal, a
    /// level-0 literal or a variable already found removable ends a branch
    /// as success, and a decision, a variable already found failed or a
    /// level outside `levels` (the clause's [`abstract_level`]s) fails the
    /// whole walk. Every variable the walk decides is memoised in `seen`
    /// and queued on `analyze_toclear`, so one conflict's minimisation
    /// visits each variable at most once.
    fn lit_redundant(&mut self, mut p: Lit, levels: u32) -> bool {
        let mut stack = std::mem::take(&mut self.analyze_stack);
        stack.clear();
        let mut cref = self.reasons[p.var().index()].expect("minimised literal has a reason");
        // Slot 0 of a reason is the literal it implied.
        let mut i = 1;
        let redundant = loop {
            let lits = self.db.lits(cref);
            debug_assert_eq!(lits[0].var(), p.var());
            if i < lits.len() {
                let l = lits[i];
                i += 1;
                let v = l.var().index();
                let mark = self.seen[v];
                if self.levels[v] == 0 || mark == SOURCE || mark == REMOVABLE {
                    continue;
                }
                let reason = self.reasons[v];
                if reason.is_none()
                    || mark == FAILED
                    || abstract_level(self.levels[v]) & levels == 0
                {
                    // `p` and every literal it was reached from fail too.
                    stack.push((0, p));
                    for &(_, q) in &stack {
                        if self.seen[q.var().index()] == CLEAR {
                            self.seen[q.var().index()] = FAILED;
                            self.analyze_toclear.push(q);
                        }
                    }
                    break false;
                }
                stack.push((i, p));
                p = l;
                i = 1;
                cref = reason.expect("checked above");
            } else {
                // Every antecedent of `p` is accounted for.
                if self.seen[p.var().index()] == CLEAR {
                    self.seen[p.var().index()] = REMOVABLE;
                    self.analyze_toclear.push(p);
                }
                match stack.pop() {
                    None => break true,
                    Some((next, q)) => {
                        i = next;
                        p = q;
                        cref = self.reasons[q.var().index()].expect("stacked literal has a reason");
                    }
                }
            }
        };
        self.analyze_stack = stack;
        redundant
    }

    /// Computes the subset of assumptions responsible for forcing `!failed`.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[failed.var().index()] = SOURCE;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if self.seen[v] == CLEAR {
                continue;
            }
            match self.reasons[v] {
                None => {
                    // Decision ⇒ an assumption literal (all decisions below
                    // the assumption boundary are assumptions). This also
                    // covers the opposite phase of the failed assumption's
                    // own variable, which is itself an assumption when two
                    // contradictory assumptions are passed.
                    core.push(q);
                }
                Some(r) => {
                    for &x in self.db.lits(r) {
                        if self.levels[x.var().index()] > 0 {
                            self.seen[x.var().index()] = SOURCE;
                        }
                    }
                }
            }
            self.seen[v] = CLEAR;
        }
        self.seen[failed.var().index()] = CLEAR;
        core
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef && !self.eliminated[v.index()] {
                return Some(v);
            }
        }
        None
    }

    /// Builds the model for the full assignment, then walks the
    /// reconstruction stack in reverse: each entry whose clause the model
    /// does not yet satisfy flips its witness literal. This reassembles
    /// exact values for preprocessing-eliminated variables, so the model
    /// satisfies the *original* formula, not just the preprocessed one.
    fn reconstructed_model(&self) -> Model {
        if self.reconstruction.is_empty() {
            return Model::from_assignments(&self.assigns);
        }
        let mut values: Vec<bool> = self.assigns.iter().map(|&a| a == LBool::True).collect();
        for (witness, clause) in self.reconstruction.iter().rev() {
            let satisfied = clause
                .iter()
                .any(|&l| values[l.var().index()] == l.is_positive());
            if !satisfied {
                values[witness.var().index()] = witness.is_positive();
            }
        }
        Model::from_values(values)
    }

    /// Searches until a verdict, an interrupt, an exhausted budget or a
    /// restart: at least [`SolverConfig::restart_min`] conflicts into this
    /// call, once the fast LBD average exceeds the slow one by the
    /// [`RESTART_MARGIN`].
    fn search(&mut self, assumptions: &[Lit], budget_start: u64) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        let poll_mask = self.config.poll_mask();
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.proof_add(&[]);
                    self.ok = false;
                    return SearchOutcome::Unsat(Vec::new());
                }
                let (bt_level, lbd) = self.analyze(conflict);
                self.lbd_ema_fast += (f64::from(lbd) - self.lbd_ema_fast) * LBD_EMA_FAST;
                self.lbd_ema_slow += (f64::from(lbd) - self.lbd_ema_slow) * LBD_EMA_SLOW;
                self.cancel_until(bt_level);
                let learnt = std::mem::take(&mut self.learnt);
                self.proof_add(&learnt);
                if self.share.is_some() {
                    self.share_export(&learnt, lbd);
                }
                if learnt.len() == 1 {
                    debug_assert_eq!(bt_level, 0);
                    self.enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.db.push(&learnt, true, lbd);
                    self.attach(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.learnt = learnt;
                self.decay_activities();
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if conflicts_here & poll_mask == 0 {
                    // Same cadence as the interrupt poll: make buffered
                    // exports visible to siblings even mid-restart, and do
                    // so before bailing out so a cancelled worker's last
                    // lemmas still reach the winner.
                    if self.share.is_some() {
                        self.share_flush_exports();
                    }
                    if self.interrupt.is_triggered() {
                        return SearchOutcome::Interrupted;
                    }
                }
                if conflicts_here >= self.config.restart_min
                    && self.lbd_ema_fast * RESTART_MARGIN > self.lbd_ema_slow
                {
                    return SearchOutcome::Restart;
                }
            } else {
                // Assumption decisions come first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already implied: open a dummy level so the
                            // assumption index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            let core = self.analyze_final(p);
                            return SearchOutcome::Unsat(core);
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = v.lit(self.phase[v.index()]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Level-0 housekeeping performed between restarts: removes satisfied
    /// clauses, strips falsified literals, and if the learnt database grew
    /// past the limit deletes the less valuable half.
    ///
    /// The satisfied-clause scan only runs when new level-0 facts appeared
    /// since the last call, so restarts stay cheap.
    fn simplify_and_maybe_reduce(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        // A unit clause learnt on the restart-triggering conflict is enqueued
        // but not yet propagated when the restart fires; settle it before
        // housekeeping (it may even reveal level-0 unsatisfiability).
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return;
        }
        // Reasons of level-0 assignments are never inspected again.
        for &p in &self.trail {
            self.reasons[p.var().index()] = None;
        }
        let mut changed = false;
        let mut units: Vec<Lit> = Vec::new();
        if self.trail.len() > self.last_simplify_trail {
            self.last_simplify_trail = self.trail.len();
            changed = true;
            units = match self.remove_satisfied() {
                Some(units) => units,
                None => return, // level-0 conflict found
            };
        }
        if self.db.num_learnt() > self.reduce_limit {
            self.reduce_learnt();
            self.reduce_limit += self.reduce_limit / 2;
            changed = true;
        }
        if changed {
            // Watches must be consistent before the recovered units are
            // propagated, otherwise their implications would be lost.
            self.rebuild_watches();
        }
        for u in units {
            match self.lit_value(u) {
                LBool::False => {
                    self.proof_add(&[]);
                    self.ok = false;
                    return;
                }
                LBool::Undef => self.enqueue(u, None),
                LBool::True => {}
            }
        }
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return;
        }
        self.last_simplify_trail = self.last_simplify_trail.max(self.trail.len());
    }

    /// Deletes clauses satisfied at level 0 and strips falsified literals.
    /// Returns the recovered unit literals, or `None` on a level-0 conflict
    /// (an empty clause).
    fn remove_satisfied(&mut self) -> Option<Vec<Lit>> {
        // Pin every new level-0 fact as an explicit unit lemma before any
        // clause it was propagated from is deleted: a clause that implied
        // the fact contains it, is therefore satisfied, and is about to be
        // removed — without the unit lemma, later derivations relying on
        // the fact would no longer be RUP for the proof checker.
        if self.proof.is_some() {
            for i in self.proof_units..self.trail.len() {
                let l = self.trail[i];
                self.proof_add(&[l]);
            }
            self.proof_units = self.trail.len();
        }
        let mut units: Vec<Lit> = Vec::new();
        // Walk the arena in place: shortening or deleting the clause just
        // returned leaves the walk's position, past its old end, valid.
        let mut pos = 0;
        while let Some(r) = self.db.next_clause(&mut pos) {
            let original = if self.proof.is_some() {
                Some(self.db.lits(r).to_vec())
            } else {
                None
            };
            let mut satisfied = false;
            let mut k = 0;
            while k < self.db.len(r) {
                let l = self.db.lits(r)[k];
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {
                        self.db.swap_remove(r, k);
                    }
                    LBool::Undef => k += 1,
                }
            }
            if satisfied {
                if let Some(orig) = original {
                    self.proof_delete(&orig);
                }
                self.db.delete(r);
                continue;
            }
            // Literal stripping strengthened the clause: certify the
            // stripped version (RUP via the level-0 facts) and retire the
            // original. For recovered units (and the empty clause) the
            // strengthened lemma stays in the proof's active set even though
            // the clause leaves the database.
            if let Some(orig) = original.filter(|o| o.len() != self.db.len(r)) {
                let now = self.db.lits(r).to_vec();
                self.proof_add(&now);
                self.proof_delete(&orig);
            }
            match self.db.len(r) {
                0 => {
                    self.ok = false;
                    return None;
                }
                1 => {
                    units.push(self.db.lits(r)[0]);
                    self.db.delete(r);
                }
                _ => {}
            }
        }
        Some(units)
    }

    /// Deletes the worse half of learnt clauses (high LBD, low activity).
    /// Glue clauses (LBD <= 2) are always kept.
    fn reduce_learnt(&mut self) {
        let deleted_before = self.stats.deleted_clauses;
        let mut learnt = self.db.learnt_refs();
        learnt.sort_by(|&a, &b| {
            self.db.lbd(a).cmp(&self.db.lbd(b)).then(
                self.db
                    .activity(b)
                    .partial_cmp(&self.db.activity(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let keep = learnt.len() / 2;
        for &r in learnt.iter().skip(keep) {
            if self.db.lbd(r) <= 2 {
                continue;
            }
            if let Some(p) = self.proof.as_mut() {
                p.delete_clause(self.db.lits(r));
            }
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        self.obs.event(
            "sat.reduce",
            &[
                (
                    "deleted",
                    (self.stats.deleted_clauses - deleted_before).into(),
                ),
                ("kept", self.db.num_learnt().into()),
            ],
        );
    }

    /// Re-attaches the watches of every live clause, dropping those of
    /// deleted ones. Runs at decision level 0, so this is also where the
    /// clause arena is compacted once a quarter of it is dead: the watches
    /// are rebuilt from scratch anyway, and level-0 reasons are never
    /// inspected again, so they are cleared rather than relocated.
    fn rebuild_watches(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for w in &mut self.watches {
            w.clear();
        }
        if self.db.wants_compaction() {
            for &p in &self.trail {
                self.reasons[p.var().index()] = None;
            }
            self.db.compact();
        }
        let mut pos = 0;
        while let Some(r) = self.db.next_clause(&mut pos) {
            debug_assert!(self.db.len(r) >= 2);
            self.attach(r);
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat(Vec<Lit>),
    Restart,
    BudgetExhausted,
    Interrupted,
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver) -> Lit {
        s.new_var().positive()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        s.add_clause([a]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(a)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        s.add_clause([a]);
        assert!(!s.add_clause([!a]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn chain_of_implications() {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..20).map(|_| lit(&mut s)).collect();
        for w in vars.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        s.add_clause([vars[0]]);
        match s.solve() {
            SatResult::Sat(m) => {
                for &v in &vars {
                    assert!(m.lit_is_true(v));
                }
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn simple_unsat_triangle() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b)
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, b]);
        s.add_clause([!a, b]);
        s.add_clause([a, !b]);
        s.add_clause([!a, !b]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        assert!(s.add_clause([a, !a]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, a, b, b]);
        s.add_clause([!a]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(b)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn assumptions_sat_and_unsat_with_core() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let c = lit(&mut s);
        s.add_clause([!a, !b]); // a ∧ b impossible
        s.add_clause([c]);
        assert!(s.solve_with(&[a]).is_sat());
        assert!(s.solve_with(&[b]).is_sat());
        match s.solve_with(&[a, b]) {
            SatResult::Unsat { core } => {
                assert!(!core.is_empty());
                assert!(core.iter().all(|l| *l == a || *l == b));
            }
            other => panic!("expected unsat: {other:?}"),
        }
        // Solver is still usable afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn core_excludes_irrelevant_assumptions() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let junk: Vec<Lit> = (0..5).map(|_| lit(&mut s)).collect();
        s.add_clause([!a, !b]);
        let mut assumptions = junk.clone();
        assumptions.push(a);
        assumptions.push(b);
        match s.solve_with(&assumptions) {
            SatResult::Unsat { core } => {
                for j in junk {
                    assert!(!core.contains(&j), "irrelevant assumption in core");
                }
            }
            other => panic!("expected unsat: {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn incremental_solving_reuses_state() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, b]);
        assert!(s.solve().is_sat());
        s.add_clause([!a]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(b)),
            other => panic!("expected sat: {other:?}"),
        }
        s.add_clause([!b]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn conflict_budget_returns_unknown_or_verdict() {
        // A hard instance with a tiny budget must not loop forever.
        let n = 8usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        s.set_conflict_budget(Some(10));
        let r = s.solve();
        assert!(matches!(r, SatResult::Unknown | SatResult::Unsat { .. }));
    }

    #[test]
    fn budget_sliced_solving_reaches_the_same_verdict() {
        // Solver-state reuse audit: repeatedly solving with a tiny conflict
        // budget must converge to the exact verdict an unbudgeted solve
        // gives, because learnt clauses persist across Unknown returns.
        let n = 7usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        s.set_conflict_budget(Some(50));
        let mut slices = 0usize;
        let verdict = loop {
            slices += 1;
            assert!(slices < 10_000, "budget-sliced loop must terminate");
            match s.solve() {
                SatResult::Unknown => continue,
                verdict => break verdict,
            }
        };
        assert!(verdict.is_unsat(), "pigeonhole is unsatisfiable");
        assert!(slices > 1, "the budget must actually slice the search");
        // And the solver is still usable without a budget.
        s.set_conflict_budget(None);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pre_triggered_interrupt_returns_unknown_and_solver_stays_usable() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, b]);
        let token = crate::Interrupt::new();
        token.trigger();
        s.set_interrupt(token);
        assert_eq!(s.solve(), SatResult::Unknown);
        // Detaching the token restores normal solving on the same state.
        s.set_interrupt(crate::Interrupt::none());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn tighter_poll_interval_still_returns_unknown_with_state_intact() {
        // With restarts off there are no restart-boundary polls, so
        // only the per-conflict poll can observe the deadline; shrink it to
        // every conflict and interrupt a hard instance mid-restart.
        let n = 8usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.config().poll_interval, 64, "documented default");
        s.set_config(SolverConfig {
            poll_interval: 1,
            restart_min: u64::MAX,
            ..SolverConfig::default()
        });
        let token = crate::Interrupt::with_deadline(std::time::Duration::from_millis(5));
        s.set_interrupt(token.clone());
        let first = s.solve();
        if first != SatResult::Unknown {
            // The instance finished inside the deadline on this machine;
            // nothing left to observe.
            return;
        }
        assert_eq!(
            token.probe(),
            Some(crate::InterruptReason::DeadlineExceeded)
        );
        // State intact: the trail is back at level 0, learnt clauses are
        // kept, and the same solver still reaches the verdict.
        assert!(
            s.num_learnt_clauses() > 0,
            "interrupted call learnt nothing"
        );
        s.set_interrupt(crate::Interrupt::none());
        s.set_config(SolverConfig::default());
        assert!(s.solve().is_unsat(), "pigeonhole is unsatisfiable");
    }

    #[test]
    fn interrupt_mid_search_keeps_verdict_reachable() {
        // Interrupt a hard instance after some conflicts, then finish it:
        // learnt clauses must survive the aborted call.
        let n = 7usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let token = crate::Interrupt::with_deadline(std::time::Duration::ZERO);
        s.set_interrupt(token.clone());
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(
            token.probe(),
            Some(crate::InterruptReason::DeadlineExceeded)
        );
        s.set_interrupt(crate::Interrupt::none());
        assert!(s.solve().is_unsat(), "pigeonhole is unsatisfiable");
    }

    #[test]
    fn learnt_clause_retention_is_counted_across_calls() {
        // An incremental caller sees reused_learnts grow: clauses learnt in
        // call k are live at the start of call k+1.
        let n = 6usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        // Hole constraints only: satisfiable, but with conflicts under
        // assumptions forcing all pigeons placed.
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let sel: Vec<Lit> = (0..n).map(|_| lit(&mut s)).collect();
        for (row, &sl) in p.iter().zip(&sel) {
            let mut clause = vec![!sl];
            clause.extend(row.iter().copied());
            s.add_clause(clause);
        }
        assert!(s.solve_with(&sel).is_unsat());
        assert!(s.stats().conflicts > 0, "the probe must require search");
        assert!(s.num_learnt_clauses() > 0);
        assert_eq!(s.stats().solve_calls, 1);
        assert_eq!(s.stats().reused_learnts, 0, "first call reuses nothing");
        let live = s.num_learnt_clauses() as u64;
        assert!(s.solve_with(&sel[..n - 1]).is_sat());
        assert_eq!(s.stats().solve_calls, 2);
        assert_eq!(
            s.stats().reused_learnts,
            live,
            "second call starts with the first call's lemmas"
        );
    }

    #[test]
    fn obs_spans_mirror_search_statistics() {
        let (obs, sink) = etcs_obs::Obs::memory();
        let n = 6usize;
        let mut s = Solver::new();
        s.set_obs(obs);
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        // A small learnt budget makes the restarts reduce the database, so
        // the deleted-clause delta is exercised too.
        s.reduce_limit = 16;
        assert!(s.solve().is_unsat());
        assert!(s.stats().deleted_clauses > 0, "no reduction ran");
        let events = sink.events();
        let closes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == etcs_obs::EventKind::SpanClose && e.name == "sat.solve")
            .collect();
        assert_eq!(closes.len(), 1, "one solve call, one span");
        let close = closes[0];
        assert_eq!(close.field_str("result"), Some("unsat"));
        assert_eq!(close.field_u64("conflicts"), Some(s.stats().conflicts));
        assert_eq!(
            close.field_u64("propagations"),
            Some(s.stats().propagations)
        );
        assert_eq!(close.field_u64("decisions"), Some(s.stats().decisions));
        assert_eq!(
            close.field_u64("learnt_literals"),
            Some(s.stats().learnt_literals)
        );
        assert!(s.stats().minimised_literals > 0, "no literal minimised");
        assert_eq!(
            close.field_u64("minimised_literals"),
            Some(s.stats().minimised_literals)
        );
        assert_eq!(
            close.field_u64("deleted_clauses"),
            Some(s.stats().deleted_clauses)
        );
        let restarts = events.iter().filter(|e| e.name == "sat.restart").count();
        assert_eq!(restarts as u64, s.stats().restarts);
    }

    /// PHP(n, n-1) without selectors.
    fn pigeonhole(s: &mut Solver, n: usize) {
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
    }

    #[test]
    fn recursive_minimisation_drops_what_one_step_keeps() {
        // Level 1 decides `a`, which implies b1 -> b2 -> c. Level 2 decides
        // `d`, which implies `f`, and (¬d ∨ ¬c ∨ ¬f) conflicts. The first-UIP
        // clause is (¬d ∨ ¬a ∨ ¬c). A one-step check keeps ¬c: its reason
        // (¬b2 ∨ c) mentions b2, which is not in the clause. Walking the
        // reasons back reaches `a`, so ¬c goes and (¬d ∨ ¬a) is learnt.
        // The rest makes the formula unsatisfiable, so the whole run is
        // certified.
        let proof = std::sync::Arc::new(std::sync::Mutex::new(crate::proof::DratProof::new()));
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(std::sync::Arc::clone(&proof)));
        let [a, b1, b2, c, d, f, g, h] = [(); 8].map(|_| lit(&mut s));
        let axioms = vec![
            vec![!a, b1],
            vec![!b1, b2],
            vec![!b2, c],
            vec![!d, !a, f],
            vec![!d, !c, !f],
            vec![d, g],
            vec![d, !g, !a],
            vec![a, h],
            vec![a, !h],
        ];
        for clause in &axioms {
            s.add_clause(clause.iter().copied());
        }
        // Decide `a` first, then `d`, both true.
        s.boost_activity(a.var(), 2.0);
        s.boost_activity(d.var(), 1.0);
        s.set_phase(a.var(), true);
        s.set_phase(d.var(), true);
        assert!(s.solve().is_unsat());

        let proof = proof.lock().expect("proof lock");
        let first = proof.steps().first().expect("the search learnt a clause");
        let mut expected = vec![!d, !a];
        expected.sort_unstable();
        match first {
            crate::proof::ProofStep::Add(clause) => {
                let mut clause = clause.clone();
                clause.sort_unstable();
                assert_eq!(clause, expected, "first lemma is the minimised clause");
            }
            other => panic!("expected a lemma, got {other:?}"),
        }
        // The first-UIP clause lost one literal to minimisation.
        assert_eq!(s.stats().minimised_literals, 1, "{:?}", s.stats());
        crate::proof::check_drat(&axioms, &proof, &[]).expect("certificate is valid");
    }

    #[test]
    fn analysis_marks_are_clear_after_every_conflict() {
        // Drive the search conflict by conflict with a budget of one, so
        // the marks can be inspected after each `analyze`.
        let mut s = Solver::new();
        pigeonhole(&mut s, 6);
        s.set_conflict_budget(Some(1));
        let mut conflicts = 0;
        let verdict = loop {
            let r = s.solve();
            assert!(s.seen.iter().all(|&m| m == CLEAR), "marks left set");
            if r != SatResult::Unknown {
                break r;
            }
            conflicts += 1;
            assert!(conflicts < 100_000, "budget-sliced search must end");
        };
        assert!(verdict.is_unsat());
        assert!(s.stats().conflicts > 10);
        assert!(s.stats().minimised_literals > 0, "{:?}", s.stats());
    }

    #[test]
    fn lbd_average_restarts_fire_and_can_be_disabled() {
        let solve = |n: usize, restart_min: u64| {
            let mut s = Solver::new();
            s.set_config(SolverConfig {
                restart_min,
                ..SolverConfig::default()
            });
            pigeonhole(&mut s, n);
            assert!(s.solve().is_unsat());
            *s.stats()
        };
        // PHP(5, 4) takes fewer conflicts than the default minimum.
        let st = solve(5, 8);
        assert!(st.restarts > 0, "{st:?}");
        assert!(st.restarts * 8 <= st.conflicts, "{st:?}");
        let st = solve(5, u64::MAX);
        assert!(st.conflicts > 0);
        assert_eq!(st.restarts, 0, "{st:?}");
        let st = solve(7, SolverConfig::default().restart_min);
        assert!(st.restarts > 0, "{st:?}");
    }

    /// Pigeonhole PHP(n, n-1) with one selector per pigeon: placing every
    /// pigeon is only required while all selectors are assumed.
    fn guarded_pigeonhole(s: &mut Solver, n: usize) -> Vec<Lit> {
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(s)).collect())
            .collect();
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let sel: Vec<Lit> = (0..n).map(|_| lit(s)).collect();
        for (row, &sl) in p.iter().zip(&sel) {
            let mut clause = vec![!sl];
            clause.extend(row.iter().copied());
            s.add_clause(clause);
        }
        sel
    }

    #[test]
    fn warm_solver_arena_stays_proportional_to_live_clauses() {
        // A warm core living across many ticks, as in replanning: every
        // tick adds a fresh guarded subproblem, refutes it under its
        // selectors and reduces the learnt database. The arena must not
        // keep the words of every learnt clause ever made.
        let mut s = Solver::new();
        let mut learnt_words = 0u64;
        for tick in 0..24 {
            let sel = guarded_pigeonhole(&mut s, 6);
            s.reduce_limit = 16;
            let before = s.stats().learnt_literals;
            assert!(s.solve_with(&sel).is_unsat());
            learnt_words += s.stats().learnt_literals - before;
            let (arena, live) = (s.db.arena_words(), s.db.live_words());
            assert!(
                4 * (arena - live) < arena,
                "tick {tick}: {arena} arena words for {live} live"
            );
        }
        assert!(
            s.stats().deleted_clauses > 1000,
            "reductions must run: {:?}",
            s.stats()
        );
        assert!(
            learnt_words > 2 * s.db.arena_words() as u64,
            "the ticks must learn more than the arena holds: {learnt_words} words learnt, \
             arena {}",
            s.db.arena_words()
        );
    }

    #[test]
    fn preprocess_then_reduce_keeps_watches_live() {
        // Every clause deletion (preprocessing passes, satisfied-clause
        // removal, learnt reduction) must be followed by a watch rebuild
        // before propagation; `propagate` debug-asserts that no watcher
        // reaches a deleted clause.
        let mut s = Solver::new();
        let sel = guarded_pigeonhole(&mut s, 7);
        // Subsumable, strengthenable and eliminable extras.
        let x: Vec<Lit> = (0..6).map(|_| lit(&mut s)).collect();
        s.add_clause([x[0], x[1]]);
        s.add_clause([x[0], x[1], x[2]]);
        s.add_clause([!x[0], x[1], x[3]]);
        s.add_clause([!x[4], x[5]]);
        s.add_clause([x[4], x[2]]);
        for &l in sel.iter().chain([&x[1]]) {
            s.freeze_var(l.var());
        }
        let st = s.preprocess(&PreprocessConfig::default());
        assert!(
            st.clauses_removed() > 0,
            "preprocessing must delete clauses"
        );
        s.reduce_limit = 16;
        assert!(s.solve_with(&sel).is_unsat());
        assert!(s.stats().deleted_clauses > 0, "reduction must run");
        // A later tick fixes a unit at level 0, so the restart removes
        // satisfied clauses as well.
        s.add_clause([x[1]]);
        s.reduce_limit = 16;
        assert!(s.solve_with(&sel).is_unsat());
        assert!(s.solve_with(&sel[1..]).is_sat());
    }

    #[test]
    fn model_respects_all_clauses_random_smoke() {
        // Deterministic pseudo-random 3-SAT instance, checked against the model.
        let num_vars = 30usize;
        let num_clauses = 100usize;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..num_clauses {
            let mut c = Vec::new();
            for _ in 0..3 {
                let v = vars[(next() % num_vars as u64) as usize];
                c.push(v.lit(next() % 2 == 0));
            }
            clauses.push(c.clone());
            s.add_clause(c);
        }
        if let SatResult::Sat(m) = s.solve() {
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| m.lit_is_true(l)),
                    "model violates clause {c:?}"
                );
            }
        }
    }
}
