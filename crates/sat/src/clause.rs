//! Clause storage for the CDCL solver.
//!
//! Every clause lives in one flat arena, a `Vec<Lit>`: a [`HEADER`]-word
//! header followed by the clause's literals. A [`ClauseRef`] is the offset
//! of the header. Header words are stored as raw literal codes:
//!
//! | word | content                                      |
//! |------|----------------------------------------------|
//! | 0    | literal count                                |
//! | 1    | `lbd << 2 \| deleted << 1 \| learnt`          |
//! | 2, 3 | activity, the `f64` bits low word then high  |
//!
//! Deleting a clause only sets its header flag. Shortening one with
//! [`ClauseDb::swap_remove`] overwrites the freed word with a filler word
//! that no header can equal. Both leave dead words behind, and every
//! outstanding [`ClauseRef`] stays valid until [`ClauseDb::compact`] slides
//! the live clauses down in place, in their original order, and shrinks the
//! arena's capacity. The solver compacts only from `rebuild_watches` at
//! decision level 0, which re-attaches every watch and first clears the
//! level-0 reasons (never read again), and only once a quarter of the
//! words are dead ([`ClauseDb::wants_compaction`]).

use crate::types::Lit;

/// Handle to a clause inside a [`ClauseDb`]: the offset of its header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) struct ClauseRef(u32);

/// Words in a clause header.
const HEADER: usize = 4;
/// Word 0: literal count.
const LEN: usize = 0;
/// Word 1: flags and LBD.
const META: usize = 1;
/// Words 2 and 3: activity bits.
const ACT_LO: usize = 2;
const ACT_HI: usize = 3;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const LBD_SHIFT: u32 = 2;

/// Filler for the words freed by [`ClauseDb::swap_remove`]. A literal
/// count never reaches it, so an arena walk tells fillers from headers.
const GAP: Lit = Lit(u32::MAX);

/// Arena of clauses addressed by [`ClauseRef`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<Lit>,
    /// Arena words owned by deleted clauses or fillers.
    dead: usize,
    /// Number of live (non-deleted) learnt clauses.
    num_learnt: usize,
    /// Number of live problem clauses.
    num_problem: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Inserts a clause and returns its handle.
    ///
    /// The caller must guarantee `lits.len() >= 2`; unit and empty clauses
    /// are handled by the solver before reaching the database.
    pub(crate) fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "database clauses must have >= 2 literals");
        if learnt {
            self.num_learnt += 1;
        } else {
            self.num_problem += 1;
        }
        let r =
            ClauseRef(u32::try_from(self.arena.len()).expect("clause arena exceeds 2^32 words"));
        let activity = 0f64.to_bits();
        self.arena.extend_from_slice(&[
            Lit(lits.len() as u32),
            Lit((lbd << LBD_SHIFT) | learnt as u32),
            Lit(activity as u32),
            Lit((activity >> 32) as u32),
        ]);
        self.arena.extend_from_slice(lits);
        r
    }

    #[inline]
    fn word(&self, r: ClauseRef, w: usize) -> u32 {
        self.arena[r.0 as usize + w].0
    }

    #[inline]
    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        self.word(r, LEN) as usize
    }

    #[inline]
    pub(crate) fn lits(&self, r: ClauseRef) -> &[Lit] {
        let start = r.0 as usize + HEADER;
        &self.arena[start..start + self.len(r)]
    }

    #[inline]
    pub(crate) fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        let start = r.0 as usize + HEADER;
        let len = self.len(r);
        &mut self.arena[start..start + len]
    }

    /// `true` for learnt clauses (subject to database reduction); problem
    /// clauses are permanent.
    #[inline]
    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.word(r, META) & LEARNT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.word(r, META) & DELETED != 0
    }

    /// Literal-block distance at learning time (lower = more valuable).
    #[inline]
    pub(crate) fn lbd(&self, r: ClauseRef) -> u32 {
        self.word(r, META) >> LBD_SHIFT
    }

    /// Bump-and-decay activity used as a tiebreaker during reduction.
    #[inline]
    pub(crate) fn activity(&self, r: ClauseRef) -> f64 {
        let bits = u64::from(self.word(r, ACT_LO)) | (u64::from(self.word(r, ACT_HI)) << 32);
        f64::from_bits(bits)
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, r: ClauseRef, activity: f64) {
        let bits = activity.to_bits();
        self.arena[r.0 as usize + ACT_LO] = Lit(bits as u32);
        self.arena[r.0 as usize + ACT_HI] = Lit((bits >> 32) as u32);
    }

    /// Multiplies the activity of every live learnt clause by `factor`.
    pub(crate) fn scale_learnt_activities(&mut self, factor: f64) {
        let mut pos = 0;
        while let Some(r) = self.next_clause(&mut pos) {
            if self.is_learnt(r) {
                self.set_activity(r, self.activity(r) * factor);
            }
        }
    }

    /// Removes the literal at `i` (order-destroying swap-remove: the last
    /// literal moves into slot `i`) and returns it.
    pub(crate) fn swap_remove(&mut self, r: ClauseRef, i: usize) -> Lit {
        let lits = self.lits_mut(r);
        let last = lits.len() - 1;
        lits.swap(i, last);
        let removed = lits[last];
        let at = r.0 as usize;
        self.arena[at + HEADER + last] = GAP;
        self.arena[at + LEN] = Lit(last as u32);
        self.dead += 1;
        removed
    }

    /// Marks a clause deleted. Its words stay in place, counted as dead,
    /// until the next [`ClauseDb::compact`].
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        debug_assert!(!self.is_deleted(r), "double delete of clause {r:?}");
        if self.is_learnt(r) {
            self.num_learnt -= 1;
        } else {
            self.num_problem -= 1;
        }
        self.arena[r.0 as usize + META].0 |= DELETED;
        self.dead += HEADER + self.len(r);
    }

    /// Live learnt-clause count.
    #[inline]
    pub(crate) fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Live problem-clause count.
    #[inline]
    pub(crate) fn num_problem(&self) -> usize {
        self.num_problem
    }

    /// Arena length in words, live and dead.
    #[cfg(test)]
    pub(crate) fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Arena words owned by live clauses.
    #[cfg(test)]
    pub(crate) fn live_words(&self) -> usize {
        self.arena.len() - self.dead
    }

    /// `true` once at least a quarter of the arena is dead words.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.dead > 0 && self.dead * 4 >= self.arena.len()
    }

    /// Slides every live clause down over the dead words, keeping clause
    /// order, then shrinks the arena's capacity to its new length.
    ///
    /// Invalidates every outstanding [`ClauseRef`]; the caller must drop
    /// all of them (watches, reasons) and rebuild from
    /// [`ClauseDb::iter_refs`].
    pub(crate) fn compact(&mut self) {
        // The walk reads only past `pos`, and every copy lands below it.
        let mut pos = 0;
        let mut write = 0;
        while let Some(r) = self.next_clause(&mut pos) {
            let start = r.0 as usize;
            let size = HEADER + self.len(r);
            self.arena.copy_within(start..start + size, write);
            write += size;
        }
        self.arena.truncate(write);
        self.arena.shrink_to_fit();
        self.dead = 0;
    }

    /// Advances `pos` past the clause at or after it (skipping fillers and
    /// deleted clauses) and returns that clause. Starting from `pos = 0`,
    /// repeated calls walk the live clauses in insertion order; the caller
    /// may shorten or delete the clause just returned between calls.
    pub(crate) fn next_clause(&self, pos: &mut usize) -> Option<ClauseRef> {
        while *pos < self.arena.len() {
            if self.arena[*pos] == GAP {
                *pos += 1;
                continue;
            }
            let r = ClauseRef(*pos as u32);
            *pos += HEADER + self.len(r);
            if !self.is_deleted(r) {
                return Some(r);
            }
        }
        None
    }

    /// Iterates over handles of all live clauses, in insertion order.
    pub(crate) fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || self.next_clause(&mut pos))
    }

    /// Handles of live learnt clauses (candidates for reduction), in
    /// insertion order.
    pub(crate) fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.iter_refs().filter(|&r| self.is_learnt(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(ix: &[usize]) -> Vec<Lit> {
        ix.iter().map(|&i| Var::from_index(i).positive()).collect()
    }

    fn contents(db: &ClauseDb) -> Vec<Vec<Lit>> {
        db.iter_refs().map(|r| db.lits(r).to_vec()).collect()
    }

    #[test]
    fn push_and_get() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[0, 1, 2]), false, 0);
        assert_eq!(db.len(r), 3);
        assert_eq!(db.lits(r), &lits(&[0, 1, 2])[..]);
        assert!(!db.is_learnt(r));
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.num_learnt(), 0);
    }

    #[test]
    fn header_fields_roundtrip_bit_exactly() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[0, 1]), true, 77);
        assert!(db.is_learnt(r));
        assert_eq!(db.lbd(r), 77);
        assert_eq!(db.activity(r).to_bits(), 0f64.to_bits());
        for a in [1.0, 0.1 + 0.2, 1e100 / 3.0, f64::MIN_POSITIVE, 7.5e-300] {
            db.set_activity(r, a);
            assert_eq!(db.activity(r).to_bits(), a.to_bits());
        }
        assert_eq!(
            db.lits(r),
            &lits(&[0, 1])[..],
            "header writes stay in the header"
        );
    }

    #[test]
    fn delete_releases_and_counts() {
        let mut db = ClauseDb::new();
        let p = db.push(&lits(&[0, 1]), false, 0);
        let l = db.push(&lits(&[2, 3]), true, 2);
        assert_eq!(db.num_learnt(), 1);
        db.delete(l);
        assert!(db.is_deleted(l));
        assert!(!db.is_deleted(p));
        assert_eq!(db.num_learnt(), 0);
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.iter_refs().count(), 1);
        assert_eq!(db.live_words(), HEADER + 2);
    }

    #[test]
    fn learnt_refs_only_live_learnt() {
        let mut db = ClauseDb::new();
        db.push(&lits(&[0, 1]), false, 0);
        let l1 = db.push(&lits(&[2, 3]), true, 2);
        let l2 = db.push(&lits(&[4, 5]), true, 3);
        db.delete(l1);
        assert_eq!(db.learnt_refs(), vec![l2]);
    }

    #[test]
    fn swap_remove_shrinks() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[0, 1, 2]), false, 0);
        let next = db.push(&lits(&[3, 4]), false, 0);
        let removed = db.swap_remove(r, 0);
        assert_eq!(removed, Var::from_index(0).positive());
        assert_eq!(db.lits(r), &lits(&[2, 1])[..]);
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), vec![r, next]);
        assert_eq!(db.lits(next), &lits(&[3, 4])[..]);
    }

    #[test]
    fn scaling_touches_only_learnt_activities() {
        let mut db = ClauseDb::new();
        let p = db.push(&lits(&[0, 1]), false, 0);
        let l = db.push(&lits(&[2, 3]), true, 2);
        db.set_activity(p, 4.0);
        db.set_activity(l, 4.0);
        db.scale_learnt_activities(0.5);
        assert_eq!(db.activity(p), 4.0);
        assert_eq!(db.activity(l), 2.0);
    }

    #[test]
    fn compaction_preserves_order_and_contents() {
        let mut db = ClauseDb::new();
        let mut refs = Vec::new();
        for i in 0..40 {
            let c = lits(&[i, i + 1, i + 2 + i % 3]);
            refs.push(db.push(&c, i % 2 == 1, (i % 5) as u32));
            db.set_activity(refs[i], i as f64 * 0.3);
        }
        for (i, &r) in refs.iter().enumerate() {
            if i % 3 == 0 {
                db.delete(r);
            }
        }
        let before = contents(&db);
        let meta = |db: &ClauseDb| -> Vec<(bool, u32, u64)> {
            db.iter_refs()
                .map(|r| (db.is_learnt(r), db.lbd(r), db.activity(r).to_bits()))
                .collect()
        };
        let meta_before = meta(&db);
        let learnt_before: Vec<Vec<Lit>> = db
            .learnt_refs()
            .iter()
            .map(|&r| db.lits(r).to_vec())
            .collect();
        assert!(db.wants_compaction());
        db.compact();
        assert!(!db.wants_compaction());
        assert_eq!(db.arena_words(), db.live_words());
        assert_eq!(contents(&db), before);
        assert_eq!(meta(&db), meta_before);
        let learnt_after: Vec<Vec<Lit>> = db
            .learnt_refs()
            .iter()
            .map(|&r| db.lits(r).to_vec())
            .collect();
        assert_eq!(learnt_after, learnt_before);
        assert_eq!(db.num_problem() + db.num_learnt(), before.len());
    }

    #[test]
    fn shortened_clause_survives_compaction() {
        let mut db = ClauseDb::new();
        let a = db.push(&lits(&[0, 1, 2, 3]), false, 0);
        let b = db.push(&lits(&[4, 5, 6]), true, 3);
        let c = db.push(&lits(&[7, 8]), false, 0);
        db.swap_remove(a, 1);
        db.swap_remove(a, 0);
        db.delete(b);
        let before = contents(&db);
        assert_eq!(before, vec![lits(&[2, 3]), lits(&[7, 8])]);
        assert_eq!(db.lits(c), &lits(&[7, 8])[..]);
        db.compact();
        assert_eq!(contents(&db), before);
        assert_eq!(db.arena_words(), 2 * HEADER + 4);
        // The database keeps working after compaction.
        let d = db.push(&lits(&[9, 10]), false, 0);
        assert_eq!(db.lits(d), &lits(&[9, 10])[..]);
        assert_eq!(db.iter_refs().count(), 3);
    }
}
