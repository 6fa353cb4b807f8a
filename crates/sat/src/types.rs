//! Core identifier types: Boolean [`Var`]iables and signed [`Lit`]erals.
//!
//! A [`Var`] is a dense index (`0..num_vars`); a [`Lit`] packs a variable and
//! a sign into a single `u32` so that `lit.index()` can be used directly to
//! address watch lists and assignment tables.

use std::fmt;
use std::ops::Not;

/// A Boolean variable, identified by a dense index.
///
/// Variables are created by [`crate::Solver::new_var`] (or by the formula
/// builders in [`Formula`](crate::Formula)) and are meaningless outside the solver that
/// created them.
///
/// # Examples
///
/// ```
/// use etcs_sat::{Solver, Lit};
/// let mut s = Solver::new();
/// let v = s.new_var();
/// let positive: Lit = v.positive();
/// assert_eq!(positive.var(), v);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from its dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given sign (`true` = positive).
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a [`Var`] together with a sign.
///
/// The lowest bit encodes the sign (`0` = positive, `1` = negated), the
/// remaining bits the variable index. Negation is therefore a single XOR.
///
/// # Examples
///
/// ```
/// use etcs_sat::Var;
/// let v = Var::from_index(3);
/// assert_eq!(!v.positive(), v.negative());
/// assert!(v.positive().is_positive());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Reconstructs a literal from the packed code returned by [`Lit::code`].
    #[inline]
    pub fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// The packed code: `var_index * 2 + (negated as u32)`.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Dense index usable for watch-list and table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` if this literal is the positive phase of its variable.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// `true` if this literal is the negated phase of its variable.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl From<Var> for Lit {
    #[inline]
    fn from(v: Var) -> Lit {
        v.positive()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.0 >> 1)
        } else {
            write!(f, "x{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Tri-state assignment value used inside the solver and in [`crate::Model`].
///
/// The discriminants are fixed: `True` is 0 and `False` is 1, the same as a
/// [`Lit`]'s sign bit when the literal holds, which lets propagation test
/// literal truth with one comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
#[repr(u8)]
pub enum LBool {
    /// Assigned true.
    True = 0,
    /// Assigned false.
    False = 1,
    /// Not assigned.
    #[default]
    Undef = 2,
}

impl LBool {
    /// Converts a `bool` into the corresponding defined value.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// `Some(bool)` if defined, `None` if [`LBool::Undef`].
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Logical negation; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_literal_roundtrip() {
        let v = Var::from_index(7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(v.negative().is_negative());
    }

    #[test]
    fn negation_is_involution() {
        let v = Var::from_index(12);
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!v.negative(), v.positive());
    }

    #[test]
    fn lit_code_roundtrip() {
        for i in 0..64u32 {
            let l = Lit::from_code(i);
            assert_eq!(Lit::from_code(l.code()), l);
        }
    }

    #[test]
    fn lit_index_distinct_per_phase() {
        let v = Var::from_index(3);
        assert_ne!(v.positive().index(), v.negative().index());
    }

    #[test]
    fn var_lit_helper_matches_phases() {
        let v = Var::from_index(5);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn lbool_negate() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::False.negate(), LBool::True);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
    }

    #[test]
    fn lbool_bool_conversions() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::from_bool(false), LBool::False);
        assert_eq!(LBool::True.to_bool(), Some(true));
        assert_eq!(LBool::False.to_bool(), Some(false));
        assert_eq!(LBool::Undef.to_bool(), None);
    }

    #[test]
    fn display_formats() {
        let v = Var::from_index(4);
        assert_eq!(format!("{}", v.positive()), "x4");
        assert_eq!(format!("{}", v.negative()), "¬x4");
        assert_eq!(format!("{v}"), "x4");
    }
}
