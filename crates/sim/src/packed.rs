//! Two-plane packed three-valued words: 64 fault experiments per machine
//! word.
//!
//! A [`TritWord`] carries one [`Trit`] per *lane* in two `u64` bit planes:
//!
//! | plane | lane bit | meaning |
//! |-------|----------|---------|
//! | `val` | 0 / 1    | the known logic level of the lane |
//! | `unk` | 1        | the lane is `X` (unknown) |
//!
//! The representation is kept **canonical**: a lane whose `unk` bit is set
//! always has its `val` bit cleared. Canonical words compare per-lane trit
//! equality with two XORs ([`TritWord::diff`]), and the derived masks
//! `can_be_one = val | unk` and `can_be_zero = !val` make the exact
//! completion-enumeration semantics of the scalar simulator (`maj(X,v,v) =
//! v`, an AND with a 0 input is 0 regardless of `X`) a handful of bitwise
//! operations per lane word. Per-lane predicates are [`LaneMask`]s.

use crate::Trit;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXorAssign, Not};

/// A per-lane boolean predicate over 64 lanes: the mask type every
/// [`TritWord`] plane and derived mask (`diff`, `can_be_one`, …) is made of.
///
/// Lane `i` lives in bit `i`. The bitwise operators (`& | ! ^=`) apply
/// lane-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneMask(pub u64);

impl LaneMask {
    /// No lane set.
    pub const EMPTY: Self = Self(0);
    /// Every lane set.
    pub const FULL: Self = Self(!0);

    /// The mask with exactly `lane` set.
    pub fn bit(lane: usize) -> Self {
        debug_assert!(lane < 64);
        Self(1u64 << lane)
    }

    /// The mask covering the first `lanes` lanes (`lanes <= 64`).
    pub fn first(lanes: usize) -> Self {
        debug_assert!(lanes <= 64);
        Self(if lanes == 64 { !0 } else { (1u64 << lanes) - 1 })
    }

    /// `true` if any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// `true` if no lane is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `lane` is set.
    #[inline]
    pub fn get(self, lane: usize) -> bool {
        debug_assert!(lane < 64);
        (self.0 >> lane) & 1 == 1
    }

    /// Number of set lanes.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Calls `f` with the index of every set lane, in ascending order.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(usize)) {
        let mut remaining = self.0;
        while remaining != 0 {
            f(remaining.trailing_zeros() as usize);
            remaining &= remaining - 1;
        }
    }
}

impl BitAnd for LaneMask {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }
}

impl BitOr for LaneMask {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl Not for LaneMask {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        Self(!self.0)
    }
}

impl BitAndAssign for LaneMask {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        self.0 &= rhs.0;
    }
}

impl BitOrAssign for LaneMask {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl BitXorAssign for LaneMask {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

/// 64 three-valued lanes packed into two [`LaneMask`] bit planes.
///
/// See the module documentation for the encoding and the canonical-form
/// invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TritWord {
    /// Known-value plane (bit set = logic 1); always 0 where `unk` is set.
    pub val: LaneMask,
    /// Unknown plane (bit set = `X`).
    pub unk: LaneMask,
}

impl TritWord {
    /// All lanes at logic 0.
    pub const ZERO: Self = Self {
        val: LaneMask::EMPTY,
        unk: LaneMask::EMPTY,
    };
    /// All lanes at logic 1.
    pub const ONE: Self = Self {
        val: LaneMask::FULL,
        unk: LaneMask::EMPTY,
    };
    /// All lanes unknown.
    pub const X: Self = Self {
        val: LaneMask::EMPTY,
        unk: LaneMask::FULL,
    };

    /// The same trit in every lane.
    #[inline]
    pub fn broadcast(value: Trit) -> Self {
        match value {
            Trit::Zero => Self::ZERO,
            Trit::One => Self::ONE,
            Trit::X => Self::X,
        }
    }

    /// The trit in `lane` (0..64).
    pub fn lane(self, lane: usize) -> Trit {
        if self.unk.get(lane) {
            Trit::X
        } else if self.val.get(lane) {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// Lane mask of the positions where the two words carry *different*
    /// trits (`X` equals `X`). Requires both words to be canonical.
    #[inline]
    pub fn diff(self, other: Self) -> LaneMask {
        LaneMask((self.val.0 ^ other.val.0) | (self.unk.0 ^ other.unk.0))
    }

    /// Forces the lanes in `mask` to `X`, leaving the others untouched.
    #[inline]
    pub fn poison(self, mask: LaneMask) -> Self {
        Self {
            val: self.val & !mask,
            unk: self.unk | mask,
        }
    }

    /// Lane mask of the positions that *could* be 1 under some completion of
    /// the unknowns (`1` or `X`).
    #[inline]
    pub fn can_be_one(self) -> LaneMask {
        self.val | self.unk
    }

    /// Lane mask of the positions that *could* be 0 under some completion of
    /// the unknowns (`0` or `X`). Relies on the canonical form (`val` clear
    /// where `unk` is set).
    #[inline]
    pub fn can_be_zero(self) -> LaneMask {
        !self.val
    }

    /// Lane mask of the positions known to be 0.
    #[inline]
    pub fn known_zero(self) -> LaneMask {
        !self.val & !self.unk
    }

    /// Reconstructs a canonical word from "can be 1" / "can be 0" masks
    /// (each lane must satisfy at least one of the two).
    #[inline]
    pub fn from_possibilities(can_one: LaneMask, can_zero: LaneMask) -> Self {
        Self {
            val: can_one & !can_zero,
            unk: can_one & can_zero,
        }
    }

    /// Lane-wise selection: the lanes in `mask` from `self`, the rest from
    /// `fallback` — the merge step of restricted evaluation, where only the
    /// lanes whose operands diverged are enumerated and every other lane
    /// keeps its golden value.
    #[inline]
    pub fn select_lanes(self, fallback: Self, mask: LaneMask) -> Self {
        Self {
            val: (self.val & mask) | (fallback.val & !mask),
            unk: (self.unk & mask) | (fallback.unk & !mask),
        }
    }

    /// Pairwise wired-resolution against `other` in the lanes of `mask`:
    /// lanes where the two words agree on a known value keep it, lanes where
    /// they differ (or either is `X`) become `X` — the packed form of
    /// [`Trit::resolve`] used for bridged nets.
    #[inline]
    pub fn resolve_masked(self, other: Self, mask: LaneMask) -> Self {
        let conflict = self.diff(other) | self.unk | other.unk;
        self.poison(conflict & mask)
    }
}

/// The packed majority vote of `values` across every lane — the bit-parallel
/// form of [`crate::majority`]: a value wins a lane when strictly more than
/// half of the members carry it there; a single member passes through.
pub fn majority_word(values: &[TritWord]) -> TritWord {
    match values {
        [] => TritWord::X,
        [single] => *single,
        [a, b] => {
            let one = a.val & b.val;
            let zero = a.known_zero() & b.known_zero();
            TritWord {
                val: one,
                unk: !(one | zero),
            }
        }
        [a, b, c] => {
            let one = (a.val & b.val) | (a.val & c.val) | (b.val & c.val);
            let (za, zb, zc) = (a.known_zero(), b.known_zero(), c.known_zero());
            let zero = (za & zb) | (za & zc) | (zb & zc);
            TritWord {
                val: one,
                unk: !(one | zero),
            }
        }
        many => {
            let n = many.len();
            let ones = count_exceeds_half(many.iter().map(|w| w.val), n);
            let zeros = count_exceeds_half(many.iter().map(|w| w.known_zero()), n);
            TritWord {
                val: ones,
                unk: !(ones | zeros),
            }
        }
    }
}

/// Lane mask where the population count of the indicator masks is strictly
/// greater than `n / 2` (the majority threshold for `n` members).
fn count_exceeds_half(indicators: impl Iterator<Item = LaneMask>, n: usize) -> LaneMask {
    // Bit-serial carry-save accumulation: `planes[k]` holds bit `k` of the
    // per-lane count.
    let mut planes: Vec<LaneMask> = Vec::new();
    for word in indicators {
        let mut carry = word;
        for plane in planes.iter_mut() {
            let overflow = *plane & carry;
            *plane ^= carry;
            carry = overflow;
        }
        if carry.any() {
            planes.push(carry);
        }
    }
    // Per-lane comparison `count > threshold` against the constant.
    let threshold = n / 2;
    let width = planes
        .len()
        .max(usize::BITS as usize - threshold.leading_zeros() as usize);
    let mut greater = LaneMask::EMPTY;
    let mut equal_so_far = LaneMask::FULL;
    for k in (0..width).rev() {
        let plane = planes.get(k).copied().unwrap_or(LaneMask::EMPTY);
        if (threshold >> k) & 1 == 0 {
            greater |= equal_so_far & plane;
            equal_so_far &= !plane;
        } else {
            equal_so_far &= plane;
        }
    }
    greater
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::majority;

    const TRITS: [Trit; 3] = [Trit::Zero, Trit::One, Trit::X];

    #[test]
    fn lane_round_trip_and_broadcast() {
        let word = TritWord {
            val: LaneMask::bit(3),
            unk: LaneMask::bit(7) | LaneMask::bit(63),
        };
        assert_eq!(word.lane(3), Trit::One);
        assert_eq!(word.lane(7), Trit::X);
        assert_eq!(word.lane(63), Trit::X);
        assert_eq!(word.lane(0), Trit::Zero);
        assert_eq!(TritWord::broadcast(Trit::X).lane(63), Trit::X);
        assert_eq!(TritWord::broadcast(Trit::One).lane(63), Trit::One);
    }

    #[test]
    fn lane_mask_first_and_bit_ops() {
        assert_eq!(LaneMask::first(0), LaneMask::EMPTY);
        assert_eq!(LaneMask::first(3).0, 0b111);
        assert_eq!(LaneMask::first(64), LaneMask::FULL);
        let first = LaneMask::first(40);
        assert_eq!(first.count(), 40);
        assert!(first.get(39) && !first.get(40));
        let bit = LaneMask::bit(63);
        assert!(bit.get(63));
        assert_eq!(bit.count(), 1);
        assert!((bit & !bit).is_empty());
        assert!((bit | LaneMask::bit(3)).get(3));
        let mut seen = Vec::new();
        (bit | LaneMask::bit(3)).for_each(|lane| seen.push(lane));
        assert_eq!(seen, [3, 63]);
    }

    #[test]
    fn diff_matches_scalar_equality() {
        for &a in &TRITS {
            for &b in &TRITS {
                let wa = TritWord::broadcast(a);
                let wb = TritWord::broadcast(b);
                let expect = if a == b {
                    LaneMask::EMPTY
                } else {
                    LaneMask::FULL
                };
                assert_eq!(wa.diff(wb), expect, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn resolve_masked_matches_scalar_resolve() {
        for &a in &TRITS {
            for &b in &TRITS {
                let resolved =
                    TritWord::broadcast(a).resolve_masked(TritWord::broadcast(b), LaneMask::FULL);
                assert_eq!(resolved.lane(0), a.resolve(b), "{a} resolve {b}");
                // Outside the mask the value is untouched.
                let untouched =
                    TritWord::broadcast(a).resolve_masked(TritWord::broadcast(b), LaneMask::EMPTY);
                assert_eq!(untouched.lane(0), a, "{a} unmasked vs {b}");
            }
        }
    }

    /// Exhaustive check of the packed majority against the scalar one for
    /// every member-count up to 4 and every trit combination.
    #[test]
    fn majority_word_matches_scalar_majority() {
        for n in 1..=4usize {
            let mut combo = vec![0usize; n];
            loop {
                let trits: Vec<Trit> = combo.iter().map(|&i| TRITS[i]).collect();
                let words: Vec<TritWord> = trits.iter().map(|&t| TritWord::broadcast(t)).collect();
                let packed = majority_word(&words);
                assert_eq!(packed.lane(17), majority(&trits), "{trits:?}");
                // Advance the odometer.
                let mut done = true;
                for digit in combo.iter_mut() {
                    *digit += 1;
                    if *digit < TRITS.len() {
                        done = false;
                        break;
                    }
                    *digit = 0;
                }
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn majority_votes_lanes_independently() {
        let lane_61 = LaneMask::bit(61);
        let a = TritWord::ZERO.select_lanes(TritWord::ONE, lane_61);
        let b = TritWord::X.select_lanes(TritWord::ONE, lane_61);
        let c = TritWord::broadcast(Trit::Zero);
        let voted = majority_word(&[a, b, c]);
        assert_eq!(voted.lane(0), Trit::One, "2-of-3 ones");
        assert_eq!(voted.lane(61), Trit::Zero, "0, X, 0 votes zero");
    }

    #[test]
    fn count_exceeds_half_thresholds() {
        // 5 members, threshold > 2: exactly 3 set indicators fire.
        let full = LaneMask::FULL;
        let empty = LaneMask::EMPTY;
        let set = [full, full, full, empty, empty];
        assert_eq!(count_exceeds_half(set.iter().copied(), 5), full);
        let two = [full, full, empty, empty, empty];
        assert_eq!(count_exceeds_half(two.iter().copied(), 5), empty);
    }
}
