//! Exact, order-independent `SUM`/`AVG`.
//!
//! Floating-point addition is not associative, so an `f64` folded in
//! row-arrival order depends on how a bag is stored: two rows of one group
//! that trade places move a float `SUM` in its last bit, and a fold cannot
//! take a value back out. `ExactSum` keeps the exact real sum instead —
//! a fixed-point (Kulisch) accumulator spanning the whole finite `f64`
//! range in `i64` limbs — so adding and subtracting are exact, and
//! `ExactSum::finalize` is the correctly rounded `f64` of the sum in
//! whatever order the values came. [`SumAcc`] is SQL's `SUM`/`AVG` on top
//! of it: the executor's grouping and the pricing layer's incremental
//! accumulators hold the same state and finalize it with the same code.
//!
//! The rules at the edges (DESIGN.md §5.3):
//! * any NaN, or both +∞ and −∞ → NaN; otherwise any ∞ → that ∞;
//! * a finite exact sum that rounds beyond `f64::MAX` → ±∞;
//! * an exact zero → `+0.0` (also for `-0.0` inputs).

use crate::value::{lossless_f64, Value};

/// Bits per limb digit. A digit lives in an `i64`, so carries can wait:
/// each feed adds less than 2³² to a limb, and [`CARRY_EVERY`] feeds fit
/// in the 31 bits of headroom.
const DIGIT: u32 = 32;
const DIGIT_MASK: i64 = (1 << DIGIT) - 1;

/// Limbs of the whole range: the unit is 2⁻¹⁰⁷⁴ (the least subnormal) and
/// a finite `f64` reaches bit 2097, so a value spans 3 of the first 66
/// limbs, and the 67th only ever takes carries.
const LIMBS: usize = 67;

/// Feeds between carry propagations: keeps every limb below 2⁶³.
const CARRY_EVERY: u32 = 1 << 30;

/// Fixed-point position of 2⁰: an integer `x` is `x · 2¹⁰⁷⁴` units, which
/// starts at bit 18 of limb 33.
const INT_LIMB: usize = 1074 / DIGIT as usize;
const INT_SHIFT: u32 = 1074 % DIGIT;
/// Limbs an `i128` takes from [`INT_LIMB`] up, the top one taking carries.
const INT_LIMBS: usize = 6;

const FRAC_BITS: u32 = 52;
const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;
const EXP_MASK: u64 = 0x7ff;
const SIGN_BIT: u64 = 1 << 63;

/// The exact sum of a bag of `f64` and `i64` values, with subtraction.
///
/// Integers ride in an `i128` until [`ExactSum::finalize`] (any realistic
/// count of `i64`s sums exactly there), so an all-integer `AVG` allocates
/// nothing. Finite floats go into a window of the fixed-point limbs: the
/// ones the values fed so far reach, plus one on top that only takes
/// carries — a few limbs for values of similar magnitude.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    ints: i128,
    /// `Σ window[k] · 2^(32 (base + k))` units.
    window: Vec<i64>,
    base: usize,
    /// Feeds since the last carry.
    pending: u32,
    /// Non-finite values as counts, so a NaN or an ∞ can come out again.
    nan: i64,
    pos_inf: i64,
    neg_inf: i64,
}

impl ExactSum {
    pub fn add(&mut self, x: f64) {
        self.feed(x, false);
    }

    /// Takes out a value [`ExactSum::add`] put in.
    pub fn sub(&mut self, x: f64) {
        self.feed(x, true);
    }

    pub fn add_int(&mut self, x: i64) {
        self.ints += i128::from(x);
    }

    /// Takes out a value [`ExactSum::add_int`] put in.
    pub fn sub_int(&mut self, x: i64) {
        self.ints -= i128::from(x);
    }

    /// The integers' wrapping `i64` sum: the exact sum's low 64 bits.
    fn wrapping_int_sum(&self) -> i64 {
        self.ints as i64
    }

    /// Adds `x` (or subtracts it, when `negate`) exactly.
    fn feed(&mut self, x: f64, negate: bool) {
        let step = if negate { -1 } else { 1 };
        let bits = x.to_bits();
        let biased = (bits >> FRAC_BITS) & EXP_MASK;
        let frac = bits & FRAC_MASK;
        if biased == EXP_MASK {
            let count = if frac != 0 {
                &mut self.nan
            } else if bits & SIGN_BIT == 0 {
                &mut self.pos_inf
            } else {
                &mut self.neg_inf
            };
            *count += step;
            return;
        }
        // x = m · 2^(pos − 1074) units: a subnormal has exponent field 0
        // and no hidden bit, and shares the least normal's scale.
        let (m, pos) = if biased == 0 {
            (frac, 0)
        } else {
            (frac | (1 << FRAC_BITS), biased - 1)
        };
        if m == 0 {
            return;
        }
        let shifted = u128::from(m) << (pos % u64::from(DIGIT));
        let at = (pos / u64::from(DIGIT)) as usize;
        self.widen(at, at + 3);
        let sign = if (bits & SIGN_BIT != 0) != negate {
            -1
        } else {
            1
        };
        let from = at - self.base;
        let limbs = &mut self.window[from..from + 3];
        limbs[0] += sign * (shifted as i64 & DIGIT_MASK);
        limbs[1] += sign * ((shifted >> DIGIT) as i64 & DIGIT_MASK);
        limbs[2] += sign * (shifted >> (2 * DIGIT)) as i64;
        self.pending += 1;
        if self.pending == CARRY_EVERY {
            carry(&mut self.window);
            self.pending = 0;
        }
    }

    /// Grows the window to cover limbs `lo..=hi`. A new window also takes
    /// the limb below, where values up to 2³² times smaller start.
    fn widen(&mut self, lo: usize, hi: usize) {
        let len = self.window.len();
        if len == 0 {
            self.base = lo.saturating_sub(1);
        } else if lo < self.base {
            let grow = self.base - lo;
            self.window.resize(len + grow, 0);
            self.window.copy_within(..len, grow);
            self.window[..grow].fill(0);
            self.base = lo;
        }
        if hi + 1 > self.base + self.window.len() {
            self.window.resize(hi + 1 - self.base, 0);
        }
    }

    /// The correctly rounded (to nearest, ties to even) `f64` of the exact
    /// sum, under the module's NaN, ∞ and zero rules. It depends on the bag
    /// of values fed, net of those taken out, and on nothing else.
    pub fn finalize(&self) -> f64 {
        if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            return f64::NAN;
        }
        if self.pos_inf > 0 {
            return f64::INFINITY;
        }
        if self.neg_inf > 0 {
            return f64::NEG_INFINITY;
        }
        // The limbs to round, `lo..hi`: the window's, and the integers' when
        // there are any.
        let (mut lo, mut hi) = (self.base, self.base + self.window.len());
        if self.window.is_empty() {
            // Integers only: most such sums have an exact f64 twin.
            if let Some(x) = i64::try_from(self.ints).ok().and_then(lossless_f64) {
                return x;
            }
            (lo, hi) = (INT_LIMB, INT_LIMB + INT_LIMBS);
        } else if self.ints != 0 {
            (lo, hi) = (lo.min(INT_LIMB), hi.max(INT_LIMB + INT_LIMBS));
        }
        let mut buf = [0; LIMBS];
        let limbs = &mut buf[..hi - lo];
        if !self.window.is_empty() {
            limbs[self.base - lo..][..self.window.len()].copy_from_slice(&self.window);
        }
        if self.ints != 0 {
            add_int(&mut limbs[INT_LIMB - lo..], self.ints);
        }
        round(limbs, lo)
    }
}

/// Propagates carries through `limbs`: afterwards each limb but the last
/// is a digit in `[0, 2³²)`, and the last holds the rest, signed.
fn carry(limbs: &mut [i64]) {
    for k in 1..limbs.len() {
        let c = limbs[k - 1] >> DIGIT;
        limbs[k - 1] &= DIGIT_MASK;
        limbs[k] += c;
    }
}

/// Adds the integer `x` (i.e. `x · 2¹⁰⁷⁴` units) to `limbs`, which start
/// at limb [`INT_LIMB`], one digit per limb; the arithmetic shifts keep
/// every digit but the last non-negative.
fn add_int(limbs: &mut [i64], x: i128) {
    let low = DIGIT - INT_SHIFT;
    limbs[0] += ((x & ((1 << low) - 1)) as i64) << INT_SHIFT;
    let mut rest = x >> low;
    for limb in &mut limbs[1..INT_LIMBS - 1] {
        *limb += (rest & i128::from(DIGIT_MASK)) as i64;
        rest >>= DIGIT;
    }
    // 14 + 4 · 32 bits are out of the i128: what is left is its sign.
    limbs[INT_LIMBS - 1] += rest as i64;
}

/// The `f64` nearest `Σ limbs[k] · 2^(32 (base + k))` units, ties to even
/// (`limbs` is overwritten). The last limb is one no value is fed to: it only
/// takes carries and signs.
fn round(limbs: &mut [i64], base: usize) -> f64 {
    carry(limbs);
    let negative = limbs.last().is_some_and(|&top| top < 0);
    if negative {
        for limb in limbs.iter_mut() {
            *limb = -*limb;
        }
        carry(limbs);
    }
    let sign = if negative { SIGN_BIT } else { 0 };
    // The magnitude: digits, least significant first, below a top limb
    // that is non-negative and far below 2^63.
    let Some(top) = limbs.iter().rposition(|&d| d != 0) else {
        return 0.0;
    };
    let sticky = limbs[..top.saturating_sub(2)].iter().any(|&d| d != 0);
    // From here on limbs are numbered over the whole range.
    let top = base + top;
    if top == LIMBS - 1 {
        return f64::from_bits(sign | f64::INFINITY.to_bits()); // ≥ 2^1038
    }
    let digit = |k: usize| limbs.get(k.wrapping_sub(base)).map_or(0, |&d| d as u64);
    let lead = u64::BITS - digit(top).leading_zeros();
    let width = top as u32 * DIGIT + lead;
    if width <= FRAC_BITS + 1 {
        // Below 2^53 units the number is an f64 as it stands: a subnormal,
        // or the least binade, whose bit pattern is the units themselves.
        return f64::from_bits(sign | digit(1) << DIGIT | digit(0));
    }
    // The top three limbs hold the 53 kept bits and the rounding bit;
    // everything below them only matters as "nonzero".
    let window = u128::from(digit(top)) << (2 * DIGIT)
        | u128::from(digit(top.wrapping_sub(1))) << DIGIT
        | u128::from(digit(top.wrapping_sub(2)));
    let drop = 2 * DIGIT + lead - (FRAC_BITS + 1);
    let mantissa = (window >> drop) as u64;
    let rest = window & ((1 << drop) - 1);
    let half = 1 << (drop - 1);
    let up = rest > half || (rest == half && (sticky || mantissa & 1 == 1));
    // Exponent of the mantissa's last bit, in units; the biased exponent is
    // one more, which adding the hidden bit (bit 52 of `mantissa`) supplies.
    let scale = u64::from(width - (FRAC_BITS + 1));
    if scale > 2045 {
        return f64::from_bits(sign | f64::INFINITY.to_bits());
    }
    // A round-up that carries out of the mantissa bumps the exponent, and
    // out of the top binade lands exactly on ∞'s bit pattern.
    f64::from_bits(sign | ((scale << FRAC_BITS) + mantissa + u64::from(up)))
}

/// SQL `SUM`/`AVG` state over a bag of values, with removal: NULLs are
/// skipped; an all-`Int` `SUM` is their wrapping `i64` sum; any other
/// `SUM` is the `Float` nearest the exact sum of the integers and the
/// numeric views of the rest (a non-numeric value counts as 0); `AVG` is
/// that exact sum, rounded, over the count.
#[derive(Debug, Clone, Default)]
pub struct SumAcc {
    /// Non-NULL values fed, net of those taken out.
    n: i64,
    /// How many of them are not `Int`.
    non_int: i64,
    exact: ExactSum,
}

impl SumAcc {
    pub fn add(&mut self, v: &Value) {
        match v {
            Value::Null => return,
            Value::Int(x) => self.exact.add_int(*x),
            other => {
                self.non_int += 1;
                self.exact.add(other.as_f64().unwrap_or(0.0));
            }
        }
        self.n += 1;
    }

    /// Takes out a value [`SumAcc::add`] put in.
    pub fn sub(&mut self, v: &Value) {
        match v {
            Value::Null => return,
            Value::Int(x) => self.exact.sub_int(*x),
            other => {
                self.non_int -= 1;
                self.exact.sub(other.as_f64().unwrap_or(0.0));
            }
        }
        self.n -= 1;
    }

    pub fn sum(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else if self.non_int == 0 {
            Value::Int(self.exact.wrapping_int_sum())
        } else {
            Value::Float(self.exact.finalize())
        }
    }

    pub fn avg(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            // qirana-lint::allow(QL002): n counts rows, far below 2^53
            Value::Float(self.exact.finalize() / self.n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &x in xs {
            s.add(x);
        }
        s.finalize()
    }

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn known_correctly_rounded_cases() {
        assert_eq!(sum_of(&[1e308, 1e308, -1e308]), 1e308);
        assert_eq!(sum_of(&[1.0, 1e100, 1.0, -1e100]), 2.0);
        // Ten 0.1s are 1 + 5.55e-17 exactly, nearest 1.0; a left fold
        // gives 0.9999999999999999.
        assert_eq!(bits(sum_of(&[0.1; 10])), bits(1.0));
        assert_eq!(sum_of(&[0.1, 0.2]), 0.30000000000000004);
        assert_eq!(sum_of(&[1e16, 1.0, 1.0]), 1e16 + 2.0); // a left fold: 1e16
        assert_eq!(sum_of(&[-3.5, 1.25]), -2.25);
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[tiny, tiny, tiny]), f64::from_bits(3));
        assert_eq!(
            sum_of(&[f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 2.0]),
            f64::MIN_POSITIVE / 2.0
        );
        // Ties to even: 2^53 + 1 lies halfway between 2^53 and 2^53 + 2.
        let p53 = 9_007_199_254_740_992.0;
        assert_eq!(sum_of(&[p53, 1.0]), p53);
        assert_eq!(sum_of(&[p53, 1.0, tiny]), p53 + 2.0); // sticky breaks the tie
        assert_eq!(sum_of(&[p53 + 2.0, 1.0]), p53 + 4.0);
    }

    #[test]
    fn integers_are_exact_and_mix_with_floats() {
        let mut s = ExactSum::default();
        s.add_int(i64::MAX);
        s.add_int(i64::MAX);
        s.add_int(2);
        // 2^64 exactly, where an i64 wraps and a fold of f64 casts rounds.
        assert_eq!(s.finalize(), 18_446_744_073_709_551_616.0);
        // No f64 twin: 2^63 − 1 rounds, through its lowest bits, to 2^63.
        for (x, want) in [(i64::MAX, 2f64.powi(63)), (i64::MIN + 1, -(2f64.powi(63)))] {
            let mut s = ExactSum::default();
            s.add_int(x);
            assert_eq!(s.finalize(), want);
        }
        let mut s = ExactSum::default();
        s.add_int((1 << 53) + 1);
        s.add(0.5);
        s.add(0.5);
        assert_eq!(s.finalize(), 9_007_199_254_740_994.0);
        // 2^100 + 2^47 + 1: past the tie at 2^100 + 2^47 (ulp 2^48) by the
        // integer's lowest bit, in a limb below every one the float reaches.
        let mut s = ExactSum::default();
        s.add(2f64.powi(100));
        s.add_int((1 << 47) + 1);
        assert_eq!(s.finalize(), 2f64.powi(100) + 2f64.powi(48));
        let mut s = ExactSum::default();
        s.add_int(-7);
        s.add(0.25);
        assert_eq!(s.finalize(), -6.75);
        s.sub_int(-7);
        assert_eq!(s.finalize(), 0.25);
    }

    #[test]
    fn non_finite_and_zero_rules() {
        let (inf, ninf, nan) = (f64::INFINITY, f64::NEG_INFINITY, f64::NAN);
        assert!(sum_of(&[1.0, nan]).is_nan());
        assert!(sum_of(&[inf, ninf]).is_nan());
        assert!(sum_of(&[inf, nan, 3.0]).is_nan());
        assert_eq!(sum_of(&[inf, 1.0, inf]), inf);
        assert_eq!(sum_of(&[ninf, -1e308]), ninf);
        // Beyond f64::MAX, finite inputs overflow to the signed infinity…
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]), inf);
        assert_eq!(sum_of(&[f64::MIN, f64::MIN]), ninf);
        // …but not when the exact sum comes back into range.
        assert_eq!(sum_of(&[f64::MAX, f64::MAX, f64::MIN]), f64::MAX);
        // Half an ulp above MAX ties, and rounds to even: to ∞.
        let half_ulp = f64::from_bits(0x7c9 << 52); // 2^970
        assert_eq!(sum_of(&[f64::MAX, half_ulp]), inf);
        assert_eq!(sum_of(&[f64::MAX, half_ulp / 2.0]), f64::MAX);
        // Exact zeros are +0.0, however they arise.
        for xs in [
            &[][..],
            &[-0.0],
            &[-0.0, -0.0],
            &[1.5, -1.5],
            &[-1e-300, 1e-300],
        ] {
            assert_eq!(bits(sum_of(xs)), 0, "{xs:?}");
        }
        // Non-finite values come back out.
        let mut s = ExactSum::default();
        for x in [nan, inf, ninf, 2.0] {
            s.add(x);
        }
        s.sub(ninf);
        s.sub(nan);
        assert_eq!(s.finalize(), inf);
        s.sub(inf);
        assert_eq!(s.finalize(), 2.0);
    }

    #[test]
    fn the_periodic_carry_keeps_the_sum() {
        let mut limbs = [(1 << 33) + 5, -(1 << 40), 0];
        carry(&mut limbs);
        assert_eq!(limbs, [5, 2, -(1 << 8)]); // the top carries the sign

        let mut s = ExactSum::default();
        s.add(1.5);
        s.pending = CARRY_EVERY - 1;
        s.add(-2.25);
        assert_eq!(s.pending, 0);
        let (top, digits) = s.window.split_last().unwrap();
        assert!(digits.iter().all(|d| (0..1 << DIGIT).contains(d)));
        assert_eq!(*top, -1);
        assert_eq!(s.finalize(), -0.75);
    }

    #[test]
    fn the_window_grows_both_ways() {
        let mut s = ExactSum::default();
        for x in [1.0, 1e300, 1e-300, -1e300, f64::from_bits(1)] {
            s.add(x);
        }
        assert_eq!(s.base, 0);
        assert_eq!(s.window.len(), LIMBS); // 1e300 sits in limbs 63..=65
        assert_eq!(s.finalize(), 1.0);
    }

    /// Random `f64`s over the whole bit space — both signs, subnormals,
    /// magnitudes near `f64::MAX`, NaN and ∞ — plus a band of ordinary
    /// values so that cancellation and carries happen.
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            any::<u64>().prop_map(|b| f64::from_bits(b & !(0x7fe << 52))), // subnormal
            any::<u64>().prop_map(|b| f64::from_bits(b | (0x7fe << 52))),  // near ±MAX
            -1e6f64..1e6,
            any::<f64>(),
        ]
    }

    fn shuffled(xs: &[f64], seed: u64) -> Vec<f64> {
        let mut v = xs.to_vec();
        let mut rng = seed | 1;
        for i in (1..v.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            v.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn finalize_is_permutation_invariant(
            xs in prop::collection::vec(any_f64(), 0..40),
            ints in prop::collection::vec(any::<i64>(), 0..6),
            seed in any::<u64>(),
        ) {
            let mut a = ExactSum::default();
            for &x in &xs {
                a.add(x);
            }
            for &i in &ints {
                a.add_int(i);
            }
            let mut b = ExactSum::default();
            for &i in ints.iter().rev() {
                b.add_int(i);
            }
            for x in shuffled(&xs, seed) {
                b.add(x);
            }
            prop_assert_eq!(bits(a.finalize()), bits(b.finalize()));
        }

        #[test]
        fn add_then_subtract_restores_the_finalized_bits(
            base in prop::collection::vec(any_f64(), 0..30),
            extra in prop::collection::vec(any_f64(), 1..10),
            seed in any::<u64>(),
        ) {
            let mut s = ExactSum::default();
            for &x in &base {
                s.add(x);
            }
            let before = s.finalize();
            for &x in &extra {
                s.add(x);
            }
            for x in shuffled(&extra, seed) {
                s.sub(x);
            }
            prop_assert_eq!(bits(before), bits(s.finalize()));
        }

        /// IEEE addition of two doubles is itself correctly rounded, so it
        /// is a reference over the whole range — overflow included — for
        /// every pair but the zero-sign rule.
        #[test]
        fn two_values_round_like_ieee_addition(a in any_f64(), b in any_f64()) {
            let (got, want) = (sum_of(&[a, b]), a + b);
            if want.is_nan() {
                prop_assert!(got.is_nan());
            } else {
                prop_assert_eq!(bits(got), bits(if want == 0.0 { 0.0 } else { want }));
            }
        }

        #[test]
        fn a_cancelled_value_leaves_no_trace(a in any_f64(), b in any_f64()) {
            if a.is_finite() && b.is_finite() {
                prop_assert_eq!(bits(sum_of(&[b, a, -b])), bits(a + 0.0));
            }
        }

        /// Against an independent reference: multiples of 2^-20 below 2^40
        /// sum exactly in an `i128` count of 2^-20 units, which `as f64`
        /// rounds to nearest, ties to even.
        #[test]
        fn matches_an_exact_integer_reference(
            xs in prop::collection::vec(-(1i64 << 60)..(1 << 60), 0..50),
        ) {
            let floats: Vec<f64> = xs.iter().map(|&x| x as f64 / 1_048_576.0).collect();
            let units: i128 = floats.iter().map(|&f| (f * 1_048_576.0) as i128).sum();
            prop_assert_eq!(bits(sum_of(&floats)), bits(units as f64 / 1_048_576.0));
        }
    }

    #[test]
    fn sum_acc_typing() {
        let mut s = SumAcc::default();
        assert_eq!(s.sum(), Value::Null);
        assert_eq!(s.avg(), Value::Null);
        s.add(&Value::Int(i64::MAX));
        s.add(&Value::Int(1));
        s.add(&Value::Null);
        assert!(matches!(s.sum(), Value::Int(i64::MIN)), "all-Int SUM wraps");
        assert!(matches!(s.avg(), Value::Float(x) if x == 4_611_686_018_427_387_904.0));
        s.add(&Value::Float(0.5));
        // Mixed: the exact 2^63 + 0.5, rounded.
        assert!(matches!(s.sum(), Value::Float(x) if x == 9_223_372_036_854_775_808.0));
        s.sub(&Value::Float(0.5));
        assert!(matches!(s.sum(), Value::Int(i64::MIN)));
        s.sub(&Value::Int(1));
        s.sub(&Value::Int(i64::MAX));
        assert_eq!(s.sum(), Value::Null);
    }
}
