//! Exact fast-forwards of a repeated float add chain.
//!
//! A TCP attention layer adds the same operand sequence to each run-wide
//! accumulator once per leading channel (see
//! `StageModel::price_partition`). [`repeat`] returns what that chain
//! returns, bit for bit, while folding a whole channel by hand only where
//! an add can round differently from its neighbours:
//!
//! * **Closed form.** If the start value and every operand are
//!   non-negative multiples of a common `2^k` and the result stays below
//!   `2^(53+k)`, every partial sum is such a multiple below that bound, so
//!   it is representable and no add rounds. The chain then equals
//!   `x0 + folds · Σ operands`, summed in any order.
//! * **Binade jumps.** Inside `[2^e, 2^(e+1))` every value is a multiple
//!   of the binade's ulp `u`, so adding a non-negative `a` that is not an
//!   odd multiple of `u/2` (a tie) lands on `x + u·round(a/u)` as long as
//!   that stays below `2^(e+1)`. One fold then moves the value by a fixed
//!   whole number of ulps, and every fold that stays in the binade is
//!   taken at once. A fold that would leave the binade, or that holds a
//!   tie, is added directly.
//!
//! Negative, `-0.0` or non-finite operands or start values take the plain
//! chain.

/// Adds `op(item)` for each item, each item `reps` times over, to `x`
/// once per fold, `folds` times: bit-exact with
///
/// ```text
/// for _ in 0..folds { for item in items { for _ in 0..reps { for a in op(item) { x += a } } } }
/// ```
pub(crate) fn repeat<T, const N: usize>(
    x: f64,
    items: &[T],
    reps: u32,
    folds: u32,
    op: impl Fn(&T) -> [f64; N],
) -> f64 {
    let Some(k) = common_power(x, items, &op) else {
        return (0..folds).fold(x, |x, _| chain(x, items, reps, &op));
    };
    if k == i32::MAX || folds == 0 {
        // Every operand is zero, so no fold moves a non-negative `x`.
        return x;
    }
    let mut per = 0.0;
    for item in items {
        let sum = op(item).iter().fold(0.0, |s, a| s + a);
        per += f64::from(reps) * sum;
    }
    // Each partial product and sum here is either exact or already at
    // least the bound, so a total below it is the exact one.
    let total = x + f64::from(folds) * per;
    if total < pow2(53 + k) {
        return total;
    }
    let mut x = x;
    let mut left = folds;
    while left > 0 {
        let bits = x.to_bits();
        let exp = bits >> 52;
        // Jump only from a normal value: zero and subnormals have no
        // binade of their own, and an infinity stays put under a fold.
        if (1..0x7ff).contains(&exp) {
            if let Some(step) = fold_ulps(items, reps, &op, pow2(exp as i32 - 1075)) {
                if step == 0 {
                    return x;
                }
                let mant = bits & FRAC | 1 << 52;
                let jump = u64::from(left).min(((1 << 53) - 1 - mant) / step);
                x = f64::from_bits(exp << 52 | ((mant + jump * step) & FRAC));
                left -= jump as u32;
                if left == 0 {
                    break;
                }
            }
        }
        x = chain(x, items, reps, &op);
        left -= 1;
    }
    x
}

/// One fold of the chain, added directly (counted in test builds).
pub(crate) fn chain<T, const N: usize>(
    mut x: f64,
    items: &[T],
    reps: u32,
    op: &impl Fn(&T) -> [f64; N],
) -> f64 {
    count_fold();
    for item in items {
        let ops = op(item);
        for _ in 0..reps {
            for a in ops {
                x += a;
            }
        }
    }
    x
}

/// The fraction bits of an `f64`.
const FRAC: u64 = (1 << 52) - 1;

/// `2^e` for `e ≥ -1074`; `+∞` past the largest binade.
fn pow2(e: i32) -> f64 {
    match e {
        1024.. => f64::INFINITY,
        -1022.. => f64::from_bits(((e + 1023) as u64) << 52),
        _ => f64::from_bits(1 << (e + 1074)),
    }
}

/// The largest `k` with `x` and every operand a multiple of `2^k`
/// (`i32::MAX` when all are zero), or `None` when one of them is
/// negative, `-0.0` or not finite.
fn common_power<T, const N: usize>(
    x: f64,
    items: &[T],
    op: &impl Fn(&T) -> [f64; N],
) -> Option<i32> {
    let mut k = low_bit(x)?;
    for item in items {
        for a in op(item) {
            k = k.min(low_bit(a)?);
        }
    }
    Some(k)
}

/// The exponent of `x`'s lowest set bit (`i32::MAX` for `+0.0`), or
/// `None` when `x` is negative, `-0.0` or not finite.
fn low_bit(x: f64) -> Option<i32> {
    if x.is_sign_negative() || !x.is_finite() {
        return None;
    }
    let bits = x.to_bits();
    let exp = (bits >> 52) as i32;
    let (mant, scale) = if exp == 0 {
        (bits & FRAC, -1074)
    } else {
        (bits & FRAC | 1 << 52, exp - 1075)
    };
    Some(if mant == 0 {
        i32::MAX
    } else {
        scale + mant.trailing_zeros() as i32
    })
}

/// The whole ulps `u` one fold adds to a value in the binade whose ulp
/// is `u`, if no operand is a tie at `u` and no single operand reaches
/// the binade's width (`2^53` ulps).
fn fold_ulps<T, const N: usize>(
    items: &[T],
    reps: u32,
    op: &impl Fn(&T) -> [f64; N],
    u: f64,
) -> Option<u64> {
    let mut ulps: u64 = 0;
    for item in items {
        let mut per = 0;
        for a in op(item) {
            // Exact: `u` is a power of two and `a / u` is either below
            // 2^53 (a normal value, or a subnormal far below a half) or
            // rejected.
            let n = a / u;
            if n >= 9_007_199_254_740_992.0 || n.fract() == 0.5 {
                return None;
            }
            per += n.round() as u64;
        }
        ulps = ulps.checked_add(per.checked_mul(u64::from(reps))?)?;
    }
    Some(ulps)
}

#[cfg(test)]
thread_local! {
    /// Channel folds added directly on this thread (test builds only):
    /// [`chain`]'s, and those `StageModel::price_partition` adds itself.
    pub(crate) static FOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one directly added channel fold (test builds only).
#[inline(always)]
pub(crate) fn count_fold() {
    #[cfg(test)]
    FOLDS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chain [`repeat`] fast-forwards, one add at a time.
    fn naive<const N: usize>(mut x: f64, items: &[[f64; N]], reps: u32, folds: u32) -> f64 {
        for _ in 0..folds {
            for ops in items {
                for _ in 0..reps {
                    for &a in ops {
                        x += a;
                    }
                }
            }
        }
        x
    }

    fn check<const N: usize>(x: f64, items: &[[f64; N]], reps: u32, folds: u32) {
        let fast = repeat(x, items, reps, folds, |ops| *ops);
        let slow = naive(x, items, reps, folds);
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "x={x:e} items={items:?} reps={reps} folds={folds}: {fast:e} vs {slow:e}"
        );
    }

    /// A seeded SplitMix64 stream.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// An operand of one of the shapes that steer [`repeat`]'s
        /// paths: a small dyadic (closed form), an affine-fit-like
        /// non-dyadic value, a half-ulp tie at a nearby binade, zero, a
        /// subnormal, or any positive double.
        fn operand(&mut self) -> f64 {
            match self.below(7) {
                0 => self.below(1 << 12) as f64 / f64::from(1 << self.below(8)),
                1 => 3.0 + self.below(1 << 20) as f64 / 7.0,
                2 => (2 * self.below(8) + 1) as f64 * pow2(self.below(24) as i32 - 60),
                3 => 0.0,
                4 => f64::from_bits(self.below(1 << 20)),
                5 => 1e300 * (1.0 + self.below(100) as f64),
                _ => f64::from_bits(self.next() >> 2),
            }
        }
    }

    #[test]
    fn repeat_is_bit_exact_with_the_chain_on_random_folds() {
        let mut rng = SplitMix(2026);
        for _ in 0..20_000 {
            let len = 1 + rng.below(4) as usize;
            let reps = 1 + rng.below(16) as u32;
            let folds = rng.below(40) as u32;
            let x = match rng.below(4) {
                0 => 0.0,
                1 => f64::from_bits(rng.below(1 << 30)),
                _ => rng.operand(),
            };
            let pairs: Vec<[f64; 2]> = (0..len).map(|_| [rng.operand(), rng.operand()]).collect();
            check(x, &pairs, reps, folds);
            let singles: Vec<[f64; 1]> = pairs.iter().map(|p| [p[0]]).collect();
            check(x, &singles, reps, folds);
        }
    }

    #[test]
    fn repeat_is_bit_exact_at_ties_and_binade_edges() {
        // Half an ulp of 1.0 is 2^-53: a tie at every value of [1, 2),
        // rounding to even, so whether it moves `x` depends on `x`.
        let half = pow2(-53);
        for x in [1.0, 1.0 + 2.0 * half, 2.0 - 2.0 * half] {
            check(x, &[[half]], 1, 32);
            check(x, &[[half, 3.0 * half]], 3, 32);
        }
        // Just under a binade boundary, and operands that cross it
        // inside a fold or land on it exactly.
        let below = 2.0 - 2.0 * half;
        check(below, &[[2.0 * half]], 1, 5);
        check(below, &[[0.7]], 2, 9);
        check(1.5, &[[0.25]], 2, 9);
        // Zero and subnormal starts.
        check(0.0, &[[0.1, 0.2]], 16, 32);
        check(f64::from_bits(1), &[[f64::from_bits(3)]], 5, 31);
        check(f64::MIN_POSITIVE, &[[0.3 * f64::MIN_POSITIVE]], 7, 31);
        // Up to the largest binade and past it into infinity.
        check(f64::MAX / 4.0, &[[f64::MAX / 64.0]], 3, 32);
        check(1e308, &[[1e307]], 1, 32);
    }

    #[test]
    fn closed_form_holds_up_to_the_exactness_bound() {
        // Integers (k = 0) add exactly below 2^53, so a chain ending at
        // 2^53 - 1 is closed form. Past it, adding 1.0 is a tie that
        // rounds to even and stalls at 2^53, where `x0 + Σ` would read
        // 2^53 + 4: the binade path must take it.
        let top = pow2(53);
        check(top - 9.0, &[[1.0]], 8, 1);
        check(top - 4.0, &[[1.0]], 8, 1);
        assert_eq!(repeat(top - 4.0, &[[1.0]], 8, 1, |ops| *ops), top);
        check(top - 33.0, &[[1.0]], 8, 4);
        check(top - 40.0, &[[1.0, 2.0]], 2, 8);
        // At k = -1 (halves) the bound is 2^52.
        check(pow2(52) - 4.5, &[[0.5]], 8, 1);
        check(pow2(52) - 2.5, &[[0.5]], 8, 1);
        assert_eq!(repeat(pow2(52) - 2.5, &[[0.5]], 8, 1, |ops| *ops), pow2(52));
    }

    #[test]
    fn negative_and_non_finite_operands_take_the_chain() {
        for bad in [-1.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            FOLDS.set(0);
            let fast = repeat(1.0, &[[0.5, bad]], 2, 8, |ops| *ops);
            assert_eq!(FOLDS.get(), 8, "{bad}");
            assert_eq!(fast.to_bits(), naive(1.0, &[[0.5, bad]], 2, 8).to_bits());
            let start = repeat(bad, &[[0.5]], 2, 8, |ops| *ops);
            assert_eq!(start.to_bits(), naive(bad, &[[0.5]], 2, 8).to_bits());
        }
        check(-0.0, &[[0.0]], 1, 3);
    }

    #[test]
    fn a_fold_is_added_directly_only_to_leave_a_binade() {
        // Dyadic operands take the closed form: no direct fold.
        FOLDS.set(0);
        repeat(0.0, &[[2048.5, 64.0]], 16, 32, |ops| *ops);
        assert_eq!(FOLDS.get(), 0);
        // Non-dyadic ones start with one direct fold from zero, then add
        // one per binade crossed (32 folds of ~0.1 cross 5) and one per
        // fold that holds a tie: 0.1 is an odd multiple of half the ulp
        // of [0.25, 0.5).
        check(0.0, &[[0.1]], 1, 32);
        FOLDS.set(0);
        repeat(0.0, &[[0.1]], 1, 32, |ops| *ops);
        assert_eq!(FOLDS.get(), 1 + 5 + 1);
    }
}
