//! Exact fast-forwards of a repeated float add chain.
//!
//! A TCP attention layer adds the same operand sequence to each run-wide
//! accumulator once per leading channel (see
//! `StageModel::price_partition`). [`repeat`] returns what that chain
//! returns, bit for bit, while adding operands by hand only where an add
//! can round differently from its neighbours:
//!
//! * **Closed form.** If the start value and every operand are
//!   non-negative multiples of a common `2^k` and the result stays below
//!   `2^(53+k)`, every partial sum is such a multiple below that bound, so
//!   it is representable and no add rounds. The chain then equals
//!   `x0 + folds · Σ operands`, summed in any order.
//! * **Binade steps.** Inside `[2^e, 2^(e+1))` every value is a multiple
//!   of the binade's ulp `u`, so adding a non-negative `a` that is not an
//!   odd multiple of `u/2` (a tie) lands on `x + u·round(a/u)` as long as
//!   that stays below `2^(e+1)`. So each item's rep moves the value by a
//!   fixed whole number of ulps (its step, worked out once per binade),
//!   and one fold by the sum of them. Every fold that stays in the binade
//!   is taken at once. The fold that leaves it walks the items: an item
//!   whose reps all stay inside takes them at once, the item that leaves
//!   takes its whole reps that stay inside at once and adds only the rep
//!   that crosses directly, and the rest of the fold goes on with the
//!   next binade's steps. A rep that holds a tie is added directly.
//!
//! The first fold from zero or a subnormal start is added directly, and
//! negative, `-0.0` or non-finite operands or start values take the
//! plain chain.

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
    // Zero and subnormals have no binade of their own.
    while x < f64::MIN_POSITIVE {
        x = chain(x, items, reps, &op);
        left -= 1;
        if left == 0 {
            return x;
        }
    }
    let mut stack = [0; 32];
    let mut heap = Vec::new();
    let steps = if items.len() <= stack.len() {
        &mut stack[..items.len()]
    } else {
        heap.resize(items.len(), 0);
        &mut heap[..]
    };
    let mut at = Binade::default();
    if !at.enter(x, items, reps, &op, steps) {
        return x;
    }
    loop {
        if at.fold == 0 {
            return at.value();
        }
        let jump = u64::from(left).min(at.room() / at.fold);
        at.mant += jump * at.fold;
        left -= jump as u32;
        if left == 0 {
            return at.value();
        }
        // The fold that leaves the binade, or that holds a tie.
        for (i, item) in items.iter().enumerate() {
            let mut r = u64::from(reps);
            loop {
                let step = steps[i];
                let whole = step.saturating_mul(r);
                if whole <= at.room() {
                    at.mant += whole;
                    break;
                }
                // Fewer than `r` reps fit: take them, then add the rep
                // that crosses (or holds a tie) directly.
                let fit = at.room() / step;
                at.mant += fit * step;
                let mut y = at.value();
                for a in op(item) {
                    y += a;
                }
                count_adds(N as u64);
                r -= fit + 1;
                if !at.enter(y, items, reps, &op, steps) {
                    return y;
                }
                if r == 0 {
                    break;
                }
            }
        }
        left -= 1;
        if left == 0 {
            return at.value();
        }
    }
}

/// One fold of the chain, added directly (its adds counted in test
/// builds).
pub(crate) fn chain<T, const N: usize>(
    mut x: f64,
    items: &[T],
    reps: u32,
    op: &impl Fn(&T) -> [f64; N],
) -> f64 {
    count_adds((items.len() * N) as u64 * u64::from(reps));
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

/// The largest significand, `2^53 - 1`.
const TOP: u64 = (1 << 53) - 1;

/// `2^e` for `e ≥ -1074`; `+∞` past the largest binade.
fn pow2(e: i32) -> f64 {
    match e {
        1024.. => f64::INFINITY,
        -1022.. => f64::from_bits(((e + 1023) as u64) << 52),
        _ => f64::from_bits(1 << (e + 1074)),
    }
}

/// A normal value as its binade and significand, with the ulps one rep
/// of each item and one whole fold move it there.
#[derive(Default)]
struct Binade {
    /// The biased exponent (`1..0x7ff`; 0 before the first value).
    exp: u64,
    /// The significand with its implicit bit, in `[2^52, 2^53)`.
    mant: u64,
    /// One fold's ulps: every item's step times the reps, saturating.
    fold: u64,
}

impl Binade {
    /// Moves to `x`, a normal value or `+∞`, working each item's step
    /// out into `steps` when `x` is in a new binade. Returns false at
    /// `+∞`, which no later add leaves.
    fn enter<T, const N: usize>(
        &mut self,
        x: f64,
        items: &[T],
        reps: u32,
        op: &impl Fn(&T) -> [f64; N],
        steps: &mut [u64],
    ) -> bool {
        let bits = x.to_bits();
        let exp = bits >> 52;
        if exp == 0x7ff {
            return false;
        }
        self.mant = bits & FRAC | 1 << 52;
        if exp != self.exp {
            self.exp = exp;
            // `a · 2^(1076 - exp)` is `a` in half ulps, exact: a
            // power-of-two scaling is exact unless it overflows, and one
            // that underflows reads below a half ulp either way. Below
            // exponent 53 the factor is no normal double, so it goes in
            // two.
            let (lift, scale) = if exp >= 53 {
                (1.0, pow2(1076 - exp as i32))
            } else {
                (pow2(1023), pow2(53 - exp as i32))
            };
            self.fold = 0;
            for (step, item) in steps.iter_mut().zip(items) {
                *step = rep_ulps(op(item), lift, scale);
                self.fold = self
                    .fold
                    .saturating_add(step.saturating_mul(u64::from(reps)));
            }
        }
        true
    }

    /// The ulps left before the binade's top.
    fn room(&self) -> u64 {
        TOP - self.mant
    }

    fn value(&self) -> f64 {
        f64::from_bits(self.exp << 52 | (self.mant & FRAC))
    }
}

/// The whole ulps one add of each of `ops` moves a value by inside a
/// binade, given the factors that take an operand to half ulps there;
/// `u64::MAX` (no rep fits) when one of them is a tie or reaches the
/// binade's width (`2^53` ulps) alone.
fn rep_ulps<const N: usize>(ops: [f64; N], lift: f64, scale: f64) -> u64 {
    let mut ulps = 0;
    for a in ops {
        let halves = a * lift * scale;
        if halves >= 18_014_398_509_481_984.0 {
            return u64::MAX;
        }
        // Truncation: `halves` is non-negative and below 2^54.
        let n = halves as i64;
        if n & 1 == 1 && n as f64 == halves {
            return u64::MAX;
        }
        ulps += (n as u64 + 1) >> 1;
    }
    ulps
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

#[cfg(test)]
thread_local! {
    /// Float adds made directly on this thread (test builds only):
    /// [`chain`]'s, [`repeat`]'s crossing reps, and those
    /// `StageModel::price_partition` makes itself.
    pub(crate) static ADDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts `n` directly made float adds (test builds only).
#[inline(always)]
pub(crate) fn count_adds(n: u64) {
    #[cfg(test)]
    ADDS.with(|c| c.set(c.get() + n));
    #[cfg(not(test))]
    let _ = n;
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
            ADDS.set(0);
            let fast = repeat(1.0, &[[0.5, bad]], 2, 8, |ops| *ops);
            // 8 folds of one item's 2 reps of 2 operands.
            assert_eq!(ADDS.get(), 8 * 2 * 2, "{bad}");
            assert_eq!(fast.to_bits(), naive(1.0, &[[0.5, bad]], 2, 8).to_bits());
            let start = repeat(bad, &[[0.5]], 2, 8, |ops| *ops);
            assert_eq!(start.to_bits(), naive(bad, &[[0.5]], 2, 8).to_bits());
            // Beside operands that would step.
            check(1.5, &[[0.3, 0.7], [bad, 0.1]], 5, 7);
        }
        check(-0.0, &[[0.0]], 1, 3);
    }

    #[test]
    fn a_fold_is_added_directly_only_to_leave_a_binade() {
        // Dyadic operands take the closed form: no direct add.
        ADDS.set(0);
        repeat(0.0, &[[2048.5, 64.0]], 16, 32, |ops| *ops);
        assert_eq!(ADDS.get(), 0);
        // Non-dyadic ones start with one direct add from zero, then add
        // one rep per binade crossed (32 folds of ~0.1 cross 5) and every
        // rep that holds a tie: 0.1 is an odd multiple of half the ulp
        // of [0.25, 0.5), where two reps land.
        check(0.0, &[[0.1]], 1, 32);
        ADDS.set(0);
        repeat(0.0, &[[0.1]], 1, 32, |ops| *ops);
        assert_eq!(ADDS.get(), 1 + 5 + 1);
        // Only the crossing rep of the item that crosses is added: here
        // the first fold from zero (4 items · 16 reps · 2 operands), then
        // 2 operands per binade crossed.
        let items = [[0.1, 0.7], [0.3, 0.9], [1.1, 0.2], [0.6, 0.4]];
        check(0.0, &items, 16, 32);
        ADDS.set(0);
        repeat(0.0, &items, 16, 32, |ops| *ops);
        assert_eq!(ADDS.get(), 4 * 16 * 2 + 5 * 2);
    }

    #[test]
    fn steps_hold_where_the_half_ulp_factor_leaves_the_normal_range() {
        // `2^(1076 - exp)` overflows below biased exponent 53, and the
        // ulp itself is subnormal below 53.
        for exp in 49..=57 {
            let bottom = pow2(exp - 1023);
            let u = pow2(exp - 1075);
            for x in [bottom, 1.5 * bottom, 2.0 * bottom - u] {
                check(x, &[[u]], 3, 17);
                check(x, &[[0.5 * u, 3.0 * u]], 2, 9);
                check(x, &[[0.7 * u, 1.3 * u]], 16, 40);
                check(x, &[[f64::from_bits(1), f64::from_bits(12_345)]], 4, 30);
                check(x, &[[0.37 * bottom], [0.0]], 5, 33);
                check(x, &[[0.11 * bottom, u], [3.0 * u, 0.05 * bottom]], 7, 21);
            }
            // Two ulps a rep, 1,280 in all, stay in the binade: every
            // fold steps, and nothing is added directly.
            ADDS.set(0);
            repeat(bottom, &[[0.7 * u, 1.3 * u]], 16, 40, |ops| *ops);
            assert_eq!(ADDS.get(), 0, "binade {exp}");
        }
    }

    #[test]
    fn steps_hold_in_the_top_binade_and_past_it() {
        let bottom = pow2(1023);
        let u = pow2(971);
        for x in [bottom, 1.5 * bottom, f64::MAX - 1e3 * u, f64::MAX] {
            check(x, &[[u]], 3, 17);
            check(x, &[[0.5 * u], [1.5 * u]], 2, 9);
            check(x, &[[0.7 * u, 1.3 * u]], 16, 40);
            check(x, &[[1e-3 * bottom, 1e5 * u]], 8, 32);
            check(x, &[[0.3 * bottom]], 1, 4);
        }
    }

    #[test]
    fn operands_of_a_whole_binade_or_more_are_added_directly() {
        // At [1, 2) the ulp is 2^-52, so 2.0 is 2^53 ulps; 2^20 is 2^72,
        // past where a cast to i64 saturates; f64::MAX overflows the
        // scaling to +∞.
        let just_under = 2.0 - pow2(-52);
        for big in [just_under, 2.0, 3.0, pow2(20), 1e300, f64::MAX] {
            check(1.0, &[[big]], 2, 5);
            check(1.5, &[[0.3, big], [0.1, 0.2]], 3, 7);
            check(1.0, &[[0.1], [big]], 16, 3);
        }
        check(pow2(60), &[[pow2(113) + pow2(60)]], 3, 5);
    }

    #[test]
    fn half_ulp_ties_are_added_directly_beside_items_that_step() {
        // 2^-53 is half an ulp of [1, 2): each add rounds to even.
        let half = pow2(-53);
        for x in [1.0, 1.0 + 2.0 * half, 1.25, 2.0 - 2.0 * half] {
            check(x, &[[0.3], [half]], 8, 40);
            check(x, &[[half, 0.2], [0.7, 0.1]], 16, 40);
            check(x, &[[3.0 * half, 0.0], [5.0 * half, half]], 64, 12);
        }
        // A tie one binade up: 2^-52 is half an ulp of [2, 4).
        check(1.9, &[[0.05], [2.0 * half]], 16, 40);
    }

    #[test]
    fn zero_and_subnormal_operands_and_starts_step_exactly() {
        let sub = f64::from_bits(7);
        for x in [0.0, sub, f64::MIN_POSITIVE, 1.5] {
            check(x, &[[0.0, 0.3], [sub, 0.0]], 16, 40);
            check(x, &[[0.0], [0.0]], 16, 40);
            check(x, &[[sub], [f64::from_bits(1 << 40)]], 9, 40);
        }
    }

    #[test]
    fn repeat_is_bit_exact_on_random_crossing_folds() {
        let mut rng = SplitMix(4242);
        for _ in 0..2_000 {
            let len = 1 + rng.below(16) as usize;
            let reps = 1 + rng.below(64) as u32;
            let folds = 1 + rng.below(40) as u32;
            // A normal start and operands a random fraction of it, so
            // folds cross binades; some operands are ties or zero.
            let x = (1.0 + rng.below(1 << 52) as f64 / pow2(52)) * pow2(rng.below(80) as i32 - 40);
            let ulp = pow2((x.to_bits() >> 52) as i32 - 1075);
            let operand = |rng: &mut SplitMix| match rng.below(8) {
                0 => (2 * rng.below(64) + 1) as f64 * 0.5 * ulp,
                1 => 0.0,
                _ => x * (rng.next() >> 11) as f64 / pow2(53 + rng.below(12) as i32),
            };
            let pairs: Vec<[f64; 2]> = (0..len)
                .map(|_| [operand(&mut rng), operand(&mut rng)])
                .collect();
            check(x, &pairs, reps, folds);
            let singles: Vec<[f64; 1]> = pairs.iter().map(|p| [p[0]]).collect();
            check(x, &singles, reps, folds);
        }
        // More items than the steps' stack buffer holds.
        let many: Vec<[f64; 2]> = (0..40).map(|i| [0.01 * f64::from(i), 0.3]).collect();
        check(1.5, &many, 3, 20);
    }
}
