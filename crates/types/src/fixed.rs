//! Fixed-point arithmetic in the style of the Ethereum DeFi contracts the
//! paper studies.
//!
//! * [`Wad`] — unsigned, 18 decimal places. Used for token amounts, USD
//!   values, prices, ratios (health factor, collateralization ratio), and
//!   protocol parameters (liquidation threshold, spread, close factor).
//! * [`Ray`] — unsigned, 27 decimal places. Used for interest-rate indexes,
//!   where the extra precision matters when compounding per block.
//! * [`SignedWad`] — signed companion of [`Wad`], used for profit-and-loss
//!   accounting (the paper reports losses for 641 MakerDAO auctions, so PnL
//!   must be signed).
//!
//! Multiplication and division route through a minimal internal 256-bit
//! intermediate so that `a * b / WAD` never overflows for any representable
//! operands, exactly like `mulDiv` in Solidity math libraries. Almost every
//! such division is by [`WAD`] or [`RAY`], and those two divisors take
//! constant-divisor paths: multiplication by a precomputed reciprocal
//! (Möller & Granlund), with RAY = 2²⁷·5²⁷ split into a shift and a division
//! by its odd part. Every other divisor takes a Knuth-D long division. Both
//! give the exact truncated quotient and remainder.

use crate::error::TypeError;
use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use core::str::FromStr;

/// Scaling factor of a [`Wad`]: 10^18.
pub const WAD: u128 = 1_000_000_000_000_000_000;
/// Scaling factor of a [`Ray`]: 10^27.
pub const RAY: u128 = 1_000_000_000_000_000_000_000_000_000;

// ---------------------------------------------------------------------------
// 256-bit intermediate
// ---------------------------------------------------------------------------

/// A minimal unsigned 256-bit integer used only as an intermediate for
/// full-width `u128 × u128` products and their division by a `u128`.
///
/// This is intentionally not a general-purpose big integer: it supports
/// exactly the operations required by `mul_div`, which keeps it easy to audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct U256 {
    /// Low 128 bits.
    pub lo: u128,
    /// High 128 bits.
    pub hi: u128,
}

impl U256 {
    /// Full-width product of two `u128` values.
    pub(crate) fn full_mul(a: u128, b: u128) -> U256 {
        const MASK: u128 = u64::MAX as u128;
        let (a_lo, a_hi) = (a & MASK, a >> 64);
        let (b_lo, b_hi) = (b & MASK, b >> 64);

        let ll = a_lo * b_lo;
        let lh = a_lo * b_hi;
        let hl = a_hi * b_lo;
        let hh = a_hi * b_hi;

        // Sum the cross terms into the middle 128 bits, tracking carries.
        let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
        let lo = (ll & MASK) | (mid << 64);
        let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
        U256 { lo, hi }
    }

    /// Divide by a `u128` divisor, returning quotient and remainder if the
    /// quotient fits in 128 bits.
    ///
    /// This is the innermost loop of every fixed-point multiply/divide in the
    /// suite (valuations, interest indexes, claim rules). Almost every call
    /// divides by one of the two scaling constants, so those take
    /// constant-divisor paths that need no hardware division:
    ///
    /// * [`WAD`] (< 2⁶⁴): two 2-by-1 steps by the normalised divisor with a
    ///   precomputed reciprocal ([`Reciprocal`]).
    /// * [`RAY`] = 2²⁷·5²⁷: the dividend shifted right by 27 is divided by
    ///   5²⁷ (< 2⁶³) the same way, and the remainder is rebuilt as
    ///   `r·2²⁷ + (low 27 bits)`.
    ///
    /// Every other divisor (`Wad::checked_div` by a debt, ceilings by an
    /// amount) uses Knuth's Algorithm D over 64-bit limbs — a handful of
    /// hardware divisions — rather than bitwise long division. All paths
    /// return the same quotient, remainder and error for every input; a
    /// reference bitwise implementation is kept under test and each path is
    /// property-checked against it.
    pub(crate) fn div_rem_u128(self, divisor: u128) -> Result<(u128, u128), TypeError> {
        if divisor == 0 {
            return Err(TypeError::DivisionByZero);
        }
        // If hi >= divisor the quotient needs more than 128 bits.
        if self.hi >= divisor {
            return Err(TypeError::Overflow);
        }
        if divisor == WAD {
            // hi < WAD < 2^64: the cast keeps every bit.
            let (q, r) = WAD_RECIPROCAL.div_3by1(self.hi as u64, self.lo);
            return Ok((q, r as u128));
        }
        if divisor == RAY {
            // ⌊N / RAY⌋ = ⌊⌊N / 2^27⌋ / 5^27⌋. hi < RAY keeps hi >> 27 below
            // 5^27, so the shifted dividend's top limb fits and stays below
            // the odd divisor.
            let top = (self.hi >> RAY_TWOS) as u64;
            let low = (self.hi << (128 - RAY_TWOS)) | (self.lo >> RAY_TWOS);
            let (q, r) = RAY_ODD_RECIPROCAL.div_3by1(top, low);
            let low_bits = self.lo & ((1u128 << RAY_TWOS) - 1);
            return Ok((q, ((r as u128) << RAY_TWOS) | low_bits));
        }
        if self.hi == 0 {
            return Ok((self.lo / divisor, self.lo % divisor));
        }
        const MASK: u128 = u64::MAX as u128;
        if divisor <= MASK {
            // Single-limb divisor: schoolbook with native 128/64 divisions.
            // hi < divisor < 2^64 keeps every partial quotient in one limb.
            let d = divisor;
            let mut rem = self.hi; // < 2^64
            let mut quotient: u128 = 0;
            for limb in [(self.lo >> 64) & MASK, self.lo & MASK] {
                let cur = (rem << 64) | limb;
                quotient = (quotient << 64) | (cur / d);
                rem = cur % d;
            }
            return Ok((quotient, rem));
        }

        // Two-limb divisor (Knuth D, base 2^64). Normalize so the divisor's
        // top bit is set; hi < divisor guarantees the quotient fits 128 bits.
        let s = divisor.leading_zeros(); // < 64 since divisor > 2^64 - 1
        let dn = divisor << s;
        let d1 = (dn >> 64) as u64;
        let d0 = (dn & MASK) as u64;
        // Dividend shifted left by s into five limbs u[4]..u[0].
        let (lo_s, hi_s, overflow) = if s == 0 {
            (self.lo, self.hi, 0u64)
        } else {
            (
                self.lo << s,
                (self.hi << s) | (self.lo >> (128 - s)),
                (self.hi >> (128 - s)) as u64,
            )
        };
        let mut u = [
            (lo_s & MASK) as u64,
            ((lo_s >> 64) & MASK) as u64,
            (hi_s & MASK) as u64,
            ((hi_s >> 64) & MASK) as u64,
            overflow,
        ];
        let mut quotient: u128 = 0;
        for j in (0..=2).rev() {
            // Estimate the next quotient limb from the top two remainder
            // limbs against d1, then correct it with the d0 test.
            let top = ((u[j + 2] as u128) << 64) | (u[j + 1] as u128);
            let mut qhat = top / (d1 as u128);
            let mut rhat = top % (d1 as u128);
            while qhat > MASK || qhat * (d0 as u128) > ((rhat << 64) | (u[j] as u128)) {
                qhat -= 1;
                rhat += d1 as u128;
                if rhat > MASK {
                    break;
                }
            }
            // Multiply-and-subtract qhat × dn from u[j..j+3].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for (i, &d_limb) in [d0, d1].iter().enumerate() {
                let product = qhat * (d_limb as u128) + carry;
                carry = product >> 64;
                let sub = (u[j + i] as i128) - ((product & MASK) as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = (u[j + 2] as i128) - (carry as i128) + borrow;
            u[j + 2] = sub as u64;
            if sub < 0 {
                // Estimate was one too large: add the divisor back.
                qhat -= 1;
                let mut carry: u128 = 0;
                for (i, &d_limb) in [d0, d1].iter().enumerate() {
                    let sum = (u[j + i] as u128) + (d_limb as u128) + carry;
                    u[j + i] = sum as u64;
                    carry = sum >> 64;
                }
                u[j + 2] = (u[j + 2] as u128 + carry) as u64;
            }
            debug_assert!(j == 2 || qhat <= MASK);
            if j < 2 {
                quotient |= qhat << (64 * j);
            } else {
                debug_assert_eq!(qhat, 0, "quotient exceeds 128 bits");
            }
        }
        let rem = (((u[1] as u128) << 64) | (u[0] as u128)) >> s;
        Ok((quotient, rem))
    }

    pub(crate) fn div_u128(self, divisor: u128) -> Result<u128, TypeError> {
        self.div_rem_u128(divisor).map(|(q, _)| q)
    }

    /// Reference bitwise long division, kept to property-check the Knuth-D
    /// fast path against.
    #[cfg(test)]
    pub(crate) fn div_rem_u128_reference(self, divisor: u128) -> Result<(u128, u128), TypeError> {
        if divisor == 0 {
            return Err(TypeError::DivisionByZero);
        }
        if self.hi == 0 {
            return Ok((self.lo / divisor, self.lo % divisor));
        }
        if self.hi >= divisor {
            return Err(TypeError::Overflow);
        }
        let mut rem = self.hi;
        let mut quotient: u128 = 0;
        for i in (0..128).rev() {
            let top_bit_set = rem >> 127 == 1;
            rem = (rem << 1) | ((self.lo >> i) & 1);
            quotient <<= 1;
            if top_bit_set || rem >= divisor {
                rem = rem.wrapping_sub(divisor);
                quotient |= 1;
            }
        }
        Ok((quotient, rem))
    }

    pub(crate) fn is_zero(self) -> bool {
        self.lo == 0 && self.hi == 0
    }
}

/// Power of two in [`RAY`] = 2²⁷·5²⁷.
const RAY_TWOS: u32 = RAY.trailing_zeros();
/// Reciprocal of [`WAD`], the divisor of every Wad multiply.
const WAD_RECIPROCAL: Reciprocal = Reciprocal::new(WAD as u64);
/// Reciprocal of RAY's odd part 5²⁷ (< 2⁶³), the divisor of every Ray
/// multiply once the dividend is shifted right by [`RAY_TWOS`].
const RAY_ODD_RECIPROCAL: Reciprocal = Reciprocal::new((RAY >> RAY_TWOS) as u64);

/// A constant `u64` divisor prepared for division by multiplication
/// (Möller & Granlund, "Improved division by invariant integers", IEEE
/// Transactions on Computers, 2011).
#[derive(Clone, Copy)]
struct Reciprocal {
    /// The divisor shifted left until its top bit is set.
    d: u64,
    /// The normalising shift, in `1..64` (the divisor is below 2⁶³).
    shift: u32,
    /// `⌊(2¹²⁸ − 1) / d⌋ − 2⁶⁴`.
    v: u64,
}

impl Reciprocal {
    const fn new(divisor: u64) -> Reciprocal {
        let shift = divisor.leading_zeros();
        // `div_3by1` shifts bits in from the next limb by `64 - shift`.
        assert!(shift > 0 && shift < 64, "divisor must be in [1, 2^63)");
        let d = divisor << shift;
        let v = (u128::MAX / d as u128 - (1u128 << 64)) as u64;
        Reciprocal { d, shift, v }
    }

    /// Quotient and remainder of `u1·2⁶⁴ + u0` by the normalised `d`, for
    /// `u1 < d` (Algorithm 4 of the paper): two multiplies and at most two
    /// corrections. All arithmetic is modulo 2⁶⁴ or 2¹²⁸ by design.
    #[inline]
    fn div_2by1(self, u1: u64, u0: u64) -> (u64, u64) {
        let product = (self.v as u128) * (u1 as u128);
        let q = product.wrapping_add(((u1 as u128) << 64) | u0 as u128);
        let q0 = q as u64;
        let mut q1 = ((q >> 64) as u64).wrapping_add(1);
        let mut r = u0.wrapping_sub(q1.wrapping_mul(self.d));
        if r > q0 {
            q1 = q1.wrapping_sub(1);
            r = r.wrapping_add(self.d);
        }
        // Only an estimate one too small lands here. For WAD and 5^27 the
        // reciprocal's rounding error is too small for that, so this branch
        // serves other divisors only.
        if r >= self.d {
            q1 = q1.wrapping_add(1);
            r = r.wrapping_sub(self.d);
        }
        (q1, r)
    }

    /// Quotient and remainder of `top·2¹²⁸ + low` by the unnormalised
    /// divisor, for `top` below it: the quotient fits 128 bits and the
    /// remainder 64.
    #[inline]
    fn div_3by1(self, top: u64, low: u128) -> (u128, u64) {
        let s = self.shift;
        // Shift into the normalised frame; `top < divisor < 2^(64 - s)`
        // loses no bit and keeps the top limb below `d`.
        let n2 = (top << s) | (low >> (128 - s)) as u64;
        let n1 = (low >> (64 - s)) as u64;
        let n0 = (low as u64) << s;
        let (q1, r) = self.div_2by1(n2, n1);
        let (q0, r) = self.div_2by1(r, n0);
        (((q1 as u128) << 64) | q0 as u128, r >> s)
    }
}

/// `a * b / denominator` with a full 256-bit intermediate, truncating.
pub(crate) fn mul_div(a: u128, b: u128, denominator: u128) -> Result<u128, TypeError> {
    let prod = U256::full_mul(a, b);
    if prod.is_zero() {
        return Ok(0);
    }
    prod.div_u128(denominator)
}

/// `⌊a * b / denominator⌋` with a full 256-bit intermediate.
///
/// The public truncating counterpart of [`mul_div_ceil`]. Conservative bound
/// derivations (the health-factor band envelopes in `defi-lending`) need the
/// rounding direction to be explicit: a price band `[p − ⌊p·s⌋, p + ⌊p·s⌋]`
/// is always a *subset* of the real-valued band `[p(1−s), p(1+s)]`, so
/// integer rounding can only narrow a certified envelope, never widen it.
pub fn mul_div_floor(a: u128, b: u128, denominator: u128) -> Result<u128, TypeError> {
    mul_div(a, b, denominator)
}

/// `⌈a * b / denominator⌉` with a full 256-bit intermediate.
///
/// The exact ceiling counterpart of the truncating `mulDiv` the fixed-point
/// operators use. Liquidation-threshold indexes need it to turn a strict
/// "value < required" comparison into an exact critical price: with
/// `crit = ⌈required × WAD / amount⌉`, a position is below the threshold
/// *iff* the raw oracle price is strictly less than `crit`.
pub fn mul_div_ceil(a: u128, b: u128, denominator: u128) -> Result<u128, TypeError> {
    let prod = U256::full_mul(a, b);
    if prod.is_zero() {
        if denominator == 0 {
            return Err(TypeError::DivisionByZero);
        }
        return Ok(0);
    }
    let (quotient, remainder) = prod.div_rem_u128(denominator)?;
    if remainder == 0 {
        Ok(quotient)
    } else {
        quotient.checked_add(1).ok_or(TypeError::Overflow)
    }
}

// ---------------------------------------------------------------------------
// Wad
// ---------------------------------------------------------------------------

/// Unsigned fixed-point number with 18 decimal places.
///
/// `Wad::from_int(3)` is `3.0`; `Wad::from_raw(WAD / 2)` is `0.5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Wad(pub u128);

impl Wad {
    /// Zero.
    pub const ZERO: Wad = Wad(0);
    /// One (10^18 raw).
    pub const ONE: Wad = Wad(WAD);
    /// Maximum representable value.
    pub const MAX: Wad = Wad(u128::MAX);

    /// Construct from a raw 18-decimal integer representation.
    pub const fn from_raw(raw: u128) -> Self {
        Wad(raw)
    }

    /// Construct from an integer number of whole units.
    pub const fn from_int(value: u64) -> Self {
        Wad(value as u128 * WAD)
    }

    /// Construct from an `f64`. Only intended for configuration and test
    /// convenience — negative and non-finite inputs saturate to zero.
    pub fn from_f64(value: f64) -> Self {
        if !value.is_finite() || value <= 0.0 {
            return Wad::ZERO;
        }
        // Split to keep precision for large magnitudes.
        let int_part = value.trunc();
        let frac_part = value - int_part;
        let int_raw = (int_part as u128).saturating_mul(WAD);
        let frac_raw = (frac_part * WAD as f64) as u128;
        Wad(int_raw.saturating_add(frac_raw))
    }

    /// Convert to `f64` (used by the analytics layer for reporting only).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / WAD as f64
    }

    /// Raw 18-decimal representation.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Whether the value is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Wad) -> Result<Wad, TypeError> {
        self.0
            .checked_add(rhs.0)
            .map(Wad)
            .ok_or(TypeError::Overflow)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Wad) -> Result<Wad, TypeError> {
        self.0
            .checked_sub(rhs.0)
            .map(Wad)
            .ok_or(TypeError::Underflow)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Wad) -> Wad {
        Wad(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (clamps at `u128::MAX`).
    pub fn saturating_add(self, rhs: Wad) -> Wad {
        Wad(self.0.saturating_add(rhs.0))
    }

    /// Fixed-point multiplication: `self * rhs / 1e18`, truncating.
    pub fn checked_mul(self, rhs: Wad) -> Result<Wad, TypeError> {
        mul_div(self.0, rhs.0, WAD).map(Wad)
    }

    /// Fixed-point division: `self * 1e18 / rhs`, truncating.
    pub fn checked_div(self, rhs: Wad) -> Result<Wad, TypeError> {
        if rhs.0 == 0 {
            return Err(TypeError::DivisionByZero);
        }
        mul_div(self.0, WAD, rhs.0).map(Wad)
    }

    /// Divide by an integer.
    pub fn checked_div_int(self, rhs: u128) -> Result<Wad, TypeError> {
        if rhs == 0 {
            return Err(TypeError::DivisionByZero);
        }
        Ok(Wad(self.0 / rhs))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Wad) -> Wad {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `max(self, other)`.
    pub fn max(self, other: Wad) -> Wad {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Apply a percentage expressed in basis points (1 bp = 0.01 %).
    pub fn bps(self, basis_points: u32) -> Wad {
        Wad(mul_div(self.0, basis_points as u128, 10_000).unwrap_or(u128::MAX))
    }

    /// Absolute difference between two values.
    pub fn abs_diff(self, other: Wad) -> Wad {
        if self >= other {
            Wad(self.0 - other.0)
        } else {
            Wad(other.0 - self.0)
        }
    }

    /// Convert to a [`Ray`] (multiply by 10^9).
    pub fn to_ray(self) -> Result<Ray, TypeError> {
        self.0
            .checked_mul(1_000_000_000)
            .map(Ray)
            .ok_or(TypeError::Overflow)
    }
}

// Operator impls panic on overflow (debug-friendly); protocol code that must
// be robust uses the checked variants explicitly.
impl Add for Wad {
    type Output = Wad;
    fn add(self, rhs: Wad) -> Wad {
        self.checked_add(rhs).expect("Wad add overflow")
    }
}
impl AddAssign for Wad {
    fn add_assign(&mut self, rhs: Wad) {
        *self = *self + rhs;
    }
}
impl Sub for Wad {
    type Output = Wad;
    fn sub(self, rhs: Wad) -> Wad {
        self.checked_sub(rhs).expect("Wad sub underflow")
    }
}
impl SubAssign for Wad {
    fn sub_assign(&mut self, rhs: Wad) {
        *self = *self - rhs;
    }
}
impl Mul for Wad {
    type Output = Wad;
    fn mul(self, rhs: Wad) -> Wad {
        self.checked_mul(rhs).expect("Wad mul overflow")
    }
}
impl Div for Wad {
    type Output = Wad;
    fn div(self, rhs: Wad) -> Wad {
        self.checked_div(rhs).expect("Wad div error")
    }
}
impl Sum for Wad {
    fn sum<I: Iterator<Item = Wad>>(iter: I) -> Wad {
        iter.fold(Wad::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Wad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let int = self.0 / WAD;
        let frac = self.0 % WAD;
        if frac == 0 {
            write!(f, "{int}")
        } else {
            let mut frac_str = format!("{frac:018}");
            while frac_str.ends_with('0') {
                frac_str.pop();
            }
            write!(f, "{int}.{frac_str}")
        }
    }
}

impl FromStr for Wad {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (int_str, frac_str) = match s.split_once('.') {
            Some((i, fr)) => (i, fr),
            None => (s, ""),
        };
        if frac_str.len() > 18 {
            return Err(TypeError::Parse("Wad: more than 18 decimal places"));
        }
        let int: u128 = if int_str.is_empty() {
            0
        } else {
            int_str
                .parse()
                .map_err(|_| TypeError::Parse("Wad integer part"))?
        };
        let mut frac: u128 = if frac_str.is_empty() {
            0
        } else {
            frac_str
                .parse()
                .map_err(|_| TypeError::Parse("Wad fractional part"))?
        };
        for _ in 0..(18 - frac_str.len()) {
            frac *= 10;
        }
        int.checked_mul(WAD)
            .and_then(|x| x.checked_add(frac))
            .map(Wad)
            .ok_or(TypeError::Overflow)
    }
}

// ---------------------------------------------------------------------------
// Ray
// ---------------------------------------------------------------------------

/// Unsigned fixed-point number with 27 decimal places, used for interest-rate
/// indexes (the precision Aave and MakerDAO use for per-second/per-block
/// compounding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ray(pub u128);

impl Ray {
    /// Zero.
    pub const ZERO: Ray = Ray(0);
    /// One (10^27 raw).
    pub const ONE: Ray = Ray(RAY);

    /// Construct from the raw 27-decimal representation.
    pub const fn from_raw(raw: u128) -> Self {
        Ray(raw)
    }

    /// Construct from an integer number of whole units.
    pub const fn from_int(value: u64) -> Self {
        Ray(value as u128 * RAY)
    }

    /// Raw representation.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Fixed-point multiplication `self * rhs / 1e27`.
    pub fn checked_mul(self, rhs: Ray) -> Result<Ray, TypeError> {
        mul_div(self.0, rhs.0, RAY).map(Ray)
    }

    /// Fixed-point division `self * 1e27 / rhs`.
    pub fn checked_div(self, rhs: Ray) -> Result<Ray, TypeError> {
        if rhs.0 == 0 {
            return Err(TypeError::DivisionByZero);
        }
        mul_div(self.0, RAY, rhs.0).map(Ray)
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Ray) -> Result<Ray, TypeError> {
        self.0
            .checked_add(rhs.0)
            .map(Ray)
            .ok_or(TypeError::Overflow)
    }

    /// Truncate to a [`Wad`] (divide by 10^9).
    pub fn to_wad(self) -> Wad {
        Wad(self.0 / 1_000_000_000)
    }

    /// Convert to `f64` for reporting.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / RAY as f64
    }

    /// Compound interest approximation: `(1 + rate_per_period)^periods`
    /// computed by square-and-multiply on the Ray representation. `self` is
    /// the *per-period* rate (e.g. per block), not 1+rate.
    pub fn compound(self, periods: u64) -> Result<Ray, TypeError> {
        let mut base = Ray::ONE.checked_add(self)?;
        let mut exp = periods;
        let mut acc = Ray::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.checked_mul(base)?;
            }
            exp >>= 1;
            if exp > 0 {
                base = base.checked_mul(base)?;
            }
        }
        Ok(acc)
    }
}

impl fmt::Display for Ray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_wad())
    }
}

// ---------------------------------------------------------------------------
// SignedWad
// ---------------------------------------------------------------------------

/// Signed 18-decimal fixed point, used for profit-and-loss accounting.
///
/// Stored as sign + magnitude so the full unsigned range stays representable;
/// negative zero is normalised to positive zero.
#[derive(Debug, Clone, Copy)]
pub struct SignedWad {
    /// True when the value is strictly negative.
    pub negative: bool,
    /// Absolute value.
    pub magnitude: Wad,
}

impl SignedWad {
    /// Zero.
    pub const ZERO: SignedWad = SignedWad {
        negative: false,
        magnitude: Wad::ZERO,
    };

    /// A positive value.
    pub fn positive(magnitude: Wad) -> Self {
        SignedWad {
            negative: false,
            magnitude,
        }
    }

    /// A negative value (normalised: `-0` becomes `+0`).
    pub fn negative(magnitude: Wad) -> Self {
        SignedWad {
            negative: !magnitude.is_zero(),
            magnitude,
        }
    }

    /// `a - b` over unsigned operands, never panicking.
    pub fn sub_wads(a: Wad, b: Wad) -> Self {
        if a >= b {
            SignedWad::positive(a - b)
        } else {
            SignedWad::negative(b - a)
        }
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.negative && !self.magnitude.is_zero()
    }

    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.magnitude.is_zero()
    }

    /// Signed addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: SignedWad) -> SignedWad {
        match (self.negative, rhs.negative) {
            (false, false) => SignedWad::positive(self.magnitude + rhs.magnitude),
            (true, true) => SignedWad::negative(self.magnitude + rhs.magnitude),
            (false, true) => SignedWad::sub_wads(self.magnitude, rhs.magnitude),
            (true, false) => SignedWad::sub_wads(rhs.magnitude, self.magnitude),
        }
    }

    /// Signed subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: SignedWad) -> SignedWad {
        self.add(rhs.neg())
    }

    /// Convert to `f64` (negative values map to negative floats).
    pub fn to_f64(self) -> f64 {
        let v = self.magnitude.to_f64();
        if self.is_negative() {
            -v
        } else {
            v
        }
    }
}

impl Neg for SignedWad {
    type Output = SignedWad;
    fn neg(self) -> SignedWad {
        if self.magnitude.is_zero() {
            SignedWad::ZERO
        } else {
            SignedWad {
                negative: !self.negative,
                magnitude: self.magnitude,
            }
        }
    }
}

impl PartialEq for SignedWad {
    fn eq(&self, other: &Self) -> bool {
        if self.magnitude.is_zero() && other.magnitude.is_zero() {
            return true;
        }
        self.negative == other.negative && self.magnitude == other.magnitude
    }
}
impl Eq for SignedWad {}

impl PartialOrd for SignedWad {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SignedWad {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_negative(), other.is_negative()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.magnitude.cmp(&other.magnitude),
            (true, true) => other.magnitude.cmp(&self.magnitude),
        }
    }
}

impl Default for SignedWad {
    fn default() -> Self {
        SignedWad::ZERO
    }
}

impl Sum for SignedWad {
    fn sum<I: Iterator<Item = SignedWad>>(iter: I) -> SignedWad {
        iter.fold(SignedWad::ZERO, |acc, x| acc.add(x))
    }
}

impl fmt::Display for SignedWad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-{}", self.magnitude)
        } else {
            write!(f, "{}", self.magnitude)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mul_small() {
        let p = U256::full_mul(6, 7);
        assert_eq!(p.lo, 42);
        assert_eq!(p.hi, 0);
    }

    #[test]
    fn mul_div_ceil_rounds_up_exactly_when_inexact() {
        assert_eq!(mul_div_ceil(7, 3, 2).unwrap(), 11); // 21/2 = 10.5 → 11
        assert_eq!(mul_div_ceil(6, 3, 2).unwrap(), 9); // exact → no bump
        assert_eq!(mul_div_ceil(0, 3, 2).unwrap(), 0);
        assert!(mul_div_ceil(1, 1, 0).is_err());
        assert!(mul_div_ceil(0, 0, 0).is_err());
        // A 256-bit intermediate that divides back into range.
        let big = u128::MAX / 2;
        assert_eq!(mul_div_ceil(big, 4, 4).unwrap(), big);
        // Remainder propagates through the wide path too.
        assert_eq!(mul_div_ceil(u128::MAX, 3, 7).unwrap(), {
            let (q, r) = U256::full_mul(u128::MAX, 3).div_rem_u128(7).unwrap();
            assert!(r > 0);
            q + 1
        });
        // Quotients beyond 128 bits overflow as errors, not wraps.
        assert!(mul_div_ceil(u128::MAX, u128::MAX, 1).is_err());
    }

    #[test]
    fn div_rem_matches_native_division_on_narrow_values() {
        for (a, b) in [(12_345u128, 7u128), (1, 1), (u128::MAX, u128::MAX)] {
            let (q, r) = U256::full_mul(a, 1).div_rem_u128(b).unwrap();
            assert_eq!((q, r), (a / b, a % b));
        }
    }

    /// The Knuth-D fast division must agree with the bitwise reference on a
    /// large deterministic sample of wide operands (both divisor classes:
    /// single-limb and two-limb), including the boundary shapes that trip
    /// naive implementations.
    #[test]
    fn knuth_division_matches_bitwise_reference() {
        // xorshift128+ keeps the sample deterministic without rand.
        let mut state = (0x9e3779b97f4a7c15u64, 0xbf58476d1ce4e5b9u64);
        let mut next = move || {
            let (mut x, y) = state;
            x ^= x << 23;
            x ^= x >> 17;
            x ^= y ^ (y >> 26);
            state = (y, x);
            x.wrapping_add(y)
        };
        let mut next_u128 = move || ((next() as u128) << 64) | next() as u128;
        let mut checked = 0u32;
        for i in 0..20_000 {
            let a = next_u128();
            let b = next_u128();
            // Vary magnitudes so every branch is exercised.
            let a = a >> (i % 5 * 25);
            let b = b >> (i % 7 * 18);
            let divisor = match i % 4 {
                0 => WAD,
                1 => RAY,
                2 => (b >> 64).max(1),
                _ => b.max(1),
            };
            let value = U256::full_mul(a, b.max(1));
            let fast = value.div_rem_u128(divisor);
            let reference = value.div_rem_u128_reference(divisor);
            match (fast, reference) {
                (Ok(f), Ok(r)) => {
                    assert_eq!(f, r, "a={a} b={b} divisor={divisor}");
                    checked += 1;
                }
                (Err(_), Err(_)) => {}
                (f, r) => {
                    panic!("divergent outcomes for a={a} b={b} divisor={divisor}: {f:?} vs {r:?}")
                }
            }
        }
        assert!(checked > 5_000, "sample too thin: {checked}");
        // Hand-picked boundary shapes.
        for (value, divisor) in [
            (U256 { hi: 1, lo: 0 }, 2u128),
            (
                U256 {
                    hi: 1,
                    lo: u128::MAX,
                },
                2,
            ),
            (
                U256 {
                    hi: u128::MAX - 1,
                    lo: u128::MAX,
                },
                u128::MAX,
            ),
            (
                U256 {
                    hi: 0,
                    lo: u128::MAX,
                },
                1,
            ),
            (U256 { hi: 5, lo: 0 }, (1u128 << 64) + 1),
            (U256 { hi: 5, lo: 12_345 }, 6u128 << 64),
            (
                U256 {
                    hi: 1 << 63,
                    lo: 42,
                },
                (1u128 << 127) + 99,
            ),
        ] {
            assert_eq!(
                value.div_rem_u128(divisor).unwrap(),
                value.div_rem_u128_reference(divisor).unwrap(),
                "hi={} lo={} divisor={divisor}",
                value.hi,
                value.lo,
            );
        }
    }

    /// The reciprocal paths for WAD and RAY agree with the bitwise reference
    /// on every shape of dividend the quotient can fit: a uniform sample of
    /// `hi` below the divisor with full-range `lo`, and the boundaries.
    #[test]
    fn constant_divisor_paths_match_bitwise_reference() {
        assert_eq!(RAY, 5u128.pow(27) << 27);
        for (reciprocal, divisor) in [(WAD_RECIPROCAL, WAD), (RAY_ODD_RECIPROCAL, RAY >> 27)] {
            // d is the divisor normalised to its top bit, and v is
            // ⌊(2^128 − 1) / d⌋ − 2^64: (2^64 + v)·d fits 128 bits and
            // (2^64 + v + 1)·d does not.
            assert_eq!(reciprocal.d as u128, divisor << reciprocal.shift);
            assert_eq!(reciprocal.d >> 63, 1);
            let v = (1u128 << 64) + reciprocal.v as u128;
            assert_eq!(U256::full_mul(v, reciprocal.d as u128).hi, 0);
            assert_eq!(U256::full_mul(v + 1, reciprocal.d as u128).hi, 1);
        }

        let mut state = (0x2545f4914f6cdd1du64, 0x9e3779b97f4a7c15u64);
        let mut next = move || {
            let (mut x, y) = state;
            x ^= x << 23;
            x ^= x >> 17;
            x ^= y ^ (y >> 26);
            state = (y, x);
            x.wrapping_add(y)
        };
        let mut next_u128 = move || ((next() as u128) << 64) | next() as u128;
        let check = |value: U256, divisor: u128| {
            assert_eq!(
                value.div_rem_u128(divisor),
                value.div_rem_u128_reference(divisor),
                "hi={} lo={} divisor={divisor}",
                value.hi,
                value.lo,
            );
        };
        for divisor in [WAD, RAY] {
            for _ in 0..100_000 {
                let hi = next_u128() % divisor;
                check(
                    U256 {
                        hi,
                        lo: next_u128(),
                    },
                    divisor,
                );
            }
            check(
                U256 {
                    hi: divisor - 1,
                    lo: u128::MAX,
                },
                divisor,
            );
            for lo in [0, 1, divisor - 1, divisor, divisor + 1, u128::MAX] {
                check(U256 { hi: 0, lo }, divisor);
            }
            // Exact multiples k·d and their neighbours k·d ± 1.
            for k in [1, 2, 3, divisor - 1, divisor, u128::MAX / 3, u128::MAX] {
                let exact = U256::full_mul(k, divisor);
                let (lo, carry) = exact.lo.overflowing_add(1);
                check(exact, divisor);
                check(
                    U256 {
                        hi: exact.hi + carry as u128,
                        lo,
                    },
                    divisor,
                );
                let (lo, borrow) = exact.lo.overflowing_sub(1);
                check(
                    U256 {
                        hi: exact.hi - borrow as u128,
                        lo,
                    },
                    divisor,
                );
            }
            // A quotient beyond 128 bits overflows on both paths.
            for lo in [0, u128::MAX] {
                let value = U256 { hi: divisor, lo };
                assert_eq!(value.div_rem_u128(divisor), Err(TypeError::Overflow));
                check(value, divisor);
            }
            check(U256 { hi: 0, lo: 0 }, divisor);
            assert_eq!(mul_div(0, u128::MAX, divisor), Ok(0));
        }
    }

    #[test]
    fn full_mul_large() {
        // (2^127) * 4 = 2^129 → hi = 2, lo = 0
        let p = U256::full_mul(1u128 << 127, 4);
        assert_eq!(p.hi, 2);
        assert_eq!(p.lo, 0);
    }

    #[test]
    fn div_roundtrip() {
        let a = 123_456_789_u128 * WAD;
        let b = 987_654_321_u128 * WAD;
        let prod = U256::full_mul(a, b);
        let q = prod.div_u128(b).unwrap();
        assert_eq!(q, a);
    }

    #[test]
    fn div_by_zero_rejected() {
        assert_eq!(
            U256::full_mul(1, 1).div_u128(0),
            Err(TypeError::DivisionByZero)
        );
    }

    #[test]
    fn div_overflowing_quotient_rejected() {
        let p = U256::full_mul(u128::MAX, u128::MAX);
        assert_eq!(p.div_u128(1), Err(TypeError::Overflow));
    }

    #[test]
    fn wad_mul_basic() {
        let a = Wad::from_int(3);
        let b = Wad::from_str("1.5").unwrap();
        assert_eq!(a.checked_mul(b).unwrap(), Wad::from_str("4.5").unwrap());
    }

    #[test]
    fn wad_div_basic() {
        let a = Wad::from_int(1);
        let b = Wad::from_int(3);
        let third = a.checked_div(b).unwrap();
        // 0.333... truncated
        assert_eq!(third.raw(), WAD / 3);
    }

    #[test]
    fn wad_display_and_parse() {
        let w = Wad::from_str("3500.25").unwrap();
        assert_eq!(w.to_string(), "3500.25");
        assert_eq!(Wad::from_str(&w.to_string()).unwrap(), w);
        assert_eq!(Wad::from_int(7).to_string(), "7");
    }

    #[test]
    fn wad_parse_rejects_excess_precision() {
        assert!(Wad::from_str("1.0000000000000000001").is_err());
    }

    #[test]
    fn wad_from_f64_roundtrip_close() {
        let w = Wad::from_f64(3321.75);
        assert!((w.to_f64() - 3321.75).abs() < 1e-9);
        assert_eq!(Wad::from_f64(-1.0), Wad::ZERO);
        assert_eq!(Wad::from_f64(f64::NAN), Wad::ZERO);
    }

    #[test]
    fn wad_bps() {
        let v = Wad::from_int(10_000);
        assert_eq!(v.bps(50), Wad::from_int(50)); // 0.5%
        assert_eq!(v.bps(10_000), v); // 100%
    }

    #[test]
    fn ray_compound_zero_rate() {
        assert_eq!(Ray::ZERO.compound(1000).unwrap(), Ray::ONE);
    }

    #[test]
    fn ray_compound_matches_naive() {
        // 0.1% per period over 10 periods.
        let rate = Ray::from_raw(RAY / 1000);
        let fast = rate.compound(10).unwrap();
        let mut naive = Ray::ONE;
        for _ in 0..10 {
            naive = naive
                .checked_mul(Ray::ONE.checked_add(rate).unwrap())
                .unwrap();
        }
        assert_eq!(fast, naive);
    }

    #[test]
    fn signed_wad_arithmetic() {
        let five = SignedWad::positive(Wad::from_int(5));
        let eight = SignedWad::positive(Wad::from_int(8));
        let diff = five.sub(eight);
        assert!(diff.is_negative());
        assert_eq!(diff.magnitude, Wad::from_int(3));
        assert_eq!(diff.add(eight), five);
        assert_eq!(
            SignedWad::sub_wads(Wad::from_int(2), Wad::from_int(2)),
            SignedWad::ZERO
        );
    }

    #[test]
    fn signed_wad_ordering() {
        let neg = SignedWad::negative(Wad::from_int(1));
        let pos = SignedWad::positive(Wad::from_int(1));
        assert!(neg < SignedWad::ZERO);
        assert!(SignedWad::ZERO < pos);
        assert!(SignedWad::negative(Wad::from_int(5)) < SignedWad::negative(Wad::from_int(1)));
    }

    #[test]
    fn wad_saturating() {
        assert_eq!(Wad::from_int(1).saturating_sub(Wad::from_int(2)), Wad::ZERO);
        assert_eq!(Wad::MAX.saturating_add(Wad::ONE), Wad::MAX);
    }
}
