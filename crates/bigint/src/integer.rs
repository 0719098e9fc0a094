//! Signed arbitrary-precision integers on top of [`Natural`].

use crate::natural::Natural;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Sign of an [`Integer`]. Zero always carries [`Sign::Zero`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// A signed arbitrary-precision integer.
///
/// Invariant: `magnitude.is_zero()` if and only if `sign == Sign::Zero`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Integer {
    sign: Sign,
    magnitude: Natural,
}

impl Integer {
    /// The value 0.
    pub fn zero() -> Self {
        Integer {
            sign: Sign::Zero,
            magnitude: Natural::zero(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        Integer {
            sign: Sign::Positive,
            magnitude: Natural::one(),
        }
    }

    /// Builds from a sign and a magnitude (normalizing the sign of zero).
    pub fn from_sign_magnitude(sign: Sign, magnitude: Natural) -> Self {
        if magnitude.is_zero() {
            Integer::zero()
        } else {
            assert!(sign != Sign::Zero, "nonzero magnitude with Sign::Zero");
            Integer { sign, magnitude }
        }
    }

    /// This integer's sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Absolute value as a [`Natural`].
    pub fn magnitude(&self) -> &Natural {
        &self.magnitude
    }

    /// Consumes self, returning the magnitude.
    pub fn into_magnitude(self) -> Natural {
        self.magnitude
    }

    /// Whether this is 0.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Whether this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Absolute value.
    pub fn abs(&self) -> Integer {
        Integer::from_sign_magnitude(
            if self.is_zero() {
                Sign::Zero
            } else {
                Sign::Positive
            },
            self.magnitude.clone(),
        )
    }

    /// Truncating division with remainder; the remainder has the sign of
    /// `self` (C-style). Panics if `other` is zero.
    pub fn div_rem(&self, other: &Integer) -> (Integer, Integer) {
        assert!(!other.is_zero(), "division by zero Integer");
        let (qm, rm) = self.magnitude.div_rem(&other.magnitude);
        let qsign = match (self.sign, other.sign) {
            (Sign::Zero, _) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        (
            Integer::from_sign_magnitude(if qm.is_zero() { Sign::Zero } else { qsign }, qm),
            Integer::from_sign_magnitude(if rm.is_zero() { Sign::Zero } else { self.sign }, rm),
        )
    }

    /// Exact division: panics if `other` does not divide `self` exactly.
    pub fn div_exact(&self, other: &Integer) -> Integer {
        let (q, r) = self.div_rem(other);
        assert!(r.is_zero(), "div_exact with nonzero remainder");
        q
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &Integer) -> Natural {
        self.magnitude.gcd(&other.magnitude)
    }

    /// Raises to the power `exp`.
    pub fn pow(&self, exp: u32) -> Integer {
        let mag = self.magnitude.pow(exp);
        let sign = match self.sign {
            Sign::Zero => {
                if exp == 0 {
                    Sign::Positive
                } else {
                    Sign::Zero
                }
            }
            Sign::Positive => Sign::Positive,
            Sign::Negative => {
                if exp % 2 == 0 {
                    Sign::Positive
                } else {
                    Sign::Negative
                }
            }
        };
        let mag = if exp == 0 { Natural::one() } else { mag };
        Integer::from_sign_magnitude(sign, mag)
    }

    /// Converts to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.magnitude.to_u128()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(m).ok(),
            Sign::Negative => {
                if m <= i64::MAX as u128 + 1 {
                    Some((m as i128).wrapping_neg() as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Converts to `f64` (approximately, for reporting only).
    pub fn to_f64(&self) -> f64 {
        let m = self.magnitude.to_f64();
        match self.sign {
            Sign::Negative => -m,
            _ => m,
        }
    }
}

impl From<Natural> for Integer {
    fn from(n: Natural) -> Self {
        let sign = if n.is_zero() {
            Sign::Zero
        } else {
            Sign::Positive
        };
        Integer { sign, magnitude: n }
    }
}

impl From<i64> for Integer {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => Integer::zero(),
            Ordering::Greater => {
                Integer::from_sign_magnitude(Sign::Positive, Natural::from(v as u64))
            }
            Ordering::Less => {
                Integer::from_sign_magnitude(Sign::Negative, Natural::from(v.unsigned_abs()))
            }
        }
    }
}

impl From<u64> for Integer {
    fn from(v: u64) -> Self {
        Integer::from(Natural::from(v))
    }
}

impl From<i32> for Integer {
    fn from(v: i32) -> Self {
        Integer::from(v as i64)
    }
}

impl Ord for Integer {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => other.magnitude.cmp(&self.magnitude),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => self.magnitude.cmp(&other.magnitude),
            (Positive, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Integer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for Integer {
    type Output = Integer;
    fn neg(self) -> Integer {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        Integer {
            sign,
            magnitude: self.magnitude,
        }
    }
}

impl Neg for &Integer {
    type Output = Integer;
    fn neg(self) -> Integer {
        -self.clone()
    }
}

impl Add<&Integer> for &Integer {
    type Output = Integer;
    fn add(self, rhs: &Integer) -> Integer {
        use Sign::*;
        match (self.sign, rhs.sign) {
            (Zero, _) => rhs.clone(),
            (_, Zero) => self.clone(),
            (a, b) if a == b => Integer::from_sign_magnitude(a, &self.magnitude + &rhs.magnitude),
            _ => match self.magnitude.cmp(&rhs.magnitude) {
                Ordering::Equal => Integer::zero(),
                Ordering::Greater => Integer::from_sign_magnitude(
                    self.sign,
                    self.magnitude.checked_sub(&rhs.magnitude).unwrap(),
                ),
                Ordering::Less => Integer::from_sign_magnitude(
                    rhs.sign,
                    rhs.magnitude.checked_sub(&self.magnitude).unwrap(),
                ),
            },
        }
    }
}

impl Add for Integer {
    type Output = Integer;
    fn add(self, rhs: Integer) -> Integer {
        (&self).add(&rhs)
    }
}

impl AddAssign<&Integer> for Integer {
    fn add_assign(&mut self, rhs: &Integer) {
        *self = (&*self).add(rhs);
    }
}

impl Sub<&Integer> for &Integer {
    type Output = Integer;
    fn sub(self, rhs: &Integer) -> Integer {
        self.add(&(-rhs))
    }
}

impl Sub for Integer {
    type Output = Integer;
    fn sub(self, rhs: Integer) -> Integer {
        (&self).sub(&rhs)
    }
}

impl SubAssign<&Integer> for Integer {
    fn sub_assign(&mut self, rhs: &Integer) {
        *self = (&*self).sub(rhs);
    }
}

impl Mul<&Integer> for &Integer {
    type Output = Integer;
    fn mul(self, rhs: &Integer) -> Integer {
        use Sign::*;
        let sign = match (self.sign, rhs.sign) {
            (Zero, _) | (_, Zero) => Zero,
            (a, b) if a == b => Positive,
            _ => Negative,
        };
        Integer::from_sign_magnitude(sign, &self.magnitude * &rhs.magnitude)
    }
}

impl Mul for Integer {
    type Output = Integer;
    fn mul(self, rhs: Integer) -> Integer {
        (&self).mul(&rhs)
    }
}

impl MulAssign<&Integer> for Integer {
    fn mul_assign(&mut self, rhs: &Integer) {
        *self = (&*self).mul(rhs);
    }
}

impl fmt::Display for Integer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.magnitude)
    }
}

impl fmt::Debug for Integer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl FromStr for Integer {
    type Err = crate::natural::ParseNaturalError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('-') {
            let mag: Natural = rest.parse()?;
            Ok(Integer::from_sign_magnitude(
                if mag.is_zero() {
                    Sign::Zero
                } else {
                    Sign::Negative
                },
                mag,
            ))
        } else {
            let mag: Natural = s.strip_prefix('+').unwrap_or(s).parse()?;
            Ok(Integer::from(mag))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Integer {
        Integer::from(v)
    }

    #[test]
    fn signs_and_zero_normalization() {
        assert!(i(0).is_zero());
        assert_eq!(i(5).sign(), Sign::Positive);
        assert_eq!(i(-5).sign(), Sign::Negative);
        assert_eq!((i(5) + i(-5)).sign(), Sign::Zero);
    }

    #[test]
    fn mixed_sign_addition() {
        assert_eq!(i(7) + i(-3), i(4));
        assert_eq!(i(3) + i(-7), i(-4));
        assert_eq!(i(-3) + i(-4), i(-7));
        assert_eq!(i(0) + i(-4), i(-4));
        assert_eq!(i(-4) + i(0), i(-4));
    }

    #[test]
    fn subtraction_and_negation() {
        assert_eq!(i(10) - i(25), i(-15));
        assert_eq!(-i(5), i(-5));
        assert_eq!(-i(0), i(0));
        assert_eq!(i(-8) - i(-8), i(0));
    }

    #[test]
    fn multiplication_sign_rules() {
        assert_eq!(i(3) * i(-4), i(-12));
        assert_eq!(i(-3) * i(-4), i(12));
        assert_eq!(i(0) * i(-4), i(0));
    }

    #[test]
    fn truncating_div_rem() {
        assert_eq!(i(7).div_rem(&i(2)), (i(3), i(1)));
        assert_eq!(i(-7).div_rem(&i(2)), (i(-3), i(-1)));
        assert_eq!(i(7).div_rem(&i(-2)), (i(-3), i(1)));
        assert_eq!(i(-7).div_rem(&i(-2)), (i(3), i(-1)));
    }

    #[test]
    fn div_exact_ok_and_pow() {
        assert_eq!(i(-12).div_exact(&i(4)), i(-3));
        assert_eq!(i(-2).pow(3), i(-8));
        assert_eq!(i(-2).pow(4), i(16));
        assert_eq!(i(0).pow(0), i(1));
    }

    #[test]
    #[should_panic(expected = "nonzero remainder")]
    fn div_exact_panics_on_remainder() {
        let _ = i(7).div_exact(&i(2));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(i(-10) < i(-2));
        assert!(i(-2) < i(0));
        assert!(i(0) < i(3));
        assert!(i(3) < i(10));
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("-123".parse::<Integer>().unwrap(), i(-123));
        assert_eq!("+42".parse::<Integer>().unwrap(), i(42));
        assert_eq!("-0".parse::<Integer>().unwrap(), i(0));
        assert_eq!(i(-99).to_string(), "-99");
    }

    #[test]
    fn to_i64_limits() {
        assert_eq!(i(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(i(i64::MAX).to_i64(), Some(i64::MAX));
        let too_big = Integer::from(Natural::from(u64::MAX)) + Integer::one();
        assert_eq!(too_big.to_i64(), None);
    }
}
