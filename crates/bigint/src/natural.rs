//! Unsigned arbitrary-precision integers.
//!
//! Representation: little-endian `Vec<u64>` limbs with no trailing zero limb
//! (the canonical zero is the empty vector). All public constructors and
//! operations maintain this invariant.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// Number of bits per limb.
const LIMB_BITS: u32 = 64;
/// Karatsuba multiplication kicks in above this many limbs.
const KARATSUBA_THRESHOLD: usize = 32;
/// Largest power of ten fitting in a limb: 10^19.
const DEC_CHUNK: u64 = 10_000_000_000_000_000_000;
/// Number of decimal digits per chunk.
const DEC_CHUNK_DIGITS: usize = 19;

/// An unsigned arbitrary-precision integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    /// Little-endian limbs; empty means zero; the last limb is nonzero.
    limbs: Vec<u64>,
}

impl Natural {
    /// The value 0.
    pub fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// Whether this is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Builds a natural from little-endian limbs (normalizing).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Borrow the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * LIMB_BITS as u64 + (64 - top.leading_zeros()) as u64
            }
        }
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Converts to `f64` (approximately, for reporting only).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 2f64.powi(64) + l as f64;
        }
        acc
    }

    /// Checked subtraction: `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        let mut borrow = 0u64;
        for (i, &o) in other.limbs.iter().enumerate() {
            let (d1, b1) = limbs[i].overflowing_sub(o);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        let mut i = other.limbs.len();
        while borrow != 0 {
            let (d, b) = limbs[i].overflowing_sub(borrow);
            limbs[i] = d;
            borrow = b as u64;
            i += 1;
        }
        Some(Natural::from_limbs(limbs))
    }

    /// Division with remainder: returns `(self / other, self % other)`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Natural) -> (Natural, Natural) {
        assert!(!other.is_zero(), "division by zero Natural");
        match self.cmp(other) {
            Ordering::Less => return (Natural::zero(), self.clone()),
            Ordering::Equal => return (Natural::one(), Natural::zero()),
            Ordering::Greater => {}
        }
        if other.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(other.limbs[0]);
            return (q, Natural::from(r));
        }
        self.div_rem_knuth(other)
    }

    /// Divides by a single limb; returns `(quotient, remainder)`.
    pub fn div_rem_limb(&self, d: u64) -> (Natural, u64) {
        assert!(d != 0, "division by zero limb");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Natural::from_limbs(q), rem as u64)
    }

    /// Knuth Algorithm D for multi-limb divisors (assumes `self > other`,
    /// `other` has at least two limbs).
    fn div_rem_knuth(&self, other: &Natural) -> (Natural, Natural) {
        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = other.limbs.last().unwrap().leading_zeros();
        let v = other.clone() << shift as usize;
        let mut u = (self.clone() << shift as usize).limbs;
        u.push(0); // extra limb for the algorithm
        let n = v.limbs.len();
        let m = u.len() - n - 1;
        let vn1 = v.limbs[n - 1];
        let vn2 = v.limbs[n - 2];
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q̂ = floor((u[j+n]·b + u[j+n−1]) / v[n−1]).
            let numer = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numer / vn1 as u128;
            let mut rhat = numer % vn1 as u128;
            // Correct the estimate (at most twice).
            while qhat >> 64 != 0 || qhat * vn2 as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vn1 as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract: u[j..j+n+1] -= q̂ · v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;
            let went_negative = sub < 0;

            q[j] = qhat as u64;
            if went_negative {
                // Add back: the estimate was one too large.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v.limbs[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
        }
        let quotient = Natural::from_limbs(q);
        let remainder = Natural::from_limbs(u[..n].to_vec()) >> shift as usize;
        (quotient, remainder)
    }

    /// Raises `self` to the power `exp` by binary exponentiation.
    pub fn pow(&self, exp: u32) -> Natural {
        if exp == 0 {
            return Natural::one();
        }
        let mut base = self.clone();
        let mut acc = Natural::one();
        let mut e = exp;
        while e > 1 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            e >>= 1;
        }
        &acc * &base
    }

    /// Greatest common divisor (Euclid's algorithm).
    pub fn gcd(&self, other: &Natural) -> Natural {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        a
    }

    fn add_in_place(&mut self, other: &Natural) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, &o) in other.limbs.iter().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(o);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 | c2) as u64;
        }
        let mut i = other.limbs.len();
        while carry != 0 {
            if i == self.limbs.len() {
                self.limbs.push(carry);
                carry = 0;
            } else {
                let (s, c) = self.limbs[i].overflowing_add(carry);
                self.limbs[i] = s;
                carry = c as u64;
                i += 1;
            }
        }
    }

    fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        out
    }

    fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
            return Self::mul_schoolbook(a, b);
        }
        let half = a.len().max(b.len()) / 2;
        let (a0, a1) = a.split_at(a.len().min(half));
        let (b0, b1) = b.split_at(b.len().min(half));
        let a0n = Natural::from_limbs(a0.to_vec());
        let a1n = Natural::from_limbs(a1.to_vec());
        let b0n = Natural::from_limbs(b0.to_vec());
        let b1n = Natural::from_limbs(b1.to_vec());
        let z0 = Natural::from_limbs(Self::mul_karatsuba(a0n.limbs(), b0n.limbs()));
        let z2 = Natural::from_limbs(Self::mul_karatsuba(a1n.limbs(), b1n.limbs()));
        let sa = &a0n + &a1n;
        let sb = &b0n + &b1n;
        let z1 = Natural::from_limbs(Self::mul_karatsuba(sa.limbs(), sb.limbs()));
        let z1 = z1
            .checked_sub(&z0)
            .and_then(|t| t.checked_sub(&z2))
            .expect("karatsuba middle term underflow");
        // result = z2·b^{2·half} + z1·b^{half} + z0
        let mut result = z0;
        result.add_in_place(&(z1 << (half * LIMB_BITS as usize)));
        result.add_in_place(&(z2 << (2 * half * LIMB_BITS as usize)));
        result.limbs
    }
}

impl From<u64> for Natural {
    fn from(v: u64) -> Self {
        if v == 0 {
            Natural::zero()
        } else {
            Natural { limbs: vec![v] }
        }
    }
}

impl From<u32> for Natural {
    fn from(v: u32) -> Self {
        Natural::from(v as u64)
    }
}

impl From<usize> for Natural {
    fn from(v: usize) -> Self {
        Natural::from(v as u64)
    }
}

impl From<u128> for Natural {
    fn from(v: u128) -> Self {
        Natural::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<&Natural> for &Natural {
    type Output = Natural;
    fn add(self, rhs: &Natural) -> Natural {
        let mut out = self.clone();
        out.add_in_place(rhs);
        out
    }
}

impl Add for Natural {
    type Output = Natural;
    fn add(mut self, rhs: Natural) -> Natural {
        self.add_in_place(&rhs);
        self
    }
}

impl AddAssign<&Natural> for Natural {
    fn add_assign(&mut self, rhs: &Natural) {
        self.add_in_place(rhs);
    }
}

impl Sub<&Natural> for &Natural {
    type Output = Natural;
    /// # Panics
    /// Panics on underflow; use [`Natural::checked_sub`] to handle it.
    fn sub(self, rhs: &Natural) -> Natural {
        self.checked_sub(rhs)
            .expect("Natural subtraction underflow")
    }
}

impl Sub for Natural {
    type Output = Natural;
    fn sub(self, rhs: Natural) -> Natural {
        (&self).sub(&rhs)
    }
}

impl SubAssign<&Natural> for Natural {
    fn sub_assign(&mut self, rhs: &Natural) {
        *self = (&*self).sub(rhs);
    }
}

impl Mul<&Natural> for &Natural {
    type Output = Natural;
    fn mul(self, rhs: &Natural) -> Natural {
        Natural::from_limbs(Natural::mul_karatsuba(&self.limbs, &rhs.limbs))
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        (&self).mul(&rhs)
    }
}

impl MulAssign<&Natural> for Natural {
    fn mul_assign(&mut self, rhs: &Natural) {
        *self = (&*self).mul(rhs);
    }
}

impl Rem<&Natural> for &Natural {
    type Output = Natural;
    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

impl Shl<usize> for Natural {
    type Output = Natural;
    fn shl(self, bits: usize) -> Natural {
        if self.is_zero() || bits == 0 {
            return self;
        }
        let limb_shift = bits / LIMB_BITS as usize;
        let bit_shift = (bits % LIMB_BITS as usize) as u32;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Natural::from_limbs(limbs)
    }
}

impl Shr<usize> for Natural {
    type Output = Natural;
    fn shr(self, bits: usize) -> Natural {
        if self.is_zero() || bits == 0 {
            return self;
        }
        let limb_shift = bits / LIMB_BITS as usize;
        let bit_shift = (bits % LIMB_BITS as usize) as u32;
        if limb_shift >= self.limbs.len() {
            return Natural::zero();
        }
        let mut limbs: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            for i in 0..limbs.len() {
                limbs[i] >>= bit_shift;
                if i + 1 < limbs.len() {
                    limbs[i] |= limbs[i + 1] << (LIMB_BITS - bit_shift);
                }
            }
        }
        Natural::from_limbs(limbs)
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeatedly divide by 10^19 and print chunks.
        let mut chunks = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let (q, r) = n.div_rem_limb(DEC_CHUNK);
            chunks.push(r);
            n = q;
        }
        let mut s = chunks.pop().unwrap().to_string();
        for c in chunks.iter().rev() {
            s.push_str(&format!("{:0width$}", c, width = DEC_CHUNK_DIGITS));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

/// Error parsing a [`Natural`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNaturalError;

impl fmt::Display for ParseNaturalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid decimal natural number")
    }
}

impl std::error::Error for ParseNaturalError {}

impl FromStr for Natural {
    type Err = ParseNaturalError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseNaturalError);
        }
        let mut acc = Natural::zero();
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(DEC_CHUNK_DIGITS);
            let chunk: u64 = s[i..i + take].parse().map_err(|_| ParseNaturalError)?;
            let scale = 10u64.pow(take as u32);
            acc = acc * Natural::from(scale) + Natural::from(chunk);
            i += take;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(Natural::zero().is_zero());
        assert!(Natural::one().is_one());
        assert_eq!(Natural::from(0u64), Natural::zero());
        assert_eq!(Natural::zero().bit_length(), 0);
        assert_eq!(Natural::one().bit_length(), 1);
    }

    #[test]
    fn add_with_carries() {
        let a = n(u64::MAX as u128);
        let b = n(1);
        assert_eq!(&a + &b, n(u64::MAX as u128 + 1));
        assert_eq!((&a + &b).limbs().len(), 2);
    }

    #[test]
    fn sub_with_borrows() {
        let a = n(1u128 << 64);
        let b = n(1);
        assert_eq!(a.checked_sub(&b), Some(n(u64::MAX as u128)));
        assert_eq!(b.checked_sub(&a), None);
        assert_eq!(a.checked_sub(&a), Some(Natural::zero()));
    }

    #[test]
    fn mul_small_and_cross_limb() {
        assert_eq!(&n(7) * &n(6), n(42));
        assert_eq!(&n(0) * &n(12345), Natural::zero());
        let big = n(u64::MAX as u128);
        assert_eq!(&big * &big, n((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Construct operands well above the Karatsuba threshold.
        let a = Natural::from_limbs((1..=80u64).collect());
        let b = Natural::from_limbs(
            (1..=70u64)
                .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15))
                .collect(),
        );
        let school = Natural::from_limbs(Natural::mul_schoolbook(a.limbs(), b.limbs()));
        assert_eq!(&a * &b, school);
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = n(100).div_rem(&n(7));
        assert_eq!((q, r), (n(14), n(2)));
        let (q, r) = n(5).div_rem(&n(100));
        assert_eq!((q, r), (Natural::zero(), n(5)));
        let (q, r) = n(100).div_rem(&n(100));
        assert_eq!((q, r), (Natural::one(), Natural::zero()));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = n(0xDEADBEEF_CAFEBABE_12345678_9ABCDEF0);
        let b = n(0x1_00000000_00000001);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + r, a);
    }

    #[test]
    fn div_rem_knuth_addback_path() {
        // A case engineered to exercise the rare add-back branch family:
        // divisor with high limb just over half range.
        let u = Natural::from_limbs(vec![0, 0, 0x8000_0000_0000_0000]);
        let v = Natural::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + r.clone(), u);
        assert!(r < v);
    }

    #[test]
    fn pow_and_parse_display_roundtrip() {
        let big = n(10).pow(50);
        assert_eq!(big.to_string().len(), 51);
        assert_eq!(big.to_string().parse::<Natural>().unwrap(), big);
        assert_eq!(n(2).pow(10), n(1024));
        assert_eq!(n(5).pow(0), Natural::one());
        assert_eq!(Natural::zero().pow(5), Natural::zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1) << 100, n(1u128 << 100));
        assert_eq!(n(1u128 << 100) >> 100, n(1));
        assert_eq!(n(0b1011) << 3, n(0b1011000));
        assert_eq!(n(0b1011000) >> 3, n(0b1011));
        assert_eq!(n(7) >> 10, Natural::zero());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(5)), n(1));
        assert_eq!(n(0).gcd(&n(9)), n(9));
        assert_eq!(n(9).gcd(&n(0)), n(9));
    }

    #[test]
    fn ordering() {
        assert!(n(5) < n(6));
        assert!(n(1u128 << 64) > n(u64::MAX as u128));
        assert_eq!(n(42).cmp(&n(42)), Ordering::Equal);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Natural>().is_err());
        assert!("12a".parse::<Natural>().is_err());
        assert!("-5".parse::<Natural>().is_err());
    }

    #[test]
    fn to_conversions() {
        assert_eq!(n(42).to_u64(), Some(42));
        assert_eq!(n(1u128 << 80).to_u64(), None);
        assert_eq!(n(1u128 << 80).to_u128(), Some(1u128 << 80));
        assert_eq!((n(1u128 << 100) * n(1u128 << 100)).to_u128(), None);
    }
}
