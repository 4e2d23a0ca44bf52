//! Fixed-width Montgomery arithmetic: the engine behind every
//! [`DhGroup`](crate::DhGroup) operation.
//!
//! An element is `[u64; N]`, little-endian limbs, with `N` fixed by the
//! modulus (12 for MODP-768, 32 for MODP-2048). Every loop runs a count
//! set by `N` alone, and work on secrets is branch-free and index-free:
//!
//! * [`Mont::mul`] is CIOS Montgomery multiplication (the discipline of
//!   `ppcs-math`'s `fp256`) ending in a masked final subtraction;
//! * [`Mont::pow`] is a fixed-window exponentiation over all `64·N`
//!   exponent bits, whatever the exponent's value;
//! * [`Comb::pow`] is a Lim–Lee fixed-base comb for the generator;
//! * both read their tables through [`select`], a masked scan of every
//!   entry.
//!
//! [`Mont::inv_public`] is the one variable-time routine: a binary
//! extended GCD for inverting elements that are already public.

use num_bigint::BigUint;

/// Window width of [`Mont::pow`], in bits. It divides 64, so no window
/// straddles a limb.
const WINDOW: usize = 4;

/// Montgomery arithmetic modulo an odd `p < R = 2^(64·N)`.
///
/// Values in Montgomery form are `x·R mod p`. [`Mont::mul`] accepts any
/// operands below `R` as long as one of them is below `p`, and always
/// returns a canonical value in `[0, p)`.
#[derive(Clone)]
pub(crate) struct Mont<const N: usize> {
    p: [u64; N],
    /// `-p⁻¹ mod 2⁶⁴`.
    n0: u64,
    /// `R mod p`: one, in Montgomery form.
    one: [u64; N],
    /// `R² mod p`: multiplying by it converts into Montgomery form.
    r2: [u64; N],
}

impl<const N: usize> Mont<N> {
    /// Precomputes the constants for modulus `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or wider than `N` limbs.
    pub(crate) fn new(p: &BigUint) -> Self {
        let limbs = to_limbs::<N>(p);
        assert!(limbs[0] & 1 == 1, "Montgomery modulus must be odd");
        // Newton's iteration doubles the correct low bits of p⁻¹ mod 2⁶⁴
        // per step: 1 → 2 → 4 → … → 64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inv)));
        }
        let r = BigUint::from(1u32) << (64 * N);
        Self {
            p: limbs,
            n0: inv.wrapping_neg(),
            one: to_limbs(&(&r % p)),
            r2: to_limbs(&(&(&r * &r) % p)),
        }
    }

    /// One, in Montgomery form.
    pub(crate) fn one(&self) -> [u64; N] {
        self.one
    }

    /// `a·b·R⁻¹ mod p` (CIOS), in `[0, p)`.
    pub(crate) fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0u64; N];
        let mut t_hi = 0u64;
        for &ai in a {
            // t = (t + ai·b + m·p) / 2⁶⁴, with m chosen to zero the low
            // limb. The two products run as two interleaved carry chains.
            let (t0, mut c1) = mac(t[0], ai, b[0], 0);
            let m = t0.wrapping_mul(self.n0);
            let (_, mut c2) = mac(t0, m, self.p[0], 0);
            for j in 1..N {
                let x;
                (x, c1) = mac(t[j], ai, b[j], c1);
                (t[j - 1], c2) = mac(x, m, self.p[j], c2);
            }
            let (top, o1) = t_hi.overflowing_add(c1);
            let (top, o2) = top.overflowing_add(c2);
            t[N - 1] = top;
            t_hi = u64::from(o1) + u64::from(o2);
        }
        self.sub_p_masked(&t, t_hi)
    }

    /// Subtracts `p` from `t_hi·R + t` (known to be below `2p`) when the
    /// difference is non-negative, choosing the result by mask.
    fn sub_p_masked(&self, t: &[u64; N], t_hi: u64) -> [u64; N] {
        let mut d = [0u64; N];
        let mut borrow = 0u64;
        for j in 0..N {
            (d[j], borrow) = sbb(t[j], self.p[j], borrow);
        }
        // The difference is negative iff the borrow exceeds t_hi.
        let (_, negative) = t_hi.overflowing_sub(borrow);
        let keep = 0u64.wrapping_sub(u64::from(negative));
        let mut out = [0u64; N];
        for j in 0..N {
            out[j] = (t[j] & keep) | (d[j] & !keep);
        }
        out
    }

    /// `a·R mod p` for any `a < R`.
    pub(crate) fn to_mont(&self, a: &[u64; N]) -> [u64; N] {
        self.mul(a, &self.r2)
    }

    /// `a·R⁻¹ mod p`: leaves Montgomery form.
    pub(crate) fn to_plain(&self, a: &[u64; N]) -> [u64; N] {
        let mut unit = [0u64; N];
        unit[0] = 1;
        self.mul(a, &unit)
    }

    /// `base^e` with `base` and the result in Montgomery form.
    ///
    /// A fixed 4-bit window over all `64·N` bits of `e`: `64·N − 4`
    /// squarings and `16·N − 1` table multiplications for every exponent,
    /// each table entry picked by [`select`].
    pub(crate) fn pow(&self, base: &[u64; N], e: &[u64; N]) -> [u64; N] {
        let mut table = [self.one; 1 << WINDOW];
        for i in 1..table.len() {
            table[i] = self.mul(&table[i - 1], base);
        }
        let windows = 64 * N / WINDOW;
        let window = |i: usize| (e[i * WINDOW / 64] >> (i * WINDOW % 64)) & ((1 << WINDOW) - 1);
        let mut acc = select(&table, window(windows - 1));
        for i in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                acc = self.mul(&acc, &acc);
            }
            acc = self.mul(&acc, &select(&table, window(i)));
        }
        acc
    }

    /// `a⁻¹ mod p` for a plain (not Montgomery) `a` in `[1, p)`, by the
    /// binary extended Euclidean algorithm.
    ///
    /// **Variable time**: its branches and iteration count depend on
    /// `a`, so call it only on values the peer already knows.
    pub(crate) fn inv_public(&self, a: &[u64; N]) -> [u64; N] {
        debug_assert!(!is_zero(a) && !geq(a, &self.p), "input must lie in [1, p)");
        // Invariants: x1·a ≡ u and x2·a ≡ v (mod p); gcd(u, v) = 1.
        let (mut u, mut v) = (*a, self.p);
        let mut x1 = [0u64; N];
        x1[0] = 1;
        let mut x2 = [0u64; N];
        while !is_one(&u) && !is_one(&v) {
            while u[0] & 1 == 0 {
                shr1(&mut u, 0);
                self.halve(&mut x1);
            }
            while v[0] & 1 == 0 {
                shr1(&mut v, 0);
                self.halve(&mut x2);
            }
            if geq(&u, &v) {
                sub_assign(&mut u, &v);
                self.sub_mod(&mut x1, &x2);
            } else {
                sub_assign(&mut v, &u);
                self.sub_mod(&mut x2, &x1);
            }
        }
        if is_one(&u) {
            x1
        } else {
            x2
        }
    }

    /// `x·2⁻¹ mod p` for `x` in `[0, p)` (variable time).
    fn halve(&self, x: &mut [u64; N]) {
        let carry = if x[0] & 1 == 1 {
            add_assign(x, &self.p)
        } else {
            0
        };
        shr1(x, carry);
    }

    /// `x − y mod p` for `x, y` in `[0, p)` (variable time).
    fn sub_mod(&self, x: &mut [u64; N], y: &[u64; N]) {
        if sub_assign(x, y) == 1 {
            add_assign(x, &self.p);
        }
    }
}

/// Lim–Lee fixed-base comb: `base^e` for a fixed `base` in `spacing − 1`
/// squarings and `rows·spacing` multiplications, against `64·N − 4`
/// squarings for [`Mont::pow`].
///
/// The `64·N` exponent bits are cut into `teeth` blocks of `rows·spacing`
/// bits, each block into `rows` segments of `spacing` bits. Entry `s` of
/// row `j` is the product of `base^(2^(i·rows·spacing + j·spacing))` over
/// the set bits `i` of `s`, so one multiplication consumes `teeth`
/// exponent bits, one from each block.
#[derive(Clone)]
pub(crate) struct Comb<const N: usize> {
    teeth: usize,
    rows: usize,
    spacing: usize,
    /// `rows` rows of `2^teeth` entries each, in Montgomery form.
    table: Vec<[u64; N]>,
}

impl<const N: usize> Comb<N> {
    /// Builds the table for `base` (in Montgomery form).
    pub(crate) fn new(mont: &Mont<N>, base: &[u64; N], teeth: usize, rows: usize) -> Self {
        let spacing = (64 * N).div_ceil(teeth * rows);
        // powers[k] = base^(2^(k·spacing)); tooth i of row j is k = i·rows + j.
        let mut powers = Vec::with_capacity(teeth * rows);
        let mut cur = *base;
        for _ in 0..teeth * rows {
            powers.push(cur);
            for _ in 0..spacing {
                cur = mont.mul(&cur, &cur);
            }
        }
        let mut table = vec![mont.one(); rows << teeth];
        for j in 0..rows {
            let row = &mut table[j << teeth..(j + 1) << teeth];
            for s in 1..row.len() {
                let low = s.trailing_zeros() as usize;
                row[s] = mont.mul(&row[s & (s - 1)], &powers[low * rows + j]);
            }
        }
        Self {
            teeth,
            rows,
            spacing,
            table,
        }
    }

    /// Size of the table, in bytes.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice())
    }

    /// `base^e`, in Montgomery form.
    pub(crate) fn pow(&self, mont: &Mont<N>, e: &[u64; N]) -> [u64; N] {
        let block = self.rows * self.spacing;
        // Bit `pos` of `e`; positions past the top read as zero. `pos` is
        // public (a loop index), so the bound check leaks nothing.
        let bit = |pos: usize| {
            if pos < 64 * N {
                (e[pos / 64] >> (pos % 64)) & 1
            } else {
                0
            }
        };
        let mut acc = mont.one();
        for k in (0..self.spacing).rev() {
            if k + 1 < self.spacing {
                acc = mont.mul(&acc, &acc);
            }
            for j in (0..self.rows).rev() {
                let mut s = 0u64;
                for i in 0..self.teeth {
                    s |= bit(i * block + j * self.spacing + k) << i;
                }
                let row = &self.table[j << self.teeth..(j + 1) << self.teeth];
                acc = mont.mul(&acc, &select(row, s));
            }
        }
        acc
    }
}

/// `table[idx]`, read by a masked scan of every entry so neither the
/// memory access pattern nor any branch depends on `idx`.
fn select<const N: usize>(table: &[[u64; N]], idx: u64) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, entry) in table.iter().enumerate() {
        let mask = eq_mask(i as u64, idx);
        for (o, &x) in out.iter_mut().zip(entry) {
            *o |= x & mask;
        }
    }
    out
}

/// All ones if `a == b`, else zero, without a branch.
#[inline]
fn eq_mask(a: u64, b: u64) -> u64 {
    let d = a ^ b;
    // (d | −d) has its top bit set iff d ≠ 0.
    ((d | d.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// `a + b·c + carry` as (low, high) limbs.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    // The product and `a` do not depend on the carry chain, so they are
    // summed first; only the last addition waits on `carry`.
    let t = u128::from(b) * u128::from(c) + u128::from(a);
    let t = t + u128::from(carry);
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` as (difference, borrow out).
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = u128::from(a).wrapping_sub(u128::from(b) + u128::from(borrow));
    (t as u64, (t >> 127) as u64)
}

/// `x += y`, returning the carry out.
fn add_assign<const N: usize>(x: &mut [u64; N], y: &[u64; N]) -> u64 {
    let mut carry = 0u64;
    for j in 0..N {
        let t = u128::from(x[j]) + u128::from(y[j]) + u128::from(carry);
        x[j] = t as u64;
        carry = (t >> 64) as u64;
    }
    carry
}

/// `x −= y`, returning the borrow out.
fn sub_assign<const N: usize>(x: &mut [u64; N], y: &[u64; N]) -> u64 {
    let mut borrow = 0u64;
    for j in 0..N {
        (x[j], borrow) = sbb(x[j], y[j], borrow);
    }
    borrow
}

/// `x = (top·2^(64·N) + x) / 2` for a `top` bit.
fn shr1<const N: usize>(x: &mut [u64; N], top: u64) {
    for j in 0..N - 1 {
        x[j] = (x[j] >> 1) | (x[j + 1] << 63);
    }
    x[N - 1] = (x[N - 1] >> 1) | (top << 63);
}

fn geq<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for j in (0..N).rev() {
        if a[j] != b[j] {
            return a[j] > b[j];
        }
    }
    true
}

fn is_zero<const N: usize>(a: &[u64; N]) -> bool {
    a.iter().all(|&l| l == 0)
}

fn is_one<const N: usize>(a: &[u64; N]) -> bool {
    a[0] == 1 && a[1..].iter().all(|&l| l == 0)
}

/// `x` as `N` little-endian limbs.
///
/// # Panics
///
/// Panics if `x` does not fit in `N` limbs.
pub(crate) fn to_limbs<const N: usize>(x: &BigUint) -> [u64; N] {
    let bytes = x.to_bytes_le();
    assert!(bytes.len() <= 8 * N, "value wider than {N} limbs");
    let mut out = [0u64; N];
    for (limb, chunk) in out.iter_mut().zip(bytes.chunks(8)) {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        *limb = u64::from_le_bytes(le);
    }
    out
}

/// The integer with little-endian limbs `x`.
pub(crate) fn from_limbs<const N: usize>(x: &[u64; N]) -> BigUint {
    let bytes: Vec<u8> = x.iter().flat_map(|l| l.to_le_bytes()).collect();
    BigUint::from_bytes_le(&bytes)
}

#[cfg(test)]
mod tests {
    //! Small enough to run under Miri: one- and two-limb moduli, checked
    //! against `num-bigint`.

    use super::*;

    /// The largest prime below 2⁶⁴, and a 127-bit prime (2¹²⁷ − 1).
    const P64: u64 = 0xFFFF_FFFF_FFFF_FFC5;

    fn p127() -> BigUint {
        (BigUint::from(1u32) << 127usize) - BigUint::from(1u32)
    }

    fn pow_big<const N: usize>(m: &Mont<N>, b: &BigUint, e: &BigUint) -> BigUint {
        let base = m.to_mont(&to_limbs(b));
        from_limbs(&m.to_plain(&m.pow(&base, &to_limbs(e))))
    }

    fn samples(p: &BigUint) -> Vec<BigUint> {
        let one = BigUint::from(1u32);
        vec![
            BigUint::from(0u32),
            one.clone(),
            BigUint::from(2u32),
            BigUint::from(0xDEAD_BEEF_u64),
            p - &one - &one,
            p - &one,
        ]
    }

    #[test]
    fn constants_are_montgomery_constants() {
        let p = p127();
        let m = Mont::<2>::new(&p);
        assert_eq!(m.p[0].wrapping_mul(m.n0.wrapping_neg()), 1, "n0 = -p^-1");
        let r = BigUint::from(1u32) << 128usize;
        assert_eq!(from_limbs(&m.one), &r % &p);
        assert_eq!(from_limbs(&m.r2), &(&r * &r) % &p);
    }

    #[test]
    fn mul_matches_oracle() {
        fn check<const N: usize>(p: &BigUint) {
            let m = Mont::<N>::new(p);
            let xs = samples(p);
            for a in &xs {
                for b in &xs {
                    let got = from_limbs(&m.mul(&m.to_mont(&to_limbs(a)), &to_limbs(b)));
                    assert_eq!(got, &(a * b) % p, "{a} * {b} mod {p}");
                }
            }
        }
        check::<1>(&BigUint::from(P64));
        check::<2>(&p127());
    }

    #[test]
    fn pow_matches_oracle() {
        let p = p127();
        let m = Mont::<2>::new(&p);
        let xs = samples(&p);
        for b in &xs {
            for e in &xs {
                assert_eq!(pow_big(&m, b, e), b.modpow(e, &p), "{b}^{e}");
            }
        }
        // A full-width exponent whose top windows are all set.
        let e = (BigUint::from(1u32) << 128usize) - BigUint::from(1u32);
        assert_eq!(pow_big(&m, &xs[3], &e), xs[3].modpow(&e, &p));
    }

    #[test]
    fn comb_matches_pow_for_every_shape() {
        let p = p127();
        let m = Mont::<2>::new(&p);
        let base = m.to_mont(&to_limbs(&BigUint::from(3u32)));
        let exps = [
            BigUint::from(0u32),
            BigUint::from(1u32),
            BigUint::from(0x1234_5678_9ABC_DEF0_u64) << 40usize,
            (BigUint::from(1u32) << 128usize) - BigUint::from(1u32),
        ];
        for (teeth, rows) in [(1, 1), (3, 2), (4, 4), (5, 3)] {
            let comb = Comb::new(&m, &base, teeth, rows);
            assert_eq!(comb.table_bytes(), (rows << teeth) * 16);
            for e in &exps {
                let e = to_limbs(e);
                assert_eq!(
                    comb.pow(&m, &e),
                    m.pow(&base, &e),
                    "shape ({teeth}, {rows})"
                );
            }
        }
    }

    #[test]
    fn inv_public_inverts() {
        let p = p127();
        let m = Mont::<2>::new(&p);
        for a in samples(&p).iter().skip(1) {
            let inv = m.inv_public(&to_limbs(a));
            let prod = &(a * &from_limbs(&inv)) % &p;
            assert_eq!(prod, BigUint::from(1u32), "{a}");
        }
    }

    #[test]
    fn select_reads_every_index() {
        let table: Vec<[u64; 2]> = (0..8u64).map(|i| [i, !i]).collect();
        for i in 0..8u64 {
            assert_eq!(select(&table, i), [i, !i]);
        }
        assert_eq!(select(&table, 8), [0, 0], "out of range selects nothing");
    }
}
