//! Diffie–Hellman groups over safe primes — the algebraic setting of the
//! Naor–Pinkas oblivious transfer.
//!
//! Two fixed groups are provided: the RFC 3526 2048-bit MODP group
//! (security-grade) and the RFC 2409 768-bit Oakley group 1 (fast, for
//! tests and micro-benchmarks — *not* for production security).

use num_bigint::{BigUint, RandBigInt};
use num_traits::One;
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

use crate::hmac::hkdf;
use crate::mont::{from_limbs, to_limbs, Comb, Mont};

/// RFC 3526 group 14 (2048-bit MODP), generator 2.
const MODP_2048_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B",
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9",
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510",
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
);

/// RFC 2409 Oakley group 1 (768-bit), generator 2. Test/bench use only.
const MODP_768_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
    "E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"
);

/// Shape (teeth, rows) of the generator's comb: 4 rows of 2⁶ entries,
/// 24 KiB for MODP-768 and 64 KiB for MODP-2048.
const COMB_SHAPE: (usize, usize) = (6, 4);

/// A multiplicative group modulo a safe prime `p = 2q + 1` with a fixed
/// generator, plus key-derivation from group elements.
///
/// Every operation runs on a fixed-width Montgomery engine; `BigUint`
/// appears only at this API boundary.
///
/// # Examples
///
/// ```
/// use ppcs_crypto::DhGroup;
/// use rand::SeedableRng;
///
/// let group = DhGroup::modp_768();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = group.random_exponent(&mut rng);
/// let b = group.random_exponent(&mut rng);
/// // DH correctness: (g^a)^b == (g^b)^a
/// let left = group.exp(&group.power_g(&a), &b);
/// let right = group.exp(&group.power_g(&b), &a);
/// assert_eq!(left, right);
/// ```
#[derive(Clone)]
pub struct DhGroup {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    element_len: usize,
    engine: Engine,
}

/// The engine of each supported modulus width.
#[derive(Clone)]
enum Engine {
    Modp768(Box<Modp<12>>),
    Modp2048(Box<Modp<32>>),
}

/// Runs `$body` with `$m` bound to the group's engine, whatever its width.
macro_rules! on_engine {
    ($group:expr, $m:ident => $body:expr) => {
        match &$group.engine {
            Engine::Modp768($m) => $body,
            Engine::Modp2048($m) => $body,
        }
    };
}

/// A group engine over `N` limbs. Every method takes and returns values
/// below `2^(64·N)`; [`DhGroup`] reduces wider inputs first.
#[derive(Clone)]
struct Modp<const N: usize> {
    mont: Mont<N>,
    /// The generator, in Montgomery form.
    g: [u64; N],
    /// The generator's comb, built on the first [`DhGroup::power_g`].
    comb: OnceLock<Comb<N>>,
}

impl<const N: usize> Modp<N> {
    fn new(p: &BigUint, g: &BigUint) -> Self {
        let mont = Mont::new(p);
        let g = mont.to_mont(&to_limbs(g));
        Self {
            mont,
            g,
            comb: OnceLock::new(),
        }
    }

    fn comb(&self) -> &Comb<N> {
        self.comb.get_or_init(|| {
            let (teeth, rows) = COMB_SHAPE;
            Comb::new(&self.mont, &self.g, teeth, rows)
        })
    }

    fn exp(&self, base: &BigUint, e: &BigUint) -> BigUint {
        let m = &self.mont;
        let base = m.to_mont(&to_limbs(base));
        from_limbs(&m.to_plain(&m.pow(&base, &to_limbs(e))))
    }

    fn power_g(&self, e: &BigUint) -> BigUint {
        let m = &self.mont;
        from_limbs(&m.to_plain(&self.comb().pow(m, &to_limbs(e))))
    }

    fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let m = &self.mont;
        from_limbs(&m.mul(&m.to_mont(&to_limbs(a)), &to_limbs(b)))
    }

    fn inv_public(&self, a: &BigUint) -> BigUint {
        from_limbs(&self.mont.inv_public(&to_limbs(a)))
    }
}

impl DhGroup {
    fn from_hex(hex: &str) -> Self {
        let p = BigUint::parse_bytes(hex.as_bytes(), 16).expect("valid hex constant");
        let q = (&p - BigUint::one()) >> 1;
        let g = BigUint::from(2u32);
        let element_len = (p.bits() as usize).div_ceil(8);
        let engine = match p.bits() {
            768 => Engine::Modp768(Box::new(Modp::new(&p, &g))),
            2048 => Engine::Modp2048(Box::new(Modp::new(&p, &g))),
            bits => unreachable!("no engine for a {bits}-bit modulus"),
        };
        Self {
            p,
            q,
            g,
            element_len,
            engine,
        }
    }

    /// The RFC 3526 2048-bit MODP group (security parameter ~112 bits).
    pub fn modp_2048() -> &'static DhGroup {
        static G: OnceLock<DhGroup> = OnceLock::new();
        G.get_or_init(|| DhGroup::from_hex(MODP_2048_HEX))
    }

    /// The RFC 2409 768-bit Oakley group — fast, for tests and
    /// micro-benchmarks only; do not rely on it for real security.
    pub fn modp_768() -> &'static DhGroup {
        static G: OnceLock<DhGroup> = OnceLock::new();
        G.get_or_init(|| DhGroup::from_hex(MODP_768_HEX))
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn order(&self) -> &BigUint {
        &self.q
    }

    /// The generator.
    pub fn generator(&self) -> &BigUint {
        &self.g
    }

    /// Fixed serialized length of a group element, in bytes.
    pub fn element_len(&self) -> usize {
        self.element_len
    }

    /// Draws a uniform exponent in `[2, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = rng.gen_biguint_below(&self.q);
            if e > BigUint::one() {
                return e;
            }
        }
    }

    /// Whether `x` fits the engine's fixed width (a public property: the
    /// `BigUint` holding `x` already reveals its length).
    fn fits(&self, x: &BigUint) -> bool {
        x.bits() <= 8 * self.element_len as u64
    }

    /// `x`, reduced mod `p` only if it is wider than the engine.
    fn fit(&self, x: &BigUint) -> BigUint {
        if self.fits(x) {
            x.clone()
        } else {
            x % &self.p
        }
    }

    /// `base^e mod p`, in constant time for every `base` and `e` that fit
    /// in the modulus width.
    pub fn exp(&self, base: &BigUint, e: &BigUint) -> BigUint {
        let base = self.fit(base);
        if self.fits(e) {
            return on_engine!(self, m => m.exp(&base, e));
        }
        // Every nonzero base has order dividing p − 1; p − 1 stands in
        // for a zero residue so that 0^e stays 0.
        let p_1 = &self.p - BigUint::one();
        let mut e = e % &p_1;
        if e.bits() == 0 {
            e = p_1;
        }
        on_engine!(self, m => m.exp(&base, &e))
    }

    /// `g^e mod p` through the generator's fixed-base comb, in constant
    /// time for every `e` that fits in the modulus width.
    pub fn power_g(&self, e: &BigUint) -> BigUint {
        if self.fits(e) {
            on_engine!(self, m => m.power_g(e))
        } else {
            // g generates the order-q subgroup.
            on_engine!(self, m => m.power_g(&(e % &self.q)))
        }
    }

    /// Group multiplication `a · b mod p`, in constant time.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        on_engine!(self, m => m.mul(&self.fit(a), &self.fit(b)))
    }

    /// Multiplicative inverse mod `p` of a **public** element.
    ///
    /// A binary extended GCD: much faster than a Fermat exponentiation,
    /// but its running time depends on `a`. Use it only for values the
    /// peer already knows, such as an element received off the wire.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero mod `p` (not a group element).
    pub fn inv_public(&self, a: &BigUint) -> BigUint {
        let a = a % &self.p;
        assert!(!a.is_zero_ext(), "zero has no inverse in the group");
        on_engine!(self, m => m.inv_public(&a))
    }

    /// Serializes a group element to fixed-length big-endian bytes.
    pub fn element_bytes(&self, e: &BigUint) -> Vec<u8> {
        let mut bytes = e.to_bytes_be();
        assert!(
            bytes.len() <= self.element_len,
            "element exceeds group modulus size"
        );
        let mut out = vec![0u8; self.element_len - bytes.len()];
        out.append(&mut bytes);
        out
    }

    /// Parses a fixed-length big-endian group element, validating range.
    pub fn element_from_bytes(&self, bytes: &[u8]) -> Option<BigUint> {
        if bytes.len() != self.element_len {
            return None;
        }
        let e = BigUint::from_bytes_be(bytes);
        if e >= self.p || e.is_zero_ext() {
            None
        } else {
            Some(e)
        }
    }

    /// Derives a 256-bit symmetric key from a group element and a context
    /// label via HKDF-SHA256.
    pub fn derive_key(&self, e: &BigUint, context: &[u8]) -> [u8; 32] {
        let okm = hkdf(b"ppcs-ot-v1", &self.element_bytes(e), context, 32);
        okm.try_into().expect("hkdf returned requested length")
    }
}

// The engine is a function of `p` and `g`, so equality and the debug view
// cover the group's parameters only.
impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.g == other.g
    }
}

impl Eq for DhGroup {}

impl fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DhGroup")
            .field("p", &self.p)
            .field("q", &self.q)
            .field("g", &self.g)
            .field("element_len", &self.element_len)
            .finish()
    }
}

/// Tiny extension so `is_zero` does not collide with num-traits import
/// ambiguity at call sites.
trait IsZeroExt {
    fn is_zero_ext(&self) -> bool;
}

impl IsZeroExt for BigUint {
    fn is_zero_ext(&self) -> bool {
        use num_traits::Zero;
        self.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_parameters_are_sane() {
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            // p = 2q + 1
            assert_eq!(group.modulus(), &((group.order() << 1) + BigUint::one()));
            // p ≡ 7 (mod 8) makes g = 2 a quadratic residue: it generates
            // the order-q subgroup, so g^(q−x) inverts g^x.
            assert_eq!(
                group.generator().modpow(group.order(), group.modulus()),
                BigUint::one()
            );
        }
    }

    #[test]
    fn element_bytes_roundtrip() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let e = group.power_g(&group.random_exponent(&mut rng));
            let bytes = group.element_bytes(&e);
            assert_eq!(bytes.len(), group.element_len());
            assert_eq!(group.element_from_bytes(&bytes), Some(e));
        }
    }

    #[test]
    fn element_from_bytes_rejects_bad_input() {
        let group = DhGroup::modp_768();
        assert_eq!(group.element_from_bytes(&[1, 2, 3]), None);
        let too_big = group.element_bytes(&(group.modulus() - BigUint::one())); // p-1 ok
        assert!(group.element_from_bytes(&too_big).is_some());
        let zero = vec![0u8; group.element_len()];
        assert_eq!(group.element_from_bytes(&zero), None);
    }

    #[test]
    fn inverse_is_correct() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(3);
        let e = group.power_g(&group.random_exponent(&mut rng));
        let inv = group.inv_public(&e);
        assert_eq!(group.mul(&e, &inv), BigUint::one());
    }

    #[test]
    fn comb_tables_fit_in_64_kib() {
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            on_engine!(group, m => assert!(m.comb().table_bytes() <= 64 << 10));
        }
    }

    #[test]
    fn derived_keys_differ_by_context() {
        let group = DhGroup::modp_768();
        let e = group.power_g(&BigUint::from(12345u32));
        assert_ne!(group.derive_key(&e, b"a"), group.derive_key(&e, b"b"));
    }
}
