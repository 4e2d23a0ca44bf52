//! The Montgomery engine behind `DhGroup` checked against `num-bigint`'s
//! `modpow`, multiplication and remainder: random inputs and the edge
//! cases of the fixed-window and comb code, on both groups. MODP-2048
//! gets fewer cases, since the oracle is slow there.

use num_bigint::BigUint;
use ppcs_crypto::DhGroup;
use proptest::prelude::*;

fn groups() -> [&'static DhGroup; 2] {
    [DhGroup::modp_768(), DhGroup::modp_2048()]
}

fn big(n: u64) -> BigUint {
    BigUint::from(n)
}

/// Bases 1, 2, p − 2 and p − 1.
fn edge_bases(group: &DhGroup) -> Vec<BigUint> {
    let p = group.modulus();
    vec![big(1), big(2), p - big(2), p - big(1)]
}

/// Exponents 0, 1, q − 2 and q − 1, one whose top windows are all zero,
/// and the all-ones exponent of the full engine width.
fn edge_exponents(group: &DhGroup) -> Vec<BigUint> {
    let q = group.order();
    let full = (big(1) << (8 * group.element_len())) - big(1);
    vec![big(0), big(1), q - big(2), q - big(1), big(0xF00D), full]
}

#[test]
fn exp_matches_oracle_on_edge_cases() {
    for group in groups() {
        let p = group.modulus();
        let exps = edge_exponents(group);
        // MODP-2048 pairs every base with a subset of the exponents.
        let take = if p.bits() > 1024 { 3 } else { exps.len() };
        for base in edge_bases(group) {
            for e in exps.iter().rev().take(take) {
                assert_eq!(group.exp(&base, e), base.modpow(e, p), "{base}^{e}");
            }
        }
    }
}

#[test]
fn power_g_matches_oracle_on_edge_cases() {
    for group in groups() {
        let p = group.modulus();
        for e in edge_exponents(group) {
            assert_eq!(group.power_g(&e), group.generator().modpow(&e, p), "g^{e}");
        }
    }
}

#[test]
fn mul_and_inv_public_match_oracle_on_edge_cases() {
    for group in groups() {
        let p = group.modulus();
        let bases = edge_bases(group);
        for a in &bases {
            for b in &bases {
                assert_eq!(group.mul(a, b), (a * b) % p, "{a} * {b}");
            }
            let inv = group.inv_public(a);
            assert_eq!((a * &inv) % p, big(1), "{a} · {a}⁻¹");
            assert_eq!(inv, a.modpow(&(p - big(2)), p), "Fermat agrees for {a}");
        }
    }
}

#[test]
fn inputs_wider_than_the_modulus_are_reduced() {
    let group = DhGroup::modp_768();
    let p = group.modulus();
    let wide = (big(1) << 1000usize) + big(12345);
    assert_eq!(group.mul(&wide, &big(3)), (&wide * big(3)) % p);
    assert_eq!(group.exp(&wide, &big(7)), wide.modpow(&big(7), p));
    assert_eq!(group.exp(&big(5), &wide), big(5).modpow(&wide, p));
    assert_eq!(group.power_g(&wide), group.generator().modpow(&wide, p));
    assert_eq!(group.inv_public(&(p + big(2))), group.inv_public(&big(2)));
    // A wide exponent that is a multiple of p − 1 leaves 0 at 0.
    let multiple = (p - big(1)) << 300usize;
    assert_eq!(group.exp(&big(0), &multiple), big(0));
    assert_eq!(group.exp(&big(9), &multiple), big(1));
}

#[test]
#[should_panic(expected = "zero has no inverse")]
fn inv_public_rejects_zero() {
    let group = DhGroup::modp_768();
    group.inv_public(group.modulus());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn modp768_ops_match_oracle(
        base in prop::collection::vec(any::<u8>(), 96),
        other in prop::collection::vec(any::<u8>(), 96),
        // Short exponents leave the top windows and comb teeth zero.
        e in prop::collection::vec(any::<u8>(), 0..=96),
    ) {
        let group = DhGroup::modp_768();
        let p = group.modulus();
        let a = BigUint::from_bytes_be(&base) % p;
        let b = BigUint::from_bytes_be(&other) % p;
        let e = BigUint::from_bytes_be(&e);
        prop_assert_eq!(group.exp(&a, &e), a.modpow(&e, p));
        prop_assert_eq!(group.power_g(&e), group.generator().modpow(&e, p));
        prop_assert_eq!(group.mul(&a, &b), (&a * &b) % p);
        if a != big(0) {
            prop_assert_eq!((&a * group.inv_public(&a)) % p, big(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn modp2048_ops_match_oracle(
        base in prop::collection::vec(any::<u8>(), 256),
        e in prop::collection::vec(any::<u8>(), 0..=256),
    ) {
        let group = DhGroup::modp_2048();
        let p = group.modulus();
        let a = BigUint::from_bytes_be(&base) % p;
        let e = BigUint::from_bytes_be(&e);
        prop_assert_eq!(group.exp(&a, &e), a.modpow(&e, p));
        prop_assert_eq!(group.power_g(&e), group.generator().modpow(&e, p));
        prop_assert_eq!(group.mul(&a, &a), (&a * &a) % p);
        if a != big(0) {
            prop_assert_eq!((&a * group.inv_public(&a)) % p, big(1));
        }
    }
}
