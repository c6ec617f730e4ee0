//! AES-NI backend for the [`crate::modes`] kernels (x86-64 only).
//!
//! This is the one module of the workspace that may contain `unsafe`,
//! and it needs it for exactly one thing: calling the three
//! `#[target_feature(enable = "aes")]` kernels below from code compiled
//! without that feature. Inside the kernels the AES and SSE2 intrinsics
//! are safe to call, and blocks move in and out of registers through
//! `_mm_set_epi64x` / `_mm_cvtsi128_si64` on byte arrays, so no raw
//! pointer is ever dereferenced.
//!
//! The kernels produce ciphertext byte-identical to the portable
//! table-based code in [`crate::aes`]: same key schedule (the round keys
//! are taken from [`Aes128`]), same CBC chaining, same CTR counter
//! (low 32 bits, big-endian, wrapping). CBC decryption and CTR run four
//! independent blocks per step to fill the AES unit's pipeline; CBC
//! encryption is inherently serial.

use crate::aes::{Aes128, BLOCK};
use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64, _mm_xor_si128,
};
use std::sync::OnceLock;

/// Proof that the running CPU executes AES-NI. The only constructor is
/// [`AesNi::detect`], so holding one makes the kernel calls sound.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AesNi(());

impl AesNi {
    /// The backend handle if this CPU has AES-NI. The CPUID probe runs
    /// once per process.
    pub(crate) fn detect() -> Option<AesNi> {
        static HAS_AES: OnceLock<bool> = OnceLock::new();
        HAS_AES
            .get_or_init(|| is_x86_feature_detected!("aes"))
            .then_some(AesNi(()))
    }

    /// CBC-encrypt block-aligned `data` in place.
    pub(crate) fn cbc_encrypt(self, aes: &Aes128, iv: &[u8; BLOCK], data: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` found AES-NI on this CPU.
        unsafe { cbc_encrypt(aes, iv, data) }
    }

    /// CBC-decrypt block-aligned `data` in place.
    pub(crate) fn cbc_decrypt(self, aes: &Aes128, iv: &[u8; BLOCK], data: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` found AES-NI on this CPU.
        unsafe { cbc_decrypt(aes, iv, data) }
    }

    /// XOR `data` with the CTR keystream starting at `nonce`.
    pub(crate) fn ctr_xor(self, aes: &Aes128, nonce: &[u8; BLOCK], data: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` found AES-NI on this CPU.
        unsafe { ctr_xor(aes, nonce, data) }
    }
}

// Everything below is compiled for AES-NI: calling it on a CPU without
// the feature is undefined behaviour, so the only entry points are the
// `AesNi` methods above, whose token proves the CPU probe succeeded.

#[inline]
#[target_feature(enable = "aes")]
fn load(block: &[u8]) -> __m128i {
    let lo = i64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
    let hi = i64::from_le_bytes(block[8..BLOCK].try_into().expect("8 bytes"));
    _mm_set_epi64x(hi, lo)
}

#[inline]
#[target_feature(enable = "aes")]
fn store(x: __m128i, out: &mut [u8]) {
    out[..8].copy_from_slice(&_mm_cvtsi128_si64(x).to_le_bytes());
    out[8..BLOCK].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)).to_le_bytes());
}

#[inline]
#[target_feature(enable = "aes")]
fn enc_keys(aes: &Aes128) -> [__m128i; 11] {
    aes.round_keys().map(|rk| load(&rk))
}

/// Round keys of the equivalent inverse cipher (FIPS 197 §5.3.5), in
/// the order `aesdec` consumes them.
#[inline]
#[target_feature(enable = "aes")]
fn dec_keys(aes: &Aes128) -> [__m128i; 11] {
    let ek = enc_keys(aes);
    let mut dk = [ek[10]; 11];
    for r in 1..10 {
        dk[r] = _mm_aesimc_si128(ek[10 - r]);
    }
    dk[10] = ek[0];
    dk
}

#[inline]
#[target_feature(enable = "aes")]
fn encrypt1(k: &[__m128i; 11], x: __m128i) -> __m128i {
    let mut x = _mm_xor_si128(x, k[0]);
    for rk in &k[1..10] {
        x = _mm_aesenc_si128(x, *rk);
    }
    _mm_aesenclast_si128(x, k[10])
}

#[inline]
#[target_feature(enable = "aes")]
fn encrypt4(k: &[__m128i; 11], x: [__m128i; 4]) -> [__m128i; 4] {
    let mut x = x.map(|b| _mm_xor_si128(b, k[0]));
    for rk in &k[1..10] {
        x = x.map(|b| _mm_aesenc_si128(b, *rk));
    }
    x.map(|b| _mm_aesenclast_si128(b, k[10]))
}

#[inline]
#[target_feature(enable = "aes")]
fn decrypt1(dk: &[__m128i; 11], x: __m128i) -> __m128i {
    let mut x = _mm_xor_si128(x, dk[0]);
    for rk in &dk[1..10] {
        x = _mm_aesdec_si128(x, *rk);
    }
    _mm_aesdeclast_si128(x, dk[10])
}

#[inline]
#[target_feature(enable = "aes")]
fn decrypt4(dk: &[__m128i; 11], x: [__m128i; 4]) -> [__m128i; 4] {
    let mut x = x.map(|b| _mm_xor_si128(b, dk[0]));
    for rk in &dk[1..10] {
        x = x.map(|b| _mm_aesdec_si128(b, *rk));
    }
    x.map(|b| _mm_aesdeclast_si128(b, dk[10]))
}

#[target_feature(enable = "aes")]
fn cbc_encrypt(aes: &Aes128, iv: &[u8; BLOCK], data: &mut [u8]) {
    let k = enc_keys(aes);
    let mut prev = load(iv);
    for block in data.chunks_exact_mut(BLOCK) {
        prev = encrypt1(&k, _mm_xor_si128(load(block), prev));
        store(prev, block);
    }
}

#[target_feature(enable = "aes")]
fn cbc_decrypt(aes: &Aes128, iv: &[u8; BLOCK], data: &mut [u8]) {
    let dk = dec_keys(aes);
    let mut prev = load(iv);
    let mut quads = data.chunks_exact_mut(4 * BLOCK);
    for quad in &mut quads {
        let c = [0, 1, 2, 3].map(|i| load(&quad[i * BLOCK..]));
        let p = decrypt4(&dk, c);
        let chain = [prev, c[0], c[1], c[2]];
        for i in 0..4 {
            store(_mm_xor_si128(p[i], chain[i]), &mut quad[i * BLOCK..]);
        }
        prev = c[3];
    }
    for block in quads.into_remainder().chunks_exact_mut(BLOCK) {
        let c = load(block);
        store(_mm_xor_si128(decrypt1(&dk, c), prev), block);
        prev = c;
    }
}

#[target_feature(enable = "aes")]
fn ctr_xor(aes: &Aes128, nonce: &[u8; BLOCK], data: &mut [u8]) {
    let k = enc_keys(aes);
    let mut counter = *nonce;
    let mut low = u32::from_be_bytes(nonce[12..].try_into().expect("4 bytes"));
    let mut next_counter = || {
        counter[12..].copy_from_slice(&low.to_be_bytes());
        low = low.wrapping_add(1);
        load(&counter)
    };
    let mut keystream = [0u8; 4 * BLOCK];
    for chunk in data.chunks_mut(4 * BLOCK) {
        let ks = encrypt4(
            &k,
            [
                next_counter(),
                next_counter(),
                next_counter(),
                next_counter(),
            ],
        );
        for (i, x) in ks.into_iter().enumerate() {
            store(x, &mut keystream[i * BLOCK..]);
        }
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{portable, strip_pkcs7};
    use proptest::prelude::*;

    fn ni() -> Option<AesNi> {
        let ni = AesNi::detect();
        if ni.is_none() {
            eprintln!("no AES-NI on this CPU: hardware backend not exercised");
        }
        ni
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cbc_matches_portable(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; 16]>(),
            data in proptest::collection::vec(any::<u8>(), 0..13 * BLOCK),
        ) {
            let Some(ni) = ni() else { return Ok(()) };
            let aes = Aes128::new(&key);
            // 0..=12 blocks: every tail length behind the 4-block pipeline.
            let plain = &data[..data.len() / BLOCK * BLOCK];
            let (mut hw, mut sw) = (plain.to_vec(), plain.to_vec());
            ni.cbc_encrypt(&aes, &iv, &mut hw);
            portable::cbc_encrypt_aligned(&aes, &iv, &mut sw);
            prop_assert_eq!(&hw, &sw);
            ni.cbc_decrypt(&aes, &iv, &mut hw);
            portable::cbc_decrypt_aligned(&aes, &iv, &mut sw);
            prop_assert_eq!(&hw[..], plain);
            prop_assert_eq!(&sw[..], plain);
        }

        #[test]
        fn padded_cbc_decrypt_matches_portable(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; 16]>(),
            cipher in proptest::collection::vec(any::<u8>(), 0..6 * BLOCK),
            pad in 0u8..20,
        ) {
            // Random ciphertext mostly fails the padding check; forcing
            // the last plaintext byte through `pad` also reaches the
            // "bad padding bytes" and success paths.
            let aes = Aes128::new(&key);
            let mut cipher = cipher;
            if cipher.len() >= BLOCK && cipher.len() % BLOCK == 0 {
                let mut plain = cipher.clone();
                portable::cbc_decrypt_aligned(&aes, &iv, &mut plain);
                let n = plain.len();
                plain[n - 1] = pad;
                portable::cbc_encrypt_aligned(&aes, &iv, &mut plain);
                cipher = plain;
            }
            let expect = if cipher.is_empty() || cipher.len() % BLOCK != 0 {
                Err(crate::CryptoError::MalformedCiphertext("CBC length not block-aligned"))
            } else {
                let mut plain = cipher.clone();
                portable::cbc_decrypt_aligned(&aes, &iv, &mut plain);
                strip_pkcs7(plain)
            };
            prop_assert_eq!(crate::modes::cbc_decrypt(&aes, &iv, &cipher), expect);
        }

        #[test]
        fn ctr_matches_portable(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 16]>(),
            near_wrap in any::<bool>(),
            len in 0usize..200,
        ) {
            let Some(ni) = ni() else { return Ok(()) };
            let aes = Aes128::new(&key);
            let mut nonce = nonce;
            if near_wrap {
                // Low counter word a few blocks short of wrapping.
                nonce[12..].copy_from_slice(&(u32::MAX - (len as u32 % 7)).to_be_bytes());
            }
            let plain: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let (mut hw, mut sw) = (plain.clone(), plain);
            ni.ctr_xor(&aes, &nonce, &mut hw);
            portable::ctr_xor(&aes, &nonce, &mut sw);
            prop_assert_eq!(hw, sw);
        }
    }

    #[test]
    fn page_sized_cbc_matches_portable() {
        let Some(ni) = ni() else { return };
        let aes = Aes128::new(&[0x42; 16]);
        let page: Vec<u8> = (0..4048).map(|i| (i * 7 + 3) as u8).collect();
        let (mut hw, mut sw) = (page.clone(), page.clone());
        ni.cbc_encrypt(&aes, &[9; 16], &mut hw);
        portable::cbc_encrypt_aligned(&aes, &[9; 16], &mut sw);
        assert_eq!(hw, sw);
        ni.cbc_decrypt(&aes, &[9; 16], &mut hw);
        assert_eq!(hw, page);
    }
}
