//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC is the workhorse MAC of IronSafe: it authenticates encrypted pages,
//! forms Merkle-tree nodes, binds the Merkle root to the RPMB, and keys the
//! simulated hardware attestation responses.

use crate::ct::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA256.
///
/// Both pads are absorbed at construction, so a long-lived key is
/// expanded once: keep a keyed instance and `clone` it per message.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer hash with the key XORed with the opad already absorbed.
    outer: Sha256,
}

impl HmacSha256 {
    /// Create an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Tag of the concatenation of `parts` under this instance's key,
    /// leaving `self` untouched for the next message.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = self.clone();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Verify `tag` against the absorbed message in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        let computed = self.finalize();
        tag.len() == DIGEST_LEN && ct_eq(&computed, tag)
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    h.update(data);
    h.finalize()
}

/// One-shot HMAC over the concatenation of `parts`.
pub fn hmac_sha256_concat(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    HmacSha256::new(key).mac_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_correct_and_rejects_wrong() {
        let tag = hmac_sha256(b"k", b"msg");
        let mut h = HmacSha256::new(b"k");
        h.update(b"msg");
        assert!(h.verify(&tag));

        let mut bad = tag;
        bad[0] ^= 1;
        let mut h = HmacSha256::new(b"k");
        h.update(b"msg");
        assert!(!h.verify(&bad));

        let mut h = HmacSha256::new(b"k");
        h.update(b"msg");
        assert!(!h.verify(&tag[..31]), "short tag must be rejected");
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn keyed_instance_is_reusable() {
        let keyed = HmacSha256::new(b"key");
        assert_eq!(keyed.mac_parts(&[b"ab", b"cd"]), hmac_sha256(b"key", b"abcd"));
        assert_eq!(keyed.mac_parts(&[b"xyz"]), hmac_sha256(b"key", b"xyz"));
        assert_eq!(keyed.mac_parts(&[b"ab", b"cd"]), hmac_sha256(b"key", b"abcd"));
    }

    #[test]
    fn concat_equals_contiguous() {
        assert_eq!(
            hmac_sha256_concat(b"key", &[b"ab", b"cd"]),
            hmac_sha256(b"key", b"abcd")
        );
    }
}
