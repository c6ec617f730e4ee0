//! # ironsafe-crypto
//!
//! From-scratch cryptographic primitives used throughout IronSafe.
//!
//! The paper's implementation leans on OpenSSL (via SQLCipher) for page
//! encryption and on vendor-provided attestation keys. To keep this
//! reproduction self-contained, every primitive the system needs is
//! implemented here:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4).
//! * [`sha512`] / [`hmac512`] — SHA-512 and HMAC-SHA512; the paper's page
//!   MACs are HMAC-SHA512 (via SQLCipher), which the page codec stores
//!   truncated to 32 bytes.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) used for Merkle nodes and
//!   RPMB authentication.
//! * [`hkdf`] — HKDF-SHA256 (RFC 5869) used to derive per-purpose keys from
//!   the hardware-unique key and session secrets.
//! * [`aes`] — AES-128 block cipher with [`modes`] CTR and CBC, used for
//!   page encryption (CBC + per-page IV, mirroring SQLCipher), the WAL
//!   (CBC), channel records and sealed blobs (CTR).
//! * [`bignum`] / [`group`] / [`schnorr`] — a little-endian big-unsigned
//!   integer with Montgomery multiplication, classic MODP groups, and
//!   Schnorr signatures used for attestation quotes and certificate chains.
//! * [`cert`] — a minimal X.509-like certificate chain model rooted in a
//!   manufacturer key (the TrustZone ROTPK) or an attestation service key.
//!
//! ## AES backends and the `unsafe` boundary
//!
//! The [`modes`] functions pick their AES backend once per process. On
//! x86-64 CPUs that report AES-NI (`is_x86_feature_detected!("aes")`) the
//! CBC and CTR kernels run on the AES instructions, four blocks at a time
//! for CBC decryption and CTR; everywhere else they run the portable
//! byte-oriented code in [`aes`]. Both produce byte-identical output
//! (the tests run both backends side by side on every AES-NI host), so
//! nothing stored on a medium depends on which one ran.
//!
//! The crate denies `unsafe_code`; the private `aesni` module is the one
//! exception in the workspace. Its only `unsafe` is the three calls from
//! ordinary code into its `#[target_feature(enable = "aes")]` kernels,
//! guarded by a token that only the CPU probe hands out. A workspace test
//! fails if `unsafe` appears anywhere else.
//!
//! The portable fallback still indexes S-box tables with secret bytes, so
//! it is open to cache-timing attacks; the AES-NI path has no
//! secret-dependent memory access. The hash, HMAC and bignum code is a
//! faithful model for a simulated platform, not hardened against side
//! channels; the algorithms are the real ones, verified against published
//! test vectors in the unit tests.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aesni;
pub mod bignum;
pub mod cert;
pub mod ct;
pub mod group;
pub mod hkdf;
pub mod hmac;
pub mod hmac512;
pub mod modes;
pub mod schnorr;
pub mod sha256;
pub mod sha512;

pub use aes::Aes128;
pub use bignum::BigUint;
pub use cert::{Certificate, CertificateChain, SubjectInfo};
pub use ct::ct_eq;
pub use group::Group;
pub use hkdf::hkdf_sha256;
pub use hmac::HmacSha256;
pub use hmac512::HmacSha512;
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
pub use sha256::Sha256;
pub use sha512::Sha512;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A MAC or signature failed verification.
    VerificationFailed,
    /// Ciphertext was malformed (wrong length, missing IV, bad padding...).
    MalformedCiphertext(&'static str),
    /// A key had the wrong length or was otherwise unusable.
    InvalidKey(&'static str),
    /// A certificate chain failed validation.
    InvalidCertificate(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::MalformedCiphertext(m) => write!(f, "malformed ciphertext: {m}"),
            CryptoError::InvalidKey(m) => write!(f, "invalid key: {m}"),
            CryptoError::InvalidCertificate(m) => write!(f, "invalid certificate: {m}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience alias for fallible crypto operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
