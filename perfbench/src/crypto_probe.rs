//! Timed calls into `ironsafe_crypto` on page-sized inputs: the per-page
//! cost of each primitive the secure pager and channel run, measured on
//! this host. Traced runs combine them with the pager's counters to
//! estimate the crypto share of a workload's wall time.

use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::hmac::hmac_sha256_concat;
use ironsafe_crypto::hmac512::hmac_sha512_trunc256;
use ironsafe_crypto::modes::{cbc_decrypt_aligned, cbc_encrypt_aligned, ctr_xor};
use ironsafe_storage::PAGE_PAYLOAD;
use std::hint::black_box;
use std::time::Instant;

/// Per-call costs in microseconds.
pub struct CryptoCosts {
    pub cbc_decrypt_us_page: f64,
    pub cbc_encrypt_us_page: f64,
    pub page_mac_us: f64,
    pub merkle_node_us: f64,
    pub ctr_us_kib: f64,
}

/// Median over `batches` of the mean cost of `iters` calls to `f`, in µs.
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    crate::stats::median(&batches)
}

pub fn measure() -> CryptoCosts {
    let aes = Aes128::new(&[0x42; 16]);
    let iv = [0x24u8; 16];
    // The pager encrypts the page payload rounded down to whole blocks.
    let len = PAGE_PAYLOAD - PAGE_PAYLOAD % 16;
    let mut page: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let mac_key = [0x5au8; 32];
    let node = [0x11u8; 32];
    let mut kib = [0x33u8; 1024];
    CryptoCosts {
        cbc_encrypt_us_page: time_us(200, || {
            cbc_encrypt_aligned(&aes, &iv, black_box(&mut page));
        }),
        cbc_decrypt_us_page: time_us(200, || {
            let _ = cbc_decrypt_aligned(&aes, &iv, black_box(&mut page));
        }),
        page_mac_us: time_us(200, || {
            black_box(hmac_sha512_trunc256(
                &mac_key,
                &[&0u64.to_be_bytes(), black_box(&page)],
            ));
        }),
        merkle_node_us: time_us(2000, || {
            black_box(hmac_sha256_concat(
                &mac_key,
                &[b"merkle-node", black_box(&node), &node],
            ));
        }),
        ctr_us_kib: time_us(500, || {
            ctr_xor(&aes, &iv, black_box(&mut kib));
        }),
    }
}
