//! Microbenchmarks for the cryptographic primitives (cost-model inputs:
//! the per-page decrypt/HMAC costs of Figures 8 and 9c derive from these).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::group::Group;
use ironsafe_crypto::hmac::hmac_sha256;
use ironsafe_crypto::modes::{cbc_decrypt_aligned, cbc_encrypt_aligned, ctr_xor};
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_crypto::sha256::sha256;
use rand::SeedableRng;

const PAGE: usize = 4096;

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    let page = vec![0xabu8; PAGE];
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("page_4k", |b| b.iter(|| sha256(std::hint::black_box(&page))));
    g.finish();

    let mut g = c.benchmark_group("hmac_sha256");
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("page_4k", |b| b.iter(|| hmac_sha256(b"key", std::hint::black_box(&page))));
    g.throughput(Throughput::Bytes(64));
    g.bench_function("merkle_node_64b", |b| {
        let node = [0u8; 64];
        b.iter(|| hmac_sha256(b"key", std::hint::black_box(&node)))
    });
    g.finish();

    let mut g = c.benchmark_group("hmac_sha512");
    let page = vec![0xabu8; PAGE];
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("page_4k", |b| {
        b.iter(|| ironsafe_crypto::hmac512::hmac_sha512(b"key", std::hint::black_box(&page)))
    });
    g.finish();
}

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new(&[7; 16]);
    let mut g = c.benchmark_group("aes128");
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("cbc_encrypt_page", |b| {
        b.iter_batched(
            || vec![0x5au8; PAGE],
            |mut page| cbc_encrypt_aligned(&aes, &[1; 16], &mut page),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cbc_decrypt_page", |b| {
        let mut ct = vec![0x5au8; PAGE];
        cbc_encrypt_aligned(&aes, &[1; 16], &mut ct);
        b.iter_batched(
            || ct.clone(),
            |mut page| cbc_decrypt_aligned(&aes, &[1; 16], &mut page).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("ctr_page", |b| {
        b.iter_batched(
            || vec![0x5au8; PAGE],
            |mut page| ctr_xor(&aes, &[1; 16], &mut page),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let group = Group::modp_1024();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(&group, &mut rng);
    let sig = kp.secret.sign(b"attestation quote", &mut rng);
    let mut g = c.benchmark_group("schnorr_1024");
    g.sample_size(20);
    g.bench_function("sign", |b| b.iter(|| kp.secret.sign(std::hint::black_box(b"quote"), &mut rng)));
    g.bench_function("verify", |b| {
        b.iter(|| kp.public.verify(&group, b"attestation quote", std::hint::black_box(&sig)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_hash, bench_aes, bench_schnorr);
criterion_main!(benches);
