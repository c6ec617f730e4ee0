//! Full-suite golden: every paper query on the non-secure host-only
//! baseline (`hons`) and on IronSafe (`scs`) at SF 0.002 must keep its
//! result digest, simulated total and pager-stats delta.
//!
//! The pinned values are the outputs of the row-at-a-time `SeqScan`
//! pipeline, so they prove the vectorized morsel read path reproduces
//! it on all 17 queries, not just the Q1/Q6 pair the parity tests
//! cover; any drift in rows, in the cost model's inputs or in the secure
//! pager's work counters shows up here.

use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_tpch::queries::paper_queries;

/// `(config, query id, digest, total_ns, page_reads, decrypts, merkle_nodes)`.
type Golden = (&'static str, u8, &'static str, f64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("hons", 1, "89d626089afd1eee", 10290499.44, 573, 0, 0),
    ("hons", 2, "868420e33d4ed817", 2557164.0, 50, 0, 0),
    ("hons", 3, "1a27ecae97300109", 18329810.08, 686, 0, 0),
    ("hons", 4, "3faa723509518a5d", 15294970.719999999, 674, 0, 0),
    ("hons", 5, "ff1a11db8d4e94ab", 26658239.92, 689, 0, 0),
    ("hons", 6, "843a05855b800017", 8138419.4399999995, 573, 0, 0),
    ("hons", 7, "f238d9c31ec7f8c0", 20739857.28, 676, 0, 0),
    ("hons", 8, "b9177fed65e726e2", 24034986.48, 691, 0, 0),
    ("hons", 9, "99b7d8aab6bb084d", 29345191.44, 723, 0, 0),
    ("hons", 10, "e63d693d8006664c", 21108953.36, 687, 0, 0),
    ("hons", 12, "0b742fcf0c4b1500", 15294970.719999999, 674, 0, 0),
    ("hons", 13, "2bca5436657f69ba", 3674517.84, 103, 0, 0),
    ("hons", 14, "eff500a17cc8e6e6", 10637448.64, 588, 0, 0),
    ("hons", 16, "7beeb9da38284129", 1764974.16, 47, 0, 0),
    ("hons", 18, "c58e7bc95c34cbb1", 21097073.36, 687, 0, 0),
    ("hons", 19, "b41fcc50af114185", 10637448.64, 588, 0, 0),
    ("hons", 21, "81a4a0834fda3cc3", 20739857.28, 676, 0, 0),
    ("scs", 1, "89d626089afd1eee", 18653214.319999997, 573, 573, 2305),
    ("scs", 2, "868420e33d4ed817", 5425746.13, 50, 50, 218),
    ("scs", 3, "1a27ecae97300109", 16719823.24, 686, 686, 995),
    ("scs", 4, "3faa723509518a5d", 14511290.15, 674, 674, 674),
    ("scs", 5, "ff1a11db8d4e94ab", 31402991.639999997, 689, 689, 689),
    ("scs", 6, "843a05855b800017", 4552411.12, 573, 573, 573),
    ("scs", 7, "f238d9c31ec7f8c0", 16845141.810000002, 676, 676, 676),
    ("scs", 8, "b9177fed65e726e2", 29469170.169999998, 691, 691, 691),
    ("scs", 9, "99b7d8aab6bb084d", 39672484.660000004, 723, 723, 723),
    ("scs", 10, "e63d693d8006664c", 16305553.41, 687, 687, 687),
    ("scs", 12, "0b742fcf0c4b1500", 8846120.030000001, 674, 674, 674),
    ("scs", 13, "2bca5436657f69ba", 5545587.5, 101, 101, 101),
    ("scs", 14, "eff500a17cc8e6e6", 5502938.94, 588, 588, 588),
    ("scs", 16, "7beeb9da38284129", 3305630.65, 47, 47, 47),
    ("scs", 18, "c58e7bc95c34cbb1", 28201845.639999997, 686, 686, 686),
    ("scs", 19, "b41fcc50af114185", 6264356.84, 588, 588, 588),
    ("scs", 21, "81a4a0834fda3cc3", 22629288.9, 676, 676, 676),
];

fn digest(result: &ironsafe_sql::QueryResult) -> String {
    let rendered = format!("{result:?}");
    let hash = ironsafe_crypto::sha256::sha256(rendered.as_bytes());
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}

fn observe() -> Vec<(String, u8, String, f64, u64, u64, u64)> {
    let data = ironsafe_tpch::generate(0.002, 42);
    let mut out = Vec::new();
    for config in [SystemConfig::HostOnlyNonSecure, SystemConfig::IronSafe] {
        let mut sys = CsaSystem::build(config, &data, CostParams::default()).unwrap();
        for q in paper_queries() {
            let before = sys.storage_db().pager_stats();
            let report = sys.run_query(&q).unwrap();
            let after = sys.storage_db().pager_stats();
            out.push((
                config.abbrev().to_string(),
                q.id,
                digest(&report.result),
                report.breakdown.total_ns(),
                after.page_reads - before.page_reads,
                after.decrypts - before.decrypts,
                after.merkle_nodes - before.merkle_nodes,
            ));
        }
    }
    out
}

#[test]
fn every_paper_query_matches_its_pinned_golden() {
    let observed = observe();
    assert_eq!(observed.len(), GOLDEN.len(), "one golden per (config, query)");
    for (o, g) in observed.iter().zip(GOLDEN) {
        let tag = format!("{} q{}", g.0, g.1);
        assert_eq!((o.0.as_str(), o.1), (g.0, g.1), "{tag}: suite order");
        assert_eq!(o.2, g.2, "{tag}: result digest");
        assert_eq!(o.3, g.3, "{tag}: simulated total_ns");
        assert_eq!((o.4, o.5, o.6), (g.4, g.5, g.6), "{tag}: page_reads/decrypts/merkle_nodes");
    }
}
