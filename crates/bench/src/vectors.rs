//! The `paperbench vectors` harness: the vectorized engine over raw vs
//! compressed pages, exported as the `BENCH_8.json` snapshot.
//!
//! The snapshot's `"invariants"` block holds only quantities the engine
//! pins deterministically: one cell per (query, storage format) with the
//! simulated total, physical pager counters and a result digest — the
//! digest is identical across both formats (compression never changes
//! the answer). A `"reductions"` array derives the compress-before-encrypt
//! dividend per query: encrypted bytes and MAC verifications saved on
//! the scan path. It is byte-deterministic, so `--check` regenerates it
//! and compares it byte for byte against the committed file (the
//! vectorization regression gate).

use crate::figures::SEED;
use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_tpch::generate;
use ironsafe_tpch::queries::PaperQuery;

/// Default scale factor for the deterministic invariants sweep.
pub const VECTORS_SF: f64 = 0.002;

/// One (query, storage format) cell of the sweep.
#[derive(Debug, Clone)]
pub struct VectorCell {
    /// TPC-H query id.
    pub query_id: u8,
    /// Compress-before-encrypt pages, or the raw page store.
    pub compressed: bool,
    /// Simulated total.
    pub total_ns: f64,
    /// Physical page reads during the query.
    pub pages_read: u64,
    /// Physical decrypt+MAC-verify operations during the query.
    pub decrypts: u64,
    /// Merkle nodes visited during the query.
    pub merkle_nodes: u64,
    /// Result rows.
    pub rows: u64,
    /// SHA-256 (truncated) over the rendered result rows.
    pub result_digest: String,
}

/// The compress-before-encrypt dividend for one query's scan path.
#[derive(Debug, Clone)]
pub struct CompressionDividend {
    /// TPC-H query id.
    pub query_id: u8,
    /// Encrypted bytes read (decrypts × physical payload), raw pages.
    pub encrypted_bytes_raw: u64,
    /// Encrypted bytes read, compressed pages.
    pub encrypted_bytes_compressed: u64,
    /// Percentage of MAC verifications (and encrypted bytes — same
    /// physical block size) saved by compression.
    pub mac_reduction_pct: f64,
}

fn digest(result: &ironsafe_sql::QueryResult) -> String {
    let rendered = format!("{result:?}");
    let hash = ironsafe_crypto::sha256::sha256(rendered.as_bytes());
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}

fn paper_query(id: u8) -> PaperQuery {
    ironsafe_tpch::queries::query(id).expect("known query")
}

/// Run the deterministic sweep on IronSafe (scs): every query id over
/// {raw, compressed} pages, asserting the parity contract as it goes,
/// and derive the per-query compression dividend.
pub fn vectors_sweep(sf: f64, ids: &[u8]) -> (Vec<VectorCell>, Vec<CompressionDividend>) {
    let data = generate(sf, SEED);
    let payload = ironsafe_storage::PAGE_PAYLOAD as u64;
    let mut cells = Vec::new();
    for compressed in [false, true] {
        let mut sys = CsaSystem::build_with_compression(
            SystemConfig::IronSafe,
            &data,
            CostParams::default(),
            compressed,
        )
        .expect("system builds");
        for &id in ids {
            let q = paper_query(id);
            let before = sys.storage_db().pager_stats();
            let report = sys
                .run_query(&q)
                .unwrap_or_else(|e| panic!("Q{id} compressed={compressed}: {e}"));
            let after = sys.storage_db().pager_stats();
            cells.push(VectorCell {
                query_id: id,
                compressed,
                total_ns: report.breakdown.total_ns(),
                pages_read: after.page_reads - before.page_reads,
                decrypts: after.decrypts - before.decrypts,
                merkle_nodes: after.merkle_nodes - before.merkle_nodes,
                rows: report.result.rows().len() as u64,
                result_digest: digest(&report.result),
            });
        }
    }

    // The contract, enforced inside the harness: one digest per query
    // across both storage formats.
    let mut dividends = Vec::new();
    for &id in ids {
        let of = |compressed: bool| {
            cells.iter().find(|c| c.query_id == id && c.compressed == compressed).expect("cell")
        };
        let (sr, sc) = (of(false), of(true));
        assert_eq!(sc.result_digest, sr.result_digest, "Q{id}: compression changed the result");
        let reduction = 100.0 * (1.0 - sc.decrypts as f64 / sr.decrypts.max(1) as f64);
        assert!(
            reduction >= 30.0,
            "Q{id}: compression saved only {reduction:.1}% of MACs (need >= 30%)"
        );
        dividends.push(CompressionDividend {
            query_id: id,
            encrypted_bytes_raw: sr.decrypts * payload,
            encrypted_bytes_compressed: sc.decrypts * payload,
            mac_reduction_pct: reduction,
        });
    }
    (cells, dividends)
}

/// The byte-deterministic `"invariants"` JSON block (also embedded
/// verbatim in [`vectors_json`]) — what the `--check` gate compares.
pub fn vectors_invariants_json(
    sf: f64,
    cells: &[VectorCell],
    dividends: &[CompressionDividend],
) -> String {
    let mut s = String::from("  \"invariants\": {\n");
    s.push_str(&format!("    \"sf\": {sf},\n    \"seed\": {SEED},\n    \"cells\": [\n"));
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"query_id\":{},\"compressed\":{},\"total_ns\":{},\
             \"pages_read\":{},\"decrypts\":{},\"merkle_nodes\":{},\"rows\":{},\"result_digest\":\"{}\"}}{}\n",
            c.query_id,
            c.compressed,
            c.total_ns,
            c.pages_read,
            c.decrypts,
            c.merkle_nodes,
            c.rows,
            c.result_digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("    ],\n    \"reductions\": [\n");
    for (i, d) in dividends.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"query_id\":{},\"encrypted_bytes_raw\":{},\"encrypted_bytes_compressed\":{},\
             \"mac_reduction_pct\":{:.2}}}{}\n",
            d.query_id,
            d.encrypted_bytes_raw,
            d.encrypted_bytes_compressed,
            d.mac_reduction_pct,
            if i + 1 == dividends.len() { "" } else { "," }
        ));
    }
    s.push_str("    ]\n  }");
    s
}

/// The full `BENCH_8.json` snapshot: the invariants block, wrapped.
pub fn vectors_json(sf: f64, cells: &[VectorCell], dividends: &[CompressionDividend]) -> String {
    format!("{{\n{}\n}}\n", vectors_invariants_json(sf, cells, dividends))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_obs::export::looks_like_valid_json;

    #[test]
    fn invariants_block_is_deterministic_and_gate_compatible() {
        let (cells_a, div_a) = vectors_sweep(VECTORS_SF, &[6]);
        let (cells_b, div_b) = vectors_sweep(VECTORS_SF, &[6]);
        let a = vectors_invariants_json(VECTORS_SF, &cells_a, &div_a);
        let b = vectors_invariants_json(VECTORS_SF, &cells_b, &div_b);
        assert_eq!(a, b, "invariants block must be byte-deterministic");
        let full = vectors_json(VECTORS_SF, &cells_a, &div_a);
        assert!(looks_like_valid_json(&full), "{full}");
        assert!(full.contains(&a), "snapshot must embed the invariants block verbatim");
    }
}
