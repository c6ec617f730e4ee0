//! Page-stable DML on the journaled write path: an UPDATE or DELETE
//! re-encrypts, MACs, retains and WAL-logs only the pages that held a
//! matching row, not the whole table.

use ironsafe_csa::cost::CostParams;
use ironsafe_csa::system::{CsaSystem, SystemConfig};
use ironsafe_csa::SharedCsaSystem;
use ironsafe_obs::Registry;
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::value::Value;
use ironsafe_storage::BLOCK_SIZE;

const KEY: [u8; 32] = [5u8; 32];

/// SF 0.002 TPC-H behind a WAL at group size 1, with the base pager's
/// and the write path's counters in one registry.
fn journaled() -> (SharedCsaSystem, Registry, ironsafe_tpch::TpchData) {
    let data = ironsafe_tpch::generate(0.002, 42);
    let sys = CsaSystem::build(
        SystemConfig::StorageOnlySecure,
        &data,
        CostParams::default(),
    )
    .expect("system builds");
    let shared = SharedCsaSystem::new(sys);
    shared.set_group_size(1);
    shared.attach_wal(0xD11).expect("secure base journals");
    let registry = Registry::new();
    shared.register_wal_metrics(&registry);
    shared.with_system(|s| s.storage_db().register_metrics(&registry));
    (shared, registry, data)
}

/// Indices of the `orders` pages holding a row that satisfies `pred`.
fn orders_pages_where(shared: &SharedCsaSystem, pred: impl Fn(&[Value]) -> bool) -> Vec<usize> {
    shared.with_system(|s| {
        let db = s.storage_db();
        let info = db.catalog().table("orders").unwrap();
        let ncols = info.schema.len();
        (0..info.heap.pages.len())
            .filter(|&i| {
                info.heap
                    .read_page_rows(db.pager(), i, ncols)
                    .unwrap()
                    .iter()
                    .any(|r| pred(r))
            })
            .collect()
    })
}

#[test]
fn one_row_update_writes_and_logs_one_page() {
    let (shared, registry, data) = journaled();
    let npages = orders_pages_where(&shared, |_| true).len();
    assert!(npages > 10, "orders spans many pages ({npages})");
    let key = match data.orders[data.orders.len() / 2][0] {
        Value::Int(k) => k,
        ref v => panic!("o_orderkey is an int, got {v:?}"),
    };
    let catalog_len =
        shared.with_system(|s| ironsafe_sql::meta::encode_catalog(s.storage_db().catalog()).len());

    let before = registry.snapshot();
    let stmt = parse_statement(&format!(
        "UPDATE orders SET o_comment = 'page-stable' WHERE o_orderkey = {key}"
    ))
    .unwrap();
    shared.run_statement(&stmt, KEY).unwrap();
    let after = registry.snapshot();
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap_or(0);

    assert_eq!(delta("storage.page.write"), 1, "one page re-encrypted");
    assert_eq!(delta("mvcc.retain"), 1, "one pre-image retained");
    assert_eq!(delta("wal.append"), 1, "one commit record");
    // tag ‖ epoch ‖ root ‖ n ‖ one (id ‖ block) post-image ‖ catalog,
    // CBC-padded, framed with length ‖ IV ‖ chain MAC.
    let plain = 1 + 8 + 32 + 4 + (8 + BLOCK_SIZE) + 4 + catalog_len;
    let frame = 4 + 16 + (plain / 16 + 1) * 16 + 32;
    assert_eq!(
        delta("wal.append.bytes"),
        frame as u64,
        "the record carries one post-image"
    );

    let read = parse_statement(&format!(
        "SELECT o_comment FROM orders WHERE o_orderkey = {key}"
    ))
    .unwrap();
    let (report, _) = shared.run_statement(&read, KEY).unwrap();
    assert_eq!(
        report.result.rows(),
        &[vec![Value::Text("page-stable".into())]]
    );
}

#[test]
fn delete_writes_only_pages_with_matching_rows() {
    let (shared, registry, data) = journaled();
    let cust = data.orders[7][1].clone();
    let holding = orders_pages_where(&shared, |r| r[1] == cust);
    let npages = orders_pages_where(&shared, |_| true).len();
    assert!(!holding.is_empty() && holding.len() < npages);
    let matching = data.orders.iter().filter(|r| r[1] == cust).count() as u64;

    let before = registry.snapshot();
    let Value::Int(c) = cust else {
        panic!("o_custkey is an int")
    };
    let stmt = parse_statement(&format!("DELETE FROM orders WHERE o_custkey = {c}")).unwrap();
    let (report, _) = shared.run_statement(&stmt, KEY).unwrap();
    let after = registry.snapshot();
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap_or(0);

    assert_eq!(report.result.rows().len(), 0);
    assert_eq!(delta("storage.page.write"), holding.len() as u64);
    assert_eq!(delta("mvcc.retain"), holding.len() as u64);

    let count = parse_statement("SELECT COUNT(*) FROM orders").unwrap();
    let (report, _) = shared.run_statement(&count, KEY).unwrap();
    assert_eq!(
        report.result.rows()[0][0],
        Value::Int((data.orders.len() as u64 - matching) as i64)
    );
}
