//! SQL engine operator benchmarks: scan, filter, hash join, aggregate
//! and the end-to-end partitioner.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ironsafe_csa::partition::{partition_select, OffloadDecision};
use ironsafe_sql::ast::Statement;
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::{Database, Schema};
use ironsafe_storage::pager::PlainPager;
use ironsafe_tpch::{generate, load_into};

fn loaded_db() -> Database {
    let data = generate(0.002, 9);
    let mut db = Database::new(PlainPager::new());
    load_into(&mut db, &data).unwrap();
    db
}

fn bench_operators(c: &mut Criterion) {
    let mut db = loaded_db();
    let rows = db.catalog().table("lineitem").unwrap().heap.row_count;
    let mut g = c.benchmark_group("sql");
    g.sample_size(20);
    g.throughput(Throughput::Elements(rows));

    g.bench_function("scan_lineitem", |b| {
        b.iter(|| db.execute("SELECT COUNT(*) FROM lineitem").unwrap())
    });
    g.bench_function("filter_lineitem", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM lineitem WHERE l_shipdate < '1995-01-01' AND l_discount > 0.05")
                .unwrap()
        })
    });
    g.bench_function("agg_group_by", |b| {
        b.iter(|| {
            db.execute("SELECT l_returnflag, SUM(l_quantity), AVG(l_extendedprice) FROM lineitem GROUP BY l_returnflag")
                .unwrap()
        })
    });
    g.bench_function("hash_join_orders", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey")
                .unwrap()
        })
    });
    g.bench_function("sort_limit", |b| {
        b.iter(|| {
            db.execute("SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10")
                .unwrap()
        })
    });
    g.finish();
}

fn bench_parse_and_partition(c: &mut Criterion) {
    let q3 = "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
              o_orderdate, o_shippriority FROM customer, orders, lineitem \
              WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
              AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' \
              AND l_shipdate > '1995-03-15' \
              GROUP BY l_orderkey, o_orderdate, o_shippriority \
              ORDER BY revenue DESC, o_orderdate LIMIT 10";
    c.bench_function("parse_q3", |b| b.iter(|| parse_statement(std::hint::black_box(q3)).unwrap()));

    let db = loaded_db();
    let sel = match parse_statement(q3).unwrap() {
        Statement::Select(s) => s,
        _ => unreachable!(),
    };
    let lookup = |name: &str| -> Option<Schema> {
        db.catalog().table(name).ok().map(|t| t.schema.clone())
    };
    c.bench_function("partition_q3", |b| {
        b.iter(|| {
            partition_select(std::hint::black_box(&sel), &lookup, &|_, _| OffloadDecision::Offload)
        })
    });
}

criterion_group!(benches, bench_operators, bench_parse_and_partition);
criterion_main!(benches);
