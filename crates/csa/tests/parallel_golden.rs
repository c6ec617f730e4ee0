//! Golden parity: parallel execution must be invisible in every
//! simulated observable.
//!
//! For each Table 2 configuration, running the same queries at DOP 1 and
//! DOP 4 must produce bit-identical rows, bit-identical simulated
//! [`CostBreakdown`]s, and field-wise identical [`PagerStats`] deltas.
//! Parallelism buys wall-clock time only.

use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_storage::pager::PagerStats;
use ironsafe_tpch::queries::query;

fn stats_delta(before: PagerStats, after: PagerStats) -> PagerStats {
    PagerStats {
        page_reads: after.page_reads - before.page_reads,
        page_writes: after.page_writes - before.page_writes,
        decrypts: after.decrypts - before.decrypts,
        encrypts: after.encrypts - before.encrypts,
        merkle_nodes: after.merkle_nodes - before.merkle_nodes,
        rpmb_ops: after.rpmb_ops - before.rpmb_ops,
    }
}

#[test]
fn dop4_matches_dop1_for_all_configs() {
    let data = ironsafe_tpch::generate(0.002, 42);
    for config in SystemConfig::all() {
        for qid in [1u8, 6] {
            let q = query(qid).unwrap();

            let mut serial = CsaSystem::build(config, &data, CostParams::default()).unwrap();
            let before = serial.storage_db().pager_stats();
            let serial_report = serial.run_query(&q).unwrap();
            let serial_delta = stats_delta(before, serial.storage_db().pager_stats());

            let mut parallel = CsaSystem::build(config, &data, CostParams::default()).unwrap();
            parallel.set_dop(4);
            let before = parallel.storage_db().pager_stats();
            let parallel_report = parallel.run_query(&q).unwrap();
            let parallel_delta = stats_delta(before, parallel.storage_db().pager_stats());

            let tag = format!("{} q{qid}", config.abbrev());
            assert_eq!(
                parallel_report.result, serial_report.result,
                "{tag}: rows must be bit-identical"
            );
            assert_eq!(
                parallel_report.breakdown, serial_report.breakdown,
                "{tag}: simulated cost breakdown must be bit-identical"
            );
            assert_eq!(parallel_delta, serial_delta, "{tag}: pager-stats delta must be identical");
            assert_eq!(
                parallel_report.pages_read_storage, serial_report.pages_read_storage,
                "{tag}: pages read"
            );
            assert_eq!(
                parallel_report.bytes_shipped, serial_report.bytes_shipped,
                "{tag}: bytes shipped"
            );
        }
    }
}

#[test]
fn morsel_counters_tick_at_every_dop() {
    // Every scan without LIMIT reads through the morsel pool, DOP 1
    // included: one scan per fragment, the same morsels and rows at
    // any DOP.
    let data = ironsafe_tpch::generate(0.002, 42);
    let q = query(6).unwrap();
    let mut seen = Vec::new();
    for dop in [1usize, 4] {
        let mut sys =
            CsaSystem::build(SystemConfig::IronSafe, &data, CostParams::default()).unwrap();
        sys.set_dop(dop);
        sys.run_query(&q).unwrap();
        let m = &sys.exec_options().metrics;
        assert!(m.scans.get() > 0, "dop {dop}: run dispatched no scans");
        assert!(m.morsels.get() > 0, "dop {dop}: run claimed no morsels");
        assert!(m.rows.get() > 0, "dop {dop}: run decoded no rows");
        seen.push((m.scans.get(), m.morsels.get(), m.rows.get()));
    }
    assert_eq!(seen[0], seen[1], "morsel counters must not depend on DOP");
}

#[test]
fn dop4_matches_dop1_with_the_merkle_cache_off() {
    // Without the verified-node cache every page read must charge its
    // own full freshness climb, however the reads happen to be batched.
    let data = ironsafe_tpch::generate(0.002, 42);
    for config in SystemConfig::all().into_iter().filter(SystemConfig::secure) {
        for qid in [1u8, 6] {
            let q = query(qid).unwrap();
            let run = |dop: usize| {
                let mut sys = CsaSystem::build(config, &data, CostParams::default()).unwrap();
                sys.storage_db().pager().lock().set_merkle_cache_enabled(false);
                sys.set_dop(dop);
                let before = sys.storage_db().pager_stats();
                let report = sys.run_query(&q).unwrap();
                (report, stats_delta(before, sys.storage_db().pager_stats()))
            };
            let (serial, serial_delta) = run(1);
            let (parallel, parallel_delta) = run(4);
            let tag = format!("{} q{qid} (cache off)", config.abbrev());
            assert_eq!(parallel.result, serial.result, "{tag}: rows");
            assert_eq!(parallel.breakdown, serial.breakdown, "{tag}: breakdown");
            assert_eq!(parallel_delta, serial_delta, "{tag}: pager-stats delta");
        }
    }
}
