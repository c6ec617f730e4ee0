//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! paperbench [fig6|...|fig12|saturation|table3|table4|ablation|parallel|chaos|freshness|profile|shards|vectors|adaptive|all] [--sf <f>] [--json] [--check] [--metrics-out <path>]
//! ```
//!
//! `parallel` (not part of `all`) sweeps morsel-driven execution across
//! DOP 1/2/4/8 on Q1 and Q6, reporting real wall-clock speedup; it
//! defaults to SF 0.01 unless `--sf` is given explicitly.
//!
//! `chaos` (not part of `all`) sweeps seeded fault injection across
//! rates and demonstrates per-surface recovery; with `--metrics-out`
//! the aggregated `faults.*` counters are written as JSON lines to
//! `<path>.metrics.jsonl`.
//!
//! `freshness` (not part of `all`) sweeps the Merkle freshness fast
//! path — per-page climbs vs shared-path batches vs the warm
//! verified-node cache — across arities and access patterns, then
//! measures the whole-query effect on Q1/Q6/Q18; `--json` additionally
//! writes the snapshot to `BENCH_5.json`.
//!
//! `profile` (not part of `all`) runs the end-to-end query profiler:
//! `EXPLAIN ANALYZE` profiles for Q1/Q6 across every Table 2
//! configuration, rendered for the IronSafe config and summarized for
//! the rest. `--json` writes the deterministic snapshot to
//! `BENCH_6.json`; `--check` regenerates it and byte-compares against
//! the committed baseline, exiting nonzero on any drift (the profiler
//! regression gate). Defaults to SF 0.002 unless `--sf` is given.
//!
//! `shards` (not part of `all`) sweeps the sharded federation
//! (`ironsafe-scale`) across N ∈ {1, 2, 4, 8} storage nodes: per-cell
//! shard-count invariants (simulated total, shipped rows/bytes, pages
//! read, result digest — all bit-identical at any N) plus measured
//! wall-clock throughput and p95 latency. `--json` writes the snapshot
//! to `BENCH_7.json`; `--check` regenerates the deterministic
//! invariants block and compares it byte for byte against the committed
//! baseline, exiting nonzero on drift (the federation regression gate).
//! Defaults to SF 0.002 unless `--sf` is given.
//!
//! `vectors` (not part of `all`) sweeps vectorized (column-batch)
//! execution against the scalar baseline and compress-before-encrypt
//! pages against the raw store, Q1/Q6 on IronSafe: result digests and
//! physical counters per mode, the per-query encrypted-byte/MAC
//! dividend of compression, and measured scalar-vs-vector wall-clock
//! speedup at DOP 1. `--json` writes the snapshot to `BENCH_8.json`;
//! `--check` regenerates the deterministic invariants block and
//! compares it byte for byte against the committed baseline, exiting
//! nonzero on drift (the vectorization regression gate). Defaults to
//! SF 0.002 unless `--sf` is given.
//!
//! `adaptive` (not part of `all`) sweeps the telemetry-driven offload
//! optimizer against both static placement policies across a
//! selectivity × EPC-pressure grid on scs, plus a mis-estimate
//! mid-flight re-planning demo. Digests are bit-identical across all
//! three policies at every point and the adaptive total never exceeds
//! the better static policy. `--json` writes the snapshot to
//! `BENCH_10.json`; `--check` regenerates it and byte-compares against
//! the committed baseline, exiting nonzero on drift (the optimizer
//! regression gate). Defaults to SF 0.002 unless `--sf` is given.
//!
//! `saturation` additionally runs the mixed read/write sweep when
//! invoked directly (not under `all`): snapshot reads pinned while a
//! group-commit writer streams updates — digests and simulated costs
//! bit-identical to the quiesced run — a group-size 1 vs 4 WAL/RPMB
//! amortization block, and measured p50/p95 read latency under a
//! concurrent writer thread. `--json` writes the snapshot to
//! `BENCH_9.json`; `--check` regenerates the deterministic invariants
//! block and byte-compares it against the committed baseline, exiting
//! nonzero on drift (the write-path regression gate).
//!
//! `--metrics-out` additionally runs every paper query under IronSafe,
//! writes the merged span timeline as Chrome `trace_event` JSON to
//! `<path>` (open in Perfetto / `chrome://tracing`), and the live
//! subsystem counters as JSON lines to `<path>.metrics.jsonl`.

#![forbid(unsafe_code)]

use ironsafe_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = "all".to_string();
    let mut sf = DEFAULT_SF;
    let mut sf_given = false;
    let mut metrics_out: Option<String> = None;
    let mut json_out = false;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            "--check" => check = true,
            "--sf" => {
                i += 1;
                sf = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SF);
                sf_given = true;
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = args.get(i).cloned();
                if metrics_out.is_none() {
                    eprintln!("--metrics-out requires a path");
                    std::process::exit(2);
                }
            }
            other => what = other.to_string(),
        }
        i += 1;
    }
    let all = what == "all";

    println!("IronSafe paper-evaluation harness (TPC-H SF {sf} ≈ paper SF {} ÷ 1000)", sf * 1000.0);
    println!("Table 2 configurations: hons, hos, vcs, scs (IronSafe), sos\n");

    if all || what == "fig6" {
        println!("== Figure 6: query speedup from CS execution (higher is better) ==");
        println!("{:>5} {:>18} {:>18}", "query", "hons/vcs", "hos/scs");
        let rows = fig6(sf);
        let mut gm_ns = 1.0f64;
        let mut gm_s = 1.0f64;
        for r in &rows {
            println!("{:>5} {:>17.2}x {:>17.2}x", format!("#{}", r.query), r.speedup_nonsecure, r.speedup_secure);
            gm_ns *= r.speedup_nonsecure;
            gm_s *= r.speedup_secure;
        }
        let n = rows.len() as f64;
        println!("{:>5} {:>17.2}x {:>17.2}x  (geometric mean)\n", "avg", gm_ns.powf(1.0 / n), gm_s.powf(1.0 / n));
    }

    if all || what == "fig7" {
        println!("== Figure 7: host<->storage I/O reduction (pages, hons/vcs) ==");
        println!("{:>5} {:>14}", "query", "reduction");
        for r in fig7(sf) {
            println!("{:>5} {:>13.2}x", format!("#{}", r.query), r.io_reduction);
        }
        println!();
    }

    if all || what == "fig8" {
        println!("== Figure 8: IronSafe (scs) cost breakdown per query ==");
        println!("{:>5} {:>8} {:>10} {:>9} {:>8}", "query", "ndp", "freshness", "decrypt", "other");
        for r in fig8(sf) {
            println!(
                "{:>5} {:>7.1}% {:>9.1}% {:>8.1}% {:>7.1}%",
                format!("#{}", r.query),
                r.ndp * 100.0,
                r.freshness * 100.0,
                r.crypto * 100.0,
                r.other * 100.0
            );
        }
        println!();
    }

    if all || what == "fig9a" {
        println!("== Figure 9a: Q1 latency vs input size (simulated s, lower is better) ==");
        println!("{:>6} {:>10} {:>10} {:>10}", "SF", "hos", "scs", "sos");
        for p in fig9a(&[sf, sf * 4.0 / 3.0, sf * 5.0 / 3.0]) {
            println!("{:>6.1} {:>10.4} {:>10.4} {:>10.4}", p.x, p.hos, p.scs, p.sos);
        }
        println!();
    }

    if all || what == "fig9b" {
        println!("== Figure 9b: Q1 latency vs selectivity (simulated s) ==");
        println!("{:>6} {:>10} {:>10} {:>10}", "sel%", "hos", "scs", "sos");
        for p in fig9b(sf, &[10, 20, 40, 60, 80, 100]) {
            println!("{:>6.0} {:>10.4} {:>10.4} {:>10.4}", p.x, p.hos, p.scs, p.sos);
        }
        println!();
    }

    if all || what == "fig9c" {
        println!("== Figure 9c: sos secure-storage breakdown (Q2, Q9) ==");
        println!("{:>5} {:>10} {:>9} {:>11}", "query", "freshness", "decrypt", "processing");
        for r in fig9c(sf, &[2, 9]) {
            println!(
                "{:>5} {:>9.1}% {:>8.1}% {:>10.1}%",
                format!("#{}", r.query),
                r.freshness * 100.0,
                r.decrypt * 100.0,
                r.processing * 100.0
            );
        }
        println!();
    }

    if all || what == "fig10" {
        println!("== Figure 10: hos/scs speedup vs storage CPUs ==");
        let cores = [1u32, 2, 4, 8, 16];
        print!("{:>5}", "query");
        for c in cores {
            print!(" {:>8}", format!("{c} cpu"));
        }
        println!();
        for r in fig10(sf, &cores) {
            print!("{:>5}", format!("#{}", r.query));
            for (_, s) in &r.series {
                print!(" {:>7.2}x", s);
            }
            println!();
        }
        println!();
    }

    if all || what == "fig11" {
        println!("== Figure 11: scs speedup vs storage memory (vs smallest budget) ==");
        let mems = [128 * 1024u64, 256 * 1024, 2 * 1024 * 1024];
        print!("{:>5}", "query");
        for m in mems {
            print!(" {:>9}", format!("{}KiB", m / 1024));
        }
        println!("   (paper: 128MiB/256MiB/2GiB, scaled 1/1024)");
        for r in fig11(sf, &mems) {
            print!("{:>5}", format!("#{}", r.query));
            for (_, s) in &r.series {
                print!(" {:>8.2}x", s);
            }
            println!();
        }
        println!();
    }

    if all || what == "fig12" {
        println!("== Figure 12: serving scalability — N sessions, one shared system (wall-clock vs ideal) ==");
        let counts = [1usize, 2, 4, 8, 16];
        let ids = [1u8, 6, 12, 13];
        print!("{:>5}", "query");
        for n in counts {
            print!(" {:>8}", format!("{n} sess"));
        }
        println!("   (≈1.00 = linear scaling)");
        for r in fig12(sf.min(0.002), &counts, &ids) {
            print!("{:>5}", format!("#{}", r.query));
            for (_, s) in &r.series {
                print!(" {:>7.2}x", s);
            }
            println!();
        }
        println!();
    }

    if all || what == "saturation" {
        println!("== Saturation: offered load vs queue wait (4-worker pool, simulated time) ==");
        println!("{:>8} {:>12} {:>12} {:>10}", "load", "p50 wait", "p95 wait", "rejected");
        let loads = [0.25, 0.5, 0.75, 0.9, 1.1, 1.5];
        for r in saturation(sf.min(0.002), 4, &loads, 2000) {
            println!(
                "{:>7.0}% {:>10.1}µs {:>10.1}µs {:>9.1}%",
                r.offered * 100.0,
                r.p50_wait_us,
                r.p95_wait_us,
                r.rejected * 100.0
            );
        }
        println!();
    }

    if what == "saturation" {
        let msf = if sf_given { sf } else { WRITES_SF };
        println!("== Mixed read/write: snapshot reads under a group-commit writer (SF {msf}) ==\n");
        let (cells, amort) = mixed_sweep(msf, &WRITE_BURSTS);
        println!(
            "{:>6} {:>6} {:>18} {:>14} {:>18}",
            "burst", "epoch", "snapshot digest", "read (sim)", "fresh digest"
        );
        for c in &cells {
            println!(
                "{:>6} {:>6} {:>18} {:>12.0}ns {:>18}",
                c.writer_txns, c.epoch, c.read_digest, c.read_total_ns, c.fresh_digest
            );
        }
        println!("(snapshot digest+cost bit-identical to the quiesced run at the pinned epoch)\n");
        println!(
            "group-commit amortization over {} txns: WAL records {} -> {}, \
             WAL bytes {} -> {}, RPMB binds {} -> {} (group size 1 -> 4)\n",
            amort.txns,
            amort.appends_g1,
            amort.appends_g4,
            amort.bytes_g1,
            amort.bytes_g4,
            amort.rpmb_g1,
            amort.rpmb_g4
        );
        let writer_loads = [0usize, 16, 64, 128];
        let wallclock = mixed_wallclock(msf, &writer_loads);
        println!(
            "{:>10} {:>6} {:>10} {:>10}   (wall-clock read latency, 2 readers)",
            "writer txn", "reads", "p50", "p95"
        );
        for w in &wallclock {
            println!(
                "{:>10} {:>6} {:>8.2}ms {:>8.2}ms",
                w.writer_txns, w.reads, w.p50_ms, w.p95_ms
            );
        }
        println!("(non-blocking contract: percentiles flat within noise as write load rises)\n");
        let inv_block = writes_invariants_json(msf, &cells, &amort);
        if check {
            let baseline = std::fs::read_to_string("BENCH_9.json")
                .expect("saturation --check needs the committed BENCH_9.json baseline");
            if baseline.contains(&inv_block) {
                println!("saturation: invariants match BENCH_9.json byte for byte (gate passes)");
            } else {
                eprintln!("saturation: invariants DIVERGE from BENCH_9.json:");
                let committed_block = baseline
                    .find("  \"invariants\"")
                    .and_then(|start| {
                        baseline[start..].find("\n  }").map(|end| &baseline[start..start + end + 4])
                    })
                    .unwrap_or("(no invariants block found)");
                for d in ironsafe_bench::diff_snapshots(committed_block, &inv_block) {
                    eprintln!("{d}");
                }
                eprintln!(
                    "(regenerate with `paperbench saturation --json` if the change is intended)"
                );
                std::process::exit(1);
            }
        }
        if json_out {
            let json = writes_json(msf, &cells, &amort, &wallclock);
            assert!(
                ironsafe_obs::export::looks_like_valid_json(&json),
                "saturation snapshot failed JSON self-check"
            );
            std::fs::write("BENCH_9.json", &json).expect("write BENCH_9.json");
            println!("saturation: wrote mixed read/write snapshot to BENCH_9.json");
        }
        return;
    }

    if all || what == "table3" {
        println!("== Table 3: GDPR anti-patterns, non-secure vs IronSafe (wall-clock ms) ==");
        println!("{:<28} {:>12} {:>12} {:>10}", "anti-pattern", "non-secure", "IronSafe", "overhead");
        for r in table3(20_000) {
            println!(
                "{:<28} {:>10.2}ms {:>10.2}ms {:>9.1}x",
                r.name,
                r.nonsecure_ms,
                r.ironsafe_ms,
                r.overhead()
            );
        }
        println!();
    }

    if all || what == "ablation" {
        println!("== Ablation: static vs adaptive partitioner (scs, simulated ms) ==");
        println!("{:>5} {:>12} {:>12} {:>8}", "query", "static", "adaptive", "gain");
        for r in partitioner_ablation(sf) {
            println!(
                "{:>5} {:>10.2}ms {:>10.2}ms {:>7.2}x",
                format!("#{}", r.query),
                r.static_ns / 1e6,
                r.adaptive_ns / 1e6,
                r.static_ns / r.adaptive_ns
            );
        }
        println!();
    }

    if all || what == "table4" {
        println!("== Table 4: attestation latency breakdown (wall-clock) ==");
        let t = table4();
        println!("{:<28} {:>10}   (paper reference)", "component", "measured");
        println!("{:<28} {:>8.2}ms   (140 ms)", "host: CAS response", t.host_cas_ms);
        println!("{:<28} {:>8.2}ms   (453 ms)", "storage: TEE", t.storage_tee_ms);
        println!("{:<28} {:>8.2}ms   ( 54 ms)", "storage: REE", t.storage_ree_ms);
        println!("{:<28} {:>8.2}ms   ( 42 ms)", "interconnect", t.interconnect_ms);
        println!("{:<28} {:>8.2}ms   (689 ms)", "total", t.total_ms());
        println!();
    }

    if what == "parallel" {
        // Wall-clock sweep; bigger default SF than the simulated figures
        // so per-run work dwarfs thread startup.
        let psf = if sf_given { sf } else { 0.01 };
        println!("== Morsel-driven parallel execution (wall-clock, SF {psf}) ==");
        println!(
            "{:>5} {:>4} {:>10} {:>8} {:>10} {:>8}",
            "query", "dop", "plain", "speedup", "secure", "speedup"
        );
        for r in parallel(psf, &[1, 2, 4, 8]) {
            println!(
                "{:>5} {:>4} {:>8.2}ms {:>7.2}x {:>8.2}ms {:>7.2}x",
                format!("#{}", r.query),
                r.dop,
                r.plain_ms,
                r.plain_speedup,
                r.secure_ms,
                r.secure_speedup
            );
        }
        println!("(rows verified bit-identical to serial at every DOP)\n");
    }

    if what == "chaos" {
        // Seeds × rates = 50 combos, the acceptance floor for the sweep.
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let rates = [0.0005, 0.002, 0.01, 0.05, 0.2];
        let csf = if sf_given { sf } else { 0.002 };
        println!("== Chaos: seeded fault storms on scs (SF {csf}, {} seeds x {} rates) ==", seeds.len(), rates.len());
        let report = chaos::run_chaos(csf, &seeds, &rates);
        println!(
            "{:>8} {:>6} {:>10} {:>8} {:>9} {:>8} {:>10} {:>10}",
            "rate", "runs", "identical", "errors", "injected", "retried", "recovered", "exhausted"
        );
        for r in &report.rows {
            println!(
                "{:>7.2}% {:>6} {:>10} {:>8} {:>9} {:>8} {:>10} {:>10}",
                r.rate * 100.0, r.runs, r.identical, r.typed_errors,
                r.injected, r.retried, r.recovered, r.exhausted
            );
        }
        println!("\nper-surface recovery (one scheduled transient fault each):");
        for s in &report.surfaces {
            println!(
                "  {:<8} injected {:>2}, recovered {:>2}  {}",
                s.surface, s.injected, s.recovered,
                if s.ok { "OK" } else { "FAILED" }
            );
        }
        println!("\ncrash-during-commit storms (group-commit WAL, power-off + recovery per storm):");
        println!(
            "  {:<13} {:>6} {:>8} {:>9} {:>9} {:>9} {:>10}",
            "site", "storms", "crashed", "absorbed", "injected", "replayed", "discarded"
        );
        for c in &report.commits {
            println!(
                "  {:<13} {:>6} {:>8} {:>9} {:>9} {:>9} {:>10}",
                c.site, c.storms, c.crashed, c.absorbed, c.injected, c.replayed, c.discarded
            );
        }
        println!("  (every recovery asserted prefix-consistent: acked rows, never a torn transaction)");
        println!("\n{} seed x rate combos; every run: identical rows or a typed error, no panics\n", report.combos);
        if let Some(path) = metrics_out {
            let sidecar = format!("{path}.metrics.jsonl");
            std::fs::write(&sidecar, &report.metrics_jsonl).expect("write chaos metrics sidecar");
            println!("chaos: wrote fault counters to {sidecar}");
        }
        return;
    }

    if what == "freshness" {
        println!("== Freshness fast path: Merkle node visits, three verification modes ==");
        println!(
            "{:>5} {:>11} {:>8} {:>10} {:>9} {:>8} {:>9}",
            "arity", "pattern", "accesses", "per-page", "batched", "cached", "hit rate"
        );
        let sweep = freshness_sweep(4096);
        for r in &sweep {
            println!(
                "{:>5} {:>11} {:>8} {:>10} {:>9} {:>8} {:>8.1}%",
                r.arity,
                r.pattern,
                r.accesses,
                r.per_page_visits,
                r.batched_visits,
                r.cached_visits,
                r.cache_hit_rate * 100.0
            );
        }
        println!("\n== Whole-query effect (scs, SF {sf}, cold start) ==");
        println!(
            "{:>5} {:>12} {:>11} {:>10} {:>9} {:>15}",
            "query", "per-page", "fast path", "reduction", "hit rate", "fig8 freshness"
        );
        let queries = freshness_queries(sf, &[1, 6, 18]);
        for r in &queries {
            println!(
                "{:>5} {:>12} {:>11} {:>9.2}x {:>8.1}% {:>14.1}%",
                format!("#{}", r.query),
                r.per_page_visits,
                r.fast_path_visits,
                r.reduction,
                r.cache_hit_rate * 100.0,
                r.freshness_share * 100.0
            );
        }
        println!("(rows verified identical with the cache on and off at every point)");
        if json_out {
            let json = freshness_json(sf, &sweep, &queries);
            assert!(
                ironsafe_obs::export::looks_like_valid_json(&json),
                "freshness snapshot failed JSON self-check"
            );
            std::fs::write("BENCH_5.json", &json).expect("write BENCH_5.json");
            println!("freshness: wrote perf snapshot to BENCH_5.json");
        }
        println!();
        return;
    }

    if what == "shards" {
        let ssf = if sf_given { sf } else { SHARDS_SF };
        let ids = [1u8, 6];
        println!(
            "== Sharded federation: Q1/Q6 on scs across N storage nodes (SF {ssf}) ==\n"
        );
        let (invariants, wallclock) = shards_sweep(ssf, &SHARD_COUNTS, &ids);
        println!(
            "{:>5} {:>3} {:>14} {:>12} {:>9} {:>10} {:>10} {:>18}",
            "query", "N", "total (sim)", "fanout ovh", "rows", "bytes", "pages", "result digest"
        );
        for inv in &invariants {
            println!(
                "{:>5} {:>3} {:>12.0}ns {:>10.0}ns {:>9} {:>10} {:>10} {:>18}",
                format!("#{}", inv.query_id),
                inv.shards,
                inv.total_ns,
                inv.fanout_overhead_ns,
                inv.rows_shipped,
                inv.bytes_shipped,
                inv.pages_read,
                inv.result_digest
            );
        }
        println!("(total/rows/bytes/pages/digest bit-identical at every N — asserted above)\n");
        println!("{:>3} {:>6} {:>10} {:>10}   (wall-clock, Q6 serving loop)", "N", "runs", "qps", "p95");
        for w in &wallclock {
            println!("{:>3} {:>6} {:>10.1} {:>8.2}ms", w.shards, w.runs, w.qps, w.p95_ms);
        }
        println!();
        let inv_block = shards_invariants_json(ssf, &invariants);
        if check {
            let baseline = std::fs::read_to_string("BENCH_7.json")
                .expect("shards --check needs the committed BENCH_7.json baseline");
            if baseline.contains(&inv_block) {
                println!("shards: invariants match BENCH_7.json byte for byte (gate passes)");
            } else {
                eprintln!("shards: invariants DIVERGE from BENCH_7.json:");
                let committed_block = baseline
                    .find("  \"invariants\"")
                    .and_then(|start| {
                        baseline[start..].find("\n  }").map(|end| &baseline[start..start + end + 4])
                    })
                    .unwrap_or("(no invariants block found)");
                for d in ironsafe_bench::diff_snapshots(committed_block, &inv_block) {
                    eprintln!("{d}");
                }
                eprintln!(
                    "(regenerate with `paperbench shards --json` if the change is intended)"
                );
                std::process::exit(1);
            }
        }
        if json_out {
            let json = shards_json(ssf, &invariants, &wallclock);
            assert!(
                ironsafe_obs::export::looks_like_valid_json(&json),
                "shards snapshot failed JSON self-check"
            );
            std::fs::write("BENCH_7.json", &json).expect("write BENCH_7.json");
            println!("shards: wrote federation snapshot to BENCH_7.json");
        }
        return;
    }

    if what == "vectors" {
        let vsf = if sf_given { sf } else { VECTORS_SF };
        let ids = [1u8, 6];
        println!(
            "== Vectorized execution x page compression: Q1/Q6 on scs (SF {vsf}) ==\n"
        );
        let (cells, dividends) = vectors_sweep(vsf, &ids);
        println!(
            "{:>5} {:>7} {:>6} {:>14} {:>8} {:>9} {:>8} {:>6} {:>18}",
            "query", "mode", "pages", "total (sim)", "reads", "decrypts", "merkle", "rows", "result digest"
        );
        for c in &cells {
            println!(
                "{:>5} {:>7} {:>6} {:>12.0}ns {:>8} {:>9} {:>8} {:>6} {:>18}",
                format!("#{}", c.query_id),
                if c.vectorized { "vector" } else { "scalar" },
                if c.compressed { "comp" } else { "raw" },
                c.total_ns,
                c.pages_read,
                c.decrypts,
                c.merkle_nodes,
                c.rows,
                c.result_digest
            );
        }
        println!("(digests identical across all four modes; scalar/vector twins share counters)\n");
        println!(
            "{:>5} {:>16} {:>16} {:>12}   (compress-before-encrypt dividend)",
            "query", "enc bytes raw", "enc bytes comp", "MACs saved"
        );
        for d in &dividends {
            println!(
                "{:>5} {:>16} {:>16} {:>11.1}%",
                format!("#{}", d.query_id),
                d.encrypted_bytes_raw,
                d.encrypted_bytes_compressed,
                d.mac_reduction_pct
            );
        }
        println!();
        let wsf = if sf_given { sf } else { VECTORS_WALL_SF };
        let wallclock = vectors_wallclock(wsf, &ids);
        println!(
            "{:>5} {:>6} {:>11} {:>11} {:>9}   (wall-clock, hons DOP 1, SF {wsf})",
            "query", "runs", "scalar", "vector", "speedup"
        );
        for w in &wallclock {
            println!(
                "{:>5} {:>6} {:>9.2}ms {:>9.2}ms {:>8.2}x",
                format!("#{}", w.query_id),
                w.runs,
                w.scalar_ms,
                w.vector_ms,
                w.speedup
            );
        }
        println!();
        let inv_block = vectors_invariants_json(vsf, &cells, &dividends);
        if check {
            let baseline = std::fs::read_to_string("BENCH_8.json")
                .expect("vectors --check needs the committed BENCH_8.json baseline");
            if baseline.contains(&inv_block) {
                println!("vectors: invariants match BENCH_8.json byte for byte (gate passes)");
            } else {
                eprintln!("vectors: invariants DIVERGE from BENCH_8.json:");
                let committed_block = baseline
                    .find("  \"invariants\"")
                    .and_then(|start| {
                        baseline[start..].find("\n  }").map(|end| &baseline[start..start + end + 4])
                    })
                    .unwrap_or("(no invariants block found)");
                for d in ironsafe_bench::diff_snapshots(committed_block, &inv_block) {
                    eprintln!("{d}");
                }
                eprintln!(
                    "(regenerate with `paperbench vectors --json` if the change is intended)"
                );
                std::process::exit(1);
            }
        }
        if json_out {
            let json = vectors_json(vsf, &cells, &dividends, &wallclock);
            assert!(
                ironsafe_obs::export::looks_like_valid_json(&json),
                "vectors snapshot failed JSON self-check"
            );
            std::fs::write("BENCH_8.json", &json).expect("write BENCH_8.json");
            println!("vectors: wrote vectorization snapshot to BENCH_8.json");
        }
        return;
    }

    if what == "adaptive" {
        let asf = if sf_given { sf } else { ADAPTIVE_SF };
        println!(
            "== Adaptive offload optimizer: shape x cores x selectivity x EPC pressure grid on scs (SF {asf}) ==\n"
        );
        let (cells, demo) = adaptive_sweep(asf);
        println!(
            "{:>5} {:>5} {:>5} {:>9} {:>13} {:>13} {:>13} {:>11} {:>18}",
            "shape", "cores", "sel%", "pressure", "all-host", "all-offload", "adaptive",
            "chosen", "result digest"
        );
        for c in &cells {
            println!(
                "{:>5} {:>5} {:>5} {:>9} {:>11.0}ns {:>11.0}ns {:>11.0}ns {:>11} {:>18}",
                c.shape,
                c.storage_cores,
                c.selectivity_pct,
                c.pressure_pages,
                c.allhost_ns,
                c.offload_ns,
                c.adaptive_ns,
                c.chosen,
                c.result_digest
            );
        }
        println!(
            "(digests bit-identical across policies; adaptive <= best static at every point — asserted)\n"
        );
        println!(
            "re-planning demo: pinned sel {:.0}% vs actual {}% — stubborn {:.0}ns, \
             re-planned {:.0}ns ({} re-plan{}, rows identical)\n",
            demo.pinned_selectivity * 100.0,
            demo.actual_pct,
            demo.stubborn_ns,
            demo.replanned_ns,
            demo.replans,
            if demo.replans == 1 { "" } else { "s" }
        );
        let inv_block = adaptive_invariants_json(asf, &cells, &demo);
        if check {
            let baseline = std::fs::read_to_string("BENCH_10.json")
                .expect("adaptive --check needs the committed BENCH_10.json baseline");
            if baseline.contains(&inv_block) {
                println!("adaptive: invariants match BENCH_10.json byte for byte (gate passes)");
            } else {
                eprintln!("adaptive: invariants DIVERGE from BENCH_10.json:");
                let committed_block = baseline
                    .find("  \"invariants\"")
                    .and_then(|start| {
                        baseline[start..].find("\n  }").map(|end| &baseline[start..start + end + 4])
                    })
                    .unwrap_or("(no invariants block found)");
                for d in ironsafe_bench::diff_snapshots(committed_block, &inv_block) {
                    eprintln!("{d}");
                }
                eprintln!(
                    "(regenerate with `paperbench adaptive --json` if the change is intended)"
                );
                std::process::exit(1);
            }
        }
        if json_out {
            let json = adaptive_json(asf, &cells, &demo);
            assert!(
                ironsafe_obs::export::looks_like_valid_json(&json),
                "adaptive snapshot failed JSON self-check"
            );
            std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
            println!("adaptive: wrote optimizer snapshot to BENCH_10.json");
        }
        return;
    }

    if what == "profile" {
        let psf = if sf_given { sf } else { PROFILE_SF };
        let configs = ironsafe_csa::SystemConfig::all();
        let ids = [1u8, 6];
        println!("== End-to-end query profiler: EXPLAIN ANALYZE, Q1/Q6 x 5 configs (SF {psf}) ==\n");
        let profiles = profile_matrix(psf, &configs, &ids);
        for p in &profiles {
            if p.config == ironsafe_csa::SystemConfig::IronSafe {
                // Full annotated plan for the paper's headline config.
                println!("{}", p.render());
            } else {
                println!(
                    "Q{} {:<4} total={:>12.0}ns pages_read={:<5} macs={:<5} spans={}",
                    p.query_id,
                    p.config.abbrev(),
                    p.breakdown.total_ns(),
                    p.pager.page_reads,
                    p.macs_verified,
                    p.span_count
                );
            }
        }
        println!();
        let json = profiles_json(psf, &profiles);
        assert!(
            ironsafe_obs::export::looks_like_valid_json(&json),
            "profile snapshot failed JSON self-check"
        );
        if check {
            let baseline = std::fs::read_to_string("BENCH_6.json")
                .expect("profile --check needs the committed BENCH_6.json baseline");
            let diffs = ironsafe_bench::diff_snapshots(&baseline, &json);
            if diffs.is_empty() {
                println!("profile: snapshot matches BENCH_6.json byte for byte (gate passes)");
            } else {
                eprintln!("profile: snapshot DIVERGES from BENCH_6.json:");
                for d in &diffs {
                    eprintln!("{d}");
                }
                eprintln!(
                    "(regenerate with `paperbench profile --json` if the change is intended)"
                );
                std::process::exit(1);
            }
        }
        if json_out {
            std::fs::write("BENCH_6.json", &json).expect("write BENCH_6.json");
            println!("profile: wrote profiler snapshot to BENCH_6.json");
        }
        return;
    }

    if let Some(path) = metrics_out {
        let bundle = telemetry::collect_traces(sf);
        assert!(
            ironsafe_obs::export::looks_like_valid_json(&bundle.chrome_trace),
            "exported Chrome trace failed self-check"
        );
        std::fs::write(&path, &bundle.chrome_trace).expect("write trace file");
        let sidecar = format!("{path}.metrics.jsonl");
        std::fs::write(&sidecar, &bundle.metrics_jsonl).expect("write metrics sidecar");
        println!(
            "telemetry: wrote {} spans from {} queries to {path} (counters: {sidecar})",
            bundle.spans, bundle.queries
        );
    }
}
