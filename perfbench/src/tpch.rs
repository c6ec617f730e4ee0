//! The batch workload: the 17-query TPC-H suite on one `scs` system.

use crate::layers::{BenchTrace, UNATTRIBUTED};
use crate::stats::{self, digest, summarize, Sample};
use crate::{crypto_probe, Args, Outcome};
use ironsafe_csa::{CostParams, CsaSystem, SystemConfig};
use ironsafe_obs::{MetricsSnapshot, Registry};
use ironsafe_sql::QueryResult;
use ironsafe_storage::BLOCK_SIZE;
use ironsafe_tpch::{paper_queries, PaperQuery, TpchData};
use std::time::Instant;

/// TPC-H scale factor of every workload (86.7k rows, ~3,680 pages).
pub const SF: f64 = 0.01;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// How one operation ended.
pub enum Verdict {
    /// Answer matched the reference.
    Ok,
    /// The program returned an error or refused.
    Failed,
    /// The program returned a wrong answer.
    Wrong,
}

/// One timed operation: which kind, its wall and simulated latency, and
/// whether its answer was right.
pub struct Op {
    pub kind: usize,
    pub ms: f64,
    pub sim_ms: f64,
    pub verdict: Verdict,
}

/// Tally an operation into the outcome; returns the sample when it
/// succeeded (failed operations count against `failed`, not latency).
pub fn tally(out: &mut Outcome, op: Op) -> Option<Sample> {
    out.attempted += 1;
    match op.verdict {
        Verdict::Ok => {
            return Some(Sample {
                kind: op.kind,
                ms: op.ms,
                sim_ms: op.sim_ms,
            })
        }
        Verdict::Failed => out.failed += 1,
        Verdict::Wrong => {
            out.failed += 1;
            out.correct = false;
        }
    }
    None
}

/// Run `passes` whole passes over kinds `0..n` in order. Returns the
/// samples and the wall seconds the loop took, not counting the short
/// host-speed calibration after each operation.
pub fn serial_loop(
    passes: usize,
    n: usize,
    out: &mut Outcome,
    trace: &mut BenchTrace,
    mut op: impl FnMut(usize, &mut BenchTrace) -> Op,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let mut calibrating = 0.0;
    let mut samples = Vec::new();
    for i in 0..passes * n {
        samples.extend(tally(out, op(i % n, trace)));
        // The program is idle between serial operations: sample host speed.
        let t = Instant::now();
        stats::calibrate(5);
        calibrating += t.elapsed().as_secs_f64();
    }
    (samples, start.elapsed().as_secs_f64() - calibrating)
}

/// Whole passes that fit in `seconds`, at least one, given one pass took
/// `pass_s` (the warm-up): the window is measured in passes so every query
/// kind gets the same number of samples on every run.
fn passes_for(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s.max(1e-3)).floor() as usize).max(1)
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// `after - before` for counter `name` across a list of registries.
pub fn counter_delta(before: &[MetricsSnapshot], after: &[MetricsSnapshot], name: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| counter(a, name) - counter(b, name))
        .sum()
}

fn result_rows(r: &QueryResult) -> u64 {
    match r {
        QueryResult::Rows { rows, .. } => rows.len() as u64,
        _ => 0,
    }
}

pub fn table_payload(data: &TpchData) -> u64 {
    data.tables()
        .iter()
        .map(|(_, rows)| stats::payload_bytes(rows.iter()))
        .sum()
}

/// Set a workload up `SETUP_REPS` times: generate the data from the seed,
/// then `build` (which reports its attestation and load seconds). The last
/// set-up is the one measured.
/// Returns the data, the last set-up, every set-up's wall seconds and the
/// per-phase medians (generate, attest, load).
pub fn set_up<S>(
    args: &Args,
    mut build: impl FnMut(&TpchData) -> (S, f64, f64),
) -> (TpchData, S, Vec<f64>, [f64; 3]) {
    let mut setup = Vec::new();
    let (mut gen_s, mut attest_s, mut load_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so peak RSS holds one system.
        drop(built.take());
        let t0 = Instant::now();
        let data = ironsafe_tpch::generate(SF, args.seed);
        let gen = t0.elapsed().as_secs_f64();
        let (s, attest, load) = build(&data);
        setup.push(t0.elapsed().as_secs_f64());
        gen_s.push(gen);
        attest_s.push(attest);
        load_s.push(load);
        built = Some((data, s));
    }
    let (data, s) = built.expect("at least one set-up");
    (
        data,
        s,
        setup,
        [
            stats::median(&gen_s),
            stats::median(&attest_s),
            stats::median(&load_s),
        ],
    )
}

/// Reference digests for `queries`, from a host-only non-secure system
/// on the same data (`QueryReport.result` is identical across
/// configurations), computed outside any timed region.
fn reference(data: &TpchData, queries: &[PaperQuery]) -> Vec<[u8; 8]> {
    let mut hons = CsaSystem::build(SystemConfig::HostOnlyNonSecure, data, CostParams::default())
        .expect("reference system builds");
    queries
        .iter()
        .map(|q| digest(&hons.run_query(q).expect("reference query runs").result))
        .collect()
}

/// Per-layer figures every workload derives the same way: span self
/// times, parse cost and the crypto probe.
pub fn common_layers(
    out: &mut Outcome,
    trace: &BenchTrace,
    ops: f64,
    wall_s: f64,
    decrypts: f64,
    parse_us: &[f64],
) {
    let per_op = |ns: u64| ns as f64 / 1e6 / ops.max(1.0);
    let root = trace.root_ns().max(1) as f64;
    let layers = trace.layer_totals();
    let share = |l: &str| layers.get(l).map_or(0.0, |(s, _)| *s as f64) / root;
    let pager = trace.self_ns_where(|n| n.name.starts_with("pager/"));
    out.layers.insert("storage.read_ms", per_op(pager));
    out.layers.insert("storage.read_share", pager as f64 / root);
    out.layers.insert(
        "sql.host_exec_ms",
        per_op(trace.self_ns_where(|n| n.name.starts_with("host/"))),
    );
    out.layers.insert(
        "csa.fragment_self_ms",
        per_op(trace.self_ns_where(|n| n.name.starts_with("fragment/"))),
    );
    out.layers
        .insert("csa.unattributed_share", share(UNATTRIBUTED));
    out.layers.insert("sql.self_share", share("sql"));
    out.layers.insert("csa.self_share", share("csa"));
    out.layers.insert("sql.parse_us", stats::median(parse_us));
    let c = crypto_probe::measure();
    out.layers.insert(
        "crypto.decrypt_share",
        decrypts * (c.cbc_decrypt_us_page + c.page_mac_us) / (wall_s * 1e6),
    );
    out.layers
        .insert("crypto.cbc_decrypt_us_page", c.cbc_decrypt_us_page);
    out.layers
        .insert("crypto.cbc_encrypt_us_page", c.cbc_encrypt_us_page);
    out.layers.insert("crypto.page_mac_us", c.page_mac_us);
    out.layers.insert("crypto.merkle_node_us", c.merkle_node_us);
    out.layers.insert("crypto.ctr_us_kib", c.ctr_us_kib);
}

/// Time parsing every stage of `q` (the benchmark's own extra call into
/// the SQL front end, in µs per stage).
pub fn parse_us(q: &PaperQuery) -> f64 {
    let t = Instant::now();
    for s in &q.stages {
        let _ = std::hint::black_box(ironsafe_sql::parser::parse_statement(&s.sql));
    }
    t.elapsed().as_secs_f64() * 1e6 / q.stages.len().max(1) as f64
}

/// Record the end-to-end figures of a batch window.
fn batch_e2e(out: &mut Outcome, samples: &[Sample], wall_s: f64, labels: &[String]) {
    let s = summarize(samples);
    out.e2e.insert("ops_per_s", samples.len() as f64 / wall_s);
    out.e2e.insert("latency_ms", s.latency_ms);
    out.e2e.insert("sim_ms", s.sim_ms);
    let pass_s: f64 = s.kind_median_ms.values().sum::<f64>() / 1e3;
    let min_n = s.kind_count.values().copied().min().unwrap_or(0);
    out.show(
        "pass_s",
        pass_s,
        "s",
        format!("sum of per-query medians, {min_n} samples each"),
    );
    out.show(
        "query_geomean_ms",
        s.latency_ms,
        "ms",
        format!("{} queries", s.kind_median_ms.len()),
    );
    out.show(
        "tail_ms",
        s.tail_ms,
        "ms",
        format!("{} of {} samples", s.tail_label, samples.len()),
    );
    out.show(
        "sim_ms",
        s.sim_ms,
        "ms",
        "simulated, one of each query".into(),
    );
    for (k, m) in &s.kind_median_ms {
        out.show(
            &format!("  {}_ms", labels[*k]),
            *m,
            "ms",
            format!("median of {}", s.kind_count[k]),
        );
    }
}

/// `tpch-suite`: the 17 paper queries in paper order on one IronSafe
/// (`scs`) system; every page read is device-read, MAC-checked,
/// decrypted and Merkle-verified.
pub fn suite(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let (data, mut sys, setup, [gen_s, _, load_s]) = set_up(args, |data| {
        let t = Instant::now();
        let sys = CsaSystem::build(SystemConfig::IronSafe, data, CostParams::default())
            .expect("scs system builds");
        (sys, 0.0, t.elapsed().as_secs_f64())
    });
    let queries = paper_queries();
    let labels: Vec<String> = queries.iter().map(|q| format!("q{}", q.id)).collect();
    let refs = reference(&data, &queries);
    let pages = sys.storage_db().pager().lock().num_pages();
    let user_bytes = table_payload(&data);
    drop(data);

    // One query: the op, its benchmark span, and (rows shipped, bytes
    // shipped, rows returned) for the traced figures.
    let run = |sys: &mut CsaSystem, k: usize, trace: &mut BenchTrace| {
        let q = &queries[k];
        let t = Instant::now();
        let r = sys.run_query(q);
        let end = Instant::now();
        let span = trace.span("csa/run_query", "csa", None, t, end);
        let ms = (end - t).as_secs_f64() * 1e3;
        match r {
            Ok(rep) => {
                let verdict = if digest(&rep.result) == refs[k] {
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                };
                let counts = (
                    rep.rows_shipped,
                    rep.bytes_shipped,
                    result_rows(&rep.result),
                );
                (
                    Op {
                        kind: k,
                        ms,
                        sim_ms: rep.total_ns() / 1e6,
                        verdict,
                    },
                    span,
                    counts,
                )
            }
            Err(_) => (
                Op {
                    kind: k,
                    ms,
                    sim_ms: 0.0,
                    verdict: Verdict::Failed,
                },
                span,
                (0, 0, 0),
            ),
        }
    };

    // Warm-up: one untimed pass fills the Merkle verified-node cache.
    let mut off = BenchTrace::new(false);
    let t = Instant::now();
    for k in 0..queries.len() {
        tally(&mut out, run(&mut sys, k, &mut off).0);
    }
    let warmup_s = t.elapsed().as_secs_f64();
    out.e2e.insert("setup_s", stats::median(&setup) + warmup_s);
    out.e2e.insert(
        "bytes_per_user_byte",
        (pages * BLOCK_SIZE as u64) as f64 / user_bytes as f64,
    );
    out.show(
        "setup_s",
        stats::median(&setup),
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    out.show("warmup_s", warmup_s, "s", "one pass".into());

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let passes = passes_for(window, warmup_s);
    let (samples, wall) = serial_loop(passes, queries.len(), &mut out, &mut off, |k, tr| {
        run(&mut sys, k, tr).0
    });
    batch_e2e(&mut out, &samples, wall, &labels);
    if !args.trace {
        return out;
    }

    // Traced half: the same loop with spans, program traces and counters.
    let reg = Registry::new();
    sys.storage_db().register_metrics(&reg);
    sys.register_exec_metrics(&reg);
    sys.register_plan_metrics(&reg);
    let before = [reg.snapshot()];
    let mut trace = BenchTrace::new(true);
    let (mut transitions, mut epc_faults, mut examined) = (0u64, 0u64, 0u64);
    let (mut shipped_rows, mut shipped_bytes, mut returned) = (0u64, 0u64, 0u64);
    let mut parse = Vec::new();
    let (traced, traced_wall) =
        serial_loop(passes, queries.len(), &mut out, &mut trace, |k, tr| {
            let (op, span, (rows, bytes, result)) = run(&mut sys, k, tr);
            shipped_rows += rows;
            shipped_bytes += bytes;
            returned += result;
            if let (Some(p), Some(snap)) = (span, sys.take_last_trace()) {
                tr.graft(&snap, tr.nodes[p].start_ns, |_| Some(p));
            }
            let extras = sys.last_extras();
            transitions += extras.enclave_transitions;
            epc_faults += extras.epc_faults;
            for p in sys.last_plans() {
                examined += p
                    .operators
                    .iter()
                    .filter(|o| o.leaf)
                    .map(|o| o.rows_out)
                    .sum::<u64>();
            }
            parse.push(parse_us(&queries[k]));
            op
        });
    let after = [reg.snapshot()];
    let ops = traced.len() as f64;
    let d = |n: &str| counter_delta(&before, &after, n);
    out.layers.insert("tpch.generate_s", gen_s);
    out.layers.insert("storage.load_s", load_s);
    out.layers
        .insert("storage.page.read", d("storage.page.read") / ops);
    out.layers
        .insert("storage.page.decrypt", d("storage.page.decrypt") / ops);
    out.layers.insert(
        "storage.page.hmac_verify",
        d("storage.page.hmac_verify") / ops,
    );
    let (hit, miss) = (
        d("storage.merkle.cache.hit"),
        d("storage.merkle.cache.miss"),
    );
    out.layers.insert(
        "storage.merkle.cache.hit_ratio",
        hit / (hit + miss).max(1.0),
    );
    out.layers
        .insert("exec.morsel.dispatched", d("exec.morsel.dispatched") / ops);
    out.layers
        .insert("plan.decide.offload", d("plan.decide.offload") / ops);
    out.layers
        .insert("plan.decide.ship_pages", d("plan.decide.ship_pages") / ops);
    out.layers
        .insert("tee.enclave.transition", transitions as f64 / ops);
    out.layers.insert("tee.epc.fault", epc_faults as f64 / ops);
    out.layers
        .insert("csa.rows_shipped", shipped_rows as f64 / ops);
    out.layers
        .insert("csa.bytes_shipped", shipped_bytes as f64 / ops);
    out.layers.insert(
        "sql.rows_examined_per_row_returned",
        examined as f64 / returned.max(1) as f64,
    );
    let untraced = summarize(&samples).latency_ms;
    out.layers.insert(
        "obs.tracing_overhead",
        summarize(&traced).latency_ms / untraced - 1.0,
    );
    common_layers(
        &mut out,
        &trace,
        ops,
        traced_wall,
        d("storage.page.decrypt"),
        &parse,
    );
    out.table = trace.table("tpch-suite traced half");
    write_trace_files(args, &trace, &out.table);
    out
}

/// Write the merged Chrome trace and the per-layer table under
/// `.bench_out/` in the working directory.
pub fn write_trace_files(args: &Args, trace: &BenchTrace, table: &str) {
    let dir = std::path::Path::new(".bench_out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let res = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.trace.json")), trace.chrome_trace()))
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.layers.txt")), table));
    if let Err(e) = res {
        eprintln!("perfbench: could not write trace files: {e}");
    }
}
