//! `perfbench`: the wall-clock benchmark of IronSafe's public APIs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process: it builds the
//! inputs from `--seed`, sets the system up (several times, reporting the
//! median), measures a closed loop for `--seconds`, checks every result
//! against a reference computed outside the timed region, prints a
//! human-readable report and ends with one JSON line:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` the window is split in two halves — untraced, then
//! traced — and the metrics are the per-layer ones. The traced half keeps
//! the benchmark's own spans (around every call it makes into a layer) in
//! its own buffer and merges them with the program's span trees; it never
//! opens a span inside the program's `obs::Trace`, whose spans feed the
//! simulated `CostBreakdown`.

mod crypto_probe;
mod layers;
mod serve;
mod stats;
mod tpch;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["tpch-suite", "serve-hot", "serve-rw"];

/// Calibration chunks timed before the workload starts and after it ends.
pub const CALIBRATION_CHUNKS: usize = 100;

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("sim_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("bytes_per_user_byte", "B/B"),
];

/// Per-layer metrics of the traced run: name and unit. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("tpch.generate_s", "s"),
    ("storage.load_s", "s"),
    ("monitor.attest_s", "s"),
    ("storage.page.read", "count/op"),
    ("storage.page.decrypt", "count/op"),
    ("storage.page.hmac_verify", "count/op"),
    ("storage.merkle.cache.hit_ratio", "ratio"),
    ("storage.read_ms", "ms/op"),
    ("storage.read_share", "ratio"),
    ("crypto.cbc_decrypt_us_page", "us"),
    ("crypto.cbc_encrypt_us_page", "us"),
    ("crypto.page_mac_us", "us"),
    ("crypto.merkle_node_us", "us"),
    ("crypto.ctr_us_kib", "us"),
    ("crypto.decrypt_share", "ratio"),
    ("wal.append.bytes_per_txn", "B/txn"),
    ("wal.group_commit_per_txn", "ratio"),
    ("tee.rpmb.write_per_txn", "ratio"),
    ("mvcc.retain_per_write", "ratio"),
    ("mvcc.read.retained", "count"),
    ("wal.recover.replayed", "count"),
    ("wal.recover_s", "s"),
    ("wal.acked_lost", "count"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p95_ms", "ms"),
    ("sql.parse_us", "us"),
    ("sql.rows_examined_per_row_returned", "ratio"),
    ("exec.morsel.dispatched", "count/op"),
    ("sql.host_exec_ms", "ms/op"),
    ("csa.fragment_self_ms", "ms/op"),
    ("csa.rows_shipped", "count/op"),
    ("csa.bytes_shipped", "B/op"),
    ("plan.decide.offload", "count/op"),
    ("plan.decide.ship_pages", "count/op"),
    ("csa.unattributed_share", "ratio"),
    ("tee.enclave.transition", "count/op"),
    ("tee.epc.fault", "count/op"),
    ("monitor.authorize_us", "us"),
    ("policy.eval_us", "us"),
    ("monitor.query.grant", "count"),
    ("monitor.query.deny", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.rejected_share", "ratio"),
    ("sql.self_share", "ratio"),
    ("csa.self_share", "ratio"),
    ("serve.self_share", "ratio"),
    ("monitor.self_share", "ratio"),
    ("obs.tracing_overhead", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// False when any operation returned a wrong answer.
    pub correct: bool,
    /// Operations issued and checked.
    pub attempted: u64,
    /// Errors, refusals, wrong digests and acknowledged writes missing
    /// after recovery.
    pub failed: u64,
    /// End-to-end metrics by name (the [`END_TO_END`] set).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own named figures, with units and sample counts,
    /// printed for people and not part of the JSON line.
    pub report: Vec<(String, f64, &'static str, String)>,
    /// Per-layer metrics by name (a subset of [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's per-layer self-time table.
    pub table: String,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    pub fn show(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.report.push((name.to_string(), value, unit, note));
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number with every digit `f64` carries; non-finite values (a
/// harness bug) are refused rather than printed as invalid JSON.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    let (names, values): (Vec<(&str, &str)>, &BTreeMap<&str, f64>) = if args.trace {
        (PER_LAYER.to_vec(), &out.layers)
    } else {
        (END_TO_END.to_vec(), &out.e2e)
    };
    if let Some(unknown) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("workload produced undeclared metric {unknown}"));
    }
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = match values.get(name) {
            Some(v) => *v,
            // A per-layer metric of a layer this workload does not run.
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} missing")),
        };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(v)?
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    ))
}

fn main() -> ExitCode {
    layers::process_epoch();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    stats::calibrate(CALIBRATION_CHUNKS);
    let mut out = match args.workload.as_str() {
        "tpch-suite" => tpch::suite(&args),
        "serve-hot" => serve::hot(&args),
        "serve-rw" => serve::read_write(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    out.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    // Wall-clock timings are gated at the reference host speed: scaled by
    // the reference calibration time over this run's median, so a host
    // that runs slower for minutes at a time does not read as a
    // regression. The measured values are in the report above.
    stats::calibrate(CALIBRATION_CHUNKS);
    let (calib, n) = stats::calibration_ms();
    let speed = stats::CALIBRATION_REF_MS / calib;
    out.show(
        "calibration_ms",
        calib,
        "ms",
        format!("median of {n} chunks"),
    );
    for (name, unit) in [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_ms", "ms")] {
        let measured = out.e2e[name];
        out.show(&format!("measured_{name}"), measured, unit, String::new());
        let scaled = if name == "ops_per_s" {
            measured / speed
        } else {
            measured * speed
        };
        out.e2e.insert(name, scaled);
    }
    if out.attempted > 0 {
        let frac = out.failed as f64 / out.attempted as f64;
        out.show(
            "failed_frac",
            frac,
            "ratio",
            format!("{} of {}", out.failed, out.attempted),
        );
    }

    println!(
        "perfbench {} seed={} seconds={} trace={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit, note) in &out.report {
        println!("  {name:<34} {value:>14.4} {unit:<8} {note}");
    }
    if args.trace {
        println!("{}", out.table);
        for (name, unit) in PER_LAYER {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<38} {v:>14.4} {unit}");
        }
    } else {
        for (name, unit) in END_TO_END {
            println!(
                "  {name:<34} {:>14.4} {unit}",
                out.e2e.get(name).copied().unwrap_or(f64::NAN)
            );
        }
    }
    match result_line(&args, &out) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: harness error: {e}");
            ExitCode::from(1)
        }
    }
}
