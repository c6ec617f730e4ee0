//! Small statistics helpers shared by the workloads.

use ironsafe_sql::{QueryResult, Value};
use std::collections::BTreeMap;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The highest quantile with at least ten samples beyond it among `n`,
/// `1 - 10/n`; `None` below twenty samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// One timed operation of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the operation kind (query id, statement shape).
    pub kind: usize,
    /// Wall-clock latency.
    pub ms: f64,
    /// Simulated latency from `QueryReport::total_ns`.
    pub sim_ms: f64,
}

/// Latency summary of a window of samples.
pub struct Summary {
    /// Geometric mean of the per-kind median latencies.
    pub latency_ms: f64,
    /// Latency at the tail quantile, or the slowest kind's median when
    /// the window is too small for any tail quantile.
    pub tail_ms: f64,
    /// Which tail was taken.
    pub tail_label: String,
    /// Sum over kinds of the median simulated latency (one of each).
    pub sim_ms: f64,
    /// Per-kind median wall latency.
    pub kind_median_ms: BTreeMap<usize, f64>,
    /// Samples per kind.
    pub kind_count: BTreeMap<usize, usize>,
}

pub fn summarize(samples: &[Sample]) -> Summary {
    let mut by_kind: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        let e = by_kind.entry(s.kind).or_default();
        e.0.push(s.ms);
        e.1.push(s.sim_ms);
    }
    let kind_median_ms: BTreeMap<usize, f64> = by_kind
        .iter()
        .map(|(k, (ms, _))| (*k, median(ms)))
        .collect();
    let kind_count = by_kind.iter().map(|(k, (ms, _))| (*k, ms.len())).collect();
    let sim_ms = by_kind.values().map(|(_, sim)| median(sim)).sum();
    let medians: Vec<f64> = kind_median_ms.values().copied().collect();
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let (tail_label, tail_ms) = match tail_quantile(all.len()) {
        Some(q) => (format!("p{:.1}", q * 100.0), quantile(&all, q)),
        None => (
            "slowest kind median".to_string(),
            medians.iter().copied().fold(0.0, f64::max),
        ),
    };
    Summary {
        latency_ms: geomean(&medians),
        tail_ms,
        tail_label,
        sim_ms,
        kind_median_ms,
        kind_count,
    }
}

/// Truncated SHA-256 over the rendered result: the digest the checks
/// compare against the reference.
pub fn digest(result: &QueryResult) -> [u8; 8] {
    let rendered = format!("{result:?}");
    let h = ironsafe_crypto::sha256::sha256(rendered.as_bytes());
    let mut d = [0u8; 8];
    d.copy_from_slice(&h[..8]);
    d
}

/// Bytes of row payload: 8 per number, the length of each text.
pub fn payload_bytes<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> u64 {
    rows.into_iter()
        .flat_map(|r| r.iter())
        .map(|v| match v {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Text(s) => s.len() as u64,
        })
        .sum()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small deterministic generator for workload inputs (SplitMix64), so
/// the inputs depend on the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nominal ms of one calibration chunk on the host this benchmark was
/// defined on (two-core x86-64 virtual machine, "Intel(R) Xeon(R) Processor").
pub const CALIBRATION_REF_MS: f64 = 1.2;

static CALIBRATION: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());

/// Time `chunks` runs of a fixed integer-mixing kernel over a 64 KiB
/// table — the benchmark's own code, never the program's — and keep the
/// times. Called only while no program thread runs (before set-up,
/// between serial operations, after a server has shut down), so the
/// program cannot slow it; it tracks how fast the host runs right now.
pub fn calibrate(chunks: usize) {
    let mut table = vec![0u64; 8192];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let times: Vec<f64> = (0..chunks)
        .map(|_| {
            let t = std::time::Instant::now();
            for i in 0..400_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = (x as usize) & 8191;
                table[j] = table[j].wrapping_add(x.rotate_left((i & 63) as u32));
            }
            std::hint::black_box(&table);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    CALIBRATION
        .lock()
        .expect("calibration samples are only pushed")
        .extend(times);
}

/// Median calibration chunk time (ms) and sample count so far.
pub fn calibration_ms() -> (f64, usize) {
    let times = CALIBRATION
        .lock()
        .expect("calibration samples are only pushed");
    (median(&times), times.len())
}
