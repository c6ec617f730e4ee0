//! The served workloads: ad-hoc SQL through the monitor and the query
//! server, read-only (`serve-hot`) and with a writer that ends in a crash
//! and recovery (`serve-rw`).

use crate::layers::BenchTrace;
use crate::stats::{self, digest, summarize, Rng, Sample};
use crate::tpch::{
    common_layers, counter_delta, set_up, table_payload, tally, write_trace_files, Op, Verdict,
    SETUP_REPS,
};
use crate::{Args, Outcome};
use ironsafe::Deployment;
use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_csa::{CostParams, CsaSystem, SharedCsaSystem, SystemConfig};
use ironsafe_monitor::{MonitorConfig, TrustedMonitor};
use ironsafe_obs::{HistogramSnapshot, MetricsSnapshot, Registry};
use ironsafe_policy::eval::{evaluate, EvalContext};
use ironsafe_policy::{parse_policy, Perm};
use ironsafe_serve::{Job, QueryResponse, QueryServer, ServeConfig};
use ironsafe_sql::{Database, QueryResult, Value};
use ironsafe_storage::{SecurePager, BLOCK_SIZE};
use ironsafe_tee::image::SoftwareImage;
use ironsafe_tee::sgx::{AttestationService, EnclaveConfig, EnclaveSupervisor, Quote, SgxPlatform};
use ironsafe_tee::trustzone::{AttestationTa, BootImages, Manufacturer, SecureBoot, SignedImage};
use ironsafe_tpch::TpchData;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Server worker threads (the host this benchmark was defined on has two
/// cores) and sessions: one request outstanding per session.
const WORKERS: usize = 2;
/// Statements per read kind; requests draw from this pool.
const POOL_PER_KIND: usize = 16;
/// WAL group-commit size of `serve-rw` (the size `paperbench saturation`
/// uses).
const GROUP_SIZE: usize = 4;
/// Writes the writer commits after the served window, directly on the
/// shared system, before power fails.
const CRASH_TAIL: usize = 6;
/// Serving seconds between host-speed calibration pauses, and the
/// calibration chunks timed in each pause.
const PAUSE_EVERY_S: f64 = 1.0;
const PAUSE_CHUNKS: usize = 10;
/// The served window of `serve-rw` runs on until this many writes are
/// acknowledged (half of it per window in a traced run).
const MIN_WRITES: usize = 200;

const DB: &str = "tpch";
const POLICY_READ: &str = "read :- sessionKeyIs(analyst-a) | sessionKeyIs(analyst-b)";
const POLICY_RW: &str =
    "read :- sessionKeyIs(analyst-a) | sessionKeyIs(writer)\nwrite :- sessionKeyIs(writer)";

const READ_KINDS: [&str; 5] = [
    "customer_by_key",
    "orders_by_key",
    "supplier_filter",
    "part_count",
    "orders_join_customer",
];
const UPDATE: usize = READ_KINDS.len();
const INSERT: usize = READ_KINDS.len() + 1;

fn int_col(rows: &[Vec<Value>], col: usize) -> Vec<i64> {
    rows.iter()
        .filter_map(|r| match r.get(col) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        })
        .collect()
}

/// The read statements: `POOL_PER_KIND` per kind, keys drawn from the
/// data with the seed. None reads `o_comment` or keys beyond the largest
/// loaded order, so the writer never changes their answers.
fn read_pool(data: &TpchData, rng: &mut Rng) -> Vec<(usize, String)> {
    let cust = int_col(&data.customer, 0);
    let orders = int_col(&data.orders, 0);
    let mut pool = Vec::new();
    for _ in 0..POOL_PER_KIND {
        let c = cust[rng.below(cust.len())];
        let o = orders[rng.below(orders.len())];
        let o2 = orders[rng.below(orders.len())];
        pool.push((
            0,
            format!("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {c}"),
        ));
        pool.push((
            1,
            format!(
                "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {o}"
            ),
        ));
        pool.push((
            2,
            format!(
                "SELECT s_name, s_acctbal FROM supplier WHERE s_nationkey = {}",
                rng.below(25)
            ),
        ));
        pool.push((
            3,
            format!(
                "SELECT COUNT(*) FROM part WHERE p_size < {}",
                1 + rng.below(50)
            ),
        ));
        pool.push((
            4,
            format!(
                "SELECT o_orderkey, c_name, o_totalprice FROM orders, customer \
                 WHERE o_custkey = c_custkey AND o_orderkey = {o2}"
            ),
        ));
    }
    pool
}

/// One acknowledged-or-not write of the writer, in issue order.
struct Write {
    kind: usize,
    key: i64,
    marker: String,
    sql: String,
    payload: u64,
    acked: bool,
}

/// The writer's statement stream: UPDATE-by-key on distinct existing
/// orders, with every fourth write an INSERT of a new order, each tagged
/// with a unique `o_comment` marker so recovery can check it alone.
struct Writer {
    rng: Rng,
    seed: u64,
    orders: Vec<i64>,
    used: HashSet<i64>,
    next_new: i64,
    writes: Vec<Write>,
}

impl Writer {
    fn new(data: &TpchData, seed: u64) -> Self {
        let orders = int_col(&data.orders, 0);
        let next_new = orders.iter().copied().max().unwrap_or(0) + 1;
        Writer {
            rng: Rng::new(seed ^ 0x5752),
            seed,
            orders,
            used: HashSet::new(),
            next_new,
            writes: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        let i = self.writes.len();
        let marker = format!("ack-{}-{i}", self.seed);
        let w = if i % 4 != 3 {
            let key = loop {
                let k = self.orders[self.rng.below(self.orders.len())];
                if self.used.insert(k) {
                    break k;
                }
            };
            let sql = format!("UPDATE orders SET o_comment = '{marker}' WHERE o_orderkey = {key}");
            Write {
                kind: UPDATE,
                key,
                payload: marker.len() as u64,
                marker,
                sql,
                acked: false,
            }
        } else {
            let key = self.next_new;
            self.next_new += 1;
            let sql = format!(
                "INSERT INTO orders VALUES ({key}, 1, 'O', 1000.5, '1998-08-02', '1-URGENT', \
                 'Clerk#000000001', 0, '{marker}')"
            );
            let payload = 8 * 4 + 1 + 10 + 8 + 15 + marker.len() as u64;
            Write {
                kind: INSERT,
                key,
                payload,
                marker,
                sql,
                acked: false,
            }
        };
        self.writes.push(w);
        i
    }
}

/// What a slot submitted: a pool read or the writer's i-th write.
#[derive(Clone, Copy)]
enum Item {
    Read(usize),
    Write(usize),
}

struct Req {
    slot: usize,
    item: Item,
    submit_start: Instant,
    submitted: Instant,
    seq: u64,
}

/// Drive `sids` (one request outstanding per session, or with `serial`
/// one in all, the sessions taking turns) from this thread until
/// `seconds` of serving pass and `more` turns false, then drain.
/// Tickets are waited on by one helper thread per slot, which hands each
/// response back with its arrival time. Returns the serving seconds, not
/// counting the calibration pauses.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    server: &QueryServer,
    sids: &[u64],
    seconds: f64,
    serial: bool,
    mut next: impl FnMut(usize) -> (Item, String),
    mut finish: impl FnMut(Req, Instant, QueryResponse, &mut Outcome),
    more: impl Fn() -> bool,
    out: &mut Outcome,
) -> f64 {
    let start = Instant::now();
    let (done_tx, done_rx) = mpsc::channel::<(Req, Instant, QueryResponse)>();
    std::thread::scope(|scope| -> f64 {
        let mut to_waiter = Vec::new();
        for _ in sids {
            let (tx, rx) = mpsc::channel::<(Req, ironsafe_serve::Ticket)>();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                for (req, ticket) in rx {
                    let resp = ticket.wait();
                    let at = Instant::now();
                    if done_tx.send((req, at, resp)).is_err() {
                        return;
                    }
                }
            });
            to_waiter.push(tx);
        }
        drop(done_tx);
        let mut outstanding = 0usize;
        let mut submit = |slot: usize, outstanding: &mut usize, out: &mut Outcome| {
            for _ in 0..1000 {
                let (item, sql) = next(slot);
                let submit_start = Instant::now();
                match server.submit(sids[slot], Job::Sql(sql)) {
                    Ok(ticket) => {
                        let req = Req {
                            slot,
                            item,
                            submit_start,
                            submitted: Instant::now(),
                            seq: ticket.seq,
                        };
                        to_waiter[slot]
                            .send((req, ticket))
                            .expect("waiter thread alive");
                        *outstanding += 1;
                        return;
                    }
                    // A refused admission is a failed operation.
                    Err(_) => {
                        out.attempted += 1;
                        out.failed += 1;
                    }
                }
            }
            panic!("server refused 1000 admissions in a row");
        };
        let first = if serial { 1 } else { sids.len() };
        for slot in 0..first {
            submit(slot, &mut outstanding, out);
        }
        // Once a second the loop stops submitting, lets the server drain
        // and samples host speed while no request runs.
        let mut paused = 0.0;
        let mut next_pause = PAUSE_EVERY_S;
        let mut waiting: Vec<usize> = Vec::new();
        while outstanding > 0 {
            let (req, at, resp) = done_rx.recv().expect("a waiter delivers every response");
            outstanding -= 1;
            let slot = if serial {
                (req.slot + 1) % sids.len()
            } else {
                req.slot
            };
            finish(req, at, resp, out);
            let active = start.elapsed().as_secs_f64() - paused;
            if active >= seconds && !more() {
                continue;
            }
            if active < next_pause {
                submit(slot, &mut outstanding, out);
                continue;
            }
            waiting.push(slot);
            if outstanding == 0 {
                let t = Instant::now();
                stats::calibrate(PAUSE_CHUNKS);
                paused += t.elapsed().as_secs_f64();
                next_pause = active + PAUSE_EVERY_S;
                for slot in waiting.drain(..) {
                    submit(slot, &mut outstanding, out);
                }
            }
        }
        drop(to_waiter);
        start.elapsed().as_secs_f64() - paused
    })
}

/// A served workload after set-up: the server, its sessions and what the
/// checks need.
struct Served {
    server: QueryServer,
    /// Per slot: session id and the instant its trace epoch began.
    sessions: Vec<(u64, Instant)>,
    pool: Vec<(usize, String)>,
    refs: Vec<[u8; 8]>,
    reg: Registry,
}

/// Reference digests of the read pool and the rows the SQL engine
/// examines per row returned, from a host-only non-secure system on the
/// same data, outside any timed region.
fn pool_reference(data: &TpchData, pool: &[(usize, String)]) -> (Vec<[u8; 8]>, f64) {
    let mut hons = CsaSystem::build(SystemConfig::HostOnlyNonSecure, data, CostParams::default())
        .expect("reference system builds");
    let (mut examined, mut returned) = (0u64, 0u64);
    let refs = pool
        .iter()
        .map(|(_, sql)| {
            let stmt = ironsafe_sql::parser::parse_statement(sql).expect("pool SQL parses");
            let rep = hons.run_statement(&stmt).expect("reference read runs");
            for p in hons.last_plans() {
                examined += p
                    .operators
                    .iter()
                    .filter(|o| o.leaf)
                    .map(|o| o.rows_out)
                    .sum::<u64>();
            }
            if let QueryResult::Rows { rows, .. } = &rep.result {
                returned += rows.len() as u64;
            }
            digest(&rep.result)
        })
        .collect();
    (refs, examined as f64 / returned.max(1) as f64)
}

/// Manufacture, boot and attest a host and a storage node with the same
/// public `tee`/`monitor` calls `Deployment::build` makes, returning the
/// monitor and an empty IronSafe system on the attested storage medium.
/// `serve-rw` needs this because a `Deployment` cannot take a
/// WAL-attached system.
fn attest() -> (TrustedMonitor, CsaSystem) {
    let group = Group::modp_1024();
    let mut rng = StdRng::seed_from_u64(0);
    let platform = Arc::new(SgxPlatform::from_seed(&group, b"ironsafe-host-platform"));
    let host_image = SoftwareImage::new("host-engine", 1, b"ironsafe host engine".to_vec());
    let supervisor = EnclaveSupervisor::new(
        Arc::clone(&platform),
        host_image.clone(),
        EnclaveConfig::default(),
        ironsafe_faults::FaultPlan::none(),
    );
    let mut ias = AttestationService::new(&group);
    ias.register_platform(&platform);
    let mfr = Manufacturer::from_seed(&group, b"ironsafe-storage-vendor");
    let vendor = KeyPair::derive(&group, b"ironsafe-storage-vendor", b"tz-manufacturer-root");
    let device = mfr.make_device("storage-0", 8, &mut rng);
    let mut sign = |img: SoftwareImage| SignedImage::sign(&group, &vendor.secret, img, &mut rng);
    let images = BootImages {
        trusted_firmware: sign(SoftwareImage::new(
            "atf",
            2,
            b"arm trusted firmware".to_vec(),
        )),
        trusted_os: sign(SoftwareImage::new("optee", 34, b"op-tee 3.4".to_vec())),
        normal_world: SoftwareImage::new(
            "storage-normal-world",
            1,
            b"linux + csa runtime + storage engine".to_vec(),
        ),
    };
    let booted =
        SecureBoot::boot(&device, &mfr.root_public(), &images, &mut rng).expect("secure boot");
    let config = MonitorConfig {
        expected_host_measurement: host_image.measure(),
        expected_nw_measurement: booted.nw_measurement,
        latest_fw: 1,
    };
    let mut monitor = TrustedMonitor::new(&group, 0x0170, ias, mfr.root_public(), config);
    let session_keys = KeyPair::generate(&group, &mut rng);
    let commitment = ironsafe_crypto::sha256::sha256(&session_keys.public.to_bytes(&group));
    let quote = Quote::generate(&platform, supervisor.enclave(), &commitment, &mut rng);
    monitor
        .attest_host("host-0", "EU", &quote, &session_keys.public)
        .expect("host attests");
    let challenge = monitor.storage_challenge();
    let response = AttestationTa::new(&booted).respond(challenge, &mut rng);
    monitor
        .attest_storage("storage-0", "EU", &response)
        .expect("storage attests");
    let medium = mfr.make_device("storage-0-medium", 8, &mut rng);
    let db = Database::new(SecurePager::create(medium, 0).expect("secure pager"));
    (
        monitor,
        CsaSystem::from_database(SystemConfig::IronSafe, db, CostParams::default()),
    )
}

fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let find = |s: &MetricsSnapshot| {
        s.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
    };
    let mut d = find(after).unwrap_or_default();
    if let Some(b) = find(before) {
        d.count -= b.count;
        d.sum -= b.sum;
        for (x, y) in d.buckets.iter_mut().zip(&b.buckets) {
            *x -= y;
        }
    }
    d
}

/// The per-request figures both served workloads collect.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    reads_ms: Vec<f64>,
    writes_ms: Vec<f64>,
    /// (seq, request node, the query's own trace) for grafting.
    traced: Vec<(usize, u64, usize, Option<ironsafe_obs::TraceSnapshot>)>,
    parse_us: Vec<f64>,
    rows_shipped: u64,
    bytes_shipped: u64,
    wall_s: f64,
}

/// Run one window of the closed loop over `served`, tallying every
/// response against the reference (reads) or the expected count
/// (writes).
fn window(
    served: &Served,
    seconds: f64,
    min_writes: usize,
    writer: Option<&mut Writer>,
    rng: &mut Rng,
    trace: &mut BenchTrace,
    out: &mut Outcome,
) -> Window {
    let mut w = Window::default();
    let sids: Vec<u64> = served.sessions.iter().map(|s| s.0).collect();
    let writer_slot = writer.as_ref().map(|_| sids.len() - 1);
    let writer = std::cell::RefCell::new(writer);
    let traced = trace.enabled();
    let pool = &served.pool;
    let mut reads = 0usize;
    let mut next = |slot: usize| -> (Item, String) {
        if Some(slot) == writer_slot {
            let mut wr = writer.borrow_mut();
            let wr = wr.as_mut().expect("writer slot has a writer");
            let i = wr.next();
            return (Item::Write(i), wr.writes[i].sql.clone());
        }
        // The read kinds take turns (the pool interleaves them); the
        // statement within a kind is drawn at random.
        let i = rng.below(POOL_PER_KIND) * READ_KINDS.len() + reads % READ_KINDS.len();
        reads += 1;
        (Item::Read(i), pool[i].1.clone())
    };
    let mut parse = Vec::new();
    let mut finish = |req: Req, at: Instant, resp: QueryResponse, out: &mut Outcome| {
        let ms = (at - req.submit_start).as_secs_f64() * 1e3;
        let (kind, verdict, sim_ms) = match (req.item, &resp.outcome) {
            (Item::Read(i), Ok(rep)) => {
                let v = if digest(&rep.result) == served.refs[i] {
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                };
                (pool[i].0, v, rep.total_ns() / 1e6)
            }
            (Item::Write(i), Ok(rep)) => {
                let mut wr = writer.borrow_mut();
                let wr = wr.as_mut().expect("writes come from the writer");
                let ok = matches!(rep.result, QueryResult::Count(1));
                wr.writes[i].acked = ok;
                (
                    wr.writes[i].kind,
                    if ok { Verdict::Ok } else { Verdict::Wrong },
                    rep.total_ns() / 1e6,
                )
            }
            (Item::Read(i), Err(_)) => (pool[i].0, Verdict::Failed, 0.0),
            (Item::Write(i), Err(_)) => (
                writer
                    .borrow()
                    .as_ref()
                    .map_or(UPDATE, |wr| wr.writes[i].kind),
                Verdict::Failed,
                0.0,
            ),
        };
        if let Err(e) = &resp.outcome {
            if out.failed < 3 {
                let sql = match req.item {
                    Item::Read(i) => pool[i].1.clone(),
                    Item::Write(i) => writer
                        .borrow()
                        .as_ref()
                        .map_or(String::new(), |wr| wr.writes[i].sql.clone()),
                };
                eprintln!("perfbench: request failed: {sql}: {e}");
            }
        }
        if let Ok(rep) = &resp.outcome {
            w.rows_shipped += rep.rows_shipped;
            w.bytes_shipped += rep.bytes_shipped;
        }
        let ok = matches!(verdict, Verdict::Ok);
        if let Some(s) = tally(
            out,
            Op {
                kind,
                ms,
                sim_ms,
                verdict,
            },
        ) {
            w.samples.push(s);
            if kind >= UPDATE {
                w.writes_ms.push(ms)
            } else {
                w.reads_ms.push(ms)
            }
        }
        if traced {
            let root = trace.span("serve/request", "serve", None, req.submit_start, at);
            trace.span(
                "serve/submit",
                "serve",
                root,
                req.submit_start,
                req.submitted,
            );
            if let (Some(root), true) = (root, ok) {
                w.traced.push((req.slot, req.seq, root, resp.trace));
            }
            let sql = match req.item {
                Item::Read(i) => pool[i].1.clone(),
                Item::Write(i) => writer
                    .borrow()
                    .as_ref()
                    .map_or(String::new(), |wr| wr.writes[i].sql.clone()),
            };
            let t = Instant::now();
            let _ = std::hint::black_box(ironsafe_sql::parser::parse_statement(&sql));
            parse.push(t.elapsed().as_secs_f64() * 1e6);
        }
    };
    let acked = |wr: &Option<&mut Writer>| {
        wr.as_ref()
            .map_or(0, |wr| wr.writes.iter().filter(|w| w.acked).count())
    };
    let base = acked(&writer.borrow());
    let more = || acked(&writer.borrow()) < base + min_writes;
    // With a writer, reads never overlap a write: a read that runs while
    // a group commits can fail on a corrupt heap page (see README).
    w.wall_s = closed_loop(
        &served.server,
        &sids,
        seconds,
        writer_slot.is_some(),
        &mut next,
        &mut finish,
        more,
        out,
    );
    w.parse_us = parse;
    w
}

/// Graft the sessions' root spans (`session-<id>/query-<seq>`) and each
/// query's own trace under the benchmark's request spans.
fn graft_sessions(served: &Served, w: &Window, trace: &mut BenchTrace) {
    for (slot, &(sid, epoch)) in served.sessions.iter().enumerate() {
        let Some(snap) = served.server.session_trace(sid) else {
            continue;
        };
        let by_seq: HashMap<String, (usize, Option<&ironsafe_obs::TraceSnapshot>)> = w
            .traced
            .iter()
            .filter(|t| t.0 == slot)
            .map(|t| (format!("session-{sid}/query-{}", t.1), (t.2, t.3.as_ref())))
            .collect();
        let origin = trace.ns(epoch);
        let map = trace.graft(&snap, origin, |s| by_seq.get(&s.name).map(|x| x.0));
        // Place each query's own trace after the monitor's authorize span
        // of its session root (the program opens it right after).
        for (i, s) in snap.spans.iter().enumerate() {
            let (Some(node), None) = (map[i], s.parent) else {
                continue;
            };
            let Some((_, Some(qtrace))) = by_seq.get(&s.name) else {
                continue;
            };
            let after_auth = snap
                .spans
                .iter()
                .enumerate()
                .filter(|(_, c)| c.parent == Some(i) && c.name == "monitor/authorize")
                .map(|(_, c)| c.start_wall_ns + c.wall_ns)
                .next()
                .unwrap_or(s.start_wall_ns);
            trace.graft(qtrace, origin + after_auth, |_| Some(node));
        }
    }
}

/// Warm the shared page cache: every pool statement once, in order.
fn warm_up(served: &Served, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    let sid = served.sessions[0].0;
    for (i, (kind, sql)) in served.pool.iter().enumerate() {
        let t0 = Instant::now();
        let verdict = match served
            .server
            .submit(sid, Job::Sql(sql.clone()))
            .map(|t| t.wait().outcome)
        {
            Ok(Ok(rep)) if digest(&rep.result) == served.refs[i] => Verdict::Ok,
            Ok(Ok(_)) => Verdict::Wrong,
            _ => Verdict::Failed,
        };
        tally(
            out,
            Op {
                kind: *kind,
                ms: t0.elapsed().as_secs_f64() * 1e3,
                sim_ms: 0.0,
                verdict,
            },
        );
    }
    t.elapsed().as_secs_f64()
}

/// The end-to-end figures of a served window.
fn serve_e2e(out: &mut Outcome, w: &Window) {
    let s = summarize(&w.samples);
    out.e2e
        .insert("ops_per_s", w.samples.len() as f64 / w.wall_s);
    out.e2e.insert("latency_ms", s.latency_ms);
    out.e2e.insert("sim_ms", s.sim_ms);
    let n = w.reads_ms.len();
    out.show(
        "rps",
        n as f64 / w.wall_s,
        "1/s",
        format!("{n} reads in {:.2} s", w.wall_s),
    );
    out.show(
        "req_p50_ms",
        stats::median(&w.reads_ms),
        "ms",
        format!("{n} reads"),
    );
    if let Some(q) = stats::tail_quantile(n) {
        let label = format!("req_p{:.1}_ms", q * 100.0);
        out.show(
            &label,
            stats::quantile(&w.reads_ms, q),
            "ms",
            format!("{n} reads"),
        );
    }
    if !w.writes_ms.is_empty() {
        let m = w.writes_ms.len();
        out.show(
            "write_p50_ms",
            stats::median(&w.writes_ms),
            "ms",
            format!("{m} acknowledged writes"),
        );
        out.show(
            "write_p95_ms",
            stats::quantile(&w.writes_ms, 0.95),
            "ms",
            format!("{m} acknowledged writes"),
        );
    }
    out.show(
        "latency_ms",
        s.latency_ms,
        "ms",
        format!("geomean of {} per-kind medians", s.kind_median_ms.len()),
    );
    out.show(
        "tail_ms",
        s.tail_ms,
        "ms",
        format!("{} of {} requests", s.tail_label, w.samples.len()),
    );
    for (k, m) in &s.kind_median_ms {
        let name =
            READ_KINDS
                .get(*k)
                .copied()
                .unwrap_or(if *k == UPDATE { "update" } else { "insert" });
        out.show(
            &format!("  {name}_ms"),
            *m,
            "ms",
            format!("median of {}", s.kind_count[k]),
        );
    }
}

/// Per-layer figures of a served traced window.
fn serve_layers(
    out: &mut Outcome,
    w: &Window,
    trace: &BenchTrace,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    untraced_latency: f64,
    policy: &str,
) {
    let ops = w.samples.len().max(1) as f64;
    let d = |n: &str| counter_delta(std::slice::from_ref(before), std::slice::from_ref(after), n);
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
        .insert("csa.rows_shipped", w.rows_shipped as f64 / ops);
    out.layers
        .insert("csa.bytes_shipped", w.bytes_shipped as f64 / ops);
    out.layers
        .insert("monitor.query.grant", d("monitor.query.grant"));
    out.layers
        .insert("monitor.query.deny", d("monitor.query.deny"));
    let auth = trace
        .nodes
        .iter()
        .filter(|n| n.name == "monitor/authorize")
        .count()
        .max(1) as f64;
    out.layers.insert(
        "monitor.authorize_us",
        trace.self_ns_where(|n| n.name == "monitor/authorize") as f64 / 1e3 / auth,
    );
    let ms = |h: &HistogramSnapshot, q: f64| h.quantile_upper_bound(q) as f64 / 1e6;
    let qw = hist_delta(before, after, "serve.slo.queue_wait_ns");
    let sv = hist_delta(before, after, "serve.slo.service_ns");
    out.layers.insert("serve.queue_wait_p50_ms", ms(&qw, 0.5));
    out.layers.insert("serve.queue_wait_p99_ms", ms(&qw, 0.99));
    out.layers.insert("serve.service_p50_ms", ms(&sv, 0.5));
    out.layers.insert(
        "serve.rejected_share",
        d("serve.query.rejected") / d("serve.query.admitted").max(1.0),
    );
    let root = trace.root_ns().max(1) as f64;
    let layers = trace.layer_totals();
    let share = |l: &str| layers.get(l).map_or(0.0, |(s, _)| *s as f64) / root;
    out.layers.insert("serve.self_share", share("serve"));
    out.layers.insert("monitor.self_share", share("monitor"));
    out.layers.insert("policy.eval_us", policy_eval_us(policy));
    out.layers.insert(
        "obs.tracing_overhead",
        summarize(&w.samples).latency_ms / untraced_latency - 1.0,
    );
    common_layers(
        out,
        trace,
        ops,
        w.wall_s,
        d("storage.page.decrypt"),
        &w.parse_us,
    );
}

/// Mean µs of one `ironsafe_policy` evaluation of the workload's read
/// permission for an attested EU host and storage node.
fn policy_eval_us(policy: &str) -> f64 {
    let policy = parse_policy(policy).expect("workload policy parses");
    let ctx = EvalContext {
        session_key: "analyst-a".into(),
        host_loc: "EU".into(),
        storage_loc: Some("EU".into()),
        fw_host: 1,
        fw_storage: Some(1),
        latest_fw: 1,
    };
    let n = 2000;
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(evaluate(&policy, Perm::Read, std::hint::black_box(&ctx)));
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// `serve-hot`: two reader sessions on an attested `Deployment`, every
/// request through monitor authorization, with the whole store in the
/// shared decrypted-page cache.
pub fn hot(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let (data, dep, setup, [gen_s, attest_s, load_s]) = set_up(args, |data| {
        let t = Instant::now();
        let mut dep = Deployment::builder().build().expect("deployment attests");
        let attest = t.elapsed().as_secs_f64();
        let t = Instant::now();
        ironsafe_tpch::load_into(dep.system_mut().storage_db_mut(), data).expect("data loads");
        dep.create_database(DB, POLICY_READ);
        (dep, attest, t.elapsed().as_secs_f64())
    });
    let mut rng = Rng::new(args.seed);
    let pool = read_pool(&data, &mut rng);
    let (refs, examined) = pool_reference(&data, &pool);
    let pages = dep.system().storage_db().pager().lock().num_pages();
    let user_bytes = table_payload(&data);
    drop(data);
    let reg = Registry::new();
    dep.system().storage_db().register_metrics(&reg);
    dep.system().register_exec_metrics(&reg);
    dep.system().register_plan_metrics(&reg);
    dep.monitor().register_metrics(&reg);
    let server = dep.serve(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    });
    server.metrics().register(&reg);
    let sessions = ["analyst-a", "analyst-b"]
        .iter()
        .map(|c| {
            let epoch = Instant::now();
            (server.open_session(c, DB).id, epoch)
        })
        .collect();
    let served = Served {
        server,
        sessions,
        pool,
        refs,
        reg,
    };
    let warmup_s = warm_up(&served, &mut out);
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
    out.show(
        "warmup_s",
        warmup_s,
        "s",
        format!("{} pool statements once", served.pool.len()),
    );

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = BenchTrace::new(false);
    let w = window(&served, seconds, 0, None, &mut rng, &mut off, &mut out);
    serve_e2e(&mut out, &w);
    if args.trace {
        let mut trace = BenchTrace::new(true);
        let before = served.reg.snapshot();
        let tw = window(&served, seconds, 0, None, &mut rng, &mut trace, &mut out);
        let after = served.reg.snapshot();
        graft_sessions(&served, &tw, &mut trace);
        out.layers.insert("tpch.generate_s", gen_s);
        out.layers.insert("monitor.attest_s", attest_s);
        out.layers.insert("storage.load_s", load_s);
        out.layers
            .insert("sql.rows_examined_per_row_returned", examined);
        let untraced = summarize(&w.samples).latency_ms;
        serve_layers(
            &mut out,
            &tw,
            &trace,
            &before,
            &after,
            untraced,
            POLICY_READ,
        );
        out.table = trace.table("serve-hot traced half");
        write_trace_files(args, &trace, &out.table);
    }
    served.server.shutdown();
    out
}

/// `serve-rw`: one reader and one writer session, taking turns, on a
/// WAL-attached (group size 4) shared system behind a `QueryServer`; the
/// run ends in a power failure after the last acknowledged write, then
/// recovery, then a read-back of every acknowledged write.
pub fn read_write(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let (data, (shared, monitor), setup, [gen_s, attest_s, load_s]) = set_up(args, |data| {
        let t = Instant::now();
        let (mut monitor, mut sys) = attest();
        monitor.register_database(DB, parse_policy(POLICY_RW).expect("policy parses"));
        let attest = t.elapsed().as_secs_f64();
        let t = Instant::now();
        ironsafe_tpch::load_into(sys.storage_db_mut(), data).expect("data loads");
        let shared = SharedCsaSystem::new(sys);
        shared.set_group_size(GROUP_SIZE);
        shared.attach_wal(args.seed).expect("WAL attaches");
        (
            (Arc::new(shared), monitor),
            attest,
            t.elapsed().as_secs_f64(),
        )
    });
    let mut rng = Rng::new(args.seed);
    let pool = read_pool(&data, &mut rng);
    let (refs, examined) = pool_reference(&data, &pool);
    let mut writer = Writer::new(&data, args.seed);
    drop(data);
    let reg = Registry::new();
    shared.with_system(|s| {
        s.storage_db().register_metrics(&reg);
        s.register_exec_metrics(&reg);
        s.register_plan_metrics(&reg);
    });
    shared.register_wal_metrics(&reg);
    monitor.register_metrics(&reg);
    let server = QueryServer::start(
        Arc::clone(&shared),
        Arc::new(parking_lot::Mutex::new(monitor)),
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
    );
    server.metrics().register(&reg);
    let sessions = ["analyst-a", "writer"]
        .iter()
        .map(|c| {
            let epoch = Instant::now();
            (server.open_session(c, DB).id, epoch)
        })
        .collect();
    let served = Served {
        server,
        sessions,
        pool,
        refs,
        reg,
    };
    let warmup_s = warm_up(&served, &mut out);
    out.e2e.insert("setup_s", stats::median(&setup) + warmup_s);
    out.show(
        "setup_s",
        stats::median(&setup),
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    out.show(
        "warmup_s",
        warmup_s,
        "s",
        format!("{} pool statements once", served.pool.len()),
    );

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = BenchTrace::new(false);
    let min_writes = if args.trace {
        MIN_WRITES / 2
    } else {
        MIN_WRITES
    };
    let base = served.reg.snapshot();
    let base_pages = shared.with_system(|s| s.storage_db().pager().lock().num_pages());
    let w = window(
        &served,
        seconds,
        min_writes,
        Some(&mut writer),
        &mut rng,
        &mut off,
        &mut out,
    );
    serve_e2e(&mut out, &w);
    let mut trace = BenchTrace::new(args.trace);
    let mut traced = None;
    if args.trace {
        let before = served.reg.snapshot();
        let tw = window(
            &served,
            seconds,
            min_writes,
            Some(&mut writer),
            &mut rng,
            &mut trace,
            &mut out,
        );
        let after = served.reg.snapshot();
        graft_sessions(&served, &tw, &mut trace);
        traced = Some((tw, before, after));
    }
    let Served {
        server,
        reg: served_reg,
        ..
    } = served;
    // Drain: every admitted request completes and the server flushes the
    // group buffer (its shutdown contract).
    server.shutdown();

    // The writer goes on directly on the shared system; each statement
    // is acknowledged by `run_statement` returning. Then power fails:
    // nothing more is flushed.
    for _ in 0..CRASH_TAIL {
        let i = writer.next();
        let stmt =
            ironsafe_sql::parser::parse_statement(&writer.writes[i].sql).expect("write parses");
        let t = Instant::now();
        let verdict = match shared.run_statement(&stmt, [0x77; 32]) {
            Ok((rep, _)) if matches!(rep.result, QueryResult::Count(1)) => {
                writer.writes[i].acked = true;
                Verdict::Ok
            }
            Ok(_) => Verdict::Wrong,
            Err(_) => Verdict::Failed,
        };
        let kind = writer.writes[i].kind;
        tally(
            &mut out,
            Op {
                kind,
                ms: t.elapsed().as_secs_f64() * 1e3,
                sim_ms: 0.0,
                verdict,
            },
        );
    }
    // Bytes the run added to the untrusted medium (WAL frames plus new
    // data blocks) per byte of row payload it wrote.
    let pages = shared.with_system(|s| s.storage_db().pager().lock().num_pages());
    let wal_bytes = counter_delta(
        std::slice::from_ref(&base),
        &[served_reg.snapshot()],
        "wal.append.bytes",
    );
    let written: u64 = writer
        .writes
        .iter()
        .filter(|w| w.acked)
        .map(|w| w.payload)
        .sum();
    let added = wal_bytes + ((pages - base_pages) * BLOCK_SIZE as u64) as f64;
    out.e2e
        .insert("bytes_per_user_byte", added / written.max(1) as f64);
    out.show(
        "wal_bytes",
        wal_bytes,
        "B",
        format!("for {written} B of written row payload"),
    );
    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| panic!("server released the system"));
    let (parts, medium) = shared.teardown();
    let (tz, _lost_medium) = parts.expect("secure base tears down");
    let medium = medium.expect("WAL attached");

    let t = Instant::now();
    let recovery = SharedCsaSystem::recover(
        SystemConfig::IronSafe,
        CostParams::default(),
        tz,
        &medium,
        args.seed ^ 1,
        args.seed ^ 2,
        GROUP_SIZE,
    );
    let recover_s = t.elapsed().as_secs_f64();
    let replayed = recovery.as_ref().map_or(0, |(_, r)| r.replayed);
    out.show(
        "recover_s",
        recover_s,
        "s",
        format!("{replayed} commit records replayed"),
    );

    // Read back every acknowledged write. Writes commit in issue order, so
    // the recovered store must hold exactly a prefix of them; acknowledged
    // writes past that prefix are lost. Losing only the unflushed tail
    // (fewer than a group) is the known group-commit defect: every write
    // returned `Ok`, so it is reported as `wal.acked_lost`, not as failed
    // operations. Anything else is a wrong answer.
    let stmt = ironsafe_sql::parser::parse_statement("SELECT o_orderkey, o_comment FROM orders")
        .expect("read-back parses");
    // A failed recovery or read-back leaves every acknowledged write lost.
    let comments: HashMap<i64, String> = match recovery
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|(sys, _)| {
            sys.run_statement(&stmt, [0x77; 32])
                .map_err(|e| e.to_string())
        }) {
        Ok((rep, _)) => match rep.result {
            QueryResult::Rows { rows, .. } => rows
                .into_iter()
                .filter_map(|r| match (r.first(), r.get(1)) {
                    (Some(Value::Int(k)), Some(Value::Text(c))) => Some((*k, c.clone())),
                    _ => None,
                })
                .collect(),
            _ => HashMap::new(),
        },
        Err(e) => {
            eprintln!("perfbench: recovery or read-back failed: {e}");
            HashMap::new()
        }
    };
    let acked: Vec<&Write> = writer.writes.iter().filter(|w| w.acked).collect();
    let present: Vec<bool> = acked
        .iter()
        .map(|w| comments.get(&w.key) == Some(&w.marker))
        .collect();
    let prefix = present.iter().take_while(|p| **p).count();
    let lost = acked.len() - prefix;
    if present[prefix..].iter().any(|p| *p) || lost >= GROUP_SIZE {
        out.correct = false;
    }
    out.show(
        "acked_writes",
        acked.len() as f64,
        "count",
        format!("{lost} lost across the crash"),
    );
    out.show(
        "wal.acked_lost",
        lost as f64,
        "count",
        "acknowledged, unflushed at the crash (known defect)".to_string(),
    );

    if let Some((tw, before, after)) = traced {
        let d = |n: &str| {
            counter_delta(
                std::slice::from_ref(&before),
                std::slice::from_ref(&after),
                n,
            )
        };
        let txns = d("wal.txn").max(1.0);
        out.layers.insert("tpch.generate_s", gen_s);
        out.layers.insert("monitor.attest_s", attest_s);
        out.layers.insert("storage.load_s", load_s);
        out.layers
            .insert("sql.rows_examined_per_row_returned", examined);
        out.layers
            .insert("wal.append.bytes_per_txn", d("wal.append.bytes") / txns);
        out.layers
            .insert("wal.group_commit_per_txn", d("wal.group_commit") / txns);
        out.layers
            .insert("tee.rpmb.write_per_txn", d("storage.rpmb.write") / txns);
        out.layers.insert(
            "mvcc.retain_per_write",
            d("mvcc.retain") / tw.writes_ms.len().max(1) as f64,
        );
        out.layers
            .insert("mvcc.read.retained", d("mvcc.read.retained"));
        out.layers.insert("wal.recover.replayed", replayed as f64);
        out.layers.insert("wal.recover_s", recover_s);
        out.layers.insert("wal.acked_lost", lost as f64);
        out.layers
            .insert("serve.write_p50_ms", stats::median(&tw.writes_ms));
        out.layers
            .insert("serve.write_p95_ms", stats::quantile(&tw.writes_ms, 0.95));
        let untraced = summarize(&w.samples).latency_ms;
        serve_layers(&mut out, &tw, &trace, &before, &after, untraced, POLICY_RW);
        out.table = trace.table("serve-rw traced half");
        write_trace_files(args, &trace, &out.table);
    }
    out
}
