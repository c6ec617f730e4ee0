//! The federation coordinator: shard-parallel fan-out, deterministic
//! merge, canonical cost accounting and replica failover.
//!
//! ## Determinism contract
//!
//! Result rows are bit-identical at any shard count and any DOP because
//! every fragment projects the hidden `__gid` column and the coordinator
//! k-way merges shard streams by ascending gid — recovering the exact
//! row order a single node would have produced — before anything
//! order-sensitive happens (partial-aggregate replay, host temp-table
//! load, channel serialization).
//!
//! [`CostBreakdown`]s are bit-identical across shard counts because the
//! coordinator charges the cost model **only from conserved
//! quantities**: total scanned rows, the merged (placement-invariant)
//! shipped stream sealed once through one canonical channel, summed
//! per-shard pager deltas (conserved under page-aligned range
//! partitioning), logical fragment count, and a canonical Merkle depth
//! computed from the single-node page count. Genuinely N-dependent costs
//! (extra per-shard fragment instantiations, extra sessions, failover
//! re-verification) are reported separately as
//! [`FederatedReport::fanout_overhead_ns`], never folded into the
//! breakdown. Note the freshness charge uses the *canonical* tree depth:
//! real per-shard trees are shallower (that is the sharding dividend),
//! so the model is conservative at N > 1; observed per-shard
//! `merkle_nodes`/`rpmb_ops` are still reported truthfully in
//! [`ShardDelta`].
//!
//! ## Failover protocol
//!
//! Fragments fan out one thread per shard with per-shard seeded fault
//! plans (shared plan state across threads would be racy). Failures are
//! resolved *after* the join, serially in shard order, so quarantine
//! audit entries land in a deterministic order: quarantine the active
//! node (counter + audit chain, and the attached monitor's chain),
//! promote the next replica after checking its attestation record and
//! re-verifying its partition row counts through the secure read path,
//! then re-run the fragment. An exhausted chain returns
//! [`ScaleError::ShardUnavailable`]; nothing in this path panics.

use crate::config::FederationConfig;
use crate::metrics::ScaleMetrics;
use crate::node::ShardNode;
use crate::partitioner::{gid_schema, TablePartition, GID_COLUMN};
use crate::{Result, ScaleError};
use ironsafe_csa::cost::CostBreakdown;
use ironsafe_csa::net::channel_pair;
use ironsafe_csa::partition::{
    partition_select, render_select, OffloadDecision, Partition, StorageQuery,
};
use ironsafe_csa::{QueryReport, SystemConfig};
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_monitor::{AuditLog, TrustedMonitor};
use ironsafe_obs::{Span, Trace, TraceCtx, TraceSnapshot};
use ironsafe_sql::ast::{Expr, SelectItem, SelectStmt, Statement};
use ironsafe_sql::exec::{AggPlan, ExecOptions};
use ironsafe_sql::schema::{Row, Schema};
use ironsafe_sql::value::Value;
use ironsafe_sql::{Database, QueryResult};
use ironsafe_storage::pager::{PagerStats, PlainPager};
use ironsafe_tee::sgx::epc::EpcSimulator;
use ironsafe_tpch::queries::{PaperQuery, QueryStage};
use ironsafe_tpch::TpchData;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Observed per-shard execution facts for one query.
#[derive(Debug, Clone)]
pub struct ShardDelta {
    /// Shard index.
    pub shard: usize,
    /// The node that ended the query serving this shard.
    pub node: String,
    /// The serving node's pager-stats delta for this query.
    pub stats: PagerStats,
    /// Rows this shard contributed to the merged streams.
    pub rows_shipped: u64,
}

/// A federated query's result and accounting.
#[derive(Debug, Clone)]
pub struct FederatedReport {
    /// Per-node system configuration.
    pub config: SystemConfig,
    /// TPC-H query number (0 for ad-hoc statements).
    pub query_id: u8,
    /// Shard count the query ran at.
    pub shards: usize,
    /// The result (bit-identical at any shard count).
    pub result: QueryResult,
    /// Canonical simulated-time breakdown (bit-identical at any shard
    /// count and DOP).
    pub breakdown: CostBreakdown,
    /// N-dependent coordination cost kept out of the breakdown: extra
    /// per-shard fragment instantiations beyond the logical fragments,
    /// extra per-shard channel sessions, and failover re-verification.
    pub fanout_overhead_ns: f64,
    /// Per-shard observed facts (pager deltas sum to the single-node
    /// delta under range partitioning; Merkle/RPMB counts shrink with N
    /// — the sharding dividend).
    pub per_shard: Vec<ShardDelta>,
    /// Summed pages read across serving nodes.
    pub pages_read_storage: u64,
    /// Rows shipped shard→coordinator (merged stream length).
    pub rows_shipped: u64,
    /// Bytes through the canonical channel.
    pub bytes_shipped: u64,
}

impl FederatedReport {
    /// Total simulated time excluding fan-out overhead.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }

    /// Collapse into the single-node report shape the serving layer and
    /// benchmarks consume.
    pub fn to_query_report(&self) -> QueryReport {
        QueryReport {
            config: self.config,
            query_id: self.query_id,
            result: self.result.clone(),
            breakdown: self.breakdown,
            pages_read_storage: self.pages_read_storage,
            pages_shipped: self.bytes_shipped.div_ceil(4096),
            rows_shipped: self.rows_shipped,
            bytes_shipped: self.bytes_shipped,
        }
    }
}

/// Everything `run_stages` hands back for report assembly.
struct RunFacts {
    result: QueryResult,
    delta_sum: PagerStats,
    per_shard: Vec<ShardDelta>,
    bytes: u64,
    rows_shipped: u64,
    fanout_overhead_ns: f64,
}

/// A federation of shard-partitioned, independently attested storage
/// nodes behind one coordinator.
pub struct FederatedCsaSystem {
    config: FederationConfig,
    /// Base (gid-less) schemas in load order.
    schemas: Vec<(String, Schema)>,
    /// Routing specs (shard row vectors are dropped after node load).
    partitions: Vec<TablePartition>,
    /// `nodes[shard]` is that shard's failover chain (0 = primary).
    nodes: Vec<Vec<ShardNode>>,
    /// Index of each shard's currently serving node.
    active: Vec<AtomicUsize>,
    /// Coordinator-side per-shard fault plans (crash injection).
    shard_plans: Vec<Mutex<FaultPlan>>,
    /// Heap pages of the gid-augmented data set packed on one node —
    /// the N-invariant input to the canonical freshness charge.
    canonical_pages: u64,
    audit: AuditLog,
    monitor: Mutex<Option<Arc<Mutex<TrustedMonitor>>>>,
    metrics: ScaleMetrics,
    /// Logical audit clock (monotonic across queries).
    clock: AtomicI64,
    /// Serializes queries so per-query pager-stat deltas are exact.
    query_lock: Mutex<()>,
}

impl FederatedCsaSystem {
    /// Validate `config`, partition `data`, and build every shard's
    /// replica chain. All topology errors surface before any node I/O.
    pub fn build(config: FederationConfig, data: &TpchData) -> Result<FederatedCsaSystem> {
        config.validate()?;
        // Schemas come from DDL alone so key validation precedes I/O.
        let mut scratch = Database::new(PlainPager::new());
        for ddl in ironsafe_tpch::schema::DDL {
            scratch.execute(ddl)?;
        }
        let loaded = data.tables();
        for table in config.partition_keys.keys() {
            if !loaded.iter().any(|(n, _)| n == table) {
                return Err(ScaleError::UnknownTable(table.clone()));
            }
        }
        let mut schemas = Vec::with_capacity(loaded.len());
        for (name, _) in &loaded {
            let schema = scratch.catalog().table(name)?.schema.clone();
            let key = config.partition_keys.get(*name).ok_or_else(|| {
                ScaleError::MissingPartitionKey {
                    table: name.to_string(),
                    key: "(none configured)".to_string(),
                }
            })?;
            if schema.resolve(key).is_err() {
                return Err(ScaleError::MissingPartitionKey {
                    table: name.to_string(),
                    key: key.clone(),
                });
            }
            schemas.push((name.to_string(), schema));
        }

        let mut partitions = Vec::with_capacity(loaded.len());
        for ((name, rows), (_, schema)) in loaded.iter().zip(&schemas) {
            let key = &config.partition_keys[*name];
            partitions.push(TablePartition::build(
                name,
                schema,
                rows,
                key,
                config.mode,
                config.shards,
            )?);
        }
        let canonical_pages = partitions.iter().map(|p| p.canonical_pages).sum();

        let secure = config.system.secure();
        let mut nodes = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let tables: Vec<(String, Schema, Vec<Row>)> = partitions
                .iter()
                .map(|part| {
                    (part.table.clone(), gid_schema(&part.schema), part.shard_rows[shard].clone())
                })
                .collect();
            let mut chain = Vec::with_capacity(config.replicas + 1);
            for replica in 0..=config.replicas {
                chain.push(ShardNode::build(
                    shard,
                    replica,
                    secure,
                    config.compressed,
                    &config.params,
                    &tables,
                )?);
            }
            nodes.push(chain);
        }
        for part in &mut partitions {
            part.shard_rows = Vec::new();
        }

        let shards = config.shards;
        Ok(FederatedCsaSystem {
            active: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            shard_plans: (0..shards).map(|_| Mutex::new(FaultPlan::none())).collect(),
            config,
            schemas,
            partitions,
            nodes,
            canonical_pages,
            audit: AuditLog::new(),
            monitor: Mutex::new(None),
            metrics: ScaleMetrics::new(),
            clock: AtomicI64::new(0),
            query_lock: Mutex::new(()),
        })
    }

    /// The federation's configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The coordinator's own tamper-evident audit chain (quarantine and
    /// promotion events).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Live federation counters.
    pub fn metrics(&self) -> &ScaleMetrics {
        &self.metrics
    }

    /// Mirror quarantine/promotion audit events into `monitor`'s chain.
    pub fn attach_monitor(&self, monitor: Arc<Mutex<TrustedMonitor>>) {
        *self.monitor.lock() = Some(monitor);
    }

    /// Attach the federation counters to `registry`.
    pub fn register_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.metrics.register(registry);
    }

    /// Index of the node currently serving `shard`.
    pub fn active_replica(&self, shard: usize) -> usize {
        self.active[shard].load(Ordering::SeqCst)
    }

    /// A shard-chain node (primary = replica 0).
    pub fn node(&self, shard: usize, replica: usize) -> &ShardNode {
        &self.nodes[shard][replica]
    }

    /// Install a coordinator-side fault plan for `shard` (crash
    /// injection) and mirror it onto the shard's *currently serving*
    /// node's pager (device/integrity/freshness sites). Replicas keep
    /// clean plans, so promotion actually recovers.
    pub fn set_shard_fault_plan(&self, shard: usize, plan: FaultPlan) {
        self.active_node(shard).set_fault_plan(plan.clone());
        *self.shard_plans[shard].lock() = plan;
    }

    /// Drain every serving node's TEE-resident flight recorder, shard
    /// order.
    pub fn take_flight_dump(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in 0..self.config.shards {
            out.extend(self.active_node(shard).take_flight_dump());
        }
        out
    }

    fn active_node(&self, shard: usize) -> &ShardNode {
        &self.nodes[shard][self.active[shard].load(Ordering::SeqCst)]
    }

    fn partition(&self, table: &str) -> Result<&TablePartition> {
        self.partitions
            .iter()
            .find(|p| p.table == table)
            .ok_or_else(|| ScaleError::UnknownTable(table.to_string()))
    }

    fn audit_event(&self, message: &str) {
        let ts = self.clock.fetch_add(1, Ordering::SeqCst);
        self.audit.append(ts, "federation", "coordinator", message);
        if let Some(mon) = self.monitor.lock().as_ref() {
            mon.lock().audit().append(ts, "federation", "coordinator", message);
        }
    }

    fn quarantine(&self, shard: usize, replica: usize, reason: &str) {
        self.metrics.shard_quarantined.inc();
        let node_id = self.nodes[shard][replica].id.clone();
        self.audit_event(&format!("shard {shard}: quarantined {node_id} ({reason})"));
    }

    /// Run one paper query across the federation.
    pub fn run_query_federated(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(FederatedReport, TraceSnapshot)> {
        let _serial = self.query_lock.lock();
        let secure = self.config.system.secure();
        let shards = self.config.shards;
        let exec = ExecOptions::with_dop(dop);

        let trace = Trace::new();
        let facts = {
            let _active = trace.install();
            let _ctx = TraceCtx::query(q.id as u64).install();
            let _query_span = Span::enter(&format!("query/q{}", q.id));
            self.run_stages(q, session_key, secure, &exec, shards)?
        };
        let snapshot = trace.snapshot();
        let breakdown = CostBreakdown::from_trace(&snapshot);
        Ok((
            FederatedReport {
                config: self.config.system,
                query_id: q.id,
                shards,
                result: facts.result,
                breakdown,
                fanout_overhead_ns: facts.fanout_overhead_ns,
                per_shard: facts.per_shard,
                pages_read_storage: facts.delta_sum.page_reads,
                rows_shipped: facts.rows_shipped,
                bytes_shipped: facts.bytes,
            },
            snapshot,
        ))
    }

    /// Run one ad-hoc statement (`SELECT` only — federated DML/DDL is
    /// unsupported and returns a typed error).
    pub fn run_statement_federated(
        &self,
        stmt: &Statement,
        session_key: [u8; 32],
        dop: usize,
    ) -> Result<(FederatedReport, TraceSnapshot)> {
        match stmt {
            Statement::Select(sel) => {
                let q = PaperQuery {
                    id: 0,
                    name: "ad-hoc",
                    stages: vec![QueryStage { sql: render_select(sel), into: None }],
                };
                self.run_query_federated(&q, session_key, dop)
            }
            _ => Err(ScaleError::Unsupported("federated DML/DDL")),
        }
    }

    fn run_stages(
        &self,
        q: &PaperQuery,
        session_key: [u8; 32],
        secure: bool,
        exec: &ExecOptions,
        shards: usize,
    ) -> Result<RunFacts> {
        let p = self.config.params.clone();
        let (mut tx, mut rx) = channel_pair(&session_key);
        let mut host_db = Database::new(PlainPager::new());
        let mut epc = EpcSimulator::new(p.epc_limit_bytes);

        let mut base: Vec<PagerStats> =
            (0..shards).map(|s| self.active_node(s).stats()).collect();
        let mut delta_acc: Vec<PagerStats> = vec![PagerStats::default(); shards];
        let mut shard_rows_shipped: Vec<u64> = vec![0; shards];

        let mut scanned_rows = 0u64;
        let mut rows_shipped = 0u64;
        let mut rows_serialized = 0u64;
        let mut host_input_rows = 0u64;
        let mut host_ops = 0u64;
        let mut frag_logical = 0u64;
        let mut frag_physical = 0u64;
        let mut reverified_pages = 0u64;
        let mut result: Option<QueryResult> = None;

        for (stage_no, stage) in q.stages.iter().enumerate() {
            let _stage_span = Span::enter(&format!("stage{stage_no}/federated_exec"));
            let stmt = ironsafe_sql::parser::parse_statement(&stage.sql)?;
            let sel = match stmt {
                Statement::Select(s) => s,
                other => {
                    // Non-SELECT stages run on the coordinator's host db.
                    host_db.execute_statement(&other)?;
                    continue;
                }
            };
            let lookup = |name: &str| -> Option<Schema> {
                self.schemas.iter().find(|(t, _)| t == name).map(|(_, s)| s.clone())
            };
            let Partition { storage, host } = partition_select(&sel, &lookup, &|_, _| OffloadDecision::Offload);

            // Partial-aggregation pushdown: a single fragment whose host
            // statement aggregates over just that fragment's output, and
            // the configured depth allows shard-side aggregation. At
            // `PushdownDepth::Rows` the shards return qualifying rows and
            // the fan-in re-aggregates — same merged answer, more fan-in
            // traffic.
            let agg_plan = if self.config.pushdown == ironsafe_csa::PushdownDepth::PartialAggregate
                && storage.len() == 1
                && host.from.len() == 1
                && host.from[0].name == storage[0].table
            {
                AggPlan::from_select(&host, &self.frag_schema(&storage[0])?)?
            } else {
                None
            };

            let mut shipped_tables: Vec<String> = Vec::new();
            let stage_bytes_before = tx.bytes_sent;
            let mut agg_result: Option<QueryResult> = None;

            for frag in &storage {
                let _frag_span = Span::enter(&format!("fragment/{}", frag.table));
                frag_logical += 1;
                scanned_rows += self.partition(&frag.table)?.total_rows;

                // Fan out with the hidden gid projected for the merge.
                let mut frag_stmt = frag.stmt.clone();
                frag_stmt.projections.push(SelectItem::Expr {
                    expr: Expr::Column(GID_COLUMN.to_string()),
                    alias: None,
                });
                let agg = agg_plan.as_ref();

                let frag_ref = &frag_stmt;
                let outcomes: Vec<std::result::Result<Vec<Row>, String>> =
                    crossbeam::thread::scope(|s| {
                        let handles: Vec<_> = (0..shards)
                            .map(|shard| {
                                s.spawn(move |_| self.serve_fragment(shard, frag_ref, exec, agg))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                h.join().unwrap_or_else(|_| {
                                    Err("shard thread panicked".to_string())
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_else(|_| {
                        (0..shards).map(|_| Err("shard scope panicked".to_string())).collect()
                    });
                frag_physical += shards as u64;
                self.metrics.shard_fragments.add(shards as u64);

                // Failover: resolved after the join, serially in shard
                // order, so quarantine audit order is deterministic.
                let mut streams: Vec<Vec<Row>> = Vec::with_capacity(shards);
                for (shard, initial) in outcomes.into_iter().enumerate() {
                    let mut outcome = initial;
                    let rows = loop {
                        match outcome {
                            Ok(rows) => break rows,
                            Err(reason) => {
                                let failed = self.active[shard].load(Ordering::SeqCst);
                                self.quarantine(shard, failed, &reason);
                                let next = failed + 1;
                                if next >= self.nodes[shard].len() {
                                    return Err(ScaleError::ShardUnavailable { shard, reason });
                                }
                                self.active[shard].store(next, Ordering::SeqCst);
                                let cand = &self.nodes[shard][next];
                                if !cand.attested() {
                                    outcome =
                                        Err(format!("{}: attestation rejected", cand.id));
                                    continue;
                                }
                                match cand.reverify() {
                                    Err(r) => {
                                        outcome = Err(r);
                                        continue;
                                    }
                                    Ok(pages) => {
                                        reverified_pages += pages;
                                        self.metrics.failover_promoted.inc();
                                        self.metrics.failover_reverified_pages.add(pages);
                                        self.audit_event(&format!(
                                            "shard {shard}: promoted {} after re-verifying \
                                             {} tables ({pages} pages)",
                                            cand.id,
                                            cand.row_counts.len()
                                        ));
                                        base[shard] = cand.stats();
                                        frag_physical += 1;
                                        self.metrics.shard_fragments.inc();
                                        outcome =
                                            self.serve_fragment(shard, &frag_stmt, exec, agg);
                                    }
                                }
                            }
                        }
                    };
                    shard_rows_shipped[shard] += rows.len() as u64;
                    streams.push(rows);
                }

                // Account each serving node's work for this fragment.
                for shard in 0..shards {
                    let cur = self.active_node(shard).stats();
                    delta_acc[shard] = add_stats(delta_acc[shard], sub_stats(cur, base[shard]));
                    base[shard] = cur;
                }

                let merged = merge_by_gid(streams);
                self.metrics.merge_rows.add(merged.len() as u64);
                let mut rows = merged;
                for r in &mut rows {
                    r.pop(); // strip the hidden gid
                }

                match agg {
                    Some(plan) => {
                        rows_shipped += rows.len() as u64;
                        rows_serialized += rows.len() as u64;
                        host_input_rows += rows.len() as u64;
                        self.metrics.partial_tuples.add(rows.len() as u64);
                        let pschema = plan.partial_schema();
                        for chunk in rows.chunks(4096) {
                            let record = tx.seal_rows(&pschema, chunk);
                            let back = rx.recv_rows(&record).map_err(ScaleError::Csa)?;
                            debug_assert_eq!(back.len(), chunk.len());
                        }
                        let (schema, out_rows) = {
                            let _host_span = Span::enter("host/replay_aggregate");
                            plan.finish(rows)?
                        };
                        agg_result = Some(QueryResult::Rows { schema, rows: out_rows });
                    }
                    None => {
                        rows_shipped += rows.len() as u64;
                        rows_serialized += rows.len() as u64;
                        let schema = self.frag_schema(frag)?;
                        for chunk in rows.chunks(4096) {
                            let record = tx.seal_rows(&schema, chunk);
                            let back = rx.recv_rows(&record).map_err(ScaleError::Csa)?;
                            debug_assert_eq!(back.len(), chunk.len());
                        }
                        if host_db.catalog().has_table(&frag.table) {
                            host_db.execute(&format!("DROP TABLE {}", frag.table))?;
                        }
                        host_db.create_table(&frag.table, schema)?;
                        host_db.insert_rows(&frag.table, rows)?;
                        shipped_tables.push(frag.table.clone());
                    }
                }
            }

            host_ops += complexity(&host);
            let stage_out = if agg_plan.is_some() {
                if secure {
                    // The replay's working set is the sealed tuple
                    // stream — conserved bytes, so conserved faults.
                    let stage_bytes = tx.bytes_sent - stage_bytes_before;
                    epc.access_range(
                        2_000_000 + (stage_no as u64) * 262_144,
                        stage_bytes.div_ceil(4096),
                    );
                }
                agg_result
                    .ok_or(ScaleError::Unsupported("aggregate stage produced no result"))?
            } else {
                host_input_rows += shipped_tables
                    .iter()
                    .map(|t| host_db.catalog().table(t).map(|i| i.heap.row_count).unwrap_or(0))
                    .sum::<u64>();
                if secure {
                    // The coordinator's enclave touches every temp page.
                    for t in &shipped_tables {
                        if let Ok(info) = host_db.catalog().table(t) {
                            for &page in &info.heap.pages {
                                epc.access(1_000_000 + page);
                            }
                        }
                    }
                }
                let _host_span = Span::enter("host/join_aggregate");
                host_db.select_with(&host, exec)?
            };
            match &stage.into {
                Some(name) => {
                    host_db.create_table(name, stage_out.schema())?;
                    host_db.insert_rows(name, stage_out.rows().to_vec())?;
                }
                None => result = Some(stage_out),
            }
            for t in shipped_tables {
                host_db.execute(&format!("DROP TABLE {t}"))?;
            }
        }

        let delta_sum = delta_acc.iter().copied().fold(PagerStats::default(), add_stats);
        let bytes = tx.bytes_sent;
        // Canonical charges: identical inputs at any shard count, in the
        // same span order the single-node split path uses.
        let mem_penalty = p.storage_mem_penalty(bytes);
        charge("storage/compute", "ndp", p.storage_compute_ns(scanned_rows, 1) * mem_penalty);
        charge(
            "storage/serialize",
            "ndp",
            rows_serialized as f64 * p.serialize_row_ns as f64 * p.storage_cpu_factor
                / p.storage_parallel(),
        );
        charge("storage/fragment_setup", "ndp", frag_logical as f64 * p.fragment_setup_ns as f64);
        charge("host/compute", "ndp", p.host_compute_ns(host_input_rows, host_ops.max(1)));
        charge(
            "storage/device_io",
            "ndp",
            delta_sum.page_reads as f64 * p.device_read_ns_per_page,
        );
        charge("net/ship_rows", "ndp", p.net_ns(bytes, tx.messages.max(1)));
        if secure {
            charge(
                "crypto/pages",
                "crypto",
                (delta_sum.decrypts * p.decrypt_ns_per_page
                    + delta_sum.encrypts * p.encrypt_ns_per_page) as f64,
            );
            // Canonical freshness: every verified page walks the depth
            // of the *single-node* Merkle tree, plus one RPMB round per
            // logical fragment. Real per-shard trees are shallower, so
            // this is conservative at N > 1.
            let depth = ceil_log2(self.canonical_pages.max(2));
            charge(
                "freshness/verify",
                "freshness",
                (delta_sum.page_reads * depth * p.merkle_node_ns
                    + frag_logical * p.rpmb_op_ns) as f64,
            );
            charge(
                "tee/transitions",
                "transitions",
                (tx.messages * 2 * p.enclave_transition_ns) as f64,
            );
            charge("tee/epc_paging", "epc", epc.faults() as f64 * p.epc_fault_ns as f64);
            let other = Span::enter("channel/other");
            other.add_sim_ns("other", p.session_setup_ns as f64);
            other.add_sim_ns("other", bytes as f64 * 0.05);
        }
        let fanout_overhead_ns = (frag_physical.saturating_sub(frag_logical)) as f64
            * p.fragment_setup_ns as f64
            + shards.saturating_sub(1) as f64 * p.session_setup_ns as f64
            + reverified_pages as f64 * p.device_read_ns_per_page;

        let per_shard: Vec<ShardDelta> = (0..shards)
            .map(|s| ShardDelta {
                shard: s,
                node: self.active_node(s).id.clone(),
                stats: delta_acc[s],
                rows_shipped: shard_rows_shipped[s],
            })
            .collect();
        Ok(RunFacts {
            result: result.ok_or(ScaleError::Unsupported("query has no output stage"))?,
            delta_sum,
            per_shard,
            bytes,
            rows_shipped,
            fanout_overhead_ns,
        })
    }

    /// Run one fragment on `shard`'s serving node. Returns rows with the
    /// gid as trailing column (partial-agg tuples likewise carry their
    /// source row's gid), or the failure reason for the failover path.
    fn serve_fragment(
        &self,
        shard: usize,
        frag_stmt: &SelectStmt,
        exec: &ExecOptions,
        agg: Option<&AggPlan>,
    ) -> std::result::Result<Vec<Row>, String> {
        if self.shard_plans[shard].lock().should_fire(FaultSite::EnclaveCrash) {
            return Err("injected enclave crash".to_string());
        }
        let node = self.active_node(shard);
        if !node.attested() {
            return Err(format!("{}: attestation rejected", node.id));
        }
        let result =
            node.with_db(|db| db.select_with(frag_stmt, exec)).map_err(|e| e.to_string())?;
        let schema = result.schema();
        match agg {
            None => Ok(result.rows().to_vec()),
            Some(plan) => {
                let rows = result.rows();
                let mut out = Vec::with_capacity(rows.len());
                // The batch half evaluates each expression once per
                // fragment; it yields exactly `eval_partial`'s tuples (the
                // sql crate's `batch_partial_matches_row_partial` pins that).
                let partials =
                    plan.eval_partial_batch(&schema, rows).map_err(|e| e.to_string())?;
                for (row, partial) in rows.iter().zip(partials) {
                    let gid = row
                        .last()
                        .cloned()
                        .ok_or_else(|| "fragment row missing gid".to_string())?;
                    if let Some(mut tuple) = partial {
                        tuple.push(gid);
                        out.push(tuple);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Output schema of a storage fragment (base column order and types,
    /// without the hidden gid).
    fn frag_schema(&self, frag: &StorageQuery) -> Result<Schema> {
        let base = &self
            .schemas
            .iter()
            .find(|(t, _)| *t == frag.table)
            .ok_or_else(|| ScaleError::UnknownTable(frag.table.clone()))?
            .1;
        let mut columns = Vec::with_capacity(frag.columns.len());
        for c in &frag.columns {
            let i = base
                .resolve(c)
                .map_err(|e| ScaleError::Csa(ironsafe_csa::CsaError::Sql(e)))?;
            columns.push(base.columns[i].clone());
        }
        Ok(Schema::new(columns))
    }
}

/// Attribute one simulated cost term to a named accounting span (same
/// span-per-term shape the single-node system uses, so
/// [`CostBreakdown::from_trace`] sums categories in charge order).
fn charge(name: &str, category: &'static str, ns: f64) {
    let span = Span::enter(name);
    span.add_sim_ns(category, ns);
}

fn complexity(stmt: &SelectStmt) -> u64 {
    let joins = stmt.from.len().saturating_sub(1) as u64;
    let has_agg = !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });
    let has_sort = !stmt.order_by.is_empty();
    1 + joins + has_agg as u64 + has_sort as u64
}

fn ceil_log2(n: u64) -> u64 {
    debug_assert!(n >= 2);
    (64 - (n - 1).leading_zeros()) as u64
}

fn add_stats(a: PagerStats, b: PagerStats) -> PagerStats {
    PagerStats {
        page_reads: a.page_reads + b.page_reads,
        page_writes: a.page_writes + b.page_writes,
        decrypts: a.decrypts + b.decrypts,
        encrypts: a.encrypts + b.encrypts,
        merkle_nodes: a.merkle_nodes + b.merkle_nodes,
        rpmb_ops: a.rpmb_ops + b.rpmb_ops,
    }
}

fn sub_stats(after: PagerStats, before: PagerStats) -> PagerStats {
    PagerStats {
        page_reads: after.page_reads - before.page_reads,
        page_writes: after.page_writes - before.page_writes,
        decrypts: after.decrypts - before.decrypts,
        encrypts: after.encrypts - before.encrypts,
        merkle_nodes: after.merkle_nodes - before.merkle_nodes,
        rpmb_ops: after.rpmb_ops - before.rpmb_ops,
    }
}

fn gid_of(row: &Row) -> i64 {
    match row.last() {
        Some(Value::Int(g)) => *g,
        other => unreachable!("fragment rows carry a trailing Int gid, got {other:?}"),
    }
}

/// K-way merge of per-shard streams by ascending trailing gid. Each
/// stream is already gid-ascending (shard-local scan order), so this
/// recovers the canonical global row order exactly.
fn merge_by_gid(mut streams: Vec<Vec<Row>>) -> Vec<Row> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut idx = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, i64)> = None;
        for (s, rows) in streams.iter().enumerate() {
            if idx[s] < rows.len() {
                let g = gid_of(&rows[idx[s]]);
                if best.is_none_or(|(_, bg)| g < bg) {
                    best = Some((s, g));
                }
            }
        }
        match best {
            None => break,
            Some((s, _)) => {
                out.push(std::mem::take(&mut streams[s][idx[s]]));
                idx[s] += 1;
            }
        }
    }
    out
}
