//! The five evaluated system configurations and the query runner.
//!
//! A [`CsaSystem`] owns the storage-resident database (plaintext for the
//! non-secure baselines, the full encrypted + Merkle + RPMB stack for the
//! secure ones) and executes the paper's (multi-stage) queries under one
//! of the Table 2 configurations, producing a [`QueryReport`] with the
//! simulated-time breakdown and data-movement counters every figure is
//! built from.

use crate::adaptive::{
    choose, divergence_trip, prior_selectivity, AdaptiveState, EpcView, FragmentStats,
    PlanMetrics, ReplanPolicy, RECORD_OVERHEAD_BYTES, ROWS_PER_RECORD,
};
use crate::cost::{CostBreakdown, CostParams};
use crate::net::channel_pair;
use crate::profile::{CostTerm, Placement, PlanProfile, ProfileExtras, QueryProfile, ReplanEvent};
use crate::partition::{partition_select, OffloadDecision, Partition, StorageQuery};
use crate::Result;
use ironsafe_crypto::group::Group;
use ironsafe_sql::ast::{expr_to_sql, SelectItem, SelectStmt, Statement};
use ironsafe_sql::exec::{ExecOptions, ScanWatch};
use parking_lot::Mutex;
use ironsafe_sql::{Database, QueryResult, Schema};
use ironsafe_faults::{retry_with, FaultPlan, RetryPolicy};
use ironsafe_storage::pager::{PagerStats, PlainPager};
use ironsafe_sql::catalog::Catalog;
use ironsafe_storage::{PageCache, SecurePager, SharedPending, SnapshotPin, ViewPager};
use ironsafe_obs::{Span, Trace, TraceCtx, TraceSnapshot};
use ironsafe_tee::sgx::epc::EpcSimulator;
use ironsafe_tee::trustzone::Manufacturer;
use ironsafe_tpch::queries::PaperQuery;
use ironsafe_tpch::TpchData;
use rand::SeedableRng;
use std::sync::Arc;

/// The Table 2 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemConfig {
    /// `hons`: host-only, non-secure (NFS-attached storage).
    HostOnlyNonSecure,
    /// `hos`: host-only, secure (SGX enclave + host-side page crypto).
    HostOnlySecure,
    /// `vcs`: vanilla computational storage (split, non-secure).
    VanillaCs,
    /// `scs`: IronSafe (split, secure).
    IronSafe,
    /// `sos`: storage-only, secure.
    StorageOnlySecure,
}

impl SystemConfig {
    /// Paper abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            SystemConfig::HostOnlyNonSecure => "hons",
            SystemConfig::HostOnlySecure => "hos",
            SystemConfig::VanillaCs => "vcs",
            SystemConfig::IronSafe => "scs",
            SystemConfig::StorageOnlySecure => "sos",
        }
    }

    /// Does this configuration split queries across host and storage?
    pub fn split(&self) -> bool {
        matches!(self, SystemConfig::VanillaCs | SystemConfig::IronSafe)
    }

    /// Does this configuration run the secure storage stack?
    pub fn secure(&self) -> bool {
        matches!(
            self,
            SystemConfig::HostOnlySecure | SystemConfig::IronSafe | SystemConfig::StorageOnlySecure
        )
    }

    /// All five, paper order.
    pub fn all() -> [SystemConfig; 5] {
        [
            SystemConfig::HostOnlyNonSecure,
            SystemConfig::HostOnlySecure,
            SystemConfig::VanillaCs,
            SystemConfig::IronSafe,
            SystemConfig::StorageOnlySecure,
        ]
    }
}

/// Outcome of one query run.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Configuration used.
    pub config: SystemConfig,
    /// TPC-H query number.
    pub query_id: u8,
    /// The actual query result (identical across configurations).
    pub result: QueryResult,
    /// Simulated-time breakdown.
    pub breakdown: CostBreakdown,
    /// Pages read from the medium near the data.
    pub pages_read_storage: u64,
    /// Page-equivalents moved between storage and host.
    pub pages_shipped: u64,
    /// Rows shipped storage→host (0 for non-split configs' row count view).
    pub rows_shipped: u64,
    /// Bytes moved across the interconnect.
    pub bytes_shipped: u64,
}

impl QueryReport {
    /// Total simulated time.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }
}

/// How split configurations place each table's filter fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Apply one decision to every fragment: [`OffloadDecision::Offload`]
    /// pushes filters + projection down (the paper's static heuristic,
    /// and the default); [`OffloadDecision::ShipPages`] ships raw pages
    /// and lets the host apply the filter (the all-host baseline).
    Pinned(OffloadDecision),
    /// Cost-based per-fragment placement: evaluate the offload and
    /// ship-pages alternatives under [`CostParams`] with selectivity
    /// estimates from the [`AdaptiveState`] EWMA store (seeded from
    /// predicate-shape priors) and the live EPC occupancy — the paper's
    /// §8 future work, implemented.
    CostBased,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy::Pinned(OffloadDecision::Offload)
    }
}

/// A host+storage deployment in one configuration.
pub struct CsaSystem {
    /// Active configuration.
    pub config: SystemConfig,
    /// Cost-model parameters.
    pub params: CostParams,
    /// Fragment placement for split configurations.
    pub placement: PlacementPolicy,
    storage_db: Database,
    session_key: [u8; 32],
    last_trace: Option<TraceSnapshot>,
    /// Per-plan operator profiles captured from every plan the most
    /// recent run drained (stages, fragments, host joins).
    last_plans: Vec<PlanProfile>,
    /// Enclave-side observations of the most recent run (transitions,
    /// EPC faults, occupancy samples).
    last_extras: ProfileExtras,
    /// Shared decrypted-page cache, cloned into every [`read_view`]
    /// (see [`CsaSystem::read_view`]) so sibling views decrypt each base
    /// page once while still charging identical per-view costs.
    read_cache: Arc<PageCache>,
    /// Morsel-execution options for read-only fragments. Parallelism
    /// changes wall-clock only: reports, breakdowns and pager-stats
    /// deltas stay bit-identical to serial execution at any DOP.
    exec: ExecOptions,
    /// Deterministic fault-injection plan, pushed into the storage pager
    /// and the secure channel. [`FaultPlan::none`] by default.
    fault_plan: FaultPlan,
    /// Retry budget used when recovering from injected transient faults
    /// on the channel path.
    retry: RetryPolicy,
    /// Shared EWMA estimate store feeding the adaptive planner. Cloned
    /// (by `Arc`) into every view so observations made inside a view
    /// refine the base system's estimates.
    adaptive: Arc<Mutex<AdaptiveState>>,
    /// Live `plan.*` counters (decisions, refinements, re-plans).
    plan_metrics: PlanMetrics,
    /// Mid-flight re-planning policy (`None` = disabled).
    replan: Option<ReplanPolicy>,
    /// Simulated background enclave working set (pages) held resident by
    /// concurrent tenants; 0 = calm EPC. Applied identically under every
    /// placement — pressure is environment, not policy.
    epc_pressure_pages: u64,
}

/// Attribute one simulated cost term to a named accounting span.
///
/// Each term gets its own span so [`CostBreakdown::from_trace`] sums
/// category totals in span-creation order — the exact order the old
/// inline accumulation added them, preserving bit-identical breakdowns.
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

impl CsaSystem {
    /// Build a system in `config`, loading `data` into its storage node.
    pub fn build(config: SystemConfig, data: &TpchData, params: CostParams) -> Result<CsaSystem> {
        Self::build_with_compression(config, data, params, false)
    }

    /// [`CsaSystem::build`] with per-page compression optionally layered
    /// under the page crypto: pages are compressed *before* encrypt+MAC
    /// (and decompressed after decrypt+verify), so compressible data
    /// spends fewer physical blocks — and therefore fewer encryptions,
    /// MACs and Merkle leaves. The reduction is honest: `PagerStats`
    /// report physical-block work, and the cost model charges exactly
    /// those counters.
    pub fn build_with_compression(
        config: SystemConfig,
        data: &TpchData,
        params: CostParams,
        compressed: bool,
    ) -> Result<CsaSystem> {
        let mut storage_db = if config.secure() {
            let group = Group::modp_1024();
            let mfr = Manufacturer::from_seed(&group, b"ironsafe-storage-vendor");
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5A);
            let device = mfr.make_device("storage-0", 8, &mut rng);
            let pager = SecurePager::create(device, 0xC5A).map_err(crate::CsaError::Storage)?;
            if compressed {
                Database::new(ironsafe_storage::CompressedPager::new(pager))
            } else {
                Database::new(pager)
            }
        } else if compressed {
            Database::new(ironsafe_storage::CompressedPager::new(PlainPager::new()))
        } else {
            Database::new(PlainPager::new())
        };
        ironsafe_tpch::load_into(&mut storage_db, data)?;
        storage_db.reset_pager_stats();
        // Bound the verified-node cache by the enclave memory budget the
        // cost model assumes — the cache is TEE-resident, so it competes
        // with the query working set for EPC.
        storage_db.pager().lock().set_merkle_cache_capacity(
            ironsafe_tee::sgx::epc::verified_node_cache_capacity(params.epc_limit_bytes as u64),
        );
        // The flight recorder is TEE-resident too: its ring capacity is
        // derived from the same enclave memory budget.
        storage_db.pager().lock().set_flight_budget(params.epc_limit_bytes as u64);
        Ok(Self::from_database(config, storage_db, params))
    }

    /// Build over an already-populated database (e.g. the GDPR workload).
    pub fn from_database(config: SystemConfig, storage_db: Database, params: CostParams) -> Self {
        CsaSystem {
            config,
            params,
            placement: PlacementPolicy::default(),
            storage_db,
            session_key: [0x5e; 32],
            last_trace: None,
            last_plans: Vec::new(),
            last_extras: ProfileExtras::default(),
            read_cache: Arc::new(PageCache::new()),
            exec: ExecOptions::serial(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            adaptive: Arc::new(Mutex::new(AdaptiveState::new())),
            plan_metrics: PlanMetrics::new(),
            replan: None,
            epc_pressure_pages: 0,
        }
    }

    /// Open an isolated read view of this system for one query run.
    ///
    /// The view is a full `CsaSystem` sharing this system's pages
    /// through a copy-on-write [`ViewPager`]: reads go through the
    /// shared decrypted-page cache, while temporary tables, catalog
    /// checkpoints and any other writes stay private to the view and are
    /// discarded when it drops. Pager stats start at zero and count only
    /// the view's own work, so concurrent views produce bit-identical
    /// [`CostBreakdown`]s to serial execution.
    ///
    /// The caller must exclude base writes for the view's lifetime
    /// (the serving layer holds a `RwLock` read guard — see
    /// [`SharedCsaSystem`](crate::SharedCsaSystem)).
    pub fn read_view(&self) -> CsaSystem {
        let pager = ViewPager::over(self.storage_db.pager().clone(), self.read_cache.clone());
        self.view(pager, self.storage_db.catalog().clone())
    }

    /// A view of this system over `pager` and `catalog`: same
    /// configuration, options, session key and shared planner state, with
    /// fresh per-run records.
    fn view(&self, pager: ViewPager, catalog: Catalog) -> CsaSystem {
        CsaSystem {
            config: self.config,
            params: self.params.clone(),
            placement: self.placement,
            storage_db: Database::from_parts(ironsafe_sql::heap::shared(pager), catalog),
            session_key: self.session_key,
            last_trace: None,
            last_plans: Vec::new(),
            last_extras: ProfileExtras::default(),
            read_cache: self.read_cache.clone(),
            exec: self.exec.clone(),
            fault_plan: self.fault_plan.clone(),
            retry: self.retry,
            adaptive: self.adaptive.clone(),
            plan_metrics: self.plan_metrics.clone(),
            replan: self.replan,
            epc_pressure_pages: self.epc_pressure_pages,
        }
    }

    /// Open a *snapshot* read view pinned to the epoch captured in `pin`,
    /// with the catalog published at that epoch.
    ///
    /// Unlike [`CsaSystem::read_view`], the caller does **not** need to
    /// exclude base writes: pages a later flush overwrites are served
    /// from the MVCC retained-version store
    /// ([`ironsafe_storage::Snapshots`]), so the view keeps reading the
    /// epoch it opened at while writers commit the next one.
    pub fn read_view_at(&self, pin: SnapshotPin, catalog: Catalog) -> CsaSystem {
        let pager =
            ViewPager::over_pinned(self.storage_db.pager().clone(), self.read_cache.clone(), pin);
        self.view(pager, catalog)
    }

    /// Open a *writer* view: a copy-on-write view whose reads additionally
    /// see `pending` — the group-commit buffer of transactions already
    /// accepted but not yet flushed to the base — and whose `catalog` is
    /// the write path's running catalog (ahead of the published one by
    /// the buffered transactions). The accumulated overlay is harvested
    /// with `take_txn_pages` after a successful statement.
    pub fn write_view(&self, pending: SharedPending, catalog: Catalog) -> CsaSystem {
        let pager = ViewPager::over_writer(
            self.storage_db.pager().clone(),
            self.read_cache.clone(),
            pending,
        );
        self.view(pager, catalog)
    }

    /// The shared decrypted-page cache (the serving layer clears it when
    /// `with_system_mut` reseeds the store underneath it).
    pub(crate) fn read_cache(&self) -> &Arc<PageCache> {
        &self.read_cache
    }

    /// The active retry budget (the group-commit flush reuses it for the
    /// WAL append).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The cost-model parameters (the group-commit flush prices its
    /// deferred device work with these).
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Install a deterministic fault-injection plan on this system.
    ///
    /// The plan is pushed into the storage pager (device, page-integrity
    /// and freshness fault sites) and cloned into the secure channel of
    /// every subsequent split-query run, so one seeded plan governs the
    /// whole query path. Views opened via [`CsaSystem::read_view`] after
    /// this call inherit the plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.storage_db.pager().lock().set_fault_plan(plan.clone());
        self.fault_plan = plan;
    }

    /// The active fault-injection plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Set the retry budget used to recover from injected transient faults.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
        self.storage_db.pager().lock().set_retry_policy(policy);
    }

    /// Telemetry trace of the most recent `run_query`/`run_statement`
    /// call: the span tree whose category totals *are* the reported
    /// [`CostBreakdown`], exportable via `ironsafe_obs::export`.
    pub fn last_trace(&self) -> Option<&TraceSnapshot> {
        self.last_trace.as_ref()
    }

    /// Take ownership of the most recent trace (used by the serving
    /// layer to hand a per-query trace back without cloning).
    pub fn take_last_trace(&mut self) -> Option<TraceSnapshot> {
        self.last_trace.take()
    }

    /// Per-plan operator profiles captured by the most recent
    /// `run_query`/`run_statement` call, in execution order.
    pub fn last_plans(&self) -> &[PlanProfile] {
        &self.last_plans
    }

    /// Enclave-side observations (transitions, EPC faults, occupancy
    /// samples) of the most recent run.
    pub fn last_extras(&self) -> &ProfileExtras {
        &self.last_extras
    }

    /// Drain the storage pager's TEE-resident flight recorder:
    /// deterministic forensic event lines describing faulted or
    /// violating page accesses (empty for plaintext pagers and clean
    /// runs). The serving layer appends these to the monitor audit
    /// trail when a query fails.
    pub fn take_flight_dump(&mut self) -> Vec<String> {
        self.storage_db.pager().lock().take_flight_dump()
    }

    /// Run `q` and assemble its [`QueryProfile`] alongside the normal
    /// report.
    ///
    /// Everything in the profile is measured, not copied from the
    /// report: the breakdown is re-derived from the recorded trace, the
    /// pager delta and secure counters are measured around the run, and
    /// the operator rows come from the drained plans — so the parity
    /// test can assert the profile agrees with the cost model
    /// bit-for-bit.
    pub fn profile_query(&mut self, q: &PaperQuery) -> Result<(QueryReport, QueryProfile)> {
        let registry = ironsafe_obs::Registry::new();
        self.storage_db.register_metrics(&registry);
        let counters_before = registry.snapshot();
        let stats_before = self.storage_db.pager_stats();
        let report = self.run_query(q)?;
        let pager = self.pager_delta(stats_before);
        let counters_after = registry.snapshot();
        let delta = |name: &str| -> u64 {
            counters_after.counter(name).unwrap_or(0) - counters_before.counter(name).unwrap_or(0)
        };
        let trace = self.last_trace.as_ref().expect("run_query records a trace");
        let profile = QueryProfile {
            config: self.config,
            query_id: q.id,
            dop: self.exec.dop.get(),
            breakdown: CostBreakdown::from_trace(trace),
            pager,
            pages_read_storage: report.pages_read_storage,
            pages_shipped: report.pages_shipped,
            rows_shipped: report.rows_shipped,
            bytes_shipped: report.bytes_shipped,
            macs_verified: delta("storage.page.hmac_verify"),
            merkle_cache_hits: delta("storage.merkle.cache.hit"),
            merkle_cache_misses: delta("storage.merkle.cache.miss"),
            enclave_transitions: self.last_extras.enclave_transitions,
            epc_faults: self.last_extras.epc_faults,
            epc_occupancy_pages: self.last_extras.epc_occupancy_pages.clone(),
            cost_terms: trace
                .spans
                .iter()
                .filter(|s| s.sim_ns > 0.0)
                .map(|s| CostTerm { name: s.name.clone(), sim_ns: s.sim_ns })
                .collect(),
            plans: self.last_plans.clone(),
            replan_events: self.last_extras.replans.clone(),
            span_count: trace.spans.len(),
            error_span_count: trace.error_spans().len(),
        };
        Ok((report, profile))
    }

    /// The storage-resident database (e.g. to inspect the catalog).
    pub fn storage_db(&self) -> &Database {
        &self.storage_db
    }

    /// Mutable access (loaders, policy experiments).
    pub fn storage_db_mut(&mut self) -> &mut Database {
        &mut self.storage_db
    }

    /// Install the per-request session key (from the trusted monitor).
    pub fn set_session_key(&mut self, key: [u8; 32]) {
        self.session_key = key;
    }

    /// Set the degree of parallelism for read-only query execution.
    ///
    /// DOP > 1 runs scans and single-table aggregations on the morsel
    /// worker pool; results, breakdowns and stats deltas stay
    /// bit-identical to DOP 1 (parallelism buys wall-clock only).
    pub fn set_dop(&mut self, dop: usize) {
        self.exec.dop = ironsafe_sql::exec::Dop::new(dop);
    }

    /// Current morsel-execution options.
    pub fn exec_options(&self) -> &ExecOptions {
        &self.exec
    }

    /// Attach the morsel-execution counters (`exec.morsel.*`) to
    /// `registry`, alongside [`Database::register_metrics`] for the
    /// pager counters.
    pub fn register_exec_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.exec.metrics.register(registry);
    }

    /// Select how split configurations place their filter fragments.
    /// A pinned placement must reproduce the matching static plan
    /// bit-identically, whatever cost-based runs came before — the
    /// golden-parity guard asserts exactly this.
    pub fn set_placement(&mut self, placement: PlacementPolicy) {
        self.placement = placement;
    }

    /// Handle on the shared selectivity-estimate store (survives across
    /// runs and views; feed it by running queries or pin entries).
    pub fn adaptive_state(&self) -> Arc<Mutex<AdaptiveState>> {
        self.adaptive.clone()
    }

    /// Pin a table-level estimate, overriding priors for every fragment
    /// on `table` that has no predicate-specific observation yet (used
    /// to model stale or deliberately wrong catalog statistics).
    pub fn pin_table_estimate(&mut self, table: &str, est: crate::adaptive::Estimate) {
        self.adaptive.lock().pin_table(table, est);
    }

    /// Enable (`Some`) or disable (`None`, the default) mid-flight
    /// re-planning for adaptive offloaded fragments.
    pub fn set_replan(&mut self, policy: Option<ReplanPolicy>) {
        self.replan = policy;
    }

    /// Simulate background EPC pressure: `pages` enclave pages held
    /// resident by concurrent tenants for the whole run. Applied under
    /// every placement (pressure is environment, not policy); 0 disables.
    pub fn set_epc_pressure(&mut self, pages: u64) {
        self.epc_pressure_pages = pages;
    }

    /// Attach the planner counters (`plan.*`) to `registry`.
    pub fn register_plan_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.plan_metrics.register(registry);
    }

    fn pager_delta(&self, before: PagerStats) -> PagerStats {
        let after = self.storage_db.pager_stats();
        PagerStats {
            page_reads: after.page_reads - before.page_reads,
            page_writes: after.page_writes - before.page_writes,
            decrypts: after.decrypts - before.decrypts,
            encrypts: after.encrypts - before.encrypts,
            merkle_nodes: after.merkle_nodes - before.merkle_nodes,
            rpmb_ops: after.rpmb_ops - before.rpmb_ops,
        }
    }

    /// Run a single (possibly monitor-rewritten) statement.
    ///
    /// `SELECT`s go through the configuration's normal execution path;
    /// DML and DDL run directly on the storage-resident database (writes
    /// always land next to the data).
    pub fn run_statement(&mut self, stmt: &Statement) -> Result<QueryReport> {
        match stmt {
            Statement::Select(sel) => {
                let sql = crate::partition::render_select(sel);
                let q = PaperQuery {
                    id: 0,
                    name: "ad-hoc",
                    stages: vec![ironsafe_tpch::QueryStage { sql, into: None }],
                };
                self.run_query(&q)
            }
            other => {
                self.last_plans.clear();
                self.last_extras = ProfileExtras::default();
                let trace = Trace::new();
                let (result, delta) = {
                    let _active = trace.install();
                    let _ctx = TraceCtx::query(0).install();
                    let _stmt_span = Span::enter("statement/dml");
                    let before = self.storage_db.pager_stats();
                    let result = {
                        let _exec = Span::enter("storage/execute");
                        self.storage_db.execute_statement(other)?
                    };
                    let delta = self.pager_delta(before);
                    let p = &self.params;
                    charge(
                        "storage/device_io",
                        "ndp",
                        (delta.page_reads + delta.page_writes) as f64 * p.device_read_ns_per_page,
                    );
                    charge(
                        "crypto/pages",
                        "crypto",
                        (delta.decrypts * p.decrypt_ns_per_page
                            + delta.encrypts * p.encrypt_ns_per_page) as f64,
                    );
                    charge(
                        "freshness/verify",
                        "freshness",
                        (delta.merkle_nodes * p.merkle_node_ns + delta.rpmb_ops * p.rpmb_op_ns)
                            as f64,
                    );
                    (result, delta)
                };
                let snapshot = trace.snapshot();
                let breakdown = CostBreakdown::from_trace(&snapshot);
                self.last_trace = Some(snapshot);
                Ok(QueryReport {
                    config: self.config,
                    query_id: 0,
                    result,
                    breakdown,
                    pages_read_storage: delta.page_reads,
                    pages_shipped: 0,
                    rows_shipped: 0,
                    bytes_shipped: 0,
                })
            }
        }
    }

    /// Run a paper query, producing its report.
    pub fn run_query(&mut self, q: &PaperQuery) -> Result<QueryReport> {
        match self.config {
            SystemConfig::StorageOnlySecure => self.run_storage_only(q),
            SystemConfig::HostOnlyNonSecure | SystemConfig::HostOnlySecure => self.run_host_only(q),
            SystemConfig::VanillaCs | SystemConfig::IronSafe => self.run_split(q),
        }
    }

    // ---------------------------------------------------------------
    // sos: the whole query runs next to the data, on the weak CPU.
    // ---------------------------------------------------------------
    fn run_storage_only(&mut self, q: &PaperQuery) -> Result<QueryReport> {
        let exec = self.exec.clone();
        self.last_plans.clear();
        self.last_extras = ProfileExtras::default();
        let trace = Trace::new();
        let (result, delta) = {
            let _active = trace.install();
            let _ctx = TraceCtx::query(q.id as u64).install();
            let _query_span = Span::enter(&format!("query/q{}", q.id));
            let before = self.storage_db.pager_stats();
            let mut scanned_rows = 0u64;
            let mut ops_total = 0u64;
            let mut probe_requests = 0u64;
            let mut result = None;
            let mut temps = Vec::new();
            for (stage_no, stage) in q.stages.iter().enumerate() {
                let _stage_span = Span::enter(&format!("stage{stage_no}/storage_exec"));
                let stmt = ironsafe_sql::parser::parse_statement(&stage.sql)?;
                if let Statement::Select(sel) = &stmt {
                    let mut stage_rows = 0u64;
                    for t in &sel.from {
                        if let Ok(info) = self.storage_db.catalog().table(&t.name) {
                            stage_rows += info.heap.row_count;
                        }
                    }
                    scanned_rows += stage_rows;
                    ops_total += complexity(sel);
                    // SQLite-style access amplification: every join probe
                    // re-requests an inner page through the pager, and each
                    // request pays decrypt + freshness (the paper's Q2/Q9
                    // "request pages ~200K / ~23M times").
                    if sel.from.len() > 1 {
                        probe_requests += stage_rows;
                    }
                }
                let r = match &stmt {
                    Statement::Select(sel) => {
                        let (r, ops) = self.storage_db.select_with_profile(sel, &exec)?;
                        self.last_plans.push(PlanProfile::new(
                            format!("stage{stage_no}/storage_exec"),
                            Placement::Storage,
                            ops,
                        ));
                        r
                    }
                    other => self.storage_db.execute_statement_with(other, &exec)?,
                };
                match &stage.into {
                    Some(name) => {
                        self.storage_db.create_table(name, r.schema())?;
                        self.storage_db.insert_rows(name, r.rows().to_vec())?;
                        temps.push(name.clone());
                    }
                    None => result = Some(r),
                }
            }
            for t in temps {
                self.storage_db.execute(&format!("DROP TABLE {t}"))?;
            }
            let delta = self.pager_delta(before);
            let db_pages = self
                .storage_db
                .catalog()
                .tables()
                .map(|t| t.heap.pages.len() as u64)
                .sum::<u64>()
                .max(2);
            let p = &self.params;
            let compute_ns = scanned_rows as f64
                * ops_total.max(1) as f64
                * p.host_row_ns
                * p.storage_cpu_factor;
            let path_nodes = 2 * db_pages.ilog2() as u64 + 1;
            charge("storage/compute", "ndp", compute_ns);
            charge(
                "storage/device_io",
                "ndp",
                delta.page_reads as f64 * p.device_read_ns_per_page,
            );
            charge(
                "freshness/verify",
                "freshness",
                ((delta.merkle_nodes + probe_requests * path_nodes) * p.merkle_node_ns
                    + delta.rpmb_ops * p.rpmb_op_ns) as f64,
            );
            charge(
                "crypto/pages",
                "crypto",
                ((delta.decrypts + probe_requests) * p.decrypt_ns_per_page
                    + delta.encrypts * p.encrypt_ns_per_page) as f64,
            );
            (result, delta)
        };
        let snapshot = trace.snapshot();
        let breakdown = CostBreakdown::from_trace(&snapshot);
        self.last_trace = Some(snapshot);
        Ok(QueryReport {
            config: self.config,
            query_id: q.id,
            result: result.expect("query has an output stage"),
            breakdown,
            pages_read_storage: delta.page_reads,
            pages_shipped: 0,
            rows_shipped: 0,
            bytes_shipped: 0,
        })
    }

    // ---------------------------------------------------------------
    // hons / hos: all pages cross the network; the host does everything.
    // hos additionally pays enclave transitions, host-side page crypto +
    // Merkle freshness, and EPC paging for data pages and tree nodes.
    // ---------------------------------------------------------------
    fn run_host_only(&mut self, q: &PaperQuery) -> Result<QueryReport> {
        let secure = self.config.secure();
        let exec = self.exec.clone();
        self.last_plans.clear();
        self.last_extras = ProfileExtras::default();
        let trace = Trace::new();
        let (result, delta, scanned_rows, bytes) = {
            let _active = trace.install();
            let _ctx = TraceCtx::query(q.id as u64).install();
            let _query_span = Span::enter(&format!("query/q{}", q.id));
            let before = self.storage_db.pager_stats();
            let mut scanned_rows = 0u64;
            let mut ops_total = 0u64;
            let mut probe_requests = 0u64;
            let mut result = None;
            let mut temps = Vec::new();
            let db_pages = {
                // Total pages of all base tables (Merkle leaf count).
                self.storage_db
                    .catalog()
                    .tables()
                    .map(|t| t.heap.pages.len() as u64)
                    .sum::<u64>()
                    .max(2)
            };
            for (stage_no, stage) in q.stages.iter().enumerate() {
                let _stage_span = Span::enter(&format!("stage{stage_no}/host_exec"));
                let stmt = ironsafe_sql::parser::parse_statement(&stage.sql)?;
                if let Statement::Select(sel) = &stmt {
                    ops_total += complexity(sel);
                    let mut stage_rows = 0u64;
                    for t in &sel.from {
                        if let Ok(info) = self.storage_db.catalog().table(&t.name) {
                            stage_rows += info.heap.row_count;
                            scanned_rows += info.heap.row_count;
                        }
                    }
                    // Join probes re-request pages through the in-enclave
                    // SQLCipher pager (same amplification as sos).
                    if sel.from.len() > 1 {
                        probe_requests += stage_rows;
                    }
                }
                let r = match &stmt {
                    Statement::Select(sel) => {
                        let (r, ops) = self.storage_db.select_with_profile(sel, &exec)?;
                        self.last_plans.push(PlanProfile::new(
                            format!("stage{stage_no}/host_exec"),
                            Placement::Host,
                            ops,
                        ));
                        r
                    }
                    other => self.storage_db.execute_statement_with(other, &exec)?,
                };
                match &stage.into {
                    Some(name) => {
                        self.storage_db.create_table(name, r.schema())?;
                        self.storage_db.insert_rows(name, r.rows().to_vec())?;
                        temps.push(name.clone());
                    }
                    None => result = Some(r),
                }
            }
            for t in temps {
                self.storage_db.execute(&format!("DROP TABLE {t}"))?;
            }
            let delta = self.pager_delta(before);
            // One OCALL round per fetched page batch (mirrors the
            // `tee/transitions` charge below).
            if secure {
                self.last_extras.enclave_transitions = delta.page_reads * 2;
            }
            let p = &self.params;
            let bytes = delta.page_reads * 4096;
            // NFS-style page fetches batch ~64 pages per round trip.
            let messages = delta.page_reads.div_ceil(64).max(1);
            charge("host/compute", "ndp", p.host_compute_ns(scanned_rows, ops_total.max(1)));
            charge(
                "storage/device_io",
                "ndp",
                delta.page_reads as f64 * p.device_read_ns_per_page,
            );
            charge("net/page_fetch", "ndp", p.net_ns(bytes, messages));
            if secure {
                let path_nodes = 2 * db_pages.ilog2() as u64 + 1;
                charge(
                    "crypto/pages",
                    "crypto",
                    ((delta.decrypts + probe_requests) * p.decrypt_ns_per_page
                        + delta.encrypts * p.encrypt_ns_per_page) as f64,
                );
                charge(
                    "freshness/verify",
                    "freshness",
                    ((delta.merkle_nodes + probe_requests * path_nodes) * p.merkle_node_ns
                        + delta.rpmb_ops * p.rpmb_op_ns) as f64,
                );
                // One OCALL round per page batch fetched into the enclave.
                charge(
                    "tee/transitions",
                    "transitions",
                    (delta.page_reads * 2 * p.enclave_transition_ns) as f64,
                );
                // EPC paging: the in-enclave Merkle tree is the resident
                // working set (the paper's Figure 9a: 59/78/98 MiB at SF
                // 3/4/5 against 96 MiB of EPC). While the tree fits, path
                // verifications hit; once it overflows, the uncached fraction
                // of every path faults — the paging cliff.
                let tree_bytes = 2 * db_pages * 32;
                let overflow = 1.0 - (p.epc_limit_bytes as f64 / tree_bytes as f64).min(1.0);
                let verifications = delta.page_reads + probe_requests;
                charge(
                    "tee/epc_paging",
                    "epc",
                    verifications as f64 * path_nodes as f64 * overflow * p.epc_fault_ns as f64,
                );
            }
            (result, delta, scanned_rows, bytes)
        };
        let snapshot = trace.snapshot();
        let breakdown = CostBreakdown::from_trace(&snapshot);
        self.last_trace = Some(snapshot);
        Ok(QueryReport {
            config: self.config,
            query_id: q.id,
            result: result.expect("query has an output stage"),
            breakdown,
            pages_read_storage: delta.page_reads,
            pages_shipped: delta.page_reads,
            rows_shipped: scanned_rows,
            bytes_shipped: bytes,
        })
    }

    // ---------------------------------------------------------------
    // vcs / scs: per-table filter fragments run near the data; filtered
    // rows ship to the host, which joins/aggregates them.
    // ---------------------------------------------------------------
    fn run_split(&mut self, q: &PaperQuery) -> Result<QueryReport> {
        let secure = self.config == SystemConfig::IronSafe;
        let p = self.params.clone();
        let exec = self.exec.clone();
        self.last_plans.clear();
        self.last_extras = ProfileExtras::default();
        let trace = Trace::new();
        let (result, delta, bytes, rows_shipped) = {
            let _active = trace.install();
            let _ctx = TraceCtx::query(q.id as u64).install();
            let _query_span = Span::enter(&format!("query/q{}", q.id));
            let before = self.storage_db.pager_stats();
            let mut host_db = Database::new(PlainPager::new());
            let mut epc = EpcSimulator::new(p.epc_limit_bytes);
            if secure && self.epc_pressure_pages > 0 {
                // Concurrent tenants hold a resident working set before
                // the query's first temp page lands. Applied under every
                // placement: pressure is environment, not policy.
                epc.preload_background(self.epc_pressure_pages);
            }
            let (mut tx, mut rx) = channel_pair(&self.session_key);
            rx.set_fault_plan(self.fault_plan.clone());
            let plan = self.fault_plan.clone();
            let retry = self.retry;

            let mut scanned_rows = 0u64;
            let mut rows_shipped = 0u64;
            let mut rows_serialized = 0u64;
            let mut page_transfer_bytes = 0u64;
            let mut host_input_rows = 0u64;
            let mut host_ops = 0u64;
            let mut fragments = 0u64;
            let mut result = None;

            for (stage_no, stage) in q.stages.iter().enumerate() {
                let _stage_span = Span::enter(&format!("stage{stage_no}/split_exec"));
                let stmt = ironsafe_sql::parser::parse_statement(&stage.sql)?;
                let sel = match stmt {
                    Statement::Select(s) => s,
                    other => {
                        // Non-SELECT stages run on the host.
                        host_db.execute_statement(&other)?;
                        continue;
                    }
                };
                let catalog_lookup = |name: &str| -> Option<Schema> {
                    self.storage_db.catalog().table(name).ok().map(|t| t.schema.clone())
                };
                let host_ops_est = complexity(&sel);
                let adaptive_live = self.placement == PlacementPolicy::CostBased;
                let Partition { storage, host } = match self.placement {
                    PlacementPolicy::Pinned(pin) => {
                        partition_select(&sel, &catalog_lookup, &|_, _| pin)
                    }
                    PlacementPolicy::CostBased => {
                        let state = self.adaptive.lock();
                        // Occupancy at planning time: background
                        // pressure plus earlier stages' temp pages — so
                        // later stages adapt to a filling EPC.
                        let view = EpcView {
                            occupied_pages: epc.resident_pages() as u64,
                            capacity_pages: epc.capacity_pages() as u64,
                        };
                        let db = &self.storage_db;
                        let metrics = &self.plan_metrics;
                        partition_select(&sel, &catalog_lookup, &|table, frag| {
                            let Ok(info) = db.catalog().table(table) else {
                                return OffloadDecision::Offload;
                            };
                            let shape = TableShape {
                                rows: info.heap.row_count,
                                pages: info.heap.pages.len() as u64,
                                cols: info.schema.len(),
                            };
                            let f =
                                fragment_stats(&state, table, frag, shape, host_ops_est, secure);
                            let (decision, _, _) = choose(&f, &view, &p);
                            match decision {
                                OffloadDecision::Offload => metrics.decide_offload.inc(),
                                OffloadDecision::ShipPages => metrics.decide_ship_pages.inc(),
                            }
                            decision
                        })
                    }
                };

                // Run fragments near the data, ship results.
                let mut shipped_tables = Vec::new();
                for StorageQuery { table, stmt, mode, .. } in &storage {
                    let _frag_span = Span::enter(&format!("fragment/{table}"));
                    let info = self.storage_db.catalog().table(table)?;
                    let table_rows = info.heap.row_count;
                    let table_cols = info.schema.len();
                    scanned_rows += table_rows;
                    let table_pages = info.heap.pages.len() as u64;
                    let shape =
                        TableShape { rows: table_rows, pages: table_pages, cols: table_cols };
                    let est_sel = (adaptive_live && stmt.where_clause.is_some()).then(|| {
                        let state = self.adaptive.lock();
                        fragment_stats(&state, table, stmt, shape, host_ops_est, secure)
                            .selectivity
                    });
                    // Watch per-morsel row counts when this fragment may
                    // re-plan mid-flight (telemetry only: rows and stats
                    // are unchanged).
                    let watch = (adaptive_live
                        && self.replan.is_some()
                        && *mode == OffloadDecision::Offload
                        && est_sel.is_some())
                    .then(|| Arc::new(ScanWatch::new()));
                    let frag_exec = match &watch {
                        Some(w) => exec.clone().with_watch(w.clone()),
                        None => exec.clone(),
                    };
                    let (frag_result, frag_ops) =
                        self.storage_db.select_with_profile(stmt, &frag_exec)?;
                    let pushdown_sql = stmt.where_clause.as_ref().map(expr_to_sql);
                    let schema = frag_result.schema();
                    let rows = frag_result.rows().to_vec();
                    let frag_rows = rows.len();
                    rows_shipped += frag_rows as u64;
                    fragments += 1;
                    let observed_sel = (table_rows > 0 && stmt.where_clause.is_some())
                        .then(|| frag_rows as f64 / table_rows as f64);
                    self.last_plans.push(PlanProfile {
                        label: format!("stage{stage_no}/fragment/{table}"),
                        placement: match mode {
                            OffloadDecision::Offload => Placement::StorageOffload,
                            OffloadDecision::ShipPages => Placement::StorageShipPages,
                        },
                        pushdown_filter: pushdown_sql.clone(),
                        estimated_selectivity: est_sel,
                        observed_selectivity: observed_sel,
                        operators: frag_ops,
                    });

                    let bytes_before = tx.bytes_sent;
                    let mut sealed_rows = frag_rows;
                    match mode {
                        OffloadDecision::ShipPages => {
                            // Raw page transfer: no storage-side serialization,
                            // whole pages cross the wire.
                            page_transfer_bytes += table_pages * 4096;
                        }
                        OffloadDecision::Offload => {
                            // Mid-flight re-planning: if the cumulative
                            // per-morsel selectivity diverged from the
                            // estimate past the hysteresis band *and* the
                            // cost rule flips at the observed value, the
                            // remaining morsels abandon the pushdown —
                            // their raw pages cross the wire and the host
                            // filters them itself. Answers are unchanged;
                            // only the cost accounting moves.
                            if let (Some(w), Some(policy)) = (&watch, self.replan) {
                                let slots = w.take();
                                let est = est_sel.unwrap_or(1.0);
                                if let Some((m, obs)) = divergence_trip(&slots, est, &policy) {
                                    let mut f = {
                                        let state = self.adaptive.lock();
                                        fragment_stats(
                                            &state, table, stmt, shape, host_ops_est, secure,
                                        )
                                    };
                                    f.selectivity = obs;
                                    let view = EpcView {
                                        occupied_pages: epc.resident_pages() as u64,
                                        capacity_pages: epc.capacity_pages() as u64,
                                    };
                                    let (rechoice, _, _) = choose(&f, &view, &p);
                                    if rechoice == OffloadDecision::ShipPages {
                                        let pre_filtered: u64 =
                                            slots[..m].iter().map(|(_, out)| *out).sum();
                                        let post_raw: u64 =
                                            slots[m..].iter().map(|(inp, _)| *inp).sum();
                                        let post_filtered: u64 =
                                            slots[m..].iter().map(|(_, out)| *out).sum();
                                        sealed_rows = pre_filtered as usize;
                                        let covered = (m * exec.morsel_pages) as u64;
                                        page_transfer_bytes +=
                                            table_pages.saturating_sub(covered) * 4096;
                                        // The host filters the raw remainder
                                        // itself…
                                        host_input_rows += post_raw - post_filtered;
                                        if secure {
                                            // …and its enclave touches the
                                            // extra temp pages those raw rows
                                            // occupy before filtering.
                                            let density = f.temp_rows_per_page.max(1.0);
                                            let extra_pages = ((post_raw - post_filtered)
                                                as f64
                                                / density)
                                                .ceil()
                                                as u64;
                                            epc.access_range(
                                                2_000_000_000 + fragments * 1_000_000,
                                                extra_pages,
                                            );
                                        }
                                        charge(
                                            "plan/replan",
                                            "ndp",
                                            p.fragment_setup_ns as f64,
                                        );
                                        self.plan_metrics.replans.inc();
                                        self.last_extras.replans.push(ReplanEvent {
                                            label: format!("stage{stage_no}/fragment/{table}"),
                                            from: Placement::StorageOffload,
                                            to: Placement::StorageShipPages,
                                            at_morsel: m,
                                            estimated: est,
                                            observed: obs,
                                        });
                                    }
                                }
                            }
                            rows_serialized += sealed_rows as u64;
                            // Serialize through the channel (records of ≤4096 rows).
                            // Each record is sealed once; injected transit faults
                            // (drop/corrupt/reorder) reject delivery without
                            // advancing the receive window, and the retransmit of
                            // the pristine record is accepted under the retry
                            // budget — so bytes_sent counts each record once.
                            for chunk in rows[..sealed_rows].chunks(4096) {
                                let record = tx.seal_rows(&schema, chunk);
                                let back =
                                    retry_with(&plan, &retry, || rx.recv_rows(&record))?;
                                debug_assert_eq!(back.len(), chunk.len());
                            }
                        }
                    }
                    if host_db.catalog().has_table(table) {
                        host_db.execute(&format!("DROP TABLE {table}"))?;
                    }
                    host_db.create_table(table, schema)?;
                    host_db.insert_rows(table, rows)?;
                    shipped_tables.push(table.clone());

                    // Feedback: fold the fragment's observed statistics
                    // into the shared EWMA store (under every placement —
                    // static runs prime the adaptive planner too).
                    if *mode == OffloadDecision::Offload
                        && stmt.where_clause.is_some()
                        && sealed_rows > 0
                    {
                        let obs = frag_rows as f64 / table_rows.max(1) as f64;
                        let records = (sealed_rows as u64).div_ceil(ROWS_PER_RECORD);
                        let wire = tx.bytes_sent - bytes_before;
                        let per_row = wire.saturating_sub(records * RECORD_OVERHEAD_BYTES)
                            as f64
                            / sealed_rows as f64;
                        let temp_pages = host_db
                            .catalog()
                            .table(table)
                            .map(|i| i.heap.pages.len())
                            .unwrap_or(1)
                            .max(1);
                        let density = frag_rows as f64 / temp_pages as f64;
                        let refined = self.adaptive.lock().observe(
                            table,
                            pushdown_sql.as_deref(),
                            obs,
                            per_row,
                            density,
                        );
                        if refined {
                            self.plan_metrics.estimate_refined.inc();
                        }
                    }
                }

                // Host-side execution over the shipped intermediates.
                host_input_rows += shipped_tables
                    .iter()
                    .map(|t| host_db.catalog().table(t).map(|i| i.heap.row_count).unwrap_or(0))
                    .sum::<u64>();
                host_ops += complexity(&host);
                if secure {
                    // The host engine's enclave touches every temp page.
                    for t in &shipped_tables {
                        if let Ok(info) = host_db.catalog().table(t) {
                            for &page in &info.heap.pages {
                                epc.access(1_000_000 + page);
                            }
                        }
                    }
                    // Sample EPC occupancy once per stage, after the
                    // stage's working set landed.
                    self.last_extras.epc_occupancy_pages.push(epc.resident_pages() as u64);
                    // The background tenants re-touch their working set
                    // while the host stage computes; against a full EPC
                    // this faults (and cascades) deterministically.
                    if self.epc_pressure_pages > 0 {
                        epc.touch_background(self.epc_pressure_pages);
                    }
                }
                let r = {
                    let _host_span = Span::enter("host/join_aggregate");
                    let (r, host_ops_profile) = host_db.select_with_profile(&host, &exec)?;
                    self.last_plans.push(PlanProfile::new(
                        format!("stage{stage_no}/host"),
                        Placement::Host,
                        host_ops_profile,
                    ));
                    r
                };
                match &stage.into {
                    Some(name) => {
                        host_db.create_table(name, r.schema())?;
                        host_db.insert_rows(name, r.rows().to_vec())?;
                    }
                    None => result = Some(r),
                }
                for t in shipped_tables {
                    host_db.execute(&format!("DROP TABLE {t}"))?;
                }
            }

            let delta = self.pager_delta(before);
            let bytes = tx.bytes_sent + page_transfer_bytes;
            self.last_extras.epc_faults = epc.faults();
            if secure {
                // Two transitions per shipped record batch (mirrors the
                // `tee/transitions` charge below).
                self.last_extras.enclave_transitions = tx.messages * 2;
            }
            // The storage-side application buffers the intermediates it ships.
            let mem_penalty = p.storage_mem_penalty(bytes);
            charge(
                "storage/compute",
                "ndp",
                p.storage_compute_ns(scanned_rows, 1) * mem_penalty,
            );
            // Serializing shipped rows and instantiating the per-fragment CS
            // service are storage-side costs vanilla CS also pays — this is
            // why weakly-selective queries regress under CS (paper Figure 6).
            charge(
                "storage/serialize",
                "ndp",
                rows_serialized as f64 * p.serialize_row_ns as f64 * p.storage_cpu_factor
                    / p.storage_parallel(),
            );
            charge("storage/fragment_setup", "ndp", fragments as f64 * p.fragment_setup_ns as f64);
            charge(
                "host/compute",
                "ndp",
                p.host_compute_ns(host_input_rows, host_ops.max(1)),
            );
            charge(
                "storage/device_io",
                "ndp",
                delta.page_reads as f64 * p.device_read_ns_per_page,
            );
            charge("net/ship_rows", "ndp", p.net_ns(bytes, tx.messages.max(1)));
            if secure {
                // No probe amplification here: the host side of scs joins
                // in-memory temp tables (no SQLCipher pager on that path).
                charge(
                    "crypto/pages",
                    "crypto",
                    (delta.decrypts * p.decrypt_ns_per_page + delta.encrypts * p.encrypt_ns_per_page)
                        as f64,
                );
                charge(
                    "freshness/verify",
                    "freshness",
                    (delta.merkle_nodes * p.merkle_node_ns + delta.rpmb_ops * p.rpmb_op_ns) as f64,
                );
                // A couple of transitions per shipped record batch.
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
            (result, delta, bytes, rows_shipped)
        };
        let snapshot = trace.snapshot();
        let breakdown = CostBreakdown::from_trace(&snapshot);
        self.last_trace = Some(snapshot);
        Ok(QueryReport {
            config: self.config,
            query_id: q.id,
            result: result.expect("query has an output stage"),
            breakdown,
            pages_read_storage: delta.page_reads,
            pages_shipped: bytes.div_ceil(4096),
            rows_shipped,
            bytes_shipped: bytes,
        })
    }
}

/// Catalog shape of one table, as the planner sees it.
#[derive(Clone, Copy)]
struct TableShape {
    rows: u64,
    pages: u64,
    cols: usize,
}

/// Assemble the planner's view of one storage fragment: EWMA-refined
/// estimates from the shared store when the fragment has been observed
/// before, predicate-shape priors and catalog statistics otherwise.
/// Pure — no page reads, no pager-stat perturbation.
fn fragment_stats(
    state: &AdaptiveState,
    table: &str,
    frag: &SelectStmt,
    shape: TableShape,
    host_ops: u64,
    secure: bool,
) -> FragmentStats {
    let TableShape { rows: table_rows, pages: table_pages, cols: table_cols } = shape;
    let where_sql = frag.where_clause.as_ref().map(expr_to_sql);
    let est = state.lookup(table, where_sql.as_deref());
    let selectivity = est.map(|e| e.selectivity).unwrap_or_else(|| {
        frag.where_clause.as_ref().map(prior_selectivity).unwrap_or(1.0)
    });
    let needed_cols = if frag.projections.iter().any(|i| matches!(i, SelectItem::Star)) {
        table_cols
    } else {
        frag.projections.len()
    }
    .max(1);
    let density_prior = if table_pages == 0 {
        64.0
    } else {
        (table_rows as f64 / table_pages as f64).max(1.0)
    };
    FragmentStats {
        table_rows,
        table_pages,
        selectivity,
        row_wire_bytes: est.map(|e| e.row_wire_bytes).unwrap_or(12.0 * needed_cols as f64),
        temp_rows_per_page: est.map(|e| e.temp_rows_per_page).unwrap_or(density_prior),
        host_ops,
        secure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_tee::sgx::epc::PAGE_SIZE;
    use ironsafe_tpch::queries::{paper_queries, query};

    fn data() -> TpchData {
        ironsafe_tpch::generate(0.002, 42)
    }

    fn run(config: SystemConfig, qid: u8, data: &TpchData) -> QueryReport {
        let mut sys = CsaSystem::build(config, data, CostParams::default()).unwrap();
        sys.run_query(&query(qid).unwrap()).unwrap()
    }

    #[test]
    fn q6_results_identical_across_all_configs() {
        let d = data();
        let reference = run(SystemConfig::HostOnlyNonSecure, 6, &d).result;
        for config in SystemConfig::all().into_iter().skip(1) {
            let r = run(config, 6, &d);
            assert_eq!(r.result, reference, "{}", config.abbrev());
        }
    }

    #[test]
    fn q3_results_identical_across_all_configs() {
        let d = data();
        let reference = run(SystemConfig::HostOnlyNonSecure, 3, &d).result;
        for config in SystemConfig::all().into_iter().skip(1) {
            let r = run(config, 3, &d);
            assert_eq!(r.result, reference, "{}", config.abbrev());
        }
    }

    #[test]
    fn split_ships_fewer_bytes_than_host_only() {
        let d = data();
        let hons = run(SystemConfig::HostOnlyNonSecure, 6, &d);
        let vcs = run(SystemConfig::VanillaCs, 6, &d);
        assert!(
            vcs.bytes_shipped < hons.bytes_shipped / 2,
            "Q6 filters hard: vcs {} vs hons {}",
            vcs.bytes_shipped,
            hons.bytes_shipped
        );
        assert!(vcs.pages_shipped < hons.pages_shipped);
    }

    #[test]
    fn secure_costs_more_than_non_secure() {
        let d = data();
        let hons = run(SystemConfig::HostOnlyNonSecure, 6, &d);
        let hos = run(SystemConfig::HostOnlySecure, 6, &d);
        assert!(hos.total_ns() > hons.total_ns());
        assert!(hos.breakdown.freshness_ns > 0.0);
        assert!(hos.breakdown.crypto_ns > 0.0);
        let vcs = run(SystemConfig::VanillaCs, 6, &d);
        let scs = run(SystemConfig::IronSafe, 6, &d);
        assert!(scs.total_ns() > vcs.total_ns());
    }

    #[test]
    fn ironsafe_beats_host_only_secure_on_selective_queries() {
        let d = data();
        let hos = run(SystemConfig::HostOnlySecure, 6, &d);
        let scs = run(SystemConfig::IronSafe, 6, &d);
        assert!(
            scs.total_ns() < hos.total_ns(),
            "scs {} should beat hos {}",
            scs.total_ns(),
            hos.total_ns()
        );
    }

    #[test]
    fn all_paper_queries_run_in_scs() {
        let d = data();
        let mut sys = CsaSystem::build(SystemConfig::IronSafe, &d, CostParams::default()).unwrap();
        for q in paper_queries() {
            let r = sys.run_query(&q).unwrap_or_else(|e| panic!("Q{}: {e}", q.id));
            assert!(r.total_ns() > 0.0);
        }
    }

    #[test]
    fn storage_cores_speed_up_split_execution() {
        let d = data();
        let p1 = CostParams { storage_cores: 1, ..CostParams::default() };
        let mut sys1 = CsaSystem::build(SystemConfig::IronSafe, &d, p1).unwrap();
        let r1 = sys1.run_query(&query(6).unwrap()).unwrap();
        let p8 = CostParams { storage_cores: 8, ..CostParams::default() };
        let mut sys8 = CsaSystem::build(SystemConfig::IronSafe, &d, p8).unwrap();
        let r8 = sys8.run_query(&query(6).unwrap()).unwrap();
        assert!(r8.total_ns() < r1.total_ns());
    }

    #[test]
    fn tiny_epc_causes_paging_in_hos() {
        let d = data();
        let p = CostParams { epc_limit_bytes: 8 * PAGE_SIZE, ..CostParams::default() };
        let mut sys = CsaSystem::build(SystemConfig::HostOnlySecure, &d, p).unwrap();
        let r = sys.run_query(&query(1).unwrap()).unwrap();
        assert!(r.breakdown.epc_ns > 0.0, "thrashing EPC must fault");
    }

    #[test]
    fn sos_pays_weak_cpu_but_no_network() {
        let d = data();
        let r = run(SystemConfig::StorageOnlySecure, 1, &d);
        assert_eq!(r.bytes_shipped, 0);
        assert!(r.breakdown.ndp_ns > 0.0);
        assert!(r.breakdown.freshness_ns > 0.0);
    }

    #[test]
    fn multi_stage_query_runs_split() {
        let d = data();
        let r = run(SystemConfig::IronSafe, 18, &d);
        let reference = run(SystemConfig::HostOnlyNonSecure, 18, &d);
        assert_eq!(r.result, reference.result);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use ironsafe_tpch::queries::query;

    fn data() -> TpchData {
        ironsafe_tpch::generate(0.002, 42)
    }

    const STATIC: PlacementPolicy = PlacementPolicy::Pinned(OffloadDecision::Offload);

    fn run_with(placement: PlacementPolicy, qid: u8, data: &TpchData) -> QueryReport {
        let mut sys = CsaSystem::build(SystemConfig::IronSafe, data, CostParams::default()).unwrap();
        sys.set_placement(placement);
        sys.run_query(&query(qid).unwrap()).unwrap()
    }

    #[test]
    fn adaptive_matches_static_results() {
        let d = data();
        for qid in [1u8, 3, 6, 13, 18] {
            let a = run_with(STATIC, qid, &d);
            let b = run_with(PlacementPolicy::CostBased, qid, &d);
            assert_eq!(a.result, b.result, "Q{qid}: placement must never change answers");
        }
    }

    #[test]
    fn adaptive_keeps_selective_pushdowns() {
        // Q6's filter is brutal: the adaptive partitioner must keep it.
        let d = data();
        let a = run_with(PlacementPolicy::CostBased, 6, &d);
        let s = run_with(STATIC, 6, &d);
        assert_eq!(a.bytes_shipped, s.bytes_shipped, "Q6 still offloads fully");
    }

    #[test]
    fn adaptive_withdraws_weak_pushdowns() {
        // Q13's NOT LIKE keeps nearly every order: the cost-based placement
        // withdraws the pushdown; the host applies the filter instead.
        let d = data();
        let a = run_with(PlacementPolicy::CostBased, 13, &d);
        let s = run_with(STATIC, 13, &d);
        assert!(
            a.rows_shipped >= s.rows_shipped,
            "withdrawn pushdown ships at least as many rows ({} vs {})",
            a.rows_shipped,
            s.rows_shipped
        );
        assert_eq!(a.result, s.result);
    }
}
