//! Morsel-driven vectorized scan and aggregation: the read path of every
//! base-table scan the planner emits without a `LIMIT`.
//!
//! This module splits the heap's page list into fixed-size **morsels**,
//! hands them to a pool of worker threads (bounded by [`Dop`] and the
//! machine's available parallelism; DOP 1 runs them in order on the
//! calling thread), and merges per-morsel results in morsel order —
//! which *is* page order, which *is* the row order of the row-at-a-time
//! [`SeqScan`](crate::exec::SeqScan) pipeline.
//!
//! Each worker claims morsels off a shared atomic cursor, batch-reads
//! the morsel's pages through [`Pager::read_pages`] (one pager lock per
//! morsel, pipelined decrypt + verify for secure pagers), then decodes
//! the morsel **once** into a column-major
//! [`ColumnBatch`](crate::batch::ColumnBatch) outside the lock.
//! Predicates and aggregate inputs run vector-at-a-time over a selection
//! bitmap ([`crate::expr::filter_vec`] / [`crate::expr::eval_vec`]).
//!
//! **Determinism invariant**: `QueryResult` rows, `CostBreakdown`s and
//! `PagerStats` deltas are bit-identical to the row-at-a-time operators
//! at any DOP; batching and parallelism buy wall-clock time only. Scans
//! preserve row order by construction. Aggregation is the subtle part:
//! float accumulation is not associative and group order is first-seen,
//! so workers only *pre-evaluate* per-row expressions; a single-threaded
//! merge replays the exact serial [`GroupAcc`] state machine in row
//! order. Page-level counters commute, so batched out-of-order reads
//! leave every stats delta unchanged.

use crate::ast::Expr;
use crate::batch::ColumnBatch;
use crate::exec::aggregate::{agg_output_schema, AggSpec, GroupAcc};
use crate::exec::{BoxOp, Operator};
use crate::expr::{bind, eval_vec, filter_vec, BoundExpr};
use crate::heap::{scan_page_columns, HeapFile, SharedPager};
use crate::schema::{Row, Schema};
use crate::value::Value;
use crate::{Result, SqlError};
use ironsafe_obs::{Counter, Registry, Span, Trace, TraceCtx};
use ironsafe_storage::pager::PageId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pages per morsel when [`ExecOptions::morsel_pages`] is not overridden.
pub const DEFAULT_MORSEL_PAGES: usize = 16;

/// Degree of parallelism for morsel execution. `Dop::new(1)` (the
/// default) runs every morsel in order on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dop(usize);

impl Dop {
    /// Clamp `n` to at least 1.
    pub fn new(n: usize) -> Self {
        Dop(n.max(1))
    }

    /// Worker count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Dop {
    fn default() -> Self {
        Dop(1)
    }
}

/// Live `exec.morsel.*` counters bumped by morsel workers.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Morsel scans dispatched (`exec.morsel.scans`).
    pub scans: Counter,
    /// Morsels claimed by workers (`exec.morsel.dispatched`).
    pub morsels: Counter,
    /// Rows decoded by morsel workers (`exec.morsel.rows`).
    pub rows: Counter,
}

impl ExecMetrics {
    /// Attach every cell to `registry` under its `exec.morsel.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("exec.morsel.scans", &self.scans);
        registry.register_counter("exec.morsel.dispatched", &self.morsels);
        registry.register_counter("exec.morsel.rows", &self.rows);
    }
}

/// Per-morsel scan telemetry: `(rows_in, rows_out)` around the
/// pushed-down predicate, indexed by morsel number.
///
/// The adaptive planner attaches one of these to a fragment scan's
/// [`ExecOptions`]; after the scan it reads the slots to compare each
/// morsel's *observed* selectivity against its estimate and decide
/// whether the remaining placement still pays (mid-flight re-planning).
/// Slots are keyed by morsel index, not completion order, so the
/// recorded sequence is identical at any DOP — a re-plan decision
/// derived from it is deterministic.
#[derive(Debug, Default)]
pub struct ScanWatch {
    slots: Mutex<Vec<(u64, u64)>>,
}

impl ScanWatch {
    /// Fresh watch with no recorded morsels.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one morsel's pre-/post-predicate row counts. Safe to call
    /// from any worker; last write per index wins (each morsel is
    /// executed exactly once, so there is no contention in practice).
    pub fn record(&self, morsel: usize, rows_in: u64, rows_out: u64) {
        let mut slots = self.slots.lock();
        if slots.len() <= morsel {
            slots.resize(morsel + 1, (0, 0));
        }
        slots[morsel] = (rows_in, rows_out);
    }

    /// Drain the recorded `(rows_in, rows_out)` slots, in morsel order.
    pub fn take(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.slots.lock())
    }

    /// Copy of the recorded slots without draining them.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.slots.lock().clone()
    }
}

/// Knobs for morsel execution, threaded from the session/system down to
/// the planner.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker count; 1 runs the morsels on the calling thread.
    pub dop: Dop,
    /// Pages per morsel.
    pub morsel_pages: usize,
    /// Spawn exactly `dop` workers even beyond the machine's available
    /// parallelism. Off by default: the pool is additionally capped at
    /// `std::thread::available_parallelism()`, because surplus threads
    /// on saturated cores cost context switches without buying any
    /// wall-clock time. Tests force it on to exercise cross-thread
    /// determinism regardless of the host's core count.
    pub oversubscribe: bool,
    /// Live counters shared by every scan run under these options.
    pub metrics: ExecMetrics,
    /// When set, scans record per-morsel `(rows_in, rows_out)` into the
    /// watch (telemetry only, never rows or stats).
    pub watch: Option<Arc<ScanWatch>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            dop: Dop::default(),
            morsel_pages: DEFAULT_MORSEL_PAGES,
            oversubscribe: false,
            metrics: ExecMetrics::default(),
            watch: None,
        }
    }
}

impl ExecOptions {
    /// Serial execution (the default).
    pub fn serial() -> Self {
        Self::default()
    }

    /// Parallel execution with `dop` workers.
    pub fn with_dop(dop: usize) -> Self {
        ExecOptions { dop: Dop::new(dop), ..Self::default() }
    }

    /// Same options with a [`ScanWatch`] attached.
    pub fn with_watch(mut self, watch: Arc<ScanWatch>) -> Self {
        self.watch = Some(watch);
        self
    }
}

/// A contiguous run of heap page indexes, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First page index.
    pub start: usize,
    /// One past the last page index.
    pub end: usize,
}

/// Split `num_pages` heap pages into fixed-size morsels. Every page
/// index in `0..num_pages` lands in exactly one morsel; concatenating
/// the morsels in order yields `0..num_pages`.
pub fn partition_pages(num_pages: usize, morsel_pages: usize) -> Vec<Morsel> {
    let size = morsel_pages.max(1);
    let mut morsels = Vec::with_capacity(num_pages.div_ceil(size));
    let mut start = 0;
    while start < num_pages {
        let end = (start + size).min(num_pages);
        morsels.push(Morsel { start, end });
        start = end;
    }
    morsels
}

/// One heap scan the morsel engine can parallelize: the table's heap,
/// the pager it lives on, the scan schema, and an optional pushed-down
/// predicate evaluated inside the workers.
#[derive(Clone)]
pub struct MorselSource {
    /// Scan output schema (the table's columns).
    pub schema: Schema,
    /// The table's page list.
    pub heap: HeapFile,
    /// Pager the pages live on.
    pub pager: SharedPager,
    /// Pushed-down filter; rows failing it are dropped inside workers
    /// without being cloned out of the scratch buffer.
    pub pred: Option<Expr>,
}

/// Run `per_batch` over every morsel of `source`, morsels in parallel:
/// each morsel's pages are decoded **once** into a column-major
/// [`ColumnBatch`], the pushed-down predicate runs vector-at-a-time over
/// a selection bitmap ([`filter_vec`]), and `per_batch` folds the
/// surviving lanes into a fresh `M`. Lane order within a batch is page
/// order, and the accumulators are returned in morsel order — i.e. in
/// serial row order — so callers merge without re-sorting. The first
/// error, by morsel order, is returned. `exec.morsel.rows` counts all
/// decoded lanes, pre-filter.
fn run_batches<M, F>(source: &MorselSource, opts: &ExecOptions, per_batch: F) -> Result<Vec<M>>
where
    M: Default + Send,
    F: Fn(&ColumnBatch, &[bool], &mut M) -> Result<()> + Sync,
{
    let payload = source.pager.lock().payload_size();
    let ncols = source.schema.len();
    let morsels = partition_pages(source.heap.pages.len(), opts.morsel_pages);
    opts.metrics.scans.inc();

    // Bind the predicate once: evaluation then skips column-name
    // resolution entirely (see `crate::expr::bind`).
    let pred: Option<BoundExpr> = match &source.pred {
        Some(p) => Some(bind(p, &source.schema)?),
        None => None,
    };
    let pred = pred.as_ref();

    // Per-morsel kernel: one batched read under the pager lock — on a
    // secure pager the whole morsel shares a single Merkle climb
    // (`verify_batch`), so contiguous page ids also minimize freshness
    // hashing — then a single columnar decode and one vectorized
    // predicate pass outside it. Each morsel refines the ambient
    // [`TraceCtx`] with its index and runs inside its own span; a failed
    // morsel (fault exhaustion, violation) tags the span before it
    // closes, so chaos traces stay well-formed trees.
    let work = |i: usize, m: &Morsel| -> Result<M> {
        let _ctx = TraceCtx::current().map(|c| c.with_morsel(i as u64).install());
        let span = Span::enter("exec/morsel");
        let body = || -> Result<M> {
            let ids: Vec<PageId> = source.heap.pages[m.start..m.end].to_vec();
            let mut buf = vec![0u8; ids.len() * payload];
            source.pager.lock().read_pages(&ids, &mut buf).map_err(SqlError::from)?;
            opts.metrics.morsels.inc();
            let mut batch = ColumnBatch::new(ncols);
            for page in buf.chunks_exact(payload) {
                scan_page_columns(page, ncols, &mut batch)?;
            }
            opts.metrics.rows.add(batch.len() as u64);
            let mut sel = vec![true; batch.len()];
            if let Some(pred) = pred {
                filter_vec(pred, &batch, &mut sel)?;
            }
            if let Some(watch) = &opts.watch {
                let kept = sel.iter().filter(|live| **live).count() as u64;
                watch.record(i, batch.len() as u64, kept);
            }
            let mut acc = M::default();
            per_batch(&batch, &sel, &mut acc)?;
            Ok(acc)
        };
        let result = body();
        if result.is_err() {
            span.fail("exec.morsel.failed");
        }
        result
    };

    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cap = if opts.oversubscribe { usize::MAX } else { hw };
    let nworkers = opts.dop.get().min(morsels.len()).min(cap).max(1);
    if nworkers <= 1 {
        let mut out = Vec::with_capacity(morsels.len());
        for (i, m) in morsels.iter().enumerate() {
            out.push(work(i, m)?);
        }
        return Ok(out);
    }

    let slots: Vec<Mutex<Option<Result<M>>>> =
        morsels.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let trace = Trace::current();
    // The trace ctx is thread-local: capture the query's ctx here and
    // re-install it inside each worker so morsel spans stitch into the
    // same query id across threads.
    let ctx = TraceCtx::current();
    crossbeam::thread::scope(|s| {
        for w in 0..nworkers {
            let trace = trace.clone();
            let (slots, cursor, morsels, work) = (&slots, &cursor, &morsels, &work);
            s.spawn(move |_| {
                // Workers join the parent's trace so their spans land in
                // the same timeline; they attribute no simulated time
                // (parallelism buys wall-clock, not simulated time).
                let _guard = trace.as_ref().map(|t| t.install());
                let _ctx_guard = ctx.map(|c| c.install());
                let name = format!("exec/morsel_worker{w}");
                let _span = Span::enter(&name);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= morsels.len() {
                        break;
                    }
                    *slots[i].lock() = Some(work(i, &morsels[i]));
                }
            });
        }
    })
    .expect("morsel workers do not panic");

    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner().expect("every morsel was claimed") {
            Ok(m) => out.push(m),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Morsel sequential scan: emits exactly the rows (in exactly the
/// order) of `SeqScan` + an optional `Filter`, using the morsel pool.
/// Materializes on first pull.
pub struct MorselScan {
    source: MorselSource,
    opts: ExecOptions,
    output: std::vec::IntoIter<Row>,
    started: bool,
    emitted: u64,
}

impl MorselScan {
    /// Build a morsel scan over `source`.
    pub fn new(source: MorselSource, opts: ExecOptions) -> Self {
        MorselScan { source, opts, output: Vec::new().into_iter(), started: false, emitted: 0 }
    }
}

impl Operator for MorselScan {
    fn schema(&self) -> &Schema {
        &self.source.schema
    }

    fn describe(&self) -> String {
        let pred = match &self.source.pred {
            Some(p) => format!(", filter {}", crate::ast::expr_to_sql(p)),
            None => String::new(),
        };
        format!(
            "MorselScan ({} pages, {} rows, dop {}{pred})",
            self.source.heap.page_count(),
            self.source.heap.row_count,
            self.opts.dop.get()
        )
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if !self.started {
            self.started = true;
            let chunks =
                run_batches(&self.source, &self.opts, |batch, sel, out: &mut Vec<Row>| {
                    for (lane, live) in sel.iter().enumerate() {
                        if *live {
                            out.push(batch.owned_row(lane));
                        }
                    }
                    Ok(())
                })?;
            let mut rows = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
            for mut c in chunks {
                rows.append(&mut c);
            }
            self.output = rows.into_iter();
        }
        let row = self.output.next();
        self.emitted += row.is_some() as u64;
        Ok(row)
    }
}

/// One morsel's pre-evaluated aggregation inputs, stored flat: group-key
/// encodings concatenated in `keys` (row boundaries in `key_ends`) and
/// evaluated values row-major in `vals` (group values then aggregate
/// inputs, fixed width per row).
#[derive(Default)]
struct TupleArena {
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    vals: Vec<Value>,
}

/// Morsel hash aggregation over a single heap scan.
///
/// Workers pre-evaluate the expensive per-row work — page decode,
/// predicate, group-key encoding, aggregate inputs — and the merge
/// replays the serial [`GroupAcc`] state machine single-threaded in row
/// order. Group first-seen order, DISTINCT dedup, NULL gating and float
/// accumulation order are therefore identical to [`HashAggregate`]
/// (`crate::exec::HashAggregate`) at any DOP.
pub struct ParallelHashAggregate {
    source: MorselSource,
    opts: ExecOptions,
    group_exprs: Vec<Expr>,
    aggs: Vec<AggSpec>,
    schema: Schema,
    output: std::vec::IntoIter<Row>,
    started: bool,
    emitted: u64,
}

impl ParallelHashAggregate {
    /// Build the operator; mirrors `HashAggregate::new` but reads its
    /// input via the morsel pool instead of a child operator.
    pub fn new(
        source: MorselSource,
        opts: ExecOptions,
        group_exprs: Vec<Expr>,
        group_names: Vec<String>,
        aggs: Vec<AggSpec>,
    ) -> Self {
        assert_eq!(group_exprs.len(), group_names.len());
        let schema = agg_output_schema(&group_names, &aggs);
        ParallelHashAggregate {
            source,
            opts,
            group_exprs,
            aggs,
            schema,
            output: Vec::new().into_iter(),
            started: false,
            emitted: 0,
        }
    }

    fn materialize(&mut self) -> Result<()> {
        let schema = &self.source.schema;
        // Bind group keys and aggregate inputs once; workers then
        // evaluate index-resolved expressions per row.
        let groups: Vec<BoundExpr> =
            self.group_exprs.iter().map(|e| bind(e, schema)).collect::<Result<_>>()?;
        let args: Vec<Option<BoundExpr>> = self
            .aggs
            .iter()
            .map(|spec| spec.arg.as_ref().map(|e| bind(e, schema)).transpose())
            .collect::<Result<_>>()?;
        let ngroups = groups.len();
        // Workers: evaluate group keys and aggregate inputs into flat
        // per-morsel arenas, in lane order, with one `eval_vec` pass per
        // computed expression per batch. Column refs read batch lanes
        // directly (no intermediate vector, no text copy until the arena
        // needs the value).
        enum Slot<'e> {
            Col(usize),
            One,
            Expr(&'e BoundExpr),
        }
        let slots: Vec<Slot> = groups
            .iter()
            .map(|e| match e {
                BoundExpr::Col(i) => Slot::Col(*i),
                e => Slot::Expr(e),
            })
            .chain(args.iter().map(|a| match a {
                None => Slot::One, // COUNT(*) counts rows
                Some(BoundExpr::Col(i)) => Slot::Col(*i),
                Some(e) => Slot::Expr(e),
            }))
            .collect();
        let arenas = run_batches(&self.source, &self.opts, |batch, sel, arena: &mut TupleArena| {
            let mut vecs: Vec<Option<Vec<Value>>> = Vec::with_capacity(slots.len());
            for s in &slots {
                vecs.push(match s {
                    Slot::Expr(e) => Some(eval_vec(e, batch, sel)?),
                    _ => None,
                });
            }
            for (lane, live) in sel.iter().enumerate() {
                if !*live {
                    continue;
                }
                for (k, s) in slots.iter().enumerate() {
                    let v = match s {
                        Slot::Col(i) => batch.value_at(*i, lane),
                        Slot::One => Value::Int(1),
                        Slot::Expr(_) => std::mem::replace(
                            &mut vecs[k].as_mut().expect("expr slot")[lane],
                            Value::Null,
                        ),
                    };
                    if k < ngroups {
                        v.key_bytes(&mut arena.keys);
                    }
                    arena.vals.push(v);
                }
                arena.key_ends.push(arena.keys.len());
            }
            Ok(())
        })?;
        // Merge: replay the serial accumulator in row order.
        let width = ngroups + self.aggs.len();
        let mut acc = GroupAcc::new(&self.aggs, self.group_exprs.is_empty());
        for arena in arenas {
            let mut start = 0;
            for (i, &end) in arena.key_ends.iter().enumerate() {
                let vals = &arena.vals[i * width..(i + 1) * width];
                acc.update(&self.aggs, &arena.keys[start..end], &vals[..ngroups], &vals[ngroups..])?;
                start = end;
            }
        }
        self.output = acc.finish().into_iter();
        Ok(())
    }
}

impl Operator for ParallelHashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn describe(&self) -> String {
        let groups: Vec<String> = self.group_exprs.iter().map(crate::ast::expr_to_sql).collect();
        let aggs: Vec<String> = self.aggs.iter().map(|a| a.name.clone()).collect();
        format!(
            "ParallelHashAggregate: group by [{}], compute [{}] (dop {})",
            groups.join(", "),
            aggs.join(", "),
            self.opts.dop.get()
        )
    }

    fn rows_out(&self) -> u64 {
        self.emitted
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if !self.started {
            self.started = true;
            self.materialize()?;
        }
        let row = self.output.next();
        self.emitted += row.is_some() as u64;
        Ok(row)
    }
}

/// Boxed [`MorselScan`] as a plan source.
pub fn boxed_scan(source: MorselSource, opts: &ExecOptions) -> BoxOp {
    Box::new(MorselScan::new(source, opts.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggFunc;
    use crate::exec::{collect, Filter, HashAggregate, SeqScan};
    use crate::heap::shared;
    use crate::parser::parse_expression;
    use crate::schema::Column;
    use crate::value::DataType;
    use ironsafe_storage::pager::PlainPager;
    use proptest::prelude::*;

    fn fixture(nrows: i64) -> (MorselSource, SharedPager) {
        let pager = shared(PlainPager::new());
        let mut heap = HeapFile::new();
        heap.append_rows(
            &pager,
            (0..nrows).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Text(format!("grp{}", i % 7)),
                    Value::Float(i as f64 * 0.25),
                ]
            }),
        )
        .unwrap();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("g", DataType::Text),
            Column::new("x", DataType::Float),
        ]);
        (MorselSource { schema, heap, pager: pager.clone(), pred: None }, pager)
    }

    #[test]
    fn parallel_scan_matches_serial_scan_rows_and_stats() {
        let (mut source, pager) = fixture(2000);
        source.pred = Some(parse_expression("a % 3 = 0").unwrap());
        pager.lock().reset_stats();
        let serial = {
            let scan = Box::new(SeqScan::new(
                source.schema.clone(),
                source.heap.clone(),
                pager.clone(),
            ));
            let filtered = Box::new(Filter::new(scan, source.pred.clone().unwrap()));
            collect(filtered).unwrap().1
        };
        let serial_stats = pager.lock().stats();
        pager.lock().reset_stats();
        let opts =
            ExecOptions { morsel_pages: 3, oversubscribe: true, ..ExecOptions::with_dop(4) };
        let parallel =
            collect(Box::new(MorselScan::new(source.clone(), opts.clone()))).unwrap().1;
        let parallel_stats = pager.lock().stats();
        assert_eq!(parallel, serial, "row stream must be order-identical");
        assert_eq!(parallel_stats, serial_stats, "stats delta must be identical");
        assert!(opts.metrics.morsels.get() > 1);
        assert_eq!(opts.metrics.rows.get(), 2000);
    }

    #[test]
    fn parallel_aggregate_matches_serial_bit_for_bit() {
        let (source, pager) = fixture(3000);
        let group_exprs = vec![parse_expression("g").unwrap()];
        let aggs = vec![
            AggSpec { func: AggFunc::Count, arg: None, distinct: false, name: "cnt".into() },
            AggSpec {
                func: AggFunc::Sum,
                arg: Some(parse_expression("x * 1.1").unwrap()),
                distinct: false,
                name: "s".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                arg: Some(parse_expression("x").unwrap()),
                distinct: false,
                name: "m".into(),
            },
            AggSpec {
                func: AggFunc::Count,
                arg: Some(parse_expression("a % 11").unwrap()),
                distinct: true,
                name: "d".into(),
            },
        ];
        let serial = {
            let scan = Box::new(SeqScan::new(
                source.schema.clone(),
                source.heap.clone(),
                pager.clone(),
            ));
            let agg = HashAggregate::new(
                scan,
                group_exprs.clone(),
                vec!["g".into()],
                aggs.clone(),
            );
            collect(Box::new(agg)).unwrap()
        };
        for dop in [2, 4, 8] {
            let par = collect(Box::new(ParallelHashAggregate::new(
                source.clone(),
                ExecOptions { morsel_pages: 2, oversubscribe: true, ..ExecOptions::with_dop(dop) },
                group_exprs.clone(),
                vec!["g".into()],
                aggs.clone(),
            )))
            .unwrap();
            assert_eq!(par.1, serial.1, "dop {dop} drifted from serial");
            assert_eq!(
                par.0.columns.iter().map(|c| &c.name).collect::<Vec<_>>(),
                serial.0.columns.iter().map(|c| &c.name).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn vectorized_scan_matches_serial_rows_and_stats() {
        let (mut source, pager) = fixture(2000);
        source.pred = Some(parse_expression("a % 3 = 0 AND x < 300.0").unwrap());
        pager.lock().reset_stats();
        let serial = {
            let scan = Box::new(SeqScan::new(
                source.schema.clone(),
                source.heap.clone(),
                pager.clone(),
            ));
            let filtered = Box::new(Filter::new(scan, source.pred.clone().unwrap()));
            collect(filtered).unwrap().1
        };
        let serial_stats = pager.lock().stats();
        for dop in [1, 4] {
            pager.lock().reset_stats();
            let opts =
                ExecOptions { morsel_pages: 3, oversubscribe: true, ..ExecOptions::with_dop(dop) };
            let vectorized =
                collect(Box::new(MorselScan::new(source.clone(), opts.clone()))).unwrap().1;
            let vec_stats = pager.lock().stats();
            assert_eq!(vectorized, serial, "dop {dop}: row stream must be order-identical");
            assert_eq!(vec_stats, serial_stats, "dop {dop}: stats delta must be identical");
            assert_eq!(opts.metrics.rows.get(), 2000, "rows counter counts pre-filter lanes");
        }
    }

    #[test]
    fn vectorized_aggregate_matches_serial_bit_for_bit() {
        let (mut source, pager) = fixture(3000);
        source.pred = Some(parse_expression("x BETWEEN 10.0 AND 600.0").unwrap());
        let group_exprs = vec![parse_expression("g").unwrap()];
        let aggs = vec![
            AggSpec { func: AggFunc::Count, arg: None, distinct: false, name: "cnt".into() },
            AggSpec {
                func: AggFunc::Sum,
                arg: Some(parse_expression("x * 1.1").unwrap()),
                distinct: false,
                name: "s".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                arg: Some(parse_expression("x").unwrap()),
                distinct: false,
                name: "m".into(),
            },
            AggSpec {
                func: AggFunc::Min,
                arg: Some(parse_expression("a").unwrap()),
                distinct: false,
                name: "lo".into(),
            },
        ];
        let serial = {
            let scan = Box::new(SeqScan::new(
                source.schema.clone(),
                source.heap.clone(),
                pager.clone(),
            ));
            let filtered = Box::new(Filter::new(scan, source.pred.clone().unwrap()));
            let agg =
                HashAggregate::new(filtered, group_exprs.clone(), vec!["g".into()], aggs.clone());
            collect(Box::new(agg)).unwrap()
        };
        for dop in [1, 4] {
            let opts =
                ExecOptions { morsel_pages: 2, oversubscribe: true, ..ExecOptions::with_dop(dop) };
            let vectorized = collect(Box::new(ParallelHashAggregate::new(
                source.clone(),
                opts,
                group_exprs.clone(),
                vec!["g".into()],
                aggs.clone(),
            )))
            .unwrap();
            assert_eq!(vectorized.1, serial.1, "dop {dop} vectorized drifted from serial");
        }
    }

    #[test]
    fn scan_watch_slots_are_dop_invariant() {
        let (mut source, _pager) = fixture(2000);
        source.pred = Some(parse_expression("a % 4 = 0").unwrap());
        let mut baseline: Option<Vec<(u64, u64)>> = None;
        for dop in [1usize, 2, 4] {
            let watch = Arc::new(ScanWatch::new());
            let opts = ExecOptions { morsel_pages: 3, oversubscribe: true, ..ExecOptions::with_dop(dop) }
                .with_watch(watch.clone());
            collect(Box::new(MorselScan::new(source.clone(), opts))).unwrap();
            let slots = watch.take();
            let total_in: u64 = slots.iter().map(|(i, _)| i).sum();
            let total_out: u64 = slots.iter().map(|(_, o)| o).sum();
            assert_eq!(total_in, 2000);
            assert_eq!(total_out, 500);
            match &baseline {
                None => baseline = Some(slots),
                Some(b) => assert_eq!(&slots, b, "dop {dop}: slots drifted"),
            }
        }
    }

    #[test]
    fn empty_heap_parallel_global_aggregate_yields_one_row() {
        let pager = shared(PlainPager::new());
        let source = MorselSource {
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
            heap: HeapFile::new(),
            pager,
            pred: None,
        };
        let agg = ParallelHashAggregate::new(
            source,
            ExecOptions::with_dop(4),
            vec![],
            vec![],
            vec![AggSpec { func: AggFunc::Count, arg: None, distinct: false, name: "c".into() }],
        );
        let (_, rows) = collect(Box::new(agg)).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    proptest! {
        #[test]
        fn partitioner_covers_every_page_exactly_once(
            num_pages in 0usize..5000,
            morsel_pages in 0usize..130,
        ) {
            let morsels = partition_pages(num_pages, morsel_pages);
            // Concatenated, the morsels are exactly 0..num_pages: no
            // gaps, no overlaps, order preserved.
            let mut covered = Vec::with_capacity(num_pages);
            for m in &morsels {
                prop_assert!(m.start < m.end, "empty morsel {m:?}");
                prop_assert!(m.end - m.start <= morsel_pages.max(1));
                covered.extend(m.start..m.end);
            }
            prop_assert_eq!(covered, (0..num_pages).collect::<Vec<_>>());
        }
    }
}
