//! The `Database` façade: SQL text in, rows out.

use crate::ast::{SelectStmt, Statement};
use crate::catalog::Catalog;
use crate::exec::collect;
use crate::expr::eval;
use crate::heap::{shared, SharedPager};
use crate::exec::ExecOptions;
use crate::parser::parse;
use crate::plan::{plan_select, plan_select_with};
use crate::schema::{Column, Row, Schema};
use crate::value::Value;
use crate::{Result, SqlError};
use ironsafe_storage::pager::{Pager, PagerStats};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows from a `SELECT`.
    Rows {
        /// Output schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Row>,
    },
    /// Row count from DML.
    Count(u64),
    /// DDL acknowledged.
    Ok,
}

impl QueryResult {
    /// The rows (empty for non-SELECT results).
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// The output schema (empty for non-SELECT results).
    pub fn schema(&self) -> Schema {
        match self {
            QueryResult::Rows { schema, .. } => schema.clone(),
            _ => Schema::default(),
        }
    }
}

/// A single-node database over a pluggable pager.
pub struct Database {
    pager: SharedPager,
    catalog: Catalog,
    /// Pages holding the persisted catalog (page 0 chain).
    catalog_chain: Vec<ironsafe_storage::pager::PageId>,
}

impl Database {
    /// Create a database over `pager`.
    pub fn new<P: Pager + Send + 'static>(pager: P) -> Self {
        Database { pager: shared(pager), catalog: Catalog::new(), catalog_chain: Vec::new() }
    }

    /// Create over an already-shared pager.
    pub fn with_shared(pager: SharedPager) -> Self {
        Database { pager, catalog: Catalog::new(), catalog_chain: Vec::new() }
    }

    /// Reopen a database from a pager holding a checkpointed catalog
    /// (page 0 chain) — the reboot path: open the secure pager from the
    /// medium (verifying freshness), then rebuild the catalog from it.
    pub fn open<P: Pager + Send + 'static>(pager: P) -> Result<Self> {
        Self::open_shared(shared(pager))
    }

    /// [`Database::open`] over an already-shared pager.
    pub fn open_shared(pager: SharedPager) -> Result<Self> {
        let (bytes, chain) = crate::meta::read_chain(&pager)?;
        let catalog = crate::meta::decode_catalog(&bytes)?;
        Ok(Database { pager, catalog, catalog_chain: chain })
    }

    /// Assemble a database from an existing catalog and pager without
    /// touching storage.
    ///
    /// This is the read-view constructor used by the serving layer: the
    /// catalog is a clone of a live database's catalog and the pager is a
    /// copy-on-write view over that database's pages, so query execution
    /// (including temporary tables) proceeds without mutating the shared
    /// store. The catalog chain starts empty — a view that checkpoints
    /// writes a fresh chain into its own overlay.
    pub fn from_parts(pager: SharedPager, catalog: Catalog) -> Self {
        Database { pager, catalog, catalog_chain: Vec::new() }
    }

    /// Persist the catalog into the page-0 chain and commit the pager
    /// (flushing the freshness root to RPMB under the secure pager).
    ///
    /// Must be called at least once before the first data page is
    /// allocated — [`Database::new`] + `checkpoint()` reserves page 0.
    pub fn checkpoint(&mut self) -> Result<()> {
        let bytes = crate::meta::encode_catalog(&self.catalog);
        self.catalog_chain = crate::meta::write_chain(&self.pager, &self.catalog_chain, &bytes)?;
        self.pager.lock().commit()?;
        Ok(())
    }

    /// The shared pager handle.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// Pager I/O + crypto counters.
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.lock().stats()
    }

    /// Zero pager counters.
    pub fn reset_pager_stats(&self) {
        self.pager.lock().reset_stats()
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute a script; returns the result of the *last* statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmts = parse(sql)?;
        if stmts.is_empty() {
            return Err(SqlError::Parse("empty statement".into()));
        }
        let mut last = QueryResult::Ok;
        for stmt in stmts {
            last = self.execute_statement(&stmt)?;
        }
        Ok(last)
    }

    /// Execute one parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(columns.iter().map(|(n, t)| Column::new(n.clone(), *t)).collect());
                self.catalog.create_table(name, schema)?;
                Ok(QueryResult::Ok)
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                Ok(QueryResult::Ok)
            }
            Statement::Insert { table, columns, values } => self.insert(table, columns.as_deref(), values),
            Statement::Select(sel) => self.select(sel),
            Statement::Update { table, sets, where_clause } => self.update(table, sets, where_clause.as_ref()),
            Statement::Delete { table, where_clause } => self.delete(table, where_clause.as_ref()),
        }
    }

    /// Render a `SELECT`'s physical plan without executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = crate::parser::parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => {
                let op = plan_select(&self.catalog, &self.pager, &sel)?;
                Ok(crate::exec::explain(&op))
            }
            other => Ok(format!("{other:?}\n")),
        }
    }

    /// Execute a `SELECT` and render its physical plan annotated with the
    /// per-operator row counts observed during execution (`EXPLAIN
    /// ANALYZE`). Unlike [`Database::explain`], this runs the query.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let stmt = crate::parser::parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => {
                let mut op = plan_select(&self.catalog, &self.pager, &sel)?;
                while op.next()?.is_some() {}
                Ok(crate::exec::explain_analyze(&op))
            }
            other => Ok(format!("{other:?}\n")),
        }
    }

    /// Attach the pager's live telemetry counters to `registry`.
    pub fn register_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.pager.lock().register_metrics(registry);
    }

    /// Run a `SELECT`.
    pub fn select(&mut self, stmt: &SelectStmt) -> Result<QueryResult> {
        let op = plan_select(&self.catalog, &self.pager, stmt)?;
        let (schema, rows) = collect(op)?;
        Ok(QueryResult::Rows { schema, rows })
    }

    /// Run a `SELECT` under explicit execution options (DOP, morsel
    /// size). Rows and pager-stats deltas are bit-identical to
    /// [`Database::select`] at any DOP; parallelism only buys wall-clock.
    pub fn select_with(&mut self, stmt: &SelectStmt, opts: &ExecOptions) -> Result<QueryResult> {
        let op = plan_select_with(&self.catalog, &self.pager, stmt, opts)?;
        let (schema, rows) = collect(op)?;
        Ok(QueryResult::Rows { schema, rows })
    }

    /// [`Database::select_with`] that additionally captures per-operator
    /// [`crate::exec::OperatorProfile`]s from the drained plan (rows
    /// in/out per operator, preorder). The rows, stats deltas, and plan
    /// are identical to `select_with` — profiling observes the same
    /// execution, it never changes it.
    pub fn select_with_profile(
        &mut self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
    ) -> Result<(QueryResult, Vec<crate::exec::OperatorProfile>)> {
        let mut op = plan_select_with(&self.catalog, &self.pager, stmt, opts)?;
        let schema = op.schema().clone();
        let mut rows = Vec::new();
        while let Some(r) = op.next()? {
            rows.push(r);
        }
        let profiles = crate::exec::operator_profiles(&op);
        Ok((QueryResult::Rows { schema, rows }, profiles))
    }

    /// [`Database::execute_statement`] under explicit execution options.
    /// Only `SELECT` is affected; DML/DDL always run serially.
    pub fn execute_statement_with(
        &mut self,
        stmt: &Statement,
        opts: &ExecOptions,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Select(sel) => self.select_with(sel, opts),
            other => self.execute_statement(other),
        }
    }

    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        values: &[Vec<crate::ast::Expr>],
    ) -> Result<QueryResult> {
        let info = self.catalog.table(table)?;
        let schema = info.schema.clone();
        // Map provided columns to schema positions.
        let positions: Vec<usize> = match columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols.iter().map(|c| schema.resolve(c)).collect::<Result<_>>()?,
        };
        let empty = Schema::default();
        let mut rows = Vec::with_capacity(values.len());
        for value_exprs in values {
            if value_exprs.len() != positions.len() {
                return Err(SqlError::Plan(format!(
                    "INSERT has {} values for {} columns",
                    value_exprs.len(),
                    positions.len()
                )));
            }
            let mut row = vec![Value::Null; schema.len()];
            for (expr, &pos) in value_exprs.iter().zip(positions.iter()) {
                row[pos] = eval(expr, &empty, &Vec::new())?;
            }
            rows.push(row);
        }
        let n = rows.len() as u64;
        let info = self.catalog.table_mut(table)?;
        info.heap.append_rows(&self.pager, rows)?;
        self.pager.lock().commit()?;
        Ok(QueryResult::Count(n))
    }

    /// Bulk-insert pre-built rows (bypasses SQL parsing; used by loaders and
    /// by the CSA host engine when materializing shipped intermediates).
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let info = self.catalog.table_mut(table)?;
        for r in &rows {
            if r.len() != info.schema.len() {
                return Err(SqlError::Plan(format!(
                    "row arity {} does not match table `{}` ({})",
                    r.len(),
                    table,
                    info.schema.len()
                )));
            }
        }
        let n = rows.len() as u64;
        info.heap.append_rows(&self.pager, rows)?;
        self.pager.lock().commit()?;
        Ok(n)
    }

    /// Create a table directly from a schema (no SQL round-trip).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.catalog.create_table(name, schema)
    }

    /// `UPDATE`: page-stable — only pages holding a matching row are
    /// re-encoded and written (see `HeapFile::edit_rows`).
    fn update(
        &mut self,
        table: &str,
        sets: &[(String, crate::ast::Expr)],
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<QueryResult> {
        let info = self.catalog.table_mut(table)?;
        let schema = info.schema.clone();
        let set_positions: Vec<usize> = sets.iter().map(|(c, _)| schema.resolve(c)).collect::<Result<_>>()?;
        let mut changed = 0u64;
        info.heap.edit_rows(&self.pager, schema.len(), |rows| {
            let mut hit_page = false;
            for row in rows.iter_mut() {
                if !matches(where_clause, &schema, row)? {
                    continue;
                }
                // Evaluate all assignments against the *old* row.
                let new_vals =
                    sets.iter().map(|(_, e)| eval(e, &schema, row)).collect::<Result<Vec<_>>>()?;
                for (&pos, v) in set_positions.iter().zip(new_vals) {
                    row[pos] = v;
                }
                changed += 1;
                hit_page = true;
            }
            Ok(hit_page)
        })?;
        self.pager.lock().commit()?;
        Ok(QueryResult::Count(changed))
    }

    /// `DELETE`: page-stable — only pages that held a matching row are
    /// written.
    fn delete(&mut self, table: &str, where_clause: Option<&crate::ast::Expr>) -> Result<QueryResult> {
        let info = self.catalog.table_mut(table)?;
        let schema = info.schema.clone();
        let mut deleted = 0u64;
        info.heap.edit_rows(&self.pager, schema.len(), |rows| {
            let hits = rows
                .iter()
                .map(|row| matches(where_clause, &schema, row))
                .collect::<Result<Vec<_>>>()?;
            let before = rows.len();
            let mut hit = hits.into_iter();
            rows.retain(|_| !hit.next().expect("one verdict per row"));
            let gone = before - rows.len();
            deleted += gone as u64;
            Ok(gone > 0)
        })?;
        self.pager.lock().commit()?;
        Ok(QueryResult::Count(deleted))
    }
}

/// Whether `row` satisfies the optional `WHERE` clause.
fn matches(where_clause: Option<&crate::ast::Expr>, schema: &Schema, row: &Row) -> Result<bool> {
    match where_clause {
        None => Ok(true),
        Some(w) => Ok(eval(w, schema, row)?.is_truthy()),
    }
}

// Re-exported for the partitioner, which manipulates WHERE conjuncts.
pub use crate::plan::{join_conjuncts as and_join, split_conjuncts as and_split};

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_storage::pager::PlainPager;

    fn db() -> Database {
        Database::new(PlainPager::new())
    }

    fn setup_sales(db: &mut Database) {
        db.execute("CREATE TABLE sales (region TEXT, product TEXT, amount FLOAT, qty INT)").unwrap();
        db.execute(
            "INSERT INTO sales VALUES \
             ('east', 'widget', 10.0, 1), \
             ('east', 'gadget', 20.0, 2), \
             ('west', 'widget', 30.0, 3), \
             ('west', 'gadget', 40.0, 4), \
             ('west', 'widget', 50.0, 5)",
        )
        .unwrap();
    }

    #[test]
    fn create_insert_select_star() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT * FROM sales").unwrap();
        assert_eq!(r.rows().len(), 5);
        assert_eq!(r.schema().columns[0].name, "region");
    }

    #[test]
    fn filter_and_project() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT product, amount FROM sales WHERE region = 'west' AND amount > 30").unwrap();
        assert_eq!(r.rows().len(), 2);
    }

    #[test]
    fn global_aggregate() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT COUNT(*), SUM(amount), AVG(qty), MIN(amount), MAX(amount) FROM sales").unwrap();
        let row = &r.rows()[0];
        assert_eq!(row[0], Value::Int(5));
        assert_eq!(row[1], Value::Float(150.0));
        assert_eq!(row[2], Value::Float(3.0));
        assert_eq!(row[3], Value::Float(10.0));
        assert_eq!(row[4], Value::Float(50.0));
    }

    #[test]
    fn group_by_having_order_limit() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db
            .execute(
                "SELECT region, SUM(amount) AS total FROM sales \
                 GROUP BY region HAVING SUM(amount) > 20 \
                 ORDER BY total DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "west");
        assert_eq!(r.rows()[0][1], Value::Float(120.0));
    }

    #[test]
    fn group_by_expression_key() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db
            .execute("SELECT qty % 2, COUNT(*) FROM sales GROUP BY qty % 2 ORDER BY qty % 2")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][1], Value::Int(2)); // qty 2, 4
        assert_eq!(r.rows()[1][1], Value::Int(3)); // qty 1, 3, 5
    }

    #[test]
    fn join_two_tables() {
        let mut db = db();
        db.execute("CREATE TABLE emp (e_id INT, e_name TEXT, e_dept INT)").unwrap();
        db.execute("CREATE TABLE dept (d_id INT, d_name TEXT)").unwrap();
        db.execute("INSERT INTO emp VALUES (1, 'ann', 10), (2, 'bob', 20), (3, 'cid', 10)").unwrap();
        db.execute("INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')").unwrap();
        let r = db
            .execute(
                "SELECT d_name, COUNT(*) AS n FROM emp, dept \
                 WHERE e_dept = d_id GROUP BY d_name ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "eng");
        assert_eq!(r.rows()[0][1], Value::Int(2));
    }

    #[test]
    fn three_way_join() {
        let mut db = db();
        db.execute("CREATE TABLE a (a_id INT, a_b INT)").unwrap();
        db.execute("CREATE TABLE b (b_id INT, b_c INT)").unwrap();
        db.execute("CREATE TABLE c (c_id INT, c_name TEXT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 1), (2, 2)").unwrap();
        db.execute("INSERT INTO b VALUES (1, 100), (2, 200)").unwrap();
        db.execute("INSERT INTO c VALUES (100, 'x'), (200, 'y')").unwrap();
        let r = db
            .execute("SELECT a_id, c_name FROM a, b, c WHERE a_b = b_id AND b_c = c_id ORDER BY a_id")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][1].as_str().unwrap(), "x");
        assert_eq!(r.rows()[1][1].as_str().unwrap(), "y");
    }

    #[test]
    fn update_and_delete() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("UPDATE sales SET amount = amount * 2 WHERE region = 'east'").unwrap();
        assert_eq!(r, QueryResult::Count(2));
        let r = db.execute("SELECT SUM(amount) FROM sales").unwrap();
        assert_eq!(r.rows()[0][0], Value::Float(180.0));

        let r = db.execute("DELETE FROM sales WHERE qty >= 4").unwrap();
        assert_eq!(r, QueryResult::Count(2));
        let r = db.execute("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
    }

    /// Page-stable UPDATE/DELETE leave exactly the rows, in exactly the
    /// order, that rewriting the whole table would: checked against an
    /// in-memory reference after every statement of a seeded mix that
    /// grows, shrinks, deletes and appends rows across many pages.
    #[test]
    fn page_stable_dml_matches_full_rewrite_reference() {
        use rand::{Rng, SeedableRng};
        let mut db = db();
        db.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
        let mut model: Vec<Row> = (0..300)
            .map(|k| vec![Value::Int(k), Value::Text("p".repeat((k as usize % 40) * 10))])
            .collect();
        db.insert_rows("t", model.clone()).unwrap();
        assert!(db.catalog().table("t").unwrap().heap.page_count() > 5);
        let in_range = |r: &Row, lo: i64, hi: i64| matches!(r[0], Value::Int(k) if k >= lo && k < hi);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for step in 0..80i64 {
            let lo = rng.gen_range(0..320i64);
            let hi = lo + rng.gen_range(0..25i64);
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let pad = "q".repeat(rng.gen_range(0..1200usize));
                    let sql = format!("UPDATE t SET pad = '{pad}' WHERE k >= {lo} AND k < {hi}");
                    let n = db.execute(&sql).unwrap();
                    let mut hits = 0;
                    for r in model.iter_mut().filter(|r| in_range(r, lo, hi)) {
                        r[1] = Value::Text(pad.clone());
                        hits += 1;
                    }
                    assert_eq!(n, QueryResult::Count(hits));
                }
                2 => {
                    let n = db.execute(&format!("DELETE FROM t WHERE k >= {lo} AND k < {hi}")).unwrap();
                    let before = model.len();
                    model.retain(|r| !in_range(r, lo, hi));
                    assert_eq!(n, QueryResult::Count((before - model.len()) as u64));
                }
                _ => {
                    let k = 1000 + step;
                    db.execute(&format!("INSERT INTO t VALUES ({k}, 'new')")).unwrap();
                    model.push(vec![Value::Int(k), Value::Text("new".into())]);
                }
            }
            let heap = &db.catalog().table("t").unwrap().heap;
            assert_eq!(heap.all_rows(db.pager(), 2).unwrap(), model, "rows after step {step}");
            assert_eq!(heap.row_count, model.len() as u64);
            let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
            assert_eq!(r.rows()[0][0], Value::Int(model.len() as i64));
        }
    }

    #[test]
    fn dml_touches_only_pages_with_matching_rows() {
        let mut db = db();
        db.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
        let rows: Vec<Row> = (0..200).map(|k| vec![Value::Int(k), Value::Text("p".repeat(300))]).collect();
        db.insert_rows("t", rows).unwrap();
        let pages = db.catalog().table("t").unwrap().heap.page_count();
        assert!(pages > 10);

        let writes = db.pager_stats().page_writes;
        db.execute("UPDATE t SET pad = 'short' WHERE k = 77").unwrap();
        assert_eq!(db.pager_stats().page_writes - writes, 1, "one-row UPDATE writes one page");

        let writes = db.pager_stats().page_writes;
        assert_eq!(db.execute("UPDATE t SET pad = 'x' WHERE k = 9999").unwrap(), QueryResult::Count(0));
        assert_eq!(db.pager_stats().page_writes, writes, "no match, no write");

        // Rows 0 and 199 live on the first and last page.
        let writes = db.pager_stats().page_writes;
        db.execute("DELETE FROM t WHERE k = 0 OR k = 199").unwrap();
        assert_eq!(db.pager_stats().page_writes - writes, 2, "DELETE writes the two holding pages");
        assert_eq!(db.catalog().table("t").unwrap().heap.page_count(), pages);
    }

    #[test]
    fn case_expression_in_projection() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db
            .execute(
                "SELECT SUM(CASE WHEN region = 'east' THEN amount ELSE 0 END) AS east_total FROM sales",
            )
            .unwrap();
        assert_eq!(r.rows()[0][0], Value::Float(30.0));
    }

    #[test]
    fn like_and_in_filters() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT COUNT(*) FROM sales WHERE product LIKE 'wid%'").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
        let r = db.execute("SELECT COUNT(*) FROM sales WHERE qty IN (1, 3, 5)").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn insert_with_column_subset() {
        let mut db = db();
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)").unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let r = db.execute("SELECT a, b, c FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(7));
        assert!(r.rows()[0][1].is_null());
        assert_eq!(r.rows()[0][2], Value::Float(1.5));
    }

    #[test]
    fn errors_are_reported() {
        let mut db = db();
        assert!(matches!(db.execute("SELECT * FROM ghost"), Err(SqlError::Plan(_))));
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(matches!(db.execute("SELECT nope FROM t"), Err(SqlError::Plan(_))));
        assert!(matches!(db.execute("INSERT INTO t VALUES (1, 2)"), Err(SqlError::Plan(_))));
    }

    #[test]
    fn select_without_from() {
        let mut db = db();
        let r = db.execute("SELECT 1 + 2 AS three, 'x'").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
        assert_eq!(r.schema().columns[0].name, "three");
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT product FROM sales ORDER BY amount DESC LIMIT 1").unwrap();
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "widget"); // amount 50
    }

    #[test]
    fn works_end_to_end_on_secure_pager() {
        use ironsafe_crypto::group::Group;
        use ironsafe_storage::SecurePager;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dev = mfr.make_device("db-dev", 8, &mut rng);
        let mut db = Database::new(SecurePager::create(dev, 9).unwrap());
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
        let r = db.execute("SELECT b FROM t WHERE a >= 2 ORDER BY a DESC").unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "z");
        let stats = db.pager_stats();
        assert!(stats.decrypts > 0, "reads went through the secure path");
        assert!(stats.merkle_nodes > 0, "freshness was verified");
    }

    #[test]
    fn parallel_select_matches_serial_for_scans_joins_and_aggs() {
        let mut db = db();
        db.execute("CREATE TABLE big (k INT, grp TEXT, v FLOAT)").unwrap();
        let values: Vec<String> =
            (0..800).map(|i| format!("({i}, 'g{}', {}.5)", i % 5, i % 13)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
        db.execute("CREATE TABLE names (g TEXT, label TEXT)").unwrap();
        db.execute(
            "INSERT INTO names VALUES ('g0','zero'),('g1','one'),('g2','two'),('g3','three'),('g4','four')",
        )
        .unwrap();
        let queries = [
            "SELECT k, v FROM big WHERE v > 6 AND k % 7 = 1",
            "SELECT grp, COUNT(*), SUM(v * 0.9), AVG(v) FROM big WHERE k < 700 GROUP BY grp ORDER BY grp",
            "SELECT label, SUM(v) AS s FROM big, names WHERE grp = g GROUP BY label ORDER BY s DESC",
            "SELECT k FROM big WHERE k % 100 = 3 ORDER BY v DESC, k",
            "SELECT k FROM big ORDER BY k LIMIT 10", // LIMIT plans stay serial
        ];
        let opts = ExecOptions { oversubscribe: true, ..ExecOptions::with_dop(4) };
        for q in queries {
            let stmt = crate::parser::parse_statement(q).unwrap();
            let sel = match &stmt {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
            db.reset_pager_stats();
            let serial = db.select(sel).unwrap();
            let serial_stats = db.pager_stats();
            db.reset_pager_stats();
            let parallel = db.select_with(sel, &opts).unwrap();
            let parallel_stats = db.pager_stats();
            assert_eq!(parallel, serial, "rows diverged for {q}");
            assert_eq!(parallel_stats, serial_stats, "stats diverged for {q}");
        }
    }

    #[test]
    fn dml_arity_checked_in_insert_rows() {
        let mut db = db();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        assert!(db.insert_rows("t", vec![vec![Value::Int(1)]]).is_err());
        assert_eq!(db.insert_rows("t", vec![vec![Value::Int(1), Value::Int(2)]]).unwrap(), 1);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use ironsafe_storage::pager::PlainPager;
    use ironsafe_storage::SecurePager;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn checkpoint_and_reopen_plain() {
        let pager: Arc<Mutex<PlainPager>> = Arc::new(Mutex::new(PlainPager::new()));
        let shared: crate::heap::SharedPager = pager.clone();
        let mut db = Database::with_shared(shared.clone());
        db.checkpoint().unwrap(); // reserve page 0 before any data
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        db.checkpoint().unwrap();
        drop(db);

        let mut db = Database::open_shared(shared).unwrap();
        let r = db.execute("SELECT b FROM t WHERE a = 2").unwrap();
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "y");
    }

    #[test]
    fn uncheckpointed_ddl_is_lost_on_reopen() {
        let pager: Arc<Mutex<PlainPager>> = Arc::new(Mutex::new(PlainPager::new()));
        let shared: crate::heap::SharedPager = pager.clone();
        let mut db = Database::with_shared(shared.clone());
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE later (b INT)").unwrap(); // not checkpointed
        drop(db);
        let db = Database::open_shared(shared).unwrap();
        assert!(db.catalog().has_table("t"));
        assert!(!db.catalog().has_table("later"));
    }

    #[test]
    fn full_reboot_cycle_over_secure_pager() {
        use ironsafe_crypto::group::Group;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"persist");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let device = mfr.make_device("p0", 8, &mut rng);

        let pager = Arc::new(Mutex::new(SecurePager::create(device, 1).unwrap()));
        let mut db = Database::with_shared(pager.clone());
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let values: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        db.checkpoint().unwrap();
        drop(db);

        // Power off: recover the device + medium from the pager.
        let secure = Arc::try_unwrap(pager).ok().expect("sole owner").into_inner();
        let (tz, medium) = secure.into_parts();

        // Reboot: reopen through the full freshness check.
        let reopened = SecurePager::open(tz, medium, 2).unwrap();
        let mut db = Database::open(reopened).unwrap();
        let r = db.execute("SELECT COUNT(*), SUM(a) FROM t").unwrap();
        assert_eq!(r.rows()[0][0].as_i64().unwrap(), 500);
        assert_eq!(r.rows()[0][1].as_i64().unwrap(), (0..500).sum::<i64>());
    }

    #[test]
    fn rolled_back_medium_refuses_to_open_at_db_level() {
        use ironsafe_crypto::group::Group;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"persist2");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let device = mfr.make_device("p1", 8, &mut rng);

        let pager = Arc::new(Mutex::new(SecurePager::create(device, 1).unwrap()));
        let mut db = Database::with_shared(pager.clone());
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE audit_trail (entry TEXT)").unwrap();
        db.execute("INSERT INTO audit_trail VALUES ('breach at 03:12')").unwrap();
        db.checkpoint().unwrap();
        let snapshot = pager.lock().device().raw_snapshot();
        // More damning evidence lands and is checkpointed.
        db.execute("INSERT INTO audit_trail VALUES ('exfiltration at 03:14')").unwrap();
        db.checkpoint().unwrap();
        drop(db);

        // The attacker rolls the medium back to hide the second entry.
        let secure = Arc::try_unwrap(pager).ok().expect("sole owner").into_inner();
        let (tz, mut medium) = secure.into_parts();
        medium.raw_restore(snapshot);
        assert!(SecurePager::open(tz, medium, 2).is_err(), "rollback detected at reboot");
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use ironsafe_storage::pager::PlainPager;

    #[test]
    fn explain_shows_the_physical_plan() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("CREATE TABLE u (c INT, d TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        let plan = db
            .explain(
                "SELECT d, COUNT(*) AS n FROM t, u \
                 WHERE a = c AND b LIKE 'x%' GROUP BY d ORDER BY n DESC LIMIT 5",
            )
            .unwrap();
        // Pipeline order: limit over project over sort over aggregate over
        // join over filtered scans.
        assert!(plan.starts_with("Limit: 5"), "{plan}");
        assert!(plan.contains("Project: d, n"), "{plan}");
        assert!(plan.contains("Sort: __agg0 DESC"), "{plan}");
        assert!(plan.contains("HashAggregate"), "{plan}");
        assert!(plan.contains("HashJoin"), "{plan}");
        assert!(plan.contains("Filter: (b LIKE 'x%')"), "{plan}");
        assert!(plan.contains("SeqScan"), "{plan}");
        // Filter sits below the join (pushdown): deeper indentation.
        let join_line = plan.lines().position(|l| l.contains("HashJoin")).unwrap();
        let filter_line = plan.lines().position(|l| l.contains("Filter")).unwrap();
        assert!(filter_line > join_line);
    }

    #[test]
    fn explain_does_not_execute() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.reset_pager_stats();
        let _ = db.explain("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(db.pager_stats().page_reads, 0, "planning reads no pages");
    }

    #[test]
    fn explain_analyze_reports_per_operator_row_counts() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'x')").unwrap();
        let plan = db.explain_analyze("SELECT a FROM t WHERE b = 'x' LIMIT 2").unwrap();
        // Limit passes 2 of the filter's 3 survivors; the scan streams 4.
        let limit = plan.lines().find(|l| l.contains("Limit")).unwrap();
        assert!(limit.contains("out=2"), "{plan}");
        let filter = plan.lines().find(|l| l.contains("Filter")).unwrap();
        assert!(filter.contains("in=4") || filter.contains("in=3"), "{plan}");
        let scan = plan.lines().find(|l| l.contains("SeqScan")).unwrap();
        assert!(scan.contains("rows out="), "{plan}");
        // The plain explain stays untouched by the instrumentation.
        let cold = db.explain("SELECT a FROM t WHERE b = 'x' LIMIT 2").unwrap();
        assert!(!cold.contains("rows out="), "{cold}");
    }
}
