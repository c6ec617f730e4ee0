//! Query partitioning between host and storage.
//!
//! The paper adapts a MySQL-style partitioner with simple heuristics
//! (§5, §8): storage-side fragments are per-table *filter + project*
//! queries (what the weak CPU near the data does well); the host runs the
//! joins, group-bys and aggregations over the shipped, already-filtered
//! intermediates. This module implements exactly that split:
//!
//! * every single-table conjunct of the WHERE clause is pushed to that
//!   table's storage fragment;
//! * each fragment projects only the columns the rest of the query needs;
//! * the host statement keeps the original shape, minus the pushed-down
//!   conjuncts, reading from same-named temp tables.
//!
//! A per-table `decide` callback may decline the pushdown
//! ([`OffloadDecision::ShipPages`]): that table's conjuncts return to the
//! host, and the runner ships its raw pages instead. This is the hook
//! behind cost-based placement — the paper's §8 future work: "a compiler
//! that automatically partitions queries between the host and storage
//! systems".

use ironsafe_sql::ast::{Expr, SelectItem, SelectStmt, TableRef};
use ironsafe_sql::plan::{join_conjuncts, split_conjuncts};
use ironsafe_sql::schema::Schema;

/// A per-table storage-side fragment.
#[derive(Debug, Clone)]
pub struct StorageQuery {
    /// Base table scanned on the storage node.
    pub table: String,
    /// Fragment: `SELECT needed_cols FROM table WHERE pushed_conjuncts`.
    pub stmt: SelectStmt,
    /// Names of the projected columns (the host temp table's schema).
    pub columns: Vec<String>,
    /// How this table's data reaches the host.
    pub mode: OffloadDecision,
}

/// A partitioned query.
#[derive(Debug, Clone)]
pub struct Partition {
    /// One fragment per offloadable base table.
    pub storage: Vec<StorageQuery>,
    /// The statement the host runs over the shipped intermediates.
    pub host: SelectStmt,
}

fn columns_of(stmt: &SelectStmt) -> Vec<String> {
    let mut cols = Vec::new();
    for item in &stmt.projections {
        if let SelectItem::Expr { expr, .. } = item {
            expr.referenced_columns(&mut cols);
        }
    }
    for e in stmt
        .where_clause
        .iter()
        .chain(stmt.group_by.iter())
        .chain(stmt.having.iter())
        .chain(stmt.order_by.iter().map(|(e, _)| e))
    {
        e.referenced_columns(&mut cols);
    }
    cols.sort();
    cols.dedup();
    cols
}

/// Does `schema` own every column referenced by `expr`?
fn fully_resolvable(expr: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    !cols.is_empty() && cols.iter().all(|c| schema.resolve(c).is_ok())
}

/// Partition `stmt`. `lookup` resolves *storage-resident* base tables to
/// their schemas; FROM entries it does not know (e.g. temp tables from an
/// earlier stage) stay host-local. `decide` sees each table's pushdown
/// fragment, in FROM order; tables it answers
/// [`OffloadDecision::ShipPages`] keep their predicates on the host (after
/// the residual conjuncts) and their fragment carries no pushdown.
pub fn partition_select(
    stmt: &SelectStmt,
    lookup: &dyn Fn(&str) -> Option<Schema>,
    decide: &dyn Fn(&str, &SelectStmt) -> OffloadDecision,
) -> Partition {
    let mut conjuncts = Vec::new();
    if let Some(w) = &stmt.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }

    let all_columns = columns_of(stmt);
    let mut storage = Vec::new();
    let mut pushed = vec![false; conjuncts.len()];
    let mut declined: Vec<Expr> = Vec::new();

    for tref in &stmt.from {
        let Some(schema) = lookup(&tref.name) else { continue };
        // Columns of this table the query touches.
        let needed: Vec<String> = all_columns
            .iter()
            .filter(|c| schema.resolve(c).is_ok())
            .map(|c| {
                let idx = schema.resolve(c).expect("checked");
                schema.columns[idx].name.clone()
            })
            .collect();
        let needed = {
            let mut n = needed;
            n.dedup();
            if n.is_empty() {
                // Referenced by nothing (degenerate cross join): ship the
                // first column so row multiplicity is preserved.
                vec![schema.columns[0].name.clone()]
            } else {
                n
            }
        };
        // Conjuncts that live entirely on this table.
        let mut table_preds = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if !pushed[i] && fully_resolvable(c, &schema) {
                table_preds.push(c.clone());
                pushed[i] = true;
            }
        }
        let mut fragment = SelectStmt {
            projections: needed
                .iter()
                .map(|c| SelectItem::Expr { expr: Expr::Column(c.clone()), alias: None })
                .collect(),
            from: vec![TableRef { name: tref.name.clone(), alias: tref.alias.clone() }],
            where_clause: join_conjuncts(table_preds),
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        let mode = decide(&tref.name, &fragment);
        if mode == OffloadDecision::ShipPages {
            // Take the pushed conjuncts back to the host.
            if let Some(w) = fragment.where_clause.take() {
                split_conjuncts(&w, &mut declined);
            }
        }
        storage.push(StorageQuery { table: tref.name.clone(), stmt: fragment, columns: needed, mode });
    }

    // Host statement: original minus pushed-down conjuncts.
    let residual: Vec<Expr> = conjuncts
        .into_iter()
        .zip(pushed.iter())
        .filter(|(_, p)| !**p)
        .map(|(c, _)| c)
        .chain(declined)
        .collect();
    let mut host = stmt.clone();
    host.where_clause = join_conjuncts(residual);
    Partition { storage, host }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_sql::ast::{expr_to_sql, Statement};
    use ironsafe_sql::parser::parse_statement;
    use ironsafe_sql::schema::Column;
    use ironsafe_sql::value::DataType;

    fn lookup(name: &str) -> Option<Schema> {
        match name {
            "lineitem" => Some(Schema::new(vec![
                Column::new("l_orderkey", DataType::Int),
                Column::new("l_quantity", DataType::Float),
                Column::new("l_shipdate", DataType::Text),
                Column::new("l_extendedprice", DataType::Float),
                Column::new("l_comment", DataType::Text),
            ])),
            "orders" => Some(Schema::new(vec![
                Column::new("o_orderkey", DataType::Int),
                Column::new("o_orderdate", DataType::Text),
                Column::new("o_totalprice", DataType::Float),
            ])),
            _ => None,
        }
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    fn offload(_: &str, _: &SelectStmt) -> OffloadDecision {
        OffloadDecision::Offload
    }

    #[test]
    fn single_table_filter_pushed_down() {
        let stmt = select("SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate < '1995-01-01'");
        let p = partition_select(&stmt, &lookup, &offload);
        assert_eq!(p.storage.len(), 1);
        let frag = &p.storage[0];
        assert_eq!(frag.table, "lineitem");
        let w = expr_to_sql(frag.stmt.where_clause.as_ref().unwrap());
        assert!(w.contains("l_shipdate"), "{w}");
        assert!(p.host.where_clause.is_none(), "conjunct fully pushed");
        // Fragment projects only what the query needs.
        assert_eq!(frag.columns, vec!["l_extendedprice", "l_shipdate"]);
    }

    #[test]
    fn join_predicates_stay_on_host() {
        let stmt = select(
            "SELECT o_totalprice FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity > 30 AND o_orderdate < '1996-01-01'",
        );
        let p = partition_select(&stmt, &lookup, &offload);
        assert_eq!(p.storage.len(), 2);
        let li = p.storage.iter().find(|s| s.table == "lineitem").unwrap();
        let w = expr_to_sql(li.stmt.where_clause.as_ref().unwrap());
        assert!(w.contains("l_quantity"), "{w}");
        assert!(!w.contains("o_orderkey"), "join pred not pushed: {w}");
        let host_w = expr_to_sql(p.host.where_clause.as_ref().unwrap());
        assert!(host_w.contains("l_orderkey = o_orderkey") || host_w.contains("(l_orderkey = o_orderkey)"), "{host_w}");
        assert!(!host_w.contains("l_quantity"), "pushed conjunct removed from host: {host_w}");
    }

    #[test]
    fn unknown_tables_stay_host_local() {
        let stmt = select("SELECT o_totalprice FROM temp_results, orders WHERE big_okey = o_orderkey");
        let p = partition_select(&stmt, &lookup, &offload);
        assert_eq!(p.storage.len(), 1);
        assert_eq!(p.storage[0].table, "orders");
    }

    #[test]
    fn no_filter_means_full_shipping_fragment() {
        let stmt = select("SELECT COUNT(*) FROM lineitem GROUP BY l_orderkey");
        let p = partition_select(&stmt, &lookup, &offload);
        let frag = &p.storage[0];
        assert!(frag.stmt.where_clause.is_none());
        assert_eq!(frag.columns, vec!["l_orderkey"]);
    }

    #[test]
    fn or_predicate_on_one_table_is_pushed() {
        let stmt = select("SELECT l_quantity FROM lineitem WHERE l_quantity < 5 OR l_quantity > 45");
        let p = partition_select(&stmt, &lookup, &offload);
        assert!(p.storage[0].stmt.where_clause.is_some());
        assert!(p.host.where_clause.is_none());
    }

    #[test]
    fn fragments_are_valid_sql() {
        let stmt = select(
            "SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_shipdate > '1995-03-15' \
             GROUP BY l_orderkey ORDER BY l_orderkey LIMIT 10",
        );
        let p = partition_select(&stmt, &lookup, &offload);
        for frag in &p.storage {
            // Fragments must be parseable when rendered (they are shipped
            // as SQL text to the storage engine).
            let sql = crate::partition::render_select(&frag.stmt);
            parse_statement(&sql).unwrap_or_else(|e| panic!("fragment `{sql}`: {e}"));
        }
        let host_sql = crate::partition::render_select(&p.host);
        parse_statement(&host_sql).unwrap();
    }
}

/// Render a `SelectStmt` back to SQL text (what actually crosses the wire
/// to the storage engine).
pub fn render_select(stmt: &SelectStmt) -> String {
    use ironsafe_sql::ast::expr_to_sql;
    let mut sql = String::from("SELECT ");
    let projs: Vec<String> = stmt
        .projections
        .iter()
        .map(|p| match p {
            SelectItem::Star => "*".to_string(),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => format!("{} AS {a}", expr_to_sql(expr)),
                None => expr_to_sql(expr),
            },
        })
        .collect();
    sql.push_str(&projs.join(", "));
    if !stmt.from.is_empty() {
        sql.push_str(" FROM ");
        let tables: Vec<String> = stmt
            .from
            .iter()
            .map(|t| if t.alias != t.name { format!("{} {}", t.name, t.alias) } else { t.name.clone() })
            .collect();
        sql.push_str(&tables.join(", "));
    }
    if let Some(w) = &stmt.where_clause {
        sql.push_str(" WHERE ");
        sql.push_str(&expr_to_sql(w));
    }
    if !stmt.group_by.is_empty() {
        sql.push_str(" GROUP BY ");
        let keys: Vec<String> = stmt.group_by.iter().map(expr_to_sql).collect();
        sql.push_str(&keys.join(", "));
    }
    if let Some(h) = &stmt.having {
        sql.push_str(" HAVING ");
        sql.push_str(&expr_to_sql(h));
    }
    if !stmt.order_by.is_empty() {
        sql.push_str(" ORDER BY ");
        let keys: Vec<String> = stmt
            .order_by
            .iter()
            .map(|(e, desc)| format!("{}{}", expr_to_sql(e), if *desc { " DESC" } else { "" }))
            .collect();
        sql.push_str(&keys.join(", "));
    }
    if let Some(n) = stmt.limit {
        sql.push_str(&format!(" LIMIT {n}"));
    }
    sql
}

/// Per-table offload decision for [`partition_select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadDecision {
    /// Push the table's filters + projection to the storage engine.
    Offload,
    /// Ship the table's raw pages; the host applies the filters.
    ShipPages,
}

#[cfg(test)]
mod strategic_tests {
    use super::*;
    use ironsafe_sql::ast::{expr_to_sql, Statement};
    use ironsafe_sql::parser::parse_statement;
    use ironsafe_sql::schema::Column;
    use ironsafe_sql::value::DataType;

    fn lookup(name: &str) -> Option<Schema> {
        match name {
            "lineitem" => Some(Schema::new(vec![
                Column::new("l_orderkey", DataType::Int),
                Column::new("l_quantity", DataType::Float),
            ])),
            "orders" => Some(Schema::new(vec![
                Column::new("o_orderkey", DataType::Int),
                Column::new("o_comment", DataType::Text),
            ])),
            _ => None,
        }
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn declined_tables_keep_predicates_on_host() {
        let stmt = select(
            "SELECT COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity < 10 AND o_comment LIKE '%x%'",
        );
        let p = partition_select(&stmt, &lookup, &|table, _| {
            if table == "orders" {
                OffloadDecision::ShipPages // weak filter: don't push
            } else {
                OffloadDecision::Offload
            }
        });
        let li = p.storage.iter().find(|s| s.table == "lineitem").unwrap();
        assert!(li.stmt.where_clause.is_some(), "lineitem filter pushed");
        let ord = p.storage.iter().find(|s| s.table == "orders").unwrap();
        assert!(ord.stmt.where_clause.is_none(), "orders filter withdrawn");
        let host_w = expr_to_sql(p.host.where_clause.as_ref().unwrap());
        assert!(host_w.contains("o_comment"), "declined predicate back on host: {host_w}");
        assert!(!host_w.contains("l_quantity"), "offloaded predicate stays pushed: {host_w}");
    }

    #[test]
    fn all_offload_matches_static_partitioner() {
        // Offloading every table is the paper's static heuristic: each
        // single-table conjunct is pushed, the host keeps only the join.
        let stmt = select(
            "SELECT COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity < 10 AND o_comment LIKE '%x%'",
        );
        let p = partition_select(&stmt, &lookup, &|_, _| OffloadDecision::Offload);
        for frag in &p.storage {
            assert_eq!(frag.mode, OffloadDecision::Offload, "{}", frag.table);
            assert!(frag.stmt.where_clause.is_some(), "{} filter pushed", frag.table);
        }
        let host_w = expr_to_sql(p.host.where_clause.as_ref().unwrap());
        assert!(host_w.contains("l_orderkey = o_orderkey"), "{host_w}");
        assert!(!host_w.contains("l_quantity") && !host_w.contains("o_comment"), "{host_w}");
    }
}
