//! AST → QGM translation.
//!
//! * Views (from the catalog) are expanded into shared boxes — a view
//!   referenced twice becomes a common subexpression, exactly as §2
//!   describes. Recursive views produce cycles.
//! * A block with GROUP BY becomes the paper's *group-by triplet*:
//!   a select box (FROM/WHERE), a group-by box, and a select box for
//!   HAVING and the final projection.
//! * Subqueries become boxes referenced by `E`/`A`/`Scalar`
//!   quantifiers; `IN`/`ANY`/`ALL`/`EXISTS` become
//!   [`ScalarExpr::Quantified`] tests, scalar subqueries become plain
//!   column references over a `Scalar` quantifier.

use std::collections::BTreeMap;

use starmagic_catalog::Catalog;
use starmagic_common::{Error, Result, Value};
use starmagic_sql::{self as sql, BinOp, Query, SelectBlock, SelectItem, SetExpr, TableRef};

use crate::boxes::{
    AggSpec, BoxFlavor, BoxKind, DistinctMode, GroupByBox, OuterJoinBox, OutputCol, QuantKind,
    SetOpBox,
};
use crate::expr::{QuantMode, ScalarExpr};
use crate::graph::Qgm;
use crate::ids::{BoxId, QuantId};
use crate::strata;

/// Build a query graph for `query` against `catalog`. The returned
/// graph is validated and stratified; the top box is named `QUERY`.
pub fn build_qgm(catalog: &Catalog, query: &Query) -> Result<Qgm> {
    let mut b = Builder {
        catalog,
        qgm: Qgm::new(),
        base_boxes: BTreeMap::new(),
        view_boxes: BTreeMap::new(),
        next_tmp: 1,
    };
    let scope = Scope::root();
    let top = b.build_query(query, &scope)?;
    b.qgm.set_top(top);
    b.qgm.boxed_mut(top).name = "QUERY".into();
    b.qgm.garbage_collect(false);
    b.qgm.validate()?;
    strata::validate_stratification(&b.qgm)?;
    strata::assign(&mut b.qgm);
    Ok(b.qgm)
}

/// One FROM binding: an alias naming (a column range of) a quantifier.
/// Plain table references cover the quantifier's whole output
/// (`range == None`); the sides of a join cover slices of the join
/// box's output.
#[derive(Debug, Clone)]
struct ScopeBinding {
    name: String,
    quant: QuantId,
    /// (start, len) within the quantifier's input box output columns.
    range: Option<(usize, usize)>,
}

/// Name-resolution scope: FROM bindings of the current block, chained
/// to the enclosing block's scope for correlation.
struct Scope<'a> {
    bindings: Vec<ScopeBinding>,
    parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    fn root() -> Scope<'static> {
        Scope {
            bindings: Vec::new(),
            parent: None,
        }
    }

    fn child(&'a self) -> Scope<'a> {
        Scope {
            bindings: Vec::new(),
            parent: Some(self),
        }
    }
}

struct Builder<'a> {
    catalog: &'a Catalog,
    qgm: Qgm,
    /// table name → base-table box (shared).
    base_boxes: BTreeMap<String, BoxId>,
    /// view name → expanded box (shared; registered before the body is
    /// populated so that recursive views can reference themselves).
    view_boxes: BTreeMap<String, BoxId>,
    next_tmp: u32,
}

impl<'a> Builder<'a> {
    fn tmp_name(&mut self) -> String {
        let n = self.next_tmp;
        self.next_tmp += 1;
        format!("T{n}")
    }

    // ---- table references --------------------------------------------

    fn base_table_box(&mut self, table: &str) -> Result<BoxId> {
        let lname = table.to_ascii_lowercase();
        if let Some(&b) = self.base_boxes.get(&lname) {
            return Ok(b);
        }
        let t = self.catalog.table(&lname)?;
        let id = self.qgm.add_box(
            lname.to_uppercase(),
            BoxKind::BaseTable {
                table: lname.clone(),
            },
        );
        self.qgm.boxed_mut(id).columns = t
            .schema()
            .columns
            .iter()
            .map(|c| OutputCol {
                name: c.name.clone(),
                expr: ScalarExpr::Literal(Value::Null),
            })
            .collect();
        // A stored table is trivially duplicate-free when it has a key.
        if t.schema().key.is_some() {
            self.qgm.boxed_mut(id).distinct = DistinctMode::Permit;
        }
        self.base_boxes.insert(lname, id);
        Ok(id)
    }

    /// Resolve a FROM-clause name: a base table, or a view expanded
    /// into boxes (memoized).
    fn named_box(&mut self, name: &str) -> Result<BoxId> {
        let lname = name.to_ascii_lowercase();
        if let Some(&b) = self.view_boxes.get(&lname) {
            return Ok(b);
        }
        if self.catalog.is_table(&lname) {
            return self.base_table_box(&lname);
        }
        let catalog = self.catalog;
        let view = catalog
            .view(&lname)
            .ok_or_else(|| Error::NotFound(format!("table or view {name}")))?;
        let body = &*view.body;
        // Pre-create the shell box so self references (recursion) work.
        let shell = match &body.body {
            SetExpr::Select(_) => self.qgm.add_box(lname.to_uppercase(), BoxKind::Select),
            SetExpr::SetOp { op, all, .. } => self.qgm.add_box(
                lname.to_uppercase(),
                BoxKind::SetOp(SetOpBox { op: *op, all: *all }),
            ),
        };
        self.view_boxes.insert(lname.clone(), shell);
        // Pre-populate the shell's output columns from the declared
        // column list so a recursive body can resolve references to the
        // view itself before the body is finished.
        if view.recursive && view.columns.is_empty() {
            return Err(Error::semantic(format!(
                "recursive view {name} must declare its column list"
            )));
        }
        if !view.columns.is_empty() {
            self.qgm.boxed_mut(shell).columns = view
                .columns
                .iter()
                .map(|c| OutputCol {
                    name: c.clone(),
                    expr: ScalarExpr::Literal(Value::Null),
                })
                .collect();
        }
        let scope = Scope::root(); // views are closed: no correlation out
        match &body.body {
            SetExpr::Select(block) => self.build_block_into(shell, block, &scope)?,
            SetExpr::SetOp {
                op: _,
                all: _,
                left,
                right,
            } => self.build_setop_into(shell, left, right, &scope)?,
        }
        // Rename output columns to the declared view columns.
        if !view.columns.is_empty() {
            let arity = self.qgm.boxed(shell).arity();
            if view.columns.len() != arity {
                return Err(Error::semantic(format!(
                    "view {name} declares {} columns but its body produces {arity}",
                    view.columns.len()
                )));
            }
            let b = self.qgm.boxed_mut(shell);
            for (col, new_name) in b.columns.iter_mut().zip(&view.columns) {
                col.name = new_name.clone();
            }
        }
        // A recursive view shaped as base UNION step is a fixpoint
        // driver, same as a WITH RECURSIVE CTE.
        if self.closes_cycle(shell) {
            if let BoxKind::SetOp(s) = &self.qgm.boxed(shell).kind {
                if s.op == sql::SetOpKind::Union {
                    self.qgm.boxed_mut(shell).flavor = BoxFlavor::Recursive;
                }
            }
        }
        Ok(shell)
    }

    // ---- queries and common table expressions -------------------------

    /// Build a full query: register its WITH-clause CTEs (scoped to
    /// this query — shadowed names are restored afterwards), then build
    /// the body. CTE bodies are closed like view bodies: they never
    /// correlate to the enclosing query.
    fn build_query(&mut self, query: &Query, scope: &Scope<'_>) -> Result<BoxId> {
        let Some(with) = &query.with else {
            return self.build_setexpr(&query.body, scope);
        };
        // Remember what each CTE name shadowed so nested WITH scopes
        // restore cleanly.
        let shadowed: Vec<(String, Option<BoxId>)> = with
            .ctes
            .iter()
            .map(|cte| {
                let lname = cte.name.to_ascii_lowercase();
                let prev = self.view_boxes.get(&lname).copied();
                (lname, prev)
            })
            .collect();
        let built = self
            .build_with(with)
            .and_then(|()| self.build_setexpr(&query.body, scope));
        for (lname, prev) in shadowed {
            match prev {
                Some(b) => {
                    self.view_boxes.insert(lname, b);
                }
                None => {
                    self.view_boxes.remove(&lname);
                }
            }
        }
        built
    }

    /// Register and build the CTEs of one WITH clause. On entry the
    /// names are unbound (caller saved any shadowed entries).
    fn build_with(&mut self, with: &sql::With) -> Result<()> {
        if !with.recursive {
            // Non-recursive CTEs bind left to right; each body may
            // reference the ones before it but not itself.
            for cte in &with.ctes {
                let lname = cte.name.to_ascii_lowercase();
                self.view_boxes.remove(&lname);
                let scope = Scope::root(); // CTE bodies are closed
                let b = self.build_query(&cte.query, &scope)?;
                self.rename_cte_columns(b, &cte.name, &cte.columns)?;
                self.qgm.boxed_mut(b).name = lname.to_uppercase();
                self.view_boxes.insert(lname, b);
            }
            return Ok(());
        }
        // WITH RECURSIVE: pre-create every shell first so bodies can
        // reference any sibling (mutual recursion), then build the
        // bodies in declaration order.
        let mut shells: Vec<BoxId> = Vec::new();
        for cte in &with.ctes {
            let lname = cte.name.to_ascii_lowercase();
            if cte.columns.is_empty() {
                return Err(Error::semantic(format!(
                    "recursive CTE {} must declare its column list",
                    cte.name
                )));
            }
            if cte.query.with.is_some() {
                return Err(Error::semantic(format!(
                    "recursive CTE {} must not nest another WITH clause",
                    cte.name
                )));
            }
            let shell = match &cte.query.body {
                SetExpr::Select(_) => self.qgm.add_box(lname.to_uppercase(), BoxKind::Select),
                SetExpr::SetOp { op, all, .. } => self.qgm.add_box(
                    lname.to_uppercase(),
                    BoxKind::SetOp(SetOpBox { op: *op, all: *all }),
                ),
            };
            self.qgm.boxed_mut(shell).columns = cte
                .columns
                .iter()
                .map(|c| OutputCol {
                    name: c.clone(),
                    expr: ScalarExpr::Literal(Value::Null),
                })
                .collect();
            self.view_boxes.insert(lname, shell);
            shells.push(shell);
        }
        for (cte, &shell) in with.ctes.iter().zip(&shells) {
            let scope = Scope::root(); // CTE bodies are closed
            match &cte.query.body {
                SetExpr::Select(block) => self.build_block_into(shell, block, &scope)?,
                SetExpr::SetOp { left, right, .. } => {
                    self.build_setop_into(shell, left, right, &scope)?;
                }
            }
            self.rename_cte_columns(shell, &cte.name, &cte.columns)?;
        }
        // Flavor the shells that actually close a cycle. The fixpoint
        // driver must be a UNION of base and step branches; a self
        // reference anywhere else has no seed row set to start from.
        for (cte, &shell) in with.ctes.iter().zip(&shells) {
            if !self.closes_cycle(shell) {
                continue;
            }
            match &self.qgm.boxed(shell).kind {
                BoxKind::SetOp(s) if s.op == sql::SetOpKind::Union => {
                    self.qgm.boxed_mut(shell).flavor = BoxFlavor::Recursive;
                }
                _ => {
                    return Err(Error::semantic(format!(
                        "recursive CTE {} must combine its base and recursive \
                         branches with UNION",
                        cte.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether `shell` lies on a cycle: one of its inputs reaches it.
    fn closes_cycle(&self, shell: BoxId) -> bool {
        let g = &self.qgm;
        g.inputs(shell).any(|(_, input)| g.reaches(input, shell))
    }

    /// Apply a CTE's declared column list (arity check + rename); a
    /// missing list keeps the body's own column names.
    fn rename_cte_columns(&mut self, b: BoxId, name: &str, columns: &[String]) -> Result<()> {
        if columns.is_empty() {
            return Ok(());
        }
        let arity = self.qgm.boxed(b).arity();
        if columns.len() != arity {
            return Err(Error::semantic(format!(
                "CTE {name} declares {} columns but its body produces {arity}",
                columns.len()
            )));
        }
        let qb = self.qgm.boxed_mut(b);
        for (col, new_name) in qb.columns.iter_mut().zip(columns) {
            col.name = new_name.clone();
        }
        Ok(())
    }

    // ---- set expressions ----------------------------------------------

    fn build_setexpr(&mut self, se: &SetExpr, scope: &Scope<'_>) -> Result<BoxId> {
        match se {
            SetExpr::Select(block) => {
                let name = self.tmp_name();
                let id = self.qgm.add_box(name, BoxKind::Select);
                self.build_block_into(id, block, scope)?;
                Ok(id)
            }
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let name = self.tmp_name();
                let id = self
                    .qgm
                    .add_box(name, BoxKind::SetOp(SetOpBox { op: *op, all: *all }));
                self.build_setop_into(id, left, right, scope)?;
                Ok(id)
            }
        }
    }

    fn build_setop_into(
        &mut self,
        id: BoxId,
        left: &SetExpr,
        right: &SetExpr,
        scope: &Scope<'_>,
    ) -> Result<()> {
        let lb = self.build_setexpr(left, scope)?;
        let rb = self.build_setexpr(right, scope)?;
        let lq = self.qgm.add_quant(id, lb, QuantKind::Foreach, "l");
        let _rq = self.qgm.add_quant(id, rb, QuantKind::Foreach, "r");
        let larity = self.qgm.boxed(lb).arity();
        if larity != self.qgm.boxed(rb).arity() {
            return Err(Error::semantic(
                "set operation operands have different arities".to_string(),
            ));
        }
        let cols: Vec<OutputCol> = (0..larity)
            .map(|i| OutputCol {
                name: self.qgm.boxed(lb).columns[i].name.clone(),
                expr: ScalarExpr::col(lq, i),
            })
            .collect();
        let b = self.qgm.boxed_mut(id);
        b.columns = cols;
        // Non-ALL set operations produce duplicate-free output.
        if let BoxKind::SetOp(s) = &b.kind {
            if !s.all {
                b.distinct = DistinctMode::Preserve;
            }
        }
        Ok(())
    }

    // ---- blocks ---------------------------------------------------------

    /// Build a SELECT block into the (already created, empty) select
    /// box `id`. A block with GROUP BY / aggregates expands into the
    /// triplet, where `id` becomes the *final* (HAVING) select box so
    /// callers can keep referring to it.
    fn build_block_into(
        &mut self,
        id: BoxId,
        block: &SelectBlock,
        outer: &Scope<'_>,
    ) -> Result<()> {
        let grouped = !block.group_by.is_empty()
            || block.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || block
                .having
                .as_ref()
                .is_some_and(starmagic_sql::Expr::contains_aggregate);

        if !grouped {
            if block.having.is_some() {
                return Err(Error::semantic("HAVING without GROUP BY or aggregates"));
            }
            self.build_simple_block(id, block, outer)?;
        } else {
            self.build_grouped_block(id, block, outer)?;
        }
        if block.distinct {
            self.qgm.boxed_mut(id).distinct = DistinctMode::Enforce;
        }
        Ok(())
    }

    /// FROM/WHERE/SELECT without grouping: a single select box.
    fn build_simple_block(
        &mut self,
        id: BoxId,
        block: &SelectBlock,
        outer: &Scope<'_>,
    ) -> Result<()> {
        let mut scope = outer.child();
        self.build_from(id, &block.from, &mut scope)?;
        if let Some(w) = &block.where_clause {
            let pred = self.translate(w, &scope, id)?;
            self.qgm.boxed_mut(id).predicates.extend(pred.conjuncts());
        }
        let columns = self.build_select_list(&block.items, &scope, id)?;
        if columns.iter().any(|c| c.expr.contains_agg()) {
            return Err(Error::internal(
                "aggregate slipped into a non-grouped block".to_string(),
            ));
        }
        self.qgm.boxed_mut(id).columns = columns;
        Ok(())
    }

    /// The group-by triplet. `final_id` is the HAVING select box.
    fn build_grouped_block(
        &mut self,
        final_id: BoxId,
        block: &SelectBlock,
        outer: &Scope<'_>,
    ) -> Result<()> {
        // T1: FROM/WHERE select box outputting every column of every
        // Foreach binding ("SELECT *"), so grouping never mixes with
        // selection (§2). The triplet boxes are named after the final
        // box so printed graphs map onto the paper's figures.
        let base_name = self.qgm.boxed(final_id).name.clone();
        let t1 = self.qgm.add_box(format!("{base_name}_T1"), BoxKind::Select);
        let mut scope = outer.child();
        self.build_from(t1, &block.from, &mut scope)?;
        if let Some(w) = &block.where_clause {
            let pred = self.translate(w, &scope, t1)?;
            if pred.contains_agg() {
                return Err(Error::semantic("aggregates are not allowed in WHERE"));
            }
            self.qgm.boxed_mut(t1).predicates.extend(pred.conjuncts());
        }
        // T1 outputs: all columns of all Foreach quantifiers (a join
        // binding shares one quantifier across aliases: emit it once).
        let mut t1_cols: Vec<OutputCol> = Vec::new();
        let mut offset_of: BTreeMap<(QuantId, usize), usize> = BTreeMap::new();
        let mut seen_quants: Vec<QuantId> = Vec::new();
        for b in &scope.bindings {
            let q = b.quant;
            if !self.qgm.quant(q).kind.is_foreach() || seen_quants.contains(&q) {
                continue;
            }
            seen_quants.push(q);
            let input = self.qgm.quant(q).input;
            for (ci, col) in self.qgm.boxed(input).columns.clone().iter().enumerate() {
                offset_of.insert((q, ci), t1_cols.len());
                t1_cols.push(OutputCol {
                    name: col.name.clone(),
                    expr: ScalarExpr::col(q, ci),
                });
            }
        }
        self.qgm.boxed_mut(t1).columns = t1_cols;

        // Group keys in the T1 *output* frame.
        let mut group_keys_t1frame: Vec<ScalarExpr> = Vec::new();
        for g in &block.group_by {
            let e = self.translate(g, &scope, t1)?;
            if e.contains_agg() {
                return Err(Error::semantic("aggregates are not allowed in GROUP BY"));
            }
            group_keys_t1frame.push(e);
        }

        // Collect aggregate calls from the select list and HAVING.
        let mut agg_asts: Vec<&sql::Expr> = Vec::new();
        fn collect_aggs<'e>(e: &'e sql::Expr, out: &mut Vec<&'e sql::Expr>) {
            match e {
                sql::Expr::Agg { .. } => out.push(e),
                sql::Expr::Binary { left, right, .. } => {
                    collect_aggs(left, out);
                    collect_aggs(right, out);
                }
                sql::Expr::Neg(x) | sql::Expr::Not(x) => collect_aggs(x, out),
                sql::Expr::IsNull { expr, .. } | sql::Expr::Like { expr, .. } => {
                    collect_aggs(expr, out);
                }
                sql::Expr::Between {
                    expr, low, high, ..
                } => {
                    collect_aggs(expr, out);
                    collect_aggs(low, out);
                    collect_aggs(high, out);
                }
                sql::Expr::InList { expr, list, .. } => {
                    collect_aggs(expr, out);
                    for l in list {
                        collect_aggs(l, out);
                    }
                }
                _ => {}
            }
        }
        for item in &block.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggs(expr, &mut agg_asts);
            }
        }
        if let Some(h) = &block.having {
            collect_aggs(h, &mut agg_asts);
        }

        // Translate agg specs into the T1 quantifier frame, then remap
        // into the T2-over-T1 frame.
        let t2 = self.qgm.add_box(
            format!("{base_name}_GB"),
            BoxKind::GroupBy(GroupByBox::default()),
        );
        let t2q = self.qgm.add_quant(t2, t1, QuantKind::Foreach, "t1");
        let to_t2frame = |e: &ScalarExpr, qgm: &Qgm| -> Result<ScalarExpr> {
            let mut err = None;
            let out = e.map_colrefs(&mut |q, c| match offset_of.get(&(q, c)) {
                Some(&off) => ScalarExpr::col(t2q, off),
                None => {
                    // Correlated reference to an outer block: passes through.
                    if qgm.quant(q).parent != t1 {
                        ScalarExpr::col(q, c)
                    } else {
                        err = Some("column not available for grouping".to_string());
                        ScalarExpr::col(q, c)
                    }
                }
            });
            err.map_or(Ok(out), |m| Err(Error::semantic(m)))
        };

        let mut spec = GroupByBox::default();
        for k in &group_keys_t1frame {
            spec.group_keys.push(to_t2frame(k, &self.qgm)?);
        }
        let mut agg_specs_ast: Vec<sql::Expr> = Vec::new();
        for a in &agg_asts {
            if !agg_specs_ast.contains(a) {
                agg_specs_ast.push((*a).clone());
            }
        }
        for a in &agg_specs_ast {
            let sql::Expr::Agg {
                func,
                distinct,
                arg,
            } = a
            else {
                unreachable!("collect_aggs only collects Agg nodes")
            };
            let translated_arg = match arg {
                Some(x) => {
                    let e = self.translate(x, &scope, t1)?;
                    Some(to_t2frame(&e, &self.qgm)?)
                }
                None => None,
            };
            spec.aggs.push(AggSpec {
                func: *func,
                distinct: *distinct,
                arg: translated_arg,
            });
        }

        // T2 outputs: group keys then aggregates.
        let n_keys = spec.group_keys.len();
        let mut t2_cols: Vec<OutputCol> = Vec::new();
        for (i, k) in spec.group_keys.iter().enumerate() {
            // Prefer the underlying column name when the key is a plain
            // column.
            let name = match k {
                ScalarExpr::ColRef { col, .. } => self.qgm.boxed(t1).columns[*col].name.clone(),
                _ => format!("gk{i}"),
            };
            t2_cols.push(OutputCol {
                name,
                expr: k.clone(),
            });
        }
        for (i, a) in spec.aggs.iter().enumerate() {
            t2_cols.push(OutputCol {
                name: format!("agg{i}"),
                expr: ScalarExpr::Agg {
                    func: a.func,
                    distinct: a.distinct,
                    arg: a.arg.clone().map(Box::new),
                },
            });
        }
        {
            let b = self.qgm.boxed_mut(t2);
            b.kind = BoxKind::GroupBy(spec);
            b.columns = t2_cols;
            b.distinct = DistinctMode::Preserve; // keyed by group cols
        }

        // T3 (= final_id): HAVING + final projection over T2.
        let t3q = self.qgm.add_quant(final_id, t2, QuantKind::Foreach, "t2");

        // A grouped-frame translator: rewrites an AST expression where
        // aggregates map to T2 agg outputs and group keys map to T2 key
        // outputs; bare columns that are not group keys are errors.
        let group_map = GroupFrame {
            t3q,
            n_keys,
            group_keys_t1frame: &group_keys_t1frame,
            agg_asts: &agg_specs_ast,
        };

        let mut columns: Vec<OutputCol> = Vec::new();
        for (i, item) in block.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(Error::semantic("SELECT * is not allowed with GROUP BY"))
                }
                SelectItem::Expr { expr, alias } => {
                    let e = self.translate_grouped(expr, &scope, t1, final_id, &group_map)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        sql::Expr::Column { name, .. } => name.clone(),
                        _ => format!("col{i}"),
                    });
                    columns.push(OutputCol { name, expr: e });
                }
            }
        }
        if let Some(h) = &block.having {
            let e = self.translate_grouped(h, &scope, t1, final_id, &group_map)?;
            self.qgm
                .boxed_mut(final_id)
                .predicates
                .extend(e.conjuncts());
        }
        self.qgm.boxed_mut(final_id).columns = columns;
        Ok(())
    }

    fn build_from(&mut self, id: BoxId, from: &[TableRef], scope: &mut Scope<'_>) -> Result<()> {
        for item in from {
            let (input, aliases) = self.build_from_tree(item, scope)?;
            let qname = aliases
                .first()
                .map_or_else(|| "j".into(), |(n, _, _)| n.clone());
            let q = self.qgm.add_quant(id, input, QuantKind::Foreach, qname);
            let single = aliases.len() == 1;
            for (alias, start, len) in aliases {
                if scope.bindings.iter().any(|b| b.name == alias) {
                    return Err(Error::semantic(format!("duplicate table binding {alias}")));
                }
                scope.bindings.push(ScopeBinding {
                    name: alias,
                    quant: q,
                    range: if single { None } else { Some((start, len)) },
                });
            }
        }
        Ok(())
    }

    /// Build the box for one FROM item. Plain references return the
    /// table/view/derived box and a single alias covering all its
    /// columns; joins build an outer-join box whose output is the
    /// concatenation of both sides, returning every nested alias with
    /// its column slice.
    fn build_from_tree(
        &mut self,
        item: &TableRef,
        scope: &Scope<'_>,
    ) -> Result<(BoxId, AliasSlices)> {
        match item {
            TableRef::Named { name, alias } => {
                let b = self.named_box(name)?;
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                let arity = self.qgm.boxed(b).arity();
                Ok((b, vec![(binding.to_ascii_lowercase(), 0, arity)]))
            }
            TableRef::Derived { query, alias } => {
                // Derived tables cannot see sibling FROM items, but can
                // see the outer blocks.
                let b = match scope.parent {
                    Some(p) => self.build_query(query, p)?,
                    None => {
                        let root = Scope::root();
                        self.build_query(query, &root)?
                    }
                };
                let arity = self.qgm.boxed(b).arity();
                Ok((b, vec![(alias.to_ascii_lowercase(), 0, arity)]))
            }
            TableRef::LeftJoin { left, right, on } => {
                let (lb, lmap) = self.build_from_tree(left, scope)?;
                let (rb, rmap) = self.build_from_tree(right, scope)?;
                let name = self.tmp_name();
                let oj = self.qgm.add_box(
                    format!("{name}_OJ"),
                    BoxKind::OuterJoin(OuterJoinBox::default()),
                );
                let lq = self.qgm.add_quant(oj, lb, QuantKind::Foreach, "l");
                let rq = self.qgm.add_quant(oj, rb, QuantKind::Foreach, "r");
                // Output: all left columns then all right columns.
                let mut cols = Vec::new();
                for (i, c) in self.qgm.boxed(lb).columns.clone().iter().enumerate() {
                    cols.push(OutputCol {
                        name: c.name.clone(),
                        expr: ScalarExpr::col(lq, i),
                    });
                }
                let larity = self.qgm.boxed(lb).arity();
                for (i, c) in self.qgm.boxed(rb).columns.clone().iter().enumerate() {
                    cols.push(OutputCol {
                        name: c.name.clone(),
                        expr: ScalarExpr::col(rq, i),
                    });
                }
                self.qgm.boxed_mut(oj).columns = cols;
                // Translate the ON clause in a scope holding both sides
                // (chained to the enclosing scope for correlation).
                let mut jscope = scope.child();
                for &(ref n, start, len) in &lmap {
                    jscope.bindings.push(ScopeBinding {
                        name: n.clone(),
                        quant: lq,
                        range: Some((start, len)),
                    });
                }
                for &(ref n, start, len) in &rmap {
                    jscope.bindings.push(ScopeBinding {
                        name: n.clone(),
                        quant: rq,
                        range: Some((start, len)),
                    });
                }
                let on_expr = self.translate(on, &jscope, oj)?;
                if on_expr.contains_agg() {
                    return Err(Error::semantic("aggregates are not allowed in ON"));
                }
                if let BoxKind::OuterJoin(spec) = &mut self.qgm.boxed_mut(oj).kind {
                    spec.on = on_expr.conjuncts();
                }
                let mut map = lmap;
                for (n, start, len) in rmap {
                    map.push((n, start + larity, len));
                }
                Ok((oj, map))
            }
        }
    }

    fn build_select_list(
        &mut self,
        items: &[SelectItem],
        scope: &Scope<'_>,
        sink: BoxId,
    ) -> Result<Vec<OutputCol>> {
        let mut cols = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for b in &scope.bindings {
                        let q = b.quant;
                        if !self.qgm.quant(q).kind.is_foreach() {
                            continue;
                        }
                        let input = self.qgm.quant(q).input;
                        let all = self.qgm.boxed(input).columns.clone();
                        let (start, len) = b.range.unwrap_or((0, all.len()));
                        for (ci, c) in all.iter().enumerate().skip(start).take(len) {
                            cols.push(OutputCol {
                                name: c.name.clone(),
                                expr: ScalarExpr::col(q, ci),
                            });
                        }
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    let lalias = alias.to_ascii_lowercase();
                    let b = scope
                        .bindings
                        .iter()
                        .find(|b| b.name == lalias)
                        .cloned()
                        .ok_or_else(|| Error::semantic(format!("unknown alias {alias}")))?;
                    let input = self.qgm.quant(b.quant).input;
                    let all = self.qgm.boxed(input).columns.clone();
                    let (start, len) = b.range.unwrap_or((0, all.len()));
                    for (ci, c) in all.iter().enumerate().skip(start).take(len) {
                        cols.push(OutputCol {
                            name: c.name.clone(),
                            expr: ScalarExpr::col(b.quant, ci),
                        });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let e = self.translate(expr, scope, sink)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        sql::Expr::Column { name, .. } => name.clone(),
                        _ => format!("col{i}"),
                    });
                    cols.push(OutputCol { name, expr: e });
                }
            }
        }
        Ok(cols)
    }

    // ---- name resolution ------------------------------------------------

    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        scope: &Scope<'_>,
    ) -> Result<ScalarExpr> {
        let lname = name.to_ascii_lowercase();
        // Find `lname` within one binding's column slice.
        let find_in = |b: &ScopeBinding| -> Option<ScalarExpr> {
            let input = self.qgm.quant(b.quant).input;
            let cols = &self.qgm.boxed(input).columns;
            let (start, len) = b.range.unwrap_or((0, cols.len()));
            cols[start..(start + len).min(cols.len())]
                .iter()
                .position(|c| c.name == lname)
                .map(|off| ScalarExpr::col(b.quant, start + off))
        };
        let mut cur: Option<&Scope<'_>> = Some(scope);
        while let Some(s) = cur {
            match qualifier {
                Some(q) => {
                    let lq = q.to_ascii_lowercase();
                    if let Some(b) = s.bindings.iter().find(|b| b.name == lq) {
                        return find_in(b).ok_or_else(|| {
                            Error::semantic(format!("column {q}.{name} not found"))
                        });
                    }
                }
                None => {
                    let mut matches = Vec::new();
                    for b in &s.bindings {
                        if let Some(e) = find_in(b) {
                            matches.push(e);
                        }
                    }
                    match matches.len() {
                        0 => {}
                        1 => return Ok(matches.pop().expect("len checked")),
                        _ => {
                            return Err(Error::semantic(format!(
                                "ambiguous column reference {name}"
                            )))
                        }
                    }
                }
            }
            cur = s.parent;
        }
        Err(Error::semantic(format!(
            "column {}{name} not found",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default()
        )))
    }

    // ---- expression translation -------------------------------------------

    /// Translate an AST expression in the given scope. Subqueries
    /// create quantifiers in `sink`.
    fn translate(&mut self, e: &sql::Expr, scope: &Scope<'_>, sink: BoxId) -> Result<ScalarExpr> {
        Ok(match e {
            sql::Expr::Column { qualifier, name } => {
                self.resolve_column(qualifier.as_deref(), name, scope)?
            }
            sql::Expr::Literal(v) => ScalarExpr::Literal(v.clone()),
            sql::Expr::Param(i) => ScalarExpr::Param(*i),
            sql::Expr::Binary { op, left, right } => ScalarExpr::bin(
                *op,
                self.translate(left, scope, sink)?,
                self.translate(right, scope, sink)?,
            ),
            sql::Expr::Neg(x) => ScalarExpr::Neg(Box::new(self.translate(x, scope, sink)?)),
            sql::Expr::Not(x) => ScalarExpr::Not(Box::new(self.translate(x, scope, sink)?)),
            sql::Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(self.translate(expr, scope, sink)?),
                negated: *negated,
            },
            sql::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let x = self.translate(expr, scope, sink)?;
                let lo = self.translate(low, scope, sink)?;
                let hi = self.translate(high, scope, sink)?;
                let between = ScalarExpr::bin(
                    BinOp::And,
                    ScalarExpr::bin(BinOp::Ge, x.clone(), lo),
                    ScalarExpr::bin(BinOp::Le, x, hi),
                );
                if *negated {
                    ScalarExpr::Not(Box::new(between))
                } else {
                    between
                }
            }
            sql::Expr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(self.translate(expr, scope, sink)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            sql::Expr::InList {
                expr,
                list,
                negated,
            } => {
                let x = self.translate(expr, scope, sink)?;
                let mut disj: Option<ScalarExpr> = None;
                for item in list {
                    let rhs = self.translate(item, scope, sink)?;
                    let eq = ScalarExpr::eq(x.clone(), rhs);
                    disj = Some(match disj {
                        None => eq,
                        Some(d) => ScalarExpr::bin(BinOp::Or, d, eq),
                    });
                }
                let d = disj.ok_or_else(|| Error::semantic("empty IN list"))?;
                if *negated {
                    ScalarExpr::Not(Box::new(d))
                } else {
                    d
                }
            }
            sql::Expr::Exists { query, negated } => {
                let sub = self.build_query(query, scope)?;
                let q = self.qgm.add_quant(
                    sink,
                    sub,
                    QuantKind::Existential { negated: *negated },
                    format!("e{}", sub.0),
                );
                let test = ScalarExpr::Quantified {
                    mode: QuantMode::Exists,
                    quant: q,
                    preds: vec![],
                };
                if *negated {
                    ScalarExpr::Not(Box::new(test))
                } else {
                    test
                }
            }
            sql::Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let x = self.translate(expr, scope, sink)?;
                let sub = self.build_query(query, scope)?;
                if self.qgm.boxed(sub).arity() != 1 {
                    return Err(Error::semantic(
                        "IN subquery must produce exactly one column",
                    ));
                }
                let q = self.qgm.add_quant(
                    sink,
                    sub,
                    QuantKind::Existential { negated: *negated },
                    format!("e{}", sub.0),
                );
                let test = ScalarExpr::Quantified {
                    mode: QuantMode::Exists,
                    quant: q,
                    preds: vec![ScalarExpr::eq(x, ScalarExpr::col(q, 0))],
                };
                if *negated {
                    ScalarExpr::Not(Box::new(test))
                } else {
                    test
                }
            }
            sql::Expr::QuantifiedCmp {
                expr,
                op,
                quantifier,
                query,
            } => {
                let x = self.translate(expr, scope, sink)?;
                let sub = self.build_query(query, scope)?;
                if self.qgm.boxed(sub).arity() != 1 {
                    return Err(Error::semantic(
                        "quantified subquery must produce exactly one column",
                    ));
                }
                let (kind, mode) = match quantifier {
                    sql::Quantified::Any => {
                        (QuantKind::Existential { negated: false }, QuantMode::Exists)
                    }
                    sql::Quantified::All => (QuantKind::Universal, QuantMode::ForAll),
                };
                let q = self.qgm.add_quant(sink, sub, kind, format!("q{}", sub.0));
                ScalarExpr::Quantified {
                    mode,
                    quant: q,
                    preds: vec![ScalarExpr::bin(*op, x, ScalarExpr::col(q, 0))],
                }
            }
            sql::Expr::ScalarSubquery(query) => {
                let sub = self.build_query(query, scope)?;
                if self.qgm.boxed(sub).arity() != 1 {
                    return Err(Error::semantic(
                        "scalar subquery must produce exactly one column",
                    ));
                }
                let q = self
                    .qgm
                    .add_quant(sink, sub, QuantKind::Scalar, format!("s{}", sub.0));
                ScalarExpr::col(q, 0)
            }
            sql::Expr::Agg {
                func,
                distinct,
                arg,
            } => ScalarExpr::Agg {
                func: *func,
                distinct: *distinct,
                arg: match arg {
                    Some(a) => Some(Box::new(self.translate(a, scope, sink)?)),
                    None => None,
                },
            },
        })
    }

    /// Translate an expression in the *grouped frame* of a triplet:
    /// aggregate calls map to T2 aggregate outputs, group-key
    /// expressions map to T2 key outputs, and anything else must
    /// resolve through outer correlation or fail.
    fn translate_grouped(
        &mut self,
        e: &sql::Expr,
        t1_scope: &Scope<'_>,
        t1: BoxId,
        sink: BoxId,
        frame: &GroupFrame<'_>,
    ) -> Result<ScalarExpr> {
        // Aggregates map straight to T2 outputs.
        if let sql::Expr::Agg { .. } = e {
            if let Some(i) = frame.agg_asts.iter().position(|a| a == e) {
                return Ok(ScalarExpr::col(frame.t3q, frame.n_keys + i));
            }
            return Err(Error::internal("aggregate not collected"));
        }
        // Whole expression equal to a group key?
        if let Ok(t1frame) = self.translate(e, t1_scope, t1) {
            if let Some(i) = frame.group_keys_t1frame.iter().position(|k| *k == t1frame) {
                return Ok(ScalarExpr::col(frame.t3q, i));
            }
            // A column that is not a group key is an error *if* it
            // belongs to this block; correlated outer columns pass
            // through untouched.
            if let ScalarExpr::ColRef { quant, .. } = &t1frame {
                if self.qgm.quant(*quant).parent == t1 {
                    if let sql::Expr::Column { name, .. } = e {
                        return Err(Error::semantic(format!(
                            "column {name} must appear in GROUP BY or an aggregate"
                        )));
                    }
                } else {
                    return Ok(t1frame);
                }
            }
            if let ScalarExpr::Literal(_) = &t1frame {
                return Ok(t1frame);
            }
        }
        // Otherwise recurse structurally.
        Ok(match e {
            sql::Expr::Binary { op, left, right } => ScalarExpr::bin(
                *op,
                self.translate_grouped(left, t1_scope, t1, sink, frame)?,
                self.translate_grouped(right, t1_scope, t1, sink, frame)?,
            ),
            sql::Expr::Neg(x) => ScalarExpr::Neg(Box::new(
                self.translate_grouped(x, t1_scope, t1, sink, frame)?,
            )),
            sql::Expr::Not(x) => ScalarExpr::Not(Box::new(
                self.translate_grouped(x, t1_scope, t1, sink, frame)?,
            )),
            sql::Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(self.translate_grouped(expr, t1_scope, t1, sink, frame)?),
                negated: *negated,
            },
            sql::Expr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(self.translate_grouped(expr, t1_scope, t1, sink, frame)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            sql::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let x = self.translate_grouped(expr, t1_scope, t1, sink, frame)?;
                let lo = self.translate_grouped(low, t1_scope, t1, sink, frame)?;
                let hi = self.translate_grouped(high, t1_scope, t1, sink, frame)?;
                let between = ScalarExpr::bin(
                    BinOp::And,
                    ScalarExpr::bin(BinOp::Ge, x.clone(), lo),
                    ScalarExpr::bin(BinOp::Le, x, hi),
                );
                if *negated {
                    ScalarExpr::Not(Box::new(between))
                } else {
                    between
                }
            }
            sql::Expr::Literal(v) => ScalarExpr::Literal(v.clone()),
            sql::Expr::Param(i) => ScalarExpr::Param(*i),
            sql::Expr::Column { name, .. } => {
                return Err(Error::semantic(format!(
                    "column {name} must appear in GROUP BY or an aggregate"
                )))
            }
            // Subqueries in HAVING: the subquery sees the grouped block
            // from outside; build it with the outer scope only.
            sql::Expr::Exists { .. }
            | sql::Expr::InSubquery { .. }
            | sql::Expr::QuantifiedCmp { .. }
            | sql::Expr::ScalarSubquery(_)
            | sql::Expr::InList { .. } => {
                // Translate with the T1 scope for correlation but sink
                // the quantifier into the final box.
                self.translate(e, t1_scope, sink)?
            }
            sql::Expr::Agg { .. } => unreachable!("handled above"),
        })
    }
}

/// Aliases exposed by a FROM item: (name, column start, column count)
/// within the item's box output.
type AliasSlices = Vec<(String, usize, usize)>;

/// Bookkeeping for translating select/having expressions of a grouped
/// block into the frame of the final (T3) box.
struct GroupFrame<'x> {
    t3q: QuantId,
    n_keys: usize,
    group_keys_t1frame: &'x [ScalarExpr],
    agg_asts: &'x [sql::Expr],
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::{generator, ViewDef};

    fn catalog() -> Catalog {
        let mut c = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        c.add_view(
            ViewDef::new(
                "mgrsal",
                vec![
                    "empno".into(),
                    "empname".into(),
                    "workdept".into(),
                    "salary".into(),
                ],
                "SELECT e.empno, e.empname, e.workdept, e.salary \
                       FROM employee e, department d WHERE e.empno = d.mgrno",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c.add_view(
            ViewDef::new(
                "avgmgrsal",
                vec!["workdept".into(), "avgsalary".into()],
                "SELECT workdept, AVG(salary) FROM mgrsal GROUP BY workdept",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn build(sql_text: &str) -> Qgm {
        let cat = catalog();
        let q = sql::parse_query(sql_text).unwrap();
        build_qgm(&cat, &q).unwrap()
    }

    #[test]
    fn simple_select_builds_two_boxes() {
        let g = build("SELECT empno FROM employee WHERE salary > 50000");
        // QUERY select box + EMPLOYEE base box.
        assert_eq!(g.box_count(), 2);
        let top = g.boxed(g.top());
        assert_eq!(top.name, "QUERY");
        assert_eq!(top.predicates.len(), 1);
        assert_eq!(top.columns.len(), 1);
        assert_eq!(top.columns[0].name, "empno");
    }

    #[test]
    fn query_d_builds_triplet_and_views() {
        let g = build(
            "SELECT d.deptname, s.workdept, s.avgsalary \
             FROM department d, avgmgrsal s \
             WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        );
        let names: Vec<String> = g
            .box_ids()
            .iter()
            .map(|&b| g.boxed(b).name.clone())
            .collect();
        // QUERY, DEPARTMENT, EMPLOYEE, MGRSAL, AVGMGRSAL (T3) + T1 + T2(groupby)
        assert!(names.contains(&"QUERY".to_string()));
        assert!(names.contains(&"AVGMGRSAL".to_string()));
        assert!(names.contains(&"MGRSAL".to_string()));
        assert!(names.contains(&"DEPARTMENT".to_string()));
        assert!(names.contains(&"EMPLOYEE".to_string()));
        // One group-by box.
        let gb_count = g
            .box_ids()
            .iter()
            .filter(|&&b| matches!(g.boxed(b).kind, BoxKind::GroupBy(_)))
            .count();
        assert_eq!(gb_count, 1);
        g.validate().unwrap();
    }

    #[test]
    fn shared_view_is_common_subexpression() {
        let g = build("SELECT a.empno FROM mgrsal a, mgrsal b WHERE a.workdept = b.workdept");
        let mgr_boxes: Vec<_> = g
            .box_ids()
            .into_iter()
            .filter(|&b| g.boxed(b).name == "MGRSAL")
            .collect();
        assert_eq!(mgr_boxes.len(), 1, "view must be expanded once");
        assert_eq!(g.users(mgr_boxes[0]).len(), 2, "and referenced twice");
    }

    #[test]
    fn base_table_shared_across_blocks() {
        let g = build(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM employee f WHERE f.workdept = e.workdept AND f.salary > e.salary)",
        );
        let emp_boxes: Vec<_> = g
            .box_ids()
            .into_iter()
            .filter(|&b| matches!(&g.boxed(b).kind, BoxKind::BaseTable { table } if table == "employee"))
            .collect();
        assert_eq!(emp_boxes.len(), 1);
        assert_eq!(g.users(emp_boxes[0]).len(), 2);
    }

    #[test]
    fn exists_becomes_existential_quant() {
        let g = build(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT deptno FROM department d WHERE d.mgrno = e.empno)",
        );
        let top = g.boxed(g.top());
        let e_quants: Vec<_> = top
            .quants
            .iter()
            .filter(|&&q| matches!(g.quant(q).kind, QuantKind::Existential { .. }))
            .collect();
        assert_eq!(e_quants.len(), 1);
        // The subquery box holds the correlation predicate.
        let sub = g.quant(*e_quants[0]).input;
        assert_eq!(g.boxed(sub).predicates.len(), 1);
    }

    #[test]
    fn scalar_subquery_becomes_scalar_quant() {
        let g = build(
            "SELECT e.empno FROM employee e WHERE e.salary > \
             (SELECT AVG(f.salary) FROM employee f WHERE f.workdept = e.workdept)",
        );
        let top = g.boxed(g.top());
        assert!(top
            .quants
            .iter()
            .any(|&q| g.quant(q).kind == QuantKind::Scalar));
    }

    #[test]
    fn group_by_triplet_structure() {
        let g = build(
            "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept HAVING AVG(salary) > 50000",
        );
        // QUERY(T3) -> T2(groupby) -> T1(select) -> EMPLOYEE
        let top = g.boxed(g.top());
        assert_eq!(top.quants.len(), 1);
        let t2 = g.quant(top.quants[0]).input;
        assert!(matches!(g.boxed(t2).kind, BoxKind::GroupBy(_)));
        let t2box = g.boxed(t2);
        assert_eq!(t2box.quants.len(), 1);
        let t1 = g.quant(t2box.quants[0]).input;
        assert!(matches!(g.boxed(t1).kind, BoxKind::Select));
        // T1 outputs every employee column (SELECT * semantics).
        assert_eq!(g.boxed(t1).arity(), 6);
        // HAVING became a predicate on the final box.
        assert_eq!(top.predicates.len(), 1);
    }

    #[test]
    fn group_key_expression_matching() {
        let g = build("SELECT workdept + 1 FROM employee GROUP BY workdept + 1");
        g.validate().unwrap();
        let top = g.boxed(g.top());
        // Output must be a plain ColRef to the T2 group key.
        assert!(matches!(
            top.columns[0].expr,
            ScalarExpr::ColRef { col: 0, .. }
        ));
    }

    #[test]
    fn non_grouped_column_in_grouped_select_is_rejected() {
        let cat = catalog();
        let q =
            sql::parse_query("SELECT empno, AVG(salary) FROM employee GROUP BY workdept").unwrap();
        assert!(build_qgm(&cat, &q).is_err());
    }

    #[test]
    fn union_builds_setop_box() {
        let g = build("SELECT deptno FROM department UNION SELECT workdept FROM employee");
        let top = g.boxed(g.top());
        assert!(matches!(top.kind, BoxKind::SetOp(_)));
        assert_eq!(top.quants.len(), 2);
        assert_eq!(top.distinct, DistinctMode::Preserve);
        g.validate().unwrap();
    }

    #[test]
    fn union_all_permits_duplicates() {
        let g = build("SELECT deptno FROM department UNION ALL SELECT workdept FROM employee");
        assert_eq!(g.boxed(g.top()).distinct, DistinctMode::Permit);
    }

    #[test]
    fn distinct_sets_enforce() {
        let g = build("SELECT DISTINCT workdept FROM employee");
        assert_eq!(g.boxed(g.top()).distinct, DistinctMode::Enforce);
    }

    #[test]
    fn derived_table() {
        let g = build("SELECT v.d FROM (SELECT workdept AS d FROM employee) AS v WHERE v.d = 3");
        g.validate().unwrap();
        assert_eq!(g.boxed(g.top()).columns[0].name, "d");
    }

    #[test]
    fn unknown_table_is_error() {
        let cat = catalog();
        let q = sql::parse_query("SELECT x FROM nosuch").unwrap();
        assert!(matches!(build_qgm(&cat, &q), Err(Error::NotFound(_))));
    }

    #[test]
    fn ambiguous_column_is_error() {
        let cat = catalog();
        let q = sql::parse_query(
            "SELECT deptno FROM department d, project p", // both have deptno
        )
        .unwrap();
        assert!(build_qgm(&cat, &q).is_err());
    }

    #[test]
    fn in_subquery_builds_quantified_pred() {
        let g = build(
            "SELECT empno FROM employee WHERE workdept IN \
             (SELECT deptno FROM department WHERE division = 'Sales')",
        );
        let top = g.boxed(g.top());
        assert!(matches!(
            &top.predicates[0],
            ScalarExpr::Quantified {
                mode: QuantMode::Exists,
                ..
            }
        ));
    }

    #[test]
    fn not_in_wraps_in_not() {
        let g = build(
            "SELECT empno FROM employee WHERE workdept NOT IN \
             (SELECT deptno FROM department WHERE division = 'Sales')",
        );
        let top = g.boxed(g.top());
        assert!(matches!(&top.predicates[0], ScalarExpr::Not(_)));
    }

    #[test]
    fn all_quantifier_builds_forall() {
        let g = build(
            "SELECT empno FROM employee WHERE salary >= ALL \
             (SELECT salary FROM employee)",
        );
        let top = g.boxed(g.top());
        assert!(matches!(
            &top.predicates[0],
            ScalarExpr::Quantified {
                mode: QuantMode::ForAll,
                ..
            }
        ));
        assert!(top
            .quants
            .iter()
            .any(|&q| g.quant(q).kind == QuantKind::Universal));
    }

    #[test]
    fn recursive_view_creates_cycle() {
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "subord",
                vec!["mgr".into(), "emp".into()],
                "SELECT d.mgrno, e.empno FROM department d, employee e \
                       WHERE e.workdept = d.deptno \
                       UNION \
                       SELECT s.mgr, e2.empno FROM subord s, employee e2 \
                       WHERE e2.workdept = s.emp",
                true,
            )
            .unwrap(),
        )
        .unwrap();
        let q = sql::parse_query("SELECT mgr, emp FROM subord WHERE mgr = 0").unwrap();
        let g = build_qgm(&cat, &q).unwrap();
        assert!(crate::strata::is_recursive(&g));
    }

    #[test]
    fn strata_assigned_on_build() {
        let g = build(
            "SELECT d.deptname, s.workdept, s.avgsalary \
             FROM department d, avgmgrsal s WHERE d.deptno = s.workdept",
        );
        let top = g.boxed(g.top());
        assert!(
            top.stratum >= 3,
            "query over view over view: {}",
            top.stratum
        );
    }

    #[test]
    fn wildcard_expansion() {
        let g = build("SELECT * FROM department");
        assert_eq!(g.boxed(g.top()).arity(), 5);
        let g = build("SELECT d.* FROM department d, employee e WHERE e.empno = d.mgrno");
        assert_eq!(g.boxed(g.top()).arity(), 5);
    }

    #[test]
    fn count_star_global_aggregate() {
        let g = build("SELECT COUNT(*) FROM employee");
        g.validate().unwrap();
        let top = g.boxed(g.top());
        let t2 = g.quant(top.quants[0]).input;
        let BoxKind::GroupBy(spec) = &g.boxed(t2).kind else {
            panic!("expected group-by box");
        };
        assert!(spec.group_keys.is_empty());
        assert_eq!(spec.aggs.len(), 1);
    }
}

#[cfg(test)]
mod outerjoin_tests {
    use super::*;
    use starmagic_catalog::generator;

    fn build(sql_text: &str) -> Qgm {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        build_qgm(&cat, &sql::parse_query(sql_text).unwrap()).unwrap()
    }

    #[test]
    fn left_join_builds_outerjoin_box() {
        let g = build(
            "SELECT d.deptname, p.projname FROM department d \
             LEFT OUTER JOIN project p ON p.deptno = d.deptno",
        );
        g.validate().unwrap();
        let oj = g
            .box_ids()
            .into_iter()
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::OuterJoin(_)))
            .expect("outer-join box");
        let BoxKind::OuterJoin(spec) = &g.boxed(oj).kind else {
            unreachable!()
        };
        assert_eq!(spec.on.len(), 1);
        // Output = 5 department + 4 project columns.
        assert_eq!(g.boxed(oj).arity(), 9);
    }

    #[test]
    fn left_join_scope_resolution_spans_both_sides() {
        // d.* is the left slice, p.* the right slice.
        let g = build(
            "SELECT d.*, p.budget FROM department d \
             LEFT JOIN project p ON p.deptno = d.deptno \
             WHERE d.deptname = 'Planning'",
        );
        g.validate().unwrap();
        assert_eq!(g.boxed(g.top()).arity(), 6);
    }

    #[test]
    fn nested_left_joins() {
        let g = build(
            "SELECT d.deptname FROM department d \
             LEFT JOIN project p ON p.deptno = d.deptno \
             LEFT JOIN emp_act a ON a.projno = p.projno",
        );
        g.validate().unwrap();
        let count = g
            .box_ids()
            .into_iter()
            .filter(|&b| matches!(g.boxed(b).kind, BoxKind::OuterJoin(_)))
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn left_join_mixes_with_comma_joins() {
        let g = build(
            "SELECT e.empno, p.projname FROM employee e, department d \
             LEFT JOIN project p ON p.deptno = d.deptno \
             WHERE e.workdept = d.deptno",
        );
        g.validate().unwrap();
    }

    #[test]
    fn on_clause_column_errors_are_reported() {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        let q = sql::parse_query(
            "SELECT 1 FROM department d LEFT JOIN project p ON p.nosuch = d.deptno",
        )
        .unwrap();
        assert!(build_qgm(&cat, &q).is_err());
    }
}
