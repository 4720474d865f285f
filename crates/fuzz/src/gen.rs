//! Seeded, grammar-directed query generation.
//!
//! The generator produces ASTs directly (not text), so the shrinker
//! can reduce the same representation and the printer is the single
//! place that turns trees into SQL. Every draw comes from one
//! `StdRng`, so a `(seed, case)` pair regenerates the identical query.
//!
//! The grammar is weighted toward the shapes the paper cares about:
//! views probed with an equality on their leading key column (the
//! binding patterns that make EMST fire), correlated EXISTS / IN /
//! NOT IN / quantified comparisons, GROUP BY + HAVING over nullable
//! aggregates, DISTINCT, set operations (with and without ALL), and
//! NULL-rich literals so three-valued logic is constantly exercised.
//! One case in eight is a `WITH RECURSIVE` closure over the `edge`
//! graph — always stratifiable, always terminating — with the outer
//! block sometimes binding a closure column so magic-on-recursion is
//! in the differential loop too.

use rand::{rngs::StdRng, Rng, SeedableRng};
use starmagic_common::Value;
use starmagic_sql::ast::{
    AggFunc, BinOp, Cte, Expr, Quantified, Query, SelectBlock, SelectItem, SetExpr, SetOpKind,
    TableRef, With,
};

use crate::schema::{Col, Family, Rel, Ty, PATTERNS, RELS, STRINGS};

/// A FROM-clause binding in scope: its alias plus the column model.
#[derive(Debug, Clone)]
struct Binding {
    alias: String,
    cols: Vec<BCol>,
}

/// Column as seen through a binding (derived tables rename columns).
#[derive(Debug, Clone)]
struct BCol {
    name: String,
    ty: Ty,
    family: Option<Family>,
    lo: i64,
    hi: i64,
    nullable: bool,
}

impl From<&Col> for BCol {
    fn from(c: &Col) -> BCol {
        BCol {
            name: c.name.to_string(),
            ty: c.ty,
            family: c.family,
            lo: c.lo,
            hi: c.hi,
            nullable: c.nullable,
        }
    }
}

/// Maximum subquery nesting depth.
const MAX_DEPTH: u32 = 2;

/// Generate the query for `(seed, case)`. Deterministic: the same
/// pair always yields the same AST.
pub fn generate(seed: u64, case: u64) -> Query {
    let mut g = QueryGen {
        rng: StdRng::seed_from_u64(
            seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case),
        ),
        aliases: 0,
    };
    g.query()
}

struct QueryGen {
    rng: StdRng,
    /// Global alias counter: inner blocks never shadow outer aliases,
    /// so correlated references are unambiguous.
    aliases: usize,
}

impl QueryGen {
    fn query(&mut self) -> Query {
        if self.rng.gen_ratio(1, 8) {
            return self.recursive_query();
        }
        let body = if self.rng.gen_ratio(1, 5) {
            self.set_op()
        } else {
            SetExpr::Select(Box::new(self.block(MAX_DEPTH, &[], None)))
        };
        Query { with: None, body }
    }

    /// `WITH RECURSIVE r (a, b) AS (base UNION step) SELECT ...` over
    /// the `edge` graph. Always stratifiable (no negation or grouping
    /// inside the cycle) and always terminating: the combining UNION
    /// deduplicates, so the fixpoint is bounded by the node-pair count
    /// even though the graph contains a cycle. The outer block binds a
    /// closure column half the time — the shapes that drive magic onto
    /// the recursion: a static seed when the bound column is the one
    /// the step preserves, a reversal or a grown magic set when it is
    /// the one the step derives.
    fn recursive_query(&mut self) -> Query {
        let cte = self.fresh_alias();
        let (lo, hi) = (0i64, 11i64);

        // Base arm: the edges themselves, sometimes filtered.
        let e1 = self.fresh_alias();
        let base_filter = self.rng.gen_ratio(1, 3).then(|| {
            let col = if self.rng.gen_ratio(1, 2) {
                "src"
            } else {
                "dst"
            };
            let op = self.cmp_op();
            Expr::bin(op, Expr::qcol(e1.clone(), col), self.int_lit(lo, hi))
        });
        let base = SelectBlock {
            distinct: false,
            items: vec![
                SelectItem::Expr {
                    expr: Expr::qcol(e1.clone(), "src"),
                    alias: Some("a".into()),
                },
                SelectItem::Expr {
                    expr: Expr::qcol(e1.clone(), "dst"),
                    alias: Some("b".into()),
                },
            ],
            from: vec![TableRef::Named {
                name: "edge".into(),
                alias: Some(e1),
            }],
            where_clause: base_filter,
            group_by: Vec::new(),
            having: None,
        };

        // Step arm: extend the closure by one edge on the right or the
        // left. Right-extension preserves `a` (binding it is the
        // static-seed magic case), left-extension preserves `b`; binding
        // the column a step derives reverses the recursion, or grows the
        // magic set when a step predicate reads the preserved column.
        let t = self.fresh_alias();
        let e2 = self.fresh_alias();
        let extend_right = self.rng.gen_ratio(1, 2);
        let (items, join) = if extend_right {
            (
                vec![
                    SelectItem::Expr {
                        expr: Expr::qcol(t.clone(), "a"),
                        alias: Some("a".into()),
                    },
                    SelectItem::Expr {
                        expr: Expr::qcol(e2.clone(), "dst"),
                        alias: Some("b".into()),
                    },
                ],
                Expr::bin(
                    BinOp::Eq,
                    Expr::qcol(e2.clone(), "src"),
                    Expr::qcol(t.clone(), "b"),
                ),
            )
        } else {
            (
                vec![
                    SelectItem::Expr {
                        expr: Expr::qcol(e2.clone(), "src"),
                        alias: Some("a".into()),
                    },
                    SelectItem::Expr {
                        expr: Expr::qcol(t.clone(), "b"),
                        alias: Some("b".into()),
                    },
                ],
                Expr::bin(
                    BinOp::Eq,
                    Expr::qcol(e2.clone(), "dst"),
                    Expr::qcol(t.clone(), "a"),
                ),
            )
        };
        let step_filter = self.rng.gen_ratio(1, 4).then(|| {
            let col = if extend_right { "dst" } else { "src" };
            Expr::bin(
                self.cmp_op(),
                Expr::qcol(e2.clone(), col),
                self.int_lit(lo, hi),
            )
        });
        let (preserved, fresh) = if extend_right {
            (Expr::qcol(t.clone(), "a"), Expr::qcol(e2.clone(), "dst"))
        } else {
            (Expr::qcol(t.clone(), "b"), Expr::qcol(e2.clone(), "src"))
        };
        let mut step = SelectBlock {
            distinct: false,
            items,
            from: vec![
                TableRef::Named {
                    name: cte.clone(),
                    alias: Some(t),
                },
                TableRef::Named {
                    name: "edge".into(),
                    alias: Some(e2),
                },
            ],
            where_clause: Some(match step_filter {
                Some(f) => Expr::bin(BinOp::And, join, f),
                None => join,
            }),
            group_by: Vec::new(),
            having: None,
        };

        // Outer block over the closure: plain scan, a bound column, or
        // a stratified aggregate on top of the fixpoint.
        let o = self.fresh_alias();
        let where_clause = match self.rng.gen_range(0u32..10) {
            0..=2 => Some(Expr::bin(
                BinOp::Eq,
                Expr::qcol(o.clone(), "a"),
                self.int_lit(lo, hi),
            )),
            3..=5 => Some(Expr::bin(
                BinOp::Eq,
                Expr::qcol(o.clone(), "b"),
                self.int_lit(lo, hi),
            )),
            _ => None,
        };
        let (items, group_by) = if self.rng.gen_ratio(1, 5) {
            (
                vec![
                    SelectItem::Expr {
                        expr: Expr::qcol(o.clone(), "a"),
                        alias: Some("k0".into()),
                    },
                    SelectItem::Expr {
                        expr: Expr::Agg {
                            func: AggFunc::Count,
                            distinct: false,
                            arg: None,
                        },
                        alias: Some("a0".into()),
                    },
                ],
                vec![Expr::qcol(o.clone(), "a")],
            )
        } else {
            (
                vec![
                    SelectItem::Expr {
                        expr: Expr::qcol(o.clone(), "a"),
                        alias: Some("c0".into()),
                    },
                    SelectItem::Expr {
                        expr: Expr::qcol(o.clone(), "b"),
                        alias: Some("c1".into()),
                    },
                ],
                Vec::new(),
            )
        };
        let mut outer = SelectBlock {
            distinct: self.rng.gen_ratio(1, 5),
            items,
            from: vec![TableRef::Named {
                name: cte.clone(),
                alias: Some(o),
            }],
            where_clause,
            group_by,
            having: None,
        };

        // One step in four also reads the column it preserves, which
        // makes the recursion inseparable: a bound derived column then
        // keeps the grown magic set instead of the reversal. Drawn last,
        // so every query that does not draw it keeps its text.
        if self.rng.gen_ratio(1, 4) {
            let reads_preserved = Expr::bin(BinOp::Neq, fresh, preserved);
            step.where_clause = step
                .where_clause
                .map(|w| Expr::bin(BinOp::And, w, reads_preserved));
        }
        // One bound literal in four is an integral DOUBLE, and a plain
        // outer block then outputs the bound column halved: `3.0` binds
        // the closure's INT `3`, whose half is still `1` on every plan
        // (a reversed recursion must output the column's own values,
        // not the binding). Drawn last as well.
        if outer.where_clause.is_some() && self.rng.gen_ratio(1, 4) {
            if let Some(Expr::Binary { left, right, .. }) = &mut outer.where_clause {
                as_double(right);
                if outer.group_by.is_empty() {
                    for item in &mut outer.items {
                        if let SelectItem::Expr { expr, .. } = item {
                            if expr == left.as_ref() {
                                *expr = Expr::bin(
                                    BinOp::Div,
                                    expr.clone(),
                                    Expr::Literal(Value::Int(2)),
                                );
                            }
                        }
                    }
                }
            }
        }
        let inner = Query {
            with: None,
            body: SetExpr::SetOp {
                op: SetOpKind::Union,
                all: false,
                left: Box::new(SetExpr::Select(Box::new(base))),
                right: Box::new(SetExpr::Select(Box::new(step))),
            },
        };

        Query {
            with: Some(With {
                recursive: true,
                ctes: vec![Cte {
                    name: cte,
                    columns: vec!["a".into(), "b".into()],
                    query: inner,
                }],
            }),
            body: SetExpr::Select(Box::new(outer)),
        }
    }

    /// A set operation between 2–3 arms sharing one output signature.
    fn set_op(&mut self) -> SetExpr {
        let mut sig = vec![self.sig_ty()];
        if self.rng.gen_ratio(1, 2) {
            sig.push(self.sig_ty());
        }
        let arms = if self.rng.gen_ratio(1, 5) { 3 } else { 2 };
        let mut body = SetExpr::Select(Box::new(self.block(1, &[], Some(&sig))));
        for _ in 1..arms {
            let right = SetExpr::Select(Box::new(self.block(1, &[], Some(&sig))));
            body = SetExpr::SetOp {
                op: match self.rng.gen_range(0u32..3) {
                    0 => SetOpKind::Union,
                    1 => SetOpKind::Except,
                    _ => SetOpKind::Intersect,
                },
                all: self.rng.gen_ratio(1, 2),
                left: Box::new(body),
                right: Box::new(right),
            };
        }
        body
    }

    fn sig_ty(&mut self) -> Ty {
        match self.rng.gen_range(0u32..10) {
            0..=4 => Ty::Int,
            5..=8 => Ty::Double,
            _ => Ty::Str,
        }
    }

    fn fresh_alias(&mut self) -> String {
        self.aliases += 1;
        format!("t{}", self.aliases)
    }

    fn pick_rel(&mut self, prefer_view: bool) -> &'static Rel {
        if prefer_view {
            let views: Vec<&Rel> = RELS.iter().filter(|r| r.view).collect();
            views[self.rng.gen_range(0..views.len())]
        } else {
            &RELS[self.rng.gen_range(0..RELS.len())]
        }
    }

    /// One SELECT block. `outer` is the enclosing scope (for
    /// correlated subqueries); `sig` forces the output column types
    /// (set-operation arms must align).
    fn block(&mut self, depth: u32, outer: &[Binding], sig: Option<&[Ty]>) -> SelectBlock {
        let nrels = if depth == 0 {
            1
        } else {
            match self.rng.gen_range(0u32..100) {
                0..=49 => 1,
                50..=84 => 2,
                _ => 3,
            }
        };

        // Single-relation blocks prefer views: probed with a key
        // equality below, they are the shapes EMST rewrites.
        let prefer_view = nrels == 1 && self.rng.gen_ratio(2, 5);
        let mut bindings = Vec::new();
        let mut from = Vec::new();
        let mut join_preds = Vec::new();
        for i in 0..nrels {
            // A derived table now and then (never as a join's right
            // side below, so the printer's left-deep restriction
            // holds).
            if depth > 0 && i == 0 && nrels == 1 && self.rng.gen_ratio(1, 10) {
                let (tref, binding) = self.derived(depth - 1);
                from.push(tref);
                bindings.push(binding);
                continue;
            }
            let rel = self.pick_rel(prefer_view);
            let alias = self.fresh_alias();
            let binding = Binding {
                alias: alias.clone(),
                cols: rel.cols.iter().map(BCol::from).collect(),
            };
            if i > 0 {
                let prev = &bindings[self.rng.gen_range(0..bindings.len())];
                if let Some(eq) = self.join_eq(prev, &binding) {
                    join_preds.push(eq);
                }
            }
            from.push(TableRef::Named {
                name: rel.name.to_string(),
                alias: Some(alias),
            });
            bindings.push(binding);
        }

        // Occasionally turn a two-table comma join into a LEFT JOIN —
        // its right side produces NULL-padded rows, food for 3VL.
        if nrels == 2 && from.len() == 2 && self.rng.gen_ratio(1, 4) {
            let on = join_preds.pop().unwrap_or_else(|| {
                self.join_eq(&bindings[0], &bindings[1])
                    .unwrap_or(Expr::Literal(Value::Bool(true)))
            });
            let right = from.pop().unwrap();
            let left = from.pop().unwrap();
            from.push(TableRef::LeftJoin {
                left: Box::new(left),
                right: Box::new(right),
                on,
            });
        }

        let visible: Vec<Binding> = outer.iter().chain(bindings.iter()).cloned().collect();

        // Extra predicates. Views get a key-equality probe first. In
        // multi-relation blocks, join equalities stay conjunctive and
        // so does any subquery-bearing extra: OR-ing away the join
        // selectivity turns the block into a cross product whose
        // per-tuple subquery evaluation (and multi-million-row result
        // bags) the oracle cannot afford to run six times.
        let multi = bindings.len() > 1;
        let mut and_preds = join_preds;
        let mut mixable = Vec::new();
        if prefer_view && self.rng.gen_ratio(3, 4) {
            if let Some((alias, col)) = self.pick_col(&bindings, |c| c.family.is_some()) {
                let lit = self.int_lit(col.lo, col.hi);
                mixable.push(Expr::bin(BinOp::Eq, Expr::qcol(alias, col.name), lit));
            }
        }
        let extra = match self.rng.gen_range(0u32..10) {
            0..=2 => 0,
            3..=7 => 1,
            _ => 2,
        };
        for _ in 0..extra {
            let p = self.pred(&bindings, &visible, depth);
            if multi && has_subquery(&p) {
                and_preds.push(p);
            } else {
                mixable.push(p);
            }
        }
        if let Some(mixed) = self.conjoin(mixable) {
            and_preds.push(mixed);
        }
        let where_clause = and_all(and_preds);

        // Aggregate block?
        let grouped = sig.is_none() && self.rng.gen_ratio(1, 4);
        let (items, group_by, having) = if grouped {
            self.grouped_items(&bindings)
        } else {
            (self.items(&bindings, sig), Vec::new(), None)
        };

        SelectBlock {
            distinct: self.rng.gen_ratio(1, 4),
            items,
            from,
            where_clause,
            group_by,
            having,
        }
    }

    /// `(SELECT c AS c0, ... FROM rel [WHERE p]) AS tN`.
    fn derived(&mut self, depth: u32) -> (TableRef, Binding) {
        let rel = self.pick_rel(false);
        let alias = self.fresh_alias();
        let inner_alias = self.fresh_alias();
        let inner_binding = Binding {
            alias: inner_alias.clone(),
            cols: rel.cols.iter().map(BCol::from).collect(),
        };
        let n = 1 + usize::from(self.rng.gen_ratio(1, 2));
        let mut items = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            let c = inner_binding.cols[self.rng.gen_range(0..inner_binding.cols.len())].clone();
            items.push(SelectItem::Expr {
                expr: Expr::qcol(inner_alias.clone(), c.name.clone()),
                alias: Some(format!("c{i}")),
            });
            cols.push(BCol {
                name: format!("c{i}"),
                ..c
            });
        }
        let where_clause = if self.rng.gen_ratio(1, 2) {
            let locals = vec![inner_binding.clone()];
            Some(self.pred(&locals, &locals.clone(), depth))
        } else {
            None
        };
        let query = Query {
            with: None,
            body: SetExpr::Select(Box::new(SelectBlock {
                distinct: self.rng.gen_ratio(1, 5),
                items,
                from: vec![TableRef::Named {
                    name: rel.name.to_string(),
                    alias: Some(inner_alias),
                }],
                where_clause,
                group_by: Vec::new(),
                having: None,
            })),
        };
        (
            TableRef::Derived {
                query,
                alias: alias.clone(),
            },
            Binding { alias, cols },
        )
    }

    /// Equality between same-family key columns of two bindings (falls
    /// back to any Int pair).
    fn join_eq(&mut self, a: &Binding, b: &Binding) -> Option<Expr> {
        let mut pairs = Vec::new();
        for ca in a.cols.iter().filter(|c| c.family.is_some()) {
            for cb in b.cols.iter().filter(|c| c.family == ca.family) {
                pairs.push((ca.clone(), cb.clone()));
            }
        }
        if pairs.is_empty() {
            let ca = a.cols.iter().find(|c| c.ty == Ty::Int)?;
            let cb = b.cols.iter().find(|c| c.ty == Ty::Int)?;
            pairs.push((ca.clone(), cb.clone()));
        }
        let (ca, cb) = pairs[self.rng.gen_range(0..pairs.len())].clone();
        Some(Expr::bin(
            BinOp::Eq,
            Expr::qcol(a.alias.clone(), ca.name),
            Expr::qcol(b.alias.clone(), cb.name),
        ))
    }

    fn conjoin(&mut self, preds: Vec<Expr>) -> Option<Expr> {
        let mut it = preds.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, p| {
            // A dash of OR keeps the boolean structure interesting.
            let op = if self.rng.gen_ratio(1, 8) {
                BinOp::Or
            } else {
                BinOp::And
            };
            Expr::bin(op, acc, p)
        }))
    }

    /// Plain (non-aggregate) select list.
    fn items(&mut self, bindings: &[Binding], sig: Option<&[Ty]>) -> Vec<SelectItem> {
        if let Some(sig) = sig {
            return sig
                .iter()
                .enumerate()
                .map(|(i, ty)| {
                    let expr = match self.pick_col(bindings, |c| c.ty == *ty) {
                        Some((alias, col)) => Expr::qcol(alias, col.name),
                        None => self.lit(*ty, 0, 100),
                    };
                    SelectItem::Expr {
                        expr,
                        alias: Some(format!("c{i}")),
                    }
                })
                .collect();
        }
        let n = self.rng.gen_range(1usize..4);
        (0..n)
            .map(|i| {
                let expr = match self.rng.gen_range(0u32..100) {
                    0..=69 => self.any_col(bindings),
                    70..=81 => {
                        // Small arithmetic; addition/subtraction only
                        // (division is excluded by design: divide-by-
                        // zero errors are evaluation-order dependent).
                        let col = self.num_col(bindings);
                        let lit = Expr::Literal(Value::Int(self.rng.gen_range(0i64..10)));
                        let op = if self.rng.gen_ratio(1, 2) {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        Expr::bin(op, col, lit)
                    }
                    82..=89 => self.scalar_agg_subquery(bindings),
                    _ => {
                        let ty = self.sig_ty();
                        self.lit(ty, 0, 100)
                    }
                };
                SelectItem::Expr {
                    expr,
                    alias: Some(format!("c{i}")),
                }
            })
            .collect()
    }

    /// GROUP BY items: grouping columns, aggregates, optional HAVING.
    fn grouped_items(
        &mut self,
        bindings: &[Binding],
    ) -> (Vec<SelectItem>, Vec<Expr>, Option<Expr>) {
        let nkeys = 1 + usize::from(self.rng.gen_ratio(1, 4));
        let mut group_by = Vec::new();
        let mut items = Vec::new();
        for i in 0..nkeys {
            let key = self.any_col(bindings);
            if group_by.contains(&key) {
                continue;
            }
            items.push(SelectItem::Expr {
                expr: key.clone(),
                alias: Some(format!("k{i}")),
            });
            group_by.push(key);
        }
        let naggs = 1 + usize::from(self.rng.gen_ratio(1, 3));
        let mut aggs = Vec::new();
        for i in 0..naggs {
            let agg = self.agg(bindings);
            items.push(SelectItem::Expr {
                expr: agg.clone(),
                alias: Some(format!("a{i}")),
            });
            aggs.push(agg);
        }
        let having = if self.rng.gen_ratio(2, 5) {
            let agg = aggs[self.rng.gen_range(0..aggs.len())].clone();
            Some(if self.rng.gen_ratio(1, 5) {
                Expr::IsNull {
                    expr: Box::new(agg),
                    negated: self.rng.gen_ratio(1, 2),
                }
            } else {
                let lit = Expr::Literal(Value::Int(self.rng.gen_range(0i64..100)));
                let op = self.cmp_op();
                Expr::bin(op, agg, lit)
            })
        } else {
            None
        };
        (items, group_by, having)
    }

    fn agg(&mut self, bindings: &[Binding]) -> Expr {
        match self.rng.gen_range(0u32..10) {
            0..=1 => Expr::Agg {
                func: AggFunc::Count,
                distinct: false,
                arg: None,
            },
            2 => {
                let col = self.any_col(bindings);
                Expr::Agg {
                    func: AggFunc::Count,
                    distinct: self.rng.gen_ratio(1, 2),
                    arg: Some(Box::new(col)),
                }
            }
            n => {
                let func = match n {
                    3..=4 => AggFunc::Sum,
                    5..=6 => AggFunc::Avg,
                    7..=8 => AggFunc::Min,
                    _ => AggFunc::Max,
                };
                Expr::Agg {
                    func,
                    distinct: self.rng.gen_ratio(1, 10),
                    arg: Some(Box::new(self.num_col(bindings))),
                }
            }
        }
    }

    /// `(SELECT AGG(col) FROM rel [WHERE rel.key = outer.key])` — the
    /// Example 1.1 shape; aggregate subqueries return exactly one row,
    /// so they never trip the scalar-cardinality runtime error.
    fn scalar_agg_subquery(&mut self, outer: &[Binding]) -> Expr {
        let prefer_view = self.rng.gen_ratio(1, 2);
        let rel = self.pick_rel(prefer_view);
        let alias = self.fresh_alias();
        let binding = Binding {
            alias: alias.clone(),
            cols: rel.cols.iter().map(BCol::from).collect(),
        };
        let locals = vec![binding];
        let agg = self.agg(&locals);
        let where_clause = if self.rng.gen_ratio(3, 5) {
            self.correlation(&locals, outer)
        } else {
            None
        };
        Expr::ScalarSubquery(Box::new(Query {
            with: None,
            body: SetExpr::Select(Box::new(SelectBlock {
                distinct: false,
                items: vec![SelectItem::Expr {
                    expr: agg,
                    alias: None,
                }],
                from: vec![TableRef::Named {
                    name: rel.name.to_string(),
                    alias: Some(alias),
                }],
                where_clause,
                group_by: Vec::new(),
                having: None,
            })),
        }))
    }

    /// An equality correlating a local binding to an outer one
    /// (same-family key columns).
    fn correlation(&mut self, locals: &[Binding], outer: &[Binding]) -> Option<Expr> {
        let mut pairs = Vec::new();
        for lb in locals {
            for lc in lb.cols.iter().filter(|c| c.family.is_some()) {
                for ob in outer {
                    for oc in ob.cols.iter().filter(|c| c.family == lc.family) {
                        pairs.push((
                            (lb.alias.clone(), lc.name.clone()),
                            (ob.alias.clone(), oc.name.clone()),
                        ));
                    }
                }
            }
        }
        if pairs.is_empty() {
            return None;
        }
        let ((la, lc), (oa, oc)) = pairs[self.rng.gen_range(0..pairs.len())].clone();
        Some(Expr::bin(BinOp::Eq, Expr::qcol(la, lc), Expr::qcol(oa, oc)))
    }

    /// One predicate over `local` bindings; subqueries may correlate
    /// against anything in `visible`.
    fn pred(&mut self, local: &[Binding], visible: &[Binding], depth: u32) -> Expr {
        let roll = self.rng.gen_range(0u32..100);
        match roll {
            0..=29 => self.cmp_pred(local, visible, depth),
            30..=39 => {
                let (alias, col) = self
                    .pick_col(local, |c| c.nullable)
                    .or_else(|| self.pick_col(local, |_| true))
                    .expect("bindings never empty");
                Expr::IsNull {
                    expr: Box::new(Expr::qcol(alias, col.name)),
                    negated: self.rng.gen_ratio(1, 2),
                }
            }
            40..=47 => {
                let (alias, col) = self
                    .pick_col(local, |c| c.ty != Ty::Str)
                    .or_else(|| self.pick_col(local, |_| true))
                    .expect("bindings never empty");
                let (lo, hi) = (col.lo, col.hi);
                let a = self.lit(col.ty, lo, hi);
                let b = self.lit(col.ty, lo, hi);
                Expr::Between {
                    expr: Box::new(Expr::qcol(alias, col.name)),
                    low: Box::new(a),
                    high: Box::new(b),
                    negated: self.rng.gen_ratio(1, 3),
                }
            }
            48..=55 => match self.pick_col(local, |c| c.ty == Ty::Str) {
                Some((alias, col)) => Expr::Like {
                    expr: Box::new(Expr::qcol(alias, col.name)),
                    pattern: PATTERNS[self.rng.gen_range(0..PATTERNS.len())].to_string(),
                    negated: self.rng.gen_ratio(1, 3),
                },
                None => self.cmp_pred(local, visible, depth),
            },
            56..=62 => {
                let (alias, col) = self
                    .pick_col(local, |c| c.ty == Ty::Int)
                    .or_else(|| self.pick_col(local, |_| true))
                    .expect("bindings never empty");
                let n = self.rng.gen_range(2usize..5);
                let mut list: Vec<Expr> = (0..n).map(|_| self.int_lit(col.lo, col.hi)).collect();
                // `x [NOT] IN (.., NULL)` — the classic 3VL trap.
                if self.rng.gen_ratio(1, 4) {
                    list.push(Expr::Literal(Value::Null));
                }
                Expr::InList {
                    expr: Box::new(Expr::qcol(alias, col.name)),
                    list,
                    negated: self.rng.gen_ratio(2, 5),
                }
            }
            63..=72 if depth > 0 => self.in_subquery(local, visible, depth),
            73..=82 if depth > 0 => self.exists(local, visible, depth),
            83..=88 if depth > 0 => self.quantified(local, visible, depth),
            89.. if depth > 0 => {
                let a = self.pred(local, visible, depth - 1);
                let b = self.pred(local, visible, depth - 1);
                let joined = match self.rng.gen_range(0u32..3) {
                    0 => Expr::bin(BinOp::And, a, b),
                    1 => Expr::bin(BinOp::Or, a, b),
                    _ => Expr::Not(Box::new(Expr::bin(BinOp::Or, a, b))),
                };
                if self.rng.gen_ratio(1, 4) {
                    Expr::Not(Box::new(joined))
                } else {
                    joined
                }
            }
            _ => self.cmp_pred(local, visible, depth),
        }
    }

    fn cmp_op(&mut self) -> BinOp {
        match self.rng.gen_range(0u32..6) {
            0 => BinOp::Eq,
            1 => BinOp::Neq,
            2 => BinOp::Lt,
            3 => BinOp::Le,
            4 => BinOp::Gt,
            _ => BinOp::Ge,
        }
    }

    fn cmp_pred(&mut self, local: &[Binding], visible: &[Binding], depth: u32) -> Expr {
        let (alias, col) = self
            .pick_col(local, |_| true)
            .expect("bindings never empty");
        let lhs = Expr::qcol(alias, col.name.clone());
        let op = self.cmp_op();
        let rhs = match self.rng.gen_range(0u32..100) {
            // NULL comparand: always UNKNOWN, always interesting.
            0..=9 => Expr::Literal(Value::Null),
            10..=59 => self.lit(col.ty, col.lo, col.hi),
            60..=89 => match self.pick_col(local, |c| c.ty == col.ty) {
                Some((a2, c2)) => Expr::qcol(a2, c2.name),
                None => self.lit(col.ty, col.lo, col.hi),
            },
            _ if depth > 0 && col.ty != Ty::Str => {
                let _ = visible;
                self.scalar_agg_subquery(visible)
            }
            _ => self.lit(col.ty, col.lo, col.hi),
        };
        Expr::bin(op, lhs, rhs)
    }

    /// A one-column subquery of type `ty`, correlated half the time.
    fn sub_select(
        &mut self,
        ty: Ty,
        family: Option<Family>,
        visible: &[Binding],
        depth: u32,
    ) -> Query {
        let candidates: Vec<&Rel> = RELS
            .iter()
            .filter(|r| {
                r.cols
                    .iter()
                    .any(|c| c.ty == ty && (family.is_none() || c.family == family))
            })
            .collect();
        let rel = candidates[self.rng.gen_range(0..candidates.len())];
        let alias = self.fresh_alias();
        let binding = Binding {
            alias: alias.clone(),
            cols: rel.cols.iter().map(BCol::from).collect(),
        };
        let matching: Vec<&BCol> = binding
            .cols
            .iter()
            .filter(|c| c.ty == ty && (family.is_none() || c.family == family))
            .collect();
        let col = matching[self.rng.gen_range(0..matching.len())].clone();
        let locals = vec![binding];
        let mut preds = Vec::new();
        if self.rng.gen_ratio(1, 2) {
            if let Some(c) = self.correlation(&locals, visible) {
                preds.push(c);
            }
        }
        if self.rng.gen_ratio(2, 5) {
            let p = self.pred(&locals, visible, depth.saturating_sub(1));
            preds.push(p);
        }
        let where_clause = self.conjoin(preds);
        Query {
            with: None,
            body: SetExpr::Select(Box::new(SelectBlock {
                distinct: self.rng.gen_ratio(1, 5),
                items: vec![SelectItem::Expr {
                    expr: Expr::qcol(locals[0].alias.clone(), col.name),
                    alias: None,
                }],
                from: vec![TableRef::Named {
                    name: rel.name.to_string(),
                    alias: Some(alias),
                }],
                where_clause,
                group_by: Vec::new(),
                having: None,
            })),
        }
    }

    fn in_subquery(&mut self, local: &[Binding], visible: &[Binding], depth: u32) -> Expr {
        let (alias, col) = self
            .pick_col(local, |_| true)
            .expect("bindings never empty");
        let query = self.sub_select(col.ty, col.family, visible, depth);
        Expr::InSubquery {
            expr: Box::new(Expr::qcol(alias, col.name)),
            query: Box::new(query),
            negated: self.rng.gen_ratio(1, 2),
        }
    }

    fn exists(&mut self, _local: &[Binding], visible: &[Binding], depth: u32) -> Expr {
        let rel = self.pick_rel(false);
        let alias = self.fresh_alias();
        let binding = Binding {
            alias: alias.clone(),
            cols: rel.cols.iter().map(BCol::from).collect(),
        };
        let locals = vec![binding];
        let mut preds = Vec::new();
        if self.rng.gen_ratio(4, 5) {
            if let Some(c) = self.correlation(&locals, visible) {
                preds.push(c);
            }
        }
        if self.rng.gen_ratio(2, 5) {
            let p = self.pred(&locals, visible, depth.saturating_sub(1));
            preds.push(p);
        }
        let where_clause = self.conjoin(preds);
        Expr::Exists {
            query: Box::new(Query {
                with: None,
                body: SetExpr::Select(Box::new(SelectBlock {
                    distinct: false,
                    items: vec![SelectItem::Expr {
                        expr: Expr::Literal(Value::Int(1)),
                        alias: None,
                    }],
                    from: vec![TableRef::Named {
                        name: rel.name.to_string(),
                        alias: Some(alias),
                    }],
                    where_clause,
                    group_by: Vec::new(),
                    having: None,
                })),
            }),
            negated: self.rng.gen_ratio(2, 5),
        }
    }

    fn quantified(&mut self, local: &[Binding], visible: &[Binding], depth: u32) -> Expr {
        let (alias, col) = self
            .pick_col(local, |c| c.ty != Ty::Str)
            .or_else(|| self.pick_col(local, |_| true))
            .expect("bindings never empty");
        let query = self.sub_select(col.ty, col.family, visible, depth);
        Expr::QuantifiedCmp {
            expr: Box::new(Expr::qcol(alias, col.name)),
            op: self.cmp_op(),
            quantifier: if self.rng.gen_ratio(1, 2) {
                Quantified::Any
            } else {
                Quantified::All
            },
            query: Box::new(query),
        }
    }

    fn pick_col(
        &mut self,
        bindings: &[Binding],
        filter: impl Fn(&BCol) -> bool,
    ) -> Option<(String, BCol)> {
        let mut all = Vec::new();
        for b in bindings {
            for c in &b.cols {
                if filter(c) {
                    all.push((b.alias.clone(), c.clone()));
                }
            }
        }
        if all.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..all.len());
        Some(all.swap_remove(i))
    }

    fn any_col(&mut self, bindings: &[Binding]) -> Expr {
        let (alias, col) = self
            .pick_col(bindings, |_| true)
            .expect("bindings never empty");
        Expr::qcol(alias, col.name)
    }

    fn num_col(&mut self, bindings: &[Binding]) -> Expr {
        let (alias, col) = self
            .pick_col(bindings, |c| c.ty != Ty::Str)
            .or_else(|| self.pick_col(bindings, |_| true))
            .expect("bindings never empty");
        Expr::qcol(alias, col.name)
    }

    /// An integer literal in (or just outside) the column's range.
    fn int_lit(&mut self, lo: i64, hi: i64) -> Expr {
        let hi = hi.max(lo + 1);
        let v = match self.rng.gen_range(0u32..10) {
            0..=6 => self.rng.gen_range(lo..hi + 1),
            7 => lo - 1,
            8 => hi + 1,
            _ => self.rng.gen_range(-3i64..1000),
        };
        // Negative literals print as `-n`, which parses as `Neg(n)` —
        // build that shape directly so ASTs round-trip.
        if v < 0 {
            Expr::Neg(Box::new(Expr::Literal(Value::Int(-v))))
        } else {
            Expr::Literal(Value::Int(v))
        }
    }

    fn lit(&mut self, ty: Ty, lo: i64, hi: i64) -> Expr {
        match ty {
            Ty::Int => self.int_lit(lo, hi),
            Ty::Double => {
                let hi = hi.max(lo + 1);
                let raw = self.rng.gen_range(lo as f64..hi as f64);
                // Quarter-rounded: prints compactly, parses exactly.
                Expr::Literal(Value::Double((raw * 4.0).round() / 4.0))
            }
            Ty::Str => Expr::Literal(Value::str(STRINGS[self.rng.gen_range(0..STRINGS.len())])),
        }
    }
}

/// Turn an integer literal (or its negation) into the equal DOUBLE.
fn as_double(e: &mut Expr) {
    match e {
        Expr::Literal(Value::Int(v)) => *e = Expr::Literal(Value::Double(*v as f64)),
        Expr::Neg(inner) => as_double(inner),
        _ => {}
    }
}

/// Whether the expression contains any subquery (at any depth within
/// the expression itself; nested query bodies count as opaque).
fn has_subquery(e: &Expr) -> bool {
    match e {
        Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::QuantifiedCmp { .. }
        | Expr::ScalarSubquery(_) => true,
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) | Expr::Like { .. } => false,
        Expr::Binary { left, right, .. } => has_subquery(left) || has_subquery(right),
        Expr::Neg(inner) | Expr::Not(inner) => has_subquery(inner),
        Expr::IsNull { expr, .. } => has_subquery(expr),
        Expr::Between {
            expr, low, high, ..
        } => has_subquery(expr) || has_subquery(low) || has_subquery(high),
        Expr::InList { expr, list, .. } => has_subquery(expr) || list.iter().any(has_subquery),
        Expr::Agg { .. } => false,
    }
}

/// Plain conjunction, no random OR: used for the predicate groups
/// whose selectivity the generator must not gamble away.
fn and_all(preds: Vec<Expr>) -> Option<Expr> {
    let mut it = preds.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, p| Expr::bin(BinOp::And, acc, p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_sql::{parse_query, query_sql};

    #[test]
    fn deterministic_per_seed_and_case() {
        for case in 0..50 {
            let a = generate(1, case);
            let b = generate(1, case);
            assert_eq!(a, b, "case {case} not deterministic");
        }
        // Different cases differ (overwhelmingly likely).
        let distinct: std::collections::HashSet<String> =
            (0..50).map(|c| query_sql(&generate(1, c))).collect();
        assert!(
            distinct.len() > 40,
            "only {} distinct queries",
            distinct.len()
        );
    }

    #[test]
    fn generated_queries_round_trip_through_printer() {
        for case in 0..300 {
            let q = generate(7, case);
            let sql = query_sql(&q);
            let back = parse_query(&sql)
                .unwrap_or_else(|e| panic!("case {case}: {sql:?} fails to re-parse: {e}"));
            assert_eq!(q, back, "case {case}: round trip changed AST for {sql}");
        }
    }
}
