//! Logical query plans.
//!
//! Queries are hand-lowered into this small algebra (TPC-H needs no SQL
//! parser); the per-scheme physical planner then chooses access paths and
//! join/aggregation strategies. Join nodes carry the *foreign key* they
//! follow (by name) — the same declaration Algorithm 2 consumed — which is
//! what lets the BDCC planner recognize co-clustered joins and propagate
//! selections along dimension paths.

use std::collections::BTreeSet;

use crate::expr::Expr;
use crate::ops::agg::AggSpec;
use crate::ops::join::JoinType;
use crate::ops::sort::SortKey;
use crate::pred::ColPredicate;

/// Which side of a join holds the *referencing* table of its foreign key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FkSide {
    Left,
    Right,
}

/// A logical plan node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Base-table access. `alias` replaces the column-name prefix (the part
    /// up to the first `_`), e.g. alias `l2` turns `l_orderkey` into
    /// `l2_orderkey` — used by self joins.
    Scan {
        scan_id: usize,
        table: String,
        columns: Vec<String>,
        predicates: Vec<ColPredicate>,
        alias: Option<String>,
    },
    Filter {
        input: Box<Node>,
        predicate: Expr,
    },
    Project {
        input: Box<Node>,
        exprs: Vec<(Expr, String)>,
    },
    Join {
        left: Box<Node>,
        right: Box<Node>,
        on: Vec<(String, String)>,
        join_type: JoinType,
        /// The declared foreign key this join follows, if any, and which
        /// side references.
        fk: Option<(String, FkSide)>,
        residual: Option<Expr>,
    },
    Aggregate {
        input: Box<Node>,
        group_by: Vec<String>,
        aggs: Vec<AggSpec>,
    },
    Sort {
        input: Box<Node>,
        keys: Vec<SortKey>,
        limit: Option<usize>,
    },
}

/// The columns read above a plan node, by name: all of its output (the
/// default, what the root of a plan passes down), or only the named ones.
/// `Planner::build` hands it down the tree ([`Node::input_needs`]); a hash
/// join emits only what it names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Needed(Option<BTreeSet<String>>);

impl Needed {
    /// Only `names`.
    pub fn only<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Needed {
        Needed(Some(names.into_iter().map(Into::into).collect()))
    }

    /// Is the column `name` read above?
    pub fn contains(&self, name: &str) -> bool {
        self.0.as_ref().is_none_or(|s| s.contains(name))
    }

    /// These columns and `names`.
    pub(crate) fn with(&self, names: impl IntoIterator<Item = String>) -> Needed {
        Needed(self.0.clone().map(|s| s.into_iter().chain(names).collect()))
    }
}

impl Node {
    /// All scan ids in this subtree.
    pub fn scan_ids(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit_scans(&mut |scan_id, _, _| out.push(scan_id));
        out
    }

    /// The columns this node reads of its input (of each input, for a
    /// join: names are unique across its sides), given the columns
    /// `needed` above it: a filter, a join or a sort reads what is read
    /// above plus its predicate, keys and residual; a projection or an
    /// aggregate only what its expressions, keys and inputs name.
    pub fn input_needs(&self, needed: &Needed) -> Needed {
        let (exprs, names, reads_above): (Vec<&Expr>, Vec<&String>, bool) = match self {
            Node::Scan { .. } => (vec![], vec![], true),
            Node::Filter { predicate, .. } => (vec![predicate], vec![], true),
            Node::Project { exprs, .. } => (exprs.iter().map(|(e, _)| e).collect(), vec![], false),
            Node::Join { on, residual, .. } => {
                (residual.iter().collect(), on.iter().flat_map(|(l, r)| [l, r]).collect(), true)
            }
            Node::Aggregate { group_by, aggs, .. } => {
                (aggs.iter().map(|a| &a.input).collect(), group_by.iter().collect(), false)
            }
            Node::Sort { keys, .. } => (vec![], keys.iter().map(|k| &k.column).collect(), true),
        };
        let mut names: Vec<String> = names.into_iter().cloned().collect();
        for e in exprs {
            e.visit_columns(&mut |c| {
                names.extend(if let Expr::Col(n) = c { Some(n) } else { None }.cloned())
            });
        }
        match reads_above {
            true => needed.with(names),
            false => Needed::only(names),
        }
    }

    /// Visit every scan: `(scan_id, table name, alias)`.
    pub fn visit_scans(&self, f: &mut impl FnMut(usize, &str, Option<&str>)) {
        match self {
            Node::Scan { scan_id, table, alias, .. } => f(*scan_id, table, alias.as_deref()),
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Sort { input, .. } => input.visit_scans(f),
            Node::Join { left, right, .. } => {
                left.visit_scans(f);
                right.visit_scans(f);
            }
        }
    }
}

/// Fluent builder over [`Node`]; assigns unique scan ids.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    next_scan: std::cell::Cell<usize>,
}

impl PlanBuilder {
    pub fn new() -> PlanBuilder {
        PlanBuilder::default()
    }

    /// Scan `table`, reading `columns` under `predicates`.
    pub fn scan(&self, table: &str, columns: &[&str], predicates: Vec<ColPredicate>) -> Node {
        let id = self.next_scan.get();
        self.next_scan.set(id + 1);
        Node::Scan {
            scan_id: id,
            table: table.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            predicates,
            alias: None,
        }
    }

    /// Scan with a column-prefix alias (self joins).
    pub fn scan_as(
        &self,
        table: &str,
        alias: &str,
        columns: &[&str],
        predicates: Vec<ColPredicate>,
    ) -> Node {
        match self.scan(table, columns, predicates) {
            Node::Scan { scan_id, table, columns, predicates, .. } => {
                Node::Scan { scan_id, table, columns, predicates, alias: Some(alias.to_string()) }
            }
            _ => unreachable!(),
        }
    }
}

/// Join helper: `left ⋈ right` on equal columns, following `fk`.
pub fn join(left: Node, right: Node, on: &[(&str, &str)], fk: Option<(&str, FkSide)>) -> Node {
    join_full(left, right, on, JoinType::Inner, fk, None)
}

/// Fully general join.
pub fn join_full(
    left: Node,
    right: Node,
    on: &[(&str, &str)],
    join_type: JoinType,
    fk: Option<(&str, FkSide)>,
    residual: Option<Expr>,
) -> Node {
    Node::Join {
        left: Box::new(left),
        right: Box::new(right),
        on: on.iter().map(|(l, r)| (l.to_string(), r.to_string())).collect(),
        join_type,
        fk: fk.map(|(n, s)| (n.to_string(), s)),
        residual,
    }
}

/// Filter helper.
pub fn filter(input: Node, predicate: Expr) -> Node {
    Node::Filter { input: Box::new(input), predicate }
}

/// Projection helper.
pub fn project(input: Node, exprs: Vec<(Expr, &str)>) -> Node {
    Node::Project {
        input: Box::new(input),
        exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
    }
}

/// Aggregation helper.
pub fn aggregate(input: Node, group_by: &[&str], aggs: Vec<AggSpec>) -> Node {
    Node::Aggregate {
        input: Box::new(input),
        group_by: group_by.iter().map(|s| s.to_string()).collect(),
        aggs,
    }
}

/// Sort (with optional limit = top-N) helper.
pub fn sort(input: Node, keys: Vec<SortKey>, limit: Option<usize>) -> Node {
    Node::Sort { input: Box::new(input), keys, limit }
}

/// Rename a column name under a scan alias: the prefix before the first
/// `_` is replaced (`l_orderkey` + `l2` → `l2_orderkey`).
pub fn alias_column(alias: &str, column: &str) -> String {
    match column.find('_') {
        Some(i) => format!("{alias}{}", &column[i..]),
        None => format!("{alias}_{column}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_unique_scan_ids() {
        let b = PlanBuilder::new();
        let s1 = b.scan("t", &["a"], vec![]);
        let s2 = b.scan("t", &["a"], vec![]);
        let j = join(s1, s2, &[("a", "a")], None);
        assert_eq!(j.scan_ids(), vec![0, 1]);
    }

    #[test]
    fn alias_renaming() {
        assert_eq!(alias_column("l2", "l_orderkey"), "l2_orderkey");
        assert_eq!(alias_column("x", "plain"), "x_plain");
    }

    #[test]
    fn visit_scans_reaches_all_leaves() {
        let b = PlanBuilder::new();
        let plan = aggregate(
            join(
                b.scan("a", &["x"], vec![]),
                filter(b.scan_as("b", "bb", &["y"], vec![]), Expr::lit(1)),
                &[("x", "bb_y")],
                None,
            ),
            &["x"],
            vec![],
        );
        let mut seen = Vec::new();
        plan.visit_scans(&mut |id, t, a| seen.push((id, t.to_string(), a.map(String::from))));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].2, Some("bb".to_string()));
    }
}
