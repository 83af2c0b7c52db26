//! Golden plan shapes: what the planner decides for the 22 TPC-H queries on
//! Plain, PK and BDCC at SF 0.01, pinned byte for byte in
//! `plan_shapes.golden` beside this file.
//!
//! Every plan a query hands to `run` is recorded (`QueryCtx::recording`)
//! and executed once more under `explain_analyze`, serially and with
//! spilling pinned off, so the forced-spill configurations see the same
//! plans. The text keeps the operator tree, each operator's label and
//! output rows, and every annotation of the decision log (scan group
//! selection, encodings, kernels, build sides, sandwich keys or the reason
//! there is none). It leaves out wall times, memory, I/O and the planning
//! times on the root (`plan.*`), which differ between two runs of the same
//! binary.
//!
//! A planner refactor that must not change a decision keeps this file
//! unchanged. On a mismatch the test writes the actual text to
//! `target/plan_shapes.actual` and fails on the first line that differs; a
//! change that means to move a plan copies that file over the golden one.

use std::fmt::Write as _;
use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{alias_column, explain_analyze, Needed, Node, ProfileNode, SpillMode};

const SF: f64 = 0.01;
const GOLDEN: &str = include_str!("plan_shapes.golden");
const ACTUAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/plan_shapes.actual");

fn render(node: &ProfileNode, depth: usize, out: &mut String) {
    let _ = write!(out, "{:width$}{} rows={}", "", node.label, node.rows_out, width = depth * 2);
    for (key, value) in &node.annotations {
        if !key.starts_with("plan.") {
            let _ = write!(out, " {key}={value}");
        }
    }
    out.push('\n');
    for child in &node.children {
        render(child, depth + 1, out);
    }
}

fn plan_shapes() -> String {
    let db = bdcc::tpch::generate(&GenConfig::new(SF));
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db))),
        ("pk", Arc::new(pk_scheme(&db).expect("pk scheme"))),
        ("bdcc", Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))),
    ];
    let mut out = String::new();
    for (scheme, sdb) in &schemes {
        for q in all_queries() {
            let ctx = QueryCtx::recording(QueryContext::new(Arc::clone(sdb)), SF);
            (q.run)(&ctx).expect("query runs");
            for (i, plan) in ctx.take_plans().iter().enumerate() {
                let qc = QueryContext::new(Arc::clone(sdb)).with_spill(SpillMode::Off);
                let analyzed = explain_analyze(&qc, plan).expect("explain analyze");
                let _ = writeln!(out, "== Q{:02} {scheme} plan {i}", q.id);
                render(&analyzed.profile.root, 0, &mut out);
            }
        }
    }
    out
}

#[test]
fn plans_match_the_golden_shapes() {
    let actual = plan_shapes();
    if actual == GOLDEN {
        return;
    }
    let _ = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/target"));
    let written = std::fs::write(ACTUAL, &actual).is_ok();
    let mut expected = GOLDEN.lines();
    for (n, line) in actual.lines().enumerate() {
        let want = expected.next();
        assert_eq!(
            Some(line),
            want,
            "plan shapes differ at line {} (actual text {} {ACTUAL})",
            n + 1,
            if written { "in" } else { "could not be written to" },
        );
    }
    panic!("the golden file has more lines than the {} actual ones", actual.lines().count());
}

/// The columns of every scan in `node` that nothing above it reads
/// (`needed` is what is read above `node`), as `query scan-id table.column`.
fn unread_scan_columns(node: &Node, needed: &Needed, at: &str, out: &mut Vec<String>) {
    let inputs = node.input_needs(needed);
    match node {
        Node::Scan { scan_id, table, columns, alias, .. } => {
            for c in columns {
                let name = alias.as_deref().map_or_else(|| c.clone(), |a| alias_column(a, c));
                if !needed.contains(&name) {
                    out.push(format!("{at} scan {scan_id} {table}.{c}"));
                }
            }
        }
        Node::Join { left, right, .. } => {
            unread_scan_columns(left, &inputs, at, out);
            unread_scan_columns(right, &inputs, at, out);
        }
        Node::Filter { input, .. }
        | Node::Project { input, .. }
        | Node::Aggregate { input, .. }
        | Node::Sort { input, .. } => unread_scan_columns(input, &inputs, at, out),
    }
}

/// No query scans a column that nothing above the scan reads: every scan
/// output column of every recorded plan is in the needed set the planner
/// hands that scan (`Node::input_needs` from the root down).
#[test]
fn no_query_scans_a_column_nobody_reads() {
    let db = bdcc::tpch::generate(&GenConfig::new(SF));
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db))),
        ("pk", Arc::new(pk_scheme(&db).expect("pk scheme"))),
        ("bdcc", Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))),
    ];
    let mut unread = Vec::new();
    for (scheme, sdb) in &schemes {
        for q in all_queries() {
            let ctx = QueryCtx::recording(QueryContext::new(Arc::clone(sdb)), SF);
            (q.run)(&ctx).expect("query runs");
            for (i, plan) in ctx.take_plans().iter().enumerate() {
                let at = format!("Q{:02} {scheme} plan {i}", q.id);
                unread_scan_columns(plan, &Needed::default(), &at, &mut unread);
            }
        }
    }
    assert!(unread.is_empty(), "scanned and never read:\n{}", unread.join("\n"));
}
