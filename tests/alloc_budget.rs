//! An allocation budget for the query paths, so per-value allocation cannot
//! creep back in unnoticed.
//!
//! This binary installs a counting `#[global_allocator]` (which is why it
//! holds exactly one `#[test]`: nothing else may allocate while a count is
//! taken) and runs the TPC-H queries serially at SF 0.01 with spilling
//! pinned off, so the counts do not depend on the CI cell. Three budgets:
//!
//! * **Q01 allocates per batch, not per row** — at most 0.04 allocations
//!   per LINEITEM row on every scheme (measured: 0.015 on Plain / PK, 0.034
//!   on BDCC, whose groups make more and smaller batches). When a string
//!   column was a `Vec<String>` it made 2.0: one per `l_returnflag`, one
//!   per `l_linestatus`.
//! * **A whole 22-query pass** on Plain and on BDCC makes at least 4× fewer
//!   allocations than the last commit that allocated per string did
//!   ([`PARENT_PASS_ALLOCS`], measured with this same test).
//! * **PK's Q09 merge join emits batches, not key runs** — at most one
//!   batch per `BATCH_ROWS` output rows plus one per left input batch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{explain_analyze, ProfileNode, QueryContext, SpillMode, BATCH_ROWS};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const SF: f64 = 0.01;

/// Allocations of one serial 22-query pass at SF 0.01, seed 19920101, at
/// commit `807edd1` — the last one whose `Column::Str` was a `Vec<String>`.
const PARENT_PASS_ALLOCS: [(&str, u64); 2] = [("plain", 350_805), ("bdcc", 313_010)];

fn context(sdb: &Arc<SchemeDb>) -> QueryCtx {
    QueryCtx::recording(QueryContext::new(Arc::clone(sdb)).with_spill(SpillMode::Off), SF)
}

#[test]
fn queries_allocate_per_batch_not_per_value() {
    let db = bdcc::tpch::generate(&GenConfig::new(SF));
    let lineitem_rows = db.stored_by_name("lineitem").unwrap().rows() as f64;
    let schemes = [
        ("plain", Arc::new(plain_scheme(&db))),
        ("pk", Arc::new(pk_scheme(&db).expect("pk scheme"))),
        ("bdcc", Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme"))),
    ];
    let queries = all_queries();

    for (name, sdb) in &schemes {
        let ctx = context(sdb);
        let (out, allocs) = allocations(|| (queries[0].run)(&ctx));
        out.expect("Q01");
        let per_row = allocs as f64 / lineitem_rows;
        println!("Q01 on {name}: {allocs} allocations, {per_row:.4} per lineitem row");
        assert!(per_row <= 0.04, "Q01 on {name}: {per_row:.3} allocations per scanned row");
    }

    for (name, parent) in PARENT_PASS_ALLOCS {
        let sdb = &schemes.iter().find(|(n, _)| *n == name).expect("scheme").1;
        let ctx = context(sdb);
        let (_, allocs) = allocations(|| {
            for q in &queries {
                (q.run)(&ctx).unwrap_or_else(|e| panic!("Q{:02} on {name}: {e}", q.id));
            }
        });
        println!("22-query pass on {name}: {allocs} allocations (parent {parent})");
        assert!(allocs * 4 <= parent, "pass on {name}: {allocs} allocations, parent {parent}");
    }

    // PK's Q09: every merge join in its plans emits full batches.
    let pk = &schemes[1].1;
    let ctx = context(pk);
    (queries[8].run)(&ctx).expect("Q09");
    let mut merge_joins = 0;
    for plan in ctx.take_plans() {
        let analyzed = explain_analyze(&ctx.qc, &plan).expect("analyze Q09");
        analyzed.profile.root.walk(&mut |node: &ProfileNode| {
            if node.label.starts_with("Join(merge)") {
                merge_joins += 1;
                let budget = node.rows_out / BATCH_ROWS as u64 + node.children[0].batches_out;
                println!("{}: {} batches, budget {budget}", node.label, node.batches_out);
                assert!(node.batches_out <= budget, "{}: {} batches", node.label, node.batches_out);
            }
        });
    }
    assert!(merge_joins > 0, "Q09 on PK runs a merge join");
}
