//! Encoded-vs-raw equivalence: with block encodings on (the default)
//! every TPC-H query must return results **byte-identical** to the same
//! query over unencoded storage, for each scheme, serial and
//! morsel-parallel, in memory and forced out of core — the
//! compression-aware kernels and late materialization may only change
//! *how* blocks are evaluated, never what a scan emits. On top of that,
//! `EXPLAIN ANALYZE` must surface the per-scan encoding annotations and
//! the dict-miss skip counter.
//!
//! Everything lives in one test function because the encoding switch
//! (`set_encode_enabled`) is process-global and the harness runs tests in
//! one binary concurrently.
//!
//! The worker count honours `BDCC_THREADS` (default 4) and the morsel
//! size honours `BDCC_MORSEL_ROWS` (default 256), so CI can run the same
//! suite across its named threads × morsel-size configurations.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{
    canonical_rows, explain_analyze, ColPredicate, Datum, ParallelConfig, PlanBuilder, ProfileNode,
    QueryContext, SpillMode,
};
use bdcc_storage::set_encode_enabled;

fn test_threads() -> usize {
    std::env::var("BDCC_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

fn test_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// Build the three schemes with the encode gate forced to `enabled`.
/// Generation is deterministic, so the raw and encoded databases hold the
/// same rows (asserted below) and any result difference is the kernels'.
fn schemes_with_gate(sf: f64, enabled: bool) -> Vec<Arc<SchemeDb>> {
    set_encode_enabled(Some(enabled));
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let out = vec![
        Arc::new(plain_scheme(&db)),
        Arc::new(pk_scheme(&db).expect("pk scheme")),
        Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme")),
    ];
    set_encode_enabled(None);
    out
}

#[test]
fn encoded_scans_are_byte_identical_to_raw() {
    let sf = 0.002;
    let raw = schemes_with_gate(sf, false);
    let enc = schemes_with_gate(sf, true);

    // Same data, different physical representation.
    let raw_li = raw[0].db.stored_by_name("lineitem").expect("lineitem");
    let enc_li = enc[0].db.stored_by_name("lineitem").expect("lineitem");
    assert_eq!(
        raw_li.column_by_name("l_orderkey").unwrap(),
        enc_li.column_by_name("l_orderkey").unwrap(),
        "generation must be deterministic for the comparison to mean anything"
    );
    assert!(!raw_li.has_encodings(), "gate off must build no encodings");
    assert!(enc_li.has_encodings(), "lineitem must pick up block encodings");

    // The full query matrix: every query × every scheme, serial and
    // parallel, in memory and forced out of core (partial-merge and radix
    // aggregation), encoded vs raw — exact string equality, no tolerance.
    let par_cfg = ParallelConfig { threads: test_threads(), morsel_rows: test_morsel_rows() };
    // (Serial follows `BDCC_SPILL`, like every other serial suite.)
    let cfgs = [
        ("serial", ParallelConfig::with_threads(1), None),
        ("parallel", par_cfg.clone(), Some(SpillMode::Off)),
        ("parallel, forced spill", par_cfg, Some(SpillMode::Force)),
    ];
    let mut failures = Vec::new();
    for q in all_queries() {
        for (raw_sdb, enc_sdb) in raw.iter().zip(&enc) {
            for (mode, cfg, spill) in &cfgs {
                let context = |sdb: &Arc<SchemeDb>| {
                    let ctx = QueryContext::with_parallel(Arc::clone(sdb), cfg.clone());
                    match spill {
                        Some(mode) => ctx.with_spill(*mode),
                        None => ctx,
                    }
                };
                let r = (q.run)(&QueryCtx::new(context(raw_sdb), sf));
                let e = (q.run)(&QueryCtx::new(context(enc_sdb), sf));
                match (r, e) {
                    (Ok(r), Ok(e)) => {
                        let (r, e) = (canonical_rows(&r), canonical_rows(&e));
                        if r != e {
                            failures.push(format!(
                                "{} on {} ({mode}): raw {} rows vs encoded {} rows; \
                                 first diff: {:?} vs {:?}",
                                q.name,
                                raw_sdb.scheme.name(),
                                r.len(),
                                e.len(),
                                r.iter().find(|row| !e.contains(row)),
                                e.iter().find(|row| !r.contains(row)),
                            ));
                        }
                    }
                    (Err(err), _) => failures.push(format!(
                        "{} raw failed on {} ({mode}): {err}",
                        q.name,
                        raw_sdb.scheme.name()
                    )),
                    (_, Err(err)) => failures.push(format!(
                        "{} encoded failed on {} ({mode}): {err}",
                        q.name,
                        enc_sdb.scheme.name()
                    )),
                }
            }
        }
    }
    assert!(failures.is_empty(), "encoded/raw disagreement:\n{}", failures.join("\n"));

    // EXPLAIN ANALYZE surfaces the encoding layer: per-column codec
    // annotations, encoded-vs-raw byte totals, and the dict-miss skip.
    // "CANOE" sits inside the MinMax range [AIR, TRUCK] of every shipmode
    // block, so only the dictionary can prove its absence.
    let plan = PlanBuilder::new().scan(
        "lineitem",
        &["l_orderkey", "l_shipmode"],
        vec![ColPredicate::eq("l_shipmode", Datum::Str("CANOE".into()))],
    );
    let ctx = QueryContext::new(Arc::clone(&enc[0]));
    let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
    assert_eq!(analyzed.batch.rows(), 0, "CANOE is not a shipmode");
    let (mut saw_codec, mut saw_bytes, mut enc_skipped) = (false, false, 0u64);
    analyzed.profile.root.walk(&mut |node: &ProfileNode| {
        for (k, v) in &node.annotations {
            saw_codec |= k == "enc.l_shipmode" && v.contains("dict");
            saw_bytes |= k == "enc_bytes";
        }
        enc_skipped += node.enc_skipped;
    });
    assert!(saw_codec, "scan must annotate the shipmode codec mix");
    assert!(saw_bytes, "scan must annotate encoded byte totals");
    assert!(enc_skipped > 0, "every block must die of a dictionary miss");
    let rendered = analyzed.profile.render();
    assert!(rendered.contains("enc.l_shipmode"), "render must show the annotations:\n{rendered}");

    // The raw context must not pick up any of it.
    let ctx = QueryContext::new(Arc::clone(&raw[0]));
    let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
    analyzed.profile.root.walk(&mut |node: &ProfileNode| {
        assert!(node.annotations.iter().all(|(k, _)| !k.starts_with("enc")));
        assert_eq!(node.enc_skipped, 0);
    });
}
