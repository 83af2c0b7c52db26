//! Encoded-vs-raw equivalence: with block encodings (every table build
//! makes them) every TPC-H query must return results **byte-identical** to
//! the same query over unencoded storage, for each scheme, serial and
//! morsel-parallel, in memory and forced out of core — the
//! compression-aware kernels and late materialization may only change
//! *how* blocks are evaluated, never what a scan emits. On top of that,
//! `EXPLAIN ANALYZE` must surface the per-scan encoding annotations and
//! the dict-miss skip counter, and LINEITEM must compress at least 2×.
//!
//! Each scheme is built once; its raw twin holds the same columns and
//! MinMax stats with every encoding dropped
//! (`StoredTable::without_encodings`), so any result difference is the
//! kernels'. The tests share that fixture.
//!
//! The worker count honours `BDCC_THREADS` (default 4) and the morsel
//! size honours `BDCC_MORSEL_ROWS` (default 256), so CI can run the same
//! suite across its named threads × morsel-size configurations.

use std::sync::{Arc, OnceLock};

use bdcc::prelude::*;
use bdcc_exec::{
    canonical_rows, explain_analyze, ColPredicate, Datum, ParallelConfig, PlanBuilder, ProfileNode,
    QueryContext, SpillMode,
};

const SF: f64 = 0.002;

fn test_threads() -> usize {
    std::env::var("BDCC_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

fn test_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// The three schemes as built, and their raw twins.
struct Fixture {
    enc: Vec<Arc<SchemeDb>>,
    raw: Vec<Arc<SchemeDb>>,
}

/// `sdb` with every stored table replaced by its unencoded twin (scans
/// read storage through `db` only).
fn raw_twin(sdb: &SchemeDb) -> SchemeDb {
    let mut raw = sdb.clone();
    for id in sdb.db.attached() {
        raw.db.attach(id, Arc::new(sdb.db.stored(id).expect("attached").without_encodings()));
    }
    raw
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = bdcc::tpch::generate(&GenConfig::new(SF));
        let enc = vec![
            Arc::new(plain_scheme(&db)),
            Arc::new(pk_scheme(&db).expect("pk scheme")),
            Arc::new(bdcc_scheme(&db, &DesignConfig::default()).expect("bdcc scheme")),
        ];
        let raw = enc.iter().map(|sdb| Arc::new(raw_twin(sdb))).collect();
        Fixture { enc, raw }
    })
}

#[test]
fn raw_twins_hold_the_same_columns_without_encodings() {
    let f = fixture();
    for (raw, enc) in f.raw.iter().zip(&f.enc) {
        for id in enc.db.attached() {
            let (r, e) = (raw.db.stored(id).unwrap(), enc.db.stored(id).unwrap());
            assert!(!r.has_encodings(), "{}: the raw twin holds no encodings", r.name());
            for c in 0..e.arity() {
                assert!(Arc::ptr_eq(r.column(c).unwrap(), e.column(c).unwrap()));
            }
        }
    }
    let li = f.enc[0].db.stored_by_name("lineitem").expect("lineitem");
    assert!(li.has_encodings(), "lineitem must pick up block encodings");
}

/// The codecs pay for themselves: under the `avg_width` byte model,
/// LINEITEM's encoded footprint is at most half its raw one.
#[test]
fn lineitem_compresses_at_least_2x() {
    let li = fixture().enc[0].db.stored_by_name("lineitem").expect("lineitem");
    let rows = li.rows() as f64;
    let (mut raw_bytes, mut enc_bytes) = (0u64, 0u64);
    for (i, m) in li.schema().columns.iter().enumerate() {
        let col_raw = (m.avg_width * rows) as u64;
        raw_bytes += col_raw;
        enc_bytes += li.encoding(i).map_or(col_raw, |e| e.encoded_bytes);
    }
    println!("lineitem: {raw_bytes} raw bytes, {enc_bytes} encoded");
    assert!(
        raw_bytes >= 2 * enc_bytes,
        "LINEITEM must compress at least 2x: {raw_bytes} raw vs {enc_bytes} encoded bytes"
    );
}

/// The full query matrix: every query × every scheme, serial and
/// parallel, in memory and forced out of core (partial-merge and spilling
/// hash aggregation), encoded vs raw — exact string equality, no
/// tolerance.
#[test]
fn encoded_scans_are_byte_identical_to_raw() {
    let f = fixture();
    let par_cfg = ParallelConfig { threads: test_threads(), morsel_rows: test_morsel_rows() };
    // (Serial follows `BDCC_SPILL`, like every other serial suite.)
    let cfgs = [
        ("serial", ParallelConfig::with_threads(1), None),
        ("parallel", par_cfg.clone(), Some(SpillMode::Off)),
        ("parallel, forced spill", par_cfg, Some(SpillMode::Force)),
    ];
    let mut failures = Vec::new();
    for q in all_queries() {
        for (raw_sdb, enc_sdb) in f.raw.iter().zip(&f.enc) {
            for (mode, cfg, spill) in &cfgs {
                let context = |sdb: &Arc<SchemeDb>| {
                    let ctx = QueryContext::with_parallel(Arc::clone(sdb), cfg.clone());
                    match spill {
                        Some(mode) => ctx.with_spill(*mode),
                        None => ctx,
                    }
                };
                let r = (q.run)(&QueryCtx::new(context(raw_sdb), SF));
                let e = (q.run)(&QueryCtx::new(context(enc_sdb), SF));
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
}

/// EXPLAIN ANALYZE surfaces the encoding layer: per-column codec
/// annotations, encoded-vs-raw byte totals, and the dict-miss skip.
/// "CANOE" sits inside the MinMax range [AIR, TRUCK] of every shipmode
/// block, so only the dictionary can prove its absence. The raw twin
/// shows none of it.
#[test]
fn explain_analyze_surfaces_the_encoding_layer() {
    let f = fixture();
    let plan = PlanBuilder::new().scan(
        "lineitem",
        &["l_orderkey", "l_shipmode"],
        vec![ColPredicate::eq("l_shipmode", Datum::Str("CANOE".into()))],
    );
    let ctx = QueryContext::new(Arc::clone(&f.enc[0]));
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

    let ctx = QueryContext::new(Arc::clone(&f.raw[0]));
    let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
    analyzed.profile.root.walk(&mut |node: &ProfileNode| {
        assert!(node.annotations.iter().all(|(k, _)| !k.starts_with("enc")));
        assert_eq!(node.enc_skipped, 0);
    });
}
