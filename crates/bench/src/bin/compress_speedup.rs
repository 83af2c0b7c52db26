//! E-COMPRESS — block-encoding footprint and compression-aware scan
//! throughput: whole-table bytes/row with per-block encodings (dictionary,
//! frame-of-reference, RLE, scaled-decimal FOR) vs raw columnar storage,
//! and the string-equality predicate scan (`l_shipmode = 'AIR'`) over
//! encoded vs raw LINEITEM — the workload where the kernel compares
//! bit-packed dictionary codes and late-materializes only the survivors.
//! A dict-miss probe (`l_shipmode = 'CANOE'`, inside every block's MinMax
//! range but absent from every dictionary) shows whole-block elimination.
//!
//! Scale factor from `BDCC_SF` (default 0.02). Prints a table and, last,
//! one JSON line (`{"bench":"compress",...}`) recorded as
//! `BENCH_compress.json` so the compression trajectory is machine-readable
//! across PRs.

use std::sync::Arc;
use std::time::Instant;

use bdcc_bench::{generate_db, print_table, r3, scale_factor, BenchReport};
use bdcc_exec::ops::collect;
use bdcc_exec::ops::scan::Scan;
use bdcc_exec::ColPredicate;
use bdcc_obs::json::Obj;
use bdcc_storage::{set_encode_enabled, Column, Datum, IoTracker, StoredTable};

fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    f(); // warm up
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Rebuild `t` column-for-column on the same block grid, under whatever
/// encode gate is currently set.
fn rebuild(t: &Arc<StoredTable>) -> Arc<StoredTable> {
    let named: Vec<(String, Column)> = t
        .schema()
        .columns
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.clone(), t.column(i).unwrap().as_ref().clone()))
        .collect();
    Arc::new(
        StoredTable::from_columns_with_block_rows(t.name(), named, t.block_rows())
            .expect("rebuild"),
    )
}

/// Storage footprint of the whole table under the `avg_width` byte model,
/// with and without the chosen block encodings.
fn footprint(t: &StoredTable) -> (u64, u64) {
    let rows = t.rows() as f64;
    let (mut enc, mut raw) = (0u64, 0u64);
    for (i, m) in t.schema().columns.iter().enumerate() {
        let col_raw = (m.avg_width * rows) as u64;
        raw += col_raw;
        enc += match t.encoding(i) {
            Some(e) => e.encoded_bytes,
            None => col_raw,
        };
    }
    (enc, raw)
}

fn scan(t: &Arc<StoredTable>, preds: Vec<ColPredicate>) -> bdcc_exec::Batch {
    let s = Scan::blocks(Arc::clone(t), IoTracker::new(), &["l_extendedprice"], preds).unwrap();
    collect(Box::new(s)).unwrap()
}

fn mrows_per_s(rows: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        rows as f64 / secs / 1e6
    } else {
        0.0
    }
}

fn main() {
    let sf = scale_factor();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("E-COMPRESS — block encodings (SF {sf}, {cores} core(s) available)");
    set_encode_enabled(Some(true));
    let db = generate_db(sf);
    let li_enc = db.stored_by_name("lineitem").expect("lineitem stored").clone();
    set_encode_enabled(Some(false));
    let li_raw = rebuild(&li_enc);
    set_encode_enabled(None);
    assert!(li_enc.has_encodings() && !li_raw.has_encodings());
    let rows = li_enc.rows();
    let reps = 20;

    let (enc_bytes, raw_bytes) = footprint(&li_enc);
    let bytes_ratio = raw_bytes as f64 / enc_bytes as f64;
    assert!(
        bytes_ratio >= 2.0,
        "LINEITEM must compress at least 2x under the block codecs, got {bytes_ratio:.2}"
    );

    let mut table_rows = Vec::new();
    let mut report = BenchReport::new("compress")
        .f64("sf", sf)
        .usize("rows", rows)
        .usize("cores", cores)
        .u64("raw_bytes", raw_bytes)
        .u64("enc_bytes", enc_bytes)
        .f64("raw_bytes_per_row", r3(raw_bytes as f64 / rows as f64))
        .f64("enc_bytes_per_row", r3(enc_bytes as f64 / rows as f64))
        .f64("bytes_ratio", r3(bytes_ratio));

    let workloads: [(&str, Datum); 2] =
        [("dict_eq_hit", Datum::Str("AIR".into())), ("dict_eq_miss", Datum::Str("CANOE".into()))];
    for (name, constant) in workloads {
        let preds = || vec![ColPredicate::eq("l_shipmode", constant.clone())];
        let raw_out = scan(&li_raw, preds());
        let enc_out = scan(&li_enc, preds());
        assert_eq!(raw_out, enc_out, "{name}: encoded scan must match raw byte-for-byte");
        let raw_s = timed(reps, || scan(&li_raw, preds()));
        let enc_s = timed(reps, || scan(&li_enc, preds()));
        let speedup = raw_s / enc_s;
        table_rows.push(vec![
            name.to_string(),
            raw_out.rows().to_string(),
            format!("{:.3}", raw_s * 1000.0),
            format!("{:.3}", enc_s * 1000.0),
            format!("{:.2}", mrows_per_s(rows, raw_s)),
            format!("{:.2}", mrows_per_s(rows, enc_s)),
            format!("{speedup:.2}x"),
        ]);
        report.result(
            Obj::new()
                .str("workload", name)
                .usize("hits", raw_out.rows())
                .f64("raw_ms", r3(raw_s * 1000.0))
                .f64("enc_ms", r3(enc_s * 1000.0))
                .f64("raw_mrows_per_s", r3(mrows_per_s(rows, raw_s)))
                .f64("enc_mrows_per_s", r3(mrows_per_s(rows, enc_s)))
                .f64("speedup", r3(speedup)),
        );
    }

    table_rows.push(vec![
        "bytes/row".to_string(),
        rows.to_string(),
        format!("{:.1}", raw_bytes as f64 / rows as f64),
        format!("{:.1}", enc_bytes as f64 / rows as f64),
        String::new(),
        String::new(),
        format!("{bytes_ratio:.2}x"),
    ]);
    print_table(
        &["workload", "hits/rows", "raw ms|B", "enc ms|B", "raw Mr/s", "enc Mr/s", "ratio"],
        &table_rows,
    );
    report.print();
}
