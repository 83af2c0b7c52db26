//! # bdcc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section IV). Each experiment is a binary under `src/bin/` printing the
//! same rows/series the paper reports; `benches/` holds the Criterion
//! counterparts. The end-to-end benchmark and its metric / workload
//! tables live in `scoreboard/README.md`; each PR's measured outcomes are
//! recorded in `CHANGES.md`.

use std::sync::Arc;
use std::time::Instant;

use bdcc_catalog::Database;
use bdcc_core::DesignConfig;
use bdcc_exec::{bdcc_scheme, pk_scheme, plain_scheme, QueryContext, Scheme, SchemeDb};
use bdcc_storage::{DeviceProfile, IoStats};
use bdcc_tpch::{all_queries, GenConfig, QueryCtx};

/// Scale factor for experiments: `BDCC_SF` env var, default 0.02
/// (≈ 120k lineitems; the paper used SF 100 on a server).
pub fn scale_factor() -> f64 {
    std::env::var("BDCC_SF").ok().and_then(|v| v.parse().ok()).unwrap_or(0.02)
}

/// Generate the TPC-H database once for an experiment.
pub fn generate_db(sf: f64) -> Database {
    let t = Instant::now();
    let db = bdcc_tpch::generate(&GenConfig::new(sf));
    eprintln!(
        "generated TPC-H SF {sf} ({} rows) in {:.2}s",
        db.total_rows(),
        t.elapsed().as_secs_f64()
    );
    db
}

/// Build all three storage schemes.
pub fn build_schemes(db: &Database, cfg: &DesignConfig) -> Vec<Arc<SchemeDb>> {
    let t = Instant::now();
    let plain = Arc::new(plain_scheme(db));
    let pk = Arc::new(pk_scheme(db).expect("pk scheme"));
    let bdcc = Arc::new(bdcc_scheme(db, cfg).expect("bdcc scheme"));
    eprintln!("built Plain/PK/BDCC schemes in {:.2}s", t.elapsed().as_secs_f64());
    vec![plain, pk, bdcc]
}

/// Measurement of one query under one scheme.
#[derive(Debug, Clone)]
pub struct QueryRun {
    pub query: usize,
    pub scheme: Scheme,
    pub seconds: f64,
    pub peak_memory: u64,
    pub io: IoStats,
    pub est_io_seconds: f64,
    pub rows: usize,
}

/// Run every query under one scheme, with per-query measurement. The whole
/// query function (including any decorrelated scalar phase) is measured,
/// like the paper's end-to-end timings.
pub fn run_all_queries(sdb: &Arc<SchemeDb>, sf: f64) -> Vec<QueryRun> {
    let mut out = Vec::new();
    for q in all_queries() {
        let ctx = QueryCtx::new(QueryContext::new(Arc::clone(sdb)), sf);
        ctx.qc.tracker.reset();
        ctx.qc.io.reset();
        let t = Instant::now();
        let batch =
            (q.run)(&ctx).unwrap_or_else(|e| panic!("{} on {}: {e}", q.name, sdb.scheme.name()));
        let seconds = t.elapsed().as_secs_f64();
        let io = ctx.qc.io.stats();
        out.push(QueryRun {
            query: q.id,
            scheme: sdb.scheme,
            seconds,
            peak_memory: ctx.qc.tracker.peak(),
            io,
            est_io_seconds: DeviceProfile::ssd_raid().estimate_seconds(&io),
            rows: batch.rows(),
        });
    }
    out
}

/// Render a fixed-width text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> =
            cells.iter().enumerate().map(|(i, c)| format!("{:>w$}", c, w = widths[i])).collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// The seed's join build — one `Vec<i64>` key and one `Vec<u32>` list
/// entry per row, SipHash-hashed — kept as the measured baseline the flat
/// `JoinIndex` is compared against (`join_build` bench and `join_speedup`
/// bin share this definition so their baselines can't drift apart).
pub fn baseline_join_build(key_cols: &[&[i64]]) -> std::collections::HashMap<Vec<i64>, Vec<u32>> {
    let rows = key_cols.first().map(|c| c.len()).unwrap_or(0);
    let mut index: std::collections::HashMap<Vec<i64>, Vec<u32>> =
        std::collections::HashMap::with_capacity(rows);
    for row in 0..rows {
        let key: Vec<i64> = key_cols.iter().map(|c| c[row]).collect();
        index.entry(key).or_default().push(row as u32);
    }
    index
}

/// Self-probe of a flat join index: look up every build key and count the
/// matches (the shared probe-throughput workload of `join_build` and
/// `join_speedup`).
pub fn probe_all(idx: &bdcc_exec::JoinIndex, key_cols: &[&[i64]]) -> usize {
    let rows = key_cols.first().map(|c| c.len()).unwrap_or(0);
    let mut key = Vec::with_capacity(key_cols.len());
    let mut n = 0usize;
    for row in 0..rows {
        key.clear();
        key.extend(key_cols.iter().map(|c| c[row]));
        idx.for_each_match(&key, |_| n += 1);
    }
    n
}

/// The **pre-PR-3** Semi/Anti probe, kept as the measured baseline of the
/// `probe_speedup` bin and `join_probe` bench: collect the full match
/// lists, gather the complete left ++ right candidate pair columns — and
/// then throw the pairs away, keeping only the matched-row flags. This is
/// exactly the waste `join_batch` used to do before the existence fast
/// path (`join.rs` now skips the gather and short-circuits per row).
pub fn semi_probe_gather_baseline(
    idx: &bdcc_exec::JoinIndex,
    key_cols: &[&[i64]],
    left_payload: &[bdcc_storage::Column],
    right_payload: &[bdcc_storage::Column],
) -> usize {
    let rows = key_cols.first().map(|c| c.len()).unwrap_or(0);
    let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
    idx.probe_pairs(key_cols, 0..rows, &mut lidx, &mut ridx);
    // The wasteful part: full pair columns, gathered only to be discarded.
    let discarded: Vec<bdcc_storage::Column> = left_payload
        .iter()
        .map(|c| c.gather(&lidx))
        .chain(right_payload.iter().map(|c| c.gather_u32(&ridx)))
        .collect();
    std::hint::black_box(&discarded);
    let mut matched = vec![false; rows];
    for &l in &lidx {
        matched[l] = true;
    }
    matched.iter().filter(|&&m| m).count()
}

/// The fixed Semi/Anti probe: the first-hit existence kernel
/// (`JoinIndex::probe_exists`) — no match lists, no gathers (what
/// `HashJoin` now runs for Semi/Anti without a residual).
pub fn semi_probe_direct(idx: &bdcc_exec::JoinIndex, key_cols: &[&[i64]]) -> usize {
    let rows = key_cols.first().map(|c| c.len()).unwrap_or(0);
    let mut lidx = Vec::new();
    idx.probe_exists(key_cols, 0..rows, &mut lidx);
    lidx.len()
}

/// The one machine-readable line every bench bin ends with.
///
/// Each bin prints, as its *last* stdout line, a single JSON object
/// `{"bench":"<name>",...,"results":[...]}` that the perf-trajectory
/// tooling records as `BENCH_<name>.json`. The line used to be a
/// hand-rolled `format!` string copy-pasted (and drifting) across the
/// bins; it is now built here on [`bdcc_obs::json`] so escaping, number
/// formatting and field order are identical everywhere.
#[derive(Debug)]
pub struct BenchReport {
    head: bdcc_obs::json::Obj,
    results: bdcc_obs::json::Arr,
}

impl BenchReport {
    pub fn new(bench: &str) -> BenchReport {
        BenchReport {
            head: bdcc_obs::json::Obj::new().str("bench", bench),
            results: bdcc_obs::json::Arr::new(),
        }
    }

    /// Add a top-level string field (insertion-ordered, like `Obj`).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.head = self.head.str(k, v);
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.head = self.head.u64(k, v);
        self
    }

    pub fn usize(mut self, k: &str, v: usize) -> Self {
        self.head = self.head.usize(k, v);
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.head = self.head.f64(k, v);
        self
    }

    /// Append one row to the `results` array (omitted entirely when no
    /// row is ever pushed — flat reports like `obs_overhead` stay flat).
    pub fn result(&mut self, row: bdcc_obs::json::Obj) {
        self.results.push_raw(&row.finish());
    }

    /// Render the JSON line.
    pub fn finish(self) -> String {
        let mut head = self.head;
        if !self.results.is_empty() {
            head = head.raw("results", &self.results.finish());
        }
        head.finish()
    }

    /// Print the line; every bin calls this last.
    pub fn print(self) {
        println!("{}", self.finish());
    }
}

/// Megabytes, two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Milliseconds, one decimal.
pub fn ms(seconds: f64) -> String {
    format!("{:.1}", seconds * 1000.0)
}

/// Round to 3 decimals — the precision the bench JSON lines always used.
pub fn r3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}
