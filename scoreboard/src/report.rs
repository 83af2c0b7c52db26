//! What a run prints and writes: every metric by name with its unit, the
//! result line, the traced output files and the `--repeat` comparison.

use std::path::Path;

use crate::engine::{Arr, Obj};
use crate::layers::TIME_LAYERS;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{Fixture, RunResult, Span};

fn value(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in table order.
fn metrics_json(values: &[(&'static str, f64)], table: &[(&'static str, &'static str)]) -> String {
    let mut obj = Obj::new();
    for (name, unit) in table {
        let value = value(values, name).unwrap_or_else(|| panic!("metric {name} was not measured"));
        obj = obj.raw(name, &Obj::new().f64("value", value).str("unit", unit).finish());
    }
    obj.finish()
}

pub fn end_to_end_json(r: &RunResult) -> String {
    let table: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    metrics_json(&r.end_to_end, &table)
}

pub fn per_layer_json(r: &RunResult) -> String {
    let table: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    metrics_json(&r.per_layer, &table)
}

/// Print one run: every metric by name with its unit.
pub fn print_run(r: &RunResult) {
    println!("\n== {} ==", r.workload);
    println!(
        "  checked {} operations, {} failed, {} rounding ties; {} timed passes",
        r.attempted, r.failed, r.rounding_ties, r.timed_passes
    );
    for e in &r.errors {
        println!("  FAILED {e}");
    }
    for m in &END_TO_END {
        let v = value(&r.end_to_end, m.name).unwrap_or(0.0);
        println!("  {:<28} {:>14.4} {}", m.name, v, m.unit);
    }
    println!(
        "  latency_p90_ms is the median of {} passes' p90 over {} operations, {} beyond it",
        r.timed_passes, r.pass_samples, r.beyond_p90
    );
    if r.per_layer.is_empty() {
        return;
    }
    println!("  -- per layer (traced passes) --");
    for m in &PER_LAYER {
        let v = value(&r.per_layer, m.name).unwrap_or(0.0);
        println!("  {:<28} {:>14.4} {}", m.name, v, m.unit);
    }
    let mut by_gap: Vec<_> = r.traced_ops.iter().collect();
    by_gap.sort_by(|a, b| b.unattributed_ms.total_cmp(&a.unattributed_ms));
    println!("  -- largest unattributed_ms (planning, replaced first-phase profiles, queueing) --");
    for row in by_gap.iter().take(5) {
        println!(
            "  {:<16} wall {:>9.3} ms  unattributed {:>9.3} ms  sum gap {:.4}",
            row.label, row.wall_ms, row.unattributed_ms, row.gap_share
        );
    }
}

fn spans_json(spans: &[Span], workload: &str) -> String {
    let mut arr = Arr::new();
    for (id, s) in spans.iter().enumerate() {
        let mut o = Obj::new()
            .usize("id", id)
            .str("name", &s.name)
            .str("workload", workload)
            .u64("start_ns", s.start_ns)
            .u64("end_ns", s.end_ns);
        if let Some(p) = s.parent {
            o = o.usize("parent", p);
        }
        arr.push_raw(&o.finish());
    }
    arr.finish()
}

/// Write `<out>/<workload>.json`: the run's metrics, its per-operation
/// layer breakdown and the benchmark's spans.
pub fn write_traced(out: &Path, env: &str, fx: &Fixture, r: &RunResult) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let mut per_op = Arr::new();
    for (label, ms, mb) in &r.per_op {
        per_op.push_raw(
            &Obj::new().str("op", label).f64("median_ms", *ms).f64("peak_mb", *mb).finish(),
        );
    }
    let mut ops = Arr::new();
    for row in &r.traced_ops {
        let mut o = Obj::new().str("op", &row.label).usize("client", row.client);
        o = o.f64("wall_ms", row.wall_ms);
        for (name, v) in TIME_LAYERS.iter().zip(row.self_ms) {
            o = o.f64(name, v);
        }
        o = o.f64("unattributed_ms", row.unattributed_ms).f64("sum_gap_share", row.gap_share);
        ops.push_raw(&o.finish());
    }
    let doc = Obj::new()
        .str("workload", r.workload)
        .raw("env", env)
        .u64("attempted", r.attempted)
        .u64("failed", r.failed)
        .usize("timed_passes", r.timed_passes)
        .usize("operations_per_pass", r.pass_samples)
        .raw("end_to_end", &end_to_end_json(r))
        .raw("per_layer", &per_layer_json(r))
        .raw("per_op", &per_op.finish())
        .raw("traced_ops", &ops.finish())
        .raw("setup_spans", &spans_json(&fx.spans, "setup"))
        .raw("spans", &spans_json(&r.spans, r.workload))
        .finish();
    std::fs::write(out.join(format!("{}.json", r.workload)), doc + "\n")
}

/// Compare a later set of runs with the first: every end-to-end metric's
/// relative difference against its bound (`setup_s` is set up once, so it
/// has none), and on the serial workloads every exact per-layer count.
/// Returns the number of violations.
pub fn compare_sets(first: &[RunResult], later: &[RunResult], serial: &[&str]) -> usize {
    let mut violations = 0;
    println!("\n== repeat check: relative difference against the first set ==");
    for (a, b) in first.iter().zip(later) {
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            let get = |r: &RunResult| value(&r.end_to_end, m.name).unwrap_or(0.0);
            let (va, vb) = (get(a), get(b));
            let rel = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let over = rel.abs() > m.bound;
            violations += over as usize;
            println!(
                "  {:<18} {:<18} {:>12.4} -> {:>12.4} {:<3} {:>+8.2}% (bound {:.0}%){}",
                a.workload,
                m.name,
                va,
                vb,
                m.unit,
                rel * 100.0,
                m.bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
        if !serial.contains(&a.workload) {
            continue;
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(va), Some(vb)) = (value(&a.per_layer, m.name), value(&b.per_layer, m.name))
            {
                if va != vb {
                    violations += 1;
                    println!("  {:<18} {:<18} count {va} -> {vb}  DIFFERS", a.workload, m.name);
                }
            }
        }
    }
    violations
}
