//! The six workloads: what each one's pass runs, the set-up it reads,
//! and the measurement of a run (warm-up, timed passes, traced passes).

use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use crate::engine::{
    self, Generated, Outcome, PoolCounters, Scheme, SchemeKind, Serving, SpillPlan,
};
use crate::layers::{Layers, COUNTS, TIME_LAYERS};
use crate::oracle::{Oracle, Verdict};
use crate::stats::{geomean, median, median_u64, percentile, SplitMix64};

const QUERIES: usize = 22;
const WARMUP_PASSES: u64 = 2;
const SERVE_CLIENTS: usize = 2;
const SERVE_QUEUE_DEPTH: usize = 8;
const PAR_THREADS: usize = 2;
/// Spill operations: each plan under its unconstrained peak / divisor.
const SPILL_OPS: [(SpillPlan, u64); 4] = [
    (SpillPlan::JoinGroupBy, 2),
    (SpillPlan::JoinGroupBy, 4),
    (SpillPlan::FineAgg, 2),
    (SpillPlan::FineAgg, 4),
];
const SPILL_PLANS: [SpillPlan; 2] = [SpillPlan::JoinGroupBy, SpillPlan::FineAgg];

fn plan_index(plan: SpillPlan) -> usize {
    SPILL_PLANS.iter().position(|p| *p == plan).expect("every plan is in SPILL_PLANS")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 22 queries, one after another, on `threads` threads.
    Direct { threads: usize },
    /// Closed loop: two clients against one server, each running a seeded
    /// permutation of the 22 queries per round, barrier between rounds.
    Serve,
    /// The two spill plans under half and a quarter of their peak.
    Spill,
}

pub struct Workload {
    pub name: &'static str,
    pub scheme: SchemeKind,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload { name: "tpch22-bdcc", scheme: SchemeKind::Bdcc, kind: Kind::Direct { threads: 1 } },
    Workload { name: "tpch22-plain", scheme: SchemeKind::Plain, kind: Kind::Direct { threads: 1 } },
    Workload { name: "tpch22-pk", scheme: SchemeKind::Pk, kind: Kind::Direct { threads: 1 } },
    Workload {
        name: "tpch22-bdcc-par2",
        scheme: SchemeKind::Bdcc,
        kind: Kind::Direct { threads: PAR_THREADS },
    },
    Workload { name: "serve-mix-c2", scheme: SchemeKind::Bdcc, kind: Kind::Serve },
    Workload { name: "spill-join-agg", scheme: SchemeKind::Plain, kind: Kind::Spill },
];

impl Workload {
    /// Threads the workload keeps busy (the divisor of `busy_share`).
    fn width(&self) -> usize {
        match self.kind {
            Kind::Direct { threads } => threads,
            Kind::Serve => SERVE_CLIENTS,
            Kind::Spill => 1,
        }
    }
}

fn scheme_index(kind: SchemeKind) -> usize {
    match kind {
        SchemeKind::Plain => 0,
        SchemeKind::Pk => 1,
        SchemeKind::Bdcc => 2,
    }
}

/// Nanoseconds since the first call: the clock every span shares.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A span of the benchmark's own trace.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same list.
    pub parent: Option<usize>,
}

/// One set-up, component by component.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    pub gen_s: f64,
    pub design_s: f64,
    pub build_s: [f64; 3],
    pub sizing_s: f64,
}

impl SetupSample {
    /// One line a parent process can read back with [`SetupSample::parse`].
    pub fn to_line(self) -> String {
        let [plain, pk, bdcc] = self.build_s;
        format!(
            "setup_sample {} {} {plain} {pk} {bdcc} {}",
            self.gen_s, self.design_s, self.sizing_s
        )
    }

    pub fn parse(line: &str) -> Option<SetupSample> {
        let v: Vec<f64> = line
            .strip_prefix("setup_sample ")?
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let [gen_s, design_s, plain, pk, bdcc, sizing_s] = v[..] else { return None };
        Some(SetupSample { gen_s, design_s, build_s: [plain, pk, bdcc], sizing_s })
    }
}

/// The unconstrained run of one spill plan: its peak sizes the budgets
/// and its rows are the byte-identity reference.
struct Sizing {
    peak_bytes: u64,
    rows: Vec<String>,
}

/// Everything the workloads read: the generated database, the schemes
/// built from it, the spill sizing, and what building them cost
/// (`samples[0]`; the caller may push the samples of further set-ups).
pub struct Fixture {
    pub sf: f64,
    pub seed: u64,
    pub gen_rows: u64,
    schemes: [Option<Scheme>; 3],
    sizing: Vec<Sizing>,
    pub samples: Vec<SetupSample>,
    pub spans: Vec<Span>,
}

impl Fixture {
    /// Set up once: generate, build every scheme the selected workloads
    /// read (and Plain, the reference), size the spill budgets.
    pub fn build(sf: f64, seed: u64, selected: &[&Workload]) -> Result<Fixture, String> {
        let mut needs = [false; 3];
        // Plain is the reference every query result is compared with.
        needs[scheme_index(SchemeKind::Plain)] = true;
        for w in selected {
            needs[scheme_index(w.scheme)] = true;
        }
        let mut fx = Fixture {
            sf,
            seed,
            gen_rows: 0,
            schemes: [None, None, None],
            sizing: Vec::new(),
            samples: Vec::new(),
            spans: Vec::new(),
        };
        let root = fx.open_span("setup", None);
        let mut sample = SetupSample::default();
        let (generated, s): (Generated, f64) =
            fx.spanned("tpch::generate", root, || engine::generate(sf, seed));
        sample.gen_s = s;
        fx.gen_rows = generated.total_rows();
        sample.design_s = engine::design_seconds(&generated)?;
        for kind in [SchemeKind::Plain, SchemeKind::Pk, SchemeKind::Bdcc] {
            if needs[scheme_index(kind)] {
                let (scheme, s) = fx.spanned(&format!("build:{}", kind.name()), root, || {
                    engine::build(&generated, kind)
                });
                sample.build_s[scheme_index(kind)] = s;
                fx.schemes[scheme_index(kind)] = Some(scheme?);
            }
        }
        if selected.iter().any(|w| w.kind == Kind::Spill) {
            let plain = fx.scheme(SchemeKind::Plain).clone();
            let (sizing, s) = fx.spanned("spill:sizing", root, || {
                SPILL_PLANS
                    .iter()
                    .map(|&p| {
                        engine::run_spill_plan(&plain, p, None, false)
                            .map(|o| Sizing { peak_bytes: o.peak_bytes, rows: o.rows })
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            sample.sizing_s = s;
            fx.sizing = sizing?;
        }
        fx.spans[root].end_ns = now_ns();
        fx.samples.push(sample);
        Ok(fx)
    }

    fn open_span(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.spans.push(Span { name: name.to_string(), start_ns: now_ns(), end_ns: 0, parent });
        self.spans.len() - 1
    }

    fn spanned<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open_span(name, Some(parent));
        let out = timed(f);
        self.spans[span].end_ns = now_ns();
        out
    }

    fn scheme(&self, kind: SchemeKind) -> &Scheme {
        self.schemes[scheme_index(kind)].as_ref().expect("Fixture::build built every scheme read")
    }

    /// Median over the set-up samples of what `w` reads: generation, its
    /// scheme and, for the spill workload, the sizing run.
    pub fn setup_s(&self, w: &Workload) -> f64 {
        let sums: Vec<f64> = self
            .samples
            .iter()
            .map(|s| {
                let mut sum = s.gen_s + s.build_s[scheme_index(w.scheme)];
                if w.kind == Kind::Spill {
                    sum += s.sizing_s;
                }
                sum
            })
            .collect();
        median(&sums)
    }

    pub fn median_of(&self, f: impl Fn(&SetupSample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }

    /// The Plain-serial reference for the 22 queries, and its wall time.
    pub fn query_oracle(&self) -> Result<(Oracle, f64), String> {
        let plain = self.scheme(SchemeKind::Plain);
        let (rows, s) = timed(|| {
            (1..=QUERIES)
                .map(|q| engine::run_query(plain, q, self.sf, 1, false).map(|o| o.rows))
                .collect::<Result<Vec<_>, _>>()
        });
        Ok((Oracle { labels: (1..=QUERIES).map(|q| format!("Q{q:02}")).collect(), rows: rows? }, s))
    }

    /// The unconstrained runs as the reference of the four spill operations.
    pub fn spill_oracle(&self) -> Oracle {
        Oracle {
            labels: SPILL_OPS.iter().map(|(p, d)| format!("{}/{d}", p.name())).collect(),
            rows: SPILL_OPS.iter().map(|(p, _)| self.sizing[plan_index(*p)].rows.clone()).collect(),
        }
    }

    /// The sizing runs by plan name, for `expected.txt`.
    pub fn sizing_oracle(&self) -> Oracle {
        Oracle {
            labels: SPILL_PLANS.iter().map(|p| p.name().to_string()).collect(),
            rows: self.sizing.iter().map(|s| s.rows.clone()).collect(),
        }
    }

    fn spill_budget(&self, op: usize) -> u64 {
        let (plan, divisor) = SPILL_OPS[op];
        (self.sizing[plan_index(plan)].peak_bytes / divisor).max(1)
    }
}

/// One operation of a pass, as its client saw it.
struct OpSample {
    op: usize,
    client: usize,
    start_ns: u64,
    result: Result<Outcome, String>,
}

struct Pass {
    start_ns: u64,
    wall_ns: u64,
    ops: Vec<OpSample>,
}

fn sample(op: usize, client: usize, f: impl FnOnce() -> Result<Outcome, String>) -> OpSample {
    let start_ns = now_ns();
    OpSample { op, client, start_ns, result: f() }
}

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Length {
    pub seconds: f64,
    /// Run exactly this many timed passes instead of `seconds`.
    pub passes: Option<u64>,
    pub traced: bool,
}

/// One row of the traced output: an operation with its layer breakdown.
pub struct OpRow {
    pub label: String,
    pub client: usize,
    pub wall_ms: f64,
    pub self_ms: [f64; TIME_LAYERS.len()],
    pub unattributed_ms: f64,
    /// |layer self times + unattributed − wall| / wall.
    pub gap_share: f64,
}

/// What one run of one workload measured.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub rounding_ties: u64,
    pub errors: Vec<String>,
    pub timed_passes: usize,
    /// Operations a timed pass ran, and how many of them lie beyond the
    /// pass's p90 rank.
    pub pass_samples: usize,
    pub beyond_p90: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Per operation: label, median latency ms, median peak MB.
    pub per_op: Vec<(String, f64, f64)>,
    /// First traced pass, operation by operation.
    pub traced_ops: Vec<OpRow>,
    pub spans: Vec<Span>,
}

/// A running tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    rounding_ties: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

pub struct Runner<'a> {
    pub workload: &'a Workload,
    pub fixture: &'a Fixture,
    pub oracle: &'a Oracle,
    pub reference_s: f64,
}

impl Runner<'_> {
    fn pass(&self, serving: Option<&Serving>, pass_no: u64, traced: bool) -> Pass {
        let fx = self.fixture;
        let scheme = fx.scheme(self.workload.scheme);
        let start_ns = now_ns();
        let t = Instant::now();
        let ops = match self.workload.kind {
            Kind::Direct { threads } => (0..QUERIES)
                .map(|op| {
                    sample(op, 0, || engine::run_query(scheme, op + 1, fx.sf, threads, traced))
                })
                .collect(),
            Kind::Spill => (0..SPILL_OPS.len())
                .map(|op| {
                    sample(op, 0, || {
                        let budget = Some(fx.spill_budget(op));
                        engine::run_spill_plan(scheme, SPILL_OPS[op].0, budget, traced)
                    })
                })
                .collect(),
            Kind::Serve => {
                let serving = serving.expect("the serve workload starts a server");
                let barrier = Barrier::new(SERVE_CLIENTS);
                std::thread::scope(|s| {
                    let clients: Vec<_> = (0..SERVE_CLIENTS)
                        .map(|client| {
                            let barrier = &barrier;
                            let mut order: Vec<usize> = (0..QUERIES).collect();
                            let stream = (pass_no << 8) | client as u64;
                            SplitMix64::new(fx.seed ^ stream.wrapping_mul(0x9e37_79b9))
                                .shuffle(&mut order);
                            s.spawn(move || {
                                barrier.wait();
                                order
                                    .into_iter()
                                    .map(|op| {
                                        sample(op, client, || serving.run_query(op + 1, traced))
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    clients
                        .into_iter()
                        .flat_map(|h| h.join().expect("a client thread panicked"))
                        .collect()
                })
            }
        };
        Pass { start_ns, wall_ns: t.elapsed().as_nanos() as u64, ops }
    }

    /// Count the pass's operations and compare each with the reference.
    fn check(&self, pass: &Pass, tally: &mut Tally) {
        for s in &pass.ops {
            tally.attempted += 1;
            let label = &self.oracle.labels[s.op];
            match &s.result {
                Err(e) => tally.fail(format!("{label}: {e}")),
                Ok(o) => {
                    match self.oracle.check(s.op, &o.rows) {
                        Verdict::Same => {}
                        Verdict::RoundingTie => tally.rounding_ties += 1,
                        Verdict::Different => {
                            tally.fail(format!("{label}: rows differ from the reference"));
                            continue;
                        }
                    }
                    if self.workload.kind == Kind::Spill {
                        let budget = self.fixture.spill_budget(s.op);
                        if o.peak_bytes > budget {
                            tally.fail(format!(
                                "{label}: tracked peak {} over budget {budget}",
                                o.peak_bytes
                            ));
                        }
                    }
                }
            }
        }
        let live = engine::live_spill_files();
        if live != 0 {
            tally.fail(format!("{live} spill files left after a pass"));
        }
    }

    pub fn run(&self, length: Length) -> RunResult {
        let w = self.workload;
        let labels = &self.oracle.labels;
        let serving = (w.kind == Kind::Serve).then(|| {
            Serving::start(
                self.fixture.scheme(w.scheme),
                self.fixture.sf,
                SERVE_CLIENTS,
                SERVE_QUEUE_DEPTH,
            )
        });
        let serving = serving.as_ref();
        let mut tally = Tally::default();
        let mut spans: Vec<Span> = Vec::new();
        let mut pass_no = 0u64;
        for _ in 0..WARMUP_PASSES {
            let p = self.pass(serving, pass_no, false);
            self.check(&p, &mut tally);
            pass_no += 1;
        }

        // Timed passes, tracing off: the end-to-end metrics.
        let untraced_s = if length.traced { length.seconds / 2.0 } else { length.seconds };
        let mut walls: Vec<f64> = Vec::new();
        let mut pass_p90_ms: Vec<f64> = Vec::new();
        let (mut pass_samples, mut beyond_p90) = (0, 0);
        let mut latency: Vec<Vec<u64>> = vec![Vec::new(); labels.len()];
        let mut peak: Vec<Vec<u64>> = vec![Vec::new(); labels.len()];
        let t = Instant::now();
        while match length.passes {
            Some(n) => (walls.len() as u64) < n,
            None => walls.is_empty() || t.elapsed().as_secs_f64() < untraced_s,
        } {
            let p = self.pass(serving, pass_no, false);
            pass_no += 1;
            self.check(&p, &mut tally);
            walls.push(p.wall_ns as f64 / 1e6);
            let ok: Vec<u64> =
                p.ops.iter().filter_map(|s| s.result.as_ref().ok()).map(|o| o.wall_ns).collect();
            let (p90_ns, beyond) = percentile(&ok, 0.90);
            pass_p90_ms.push(p90_ns as f64 / 1e6);
            (pass_samples, beyond_p90) = (ok.len(), beyond);
            for s in &p.ops {
                if let Ok(o) = &s.result {
                    latency[s.op].push(o.wall_ns);
                    peak[s.op].push(o.peak_bytes);
                }
            }
        }
        let op_median_ms: Vec<f64> = latency.iter().map(|l| median_u64(l) / 1e6).collect();
        let op_peak_mb: Vec<f64> = peak.iter().map(|p| median_u64(p) / 1048576.0).collect();
        let pass_ms = median(&walls);
        let end_to_end = vec![
            ("pass_ms", pass_ms),
            ("query_geomean_ms", geomean(&op_median_ms)),
            ("latency_p90_ms", median(&pass_p90_ms)),
            ("peak_mem_mb", op_peak_mb.iter().copied().fold(0.0, f64::max)),
            ("setup_s", self.fixture.setup_s(w)),
        ];

        // Traced passes: the per-layer metrics and the benchmark's spans.
        let mut traced: Vec<TracedPass> = Vec::new();
        let mut traced_ops: Vec<OpRow> = Vec::new();
        if length.traced {
            let t = Instant::now();
            while match length.passes {
                Some(_) => traced.is_empty(),
                None => traced.is_empty() || t.elapsed().as_secs_f64() < length.seconds / 2.0,
            } {
                let pool_base = PoolCounters::now();
                let p = self.pass(serving, pass_no, true);
                let pool = PoolCounters::now().since(pool_base);
                self.check(&p, &mut tally);
                let first = traced.is_empty();
                let (tp, rows) = TracedPass::of(&p, pool, labels);
                if first {
                    traced_ops = rows;
                    let root = spans.len();
                    spans.push(Span {
                        name: format!("{}/pass{pass_no}", w.name),
                        start_ns: p.start_ns,
                        end_ns: p.start_ns + p.wall_ns,
                        parent: None,
                    });
                    for s in &p.ops {
                        let wall = s.result.as_ref().map(|o| o.wall_ns).unwrap_or(0);
                        spans.push(Span {
                            name: format!("{}/c{}", labels[s.op], s.client),
                            start_ns: s.start_ns,
                            end_ns: s.start_ns + wall,
                            parent: Some(root),
                        });
                    }
                }
                traced.push(tp);
                pass_no += 1;
            }
        }
        let per_layer = if length.traced {
            self.per_layer(&traced, &traced_ops, pass_ms, serving)
        } else {
            Vec::new()
        };

        RunResult {
            workload: w.name,
            attempted: tally.attempted,
            failed: tally.failed,
            rounding_ties: tally.rounding_ties,
            errors: tally.errors,
            timed_passes: walls.len(),
            pass_samples,
            beyond_p90,
            end_to_end,
            per_layer,
            per_op: labels
                .iter()
                .zip(op_median_ms.into_iter().zip(op_peak_mb))
                .map(|(l, (ms, mb))| (l.clone(), ms, mb))
                .collect(),
            traced_ops,
            spans,
        }
    }

    fn per_layer(
        &self,
        traced: &[TracedPass],
        traced_ops: &[OpRow],
        untraced_pass_ms: f64,
        serving: Option<&Serving>,
    ) -> Vec<(&'static str, f64)> {
        let w = self.workload;
        let fx = self.fixture;
        let first = &traced[0];
        let med =
            |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let ms = |ns: u64| ns as f64 / 1e6;
        let built = |kind: SchemeKind| fx.median_of(|s| s.build_s[scheme_index(kind)]);
        let traced_pass_ms = med(&|t| ms(t.wall_ns));
        let mut out: Vec<(&'static str, f64)> = vec![
            ("gen_s", fx.median_of(|s| s.gen_s)),
            ("gen_rows", fx.gen_rows as f64),
            ("design_s", fx.median_of(|s| s.design_s)),
            ("build_plain_s", built(SchemeKind::Plain)),
            ("build_pk_s", built(SchemeKind::Pk)),
            ("build_bdcc_s", built(SchemeKind::Bdcc)),
            ("sizing_s", fx.median_of(|s| s.sizing_s)),
            ("reference_s", self.reference_s),
            ("stored_bytes_per_row", fx.scheme(w.scheme).lineitem_bytes_per_row()),
            ("unattributed_ms", med(&|t| ms(t.unattributed_ns))),
            ("scan_io_bytes", first.io_bytes as f64),
            ("io_random_seeks", first.io_seeks as f64),
            ("est_io_s", first.est_io_s),
        ];
        for (i, name) in TIME_LAYERS.iter().enumerate() {
            out.push((name, med(&|t| ms(t.layers.self_ns[i]))));
        }
        for (i, name) in COUNTS.iter().enumerate() {
            out.push((name, first.layers.counts[i] as f64));
        }
        let width = w.width() as f64;
        out.push(("pool_jobs", med(&|t| t.pool.jobs as f64)));
        out.push(("pool_steals", med(&|t| t.pool.steals as f64)));
        out.push(("pool_parks", med(&|t| t.pool.parks as f64)));
        out.push(("pool_lent_jobs", med(&|t| t.pool.lent_jobs as f64)));
        out.push((
            "busy_share",
            med(&|t| t.layers.morsel_busy_ns as f64 / (width * t.wall_ns.max(1) as f64)),
        ));
        out.push(("live_spill_files", engine::live_spill_files() as f64));
        out.push(("budget_headroom_share", med(&|t| self.headroom(t))));

        let all = |f: &dyn Fn(&TracedPass) -> &Vec<u64>| -> Vec<u64> {
            traced.iter().flat_map(|t| f(t).iter().copied()).collect()
        };
        let queue = all(&|t| &t.queue_wait_ns);
        let exec = all(&|t| &t.exec_ns);
        out.push(("queue_wait_p50_ms", ms(percentile(&queue, 0.50).0)));
        out.push(("queue_wait_p90_ms", ms(percentile(&queue, 0.90).0)));
        out.push(("exec_p50_ms", ms(percentile(&exec, 0.50).0)));
        let tallies = serving.map(|s| s.tallies()).unwrap_or_default();
        let tally = |name: &str| {
            tallies.iter().find(|(n, _)| *n == name).map(|&(_, v)| v as f64).unwrap_or(0.0)
        };
        out.push(("serve_rejected", tally("rejected")));
        out.push(("serve_completed", tally("completed")));
        out.push(("serve_failed", tally("admitted") - tally("completed")));
        out.push((
            "serve_tracked_bytes_after",
            serving.map(|s| s.tracked_bytes() as f64).unwrap_or(0.0),
        ));

        out.push(("untraced_pass_ms", untraced_pass_ms));
        out.push(("traced_pass_ms", traced_pass_ms));
        out.push(("trace_overhead_ratio", traced_pass_ms / untraced_pass_ms.max(1e-9)));
        out.push((
            "layer_sum_gap_max_share",
            traced_ops.iter().map(|r| r.gap_share).fold(0.0, f64::max),
        ));
        let drift = traced.iter().filter(|t| !t.same_counts(first)).count();
        out.push(("count_drift", drift as f64));
        out.push(("traced_passes", traced.len() as f64));
        out
    }

    /// Smallest (budget − peak) / budget over the pass's spill operations;
    /// 0 off the spill workload.
    fn headroom(&self, t: &TracedPass) -> f64 {
        if self.workload.kind != Kind::Spill {
            return 0.0;
        }
        t.op_peaks
            .iter()
            .map(|&(op, peak)| {
                let budget = self.fixture.spill_budget(op) as f64;
                (budget - peak as f64) / budget
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// One traced pass, summed over its operations.
struct TracedPass {
    wall_ns: u64,
    layers: Layers,
    unattributed_ns: u64,
    io_bytes: u64,
    io_seeks: u64,
    est_io_s: f64,
    pool: PoolCounters,
    queue_wait_ns: Vec<u64>,
    exec_ns: Vec<u64>,
    op_peaks: Vec<(usize, u64)>,
}

impl TracedPass {
    fn of(pass: &Pass, pool: PoolCounters, labels: &[String]) -> (TracedPass, Vec<OpRow>) {
        let mut tp = TracedPass {
            wall_ns: pass.wall_ns,
            layers: Layers::default(),
            unattributed_ns: 0,
            io_bytes: 0,
            io_seeks: 0,
            est_io_s: 0.0,
            pool,
            queue_wait_ns: Vec::new(),
            exec_ns: Vec::new(),
            op_peaks: Vec::new(),
        };
        let mut rows = Vec::new();
        for s in &pass.ops {
            let Ok(o) = &s.result else { continue };
            let layers = o.profile.as_ref().map(Layers::of).unwrap_or_default();
            // What the client waited for and no operator of the profiled
            // plan accounts for: context and plan construction, an earlier
            // phase whose profile the re-plan replaced, collecting the
            // result, and for served queries the queue.
            let unattributed = o.wall_ns.saturating_sub(layers.root_ns);
            let sum = layers.self_total_ns() + unattributed;
            let ms = |ns: u64| ns as f64 / 1e6;
            rows.push(OpRow {
                label: labels[s.op].clone(),
                client: s.client,
                wall_ms: ms(o.wall_ns),
                self_ms: layers.self_ns.map(ms),
                unattributed_ms: ms(unattributed),
                gap_share: sum.abs_diff(o.wall_ns) as f64 / o.wall_ns.max(1) as f64,
            });
            tp.layers.add(&layers);
            tp.unattributed_ns += unattributed;
            tp.io_bytes += o.io.bytes;
            tp.io_seeks += o.io.random_seeks;
            tp.est_io_s += o.io.est_seconds;
            tp.queue_wait_ns.push(o.queue_wait_ns);
            tp.exec_ns.push(o.exec_ns);
            tp.op_peaks.push((s.op, o.peak_bytes));
        }
        (tp, rows)
    }

    /// Do the counts the program made repeat exactly?
    fn same_counts(&self, other: &TracedPass) -> bool {
        self.layers.counts == other.layers.counts
            && self.io_bytes == other.io_bytes
            && self.io_seeks == other.io_seeks
    }
}
