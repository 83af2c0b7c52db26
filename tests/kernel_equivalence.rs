//! Kernel-vs-interpreter equivalence for the selection-vector expression
//! engine (`bdcc_exec::kernel`).
//!
//! The compiled filter pipelines — fused typed conjunct kernels in their
//! compiled order, the interpreter fallback over gathered survivors —
//! may only change *how* a predicate is evaluated, never which rows pass:
//!
//! 1. A randomized oracle drives well-typed predicate trees (comparisons,
//!    BETWEEN, IN, LIKE, column-column, non-sargable arithmetic, And/Or/
//!    Not nesting) over batches with the nasty inputs (NaN, ±∞, -0.0,
//!    empty strings, empty and single-row batches) and asserts the
//!    compiled program's selection is **bit-identical** to
//!    `Expr::eval_bool`, including the filtered batch payloads.
//! 2. One compiled program streamed across many batches, its conjuncts
//!    run cheapest first rather than in authored order, must stay exact.
//! 3. `EXPLAIN ANALYZE` must annotate compiled filters with the leaf
//!    mix, per-conjunct selectivities and the compiled order.
//! 4. `LIKE` at all three sites that match it — the scan kernel over
//!    dictionary and raw blocks, a compiled `FilterProgram`, `Expr::eval` —
//!    must agree with a naive `str::find` / `str::contains` reference over
//!    random ASCII and UTF-8 haystacks, for every pattern shape.
//! 5. A scan keeps exactly the rows `ColPredicate::to_expr` +
//!    `Expr::eval_bool` keeps, for random predicates of every `PredKind`
//!    over int, date, float and string columns — NaN, ±∞, −0.0,
//!    subnormals, integers near 2^53 against float constants, ranges with
//!    bounds of mixed kinds, FOR blocks at the `i64` extremes — on encoded
//!    and raw tables, over blocks, runs cut mid-block and block morsels;
//!    an ill-typed predicate is an `ExecError::Type` on both sides.
//!
//! There is no interpreter-everywhere mode to compare whole queries
//! against: the operators' own tests check each residual site against a
//! hand-applied `Expr::eval_bool`, and the 22-query suites compare the
//! engine across schemes, thread counts and encodings.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::kernel::sel_from_bools;
use bdcc_exec::ops::collect;
use bdcc_exec::ops::scan::{Run, Scan, ScanBlueprint};
use bdcc_exec::{
    explain_analyze, filter, Batch, ColMeta, ColPredicate, Datum, ExecError, Expr, FilterProgram,
    LikePattern, MemoryTracker, OpEnv, Operator, PlanBuilder, PredKind, ProfileNode, QueryContext,
};
use bdcc_storage::{BlockEncoding, Column, DataType, IoTracker, StoredTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An unprofiled, ungoverned scan's environment.
fn env() -> OpEnv {
    OpEnv::new(IoTracker::new(), MemoryTracker::new())
}

fn oracle_schema() -> Vec<ColMeta> {
    vec![
        ColMeta::new("a", DataType::Int),
        ColMeta::new("f", DataType::Float),
        ColMeta::new("s", DataType::Str),
        ColMeta::new("d", DataType::Date),
        ColMeta::new("b", DataType::Int),
    ]
}

const STRINGS: [&str; 6] =
    ["", "PROMO anodized", "small BRASS", "MEDIUM POLISHED", "promo#2", "zinc"];

fn random_batch(rng: &mut StdRng, rows: usize) -> Batch {
    let f: Vec<f64> = (0..rows)
        .map(|_| match rng.random_range(0u32..16) {
            0 => f64::NAN,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => rng.random_range(-400i64..400) as f64 / 8.0,
        })
        .collect();
    Batch::new(vec![
        Column::from_i64((0..rows).map(|_| rng.random_range(-20i64..20)).collect()),
        Column::from_f64(f),
        Column::from_strings(
            (0..rows).map(|_| STRINGS[rng.random_range(0..STRINGS.len())].to_string()).collect(),
        ),
        Column::from_dates((0..rows).map(|_| rng.random_range(8000i64..8200)).collect()),
        Column::from_i64((0..rows).map(|_| rng.random_range(-20i64..20)).collect()),
    ])
}

fn random_cmp(rng: &mut StdRng, a: Expr, b: Expr) -> Expr {
    match rng.random_range(0u32..6) {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    }
}

fn random_leaf(rng: &mut StdRng) -> Expr {
    match rng.random_range(0u32..10) {
        0 => {
            let lit = Expr::lit(rng.random_range(-25i64..25));
            random_cmp(rng, Expr::col("a"), lit)
        }
        1 => {
            let lit = Expr::Lit(Datum::Date(rng.random_range(7990i64..8210)));
            random_cmp(rng, Expr::col("d"), lit)
        }
        2 => {
            let lit = Expr::lit(rng.random_range(-200i64..200) as f64 / 4.0);
            random_cmp(rng, Expr::col("f"), lit)
        }
        3 => {
            let lo = rng.random_range(-20i64..10);
            let hi = lo + rng.random_range(0i64..15);
            Expr::col("a").ge(Expr::lit(lo)).and(Expr::col("a").le(Expr::lit(hi)))
        }
        4 => Expr::col("a").in_list(
            (0..rng.random_range(1usize..6))
                .map(|_| Datum::Int(rng.random_range(-25i64..25)))
                .collect(),
        ),
        // Mixed-type IN list: the non-string literal is simply never a
        // member for a string column, not an error.
        5 => Expr::col("s").in_list(vec![
            Datum::Str(STRINGS[rng.random_range(0..STRINGS.len())].into()),
            Datum::Str("zinc".into()),
            Datum::Int(3),
        ]),
        6 => {
            let p = match rng.random_range(0u32..4) {
                0 => LikePattern::StartsWith("PROMO".into()),
                1 => LikePattern::EndsWith("ed".into()),
                2 => LikePattern::Contains("o".into()),
                _ => LikePattern::ContainsSeq("o".into(), "ed".into()),
            };
            if rng.random_bool(0.5) {
                Expr::col("s").like(p)
            } else {
                Expr::col("s").not_like(p)
            }
        }
        7 => random_cmp(rng, Expr::col("a"), Expr::col("b")),
        // Non-sargable arithmetic: compiles to the interpreter fallback
        // conjunct, evaluated over gathered survivors only.
        8 => {
            let shifted = Expr::col("a").add(Expr::lit(rng.random_range(-5i64..5)));
            let lit = Expr::lit(rng.random_range(-25i64..25));
            random_cmp(rng, shifted, lit)
        }
        _ => {
            let lit = Expr::lit(STRINGS[rng.random_range(0..STRINGS.len())]);
            random_cmp(rng, Expr::col("s"), lit)
        }
    }
}

fn random_pred(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_bool(0.4) {
        return random_leaf(rng);
    }
    match rng.random_range(0u32..4) {
        0 | 1 => random_pred(rng, depth - 1).and(random_pred(rng, depth - 1)),
        2 => random_pred(rng, depth - 1).or(random_pred(rng, depth - 1)),
        _ => random_pred(rng, depth - 1).not(),
    }
}

/// Randomized oracle: for every generated predicate and batch, the
/// compiled program must select exactly the rows `eval_bool` keeps, and
/// `SelVec::take` must reproduce `Batch::filter` bit-for-bit (compared
/// via `Debug` so NaN payloads count as equal to themselves).
#[test]
fn random_predicates_match_the_interpreter() {
    let schema = oracle_schema();
    let mut rng = StdRng::seed_from_u64(0xBDCC_0010);
    for case in 0..500 {
        let rows = match case % 7 {
            0 => 0,
            1 => 1,
            _ => rng.random_range(2usize..200),
        };
        let batch = random_batch(&mut rng, rows);
        let expr = random_pred(&mut rng, 3).bind(&schema).expect("well-typed");
        let program = FilterProgram::compile(&expr, &schema);
        let keep = expr.eval_bool(&batch).expect("well-typed eval");
        let sel = program.select(&batch).expect("kernel eval");
        assert_eq!(
            sel.to_rows(),
            sel_from_bools(&keep).to_rows(),
            "case {case}: selection mismatch for {expr:?}"
        );
        assert_eq!(
            format!("{:?}", sel.take(batch.clone())),
            format!("{:?}", batch.filter(&keep)),
            "case {case}: filtered payload mismatch for {expr:?}"
        );
    }
}

/// One long-lived program over many batches: running its conjuncts in
/// the compiled order, not the authored one, must never change what is
/// selected.
#[test]
fn compiled_order_stays_exact_across_batches() {
    let schema = oracle_schema();
    // Expensive selective LIKE first in authored order: the compiled
    // order runs it last, after the int and float ranges, and the
    // selectivity counters accumulate across conjuncts with very
    // different costs.
    let expr = Expr::col("s")
        .like(LikePattern::Contains("o".into()))
        .and(Expr::col("a").ge(Expr::lit(-5)))
        .and(Expr::col("f").lt(Expr::lit(20.0)))
        .bind(&schema)
        .expect("bound");
    let program = FilterProgram::compile(&expr, &schema);
    let mut rng = StdRng::seed_from_u64(0xBDCC_0011);
    for batch_no in 0..40 {
        let batch = random_batch(&mut rng, 128);
        let keep = expr.eval_bool(&batch).expect("eval");
        let sel = program.select(&batch).expect("kernel");
        assert_eq!(
            sel.to_rows(),
            sel_from_bools(&keep).to_rows(),
            "batch {batch_no} diverged from the interpreter"
        );
    }
}

/// EXPLAIN ANALYZE: a multi-conjunct filter must surface the kernel
/// annotations — leaf mix, per-conjunct selectivity, chosen order.
#[test]
fn explain_analyze_annotates_compiled_filters() {
    let db = bdcc::tpch::generate(&GenConfig::new(0.002));
    let sdb = Arc::new(plain_scheme(&db));
    let plan = filter(
        PlanBuilder::new().scan(
            "lineitem",
            &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
            vec![],
        ),
        Expr::col("l_shipdate")
            .ge(Expr::lit(bdcc_storage::parse_date("1994-01-01").unwrap()))
            .and(
                Expr::col("l_shipdate")
                    .lt(Expr::lit(bdcc_storage::parse_date("1995-01-01").unwrap())),
            )
            .and(Expr::col("l_discount").ge(Expr::lit(0.05)))
            .and(Expr::col("l_discount").le(Expr::lit(0.07)))
            .and(Expr::col("l_quantity").lt(Expr::lit(24.0))),
    );
    let ctx = QueryContext::new(sdb);
    let analyzed = explain_analyze(&ctx, &plan).expect("explain analyze");
    let (mut saw_kernel, mut saw_sel, mut saw_order) = (false, false, false);
    analyzed.profile.root.walk(&mut |node: &ProfileNode| {
        for (k, v) in &node.annotations {
            saw_kernel |= k == "kernel" && v.contains('k');
            saw_sel |= k == "kernel_sel";
            saw_order |= k == "kernel_order";
        }
    });
    assert!(saw_kernel, "filter must annotate its kernel/fallback leaf mix");
    assert!(saw_sel, "filter must annotate per-conjunct selectivities");
    assert!(saw_order, "multi-conjunct filter must annotate its chosen order");
    let rendered = analyzed.profile.render();
    assert!(rendered.contains("kernel"), "render must show kernel annotations:\n{rendered}");
}

/// The reference `LIKE`: the standard library's substring search, the
/// second literal searched after the first one's leftmost occurrence.
fn naive_like(p: &LikePattern, s: &str) -> bool {
    match p {
        LikePattern::StartsWith(x) => s.starts_with(x.as_str()),
        LikePattern::EndsWith(x) => s.ends_with(x.as_str()),
        LikePattern::Contains(x) => s.contains(x.as_str()),
        LikePattern::ContainsSeq(a, b) => match s.find(a.as_str()) {
            Some(i) => s[i + a.len()..].contains(b.as_str()),
            None => false,
        },
    }
}

/// A random string over a small alphabet of one-, two- and three-byte
/// characters, so literals drawn from it occur often and overlap.
fn random_text(rng: &mut StdRng, max_chars: usize) -> String {
    const ALPHABET: [char; 7] = ['a', 'b', 'a', 'b', ' ', 'é', '日'];
    let len = rng.random_range(0..=max_chars);
    (0..len).map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())]).collect()
}

fn like_patterns(rng: &mut StdRng) -> Vec<LikePattern> {
    use LikePattern::*;
    let mut patterns = vec![
        // Empty literals.
        StartsWith(String::new()),
        EndsWith(String::new()),
        Contains(String::new()),
        ContainsSeq(String::new(), String::new()),
        ContainsSeq("a".into(), String::new()),
        ContainsSeq(String::new(), "b".into()),
        // Longer than every haystack.
        Contains("ab".repeat(100)),
        StartsWith("ab".repeat(100)),
        // Self-overlapping: `aab` in `aaab`.
        Contains("aab".into()),
        Contains("abab".into()),
        // The second literal overlaps the first one's occurrence: `aba`
        // holds `ab` then `ba` only by sharing a `b`, which does not match.
        ContainsSeq("ab".into(), "ba".into()),
        ContainsSeq("aa".into(), "aa".into()),
        // Multi-byte literals.
        Contains("é".into()),
        EndsWith("日".into()),
        ContainsSeq("é".into(), "日a".into()),
    ];
    for _ in 0..24 {
        let (a, b) = (random_text(rng, 3), random_text(rng, 3));
        patterns.push(match rng.random_range(0u32..4) {
            0 => StartsWith(a),
            1 => EndsWith(a),
            2 => Contains(a),
            _ => ContainsSeq(a, b),
        });
    }
    patterns
}

#[test]
fn like_agrees_with_a_naive_reference_at_every_site() {
    let mut rng = StdRng::seed_from_u64(0xBDCC_0033);
    // Block 0 repeats 12 haystacks (a dictionary block); block 1's 256 are
    // all distinct and long (a raw block in an encoded table). The fixed
    // ones hold the overlap cases.
    let fixed = ["aaab", "aba", "abba", "aaa", "aaaa", "", "ab", "éa日a", "é日a"];
    let mut few: Vec<String> = fixed.map(String::from).to_vec();
    few.extend((0..3).map(|_| random_text(&mut rng, 12)));
    let mut hay: Vec<String> = (0..256).map(|i| few[i % few.len()].clone()).collect();
    hay.extend((0..256).map(|i| format!("{i:03}{}", random_text(&mut rng, 40))));
    let t = build_table(
        true,
        vec![
            ("h".into(), Column::from_strings(hay.clone())),
            ("k".into(), Column::from_i64((0..512).collect())),
        ],
        256,
    );
    let enc = t.encoding(0).expect("the string column is encoded");
    assert!(matches!(enc.block(0), BlockEncoding::DictStr { .. }), "block 0 is a dictionary");
    assert!(matches!(enc.block(1), BlockEncoding::Raw), "block 1 stays raw");

    let schema = vec![ColMeta::new("h", DataType::Str)];
    let batch = Batch::new(vec![Column::from_strings(hay.clone())]);
    for p in like_patterns(&mut rng) {
        for negate in [false, true] {
            let keep: Vec<bool> = hay.iter().map(|s| naive_like(&p, s) != negate).collect();
            let want: Vec<&String> =
                hay.iter().zip(&keep).filter(|(_, &k)| k).map(|(s, _)| s).collect();
            let expr = match negate {
                false => Expr::col("h").like(p.clone()),
                true => Expr::col("h").not_like(p.clone()),
            };
            let bound = expr.bind(&schema).unwrap();
            assert_eq!(bound.eval_bool(&batch).unwrap(), keep, "Expr::eval, {expr:?}");
            let program = FilterProgram::compile(&bound, &schema);
            assert_eq!(
                program.select(&batch).unwrap(),
                sel_from_bools(&keep),
                "FilterProgram, {expr:?}"
            );
            let pred = match negate {
                false => ColPredicate::like("h", p.clone()),
                true => ColPredicate::not_like("h", p.clone()),
            };
            let scan = Scan::blocks(Arc::clone(&t), env(), &["h"], vec![pred]).unwrap();
            let out = collect(Box::new(scan)).unwrap();
            let got: Vec<&str> = out.columns[0].as_str().unwrap().iter().collect();
            assert_eq!(got, want, "scan kernel, {expr:?}");
        }
    }
}

// --- the scan against the interpreter ---------------------------------------

/// A table over `columns`, block-encoded or its raw twin.
fn build_table(
    encoded: bool,
    columns: Vec<(String, Column)>,
    block_rows: usize,
) -> Arc<StoredTable> {
    let t = StoredTable::from_columns_with_block_rows("t", columns, block_rows).expect("table");
    Arc::new(if encoded { t } else { t.without_encodings() })
}

/// Every row of a scan's batches, in order: its `row` column, and the bit
/// patterns of its `f` column.
fn scanned(batches: impl IntoIterator<Item = Batch>) -> (Vec<i64>, Vec<u64>) {
    let (mut rows, mut bits) = (Vec::new(), Vec::new());
    for b in batches {
        rows.extend_from_slice(b.columns[0].as_i64().unwrap());
        bits.extend(b.columns[1].as_f64().unwrap().iter().map(|f| f.to_bits()));
    }
    (rows, bits)
}

fn drain(op: &mut dyn Operator) -> Vec<Batch> {
    std::iter::from_fn(|| op.next().expect("scan")).collect()
}

/// Scans `t` under `preds` — block by block, over `cuts` (runs cut
/// mid-block), and walked one 16-row morsel at a time — projecting
/// `row` and `f`, and checks each against the interpreter over the raw
/// columns: the same rows, the same float bits; or, when the interpreter
/// raises a type error, an `ExecError::Type` from the scan. Returns how
/// many rows the interpreter keeps, `None` for a type error.
fn check_scan(
    t: &Arc<StoredTable>,
    preds: &[ColPredicate],
    cuts: &[usize],
    what: &str,
) -> Option<usize> {
    let schema: Vec<ColMeta> =
        t.schema().columns.iter().map(|c| ColMeta::new(&c.name, c.data_type)).collect();
    let columns = (0..schema.len()).map(|i| (**t.column(i).unwrap()).clone()).collect();
    let batch = Batch::new(columns);
    let oracle = preds
        .iter()
        .map(ColPredicate::to_expr)
        .reduce(Expr::and)
        .map_or(Ok(vec![true; t.rows()]), |e| e.bind(&schema).unwrap().eval_bool(&batch));
    let blocks = ScanBlueprint::blocks(Arc::clone(t), &["row", "f"], preds.to_vec());
    let keep = match oracle {
        Ok(keep) => keep,
        Err(e) => {
            assert!(matches!(e, ExecError::Type(_)), "{what}: interpreter error {e:?}");
            assert!(
                matches!(blocks, Err(ExecError::Type(_))),
                "{what}: the scan must reject what the interpreter rejects, got {:?}",
                blocks.err()
            );
            return None;
        }
    };
    let f = t.column_by_name("f").unwrap().as_f64().unwrap();
    let want_rows: Vec<i64> = (0..t.rows() as i64).filter(|&r| keep[r as usize]).collect();
    let want_bits: Vec<u64> = want_rows.iter().map(|&r| f[r as usize].to_bits()).collect();
    let want = (want_rows, want_bits);

    let blocks = blocks.unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut inline = Scan::over(Arc::clone(&blocks), env(), 0..blocks.runs().len());
    assert_eq!(scanned(drain(&mut inline)), want, "{what}: block scan");
    let morsels = blocks.morsels(16).into_iter();
    let walked = morsels.flat_map(|m| drain(&mut Scan::over(Arc::clone(&blocks), env(), m)));
    assert_eq!(scanned(walked), want, "{what}: block scan morsel by morsel");

    let runs: Vec<Run> =
        cuts.windows(2).map(|w| Run { start: w[0], count: w[1] - w[0], keys: vec![] }).collect();
    let cut = ScanBlueprint::new(Arc::clone(t), &["row", "f"], preds.to_vec(), &[], runs).unwrap();
    let mut inline = Scan::over(Arc::clone(&cut), env(), 0..cut.runs().len());
    assert_eq!(scanned(drain(&mut inline)), want, "{what}: runs cut at {cuts:?}");
    Some(want.0.len())
}

const BIG: i64 = 1 << 53;

/// 8-row blocks, one shape per block of each column (the table's encoded
/// build picks FOR, RLE, dictionary and raw blocks from them), and a
/// 5-row tail.
fn equivalence_columns(rng: &mut StdRng) -> Vec<(String, Column)> {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        5e-324,
        BIG as f64,
        -(BIG as f64),
    ];
    let words = ["", "AIR", "RAIL", "SHIP", "é日", "PROMO BRASS", "MAIL", "zz"];
    let rows = 8 * 24 + 5;
    let (mut i, mut d, mut f, mut s) = (vec![], vec![], vec![], vec![]);
    for row in 0..rows {
        let (block, r) = (row / 8, row % 8);
        i.push(match block % 8 {
            0 => rng.random_range(-20i64..20),
            1 => 7,
            2 => [3, 9][r / 4],
            3 => BIG + rng.random_range(-3i64..5),
            4 => i64::MIN + rng.random_range(0i64..1 << 20),
            5 => i64::MAX - rng.random_range(0i64..1 << 20),
            6 => [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1, i64::MAX - 1, BIG][r],
            _ => [i64::MIN, i64::MAX][r / 4],
        });
        d.push(if block % 5 == 1 { 8100 } else { rng.random_range(8000i64..8200) });
        f.push(match block % 8 {
            0 => rng.random_range(-500i64..500) as f64 / 100.0,
            1 => specials[r],
            2 => -0.0,
            3 => f64::NAN,
            4 => BIG as f64 + [0.0, 2.0, -1.0, 4.0][r % 4],
            5 => specials[rng.random_range(0..specials.len())],
            6 => 0.0,
            _ => rng.random_range(-40i64..40) as f64 / 8.0,
        });
        s.push(match block % 4 {
            0 | 1 => words[rng.random_range(0..words.len())].to_string(),
            2 => format!("{row:03} {}", words[r]),
            _ => "RAIL".to_string(),
        });
    }
    vec![
        ("row".into(), Column::from_i64((0..rows as i64).collect())),
        ("i".into(), Column::from_i64(i)),
        ("d".into(), Column::from_dates(d)),
        ("f".into(), Column::from_f64(f)),
        ("s".into(), Column::from_strings(s)),
    ]
}

/// A constant for a predicate on `col`: mostly one that compares with the
/// column (often a value it holds), sometimes one of another kind,
/// sometimes a string against a number or a number against a string.
fn random_constant(rng: &mut StdRng, t: &StoredTable, col: &str) -> Datum {
    let held = t.column_by_name(col).unwrap().datum(rng.random_range(0..t.rows()));
    let ints = [
        0,
        1,
        -1,
        7,
        BIG - 1,
        BIG,
        BIG + 1,
        BIG + 2,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        i64::MAX - 1,
    ];
    let floats = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        2.5,
        7.0,
        BIG as f64,
        BIG as f64 + 2.0,
        i64::MAX as f64,
        i64::MIN as f64,
    ];
    let strings = ["", "RAIL", "S", "zzz", "é"];
    match (col, rng.random_range(0u32..20)) {
        (_, 0..=7) => held,
        ("s", 8..=18) => Datum::Str(strings[rng.random_range(0usize..5)].into()),
        (_, 8..=12) => Datum::Int(ints[rng.random_range(0..ints.len())]),
        (_, 13..=17) => Datum::Float(floats[rng.random_range(0..floats.len())]),
        ("d", 18) => Datum::Date(rng.random_range(7990i64..8210)),
        ("s", _) => Datum::Int(3),
        _ => Datum::Str(strings[rng.random_range(0usize..5)].into()),
    }
}

fn random_col_predicate(rng: &mut StdRng, t: &StoredTable) -> ColPredicate {
    let column = ["i", "d", "f", "s"][rng.random_range(0usize..4)];
    let c = |rng: &mut StdRng| random_constant(rng, t, column);
    let kind = match rng.random_range(0u32..12) {
        0 | 1 => PredKind::Eq(c(rng)),
        2 => PredKind::Ne(c(rng)),
        3..=7 => {
            let (lo, hi) = (c(rng), c(rng));
            let (lo, hi) = match rng.random_range(0u32..4) {
                0 => (Some(lo), None),
                1 => (None, Some(hi)),
                2 => (None, None),
                _ => (Some(lo), Some(hi)),
            };
            let (lo_inclusive, hi_inclusive) = (rng.random_bool(0.5), rng.random_bool(0.5));
            PredKind::Range { lo, lo_inclusive, hi, hi_inclusive }
        }
        8 | 9 => PredKind::In((0..rng.random_range(0..5)).map(|_| c(rng)).collect()),
        _ => {
            // Rarely on a number, where it is a type error.
            let p = match rng.random_range(0u32..4) {
                0 => LikePattern::StartsWith(["PR", "", "R"][rng.random_range(0usize..3)].into()),
                1 => LikePattern::EndsWith("IL".into()),
                2 => LikePattern::Contains(["A", "日", " "][rng.random_range(0usize..3)].into()),
                _ => LikePattern::ContainsSeq("R".into(), "A".into()),
            };
            let column = if rng.random_bool(0.9) { "s" } else { column };
            let kind = if rng.random_bool(0.5) { PredKind::Like(p) } else { PredKind::NotLike(p) };
            return ColPredicate { column: column.into(), kind };
        }
    };
    ColPredicate { column: column.into(), kind }
}

#[test]
fn scans_match_the_interpreter_on_every_sargable_predicate() {
    let mut rng = StdRng::seed_from_u64(0xBDCC_0035);
    let columns = equivalence_columns(&mut rng);
    let tables = [build_table(true, columns.clone(), 8), build_table(false, columns, 8)];
    // The encoded build holds every codec the kernel reads: FOR blocks at
    // both `i64` extremes, RLE, dictionaries, and raw blocks — among them
    // the one spanning i64::MIN..=i64::MAX, which no FOR block can (its
    // deltas would need all 64 bits, and 64-bit packing never beats raw).
    let codec = |col: usize, block: usize| tables[0].encoding(col).map(|e| e.block(block).tag());
    assert_eq!(codec(1, 4), Some("for"), "FOR block at i64::MIN");
    assert_eq!(codec(1, 5), Some("for"), "FOR block at i64::MAX");
    assert_eq!(codec(1, 6), Some("raw"), "a block spanning i64::MIN..=i64::MAX stays raw");
    assert_eq!(codec(1, 7), Some("rle"));
    assert_eq!(codec(4, 0), Some("dict"));
    assert!(tables[1].encoding(1).is_none() && tables[1].encoding(4).is_none());

    let rows = tables[0].rows();
    let (mut type_errors, mut cutting) = (0, 0);
    for case in 0..600 {
        let preds: Vec<ColPredicate> = (0..rng.random_range(1..4))
            .map(|_| random_col_predicate(&mut rng, &tables[0]))
            .collect();
        let mut cuts: Vec<usize> =
            (0..rng.random_range(0..12)).map(|_| rng.random_range(0..rows)).collect();
        cuts.extend([0, rows]);
        cuts.sort_unstable();
        cuts.dedup();
        for (t, build) in tables.iter().zip(["encoded", "raw"]) {
            match check_scan(t, &preds, &cuts, &format!("case {case}, {build}, {preds:?}")) {
                None => type_errors += 1,
                Some(kept) => cutting += (0 < kept && kept < rows) as usize,
            }
        }
    }
    // The generator reaches both outcomes often (counted per table).
    assert!(type_errors >= 40, "{type_errors} ill-typed scans");
    assert!(cutting >= 400, "{cutting} scans keep some rows but not all");
}

/// Float MinMax stats order by `total_cmp`, as the interpreter compares: a
/// block holding a NaN has it as its max, one opening with NaN keeps its
/// true min, and −0.0 sorts below 0.0 — so no scan prunes a row the
/// interpreter keeps.
#[test]
fn float_stats_prune_only_what_the_interpreter_drops() {
    let f = vec![1.0, f64::NAN, 2.0, 1.5, f64::NAN, -5.0, 2.0, 1.5, 0.0, -0.0, 0.0, 0.0];
    let columns = || {
        vec![
            ("row".to_string(), Column::from_i64((0..12).collect())),
            ("f".to_string(), Column::from_f64(f.clone())),
        ]
    };
    let preds = [
        ColPredicate::gt("f", 5.0),
        ColPredicate::lt("f", 0.0),
        ColPredicate::lt("f", 0i64),
        ColPredicate::eq("f", -0.0),
    ];
    for encoded in [true, false] {
        let t = build_table(encoded, columns(), 4);
        for p in &preds {
            check_scan(
                &t,
                std::slice::from_ref(p),
                &[0, 6, 12],
                &format!("{p:?}, encoded {encoded}"),
            );
        }
        // And, spelled out, the rows the old `<` / `>` stats lost.
        let scan = Scan::blocks(Arc::clone(&t), env(), &["row", "f"], vec![preds[0].clone()]);
        assert_eq!(scanned(drain(&mut scan.unwrap())).0, [1, 4]);
        let scan = Scan::blocks(Arc::clone(&t), env(), &["row", "f"], vec![preds[1].clone()]);
        assert_eq!(scanned(drain(&mut scan.unwrap())).0, [5, 9]);
    }
}
