//! Structural validation of each TPC-H query's result on the BDCC scheme:
//! arity, orderings, domains and cardinality bounds that hold for any
//! generated instance at this scale. Complements `cross_scheme.rs` (which
//! proves the three schemes agree) by checking the answers are *sensible*,
//! not just consistent.

use std::sync::Arc;

use bdcc::prelude::*;
use bdcc_exec::{Batch, QueryContext};

fn run_all() -> Vec<(usize, Batch)> {
    let sf = 0.004;
    let db = bdcc::tpch::generate(&GenConfig::new(sf));
    let sdb = Arc::new(bdcc_scheme(&db, &DesignConfig::default()).unwrap());
    all_queries()
        .into_iter()
        .map(|q| {
            let ctx = QueryCtx::new(QueryContext::new(Arc::clone(&sdb)), sf);
            (q.id, (q.run)(&ctx).unwrap())
        })
        .collect()
}

fn get(results: &[(usize, Batch)], id: usize) -> &Batch {
    &results.iter().find(|(q, _)| *q == id).unwrap().1
}

#[test]
fn query_results_have_expected_shapes() {
    let results = run_all();

    // Q1: ≤ 6 (returnflag, linestatus) combinations, 10 columns, sorted.
    let q1 = get(&results, 1);
    assert!(q1.rows() >= 3 && q1.rows() <= 6);
    assert_eq!(q1.arity(), 10);
    let flags: Vec<&str> = q1.columns[0].as_str().unwrap().iter().collect();
    assert!(flags.windows(2).all(|w| w[0] <= w[1]));
    // avg_qty between 1 and 50 by construction.
    for &v in q1.columns[6].as_f64().unwrap() {
        assert!((1.0..=50.0).contains(&v));
    }

    // Q3: top-10 by revenue descending.
    let q3 = get(&results, 3);
    assert!(q3.rows() <= 10);
    let rev = q3.columns.last().unwrap().as_f64().unwrap();
    assert!(rev.windows(2).all(|w| w[0] >= w[1]));

    // Q4: at most the 5 priorities, counts positive.
    let q4 = get(&results, 4);
    assert!(q4.rows() <= 5 && q4.rows() >= 1);
    assert!(q4.columns[1].as_i64().unwrap().iter().all(|&c| c > 0));

    // Q5: ≤ 5 ASIA nations, revenue descending.
    let q5 = get(&results, 5);
    assert!(q5.rows() <= 5);
    let rev = q5.columns[1].as_f64().unwrap();
    assert!(rev.windows(2).all(|w| w[0] >= w[1]));

    // Q6: a single positive scalar.
    let q6 = get(&results, 6);
    assert_eq!((q6.rows(), q6.arity()), (1, 1));
    assert!(q6.columns[0].as_f64().unwrap()[0] > 0.0);

    // Q7: only FRANCE/GERMANY pairs in 1995/1996.
    let q7 = get(&results, 7);
    for r in 0..q7.rows() {
        let supp = &q7.columns[0].as_str().unwrap()[r];
        let cust = &q7.columns[1].as_str().unwrap()[r];
        assert_ne!(supp, cust);
        assert!(["FRANCE", "GERMANY"].contains(&supp));
        let year = q7.columns[2].as_i64().unwrap()[r];
        assert!((1995..=1996).contains(&year));
    }

    // Q8: market share is a fraction per year.
    let q8 = get(&results, 8);
    for &share in q8.columns[1].as_f64().unwrap() {
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }

    // Q10: top-20 customers, revenue desc.
    let q10 = get(&results, 10);
    assert!(q10.rows() <= 20);

    // Q12: exactly the two ship modes, high+low = total lines > 0.
    let q12 = get(&results, 12);
    assert!(q12.rows() <= 2);
    let modes = q12.columns[0].as_str().unwrap();
    assert!(modes.iter().all(|m| m == "MAIL" || m == "SHIP"));

    // Q13: distribution counts sum to the number of customers.
    let q13 = get(&results, 13);
    let total: i64 = q13.columns[1].as_i64().unwrap().iter().sum();
    assert_eq!(total, 600, "every customer appears once in the histogram");

    // Q14: promo share within 0..100.
    let q14 = get(&results, 14);
    let share = q14.columns[0].as_f64().unwrap()[0];
    assert!((0.0..=100.0).contains(&share));

    // Q15: the top supplier(s) all share the maximal revenue.
    let q15 = get(&results, 15);
    assert!(q15.rows() >= 1);
    let revs = q15.columns[4].as_f64().unwrap();
    assert!(revs.iter().all(|&r| (r - revs[0]).abs() < 1e-6));

    // Q16: supplier counts positive and ≤ total suppliers.
    let q16 = get(&results, 16);
    for &c in q16.columns[3].as_i64().unwrap() {
        assert!((1..=40).contains(&c));
    }

    // Q17: one scalar ≥ 0.
    let q17 = get(&results, 17);
    assert_eq!(q17.rows(), 1);

    // Q18: quantities above the threshold, ≤ 100 rows.
    let q18 = get(&results, 18);
    assert!(q18.rows() <= 100);
    for &q in q18.columns[5].as_f64().unwrap() {
        assert!(q > 250.0);
    }

    // Q21: numwait descending, supplier names well-formed.
    let q21 = get(&results, 21);
    let w = q21.columns[1].as_i64().unwrap();
    assert!(w.windows(2).all(|a| a[0] >= a[1]));
    for s in q21.columns[0].as_str().unwrap().iter() {
        assert!(s.starts_with("Supplier#"));
    }

    // Q22: country codes from the fixed list, positive balances.
    let q22 = get(&results, 22);
    for r in 0..q22.rows() {
        let code = &q22.columns[0].as_str().unwrap()[r];
        assert!(["13", "31", "23", "29", "30", "18", "17"].contains(&code));
        assert!(q22.columns[2].as_f64().unwrap()[r] > 0.0);
    }
}

#[test]
fn queries_are_deterministic_across_runs() {
    let a = run_all();
    let b = run_all();
    for ((ida, ba), (idb, bb)) in a.iter().zip(&b) {
        assert_eq!(ida, idb);
        assert_eq!(
            bdcc_exec::canonical_rows(ba),
            bdcc_exec::canonical_rows(bb),
            "Q{ida} must be deterministic"
        );
    }
}
