//! `StrVec` — and the string `Column` built on it — against a `Vec<String>`
//! oracle.
//!
//! The string column keeps every value in one buffer; whatever sequence of
//! operations built it, it must read back exactly what the same operations
//! over a plain vector of strings produce, and two columns holding the same
//! values must compare equal however they were built (the layout is always
//! canonical). The pool the values are drawn from holds the awkward ones:
//! the empty string, multi-byte UTF-8 of every width, and a value long
//! enough to dominate a buffer.

use bdcc_storage::{Column, StorageError, StrVec};
use proptest::prelude::*;

fn pool() -> Vec<String> {
    ["", "a", "R", "αβγ", "日本語", "é", "🙂🙂", "AIR", "REG AIR"]
        .iter()
        .map(|s| s.to_string())
        .chain([("x".repeat(70))])
        .collect()
}

fn draw(picks: &[usize]) -> Vec<String> {
    let pool = pool();
    picks.iter().map(|&i| pool[i % pool.len()].clone()).collect()
}

/// `v` reads back as `oracle`, by every accessor.
fn assert_same(v: &StrVec, oracle: &[String]) {
    assert_eq!(v.len(), oracle.len());
    assert_eq!(v.is_empty(), oracle.is_empty());
    assert_eq!(v.byte_len(), oracle.iter().map(|s| s.len()).sum::<usize>());
    assert_eq!(v.iter().len(), oracle.len());
    assert!(v.iter().eq(oracle.iter().map(String::as_str)));
    for (i, s) in oracle.iter().enumerate() {
        assert_eq!(v.get(i), s);
        assert_eq!(&v[i], s);
    }
    // Canonical form: equal to the same values pushed one by one.
    let mut pushed = StrVec::new();
    oracle.iter().for_each(|s| pushed.push(s));
    assert_eq!(v, &pushed);
}

/// The payload of a string column.
fn strs(c: &Column) -> &StrVec {
    c.as_str().expect("a string column")
}

/// Two cut points in `0..=n`, ordered.
fn cuts(n: usize, (a, b): (u64, u64)) -> (usize, usize) {
    let (a, b) = (a as usize % (n + 1), b as usize % (n + 1));
    (a.min(b), a.max(b))
}

proptest! {
    #[test]
    fn collect_push_and_iterate(picks in prop::collection::vec(0usize..64, 0..300)) {
        let oracle = draw(&picks);
        let v: StrVec = oracle.iter().collect();
        assert_same(&v, &oracle);
        let (from, to) = cuts(oracle.len(), (picks.len() as u64 * 7, picks.len() as u64 * 13));
        assert!(v.iter_range(from..to).eq(oracle[from..to].iter().map(String::as_str)));
    }

    #[test]
    fn gather_takes_any_indices_in_any_order(
        picks in prop::collection::vec(0usize..64, 1..200),
        idx in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        let oracle = draw(&picks);
        let col = Column::from_strings(oracle.clone());
        // Repeats, descending stretches and omissions all occur.
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize % oracle.len()).collect();
        let want: Vec<String> = idx.iter().map(|&i| oracle[i].clone()).collect();
        assert_same(strs(&col.gather(&idx)), &want);
        assert_same(&strs(&col).gather(idx.iter().copied()), &want);
        let idx32: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
        assert_eq!(col.gather_u32(&idx32), col.gather(&idx));
    }

    #[test]
    fn filter_keeps_flagged_rows(
        rows in prop::collection::vec((0usize..64, any::<bool>()), 0..300),
    ) {
        let oracle = draw(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let keep: Vec<bool> = rows.iter().map(|r| r.1).collect();
        let col = Column::from_strings(oracle.clone());
        let want: Vec<String> =
            oracle.iter().zip(&keep).filter(|(_, &k)| k).map(|(s, _)| s.clone()).collect();
        assert_same(strs(&col.filter(&keep)), &want);
    }

    #[test]
    fn slices_compose_and_compare_equal(
        picks in prop::collection::vec(0usize..64, 0..300),
        outer in (any::<u64>(), any::<u64>()),
        inner in (any::<u64>(), any::<u64>()),
    ) {
        let oracle = draw(&picks);
        let v = Column::from_strings(oracle.clone());
        let (a, b) = cuts(oracle.len(), outer);
        let slice = v.slice(a, b);
        assert_same(strs(&slice), &oracle[a..b]);
        // A slice of a slice is the slice of the sum — and equal to it,
        // though the two were cut from different buffers.
        let (c, d) = cuts(b - a, inner);
        assert_eq!(slice.slice(c, d), v.slice(a + c, a + d));
        assert_same(strs(&slice.slice(c, d)), &oracle[a + c..a + d]);
    }

    #[test]
    fn append_range_extends_in_place(
        left in prop::collection::vec(0usize..64, 0..150),
        right in prop::collection::vec(0usize..64, 0..150),
        range in (any::<u64>(), any::<u64>()),
    ) {
        let (l, r) = (draw(&left), draw(&right));
        let (from, to) = cuts(r.len(), range);
        let mut v: StrVec = l.iter().collect();
        v.append_range(&r.iter().collect(), from, to);
        let want: Vec<String> = l.iter().chain(&r[from..to]).cloned().collect();
        assert_same(&v, &want);
    }

    #[test]
    fn the_byte_model_is_len_plus_one_per_value(picks in prop::collection::vec(0usize..64, 1..300)) {
        // What tracked memory and the I/O model are computed from: unchanged
        // from the days a string was its own allocation.
        let oracle = draw(&picks);
        let total: usize = oracle.iter().map(|s| s.len() + 1).sum();
        let col = Column::from_strings(oracle.clone());
        assert_eq!(col.avg_width(), total as f64 / oracle.len() as f64);
    }
}

#[test]
fn empty_columns_behave() {
    assert_same(&StrVec::new(), &[]);
    assert_eq!(StrVec::default(), StrVec::new());
    let empty = Column::empty(bdcc_storage::DataType::Str);
    assert_same(strs(&empty.slice(0, 0)), &[]);
    assert_same(strs(&empty.gather(&[])), &[]);
    assert_same(strs(&empty.filter(&[])), &[]);
    assert_eq!(empty.avg_width(), 1.0);
}

#[test]
fn appending_across_types_is_still_a_typed_error() {
    let mut s = Column::from_strings(vec!["a".into()]);
    for other in
        [Column::from_i64(vec![1]), Column::from_dates(vec![1]), Column::from_f64(vec![1.0])]
    {
        assert!(matches!(s.append(&other), Err(StorageError::TypeMismatch { .. })));
        let mut other = other;
        assert!(matches!(other.append(&s), Err(StorageError::TypeMismatch { .. })));
    }
    assert_eq!(s.len(), 1);
    s.append(&Column::from_strings(vec!["".into(), "βeta".into()])).unwrap();
    assert_eq!(s, Column::from_strings(vec!["a".into(), "".into(), "βeta".into()]));
}
