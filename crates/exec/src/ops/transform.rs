//! Row-wise transformations: filter and project.

use std::sync::Arc;

use bdcc_obs::OpMetrics;
use bdcc_storage::Column;

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::error::Result;
use crate::expr::Expr;
use crate::kernel::FilterProgram;
use crate::ops::{BoxedOp, Operator};

/// Row-wise filter over an arbitrary boolean expression.
///
/// The bound predicate is compiled once into a [`FilterProgram`] (see
/// [`crate::kernel`]); batches where every row survives pass through
/// without copying a column.
pub struct Filter {
    input: BoxedOp,
    program: FilterProgram,
    schema: OpSchema,
    metrics: Option<Arc<OpMetrics>>,
    annotated: bool,
}

impl Filter {
    /// `predicate` is bound against the input schema here.
    pub fn new(input: BoxedOp, predicate: Expr) -> Result<Filter> {
        let schema = input.schema().clone();
        let program = FilterProgram::compile(&predicate.bind(&schema)?, &schema);
        Ok(Filter { input, program, schema, metrics: None, annotated: false })
    }

    /// Attach the operator's profile metrics (kernel annotations land
    /// there at stream end).
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> Filter {
        self.metrics = metrics;
        self
    }

    fn flush_annotations(&mut self) {
        if self.annotated {
            return;
        }
        self.annotated = true;
        if let Some(m) = &self.metrics {
            self.program.annotate(m);
        }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        while let Some(batch) = self.input.next()? {
            let sel = self.program.select(&batch)?;
            if !sel.is_empty() {
                return Ok(Some(sel.take(batch)));
            }
        }
        self.flush_annotations();
        Ok(None)
    }
}

impl Drop for Filter {
    fn drop(&mut self) {
        // A consumer can drop the operator before exhaustion; make sure
        // the annotations still reach the profile.
        self.flush_annotations();
    }
}

/// Projection: compute named expressions over the input.
///
/// A bare input column is moved out of the input batch at its last
/// reference, not copied; only an earlier reference to the same column
/// (and every computed expression) is evaluated over the batch.
pub struct Project {
    input: BoxedOp,
    exprs: Vec<Expr>,
    /// Per output: the input column it moves out, when it is that
    /// column's last bare reference.
    moves: Vec<Option<usize>>,
    schema: OpSchema,
}

impl Project {
    /// `exprs` are `(expression, output name)` pairs, bound here.
    pub fn new(input: BoxedOp, exprs: Vec<(Expr, String)>) -> Result<Project> {
        let in_schema = input.schema().clone();
        let mut bound = Vec::with_capacity(exprs.len());
        let mut schema = Vec::with_capacity(exprs.len());
        for (e, name) in exprs {
            let dt = e.data_type(&in_schema)?;
            bound.push(e.bind(&in_schema)?);
            schema.push(ColMeta::new(name, dt));
        }
        let moves = (0..bound.len())
            .map(|k| match bound[k] {
                Expr::ColIdx(i) if !bound[k + 1..].contains(&Expr::ColIdx(i)) => Some(i),
                _ => None,
            })
            .collect();
        Ok(Project { input, exprs: bound, moves, schema })
    }

    /// Keep a subset of input columns by name (common case).
    pub fn columns(input: BoxedOp, names: &[&str]) -> Result<Project> {
        let exprs = names.iter().map(|&n| (Expr::col(n), n.to_string())).collect();
        Project::new(input, exprs)
    }
}

impl Operator for Project {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next()? else { return Ok(None) };
        // Everything that reads the batch runs before any column moves out.
        let evaluated = self
            .exprs
            .iter()
            .zip(&self.moves)
            .map(|(e, m)| if m.is_some() { Ok(None) } else { e.eval(&batch).map(Some) })
            .collect::<Result<Vec<_>>>()?;
        let mut input: Vec<Option<Column>> = batch.columns.into_iter().map(Some).collect();
        let columns = evaluated
            .into_iter()
            .zip(&self.moves)
            .map(|(c, m)| c.or_else(|| input[m.expect("a moved column")].take()))
            .collect::<Option<Vec<_>>>()
            .expect("each input column moves out once");
        Ok(Some(Batch::new(columns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use bdcc_storage::DataType;

    struct Source {
        schema: OpSchema,
        batches: Vec<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>) -> Source {
            let schema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let batch = Batch::new(cols.into_iter().map(|(_, c)| c).collect());
            Source { schema, batches: vec![batch] }
        }
    }

    impl Operator for Source {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.pop())
        }
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let src = Source::new(vec![("a", Column::from_i64(vec![1, 2, 3, 4]))]);
        let f = Filter::new(Box::new(src), Expr::col("a").gt(Expr::lit(2))).unwrap();
        let out = collect(Box::new(f)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[3, 4]);
    }

    #[test]
    fn project_computes_expressions() {
        let src = Source::new(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_f64(vec![10.0, 20.0])),
        ]);
        let p = Project::new(
            Box::new(src),
            vec![(Expr::col("b").mul(Expr::col("a")), "prod".to_string())],
        )
        .unwrap();
        assert_eq!(p.schema()[0], ColMeta::new("prod", DataType::Float));
        let out = collect(Box::new(p)).unwrap();
        assert_eq!(out.columns[0].as_f64().unwrap(), &[10.0, 40.0]);
    }

    #[test]
    fn project_moves_bare_columns_and_clones_earlier_duplicates() {
        let cols = vec![
            ("a", Column::from_i64(vec![1, 2, 3])),
            ("s", Column::from_strings(vec!["x".into(), "yy".into(), "".into()])),
            ("b", Column::from_f64(vec![0.5, 1.5, 2.5])),
        ];
        let schema: OpSchema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
        let input = Batch::new(cols.iter().map(|(_, c)| c.clone()).collect());
        let exprs = vec![
            (Expr::col("s"), "s1"),
            (Expr::col("b").mul(Expr::col("a")), "prod"),
            (Expr::col("a"), "a"),
            (Expr::col("s"), "s2"),
        ];
        let want: Vec<Column> =
            exprs.iter().map(|(e, _)| e.bind(&schema).unwrap().eval(&input).unwrap()).collect();
        let exprs = exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect();
        let p = Project::new(Box::new(Source::new(cols)), exprs).unwrap();
        assert_eq!(p.moves, vec![None, None, Some(0), Some(1)]);
        let out = collect(Box::new(p)).unwrap();
        assert_eq!(out.columns, want);
    }

    #[test]
    fn project_columns_subset() {
        let src =
            Source::new(vec![("a", Column::from_i64(vec![1])), ("b", Column::from_i64(vec![2]))]);
        let p = Project::columns(Box::new(src), &["b"]).unwrap();
        let out = collect(Box::new(p)).unwrap();
        assert_eq!(out.arity(), 1);
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2]);
    }
}
