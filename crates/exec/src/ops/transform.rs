//! Row-wise transformations: filter and project.

use std::sync::Arc;

use bdcc_obs::OpMetrics;

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
        // Limit queries can drop the operator before exhaustion; make
        // sure the annotations still reach the profile.
        self.flush_annotations();
    }
}

/// Projection: compute named expressions over the input.
pub struct Project {
    input: BoxedOp,
    exprs: Vec<Expr>,
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
        Ok(Project { input, exprs: bound, schema })
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
        match self.input.next()? {
            Some(batch) => {
                let columns =
                    self.exprs.iter().map(|e| e.eval(&batch)).collect::<Result<Vec<_>>>()?;
                Ok(Some(Batch::new(columns)))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use bdcc_storage::{Column, DataType};

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
    fn project_columns_subset() {
        let src =
            Source::new(vec![("a", Column::from_i64(vec![1])), ("b", Column::from_i64(vec![2]))]);
        let p = Project::columns(Box::new(src), &["b"]).unwrap();
        let out = collect(Box::new(p)).unwrap();
        assert_eq!(out.arity(), 1);
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2]);
    }
}
