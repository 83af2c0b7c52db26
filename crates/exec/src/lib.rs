//! # bdcc-exec — vectorized execution over BDCC schemas
//!
//! The query-processing substrate the paper's evaluation runs on, built
//! from scratch: a pull-based, batch-at-a-time executor with the three
//! access paths the Plain / PK / BDCC storage schemes need, the sandwich
//! operators of ref \[3\], and the plan-time analyses that turn predicates
//! into BDCC group restrictions (selection pushdown and propagation).

#![forbid(unsafe_code)]

pub mod batch;
pub mod enc;
pub mod error;
pub mod expr;
pub mod govern;
pub mod hash;
pub mod kernel;
pub mod memory;
pub mod ops;
pub mod parallel;
pub mod plan;
pub mod planner;
pub mod pred;
pub mod profile;
pub mod restrict;
pub mod run;
pub mod scheme;
pub mod serve;
mod spill;

pub use batch::{Batch, BatchAssembler, ColMeta, OpSchema, BATCH_ROWS};
pub use bdcc_obs::{OpMetrics, ProfileNode, QueryProfile};
pub use bdcc_pool::{CancelReason, CancelToken, FaultInjector, FaultPlan};
pub use bdcc_storage::Datum;
pub use enc::{BlockVerdict, ScanKernel};
pub use error::{ExecError, Result};
pub use expr::{ArithOp, CmpOp, Expr, LikePattern};
pub use govern::{spill_mode, GovernedOp, Governor, SpillMode};
pub use hash::{FxBuildHasher, FxHasher, JoinIndex};
pub use kernel::{FilterProgram, PairFilter, SelVec};
pub use memory::{MemoryGuard, MemoryTracker};
pub use ops::agg::{AggFunc, AggSpec};
pub use ops::join::{JoinType, MATCHED_COLUMN};
pub use ops::sort::SortKey;
pub use ops::{collect, BoxedOp, OpEnv, Operator};
pub use parallel::{ParallelConfig, DEFAULT_MORSEL_ROWS};
pub use plan::{
    aggregate, alias_column, filter, join, join_full, project, sort, FkSide, Needed, Node,
    PlanBuilder,
};
pub use planner::{plan_query, QueryContext};
pub use pred::{ColPredicate, PredKind};
pub use profile::{OpProf, ProfiledOp, Profiler};
pub use run::{canonical_rows, explain_analyze, run_measured, run_plan, Analyzed, Measurement};
pub use scheme::{bdcc_scheme, pk_scheme, plain_scheme, Scheme, SchemeDb};
pub use serve::{QueryHandle, QueryOptions, QueryOutcome, ServeError, Server, ServerConfig};
