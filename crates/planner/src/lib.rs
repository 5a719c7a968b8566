//! Cost-based distributed query planner (ISSUE 6).
//!
//! Every query is a logical plan (`dpu_sql::logical`) run through
//! `Cluster::run_planned`; `dpu_cluster::default_physical` is each
//! query's default plan. This crate searches for cheaper ones, closing
//! the loop from declarative query to distributed plan:
//!
//! - [`stats`] — per-shard statistics: row counts (shared with the skew
//!   report's source of truth), min/max bands, and HyperLogLog NDV
//!   sketches merged across shards at the coordinator.
//! - [`cost`] — a cardinality estimator whose per-operator rows feed
//!   the executor's own cost walk (`LogicalPlan::cost`), plus a fabric
//!   model of each merge strategy (a gather serializes one RX NIC; a
//!   shuffle spreads the bytes over all of them).
//! - [`optimizer`] — predicate pushdown, DP join-order search over the
//!   query's join graph, and merge placement; any chosen plan is
//!   bit-identical to the default plan because every finishing
//!   operator canonicalizes its output.
//! - [`mod@explain`] — a stable text rendering with estimated vs actual
//!   rows per operator.
//! - [`profile`] — adaptive re-optimization: a [`ServeHook`] that
//!   charges each template its selected plan's profiled cost and
//!   re-ranks candidates mid-run once observed traffic contradicts the
//!   estimates, logging every plan switch.
//!
//! [`ServeHook`]: dpu_cluster::ServeHook

pub mod cost;
pub mod explain;
pub mod optimizer;
pub mod profile;
pub mod stats;

pub use cost::{CostModel, PlanEstimate, HAVING_SELECTIVITY};
pub use explain::explain;
pub use optimizer::{hoist_filters, pushdown, PlanChoice, Planner};
pub use profile::{AdaptiveServer, CandidatePlan, PlanSwitch, PlannerMode, TemplateProfile};
pub use stats::{Catalog, ColumnStats, TableStats, SKETCH_PRECISION};
