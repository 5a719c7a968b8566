//! A columnar SQL engine co-designed for the DPU (§5.3).
//!
//! The engine mirrors the paper's design: data lives in column-major
//! tables in DRAM; queries decompose into streaming primitives — filter
//! (BVLD/FILT), partition (DMS hardware + software rounds), group-by with
//! DMEM-resident hash tables, partitioned hash join, and top-k — that are
//! parallelized across the 32 dpCores. "Our query processing software is
//! designed around careful partitioning of the data to ensure that each
//! partition's data structures fit into the DMEM", guaranteeing
//! single-cycle access.
//!
//! Every operator executes *functionally* (results are checked against
//! naive reference implementations) while reporting the byte volumes and
//! operation counts that the DPU simulator and the Xeon model price.
//! The host inner loops (filter evaluation, group-by probes, the top-k
//! pre-filter) run hand-rolled SWAR kernels — see [`vector`]. The
//! joins' reported partition sizes hash with the SSE4.2 CRC32-C
//! instruction where the host has it and the table-driven CRC where it
//! does not; group-bys key each tuple by one order-preserving `u64`
//! code. The tests check every kernel against a reference
//! implementation.
//! Columns additionally carry a frame-of-reference bit-packed resident
//! form ([`column::PackedColumn`]) that prices every simulated scan.
//! Filters on a packed column execute on it in the encoded domain;
//! every other operator reads the flat values resident beside it.
//!
//! On the host every operator runs one sequential path. The host's
//! parallelism sits above the operators, as the rack's does: the
//! `dpu_pool` fan-out runs shards, queries and sweep cells side by side,
//! each of them on one thread.
//!
//! [`tpch`] provides a scaled TPC-H generator (one sequential pass over
//! one seeded stream) and eight queries used by the Figure 16
//! reproduction.

pub mod agg;
pub mod bitvec;
pub mod column;
pub mod expr;
pub mod filter;
pub mod hll;
pub mod join;
pub(crate) mod key;
pub mod logical;
pub mod plan;
pub mod sort;
pub mod topk;
pub mod tpch;
pub mod vector;
pub mod walk;

pub use agg::{AggFunc, GroupByPlan, GroupBySpec};
pub use bitvec::BitVec;
pub use column::{pack, Column, Pack, PackChunk, PackedColumn, Table};
pub use expr::Expr;
pub use filter::{measure_filter_kernel, CompareOp, FilterSpec};
pub use hll::{HyperLogLog, RankMethod};
pub use join::HashJoin;
pub use logical::{
    BaseTable, ColFilter, Finish, JoinEdge, JoinGraph, LogicalOutput, LogicalPlan, Relation, Source,
};
pub use plan::{CostAcc, PlatformCost, QueryCost};
pub use sort::{sample_bounds, sort_indices};
pub use topk::top_k;
pub use vector::{kernel as vector_kernel, Kernel};
pub use walk::{Op, Rows, Trace};
