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
//! The host inner loops (filter evaluation, CRC32 partitioning, group-by
//! probes) run hand-rolled SWAR kernels — see [`vector`] — hashing with
//! the SSE4.2 CRC32-C instruction where the host has it and the
//! table-driven CRC where it does not; the tests check every kernel
//! against a reference implementation.
//! Columns additionally carry a frame-of-reference bit-packed resident
//! form ([`column::PackedColumn`]) that prices every simulated scan.
//! Filters execute on it in the encoded domain (the `DPU_PACK` knob);
//! every other operator reads the flat values resident beside it, and
//! results stay bit-identical either way.
//!
//! On the host every operator runs one sequential path. The host's
//! parallelism sits above the operators, as the rack's does: the
//! `dpu_pool` fan-out runs shards, queries, sweep cells and datagen
//! chunks side by side, each of them on one thread.
//!
//! [`tpch`] provides a scaled TPC-H generator and eight queries used by
//! the Figure 16 reproduction.

pub mod agg;
pub mod bitvec;
pub mod column;
pub mod expr;
pub mod filter;
pub mod hll;
pub mod join;
pub mod knob;
pub mod logical;
pub mod plan;
pub mod sort;
pub mod topk;
pub mod tpch;
pub mod vector;
pub mod walk;

pub use agg::{AggFunc, GroupByPlan, GroupBySpec};
pub use bitvec::BitVec;
pub use column::{pack, set_pack, Column, Pack, PackChunk, PackedColumn, Table};
pub use expr::Expr;
pub use filter::{measure_filter_kernel, CompareOp, FilterSpec};
pub use hll::{HyperLogLog, RankMethod};
pub use join::HashJoin;
pub use logical::{
    BaseTable, ColFilter, Finish, JoinEdge, JoinGraph, LogicalOutput, LogicalPlan, Relation, Source,
};
pub use plan::{CostAcc, PlatformCost, QueryCost};
pub use sort::{
    sample_bounds, sort_indices, sort_indices_multi, sort_indices_multi_selected,
    sort_indices_selected,
};
pub use topk::{top_k, top_k_selected};
pub use vector::{kernel as vector_kernel, partition_row_ids, Kernel};
pub use walk::{Op, Rows, Trace};
