//! Rack-scale distributed query execution over simulated DPU nodes.
//!
//! The paper's rack (§2) is not a single SoC: it is ~1440 DPU nodes
//! behind a shared Infiniband fabric, each owning 8 GB of DRAM, with
//! queries scattered across nodes and gathered at a coordinator. This
//! crate models that layer end to end:
//!
//! - [`fabric`] — the shared network: per-node NIC bandwidth, a shared
//!   switch, per-hop latency, with congestion from first principles via
//!   `dpu_sim::BandwidthServer` queuing. Fault plans thread through it
//!   (a degraded NIC carries payloads at a fraction of its rate).
//! - [`shard`] — hash/range sharding of the TPC-H database across nodes:
//!   `orders` and `lineitem` are co-sharded by order key (every row lives
//!   on exactly one shard), dimension tables are replicated.
//! - [`replica`] — k-way chained-declustering placement: each fact shard
//!   is stored on `k` distinct nodes so a crash spreads its load over
//!   several survivors; `k = 1` reproduces the unreplicated layout.
//! - [`fault`] — deterministic fault injection: crashes, transient NIC
//!   degradation and compute stragglers scheduled up front (optionally
//!   from a seed), so every faulty run is exactly reproducible.
//! - [`coordinator`] — scatter/gather plans for the eight Figure 16
//!   queries: local scan/filter/partial-aggregate per shard on a live
//!   replica, an all-to-all shuffle where the group key is not the
//!   sharding key (Q10), and a coordinator merge. Failover routing
//!   re-issues a crashed node's sub-plans to the next replica after a
//!   fabric-derived timeout; [`Cluster::recover`] models re-replicating
//!   a lost node from survivors. Per-node work is costed by the same
//!   roofline the single-node engine uses, so cluster time = max over
//!   nodes + fabric transfer + merge. Distributed results stay
//!   bit-identical to the single-node engine's under any fault pattern
//!   that leaves each shard one live replica.
//! - [`topology`] — the spine/leaf geometry past one rack: leaf
//!   switches per rack behind a non-blocking spine, per-rack uplinks
//!   carrying `switch / oversub` bytes per cycle, hop counts (2 intra-
//!   rack, 4 inter-rack) that derive the failover timeout and the
//!   planner's hop pricing. `racks = 1` reproduces the flat fabric
//!   cycle for cycle.
//! - [`tenant`] — open-loop multi-tenant serving: per-tenant SLOs and
//!   arrival rates under diurnal/bursty traces, weighted-fair queuing
//!   with per-tenant admission caps, and priority preemption, reported
//!   per tenant (QPS, p50/p99, SLO attainment, preempted work).
//! - [`serve`](mod@serve) — a closed-loop multi-client serving front-end: up to
//!   [`ServeConfig::concurrency`] batches in flight, each charged for
//!   fabric use against shared per-NIC/switch bandwidth servers
//!   ([`ServeFabric`]) so concurrent shuffle-heavy queries interfere,
//!   with admission control, same-template batching under an optional
//!   [`AdaptiveBatch`] SLO controller, and rack QPS / latency
//!   percentiles / SLO attainment / performance-per-watt against a
//!   multi-socket Xeon rack ([`xeon_model::XeonRack`]); a
//!   degraded-window mode measures the QPS dip while a failure is being
//!   recovered. The coordinator optionally races deadline-missing shard
//!   sub-plans against a backup replica ([`Speculation`]), keeping
//!   results bit-identical while cutting straggler tails.
//!
//! [`serve`](mod@serve) and [`tenant`] are two arrival sources over one
//! private serving engine: a single discrete-event loop on
//! [`dpu_sim::EventQueue`] with shared admission, per-(tenant,
//! template) dispatch queues, optional adaptive batching, preemption,
//! [`ServeHook`] and [`ServeFabric`], and one report core.

/// The rack timeline's one clock: every instant is a `Time` in its cycles.
pub(crate) const CLOCK: dpu_sim::Frequency = dpu_sim::Frequency::DPU_CORE;

pub mod coordinator;
mod engine;
pub mod fabric;
pub mod fault;
pub mod planned;
pub mod replica;
pub mod serve;
pub mod shard;
pub mod tenant;
pub mod topology;

pub use coordinator::{
    merge_cpu_seconds, Cluster, ClusterConfig, ClusterCore, ClusterQueryCost, DistributedQuery,
    NodeCost, QueryError, QueryId, QueryOutput, RecoveryReport, ShardRun, SingleRefCache,
    Speculation,
};
pub use fabric::{Fabric, FabricConfig, ServeFabric};
pub use fault::{Fault, FaultPlan};
pub use planned::{default_physical, q10_gather_physical, MergeStrategy, PhysicalPlan, PlannedRun};
pub use replica::Placement;
pub use serve::{
    serve, serve_pipeline_hooked, AdaptiveBatch, DegradedWindow, ServeConfig, ServeHook,
    ServeReport, Template,
};
pub use shard::{
    shard_table, shard_tpch, shard_tpch_placed, shard_tpch_replicated, ShardPolicy, ShardedTpch,
    SkewReport,
};
pub use tenant::{
    serve_tenants, MultiTenantReport, Tenant, TenantReport, TenantServeConfig, TraceShape,
};
pub use topology::Topology;
