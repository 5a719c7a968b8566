//! The distributed cluster for the Figure 16 query set: sharding,
//! replica failover, and the scheduling and fabric machinery every
//! distributed query runs through.
//!
//! Each query runs in phases: every logical shard's **local phase**
//! (scan/filter/join/partial-aggregate — the query's logical plan,
//! costed by the same `CostAcc` roofline the single-node engine uses)
//! executes on one live replica of that shard, partial results move over
//! the [`Fabric`], and a coordinator node **merges**. Cluster time is
//! therefore `max over nodes + fabric + merge`, with fabric congestion
//! coming from the queuing model rather than a constant.
//!
//! What each shard runs and how partials merge is data — a
//! [`PhysicalPlan`](crate::planned::PhysicalPlan) executed by
//! [`Cluster::run_planned`]; [`Cluster::try_run_at`] runs a query's
//! [`default_physical`] plan. Because `orders`/`lineitem` are co-sharded
//! by order key and dimensions are replicated, seven of the eight
//! queries decompose into *run the query's plan per shard, then merge*:
//! re-aggregation for the group-bys (Q1, Q5, Q12) and scalar sums (Q6,
//! Q14), top-k candidate merge for Q3/Q18 (each shard's local top-k
//! provably contains every global winner). Q10 groups by **customer**,
//! which is not the sharding key, so it runs a genuine two-phase
//! aggregation: partial group-by per shard, an all-to-all hash reshuffle
//! of partial groups to owner nodes, owner re-aggregation, then a
//! candidate gather.
//!
//! # Failover
//!
//! Under a [`FaultPlan`], routing is fault-tolerant end to end:
//!
//! - each shard's local phase is placed on the first **live** replica in
//!   its chained-declustering owner chain; a node that crashes mid-phase
//!   is detected after one [failover timeout] and the shard is re-issued
//!   to the next live replica (which runs it after its own queue);
//! - partial results are re-derived from a surviving replica if their
//!   executor dies before a (re-)gather — a completed node is assumed to
//!   have drained its send DMA, so only *unsent* state needs re-derivation;
//! - the gather destination and Q10's shuffle owners fail over the same
//!   way (next live node in ring order, one timeout per detection).
//!
//! # Topology awareness
//!
//! Routing reads the cluster's [`Topology`]: replicas are placed with
//! [`Placement::rack_aware`] so a shard's copies span `min(k, racks)`
//! failure domains, gathers re-derive lost partials from a rack-local
//! replica first ([`Placement::gather_order`]), the gather destination
//! is the live node minimizing hop-weighted inbound bytes, and the
//! failover timeout is derived from the topology's worst-case probe
//! round trip ([`Topology::failover_timeout_cycles`]) instead of a
//! hard-coded constant. With one rack every one of these reduces
//! exactly to the original single-rack behavior.
//!
//! Every distributed result stays **bit-identical** to the single-node
//! engine's output under any fault pattern that leaves at least one live
//! replica per shard — partials are always computed from a replica of the
//! same shard data, and every merge is order-insensitive (group-by merges
//! sort by key; top-k merges impose the engine's total order). A fault
//! pattern that kills *every* replica of some shard yields
//! [`QueryError::ShardUnavailable`] — never a wrong answer.
//!
//! [failover timeout]: crate::topology::Topology::failover_timeout_cycles

use std::sync::{Arc, OnceLock};

use dpu_core::rack::Rack;
use dpu_pool::Pool;
use dpu_sim::Time;
use dpu_sql::logical::LogicalOutput;
use dpu_sql::plan::{PlatformCost, DPU_CLOCK, DPU_CORES, DPU_STREAM_BW};
use dpu_sql::tpch::{TpchDb, AGG_DPU};
use dpu_sql::{QueryCost, Table};
use xeon_model::Xeon;

use crate::fabric::{Fabric, FabricConfig};
use crate::fault::FaultPlan;
use crate::planned::{default_physical, single_plan};
use crate::replica::Placement;
use crate::shard::{shard_tpch_placed, ShardPolicy, ShardedTpch};
use crate::topology::Topology;
use crate::CLOCK;

/// The eight TPC-H queries of Figure 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// Pricing summary (scan + aggregate).
    Q1,
    /// Shipping priority (3-way join + top-10).
    Q3,
    /// Local-supplier volume (6-table join).
    Q5,
    /// Revenue forecast (pure scan).
    Q6,
    /// Returned items (re-keyed aggregation — needs a shuffle).
    Q10,
    /// Shipping modes (join + count).
    Q12,
    /// Promotion effect (scalar join).
    Q14,
    /// Large-volume customers (group-having + top-100).
    Q18,
}

impl QueryId {
    /// All eight, in Figure 16 order.
    pub const ALL: [QueryId; 8] = [
        QueryId::Q1,
        QueryId::Q3,
        QueryId::Q5,
        QueryId::Q6,
        QueryId::Q10,
        QueryId::Q12,
        QueryId::Q14,
        QueryId::Q18,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryId::Q1 => "Q1",
            QueryId::Q3 => "Q3",
            QueryId::Q5 => "Q5",
            QueryId::Q6 => "Q6",
            QueryId::Q10 => "Q10",
            QueryId::Q12 => "Q12",
            QueryId::Q14 => "Q14",
            QueryId::Q18 => "Q18",
        }
    }
}

/// Why a distributed query could not be answered. Failures surface as
/// errors, never as silently wrong results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Every replica of `shard` is down: the query cannot see all rows.
    ShardUnavailable {
        /// The shard with no live replica.
        shard: usize,
    },
    /// No node in the cluster is alive to coordinate or own a partition.
    NoLiveNodes,
    /// The physical plan is malformed: its local phase produces an
    /// output its merge strategy cannot combine.
    PlanMismatch {
        /// The merge strategy's display name.
        merge: &'static str,
        /// What the local phase produced.
        output: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} has no live replica")
            }
            QueryError::NoLiveNodes => write!(f, "no live nodes in the cluster"),
            QueryError::PlanMismatch { merge, output } => {
                write!(f, "plan mismatch: the {merge} merge cannot combine {output}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A query result (tables for reporting queries, scalars for Q6/Q14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutput {
    /// A result table.
    Table(Table),
    /// A single aggregate value.
    Scalar(i64),
    /// Q14's (promo, total) revenue pair.
    Pair(i64, i64),
}

impl QueryOutput {
    /// The table, for table-valued queries.
    ///
    /// # Panics
    ///
    /// Panics on scalar outputs.
    pub fn table(&self) -> &Table {
        match self {
            QueryOutput::Table(t) => t,
            other => panic!("not a table output: {other:?}"),
        }
    }

    /// The output for one or two scalar sums (`None` at any other
    /// arity).
    pub(crate) fn from_scalars(sums: &[i64]) -> Option<QueryOutput> {
        match *sums {
            [one] => Some(QueryOutput::Scalar(one)),
            [a, b] => Some(QueryOutput::Pair(a, b)),
            _ => None,
        }
    }
}

/// One node's local-phase cost, split along the roofline axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    /// Seconds streaming the shard through DRAM.
    pub mem_seconds: f64,
    /// Seconds of dpCore compute.
    pub cpu_seconds: f64,
}

impl NodeCost {
    /// No work.
    pub const ZERO: NodeCost = NodeCost { mem_seconds: 0.0, cpu_seconds: 0.0 };

    pub(crate) fn from_dpu(p: &PlatformCost) -> Self {
        NodeCost {
            mem_seconds: p.bytes as f64 / DPU_STREAM_BW,
            cpu_seconds: p.compute_cycles as f64 / (DPU_CORES * DPU_CLOCK),
        }
    }

    /// The node's local-phase time (roofline max).
    pub fn seconds(&self) -> f64 {
        self.mem_seconds.max(self.cpu_seconds)
    }

    /// The local phase's span on the timeline at `speed` (≤ 1) of full rate.
    pub(crate) fn span(&self, speed: f64) -> Time {
        Time::from_secs(self.seconds() / speed, CLOCK)
    }
}

/// Where and when one shard's local phase actually ran after failover
/// routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRun {
    /// The logical shard.
    pub shard: usize,
    /// The node that completed the local phase (a live replica).
    pub node: usize,
    /// Times the sub-plan was issued (1 = no failover).
    pub attempts: usize,
    /// Absolute completion time of the local phase.
    pub done: Time,
}

/// The cluster-wide cost of one distributed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQueryCost {
    /// Local-phase work executed per node (including failover
    /// re-executions; a node that ran nothing reports zeros).
    pub per_node: Vec<NodeCost>,
    /// Time from query start to the last shard's local-phase completion,
    /// seconds (includes failover timeouts and re-executions). A span of
    /// the rack's timeline, so a whole number of dpCore cycles.
    pub local_seconds: f64,
    /// Time from the last local finish to the last byte landing at the
    /// coordinator (shuffle + gather + any distributed merge overlapped
    /// with it), seconds; whole cycles, like `local_seconds`.
    pub fabric_seconds: f64,
    /// Coordinator merge compute, seconds.
    pub merge_seconds: f64,
    /// Payload bytes that crossed the fabric (re-sends included).
    pub fabric_bytes: u64,
    /// Sub-plan re-issues forced by faults (0 on a healthy run).
    pub failovers: usize,
    /// Speculative backup sub-plans raced against stragglers (0 when
    /// speculation is off or no deadline fired).
    pub speculations: usize,
}

impl ClusterQueryCost {
    /// End-to-end latency of one query, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.local_seconds + self.fabric_seconds + self.merge_seconds
    }

    /// Latency of a batch of `k` same-template queries executed together:
    /// the nodes stream their shard **once** (sharing the scan) but do
    /// `k×` the compute, and the per-query fabric and merge phases repeat.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn batch_seconds(&self, k: usize) -> f64 {
        self.batch_local_seconds(k) + k as f64 * (self.fabric_seconds + self.merge_seconds)
    }

    /// The local-phase portion of [`batch_seconds`](Self::batch_seconds):
    /// the slowest node's roofline over one shard scan and `k×` compute,
    /// in whole cycles like [`local_seconds`](Self::local_seconds), so a
    /// healthy batch of one costs exactly one query.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn batch_local_seconds(&self, k: usize) -> f64 {
        assert!(k > 0, "empty batch");
        let roofline = self
            .per_node
            .iter()
            .map(|n| n.mem_seconds.max(k as f64 * n.cpu_seconds))
            .fold(0.0, f64::max);
        Time::from_secs(roofline, CLOCK).as_secs(CLOCK)
    }
}

/// One executed distributed query with its single-node reference.
#[derive(Debug, Clone)]
pub struct DistributedQuery {
    /// Which query.
    pub id: QueryId,
    /// The distributed result.
    pub output: QueryOutput,
    /// The single-node engine's result on the unsharded database.
    pub single_output: QueryOutput,
    /// Cluster cost breakdown.
    pub cost: ClusterQueryCost,
    /// The single-node cost (its `xeon` side is the rack baseline's
    /// per-socket query time).
    pub single_cost: QueryCost,
}

impl DistributedQuery {
    /// Whether the distributed result is bit-identical to the single-node
    /// result (it must be — this is the acceptance check).
    pub fn matches_single(&self) -> bool {
        self.output == self.single_output
    }

    /// Cluster queries/second/watt over the Xeon socket's, given total
    /// cluster watts.
    pub fn perf_per_watt_gain(&self, cluster_watts: f64, xeon: &Xeon) -> f64 {
        let cluster_qps = 1.0 / self.cost.total_seconds();
        let xeon_qps = 1.0 / self.single_cost.xeon.seconds;
        (cluster_qps / cluster_watts) / (xeon_qps / xeon.tdp_watts())
    }
}

/// Deadline-based speculative straggler re-execution policy.
///
/// The coordinator derives a per-query deadline from the *healthy* shard
/// cost distribution — the `quantile` shard time, stretched by `slack` —
/// and when a shard's local phase has not finished one deadline after
/// its dispatch, it launches a backup copy of the sub-plan on the
/// shard's next live replica and takes whichever copy finishes first.
/// The loser is cancelled at the winner's finish time and charged only
/// the fraction of its work it actually ran. Results are unaffected:
/// both copies compute the same partial from replicas of the same shard,
/// and only the winner's node ships it in the gather phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speculation {
    /// The quantile of the healthy per-shard local times the deadline is
    /// derived from, in `(0, 1]`.
    pub quantile: f64,
    /// Multiplier applied to the quantile time (≥ 1 leaves healthy
    /// shards unspeculated; the deadline is `quantile_time × slack`).
    pub slack: f64,
}

impl Default for Speculation {
    fn default() -> Self {
        Speculation { quantile: 0.5, slack: 1.25 }
    }
}

impl Speculation {
    /// The relative deadline for this shard-cost distribution: the
    /// configured quantile of the healthy local times, times `slack`.
    ///
    /// # Panics
    ///
    /// Panics if the policy is degenerate or `costs` is empty.
    pub fn deadline_seconds(&self, costs: &[NodeCost]) -> f64 {
        assert!(self.quantile > 0.0 && self.quantile <= 1.0, "quantile out of range");
        assert!(self.slack >= 1.0, "slack below 1 would speculate healthy shards");
        assert!(!costs.is_empty(), "no shard costs");
        let mut times: Vec<f64> = costs.iter().map(NodeCost::seconds).collect();
        times.sort_by(|a, b| a.total_cmp(b));
        let i = ((self.quantile * times.len() as f64).ceil() as usize).clamp(1, times.len());
        times[i - 1] * self.slack
    }
}

/// What rebuilding a crashed node's replicas cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The node rebuilt (the replacement occupies the same slot).
    pub node: usize,
    /// The shards whose replicas were re-streamed onto it.
    pub shards: Vec<usize>,
    /// Fact bytes moved over the fabric.
    pub bytes_moved: u64,
    /// Seconds from recovery start until the last shard lands (whole
    /// cycles).
    pub rebuild_seconds: f64,
}

/// Cluster sizing and rates.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// DPU nodes executing queries.
    pub n_nodes: usize,
    /// Replicas per fact shard (chained declustering; 1 = no
    /// replication).
    pub replicas: usize,
    /// Cardinality multiplier applied when costing (the data executes at
    /// miniature scale; costs are reported at `scale×`).
    pub scale: u64,
    /// The fabric connecting the nodes.
    pub fabric: FabricConfig,
    /// Racks the nodes split over (spine/leaf once > 1; 1 = the flat
    /// single-switch fabric).
    pub racks: usize,
    /// Leaf-uplink oversubscription ratio (≥ 1; only meaningful with
    /// `racks > 1`).
    pub oversub: f64,
    /// Provisioned watts per node (SoC + DRAM + NIC).
    pub watts_per_node: f64,
}

impl ClusterConfig {
    /// Derives a config from `n_nodes` of a provisioned rack.
    pub fn from_rack(rack: &Rack, n_nodes: usize, scale: u64) -> Self {
        let p = rack.slice(n_nodes).fabric_provision();
        ClusterConfig {
            n_nodes,
            replicas: 1,
            scale,
            fabric: FabricConfig::from_provision(&p),
            racks: 1,
            oversub: 1.0,
            watts_per_node: p.watts_per_node,
        }
    }

    /// An `n_nodes` slice of the paper's prototype rack.
    pub fn prototype_slice(n_nodes: usize, scale: u64) -> Self {
        Self::from_rack(&Rack::prototype(), n_nodes, scale)
    }

    /// The same config with `k` replicas per shard.
    pub fn with_replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// The same config spread over `racks` racks behind a spine with the
    /// given uplink oversubscription ratio.
    ///
    /// # Panics
    ///
    /// Panics (at construction) if `racks` does not divide `n_nodes` or
    /// `oversub < 1` — validated by [`Topology::new`].
    pub fn with_topology(mut self, racks: usize, oversub: f64) -> Self {
        self.racks = racks;
        self.oversub = oversub;
        let _ = self.topology(); // validate eagerly
        self
    }

    /// The spine/leaf geometry this config describes.
    pub fn topology(&self) -> Topology {
        Topology::new(self.n_nodes, self.racks, self.oversub)
    }
}

/// Shared, memoized single-node reference results: one [`OnceLock`] slot
/// per query, in [`QueryId::ALL`] order.
///
/// The reference is a pure function of the unsharded database, the Xeon
/// baseline, and the cost scale, so clusters built over the same data may
/// share one cache behind an `Arc` — every fork (and, in a sweep, every
/// *core* over the same database) then computes each reference at most
/// once process-wide instead of once per cell.
#[derive(Debug, Default)]
pub struct SingleRefCache {
    slots: [OnceLock<(QueryOutput, QueryCost)>; 8],
}

impl SingleRefCache {
    /// An empty cache (every reference computed on first use).
    pub fn new() -> Self {
        SingleRefCache::default()
    }

    fn slot(id: QueryId) -> usize {
        QueryId::ALL.iter().position(|&q| q == id).expect("ALL covers every query")
    }

    fn is_warm(&self, id: QueryId) -> bool {
        self.slots[Self::slot(id)].get().is_some()
    }

    fn get_or_compute(
        &self,
        full: &TpchDb,
        xeon: &Xeon,
        scale: u64,
        id: QueryId,
    ) -> (QueryOutput, QueryCost) {
        self.slots[Self::slot(id)].get_or_init(|| compute_single(full, xeon, scale, id)).clone()
    }
}

/// The immutable half of a cluster: configuration, the full database,
/// its sharding, the Xeon baseline, and the shared single-node reference
/// cache. Everything here is fixed at construction, so any number of
/// [`Cluster`] forks can share one core behind an `Arc` — forking is
/// O(1) in the data size.
#[derive(Debug)]
pub struct ClusterCore {
    cfg: ClusterConfig,
    full: Arc<TpchDb>,
    sharded: ShardedTpch,
    xeon: Xeon,
    single: Arc<SingleRefCache>,
}

impl ClusterCore {
    /// Shards `db` under `policy` with `cfg.replicas` copies per shard.
    ///
    /// # Panics
    ///
    /// Panics if the policy's shard count differs from `cfg.n_nodes` or
    /// `cfg.replicas` is invalid for that node count.
    pub fn new(db: TpchDb, policy: &ShardPolicy, cfg: ClusterConfig) -> Arc<Self> {
        Self::with_shared(Arc::new(db), policy, cfg, Arc::new(SingleRefCache::new()))
    }

    /// Builds a core around an already-shared database and reference
    /// cache, so a sweep's (policy, k) cores over the same data clone
    /// neither the database nor the memoized references. The shards
    /// themselves depend only on the policy; `cfg.replicas` only affects
    /// placement, which is cheap.
    pub fn with_shared(
        db: Arc<TpchDb>,
        policy: &ShardPolicy,
        cfg: ClusterConfig,
        single: Arc<SingleRefCache>,
    ) -> Arc<Self> {
        assert_eq!(policy.shards(), cfg.n_nodes, "policy shards must equal cluster nodes");
        let placement = Placement::rack_aware(cfg.n_nodes, cfg.racks, cfg.replicas);
        let sharded = shard_tpch_placed(&db, policy, placement);
        Arc::new(ClusterCore { cfg, full: db, sharded, xeon: Xeon::new(), single })
    }

    /// Sizing and rates.
    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The unsharded database (single-node references run against it).
    pub fn full(&self) -> &TpchDb {
        &self.full
    }

    /// The shared database handle, for building sibling cores.
    pub fn full_shared(&self) -> Arc<TpchDb> {
        self.full.clone()
    }

    /// The per-shard databases and their replica placement.
    pub fn sharded(&self) -> &ShardedTpch {
        &self.sharded
    }

    /// The baseline model used for per-socket reference costs.
    pub fn xeon(&self) -> &Xeon {
        &self.xeon
    }

    /// The shared single-node reference cache, for building sibling
    /// cores over the same database.
    pub fn single_refs(&self) -> Arc<SingleRefCache> {
        self.single.clone()
    }

    /// The single-node reference result for `id`, computed on first use
    /// and memoized in the shared cache.
    pub(crate) fn single_ref(&self, id: QueryId) -> (QueryOutput, QueryCost) {
        self.single.get_or_compute(&self.full, &self.xeon, self.cfg.scale, id)
    }

    /// Computes the not-yet-cached single-node references on the host
    /// pool. A no-op at one thread, so the single-threaded path takes
    /// the exact pre-parallelism route (lazy per-query references); the
    /// cached values are the same either way. Warming the shared core
    /// once covers every fork — sweep cells never recompute references.
    pub fn warm_single_refs(&self) {
        let pool = Pool::global();
        if pool.threads() <= 1 || dpu_pool::in_worker() {
            return;
        }
        let missing: Vec<QueryId> =
            QueryId::ALL.into_iter().filter(|&id| !self.single.is_warm(id)).collect();
        let computed = pool.par_map(missing.clone(), |id| {
            compute_single(&self.full, &self.xeon, self.cfg.scale, id)
        });
        for (id, v) in missing.into_iter().zip(computed) {
            let _ = self.slots_set(id, v);
        }
    }

    fn slots_set(&self, id: QueryId, v: (QueryOutput, QueryCost)) -> bool {
        self.single.slots[SingleRefCache::slot(id)].set(v).is_ok()
    }
}

/// A simulated DPU cluster holding a sharded TPC-H database.
///
/// Split into an immutable [`ClusterCore`] (shared by every fork) and
/// the cheap per-fork mutable state: the [`Fabric`]'s queue occupancy
/// and the [`FaultPlan`] installed in it, and the [`Speculation`] policy.
/// [`fork`](Self::fork) hands out an independent pristine cluster over
/// the same core in O(1).
#[derive(Debug)]
pub struct Cluster {
    core: Arc<ClusterCore>,
    /// The rack network (per-fork mutable state) and the installed
    /// fault plan.
    pub fabric: Fabric,
    speculation: Option<Speculation>,
}

impl Cluster {
    /// Shards `db` under `policy` with `cfg.replicas` copies per shard
    /// and builds the fabric.
    ///
    /// # Panics
    ///
    /// Panics if the policy's shard count differs from `cfg.n_nodes` or
    /// `cfg.replicas` is invalid for that node count.
    pub fn new(db: TpchDb, policy: &ShardPolicy, cfg: ClusterConfig) -> Self {
        Self::from_core(ClusterCore::new(db, policy, cfg))
    }

    /// A pristine cluster over an existing shared core: fresh fabric, no
    /// faults, no speculation — exactly the state `Cluster::new` leaves
    /// behind, without re-sharding or cloning the database.
    pub fn from_core(core: Arc<ClusterCore>) -> Self {
        let fabric = Fabric::with_topology(core.cfg.topology(), core.cfg.fabric.clone());
        Cluster { core, fabric, speculation: None }
    }

    /// Forks this cluster in O(1): the returned cluster shares the
    /// immutable core (database, shards, reference cache) and starts
    /// with pristine mutable state. Invariant: `fork()` + run is
    /// bit-for-bit identical to a fresh `Cluster::new` + run.
    pub fn fork(&self) -> Self {
        Self::from_core(self.core.clone())
    }

    /// The shared immutable core.
    pub fn core(&self) -> &Arc<ClusterCore> {
        &self.core
    }

    /// Sizing and rates.
    pub fn cfg(&self) -> &ClusterConfig {
        self.core.cfg()
    }

    /// The unsharded database (single-node references run against it).
    pub fn full(&self) -> &TpchDb {
        self.core.full()
    }

    /// The per-shard databases and their replica placement.
    pub fn sharded(&self) -> &ShardedTpch {
        self.core.sharded()
    }

    /// Pre-warms the shared single-node reference cache on the host pool
    /// (see [`ClusterCore::warm_single_refs`]).
    pub fn warm_single_refs(&self) {
        self.core.warm_single_refs();
    }

    /// Enables (or, with `None`, disables) deadline-based speculative
    /// re-execution of straggling shard sub-plans.
    pub fn set_speculation(&mut self, policy: Option<Speculation>) {
        self.speculation = policy;
    }

    /// The installed speculation policy, if any.
    pub fn speculation(&self) -> Option<Speculation> {
        self.speculation
    }

    /// Installs a fault plan for subsequent queries. The fabric holds
    /// the one copy: its NIC-degradation model reads it too.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.fabric.set_faults(plan);
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        self.fabric.faults()
    }

    /// Total provisioned cluster power, watts.
    pub fn watts(&self) -> f64 {
        self.core.cfg.watts_per_node * self.core.cfg.n_nodes as f64
    }

    /// The baseline model used for per-socket reference costs.
    pub fn xeon(&self) -> &Xeon {
        &self.core.xeon
    }

    /// Seconds to load the database over the fabric from node 0: every
    /// replica of every fact shard scattered point-to-point, dimensions
    /// broadcast.
    pub fn load_seconds(&mut self) -> f64 {
        self.fabric.reset();
        let mut done = Time::ZERO;
        for s in 0..self.core.sharded.n_nodes() {
            let bytes = self.core.sharded.shard_fact_bytes(s);
            for dst in self.core.sharded.placement.owners(s) {
                if dst != 0 {
                    done = done.max(self.fabric.transfer(Time::ZERO, 0, dst, bytes));
                }
            }
        }
        done = done.max(self.fabric.broadcast(Time::ZERO, 0, self.core.sharded.broadcast_bytes));
        self.fabric.reset();
        done.as_secs(CLOCK)
    }

    /// Runs one query distributed at `t = 0`, returning the result, its
    /// single-node reference, and the cost breakdown.
    ///
    /// # Panics
    ///
    /// Panics if the installed fault plan leaves a shard with no live
    /// replica — use [`try_run_at`](Self::try_run_at) when faults may
    /// exhaust a shard's replicas.
    pub fn run(&mut self, id: QueryId) -> DistributedQuery {
        self.try_run_at(id, 0.0).expect("query failed under the installed fault plan")
    }

    /// Runs one query distributed, starting at absolute time
    /// `start_seconds` (faults are evaluated against that clock): its
    /// [`default_physical`] plan through [`run_planned`](Self::run_planned).
    ///
    /// # Errors
    ///
    /// [`QueryError::ShardUnavailable`] if a shard has no live replica;
    /// [`QueryError::NoLiveNodes`] if no node survives to coordinate.
    pub fn try_run_at(
        &mut self,
        id: QueryId,
        start_seconds: f64,
    ) -> Result<DistributedQuery, QueryError> {
        self.run_planned(&default_physical(id), start_seconds).map(|r| r.query)
    }

    /// Runs all eight queries at `t = 0`. With a multi-thread host pool
    /// the single-node references pre-compute in parallel first (the
    /// queries themselves stay in Figure 16 order because each mutates
    /// the shared fabric); the results are bit-identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics under a fault plan that makes a shard unavailable (see
    /// [`run`](Self::run)).
    pub fn run_all(&mut self) -> Vec<DistributedQuery> {
        self.warm_single_refs();
        QueryId::ALL.iter().map(|&q| self.run(q)).collect()
    }

    /// Models re-replicating the shards a crashed `node` held onto its
    /// replacement (same slot), starting at `at_seconds`: each affected
    /// shard streams from a surviving replica over the fabric. On return
    /// the node is marked live again in the fault plan.
    ///
    /// With `k = 1` there is no surviving replica to stream from — the
    /// report then covers zero bytes (the data is lost, not rebuilt).
    pub fn recover(&mut self, node: usize, at_seconds: f64) -> RecoveryReport {
        self.fabric.reset();
        let start = Time::from_secs(at_seconds, CLOCK);
        let shards = self.core.sharded.placement.shards_on(node);
        let mut rebuilt = Vec::new();
        let mut bytes_moved = 0u64;
        let mut done = start;
        for &s in &shards {
            // Rack-local surviving replicas are preferred (2 hops instead
            // of 4); with one rack this is the plain owner chain.
            let src = self
                .sharded()
                .placement
                .gather_order(s, node)
                .into_iter()
                .find(|&o| o != node && !self.faults().is_down(o, start));
            if let Some(src) = src {
                let bytes = self.core.sharded.shard_fact_bytes(s);
                bytes_moved += bytes;
                rebuilt.push(s);
                done = done.max(self.fabric.transfer(start, src, node, bytes));
            }
        }
        let rebuild_seconds = (done - start).as_secs(CLOCK);
        self.fabric.reset();
        let plan = self.faults().clone().recovered(node);
        self.set_faults(plan);
        RecoveryReport { node, shards: rebuilt, bytes_moved, rebuild_seconds }
    }

    /// Places every shard's local phase on a live replica and schedules
    /// execution, failing shards over when their node crashes mid-phase.
    ///
    /// Deterministic: shards are dispatched in `(available-time, shard)`
    /// order; a node executes its assigned shards serially; a crash at
    /// `tc` voids every sub-plan unfinished at `tc`, which re-enters the
    /// pool at `tc + failover_timeout` targeted at the shard's next live
    /// replica.
    pub(crate) fn schedule_local(
        &self,
        costs: &[NodeCost],
        start: Time,
    ) -> Result<(Vec<ShardRun>, Vec<NodeCost>, usize, usize), QueryError> {
        let n = self.core.sharded.n_nodes();
        let faults = self.faults();
        let timeout = self.fabric.failover_timeout();
        let deadline = self.speculation.map(|p| Time::from_secs(p.deadline_seconds(costs), CLOCK));
        let mut node_free = vec![start; n];
        let mut per_node = vec![NodeCost::ZERO; n];
        let mut runs: Vec<Option<ShardRun>> = vec![None; n];
        let mut failovers = 0usize;
        let mut speculations = 0usize;
        // (available-at, shard, owner-chain position, attempt #)
        let mut pending: Vec<(Time, usize, usize, usize)> =
            (0..n).map(|s| (start, s, 0, 1)).collect();
        while !pending.is_empty() {
            // Pop the earliest-available shard (ties broken by shard id).
            let i = (0..pending.len())
                .min_by_key(|&i| (pending[i].0, pending[i].1))
                .expect("non-empty");
            let (avail, s, chain, attempt) = pending.swap_remove(i);
            let owners = self.core.sharded.placement.owners(s);
            let Some((pos, &node)) =
                owners.iter().enumerate().skip(chain).find(|&(_, &o)| !faults.is_down(o, avail))
            else {
                return Err(QueryError::ShardUnavailable { shard: s });
            };
            let begin = node_free[node].max(avail);
            let slow = faults.compute_factor(node, begin);
            let finish = begin + costs[s].span(slow);
            if let Some(tc) = faults.crash_time(node) {
                if tc < finish {
                    // Crash mid-execution: detected one timeout later,
                    // re-issued to the next replica in the chain.
                    failovers += 1;
                    pending.push((tc + timeout, s, pos + 1, attempt + 1));
                    continue;
                }
            }
            // Deadline-based speculation: the sub-plan missed its
            // deadline (dispatch + deadline < finish), so race a backup
            // on the shard's next live replica and keep the first
            // finisher; the loser is cancelled at that instant and
            // charged only the fraction of its work it ran.
            if let Some(d) = deadline {
                let launch = avail + d;
                if finish > launch {
                    let backup =
                        owners.iter().copied().find(|&o| o != node && !faults.is_down(o, launch));
                    if let Some(b) = backup {
                        let b_begin = node_free[b].max(launch);
                        let b_slow = faults.compute_factor(b, b_begin);
                        let b_finish = b_begin + costs[s].span(b_slow);
                        let b_dies = faults.crash_time(b).is_some_and(|tc| tc < b_finish);
                        if !b_dies {
                            speculations += 1;
                            if b_finish < finish {
                                // Backup wins: cancel the original at the
                                // backup's finish (fractional charge if it
                                // had started), ship from the backup.
                                if b_finish > begin {
                                    let frac = fraction(b_finish - begin, finish - begin);
                                    per_node[node].mem_seconds +=
                                        frac * costs[s].mem_seconds / slow;
                                    per_node[node].cpu_seconds +=
                                        frac * costs[s].cpu_seconds / slow;
                                    node_free[node] = b_finish;
                                }
                                node_free[b] = b_finish;
                                per_node[b].mem_seconds += costs[s].mem_seconds / b_slow;
                                per_node[b].cpu_seconds += costs[s].cpu_seconds / b_slow;
                                runs[s] = Some(ShardRun {
                                    shard: s,
                                    node: b,
                                    attempts: attempt + 1,
                                    done: b_finish,
                                });
                                continue;
                            }
                            // Original wins (ties included): cancel the
                            // backup at the original's finish.
                            if finish > b_begin {
                                let frac = fraction(finish - b_begin, b_finish - b_begin);
                                per_node[b].mem_seconds += frac * costs[s].mem_seconds / b_slow;
                                per_node[b].cpu_seconds += frac * costs[s].cpu_seconds / b_slow;
                                node_free[b] = finish;
                            }
                        }
                    }
                }
            }
            node_free[node] = finish;
            per_node[node].mem_seconds += costs[s].mem_seconds / slow;
            per_node[node].cpu_seconds += costs[s].cpu_seconds / slow;
            runs[s] = Some(ShardRun { shard: s, node, attempts: attempt, done: finish });
        }
        let runs: Vec<ShardRun> = runs.into_iter().map(|r| r.expect("all scheduled")).collect();
        Ok((runs, per_node, failovers, speculations))
    }

    /// A source able to ship shard `s`'s partial at or after `t` toward
    /// destination `dst`: the original executor if still alive (its
    /// result is ready), else the first live replica in
    /// [`Placement::gather_order`] — replicas in `dst`'s rack first, so
    /// a re-derivation ships over 2 hops instead of 4 when it can. With
    /// one rack the order is the plain owner chain, preserving the
    /// original routing exactly.
    pub(crate) fn partial_source(
        &self,
        s: usize,
        t: Time,
        runs: &[ShardRun],
        costs: &[NodeCost],
        dst: usize,
    ) -> Result<(usize, Time), QueryError> {
        let faults = self.faults();
        let run = &runs[s];
        if !faults.is_down(run.node, t) {
            return Ok((run.node, run.done.max(t)));
        }
        let node = self
            .sharded()
            .placement
            .gather_order(s, dst)
            .into_iter()
            .find(|&o| !faults.is_down(o, t))
            .ok_or(QueryError::ShardUnavailable { shard: s })?;
        Ok((node, t + costs[s].span(faults.compute_factor(node, t))))
    }

    /// The gather coordinator among the nodes live at `t`: the one
    /// minimizing hop-weighted inbound bytes (2 units per intra-rack
    /// byte, 4 per cross-rack byte, sources taken from where each
    /// shard's partial actually ran), ties to the lowest node id. With
    /// one rack every candidate scores identically and the lowest live
    /// id wins — exactly the original `(0..n).find(live)` choice.
    pub(crate) fn gather_destination(&self, sources: &[(usize, u64)], t: Time) -> Option<usize> {
        let topo = self.fabric.topology();
        let n = topo.n_nodes();
        (0..n).filter(|&v| !self.faults().is_down(v, t)).min_by_key(|&v| {
            sources
                .iter()
                .map(|&(src, b)| {
                    let units = if topo.same_rack(src, v) { 2u128 } else { 4 };
                    units * b as u128
                })
                .sum::<u128>()
        })
    }

    /// Gathers every shard's partial to a coordinator node, failing the
    /// coordinator over (next live node in ring order) if it crashes
    /// before the last byte lands. Returns the destination, the landing
    /// time, and extra failover count.
    pub(crate) fn gather_with_failover(
        &mut self,
        runs: &[ShardRun],
        costs: &[NodeCost],
        bytes: &[u64],
        start: Time,
    ) -> Result<(usize, Time, usize), QueryError> {
        let n = self.core.sharded.n_nodes();
        let timeout = self.fabric.failover_timeout();
        let sources: Vec<(usize, u64)> =
            runs.iter().zip(bytes).map(|(r, &b)| (r.node, b)).collect();
        let mut t_try = start;
        let mut failovers = 0usize;
        for _ in 0..=n {
            let Some(dst) = self.gather_destination(&sources, t_try) else {
                return Err(QueryError::NoLiveNodes);
            };
            let mut parts = Vec::with_capacity(runs.len());
            for (s, &b) in bytes.iter().enumerate().take(runs.len()) {
                let (src, ready) = self.partial_source(s, t_try, runs, costs, dst)?;
                parts.push((src, ready, b));
            }
            let done = self.fabric.gather(&parts, dst);
            match self.faults().crash_time(dst) {
                Some(tc) if tc < done => {
                    // The coordinator died mid-gather: detected one
                    // timeout later, the next live node takes over and
                    // the partials are re-shipped.
                    failovers += 1;
                    t_try = tc + timeout;
                }
                _ => return Ok((dst, done, failovers)),
            }
        }
        Err(QueryError::NoLiveNodes)
    }

    /// The shared scatter → local → gather costing for single-gather
    /// plans: schedules local phases with failover, gathers the per-shard
    /// partials, and prices the coordinator merge over their rows.
    pub(crate) fn scatter_gather_cost(
        &mut self,
        per_shard: Vec<NodeCost>,
        partials: &[Table],
        start: Time,
    ) -> Result<ClusterQueryCost, QueryError> {
        self.fabric.reset();
        let (runs, per_node, local_failovers, speculations) =
            self.schedule_local(&per_shard, start)?;
        let local_end = runs.iter().map(|r| r.done).fold(start, Time::max);
        let bytes: Vec<u64> = partials.iter().map(Table::bytes).collect();
        let (_, done, gather_failovers) =
            self.gather_with_failover(&runs, &per_shard, &bytes, start)?;
        let merge_rows: usize = partials.iter().map(Table::rows).sum();
        Ok(ClusterQueryCost {
            per_node,
            local_seconds: (local_end - start).as_secs(CLOCK),
            fabric_seconds: (done.max(local_end) - local_end).as_secs(CLOCK),
            merge_seconds: merge_cpu_seconds(merge_rows as f64),
            fabric_bytes: self.fabric.payload_bytes(),
            failovers: local_failovers + gather_failovers,
            speculations,
        })
    }
}

/// The share (≤ 1) of a cancelled sub-plan's `whole` span it ran.
fn fraction(part: Time, whole: Time) -> f64 {
    (part.cycles() as f64 / whole.cycles() as f64).min(1.0)
}

/// The single-node reference for `id`: the query's complete plan
/// ([`single_plan`]) run on the unsharded database, centralized so it
/// can be memoized and pre-warmed in parallel.
fn compute_single(full: &TpchDb, xeon: &Xeon, scale: u64, id: QueryId) -> (QueryOutput, QueryCost) {
    let (out, cost, _) = single_plan(id).execute_costed(full, xeon, scale);
    let out = match out {
        LogicalOutput::Table(t) => QueryOutput::Table(t),
        LogicalOutput::Scalars(v) => QueryOutput::from_scalars(&v).expect("one or two sums"),
    };
    (out, cost)
}

/// Merge compute on one node: hash re-aggregation of `rows` partial
/// rows at the same cycles/row as the engine's group-by, on its 32
/// cores. The coordinator, the shuffle owners and the planner's merge
/// estimate all price merges with it.
pub fn merge_cpu_seconds(rows: f64) -> f64 {
    rows * AGG_DPU / (DPU_CORES * DPU_CLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sql::tpch::generate;

    fn cluster(nodes: usize) -> Cluster {
        let db = generate(1200, 42);
        Cluster::new(db, &ShardPolicy::hash(nodes), ClusterConfig::prototype_slice(nodes, 10_000))
    }

    fn cluster_k(nodes: usize, k: usize) -> Cluster {
        let db = generate(1200, 42);
        Cluster::new(
            db,
            &ShardPolicy::hash(nodes),
            ClusterConfig::prototype_slice(nodes, 10_000).with_replicas(k),
        )
    }

    #[test]
    fn all_eight_distributed_results_match_single_node() {
        let mut c = cluster(8);
        for q in c.run_all() {
            assert!(
                q.matches_single(),
                "{} distributed ≠ single-node:\n{:?}\nvs\n{:?}",
                q.id.name(),
                q.output,
                q.single_output
            );
        }
    }

    #[test]
    fn range_sharding_also_matches_single_node() {
        let db = generate(800, 9);
        let keys: Vec<i64> = db.orders.column("o_orderkey").unwrap().data.clone();
        let policy = ShardPolicy::range_over(&keys, 8);
        let mut c =
            Cluster::new(db, &policy, ClusterConfig::prototype_slice(policy.shards(), 10_000));
        for q in c.run_all() {
            assert!(q.matches_single(), "{} mismatch under range sharding", q.id.name());
        }
    }

    #[test]
    fn replication_does_not_change_results_or_healthy_routing() {
        let mut c1 = cluster(8);
        let mut c3 = cluster_k(8, 3);
        for (a, b) in c1.run_all().iter().zip(c3.run_all().iter()) {
            assert!(b.matches_single(), "{} diverged under k=3", b.id.name());
            assert_eq!(a.output, b.output, "{} differs between k=1 and k=3", a.id.name());
            assert_eq!(b.cost.failovers, 0, "healthy run must not fail over");
            // Healthy routing places every shard on its primary, so the
            // cost breakdown is identical to the unreplicated cluster.
            assert_eq!(a.cost, b.cost, "{} healthy cost changed with k", a.id.name());
        }
    }

    #[test]
    fn cluster_cost_decomposes_sanely() {
        let mut c = cluster(8);
        let q = c.run(QueryId::Q1);
        let cost = &q.cost;
        assert_eq!(cost.per_node.len(), 8);
        assert!(cost.local_seconds > 0.0);
        assert!(cost.fabric_seconds > 0.0, "partials must cross the fabric");
        assert!(cost.merge_seconds > 0.0);
        assert!(cost.fabric_bytes > 0);
        assert_eq!(cost.failovers, 0);
        let total = cost.total_seconds();
        assert!(total > cost.local_seconds);
        // Local phases divide the single-node stream ~n ways: the slowest
        // shard must be well under the single-node time.
        assert!(cost.local_seconds < q.single_cost.dpu.seconds * 0.5);
    }

    #[test]
    fn q10_shuffles_partials_over_the_fabric() {
        let mut c = cluster(8);
        let q = c.run(QueryId::Q10);
        assert!(q.matches_single());
        // The reshuffle moves many partial groups, far more than the
        // final candidate gather alone would.
        let gathered_only = c.run(QueryId::Q3).cost.fabric_bytes;
        assert!(q.cost.fabric_bytes > gathered_only);
    }

    #[test]
    fn batching_amortizes_the_scan() {
        let mut c = cluster(8);
        let cost = c.run(QueryId::Q6).cost;
        let k = 8;
        assert!((cost.batch_seconds(1) - cost.total_seconds()).abs() < 1e-12);
        // A memory-bound scan batch shares the stream: k queries cost
        // far less than k independent executions.
        assert!(cost.batch_seconds(k) < 0.9 * k as f64 * cost.total_seconds());
    }

    #[test]
    fn more_nodes_cut_local_time() {
        let db = generate(1200, 42);
        let mut c4 = Cluster::new(
            db.clone(),
            &ShardPolicy::hash(4),
            ClusterConfig::prototype_slice(4, 10_000),
        );
        let mut c16 =
            Cluster::new(db, &ShardPolicy::hash(16), ClusterConfig::prototype_slice(16, 10_000));
        let t4 = c4.run(QueryId::Q1).cost.local_seconds;
        let t16 = c16.run(QueryId::Q1).cost.local_seconds;
        assert!(t16 < t4 / 2.0, "16 nodes {t16} vs 4 nodes {t4}");
    }

    #[test]
    fn perf_per_watt_beats_the_socket() {
        let mut c = cluster(8);
        let q = c.run(QueryId::Q6);
        let g = q.perf_per_watt_gain(c.watts(), c.xeon());
        assert!(g > 1.0, "rack perf/W gain {g:.2} ≤ 1");
    }

    #[test]
    fn load_scatters_the_whole_database() {
        let mut c = cluster(8);
        let s = c.load_seconds();
        assert!(s > 0.0);
        // Replication loads k copies: strictly more fabric time.
        let mut c2 = cluster_k(8, 2);
        assert!(c2.load_seconds() > s, "two replicas must load slower than one");
    }

    #[test]
    fn mid_query_crash_fails_over_and_costs_more() {
        let mut healthy = cluster_k(8, 2);
        let base = healthy.run(QueryId::Q1);
        let mut faulty = cluster_k(8, 2);
        // Crash node 3 in the middle of its local phase.
        faulty.set_faults(FaultPlan::none().crash(3, base.cost.local_seconds * 0.5));
        let q = faulty.try_run_at(QueryId::Q1, 0.0).expect("one replica survives");
        assert!(q.matches_single(), "failover must not change the answer");
        assert!(q.cost.failovers >= 1, "the crash must be visible in the cost");
        assert!(
            q.cost.total_seconds() > base.cost.total_seconds(),
            "failover must cost time: {} vs {}",
            q.cost.total_seconds(),
            base.cost.total_seconds()
        );
    }

    #[test]
    fn dead_shard_is_an_error_not_a_wrong_answer() {
        let mut c = cluster(4); // k = 1: any crash strands a shard
        c.set_faults(FaultPlan::none().crash(2, 0.0));
        for id in QueryId::ALL {
            match c.try_run_at(id, 0.0) {
                Err(QueryError::ShardUnavailable { shard: 2 }) => {}
                other => panic!("{}: expected ShardUnavailable(2), got {other:?}", id.name()),
            }
        }
    }

    #[test]
    fn fork_equals_fresh_cluster_bit_for_bit() {
        let mut fresh = cluster_k(8, 2);
        let mut forked = {
            // Dirty a cluster thoroughly, then fork it: the fork must be
            // indistinguishable from a fresh Cluster::new.
            let mut dirty = cluster_k(8, 2);
            dirty.set_faults(FaultPlan::none().crash(1, 0.0).straggle(2, 0.0, 1e9, 0.5));
            dirty.set_speculation(Some(Speculation::default()));
            let _ = dirty.try_run_at(QueryId::Q10, 0.0);
            dirty.fork()
        };
        assert_eq!(forked.faults(), &FaultPlan::none(), "fork starts fault-free");
        assert_eq!(forked.speculation(), None, "fork starts without speculation");
        assert_eq!(forked.fabric.transfers(), 0, "fork starts with an idle fabric");
        for id in QueryId::ALL {
            let a = fresh.run(id);
            let b = forked.run(id);
            assert_eq!(a.output, b.output, "{} output diverged in fork", id.name());
            assert_eq!(a.cost, b.cost, "{} cost diverged in fork", id.name());
        }
        // The fork shares the core rather than re-sharding.
        assert!(Arc::ptr_eq(forked.fork().core(), forked.core()));
    }

    #[test]
    fn sibling_cores_share_database_and_reference_cache() {
        let db = Arc::new(generate(800, 7));
        let single = Arc::new(SingleRefCache::new());
        let policy = ShardPolicy::hash(4);
        let mk = |k: usize| {
            ClusterCore::with_shared(
                db.clone(),
                &policy,
                ClusterConfig::prototype_slice(4, 10_000).with_replicas(k),
                single.clone(),
            )
        };
        let (c1, c2) = (mk(1), mk(2));
        assert!(Arc::ptr_eq(&c1.full_shared(), &c2.full_shared()));
        // Warming through one core warms the other: the single-node
        // reference ignores replication, so the memo is shared.
        let mut a = Cluster::from_core(c1);
        let mut b = Cluster::from_core(c2);
        let qa = a.run(QueryId::Q6);
        assert!(single.is_warm(QueryId::Q6), "run must populate the shared cache");
        let qb = b.run(QueryId::Q6);
        assert_eq!(qa.single_output, qb.single_output);
        assert_eq!(qa.output, qb.output);
    }

    #[test]
    fn consecutive_runs_report_identical_fabric_stats() {
        // Regression (PR 2): every query resets the fabric — including
        // the per-node replication counters — so back-to-back runs are
        // statistically indistinguishable.
        let mut c = cluster_k(8, 2);
        let a = c.run(QueryId::Q10);
        let a_nodes = c.fabric.node_bytes();
        let b = c.run(QueryId::Q10);
        let b_nodes = c.fabric.node_bytes();
        assert_eq!(a.cost, b.cost, "fabric state leaked between runs");
        assert_eq!(a_nodes, b_nodes, "per-node counters leaked between runs");
    }

    #[test]
    fn recovery_rebuilds_from_surviving_replicas() {
        let mut c = cluster_k(8, 2);
        c.set_faults(FaultPlan::none().crash(3, 0.0));
        let expect_bytes: u64 = c
            .sharded()
            .placement
            .shards_on(3)
            .iter()
            .map(|&s| c.sharded().shard_fact_bytes(s))
            .sum();
        let r = c.recover(3, 1.0);
        assert_eq!(r.node, 3);
        assert_eq!(r.shards, c.sharded().placement.shards_on(3));
        assert_eq!(r.bytes_moved, expect_bytes);
        assert!(r.rebuild_seconds > 0.0);
        // The node is live again: queries route to it without failover.
        let q = c.run(QueryId::Q1);
        assert_eq!(q.cost.failovers, 0);
    }

    #[test]
    fn rebuild_time_matches_hand_computed_fabric_transfers() {
        // 3 nodes, k = 2, node 2 dead from t = 0. Its shards are [1, 2]:
        // shard 1 streams from node 1, shard 2 from node 0 — distinct
        // sender NICs, but the shared switch and node 2's receive NIC
        // serialize the two streams in issue order. Walk that pipeline by
        // hand (per server: start at max(free, arrival), then overhead +
        // bytes/bandwidth; a hop of latency between servers) and demand
        // the model agree exactly.
        let db = generate(600, 5);
        let mut c = Cluster::new(
            db,
            &ShardPolicy::hash(3),
            ClusterConfig::prototype_slice(3, 10_000).with_replicas(2),
        );
        c.set_faults(FaultPlan::none().crash(2, 0.0));
        let cfg = c.fabric.config().clone();
        let b: Vec<u64> = c
            .sharded()
            .placement
            .shards_on(2)
            .iter()
            .map(|&s| c.sharded().shard_fact_bytes(s))
            .collect();
        assert_eq!(b.len(), 2);
        let (hop, msg) = (cfg.hop_cycles, cfg.message_overhead_cycles);
        let nic = |bytes: u64| bytes.div_ceil(cfg.nic_bytes_per_cycle);
        let sw = |bytes: u64| bytes.div_ceil(cfg.switch_bytes_per_cycle);
        let tx1 = msg + nic(b[0]);
        let tx2 = msg + nic(b[1]);
        let sw1 = (tx1 + hop) + sw(b[0]);
        let sw2 = sw1.max(tx2 + hop) + sw(b[1]);
        let rx1 = (sw1 + hop) + msg + nic(b[0]);
        let rx2 = rx1.max(sw2 + hop) + msg + nic(b[1]);
        let expect = Time::from_cycles(rx1.max(rx2)).as_secs(CLOCK);

        let r = c.recover(2, 0.0);
        assert_eq!(r.bytes_moved, b.iter().sum::<u64>());
        assert!(
            (r.rebuild_seconds - expect).abs() < 1e-12,
            "rebuild {} s vs hand-computed {} s",
            r.rebuild_seconds,
            expect
        );
        // And the receiver NIC's serialization of both shards is a hard
        // floor on any schedule.
        let floor = (b[0] + b[1]) as f64 / (cfg.nic_bytes_per_cycle as f64 * CLOCK.hz());
        assert!(r.rebuild_seconds > floor);
    }

    #[test]
    fn failover_timeout_pins_the_old_constant_at_one_rack() {
        // Satellite regression: the timeout is now topology-derived, but
        // a single-rack cluster must reproduce the retired hard-coded
        // formula `2*(4*hop + 2*msg)` — 11 264 cycles on the prototype
        // fabric — to the cycle.
        let c = cluster(8);
        let fc = &c.cfg().fabric;
        assert_eq!(fc.hop_cycles, 1280);
        assert_eq!(fc.message_overhead_cycles, 256);
        let pinned_cycles = 2 * (4 * 1280 + 2 * 256);
        assert_eq!(pinned_cycles, 11_264u64);
        assert_eq!(c.cfg().topology().failover_timeout_cycles(fc), pinned_cycles);
        let pinned = Time::from_cycles(pinned_cycles);
        assert_eq!(c.fabric.failover_timeout(), pinned);
        // A spine topology probes over 4 hops each way: strictly longer.
        let db = generate(600, 42);
        let spread = Cluster::new(
            db,
            &ShardPolicy::hash(8),
            ClusterConfig::prototype_slice(8, 10_000).with_topology(2, 4.0),
        );
        assert!(spread.fabric.failover_timeout() > pinned);
    }

    #[test]
    fn multirack_cluster_stays_bit_identical_to_single_node() {
        let db = generate(1200, 42);
        let mut flat = Cluster::new(
            db.clone(),
            &ShardPolicy::hash(8),
            ClusterConfig::prototype_slice(8, 10_000).with_replicas(2),
        );
        let mut spread = Cluster::new(
            db,
            &ShardPolicy::hash(8),
            ClusterConfig::prototype_slice(8, 10_000).with_replicas(2).with_topology(4, 8.0),
        );
        for (a, b) in flat.run_all().iter().zip(spread.run_all().iter()) {
            assert!(b.matches_single(), "{} diverged on 4 racks", b.id.name());
            assert_eq!(a.output, b.output, "{} racks changed the answer", a.id.name());
            // Topology prices the fabric differently but never the rows.
            assert_eq!(b.cost.failovers, 0, "healthy multirack run must not fail over");
        }
    }

    #[test]
    fn straggler_inflates_local_time_without_changing_results() {
        let mut healthy = cluster_k(8, 2);
        let base = healthy.run(QueryId::Q1);
        let mut slow = cluster_k(8, 2);
        slow.set_faults(FaultPlan::none().straggle(0, 0.0, 1e9, 0.25));
        let q = slow.run(QueryId::Q1);
        assert!(q.matches_single());
        assert!(
            q.cost.local_seconds > 3.0 * base.cost.local_seconds,
            "a 4× straggler on the critical path must dominate: {} vs {}",
            q.cost.local_seconds,
            base.cost.local_seconds
        );
    }
}
