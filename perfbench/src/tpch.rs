//! The TPC-H workloads: `tpch_large` (one `Cluster::run` per op over a
//! database far larger than the L2) and `tpch_sweep` (one fault-sweep
//! cell per op over an L2-resident database).

use std::sync::Arc;
use std::time::Instant;

use dpu_cluster::{
    Cluster, ClusterCore, FaultPlan, QueryError, QueryId, SingleRefCache, Speculation,
};
use dpu_planner::Planner;
use dpu_pool::Pool;

use crate::host::Threads;
use crate::trace::{Ctx, Tracer};
use crate::{build_core, catch, generate, shard, try_run_span, Outcome, Size, Workload, RUN_SPANS};

/// `tpch_large`: 200k orders (800k lineitem rows) on an 8-node
/// hash-sharded cluster, the eight queries run in Figure 16 order.
pub struct TpchLarge {
    cluster: Cluster,
    planner: Planner,
    prefix: Vec<(&'static str, f64)>,
}

impl Workload for TpchLarge {
    const CYCLE: u64 = QueryId::ALL.len() as u64;
    const THREADS: Threads = Threads::AllCores;

    fn setup(seed: u64, size: Size, tr: &Tracer, ctx: Ctx) -> (Self, Vec<String>) {
        let core = build_core(size.orders(200_000, 2_000), seed, (1, 1.0), tr, ctx);
        let planner = tr.span("planner.catalog", ctx, |_| Planner::new(&core));
        (TpchLarge { cluster: Cluster::from_core(core), planner, prefix: Vec::new() }, Vec::new())
    }

    fn run(&mut self, i: u64, tr: &Tracer) -> Vec<Outcome> {
        let qi = (i % Self::CYCLE) as usize;
        let id = QueryId::ALL[qi];
        let t = Instant::now();
        let r = catch(|| tr.span(RUN_SPANS[qi], Ctx::op(i), |_| self.cluster.run(id)));
        let secs = t.elapsed().as_secs_f64();
        let error = r.and_then(|q| {
            if !q.matches_single() {
                return Err(format!("{} diverged from single-node", id.name()));
            }
            if i < Self::CYCLE {
                add_suite_sim(&mut self.prefix, &q.cost);
            }
            Ok(())
        });
        vec![Outcome { secs, error: error.err() }]
    }

    fn sim(&self) -> Vec<(&'static str, f64)> {
        self.prefix.clone()
    }

    fn core(&self) -> &Arc<ClusterCore> {
        self.cluster.core()
    }

    fn planner(&self) -> Option<&Planner> {
        Some(&self.planner)
    }
}

/// Folds one query's simulated cost into the suite totals.
pub fn add_suite_sim(acc: &mut Vec<(&'static str, f64)>, c: &dpu_cluster::ClusterQueryCost) {
    if acc.is_empty() {
        *acc = vec![
            ("sim.suite.local_s", 0.0),
            ("sim.suite.fabric_s", 0.0),
            ("sim.suite.merge_s", 0.0),
            ("sim.suite.fabric_bytes", 0.0),
        ];
    }
    for (v, x) in acc.iter_mut().map(|(_, v)| v).zip([
        c.local_seconds,
        c.fabric_seconds,
        c.merge_seconds,
        c.fabric_bytes as f64,
    ]) {
        *v += x;
    }
}

/// The fault injected into one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellFault {
    /// No fault.
    Healthy,
    /// `node` crashes at `at` seconds.
    Crash {
        /// The crashed node.
        node: usize,
        /// Crash time, seconds.
        at: f64,
    },
    /// `node` computes at a quarter of its speed for the whole run, with
    /// speculative re-execution on.
    Straggle {
        /// The slow node.
        node: usize,
    },
}

/// A crash inside the local phase of every query.
pub const MID_QUERY: f64 = 20e-6;

/// One sweep cell: a replication factor and a fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Replicas per shard.
    pub k: usize,
    /// The injected fault.
    pub fault: CellFault,
}

/// The 59 cells of one sweep over `nodes` nodes: k ∈ {1, 2, 3} × {healthy,
/// node n crashed at t = 0}, then k ∈ {2, 3} × {node n crashed mid-query,
/// node n straggling}.
pub fn sweep_cells(nodes: usize) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for k in 1..=3 {
        cells.push(SweepCell { k, fault: CellFault::Healthy });
        cells.extend(
            (0..nodes).map(|node| SweepCell { k, fault: CellFault::Crash { node, at: 0.0 } }),
        );
    }
    for k in 2..=3 {
        cells.extend(
            (0..nodes).map(|node| SweepCell { k, fault: CellFault::Crash { node, at: MID_QUERY } }),
        );
        cells.extend((0..nodes).map(|node| SweepCell { k, fault: CellFault::Straggle { node } }));
    }
    cells
}

/// A pristine cluster over `core` with `fault` installed.
pub fn faulted(core: Arc<ClusterCore>, fault: CellFault) -> Cluster {
    let mut c = Cluster::from_core(core);
    match fault {
        CellFault::Healthy => {}
        CellFault::Crash { node, at } => c.set_faults(FaultPlan::none().crash(node, at)),
        CellFault::Straggle { node } => {
            c.set_faults(FaultPlan::none().straggle(node, 0.0, 1e9, 0.25));
            c.set_speculation(Some(Speculation::default()));
        }
    }
    c
}

/// The expected-error oracle: with one replica a crashed node's shards
/// have nowhere to fail over, so every query must report one of them
/// unavailable; every other cell must answer bit-identically to
/// single-node execution.
pub fn check_cell(
    core: &ClusterCore,
    cell: SweepCell,
    id: QueryId,
    r: &Result<dpu_cluster::DistributedQuery, QueryError>,
) -> Result<(), String> {
    match (cell.fault, cell.k, r) {
        (CellFault::Crash { node, .. }, 1, Err(QueryError::ShardUnavailable { shard })) => {
            if core.sharded().placement.owners(*shard).contains(&node) {
                Ok(())
            } else {
                Err(format!(
                    "{cell:?} {}: shard {shard} reported lost, not on node {node}",
                    id.name()
                ))
            }
        }
        (CellFault::Crash { .. }, 1, _) => {
            Err(format!("{cell:?} {}: expected ShardUnavailable, got {r:?}", id.name()))
        }
        (_, _, Ok(q)) if q.matches_single() => Ok(()),
        (_, _, Ok(_)) => Err(format!("{cell:?} {} diverged from single-node", id.name())),
        (_, _, Err(e)) => Err(format!("{cell:?} {}: unexpected {e}", id.name())),
    }
}

/// Simulated fault statistics of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CellSim {
    failovers: usize,
    speculations: usize,
    unavailable: usize,
}

/// `tpch_sweep`: 10k orders (fits in L2), one core per replication
/// factor sharing the database and reference cache, each op one sweep
/// cell forked from its core.
pub struct TpchSweep {
    cores: Vec<Arc<ClusterCore>>,
    cells: Vec<SweepCell>,
    prefix: Option<CellSim>,
}

impl TpchSweep {
    /// Runs op `i`: fork, install the fault, run all eight queries.
    fn cell(&self, i: u64, cell: SweepCell, tr: &Tracer, ctx: Ctx) -> (Outcome, CellSim) {
        let core = &self.cores[cell.k - 1];
        let t = Instant::now();
        let r = catch(|| {
            tr.span("tpch_sweep.cell", Ctx { parent: ctx.parent, op: Some(i) }, |c| {
                let mut cluster = tr.span("cluster.fork", c, |_| faulted(core.clone(), cell.fault));
                QueryId::ALL
                    .iter()
                    .enumerate()
                    .map(|(qi, &id)| try_run_span(tr, c, qi, || cluster.try_run_at(id, 0.0)))
                    .collect::<Vec<_>>()
            })
        });
        let secs = t.elapsed().as_secs_f64();
        let mut sim = CellSim::default();
        let error = r.and_then(|results| {
            for (&id, q) in QueryId::ALL.iter().zip(&results) {
                check_cell(core, cell, id, q)?;
                match q {
                    Ok(q) => {
                        sim.failovers += q.cost.failovers;
                        sim.speculations += q.cost.speculations;
                    }
                    Err(_) => sim.unavailable += 1,
                }
            }
            Ok(())
        });
        (Outcome { secs, error: error.err() }, sim)
    }
}

impl Workload for TpchSweep {
    const CYCLE: u64 = 59;
    const THREADS: Threads = Threads::AllCores;

    fn setup(seed: u64, size: Size, tr: &Tracer, ctx: Ctx) -> (Self, Vec<String>) {
        let db = generate(size.orders(10_000, 1_000), seed, tr, ctx);
        let single = Arc::new(SingleRefCache::new());
        let cores: Vec<Arc<ClusterCore>> =
            (1..=3).map(|k| shard(&db, k, (1, 1.0), &single, tr, ctx)).collect();
        tr.span("cluster.warm_refs", ctx, |_| cores[0].warm_single_refs());
        let cells = sweep_cells(crate::NODES);
        assert_eq!(cells.len() as u64, Self::CYCLE);
        (TpchSweep { cores, cells, prefix: None }, Vec::new())
    }

    fn run(&mut self, first: u64, tr: &Tracer) -> Vec<Outcome> {
        let jobs: Vec<(u64, SweepCell)> =
            self.cells.iter().enumerate().map(|(j, &c)| (first + j as u64, c)).collect();
        let this = &*self;
        let results = tr.span_work("pool.par_map", "sweep", Ctx::default(), |c| {
            (Pool::global().par_map(jobs, |(i, cell)| this.cell(i, cell, tr, c)), 0)
        });
        if first == 0 {
            self.prefix = Some(results.iter().fold(CellSim::default(), |a, (_, s)| CellSim {
                failovers: a.failovers + s.failovers,
                speculations: a.speculations + s.speculations,
                unavailable: a.unavailable + s.unavailable,
            }));
        }
        results.into_iter().map(|(o, _)| o).collect()
    }

    fn sim(&self) -> Vec<(&'static str, f64)> {
        self.prefix.map_or_else(Vec::new, |s| {
            vec![
                ("sim.faults.failovers", s.failovers as f64),
                ("sim.faults.speculations", s.speculations as f64),
                ("sim.faults.unavailable", s.unavailable as f64),
            ]
        })
    }

    fn core(&self) -> &Arc<ClusterCore> {
        &self.cores[0]
    }

    fn planner(&self) -> Option<&Planner> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn a_sweep_has_59_cells() {
        let cells = sweep_cells(8);
        assert_eq!(cells.len(), 59);
        let k1_crashes =
            cells.iter().filter(|c| c.k == 1 && matches!(c.fault, CellFault::Crash { .. })).count();
        assert_eq!(k1_crashes, 8);
    }

    /// The oracle's prediction matches `try_run_at` on a small grid: k ∈
    /// {1, 2} × {healthy, crash at 0, crash mid-query, straggler}.
    #[test]
    fn expected_error_oracle_matches_try_run_at() {
        let off = Tracer::off();
        let db = generate(1_000, 7, &off, Ctx::default());
        let single = Arc::new(SingleRefCache::new());
        let mut unavailable = 0;
        for k in 1..=2 {
            let core = shard(&db, k, (1, 1.0), &single, &off, Ctx::default());
            for fault in [
                CellFault::Healthy,
                CellFault::Crash { node: 3, at: 0.0 },
                CellFault::Crash { node: 5, at: MID_QUERY },
                CellFault::Straggle { node: 2 },
            ] {
                let cell = SweepCell { k, fault };
                let mut c = faulted(core.clone(), fault);
                for id in QueryId::ALL {
                    let r = c.try_run_at(id, 0.0);
                    unavailable += usize::from(r.is_err());
                    check_cell(&core, cell, id, &r).unwrap();
                }
            }
        }
        // k = 1 loses a shard to either crash, for every query.
        assert_eq!(unavailable, 2 * QueryId::ALL.len());
        // And the oracle rejects an answer where an error was due.
        let core = shard(&db, 1, (1, 1.0), &single, &off, Ctx::default());
        let ok = Cluster::from_core(core.clone()).try_run_at(QueryId::Q6, 0.0);
        let cell = SweepCell { k: 1, fault: CellFault::Crash { node: 0, at: 0.0 } };
        assert!(check_cell(&core, cell, QueryId::Q6, &ok).is_err());
    }
}
