//! Figure 15: the filter primitive on a dpCore.
//!
//! Runs the real BVLD/FILT inner loop on the ISA interpreter across tile
//! sizes and reports tuples/second, plus the 32-core aggregate bandwidth
//! with the DMS streaming the column. Targets: ≈482 Mtuples/s
//! (1.65 cycles/tuple) at large tiles and ≈9.6 GB/s aggregate.

use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_core::{CoreProgram, Dpu, DpuConfig, StreamKernel, StreamSpec};
use dpu_sql::measure_filter_kernel;

/// The 32-core aggregate filter bandwidth with the DMS streaming the
/// column, each tile costing `cycles_per_tuple` of FILT work per row.
fn aggregate_bandwidth(cycles_per_tuple: f64) -> f64 {
    let mut dpu = Dpu::new(DpuConfig::nm40());
    let n = dpu.n_cores();
    let rows_total = 32 * 1024u64;
    let region = rows_total * 4;
    for core in 0..n as u64 {
        for r in 0..rows_total {
            dpu.phys_mut().write_u32(core * region + r * 4, r as u32);
        }
    }
    let mut programs: Vec<Box<dyn CoreProgram>> = Vec::new();
    for core in 0..n as u64 {
        let spec = StreamSpec {
            cols: vec![core * region],
            rows_total,
            rows_per_tile: 2048,
            col_width: 4,
            dmem_base: 0,
            write_back: None,
            buffers: 2,
        };
        programs.push(Box::new(StreamKernel::new(spec, move |_, tile| {
            (tile.rows as f64 * cycles_per_tuple) as u64
        })));
    }
    let report = dpu.run(&mut programs).expect("run");
    report.dms_gbytes_per_sec(dpu.config().clock)
}

fn main() {
    println!("# Figure 15: filter primitive performance\n");
    header(&["Tile rows", "cycles/tuple", "Mtuples/s per dpCore"]);
    let mut series: Vec<Json> = Vec::new();
    // Cycles/tuple at the largest tile, which feeds the aggregate run.
    let mut large_tile_cpt = 0.0;
    for rows in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let values: Vec<i32> =
            (0..rows as i32).map(|i| i.wrapping_mul(2654435761u32 as i32)).collect();
        let (m, _) = measure_filter_kernel(&values, -1_000_000, 1_000_000);
        large_tile_cpt = m.cycles_per_tuple();
        row(&[
            rows.to_string(),
            format!("{:.2}", m.cycles_per_tuple()),
            format!("{:.0}", m.tuples_per_sec() / 1e6),
        ]);
        series.push(Json::obj([
            ("tile_rows", Json::num(rows as f64)),
            ("cycles_per_tuple", Json::num(m.cycles_per_tuple())),
            ("mtuples_per_sec", Json::num(m.tuples_per_sec() / 1e6)),
        ]));
    }
    println!("\nPaper targets: 482 Mtuples/s = 1.65 cycles/tuple at large tiles.");
    let aggregate = aggregate_bandwidth(large_tile_cpt);
    println!(
        "\n32-dpCore aggregate filter bandwidth (DMS-fed): {aggregate:.2} GB/s (paper: 9.6 GB/s)"
    );
    emit(
        "fig15_filter",
        &Json::obj([
            ("figure", Json::str("fig15_filter")),
            ("tiles", Json::Arr(series)),
            ("aggregate_gbps", Json::num(aggregate)),
        ]),
    );
}
