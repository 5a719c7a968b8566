//! Figure 13: bandwidth of the DMS hardware partitioning engine.
//!
//! 32-way partitioning of a 4-column (4 B) table under each scheme:
//! radix on key bits, CRC32-hash radix, and range matching against 32
//! pre-programmed bounds. Target: ≈9.3 GB/s for every scheme, beating
//! HARP's published 6 GB/s.

use dpu_bench::json::{emit, Json};
use dpu_bench::{gbps, header, row};
use dpu_dms::{Dms, DmsConfig, PartitionJob, PartitionScheme};
use dpu_mem::{Dmem, DramChannel, DramConfig, PhysMem};
use dpu_sim::{Frequency, Time};

fn run(scheme: PartitionScheme) -> f64 {
    let rows = 256 * 1024u64;
    let cols = 4usize;
    let mut phys = PhysMem::new(rows as usize * cols * 4);
    let addrs: Vec<u64> = (0..cols as u64).map(|c| c * rows * 4).collect();
    for &addr in &addrs {
        for r in 0..rows {
            phys.write_u32(addr + r * 4, (r as u32).wrapping_mul(0x9E37_79B9));
        }
    }
    let mut dms = Dms::new(DmsConfig::default(), 32);
    let mut dram = DramChannel::new(DramConfig::ddr3_1600());
    let mut dmems: Vec<Dmem> = (0..32).map(|_| Dmem::new(1 << 20)).collect();
    let job = PartitionJob {
        key_col_addr: addrs[0],
        data_col_addrs: addrs[1..].to_vec(),
        rows,
        col_width: 4,
        scheme,
        dest_dmem_base: 0,
        dest_capacity: 256 * 1024,
    };
    let out =
        dms.run_partition(&job, Time::ZERO, &mut phys, &mut dram, &mut dmems).expect("partition");
    Frequency::DPU_CORE.bytes_per_sec(out.bytes_in, out.finish) / 1e9
}

fn main() {
    println!("# Figure 13: DMS partitioning bandwidth (32-way, 4×4 B columns)\n");
    header(&["Scheme", "Bandwidth", "vs HARP 6 GB/s"]);
    let bounds: Vec<i64> =
        (1..32).map(|i| i64::from(i32::MIN) + i * ((u32::MAX as i64) / 32)).collect();
    let schemes: Vec<(&str, PartitionScheme)> = vec![
        ("radix (5 key bits)", PartitionScheme::Radix { bits: 5, shift: 0 }),
        ("hash radix (CRC32)", PartitionScheme::HashRadix { radix_bits: 5 }),
        ("range (32 bounds)", PartitionScheme::Range { bounds }),
    ];
    let mut series: Vec<Json> = Vec::new();
    for (name, scheme) in schemes {
        let bw = run(scheme);
        row(&[name.to_string(), gbps(bw), format!("{:.2}×", bw / 6.0)]);
        series.push(Json::obj([
            ("scheme", Json::str(name)),
            ("gbps", Json::num(bw)),
            ("vs_harp_6gbps", Json::num(bw / 6.0)),
        ]));
    }
    emit(
        "fig13_partition",
        &Json::obj([("figure", Json::str("fig13_partition")), ("schemes", Json::Arr(series))]),
    );
    println!("\nPaper targets: ≈9.3 GB/s for all schemes; >1.5× HARP; the DMS");
    println!("additionally leaves all 32 dpCores free for a parallel software");
    println!("partition pass (1024-way total).");
}
