//! Unified environment-knob resolution.
//!
//! The engine's three pure-performance knobs — `DPU_THREADS` (pool
//! width), `DPU_VECTOR` (scalar vs SWAR kernels), `DPU_PACK` (flat vs
//! encoded-domain filters) — share one contract: the variable is
//! parsed **once** per process, the resolved choice is cached, and an
//! in-process `set_*` override exists for benches that compare
//! settings. The shared cache cell is [`dpu_pool::EnvKnob`] (the pool
//! crate sits below everything, so all three knobs can use it); this
//! module owns the spelling parsers, and each knob's enum lives next
//! to the code it selects ([`crate::vector::Kernel`],
//! [`crate::column::Pack`]).
//!
//! Accepted spellings, pinned by the tests below:
//!
//! | knob          | spelling                         | meaning           |
//! |---------------|----------------------------------|-------------------|
//! | `DPU_THREADS` | positive integer                 | worker count      |
//! | `DPU_THREADS` | unset / `0` / garbage            | host parallelism  |
//! | `DPU_VECTOR`  | `off`, `0`, `false`, `scalar`    | scalar reference  |
//! | `DPU_VECTOR`  | `swar`                           | table-driven SWAR |
//! | `DPU_VECTOR`  | unset / anything else            | SWAR + `crc32q`   |
//! | `DPU_PACK`    | `off`, `0`, `false`, `flat`      | flat filter       |
//! | `DPU_PACK`    | unset / anything else            | encoded filter    |
//!
//! The `crc32q` default degrades to the table-driven SWAR arm on hosts
//! without SSE4.2 ([`crate::vector::kernel`]).

pub use dpu_pool::EnvKnob;

/// `DPU_VECTOR` spelling → [`crate::vector::Kernel`] cache code
/// (1 = scalar, 2 = SWAR, 3 = hardware CRC). The hardware CRC is the
/// default, since it measured faster than the table-driven CRC; `swar`
/// forces the table arm. Hardware availability is *not* checked here —
/// [`crate::vector::kernel`] degrades code 3 to Swar on hosts without
/// SSE4.2.
pub fn kernel_code(v: Option<&str>) -> usize {
    match v {
        Some("off") | Some("0") | Some("false") | Some("scalar") => 1,
        Some("swar") => 2,
        _ => 3,
    }
}

/// `DPU_PACK` spelling → [`crate::column::Pack`] cache code
/// (1 = off/flat, 2 = on/packed). The encoded-domain filter is the
/// default.
pub fn pack_code(v: Option<&str>) -> usize {
    match v {
        Some("off") | Some("0") | Some("false") | Some("flat") => 1,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Pack;
    use crate::vector::Kernel;
    use dpu_pool::parse_threads;

    #[test]
    fn thread_spellings() {
        assert_eq!(parse_threads(Some("1"), 7), 1);
        assert_eq!(parse_threads(Some("16"), 7), 16);
        // Unset, zero, negative, and garbage all fall back.
        assert_eq!(parse_threads(None, 7), 7);
        assert_eq!(parse_threads(Some("0"), 7), 7);
        assert_eq!(parse_threads(Some("-2"), 7), 7);
        assert_eq!(parse_threads(Some("many"), 7), 7);
        assert_eq!(parse_threads(Some(""), 7), 7);
    }

    #[test]
    fn vector_spellings() {
        for off in ["off", "0", "false", "scalar"] {
            assert_eq!(kernel_code(Some(off)), 1, "{off:?}");
        }
        for hw in ["hwcrc", "hw", "on", "1", "anything"] {
            assert_eq!(kernel_code(Some(hw)), 3, "{hw:?}");
        }
    }

    #[test]
    fn vector_default_is_the_hardware_crc_and_swar_forces_the_table() {
        // Unset resolves to the hardware CRC (degraded to the table CRC
        // by `vector::kernel` where SSE4.2 is missing); the CI matrix's
        // `swar` row must still reach the table-driven arm.
        assert_eq!(kernel_code(None), 3);
        assert_eq!(kernel_code(Some("swar")), 2);
    }

    #[test]
    fn pack_spellings() {
        for off in ["off", "0", "false", "flat"] {
            assert_eq!(pack_code(Some(off)), 1, "{off:?}");
        }
        for on in [None, Some("on"), Some("1"), Some("packed"), Some("anything")] {
            assert_eq!(pack_code(on), 2, "{on:?}");
        }
    }

    #[test]
    fn codes_round_trip_through_the_enums() {
        // The parser codes must match what the resolvers store: scalar,
        // table-SWAR and packed/flat choices survive a set/get round trip.
        let (k0, p0) = (crate::vector::kernel(), crate::column::pack());
        crate::vector::set_kernel(Kernel::Scalar);
        assert_eq!(crate::vector::kernel(), Kernel::Scalar);
        crate::vector::set_kernel(Kernel::Swar);
        assert_eq!(crate::vector::kernel(), Kernel::Swar);
        crate::column::set_pack(Pack::Off);
        assert_eq!(crate::column::pack(), Pack::Off);
        crate::column::set_pack(Pack::On);
        assert_eq!(crate::column::pack(), Pack::On);
        crate::vector::set_kernel(k0);
        crate::column::set_pack(p0);
    }

    #[test]
    fn knob_cell_caches_and_overrides() {
        static K: EnvKnob = EnvKnob::new("DPU_TEST_KNOB_NEVER_SET");
        // First get parses (env unset → parser sees None), later gets
        // hit the cache without re-parsing.
        assert_eq!(K.get(|v| if v.is_none() { 5 } else { 9 }), 5);
        assert_eq!(K.get(|_| unreachable!("cached")), 5);
        // Overrides keep working after resolution.
        K.set(3);
        assert_eq!(K.get(|_| unreachable!("cached")), 3);
    }
}
