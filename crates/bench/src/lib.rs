//! # ironsafe-bench
//!
//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§6). The [`figures`] module computes each result
//! series; the `paperbench` binary prints them in paper-shaped tables and
//! `benches/paper_figures.rs` wires them into Criterion.
//!
//! Scale note: the paper's testbed runs TPC-H at scale factors 3–5 on
//! real hardware; this reproduction runs at SF/1000 (0.003–0.005) and
//! scales size-dependent resources (EPC, storage memory) by the same
//! factor, so ratios, crossovers and breakdown shapes are preserved while
//! a laptop finishes in minutes. Absolute times are *simulated
//! nanoseconds* from the calibrated cost model, except where a harness
//! explicitly measures wall-clock time (Figure 12, Tables 3 and 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chaos;
pub mod figures;
pub mod profiles;
pub mod shards;
pub mod telemetry;
pub mod vectors;
pub mod writes;

pub use adaptive::{
    adaptive_invariants_json, adaptive_json, adaptive_sweep, q1_wide_with_selectivity,
    AdaptiveCell, ReplanDemo, ADAPTIVE_PRESSURES, ADAPTIVE_SELECTIVITIES, ADAPTIVE_SF,
    ADAPTIVE_SHAPES, ADAPTIVE_STORAGE_CORES,
};
pub use figures::*;
pub use profiles::{diff_snapshots, profile_matrix, profiles_json, PROFILE_SF};
pub use shards::{
    shards_invariants_json, shards_json, shards_sweep, SHARDS_SF, SHARD_COUNTS,
};
pub use vectors::{vectors_invariants_json, vectors_json, vectors_sweep, VECTORS_SF};
pub use writes::{
    mixed_sweep, mixed_wallclock, writes_invariants_json, writes_json, WRITES_SF, WRITE_BURSTS,
};
