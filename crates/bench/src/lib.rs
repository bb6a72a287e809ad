//! # matador-bench — evaluation harnesses for every table and figure
//!
//! Shared machinery behind the `table1`, `table2`, `fig3_sharing`,
//! `fig4_packets`, `fig7_timing` and `fig8_dont_touch` binaries: dataset +
//! flow orchestration for the MATADOR side, baseline training + dataflow
//! modeling for the FINN side, and the row formatting that mirrors the
//! paper's Table I layout.
//!
//! The six serving harnesses — `chaos_bench`, `infer_bench`, `loadgen`,
//! `hetero_sweep`, `serve_sweep` and `compile_bench` — drive the KWS-6
//! design through `matador-serve` and gate it in CI. They share one flag
//! reader, one KWS-6 train/generate setup and one artifact epilogue in
//! [`harness`], and write [`BenchArtifact`]s (plus, with
//! `--metrics-out`, a [`write_metrics_snapshot`] of the metrics registry).
//!
//! Every binary accepts `--quick` (smaller splits/epochs, CI-friendly) and
//! `--seed <n>`, and trains its own models and generates its own designs.

pub mod benchjson;
pub mod eval;
pub mod harness;
pub mod metrics_out;
pub mod table;

pub use benchjson::BenchArtifact;
pub use eval::{
    run_baseline, run_matador, run_matador_with_threads, run_table1, BaselineRow, EvalError,
    EvalOptions, MatadorRow,
};
pub use metrics_out::write_metrics_snapshot;
pub use table::{format_table1, Table1Row};
