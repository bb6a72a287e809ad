//! End-to-end and per-layer benchmark of the MATADOR reproduction.
//!
//! Run through the repository's `BENCHMARK.json` command:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-kws6|stream-kws6|flow-mnist> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metric → layer map
//! and the host-noise notes.

pub mod host;
pub mod ledger;
pub mod run;
pub mod workload;
