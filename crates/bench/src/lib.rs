//! # hpcfail-bench
//!
//! The experiment harness: `cargo run -p hpcfail-bench --bin repro`
//! regenerates every table and figure of the paper (see EXPERIMENTS.md),
//! and `--bin ablations` reruns the generator's ablation study. The
//! toolkit's own speed is measured by the separate `perfbench` package
//! (see `BENCHMARK.json`).
