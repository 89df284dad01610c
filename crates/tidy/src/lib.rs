//! `falvolt-tidy` — the workspace's in-tree static-analysis pass.
//!
//! Modeled on rustc's `tidy`: a dependency-free scanner that enforces the
//! repo-specific contracts clippy cannot see — the `unsafe`/SIMD
//! confinement around `simd::dispatch`, the poison-recovering `guard()`
//! discipline on shared caches, and the no-panic rule for library code.
//! See [`lints`] for the catalog, [`baseline`] for the ratchet semantics,
//! and [`schema`] for the `BENCH_kernels.json` parser and check shared with
//! `bench_gate`.
//!
//! Run it as `cargo run -p falvolt-tidy` from the workspace root (CI does,
//! before the build matrix). Exit codes: `0` clean, `1` violations found,
//! `2` the pass itself could not run.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod lints;
pub mod pass;
pub mod schema;
