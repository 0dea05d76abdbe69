//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each table/figure has a dedicated binary (see `src/bin/`); this library
//! provides what they share:
//!
//! - [`cache`] — experiment results are expensive relative to formatting,
//!   so every `(config)` run is cached as JSON under `results/runs/` and
//!   reused across binaries (Table 1's 100%-steps runs are the same runs
//!   Figures 4–6 plot), and so is every design's step over each link.
//! - [`link`] — the paced relay that measures a step over the paper's
//!   links.
//! - [`harness`] — command-line options common to all binaries
//!   (`--steps`, `--quick`, `--seed`, `--fresh`) and the experiment grids.
//! - [`table`] — fixed-width text table rendering.

pub mod cache;
pub mod harness;
pub mod link;
pub mod plot;
pub mod schema;
pub mod table;

pub use cache::{run_cached, step_cached};
pub use harness::HarnessOptions;
pub use table::Table;
