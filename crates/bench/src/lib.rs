//! # sigrec-bench
//!
//! The experiment harness: one function per table and figure of the
//! paper's evaluation (§5–§6), each returning a rendered text report whose
//! rows mirror the paper's. The `repro` binary drives them from the
//! command line. Figs. 17 and 18 time recovery the way the paper does;
//! every other speed figure comes from the `perfbench` benchmark.

#![warn(missing_docs)]

pub mod ablation;
pub mod accuracy;
pub mod apps;
pub mod conformance;
pub mod replay;
pub mod report;
pub mod timing;

pub use ablation::{ablated_accuracy, ablation, obfuscation, Ablation};
pub use accuracy::{fig15, fig16, rq1, table1, table2, table3, table4, table5, Scale};
pub use apps::{attacks, erays, fig19, fuzzing};
pub use conformance::conformance;
pub use replay::replay;
pub use timing::{dimension_series, fig17, fig18};
