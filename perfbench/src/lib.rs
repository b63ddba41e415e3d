//! The SOS reproduction's reference benchmark: four workloads driven
//! through the public entry points E11, E12 and E17 use, with
//! end-to-end metrics from untraced runs and per-layer attribution from
//! traced ones. See `perfbench/README.md`.

pub mod cache;
pub mod layers;
pub mod phone;
pub mod report;
pub mod seams;
pub mod stats;
pub mod trace;
pub mod workloads;
