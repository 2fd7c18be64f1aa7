//! Whole-federation benchmark.  See `README.md` in this directory for the
//! workloads, the metrics and the layer-to-end-to-end map.

pub mod layers;
pub mod measure;
pub mod run;
pub mod workloads;
