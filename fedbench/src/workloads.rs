//! The benchmark's workloads: which federation each one builds, and how its
//! inputs follow from the seed.

use grid_directory::DirectoryBackend;
use grid_experiments::workloads::{replicated_workloads, ExperimentSetup, WorkloadOptions};
use grid_experiments::{exp6, exp7};
use grid_federation_core::{FederationConfig, SchedulingMode};
use grid_workload::PopulationProfile;

/// The seed the pinned digests were recorded at.
pub const DEFAULT_SEED: u64 = 2005;

/// Clusters in a self-test (`--tiny`) pass.
const TINY_N: usize = 12;

/// Job scale of a self-test pass (the benchmark itself uses a quarter of
/// Table 2's job counts).
const TINY_JOB_SCALE: f64 = 0.02;

/// One benchmark workload: a whole federation run through the public API.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// Number of clusters (Table 1 resources replicated).
    pub n: usize,
    /// Percentage of users optimising for time (the rest optimise cost).
    pub oft_percent: u32,
    /// Resource-sharing environment.
    pub mode: SchedulingMode,
    /// Directory backend serving the ranking queries.
    pub backend: DirectoryBackend,
    /// Moderate churn (k = 2 replication) plus moderate message loss,
    /// jitter and duplication.
    pub faults: bool,
    /// `RunDigest::full` at [`DEFAULT_SEED`] and full size.
    pub pinned_full: u64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // Negotiation-bound: almost every lookup is served by the quote cache.
    Workload {
        name: "oft-n200-ideal",
        n: 200,
        oft_percent: 100,
        mode: SchedulingMode::Economy,
        backend: DirectoryBackend::Ideal,
        faults: false,
        pinned_full: 17_607_133_400_925_365_781,
    },
    // The same core code on the fault path: directory writes, cache misses,
    // envelopes, retransmission and dedup.
    Workload {
        name: "churn-net-n200-maan",
        n: 200,
        oft_percent: 50,
        mode: SchedulingMode::Economy,
        backend: DirectoryBackend::Maan,
        faults: true,
        pinned_full: 14_235_797_530_019_629_077,
    },
    // No negotiation and no directory traffic: only the local schedulers.
    Workload {
        name: "independent-n2000",
        n: 2000,
        oft_percent: 50,
        mode: SchedulingMode::Independent,
        backend: DirectoryBackend::Ideal,
        faults: false,
        pinned_full: 18_425_467_158_220_967_194,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which inputs a pass generates: the benchmark's own size, or the
/// self-test size that runs every code path in a fraction of a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark size.
    Full,
    /// Few clusters and few jobs, for the benchmark's own tests.
    Tiny,
}

impl Workload {
    /// Number of clusters at `size`.
    #[must_use]
    pub fn clusters(&self, size: Size) -> usize {
        match size {
            Size::Full => self.n,
            Size::Tiny => TINY_N,
        }
    }

    /// Workload options at `seed`: the quick configuration (a quarter of
    /// Table 2's job counts over a 12 h trace), or a smaller one when tiny.
    #[must_use]
    pub fn options(&self, seed: u64, size: Size) -> WorkloadOptions {
        let quick = WorkloadOptions {
            seed,
            ..WorkloadOptions::quick()
        };
        match size {
            Size::Full => quick,
            Size::Tiny => WorkloadOptions {
                job_scale: TINY_JOB_SCALE,
                ..quick
            },
        }
    }

    /// Generates the per-cluster job traces (the timed set-up step).
    #[must_use]
    pub fn generate(&self, options: &WorkloadOptions, size: Size) -> ExperimentSetup {
        replicated_workloads(
            self.clusters(size),
            PopulationProfile::new(self.oft_percent),
            options,
        )
    }

    /// The federation configuration; the workload seed doubles as the
    /// simulation seed.
    #[must_use]
    pub fn config(&self, options: &WorkloadOptions) -> FederationConfig {
        FederationConfig {
            mode: self.mode,
            seed: options.seed,
            utilization_horizon: Some(options.duration),
            directory: self.backend,
            churn: self
                .faults
                .then(|| exp6::DEFAULT_LEVELS[1].to_config(options, 2)),
            network: self.faults.then_some(exp7::DEFAULT_FAULTS[1].config),
            ..FederationConfig::default()
        }
    }

    /// The digest every run must reproduce, when one is pinned for this
    /// seed and size.
    #[must_use]
    pub fn pinned(&self, seed: u64, size: Size) -> Option<u64> {
        (seed == DEFAULT_SEED && size == Size::Full).then_some(self.pinned_full)
    }
}
