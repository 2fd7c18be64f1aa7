//! The traced run's per-layer rows.  Layers are the workspace crates:
//! `workload`, `des` (engine and `net`), `core` (GFA handlers), `directory`,
//! `cluster` and `obs`.  Counts come from the report and the profiler; the
//! directory and cluster operations are also timed alone, from outside, on
//! a directory and a scheduler set up like the workload's.

use std::hint::black_box;

use grid_cluster::{replicated_resources, ClusterJob, LocalScheduler, SpaceSharedFcfs};
use grid_directory::{FederationDirectory, Quote, RankOrder};
use grid_federation_core::{FederationReport, HistId, ProfileTable};
use grid_workload::JobId;

use crate::measure::{median, timed};
use crate::workloads::{Size, Workload};

/// The GFA handler labels (`FedMessage::label`) given a row each.
pub const HANDLERS: [&str; 10] = [
    "negotiate",
    "negotiate_reply",
    "job_arrival",
    "local_job_finished",
    "job_dispatch",
    "job_completion",
    "stabilize",
    "churn_join",
    "churn_depart",
    "directory_retry",
];

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Batches each alone-timed operation is measured in; the median batch is
/// reported.
const BATCHES: usize = 5;

/// Median seconds per operation over [`BATCHES`] batches of `ops` calls.
fn per_op_secs(ops: usize, mut batch: impl FnMut(usize) -> f64) -> f64 {
    let secs: Vec<f64> = (0..BATCHES).map(|_| batch(ops) / ops as f64).collect();
    median(&secs)
}

/// Directory operations timed alone.
#[derive(Debug, Clone, Copy)]
pub struct DirectoryTimes {
    /// Open a rank cursor and read its head (the routed lookup).
    pub cursor_open_ns: f64,
    /// One further cursor advance.
    pub cursor_advance_ns: f64,
    /// One stabilization round.
    pub stabilize_us: f64,
    /// A graceful departure, rejoin and quote re-publish of one node.
    pub depart_join_us: f64,
}

/// Times the directory on the workload's backend, cluster count and
/// replication factor, populated with the workload's quotes.
#[must_use]
pub fn time_directory(workload: &Workload, seed: u64, size: Size) -> DirectoryTimes {
    let n = workload.clusters(size);
    let config = workload.config(&workload.options(seed, size));
    let mut dir = config.directory.build(n, seed);
    if let Some(churn) = &config.churn {
        dir.set_replication(churn.replication);
    }
    let resources = replicated_resources(n);
    for (gfa, resource) in resources.iter().enumerate() {
        let _ = dir.subscribe(Quote::from_spec(gfa, &resource.spec));
    }
    // Puts the replicas in place, as the run's first stabilization does.
    let _ = dir.stabilize();
    let ops = |full: usize| {
        if size == Size::Full {
            full
        } else {
            (full / 20).max(2)
        }
    };
    let order = |i: usize| {
        if i % 2 == 0 {
            RankOrder::Cheapest
        } else {
            RankOrder::Fastest
        }
    };

    let cursor_open = per_op_secs(ops(20_000), |ops| {
        timed(|| {
            let mut acc = 0usize;
            for i in 0..ops {
                let mut cursor = dir.open_cursor(i % n, order(i));
                acc += dir.cursor_next(&mut cursor).quote.map_or(0, |q| q.gfa);
            }
            black_box(acc)
        })
        .0
    });
    let mut cursors = [
        dir.open_cursor(0, RankOrder::Cheapest),
        dir.open_cursor(0, RankOrder::Fastest),
    ];
    for cursor in &mut cursors {
        let _ = dir.cursor_next(cursor);
    }
    let cursor_advance = per_op_secs(ops(100_000), |ops| {
        timed(|| {
            let mut acc = 0usize;
            for i in 0..ops {
                let cursor = &mut cursors[i % 2];
                if cursor.next_rank() > n {
                    cursor.seek(2);
                }
                acc += dir.cursor_next(cursor).quote.map_or(0, |q| q.gfa);
            }
            black_box(acc)
        })
        .0
    });
    let stabilize = per_op_secs(ops(40), |ops| {
        timed(|| (0..ops).map(|_| dir.stabilize()).sum::<u64>()).0
    });
    let mut next = 0usize;
    let depart_join = per_op_secs(ops(40), |ops| {
        timed(|| {
            let mut messages = 0u64;
            for _ in 0..ops {
                let gfa = next % n;
                next += 1;
                messages += dir.node_depart(gfa, true);
                messages += dir.node_join(gfa);
                messages += dir.subscribe(Quote::from_spec(gfa, &resources[gfa].spec));
            }
            black_box(messages)
        })
        .0
    });
    DirectoryTimes {
        cursor_open_ns: cursor_open * 1e9,
        cursor_advance_ns: cursor_advance * 1e9,
        stabilize_us: stabilize * 1e6,
        depart_join_us: depart_join * 1e6,
    }
}

/// Local-scheduler operations timed alone.
#[derive(Debug, Clone, Copy)]
pub struct ClusterTimes {
    /// `LocalScheduler::estimate_completion` (the admission-control quote).
    pub estimate_ns: f64,
    /// `LocalScheduler::submit_into` of one more job.
    pub submit_ns: f64,
}

/// Times the first cluster's scheduler with `depth` jobs queued behind one
/// that holds every processor.
#[must_use]
pub fn time_cluster(depth: usize, size: Size) -> ClusterTimes {
    let spec = replicated_resources(1).remove(0).spec;
    let procs = spec.processors;
    let job = |seq: usize, processors: u32, service_time: f64| ClusterJob {
        id: JobId { origin: 0, seq },
        processors,
        service_time,
    };
    let mut loaded = SpaceSharedFcfs::new(procs);
    let mut started = Vec::new();
    loaded.submit_into(job(0, procs, 1e7), 0.0, &mut started);
    for seq in 1..=depth {
        loaded.submit_into(
            job(
                seq,
                1 + (seq as u32 * 7) % procs,
                60.0 + (seq % 41) as f64 * 90.0,
            ),
            1.0,
            &mut started,
        );
    }
    assert_eq!(
        loaded.queued_count(),
        depth,
        "every job behind the blocker queues"
    );
    let ops = |full: usize| if size == Size::Full { full } else { full / 20 };

    let estimate = per_op_secs(ops(200_000), |ops| {
        timed(|| {
            let mut acc = 0.0;
            for i in 0..ops {
                acc += loaded.estimate_completion(
                    1 + (i as u32 * 13) % procs,
                    30.0 + (i % 61) as f64 * 7.0,
                    2.0,
                );
            }
            black_box(acc)
        })
        .0
    });
    const PER_CLONE: usize = 64;
    let submit = per_op_secs(PER_CLONE * ops(400), |ops| {
        let mut secs = 0.0;
        for round in 0..ops / PER_CLONE {
            let mut scheduler = loaded.clone();
            started.clear();
            secs += timed(|| {
                for k in 0..PER_CLONE {
                    let seq = depth + 1 + round * PER_CLONE + k;
                    scheduler.submit_into(
                        job(seq, 1 + (seq as u32 * 11) % procs, 120.0),
                        2.0,
                        &mut started,
                    );
                }
            })
            .0;
            black_box(&scheduler);
        }
        secs
    });
    ClusterTimes {
        estimate_ns: estimate * 1e9,
        submit_ns: submit * 1e9,
    }
}

/// Everything the per-layer rows are computed from.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// Median seconds of generating the workload.
    pub generate_s: f64,
    /// Jobs in the workload.
    pub jobs: usize,
    /// Median wall seconds of the untraced, profiled and observed runs.
    pub untraced_s: f64,
    /// See `untraced_s`.
    pub profiled_s: f64,
    /// See `untraced_s`.
    pub observed_s: f64,
    /// The median profiled run's wall seconds and handler table.
    pub profile_wall_s: f64,
    /// See `profile_wall_s`.
    pub profile: &'a ProfileTable,
    /// A report of the run (every phase reports the same run).
    pub report: &'a FederationReport,
    /// Spans the observed run's tracer buffered.
    pub trace_spans: usize,
    /// Directory operations timed alone.
    pub directory: DirectoryTimes,
    /// Scheduler operations timed alone.
    pub cluster: ClusterTimes,
}

impl LayerInputs<'_> {
    /// Seconds inside GFA handlers, summed over every handler.
    #[must_use]
    pub fn handler_s(&self) -> f64 {
        self.profile.rows().map(|(_, e)| e.total_secs).sum()
    }

    /// Profiled wall time outside every handler: dispatch, the queue, run
    /// set-up, report assembly and the profiler's own clock reads.
    #[must_use]
    pub fn unattributed_s(&self) -> f64 {
        self.profile_wall_s - self.handler_s()
    }

    /// Mean in-run seconds of handler `label` (0 when it never ran).
    #[must_use]
    pub fn handler_mean_s(&self, label: &str) -> f64 {
        self.profile
            .rows()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |(_, e)| e.mean_secs())
    }

    /// The per-layer rows, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let report = self.report;
        let events = self.profile.total_events();
        let cache = report.directory_cache;
        let lookups = cache.hits + cache.misses;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut out = vec![
            metric("workload.generate_s", self.generate_s, "s"),
            metric("workload.jobs", self.jobs as f64, "count"),
            metric("des.events", events as f64, "count"),
            metric(
                "des.ns_per_event",
                ratio(self.untraced_s * 1e9, events as f64),
                "ns",
            ),
            metric("des.profiled_wall_s", self.profile_wall_s, "s"),
            metric("des.unattributed_s", self.unattributed_s(), "s"),
            metric(
                "des.unattributed_frac",
                ratio(self.unattributed_s(), self.profile_wall_s),
                "ratio",
            ),
            metric(
                "des.net_enveloped",
                report.network.enveloped as f64,
                "count",
            ),
            metric(
                "des.net_retransmissions",
                report.network.retransmissions as f64,
                "count",
            ),
            metric(
                "des.net_dedup_drops",
                report.network.dedup_drops as f64,
                "count",
            ),
        ];
        for label in HANDLERS {
            let entry = self
                .profile
                .rows()
                .find(|(l, _)| *l == label)
                .map(|(_, e)| *e)
                .unwrap_or_default();
            out.push(metric(
                format!("core.{label}.events"),
                entry.events as f64,
                "count",
            ));
            out.push(metric(
                format!("core.{label}.time_s"),
                entry.total_secs,
                "s",
            ));
            out.push(metric(
                format!("core.{label}.mean_ns"),
                entry.mean_secs() * 1e9,
                "ns",
            ));
        }
        let messages = report.messages.total_messages();
        out.extend([
            metric("core.handler_s", self.handler_s(), "s"),
            metric("core.messages", messages as f64, "count"),
            metric(
                "core.messages_per_job",
                ratio(messages as f64, self.jobs as f64),
                "msgs/job",
            ),
            metric(
                "directory.queries",
                report.directory_queries as f64,
                "count",
            ),
            metric(
                "directory.cache_hit_ratio",
                ratio(cache.hits as f64, lookups as f64),
                "ratio",
            ),
            metric("directory.cache_lookups", lookups as f64, "count"),
            metric(
                "directory.messages",
                report.messages.directory_messages() as f64,
                "count",
            ),
            metric(
                "directory.publish_messages",
                report.directory_publish_messages() as f64,
                "count",
            ),
            metric(
                "directory.avg_route_messages",
                report.directory_avg_route_messages,
                "msgs",
            ),
            metric(
                "directory.cursor_open_ns",
                self.directory.cursor_open_ns,
                "ns",
            ),
            metric(
                "directory.cursor_advance_ns",
                self.directory.cursor_advance_ns,
                "ns",
            ),
            metric("directory.stabilize_us", self.directory.stabilize_us, "us"),
            metric(
                "directory.depart_join_us",
                self.directory.depart_join_us,
                "us",
            ),
            metric("cluster.queue_depth_p99", queue_depth_p99(report), "jobs"),
            metric("cluster.estimate_ns", self.cluster.estimate_ns, "ns"),
            metric("cluster.submit_ns", self.cluster.submit_ns, "ns"),
            metric(
                "obs.profiler_overhead_frac",
                self.profiled_s / self.untraced_s - 1.0,
                "ratio",
            ),
            metric(
                "obs.observed_overhead_frac",
                self.observed_s / self.untraced_s - 1.0,
                "ratio",
            ),
            metric("obs.spans", self.trace_spans as f64, "count"),
        ]);
        out
    }

    /// The layer-to-whole gap: handler time plus unattributed time against
    /// the profiled wall, and each operation timed alone beside the mean of
    /// the in-run handler that calls it.
    #[must_use]
    pub fn reconciliation(&self) -> Vec<String> {
        let wall = self.profile_wall_s;
        let unattributed = self.unattributed_s();
        let flag = if unattributed < 0.0 {
            "  NEGATIVE: handler time exceeds the wall"
        } else {
            ""
        };
        let mut lines = vec![format!(
            "reconcile: core handlers {:.4} s + des unattributed {:.4} s = profiled wall {:.4} s ({:.1}% unattributed){flag}",
            self.handler_s(),
            unattributed,
            wall,
            100.0 * unattributed / wall
        )];
        let pairs = [
            (
                "directory cursor open",
                self.directory.cursor_open_ns * 1e-9,
                "job_arrival",
            ),
            (
                "directory cursor advance",
                self.directory.cursor_advance_ns * 1e-9,
                "negotiate_reply",
            ),
            (
                "directory stabilize",
                self.directory.stabilize_us * 1e-6,
                "stabilize",
            ),
            (
                "directory depart+join",
                self.directory.depart_join_us * 1e-6,
                "churn_join",
            ),
            (
                "cluster estimate_completion",
                self.cluster.estimate_ns * 1e-9,
                "negotiate",
            ),
            (
                "cluster submit_into",
                self.cluster.submit_ns * 1e-9,
                "job_arrival",
            ),
        ];
        for (op, alone_s, handler) in pairs {
            lines.push(format!(
                "alone vs in run: {op:<28} {:>12.3} us alone   {handler:<18} handler mean {:>12.3} us",
                alone_s * 1e6,
                self.handler_mean_s(handler) * 1e6
            ));
        }
        lines
    }
}

/// p99 of the per-submit queue depths the run recorded.
#[must_use]
pub fn queue_depth_p99(report: &FederationReport) -> f64 {
    report.metrics.quantiles(HistId::QueueDepth).p99
}
