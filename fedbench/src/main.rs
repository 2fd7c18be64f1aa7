//! `fedbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]`
//!
//! Runs one workload for about `S` seconds and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`).  Readable tables go before it.  Exits 1 when any run
//! failed a check, 2 on bad arguments.
//!
//! The untraced and the observed runs each happen in a child process of
//! their own (this binary with `--phase`), so that each phase's peak
//! resident memory is its own and no other phase's.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use fedbench::layers::{self, metric, LayerInputs, Metric};
use fedbench::measure::{median, peak_rss_kib, Spans, Stopwatch};
use fedbench::run::{judge, run_once, Finished, Phase, Sample};
use fedbench::workloads::{find, Size, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: fedbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]";

#[derive(Debug, Clone)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Set in a child process: run only this phase and report raw samples.
    phase: Option<Phase>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut phase = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(find(&name).ok_or_else(|| {
                    format!("unknown workload {name:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => size = Size::Tiny,
            "--phase" => {
                let p = value()?;
                phase = Some(Phase::parse(&p).ok_or_else(|| format!("unknown phase {p:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        phase,
    })
}

/// The fewest runs a child or the traced phase makes, however short its
/// time budget.
fn min_runs(size: Size) -> usize {
    match size {
        Size::Full => 2,
        Size::Tiny => 1,
    }
}

/// Child processes of one end-to-end pass, alternating untraced and
/// observed.  The host's speed drifts over tens of seconds, so each phase
/// samples the whole pass instead of one half of it.
const E2E_CHILDREN: usize = 4;

/// Child process: repeat set-up + run of one phase until the next run
/// would overshoot the budget, print each sample, then the peak memory.
fn child(args: &Args, phase: Phase) {
    let watch = Stopwatch::start();
    let mut spans = Spans::default();
    let mut runs = 0;
    let mut last = 0.0;
    while runs < min_runs(args.size) || watch.secs() + last < args.seconds {
        let started = watch.secs();
        let (sample, _) = run_once(args.workload, args.seed, args.size, phase, &mut spans);
        println!("{}", sample.to_line());
        last = watch.secs() - started;
        runs += 1;
    }
    println!("peak_rss_kib {}", peak_rss_kib());
}

/// Runs `phase` in a child process for `seconds`; returns its samples and
/// peak memory (KiB).  A child that dies adds one failed sample.
fn spawn_phase(args: &Args, phase: Phase, seconds: f64) -> (Vec<Sample>, Option<u64>) {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--phase", phase.label()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.size == Size::Tiny {
        cmd.arg("--tiny");
    }
    let output = match cmd.output() {
        Ok(output) => output,
        Err(e) => {
            return (
                vec![Sample::failed(
                    phase,
                    format!("cannot start the {} child: {e}", phase.label()),
                )],
                None,
            )
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut samples: Vec<Sample> = stdout.lines().filter_map(Sample::parse).collect();
    let rss = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_kib ")?.parse().ok());
    if !output.status.success() || rss.is_none() {
        samples.push(Sample::failed(
            phase,
            format!("the {} child exited with {}", phase.label(), output.status),
        ));
    }
    (samples, rss)
}

fn ok_runs(samples: &[Sample], phase: Phase) -> Vec<&Sample> {
    samples
        .iter()
        .filter(|s| s.phase == phase && s.problem.is_none())
        .collect()
}

/// Jobs per host second of `FederationBuilder::run` over every run of
/// `phase`: total jobs ÷ total run seconds (NaN without a run).  A total,
/// not a median run, because the host's speed drifts in phases lasting
/// tens of seconds: the total weighs slow and fast phases by how long they
/// lasted, where a median flips between them from one pass to the next.
fn jobs_per_s(samples: &[Sample], phase: Phase) -> f64 {
    let runs = ok_runs(samples, phase);
    let jobs: usize = runs.iter().map(|s| s.jobs).sum();
    let secs: f64 = runs.iter().map(|s| s.run_s).sum();
    if runs.is_empty() {
        f64::NAN
    } else {
        jobs as f64 / secs
    }
}

/// The end-to-end phase: untraced and observed runs in [`E2E_CHILDREN`]
/// alternating child processes that share the budget.  A phase's peak
/// memory is the largest any of its children reached.
fn end_to_end(args: &Args, seconds: f64) -> (Vec<Sample>, Vec<Metric>) {
    let mut samples = Vec::new();
    let (mut untraced_rss, mut observed_rss) = (None, None);
    for i in 0..E2E_CHILDREN {
        let (phase, rss) = if i % 2 == 0 {
            (Phase::Untraced, &mut untraced_rss)
        } else {
            (Phase::Observed, &mut observed_rss)
        };
        let (child_samples, child_rss) = spawn_phase(args, phase, seconds / E2E_CHILDREN as f64);
        samples.extend(child_samples);
        *rss = (*rss).max(child_rss);
    }
    let setups: Vec<f64> = samples
        .iter()
        .filter(|s| s.problem.is_none())
        .map(|s| s.setup_s)
        .collect();
    let verdict = judge(&samples, args.workload.pinned(args.seed, args.size));
    let mib = |kib: Option<u64>| kib.map_or(f64::NAN, |k| k as f64 / 1024.0);
    let metrics = vec![
        metric(
            "jobs_per_s",
            jobs_per_s(&samples, Phase::Untraced),
            "jobs/s",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mib", mib(untraced_rss), "MiB"),
        metric(
            "observed_jobs_per_s",
            jobs_per_s(&samples, Phase::Observed),
            "jobs/s",
        ),
        metric("observed_peak_rss_mib", mib(observed_rss), "MiB"),
        metric(
            "ok_run_frac",
            (verdict.attempted - verdict.failed) as f64 / verdict.attempted as f64,
            "ratio",
        ),
    ];
    (samples, metrics)
}

/// The traced phase, in this process: rounds of untraced, profiled and
/// observed runs, then the directory and cluster operations timed alone.
/// Returns the samples, the per-layer rows and the readable report lines.
fn layer_phase(
    args: &Args,
    seconds: f64,
    spans: &mut Spans,
) -> (Vec<Sample>, Option<Vec<Metric>>, Vec<String>) {
    let watch = Stopwatch::start();
    let mut samples = Vec::new();
    let mut report = None;
    let mut profiles = Vec::new();
    let mut trace_spans = 0;
    let mut last = 0.0;
    let mut rounds = 0;
    while rounds < min_runs(args.size) || watch.secs() + last < seconds {
        let started = watch.secs();
        for phase in [Phase::Untraced, Phase::Profiled, Phase::Observed] {
            let (sample, finished) = run_once(args.workload, args.seed, args.size, phase, spans);
            match finished {
                Some(Finished {
                    report: r,
                    profile,
                    trace_spans: n,
                }) if sample.problem.is_none() => match phase {
                    Phase::Untraced => report = report.or(Some(r)),
                    Phase::Profiled => profiles.extend(profile.map(|p| (sample.run_s, p))),
                    Phase::Observed => trace_spans = n,
                },
                _ => {}
            }
            samples.push(sample);
        }
        last = watch.secs() - started;
        rounds += 1;
    }
    let (Some(report), false) = (report, profiles.is_empty()) else {
        return (
            samples,
            None,
            vec!["no successful untraced and profiled run to read layers from".to_string()],
        );
    };
    profiles.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (profile_wall_s, profile) = &profiles[profiles.len() / 2];
    let depth = layers::queue_depth_p99(&report).round() as usize;
    let directory = spans.span("directory.alone", |_| {
        layers::time_directory(args.workload, args.seed, args.size)
    });
    let cluster = spans.span("cluster.alone", |_| layers::time_cluster(depth, args.size));
    let walls = |phase| {
        median(
            &ok_runs(&samples, phase)
                .iter()
                .map(|s| s.run_s)
                .collect::<Vec<_>>(),
        )
    };
    let setups: Vec<f64> = samples
        .iter()
        .filter(|s| s.problem.is_none())
        .map(|s| s.setup_s)
        .collect();
    let inputs = LayerInputs {
        generate_s: median(&setups),
        jobs: report.jobs.len(),
        untraced_s: walls(Phase::Untraced),
        profiled_s: walls(Phase::Profiled),
        observed_s: walls(Phase::Observed),
        profile_wall_s: *profile_wall_s,
        profile,
        report: &report,
        trace_spans,
        directory,
        cluster,
    };
    let mut lines = inputs.reconciliation();
    if inputs.unattributed_s() < 0.0 {
        samples.push(Sample::failed(
            Phase::Profiled,
            "negative unattributed time".to_string(),
        ));
    }
    lines.push(format!(
        "layer phase: {rounds} rounds; median walls untraced {:.4} s, profiled {:.4} s, observed {:.4} s",
        inputs.untraced_s, inputs.profiled_s, inputs.observed_s
    ));
    (samples, Some(inputs.metrics()), lines)
}

fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("== {title}\n");
    for m in metrics {
        let _ = writeln!(out, "{:<34} {:>20} {}", m.name, m.value, m.unit);
    }
    out
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(phase) = args.phase {
        child(&args, phase);
        return ExitCode::SUCCESS;
    }

    let w = args.workload;
    println!(
        "fedbench {} seed {}{} ({} clusters, trace {})",
        w.name,
        args.seed,
        if args.size == Size::Tiny { " tiny" } else { "" },
        w.clusters(args.size),
        u8::from(args.trace)
    );
    let mut spans = Spans::default();
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut samples, e2e) = end_to_end(&args, e2e_seconds);
    print!("{}", table("end-to-end", &e2e));
    let mut reported = e2e;
    if args.trace {
        let (layer_samples, per_layer, lines) = layer_phase(&args, args.seconds / 2.0, &mut spans);
        samples.extend(layer_samples);
        for line in lines {
            println!("{line}");
        }
        println!("== benchmark spans (name, count, total s, self s)");
        for (name, (count, total, own)) in spans.summary() {
            println!("{name:<26} {count:>4} {total:>12.4} {own:>12.4}");
        }
        match per_layer {
            Some(per_layer) => {
                print!("{}", table("per-layer", &per_layer));
                reported = per_layer;
            }
            None => reported = Vec::new(),
        }
    }

    let verdict = judge(&samples, w.pinned(args.seed, args.size));
    for problem in &verdict.problems {
        println!("FAILED {problem}");
    }
    let finite = !reported.is_empty() && reported.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("FAILED a metric could not be measured");
    }
    let correct = verdict.failed == 0 && finite;
    println!(
        "{}",
        result_json(correct, verdict.attempted, verdict.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
