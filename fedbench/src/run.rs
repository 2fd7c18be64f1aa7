//! One whole-federation run through the public API
//! (`replicated_workloads` → `FederationBuilder::run` → `FederationReport`),
//! and the checks every run's output must pass.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use grid_federation_core::{FederationBuilder, FederationReport, ProfileTable, SpanCollector};

use crate::measure::{timed, Spans};
use crate::workloads::{Size, Workload};

/// Which observation sinks a run arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No sinks: what the end-to-end throughput is measured on.
    Untraced,
    /// `FederationBuilder::profiler` only: per-handler wall time.
    Profiled,
    /// `FederationBuilder::tracer` and `::profiler` both armed, as a
    /// `--trace-out` user runs it.
    Observed,
}

impl Phase {
    /// The name used on the command line and in sample lines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Untraced => "untraced",
            Phase::Profiled => "profiled",
            Phase::Observed => "observed",
        }
    }

    /// Parses [`Phase::label`] back.
    #[must_use]
    pub fn parse(s: &str) -> Option<Phase> {
        [Phase::Untraced, Phase::Profiled, Phase::Observed]
            .into_iter()
            .find(|p| p.label() == s)
    }
}

/// What one run measured, and whether its own output checks passed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sinks the run armed.
    pub phase: Phase,
    /// Host seconds of generating the workload.
    pub setup_s: f64,
    /// Host seconds of `FederationBuilder::run`.
    pub run_s: f64,
    /// Jobs in the generated workload.
    pub jobs: usize,
    /// The run's `RunDigest::full` (0 when the run never finished).
    pub digest: u64,
    /// Why the run failed its checks, if it did.
    pub problem: Option<String>,
}

impl Sample {
    /// A run that produced no usable output.
    #[must_use]
    pub fn failed(phase: Phase, problem: String) -> Sample {
        Sample {
            phase,
            setup_s: f64::NAN,
            run_s: f64::NAN,
            jobs: 0,
            digest: 0,
            problem: Some(problem),
        }
    }

    /// One line of the parent/child protocol: fields separated by spaces,
    /// the problem (which may contain spaces) last, `-` when there is none.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "sample {} {} {} {} {} {}",
            self.phase.label(),
            self.setup_s,
            self.run_s,
            self.jobs,
            self.digest,
            self.problem.as_deref().unwrap_or("-").replace('\n', " ")
        )
    }

    /// Parses [`Sample::to_line`]; `None` for any other line.
    #[must_use]
    pub fn parse(line: &str) -> Option<Sample> {
        let mut fields = line.strip_prefix("sample ")?.splitn(6, ' ');
        let phase = Phase::parse(fields.next()?)?;
        let setup_s = fields.next()?.parse().ok()?;
        let run_s = fields.next()?.parse().ok()?;
        let jobs = fields.next()?.parse().ok()?;
        let digest = fields.next()?.parse().ok()?;
        let problem = match fields.next()? {
            "-" => None,
            p => Some(p.to_string()),
        };
        Some(Sample {
            phase,
            setup_s,
            run_s,
            jobs,
            digest,
            problem,
        })
    }
}

/// The artefacts of a finished run that the per-layer rows are read from.
#[derive(Debug)]
pub struct Finished {
    /// The run's report.
    pub report: FederationReport,
    /// Per-handler timings, when the profiler was armed.
    pub profile: Option<ProfileTable>,
    /// Spans the tracer buffered, when it was armed.
    pub trace_spans: usize,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Generates `workload` at `seed` and runs it once with `phase`'s sinks,
/// recording a span around each of the two calls.  A panic in either call
/// is caught and reported as the sample's problem.
pub fn run_once(
    workload: &Workload,
    seed: u64,
    size: Size,
    phase: Phase,
    spans: &mut Spans,
) -> (Sample, Option<Finished>) {
    let options = workload.options(seed, size);
    let generated = spans.span("workload.generate", |_| {
        catch_unwind(AssertUnwindSafe(|| {
            timed(|| workload.generate(&options, size))
        }))
    });
    let (setup_s, setup) = match generated {
        Ok(done) => done,
        Err(payload) => {
            return (
                Sample::failed(
                    phase,
                    format!("set-up panicked: {}", panic_message(&*payload)),
                ),
                None,
            )
        }
    };
    let jobs = setup.total_jobs();

    let profile = Rc::new(RefCell::new(ProfileTable::new()));
    let tracer = Rc::new(RefCell::new(SpanCollector::new()));
    let mut builder = FederationBuilder::new(setup.resources)
        .workloads(setup.workloads)
        .config(workload.config(&options));
    if phase != Phase::Untraced {
        builder = builder.profiler(Rc::clone(&profile));
    }
    if phase == Phase::Observed {
        builder = builder.tracer(Rc::clone(&tracer));
    }
    let span_name = match phase {
        Phase::Untraced => "federation.run.untraced",
        Phase::Profiled => "federation.run.profiled",
        Phase::Observed => "federation.run.observed",
    };
    let ran = spans.span(span_name, |_| {
        catch_unwind(AssertUnwindSafe(|| timed(|| builder.run())))
    });
    let (run_s, report) = match ran {
        Ok(done) => done,
        Err(payload) => {
            let problem = format!("run panicked: {}", panic_message(&*payload));
            return (
                Sample {
                    setup_s,
                    jobs,
                    ..Sample::failed(phase, problem)
                },
                None,
            );
        }
    };

    let problem = if report.jobs.len() != jobs {
        Some(format!(
            "report holds {} jobs, the workload {jobs}",
            report.jobs.len()
        ))
    } else if !report.bank.is_balanced() {
        Some("the GridBank does not balance".to_string())
    } else {
        None
    };
    let sample = Sample {
        phase,
        setup_s,
        run_s,
        jobs,
        digest: report.digest.full,
        problem,
    };
    let finished = Finished {
        report,
        profile: (phase != Phase::Untraced).then(|| profile.borrow().clone()),
        trace_spans: tracer.borrow().len(),
    };
    (sample, Some(finished))
}

/// Failure count over a set of runs of one workload at one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Runs made.
    pub attempted: usize,
    /// Runs that failed a check.
    pub failed: usize,
    /// One line per failed run.
    pub problems: Vec<String>,
}

/// Judges every run: it must pass its own checks and reproduce the pinned
/// digest, or, with none pinned, the first untraced run's digest, so that
/// repeated runs agree and the profiled and observed runs equal the
/// untraced one.
#[must_use]
pub fn judge(samples: &[Sample], pinned: Option<u64>) -> Verdict {
    let reference = pinned.or_else(|| {
        samples
            .iter()
            .find(|s| s.phase == Phase::Untraced && s.problem.is_none())
            .map(|s| s.digest)
    });
    let mut problems = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let problem = match (&s.problem, reference) {
            (Some(p), _) => Some(p.clone()),
            (None, Some(want)) if s.digest != want => Some(format!(
                "digest {} differs from the expected {want}",
                s.digest
            )),
            (None, None) => Some("no untraced run to compare digests against".to_string()),
            (None, Some(_)) => None,
        };
        if let Some(p) = problem {
            problems.push(format!("run {i} ({}): {p}", s.phase.label()));
        }
    }
    Verdict {
        attempted: samples.len(),
        failed: problems.len(),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SEED, WORKLOADS};

    fn tiny(phase: Phase) -> Sample {
        let (sample, finished) = run_once(
            &WORKLOADS[0],
            DEFAULT_SEED,
            Size::Tiny,
            phase,
            &mut Spans::default(),
        );
        assert!(finished.is_some(), "{sample:?}");
        sample
    }

    #[test]
    fn sample_lines_round_trip() {
        let sample = tiny(Phase::Untraced);
        assert_eq!(Sample::parse(&sample.to_line()), Some(sample));
        let failed = Sample::failed(Phase::Observed, "run panicked: at a b c".to_string());
        let parsed = Sample::parse(&failed.to_line()).expect("parses");
        assert_eq!(parsed.problem, failed.problem);
    }

    #[test]
    fn sinks_leave_the_digest_unchanged() {
        let samples: Vec<Sample> = [
            Phase::Untraced,
            Phase::Profiled,
            Phase::Observed,
            Phase::Untraced,
        ]
        .map(tiny)
        .to_vec();
        let verdict = judge(&samples, None);
        assert_eq!(
            (verdict.attempted, verdict.failed),
            (4, 0),
            "{:?}",
            verdict.problems
        );
    }

    #[test]
    fn a_wrong_pinned_digest_counts_every_run_as_failed() {
        let samples = vec![tiny(Phase::Untraced), tiny(Phase::Observed)];
        let right = judge(&samples, Some(samples[0].digest));
        assert_eq!(right.failed, 0);
        let wrong = judge(&samples, Some(samples[0].digest ^ 1));
        assert_eq!((wrong.attempted, wrong.failed), (2, 2));
    }

    #[test]
    fn a_failed_run_is_counted_and_the_rest_still_judged() {
        let samples = vec![
            tiny(Phase::Untraced),
            Sample::failed(Phase::Observed, "child exited with status 101".to_string()),
            tiny(Phase::Profiled),
        ];
        let verdict = judge(&samples, None);
        assert_eq!((verdict.attempted, verdict.failed), (3, 1));
    }
}
