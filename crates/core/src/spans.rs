//! The argument texts of the federation's trace spans.
//!
//! Each constructor captures a span's numbers in a
//! [`SpanDetail`](grid_des::SpanDetail) and names the function that renders
//! them, so an armed run formats nothing: the text is written only when the
//! collector exports.  The rendered bytes are part of the trace artifact,
//! which the golden-trace test pins.

use std::fmt::Write as _;

use grid_des::SpanDetail;
use grid_workload::JobId;

fn detail(args: [u64; 3], render: fn(&[u64; 3], &mut String)) -> Option<SpanDetail> {
    Some(SpanDetail { args, render })
}

/// `[origin, seq, _]` of a job.
fn job_args(job: JobId, third: usize) -> [u64; 3] {
    [job.origin as u64, job.seq as u64, third as u64]
}

/// Writes a job id exactly as `JobId`'s `Display` does.
fn write_job(args: &[u64; 3], out: &mut String) {
    let _ = write!(out, "j{}.{}", args[0], args[1]);
}

/// A directory probe of rank `rank`: `rank 3`, or `rank 3 (faulted)` when
/// the lookup faulted.
pub(crate) fn probe(rank: usize, faulted: bool) -> Option<SpanDetail> {
    let args = [rank as u64, 0, 0];
    if faulted {
        detail(args, |a, out| {
            let _ = write!(out, "rank {} (faulted)", a[0]);
        })
    } else {
        detail(args, |a, out| {
            let _ = write!(out, "rank {}", a[0]);
        })
    }
}

/// A job's negotiation with its own GFA: `j0.4 self`.
pub(crate) fn self_negotiation(job: JobId) -> Option<SpanDetail> {
    detail(job_args(job, 0), |a, out| {
        write_job(a, out);
        out.push_str(" self");
    })
}

/// A remote negotiation round trip: `j0.4 gfa-7 accepted` or `… refused`.
pub(crate) fn negotiation(job: JobId, candidate: usize, accepted: bool) -> Option<SpanDetail> {
    let args = job_args(job, candidate);
    if accepted {
        detail(args, |a, out| {
            write_job(a, out);
            let _ = write!(out, " gfa-{} accepted", a[2]);
        })
    } else {
        detail(args, |a, out| {
            write_job(a, out);
            let _ = write!(out, " gfa-{} refused", a[2]);
        })
    }
}

/// An execution interval: `j0.4 origin gfa-0`.
pub(crate) fn execution(job: JobId, origin: usize) -> Option<SpanDetail> {
    detail(job_args(job, origin), |a, out| {
        write_job(a, out);
        let _ = write!(out, " origin gfa-{}", a[2]);
    })
}

/// A job's whole lifecycle: `j0.4 completed` or `j0.4 rejected`.
pub(crate) fn lifecycle(job: JobId, completed: bool) -> Option<SpanDetail> {
    let args = job_args(job, 0);
    if completed {
        detail(args, |a, out| {
            write_job(a, out);
            out.push_str(" completed");
        })
    } else {
        detail(args, |a, out| {
            write_job(a, out);
            out.push_str(" rejected");
        })
    }
}

