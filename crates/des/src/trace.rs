//! The observability hook interfaces: causal span records and the handler
//! profiler.
//!
//! Models describe what happened as causal [`SpanRecord`]s (a named
//! interval on one entity's track) and [`FlowRecord`]s (directed
//! cross-entity arrows, e.g. a dispatch linked by its envelope sequence
//! number).  The engine itself emits neither; the span-collecting sink
//! lives in `grid-obs`.
//!
//! A span's free-form text is a [`SpanDetail`]: a few integers captured
//! while the run goes plus the model's function that renders them.  Nothing
//! is formatted or allocated when a span is recorded; the text exists only
//! once an exporter asks for it, so `grid-des` stays model-agnostic and an
//! armed trace costs a copy per span, not a `String`.
//!
//! [`EventProfiler`] is the self-profiling hook: the engine brackets every
//! handler invocation with [`enter`](EventProfiler::enter) /
//! [`exit`](EventProfiler::exit) when a profiler is installed.  The trait
//! deliberately carries no clock — `grid-des` itself stays free of
//! wall-clock reads; a profiler implementation takes its own timestamps and
//! keeps them strictly outside sim state.

use std::fmt;

use crate::time::SimTime;

/// The conceptual track a span or flow belongs to, rendered as one timeline
/// row per entity in trace viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTrack {
    /// Whole job lifecycles (submit → conclusion).
    Lifecycle,
    /// Negotiation round-trips between GFAs.
    Negotiation,
    /// Directory probes and lookups.
    Directory,
    /// Job execution intervals on the executing cluster.
    Execution,
}

impl SpanTrack {
    /// Every track, in `tid` order.
    pub const ALL: [SpanTrack; 4] = [
        SpanTrack::Lifecycle,
        SpanTrack::Negotiation,
        SpanTrack::Directory,
        SpanTrack::Execution,
    ];

    /// Stable per-entity track index (Chrome Trace `tid`).
    #[must_use]
    pub fn tid(self) -> u8 {
        self as u8
    }

    /// Human-readable track name for trace-viewer metadata.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanTrack::Lifecycle => "lifecycle",
            SpanTrack::Negotiation => "negotiation",
            SpanTrack::Directory => "directory",
            SpanTrack::Execution => "execution",
        }
    }
}

/// A span's argument text, held as integers until it is rendered.
///
/// `render` appends the text for `args` to a buffer; the model that emits
/// the span supplies it, so the engine needs to know nothing about jobs or
/// outcomes.  The value is `Copy` and owns no heap memory.
#[derive(Clone, Copy)]
pub struct SpanDetail {
    /// The captured numbers, interpreted only by `render`.
    pub args: [u64; 3],
    /// Appends the text for `args` to the buffer.
    pub render: fn(&[u64; 3], &mut String),
}

impl SpanDetail {
    /// Appends the rendered text to `out`.
    pub fn render_into(&self, out: &mut String) {
        (self.render)(&self.args, out);
    }
}

impl fmt::Debug for SpanDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.render_into(&mut text);
        f.debug_tuple("SpanDetail").field(&text).finish()
    }
}

/// A completed causal span: a named interval on one entity's track.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Owning entity index (Chrome Trace `pid`).
    pub gfa: usize,
    /// Track the span renders on.
    pub track: SpanTrack,
    /// Static span name (e.g. `"job"`, `"negotiation"`).
    pub name: &'static str,
    /// Span start, in simulated time.
    pub start: SimTime,
    /// Span end, in simulated time (`end >= start`).
    pub end: SimTime,
    /// Argument text (job id, outcome, …), rendered only at export.
    pub detail: Option<SpanDetail>,
}

/// One endpoint of a directed cross-entity flow arrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Flow identity; both endpoints carry the same id.  Models derive it
    /// from the envelope sequence number when one exists, so traced flows
    /// stay linked across entities exactly as the wire protocol linked
    /// them.
    pub id: u64,
    /// Entity this endpoint sits on.
    pub gfa: usize,
    /// Track this endpoint renders on.
    pub track: SpanTrack,
    /// Endpoint time, in simulated time.
    pub time: SimTime,
    /// `true` for the producing endpoint, `false` for the consuming one.
    pub start: bool,
}

/// Brackets every delivered-event handler invocation when installed via
/// `Simulation::set_profiler`.  Implementations own their timing source and
/// aggregation; the engine only guarantees `enter` and `exit` are called in
/// strict pairs around `Entity::on_event`.
pub trait EventProfiler<M> {
    /// Called immediately before the handler runs, with the event payload
    /// (for per-event-type classification).
    fn enter(&mut self, payload: &M);
    /// Called immediately after the handler returns.
    fn exit(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(args: &[u64; 3], out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{}:{}", args[0], args[1]);
    }

    #[test]
    fn detail_renders_only_on_request_and_appends() {
        let detail = SpanDetail { args: [7, 9, 0], render: pair };
        let mut out = String::from("x ");
        detail.render_into(&mut out);
        assert_eq!(out, "x 7:9");
        assert_eq!(format!("{detail:?}"), "SpanDetail(\"7:9\")");
        assert_eq!(std::mem::size_of::<Option<SpanDetail>>(), 32);
    }

    #[test]
    fn tracks_map_to_stable_tids_and_labels() {
        for (i, track) in SpanTrack::ALL.iter().enumerate() {
            assert_eq!(usize::from(track.tid()), i);
        }
        assert_eq!(SpanTrack::Execution.tid(), 3);
        assert_eq!(SpanTrack::Directory.label(), "directory");
    }
}
