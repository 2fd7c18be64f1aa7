//! # grid-bench — shared helpers for the Criterion benchmark harness
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `paper_tables` — regenerates Table 2 and Table 3 (Experiments 1–2),
//! * `paper_figures` — regenerates the Experiment 3/4 figures (Fig. 3–9),
//! * `scalability` — regenerates the Experiment 5 figures (Fig. 10–11),
//! * `ablations` — design-choice ablations called out in DESIGN.md
//!   (LRMS policy, directory implementation, charging policy, baseline
//!   superschedulers),
//! * `micro` — microbenchmarks of the substrates (event queue, LRMS,
//!   directory, workload generator).
//!
//! Benchmarks use the reduced [`bench_options`] workload so a full
//! `cargo bench` pass stays in the minutes range; the experiment binaries in
//! `grid-experiments` regenerate the full-scale numbers.

use grid_des::{BinaryHeapEventQueue, EntityId, Event, EventKind, EventQueue, SimTime};
use grid_directory::{AnyDirectory, DirectoryBackend, FederationDirectory, Quote};
use grid_experiments::workloads::WorkloadOptions;

/// Workload options used by the benchmark harness: a quarter of the paper's
/// job counts over half a simulated day (same as `WorkloadOptions::quick`).
#[must_use]
pub fn bench_options() -> WorkloadOptions {
    WorkloadOptions::quick()
}

/// The directory population both `bench_perf`'s tracked `directory` section
/// and the `micro` bench group measure: `n` distinct-priced, distinct-speed
/// quotes on a fixed seed.  Shared so the per-commit smoke view and the
/// tracked baseline can never drift onto different workloads.
#[must_use]
pub fn populated_directory(backend: DirectoryBackend, n: usize) -> AnyDirectory {
    let mut dir = backend.build(n, 0xD1CE);
    for gfa in 0..n {
        let _ = dir.subscribe(Quote {
            gfa,
            processors: 128,
            mips: 400.0 + 9.0 * ((gfa * 13) % n) as f64,
            bandwidth: 1.0 + (gfa % 4) as f64,
            price: 1.0 + 0.07 * ((gfa * 7) % n) as f64,
        });
    }
    dir
}

/// The two future-event-list layouts behind one interface, so the
/// event-queue benches drive both through the same schedule.
pub trait FutureEventList<M> {
    /// Schedules an event at an absolute time.
    fn push(&mut self, event: Event<M>);
    /// Schedules an event `delay` seconds after the caller's clock, the
    /// engine's `send`/`timer` entry point.
    fn push_relative(&mut self, event: Event<M>, delay: f64);
    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Event<M>>;
}

impl<M> FutureEventList<M> for EventQueue<M> {
    fn push(&mut self, event: Event<M>) {
        EventQueue::push(self, event);
    }
    fn push_relative(&mut self, event: Event<M>, delay: f64) {
        EventQueue::push_relative(self, event, delay);
    }
    fn pop(&mut self) -> Option<Event<M>> {
        EventQueue::pop(self)
    }
}

impl<M> FutureEventList<M> for BinaryHeapEventQueue<M> {
    fn push(&mut self, event: Event<M>) {
        BinaryHeapEventQueue::push(self, event);
    }
    /// The baseline has no lane: every event is a heap push.
    fn push_relative(&mut self, event: Event<M>, _delay: f64) {
        BinaryHeapEventQueue::push(self, event);
    }
    fn pop(&mut self) -> Option<Event<M>> {
        BinaryHeapEventQueue::pop(self)
    }
}

/// Follow-up events each arrival spawns in [`engine_pattern`]: a full
/// `oft-n200-ideal` fedbench run at seed 2005 delivers 2,294,750 events
/// for 16,650 job arrivals, 137.8 per arrival.  All but one are sends at
/// [`LATENCY`] (2,261,450 of the run's events); the last is the job's
/// finish timer at an absolute time.
pub const FOLLOW_UPS: usize = 137;

/// The federation's one-way message latency in seconds
/// (`FederationConfig::latency`).
const LATENCY: f64 = 0.05;

/// Seconds from a chain's last send to its finish timer in
/// [`engine_pattern`].  With one arrival per second this holds the
/// in-flight depth where the measured run holds it: a mean of 1,581 events
/// scheduled during the run pending at each pop, 1,576 of them heap timers
/// and 5.6 in-flight sends.
const FINISH_AFTER: f64 = 2_340.0;

/// Arrivals that give [`engine_pattern`] the in-flight depth of the
/// measured run (shorter bursts spend more of their events ramping up and
/// down); `ARRIVALS × (1 + FOLLOW_UPS)` is 496,800 events.
pub const ARRIVALS: usize = 3_600;

/// Drives `queue` through the simulation engine's access pattern and
/// returns the number of events delivered, `arrivals × (1 + FOLLOW_UPS)`.
///
/// A pre-start burst schedules `arrivals` events, one per second over
/// `[0, arrivals)` — in the federation, every job arrival is scheduled
/// before the clock starts.  Then a hold loop pops the earliest event and,
/// until its chain of [`FOLLOW_UPS`] is spent, schedules the next one: a
/// send [`LATENCY`] later through the relative entry point (a negotiation,
/// a reply…), and after the last send a finish timer at an absolute time.
/// The numbers come from the measured `oft-n200-ideal` run above, so the
/// burst accounts for under 1% of the pops and 98.6% of the events are
/// constant-latency sends, as in a run, and at [`ARRIVALS`] the in-flight
/// depth averages about 1,580.  Pushing everything and then popping
/// everything would measure only the burst's ordering, not what a run pays
/// per event.  The chain position rides in the event's `src` field.
pub fn engine_pattern<M>(
    queue: &mut impl FutureEventList<M>,
    arrivals: usize,
    payload: impl Fn(usize) -> M,
) -> usize {
    for i in 0..arrivals {
        queue.push(Event {
            time: SimTime::new(((i * 7919) % arrivals) as f64),
            seq: 0,
            src: EntityId::new(FOLLOW_UPS),
            dst: EntityId::new(0),
            kind: EventKind::Message,
            payload: payload(i),
        });
    }
    let mut delivered = 0;
    while let Some(event) = queue.pop() {
        delivered += 1;
        let hops = event.src.index();
        if hops > 1 {
            queue.push_relative(
                Event {
                    time: event.time.after(LATENCY),
                    src: EntityId::new(hops - 1),
                    ..event
                },
                LATENCY,
            );
        } else if hops == 1 {
            queue.push(Event {
                time: event.time.after(FINISH_AFTER),
                src: EntityId::new(0),
                ..event
            });
        }
    }
    delivered
}

/// An even smaller configuration for the per-iteration benches that run many
/// times inside Criterion's measurement loop.
#[must_use]
pub fn tiny_options() -> WorkloadOptions {
    WorkloadOptions {
        duration: 21_600.0,
        job_scale: 0.1,
        ..WorkloadOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_are_reduced() {
        assert!(bench_options().job_scale < 1.0);
        assert!(tiny_options().job_scale < bench_options().job_scale);
        assert!(tiny_options().duration < bench_options().duration);
    }

    #[test]
    fn engine_pattern_delivers_every_chain_on_both_layouts() {
        let mut dary = EventQueue::new();
        let mut binary = BinaryHeapEventQueue::new();
        let delivered = engine_pattern(&mut dary, 50, |i| i);
        assert_eq!(delivered, 50 * (1 + FOLLOW_UPS));
        assert_eq!(engine_pattern(&mut binary, 50, |i| i), delivered);
        assert!(dary.is_empty() && binary.is_empty());
    }

    /// Counts, at every pop, the follow-ups pending: the events scheduled
    /// after the burst (an arrival is a chain still at `FOLLOW_UPS` hops).
    struct DepthProbe {
        queue: EventQueue<()>,
        in_flight: usize,
        pops: usize,
        depth_sum: usize,
    }

    impl FutureEventList<()> for DepthProbe {
        fn push(&mut self, event: Event<()>) {
            if event.src.index() < FOLLOW_UPS {
                self.in_flight += 1;
            }
            self.queue.push(event);
        }
        fn push_relative(&mut self, event: Event<()>, delay: f64) {
            self.in_flight += 1;
            self.queue.push_relative(event, delay);
        }
        fn pop(&mut self) -> Option<Event<()>> {
            let event = self.queue.pop()?;
            if event.src.index() < FOLLOW_UPS {
                self.in_flight -= 1;
            }
            self.pops += 1;
            self.depth_sum += self.in_flight;
            Some(event)
        }
    }

    #[test]
    fn engine_pattern_holds_the_measured_in_flight_depth() {
        let mut probe = DepthProbe {
            queue: EventQueue::new(),
            in_flight: 0,
            pops: 0,
            depth_sum: 0,
        };
        let delivered = engine_pattern(&mut probe, ARRIVALS, |_| ());
        assert_eq!(delivered, probe.pops);
        // The fedbench run the constants come from: mean 1,581, and 98.5%
        // of its events laned.
        let mean_depth = probe.depth_sum as f64 / probe.pops as f64;
        assert!(
            (1_400.0..1_800.0).contains(&mean_depth),
            "mean in-flight depth {mean_depth}"
        );
        let laned = probe.queue.laned_total() as f64 / delivered as f64;
        assert!((0.98..0.99).contains(&laned), "laned share {laned}");
    }

    #[test]
    fn bench_directory_population_is_full_and_distinct() {
        for backend in DirectoryBackend::ALL {
            let dir = populated_directory(backend, 50);
            assert_eq!(dir.len(), 50);
            // Distinct prices and speeds, so every rank is unambiguous.
            let cheapest = dir.kth_cheapest(1).unwrap();
            let second = dir.kth_cheapest(2).unwrap();
            assert!(cheapest.price < second.price);
        }
    }
}
