//! The one place step and the one route-and-evaluate step every sm-core
//! layout goes through. A [`Build`] times each step into a span of its
//! own, summing repeats (the protection flow's budget rounds), and
//! hands the caller's recorder one span per name. Placement and routing
//! unwind with [`sm_exec::Cancelled`] when the budget's token fires.

use crate::flow::BaselineLayout;
use crate::ppa::{evaluate, PpaReport};
use sm_exec::phase::Recorder;
use sm_exec::Budget;
use sm_layout::{
    Floorplan, PlaceMeter, Placement, PlacementEngine, RouteOptions, Router, RoutingResult,
    Technology,
};
use sm_netlist::Netlist;
use std::sync::Arc;
use std::time::Instant;

/// The span names of one builder: placement, its FM slice, the route of
/// [`Build::route_and_evaluate`] and PPA.
pub(crate) struct Spans {
    pub(crate) place: &'static str,
    pub(crate) place_fm: &'static str,
    pub(crate) route: &'static str,
    pub(crate) ppa: &'static str,
}

/// The [`Spans`] `<prefix>-place`, `<prefix>-place-fm`, `<prefix>-ppa`
/// and the route `<prefix>-route`, or `$route` if given.
macro_rules! spans {
    ($prefix:literal) => {
        crate::layout::spans!($prefix, concat!($prefix, "-route"))
    };
    ($prefix:literal, $route:expr) => {
        &crate::layout::Spans {
            place: concat!($prefix, "-place"),
            place_fm: concat!($prefix, "-place-fm"),
            route: $route,
            ppa: concat!($prefix, "-ppa"),
        }
    };
}
pub(crate) use spans;

/// One layout build: the technology, die and placer its steps share,
/// and each named step's wall-clock so far.
pub(crate) struct Build<'a> {
    pub(crate) tech: Technology,
    pub(crate) floorplan: Floorplan,
    engine: PlacementEngine,
    meter: Arc<PlaceMeter>,
    exec: &'a Budget,
    seed: u64,
    spans: &'static Spans,
    totals: Vec<(&'static str, f64)>,
}

/// The die `utilization` yields for `netlist`.
pub(crate) fn die(netlist: &Netlist, utilization: f64) -> Floorplan {
    Floorplan::for_netlist(netlist, &Technology::nangate45_10lm(), utilization)
}

impl<'a> Build<'a> {
    /// A build on `floorplan`; `seed` seeds the placer and the PPA
    /// activity estimate.
    pub(crate) fn new(
        spans: &'static Spans,
        floorplan: Floorplan,
        seed: u64,
        exec: &'a Budget,
    ) -> Self {
        let meter = PlaceMeter::shared();
        let engine = PlacementEngine::new(seed)
            .with_budget(exec.clone())
            .with_meter(Arc::clone(&meter));
        Build {
            tech: Technology::nangate45_10lm(),
            floorplan,
            engine,
            meter,
            exec,
            seed,
            spans,
            totals: Vec::new(),
        }
    }

    /// The place step.
    pub(crate) fn place(&mut self, netlist: &Netlist) -> Placement {
        let placement = self
            .engine
            .try_place(netlist, &self.floorplan)
            .unwrap_or_else(|| sm_exec::abort_cancelled());
        let (place_ms, fm_ms) = self.meter.drain_ms();
        self.add(self.spans.place, place_ms);
        self.add(self.spans.place_fm, fm_ms);
        placement
    }

    /// Re-legalizes a placement edited after the place step.
    pub(crate) fn legalize(&self, placement: &mut Placement) {
        self.engine.legalize(placement, &self.floorplan);
    }

    /// Routes `netlist` over `placement`, timed under `span`.
    pub(crate) fn route(
        &mut self,
        span: &'static str,
        netlist: &Netlist,
        placement: &Placement,
        opts: &RouteOptions,
    ) -> RoutingResult {
        let cancel = self.exec.cancel_token();
        self.time(span, |b| {
            Router::new(&b.tech).try_route(netlist, placement, &b.floorplan, opts, cancel)
        })
        .unwrap_or_else(|| sm_exec::abort_cancelled())
    }

    /// The route-and-evaluate step.
    pub(crate) fn route_and_evaluate(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        opts: &RouteOptions,
    ) -> (RoutingResult, PpaReport) {
        let routing = self.route(self.spans.route, netlist, placement, opts);
        let ppa = self.time(self.spans.ppa, |b| {
            evaluate(netlist, &routing, &b.floorplan, &b.tech, b.seed)
        });
        (routing, ppa)
    }

    /// Routes and evaluates `placement` and records the build's spans.
    pub(crate) fn layout(
        mut self,
        netlist: &Netlist,
        placement: Placement,
        opts: &RouteOptions,
        rec: &mut Recorder,
    ) -> BaselineLayout {
        let (routing, ppa) = self.route_and_evaluate(netlist, &placement, opts);
        self.record(rec);
        BaselineLayout {
            floorplan: self.floorplan,
            placement,
            routing,
            ppa,
        }
    }

    /// Runs `f`, adding its wall-clock to `span`.
    pub(crate) fn time<T>(&mut self, span: &'static str, f: impl FnOnce(&Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.add(span, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Moves the spans into `rec`, in the order their names were first
    /// timed.
    pub(crate) fn record(&mut self, rec: &mut Recorder) {
        for (name, ms) in self.totals.drain(..) {
            rec.add(name, ms);
        }
    }

    fn add(&mut self, span: &'static str, ms: f64) {
        match self.totals.iter_mut().find(|(name, _)| *name == span) {
            Some((_, total)) => *total += ms,
            None => self.totals.push((span, ms)),
        }
    }
}
