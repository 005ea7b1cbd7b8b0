//! Per-layer attribution for the traced run.
//!
//! Three sources, none of which adds tracing inside the program:
//!
//! - **Counters and histograms** that `liberate_obs::Metrics` already
//!   keeps in every session, pool worker and reactor journal, summed over
//!   the run by [`Tally`].
//! - **Phase timers** around calls into each layer's public functions
//!   (`detect_rotating`, `characterize`, `SharedRuleCache::verify`, ...),
//!   kept by [`Layers::time`].
//! - **Isolated replays** of the packets a workload sent: captured once
//!   at the client and server NICs, then pushed through
//!   `ParsedPacket::parse`, `Packet::serialize`, `DpiDevice::process` and
//!   `TransparentProxy::process` on their own ([`PacketSample`]).

use std::collections::BTreeMap;
use std::time::Instant;

use liberate::prelude::*;
use liberate_dpi::device::{DpiConfig, DpiDevice};
use liberate_dpi::profiles::{gfc_device, iran_device, testbed_device, tmus_device};
use liberate_dpi::proxy::{ProxyConfig, TransparentProxy};
use liberate_netsim::element::{Effects, PacketBuf, PathElement};
use liberate_obs::{Counter, Hist, Journal, Metrics};
use liberate_packet::flow::Direction;
use liberate_packet::packet::{Packet, ParsedPacket, ParsedTransport};
use liberate_substrate::capture::TapPoint;
use liberate_substrate::time::SimTime;
use liberate_traces::recorded::RecordedTrace;

use crate::stats::{median, ns_per_call};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order
/// (where [`TRACED_OPS_PER_S`] follows them). Counts are per operation
/// unless the name says otherwise. A layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("packet.parse_ns", "ns"),
    ("packet.craft_ns", "ns"),
    ("packet.payload_copies", "count"),
    ("netsim.packets_stepped", "count"),
    ("netsim.packets_injected", "count"),
    ("dpi.device_ns_per_pkt", "ns"),
    ("dpi.matcher_bytes_scanned", "bytes"),
    ("dpi.flows_created", "count"),
    ("dpi.flows_evicted", "count"),
    ("dpi.proxy_ns_per_pkt", "ns"),
    ("traces.gen_ms", "ms"),
    ("obs.events", "count"),
    ("replay.rounds", "count"),
    ("replay.host_us_p50", "us"),
    ("detect.ms_p50", "ms"),
    ("characterize.ms_p50", "ms"),
    ("characterize.blind_rounds", "count"),
    ("cache.verify_ms_p50", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("probe.locate_ms_p50", "ms"),
    ("evaluate.ms_p50", "ms"),
    ("evaluate.techniques_tried", "count"),
    ("evasion.apply_us", "us"),
    ("engine.wave_ms_p50", "ms"),
    ("engine.wave_occupancy", "count"),
    ("reactor.ticks_per_flow", "count"),
    ("reactor.tick_us_p50", "us"),
    ("reactor.ready_depth_p50", "count"),
    ("reactor.timer_fires", "count"),
    ("deploy.gfc_wave_ms_p50", "ms"),
    ("deploy.tmobile_wave_ms_p50", "ms"),
    ("deploy.adapt_wave_ms", "ms"),
    ("deploy.fallback_parks", "count"),
    ("deploy.snapshot_ns", "ns"),
];

/// The traced run's operation rate, reported beside the per-layer
/// metrics so the tracing overhead can be read against an untraced run.
pub const TRACED_OPS_PER_S: &str = "traced.ops_per_s";

/// Per-layer values and the raw samples behind the timed ones.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name) || name == TRACED_OPS_PER_S,
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record one sample of a `*_p50` metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Run `f`, recording its host milliseconds as a sample of `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.sample(name, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Every per-layer metric plus the traced operation rate.
    pub fn report(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out: Vec<(&'static str, f64, &'static str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .copied()
                    .or_else(|| self.samples.get(name).map(|s| median(s)))
                    .unwrap_or(0.0);
                (name, v, unit)
            })
            .collect();
        let rate = self.values.get(TRACED_OPS_PER_S).copied().unwrap_or(0.0);
        out.push((TRACED_OPS_PER_S, rate, "1/s"));
        out
    }
}

/// Counters, histograms and journal lengths summed over many journals.
#[derive(Default)]
pub struct Tally {
    counters: BTreeMap<&'static str, u64>,
    hists: Metrics,
    events: u64,
}

impl Tally {
    /// Add everything `journal` recorded.
    pub fn absorb(&mut self, journal: &Journal) {
        for (c, v) in journal.metrics.snapshot() {
            *self.counters.entry(c.name()).or_default() += v;
        }
        self.hists.merge_hists(&journal.metrics);
        self.events += journal.len() as u64;
    }

    /// Take away the counts and events of an earlier tally of the same
    /// journals (histograms keep their earlier samples).
    pub fn subtract_counts(&mut self, earlier: &Tally) {
        for (name, v) in &earlier.counters {
            if let Some(now) = self.counters.get_mut(name) {
                *now -= v;
            }
        }
        self.events -= earlier.events;
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    pub fn p50(&self, h: Hist) -> f64 {
        let hist = self.hists.hist(h);
        if hist.is_empty() {
            0.0
        } else {
            hist.snapshot().quantile(0.5) as f64
        }
    }

    pub fn sum(&self, h: Hist) -> u64 {
        self.hists.hist(h).sum()
    }

    /// Set the counter-derived metrics every workload shares, per
    /// operation.
    pub fn report_into(&self, layers: &mut Layers, ops: u64) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        layers.set(
            "packet.payload_copies",
            per_op(self.get(Counter::PayloadCopies)),
        );
        layers.set(
            "netsim.packets_stepped",
            per_op(self.get(Counter::PacketsStepped)),
        );
        layers.set(
            "netsim.packets_injected",
            per_op(self.get(Counter::PacketsInjected)),
        );
        layers.set(
            "dpi.matcher_bytes_scanned",
            per_op(self.get(Counter::MatcherBytesScanned)),
        );
        layers.set("dpi.flows_created", per_op(self.get(Counter::FlowsCreated)));
        layers.set("dpi.flows_evicted", per_op(self.get(Counter::FlowsEvicted)));
        layers.set("obs.events", per_op(self.events));
        layers.set("replay.rounds", per_op(self.get(Counter::ReplaysExecuted)));
        layers.set("replay.host_us_p50", self.p50(Hist::ReplayHostMicros));
        layers.set(
            "characterize.blind_rounds",
            per_op(self.sum(Hist::BlindRounds)),
        );
        layers.set("cache.hits", per_op(self.get(Counter::CacheHits)));
        layers.set("cache.misses", per_op(self.get(Counter::CacheMisses)));
        layers.set(
            "evaluate.techniques_tried",
            per_op(self.get(Counter::TechniquesTried)),
        );
        layers.set("engine.wave_occupancy", self.p50(Hist::WaveOccupancy));
        layers.set(
            "deploy.fallback_parks",
            per_op(self.get(Counter::FallbackParks)),
        );
        let admitted = self.get(Counter::ReactorTasksAdmitted);
        if admitted > 0 {
            layers.set(
                "reactor.ticks_per_flow",
                self.get(Counter::ReactorTicks) as f64 / admitted as f64,
            );
            layers.set("reactor.tick_us_p50", self.p50(Hist::ReactorTickMicros));
            layers.set("reactor.ready_depth_p50", self.p50(Hist::ReadyQueueDepth));
            layers.set(
                "reactor.timer_fires",
                per_op(self.get(Counter::ReactorTimerFires)),
            );
        }
    }
}

/// The DPI device of a network's path, as its sessions build it (start
/// of day 0); `None` where the path has no `DpiDevice`.
pub fn device_config(kind: EnvKind) -> Option<DpiConfig> {
    match kind {
        EnvKind::Testbed => Some(testbed_device()),
        EnvKind::TMobile => Some(tmus_device()),
        EnvKind::Gfc => Some(gfc_device(0)),
        EnvKind::Iran => Some(iran_device()),
        EnvKind::Att | EnvKind::Sprint => None,
    }
}

/// Packets one replay put on the wire, as the client and server NICs
/// sent them, in send order.
pub struct PacketSample {
    packets: Vec<(SimTime, Direction, PacketBuf)>,
    /// The DPI device of the replay's network; `None` where the path has
    /// no `DpiDevice`.
    device: Option<DpiConfig>,
}

impl PacketSample {
    /// Replay `schedule` on a fresh session of `kind` with capture widened
    /// to both senders' NICs, and keep what they sent. The session is used
    /// for nothing else: wider capture changes which in-path mutations
    /// must copy.
    pub fn capture(
        kind: EnvKind,
        device: Option<DpiConfig>,
        trace: &RecordedTrace,
        schedule: &Schedule,
    ) -> PacketSample {
        let mut session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
        session.env.set_capture_points(&[
            TapPoint::ClientEgress,
            TapPoint::ServerEgress,
            TapPoint::ServerIngress,
        ]);
        session.replay_schedule(trace, schedule, &ReplayOpts::default());
        let packets = session
            .env
            .capture()
            .all()
            .iter()
            .filter_map(|r| {
                let dir = match r.point {
                    TapPoint::ClientEgress => Direction::ClientToServer,
                    TapPoint::ServerEgress => Direction::ServerToClient,
                    _ => return None,
                };
                Some((r.at, dir, r.wire.clone()))
            })
            .collect();
        PacketSample { packets, device }
    }

    /// `(parse ns, craft ns)` per packet.
    fn packet_costs(&self) -> (f64, f64) {
        let parse = ns_per_call(20.0, self.packets.len(), || {
            for (_, _, wire) in &self.packets {
                std::hint::black_box(ParsedPacket::parse(std::hint::black_box(wire)));
            }
        });
        let crafted: Vec<Packet> = self
            .packets
            .iter()
            .filter_map(|(_, _, wire)| rebuild(&ParsedPacket::parse(wire)?))
            .collect();
        let craft = ns_per_call(20.0, crafted.len(), || {
            for p in &crafted {
                std::hint::black_box(std::hint::black_box(p).serialize());
            }
        });
        (parse, craft)
    }

    /// Host ns per packet through the network's `DpiDevice`, reset
    /// before each pass.
    fn device_ns(&self, config: DpiConfig) -> f64 {
        let mut device = DpiDevice::new(config);
        ns_per_call(20.0, self.packets.len(), || {
            device.reset();
            self.feed(&mut device);
        })
    }

    /// Host ns per packet through a fresh Stream Saver `TransparentProxy`.
    fn proxy_ns(&self) -> f64 {
        ns_per_call(20.0, self.packets.len(), || {
            let mut proxy = TransparentProxy::new(ProxyConfig::stream_saver());
            self.feed(&mut proxy);
        })
    }

    fn feed(&self, element: &mut dyn PathElement) {
        for (at, dir, wire) in &self.packets {
            let mut effects = Effects::default();
            std::hint::black_box(element.process(*at, *dir, wire.clone(), &mut effects));
            std::hint::black_box(effects);
        }
    }
}

/// Set the packet and DPI metrics from per-flow samples: per-packet
/// costs, each a mean over the samples weighted by their packet counts
/// (the device cost over the samples whose network has a `DpiDevice`).
pub fn report_packets(samples: Vec<PacketSample>, layers: &mut Layers) {
    let (mut parse, mut craft, mut proxy, mut packets) = (0.0, 0.0, 0.0, 0.0);
    let (mut device, mut device_packets) = (0.0, 0.0);
    for s in samples.into_iter().filter(|s| !s.packets.is_empty()) {
        let n = s.packets.len() as f64;
        let (p, c) = s.packet_costs();
        parse += p * n;
        craft += c * n;
        proxy += s.proxy_ns() * n;
        packets += n;
        if let Some(config) = s.device.clone() {
            device += s.device_ns(config) * n;
            device_packets += n;
        }
    }
    let mean = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
    layers.set("packet.parse_ns", mean(parse, packets));
    layers.set("packet.craft_ns", mean(craft, packets));
    layers.set("dpi.proxy_ns_per_pkt", mean(proxy, packets));
    layers.set("dpi.device_ns_per_pkt", mean(device, device_packets));
}

/// A craftable copy of a parsed TCP or UDP packet.
fn rebuild(p: &ParsedPacket) -> Option<Packet> {
    let payload = p.payload.copy_to_vec();
    match &p.transport {
        ParsedTransport::Tcp(t) => Some(
            Packet::tcp(
                p.ip.src, p.ip.dst, t.src_port, t.dst_port, t.seq, t.ack, payload,
            )
            .with_flags(t.flags),
        ),
        ParsedTransport::Udp(u) => Some(Packet::udp(
            p.ip.src, p.ip.dst, u.src_port, u.dst_port, payload,
        )),
        ParsedTransport::Other(_) => None,
    }
}

/// Host microseconds per `Technique::apply` of `technique` on `trace`.
pub fn apply_us(technique: &Technique, trace: &RecordedTrace, ctx: &EvasionContext) -> f64 {
    let plain = Schedule::from_trace(trace);
    ns_per_call(10.0, 1, || {
        std::hint::black_box(technique.apply(&plain, ctx));
    }) / 1e3
}
