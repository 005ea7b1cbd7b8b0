//! `stream-saver`: AT&T's Stream Saver (§6.3), a transparent proxy that
//! terminates TCP on port 80 and throttles video to 1.5 Mbps.
//!
//! One operation: on a fresh session, `detect` replays a seeded video of
//! 200 KB–1 MB and its bit-inverted control; the same video is then
//! fetched on a port the proxy does not intercept. A round is
//! [`VIDEOS`] videos with sizes stratified over the range.

use liberate::prelude::*;
use liberate_dpi::proxy::ProxyConfig;

use crate::inputs::{Flow, Inputs};
use crate::layers::{device_config, report_packets, Layers, PacketSample, Tally, TRACED_OPS_PER_S};
use crate::{run_rounds, timed_setups, Outcome, Recorder};

/// Videos per round.
const VIDEOS: usize = 10;

/// A port the proxy does not intercept.
const ESCAPE_PORT: u16 = 8080;

fn generate_inputs(seed: u64) -> Vec<Flow> {
    let mut inputs = Inputs::new(seed);
    inputs
        .stratified(VIDEOS, 200_000, 1_000_000)
        .into_iter()
        .map(|size| inputs.http("NBCSports", "nbcsports.com", "video/mp4", size))
        .collect()
}

struct Fetch {
    session: Session,
    detection: DetectionOutcome,
    escape: ReplayOutcome,
}

fn fetch(flow: &Flow, layers: Option<&mut Layers>) -> Fetch {
    let mut session = Session::new(EnvKind::Att, OsKind::Linux, LiberateConfig::default());
    let detection = match layers {
        Some(l) => l.time("detect.ms_p50", || detect(&mut session, &flow.trace)),
        None => detect(&mut session, &flow.trace),
    };
    let escape = session.replay_trace(
        &flow.trace,
        &ReplayOpts {
            server_port: Some(ESCAPE_PORT),
            ..Default::default()
        },
    );
    Fetch {
        session,
        detection,
        escape,
    }
}

fn check(rec: &mut Recorder, flow: &Flow, f: &Fetch) {
    let size = flow.response_bytes();
    let d = &f.detection;
    rec.check(d.differentiated && d.throttling, || {
        format!("{size} B video: throttling not detected")
    });
    // The proxy's token bucket bounds what the throttled original can
    // deliver: its burst plus its rate over the replay's duration.
    let (rate_bps, burst) = ProxyConfig::stream_saver().throttle;
    let bound = burst as f64 + rate_bps as f64 / 8.0 * d.original.duration.as_secs_f64();
    rec.check(d.original.server_payload_bytes as f64 <= bound, || {
        format!(
            "{size} B video: delivered {} B in {:?}, token bucket allows {bound:.0} B",
            d.original.server_payload_bytes, d.original.duration
        )
    });
    for (what, out) in [("control", &d.control), ("escape fetch", &f.escape)] {
        rec.check(out.complete && out.response_matches, || {
            format!("{size} B video: {what} did not deliver every server byte unchanged")
        });
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (videos, setup_s) = timed_setups(|| generate_inputs(seed));
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    run_rounds(seconds, &mut rec, |rec, _| {
        for flow in &videos {
            let (f, ms) = rec.measure(|| fetch(flow, traced.then_some(&mut layers)));
            let s = &f.session;
            rec.ops(
                1,
                ms,
                s.env.clock().as_micros() as f64 / 1e6,
                s.bytes_sent_total + s.bytes_received_total,
            );
            check(rec, flow, &f);
            if traced {
                tally.absorb(f.session.journal());
            }
        }
    });
    if traced {
        tally.report_into(&mut layers, rec.attempted());
        layers.set("traces.gen_ms", crate::stats::median(&setup_s) * 1e3);
        layers.set(TRACED_OPS_PER_S, rec.ops_per_s());
        let samples = videos
            .iter()
            .map(|f| {
                PacketSample::capture(
                    EnvKind::Att,
                    device_config(EnvKind::Att),
                    &f.trace,
                    &Schedule::from_trace(&f.trace),
                )
            })
            .collect();
        report_packets(samples, &mut layers);
    }
    Outcome {
        rec,
        setup_s,
        layers: traced.then_some(layers),
    }
}
