//! `deploy`: one process serves two networks, each through a
//! `DeploymentPool` with one worker per host core on `Engine::Reactor`.
//!
//! - The GFC pool carries many concurrent short page fetches; every flow
//!   is a reactor task.
//! - The T-Mobile pool carries zero-rated video streams, which the pool
//!   runs on its threads path.
//!
//! Waves alternate between the pools. Once per run, midway, T-Mobile
//! re-classes the decoy's class as video: the published technique burns,
//! the burned flows park on the pool's fallback ladder, and the pool
//! re-characterizes once across its workers. The GFC pool gets no rule
//! push: pooled GFC re-characterization is not deterministic. Each pool
//! learns its first technique during set-up. One operation is one user
//! flow; its host time is that of the wave that carried it.

use liberate::prelude::*;
use liberate_dpi::rules::RuleSet;

use crate::inputs::{Flow, Inputs};
use crate::layers::{
    apply_us, device_config, report_packets, Layers, PacketSample, Tally, TRACED_OPS_PER_S,
};
use crate::stats::ns_per_call;
use crate::{host_cores, run_rounds, timed_setups, Outcome, Recorder};

/// Waves per pool per round, each with its own response size.
const WAVES: usize = 4;
/// Flows per GFC wave and per T-Mobile wave: T-Mobile carries a fifth of
/// the flows, so both engines show in the percentiles.
const GFC_FLOWS: usize = 256;
const TMOBILE_FLOWS: usize = 64;

/// Generation of the T-Mobile pool's technique before and after the push.
const FIRST_GENERATION: u64 = 1;

struct Pools {
    gfc: DeploymentPool,
    tmobile: DeploymentPool,
    /// Per-wave flows: one request per pool, response sizes stratified.
    gfc_flows: Vec<Flow>,
    tmobile_flows: Vec<Flow>,
    gen_ms: f64,
}

fn generate_inputs(seed: u64) -> (Vec<Flow>, Vec<Flow>) {
    let mut inputs = Inputs::new(seed);
    let page = inputs.http("economist-page", "economist.com", "text/html", 2_000);
    let video = inputs.http("prime-video", "cloudfront.net", "video/mp4", 300_000);
    let gfc = inputs
        .stratified(WAVES, 1_000, 4_000)
        .into_iter()
        .map(|size| inputs.resized(&page, "text/html", size))
        .collect();
    let tmobile = inputs
        .stratified(WAVES, 250_000, 350_000)
        .into_iter()
        .map(|size| inputs.resized(&video, "video/mp4", size))
        .collect();
    (gfc, tmobile)
}

fn setup(seed: u64) -> Pools {
    let t = std::time::Instant::now();
    let (gfc_flows, tmobile_flows) = generate_inputs(seed);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let workers = host_cores();
    let pool = |kind| {
        SessionPool::new(kind, OsKind::Linux, LiberateConfig::default(), workers)
            .with_engine(Engine::Reactor)
    };
    let mut gfc = DeploymentPool::over(
        pool(EnvKind::Gfc),
        CharacterizeOpts {
            rotate_server_ports: true,
            ..Default::default()
        },
    );
    // Rungs that carry no decoy, so the decoy's re-classing cannot
    // burn them.
    let mut tmobile = DeploymentPool::over(pool(EnvKind::TMobile), CharacterizeOpts::default())
        .with_fallback_ladder(vec![
            Technique::TcpSegmentSplit { segments: 5 },
            Technique::TcpSegmentReorder { segments: 5 },
        ]);
    // First learn: the first wave publishes before it carries its flow.
    for (pool, flow) in [(&mut gfc, &gfc_flows[0]), (&mut tmobile, &tmobile_flows[0])] {
        let learned = pool.run_flows(&flow.trace, 1);
        assert!(
            learned.is_ok_and(|w| w.all_evaded()),
            "set-up: a pool failed to learn its first technique"
        );
    }
    Pools {
        gfc,
        tmobile,
        gfc_flows,
        tmobile_flows,
        gen_ms,
    }
}

/// The scripted rule push: the decoy's class becomes video.
fn decoy_as_video(pool: &mut DeploymentPool) -> Option<RuleSet> {
    let dpi = pool.pool_mut().session_mut(0).env.dpi_mut()?;
    let mut rules = dpi.config.rules.clone();
    for r in &mut rules.rules {
        if r.id == "web" {
            r.class = "video".to_string();
        }
    }
    Some(rules)
}

/// Where the T-Mobile wave stands relative to the rule push.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    BeforePush,
    AdaptWave,
    AfterPush,
}

/// One measured wave; returns its host ms.
///
/// A flow's simulated time and wire bytes are those of its own replay:
/// what its user waits for and pays for. The pool's one re-learn is left
/// out of them, since one cost shared by however many flows a run of
/// fixed length completes would move with host speed.
fn wave(
    rec: &mut Recorder,
    pool: &mut DeploymentPool,
    flow: &Flow,
    flows: usize,
    stage: Stage,
) -> f64 {
    let (result, ms) = rec.measure(|| pool.run_flows(&flow.trace, flows));
    let w = match result {
        Ok(w) => w,
        Err(e) => {
            rec.ops(flows, ms, 0.0, 0);
            rec.fail(flows, format!("{} wave: {e:?}", flow.trace.app));
            return ms;
        }
    };
    let sim_s: f64 = w
        .reports
        .iter()
        .map(|r| r.outcome.duration.as_secs_f64())
        .sum();
    let wire: u64 = w
        .reports
        .iter()
        .map(|r| r.outcome.bytes_sent + r.outcome.server_payload_bytes)
        .sum();
    rec.ops(flows, ms, sim_s, wire);
    let app = &flow.trace.app;
    rec.check(w.reports.len() == flows, || {
        format!("{app}: {} reports for {flows} flows", w.reports.len())
    });
    rec.check(
        w.reports
            .iter()
            .all(|r| r.evaded || r.parked_on_fallback.is_some()),
        || format!("{app}: a flow was neither evaded nor parked"),
    );
    rec.check(w.recharacterized == (stage == Stage::AdaptWave), || {
        format!(
            "{app}: re-characterized {} in a {} wave",
            w.recharacterized,
            stage.name()
        )
    });
    let expected = match stage {
        Stage::AfterPush => FIRST_GENERATION + 1,
        _ => FIRST_GENERATION,
    };
    rec.check(w.reports.iter().all(|r| r.generation == expected), || {
        format!(
            "{app}: a flow in a {} wave did not carry generation {expected}",
            stage.name()
        )
    });
    if stage != Stage::AdaptWave {
        rec.check(
            w.reports.iter().all(|r| r.parked_on_fallback.is_none()),
            || format!("{app}: a flow parked outside the adapt wave"),
        );
    }
    ms
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::BeforePush => "pre-push",
            Stage::AdaptWave => "adapt",
            Stage::AfterPush => "post-push",
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (mut p, setup_s) = timed_setups(|| setup(seed));
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let mut before = Tally::default();
    for pool in [&mut p.gfc, &mut p.tmobile] {
        absorb_pool(&mut before, pool);
    }
    let mut stage = Stage::BeforePush;
    let round = |rec: &mut Recorder,
                 elapsed: f64,
                 p: &mut Pools,
                 layers: &mut Layers,
                 stage: &mut Stage| {
        for i in 0..WAVES {
            let ms = wave(
                rec,
                &mut p.gfc,
                &p.gfc_flows[i],
                GFC_FLOWS,
                Stage::BeforePush,
            );
            layers.sample("deploy.gfc_wave_ms_p50", ms);
            if *stage == Stage::BeforePush && elapsed >= 0.5 && i == 0 {
                if let Some(rules) = decoy_as_video(&mut p.tmobile) {
                    p.tmobile.hot_swap_rules(&rules);
                }
                *stage = Stage::AdaptWave;
            }
            let ms = wave(
                rec,
                &mut p.tmobile,
                &p.tmobile_flows[i],
                TMOBILE_FLOWS,
                *stage,
            );
            if *stage == Stage::AdaptWave {
                layers.set("deploy.adapt_wave_ms", ms);
                *stage = Stage::AfterPush;
            } else {
                layers.sample("deploy.tmobile_wave_ms_p50", ms);
            }
        }
    };
    run_rounds(seconds, &mut rec, |rec, elapsed| {
        round(rec, elapsed, &mut p, &mut layers, &mut stage)
    });
    if stage == Stage::BeforePush {
        // A run too short to start a round past its midpoint still
        // pushes once.
        round(&mut rec, 1.0, &mut p, &mut layers, &mut stage);
    }
    rec.check(p.gfc.characterizations == 1, || {
        format!(
            "gfc: {} characterizations, expected the set-up one",
            p.gfc.characterizations
        )
    });
    rec.check(p.tmobile.characterizations == 2, || {
        format!(
            "tmobile: {} characterizations, expected set-up plus one after the push",
            p.tmobile.characterizations
        )
    });

    if traced {
        let mut tally = Tally::default();
        for pool in [&mut p.gfc, &mut p.tmobile] {
            absorb_pool(&mut tally, pool);
        }
        tally.subtract_counts(&before);
        tally.report_into(&mut layers, rec.attempted());
        layers.set("traces.gen_ms", p.gen_ms);
        layers.set(TRACED_OPS_PER_S, rec.ops_per_s());
        isolated_layers(&mut p, &mut layers);
    }
    Outcome {
        rec,
        setup_s,
        layers: traced.then_some(layers),
    }
}

fn absorb_pool(tally: &mut Tally, pool: &mut DeploymentPool) {
    let sessions = pool.pool_mut();
    tally.absorb(sessions.reactor_telemetry());
    for s in sessions.sessions() {
        tally.absorb(s.journal());
    }
}

/// Layers timed on their own after the measured phase: the published
/// state's read path, technique lowering, a bare engine wave, and the
/// packet-level layers over what each pool's flows put on the wire.
fn isolated_layers(p: &mut Pools, layers: &mut Layers) {
    let published = p.tmobile.published().clone();
    layers.set(
        "deploy.snapshot_ns",
        ns_per_call(20.0, 1_000, || {
            for _ in 0..1_000 {
                std::hint::black_box(published.snapshot());
            }
        }),
    );

    let mut samples = Vec::new();
    for (kind, pool, flow) in [
        (EnvKind::Gfc, &mut p.gfc, &p.gfc_flows[0]),
        (EnvKind::TMobile, &mut p.tmobile, &p.tmobile_flows[0]),
    ] {
        let Some(evasion) = pool.published().snapshot().evasion else {
            continue;
        };
        let technique = &evasion.technique.effective;
        layers.sample(
            "evasion.apply_us",
            apply_us(technique, &flow.trace, &evasion.ctx),
        );
        let Some(schedule) = technique.apply(&Schedule::from_trace(&flow.trace), &evasion.ctx)
        else {
            continue;
        };

        if kind == EnvKind::TMobile {
            // The engine alone: a bare threads-path wave of the same
            // flows, without the pool's judging and bookkeeping.
            let engine = pool.pool_mut();
            for _ in 0..10 {
                let t = std::time::Instant::now();
                engine.run_wave(
                    (0..TMOBILE_FLOWS).collect(),
                    &|s: &mut Session, _: usize| {
                        s.replay_schedule(&flow.trace, &schedule, &ReplayOpts::default())
                            .complete
                    },
                );
                layers.sample("engine.wave_ms_p50", t.elapsed().as_secs_f64() * 1e3);
            }
        }

        samples.push(PacketSample::capture(
            kind,
            device_config(kind),
            &flow.trace,
            &schedule,
        ));
    }
    report_packets(samples, layers);
}
