//! `learn`: a new user on one of the five packet-level §6 networks hands
//! its first flow to a fresh single-threaded `LiberateProxy`.
//!
//! A cycle visits every network once. Each network has one
//! `SharedRuleCache`, empty at the start of the cycle: the network's
//! first user learns the rules cold (detect → characterize → localize →
//! evaluate) and publishes them; the next users verify the cached rules
//! instead (§4.2). A round is [`VARIANTS`] cycles, each over its own
//! seeded traces, so the per-operation means hardly depend on the seed.
//!
//! The traced run performs the same operation through the public phase
//! functions, in the order `LiberateProxy::run_flow` calls them, and
//! times each phase.

use liberate::cache::{CachedRules, CachedSignal};
use liberate::detect::{detect_rotating, read_billed_counter, was_classified};
use liberate::prelude::*;
use liberate::probe::locate_middlebox_rotating;
use liberate_obs::Phase;
use liberate_traces::generator::{generate, WorkloadSpec};

use crate::inputs::{Flow, Inputs, LEARN_NETWORKS};
use crate::layers::{
    apply_us, device_config, report_packets, Layers, PacketSample, Tally, TRACED_OPS_PER_S,
};
use crate::{run_rounds, timed_setups, Outcome, Recorder};

/// Users per network per cycle: one cold learn, the rest warm joins.
const USERS_PER_NETWORK: usize = 3;

/// Cycles per round, each with its own traces.
const VARIANTS: usize = 8;

fn copts(kind: EnvKind) -> CharacterizeOpts {
    CharacterizeOpts {
        // The GFC model penalizes a server:port after classified flows.
        rotate_server_ports: kind == EnvKind::Gfc,
        ..Default::default()
    }
}

/// `VARIANTS` × one flow per network, each network's sizes stratified
/// across the variants.
fn generate_inputs(seed: u64) -> Vec<Vec<Flow>> {
    let mut inputs = Inputs::new(seed);
    let sizes: Vec<Vec<usize>> = LEARN_NETWORKS
        .iter()
        .map(|n| inputs.stratified(VARIANTS, n.sizes.0, n.sizes.1))
        .collect();
    (0..VARIANTS)
        .map(|v| {
            LEARN_NETWORKS
                .iter()
                .zip(&sizes)
                .map(|(n, s)| {
                    let app = format!("learn-{}", n.kind.name());
                    inputs.http(&app, n.keyword, n.content_type, s[v])
                })
                .collect()
        })
        .collect()
}

/// What one user's first flow produced.
struct Joined {
    session: Session,
    result: Result<ReplayOutcome>,
    technique: Option<TechniqueResult>,
    cache_hit: bool,
    /// The deployed evasion, when the traced path assembled one.
    evasion: Option<ActiveEvasion>,
}

/// The operation as users run it: `LiberateProxy::run_flow`.
fn join(kind: EnvKind, flow: &Flow, cache: &SharedRuleCache) -> Joined {
    let session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
    let mut proxy =
        LiberateProxy::new(session, copts(kind)).with_shared_cache(cache.clone(), kind.name());
    let result = proxy.run_flow(&flow.trace).map(|r| r.outcome);
    Joined {
        technique: proxy.active_technique().cloned(),
        cache_hit: proxy.cache_hits > 0,
        session: proxy.session,
        result,
        evasion: None,
    }
}

/// The same operation through the public phase functions, in
/// `LiberateProxy::run_flow`'s order (cache verification, detection,
/// characterization, localization, evaluation, the evaded flow), each
/// phase timed into `layers`.
fn join_traced(kind: EnvKind, flow: &Flow, cache: &SharedRuleCache, layers: &mut Layers) -> Joined {
    let mut session = Session::new(kind, OsKind::Linux, LiberateConfig::default());
    let journal = session.env.journal().clone();
    journal.span_start(session.env.clock().as_micros(), Phase::Deploy);
    let mut cache_hit = false;
    let result = pipeline_traced(kind, flow, cache, layers, &mut session, &mut cache_hit);
    journal.span_end(session.env.clock().as_micros(), Phase::Deploy);
    let (result, evasion) = match result {
        Ok((outcome, evasion)) => (Ok(outcome), Some(evasion)),
        Err(e) => (Err(e), None),
    };
    Joined {
        session,
        result,
        technique: evasion.as_ref().map(|e| e.technique.clone()),
        cache_hit,
        evasion,
    }
}

fn pipeline_traced(
    kind: EnvKind,
    flow: &Flow,
    cache: &SharedRuleCache,
    layers: &mut Layers,
    session: &mut Session,
    cache_hit: &mut bool,
) -> Result<(ReplayOutcome, ActiveEvasion)> {
    let trace = &flow.trace;
    let network = kind.name();
    let copts = copts(kind);
    let rotate_base = copts.rotate_server_ports.then_some(copts.rotate_base);

    // Shared rules, verified against the live classifier.
    let journal = session.env.journal().clone();
    let t_us = session.env.clock().as_micros();
    let mut pre_learned = None;
    if let Some(entry) = cache.lookup_observed(network, &trace.app, &journal, t_us) {
        let signal = entry.signal.to_signal(session, trace);
        let fresh = layers.time("cache.verify_ms_p50", || {
            cache.verify(network, &trace.app, session, trace, &signal)
        });
        if fresh == Some(true) {
            *cache_hit = true;
            pre_learned = Some(entry.to_characterization(trace));
        }
    }

    // Detection.
    let detection = layers.time("detect.ms_p50", || {
        detect_rotating(session, trace, rotate_base.map(|b| b.wrapping_add(30_000)))
    });
    if !detection.differentiated {
        return Err(LiberateError::NoDifferentiation);
    }
    let signal = signal_from_detection(&detection, session.config.throttle_ratio);

    // Characterization, unless the cache supplied it.
    let characterization = match pre_learned {
        Some(c) => c,
        None => layers.time("characterize.ms_p50", || {
            characterize(session, trace, &signal, &copts)
        }),
    };
    if characterization.fields.is_empty() {
        return Err(LiberateError::NoMatchingFields);
    }

    // Localization, with the pipeline's 400 KB carrier.
    let packet = characterization
        .client_field_regions(trace)
        .first()
        .map_or(0, |r| r.packet);
    let matching_packet = trace
        .client_messages()
        .nth(packet)
        .map(|m| m.payload.clone())
        .ok_or_else(|| LiberateError::BadTrace("no client payload".into()))?;
    let carrier = generate(&WorkloadSpec {
        server_bytes: 400_000,
        ..Default::default()
    });
    let localization = layers.time("probe.locate_ms_p50", || {
        locate_middlebox_rotating(
            session,
            &carrier,
            &matching_packet,
            &signal,
            rotate_base.map(|b| b.wrapping_add(31_000)),
        )
    });

    // Evaluation.
    let inputs = EvaluationInputs {
        signal: signal.clone(),
        ctx: EvasionContext {
            matching_fields: characterization.client_field_regions(trace),
            decoy: decoy_request(),
            middlebox_ttl: localization
                .middlebox_ttl
                .unwrap_or(session.env.hops_before_middlebox() + 1),
        },
        rotate_server_ports: copts.rotate_server_ports,
    };
    let found = layers.time("evaluate.ms_p50", || {
        find_working_technique(session, trace, &characterization.position, &inputs)
    });
    let (chosen, evaluation_tries) = found.map_or((None, 0), |(r, n)| (Some(r), n));
    let report = PipelineReport {
        detection,
        characterization: Some(characterization),
        localization: Some(localization),
        chosen,
        evaluation_tries,
        total_rounds: 0,
        total_bytes: 0,
        elapsed: std::time::Duration::ZERO,
    };

    // Publish for the next user, then run the flow with the technique.
    if let Some(c) = report.characterization.as_ref().filter(|c| c.rounds > 0) {
        cache.publish(
            network,
            &trace.app,
            CachedRules::from_characterization_with_signal(
                c,
                session.env.clock().as_micros() / 1_000_000,
                CachedSignal::from_signal(&signal),
            ),
        );
    }
    let evasion = ActiveEvasion::from_report(&report, trace, session)?;
    let schedule = evasion
        .technique
        .effective
        .apply(&Schedule::from_trace(trace), &evasion.ctx)
        .ok_or(LiberateError::NoWorkingTechnique)?;
    let outcome = session.replay_schedule(trace, &schedule, &ReplayOpts::default());
    Ok((outcome, evasion))
}

/// The evasion context a user of the cached rules would build, with the
/// middlebox hop taken from the network's known path.
fn context_from_cache(entry: &CachedRules, flow: &Flow, session: &Session) -> EvasionContext {
    EvasionContext {
        matching_fields: entry
            .to_characterization(&flow.trace)
            .client_field_regions(&flow.trace),
        decoy: decoy_request(),
        middlebox_ttl: session.env.hops_before_middlebox() + 1,
    }
}

/// Checks on a cold learn: the published fields cover the planted
/// keyword, and the chosen technique evades on a fresh session.
fn check_cold(rec: &mut Recorder, kind: EnvKind, flow: &Flow, cache: &SharedRuleCache, j: &Joined) {
    let name = kind.name();
    rec.check(!j.cache_hit, || {
        format!("{name}: cold learn scored a cache hit")
    });
    let Some(entry) = cache.lookup(name, &flow.trace.app) else {
        rec.check(false, || format!("{name}: cold learn published no rules"));
        return;
    };
    if let Some(range) = flow.keyword_range() {
        let covered = range.clone().all(|i| {
            entry
                .fields
                .iter()
                .any(|f| f.message == 0 && f.start <= i && i < f.end)
        });
        rec.check(covered, || {
            format!(
                "{name}: fields {:?} miss keyword bytes {range:?}",
                entry.fields
            )
        });
    }
    let Some(technique) = &j.technique else {
        rec.check(false, || format!("{name}: no technique chosen"));
        return;
    };
    if kind == EnvKind::Iran {
        let cat = technique.effective.category();
        rec.check(
            matches!(cat, Category::Splitting | Category::Reordering),
            || format!("iran: chose {cat:?}, expected splitting or reordering"),
        );
    }
    let mut fresh = Session::new(kind, OsKind::Linux, LiberateConfig::default());
    let ctx = context_from_cache(&entry, flow, &fresh);
    let signal = entry.signal.to_signal(&mut fresh, &flow.trace);
    let billed_before = read_billed_counter(&mut fresh);
    match fresh.replay_with(
        &flow.trace,
        &technique.effective,
        &ctx,
        &ReplayOpts::default(),
    ) {
        Some(out) => {
            let classified = was_classified(&mut fresh, &signal, &out, billed_before);
            rec.check(out.integrity_ok && !out.blocked() && !classified, || {
                format!(
                    "{name}: {:?} on a fresh session: integrity {} blocked {} classified {classified}",
                    technique.effective,
                    out.integrity_ok,
                    out.blocked()
                )
            });
        }
        None => rec.check(false, || {
            format!("{name}: technique does not apply to the trace")
        }),
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (variants, setup_s) = timed_setups(|| generate_inputs(seed));
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    run_rounds(seconds, &mut rec, |rec, _| {
        for flows in &variants {
            for (net, flow) in LEARN_NETWORKS.iter().zip(flows) {
                let kind = net.kind;
                let cache = SharedRuleCache::new();
                let mut cold_rounds = None;
                for user in 0..USERS_PER_NETWORK {
                    let (j, ms) = rec.measure(|| {
                        if traced {
                            join_traced(kind, flow, &cache, &mut layers)
                        } else {
                            join(kind, flow, &cache)
                        }
                    });
                    let s = &j.session;
                    rec.ops(
                        1,
                        ms,
                        s.env.clock().as_micros() as f64 / 1e6,
                        s.bytes_sent_total + s.bytes_received_total,
                    );
                    check_join(rec, kind, flow, &cache, &j, user, &mut cold_rounds);
                    if traced {
                        tally.absorb(j.session.journal());
                        if let (Some(e), 0) = (&j.evasion, user) {
                            layers.sample(
                                "evasion.apply_us",
                                apply_us(&e.technique.effective, &flow.trace, &e.ctx),
                            );
                        }
                    }
                }
            }
        }
    });
    if traced {
        tally.report_into(&mut layers, rec.attempted());
        layers.set("traces.gen_ms", crate::stats::median(&setup_s) * 1e3);
        layers.set(TRACED_OPS_PER_S, rec.ops_per_s());
        packet_layers(&variants[0], &mut layers);
    }
    Outcome {
        rec,
        setup_s,
        layers: traced.then_some(layers),
    }
}

fn check_join(
    rec: &mut Recorder,
    kind: EnvKind,
    flow: &Flow,
    cache: &SharedRuleCache,
    j: &Joined,
    user: usize,
    cold_rounds: &mut Option<u64>,
) {
    let name = kind.name();
    if kind == EnvKind::Sprint {
        // §6.4: Sprint does not differentiate, and saying so is the
        // correct answer, not a failed operation.
        rec.check(
            matches!(j.result, Err(LiberateError::NoDifferentiation)),
            || {
                format!(
                    "sprint: expected NoDifferentiation, got {:?}",
                    j.result.as_ref().err()
                )
            },
        );
        return;
    }
    match &j.result {
        Err(e) => rec.fail(1, format!("{name} user {user}: {e:?}")),
        Ok(out) => rec.check(!out.blocked() && out.complete, || {
            format!("{name} user {user}: evaded flow blocked or incomplete")
        }),
    }
    if user == 0 {
        *cold_rounds = Some(j.session.replays);
        check_cold(rec, kind, flow, cache, j);
    } else {
        rec.check(j.cache_hit, || {
            format!("{name} user {user}: warm join missed the cache")
        });
        let cold = cold_rounds.unwrap_or(0);
        rec.check(j.session.replays < cold, || {
            format!(
                "{name} user {user}: warm join spent {} rounds, cold {cold}",
                j.session.replays
            )
        });
    }
}

/// Packet-level layers in isolation, over the packets each network's
/// evaded flow (Sprint: plain flow) puts on the wire.
fn packet_layers(flows: &[Flow], layers: &mut Layers) {
    let samples = LEARN_NETWORKS
        .iter()
        .zip(flows)
        .map(|(net, flow)| {
            let cache = SharedRuleCache::new();
            let j = join(net.kind, flow, &cache);
            let plain = Schedule::from_trace(&flow.trace);
            let schedule = match (&j.technique, cache.lookup(net.kind.name(), &flow.trace.app)) {
                (Some(t), Some(entry)) => {
                    let ctx = context_from_cache(&entry, flow, &j.session);
                    t.effective.apply(&plain, &ctx).unwrap_or(plain)
                }
                _ => plain,
            };
            PacketSample::capture(net.kind, device_config(net.kind), &flow.trace, &schedule)
        })
        .collect();
    report_packets(samples, layers);
}
