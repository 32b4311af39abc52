//! Wire-format pins: the length and FNV-1a of the formats the store,
//! the journal and the service socket exchange, plus the error text of
//! every tagged enum's unknown tag. A codec change that moves one byte
//! fails here; a deliberate format change bumps the matching version
//! (`STORE_FORMAT_VERSION`, `JOURNAL_VERSION`) and re-pins.
//!
//! The hostile-bytes property lives here too: a strict prefix of a valid
//! encoding never decodes, a flipped byte never panics a decoder, and a
//! flipped input that still decodes re-encodes to exactly those bytes
//! (no format accepts two encodings of one value).

use proptest::collection::vec;
use proptest::prelude::*;
use sm_benchgen::iscas::IscasProfile;
use sm_codec::frame::fnv1a;
use sm_codec::{decode_from_slice, encode_to_vec, CodecError, Decode, Encode};
use sm_core::baselines::original_layout;
use sm_core::flow::{protect, FlowConfig, ProtectedDesign};
use sm_engine::journal::{EventJob, MetricsSource, Provenance};
use sm_engine::serve::{Request, Response, ServiceStatus};
use sm_engine::{
    ArtifactCache, AttackKind, Budget, CacheStats, Event, JobMetrics, Recorder, SweepSpec,
};
use sm_layout::{split_layout, SplitLayout, VpinSide};
use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
use sm_netlist::{Driver, GateFn, Library, Netlist, Sink};

fn spec() -> SweepSpec {
    SweepSpec {
        benchmarks: vec!["c432".into(), "superblue18".into()],
        seeds: vec![1, 7],
        split_layers: vec![3, 5],
        attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
        scale: 100,
        master_seed: 42,
        layout_seed: Some(9),
    }
}

fn status() -> ServiceStatus {
    ServiceStatus {
        workers: 3,
        queued: 1,
        running: Some(0xfeed_beef),
        completed: 4,
        steals: 2,
        jobs_done: 96,
    }
}

fn job() -> EventJob {
    EventJob {
        benchmark: "c880".into(),
        user_seed: 3,
        split_layer: 4,
        attack: AttackKind::Crouting,
    }
}

fn provenance(source: MetricsSource) -> Provenance {
    Provenance {
        source,
        bundle_key: "iscas-c880-s3".into(),
        derived_seed: 0x1234_5678_9abc_def0,
        threads: 2,
        wall_ms: 12.5,
        phases: vec![("split".into(), 0.25), ("attack".into(), 11.75)],
    }
}

/// One value per `JobMetrics` kind, measurements first.
fn metrics() -> [(&'static str, JobMetrics); 4] {
    [
        (
            "flow",
            JobMetrics::Flow {
                ccr_protected_pct: 1.5,
                oer_pct: 99.25,
                hd_pct: 37.125,
                ccr_original_pct: 83.75,
            },
        ),
        (
            "crouting",
            JobMetrics::Crouting {
                vpins_protected: 120,
                vpins_original: 98,
                boxes: vec![(1, 0.5, 12.0, 0.25, 40.0), (4, 2.5, 60.0, 1.75, 95.5)],
            },
        ),
        ("timed-out", JobMetrics::TimedOut),
        (
            "failed",
            JobMetrics::Failed {
                phase: "attack".into(),
                message: "boom".into(),
            },
        ),
    ]
}

/// One value of every `Event` variant, `JobFinished` once per metrics
/// kind (the placeholders encode, though they never decode).
fn events() -> Vec<(String, Event)> {
    let mut out = vec![
        (
            "campaign-started".to_string(),
            Event::CampaignStarted {
                spec: spec(),
                threads: 4,
            },
        ),
        (
            "job-started".to_string(),
            Event::JobStarted {
                job: job(),
                store_keys: vec!["iscas-c880-s3".into(), "outcome-c880-3-4".into()],
            },
        ),
    ];
    for (i, (kind, metrics)) in metrics().into_iter().enumerate() {
        let source = [MetricsSource::Store, MetricsSource::Computed][i % 2];
        out.push((
            format!("job-finished/{kind}"),
            Event::JobFinished {
                job: job(),
                metrics,
                provenance: provenance(source),
            },
        ));
    }
    out.extend([
        (
            "job-timed-out".to_string(),
            Event::JobTimedOut {
                job: job(),
                phase: "pickup".into(),
            },
        ),
        (
            "bundle-built".to_string(),
            Event::BundleBuilt {
                key: "iscas-c432-s1".into(),
                stage: "decode".into(),
                wall_ms: 3.5,
            },
        ),
        (
            "campaign-finished".to_string(),
            Event::CampaignFinished {
                jobs: 8,
                timed_out: 1,
                cache: CacheStats {
                    hits: 5,
                    disk_hits: 2,
                    builds: 1,
                    released: 3,
                },
                pool_live: 2,
                pool_peak_live: 4,
                threads: 4,
                total_wall_ms: 1234.5,
                failed: 1,
            },
        ),
        (
            "job-failed".to_string(),
            Event::JobFailed {
                job: job(),
                phase: "bundle".into(),
                message: "injected fault".into(),
            },
        ),
    ]);
    out
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "submit",
            Request::Submit {
                spec: spec(),
                follow: true,
            },
        ),
        ("status", Request::Status),
        ("shutdown", Request::Shutdown),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "accepted",
            Response::Accepted {
                fingerprint: 0x0123_4567_89ab_cdef,
                jobs: 16,
                queued: 1,
            },
        ),
        (
            "rejected",
            Response::Rejected {
                reason: "queue full".into(),
            },
        ),
        (
            "event",
            Response::Event(Event::JobTimedOut {
                job: job(),
                phase: "attack".into(),
            }),
        ),
        (
            "report",
            Response::Report {
                json: "{\"campaign\": {}, \"version\": 2}".into(),
            },
        ),
        ("status", Response::Status(status())),
        ("done", Response::Done),
    ]
}

/// Every pinned encoding, by name.
fn encodings() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let exec = Budget::with_threads(Some(1));
    let run = ArtifactCache::new().iscas(&IscasProfile::c432(), 1, &exec, &mut Recorder::new());
    out.push(("c432/netlist".to_string(), encode_to_vec(&run.netlist)));
    let erroneous = &run.protected.randomization.erroneous;
    for layer in 3..=5u8 {
        let protected = split_layout(
            erroneous,
            &run.protected.placement,
            &run.protected.feol_routing,
            layer,
        );
        let original = split_layout(
            &run.netlist,
            &run.original.placement,
            &run.original.routing,
            layer,
        );
        out.push((
            format!("c432/split-protected-m{layer}"),
            encode_to_vec(&protected),
        ));
        out.push((
            format!("c432/split-original-m{layer}"),
            encode_to_vec(&original),
        ));
    }
    for (name, event) in events() {
        out.push((format!("event/{name}"), encode_to_vec(&event)));
    }
    out.push(("sweep-spec".to_string(), encode_to_vec(&spec())));
    out.push(("service-status".to_string(), encode_to_vec(&status())));
    for (name, request) in requests() {
        out.push((format!("request/{name}"), encode_to_vec(&request)));
    }
    for (name, response) in responses() {
        out.push((format!("response/{name}"), encode_to_vec(&response)));
    }
    out
}

/// `(name, encoded length, fnv1a of the encoding)`.
const PINS: &[(&str, usize, u64)] = &[
    ("c432/netlist", 15059, 0x6a61025de46bcd73),
    ("c432/split-protected-m3", 16509, 0xfaa75a276160ffce),
    ("c432/split-original-m3", 10947, 0xecf8169598aae675),
    ("c432/split-protected-m4", 13398, 0xe8f3a9720964eb7e),
    ("c432/split-original-m4", 4922, 0xa1ff16209558a416),
    ("c432/split-protected-m5", 11301, 0x8bbf3d9249631c3a),
    ("c432/split-original-m5", 1535, 0x098b97edd285df28),
    ("event/campaign-started", 117, 0xb1681b1ada8d676b),
    ("event/job-started", 76, 0x8874a5c30c2d7071),
    ("event/job-finished/flow", 153, 0x2f54c6dd7b4f5e92),
    ("event/job-finished/crouting", 225, 0xfb9611f7120df512),
    ("event/job-finished/timed-out", 121, 0x2db14354008cdc35),
    ("event/job-finished/failed", 147, 0xc22198870485839c),
    ("event/job-timed-out", 37, 0xf095feb46eeb1eeb),
    ("event/bundle-built", 44, 0x18432d99f1a53b03),
    ("event/campaign-finished", 89, 0xd84c4bb412f7684a),
    ("event/job-failed", 59, 0x2ed1f7d7f31eea22),
    ("sweep-spec", 108, 0x9a75efe529a9b5e5),
    ("service-status", 49, 0xc025fe0a988dc392),
    ("request/submit", 110, 0xa8db8ad820e93fca),
    ("request/status", 1, 0xaf63bc4c8601b62c),
    ("request/shutdown", 1, 0xaf63bf4c8601bb45),
    ("response/accepted", 25, 0x7a6fe892c1d6bbee),
    ("response/rejected", 19, 0x14609e774c545dbe),
    ("response/event", 38, 0xfbf73a712abddc7b),
    ("response/report", 39, 0xe170a1f03fc4d4d8),
    ("response/status", 50, 0x09645b09cc15ad70),
    ("response/done", 1, 0xaf63b84c8601af60),
];

#[test]
fn wire_bytes_are_pinned() {
    let got: Vec<(String, usize, u64)> = encodings()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a(&bytes)))
        .collect();
    let names: Vec<&str> = got.iter().map(|(n, _, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(names, pinned, "the pinned formats");
    for ((name, len, hash), &(_, pin_len, pin_hash)) in got.iter().zip(PINS) {
        assert_eq!((*len, *hash), (pin_len, pin_hash), "{name}");
    }
}

fn unknown_tag<T: Decode + std::fmt::Debug>(tag: u8) -> CodecError {
    decode_from_slice::<T>(&[tag]).expect_err("an unknown tag must not decode")
}

#[test]
fn unknown_tags_name_their_enum() {
    let invalid = |s: &str| CodecError::Invalid(s.to_string());
    assert_eq!(unknown_tag::<VpinSide>(2), invalid("VpinSide tag 2"));
    assert_eq!(unknown_tag::<GateFn>(8), invalid("GateFn tag 8"));
    assert_eq!(unknown_tag::<Driver>(2), invalid("Driver tag 2"));
    assert_eq!(unknown_tag::<Sink>(2), invalid("Sink tag 2"));
    assert_eq!(unknown_tag::<AttackKind>(2), invalid("AttackKind tag 2"));
    assert_eq!(
        unknown_tag::<MetricsSource>(2),
        invalid("MetricsSource tag 2")
    );
    assert_eq!(unknown_tag::<Event>(7), invalid("Event tag 7"));
    assert_eq!(unknown_tag::<Request>(3), invalid("Request tag 3"));
    assert_eq!(unknown_tag::<Response>(6), invalid("Response tag 6"));
    assert_eq!(unknown_tag::<Event>(255), invalid("Event tag 255"));
}

// ----- hostile bytes -------------------------------------------------------

/// The three hostile-bytes checks on one valid encoding of a `T`: every
/// strict prefix fails to decode, and every byte flipped by each of
/// `masks` either fails or decodes to a value that re-encodes to exactly
/// the flipped bytes. A panicking decoder fails the calling test.
fn assert_hostile_safe<T: Encode + Decode>(bytes: &[u8], masks: &[u8]) {
    for cut in 0..bytes.len() {
        assert!(
            decode_from_slice::<T>(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} bytes decoded",
            bytes.len()
        );
    }
    let mut flipped = bytes.to_vec();
    for pos in 0..bytes.len() {
        for &mask in masks {
            flipped[pos] ^= mask;
            if let Ok(value) = decode_from_slice::<T>(&flipped) {
                assert!(
                    encode_to_vec(&value) == flipped,
                    "byte {pos} ^ {mask:#04x} decoded to a value of other bytes"
                );
            }
            flipped[pos] ^= mask;
        }
    }
}

/// Strings over one- to four-byte UTF-8 characters.
fn text() -> impl Strategy<Value = String> {
    vec(0usize..6, 0..6).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ['a', 'Z', '-', 'é', '→', '😀'][i])
            .collect()
    })
}

fn attack(flow: bool) -> AttackKind {
    if flow {
        AttackKind::NetworkFlow
    } else {
        AttackKind::Crouting
    }
}

fn arb_spec() -> impl Strategy<Value = SweepSpec> {
    (
        vec(text(), 0..3),
        vec(any::<u64>(), 0..3),
        vec(any::<u8>(), 0..3),
        vec(any::<bool>(), 0..3),
        any::<usize>(),
        (any::<u64>(), any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(benchmarks, seeds, split_layers, flows, scale, (master_seed, pinned, layout))| {
                SweepSpec {
                    benchmarks,
                    seeds,
                    split_layers,
                    attacks: flows.into_iter().map(attack).collect(),
                    scale,
                    master_seed,
                    layout_seed: pinned.then_some(layout),
                }
            },
        )
}

fn arb_job() -> impl Strategy<Value = EventJob> {
    (text(), any::<u64>(), any::<u8>(), any::<bool>()).prop_map(
        |(benchmark, user_seed, split_layer, flow)| EventJob {
            benchmark,
            user_seed,
            split_layer,
            attack: attack(flow),
        },
    )
}

/// A measurement (the placeholders never decode). Floats come from raw
/// bits, NaN payloads included.
fn arb_metrics() -> impl Strategy<Value = JobMetrics> {
    let boxes = vec(
        (
            any::<i64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        0..3,
    );
    (any::<bool>(), vec(any::<u64>(), 4..5), boxes).prop_map(|(flow, v, boxes)| {
        let f = f64::from_bits;
        if flow {
            JobMetrics::Flow {
                ccr_protected_pct: f(v[0]),
                oer_pct: f(v[1]),
                hd_pct: f(v[2]),
                ccr_original_pct: f(v[3]),
            }
        } else {
            JobMetrics::Crouting {
                vpins_protected: v[0] as usize,
                vpins_original: v[1] as usize,
                boxes: boxes
                    .into_iter()
                    .map(|(t, a, b, c, d)| (t, f(a), f(b), f(c), f(d)))
                    .collect(),
            }
        }
    })
}

fn arb_provenance() -> impl Strategy<Value = Provenance> {
    let phases = vec((text(), any::<u64>()), 0..3);
    (any::<bool>(), text(), vec_u64(3), phases).prop_map(|(store, bundle_key, n, phases)| {
        Provenance {
            source: [MetricsSource::Computed, MetricsSource::Store][store as usize],
            bundle_key,
            derived_seed: n[0],
            threads: n[1],
            wall_ms: f64::from_bits(n[2]),
            phases: phases
                .into_iter()
                .map(|(name, ms)| (name, f64::from_bits(ms)))
                .collect(),
        }
    })
}

fn vec_u64(len: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(any::<u64>(), len..len + 1)
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u8..7,
        arb_spec(),
        arb_job(),
        (text(), text(), vec(text(), 0..3)),
        (arb_metrics(), arb_provenance()),
        vec_u64(12),
    )
        .prop_map(
            |(variant, spec, job, (a, b, keys), (metrics, provenance), n)| match variant {
                0 => Event::CampaignStarted {
                    spec,
                    threads: n[0],
                },
                1 => Event::JobStarted {
                    job,
                    store_keys: keys,
                },
                2 => Event::JobFinished {
                    job,
                    metrics,
                    provenance,
                },
                3 => Event::JobTimedOut { job, phase: a },
                4 => Event::BundleBuilt {
                    key: a,
                    stage: b,
                    wall_ms: f64::from_bits(n[1]),
                },
                5 => Event::CampaignFinished {
                    jobs: n[2],
                    timed_out: n[3],
                    cache: CacheStats {
                        hits: n[4],
                        disk_hits: n[5],
                        builds: n[6],
                        released: n[7],
                    },
                    pool_live: n[8],
                    pool_peak_live: n[9],
                    threads: n[10],
                    total_wall_ms: f64::from_bits(n[11]),
                    failed: n[0],
                },
                _ => Event::JobFailed {
                    job,
                    phase: a,
                    message: b,
                },
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..3, arb_spec(), any::<bool>()).prop_map(|(variant, spec, follow)| match variant {
        0 => Request::Submit { spec, follow },
        1 => Request::Status,
        _ => Request::Shutdown,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (0u8..6, arb_event(), text(), vec_u64(6), any::<bool>()).prop_map(
        |(variant, event, text, n, running)| match variant {
            0 => Response::Accepted {
                fingerprint: n[0],
                jobs: n[1],
                queued: n[2],
            },
            1 => Response::Rejected { reason: text },
            2 => Response::Event(event),
            3 => Response::Report { json: text },
            4 => Response::Status(ServiceStatus {
                workers: n[0],
                queued: n[1],
                running: running.then_some(n[2]),
                completed: n[3],
                steals: n[4],
                jobs_done: n[5],
            }),
            _ => Response::Done,
        },
    )
}

/// c17 through the whole protection flow, and the split of both arms at
/// `layer`: small enough to try every prefix and flip of.
fn c17_artifacts(seed: u64, layer: u8) -> (ProtectedDesign, SplitLayout, SplitLayout) {
    let n: Netlist = parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap();
    let config = FlowConfig::iscas_default(seed);
    let (exec, mut rec) = (Budget::with_threads(Some(1)), Recorder::new());
    let baseline = original_layout(&n, config.utilization, seed, &exec, &mut rec);
    let p = protect(&n, &config, &baseline, &exec, &mut rec);
    let protected = split_layout(
        &p.randomization.erroneous,
        &p.placement,
        &p.feol_routing,
        layer,
    );
    let original = split_layout(&n, &p.baseline.placement, &p.baseline.routing, layer);
    (p, protected, original)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_frames_never_misparse(
        request in arb_request(),
        response in arb_response(),
        event in arb_event(),
        mask in 1u8..255,
    ) {
        let masks = [0x01, 0x80, mask];
        assert_hostile_safe::<Request>(&encode_to_vec(&request), &masks);
        assert_hostile_safe::<Response>(&encode_to_vec(&response), &masks);
        assert_hostile_safe::<Event>(&encode_to_vec(&event), &masks);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn hostile_layouts_never_misparse(seed in 1u64..100, layer in 2u8..7, mask in 1u8..255) {
        let (design, protected, original) = c17_artifacts(seed, layer);
        assert_hostile_safe::<SplitLayout>(&encode_to_vec(&protected), &[mask]);
        assert_hostile_safe::<SplitLayout>(&encode_to_vec(&original), &[mask]);
        assert_hostile_safe::<ProtectedDesign>(&encode_to_vec(&design), &[mask]);
    }
}
