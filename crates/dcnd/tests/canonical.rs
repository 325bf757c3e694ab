//! Canonical-key semantics: parameter-determined families (fat-tree,
//! Clos) collapse textually different spellings of the same instance
//! onto one cache key and one solve; seeded random families (Jellyfish,
//! Xpander, FatClique) are deliberately *not* canonicalized.
//!
//! The daemon tests assert against the process-global `cache.hit` /
//! `cache.miss` counters, so every test that solves anything serializes
//! on [`counters`] — the test harness runs tests on multiple threads in
//! one process. All solves use the `singla` estimator, which reads only
//! the topology and never touches the cache internally, so counter
//! deltas are exact.

use dcn_cache::CacheHandle;
use dcn_dcnd::{build_topology, int_field, parse_query, Daemon, DaemonConfig, SpecFieldError};
use dcn_obs::json::Json;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn config() -> DaemonConfig {
    DaemonConfig {
        socket: None,
        queue_depth: 256,
        max_inflight: 2,
        global_deadline: None,
        timing: false,
    }
}

/// Serializes tests that read or bump the global cache counters.
fn counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn hits() -> u64 {
    dcn_obs::counter_value(dcn_obs::names::CACHE_HIT)
}

fn misses() -> u64 {
    dcn_obs::counter_value(dcn_obs::names::CACHE_MISS)
}

/// The `provenance.cache` field of a response line.
fn provenance(response: &str) -> String {
    Json::parse(response)
        .expect("response is json")
        .get("provenance")
        .and_then(|p| p.get("cache"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn status(response: &str) -> String {
    Json::parse(response)
        .expect("response is json")
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

#[test]
fn fat_tree_spellings_share_a_key() {
    let a = parse_query(r#"{"id":1,"topology":{"family":"fat_tree","k":8},"estimator":"tub"}"#)
        .unwrap();
    let b = parse_query(r#"{"estimator":"tub","topology":{"k":8,"family":"fat_tree"},"id":2}"#)
        .unwrap();
    assert_eq!(a.key, b.key, "field order must not change the key");
    assert!(a.canonical && b.canonical);

    let c = parse_query(r#"{"topology":{"family":"fat_tree","k":10},"estimator":"tub"}"#)
        .unwrap();
    assert_ne!(a.key, c.key, "different k is a different instance");
}

#[test]
fn clos_omitted_defaults_share_a_key() {
    let terse =
        parse_query(r#"{"topology":{"family":"clos","radix":8},"estimator":"sc"}"#).unwrap();
    let explicit = parse_query(
        r#"{"topology":{"leaf_servers":0,"family":"clos","radix":8,"layers":3,"top_pods":8,"spine_uplink_fraction":1.0},"estimator":"sc"}"#,
    )
    .unwrap();
    assert_eq!(
        terse.key, explicit.key,
        "spelling out the defaults must not change the key"
    );
    assert!(terse.canonical);

    let tapered = parse_query(
        r#"{"topology":{"family":"clos","radix":8,"spine_uplink_fraction":0.5},"estimator":"sc"}"#,
    )
    .unwrap();
    assert_ne!(terse.key, tapered.key, "a tapered spine is a different instance");
}

#[test]
fn seeded_families_never_canonicalize() {
    let a = parse_query(
        r#"{"topology":{"family":"jellyfish","switches":20,"radix":8,"h":4,"seed":3},"estimator":"singla"}"#,
    )
    .unwrap();
    // Parameter-identical, different field order: for a seeded family
    // this is a different *spelling*, and spellings do not collapse.
    let b = parse_query(
        r#"{"topology":{"seed":3,"family":"jellyfish","switches":20,"radix":8,"h":4},"estimator":"singla"}"#,
    )
    .unwrap();
    assert!(!a.canonical && !b.canonical);
    assert_ne!(a.key, b.key, "seeded families key on the spec text");

    // The same text, byte for byte, is still one key.
    let c = parse_query(
        r#"{"topology":{"family":"jellyfish","switches":20,"radix":8,"h":4,"seed":3},"estimator":"singla"}"#,
    )
    .unwrap();
    assert_eq!(a.key, c.key);
}

#[test]
fn tm_and_estimator_partition_the_keyspace() {
    let tub = parse_query(r#"{"topology":{"family":"fat_tree","k":8},"estimator":"tub"}"#)
        .unwrap();
    let sc = parse_query(r#"{"topology":{"family":"fat_tree","k":8},"estimator":"sc"}"#)
        .unwrap();
    assert_ne!(tub.key, sc.key, "the estimator is part of the identity");

    let implicit =
        parse_query(r#"{"topology":{"family":"fat_tree","k":8},"estimator":"hm(4)"}"#).unwrap();
    let explicit = parse_query(
        r#"{"topology":{"family":"fat_tree","k":8},"estimator":"hm(4)","tm":{"kind":"all_to_all"}}"#,
    )
    .unwrap();
    assert_eq!(implicit.key, explicit.key, "omitted tm means all-to-all");

    let perm = parse_query(
        r#"{"topology":{"family":"fat_tree","k":8},"estimator":"hm(4)","tm":{"kind":"random_permutation","seed":5}}"#,
    )
    .unwrap();
    assert_ne!(implicit.key, perm.key, "the tm is part of the identity");
}

#[test]
fn daemon_collapses_canonical_duplicates_onto_one_solve() {
    let _guard = counters();
    let daemon = Daemon::with_cache(config(), CacheHandle::in_memory(1 << 20));
    let batch: Vec<String> = [
        r#"{"id":1,"topology":{"family":"fat_tree","k":4},"estimator":"singla"}"#,
        r#"{"id":2,"estimator":"singla","topology":{"k":4,"family":"fat_tree"}}"#,
        r#"{"id":3,"topology":{"family":"clos","radix":4},"estimator":"singla"}"#,
        r#"{"id":4,"topology":{"family":"clos","radix":4,"layers":3,"top_pods":4},"estimator":"singla"}"#,
        r#"{"id":5,"topology":{"family":"jellyfish","switches":20,"radix":8,"h":4,"seed":3},"estimator":"singla"}"#,
        r#"{"id":6,"topology":{"seed":3,"family":"jellyfish","switches":20,"radix":8,"h":4},"estimator":"singla"}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let (h0, m0) = (hits(), misses());
    let cold = daemon.process_batch(&batch);
    let (h1, m1) = (hits(), misses());

    // Two spellings of one fat tree → one solve; same for the Clos pair;
    // the two jellyfish spellings stay two solves. 4 misses, 0 hits.
    assert_eq!(m1 - m0, 4, "fat-tree and clos pairs each collapse to one solve");
    assert_eq!(h1 - h0, 0, "a cold batch hits nothing");
    let provs: Vec<String> = cold.iter().map(|r| provenance(r)).collect();
    assert_eq!(provs, ["miss", "dedup", "miss", "dedup", "miss", "miss"]);

    // Collapsed duplicates answer identically to their representative
    // (same value, same estimator — only id and provenance differ).
    let value = |r: &str| Json::parse(r).unwrap().get("value").and_then(Json::as_f64);
    assert_eq!(value(&cold[0]), value(&cold[1]));
    assert_eq!(value(&cold[2]), value(&cold[3]));

    // Replaying the batch serves every line from the warm tier.
    let (h1, m1) = (hits(), misses());
    let warm = daemon.process_batch(&batch);
    let (h2, m2) = (hits(), misses());
    assert_eq!(h2 - h1, 6, "every replayed line is a warm hit");
    assert_eq!(m2 - m1, 0);
    for r in &warm {
        assert_eq!(provenance(r), "hit");
    }
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(value(c), value(w), "warm answers equal cold answers");
    }
}

#[test]
fn exhausted_budget_rejects_cold_and_still_serves_warm() {
    let _guard = counters();
    let cache = CacheHandle::in_memory(1 << 20);
    let warm_line =
        r#"{"id":"warm","topology":{"family":"fat_tree","k":4},"estimator":"singla"}"#.to_string();
    let cold_line =
        r#"{"id":"cold","topology":{"family":"clos","radix":8},"estimator":"singla"}"#.to_string();

    // Warm the cache with an unlimited daemon first.
    let unlimited = Daemon::with_cache(config(), cache.clone());
    let seeded = unlimited.process_batch(std::slice::from_ref(&warm_line));
    assert_eq!(status(&seeded[0]), "ok");

    // A zero global deadline is exhausted from the first checkpoint:
    // cold queries get the typed rejection, warm ones still answer.
    let exhausted = Daemon::with_cache(
        DaemonConfig {
            global_deadline: Some(Duration::ZERO),
            ..config()
        },
        cache,
    );
    let responses = exhausted.process_batch(&[warm_line, cold_line]);
    assert_eq!(status(&responses[0]), "ok");
    assert_eq!(provenance(&responses[0]), "hit");
    assert_eq!(
        responses[1],
        r#"{"id":"cold","status":"rejected","reason":"global-budget-exhausted"}"#,
        "rejection is typed and deterministic"
    );
}

#[test]
fn served_responses_are_byte_identical_to_oneshot() {
    let _guard = counters();
    let line =
        r#"{"id":7,"topology":{"family":"fat_tree","k":4},"estimator":"singla","tm":{"kind":"random_permutation","seed":5}}"#
            .to_string();
    // Two fresh daemons (fresh caches) answering the same cold query
    // must produce the same bytes — the `--oneshot` contract.
    let a = Daemon::with_cache(config(), CacheHandle::in_memory(1 << 20));
    let b = Daemon::with_cache(config(), CacheHandle::in_memory(1 << 20));
    let ra = a.process_batch(std::slice::from_ref(&line));
    let rb = b.process_batch(std::slice::from_ref(&line));
    assert_eq!(ra, rb);
    assert_eq!(status(&ra[0]), "ok");
    assert_eq!(provenance(&ra[0]), "miss");
}

#[test]
fn zero_queue_depth_rejects_everything() {
    let _guard = counters();
    let daemon = Daemon::with_cache(
        DaemonConfig {
            queue_depth: 0,
            ..config()
        },
        CacheHandle::in_memory(1 << 20),
    );
    let input = b"{\"id\":9,\"topology\":{\"family\":\"fat_tree\",\"k\":4},\"estimator\":\"singla\"}\n";
    let mut out = Vec::new();
    daemon.serve(&input[..], &mut out).unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "{\"id\":9,\"status\":\"rejected\",\"reason\":\"queue-full\"}\n"
    );
}

#[test]
fn malformed_queries_get_typed_errors() {
    let daemon = Daemon::with_cache(config(), CacheHandle::disabled());
    let batch: Vec<String> = [
        r#"{"topology":{"family":"nope"},"estimator":"tub"}"#,
        r#"{"topology":{"family":"fat_tree","k":4},"estimator":"warp"}"#,
        r#"not json"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for r in daemon.process_batch(&batch) {
        assert_eq!(status(&r), "error");
    }
}

#[test]
fn deeply_nested_line_gets_an_error_and_serving_carries_on() {
    let _guard = counters();
    let daemon = Daemon::with_cache(config(), CacheHandle::in_memory(1 << 20));
    // Nesting far past the JSON depth limit once overflowed the parser's
    // stack and aborted the daemon; it must be one more malformed line.
    let input = format!(
        "{}\n{}\n",
        "[".repeat(200_000),
        r#"{"id":3,"topology":{"family":"fat_tree","k":4},"estimator":"singla"}"#
    );
    let mut out = Vec::new();
    daemon.serve(input.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert_eq!(status(lines[0]), "error");
    assert!(lines[0].contains("nesting deeper than"), "{}", lines[0]);
    assert_eq!(status(lines[1]), "ok");
}

/// A spec field that would not survive an integer cast unchanged must be
/// refused by both the key and the build, never rounded into another
/// fabric.
fn assert_field_refused(spec: &str, expect: SpecFieldError) {
    let line = format!(r#"{{"topology":{spec},"estimator":"tub"}}"#);
    assert_eq!(parse_query(&line).unwrap_err(), expect.to_string(), "{spec}");
    let spec = Json::parse(spec).unwrap();
    assert_eq!(build_topology(&spec).unwrap_err(), expect.to_string());
    assert_eq!(int_field(&spec, "k"), Err(expect));
}

#[test]
fn fractional_field_is_refused_not_rounded() {
    let e = SpecFieldError::NotInteger("k".into(), "4.9".into());
    assert_field_refused(r#"{"family":"fat_tree","k":4.9}"#, e);
}

#[test]
fn negative_field_is_refused_not_clamped() {
    let e = SpecFieldError::Negative("k".into(), "-4".into());
    assert_field_refused(r#"{"family":"fat_tree","k":-4}"#, e);
}

#[test]
fn huge_field_is_refused_not_saturated() {
    let e = SpecFieldError::TooLarge("k".into(), "1e300".into());
    assert_field_refused(r#"{"family":"fat_tree","k":1e300}"#, e);
}
