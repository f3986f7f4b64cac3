//! `benchmark --check`: the benchmark checks itself, on shrunk worlds.
//!
//! Also run by `cargo test` inside `benchmark/`. Every failed check is
//! reported; any failure makes the process exit non-zero.

use ew_bench::mega::{run_mega, MegaConfig};
use ew_sim::SimDuration;

use crate::json::Json;
use crate::measure::check_outcome;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{mega_spec, repetition, Sizes, Workload};

/// The benchmark's own sources, for the stable-surface check.
const SOURCES: [(&str, &str); 11] = [
    ("check.rs", include_str!("check.rs")),
    ("compare.rs", include_str!("compare.rs")),
    ("json.rs", include_str!("json.rs")),
    ("main.rs", include_str!("main.rs")),
    ("measure.rs", include_str!("measure.rs")),
    ("metrics.rs", include_str!("metrics.rs")),
    ("probes.rs", include_str!("probes.rs")),
    ("shares.rs", include_str!("shares.rs")),
    ("stats.rs", include_str!("stats.rs")),
    ("trace.rs", include_str!("trace.rs")),
    ("workloads.rs", include_str!("workloads.rs")),
];

/// A/B scaffolding slated for deletion (ROADMAP items 2–3). One benchmark
/// source must compile on parent and change across those items, so it may
/// not name any of it. Needles are split so this file passes its own check.
fn forbidden_names() -> Vec<String> {
    [
        ("set_default", "_"),
        ("set_batched", "_dispatch"),
        ("set_dirty_flow", "_recompute"),
        ("on_", "batch"),
        ("Event", "Batch"),
        ("tiny", "_mode"),
        ("tiny", " mode"),
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect()
}

/// The scaffolding names `text` mentions.
fn scaffolding_named(text: &str) -> Vec<String> {
    forbidden_names()
        .into_iter()
        .filter(|needle| text.contains(needle.as_str()))
        .collect()
}

fn check_stable_surface(bad: &mut Vec<String>) {
    for (file, text) in SOURCES {
        for name in scaffolding_named(text) {
            bad.push(format!(
                "src/{file} names `{name}`, which is slated for deletion"
            ));
        }
    }
}

fn check_workload(w: Workload, sizes: &Sizes, bad: &mut Vec<String>) {
    let mut off = Tracer::new(false);
    let first = repetition(w, 1998, sizes, &mut off);
    bad.extend(check_outcome(w, sizes, &first));
    let again = repetition(w, 1998, sizes, &mut off);
    if again.fingerprint() != first.fingerprint() {
        bad.push(format!(
            "{}: same seed gave {} then {}",
            w.name(),
            first.fingerprint(),
            again.fingerprint()
        ));
    }
    let other = repetition(w, 2024, sizes, &mut off);
    if other.fingerprint() == first.fingerprint() {
        bad.push(format!(
            "{}: seeds 1998 and 2024 gave the same fingerprint {}",
            w.name(),
            first.fingerprint()
        ));
    }
    // Spans and the handler wrapper must not change what is simulated.
    let mut on = Tracer::new(true);
    let traced = repetition(w, 1998, sizes, &mut on);
    if traced.fingerprint() != first.fingerprint() {
        bad.push(format!(
            "{}: traced run gave {}, untraced {}",
            w.name(),
            traced.fingerprint(),
            first.fingerprint()
        ));
    }
    if on.spans.is_empty() {
        bad.push(format!("{}: traced run recorded no span", w.name()));
    }
}

/// The benchmark assembles its mega shard itself; it must be the shard
/// `ew_bench::mega::run_mega` runs for the same config.
fn check_mega_matches_library(sizes: &Sizes, bad: &mut Vec<String>) {
    let seed = 1998;
    let ours = repetition(Workload::MegaRpc, seed, sizes, &mut Tracer::new(false));
    let lib = run_mega(
        &MegaConfig {
            seed,
            shards: 1,
            spec: mega_spec(seed, sizes),
            horizon: SimDuration::from_secs(sizes.mega_sim_s),
        },
        1,
    );
    let theirs = &lib.shards[0];
    if (ours.events, ours.units, ours.order_hash)
        != (theirs.events, theirs.units, theirs.order_hash)
    {
        bad.push(format!(
            "mega_rpc: benchmark shard (events {}, units {}, hash {:016x}) is not run_mega's \
             (events {}, units {}, hash {:016x})",
            ours.events,
            ours.units,
            ours.order_hash,
            theirs.events,
            theirs.units,
            theirs.order_hash
        ));
    }
}

/// `BENCHMARK.json` must list exactly the tables in `metrics.rs` and the
/// five workloads, and claim no gain.
fn check_manifest(bad: &mut Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(m) => m,
        Err(e) => {
            bad.push(format!("BENCHMARK.json: {e}"));
            return;
        }
    };
    let list = |key: &str| -> Vec<Json> {
        match manifest.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        }
    };
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);

    let names: Vec<_> = list("workloads")
        .iter()
        .filter_map(|w| field(w, "name"))
        .collect();
    let want: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    if names != want {
        bad.push(format!(
            "BENCHMARK.json workloads {names:?}, benchmark runs {want:?}"
        ));
    }

    let listed: Vec<_> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let table: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                Some(m.name.to_string()),
                Some(m.unit.to_string()),
                Some(m.better.as_str().to_string()),
                Some(m.bound),
            )
        })
        .collect();
    if listed != table {
        bad.push("BENCHMARK.json end_to_end differs from metrics::END_TO_END".into());
    }

    let listed: Vec<_> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let table: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                Some(m.name.to_string()),
                Some(m.unit.to_string()),
                Some(m.better.as_str().to_string()),
            )
        })
        .collect();
    if listed != table {
        bad.push("BENCHMARK.json per_layer differs from metrics::PER_LAYER".into());
    }
}

/// Run every check; returns what failed.
pub fn run() -> Vec<String> {
    let sizes = Sizes::SMALL;
    let mut bad = Vec::new();
    check_stable_surface(&mut bad);
    check_manifest(&mut bad);
    for w in Workload::ALL {
        check_workload(w, &sizes, &mut bad);
    }
    check_mega_matches_library(&sizes, &mut bad);
    bad
}

#[cfg(test)]
mod tests {
    #[test]
    fn benchmark_checks_itself() {
        let bad = super::run();
        assert!(bad.is_empty(), "failed checks:\n{}", bad.join("\n"));
    }

    #[test]
    fn scaffolding_names_are_caught() {
        let hook = ["fn on_", "batch(&mut self)"].concat();
        assert_eq!(super::scaffolding_named(&hook).len(), 1);
        assert!(super::scaffolding_named("ctx.set_timer(after, tag)").is_empty());
    }
}
